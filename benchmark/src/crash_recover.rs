//! `crash_recover`: repeated write-burst / crash / recover / audit /
//! read-back cycles under leaf persistence, Osiris and AMNT.
//!
//! Each protocol has its own 2 TiB engine whose touched footprint is a
//! fixed set of blocks spread over a 128 MiB span: eight blocks in each of
//! 512 counter frames, one under each bottom-level tree node, so every
//! recovery and audit walks the whole touched closure with a MAC under
//! every bottom node. A cycle writes a burst of
//! new versions, crashes, recovers (`RecoveryReport::verified` must hold),
//! audits (`audit()` must return true) and reads back a sample with
//! `read_block_verified` against the shadow. An op is one cycle; one timed
//! unit is one cycle on one protocol.

use crate::kv_mix::value;
use crate::layers::{self, EngineTotals, OpCounts};
use crate::stats::{fast, peak_rss_mib, percentile, Deadline, Pacer};
use crate::tracer::Tracer;
use crate::{Options, Outcome, TimedUnits, Units};
use amnt_core::{
    AmntConfig, IntegrityError, OsirisConfig, ProtocolKind, RecoveryModel, RecoveryReport,
    SecureMemory, SecureMemoryConfig,
};
use amnt_prng::Rng;
use std::time::Instant;

/// Protected data capacity (the Table 4 scale).
pub const CAPACITY: u64 = 2 << 40;
/// Counter frames the footprint touches (one 4 KiB frame holds 64 counter
/// blocks, covering 256 KiB of data).
pub const FRAMES: u64 = 512;
/// Footprint blocks per frame: one under each of the frame's eight
/// bottom-level tree nodes.
pub const PER_FRAME: u64 = 8;
/// Blocks in the touched footprint.
pub const FOOTPRINT: u64 = FRAMES * PER_FRAME;
/// Writes per burst.
pub const BURST: usize = 128;
/// Blocks read back after each recovery.
pub const READBACK: usize = 64;
/// Cycles per protocol at the start of the timed phase whose statistics
/// are reported as counts.
pub const COUNT_ROUNDS: usize = 4;
/// Seconds between repeated set-ups during the timed phase.
const SETUP_EVERY_S: f64 = 1.5;
/// Untraced recoveries per protocol, so that each protocol's p90 leaves
/// at least ten samples beyond it.
const MIN_RECOVERIES: usize = 100;

/// The protocols, in round order.
pub fn protocols() -> [(ProtocolKind, &'static str); 3] {
    [
        (ProtocolKind::Leaf, "leaf"),
        (ProtocolKind::Osiris(OsirisConfig::default()), "osiris"),
        (ProtocolKind::Amnt(AmntConfig::default()), "amnt"),
    ]
}

/// One protocol's engine and shadow.
pub struct Drill {
    /// The engine.
    pub mem: SecureMemory,
    clock: u64,
    addrs: Vec<u64>,
    versions: Vec<u64>,
    rng: Rng,
}

/// What one cycle produced.
pub struct Cycle {
    /// The recovery report.
    pub report: RecoveryReport,
    /// Host ns of `recover()`.
    pub recover_ns: f64,
    /// Host ns of `audit()`.
    pub audit_ns: f64,
    /// Simulated cycles of the burst and the read-back.
    pub sim_cycles: u64,
}

impl Drill {
    /// Builds the engine and writes every footprint block once.
    ///
    /// # Errors
    ///
    /// Engine errors.
    pub fn build(seed: u64, kind: ProtocolKind, salt: u64) -> Result<Drill, IntegrityError> {
        let mut mem = SecureMemory::new(SecureMemoryConfig::with_capacity(CAPACITY), kind)?;
        let mut rng = Rng::seed_from_u64(seed ^ 0xC4A5_0000 ^ salt);
        // A seeded 1 GiB-aligned base inside the first 64 GiB.
        let base = rng.gen_range(0..64) << 30;
        // Block k of frame f sits in the data page of counter block
        // 64 f + 8 k, at a seeded offset inside that page.
        let addrs: Vec<u64> = (0..FOOTPRINT)
            .map(|i| {
                let (f, k) = (i / PER_FRAME, i % PER_FRAME);
                base + f * (256 << 10) + k * (32 << 10) + rng.gen_range(0..64) * 64
            })
            .collect();
        let mut clock = 0;
        for (i, &addr) in addrs.iter().enumerate() {
            clock = mem.write_block(clock, addr, &value(i as u64, 0))?;
        }
        Ok(Drill {
            mem,
            clock,
            addrs,
            versions: vec![0; FOOTPRINT as usize],
            rng,
        })
    }

    /// One cycle, with spans around each layer call.
    pub fn cycle(&mut self, tracer: &mut Tracer) -> Result<Cycle, String> {
        let start = self.clock;
        for _ in 0..BURST {
            let i = self.rng.gen_range(0..FOOTPRINT) as usize;
            let version = self.versions[i] + 1;
            let data = value(i as u64, version);
            let r = tracer.span("core.controller", || {
                self.mem.write_block(self.clock, self.addrs[i], &data)
            });
            self.clock = r.map_err(|e| format!("burst write: {e}"))?;
            self.versions[i] = version;
        }
        let burst_cycles = self.clock - start;
        tracer.span("core.controller", || self.mem.crash());
        let t = Instant::now();
        let report = tracer.span("core.recovery", || self.mem.recover());
        let recover_ns = t.elapsed().as_nanos() as f64;
        let report = report.map_err(|e| format!("recover: {e}"))?;
        if !report.verified {
            return Err("recovery report not verified".into());
        }
        let t = Instant::now();
        let audit = tracer.span("core.recovery", || self.mem.audit());
        let audit_ns = t.elapsed().as_nanos() as f64;
        match audit {
            Ok(true) => {}
            Ok(false) => return Err("audit after recovery returned false".into()),
            Err(e) => return Err(format!("audit: {e}")),
        }
        // The timeline restarts at a crash; so does the simulated clock.
        self.clock = 0;
        for _ in 0..READBACK {
            let i = self.rng.gen_range(0..FOOTPRINT) as usize;
            let r = tracer.span("core.controller", || {
                self.mem.read_block_verified(self.clock, self.addrs[i])
            });
            let (data, done) = r.map_err(|e| format!("read-back: {e}"))?;
            self.clock = done;
            if data != value(i as u64, self.versions[i]) {
                return Err(format!(
                    "read-back of block {i} differs from the last write"
                ));
            }
        }
        Ok(Cycle {
            report,
            recover_ns,
            audit_ns,
            sim_cycles: burst_cycles + self.clock,
        })
    }

    /// Nodes an audit recomputes: the ancestor closure of the touched
    /// counter frames (each frame contributes all its counter blocks).
    pub fn audit_nodes(&self) -> u64 {
        let g = self.mem.geometry();
        let base = g.counter_addr(0);
        let end = base + g.counter_blocks() * 64;
        let per_frame = amnt_nvm::FRAME_SIZE as u64 / 64;
        // Each touched counter frame holds 64 counter blocks: 8 bottom nodes.
        let mut level: Vec<u64> = self
            .mem
            .nvm()
            .touched_frames_in(base, end)
            .flat_map(|f| {
                let first = (f.max(base) - base) / 64 / 8;
                first..first + per_frame / 8
            })
            .collect();
        let mut nodes = 0;
        for _ in 2..=g.bottom_level() {
            level.dedup();
            nodes += level.len() as u64;
            level.iter_mut().for_each(|i| *i /= 8);
        }
        nodes + 1
    }
}

/// Builds one engine per protocol, in round order.
fn build_all(seed: u64) -> Result<Vec<Drill>, String> {
    protocols()
        .iter()
        .enumerate()
        .map(|(salt, (kind, name))| {
            Drill::build(seed, *kind, salt as u64).map_err(|e| format!("{name} set-up: {e}"))
        })
        .collect()
}

/// Runs the workload.
pub fn run(opts: &Options) -> Outcome {
    let mut out = Outcome::default();
    let kinds = protocols();
    let mut setup = Vec::new();
    let t = Instant::now();
    let mut drills = match build_all(opts.seed) {
        Ok(d) => d,
        Err(e) => {
            out.attempted += 1;
            out.fail(e);
            return out;
        }
    };
    setup.push(t.elapsed().as_secs_f64());
    let mut tracer = Tracer::default();

    // One untimed round warms the host and brings each engine to its
    // steady recovery footprint.
    for (d, (_, name)) in drills.iter_mut().zip(&kinds) {
        out.attempted += 1;
        if let Err(e) = d.cycle(&mut tracer) {
            out.fail(format!("{name}: {e}"));
        }
    }
    for d in &mut drills {
        d.mem.reset_stats();
    }

    let mut units = Units::default();
    // Host ms of each untraced recover() and audit(), by protocol.
    let (mut recover_ms, mut audit_ms) = (TimedUnits::default(), TimedUnits::default());
    let mut engine = EngineTotals::default();
    let (mut rec_reads, mut rec_bytes, mut rec_nodes, mut rec_counters) = (0u64, 0u64, 0u64, 0u64);
    let (mut sim_cycles, mut sim_recover_ms, mut audit_nodes) = (0u64, 0.0, 0u64);
    let model = RecoveryModel::default();
    let deadline = Deadline::new(opts.seconds);
    let mut pacer = Pacer::new(SETUP_EVERY_S);
    let mut round = 0usize;
    while round < COUNT_ROUNDS
        || !deadline.passed()
        || (recover_ms.fewest() < MIN_RECOVERIES && round < 4 * MIN_RECOVERIES)
    {
        let traced = Units::traced_unit(opts.trace, round);
        for (k, (d, (_, name))) in drills.iter_mut().zip(&kinds).enumerate() {
            tracer.set_enabled(traced);
            tracer.enter("bench");
            let t = Instant::now();
            let cycle = d.cycle(&mut tracer);
            let ns = t.elapsed().as_nanos() as f64;
            tracer.exit();
            tracer.set_enabled(false);
            out.attempted += 1;
            units.push(traced, k, 1.0, ns);
            let c = match cycle {
                Ok(c) => c,
                Err(e) => {
                    out.fail(format!("{name}: {e}"));
                    continue;
                }
            };
            if !traced {
                recover_ms.push(k, 1.0, c.recover_ns / 1e6);
                audit_ms.push(k, 1.0, c.audit_ns / 1e6);
            }
            if round < COUNT_ROUNDS {
                let r = &c.report;
                rec_reads += r.nvm_reads;
                rec_bytes += r.bytes_read;
                rec_nodes += r.nodes_recomputed;
                rec_counters += r.counters_recovered;
                sim_cycles += c.sim_cycles;
                sim_recover_ms += model.measured_ms(r);
                audit_nodes += d.audit_nodes();
            }
        }
        round += 1;
        if round == COUNT_ROUNDS {
            for d in &drills {
                let nvm = *d.mem.nvm().stats();
                engine.add(&d.mem.snapshot(), &nvm, d.mem.nvm().resident_frames());
            }
            out.set("peak_rss_mib", peak_rss_mib());
        }
        if round >= COUNT_ROUNDS && pacer.due() {
            // Throwaway engines, timed the way the first ones were.
            let t = Instant::now();
            match build_all(opts.seed) {
                Ok(_) => setup.push(t.elapsed().as_secs_f64()),
                Err(e) => out.fail(e),
            }
        }
    }

    let cycles = (COUNT_ROUNDS * kinds.len()) as f64;
    out.set("setup_s", fast(&setup));
    out.set("ops_per_s", units.plain.ops_per_s());
    out.fixed("sim_cycles_per_op", sim_cycles as f64 / cycles);
    out.set("warmup_ops", kinds.len() as f64);
    out.fixed("sim_recover_ms", sim_recover_ms / cycles);
    out.fixed("recovery.nvm_reads", rec_reads as f64 / cycles);
    out.fixed("recovery.bytes_read", rec_bytes as f64 / cycles);
    out.fixed("recovery.nodes_recomputed", rec_nodes as f64 / cycles);
    out.fixed("recovery.counters_recovered", rec_counters as f64 / cycles);
    let mut counts: OpCounts = engine.report(&mut out, cycles);
    // Node recomputation reads its eight children itself: those device
    // reads are inside the BMT unit cost, not the NVM one.
    counts.bmt_nodes = (rec_nodes + audit_nodes) as f64 / cycles;
    counts.nvm_reads = (counts.nvm_reads - 8.0 * counts.bmt_nodes).max(0.0);
    if !opts.trace {
        return out;
    }
    // Each protocol's percentile, summed over the protocols: the time of
    // one recovery of each, so a gain on any one protocol shows.
    out.set("recover_p50_ms", recover_ms.summed(|v| percentile(v, 0.5)));
    out.set("recover_p90_ms", recover_ms.summed(|v| percentile(v, 0.9)));
    out.set("recover_samples", recover_ms.fewest() as f64);
    out.set("recovery.audit_ms", audit_ms.summed(|v| percentile(v, 0.5)));
    let costs = layers::measure(&[]);
    costs.report(&mut out);
    layers::report_split(&mut out, &costs, &counts, 1e9 / units.plain.ops_per_s());
    layers::report_trace(&mut out, &tracer, &units.traced, &units.plain);
    out
}
