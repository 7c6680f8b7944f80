//! `kv_mix`: a closed-loop key-value client over a direct `SecureMemory`
//! under AMNT.
//!
//! One client sends gets (`read_block_verified`) and puts (`write_block`)
//! on Zipfian keys, each waiting for the previous to complete. Keys sit
//! 256 KiB apart across 1 GiB of protected data, so every key has its own
//! counter, HMAC line and bottom tree node and the metadata working set is
//! far beyond the 64 KiB metadata cache. Every get is checked against a
//! shadow of the last value put. An op is one get or put.

use crate::layers::{self, EngineTotals};
use crate::stats::{fast, peak_rss_mib, percentile, Deadline, Pacer};
use crate::tracer::Tracer;
use crate::{Options, Outcome, Units};
use amnt_core::{AmntConfig, IntegrityError, ProtocolKind, SecureMemory, SecureMemoryConfig};
use amnt_workloads::{zipfian_mix, TenantOp, ZipfianMixConfig};
use std::time::Instant;

/// Protected data capacity.
pub const CAPACITY: u64 = 1 << 30;
/// Distinct keys.
pub const KEYS: u64 = 4096;
/// Bytes between consecutive keys.
const STRIDE: u64 = CAPACITY / KEYS;
/// Length of the generated op stream (replayed cyclically).
const STREAM: usize = 1 << 16;
/// Untimed ops before timing, so the metadata cache and the AMNT subtree
/// reach steady state.
pub const WARM_OPS: usize = 16_384;
/// Ops at the start of the timed phase whose statistics are reported as
/// counts (a fixed prefix, so counts do not depend on host speed).
pub const COUNT_OPS: usize = 32_768;
/// Ops per timed unit.
pub const BATCH: usize = 256;
/// Seconds between repeated set-ups during the timed phase.
const SETUP_EVERY_S: f64 = 1.5;

/// Block address of `key` under `seed`: one key per 256 KiB stride, at a
/// seeded block offset inside it.
pub fn key_addr(seed: u64, key: u64) -> u64 {
    let mut z = (seed << 32 ^ key).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    key * STRIDE + (z % (STRIDE / 64)) * 64
}

/// The value stored under `key` at `version`.
pub fn value(key: u64, version: u64) -> [u8; 64] {
    let mut v = [0u8; 64];
    v[..8].copy_from_slice(&key.to_le_bytes());
    v[8..16].copy_from_slice(&version.to_le_bytes());
    let mut x = key ^ version.rotate_left(17) ^ 0xA5A5_5A5A_0F0F_F0F0;
    for chunk in v[16..].chunks_mut(8) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        chunk.copy_from_slice(&x.to_le_bytes());
    }
    v
}

/// The store: the engine, its simulated clock and the shadow versions.
pub struct Store {
    /// The secure-memory engine.
    pub mem: SecureMemory,
    /// Simulated time (the closed loop's completion time).
    pub clock: u64,
    versions: Vec<u64>,
    addrs: Vec<u64>,
}

impl Store {
    /// Builds the engine and puts every key once (version 0).
    ///
    /// # Errors
    ///
    /// Engine errors.
    pub fn build(seed: u64) -> Result<Store, IntegrityError> {
        let config = SecureMemoryConfig::with_capacity(CAPACITY);
        let mut mem = SecureMemory::new(config, ProtocolKind::Amnt(AmntConfig::default()))?;
        let addrs: Vec<u64> = (0..KEYS).map(|k| key_addr(seed, k)).collect();
        let mut clock = 0;
        for (k, &addr) in addrs.iter().enumerate() {
            clock = mem.write_block(clock, addr, &value(k as u64, 0))?;
        }
        Ok(Store {
            mem,
            clock,
            versions: vec![0; KEYS as usize],
            addrs,
        })
    }

    /// Runs one op with a span around the engine call; returns the host
    /// ns of the call, or a description of a wrong output.
    pub fn op(&mut self, op: &TenantOp, tracer: &mut Tracer) -> Result<f64, String> {
        let key = op.addr / 64;
        let addr = self.addrs[key as usize];
        if op.is_write {
            let version = self.versions[key as usize] + 1;
            let data = value(key, version);
            let t = Instant::now();
            let r = tracer.span("core.controller", || {
                self.mem.write_block(self.clock, addr, &data)
            });
            let ns = t.elapsed().as_nanos() as f64;
            self.clock = r.map_err(|e| format!("put key {key}: {e}"))?;
            self.versions[key as usize] = version;
            Ok(ns)
        } else {
            let t = Instant::now();
            let r = tracer.span("core.controller", || {
                self.mem.read_block_verified(self.clock, addr)
            });
            let ns = t.elapsed().as_nanos() as f64;
            let (data, done) = r.map_err(|e| format!("get key {key}: {e}"))?;
            self.clock = done;
            if data != value(key, self.versions[key as usize]) {
                return Err(format!("get key {key}: value differs from the last put"));
            }
            Ok(ns)
        }
    }
}

/// The op stream for `seed`: the generator's default mix (Zipf theta
/// 0.99, 70% puts) over one tenant's keys.
pub fn ops(seed: u64) -> Vec<TenantOp> {
    zipfian_mix(&ZipfianMixConfig {
        tenants: 1,
        blocks_per_tenant: KEYS,
        ops: STREAM,
        seed,
        ..ZipfianMixConfig::default()
    })
}

/// Runs the workload.
pub fn run(opts: &Options) -> Outcome {
    let mut out = Outcome::default();
    let stream = ops(opts.seed);
    let mut setup = Vec::new();
    let t = Instant::now();
    let mut store = match Store::build(opts.seed) {
        Ok(s) => s,
        Err(e) => {
            out.attempted += 1;
            out.fail(format!("set-up: {e}"));
            return out;
        }
    };
    setup.push(t.elapsed().as_secs_f64());
    let mut tracer = Tracer::default();

    let mut next = 0usize;
    for _ in 0..WARM_OPS {
        out.attempted += 1;
        if let Err(e) = store.op(&stream[next % STREAM], &mut tracer) {
            out.fail(e);
        }
        next += 1;
    }
    store.mem.reset_stats();
    let clock0 = store.clock;

    let mut units = Units::default();
    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    let mut engine = EngineTotals::default();
    let mut cycles = 0;
    let deadline = Deadline::new(opts.seconds);
    let mut pacer = Pacer::new(SETUP_EVERY_S);
    let mut done = 0usize;
    while done < COUNT_OPS || !deadline.passed() {
        let traced = Units::traced_unit(opts.trace, done / BATCH);
        tracer.set_enabled(traced);
        tracer.enter("bench");
        let t = Instant::now();
        for _ in 0..BATCH {
            let op = stream[next % STREAM];
            next += 1;
            out.attempted += 1;
            match store.op(&op, &mut tracer) {
                Ok(ns) if !traced => {
                    if op.is_write { &mut writes } else { &mut reads }.push(ns / 1e3)
                }
                Ok(_) => {}
                Err(e) => out.fail(e),
            }
        }
        let ns = t.elapsed().as_nanos() as f64;
        tracer.exit();
        tracer.set_enabled(false);
        units.push(traced, 0, BATCH as f64, ns);
        done += BATCH;
        if done == COUNT_OPS {
            let nvm = *store.mem.nvm().stats();
            engine.add(
                &store.mem.snapshot(),
                &nvm,
                store.mem.nvm().resident_frames(),
            );
            cycles = store.clock - clock0;
            out.set("peak_rss_mib", peak_rss_mib());
        }
        if done >= COUNT_OPS && pacer.due() {
            // A throwaway store, timed the way the first one was.
            let t = Instant::now();
            match Store::build(opts.seed) {
                Ok(_) => setup.push(t.elapsed().as_secs_f64()),
                Err(e) => out.fail(format!("set-up: {e}")),
            }
        }
    }

    let ops = COUNT_OPS as f64;
    out.set("setup_s", fast(&setup));
    out.set("ops_per_s", units.plain.ops_per_s());
    out.fixed("sim_cycles_per_op", cycles as f64 / ops);
    out.set("warmup_ops", WARM_OPS as f64);
    let counts = engine.report(&mut out, ops);
    if !opts.trace {
        return out;
    }
    out.set("read_p50_us", percentile(&reads, 0.5));
    out.set("read_p99_us", percentile(&reads, 0.99));
    out.set("read_samples", reads.len() as f64);
    out.set("write_p50_us", percentile(&writes, 0.5));
    out.set("write_p99_us", percentile(&writes, 0.99));
    out.set("write_samples", writes.len() as f64);
    let costs = layers::measure(&[]);
    costs.report(&mut out);
    layers::report_split(&mut out, &costs, &counts, 1e9 / units.plain.ops_per_s());
    layers::report_trace(&mut out, &tracer, &units.traced, &units.plain);
    out
}
