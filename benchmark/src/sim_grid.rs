//! `sim_grid`: a fixed grid of trace-driven simulator cells.
//!
//! canneal (poor metadata locality), lbm (write-intensive) and
//! blackscholes (low LLC miss rate), each under AMNT and strict
//! persistence on the single-program PARSEC machine, plus the paper's
//! first multiprogram pair on the AMNT++ machine, so the buddy allocator
//! does work. An op is one simulated access. Each cell is built and run
//! exactly as `amnt_sim::run_single` / `run_pair` do, split into
//! `Machine::new` (set-up) and `Machine::run` (the timed unit); the
//! benchmark's test checks that the split reproduces those runners'
//! reports.

use crate::layers::{self, EngineTotals, OpCounts};
use crate::stats::{fast, peak_rss_mib, Deadline};
use crate::tracer::Tracer;
use crate::{Options, Outcome, TimedUnits, Units};
use amnt_core::{AmntConfig, ProtocolKind};
use amnt_nvm::NvmStats;
use amnt_os::Pid;
use amnt_sim::{with_amnt_plus, Machine, MachineConfig, RunLength, SimError, SimReport};
use amnt_workloads::{multiprogram_pairs, TraceGen, WorkloadModel};
use std::time::Instant;

/// Measured accesses per core per cell.
pub const ACCESSES: u64 = 50_000;
/// Warm-up accesses per cell (whole machine) before statistics reset.
pub const WARMUP: u64 = 5_000;
/// Runs of each single-program cell per timed pass. The pair's
/// `Machine::new` ages an 8 GiB allocator and takes longer than every
/// cell's run together; a single-program machine builds in well under a
/// millisecond. Repeating the single-program cells keeps most of a pass in
/// timed units.
pub const SINGLE_REPEATS: usize = 3;
/// Timed passes every run makes, however short its `--seconds`, so that a
/// traced run has both untraced and traced passes.
pub const MIN_PASSES: usize = 3;

/// One experiment cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// `bench/protocol` label.
    pub label: String,
    /// Machine configuration.
    pub cfg: MachineConfig,
    /// Secure-memory protocol.
    pub protocol: ProtocolKind,
    /// One model per core.
    pub models: Vec<WorkloadModel>,
    /// Run length and trace seed.
    pub len: RunLength,
}

fn model(name: &str) -> WorkloadModel {
    WorkloadModel::by_name(name).expect("grid benchmarks are in the catalog")
}

/// The grid for `seed`: one AMNT++ pair and six single-program cells.
pub fn grid(seed: u64) -> Vec<Cell> {
    let amnt = ProtocolKind::Amnt(AmntConfig::default());
    // The pair comes first: its aged allocator is the largest machine, so
    // the run's peak resident set is set on a fresh heap.
    let (a, b) = multiprogram_pairs()[0];
    let mut cells = vec![Cell {
        label: format!("{a}+{b}/amnt++"),
        cfg: with_amnt_plus(MachineConfig::parsec_multi(), AmntConfig::default()),
        protocol: amnt,
        models: vec![model(a), model(b)],
        len: RunLength {
            accesses: ACCESSES,
            warmup: WARMUP,
            seed: seed * 8 + 7,
        },
    }];
    for (i, bench) in ["canneal", "lbm", "blackscholes"].into_iter().enumerate() {
        for (protocol, name) in [(amnt, "amnt"), (ProtocolKind::Strict, "strict")] {
            cells.push(Cell {
                label: format!("{bench}/{name}"),
                cfg: MachineConfig::parsec_single(),
                protocol,
                models: vec![model(bench)],
                len: RunLength {
                    accesses: ACCESSES,
                    warmup: WARMUP,
                    seed: seed * 8 + i as u64,
                },
            });
        }
    }
    cells
}

/// The per-core event sources `run_single` / `run_pair` would build.
fn streams(cell: &Cell) -> Vec<(Pid, TraceGen)> {
    let len = cell.len;
    match cell.models.as_slice() {
        [m] => vec![(1, TraceGen::new(m, len.seed, len.warmup + len.accesses))],
        [a, b] => {
            let total = len.warmup / 2 + len.accesses;
            vec![
                (1, TraceGen::new(a, len.seed, total)),
                (2, TraceGen::new(b, len.seed + 17, total)),
            ]
        }
        _ => unreachable!("grid cells have one or two cores"),
    }
}

/// One cell's run: its report, device traffic, and host times.
pub struct CellRun {
    /// The simulator's report.
    pub report: SimReport,
    /// Device traffic since the region of interest began.
    pub nvm: NvmStats,
    /// Device frames resident at the end.
    pub resident_frames: usize,
    /// Host ns building the event sources and the machine.
    pub setup_ns: f64,
    /// Host ns of `Machine::new` alone.
    pub new_ns: f64,
    /// Host ns of `Machine::run`.
    pub run_ns: f64,
}

/// Builds and runs one cell, with spans around each layer call.
///
/// # Errors
///
/// Propagates [`SimError`].
pub fn run_cell(cell: &Cell, tracer: &mut Tracer) -> Result<CellRun, SimError> {
    let t0 = Instant::now();
    // Trace generators are lazy: their work happens inside `Machine::run`.
    let gens = streams(cell);
    let tn = Instant::now();
    let machine = tracer.span("sim", || {
        Machine::new(cell.cfg.clone(), cell.protocol, gens)
    });
    let mut machine = machine?;
    let t1 = Instant::now();
    let report = tracer.span("sim", || machine.run(cell.len.warmup));
    let t2 = Instant::now();
    let report = report?;
    let nvm = *machine.secure_mut().nvm().stats();
    let resident_frames = machine.secure_mut().nvm().resident_frames();
    Ok(CellRun {
        report,
        nvm,
        resident_frames,
        setup_ns: (t1 - t0).as_nanos() as f64,
        new_ns: (t1 - tn).as_nanos() as f64,
        run_ns: (t2 - t1).as_nanos() as f64,
    })
}

/// Ops a cell asks for: its warm-up and every core's measured accesses.
fn requested(cell: &Cell) -> u64 {
    cell.len.warmup + cell.len.accesses * cell.models.len() as u64
}

/// Checks one cell run against the request and the first pass.
fn check(cell: &Cell, run: &CellRun, first: Option<&SimReport>) -> Result<(), String> {
    let r = &run.report;
    if cell.models.len() == 1 && r.accesses != cell.len.accesses {
        return Err(format!(
            "{}: measured {} accesses, asked {}",
            cell.label, r.accesses, cell.len.accesses
        ));
    }
    if r.accesses == 0 || r.cycles == 0 {
        return Err(format!("{}: empty measurement", cell.label));
    }
    if let Some(f) = first {
        if (f.cycles, f.accesses, f.llc_misses) != (r.cycles, r.accesses, r.llc_misses) {
            return Err(format!("{}: pass differs from the first pass", cell.label));
        }
    }
    Ok(())
}

/// Runs the workload.
pub fn run(opts: &Options) -> Outcome {
    let cells = grid(opts.seed);
    let mut out = Outcome::default();
    let mut tracer = Tracer::default();
    let mut first: Vec<CellRun> = Vec::new();
    let mut units = Units::default();
    // Per-cell set-up times; a pass's set-up is every cell's, summed.
    let mut setup = TimedUnits::default();
    let mut machine_new = TimedUnits::default();

    // Pass 0 warms the host (allocator, page cache, branch predictors) and
    // fixes the deterministic counts; every later pass must repeat it. A
    // wrong cell counts all its ops as failed.
    for cell in &cells {
        match run_cell(cell, &mut tracer) {
            Ok(r) => {
                let ops = r.report.accesses + WARMUP;
                out.attempted += ops;
                if let Err(e) = check(cell, &r, None) {
                    out.fail_ops(ops, e);
                }
                first.push(r);
            }
            Err(e) => {
                let ops = requested(cell);
                out.attempted += ops;
                out.fail_ops(ops, format!("{}: {e}", cell.label));
                return out;
            }
        }
    }
    out.set("peak_rss_mib", peak_rss_mib());

    // A pass runs the pair once, then the single-program cells round-robin,
    // SINGLE_REPEATS times over. Once the minimum passes are done, the run
    // stops at the first unit boundary after the deadline.
    let (pair, singles): (Vec<usize>, Vec<usize>) =
        (0..cells.len()).partition(|&k| cells[k].models.len() > 1);
    let mut schedule = pair;
    for _ in 0..SINGLE_REPEATS {
        schedule.extend(&singles);
    }
    let deadline = Deadline::new(opts.seconds);
    let mut pass = 0usize;
    while !deadline.passed() || pass < MIN_PASSES {
        let traced = Units::traced_unit(opts.trace, pass);
        tracer.set_enabled(traced);
        tracer.enter("bench");
        for &k in &schedule {
            if pass >= MIN_PASSES && deadline.passed() {
                break;
            }
            let cell = &cells[k];
            // The ops of the first pass: what every run must repeat.
            let ops = first[k].report.accesses + WARMUP;
            out.attempted += ops;
            match run_cell(cell, &mut tracer) {
                Ok(r) => {
                    if let Err(e) = check(cell, &r, Some(&first[k].report)) {
                        out.fail_ops(ops, e);
                    }
                    units.push(traced, k, ops as f64, r.run_ns);
                    if !traced {
                        setup.push(k, 1.0, r.setup_ns);
                        machine_new.push(k, 1.0, r.new_ns);
                    }
                }
                Err(e) => out.fail_ops(ops, format!("{}: {e}", cell.label)),
            }
        }
        tracer.exit();
        tracer.set_enabled(false);
        pass += 1;
    }

    let accesses: u64 = first.iter().map(|r| r.report.accesses).sum();
    let cycles: u64 = first.iter().map(|r| r.report.cycles).sum();
    let ops = accesses as f64;
    out.set("setup_s", setup.summed(fast) / 1e9);
    out.set("ops_per_s", units.plain.ops_per_s());
    out.fixed("sim_cycles_per_op", cycles as f64 / ops);
    out.set("warmup_ops", (WARMUP * cells.len() as u64) as f64);

    let mut engine = EngineTotals::default();
    let (mut l1, mut l1_hits, mut l2, mut l2_hits, mut l3) = (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut llc_misses, mut os_instr, mut restructures) = (0u64, 0u64, 0u64);
    for r in &first {
        let rep = &r.report;
        engine.add(&rep.snapshot, &r.nvm, r.resident_frames);
        for (c1, c2) in &rep.core_cache_stats {
            l1 += c1.accesses();
            l1_hits += c1.hits;
            l2 += c2.accesses();
            l2_hits += c2.hits;
        }
        l3 += rep.l3_stats.map_or(0, |s| s.accesses());
        llc_misses += rep.llc_misses;
        os_instr += rep.os_instructions;
        restructures += rep.restructures;
    }
    let mut counts: OpCounts = engine.report(&mut out, ops);
    out.fixed("sim.l1_hit_rate", l1_hits as f64 / l1.max(1) as f64);
    out.fixed("sim.l2_hit_rate", l2_hits as f64 / l2.max(1) as f64);
    out.fixed("sim.llc_miss_rate", llc_misses as f64 / ops);
    out.fixed(
        "sim.engine_calls_per_access",
        (engine.data_reads + engine.data_writes) as f64 / ops,
    );
    out.fixed("os.instructions_per_kaccess", os_instr as f64 * 1e3 / ops);
    out.fixed("os.restructures", restructures as f64);
    counts.sim_cache_accesses = (l1 + l2 + l3) as f64 / ops;
    counts.tracegen_events = 1.0;
    counts.translations = 1.0;
    if !opts.trace {
        return out;
    }
    out.set("sim.machine_new_s", machine_new.summed(fast) / 1e9);

    let models: Vec<WorkloadModel> = cells.iter().flat_map(|c| c.models.clone()).collect();
    let costs = layers::measure(&models);
    costs.report(&mut out);
    let measured_ns = 1e9 / units.plain.ops_per_s();
    layers::report_split(&mut out, &costs, &counts, measured_ns);
    layers::report_trace(&mut out, &tracer, &units.traced, &units.plain);
    out
}
