//! Host-time benchmark of the Midsummer workspace.
//!
//! Three single-threaded workloads drive the library's public API
//! ([`sim_grid`], [`kv_mix`], [`crash_recover`]). Each run reports the
//! end-to-end metrics in [`END_TO_END`] (untraced run) or the per-layer
//! metrics in [`PER_LAYER`] (traced run). Host times always come from the
//! distribution of many fixed-size timed units inside one run, never from
//! a single whole-run wall clock. See `README.md` for the metric map.

#![forbid(unsafe_code)]

pub mod crash_recover;
pub mod kv_mix;
pub mod layers;
pub mod sim_grid;
pub mod stats;
pub mod tracer;

use std::collections::BTreeMap;

/// The workloads, by command-line name.
pub const WORKLOADS: [&str; 3] = ["sim_grid", "kv_mix", "crash_recover"];

/// End-to-end metrics: every workload reports every one of them, never 0.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("sim_cycles_per_op", "cycles"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (traced run). A workload that does not exercise a
/// layer reports 0 for that layer's counts.
pub const PER_LAYER: [(&str, &str); 70] = [
    // Workload-level latencies (untraced units of the traced run).
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("read_samples", "count"),
    ("write_p50_us", "us"),
    ("write_p99_us", "us"),
    ("write_samples", "count"),
    ("recover_p50_ms", "ms"),
    ("recover_p90_ms", "ms"),
    ("recover_samples", "count"),
    ("sim_recover_ms", "ms"),
    ("error_rate", "ratio"),
    ("warmup_ops", "count"),
    // Tracing overhead: the same units with and without spans.
    ("trace.ops_per_s_untraced", "1/s"),
    ("trace.ops_per_s_traced", "1/s"),
    ("trace.overhead", "ratio"),
    // crypto
    ("crypto.mac64_ns", "ns"),
    ("crypto.mac64_batch8_ns_per_mac", "ns"),
    ("crypto.sha256_64B_ns", "ns"),
    ("crypto.aes_block_ns", "ns"),
    ("crypto.ctr_line_ns", "ns"),
    // bmt
    ("bmt.compute_node_ns", "ns"),
    ("bmt.touched_node_ns", "ns"),
    ("bmt.node_mac_ns", "ns"),
    // cache
    ("cache.access_ns", "ns"),
    ("cache.fill_ns", "ns"),
    ("cache.metadata_hit_rate", "ratio"),
    ("cache.evictions_per_op", "count"),
    ("cache.dirty_evictions_per_op", "count"),
    // nvm
    ("nvm.read_block_ns", "ns"),
    ("nvm.write_block_ns", "ns"),
    ("nvm.reads_per_op", "count"),
    ("nvm.writes_per_op", "count"),
    ("nvm.bytes_written_per_op", "B"),
    ("nvm.resident_frames", "count"),
    // core.controller
    ("controller.hashes_per_op", "count"),
    ("controller.metadata_fetches_per_op", "count"),
    ("controller.persist_writes_per_op", "count"),
    ("controller.posted_writes_per_op", "count"),
    ("controller.counter_overflows_per_kop", "count"),
    ("controller.glue_ns_per_op", "ns"),
    ("amnt.subtree_hit_rate", "ratio"),
    ("amnt.transitions_per_kwrite", "count"),
    ("timeline.queue_stall_cycles_per_op", "cycles"),
    ("timeline.bank_wait_cycles_per_op", "cycles"),
    // core.recovery
    ("recovery.nvm_reads", "count"),
    ("recovery.bytes_read", "B"),
    ("recovery.nodes_recomputed", "count"),
    ("recovery.counters_recovered", "count"),
    ("recovery.audit_ms", "ms"),
    // sim
    ("sim.l1_hit_rate", "ratio"),
    ("sim.l2_hit_rate", "ratio"),
    ("sim.llc_miss_rate", "ratio"),
    ("sim.engine_calls_per_access", "count"),
    ("sim.machine_new_s", "s"),
    // workloads, os
    ("workloads.tracegen_ns_per_access", "ns"),
    ("os.translate_ns", "ns"),
    ("os.instructions_per_kaccess", "count"),
    ("os.restructures", "count"),
    // Modelled split of untraced host time per op (count x unit cost).
    ("split.crypto_share", "ratio"),
    ("split.bmt_share", "ratio"),
    ("split.cache_share", "ratio"),
    ("split.nvm_share", "ratio"),
    ("split.sim_share", "ratio"),
    ("split.workloads_share", "ratio"),
    ("split.os_share", "ratio"),
    ("split.glue_share", "ratio"),
    // Measured self time per span layer (span minus child spans), as a
    // share of traced unit time.
    ("self.bench_share", "ratio"),
    ("self.controller_share", "ratio"),
    ("self.recovery_share", "ratio"),
    ("self.sim_share", "ratio"),
];

/// Run parameters shared by every workload.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Seconds of timed units after set-up and warm-up.
    pub seconds: f64,
    /// Traced run: alternate traced and untraced units and report
    /// [`PER_LAYER`]; otherwise report [`END_TO_END`].
    pub trace: bool,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (workload-defined unit of work).
    pub attempted: u64,
    /// Operations whose output was wrong or that returned an error.
    pub failed: u64,
    /// Metric values by name; units come from the metric tables.
    pub metrics: BTreeMap<String, f64>,
    /// Deterministic values (counts, simulated cycles) that must be
    /// identical between runs of one seed, traced or not.
    pub deterministic: BTreeMap<String, f64>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Records a deterministic value (also reported as a metric when the
    /// name is one).
    pub fn fixed(&mut self, name: &str, value: f64) {
        self.deterministic.insert(name.to_string(), value);
        self.metrics.insert(name.to_string(), value);
    }

    /// Records a deterministic value that is guarded but not reported.
    pub fn guard(&mut self, name: &str, value: f64) {
        self.deterministic.insert(name.to_string(), value);
    }

    /// Records a failed operation with a reason on stderr.
    pub fn fail(&mut self, what: impl std::fmt::Display) {
        self.fail_ops(1, what);
    }

    /// Records `ops` failed operations (a wrong unit of that many ops)
    /// with a reason on stderr.
    pub fn fail_ops(&mut self, ops: u64, what: impl std::fmt::Display) {
        if self.failed < 10 {
            eprintln!("perfbench: wrong output: {what}");
        }
        self.failed += ops;
    }
}

/// Runs one workload by name.
///
/// # Errors
///
/// An unknown workload name.
pub fn run(workload: &str, opts: &Options) -> Result<Outcome, String> {
    let mut out = match workload {
        "sim_grid" => sim_grid::run(opts),
        "kv_mix" => kv_mix::run(opts),
        "crash_recover" => crash_recover::run(opts),
        other => return Err(format!("unknown workload {other:?}; one of {WORKLOADS:?}")),
    };
    let rate = out.failed as f64 / out.attempted.max(1) as f64;
    out.set("error_rate", rate);
    Ok(out)
}

/// Renders the result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the latter holding every metric of the selected table.
pub fn result_json(out: &Outcome, trace: bool) -> String {
    let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = out.metrics.get(*name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

/// Host times of fixed-size timed units, grouped by kind (a sim cell, a
/// protocol). Throughput comes from each kind's uncontended unit time
/// ([`stats::fast`]), so every kind weighs in by its own work.
#[derive(Debug, Default)]
pub struct TimedUnits {
    by_kind: BTreeMap<usize, (f64, Vec<f64>)>,
}

impl TimedUnits {
    /// Records one unit of `kind` that did `ops` operations in `ns`.
    pub fn push(&mut self, kind: usize, ops: f64, ns: f64) {
        let entry = self.by_kind.entry(kind).or_default();
        entry.0 += ops;
        entry.1.push(ns);
    }

    /// Operations per second: summed mean ops per unit over the summed
    /// uncontended unit times ([`stats::fast`]).
    pub fn ops_per_s(&self) -> f64 {
        let ops: f64 = self.by_kind.values().map(|(o, t)| o / t.len() as f64).sum();
        let ns = self.summed(stats::fast);
        if ns > 0.0 {
            ops / ns * 1e9
        } else {
            0.0
        }
    }

    /// `stat` of each kind's unit times, summed over kinds: the time of one
    /// unit of every kind, in ns.
    pub fn summed(&self, stat: fn(&[f64]) -> f64) -> f64 {
        self.by_kind.values().map(|(_, t)| stat(t)).sum()
    }

    /// Samples of the kind with the fewest (0 for none).
    pub fn fewest(&self) -> usize {
        self.by_kind
            .values()
            .map(|(_, t)| t.len())
            .min()
            .unwrap_or(0)
    }
}

/// Untraced and traced units of one run. An untraced run puts every unit
/// in `plain`; a traced run alternates, starting untraced.
#[derive(Debug, Default)]
pub struct Units {
    /// Units timed with spans off.
    pub plain: TimedUnits,
    /// Units timed with spans on.
    pub traced: TimedUnits,
}

impl Units {
    /// Whether unit number `index` records spans.
    pub fn traced_unit(trace: bool, index: usize) -> bool {
        trace && index % 2 == 1
    }

    /// Files a unit under the traced or untraced set.
    pub fn push(&mut self, traced: bool, kind: usize, ops: f64, ns: f64) {
        let set = if traced {
            &mut self.traced
        } else {
            &mut self.plain
        };
        set.push(kind, ops, ns);
    }
}
