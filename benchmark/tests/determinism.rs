//! Guards on the benchmark itself: deterministic metrics repeat exactly,
//! the sim cells reproduce the library's runners, wrong outputs are
//! caught, and `BENCHMARK.json` lists the metric tables.
//!
//! Run with `cargo test --release --manifest-path benchmark/Cargo.toml`.

use amnt_perfbench::{crash_recover, kv_mix, run, sim_grid, tracer::Tracer, Options};
use amnt_perfbench::{END_TO_END, PER_LAYER, WORKLOADS};

fn opts(seed: u64, trace: bool) -> Options {
    // Zero seconds: only the fixed count prefix (and each workload's
    // minimum number of units) runs.
    Options {
        seed,
        seconds: 0.0,
        trace,
    }
}

/// Simulated cycles, simulated recovery time and every count must be
/// identical between two runs of one seed and between the untraced and
/// traced runs, so a host-only change that perturbs the model shows up as
/// a count change.
#[test]
fn deterministic_metrics_repeat_exactly() {
    for w in WORKLOADS {
        let a = run(w, &opts(3, false)).unwrap();
        let b = run(w, &opts(3, false)).unwrap();
        let t = run(w, &opts(3, true)).unwrap();
        for out in [&a, &b, &t] {
            assert_eq!(out.failed, 0, "{w}: wrong outputs");
        }
        assert!(a.deterministic.contains_key("sim_cycles_per_op"), "{w}");
        assert!(a.deterministic.len() > 10, "{w}: counts missing");
        assert_eq!(
            a.deterministic, b.deterministic,
            "{w}: two untraced runs differ"
        );
        for (name, v) in &a.deterministic {
            assert_eq!(
                t.deterministic.get(name),
                Some(v),
                "{w}: {name} differs when traced"
            );
        }
    }
}

#[test]
fn another_seed_gives_other_inputs() {
    let a = run("kv_mix", &opts(1, false)).unwrap();
    let b = run("kv_mix", &opts(2, false)).unwrap();
    assert_ne!(a.deterministic, b.deterministic);
}

/// The grid splits each cell into `Machine::new` and `Machine::run`; that
/// must be exactly what `run_single` and `run_pair` do.
#[test]
fn sim_cells_reproduce_the_runners() {
    for mut cell in sim_grid::grid(5) {
        cell.len.accesses = 5_000;
        cell.len.warmup = 500;
        let ours = sim_grid::run_cell(&cell, &mut Tracer::default())
            .unwrap()
            .report;
        let theirs = match cell.models.as_slice() {
            [m] => amnt_sim::run_single(m, cell.cfg.clone(), cell.protocol, cell.len),
            [a, b] => amnt_sim::run_pair(a, b, cell.cfg.clone(), cell.protocol, cell.len),
            _ => unreachable!(),
        }
        .unwrap();
        assert_eq!(ours, theirs, "{}", cell.label);
    }
}

#[test]
fn kv_get_of_a_tampered_block_is_a_failure() {
    let mut store = kv_mix::Store::build(1).unwrap();
    let stream = kv_mix::ops(1);
    let get = stream.iter().find(|op| !op.is_write).copied().unwrap();
    let addr = kv_mix::key_addr(1, get.addr / 64);
    store.mem.nvm_mut().tamper_flip_bit(addr, 3);
    assert!(store.op(&get, &mut Tracer::default()).is_err());
}

#[test]
fn crash_cycle_checks_recovery_audit_and_read_back() {
    let (kind, _) = crash_recover::protocols()[2];
    let mut drill = crash_recover::Drill::build(1, kind, 0).unwrap();
    let cycle = drill.cycle(&mut Tracer::default()).unwrap();
    assert!(cycle.report.verified);
    assert!(cycle.report.nodes_recomputed > 0);
    assert!(drill.audit_nodes() > crash_recover::FRAMES * 8);
}

#[test]
fn untraced_result_line_has_exactly_the_end_to_end_metrics() {
    let out = run("kv_mix", &opts(1, false)).unwrap();
    let line = amnt_perfbench::result_json(&out, false);
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
    for (name, unit) in END_TO_END {
        assert!(out.metrics[name] > 0.0, "{name} must never be 0");
        assert!(
            line.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name}"
        );
        assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
    }
    assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
}

#[test]
fn benchmark_json_lists_the_metric_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).unwrap();
    let (head, per_layer) = json.split_once("\"per_layer\"").unwrap();
    let end_to_end = head.split_once("\"end_to_end\"").unwrap().1;
    for (name, unit) in END_TO_END {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(end_to_end.contains(&entry), "end_to_end lacks {entry}");
    }
    for (name, unit) in PER_LAYER {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(per_layer.contains(&entry), "per_layer lacks {entry}");
    }
    assert_eq!(per_layer.matches("\"name\"").count(), PER_LAYER.len());
    for w in WORKLOADS {
        assert!(json.contains(&format!("\"name\": \"{w}\"")), "{w}");
    }
}
