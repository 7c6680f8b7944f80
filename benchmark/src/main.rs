//! Command line of the benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --steady <runs> [--workload <name>] [--seed <first>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! The first form runs one workload and prints, as its last line, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. It exits non-zero on any wrong output. The second form
//! (steadiness mode) runs each workload (or the named one) `runs` times as
//! child processes, seeds `first..first+runs`, and prints each metric's
//! median, quartiles, min, max and quartile spread.

use amnt_perfbench::{result_json, run, stats, Options, END_TO_END, PER_LAYER, WORKLOADS};
use std::process::{Command, ExitCode};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    steady: Option<usize>,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        steady: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--steady" => {
                args.steady = Some(value()?.parse().map_err(|e| format!("--steady: {e}"))?)
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = args.steady {
        return steady(&args, runs);
    }
    let Some(workload) = args.workload.as_deref() else {
        eprintln!("perfbench: --workload is required");
        return ExitCode::from(2);
    };
    let opts = Options {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let out = match run(workload, &opts) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !args.trace {
        if let Some((name, _)) = END_TO_END
            .iter()
            .find(|(n, _)| out.metrics.get(*n).is_none_or(|v| *v <= 0.0))
        {
            eprintln!("perfbench: end-to-end metric {name} was not measured");
            return ExitCode::from(3);
        }
    }
    println!("{}", result_json(&out, args.trace));
    if out.failed > 0 {
        eprintln!(
            "perfbench: {} of {} operations gave wrong output",
            out.failed, out.attempted
        );
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

/// Metric name, value and unit from the result line this program prints.
fn parse_metrics(line: &str) -> Vec<(String, f64, String)> {
    let Some(body) = line.split_once("\"metrics\": {").map(|(_, b)| b) else {
        return Vec::new();
    };
    body.split("}, ")
        .filter_map(|piece| {
            let name = piece.split('"').nth(1)?;
            let value = piece
                .split_once("\"value\": ")?
                .1
                .split(',')
                .next()?
                .parse()
                .ok()?;
            let unit = piece.split_once("\"unit\": \"")?.1.split('"').next()?;
            Some((name.to_string(), value, unit.to_string()))
        })
        .collect()
}

fn steady(args: &Args, runs: usize) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let workloads: Vec<&str> = match args.workload.as_deref() {
        Some(w) => vec![w],
        None => WORKLOADS.to_vec(),
    };
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut ok = true;
    for w in workloads {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); table.len()];
        for i in 0..runs {
            let seed = args.seed + i as u64;
            let output = Command::new(&exe)
                .args(["--workload", w, "--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .output();
            let stdout = match output {
                Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).into_owned(),
                Ok(o) => {
                    eprintln!("perfbench: {w} seed {seed} failed: {}", o.status);
                    ok = false;
                    continue;
                }
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    return ExitCode::from(2);
                }
            };
            let last = stdout.lines().last().unwrap_or("");
            for (name, v, _) in parse_metrics(last) {
                if let Some(k) = table.iter().position(|(n, _)| *n == name) {
                    values[k].push(v);
                }
            }
            eprintln!("{w} seed {seed}: {last}");
        }
        println!(
            "{w}: {runs} runs, seeds {}..{}",
            args.seed,
            args.seed + runs as u64
        );
        println!(
            "  {:<40} {:>6} {:>14} {:>14} {:>14} {:>14} {:>14} {:>8}",
            "metric", "unit", "median", "q1", "q3", "min", "max", "spread"
        );
        for ((name, unit), vs) in table.iter().zip(&values) {
            let (q1, med, q3) = stats::quartiles(vs);
            let min = vs.iter().copied().fold(f64::INFINITY, f64::min);
            let max = vs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let spread = if med != 0.0 { (q3 - q1) / med } else { 0.0 };
            println!("  {name:<40} {unit:>6} {med:>14.6} {q1:>14.6} {q3:>14.6} {min:>14.6} {max:>14.6} {spread:>8.4}");
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
