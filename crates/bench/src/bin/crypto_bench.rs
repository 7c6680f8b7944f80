//! Crypto throughput reference: scalar vs batched (8-lane) truncated MACs.
//!
//! Emits `results/crypto_bench.json` with per-MAC ns/op for the scalar
//! `mac64` path and the interleaved `mac64_batch::<8>` path over the
//! controller's exact 85-byte data-MAC message shape, plus the resulting
//! speedup. Perfgate pins `batch8_speedup` with a one-sided `min` row (a
//! ≥ 1.6× floor), so a regression in the lane engine fails CI rather than
//! surfacing as anecdote.
//!
//! One timed pass is at the mercy of host noise, so the bench runs
//! [`REPS`] repetitions. Each repetition times both arms back to back,
//! alternating which arm goes first, so slow drift hits both equally. Each of
//! the four columns is the median over the repetitions (the speedup and the
//! relative cost are per-repetition ratios), with `_min`, `_q1`, `_q3` and
//! `_max` columns beside it.
//!
//! Timing rows are host-clock measurements and inherently machine-relative;
//! the artifact intentionally carries only ratios and ns/op references, not
//! simulated cycles, and is excluded from byte-identity comparisons.

use amnt_bench::{time_bench, ExperimentResult};
use amnt_crypto::{mac64_batch, HmacSha256, DATA_MAC_MSG_LEN};
use std::hint::black_box;

/// Repetitions per arm (odd, so the median is one sample).
const REPS: usize = 11;
/// Timed iterations per arm and repetition.
const ITERS: u64 = 8_000;

/// `[min, q1, median, q3, max]` of `xs` (nearest-rank quartiles).
fn five_numbers(xs: &[f64]) -> [f64; 5] {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| v[((v.len() as f64 * q).ceil() as usize).max(1) - 1];
    [at(0.0), at(0.25), at(0.5), at(0.75), at(1.0)]
}

fn main() {
    let hmac = HmacSha256::new(b"crypto-bench-integrity-key");
    // Eight distinct 85-byte messages (the data-MAC shape) so the batch
    // cannot cheat via identical lanes.
    let msgs: Vec<[u8; DATA_MAC_MSG_LEN]> = (0..8u8)
        .map(|i| {
            let mut m = [0u8; DATA_MAC_MSG_LEN];
            for (j, b) in m.iter_mut().enumerate() {
                *b = i.wrapping_mul(37).wrapping_add(j as u8);
            }
            m
        })
        .collect();

    let scalar = || {
        time_bench("crypto/mac64_85B_scalar_x8", ITERS, || {
            let mut acc = 0u64;
            for m in &msgs {
                acc ^= hmac.mac64(black_box(m));
            }
            acc
        }) / 8.0
    };
    let batch = || {
        time_bench("crypto/mac64_85B_batch8", ITERS, || {
            let items: [(&HmacSha256, &[u8]); 8] =
                core::array::from_fn(|i| (&hmac, &msgs[i][..]));
            mac64_batch(black_box(&items))
        }) / 8.0
    };

    let (mut scalar_ns, mut batch_ns) = (Vec::new(), Vec::new());
    for rep in 0..REPS {
        let (s, b) = if rep % 2 == 0 {
            let s = scalar();
            (s, batch())
        } else {
            let b = batch();
            (scalar(), b)
        };
        scalar_ns.push(s);
        batch_ns.push(b);
    }
    let speedup: Vec<f64> = scalar_ns.iter().zip(&batch_ns).map(|(s, b)| s / b).collect();
    let rel: Vec<f64> = scalar_ns.iter().zip(&batch_ns).map(|(s, b)| b / s).collect();

    let mut result = ExperimentResult::new("crypto_bench", "ns per MAC (host clock)");
    println!("per-MAC over {REPS} alternating repetitions: min / q1 / median / q3 / max");
    for (col, xs) in [
        ("scalar_ns_per_mac", &scalar_ns),
        ("batch8_ns_per_mac", &batch_ns),
        ("batch8_speedup", &speedup),
        ("batch8_rel_scalar", &rel),
    ] {
        let [min, q1, median, q3, max] = five_numbers(xs);
        println!("  {col:<20} {min:>9.3} {q1:>9.3} {median:>9.3} {q3:>9.3} {max:>9.3}");
        result.push("mac64_85B", col, median);
        for (suffix, v) in [("min", min), ("q1", q1), ("q3", q3), ("max", max)] {
            result.push("mac64_85B", &format!("{col}_{suffix}"), v);
        }
    }
    let path = result.save().expect("write results/crypto_bench.json");
    println!("wrote {}", path.display());
}
