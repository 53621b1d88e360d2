//! Overlap perf-regression runner: times the real rank-thread FSDP engine
//! with the comm/compute overlap engine off and on, per sharding strategy,
//! and emits `BENCH_overlap.json` with the median ns/step of each cell.
//!
//! Unlike the Criterion benches (which interleave everything into one HTML
//! report), this runner produces a small machine-readable artifact CI can
//! upload and diff across commits — the perf half of the overlap lock-in,
//! next to `tests/overlap_equivalence.rs`'s correctness half. Absolute
//! numbers are hardware-noise; the artifact exists so a commit that
//! silently serializes the pipeline again (overlap-on median drifting up
//! to the overlap-off median) shows up in review.
//!
//! The artifact also records `"isa"`, the GEMM kernels' instruction-set
//! level (`geofm_tensor::kernel_isa`), so timings from hosts with
//! different vector widths are not compared unawares.
//!
//! Usage: `bench_overlap [OUT.json]` (default `BENCH_overlap.json`).

use geofm_fsdp::{run_data_parallel, FsdpConfig, ShardingStrategy};
use geofm_nn::Module;
use geofm_tensor::{kernel_isa, TensorRng};
use geofm_vit::{VitConfig, VitModel};
use std::time::Instant;

// STEPS is deliberately large relative to world spawn/teardown: each timed
// rep launches a fresh world (plus per-rank comm threads when overlap is
// on), and at small STEPS that fixed, *asymmetric* setup cost leaks into
// the per-step figure of the overlap-on cell. 48 steps amortises it below
// the noise floor, and 31 reps keeps the paired-delta median stable while
// the whole four-strategy run stays around half a minute.
const WORLD: usize = 4;
const STEPS: usize = 48;
const REPS: usize = 31;

fn tiny() -> VitConfig {
    VitConfig {
        name: "bench".into(),
        width: 32,
        depth: 2,
        mlp: 64,
        heads: 4,
        patch: 4,
        img: 8,
        channels: 1,
    }
}

fn run_steps(strategy: ShardingStrategy, overlap: bool) {
    let cfg = tiny();
    let report = run_data_parallel(
        if overlap { FsdpConfig::overlapped(strategy) } else { FsdpConfig::tuned(strategy) },
        WORLD,
        0.01,
        STEPS,
        move |_| {
            let mut rng = TensorRng::seed_from(11);
            let mut m = VitModel::new(&tiny(), &mut rng);
            let units = m.unit_param_counts();
            (m, units)
        },
        move |m, rank, step| {
            let mut rng = TensorRng::seed_from(100 + step as u64);
            let imgs = rng.randn(&[4, cfg.channels * 64], 1.0);
            let per = 4 / WORLD;
            let xl = imgs.rows(rank * per, (rank + 1) * per);
            m.zero_grad();
            let enc = m.forward(&xl);
            let n = enc.numel() as f32;
            let loss = enc.sum_sq() / n;
            m.backward(&enc.scale(2.0 / n));
            loss
        },
        |_| 1e-4,
    );
    std::hint::black_box(report.mean_losses);
}

fn time_one(strategy: ShardingStrategy, overlap: bool) -> u64 {
    let t0 = Instant::now();
    run_steps(strategy, overlap);
    t0.elapsed().as_nanos() as u64 / STEPS as u64
}

fn median(samples: &mut [u64]) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Median ns/step for the off/on pair over `REPS` timed repetitions (each
/// a full `STEPS`-step distributed run, so spawn/teardown amortises across
/// steps), plus the **median paired delta** (on − off within each rep).
/// The two cells are timed *interleaved*, alternating which goes first
/// each rep, so slow machine-noise drift (thermal, background load) lands
/// inside every pair and cancels in the delta — the per-cell medians keep
/// the absolute scale, the paired delta is the trustworthy comparison.
fn median_pair_ns_per_step(strategy: ShardingStrategy) -> (u64, u64, i64) {
    // untimed warmups to fault in code paths and thread stacks
    run_steps(strategy, false);
    run_steps(strategy, true);
    let mut off = Vec::with_capacity(REPS);
    let mut on = Vec::with_capacity(REPS);
    for rep in 0..REPS {
        if rep % 2 == 0 {
            off.push(time_one(strategy, false));
            on.push(time_one(strategy, true));
        } else {
            on.push(time_one(strategy, true));
            off.push(time_one(strategy, false));
        }
    }
    let mut deltas: Vec<i64> =
        on.iter().zip(&off).map(|(&a, &b)| a as i64 - b as i64).collect();
    deltas.sort_unstable();
    let delta = deltas[deltas.len() / 2];
    (median(&mut off), median(&mut on), delta)
}

fn main() {
    let out = std::env::args().nth(1).unwrap_or_else(|| "BENCH_overlap.json".into());
    let strategies = [
        ShardingStrategy::NoShard,
        ShardingStrategy::FullShard,
        ShardingStrategy::ShardGradOp,
        ShardingStrategy::Hybrid { shard_size: 2 },
    ];

    println!(
        "BENCH overlap — median ns/step, world {WORLD}, {REPS} interleaved reps x {STEPS} steps, \
         kernels {}",
        kernel_isa()
    );
    println!(
        "{:>14} {:>14} {:>14} {:>8} {:>12}",
        "strategy", "off_ns", "on_ns", "on/off", "pair_delta"
    );
    let mut entries = Vec::new();
    for strategy in strategies {
        let (off, on, delta) = median_pair_ns_per_step(strategy);
        assert!(off > 0 && on > 0, "{}: degenerate timing", strategy.name());
        println!(
            "{:>14} {:>14} {:>14} {:>8.2} {:>12}",
            strategy.name(),
            off,
            on,
            on as f64 / off as f64,
            delta
        );
        entries.push(format!(
            "    {{\"strategy\": \"{}\", \"overlap_off_ns_per_step\": {}, \
             \"overlap_on_ns_per_step\": {}, \"median_paired_delta_ns\": {}}}",
            strategy.name(),
            off,
            on,
            delta
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"fsdp_step_overlap\",\n  \"isa\": \"{}\",\n  \"world\": {WORLD},\n  \
         \"steps_per_rep\": {STEPS},\n  \"reps\": {REPS},\n  \"unit\": \"ns_per_step\",\n  \
         \"rows\": [\n{}\n  ]\n}}\n",
        kernel_isa(),
        entries.join(",\n")
    );
    std::fs::write(&out, json).expect("cannot write BENCH_overlap.json");
    println!("  -> wrote {out}");
}
