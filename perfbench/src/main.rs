//! The repository benchmark: MAE pretraining on one rank, MAE pretraining
//! on the FSDP runtime at world 2, and the threaded serving plane under an
//! open-loop arrival schedule.
//!
//! Usage: `geofm-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end set ([`END_TO_END`]); with
//! `--trace 1` a separate traced run reports the per-layer set
//! ([`PER_LAYER`]). A failed output check panics, so the run exits
//! non-zero without a result. See `README.md` beside this crate.

mod replay;
mod serve;
mod stats;
mod train;

use std::path::PathBuf;
use std::time::Instant;

/// End-to-end metrics: every workload reports each of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("throughput_per_s", "1/s"),
    ("latency_ms", "ms"),
];

/// Per-layer metrics of the traced run. A layer that does no work on a
/// workload reports 0 (see [`Report::not_applicable`]).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("fail_frac", "ratio"),
    ("step_ms_p50", "ms"),
    ("telemetry.overhead_frac", "ratio"),
    ("tensor.matmul.gflops", "GFLOP/s"),
    ("nn.attention.fwd_ms", "ms"),
    ("nn.attention.bwd_ms", "ms"),
    ("nn.attention.vs_matmul", "ratio"),
    ("nn.mlp.fwd_ms", "ms"),
    ("nn.mlp.bwd_ms", "ms"),
    ("nn.mlp.vs_matmul", "ratio"),
    ("nn.layernorm.fwd_ms", "ms"),
    ("nn.layernorm.bwd_ms", "ms"),
    ("nn.layernorm.gbps", "GB/s"),
    ("nn.patch_embed.fwd_ms", "ms"),
    ("nn.patch_embed.bwd_ms", "ms"),
    ("nn.linear.fwd_ms", "ms"),
    ("nn.linear.bwd_ms", "ms"),
    ("nn.adamw.step_ms", "ms"),
    ("nn.adamw.gbps", "GB/s"),
    ("mae.forward_ms", "ms"),
    ("mae.backward_ms", "ms"),
    ("mae.optimizer_ms", "ms"),
    ("mae.mask_us", "us"),
    ("mae.glue_frac", "ratio"),
    ("data.wait_frac", "ratio"),
    ("data.next_batch_us_p50", "us"),
    ("data.next_batch_us_tail", "us"),
    ("data.prefetch_stalls", "count"),
    ("data.queue_depth_max", "count"),
    ("data.retries", "count"),
    ("data.hedges", "count"),
    ("data.hedge_win_ratio", "ratio"),
    ("data.quarantined", "count"),
    ("comm.all_gather.bytes_per_step", "B"),
    ("comm.reduce_scatter.bytes_per_step", "B"),
    ("comm.all_reduce.bytes_per_step", "B"),
    ("comm.calls_per_step", "count"),
    ("comm.gather.gbps", "GB/s"),
    ("comm.reduce.gbps", "GB/s"),
    ("fsdp.gather_ms", "ms"),
    ("fsdp.regather_ms", "ms"),
    ("fsdp.compute_ms", "ms"),
    ("fsdp.reduce_ms", "ms"),
    ("fsdp.optimizer_ms", "ms"),
    ("fsdp.forward_ms", "ms"),
    ("fsdp.backward_ms", "ms"),
    ("fsdp.comm_frac", "ratio"),
    ("fsdp.rank_skew_ms", "ms"),
    ("ckpt.stall_ms", "ms"),
    ("ckpt.bytes", "B"),
    ("vit.encode_ms_per_item", "ms"),
    ("serve.goodput_rps", "1/s"),
    ("serve.max_rps_at_slo", "1/s"),
    ("serve.p99_ms", "ms"),
    ("serve.encode_ms_p50", "ms"),
    ("serve.batch_size_mean", "count"),
    ("serve.submit_us_p50", "us"),
    ("serve.submit_us_tail", "us"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.queue_ms_p50", "ms"),
    ("serve.rejected", "count"),
    ("serve.shed", "count"),
    ("serve.late", "count"),
    ("serve.hedges", "count"),
    ("serve.hedge_win_ratio", "ratio"),
    ("serve.degrade_peak", "level"),
    ("serve.gen_late_ms_max", "ms"),
];

/// The workloads, as `--workload` names them.
pub const WORKLOADS: [&str; 3] = ["pretrain-1rank", "fsdp-w2", "serve-open"];

/// Times a training workload's set-up is repeated; `setup_s` is the
/// median.
pub const SETUP_REPS: usize = 5;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let mut it = std::env::args().skip(1);
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
                "--seconds" => seconds = Some(value.parse::<u32>().map_err(|e| bad(&e))?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds = seconds.unwrap_or(10);
        if seconds == 0 {
            return Err("--seconds must be positive".into());
        }
        let workload: String = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
        }
        Ok(Self {
            workload,
            seed: seed.unwrap_or(0),
            seconds: f64::from(seconds),
            trace: trace.unwrap_or(false),
        })
    }
}

/// Metrics of one run plus its operation accounting.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(&'static str, f64)>,
}

impl Report {
    /// Record metric `name`, which must be in the run's metric list.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            self.metrics.iter().all(|(n, _)| *n != name),
            "metric {name} set twice"
        );
        self.metrics.push((name, value));
    }

    /// Report 0 for every not-yet-set per-layer metric under one of
    /// `prefixes`: layers the workload never calls.
    pub fn not_applicable(&mut self, prefixes: &[&str]) {
        for &(name, _) in PER_LAYER {
            let unset = self.metrics.iter().all(|(n, _)| *n != name);
            if unset && prefixes.iter().any(|p| name.starts_with(p)) {
                self.metrics.push((name, 0.0));
            }
        }
    }

    /// The result line. Panics unless exactly the metrics of `expected`
    /// were set.
    fn to_json(&self, expected: &[(&str, &str)]) -> String {
        let missing: Vec<&str> = expected
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| self.metrics.iter().all(|(m, _)| m != n))
            .collect();
        assert!(missing.is_empty(), "metrics never reported: {missing:?}");
        let mut body = Vec::with_capacity(expected.len());
        for &(name, unit) in expected {
            let value = self
                .metrics
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v);
            body.push(format!(
                "\"{name}\": {{\"value\": {:?}, \"unit\": \"{unit}\"}}",
                value
            ));
        }
        assert_eq!(
            self.metrics.len(),
            expected.len(),
            "metrics outside the reported set"
        );
        assert!(self.attempted > 0, "no operation attempted");
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

/// Fail the run (no result line) when an output check does not hold.
#[track_caller]
pub fn check(ok: bool, what: impl FnOnce() -> String) {
    if !ok {
        panic!("output check failed: {}", what());
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// Run `setup` `reps` times; returns the last product and the median
/// set-up time in seconds.
pub fn timed_setups<T>(reps: usize, mut setup: impl FnMut(usize) -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for rep in 0..reps {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup(rep));
        times.push(t0.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    (last.expect("at least one set-up"), stats::median(&times))
}

/// Scratch directory for one workload, inside the checkout. Emptied on
/// creation and removed when dropped.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    fn new(workload: &str) -> Self {
        let dir = PathBuf::from(".bench_work").join(workload);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create .bench_work");
        Self(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".bench_work");
    }
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("geofm-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work = WorkDir::new(&args.workload);
    let mut report = match args.workload.as_str() {
        "pretrain-1rank" => train::pretrain_1rank(&args, &work.0),
        "fsdp-w2" => train::fsdp_w2(&args, &work.0),
        "serve-open" => serve::serve_open(&args),
        other => unreachable!("workload {other} passed argument checks"),
    };
    drop(work);
    let expected = if args.trace {
        PER_LAYER
    } else {
        report.set("peak_rss_mib", peak_rss_mib());
        END_TO_END
    };
    println!("{}", report.to_json(expected));
}
