//! The two training workloads: `pretrain-1rank` (MAE pretraining of T-1B
//! through `MaePretrainer::step`) and `fsdp-w2` (the same objective on the
//! FSDP runtime at world 2 through `try_run_streaming`).

use crate::replay::{replay, StepShapes};
use crate::stats::{self, Summary};
use crate::{check, timed_setups, Args, Report, SETUP_REPS};
use geofm_data::{
    build_corpus, CorpusManifest, DatasetKind, FsShardStore, IngestPlane, StoreMeta, StreamConfig,
};
use geofm_fsdp::{try_run_streaming, DistReport, FsdpConfig, ResilienceConfig, ShardingStrategy};
use geofm_mae::{MaeConfig, MaeModel, MaePretrainer, MaskPlan, MaskSampler};
use geofm_nn::{clip_grad_norm, AdamW, CosineSchedule, Module, Optimizer};
use geofm_resilience::DataReport;
use geofm_telemetry::Telemetry;
use geofm_tensor::{Tensor, TensorRng};
use geofm_vit::VitConfig;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Mixed into `--seed` for `pretrain-1rank`'s mask stream.
const MASK_SALT: u64 = 0x6d61_736b;
/// Encoder of both training workloads.
const MODEL: &str = "T-1B";
/// `pretrain-1rank` batch.
const BATCH_1RANK: usize = 32;
/// `fsdp-w2` world and global batch (4 images per rank).
const WORLD: usize = 2;
const GLOBAL_BATCH: usize = 8;
/// Corpus geometry: 256 records of 48×48×3, reshuffled every epoch.
const SHARDS: usize = 4;
const PER_SHARD: usize = 64;
/// Optimiser schedule shared by both workloads (5 % warmup).
const BASE_LR: f32 = 1e-3;
const TOTAL_STEPS: usize = 400;
/// Gradient clip `MaePretrainer` applies.
const GRAD_CLIP: f32 = 5.0;
/// Steps excluded from timing while caches and prefetch fill.
const WARMUP_STEPS: usize = 3;
/// Durable checkpoint cadence of `fsdp-w2`, in steps.
const CKPT_EVERY: usize = 5;
/// Steps of one FSDP job (a multiple of `CKPT_EVERY`, so byte counts per
/// step repeat exactly).
const JOB_STEPS: usize = 60;
/// Untraced/traced job pairs of the `fsdp-w2` traced run.
const OVERHEAD_PAIRS: usize = 3;
/// Steps of the strategy-equivalence check.
const CHECK_STEPS: usize = 6;
/// Bound on |FullShard@2 − NoShard@1| per parameter, as the repository's
/// strategy-equivalence suites use.
const EQUIV_TOL: f32 = 1e-4;

fn mae_config() -> MaeConfig {
    let enc = VitConfig::tiny_family()
        .into_iter()
        .find(|c| c.name == MODEL)
        .expect("T-1B is in the tiny family");
    MaeConfig::tiny(enc)
}

fn schedule() -> CosineSchedule {
    let warmup = (TOTAL_STEPS / 20).max(1);
    CosineSchedule::new(BASE_LR, BASE_LR * 0.01, warmup, TOTAL_STEPS)
}

/// Write the seeded GEOFMSH1 corpus under `dir`.
fn write_corpus(dir: &Path, seed: u64) -> CorpusManifest {
    let img = mae_config().encoder.img;
    build_corpus(
        dir,
        DatasetKind::MillionAid,
        SHARDS,
        PER_SHARD,
        img,
        3,
        seed,
    )
    .unwrap_or_else(|e| panic!("writing the corpus under {}: {e}", dir.display()))
}

/// An ingest plane over `corpus`. One read-pool worker: the host has two
/// cores and the ranks need both.
fn open_plane(
    corpus: &CorpusManifest,
    batch: usize,
    seed: u64,
    tel: Option<Arc<Telemetry>>,
) -> Arc<IngestPlane> {
    let meta = StoreMeta {
        shards: corpus.shard_files.len(),
        records_per_shard: corpus.records_per_shard,
        record_len: corpus.record_len,
        img: corpus.img,
        channels: corpus.channels,
        classes: corpus.kind.classes(),
    };
    let store = Arc::new(FsShardStore::new(corpus.shard_files.clone(), meta));
    let mut cfg = StreamConfig::new(batch, seed);
    cfg.defense.pool_workers = 1;
    Arc::new(match tel {
        Some(t) => IngestPlane::with_telemetry(store, cfg, t),
        None => IngestPlane::new(store, cfg),
    })
}

/// Write the data-layer metrics of `data`.
fn report_data(r: &mut Report, data: &DataReport) {
    r.set("data.prefetch_stalls", data.prefetch_stalls as f64);
    r.set("data.queue_depth_max", data.queue_depth_max as f64);
    r.set("data.retries", data.retries as f64);
    r.set("data.hedges", data.hedges as f64);
    r.set(
        "data.hedge_win_ratio",
        if data.hedges == 0 {
            0.0
        } else {
            data.hedge_wins as f64 / data.hedges as f64
        },
    );
    r.set("data.quarantined", data.quarantined.len() as f64);
}

/// Timed steps a run collects at least, however long they take: enough
/// for the gated tail to have ten steps beyond it.
fn min_periods() -> usize {
    stats::min_samples(stats::TAIL_PCT)
}

/// Median of unsorted samples.
fn median_of(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    stats::median(&xs)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Throughput (images over the timed wall time) and the tail step time
/// from per-step wall periods. The tail, not the median, is the gated
/// latency: on a shared host the single training thread runs in
/// stretches at one of two speeds about 25 % apart, so the median step
/// flips between them from run to run while the tail stays put.
/// The run must have collected [`min_periods`] steps.
fn report_steps(r: &mut Report, periods_ms: &[f64], images_per_step: usize) {
    let s = Summary::of(periods_ms);
    let total_s = periods_ms.iter().sum::<f64>() / 1e3;
    r.set(
        "throughput_per_s",
        (images_per_step * periods_ms.len()) as f64 / total_s,
    );
    r.set("latency_ms", s.tail);
    println!("step time: {}", s.describe("ms"));
}

// ---------------------------------------------------------------------------
// pretrain-1rank
// ---------------------------------------------------------------------------

/// `MaePretrainer::step` composed from its public calls, with a span
/// around each — the traced twin of the untraced step.
struct ComposedStep {
    model: MaeModel,
    sampler: MaskSampler,
    optimizer: AdamW,
    schedule: CosineSchedule,
    step: usize,
    flat: Vec<f32>,
    grads: Vec<f32>,
}

/// Span durations of one composed step.
#[derive(Debug, Default, Clone, Copy)]
struct StepSpans {
    mask: Duration,
    forward: Duration,
    backward: Duration,
    optimizer: Duration,
}

impl ComposedStep {
    fn new(cfg: &MaeConfig, seed: u64) -> Self {
        let mut model =
            MaePretrainer::new(cfg, BASE_LR, TOTAL_STEPS, &mut TensorRng::seed_from(seed)).model;
        let n = model.num_params();
        let optimizer = AdamW::new(n, 0.05).with_decay_mask(model.decay_mask());
        Self {
            model,
            sampler: MaskSampler::new(cfg.encoder.tokens(), cfg.mask_ratio),
            optimizer,
            schedule: schedule(),
            step: 0,
            flat: Vec::with_capacity(n),
            grads: Vec::with_capacity(n),
        }
    }

    fn step(&mut self, images: &Tensor, rng: &mut TensorRng) -> (f32, StepSpans) {
        let t0 = Instant::now();
        let plan = self.sampler.sample(images.dim(0), rng);
        let t1 = Instant::now();
        self.model.zero_grad();
        let t2 = Instant::now();
        let (loss, dpred) = self.model.forward(images, &plan);
        let t3 = Instant::now();
        self.model.backward(&dpred);
        let t4 = Instant::now();
        self.model.pack_grads(&mut self.grads);
        clip_grad_norm(&mut self.grads, GRAD_CLIP);
        let lr = self.schedule.lr(self.step);
        self.model.pack_values(&mut self.flat);
        self.optimizer.step(&mut self.flat, &self.grads, lr);
        self.model.unpack_values(&self.flat);
        let t5 = Instant::now();
        self.step += 1;
        let spans = StepSpans {
            mask: t1 - t0,
            forward: t3 - t2,
            backward: t4 - t3,
            optimizer: (t2 - t1) + (t5 - t4),
        };
        (loss, spans)
    }
}

pub fn pretrain_1rank(args: &Args, work: &Path) -> Report {
    let cfg = mae_config();
    let ((plane, mut trainer, mut loader), setup_s) = timed_setups(SETUP_REPS, |rep| {
        let corpus = write_corpus(&work.join(format!("corpus-{rep}")), args.seed);
        let plane = open_plane(&corpus, BATCH_1RANK, args.seed, None);
        let trainer = MaePretrainer::new(
            &cfg,
            BASE_LR,
            TOTAL_STEPS,
            &mut TensorRng::seed_from(args.seed),
        );
        let loader = plane.loader(0, 1, 0);
        (plane, trainer, loader)
    });
    let mut r = Report::default();
    let mut mask_rng = TensorRng::seed_from(args.seed ^ MASK_SALT);
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut next = |r: &mut Report| {
        let t0 = Instant::now();
        let batch = loader
            .next_batch()
            .unwrap_or_else(|e| panic!("ingest failed: {e}"));
        let waited = t0.elapsed();
        r.attempted += 1;
        (batch, t0, waited)
    };

    if !args.trace {
        r.set("setup_s", setup_s);
        let (mut periods, mut losses) = (Vec::new(), Vec::new());
        while Instant::now() < deadline || periods.len() < min_periods() {
            let (batch, t0, _) = next(&mut r);
            let stats = trainer.step(&batch.images, &mut mask_rng);
            check(stats.loss.is_finite(), || {
                format!("step {} loss {}", stats.step, stats.loss)
            });
            if stats.step >= WARMUP_STEPS {
                periods.push(ms(t0.elapsed()));
            }
            losses.push(stats.loss);
        }
        let tail: f32 = losses[losses.len() - 3..].iter().sum::<f32>() / 3.0;
        check(tail < losses[0], || {
            format!("loss did not fall: first {} last-3 mean {tail}", losses[0])
        });
        println!(
            "loss {:.5} -> {tail:.5} over {} steps",
            losses[0],
            losses.len()
        );
        report_steps(&mut r, &periods, BATCH_1RANK);
        r.failed = plane.report().quarantined.len() as u64;
        return r;
    }

    // Traced run. First the composed step must reproduce
    // `MaePretrainer::step` bit for bit from the same seeds and batches.
    let mut composed = ComposedStep::new(&cfg, args.seed);
    let mut composed_rng = TensorRng::seed_from(args.seed ^ MASK_SALT);
    for _ in 0..3 {
        let (batch, _, _) = next(&mut r);
        let want = trainer.step(&batch.images, &mut mask_rng).loss;
        let (got, _) = composed.step(&batch.images, &mut composed_rng);
        check(want.to_bits() == got.to_bits(), || {
            format!("composed step loss {got} != MaePretrainer::step loss {want}")
        });
    }
    // Then alternate three-step chunks of the untraced and the traced step
    // so drift lands on both sides of the overhead comparison.
    let (mut plain_ms, mut traced_ms, mut wait_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut spans = Vec::new();
    let mut chunk = 0usize;
    while Instant::now() < deadline || traced_ms.len() < 21 || wait_us.len() < min_periods() {
        for _ in 0..3 {
            let (batch, t0, waited) = next(&mut r);
            wait_us.push(waited.as_secs_f64() * 1e6);
            if chunk.is_multiple_of(2) {
                let loss = trainer.step(&batch.images, &mut mask_rng).loss;
                check(loss.is_finite(), || format!("loss {loss}"));
                plain_ms.push(ms(t0.elapsed()));
            } else {
                let (loss, s) = composed.step(&batch.images, &mut composed_rng);
                check(loss.is_finite(), || format!("loss {loss}"));
                traced_ms.push(ms(t0.elapsed()));
                spans.push(s);
            }
        }
        chunk += 1;
    }
    let ips = |p: &[f64]| p.len() as f64 / p.iter().sum::<f64>();
    r.set(
        "telemetry.overhead_frac",
        (ips(&plain_ms) - ips(&traced_ms)) / ips(&plain_ms),
    );
    r.set("step_ms_p50", median_of(plain_ms.clone()));

    let med = |f: fn(&StepSpans) -> Duration| median_of(spans.iter().map(|s| ms(f(s))).collect());
    let (fwd, bwd) = (med(|s| s.forward), med(|s| s.backward));
    r.set("mae.forward_ms", fwd);
    r.set("mae.backward_ms", bwd);
    r.set("mae.optimizer_ms", med(|s| s.optimizer));
    r.set("mae.mask_us", med(|s| s.mask) * 1e3);

    let layers = replay(
        &StepShapes::mae_train(&cfg, BATCH_1RANK, composed.model.num_params()),
        args.seed,
    );
    layers.report(&mut r);
    r.set(
        "mae.glue_frac",
        (fwd + bwd - layers.layers_ms()) / (fwd + bwd),
    );

    let all_ms: Vec<f64> = plain_ms.iter().chain(&traced_ms).copied().collect();
    let wait = Summary::of(&wait_us);
    r.set(
        "data.wait_frac",
        wait_us.iter().sum::<f64>() / 1e3 / all_ms.iter().sum::<f64>(),
    );
    r.set("data.next_batch_us_p50", wait.p50);
    r.set("data.next_batch_us_tail", wait.tail);
    println!("next_batch: {}", wait.describe("us"));
    let data = plane.report();
    report_data(&mut r, &data);
    r.failed = data.quarantined.len() as u64;
    r.set("fail_frac", stats::fail_frac(r.attempted, r.failed));
    r.not_applicable(&["comm.", "fsdp.", "ckpt.", "serve.", "vit."]);
    r
}

// ---------------------------------------------------------------------------
// fsdp-w2
// ---------------------------------------------------------------------------

/// One rank's timestamps for one step, taken inside the compute closure.
#[derive(Debug, Clone, Copy)]
struct RankStep {
    rank: usize,
    step: usize,
    enter: Instant,
    forward: Duration,
    backward: Duration,
}

/// The mask for `rows` images whose global batch rows start at `first`:
/// each image's mask is seeded by (seed, step, global row), so any world
/// size samples the same masks for the same images.
fn row_masks(sampler: &MaskSampler, seed: u64, step: usize, first: usize, rows: usize) -> MaskPlan {
    let mut plan = MaskPlan {
        tokens: 0,
        visible: sampler.visible(),
        visible_idx: Vec::new(),
        masked_idx: Vec::new(),
    };
    for row in first..first + rows {
        let key = seed ^ ((step as u64) << 20) ^ (row as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let one = sampler.sample(1, &mut TensorRng::seed_from(key));
        plan.tokens = one.tokens;
        plan.visible_idx.extend(one.visible_idx);
        plan.masked_idx.extend(one.masked_idx);
    }
    plan
}

/// A distributed MAE job over `plane`, logging per-rank step timestamps.
struct FsdpJob<'a> {
    strategy: ShardingStrategy,
    world: usize,
    steps: usize,
    seed: u64,
    ckpt: &'a Path,
}

impl FsdpJob<'_> {
    fn run(
        &self,
        plane: Arc<IngestPlane>,
        tel: Option<Arc<Telemetry>>,
    ) -> (DistReport, Vec<RankStep>) {
        let cfg = mae_config();
        let sampler = MaskSampler::new(cfg.encoder.tokens(), cfg.mask_ratio);
        let sched = schedule();
        let log = Mutex::new(Vec::with_capacity(self.steps * self.world));
        let seed = self.seed;
        let _ = std::fs::remove_file(self.ckpt); // a present checkpoint would be resumed
        let resilience = ResilienceConfig {
            checkpoint_every: CKPT_EVERY,
            checkpoint_path: Some(self.ckpt.to_path_buf()),
            ..ResilienceConfig::disabled()
        };
        let out = try_run_streaming(
            FsdpConfig::tuned(self.strategy),
            self.world,
            0.05,
            self.steps,
            |_| {
                let mut m = MaeModel::new(&cfg, &mut TensorRng::seed_from(seed));
                let mut units = m.encoder.unit_param_counts();
                let decoder = m.num_params() - units.iter().sum::<usize>();
                units.push(decoder);
                (m, units)
            },
            plane,
            |m, batch, rank, world, step| {
                let enter = Instant::now();
                let rows = batch.images.dim(0);
                let plan = row_masks(&sampler, seed, step, rank * (GLOBAL_BATCH / world), rows);
                m.zero_grad();
                let (loss, dpred) = m.forward(&batch.images, &plan);
                let fwd_end = Instant::now();
                m.backward(&dpred);
                let rec = RankStep {
                    rank,
                    step,
                    enter,
                    forward: fwd_end - enter,
                    backward: fwd_end.elapsed(),
                };
                log.lock().expect("step log lock").push(rec);
                loss
            },
            |step| sched.lr(step),
            tel,
            resilience,
        );
        let report = out.unwrap_or_else(|f| panic!("FSDP job failed: {f}"));
        check(report.mean_losses.iter().all(|l| l.is_finite()), || {
            format!("non-finite loss: {:?}", report.mean_losses)
        });
        let mut log = log.into_inner().expect("step log lock");
        log.sort_by_key(|s| (s.step, s.rank));
        (report, log)
    }
}

/// Rank 0's step periods (entry to next entry), ms, skipping warm-up.
/// Period `i` ends step `i`, so it carries that step's checkpoint write
/// when `i + 1` is a multiple of `CKPT_EVERY`.
fn rank0_periods(log: &[RankStep]) -> Vec<(usize, f64)> {
    let r0: Vec<&RankStep> = log.iter().filter(|s| s.rank == 0).collect();
    r0.windows(2)
        .filter(|w| w[0].step >= WARMUP_STEPS)
        .map(|w| (w[0].step, ms(w[1].enter - w[0].enter)))
        .collect()
}

/// Seconds from `t0` (just before the job opened its ingest plane) until
/// the last rank entered step 0: the runtime's own set-up.
fn job_startup(log: &[RankStep], t0: Instant) -> f64 {
    log.iter()
        .filter(|s| s.step == 0)
        .map(|s| s.enter - t0)
        .max()
        .expect("every rank logs step 0")
        .as_secs_f64()
}

/// FullShard at world 2 must land within `EQUIV_TOL` of NoShard at world 1
/// on the same corpus, masks and schedule. Runs outside any timed region.
fn check_strategy_equivalence(corpus: &CorpusManifest, seed: u64, work: &Path) {
    let job = |strategy, world, name: &str| {
        let ckpt = work.join(name);
        let plane = open_plane(corpus, GLOBAL_BATCH, seed, None);
        FsdpJob {
            strategy,
            world,
            steps: CHECK_STEPS,
            seed,
            ckpt: &ckpt,
        }
        .run(plane, None)
        .0
    };
    let sharded = job(ShardingStrategy::FullShard, WORLD, "check-w2.ckpt");
    let single = job(ShardingStrategy::NoShard, 1, "check-w1.ckpt");
    let worst = sharded
        .final_params
        .iter()
        .zip(&single.final_params)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    check(
        sharded.final_params.len() == single.final_params.len() && worst <= EQUIV_TOL,
        || format!("FullShard@{WORLD} vs NoShard@1 differ by {worst} (bound {EQUIV_TOL})"),
    );
    println!("strategy equivalence: max |FullShard@{WORLD} - NoShard@1| = {worst:e}");
}

pub fn fsdp_w2(args: &Args, work: &Path) -> Report {
    let cfg = mae_config();
    // set-up before the first job; each job then opens its ingest plane
    // and starts the runtime (model init on every rank, shard build, rank
    // threads), which `job_startup` times
    let (corpus, corpus_s) = timed_setups(SETUP_REPS, |rep| {
        write_corpus(&work.join(format!("corpus-{rep}")), args.seed)
    });
    let ckpt: PathBuf = work.join("train.ckpt");
    let job = || FsdpJob {
        strategy: ShardingStrategy::FullShard,
        world: WORLD,
        steps: JOB_STEPS,
        seed: args.seed,
        ckpt: &ckpt,
    };
    let mut r = Report::default();

    if !args.trace {
        // fixed-length jobs back to back until --seconds have passed; each
        // job's start-up and warm-up steps stay outside the timed periods
        let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
        let (mut periods, mut startups) = (Vec::new(), Vec::new());
        while Instant::now() < deadline || periods.len() < min_periods() {
            let t0 = Instant::now();
            let (report, log) = job().run(open_plane(&corpus, GLOBAL_BATCH, args.seed, None), None);
            startups.push(job_startup(&log, t0));
            periods.extend(rank0_periods(&log).into_iter().map(|(_, p)| p));
            r.attempted += JOB_STEPS as u64;
            r.failed += report
                .data
                .as_ref()
                .map_or(0, |d| d.quarantined.len() as u64);
        }
        r.set("setup_s", corpus_s + median_of(startups));
        report_steps(&mut r, &periods, GLOBAL_BATCH);
        check_strategy_equivalence(&corpus, args.seed, work);
        return r;
    }

    // Traced run: the same fixed-length job untraced, then traced, in
    // alternation so drift of the shared host lands on both sides of the
    // overhead comparison. The last traced job gives the layer figures.
    let (mut plain, mut traced, mut last) = (Vec::new(), Vec::new(), None);
    for _ in 0..OVERHEAD_PAIRS {
        let (_, plain_log) = job().run(open_plane(&corpus, GLOBAL_BATCH, args.seed, None), None);
        plain.extend(rank0_periods(&plain_log));
        let tel = Telemetry::new();
        let plane = open_plane(&corpus, GLOBAL_BATCH, args.seed, Some(Arc::clone(&tel)));
        let (report, log) = job().run(plane, Some(Arc::clone(&tel)));
        traced.extend(rank0_periods(&log));
        last = Some((tel, report, log));
    }
    let (tel, report, log) = last.expect("at least one traced job");
    let ckpt_bytes = std::fs::metadata(&ckpt).map(|m| m.len()).unwrap_or(0);
    check(ckpt_bytes > 0, || {
        "no durable checkpoint was written".into()
    });
    check_strategy_equivalence(&corpus, args.seed, work);
    r.attempted = JOB_STEPS as u64;
    let data = report
        .data
        .clone()
        .expect("streaming runs carry a DataReport");
    r.failed = data.quarantined.len() as u64;
    r.set("fail_frac", stats::fail_frac(r.attempted, r.failed));

    let ips = |p: &[(usize, f64)]| p.len() as f64 / p.iter().map(|(_, ms)| ms).sum::<f64>();
    r.set(
        "telemetry.overhead_frac",
        (ips(&plain) - ips(&traced)) / ips(&plain),
    );
    r.set(
        "step_ms_p50",
        median_of(plain.iter().map(|(_, p)| *p).collect()),
    );

    let snap = tel.metrics.snapshot();
    let phase_ms = |name: &str| {
        snap.histograms
            .get(&format!("fsdp.{name}.ns"))
            .map_or(0.0, |h| h.mean() / 1e6)
    };
    let phase_total_s = |name: &str| {
        snap.histograms
            .get(&format!("fsdp.{name}.ns"))
            .map_or(0.0, |h| h.sum as f64 / 1e9)
    };
    let [gather, regather, compute, reduce, optimizer] =
        ["gather", "regather", "compute", "reduce", "optimizer"].map(phase_ms);
    r.set("fsdp.gather_ms", gather);
    r.set("fsdp.regather_ms", regather);
    r.set("fsdp.compute_ms", compute);
    r.set("fsdp.reduce_ms", reduce);
    r.set("fsdp.optimizer_ms", optimizer);
    let comm = gather + regather + reduce;
    let comm_frac = comm / (comm + compute + optimizer);
    check(comm_frac > 0.0, || {
        "fsdp-w2 recorded no communication time".into()
    });
    r.set("fsdp.comm_frac", comm_frac);
    let mean_ms =
        |f: fn(&RankStep) -> Duration| log.iter().map(|s| ms(f(s))).sum::<f64>() / log.len() as f64;
    r.set("fsdp.forward_ms", mean_ms(|s| s.forward));
    r.set("fsdp.backward_ms", mean_ms(|s| s.backward));
    let skew: Vec<f64> = log
        .chunks(WORLD)
        .map(|ranks| {
            let c: Vec<f64> = ranks.iter().map(|s| ms(s.forward + s.backward)).collect();
            c.iter().copied().fold(f64::MIN, f64::max) - c.iter().copied().fold(f64::MAX, f64::min)
        })
        .collect();
    r.set("fsdp.rank_skew_ms", median_of(skew));

    let t = report.traffic;
    let per_step = |bytes: u64| bytes as f64 / JOB_STEPS as f64;
    r.set("comm.all_gather.bytes_per_step", per_step(t.all_gather));
    r.set(
        "comm.reduce_scatter.bytes_per_step",
        per_step(t.reduce_scatter),
    );
    r.set("comm.all_reduce.bytes_per_step", per_step(t.all_reduce));
    r.set("comm.calls_per_step", per_step(t.calls));
    r.set(
        "comm.gather.gbps",
        t.all_gather as f64 / (phase_total_s("gather") + phase_total_s("regather")) / 1e9,
    );
    r.set(
        "comm.reduce.gbps",
        (t.reduce_scatter + t.all_reduce) as f64 / phase_total_s("reduce") / 1e9,
    );

    let (ckpt_steps, other): (Vec<_>, Vec<_>) = traced
        .iter()
        .partition(|(step, _)| (step + 1) % CKPT_EVERY == 0);
    let med = |v: Vec<&(usize, f64)>| median_of(v.into_iter().map(|(_, p)| *p).collect());
    r.set("ckpt.stall_ms", med(ckpt_steps) - med(other));
    r.set("ckpt.bytes", ckpt_bytes as f64);

    let wait = snap
        .histograms
        .get("data.wait.ns")
        .expect("traced plane records data.wait.ns");
    let step_ms = traced.iter().map(|(_, p)| p).sum::<f64>() / traced.len() as f64;
    r.set("data.wait_frac", wait.mean() / 1e6 / step_ms);
    check(
        wait.count as usize >= stats::min_samples(stats::TAIL_PCT),
        || {
            format!(
                "{} next_batch calls leave no p{} tail",
                wait.count,
                stats::TAIL_PCT
            )
        },
    );
    r.set("data.next_batch_us_p50", wait.percentile(50.0) as f64 / 1e3);
    r.set(
        "data.next_batch_us_tail",
        wait.percentile(stats::TAIL_PCT) as f64 / 1e3,
    );
    report_data(&mut r, &data);

    let elems = MaeModel::new(&cfg, &mut TensorRng::seed_from(args.seed))
        .num_params()
        .div_ceil(WORLD);
    replay(
        &StepShapes::mae_train(&cfg, GLOBAL_BATCH / WORLD, elems),
        args.seed,
    )
    .report(&mut r);
    r.not_applicable(&["mae.", "serve.", "vit."]);
    r
}
