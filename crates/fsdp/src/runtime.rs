//! Composable rank runtime: an ordered middleware stack around the FSDP
//! step loop.
//!
//! Five PRs grew health monitoring, the SDC guard, fault injection,
//! checkpointing and the elastic drain protocol into the per-rank
//! training loop ad hoc; every new policy meant editing the loop body.
//! This module extracts each policy into a [`RankMiddleware`] and leaves
//! the rank loop in `trainer.rs` a thin driver that walks the stack:
//!
//! | hook                | when                                              |
//! |---------------------|---------------------------------------------------|
//! | `before_forward`    | top of the step, before any collective            |
//! | `around_collective` | wraps the step's collective schedule (observe)    |
//! | `after_backward`    | gradients reduced, before the update is accepted  |
//! | `on_step`           | step accepted: loss committed, cadenced work      |
//! | `on_failure`        | the rank is abandoning the attempt                |
//! | `on_finish`         | clean end of the attempt, after materialize       |
//!
//! `before_forward` / `after_backward` return [`Control`]: the first
//! non-`Continue` verdict short-circuits the rest of the chain and steers
//! the driver (skip the step, roll the cursor back). `around_collective`
//! is **observational by construction** — it receives an opaque thunk and
//! must invoke it exactly once; it can time or count the collective but
//! cannot rewrite its result. That restriction is what makes the
//! hook-equivalence suite's claim provable: interleaving observers into
//! the stack cannot change `DistReport`/`FailureReport` bits.
//!
//! ## Stack order is part of the contract
//!
//! Policies compose correctly in exactly one order, enforced at
//! construction by [`RuntimeStack::new`] (a misordered stack is a
//! structured [`StackError`], not a latent corruption):
//!
//! 1. **Health** before **Guard** — a guard rollback re-executes steps;
//!    health statistics for the first execution must already be recorded,
//!    and the skip screen must not hide a straggler observation.
//! 2. **Guard** before **Inject** — the guard's skip screen passes over a
//!    step *before* fault draws are consumed, so a skipped step consumes
//!    no faults (the bit-identical-recovery law: a clean comparator told
//!    to skip the same steps replays the identical fault schedule).
//! 3. **Guard** before **Checkpoint** — never persist state a pending
//!    guard verdict could roll back.
//! 4. **Checkpoint** before **Drain** — a checkpoint taken inside the
//!    drain window could persist state the failure path is discarding.
//!
//! [`Stage::Observe`] middleware (probes, tracers) are exempt: they may
//! appear anywhere, in any number, and the equivalence suite exercises
//! exactly that freedom. DESIGN.md §17 is the prose version of this
//! contract; `tests/runtime_equivalence.rs` is the executable one.

use crate::flat::FlatLayout;
use crate::health::HealthMonitor;
use crate::rank::{FsdpRank, StepError, StepReport};
use crate::reshard::shards_to_global;
use crate::sentinel::Sentinel;
use crate::trainer::{lock, GuardConfig, ResilienceConfig};
use geofm_collectives::{CorruptPayload, RankGroups};
use geofm_nn::{AdamWState, Module};
use geofm_resilience::{ElasticCheckpoint, FaultPlan, GuardReport, RankFailure};
use geofm_telemetry::Telemetry;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// Where a middleware sits in the canonical stack order. Declaration
/// order **is** the required execution order; see the module docs for why
/// each inversion is unsound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Straggler/health accounting.
    Health,
    /// SDC guard: skip screen, verdict exchange, rollback.
    Guard,
    /// Fault injection (chaos harness only).
    Inject,
    /// Step checkpointing (GEOFMCK3 image, two-barrier protocol).
    Checkpoint,
    /// Failure-path comm drain.
    Drain,
    /// Pure observation — exempt from ordering and duplication rules.
    Observe,
}

/// Identity of one middleware: a stable name plus its [`Stage`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Descriptor {
    /// Stable name, unique within a stack (except [`Stage::Observe`]).
    pub name: &'static str,
    /// Ordering class.
    pub stage: Stage,
}

/// Why a stack was rejected at construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StackError {
    /// Two policy middleware appear in an unsound order.
    Misordered {
        /// The earlier (out-of-place) middleware.
        first: &'static str,
        /// The later middleware it must not precede.
        second: &'static str,
        /// Which composition law the order breaks.
        reason: &'static str,
    },
    /// The same policy middleware appears twice.
    Duplicate {
        /// The repeated name.
        name: &'static str,
    },
}

impl std::fmt::Display for StackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Misordered { first, second, reason } => {
                write!(f, "middleware `{first}` may not precede `{second}`: {reason}")
            }
            Self::Duplicate { name } => {
                write!(f, "middleware `{name}` appears more than once in the stack")
            }
        }
    }
}

impl std::error::Error for StackError {}

/// The reason an inversion of two stages is unsound (module docs, laws
/// 1–4). Falls back to the generic ordering statement for pairs without
/// a sharper story.
fn ordering_violation(earlier: Stage, later: Stage) -> &'static str {
    match (earlier, later) {
        (Stage::Guard, Stage::Health) => {
            "a guard rollback re-executes steps, so health statistics must be \
             recorded before the guard's skip screen and verdict can discard them"
        }
        (Stage::Inject, Stage::Guard) => {
            "fault draws must not be consumed on steps the guard's skip screen \
             passes over — a skipped step consumes no faults"
        }
        (Stage::Checkpoint, Stage::Guard) => {
            "a checkpoint must never persist state a pending guard verdict could \
             roll back"
        }
        (Stage::Drain, Stage::Checkpoint) => {
            "a checkpoint inside the drain window could persist state the failure \
             path is discarding"
        }
        _ => "stages must run in Health < Guard < Inject < Checkpoint < Drain order",
    }
}

/// What a `before_forward` / `after_backward` hook tells the driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Proceed to the next middleware / next phase.
    Continue,
    /// Pass over this step entirely: no collectives, no fault draws, no
    /// update. The issuing middleware has already recorded the canonical
    /// placeholder; the driver advances the cursor.
    SkipStep,
    /// Roll the driver's step cursor back to `to_step`. The issuing
    /// middleware has already restored model/optimizer/loss state; the
    /// driver only moves the cursor and re-enters the loop.
    Rollback {
        /// Step to resume from.
        to_step: usize,
    },
}

/// How the failure path should drain this rank's comm thread, set by the
/// failure site and executed by [`DrainMw::on_failure`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DrainPolicy {
    /// No drain (crash-like failures: the restart loop rebuilds groups).
    #[default]
    Never,
    /// Drain only under elastic resharding (survivor half of the drain
    /// protocol: poisoned groups terminate queued async ops promptly).
    IfElastic,
    /// Always drain (permanent departures and rejoin teardowns).
    Always,
}

/// Per-step context the driver threads through every hook.
pub struct StepCx<'a> {
    /// This rank's global id.
    pub rank: usize,
    /// World size of the attempt.
    pub world: usize,
    /// Total step horizon of the run.
    pub steps: usize,
    /// First step of this attempt (resume point).
    pub start_step: usize,
    /// The step being executed.
    pub step: usize,
    /// Committed rank-local loss series (guard rollback truncates it,
    /// checkpoints clone it).
    pub local_losses: &'a mut Vec<f32>,
    /// Rank-local work this step (injected delays + compute, no barrier
    /// waits) — what the health monitor compares across ranks.
    pub local_work: Duration,
    /// Degraded-GCD slowdown drawn for this step, consumed by compute.
    pub degraded: Option<f64>,
    /// One-shot loss poison drawn for this step.
    pub poison_loss: bool,
    /// The step's report, once the collective schedule completed.
    pub report: Option<StepReport>,
    /// Checksum verdict, when the reduce flagged a corrupt contribution.
    pub corrupt: Option<CorruptPayload>,
    /// Drain policy for the failure path (set by the failure site).
    pub drain: DrainPolicy,
}

/// One policy (or observer) around the rank step loop. Every hook has a
/// no-op default so a middleware implements only what it owns.
pub trait RankMiddleware<M: Module> {
    /// Stable identity + stage (drives construction-time validation).
    fn descriptor(&self) -> Descriptor;

    /// Top of the step, before any collective or fault draw.
    fn before_forward(
        &mut self,
        _fr: &mut FsdpRank<M>,
        _cx: &mut StepCx<'_>,
    ) -> Result<Control, RankFailure> {
        Ok(Control::Continue)
    }

    /// Gradients reduced; decide whether the step's update stands.
    fn after_backward(
        &mut self,
        _fr: &mut FsdpRank<M>,
        _cx: &mut StepCx<'_>,
    ) -> Result<Control, RankFailure> {
        Ok(Control::Continue)
    }

    /// Wrap the step's collective schedule. Observational: implementors
    /// MUST invoke `run` exactly once (the driver panics the rank if the
    /// chain swallows the body) and cannot alter its result.
    fn around_collective(&mut self, _label: &'static str, run: &mut dyn FnMut()) {
        run()
    }

    /// The step was accepted: its loss is committed; run cadenced work.
    fn on_step(
        &mut self,
        _fr: &mut FsdpRank<M>,
        _cx: &mut StepCx<'_>,
    ) -> Result<(), RankFailure> {
        Ok(())
    }

    /// The rank is abandoning the attempt with `failure`. Groups are
    /// already poisoned by the failure site; this is where drain-style
    /// teardown runs.
    fn on_failure(&mut self, _fr: &mut FsdpRank<M>, _cx: &StepCx<'_>, _failure: &RankFailure) {}

    /// Clean end of the attempt (after materialize): final deposits.
    fn on_finish(
        &mut self,
        _fr: &mut FsdpRank<M>,
        _cx: &mut StepCx<'_>,
    ) -> Result<(), RankFailure> {
        Ok(())
    }
}

/// An ordered, validated stack of middleware. Construction rejects
/// misordered or duplicated policy middleware with a [`StackError`].
pub struct RuntimeStack<'a, M: Module> {
    mws: Vec<Box<dyn RankMiddleware<M> + 'a>>,
}

impl<'a, M: Module> RuntimeStack<'a, M> {
    /// Validate and seal the stack. Policy stages must appear in
    /// non-decreasing canonical order with no duplicates;
    /// [`Stage::Observe`] entries are exempt from both rules.
    pub fn new(mws: Vec<Box<dyn RankMiddleware<M> + 'a>>) -> Result<Self, StackError> {
        let mut seen: Vec<&'static str> = Vec::new();
        let mut prev: Option<Descriptor> = None;
        for mw in &mws {
            let d = mw.descriptor();
            if d.stage == Stage::Observe {
                continue;
            }
            if seen.contains(&d.name) {
                return Err(StackError::Duplicate { name: d.name });
            }
            seen.push(d.name);
            if let Some(p) = prev {
                if d.stage < p.stage {
                    return Err(StackError::Misordered {
                        first: p.name,
                        second: d.name,
                        reason: ordering_violation(p.stage, d.stage),
                    });
                }
            }
            prev = Some(d);
        }
        Ok(Self { mws })
    }

    /// Run `before_forward` down the stack; first non-`Continue` wins.
    pub fn before_forward(
        &mut self,
        fr: &mut FsdpRank<M>,
        cx: &mut StepCx<'_>,
    ) -> Result<Control, RankFailure> {
        for mw in &mut self.mws {
            match mw.before_forward(fr, cx)? {
                Control::Continue => {}
                c => return Ok(c),
            }
        }
        Ok(Control::Continue)
    }

    /// Run `after_backward` down the stack; first non-`Continue` wins.
    pub fn after_backward(
        &mut self,
        fr: &mut FsdpRank<M>,
        cx: &mut StepCx<'_>,
    ) -> Result<Control, RankFailure> {
        for mw in &mut self.mws {
            match mw.after_backward(fr, cx)? {
                Control::Continue => {}
                c => return Ok(c),
            }
        }
        Ok(Control::Continue)
    }

    /// Run `on_step` down the stack.
    pub fn on_step(
        &mut self,
        fr: &mut FsdpRank<M>,
        cx: &mut StepCx<'_>,
    ) -> Result<(), RankFailure> {
        for mw in &mut self.mws {
            mw.on_step(fr, cx)?;
        }
        Ok(())
    }

    /// Notify every middleware the rank is abandoning the attempt.
    pub fn on_failure(&mut self, fr: &mut FsdpRank<M>, cx: &StepCx<'_>, failure: &RankFailure) {
        for mw in &mut self.mws {
            mw.on_failure(fr, cx, failure);
        }
    }

    /// Run `on_finish` down the stack.
    pub fn on_finish(
        &mut self,
        fr: &mut FsdpRank<M>,
        cx: &mut StepCx<'_>,
    ) -> Result<(), RankFailure> {
        for mw in &mut self.mws {
            mw.on_finish(fr, cx)?;
        }
        Ok(())
    }

    /// Nest `body` inside every middleware's `around_collective`, front
    /// of the stack outermost, and return its value.
    pub fn around<R>(&mut self, label: &'static str, body: impl FnOnce() -> R) -> R {
        fn rec<M: Module>(
            mws: &mut [Box<dyn RankMiddleware<M> + '_>],
            label: &'static str,
            run: &mut dyn FnMut(),
        ) {
            match mws.split_first_mut() {
                None => run(),
                Some((head, rest)) => {
                    head.around_collective(label, &mut || rec(rest, label, run))
                }
            }
        }
        let mut body = Some(body);
        let mut out = None;
        rec(&mut self.mws, label, &mut || {
            let f = body.take().expect("around_collective must invoke its body exactly once");
            out = Some(f());
        });
        out.expect("an around_collective hook swallowed the collective body")
    }
}

fn count(tel: Option<&Telemetry>, name: &str) {
    if let Some(t) = tel {
        t.metrics.counter(name).inc(1);
    }
}

fn fail(rank: usize, step: usize, cause: String) -> RankFailure {
    RankFailure { rank, step, cause }
}

// ---------------------------------------------------------------------------
// Health
// ---------------------------------------------------------------------------

/// Feeds the cross-rank [`HealthMonitor`] with this rank's per-step local
/// work (injected delays + compute, no barrier waits).
pub struct HealthMw<'a> {
    health: &'a HealthMonitor,
}

impl<'a> HealthMw<'a> {
    /// Attach to the run's shared monitor.
    pub fn new(health: &'a HealthMonitor) -> Self {
        Self { health }
    }
}

impl<M: Module> RankMiddleware<M> for HealthMw<'_> {
    fn descriptor(&self) -> Descriptor {
        Descriptor { name: "health", stage: Stage::Health }
    }

    fn on_step(
        &mut self,
        _fr: &mut FsdpRank<M>,
        cx: &mut StepCx<'_>,
    ) -> Result<(), RankFailure> {
        self.health.record(cx.rank, cx.local_work);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Guard
// ---------------------------------------------------------------------------

/// The SDC/loss-spike guard: deterministic skip screen, world-wide
/// verdict exchange, [`Sentinel`] screening, rollback-and-skip with a
/// bounded budget, and the cadenced in-memory rollback snapshot.
///
/// All guard state is deterministic and identical across ranks: the
/// sentinel sees only globally-agreed statistics and the skip set only
/// changes on globally-agreed trips, so every rank reaches the identical
/// verdict at the identical step — no extra agreement round needed.
pub struct GuardMw<'a> {
    gc: &'a GuardConfig,
    slot: &'a Mutex<Option<GuardReport>>,
    tel: Option<Arc<Telemetry>>,
    sentinel: Sentinel,
    skip: BTreeSet<usize>,
    gr: GuardReport,
    snap_params: Vec<f32>,
    snap_adam: AdamWState,
    snap_step: usize,
    snap_losses_len: usize,
}

impl<'a> GuardMw<'a> {
    /// Build the guard for one rank. Must be constructed **after** the
    /// resume restore so the initial rollback snapshot captures the
    /// restored state.
    pub fn new<M: Module>(
        gc: &'a GuardConfig,
        fr: &FsdpRank<M>,
        start_step: usize,
        losses_len: usize,
        slot: &'a Mutex<Option<GuardReport>>,
        tel: Option<Arc<Telemetry>>,
    ) -> Self {
        let (snap_params, snap_adam) = fr.export_state();
        Self {
            gc,
            slot,
            tel,
            sentinel: Sentinel::new(gc.sentinel),
            skip: gc.skip_steps.clone(),
            gr: GuardReport::default(),
            snap_params,
            snap_adam,
            snap_step: start_step,
            snap_losses_len: losses_len,
        }
    }
}

impl<M: Module> RankMiddleware<M> for GuardMw<'_> {
    fn descriptor(&self) -> Descriptor {
        Descriptor { name: "guard", stage: Stage::Guard }
    }

    fn before_forward(
        &mut self,
        _fr: &mut FsdpRank<M>,
        cx: &mut StepCx<'_>,
    ) -> Result<Control, RankFailure> {
        if self.skip.contains(&cx.step) {
            // deterministic skip: canonical NaN loss, no collectives, no
            // faults, no update — every rank passes over in lockstep
            cx.local_losses.push(f32::NAN);
            return Ok(Control::SkipStep);
        }
        Ok(Control::Continue)
    }

    fn after_backward(
        &mut self,
        fr: &mut FsdpRank<M>,
        cx: &mut StepCx<'_>,
    ) -> Result<Control, RankFailure> {
        // guard exchange: spread this rank's (loss, corrupt?) world-wide
        let mut exchange_corrupt: Option<CorruptPayload> = None;
        let mut ex = [
            cx.report.as_ref().map_or(0.0, |r| r.loss),
            if cx.corrupt.is_some() { 1.0 } else { 0.0 },
        ];
        match fr.try_world_all_reduce(&mut ex) {
            Ok(()) => {}
            Err(StepError::Corrupt(c)) => exchange_corrupt = Some(c),
            Err(e) => {
                count(self.tel.as_deref(), "fault.rank_lost");
                fr.poison_groups();
                return Err(fail(cx.rank, cx.step, e.to_string()));
            }
        }
        let trip_cause: Option<String> = if ex[1] > 0.0 || exchange_corrupt.is_some() {
            self.gr.checksum_trips += 1;
            Some(match cx.corrupt.or(exchange_corrupt) {
                Some(c) => {
                    format!("corrupt reduce payload (rank {}, chunk {})", c.rank, c.chunk)
                }
                None => "corrupt reduce payload detected by a peer group".into(),
            })
        } else {
            let mean_loss = ex[0] / cx.world as f32;
            let r = cx.report.as_ref().expect("no corruption implies a completed step");
            self.sentinel.screen(cx.step, mean_loss, r.grad_norm).map(|t| {
                self.gr.sentinel_trips += 1;
                t.to_string()
            })
        };

        let Some(cause) = trip_cause else { return Ok(Control::Continue) };
        // every rank reached this identical verdict at this identical
        // step — roll back and skip in lockstep
        self.gr.trips += 1;
        count(self.tel.as_deref(), "guard.trip");
        if self.gr.rollbacks >= self.gc.max_rollbacks {
            *lock(self.slot) = Some(self.gr.clone());
            fr.poison_groups();
            return Err(fail(
                cx.rank,
                cx.step,
                format!("guard rollback budget exhausted: {cause}"),
            ));
        }
        self.gr.rollbacks += 1;
        self.gr.skipped_steps.push(cx.step);
        self.gr.wasted_steps += cx.step - self.snap_step;
        count(self.tel.as_deref(), "guard.rollbacks");
        if let Some(t) = self.tel.as_deref() {
            t.metrics.histogram("guard.rollback.steps").record((cx.step - self.snap_step) as u64);
        }
        fr.restore_state(&self.snap_params, self.snap_adam.clone());
        cx.local_losses.truncate(self.snap_losses_len);
        self.sentinel.truncate(self.snap_step);
        self.skip.insert(cx.step);
        Ok(Control::Rollback { to_step: self.snap_step })
    }

    fn on_step(
        &mut self,
        fr: &mut FsdpRank<M>,
        cx: &mut StepCx<'_>,
    ) -> Result<(), RankFailure> {
        let done = cx.step + 1;
        if self.gc.snapshot_every > 0 && done.is_multiple_of(self.gc.snapshot_every) {
            let (p, a) = fr.export_state();
            self.snap_params = p;
            self.snap_adam = a;
            self.snap_step = done;
            self.snap_losses_len = cx.local_losses.len();
        }
        Ok(())
    }

    fn on_finish(
        &mut self,
        _fr: &mut FsdpRank<M>,
        cx: &mut StepCx<'_>,
    ) -> Result<(), RankFailure> {
        if cx.rank == 0 {
            *lock(self.slot) = Some(self.gr.clone());
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// Consumes the [`FaultPlan`]'s per-(rank, step) draws: stragglers,
/// crashes, hangs, permanent departures, spare rejoins, degraded
/// ranks/links, bit flips and loss poisons — the chaos harness's whole
/// vocabulary, in the exact order the draws must be consumed.
pub struct InjectMw<'a> {
    plan: &'a FaultPlan,
    /// A clone of this rank's groups, used to watch for peer poison
    /// during an injected hang and to set the link-slowdown factor.
    probe: RankGroups,
    collective_timeout: Option<Duration>,
    elastic_on: bool,
    can_grow: bool,
    tel: Option<Arc<Telemetry>>,
}

impl<'a> InjectMw<'a> {
    /// Build the injector for one rank.
    pub fn new(
        plan: &'a FaultPlan,
        probe: RankGroups,
        collective_timeout: Option<Duration>,
        elastic_on: bool,
        can_grow: bool,
        tel: Option<Arc<Telemetry>>,
    ) -> Self {
        Self { plan, probe, collective_timeout, elastic_on, can_grow, tel }
    }
}

impl<M: Module> RankMiddleware<M> for InjectMw<'_> {
    fn descriptor(&self) -> Descriptor {
        Descriptor { name: "inject", stage: Stage::Inject }
    }

    fn before_forward(
        &mut self,
        fr: &mut FsdpRank<M>,
        cx: &mut StepCx<'_>,
    ) -> Result<Control, RankFailure> {
        let tel = self.tel.as_deref();
        let (rank, step) = (cx.rank, cx.step);
        if let Some(delay) = self.plan.slow_delay(rank, step) {
            count(tel, "fault.straggler");
            std::thread::sleep(delay);
            cx.local_work += delay;
        }
        if self.plan.take_crash(rank, step) {
            count(tel, "fault.injected_crash");
            fr.poison_groups();
            return Err(fail(rank, step, "injected rank crash".into()));
        }
        if self.plan.take_hang(rank, step) {
            // A hung rank never enters the step's collectives. Peers
            // detect the silence via the (adaptive) timeout, get
            // Err(RankLost) and poison their groups; once that happens —
            // or after a hard cap, if nobody is waiting with a timeout —
            // this rank folds into the normal restart path. The hang is
            // one-shot, so the restarted world runs through.
            count(tel, "fault.injected_hang");
            let cap =
                self.collective_timeout.map(|t| t * 4).unwrap_or(Duration::from_secs(30));
            let hung_at = Instant::now();
            while !self.probe.any_poisoned() && hung_at.elapsed() < cap {
                std::thread::sleep(Duration::from_millis(1));
            }
            fr.poison_groups();
            return Err(fail(rank, step, "rank hung in collective".into()));
        }
        if self.plan.take_leave(rank, step) {
            // permanent departure: poison first so every in-flight
            // collective terminates fast, then the drain middleware
            // empties this rank's comm thread before the thread exits
            count(tel, "fault.rank_leave");
            fr.poison_groups();
            cx.drain = DrainPolicy::Always;
            return Err(fail(rank, step, crate::trainer::CAUSE_LEAVE.into()));
        }
        if self.elastic_on && self.can_grow && self.plan.take_rejoin(step) {
            // a spare arrived: the observing rank tears the attempt down
            // so the restart loop can re-grow the world
            count(tel, "fault.spare_rejoin");
            fr.poison_groups();
            cx.drain = DrainPolicy::Always;
            return Err(fail(rank, step, crate::trainer::CAUSE_REJOIN.into()));
        }
        cx.degraded = self.plan.degraded_slowdown(rank, step);
        if cx.degraded.is_some() {
            count(tel, "fault.degraded_rank");
        }
        let link = self.plan.link_slowdown(rank, step);
        if link.is_some() {
            count(tel, "fault.degraded_link");
        }
        self.probe.set_link_slowdown(link.unwrap_or(1.0));
        // SDC injection: a one-shot bit flip lands in this rank's next
        // reduce contribution; a one-shot loss poison turns the reported
        // local loss into NaN (well-formed bits, wrong number — only the
        // sentinel can catch it)
        if let Some(bit) = self.plan.take_bitflip(rank, step) {
            count(tel, "fault.injected_bitflip");
            fr.arm_bitflip(bit);
        }
        cx.poison_loss = self.plan.take_poison(rank, step);
        if cx.poison_loss {
            count(tel, "fault.injected_poison");
        }
        Ok(Control::Continue)
    }
}

// ---------------------------------------------------------------------------
// Checkpoint
// ---------------------------------------------------------------------------

/// One rank's deposit for the two-barrier checkpoint protocol.
struct RankSlot {
    /// The rank's owned parameter shards (concatenated across units).
    params: Vec<f32>,
    /// AdamW state aligned with `params`.
    adam: AdamWState,
    /// The rank's local losses since the attempt's resume step.
    losses: Vec<f32>,
}

/// Per-rank deposit slots shared by the [`CheckpointMw`]s of one attempt.
pub struct CheckpointSlots(Vec<Mutex<Option<RankSlot>>>);

impl CheckpointSlots {
    /// One empty slot per rank of a `world`-rank attempt.
    pub fn new(world: usize) -> Self {
        Self((0..world).map(|_| Mutex::new(None)).collect())
    }
}

/// The two-barrier checkpoint protocol: every rank deposits its slot,
/// barrier, rank 0 assembles the world-size-independent
/// [`ElasticCheckpoint`] (GEOFMCK3), mirrors it crash-safely to
/// [`ResilienceConfig::checkpoint_path`] when set and commits it as the
/// in-memory snapshot restarts resume from, barrier. Also carries the
/// injected checkpoint-writer crash (torn half-write).
pub struct CheckpointMw<'a> {
    resilience: &'a ResilienceConfig,
    snapshot: &'a Mutex<Option<ElasticCheckpoint>>,
    slots: &'a CheckpointSlots,
    loss_prefix: &'a [f32],
    units: Vec<usize>,
    shard_size: usize,
    tel: Option<Arc<Telemetry>>,
}

impl<'a> CheckpointMw<'a> {
    /// Build the checkpoint middleware for one rank.
    pub fn new(
        resilience: &'a ResilienceConfig,
        snapshot: &'a Mutex<Option<ElasticCheckpoint>>,
        slots: &'a CheckpointSlots,
        loss_prefix: &'a [f32],
        units: Vec<usize>,
        shard_size: usize,
        tel: Option<Arc<Telemetry>>,
    ) -> Self {
        Self { resilience, snapshot, slots, loss_prefix, units, shard_size, tel }
    }

    /// Assemble the GEOFMCK3 image after `done` steps from every rank's
    /// deposit. State is replicated across shard groups, so the first
    /// group's shards carry everything.
    fn image(&self, mut ranks: Vec<RankSlot>, done: usize) -> ElasticCheckpoint {
        let world = ranks.len();
        let mut mean_losses = self.loss_prefix.to_vec();
        for i in 0..ranks[0].losses.len() {
            mean_losses.push(ranks.iter().map(|s| s.losses[i]).sum::<f32>() / world as f32);
        }
        debug_assert_eq!(mean_losses.len(), done, "one world-mean loss per completed step");
        let adam_t = ranks[0].adam.t;
        ranks.truncate(self.shard_size);
        let (mut params, mut adam_m, mut adam_v) = (Vec::new(), Vec::new(), Vec::new());
        for s in ranks {
            params.push(s.params);
            adam_m.push(s.adam.m);
            adam_v.push(s.adam.v);
        }
        let layout = FlatLayout::new(&self.units, self.shard_size);
        ElasticCheckpoint {
            step: done as u64,
            world_written: world as u64,
            shard_n_written: self.shard_size as u64,
            adam_t,
            unit_sizes: self.units.clone(),
            params: shards_to_global(&layout, &params),
            adam_m: shards_to_global(&layout, &adam_m),
            adam_v: shards_to_global(&layout, &adam_v),
            mean_losses,
        }
    }
}

impl<M: Module> RankMiddleware<M> for CheckpointMw<'_> {
    fn descriptor(&self) -> Descriptor {
        Descriptor { name: "checkpoint", stage: Stage::Checkpoint }
    }

    fn on_step(&mut self, fr: &mut FsdpRank<M>, cx: &mut StepCx<'_>) -> Result<(), RankFailure> {
        let done = cx.step + 1;
        let every = self.resilience.checkpoint_every;
        if every == 0 || !done.is_multiple_of(every) {
            return Ok(());
        }
        let (rank, step) = (cx.rank, cx.step);
        let (params, adam) = fr.export_state();
        *lock(&self.slots.0[rank]) =
            Some(RankSlot { params, adam, losses: cx.local_losses.clone() });
        if let Err(lost) = fr.try_world_barrier() {
            fr.poison_groups();
            return Err(fail(rank, step, lost.to_string()));
        }
        if rank == 0 {
            let ranks: Vec<RankSlot> = self
                .slots
                .0
                .iter()
                .map(|m| lock(m).take().expect("every rank deposits a slot pre-barrier"))
                .collect();
            let image = self.image(ranks, done);
            let path = self.resilience.checkpoint_path.as_deref();
            if self.resilience.fault_plan.take_checkpoint_crash(step) {
                // writer dies before any durable or in-memory image
                // commits; with a durable path, half the buffer lands in
                // the .tmp sibling (torn write) — the previous durable
                // checkpoint survives
                count(self.tel.as_deref(), "fault.injected_ckpt_crash");
                if let Some(path) = path {
                    let bytes = image.to_bytes();
                    if let Some(parent) = path.parent() {
                        let _ = std::fs::create_dir_all(parent);
                    }
                    let _ =
                        std::fs::write(path.with_extension("tmp"), &bytes[..bytes.len() / 2]);
                }
                fr.poison_groups();
                return Err(fail(rank, step, "injected checkpoint-writer crash".into()));
            }
            if let Some(path) = path {
                let span = self.tel.as_deref().map(|t| t.phase("ckpt.write", rank as u64));
                let saved = image.save(path);
                drop(span);
                if let Err(e) = saved {
                    fr.poison_groups();
                    return Err(fail(rank, step, format!("checkpoint write failed: {e}")));
                }
            }
            *lock(self.snapshot) = Some(image);
            count(self.tel.as_deref(), "fault.checkpoints");
        }
        if let Err(lost) = fr.try_world_barrier() {
            fr.poison_groups();
            return Err(fail(rank, step, lost.to_string()));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Drain
// ---------------------------------------------------------------------------

/// Executes the failure-path drain policy: once the failure site has
/// poisoned the groups, drain this rank's comm thread so no queued async
/// op can touch state after the thread exits (the survivor half of the
/// elastic drain protocol).
pub struct DrainMw {
    elastic_on: bool,
}

impl DrainMw {
    /// Build the drain middleware.
    pub fn new(elastic_on: bool) -> Self {
        Self { elastic_on }
    }
}

impl<M: Module> RankMiddleware<M> for DrainMw {
    fn descriptor(&self) -> Descriptor {
        Descriptor { name: "drain", stage: Stage::Drain }
    }

    fn on_failure(&mut self, fr: &mut FsdpRank<M>, cx: &StepCx<'_>, _failure: &RankFailure) {
        match cx.drain {
            DrainPolicy::Always => fr.quiesce_comm(),
            DrainPolicy::IfElastic if self.elastic_on => fr.quiesce_comm(),
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Probe (Observe stage)
// ---------------------------------------------------------------------------

/// Hook-invocation counters a [`ProbeMw`] accumulates. The equivalence
/// suite installs a probe, re-runs a pinned schedule, and asserts the
/// `DistReport`/`FailureReport` bits did not move while the counters did.
#[derive(Debug, Default)]
pub struct ProbeCounters {
    /// `before_forward` invocations.
    pub before_forward: AtomicUsize,
    /// `after_backward` invocations.
    pub after_backward: AtomicUsize,
    /// `around_collective` invocations.
    pub around_collective: AtomicUsize,
    /// `on_step` invocations.
    pub on_step: AtomicUsize,
    /// `on_failure` invocations.
    pub on_failure: AtomicUsize,
    /// `on_finish` invocations.
    pub on_finish: AtomicUsize,
}

static PROBE: RwLock<Option<Arc<ProbeCounters>>> = RwLock::new(None);

/// Install a process-global probe: every stack built after this call
/// interleaves [`ProbeMw`] observers between all policy middleware.
/// Test-only instrumentation; serialize callers (the equivalence suite
/// guards itself with a mutex).
pub fn install_probe(p: Arc<ProbeCounters>) {
    *PROBE.write().unwrap_or_else(PoisonError::into_inner) = Some(p);
}

/// Remove the process-global probe.
pub fn uninstall_probe() {
    *PROBE.write().unwrap_or_else(PoisonError::into_inner) = None;
}

pub(crate) fn probe() -> Option<Arc<ProbeCounters>> {
    PROBE.read().unwrap_or_else(PoisonError::into_inner).clone()
}

/// A pure observer ([`Stage::Observe`]): counts hook invocations and
/// changes nothing. Exempt from ordering/duplication rules, so any number
/// can be interleaved anywhere — exactly the freedom the equivalence
/// suite exercises.
pub struct ProbeMw {
    counters: Arc<ProbeCounters>,
}

impl ProbeMw {
    /// Observe into `counters`.
    pub fn new(counters: Arc<ProbeCounters>) -> Self {
        Self { counters }
    }
}

impl<M: Module> RankMiddleware<M> for ProbeMw {
    fn descriptor(&self) -> Descriptor {
        Descriptor { name: "probe", stage: Stage::Observe }
    }

    fn before_forward(
        &mut self,
        _fr: &mut FsdpRank<M>,
        _cx: &mut StepCx<'_>,
    ) -> Result<Control, RankFailure> {
        self.counters.before_forward.fetch_add(1, Ordering::Relaxed);
        Ok(Control::Continue)
    }

    fn after_backward(
        &mut self,
        _fr: &mut FsdpRank<M>,
        _cx: &mut StepCx<'_>,
    ) -> Result<Control, RankFailure> {
        self.counters.after_backward.fetch_add(1, Ordering::Relaxed);
        Ok(Control::Continue)
    }

    fn around_collective(&mut self, _label: &'static str, run: &mut dyn FnMut()) {
        self.counters.around_collective.fetch_add(1, Ordering::Relaxed);
        run()
    }

    fn on_step(
        &mut self,
        _fr: &mut FsdpRank<M>,
        _cx: &mut StepCx<'_>,
    ) -> Result<(), RankFailure> {
        self.counters.on_step.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn on_failure(&mut self, _fr: &mut FsdpRank<M>, _cx: &StepCx<'_>, _failure: &RankFailure) {
        self.counters.on_failure.fetch_add(1, Ordering::Relaxed);
    }

    fn on_finish(
        &mut self,
        _fr: &mut FsdpRank<M>,
        _cx: &mut StepCx<'_>,
    ) -> Result<(), RankFailure> {
        self.counters.on_finish.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}
