//! The staged SimPoint pipeline:
//! `Profile → SimPointAnalysis → CheckpointSet → DetailedSim → Power`.
//!
//! The first three stages are configuration-independent and memoized by
//! [`ArtifactStore`] — a campaign over
//! many configurations computes them exactly once per workload
//! ([`run_simpoint_flow_with_store`]); [`run_simpoint_flow`] is the
//! one-shot form with a private store.
//!
//! Detailed simulation is where model bugs and pathological checkpoints
//! surface, so every per-point simulation runs under supervision: panics
//! are caught, a configurable cycle / wall-clock budget bounds each
//! attempt, failed points are retried with a perturbed warm-up, and points
//! that fail every attempt are quarantined — the surviving points'
//! weights are re-normalized and the loss is reported in
//! [`WorkloadResult::degradation`]. See [`crate::supervisor`] for the
//! policy types and [`crate::scheduler`] for the campaign-level driver
//! that schedules points across cells.

use crate::artifacts::{ArtifactStore, CheckpointSet, PlannedPoint};
use crate::scheduler::{run_campaign, CampaignOptions};
use crate::supervisor::{
    panic_message, renormalized, CellFailure, Degradation, FailureKind, FaultInjection,
    PointFailure, RetryPolicy,
};
use boom_uarch::{
    BoomConfig, Core, Hierarchy, HierarchyParams, MemBackendKind, Stats, UopTable, WatchdogSnapshot,
};
use rtl_power::{estimate_core, PowerReport};
use rv_isa::bbv::{BbvCollector, BbvProfile};
use rv_isa::checkpoint::RestartPoints;
use rv_isa::codec::{fnv1a, ByteWriter, Codec};
use rv_isa::cpu::{Cpu, SimError, StopReason};
use rv_workloads::Workload;
use simpoint::SimPointConfig;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Flow parameters (SimPoint settings, warm-up length, and supervision).
#[derive(Clone, Debug)]
pub struct FlowConfig {
    /// SimPoint clustering parameters.
    pub simpoint: SimPointConfig,
    /// Microarchitectural warm-up before each measured interval, in
    /// dynamic instructions (the paper warms caches and branch
    /// predictors before executing each SimPoint).
    pub warmup_insts: u64,
    /// Hard cap on functional profiling length (safety net).
    pub max_profile_insts: u64,
    /// Per-point retry and budget policy.
    pub retry: RetryPolicy,
    /// Test-only fault injection (defaults to "inject nothing").
    pub inject: FaultInjection,
    /// Event-driven idle-cycle skipping in the detailed core
    /// ([`Core::set_idle_skip`]): provably idle stretches are
    /// fast-forwarded and charged analytically, producing bit-identical
    /// stats and reports. Only honored on idle-skip-safe memory backends
    /// (the flat fixed-latency one); deliberately *not* part of the
    /// campaign fingerprint, so a journal resumes across skip modes.
    pub idle_skip: bool,
}

impl Default for FlowConfig {
    fn default() -> FlowConfig {
        FlowConfig {
            simpoint: SimPointConfig::default(),
            warmup_insts: 5_000,
            max_profile_insts: 2_000_000_000,
            retry: RetryPolicy::default(),
            inject: FaultInjection::default(),
            idle_skip: false,
        }
    }
}

/// Error from the flow.
///
/// Clonable so memoizing stores can replay a cached stage failure to
/// every (configuration, workload) cell that shares the artifact.
#[derive(Clone, Debug)]
pub enum FlowError {
    /// The functional simulator faulted.
    Sim(SimError),
    /// The workload did not exit within the profiling budget.
    NoExit,
    /// The phase analysis selected no simulation points (an empty or
    /// degenerate profile), so there is nothing to simulate.
    NoPointsSelected,
    /// The workload exited non-zero (failed its self-verification).
    SelfCheckFailed(u64),
    /// The detailed core hung (model bug or invalid checkpoint) and no
    /// simulation point survived.
    CoreHung {
        /// Which simulation point hung.
        simpoint: usize,
        /// The pipeline watchdog's diagnostic snapshot at the moment the
        /// hang was detected.
        snapshot: Box<WatchdogSnapshot>,
    },
    /// The detailed core hung during a full (non-SimPoint) simulation.
    FullRunHung {
        /// The pipeline watchdog's diagnostic snapshot.
        snapshot: Box<WatchdogSnapshot>,
    },
    /// A point's worker panicked and no simulation point survived.
    PointPanicked {
        /// Which simulation point panicked.
        simpoint: usize,
        /// The panic payload, if it was a string.
        message: String,
    },
    /// A point exceeded its cycle or wall-clock budget and no simulation
    /// point survived.
    PointBudgetExceeded {
        /// Which simulation point ran out of budget.
        simpoint: usize,
        /// Human-readable description of the exhausted budget.
        detail: String,
    },
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Sim(e) => write!(f, "functional simulation failed: {e}"),
            FlowError::NoExit => write!(f, "workload did not exit within the profiling budget"),
            FlowError::NoPointsSelected => {
                write!(f, "phase analysis selected no simulation points")
            }
            FlowError::SelfCheckFailed(code) => {
                write!(f, "workload failed self-verification (exit code {code})")
            }
            FlowError::CoreHung { simpoint, snapshot } => {
                write!(f, "detailed core hung while simulating point {simpoint}\n{snapshot}")
            }
            FlowError::FullRunHung { snapshot } => {
                write!(f, "detailed core hung during full simulation\n{snapshot}")
            }
            FlowError::PointPanicked { simpoint, message } => {
                write!(f, "worker for simulation point {simpoint} panicked: {message}")
            }
            FlowError::PointBudgetExceeded { simpoint, detail } => {
                write!(f, "simulation point {simpoint} exceeded its budget ({detail})")
            }
        }
    }
}

impl std::error::Error for FlowError {}

impl From<SimError> for FlowError {
    fn from(e: SimError) -> FlowError {
        FlowError::Sim(e)
    }
}

impl PointFailure {
    /// The error this failure escalates to when no point survived.
    pub fn into_flow_error(self) -> FlowError {
        match self.kind {
            FailureKind::Hung { snapshot } => {
                FlowError::CoreHung { simpoint: self.simpoint, snapshot }
            }
            FailureKind::Panicked { message } => {
                FlowError::PointPanicked { simpoint: self.simpoint, message }
            }
            FailureKind::CycleBudgetExceeded { cycles, budget } => FlowError::PointBudgetExceeded {
                simpoint: self.simpoint,
                detail: format!("{cycles} of {budget} cycles"),
            },
            FailureKind::WallClockExceeded { elapsed_ms, budget_ms } => {
                FlowError::PointBudgetExceeded {
                    simpoint: self.simpoint,
                    detail: format!("{elapsed_ms} of {budget_ms} ms"),
                }
            }
        }
    }
}

rv_isa::record! {
    /// Per-simulation-point measurement.
    #[derive(Clone, Debug)]
    pub struct PointResult {
        /// Index of the represented interval in the BBV profile.
        pub interval: usize [key],
        /// Cluster weight (fraction of execution; re-normalized if points
        /// were quarantined).
        pub weight: f64 [key],
        /// Measured IPC of the interval.
        pub ipc: f64 [key],
        /// Power report of the interval.
        pub power: PowerReport [key],
        /// Detailed-simulation activity (measurement window only).
        pub stats: Stats [key],
    }
}

/// Everything the paper reports for one (configuration, workload) pair.
#[derive(Clone, Debug)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: &'static str,
    /// Configuration name.
    pub config: String,
    /// SimPoint-weighted IPC (paper Fig. 10).
    pub ipc: f64,
    /// SimPoint-weighted per-component power (paper Figs. 5–8).
    pub power: PowerReport,
    /// Per-point measurements (quarantined points excluded).
    pub points: Vec<PointResult>,
    /// Total dynamic instructions of the full workload.
    pub total_insts: u64,
    /// Interval size used (dynamic instructions).
    pub interval_size: u64,
    /// Execution coverage of the surviving points (scaled down when
    /// points were quarantined).
    pub coverage: f64,
    /// Detailed-simulation reduction factor (paper: 45×).
    pub speedup: f64,
    /// Present when points were quarantined or retried; records the lost
    /// weight, the per-point failures, and the retry count.
    pub degradation: Option<Degradation>,
}

impl WorkloadResult {
    /// Total BOOM-tile power in mW.
    pub fn tile_power_mw(&self) -> f64 {
        self.power.tile_total_mw()
    }

    /// Performance per watt in IPC/W (paper Fig. 11).
    pub fn perf_per_watt(&self) -> f64 {
        self.ipc / (self.tile_power_mw() / 1000.0)
    }
}

/// Functionally profiles a workload, returning its BBV profile and the
/// restart points the pass parked on the way (one per interval at first,
/// thinned to at most [`RestartPoints::BUDGET`]), from which checkpoint
/// capture can resume instead of re-running the program.
///
/// # Errors
///
/// Fails if the program faults, never exits, or fails self-verification.
pub fn profile(
    workload: &Workload,
    max_insts: u64,
) -> Result<(BbvProfile, RestartPoints), FlowError> {
    let mut cpu = Cpu::new(&workload.program);
    let mut collector = BbvCollector::for_program(workload.interval_size, &workload.program);
    let (stop, restarts) =
        RestartPoints::run_with(&mut cpu, workload.interval_size, max_insts, |r| {
            collector.observe(r)
        })?;
    match stop {
        StopReason::Exited(0) => Ok((collector.finish(), restarts)),
        StopReason::Exited(code) => Err(FlowError::SelfCheckFailed(code)),
        _ => Err(FlowError::NoExit),
    }
}

/// Runs the complete SimPoint flow for one configuration and workload,
/// with a private single-use [`ArtifactStore`].
///
/// Per-point failures (panics, hangs, budget overruns) are retried per
/// [`FlowConfig::retry`] and quarantined points are dropped with the
/// surviving weights re-normalized, so this returns `Ok` — with a
/// populated [`WorkloadResult::degradation`] — as long as at least one
/// simulation point survives.
///
/// # Errors
///
/// Propagates profiling failures; fails with the first point's error when
/// *every* simulation point fails after retries.
pub fn run_simpoint_flow(
    cfg: &BoomConfig,
    workload: &Workload,
    flow: &FlowConfig,
) -> Result<WorkloadResult, FlowError> {
    run_simpoint_flow_with_store(cfg, workload, flow, &ArtifactStore::new())
}

/// [`run_simpoint_flow`] against a shared [`ArtifactStore`]: the
/// profiling, phase-analysis, and checkpoint stages are fetched from (or
/// computed into) the store, so evaluating many configurations of the
/// same workload runs the configuration-independent front half exactly
/// once.
///
/// This is a 1×1 campaign with default options
/// ([`supervise_campaign`](crate::supervise_campaign)): the points are
/// independent (the paper runs them as separate RTL-simulator jobs), so
/// they run on the campaign's worker pool under the same per-point
/// supervision as every campaign cell.
///
/// # Errors
///
/// As [`run_simpoint_flow`].
///
/// # Panics
///
/// Re-raises a panic that escaped the flow's per-point isolation (in
/// profiling, checkpointing, or result assembly).
pub fn run_simpoint_flow_with_store(
    cfg: &BoomConfig,
    workload: &Workload,
    flow: &FlowConfig,
    store: &ArtifactStore,
) -> Result<WorkloadResult, FlowError> {
    let report = run_campaign(
        std::slice::from_ref(cfg),
        std::slice::from_ref(workload),
        flow,
        store,
        &CampaignOptions::default(),
    );
    let Some(cell) = report.cells.into_iter().next() else {
        unreachable!("a 1x1 campaign reports exactly one cell");
    };
    match cell.outcome {
        Ok(result) => Ok(*result),
        Err(CellFailure::Flow(e)) => Err(e),
        Err(CellFailure::Panicked(message)) => std::panic::resume_unwind(Box::new(message)),
    }
}

/// Outcome of one planned point's supervised detailed simulation: the
/// measurement and the attempts it took, or the quarantine record.
pub(crate) type PointOutcome = Result<(PointResult, u32), PointFailure>;

/// The quarantine record for a panic that escaped per-point isolation,
/// or for a point whose task never ran.
pub(crate) fn escaped_panic(
    point: &PlannedPoint,
    payload: &(dyn std::any::Any + Send),
) -> PointFailure {
    PointFailure {
        simpoint: point.sel_idx,
        interval: point.interval,
        weight: point.weight,
        attempts: 1,
        kind: FailureKind::Panicked { message: panic_message(payload) },
    }
}

/// [`run_point_supervised`] under `catch_unwind`, plus stage accounting:
/// the attempt span is charged to the store's detailed-simulation
/// wall-clock total, and a panic that escapes the supervisor's own
/// isolation still becomes this point's quarantine record, payload
/// preserved.
///
/// `uops` is the point's pre-classified micro-op table when this lane is
/// part of a multi-config batch (classification is configuration-
/// independent, so the batch computes it once and every lane shares it);
/// `None` classifies privately, exactly as a solo run always has.
pub(crate) fn run_lane(
    cfg: &BoomConfig,
    point: &PlannedPoint,
    flow: &FlowConfig,
    uops: Option<&Arc<UopTable>>,
    store: &ArtifactStore,
) -> PointOutcome {
    catch_unwind(AssertUnwindSafe(|| {
        let t0 = Instant::now();
        let r = run_point_supervised(cfg, point, flow, uops);
        store.charge_detailed_us(t0.elapsed().as_micros() as u64);
        r
    }))
    .unwrap_or_else(|payload| Err(escaped_panic(point, payload.as_ref())))
}

/// Stable fingerprint of the supervision knobs that change point
/// *outcomes*: the [`RetryPolicy`] key (attempt counts, perturbed
/// warm-ups, budgets), the [`FaultInjection`] key (hang/panic points;
/// `kill_after_points` is out of key, since it only decides *when the
/// process dies*, never what a completed point contains), and idle-skip
/// (skipped-cycle stats ride in the outcome). Part of the store's
/// point-memo key ([`ArtifactStore::point_scope`]) — campaigns, sweeps
/// and requests that differ in any of these must not share outcomes.
pub(crate) fn supervision_fingerprint(flow: &FlowConfig) -> u64 {
    let mut w = ByteWriter::new();
    flow.retry.key(&mut w);
    flow.inject.key(&mut w);
    w.put_bool(flow.idle_skip);
    fnv1a(&w.into_bytes())
}

/// Quarantines failed points, re-normalizes the survivors' weights, and
/// aggregates the weighted IPC and power into the final
/// [`WorkloadResult`]. `outcomes` must be in `set.points` order — the
/// order is part of the result's contract, so sequential and parallel
/// campaigns produce identical reports.
pub(crate) fn assemble_workload_result(
    config_name: &str,
    workload: &Workload,
    set: &CheckpointSet,
    outcomes: Vec<PointOutcome>,
) -> Result<WorkloadResult, FlowError> {
    let mut points: Vec<PointResult> = Vec::with_capacity(outcomes.len());
    let mut failed: Vec<PointFailure> = Vec::new();
    let mut retries: u32 = 0;
    for outcome in outcomes {
        match outcome {
            Ok((p, attempts)) => {
                retries += attempts.saturating_sub(1);
                points.push(p);
            }
            Err(f) => {
                retries += f.attempts.saturating_sub(1);
                failed.push(f);
            }
        }
    }

    // Quarantine: drop the failed points and re-normalize the survivors'
    // weights so the weighted averages below stay well-formed.
    let mut coverage = set.analysis.selected_coverage();
    let degradation = if failed.is_empty() && retries == 0 {
        None
    } else {
        let weights: Vec<f64> = points.iter().map(|p| p.weight).collect();
        let Some(renorm) = renormalized(&weights) else {
            // Nothing survived: escalate the first failure.
            let Some(first) = failed.into_iter().next() else {
                // Retries without failures or survivors means the plan had
                // no points at all; degrade honestly rather than panic.
                return Err(FlowError::NoPointsSelected);
            };
            return Err(first.into_flow_error());
        };
        let surviving: f64 = weights.iter().sum();
        let lost_weight: f64 = failed.iter().map(|f| f.weight).sum();
        for (p, w) in points.iter_mut().zip(renorm) {
            p.weight = w;
        }
        coverage *= surviving / (surviving + lost_weight);
        Some(Degradation { failed, lost_weight, retries })
    };
    if points.is_empty() && degradation.is_none() {
        // Nothing was planned: the analysis selected no points.
        return Err(FlowError::NoPointsSelected);
    }

    // Weighted aggregation.
    let ipc = points.iter().map(|p| p.weight * p.ipc).sum();
    let weighted: Vec<(f64, &PowerReport)> = points.iter().map(|p| (p.weight, &p.power)).collect();
    let power = PowerReport::weighted_average(&weighted);

    Ok(WorkloadResult {
        name: workload.name,
        config: config_name.to_string(),
        ipc,
        power,
        points,
        total_insts: set.profile.total_insts,
        interval_size: workload.interval_size,
        coverage,
        speedup: set.analysis.speedup(),
        degradation,
    })
}

/// Weighted (CPI, tile mW) estimate over a *partial* set of point
/// outcomes — the successive-halving rungs rank configurations on
/// whatever subset of points their budget simulated, with the cluster
/// weights renormalized over the surviving subset exactly as
/// [`assemble_workload_result`] renormalizes after quarantine. Returns
/// `None` when no point succeeded (the config cannot be ranked and the
/// sweep treats it as eliminated-by-failure).
///
/// Every configuration in a rung is estimated at the same (point budget,
/// truncation shift), so the subset bias is common mode and cancels in
/// the rung's relative ordering.
pub(crate) fn weighted_estimate(outcomes: &[&PointOutcome]) -> Option<(f64, f64)> {
    let mut wsum = 0.0;
    let mut ipc = 0.0;
    let mut mw = 0.0;
    for (p, _) in outcomes.iter().filter_map(|o| o.as_ref().ok()) {
        wsum += p.weight;
        ipc += p.weight * p.ipc;
        mw += p.weight * p.power.tile_total_mw();
    }
    if wsum <= 0.0 {
        return None;
    }
    let ipc = ipc / wsum;
    if ipc <= 0.0 {
        return None;
    }
    Some((1.0 / ipc, mw / wsum))
}

/// Runs one point under supervision: panics caught, budget enforced,
/// bounded retries with a perturbed (shortened) warm-up and a backed-off
/// budget. Returns the measurement and the attempts it took, or the
/// quarantine record.
fn run_point_supervised(
    cfg: &BoomConfig,
    task: &PlannedPoint,
    flow: &FlowConfig,
    uops: Option<&Arc<UopTable>>,
) -> Result<(PointResult, u32), PointFailure> {
    let retry = &flow.retry;
    let max_attempts = retry.max_attempts.max(1);
    let mut warmup = task.warmup;
    let mut cycle_budget = retry.cycle_budget;
    let mut last: Option<FailureKind> = None;
    for attempt in 1..=max_attempts {
        let result = catch_unwind(AssertUnwindSafe(|| {
            simulate_point(cfg, warmup, task, cycle_budget, retry.wall_clock, flow, uops)
        }));
        match result {
            Ok(Ok(p)) => return Ok((p, attempt)),
            Ok(Err(kind)) => last = Some(kind),
            Err(payload) => {
                last = Some(FailureKind::Panicked { message: panic_message(payload.as_ref()) })
            }
        }
        // Perturb the next attempt: shorten the warm-up (the checkpoint
        // bounds it from above) and widen the budget.
        warmup = ((warmup as f64) * retry.warmup_perturb).round() as u64;
        cycle_budget = cycle_budget.map(|b| ((b as f64) * retry.budget_backoff).round() as u64);
    }
    Err(PointFailure {
        simpoint: task.sel_idx,
        interval: task.interval,
        weight: task.weight,
        attempts: max_attempts,
        kind: last.unwrap_or(FailureKind::Panicked { message: "no attempt recorded".to_string() }),
    })
}

/// Cycle and wall-clock accounting for one simulation attempt.
struct Budget {
    cycle_limit: Option<u64>,
    cycles_used: u64,
    wall_limit: Option<Duration>,
    started: Instant,
}

impl Budget {
    fn new(cycle_limit: Option<u64>, wall_limit: Option<Duration>) -> Budget {
        Budget { cycle_limit, cycles_used: 0, wall_limit, started: Instant::now() }
    }

    fn charge(&mut self, cycles: u64) -> Result<(), FailureKind> {
        self.cycles_used += cycles;
        if let Some(limit) = self.cycle_limit {
            if self.cycles_used > limit {
                return Err(FailureKind::CycleBudgetExceeded {
                    cycles: self.cycles_used,
                    budget: limit,
                });
            }
        }
        if let Some(limit) = self.wall_limit {
            let elapsed = self.started.elapsed();
            if elapsed > limit {
                return Err(FailureKind::WallClockExceeded {
                    elapsed_ms: elapsed.as_millis() as u64,
                    budget_ms: limit.as_millis() as u64,
                });
            }
        }
        Ok(())
    }
}

/// Instructions between budget checks while running the detailed core.
const BUDGET_CHECK_INSTS: u64 = 50_000;

/// Runs up to `insts` instructions on the core in budget-checked chunks.
/// A hang yields the watchdog snapshot; budget overruns yield the budget
/// failure.
fn run_budgeted(core: &mut Core, insts: u64, budget: &mut Budget) -> Result<(), FailureKind> {
    let mut remaining = insts;
    while remaining > 0 {
        let r = core.run(remaining.min(BUDGET_CHECK_INSTS));
        budget.charge(r.cycles)?;
        if r.hung {
            return Err(FailureKind::Hung { snapshot: Box::new(core.dump_state()) });
        }
        if r.exited {
            return Ok(());
        }
        remaining = remaining.saturating_sub(r.retired.max(1));
    }
    Ok(())
}

/// Restores the point's (shared) checkpoint into the detailed core, warms
/// it up, measures one interval, and estimates power.
fn simulate_point(
    cfg: &BoomConfig,
    warmup: u64,
    task: &PlannedPoint,
    cycle_budget: Option<u64>,
    wall_budget: Option<Duration>,
    flow: &FlowConfig,
    uops: Option<&Arc<UopTable>>,
) -> Result<PointResult, FailureKind> {
    let inject = &flow.inject;
    let mut core = match uops {
        Some(uops) => Core::from_checkpoint_with_uops(cfg.clone(), &task.checkpoint, uops),
        None => Core::from_checkpoint(cfg.clone(), &task.checkpoint),
    };
    core.set_idle_skip(flow.idle_skip);
    if inject.hangs(task.sel_idx) {
        core.inject_commit_stall();
    }
    if inject.panics(task.sel_idx) {
        panic!("injected panic for supervisor testing (point {})", task.sel_idx);
    }
    let mut budget = Budget::new(cycle_budget, wall_budget);
    if warmup > 0 {
        run_budgeted(&mut core, warmup, &mut budget)?;
    }
    core.reset_stats();
    run_budgeted(&mut core, task.interval_len, &mut budget)?;
    let power = estimate_core(&core);
    Ok(PointResult {
        interval: task.interval,
        weight: task.weight,
        ipc: core.stats().ipc(),
        power,
        stats: core.stats().clone(),
    })
}

/// Result of a full (non-SimPoint) detailed simulation, used to validate
/// the methodology and measure the speedup (paper §IV-A).
#[derive(Clone, Debug)]
pub struct FullRunResult {
    /// IPC over the entire execution.
    pub ipc: f64,
    /// Power over the entire execution.
    pub power: PowerReport,
    /// Instructions committed.
    pub retired: u64,
    /// Cycles simulated.
    pub cycles: u64,
}

/// Runs the entire workload on the detailed core (no SimPoint).
///
/// # Errors
///
/// Fails if the workload does not exit cleanly; a pipeline hang yields
/// [`FlowError::FullRunHung`] carrying the watchdog's snapshot.
pub fn run_full(cfg: &BoomConfig, workload: &Workload) -> Result<FullRunResult, FlowError> {
    let mut core = Core::new(cfg.clone(), &workload.program);
    let r = core.run(u64::MAX);
    if r.hung {
        return Err(FlowError::FullRunHung { snapshot: Box::new(core.dump_state()) });
    }
    match r.exit_code {
        Some(0) => {}
        Some(code) => return Err(FlowError::SelfCheckFailed(code)),
        None => return Err(FlowError::NoExit),
    }
    Ok(FullRunResult {
        ipc: core.stats().ipc(),
        power: estimate_core(&core),
        retired: core.stats().retired,
        cycles: core.stats().cycles,
    })
}

/// Cycles a co-run core may go without committing before it is declared
/// hung — the same limit as the single-core pipeline watchdog, but
/// tracked here because the co-run loop steps two cores itself instead
/// of delegating to [`Core::run`].
const CO_RUN_HANG_LIMIT: u64 = 100_000;

/// Runs one dual-core co-run cell: two cores, one workload each, sharing
/// one L2 + DRAM uncore through a [`Hierarchy::shared_pair`].
///
/// The cores are stepped in a strict cycle interleave (core 0 then
/// core 1, every cycle) on the calling thread, so the shared uncore
/// observes a single deterministic access order at any `--jobs` and
/// across a kill/resume cycle. A configuration still on the flat
/// [`MemBackendKind::FixedLatency`] backend is upgraded to the default
/// hierarchy first — a co-run without a shared L2 has nothing to
/// contend on.
///
/// Per-core successes are shaped as [`PointResult`]s (interval = core
/// index, weight 1) so the campaign journal's existing outcome codec
/// carries them unchanged; a hang or failed self-check on either core
/// fails the whole cell — both slots receive the same quarantine
/// record.
pub(crate) fn run_co_cell(
    cfg: &BoomConfig,
    pair: [&Workload; 2],
    inject: &FaultInjection,
) -> [PointOutcome; 2] {
    let cfg = match cfg.mem_backend {
        MemBackendKind::Hierarchy(_) => cfg.clone(),
        MemBackendKind::FixedLatency => {
            cfg.clone().with_hierarchy(HierarchyParams::default_uncore())
        }
    };
    let MemBackendKind::Hierarchy(params) = cfg.mem_backend else {
        unreachable!("co-run configs always carry a hierarchy backend")
    };
    let (b0, b1) = Hierarchy::shared_pair(params);
    let mut cores = [Core::new(cfg.clone(), &pair[0].program), Core::new(cfg, &pair[1].program)];
    cores[0].set_mem_backend(Box::new(b0));
    cores[1].set_mem_backend(Box::new(b1));
    for (i, core) in cores.iter_mut().enumerate() {
        if inject.hangs(i) {
            core.inject_commit_stall();
        }
    }

    let fail = |core_idx: usize, kind: FailureKind| -> [PointOutcome; 2] {
        let f =
            PointFailure { simpoint: core_idx, interval: core_idx, weight: 1.0, attempts: 1, kind };
        [Err(f.clone()), Err(f)]
    };

    // (retired, cycle) at each core's last observed commit progress.
    let mut progress = [(0u64, 0u64); 2];
    loop {
        let mut live = false;
        for (i, core) in cores.iter_mut().enumerate() {
            if core.exit_code().is_some() {
                continue;
            }
            live = true;
            core.step_cycle();
            let retired = core.stats().retired;
            if retired != progress[i].0 {
                progress[i] = (retired, core.cycle());
            } else if core.cycle() - progress[i].1 >= CO_RUN_HANG_LIMIT {
                return fail(i, FailureKind::Hung { snapshot: Box::new(core.dump_state()) });
            }
        }
        if !live {
            break;
        }
    }
    for (i, core) in cores.iter().enumerate() {
        if let Some(code) = core.exit_code() {
            if code != 0 {
                return fail(
                    i,
                    FailureKind::Panicked {
                        message: format!(
                            "{} failed self-verification (exit code {code})",
                            pair[i].name
                        ),
                    },
                );
            }
        }
    }
    let done = |i: usize, core: &Core| -> PointOutcome {
        Ok((
            PointResult {
                interval: i,
                weight: 1.0,
                ipc: core.stats().ipc(),
                power: estimate_core(core),
                stats: core.stats().clone(),
            },
            1,
        ))
    };
    [done(0, &cores[0]), done(1, &cores[1])]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rv_workloads::{by_name, Scale};

    fn quick_flow() -> FlowConfig {
        FlowConfig {
            simpoint: SimPointConfig { max_k: 6, restarts: 2, ..SimPointConfig::default() },
            warmup_insts: 1_000,
            max_profile_insts: 500_000_000,
            ..FlowConfig::default()
        }
    }

    #[test]
    fn capture_via_restarts_matches_capture_from_the_entry_for_every_workload() {
        use rv_isa::checkpoint::{checkpoints_at, checkpoints_from, Checkpoint};
        use rv_isa::codec::ByteWriter;
        let encoded = |cks: Vec<Checkpoint>| -> Vec<Vec<u8>> {
            cks.iter()
                .map(|ck| {
                    let mut w = ByteWriter::new();
                    ck.encode(&mut w);
                    w.into_bytes()
                })
                .collect()
        };
        for w in rv_workloads::all(Scale::Test) {
            let (bbv, restarts) = profile(&w, u64::MAX).unwrap();
            let at = restarts.positions();
            assert!(at.len() > 2 && at.len() <= RestartPoints::BUDGET, "{}: {at:?}", w.name);
            // Before the first restart past the entry, on and just after
            // every restart, inside the last stretch, and past the exit.
            let mut points = vec![at[1] / 2];
            for &x in &at[1..] {
                points.extend([x, x + 1]);
            }
            points.push((at[at.len() - 1] + bbv.total_insts) / 2);
            points.retain(|&p| p < bbv.total_insts);
            points.push(bbv.total_insts + 1_000);
            let resumed = encoded(checkpoints_from(restarts, &points).unwrap());
            let entry = encoded(checkpoints_at(&w.program, &points).unwrap());
            assert_eq!(resumed.len(), points.len());
            assert!(resumed == entry, "{}: a resumed checkpoint differs", w.name);
        }
    }

    #[test]
    fn flow_produces_weighted_result_for_bitcount() {
        let w = by_name("bitcount", Scale::Test).unwrap();
        let r = run_simpoint_flow(&BoomConfig::medium(), &w, &quick_flow()).unwrap();
        assert!(r.ipc > 0.2 && r.ipc < 3.0, "ipc {}", r.ipc);
        assert!(r.coverage >= 0.9);
        assert!(r.speedup > 1.0);
        assert!(!r.points.is_empty());
        assert!(r.degradation.is_none(), "clean run must not report degradation");
        let wsum: f64 = r.points.iter().map(|p| p.weight).sum();
        assert!((wsum - 1.0).abs() < 1e-9);
        assert!(r.tile_power_mw() > 0.0);
        assert!(r.perf_per_watt() > 0.0);
    }

    #[test]
    fn simpoint_ipc_tracks_full_simulation() {
        // The methodology's validity claim: weighted SimPoint IPC must be
        // close to the IPC of simulating everything.
        let w = by_name("dijkstra", Scale::Test).unwrap();
        let cfg = BoomConfig::medium();
        let flow = run_simpoint_flow(&cfg, &w, &quick_flow()).unwrap();
        let full = run_full(&cfg, &w).unwrap();
        let err = (flow.ipc - full.ipc).abs() / full.ipc;
        assert!(
            err < 0.25,
            "simpoint {:.3} vs full {:.3} ({:.0}% error)",
            flow.ipc,
            full.ipc,
            100.0 * err
        );
    }

    #[test]
    fn failing_workload_is_reported() {
        // A workload that exits non-zero must be flagged, not silently used.
        use rv_isa::asm::Assembler;
        use rv_isa::reg::Reg::*;
        let mut a = Assembler::new();
        a.li(A0, 7);
        a.exit();
        let program = a.assemble().unwrap();
        let w = Workload {
            name: "broken",
            suite: rv_workloads::Suite::MiBench,
            program,
            interval_size: 100,
        };
        match run_simpoint_flow(&BoomConfig::medium(), &w, &quick_flow()) {
            Err(FlowError::SelfCheckFailed(7)) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn injected_panic_on_one_point_degrades_instead_of_failing() {
        let w = by_name("bitcount", Scale::Test).unwrap();
        let flow = FlowConfig {
            inject: FaultInjection { panic_point: Some(0), ..FaultInjection::default() },
            retry: RetryPolicy { max_attempts: 2, ..RetryPolicy::default() },
            ..quick_flow()
        };
        let r = run_simpoint_flow(&BoomConfig::medium(), &w, &flow).unwrap();
        let d = r.degradation.expect("quarantine must be reported");
        assert_eq!(d.failed.len(), 1);
        assert_eq!(d.failed[0].simpoint, 0);
        assert_eq!(d.failed[0].attempts, 2);
        assert!(matches!(d.failed[0].kind, FailureKind::Panicked { .. }));
        assert!(d.lost_weight > 0.0);
        let wsum: f64 = r.points.iter().map(|p| p.weight).sum();
        assert!((wsum - 1.0).abs() < 1e-9, "surviving weights must re-normalize, got {wsum}");
    }

    #[test]
    fn cycle_budget_overrun_is_reported_with_backoff() {
        // A 1-cycle budget fails every point on the first attempt; the
        // backed-off budget on retry is still far too small, so the whole
        // workload fails with a budget error.
        let w = by_name("bitcount", Scale::Test).unwrap();
        let flow = FlowConfig {
            retry: RetryPolicy { max_attempts: 2, cycle_budget: Some(1), ..RetryPolicy::default() },
            ..quick_flow()
        };
        match run_simpoint_flow(&BoomConfig::medium(), &w, &flow) {
            Err(FlowError::PointBudgetExceeded { .. }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }
}
