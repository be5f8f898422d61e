//! The campaign driver and the point path it shares with the sweep.
//!
//! A campaign schedules *simulation points* — not whole cells — as the
//! unit of work: after a per-workload artifact-preparation phase
//! (memoized by [`ArtifactStore`], so profiling / clustering /
//! checkpointing run exactly once per workload no matter how many
//! configurations share it), every (cell, point) pair across the whole
//! configuration × workload matrix goes into one [`WorkPool`] submission
//! drained by `--jobs` workers. Small cells therefore never serialize
//! behind big ones, and the detailed-simulation phase saturates the
//! machine at any matrix shape.
//!
//! Only incomplete work becomes a pool task. A checkpoint set or point
//! outcome the store already holds complete is taken at plan time on the
//! submitting thread (a campaign journals a warm point exactly as a
//! single-flight hit would be journaled), so a fully warm run — a served
//! request over cells an earlier request computed — submits nothing to
//! the shared pool and never waits behind other requests' simulation.
//!
//! The phases are `pub(crate)` so a sweep runs the same code:
//! `PointRun::prepare`, `PointRun::pass` (the one point loop) and
//! `PointRun::assemble`, plus the `kill_switch` hook. A campaign is one
//! full-budget pass; a sweep rung is a pass over its survivors.
//!
//! Supervision semantics are exactly those of the sequential driver:
//! per-point retry and quarantine
//! (`run_lane` → `run_point_supervised`), per-cell `catch_unwind` isolation around
//! artifact preparation and result assembly, and deterministic
//! (configuration-major) cell ordering with points assembled in plan
//! order — a `--jobs 1` and a `--jobs N` campaign produce
//! [`CampaignReport`]s with identical cells.

use crate::artifacts::{ArtifactStore, CheckpointSet, PointKey, PointScope};
use crate::flow::{
    assemble_workload_result, escaped_panic, run_co_cell, run_lane, FlowConfig, FlowError,
    PointOutcome,
};
use crate::journal::{CampaignJournal, JournalReplay};
use crate::pool::WorkPool;
use crate::supervisor::{
    panic_message, CampaignReport, CampaignStats, CellFailure, CellResult, CoRunCellResult,
    CoreRunResult, FailureKind, PointFailure,
};
use crate::sweep::{truncated, RungSpec};
use boom_uarch::{BoomConfig, Core};
use rv_isa::codec::Codec;
use rv_workloads::Workload;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Campaign-scheduler knobs.
#[derive(Clone, Debug)]
pub struct CampaignOptions {
    /// Workers of the run's private [`WorkPool`] (≥ 1), which bounds
    /// every simulation thread of the campaign — batched lanes included.
    /// `1` reproduces the sequential driver exactly. Ignored when
    /// [`CampaignOptions::pool`] supplies a shared pool.
    pub jobs: usize,
    /// Write-ahead journal receiving every completed point, enabling
    /// `--resume` after a crash. `None` disables journaling.
    pub journal: Option<Arc<CampaignJournal>>,
    /// Outcomes recovered from a previous run's journal; matching
    /// points are replayed instead of re-simulated.
    pub replay: Option<Arc<JournalReplay>>,
    /// Dual-core co-run cells: pairs of workload indices that co-run on
    /// two cores sharing one L2, scheduled once per configuration after
    /// every single-core cell. The pair order is the core order.
    pub co_runs: Vec<(usize, usize)>,
    /// Configurations simulated per batched work item (≥ 1). With `N >
    /// 1`, up to `N` configurations' detailed simulations of the *same*
    /// SimPoint are grouped into one task that classifies the point's
    /// micro-op table once and shares it (plus the predecoded image)
    /// across the per-config lanes, which run one after another on the
    /// task's worker. Each lane's outcome, journal record, and report
    /// cell are bit-identical to an unbatched run. Chunks of ≤ 2 lanes
    /// auto-fall-back to the solo path — at that width the batching
    /// machinery costs more than the shared classification saves.
    pub batch_lanes: usize,
    /// Externally owned worker pool to drain this campaign's tasks — the
    /// campaign service points every admitted request at one
    /// process-wide [`WorkPool`] so its `--jobs` bound and round-robin
    /// fairness span requests. `None` (solo runs) creates a private
    /// `WorkPool` of [`CampaignOptions::jobs`] workers for the run.
    pub pool: Option<Arc<WorkPool>>,
    /// Progress callback invoked as `(done, total)` over the campaign's
    /// point outcomes (replayed points count as already done).
    pub progress: Option<ProgressHook>,
}

/// A cloneable `(done, total)` progress callback ([`CampaignOptions::progress`]).
#[derive(Clone)]
pub struct ProgressHook(pub Arc<dyn Fn(u64, u64) + Send + Sync>);

impl std::fmt::Debug for ProgressHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ProgressHook")
    }
}

impl Default for CampaignOptions {
    fn default() -> CampaignOptions {
        CampaignOptions {
            jobs: default_jobs(),
            journal: None,
            replay: None,
            co_runs: Vec::new(),
            batch_lanes: 1,
            pool: None,
            progress: None,
        }
    }
}

/// The default `--jobs`: the machine's available parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

/// One workload's prepared artifacts, or the failure every cell of that
/// workload reports (exactly as each cell would fail when preparing the
/// same artifacts itself).
type Prepared = Result<Arc<CheckpointSet>, CellFailure>;

/// The pool a run drains its tasks on: the caller's shared pool (the
/// campaign service's — one `--jobs` bound and round-robin fairness
/// across requests) or a private pool of `jobs` workers whose threads
/// are joined when the run drops it. On a cancelled shared pool the
/// unstarted tasks are dropped: their outcome slots stay unset and
/// assembly degrades them, it never blocks.
pub(crate) fn run_pool(shared: Option<&Arc<WorkPool>>, jobs: usize) -> Arc<WorkPool> {
    shared.map_or_else(|| Arc::new(WorkPool::new(jobs)), Arc::clone)
}

/// One run's prepared workloads and configurations (fingerprinted once
/// per run): a campaign makes one point pass over it, a sweep one per
/// rung.
pub(crate) struct PointRun<'a> {
    pub(crate) pool: Arc<WorkPool>,
    store: &'a ArtifactStore,
    flow: &'a FlowConfig,
    workloads: &'a [Workload],
    prep: Vec<Prepared>,
    cfgs: &'a [BoomConfig],
    pub(crate) fps: Vec<u64>,
    scopes: Vec<PointScope>,
    batch_lanes: usize,
}

/// One point pass's outcome slots, `[lane · w + w_idx][p_idx]` (unset
/// only where a task never ran: a cancelled pool), and its accounting:
/// points run fresh and `prefill`ed, fresh points that ran batched, and
/// the fresh points' detailed and idle-skipped cycles.
pub(crate) struct Pass {
    pub(crate) slots: Vec<Vec<OnceLock<PointOutcome>>>,
    pub(crate) fresh: u64,
    pub(crate) reused: u64,
    pub(crate) batched: u64,
    pub(crate) cycles: u64,
    pub(crate) idle_skipped: u64,
}

impl<'a> PointRun<'a> {
    /// Phase 1 — per-workload artifact preparation (profile → analysis →
    /// checkpoints). A checkpoint set already complete in the store is
    /// taken here, on the submitting thread; only missing or in-flight
    /// sets become `pool` tasks, each behind `catch_unwind`. The store
    /// memoizes, so duplicate workloads and every later phase share one
    /// computation.
    pub(crate) fn prepare(
        pool: Arc<WorkPool>,
        store: &'a ArtifactStore,
        flow: &'a FlowConfig,
        workloads: &'a [Workload],
        cfgs: &'a [BoomConfig],
        batch_lanes: usize,
    ) -> PointRun<'a> {
        let scopes: Vec<PointScope> =
            workloads.iter().map(|w| ArtifactStore::point_scope(w, flow)).collect();
        let cached = |scope| store.cached_checkpoints(scope).map(|s| s.map_err(CellFailure::Flow));
        let prep: Vec<OnceLock<Prepared>> = scopes
            .iter()
            .map(|scope| cached(scope).map_or_else(OnceLock::new, OnceLock::from))
            .collect();
        let missing = (0..workloads.len()).filter(|&w_idx| prep[w_idx].get().is_none()).collect();
        pool.run_scoped(missing, |w_idx| {
            let _ = prep[w_idx].set(isolated(|| store.checkpoints(&workloads[w_idx], flow)));
        });
        let died = || Err(CellFailure::Panicked("artifact worker died".to_string()));
        let prep = prep.into_iter().map(|slot| slot.into_inner().unwrap_or_else(died)).collect();
        let fps = cfgs.iter().map(Codec::content_key).collect();
        PointRun { pool, store, flow, workloads, prep, cfgs, fps, scopes, batch_lanes }
    }

    /// The point-memo key of SimPoint `p_idx` of workload `w_idx` on
    /// configuration `cfg_idx`, truncated by `shift`.
    pub(crate) fn key(&self, cfg_idx: usize, w_idx: usize, shift: u32, p_idx: usize) -> PointKey {
        let (config, scope) = (self.fps[cfg_idx], self.scopes[w_idx]);
        PointKey { config, scope, shift, point: p_idx as u32 }
    }

    /// Each workload's selected-point count, capped at `cap` (0 where
    /// preparation failed).
    pub(crate) fn n_points(&self, cap: usize) -> Vec<usize> {
        self.prep.iter().map(|set| set.as_ref().map_or(0, |s| s.points.len().min(cap))).collect()
    }

    /// Phase 2 — every point of configurations `lanes` (indices into
    /// `cfgs`) under `budget`: at most `budget.points` SimPoints per
    /// workload, each interval truncated by `budget.shift`.
    ///
    /// `prefill(cfg_idx, w_idx, p_idx)` supplies what the run already
    /// has (a campaign's journal replay or warm memo, a sweep's memo)
    /// on the calling thread, before any task is submitted; the rest is
    /// planned ([`plan_lanes`]) and run on the pool under per-point
    /// supervision. A solo lane goes through the store's single flight,
    /// a batch records each lane's outcome in the memo after it ran, so
    /// every run sharing the store computes a point once.
    /// `on_outcome(cfg_idx, w_idx, p_idx, &outcome)` sees every fresh
    /// outcome on its worker before its slot is filled.
    pub(crate) fn pass(
        &self,
        lanes: &[usize],
        budget: RungSpec,
        prefill: impl Fn(usize, usize, usize) -> Option<PointOutcome>,
        on_outcome: impl Fn(usize, usize, usize, &PointOutcome) + Sync,
    ) -> Pass {
        let w = self.workloads.len();
        let n_points = self.n_points(budget.points);
        let slots: Vec<Vec<OnceLock<PointOutcome>>> = lanes
            .iter()
            .flat_map(|_| &n_points)
            .map(|&n| (0..n).map(|_| OnceLock::new()).collect())
            .collect();
        let mut reused = 0u64;
        for (cell, cell_slots) in slots.iter().enumerate() {
            for (p_idx, slot) in cell_slots.iter().enumerate() {
                if let Some(outcome) = prefill(lanes[cell / w], cell % w, p_idx) {
                    let _ = slot.set(outcome);
                    reused += 1;
                }
            }
        }
        // Prefilled slots never enter a batch, so a resumed or promoted
        // run only batches what it actually simulates.
        let (tasks, batched) =
            plan_lanes(&n_points, lanes.len(), self.batch_lanes, |l, w_idx, p| {
                slots[l * w + w_idx][p].get().is_none()
            });
        let (fresh, cycles, idle_skipped) =
            (AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0));
        self.pool.run_scoped(tasks, |LaneTask { w_idx, p_idx, lanes: task_lanes }| {
            let Ok(set) = &self.prep[w_idx] else { return };
            let point = truncated(&set.points[p_idx], budget.shift);
            let key = |l: usize| self.key(lanes[l], w_idx, budget.shift, p_idx);
            let lane = |l: usize, uops| {
                run_lane(&self.cfgs[lanes[l]], &point, self.flow, uops, self.store)
            };
            let outcomes: Vec<PointOutcome> = match task_lanes[..] {
                [l] => vec![self.store.singleflight_point(key(l), || lane(l, None))],
                // A batch classifies the point's micro-op table once and
                // runs its lanes one after another on this worker, each
                // bit-identical to a solo run of its configuration.
                _ => {
                    let uops = point.checkpoint.image.as_ref().map(Core::shared_uop_table);
                    let run = |&l: &usize| {
                        let outcome = lane(l, uops.as_ref());
                        self.store.record_point(key(l), &outcome);
                        outcome
                    };
                    task_lanes.iter().map(run).collect()
                }
            };
            for (&l, outcome) in task_lanes.iter().zip(outcomes) {
                on_outcome(lanes[l], w_idx, p_idx, &outcome);
                fresh.fetch_add(1, Ordering::Relaxed);
                if let Ok((p, _)) = &outcome {
                    cycles.fetch_add(p.stats.cycles, Ordering::Relaxed);
                    idle_skipped.fetch_add(p.stats.idle_cycles_skipped, Ordering::Relaxed);
                }
                let _ = slots[l * w + w_idx][p_idx].set(outcome);
            }
        });
        Pass {
            slots,
            fresh: fresh.into_inner(),
            reused,
            batched,
            cycles: cycles.into_inner(),
            idle_skipped: idle_skipped.into_inner(),
        }
    }

    /// Phase 3 — one [`CellResult`] per (lane, workload) of a full-budget
    /// pass over `lanes`, lane-major: the workload's prep failure, or
    /// [`assemble_workload_result`] over the cell's outcomes in plan
    /// order.
    pub(crate) fn assemble(
        &self,
        lanes: &[usize],
        slots: Vec<Vec<OnceLock<PointOutcome>>>,
    ) -> Vec<CellResult> {
        let w = self.workloads.len();
        let mut cells = Vec::with_capacity(slots.len());
        for (cell, cell_slots) in slots.into_iter().enumerate() {
            let (config, w_idx) = (&self.cfgs[lanes[cell / w]].name, cell % w);
            let workload = &self.workloads[w_idx];
            let outcome = self.prep[w_idx].clone().and_then(|set| {
                let died = |p| Err(escaped_panic(p, &"point worker died".to_string()));
                let taken = set.points.iter().zip(cell_slots);
                let outcomes =
                    taken.map(|(p, s)| s.into_inner().unwrap_or_else(|| died(p))).collect();
                isolated(|| assemble_workload_result(config, workload, &set, outcomes))
                    .map(Box::new)
            });
            cells.push(CellResult { config: config.clone(), workload: workload.name, outcome });
        }
        cells
    }
}

/// `f` behind `catch_unwind`, with its error or escaped panic as the
/// cell's failure.
fn isolated<T>(f: impl FnOnce() -> Result<T, FlowError>) -> Result<T, CellFailure> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(t)) => Ok(t),
        Ok(Err(e)) => Err(CellFailure::Flow(e)),
        Err(payload) => Err(CellFailure::Panicked(panic_message(payload.as_ref()))),
    }
}

/// One phase-2 task: SimPoint `p_idx` of workload `w_idx`, simulated for
/// `lanes` (in order; positions in the pass's lane list) — one lane
/// takes the single-flight path, several share a batch.
struct LaneTask {
    w_idx: usize,
    p_idx: usize,
    lanes: Vec<usize>,
}

/// Narrowest chunk that runs as a batch: at ≤ 2 lanes the batch set-up
/// costs more than the shared micro-op classification saves, so each
/// lane takes the (cheaper) solo path.
const MIN_BATCH: usize = 3;

/// Phase-2 plan: for every (workload, point) — the axis along which the
/// checkpoint image and micro-op table are shared — the lanes among
/// `0..n_lanes` that are still `pending`, chunked `batch_lanes` wide in
/// lane order (chunks narrower than [`MIN_BATCH`] split into solo
/// tasks). `points[w_idx]` is workload `w_idx`'s point budget. Returns
/// the tasks and how many lanes run batched. With `batch_lanes == 1`
/// this is one task per pending (lane, point).
fn plan_lanes(
    points: &[usize],
    n_lanes: usize,
    batch_lanes: usize,
    pending: impl Fn(usize, usize, usize) -> bool,
) -> (Vec<LaneTask>, u64) {
    let mut tasks = Vec::new();
    let mut batched = 0u64;
    for (w_idx, &n_points) in points.iter().enumerate() {
        for p_idx in 0..n_points {
            let lanes: Vec<usize> =
                (0..n_lanes).filter(|&lane| pending(lane, w_idx, p_idx)).collect();
            for chunk in lanes.chunks(batch_lanes.max(1)) {
                if chunk.len() >= MIN_BATCH {
                    batched += chunk.len() as u64;
                    tasks.push(LaneTask { w_idx, p_idx, lanes: chunk.to_vec() });
                } else {
                    tasks.extend(chunk.iter().map(|&lane| LaneTask {
                        w_idx,
                        p_idx,
                        lanes: vec![lane],
                    }));
                }
            }
        }
    }
    (tasks, batched)
}

/// Fault injection ([`FaultInjection::kill_after_points`]): charge
/// `fresh` newly journaled points and die once the total reaches the
/// limit, exactly as an OOM kill or power cut would — the journal holds
/// the completed work, the process holds nothing.
///
/// [`FaultInjection::kill_after_points`]: crate::FaultInjection::kill_after_points
pub(crate) fn kill_switch(flow: &FlowConfig) -> impl Fn(u64) + Sync + '_ {
    let completed = AtomicU64::new(0);
    move |fresh| {
        if let Some(kill_after) = flow.inject.kill_after_points {
            if fresh > 0 && completed.fetch_add(fresh, Ordering::Relaxed) + fresh >= kill_after {
                std::process::abort();
            }
        }
    }
}

/// The quarantine record of a co-run cell whose task panicked or never
/// ran.
fn co_failure(message: String) -> PointFailure {
    let kind = FailureKind::Panicked { message };
    PointFailure { simpoint: 0, interval: 0, weight: 1.0, attempts: 1, kind }
}

/// Runs the supervised campaign over every (configuration, workload)
/// cell: one full-budget point pass, then the co-run cells.
pub(crate) fn run_campaign(
    cfgs: &[BoomConfig],
    workloads: &[Workload],
    flow: &FlowConfig,
    store: &ArtifactStore,
    opts: &CampaignOptions,
) -> CampaignReport {
    let t0 = Instant::now();
    let jobs = opts.jobs.max(1);
    let pool = run_pool(opts.pool.as_ref(), jobs);
    let run = PointRun::prepare(pool, store, flow, workloads, cfgs, opts.batch_lanes);

    // Cell `cfg_i * w + w_idx` is configuration `cfg_i` on workload
    // `w_idx`. Co-run cells follow all of them, configuration-major, so
    // adding co-runs never shifts a journal index; each owns two slots
    // (one per core) filled by one co-run task.
    let w = workloads.len();
    let n_cells = cfgs.len() * w;
    let co_cells: Vec<(&BoomConfig, (usize, usize))> =
        cfgs.iter().flat_map(|cfg| opts.co_runs.iter().map(move |&pair| (cfg, pair))).collect();
    for &(_, (a, b)) in &co_cells {
        assert!(
            a < workloads.len() && b < workloads.len(),
            "co-run workload index ({a}, {b}) out of range for {} workload(s)",
            workloads.len()
        );
    }
    let co_slots: Vec<[OnceLock<PointOutcome>; 2]> =
        co_cells.iter().map(|_| [OnceLock::new(), OnceLock::new()]).collect();

    // Replay: journaled points (quarantined failures included, so
    // weight re-normalization matches the original run) fill their
    // slots and never enter the pool — co-run slots here, single-core
    // ones as the pass's prefill. Out-of-range indices are ignored.
    let n_points = run.n_points(usize::MAX);
    let replay = opts.replay.as_deref().map(|r| &r.outcomes);
    let mut replayed: u64 = 0;
    for (&(cell, shift, p_idx), outcome) in replay.into_iter().flatten() {
        if shift != 0 {
            continue;
        }
        if cell < n_cells {
            replayed += u64::from(p_idx < n_points[cell % w]);
        } else if let Some(slot) = co_slots.get(cell - n_cells).and_then(|c| c.get(p_idx)) {
            replayed += u64::from(slot.set(outcome.clone()).is_ok());
        }
    }

    // Progress: every point slot of the campaign, replays pre-counted.
    let total_points = (cfgs.len() * n_points.iter().sum::<usize>() + 2 * co_slots.len()) as u64;
    let done_points = AtomicU64::new(replayed);
    let report_progress = |fresh: u64| {
        if let Some(hook) = &opts.progress {
            let done = done_points.fetch_add(fresh, Ordering::Relaxed) + fresh;
            (hook.0)(done, total_points);
        }
    };
    if let Some(hook) = &opts.progress {
        (hook.0)(replayed, total_points);
    }
    let charge_and_maybe_kill = kill_switch(flow);
    let completed = |cfg_i: usize, w_idx: usize, p_idx: usize, outcome: &PointOutcome| {
        if let Some(journal) = &opts.journal {
            journal.append_point(cfg_i * w + w_idx, 0, p_idx, outcome);
        }
        report_progress(1);
        charge_and_maybe_kill(1);
    };

    // Replayed points fill their slots as they are; a point the memo
    // already holds is taken here, off the pool, and journaled like a
    // warm single-flight hit, so the journal still holds every point.
    let lanes: Vec<usize> = (0..cfgs.len()).collect();
    let pass = run.pass(
        &lanes,
        RungSpec { points: usize::MAX, shift: 0 },
        |cfg_i, w_idx, p_idx| {
            if let Some(outcome) = replay.and_then(|r| r.get(&(cfg_i * w + w_idx, 0, p_idx))) {
                return Some(outcome.clone());
            }
            let outcome = store.warm_point(&run.key(cfg_i, w_idx, 0, p_idx))?;
            completed(cfg_i, w_idx, p_idx, &outcome);
            Some(outcome)
        },
        completed,
    );

    // One task per co cell with any unfilled slot; one task steps both
    // cores to completion and fills both outcome slots.
    let co_tasks: Vec<usize> =
        (0..co_cells.len()).filter(|&k| co_slots[k].iter().any(|s| s.get().is_none())).collect();
    run.pool.run_scoped(co_tasks, |k| {
        let (cfg, (a, b)) = co_cells[k];
        let outcomes = match catch_unwind(AssertUnwindSafe(|| {
            run_co_cell(cfg, [&workloads[a], &workloads[b]], &flow.inject)
        })) {
            Ok(o) => o,
            Err(payload) => {
                let f = co_failure(panic_message(payload.as_ref()));
                [Err(f.clone()), Err(f)]
            }
        };
        let mut fresh = 0u64;
        for (p, outcome) in outcomes.into_iter().enumerate() {
            // A slot already filled by replay keeps the journaled
            // outcome (identical anyway — the co-run is deterministic)
            // and is not re-journaled.
            if co_slots[k][p].get().is_some() {
                continue;
            }
            if let Some(journal) = &opts.journal {
                journal.append_point(n_cells + k, 0, p, &outcome);
            }
            let _ = co_slots[k][p].set(outcome);
            fresh += 1;
        }
        report_progress(fresh);
        charge_and_maybe_kill(fresh);
    });

    // Phase 3 — deterministic assembly, cell by cell in configuration-
    // major order.
    let results = run.assemble(&lanes, pass.slots);

    // Co-run cells assemble from their two per-core slots; a failure on
    // either core (both slots carry the same record) fails the cell.
    let mut co_results = Vec::with_capacity(co_cells.len());
    for ((cfg, (a, b)), cell_slots) in co_cells.iter().zip(co_slots) {
        let names = [workloads[*a].name, workloads[*b].name];
        let [s0, s1] = cell_slots;
        let take = |slot: OnceLock<PointOutcome>| {
            slot.into_inner().unwrap_or_else(|| Err(co_failure("co-run worker died".to_string())))
        };
        let outcome = match (take(s0), take(s1)) {
            (Ok((p0, _)), Ok((p1, _))) => Ok(Box::new([
                CoreRunResult { workload: names[0], ipc: p0.ipc, power: p0.power, stats: p0.stats },
                CoreRunResult { workload: names[1], ipc: p1.ipc, power: p1.power, stats: p1.stats },
            ])),
            (Err(f), _) | (_, Err(f)) => Err(CellFailure::Flow(f.into_flow_error())),
        };
        co_results.push(CoRunCellResult { config: cfg.name.clone(), workloads: names, outcome });
    }

    let stats = CampaignStats {
        jobs,
        wall_ms: t0.elapsed().as_secs_f64() * 1000.0,
        cache: store.stats(),
        replayed_points: replayed,
        batched_points: pass.batched,
        idle_cycles_skipped: pass.idle_skipped,
    };
    CampaignReport { cells: results, co_cells: co_results, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn pool_runs_every_task_exactly_once() {
        // The run's private pool (no shared pool given) and a shared
        // pool handed through must both drain every task exactly once.
        for jobs in [1usize, 2, 5, 32] {
            let shared = Arc::new(WorkPool::new(jobs));
            let reused = run_pool(Some(&shared), 1);
            assert!(Arc::ptr_eq(&shared, &reused), "jobs={jobs}: shared pool not reused");
            for pool in [run_pool(None, jobs), reused] {
                let hits: Vec<AtomicUsize> = (0..97).map(|_| AtomicUsize::new(0)).collect();
                pool.run_scoped((0..hits.len()).collect(), |i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "jobs={jobs}: some task ran zero or multiple times"
                );
            }
        }
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
        assert!(CampaignOptions::default().jobs >= 1);
    }
}
