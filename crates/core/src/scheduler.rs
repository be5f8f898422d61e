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
//! The phases are `pub(crate)` helpers so an adaptive sweep rung runs
//! the same code: [`prepare`] (phase 1), [`plan_lanes`] + the campaign's
//! task loop (phase 2, with the one batching rule), [`assemble_cell`]
//! (phase 3), plus the [`kill_switch`] fault-injection hook.
//!
//! Supervision semantics are exactly those of the sequential driver:
//! per-point retry and quarantine
//! ([`run_point_timed`](crate::flow::run_point_timed) →
//! `run_point_supervised`), per-cell `catch_unwind` isolation around
//! artifact preparation and result assembly, and deterministic
//! (configuration-major) cell ordering with points assembled in plan
//! order — a `--jobs 1` and a `--jobs N` campaign produce
//! [`CampaignReport`]s with identical cells.

use crate::artifacts::{config_fingerprint, ArtifactStore, CheckpointSet};
use crate::flow::{
    assemble_workload_result, escaped_panic, run_co_cell, run_lane, run_point_batch,
    supervision_fingerprint, FlowConfig, PointOutcome,
};
use crate::journal::{CampaignJournal, JournalReplay};
use crate::pool::WorkPool;
use crate::supervisor::{
    panic_message, CampaignReport, CampaignStats, CellFailure, CellResult, CoRunCellResult,
    CoreRunResult, FailureKind, PointFailure,
};
use boom_uarch::BoomConfig;
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
    /// Route each solo-lane point through the store's cross-request
    /// single-flight map, so concurrent campaigns sharing the store
    /// coalesce overlapping points (one computation, both reports) and
    /// later campaigns reuse completed ones warm. Only the service
    /// enables it; outcomes are still journaled per request.
    pub share_points: bool,
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
            share_points: false,
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
pub(crate) type Prepared = Result<Arc<CheckpointSet>, CellFailure>;

/// The pool a run drains its tasks on: the caller's shared pool (the
/// campaign service's — one `--jobs` bound and round-robin fairness
/// across requests) or a private pool of `jobs` workers whose threads
/// are joined when the run drops it. On a cancelled shared pool the
/// unstarted tasks are dropped: their outcome slots stay unset and
/// assembly degrades them, it never blocks.
pub(crate) fn run_pool(shared: Option<&Arc<WorkPool>>, jobs: usize) -> Arc<WorkPool> {
    shared.map_or_else(|| Arc::new(WorkPool::new(jobs)), Arc::clone)
}

/// Phase 1 — per-workload artifact preparation (profile → analysis →
/// checkpoints) on `pool`, each behind `catch_unwind`. The store
/// memoizes, so duplicate workloads and every later phase share one
/// computation.
pub(crate) fn prepare(
    pool: &WorkPool,
    workloads: &[Workload],
    flow: &FlowConfig,
    store: &ArtifactStore,
) -> Vec<Prepared> {
    let prep: Vec<OnceLock<Prepared>> = workloads.iter().map(|_| OnceLock::new()).collect();
    pool.run_scoped((0..workloads.len()).collect(), |w_idx| {
        let r = match catch_unwind(AssertUnwindSafe(|| store.checkpoints(&workloads[w_idx], flow)))
        {
            Ok(Ok(set)) => Ok(set),
            Ok(Err(e)) => Err(CellFailure::Flow(e)),
            Err(payload) => Err(CellFailure::Panicked(panic_message(payload.as_ref()))),
        };
        let _ = prep[w_idx].set(r);
    });
    prep.into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|| Err(CellFailure::Panicked("artifact worker died".to_string())))
        })
        .collect()
}

/// One phase-2 task: SimPoint `p_idx` of workload `w_idx`, simulated for
/// `lanes` (in order; configuration indices in a campaign, surviving
/// positions in a sweep rung) — one lane takes the solo path, several
/// share a batch ([`run_point_batch`]).
pub(crate) struct LaneTask {
    pub(crate) w_idx: usize,
    pub(crate) p_idx: usize,
    pub(crate) lanes: Vec<usize>,
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
pub(crate) fn plan_lanes(
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

/// Phase 3 — one cell's result: the workload's prep failure, or
/// [`assemble_workload_result`] (behind `catch_unwind`) over the point
/// outcomes `outcomes` gathers for the prepared set, in plan order.
pub(crate) fn assemble_cell(
    config: &str,
    workload: &Workload,
    prep: &Prepared,
    outcomes: impl FnOnce(&CheckpointSet) -> Vec<PointOutcome>,
) -> CellResult {
    let outcome = prep.clone().and_then(|set| {
        let outcomes = outcomes(&set);
        match catch_unwind(AssertUnwindSafe(|| {
            assemble_workload_result(config, workload, &set, outcomes)
        })) {
            Ok(Ok(r)) => Ok(Box::new(r)),
            Ok(Err(e)) => Err(CellFailure::Flow(e)),
            Err(payload) => Err(CellFailure::Panicked(panic_message(payload.as_ref()))),
        }
    });
    CellResult { config: config.to_string(), workload: workload.name, outcome }
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

/// One unit of work in a campaign's detailed-simulation submission.
enum PointTask {
    /// One SimPoint for one or more configurations.
    Lanes(LaneTask),
    /// A dual-core co-run cell (index into the co-cell list).
    CoRun(usize),
}

/// Runs the supervised campaign over every (configuration, workload)
/// cell with the staged pipeline and the point-level work pool.
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
    let prep = prepare(&pool, workloads, flow, store);

    // Phase 2 — one work item per (cell, point) across the whole matrix,
    // each under the same per-point supervision (retry, budget,
    // quarantine) as a single-cell flow. Cell `cfg_i * w + w_idx` is
    // configuration `cfg_i` on workload `w_idx`.
    let w = workloads.len();
    let n_points: Vec<usize> =
        prep.iter().map(|set| set.as_ref().map_or(0, |s| s.points.len())).collect();
    let cells: Vec<(&BoomConfig, usize)> =
        cfgs.iter().flat_map(|cfg| (0..w).map(move |w_idx| (cfg, w_idx))).collect();
    let slots: Vec<Vec<OnceLock<PointOutcome>>> = cells
        .iter()
        .map(|&(_, w_idx)| (0..n_points[w_idx]).map(|_| OnceLock::new()).collect())
        .collect();
    // Dual-core co-run cells, configuration-major like the single-core
    // cells and appended *after* all of them, so adding co-runs never
    // shifts an existing cell's journal index. Each co cell owns two
    // outcome slots (one per core) filled by a single co-run task.
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

    // Replay: points already journaled by an interrupted run fill their
    // slots up front (including quarantined failures, so weight
    // re-normalization matches the original run exactly) and never
    // enter the work pool. Co-run cells live past the single-core index
    // range. Stale indices from a torn journal that somehow passed
    // validation are simply out of range and ignored.
    let mut replayed: u64 = 0;
    if let Some(replay) = &opts.replay {
        for (&(c_idx, p_idx), outcome) in &replay.outcomes {
            let slot = if c_idx < slots.len() {
                slots[c_idx].get(p_idx)
            } else {
                co_slots.get(c_idx - slots.len()).and_then(|cell| cell.get(p_idx))
            };
            if let Some(slot) = slot {
                if slot.set(outcome.clone()).is_ok() {
                    replayed += 1;
                }
            }
        }
    }

    // Batching: replay-filled slots never enter a batch, so a resumed
    // campaign only batches what it actually simulates.
    let (lane_tasks, batched_points) =
        plan_lanes(&n_points, cfgs.len(), opts.batch_lanes, |cfg_i, w_idx, p_idx| {
            slots[cfg_i * w + w_idx][p_idx].get().is_none()
        });
    let mut point_tasks: Vec<PointTask> = lane_tasks.into_iter().map(PointTask::Lanes).collect();
    // One task per co cell with any unfilled slot; one task simulates
    // both cores.
    point_tasks.extend(
        (0..co_cells.len())
            .filter(|&k| co_slots[k].iter().any(|s| s.get().is_none()))
            .map(PointTask::CoRun),
    );
    {
        // Progress: every point slot of the campaign, replays pre-counted.
        let total_points: u64 =
            slots.iter().map(|v| v.len() as u64).sum::<u64>() + 2 * co_slots.len() as u64;
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
        pool.run_scoped(point_tasks, |task| match task {
            PointTask::CoRun(k) => {
                // Dual-core co-run cell: one task steps both cores to
                // completion and fills both outcome slots.
                let c_idx = cells.len() + k;
                let (cfg, (a, b)) = co_cells[k];
                let outcomes = match catch_unwind(AssertUnwindSafe(|| {
                    run_co_cell(cfg, [&workloads[a], &workloads[b]], &flow.inject)
                })) {
                    Ok(o) => o,
                    Err(payload) => {
                        let f = PointFailure {
                            simpoint: 0,
                            interval: 0,
                            weight: 1.0,
                            attempts: 1,
                            kind: FailureKind::Panicked {
                                message: panic_message(payload.as_ref()),
                            },
                        };
                        [Err(f.clone()), Err(f)]
                    }
                };
                let mut fresh = 0u64;
                for (p, outcome) in outcomes.into_iter().enumerate() {
                    // A slot already filled by replay keeps the
                    // journaled outcome (identical anyway — the
                    // co-run is deterministic) and is not
                    // re-journaled.
                    if co_slots[k][p].get().is_some() {
                        continue;
                    }
                    if let Some(journal) = &opts.journal {
                        journal.append(c_idx, p, &outcome);
                    }
                    let _ = co_slots[k][p].set(outcome);
                    fresh += 1;
                }
                report_progress(fresh);
                charge_and_maybe_kill(fresh);
            }
            PointTask::Lanes(LaneTask { w_idx, p_idx, lanes }) => {
                let Ok(set) = &prep[w_idx] else { return };
                let point = &set.points[p_idx];
                let lane_cfgs: Vec<&BoomConfig> = lanes.iter().map(|&cfg_i| &cfgs[cfg_i]).collect();
                let outcomes = match lane_cfgs[..] {
                    [cfg] if opts.share_points => {
                        // Cross-request single flight: concurrent campaigns
                        // sharing this store compute each (config,
                        // workload, point, supervision) exactly once; the
                        // outcome is deterministic, so every sharer's
                        // report is bit-identical to a private computation.
                        let key = (
                            crate::sweep::point_key(
                                config_fingerprint(cfg),
                                &workloads[w_idx],
                                flow,
                                0,
                                p_idx,
                            ),
                            supervision_fingerprint(flow),
                        );
                        vec![store
                            .singleflight_point(key, || run_lane(cfg, point, flow, None, store))]
                    }
                    _ => run_point_batch(&lane_cfgs, point, flow, store),
                };
                for (&cfg_i, outcome) in lanes.iter().zip(outcomes) {
                    let c_idx = cfg_i * w + w_idx;
                    if let Some(journal) = &opts.journal {
                        journal.append(c_idx, p_idx, &outcome);
                    }
                    let _ = slots[c_idx][p_idx].set(outcome);
                    report_progress(1);
                    charge_and_maybe_kill(1);
                }
            }
        });
    }

    // Phase 3 — deterministic assembly, cell by cell in configuration-
    // major order.
    let results: Vec<CellResult> = cells
        .iter()
        .zip(slots)
        .map(|(&(cfg, w_idx), cell_slots)| {
            assemble_cell(&cfg.name, &workloads[w_idx], &prep[w_idx], |set| {
                set.points
                    .iter()
                    .zip(cell_slots)
                    .map(|(point, slot)| {
                        slot.into_inner().unwrap_or_else(|| {
                            Err(escaped_panic(point, &"point worker died".to_string()))
                        })
                    })
                    .collect()
            })
        })
        .collect();

    // Co-run cells assemble from their two per-core slots; a failure on
    // either core (both slots carry the same record) fails the cell.
    let mut co_results = Vec::with_capacity(co_cells.len());
    for ((cfg, (a, b)), cell_slots) in co_cells.iter().zip(co_slots) {
        let names = [workloads[*a].name, workloads[*b].name];
        let [s0, s1] = cell_slots;
        let take = |slot: OnceLock<PointOutcome>| {
            slot.into_inner().unwrap_or_else(|| {
                Err(PointFailure {
                    simpoint: 0,
                    interval: 0,
                    weight: 1.0,
                    attempts: 1,
                    kind: FailureKind::Panicked { message: "co-run worker died".to_string() },
                })
            })
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

    // Skip accounting is summed from the assembled results rather than
    // tracked live: replayed points correctly contribute 0 (a replay
    // skipped nothing in this process) and the sum is deterministic.
    let idle_cycles_skipped: u64 = results
        .iter()
        .filter_map(|c| c.outcome.as_ref().ok())
        .flat_map(|r| r.points.iter())
        .map(|p| p.stats.idle_cycles_skipped)
        .sum();
    let stats = CampaignStats {
        jobs,
        wall_ms: t0.elapsed().as_secs_f64() * 1000.0,
        cache: store.stats(),
        replayed_points: replayed,
        batched_points,
        idle_cycles_skipped,
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
