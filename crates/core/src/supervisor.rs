//! Fault-tolerant campaign supervision for the SimPoint flow.
//!
//! The paper's experimental matrix (3 configurations × 11 workloads, plus
//! ablations) is exactly the situation where one bad cell must not take
//! down an overnight campaign: a model bug that hangs the detailed core on
//! one simulation point, or a panic in one worker thread, should degrade
//! that cell's answer — or fail that one cell — and leave the rest of the
//! matrix intact.
//!
//! This module provides the policy and reporting types the flow uses for
//! that:
//!
//! * [`RetryPolicy`] — how often a failing simulation point is retried,
//!   how its warm-up is perturbed between attempts, and the cycle /
//!   wall-clock budget each attempt runs under;
//! * [`PointFailure`] / [`FailureKind`] — what exactly went wrong with a
//!   quarantined point, including the pipeline watchdog's
//!   [`WatchdogSnapshot`] for hangs;
//! * [`Degradation`] — the honesty record attached to a
//!   [`WorkloadResult`] whose weights were
//!   re-normalized after quarantining points;
//! * [`supervise_campaign`] — the campaign driver: every (configuration,
//!   workload) cell is isolated behind `catch_unwind`, failures are
//!   collected into a structured [`CampaignReport`], and the caller decides
//!   the process exit code from [`CampaignReport::all_ok`]. Cells share
//!   the configuration-independent stage artifacts through an
//!   [`ArtifactStore`] and their simulation points are drained by a
//!   [`WorkPool`](crate::WorkPool) of [`CampaignOptions::jobs`] workers
//!   (see [`crate::scheduler`]).

use crate::artifacts::{ArtifactStore, CacheStats};
use crate::flow::{FlowConfig, FlowError, WorkloadResult};
use crate::report::render_table;
use crate::scheduler::{run_campaign, CampaignOptions};
use boom_uarch::{BoomConfig, Stats, WatchdogSnapshot};
use rtl_power::PowerReport;
use rv_isa::codec::{ByteReader, ByteWriter, Codec, CodecError};
use rv_workloads::Workload;
use std::fmt;
use std::time::Duration;

rv_isa::record! {
    /// Retry and budget policy for one simulation point's detailed simulation.
    #[derive(Clone, Debug)]
    pub struct RetryPolicy {
        /// Total attempts per point (first try included). At least 1.
        pub max_attempts: u32 [key],
        /// Multiplicative warm-up perturbation applied before each retry.
        ///
        /// Must be ≤ 1: the checkpoint is captured *before* the warm-up
        /// region, so a retry can shorten the warm-up (shifting the measured
        /// window slightly earlier past a suspected pathological state) but
        /// cannot lengthen it.
        pub warmup_perturb: f64 [key],
        /// Cycle budget for one attempt (`None` = unlimited; the core's own
        /// no-commit watchdog still applies).
        pub cycle_budget: Option<u64> [key],
        /// Multiplier applied to the cycle budget on each retry, so a point
        /// that merely ran out of budget gets more room the next time.
        pub budget_backoff: f64 [key],
        /// Wall-clock budget for one attempt (`None` = unlimited).
        pub wall_clock: Option<Duration> [key],
    }
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            warmup_perturb: 0.75,
            cycle_budget: None,
            budget_backoff: 2.0,
            wall_clock: None,
        }
    }
}

rv_isa::record! {
    /// Test-only fault injection, threaded through [`FlowConfig`].
    ///
    /// Used by the supervisor's own tests and by `boomflow --inject-hang` to
    /// exercise hang detection, retry, and quarantine on demand. All fields
    /// default to "inject nothing".
    #[derive(Clone, Copy, Debug, Default)]
    pub struct FaultInjection {
        /// Freeze the commit stage in this simulation point's detailed core,
        /// so the pipeline watchdog fires deterministically.
        pub hang_point: Option<usize> [key],
        /// Freeze the commit stage in *every* point's detailed core (forces
        /// total failure of the workload, not just a quarantine).
        pub hang_every_point: bool [key],
        /// Panic inside this point's worker thread (exercises the
        /// `catch_unwind` isolation path).
        pub panic_point: Option<usize> [key],
        /// Abort the whole process after this many freshly simulated points
        /// have been journaled — a deterministic stand-in for an OOM kill or
        /// power cut, used by the campaign-resume tests and the CI smoke
        /// job. Replayed points do not count. Out of key: it decides when
        /// the process dies, never what a completed point contains.
        pub kill_after_points: Option<u64> [nokey],
    }
}

impl FaultInjection {
    /// Whether point `simpoint` should have its commit stage frozen.
    pub fn hangs(&self, simpoint: usize) -> bool {
        self.hang_every_point || self.hang_point == Some(simpoint)
    }

    /// Whether point `simpoint`'s worker should panic.
    pub fn panics(&self, simpoint: usize) -> bool {
        self.panic_point == Some(simpoint)
    }
}

/// Why one attempt at simulating a point failed.
#[derive(Clone, Debug)]
pub enum FailureKind {
    /// The detailed core made no commit progress; the pipeline watchdog
    /// captured a diagnostic snapshot.
    Hung {
        /// The pipeline state at the moment the watchdog fired.
        snapshot: Box<WatchdogSnapshot>,
    },
    /// The worker thread panicked.
    Panicked {
        /// The panic payload, if it was a string.
        message: String,
    },
    /// The attempt exceeded its cycle budget while still making progress.
    CycleBudgetExceeded {
        /// Cycles consumed when the budget check fired.
        cycles: u64,
        /// The budget that was in force.
        budget: u64,
    },
    /// The attempt exceeded its wall-clock budget.
    WallClockExceeded {
        /// Elapsed wall-clock milliseconds when the check fired.
        elapsed_ms: u64,
        /// The budget that was in force, in milliseconds.
        budget_ms: u64,
    },
}

/// A one-byte tag, then the variant's fields in declaration order.
impl Codec for FailureKind {
    const MIN_BYTES: usize = 1;
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            FailureKind::Hung { snapshot } => {
                w.put_u8(0);
                snapshot.encode(w);
            }
            FailureKind::Panicked { message } => {
                w.put_u8(1);
                w.put_str(message);
            }
            FailureKind::CycleBudgetExceeded { cycles, budget } => {
                w.put_u8(2);
                w.put_u64(*cycles);
                w.put_u64(*budget);
            }
            FailureKind::WallClockExceeded { elapsed_ms, budget_ms } => {
                w.put_u8(3);
                w.put_u64(*elapsed_ms);
                w.put_u64(*budget_ms);
            }
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<FailureKind, CodecError> {
        Ok(match r.u8()? {
            0 => FailureKind::Hung { snapshot: Box::new(WatchdogSnapshot::decode(r)?) },
            1 => FailureKind::Panicked { message: String::decode(r)? },
            2 => FailureKind::CycleBudgetExceeded { cycles: r.u64()?, budget: r.u64()? },
            3 => FailureKind::WallClockExceeded { elapsed_ms: r.u64()?, budget_ms: r.u64()? },
            _ => return Err(CodecError::Invalid("failure kind tag")),
        })
    }
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureKind::Hung { snapshot } => {
                write!(f, "pipeline hung ({})", snapshot.diagnosis())
            }
            FailureKind::Panicked { message } => write!(f, "worker panicked: {message}"),
            FailureKind::CycleBudgetExceeded { cycles, budget } => {
                write!(f, "cycle budget exceeded ({cycles} of {budget} cycles)")
            }
            FailureKind::WallClockExceeded { elapsed_ms, budget_ms } => {
                write!(f, "wall-clock budget exceeded ({elapsed_ms} of {budget_ms} ms)")
            }
        }
    }
}

rv_isa::record! {
    /// A simulation point that failed every attempt and was quarantined.
    #[derive(Clone, Debug)]
    pub struct PointFailure {
        /// Index of the point among the selected simulation points.
        pub simpoint: usize [key],
        /// Index of the represented interval in the BBV profile.
        pub interval: usize [key],
        /// The cluster weight lost by quarantining this point.
        pub weight: f64 [key],
        /// Attempts made (first try included).
        pub attempts: u32 [key],
        /// The failure of the last attempt.
        pub kind: FailureKind [key],
    }
}

impl fmt::Display for PointFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "point {} (interval {}, weight {:.3}) failed after {} attempt(s): {}",
            self.simpoint, self.interval, self.weight, self.attempts, self.kind
        )?;
        // For hangs, the full pipeline snapshot is the diagnostic artifact
        // the campaign exists to preserve — print it, indented.
        if let FailureKind::Hung { snapshot } = &self.kind {
            for line in snapshot.to_string().lines() {
                write!(f, "\n    {line}")?;
            }
        }
        Ok(())
    }
}

/// Record of graceful degradation attached to a
/// [`WorkloadResult`].
///
/// Present whenever the result was produced with fewer points than the
/// phase analysis selected, or only after retries. The surviving points'
/// weights have been re-normalized to sum to 1, so the weighted IPC and
/// power are still well-formed averages — but over a smaller slice of
/// execution, quantified here.
#[derive(Clone, Debug, Default)]
pub struct Degradation {
    /// Points that failed all attempts and were quarantined.
    pub failed: Vec<PointFailure>,
    /// Total original cluster weight of the quarantined points (the
    /// fraction of execution the result no longer represents).
    pub lost_weight: f64,
    /// Retries (attempts beyond the first) spent across all points,
    /// including points that eventually succeeded.
    pub retries: u32,
}

impl fmt::Display for Degradation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "degraded: {} point(s) quarantined, {:.1}% of execution weight lost, {} retry(ies)",
            self.failed.len(),
            100.0 * self.lost_weight,
            self.retries
        )?;
        for p in &self.failed {
            write!(f, "\n  {p}")?;
        }
        Ok(())
    }
}

/// Re-normalizes the surviving points' weights to sum to 1.
///
/// Returns `None` when the weights sum to zero (or the slice is empty) —
/// i.e. nothing survived that can meaningfully represent the execution.
pub fn renormalized(weights: &[f64]) -> Option<Vec<f64>> {
    let sum: f64 = weights.iter().sum();
    if !sum.is_finite() || sum <= 0.0 {
        return None;
    }
    Some(weights.iter().map(|w| w / sum).collect())
}

/// Outcome of one (configuration, workload) cell of the campaign matrix.
#[derive(Debug)]
pub struct CellResult {
    /// Configuration name.
    pub config: String,
    /// Workload name.
    pub workload: &'static str,
    /// The cell's result, or why it failed even after per-point retries.
    pub outcome: Result<Box<WorkloadResult>, CellFailure>,
}

/// Why a whole cell failed.
#[derive(Clone, Debug)]
pub enum CellFailure {
    /// The flow returned an error (profiling failure, or every simulation
    /// point of the workload failed).
    Flow(FlowError),
    /// The flow itself panicked outside any per-point isolation.
    Panicked(String),
}

impl fmt::Display for CellFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellFailure::Flow(e) => write!(f, "{e}"),
            CellFailure::Panicked(m) => write!(f, "flow panicked: {m}"),
        }
    }
}

/// One core's half of a dual-core co-run cell: the full-program
/// measurement of the workload it ran while sharing the L2/DRAM uncore
/// with the other core.
#[derive(Clone, Debug)]
pub struct CoreRunResult {
    /// Workload this core ran.
    pub workload: &'static str,
    /// IPC over the core's entire execution.
    pub ipc: f64,
    /// Per-component power over the core's execution (includes the
    /// `L2Cache` / `DramInterface` uncore components).
    pub power: PowerReport,
    /// Detailed-simulation activity, including the memory-system
    /// interference counters.
    pub stats: Stats,
}

impl CoreRunResult {
    /// L1 misses this core could not even start in the shared L2 because
    /// every L2 MSHR was held (mostly by the other core) — the cell's
    /// primary interference metric.
    pub fn l2_contention_stalls(&self) -> u64 {
        self.stats.mem.l2_contention_stalls
    }

    /// Cycles this core's demand refills queued behind a busy DRAM
    /// channel — the bandwidth-interference metric.
    pub fn dram_bw_wait_cycles(&self) -> u64 {
        self.stats.mem.dram_bw_wait_cycles
    }
}

/// Outcome of one dual-core co-run cell: two workloads co-running on two
/// cores behind one shared L2.
#[derive(Debug)]
pub struct CoRunCellResult {
    /// Configuration name, as selected for the campaign (the in-cell
    /// hierarchy upgrade does not rename the campaign cell).
    pub config: String,
    /// The two co-running workloads, in core order.
    pub workloads: [&'static str; 2],
    /// Per-core results, or why the cell failed. Either core hanging or
    /// failing self-verification fails the whole cell — the survivor's
    /// numbers would describe a half-idle uncore, not a co-run.
    pub outcome: Result<Box<[CoreRunResult; 2]>, CellFailure>,
}

/// Per-stage accounting of one campaign: how many worker threads it ran
/// with, how long it took end to end, and the artifact store's per-stage
/// compute/hit counters and wall-clock totals — the observable form of
/// the reuse win (a 3-configuration campaign shows one profile / cluster
/// / checkpoint computation per workload and two cache hits each).
#[derive(Clone, Copy, Debug)]
pub struct CampaignStats {
    /// Worker threads the point pool ran with.
    pub jobs: usize,
    /// End-to-end campaign wall-clock, in ms.
    pub wall_ms: f64,
    /// Stage compute/hit counters and per-stage wall-clock totals.
    pub cache: CacheStats,
    /// Points replayed from a resume journal instead of re-simulated.
    pub replayed_points: u64,
    /// Per-config point simulations (lanes) that ran inside a multi-
    /// config batch ([`CampaignOptions::batch_lanes`] ≥ 2); solo tasks
    /// and replayed points do not count.
    pub batched_points: u64,
    /// Total detailed-core cycles fast-forwarded by event-driven idle
    /// skipping across all surviving points (0 unless the campaign ran
    /// with idle skipping enabled).
    pub idle_cycles_skipped: u64,
}

/// Aggregate of a supervised campaign over a configuration × workload
/// matrix.
#[derive(Debug)]
pub struct CampaignReport {
    /// One entry per cell, in (configuration-major) run order.
    pub cells: Vec<CellResult>,
    /// Dual-core co-run cells, scheduled after every single-core cell,
    /// in (configuration-major) run order. Empty unless the campaign
    /// requested co-runs ([`CampaignOptions::co_runs`]).
    pub co_cells: Vec<CoRunCellResult>,
    /// Scheduler and artifact-reuse accounting for this campaign.
    pub stats: CampaignStats,
}

impl CampaignReport {
    /// True when every cell produced a result (possibly degraded).
    pub fn all_ok(&self) -> bool {
        self.cells.iter().all(|c| c.outcome.is_ok())
            && self.co_cells.iter().all(|c| c.outcome.is_ok())
    }

    /// Cells that failed outright.
    pub fn failed(&self) -> impl Iterator<Item = &CellResult> {
        self.cells.iter().filter(|c| c.outcome.is_err())
    }

    /// Cells that succeeded but were degraded (quarantined points or
    /// retries).
    pub fn degraded(&self) -> impl Iterator<Item = (&CellResult, &Degradation)> {
        self.cells.iter().filter_map(|c| match &c.outcome {
            Ok(r) => r.degradation.as_ref().map(|d| (c, d)),
            Err(_) => None,
        })
    }

    /// Renders the structured failure / degradation log, or `None` when
    /// the campaign was entirely clean.
    pub fn failure_log(&self) -> Option<String> {
        let failed: Vec<&CellResult> = self.failed().collect();
        let degraded: Vec<(&CellResult, &Degradation)> = self.degraded().collect();
        let co_failed: Vec<&CoRunCellResult> =
            self.co_cells.iter().filter(|c| c.outcome.is_err()).collect();
        if failed.is_empty() && degraded.is_empty() && co_failed.is_empty() {
            return None;
        }
        let mut out = String::new();
        if !degraded.is_empty() {
            let header: Vec<String> =
                ["Config", "Workload", "Lost weight", "Quarantined", "Retries"]
                    .iter()
                    .map(|s| s.to_string())
                    .collect();
            let rows: Vec<Vec<String>> = degraded
                .iter()
                .map(|(c, d)| {
                    vec![
                        c.config.clone(),
                        c.workload.to_string(),
                        format!("{:.1}%", 100.0 * d.lost_weight),
                        d.failed.len().to_string(),
                        d.retries.to_string(),
                    ]
                })
                .collect();
            out.push_str("Degraded cells (results kept, weights re-normalized):\n");
            out.push_str(&render_table(&header, &rows));
            for (c, d) in &degraded {
                for p in &d.failed {
                    out.push_str(&format!("  {} on {}: {p}\n", c.workload, c.config));
                }
            }
        }
        if !failed.is_empty() {
            out.push_str("Failed cells:\n");
            for c in &failed {
                if let Err(e) = &c.outcome {
                    out.push_str(&format!("  {} on {}: {e}\n", c.workload, c.config))
                }
            }
        }
        if !co_failed.is_empty() {
            out.push_str("Failed co-run cells:\n");
            for c in &co_failed {
                if let Err(e) = &c.outcome {
                    out.push_str(&format!(
                        "  {}+{} on {}: {e}\n",
                        c.workloads[0], c.workloads[1], c.config
                    ))
                }
            }
        }
        Some(out)
    }

    /// Renders the per-stage wall-clock / cache accounting the CLI prints
    /// after a campaign — the observable form of the artifact-reuse win.
    pub fn stage_summary(&self) -> String {
        let s = &self.stats;
        let c = &s.cache;
        let header: Vec<String> =
            ["Stage", "Computed", "Cache hits", "Wall ms"].iter().map(|h| h.to_string()).collect();
        let row = |stage: &str, computed: u64, hits: u64, ms: f64| {
            vec![stage.to_string(), computed.to_string(), hits.to_string(), format!("{ms:.1}")]
        };
        let mut rows = vec![
            row("Profile", c.profile_computed, c.profile_hits, c.profile_ms),
            row("Clustering", c.cluster_computed, c.cluster_hits, c.cluster_ms),
            row("Checkpoints", c.checkpoint_computed, c.checkpoint_hits, c.checkpoint_ms),
            vec![
                "Detailed sim".to_string(),
                "-".to_string(),
                "-".to_string(),
                format!("{:.1}", c.detailed_ms),
            ],
        ];
        if c.full_run_computed + c.full_run_hits > 0 {
            rows.push(row("Full-run base", c.full_run_computed, c.full_run_hits, c.full_run_ms));
        }
        let mut out = format!(
            "Campaign: {} cell(s), {} job(s), {:.0} ms wall\n{}",
            self.cells.len() + self.co_cells.len(),
            s.jobs,
            s.wall_ms,
            render_table(&header, &rows)
        );
        if c.disk_hits + c.disk_misses + c.disk_writes + c.disk_quarantined > 0 {
            out.push_str(&format!(
                "Disk cache: {} hit(s), {} miss(es), {} write(s), {} quarantined\n",
                c.disk_hits, c.disk_misses, c.disk_writes, c.disk_quarantined
            ));
        }
        if c.error_replays > 0 {
            out.push_str(&format!("Cached errors replayed: {}\n", c.error_replays));
        }
        if c.inflight_dedup_hits + c.warm_store_hits > 0 {
            out.push_str(&format!(
                "Single-flight: {} in-flight dedup hit(s), {} warm-store hit(s)\n",
                c.inflight_dedup_hits, c.warm_store_hits
            ));
        }
        if s.replayed_points > 0 {
            out.push_str(&format!("Journal: {} point(s) replayed\n", s.replayed_points));
        }
        // Batching and idle skipping are wall-clock optimizations with
        // bit-identical outcomes, so they surface here — in the stage
        // summary — and deliberately never in `render_deterministic`,
        // which must compare byte-for-byte across modes.
        if s.batched_points > 0 {
            out.push_str(&format!(
                "Batched lanes: {} point simulation(s) ran in multi-config batches\n",
                s.batched_points
            ));
        }
        if s.idle_cycles_skipped > 0 {
            out.push_str(&format!(
                "Idle skip: {} cycle(s) fast-forwarded\n",
                s.idle_cycles_skipped
            ));
        }
        out
    }

    /// Renders the campaign's *outcome* — every cell's result down to
    /// per-point float bit patterns and activity fingerprints — with no
    /// wall-clock, scheduling, or cache-locality information, so an
    /// interrupted-and-resumed campaign and an uninterrupted one (at any
    /// `--jobs`) produce byte-identical output. Written by
    /// `boomflow --report-out` and diffed by the CI resume smoke job.
    pub fn render_deterministic(&self) -> String {
        let mut out = String::new();
        render_cells(&mut out, &self.cells);
        // The co-run section is appended only when co-runs were scheduled,
        // so reports from existing single-core campaigns stay
        // byte-identical.
        if !self.co_cells.is_empty() {
            out.push_str(&format!("co-cells {}\n", self.co_cells.len()));
            for c in &self.co_cells {
                let names = format!("{}+{}", c.workloads[0], c.workloads[1]);
                match &c.outcome {
                    Ok(cores) => {
                        out.push_str(&format!("co-cell {} {names} ok\n", c.config));
                        for (i, r) in cores.iter().enumerate() {
                            out.push_str(&format!(
                                "  core {i} {} ipc {} cycles {} retired {} stats {:016x}\n",
                                r.workload,
                                fb(r.ipc),
                                r.stats.cycles,
                                r.stats.retired,
                                r.stats.fingerprint()
                            ));
                            out.push_str(&format!(
                                "  core {i} interference l2_contention_stalls {} \
                                 dram_bw_wait_cycles {}\n",
                                r.l2_contention_stalls(),
                                r.dram_bw_wait_cycles()
                            ));
                            for (comp, b) in r.power.iter() {
                                out.push_str(&format!(
                                    "  core {i} power {:?} {} {} {}\n",
                                    comp,
                                    fb(b.leakage_mw),
                                    fb(b.internal_mw),
                                    fb(b.switching_mw)
                                ));
                            }
                        }
                    }
                    Err(e) => {
                        out.push_str(&format!("co-cell {} {names} failed: {e}\n", c.config));
                    }
                }
            }
        }
        out
    }
}

/// Renders a float with its exact bit pattern appended, so deterministic
/// reports compare byte-for-byte without rounding ambiguity.
pub(crate) fn fb(v: f64) -> String {
    format!("{v:.6}[{:016x}]", v.to_bits())
}

/// Renders the deterministic `cells N` section: per cell, an `ok` line
/// with its body (ipc/coverage line, power breakdown, per-point rows,
/// degradation) or a `failed` line. The campaign report's cells and the
/// sweep's survivor cells render through it alike.
pub(crate) fn render_cells(out: &mut String, cells: &[CellResult]) {
    out.push_str(&format!("cells {}\n", cells.len()));
    for c in cells {
        let r = match &c.outcome {
            Ok(r) => r,
            Err(e) => {
                out.push_str(&format!("cell {} {} failed: {e}\n", c.config, c.workload));
                continue;
            }
        };
        out.push_str(&format!("cell {} {} ok\n", c.config, c.workload));
        out.push_str(&format!(
            "  ipc {} coverage {} speedup {} total_insts {} interval {}\n",
            fb(r.ipc),
            fb(r.coverage),
            fb(r.speedup),
            r.total_insts,
            r.interval_size
        ));
        for (comp, b) in r.power.iter() {
            out.push_str(&format!(
                "  power {:?} {} {} {}\n",
                comp,
                fb(b.leakage_mw),
                fb(b.internal_mw),
                fb(b.switching_mw)
            ));
        }
        for (slot, mw) in r.power.int_issue_slot_mw.iter().enumerate() {
            out.push_str(&format!("  slot {slot} {}\n", fb(*mw)));
        }
        for p in &r.points {
            out.push_str(&format!(
                "  point interval {} weight {} ipc {} stats {:016x}\n",
                p.interval,
                fb(p.weight),
                fb(p.ipc),
                p.stats.fingerprint()
            ));
        }
        if let Some(d) = &r.degradation {
            out.push_str(&format!("  degraded lost {} retries {}\n", fb(d.lost_weight), d.retries));
            for pf in &d.failed {
                out.push_str(&format!(
                    "  quarantined {} interval {} weight {} attempts {}: {}\n",
                    pf.simpoint,
                    pf.interval,
                    fb(pf.weight),
                    pf.attempts,
                    pf.kind
                ));
            }
        }
    }
}

/// Runs the supervised campaign over every (configuration, workload) cell
/// with explicit scheduler options (`--jobs`) and a campaign-private
/// [`ArtifactStore`].
///
/// Each cell is isolated behind `catch_unwind`: a panic anywhere in one
/// cell's flow — profiling, clustering, checkpointing, or a detailed-
/// simulation worker that escaped per-point isolation — is recorded as
/// that cell's [`CellFailure`] and the remaining cells still run. Within a
/// cell, per-point failures are already retried and quarantined by the
/// point supervisor, so a cell fails only when profiling fails or every
/// point of the workload fails after retries.
///
/// The configuration-independent stages (profile, analysis, checkpoints)
/// are computed exactly once per workload and shared across every
/// configuration through the store; use [`supervise_campaign`] to supply
/// the store yourself.
pub fn supervise_matrix_with(
    cfgs: &[BoomConfig],
    workloads: &[Workload],
    flow: &FlowConfig,
    opts: &CampaignOptions,
) -> CampaignReport {
    supervise_campaign(cfgs, workloads, flow, &ArtifactStore::new(), opts)
}

/// [`supervise_matrix_with`] against a caller-owned [`ArtifactStore`]: reuse
/// the store across campaigns (e.g. ablation sweeps over the same
/// workloads) to share the front half of the flow between them too.
pub fn supervise_campaign(
    cfgs: &[BoomConfig],
    workloads: &[Workload],
    flow: &FlowConfig,
    store: &ArtifactStore,
    opts: &CampaignOptions,
) -> CampaignReport {
    run_campaign(cfgs, workloads, flow, store, opts)
}

/// Extracts a human-readable message from a panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn supervision_keys_cover_every_field_but_kill_after() {
        let retry = RetryPolicy::default();
        type PerturbRetry = fn(&mut RetryPolicy);
        let perturbations: [(&str, PerturbRetry); 5] = [
            ("max_attempts", |r| r.max_attempts += 1),
            ("warmup_perturb", |r| r.warmup_perturb /= 2.0),
            ("cycle_budget", |r| r.cycle_budget = Some(1)),
            ("budget_backoff", |r| r.budget_backoff += 1.0),
            ("wall_clock", |r| r.wall_clock = Some(Duration::from_nanos(1))),
        ];
        for (what, perturb) in perturbations {
            let mut r = retry.clone();
            perturb(&mut r);
            assert_ne!(r.content_key(), retry.content_key(), "retry.{what} is in key");
        }
        let inject = FaultInjection::default();
        type PerturbInject = fn(&mut FaultInjection);
        let perturbations: [(&str, PerturbInject); 3] = [
            ("hang_point", |f| f.hang_point = Some(0)),
            ("hang_every_point", |f| f.hang_every_point = true),
            ("panic_point", |f| f.panic_point = Some(0)),
        ];
        for (what, perturb) in perturbations {
            let mut f = inject;
            perturb(&mut f);
            assert_ne!(f.content_key(), inject.content_key(), "inject.{what} is in key");
        }
        let killed = FaultInjection { kill_after_points: Some(3), ..inject };
        assert_eq!(killed.content_key(), inject.content_key(), "kill-after is out of key");
    }

    #[test]
    fn renormalized_weights_sum_to_one() {
        let w = renormalized(&[0.2, 0.3]).unwrap();
        let sum: f64 = w.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!((w[0] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn renormalized_rejects_empty_and_zero() {
        assert!(renormalized(&[]).is_none());
        assert!(renormalized(&[0.0, 0.0]).is_none());
    }

    #[test]
    fn panic_message_handles_both_string_kinds() {
        let static_payload: Box<dyn std::any::Any + Send> = Box::new("boom");
        let owned_payload: Box<dyn std::any::Any + Send> = Box::new(String::from("bang"));
        assert_eq!(panic_message(static_payload.as_ref()), "boom");
        assert_eq!(panic_message(owned_payload.as_ref()), "bang");
    }
}
