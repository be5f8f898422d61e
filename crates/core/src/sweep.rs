//! Adaptive design-space sweep: successive halving over a grid of
//! [`BoomConfig`] points at a fraction of the exhaustive detailed-sim
//! cost.
//!
//! The sweep runs in *rungs*. Rung 0 simulates every admitted
//! configuration on a deliberately tiny budget — the fewest SimPoints,
//! with the measured interval and warm-up truncated by a right-shift —
//! and each subsequent rung re-ranks the survivors on a doubled budget,
//! keeping only configurations within an ε-band of the current
//! perf-per-watt Pareto frontier. The final rung always runs the full
//! point budget at shift 0, so every surviving configuration's report is
//! bit-identical to what an exhaustive campaign would have produced.
//!
//! A rung is a campaign pass: one point pass of the campaign scheduler
//! (`PointRun::pass` — the same loop, batching rule and single flight)
//! over the survivors at the rung's budget, so this module keeps only
//! admission, the rung schedule, elimination, the frontier and
//! rendering. Two mechanisms make the sweep cheap:
//!
//! 1. The configuration-independent front half of the flow
//!    (Profile → SimPoint → Checkpoint) is computed once for the entire
//!    sweep through the shared [`ArtifactStore`], exactly as in a
//!    campaign.
//! 2. Each rung's prefill reads the store's point memo, keyed by every
//!    input of a point (budget included): a configuration promoted from
//!    rung *N* to rung *N+1* never resimulates a point it already ran at
//!    the same budget — only the *new* points of the larger budget cost.
//!
//! Determinism contract: [`SweepReport::render_deterministic`] and
//! [`SweepReport::render_frontier`] are byte-identical across `jobs`
//! settings and across a kill + [`SweepOptions::resume`] — the journal
//! replays finished points at (rung, config, point) granularity, and
//! rung elimination is a pure function of the (deterministic) point
//! outcomes. Resume-variant accounting (fresh/reused splits, wall
//! clock) lives only in [`SweepReport::stage_summary`].

use crate::artifacts::{ArtifactStore, CacheStats, PlannedPoint};
use crate::flow::{weighted_estimate, FlowConfig, PointOutcome};
use crate::journal::{sweep_fingerprint, CampaignJournal, JournalError};
use crate::report::render_table;
use crate::scheduler::{kill_switch, run_pool, PointRun};
use crate::supervisor::{fb, render_cells, CellResult};
use boom_uarch::{BoomConfig, ConfigError, MemBackendKind};
use rv_isa::codec::Codec;
use rv_workloads::Workload;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Declares [`SweepKnob`] from one entry per knob: its variant and doc,
/// CLI spelling, name code and [`BoomConfig`] field.
macro_rules! sweep_knobs {
    ($($(#[doc = $doc:literal])* $knob:ident = $key:literal, $code:literal, $($field:ident).+;)*) => {
        /// A sweepable microarchitectural knob — the Table-I axes of the
        /// paper's design space. Each knob knows its CLI spelling, the short
        /// code used in generated configuration names, and how to read/write
        /// its [`BoomConfig`] field.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        pub enum SweepKnob {
            $($(#[doc = $doc])* $knob,)*
        }

        impl SweepKnob {
            /// Every sweepable knob, in canonical (name-generation) order.
            pub const ALL: [SweepKnob; 20] = [$(SweepKnob::$knob),*];

            /// The CLI spelling (`--grid <key>=v1,v2,...`).
            pub fn key(self) -> &'static str {
                match self {
                    $(SweepKnob::$knob => $key,)*
                }
            }

            /// The short code used in generated configuration names
            /// (`sw-f4-d2-rob64-dcw8`).
            pub fn code(self) -> &'static str {
                match self {
                    $(SweepKnob::$knob => $code,)*
                }
            }

            /// Writes raw value `v` into the knob's field (clamping and
            /// consistency repair happen later, in one pass over the whole
            /// configuration).
            pub fn apply(self, cfg: &mut BoomConfig, v: u64) {
                match self {
                    $(SweepKnob::$knob => cfg.$($field).+ = v as _,)*
                }
            }

            /// Reads the knob's current (post-clamp) value.
            pub fn get(self, cfg: &BoomConfig) -> u64 {
                match self {
                    $(SweepKnob::$knob => cfg.$($field).+ as u64,)*
                }
            }
        }
    };
}

sweep_knobs! {
    /// Fetch width (instructions per cycle from the i-cache).
    FetchWidth = "fetch-width", "f", fetch_width;
    /// Decode/rename/dispatch width.
    DecodeWidth = "decode-width", "d", decode_width;
    /// Integer-ALU issue width.
    IntIssueWidth = "int-issue-width", "xi", int_issue_width;
    /// Load/store issue width.
    MemIssueWidth = "mem-issue-width", "xm", mem_issue_width;
    /// Floating-point issue width.
    FpIssueWidth = "fp-issue-width", "xf", fp_issue_width;
    /// Re-order buffer entries.
    Rob = "rob", "rob", rob_entries;
    /// Integer physical register file size.
    IntRegs = "int-regs", "pi", int_phys_regs;
    /// Floating-point physical register file size.
    FpRegs = "fp-regs", "pf", fp_phys_regs;
    /// Integer issue-queue slots.
    IntIq = "int-iq", "qi", int_issue_slots;
    /// Load/store issue-queue slots.
    MemIq = "mem-iq", "qm", mem_issue_slots;
    /// Floating-point issue-queue slots.
    FpIq = "fp-iq", "qf", fp_issue_slots;
    /// Load-queue entries.
    Ldq = "ldq", "ldq", ldq_entries;
    /// Store-queue entries.
    Stq = "stq", "stq", stq_entries;
    /// I-cache associativity.
    IcacheWays = "icache-ways", "icw", icache.ways;
    /// D-cache associativity.
    DcacheWays = "dcache-ways", "dcw", dcache.ways;
    /// I-cache MSHRs (outstanding misses).
    IcacheMshrs = "icache-mshrs", "icm", icache.mshrs;
    /// D-cache MSHRs (outstanding misses).
    DcacheMshrs = "dcache-mshrs", "dcm", dcache.mshrs;
    /// BTB sets (rounded up to a power of two).
    BtbSets = "btb-sets", "btb", btb_sets;
    /// Return-address-stack entries.
    RasEntries = "ras", "ras", ras_entries;
    /// Branch-predictor table size shift (log2 scaling of the tables).
    BpShift = "bp-shift", "bp", bp_table_shift;
}

impl SweepKnob {
    /// Parses a CLI spelling back into the knob.
    pub fn parse(name: &str) -> Option<SweepKnob> {
        SweepKnob::ALL.into_iter().find(|k| k.key() == name)
    }
}

/// A declarative sweep specification: a base configuration, the axes to
/// vary, and an optional random-sampling mode.
#[derive(Clone, Debug)]
pub struct SweepSpec {
    /// The configuration every grid point starts from.
    pub base: BoomConfig,
    /// The axes, in name-generation order: each knob with its candidate
    /// values.
    pub axes: Vec<(SweepKnob, Vec<u64>)>,
    /// `Some((n, seed))` draws `n` random points (one value per axis,
    /// seeded splitmix64) instead of the full cross product.
    pub random: Option<(usize, u64)>,
}

impl SweepSpec {
    /// A named reference grid.
    ///
    /// * `ref64` — 64 unique configurations over fetch width, decode
    ///   width, ROB size, and D-cache associativity (the benchmarked
    ///   reference grid).
    /// * `smoke16` — a 16-configuration subset for smoke tests and CI.
    pub fn preset(name: &str) -> Option<SweepSpec> {
        let axes = match name {
            "ref64" => vec![
                (SweepKnob::FetchWidth, vec![4, 8]),
                (SweepKnob::DecodeWidth, vec![2, 4]),
                (SweepKnob::Rob, vec![32, 64, 96, 128]),
                (SweepKnob::DcacheWays, vec![1, 2, 4, 8]),
            ],
            "smoke16" => vec![
                (SweepKnob::FetchWidth, vec![4, 8]),
                (SweepKnob::DecodeWidth, vec![2, 4]),
                (SweepKnob::Rob, vec![64, 128]),
                (SweepKnob::DcacheWays, vec![4, 8]),
            ],
            _ => return None,
        };
        Some(SweepSpec { base: BoomConfig::medium(), axes, random: None })
    }

    /// Enumerates the specification into validated configurations.
    ///
    /// Grid mode walks the full cross product of the axes; random mode
    /// draws [`SweepSpec::random`] points with one seeded-splitmix64
    /// value choice per axis. Every point is clamped into a consistent
    /// configuration ([`finalize_config`]), named from its *post-clamp*
    /// axis values (so clamp-collided grid points get identical names and
    /// identical fingerprints, which [`admit`] folds), and validated
    /// through the standard [`BoomConfig::validate`] path.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Zero`] when the spec has no axes or an axis has no
    /// values; any [`ConfigError`] a generated point fails validation
    /// with.
    pub fn generate(&self) -> Result<Vec<BoomConfig>, ConfigError> {
        if self.axes.is_empty() {
            return Err(ConfigError::Zero { what: "sweep axes".to_string() });
        }
        for (knob, values) in &self.axes {
            if values.is_empty() {
                return Err(ConfigError::Zero {
                    what: format!("sweep axis {} values", knob.key()),
                });
            }
        }
        let assignments: Vec<Vec<u64>> = match self.random {
            Some((n, seed)) => {
                let mut state = seed;
                (0..n)
                    .map(|_| {
                        self.axes
                            .iter()
                            .map(|(_, values)| {
                                values[(splitmix64(&mut state) % values.len() as u64) as usize]
                            })
                            .collect()
                    })
                    .collect()
            }
            None => {
                let total: usize = self.axes.iter().map(|(_, v)| v.len()).product();
                let mut out = Vec::with_capacity(total);
                let mut odometer = vec![0usize; self.axes.len()];
                loop {
                    out.push(
                        self.axes
                            .iter()
                            .zip(&odometer)
                            .map(|((_, values), &i)| values[i])
                            .collect(),
                    );
                    // Advance the odometer, most-significant axis first.
                    let mut axis = self.axes.len();
                    loop {
                        if axis == 0 {
                            break;
                        }
                        axis -= 1;
                        odometer[axis] += 1;
                        if odometer[axis] < self.axes[axis].1.len() {
                            break;
                        }
                        odometer[axis] = 0;
                    }
                    if odometer.iter().all(|&i| i == 0) {
                        break;
                    }
                }
                out
            }
        };

        let mut cfgs = Vec::with_capacity(assignments.len());
        for values in assignments {
            let mut cfg = self.base.clone();
            for ((knob, _), &v) in self.axes.iter().zip(&values) {
                knob.apply(&mut cfg, v);
            }
            finalize_config(&mut cfg);
            let mut name = String::from("sw");
            for (knob, _) in &self.axes {
                name.push('-');
                name.push_str(knob.code());
                name.push_str(&knob.get(&cfg).to_string());
            }
            cfg.name = name;
            cfg.validate()?;
            cfgs.push(cfg);
        }
        Ok(cfgs)
    }
}

/// Clamps a raw grid point into a self-consistent configuration and
/// re-derives the dependent resources ([`BoomConfig::derive_ports`]).
///
/// The repairs mirror the constraints the hand-written presets satisfy:
/// decode never exceeds fetch, issue widths never exceed decode, issue
/// queues hold at least two instructions per issue slot, the ROB is a
/// multiple of the decode width, the physical register files cover the
/// architectural registers plus rename headroom, and power-of-two /
/// nonzero structural floors hold.
pub fn finalize_config(cfg: &mut BoomConfig) {
    cfg.fetch_width = cfg.fetch_width.max(1);
    cfg.decode_width = cfg.decode_width.clamp(1, cfg.fetch_width);
    cfg.int_issue_width = cfg.int_issue_width.clamp(1, cfg.decode_width);
    cfg.mem_issue_width = cfg.mem_issue_width.clamp(1, cfg.decode_width);
    cfg.fp_issue_width = cfg.fp_issue_width.clamp(1, cfg.decode_width);
    cfg.int_issue_slots = cfg.int_issue_slots.max(2 * cfg.int_issue_width);
    cfg.mem_issue_slots = cfg.mem_issue_slots.max(2 * cfg.mem_issue_width);
    cfg.fp_issue_slots = cfg.fp_issue_slots.max(2 * cfg.fp_issue_width);
    cfg.rob_entries =
        cfg.rob_entries.max(cfg.decode_width).div_ceil(cfg.decode_width) * cfg.decode_width;
    cfg.int_phys_regs = cfg.int_phys_regs.max(32 + 4 * cfg.decode_width).max(48);
    cfg.fp_phys_regs = cfg.fp_phys_regs.max(32 + 4 * cfg.decode_width).max(48);
    cfg.ldq_entries = cfg.ldq_entries.max(2);
    cfg.stq_entries = cfg.stq_entries.max(2);
    cfg.icache.ways = cfg.icache.ways.max(1);
    cfg.dcache.ways = cfg.dcache.ways.max(1);
    cfg.icache.mshrs = cfg.icache.mshrs.max(1);
    cfg.dcache.mshrs = cfg.dcache.mshrs.max(1);
    cfg.btb_sets = cfg.btb_sets.max(1).next_power_of_two();
    cfg.ras_entries = cfg.ras_entries.max(1);
    cfg.bp_table_shift = cfg.bp_table_shift.min(4);
    cfg.derive_ports();
}

/// Deduplicates configurations by fingerprint, preserving
/// first-occurrence order. Returns the admitted list and how many
/// duplicates were folded away — clamping can collide distinct grid
/// points onto the same final configuration, and simulating the
/// collision twice would waste the whole rung-0 budget advantage.
pub fn admit(cfgs: Vec<BoomConfig>) -> (Vec<BoomConfig>, usize) {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::with_capacity(cfgs.len());
    let mut folded = 0usize;
    for cfg in cfgs {
        if seen.insert(cfg.content_key()) {
            out.push(cfg);
        } else {
            folded += 1;
        }
    }
    (out, folded)
}

/// The parts of a sweep the wire [`SweepRequest`](crate::SweepRequest)
/// cannot carry yet: the solo CLI's `--grid` axes, `--random`/`--seed`
/// sampling and its explicit `--idle-skip`/`--no-idle-skip`. The default
/// adds nothing, which is what a served sweep gets.
#[derive(Clone, Debug, Default)]
pub struct SweepExtras {
    /// Axes appended after the preset's, in flag order.
    pub axes: Vec<(SweepKnob, Vec<u64>)>,
    /// Draw this many random points instead of the full cross product.
    pub random: Option<usize>,
    /// Seed of the random draw.
    pub seed: u64,
    /// Explicit idle-cycle skipping; `None` arms it when every
    /// configuration allows it ([`all_fixed_latency`]).
    pub idle_skip: Option<bool>,
}

/// Whether every configuration uses the flat fixed-latency memory
/// backend — the precondition for auto-arming event-driven idle-cycle
/// skipping across a sweep.
pub fn all_fixed_latency(cfgs: &[BoomConfig]) -> bool {
    cfgs.iter().all(|c| matches!(c.mem_backend, MemBackendKind::FixedLatency))
}

/// One rung's simulation budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RungSpec {
    /// SimPoints simulated per (configuration, workload) — capped by the
    /// workload's actual selected-point count.
    pub points: usize,
    /// Right-shift applied to each point's measured interval length and
    /// warm-up (0 = full length). The interval never truncates below
    /// 100 instructions (or its own full length, whichever is smaller).
    pub shift: u32,
}

/// Builds the successive-halving rung schedule for a sweep whose largest
/// workload selected `max_points` SimPoints.
///
/// `exhaustive` collapses the schedule to a single full-budget rung with
/// no elimination — the baseline the adaptive sweep is compared against.
/// Otherwise the schedule is: one truncated prefilter rung at
/// (`rung0_points`, `rung0_shift`), then full-length rungs doubling the
/// point budget from `rung0_points`, always ending at
/// (`max_points`, shift 0); consecutive duplicates are folded. `cap`
/// keeps the first `cap − 1` rungs plus the final full rung.
pub fn rung_schedule(
    max_points: usize,
    rung0_points: usize,
    rung0_shift: u32,
    cap: Option<usize>,
    exhaustive: bool,
) -> Vec<RungSpec> {
    let max_points = max_points.max(1);
    if exhaustive {
        return vec![RungSpec { points: max_points, shift: 0 }];
    }
    let r0 = rung0_points.clamp(1, max_points);
    let mut rungs = vec![RungSpec { points: r0, shift: rung0_shift }];
    let mut p = r0;
    while p < max_points {
        rungs.push(RungSpec { points: p, shift: 0 });
        p *= 2;
    }
    rungs.push(RungSpec { points: max_points, shift: 0 });
    rungs.dedup();
    if let Some(cap) = cap {
        let cap = cap.max(1);
        if rungs.len() > cap {
            let last = rungs[rungs.len() - 1];
            rungs.truncate(cap - 1);
            rungs.push(last);
        }
    }
    rungs
}

/// Sweep execution parameters.
#[derive(Clone, Debug)]
pub struct SweepOptions {
    /// Workers of the sweep's private [`WorkPool`](crate::WorkPool)
    /// (1 = strictly sequential), which bounds every simulation thread
    /// of the sweep. Ignored when [`SweepOptions::pool`] supplies a
    /// shared pool.
    pub jobs: usize,
    /// Maximum configurations per batched point lane group, chunked by
    /// the campaign's rule
    /// ([`CampaignOptions::batch_lanes`](crate::CampaignOptions::batch_lanes)).
    pub batch_lanes: usize,
    /// The ε-band of the elimination rule: configuration *c* is
    /// eliminated from a rung when, on every workload where it has an
    /// estimate, some other configuration is better than *c* by more
    /// than a factor of (1 + ε) in **both** CPI and tile milliwatts.
    pub epsilon: f64,
    /// Per-rung multiplicative decay of the ε band: rung *r* eliminates
    /// with `epsilon · epsilon_decay^r`. Early rungs judge from
    /// truncated, high-variance estimates and need a wide band; later
    /// rungs aggregate more full-length points, so the band can tighten
    /// without risking a frontier configuration. `1.0` keeps the band
    /// constant.
    pub epsilon_decay: f64,
    /// Point budget of the truncated prefilter rung.
    pub rung0_points: usize,
    /// Interval/warm-up right-shift of the prefilter rung.
    pub rung0_shift: u32,
    /// Cap on the rung count (first `n − 1` rungs plus the final full
    /// rung); `None` keeps the natural doubling schedule.
    pub max_rungs: Option<usize>,
    /// Run a single full-budget rung with no elimination (the exhaustive
    /// baseline).
    pub exhaustive: bool,
    /// Journal file recording every completed point for crash-safe
    /// resume; `None` disables journaling.
    pub journal_path: Option<PathBuf>,
    /// Resume the journal at [`SweepOptions::journal_path`] instead of
    /// creating a fresh one ([`CampaignJournal::open`]; a missing journal
    /// resumes as a fresh one).
    pub resume: bool,
    /// Externally owned worker pool (the campaign service's shared,
    /// request-fair pool); `None` creates a private pool of
    /// [`SweepOptions::jobs`] workers for the sweep. See
    /// [`CampaignOptions::pool`](crate::CampaignOptions::pool).
    pub pool: Option<Arc<crate::pool::WorkPool>>,
}

impl Default for SweepOptions {
    fn default() -> SweepOptions {
        SweepOptions {
            jobs: 1,
            batch_lanes: 4,
            epsilon: 0.05,
            epsilon_decay: 0.5,
            rung0_points: 1,
            rung0_shift: 3,
            max_rungs: None,
            exhaustive: false,
            journal_path: None,
            resume: false,
            pool: None,
        }
    }
}

/// Per-rung accounting in a [`SweepReport`].
#[derive(Clone, Copy, Debug)]
pub struct RungSummary {
    /// The rung's point budget.
    pub points: usize,
    /// The rung's interval/warm-up truncation shift.
    pub shift: u32,
    /// Configurations that entered the rung.
    pub entered: usize,
    /// Configurations promoted to the next rung (equals `entered` on the
    /// final rung, which never eliminates).
    pub promoted: usize,
    /// Configurations eliminated by the ε-band Pareto rule.
    pub eliminated: usize,
    /// Points simulated fresh in this rung (resume-variant).
    pub fresh_points: u64,
    /// Point lookups served from the memo — lower-rung reuse plus
    /// journal replay (resume-variant).
    pub reused_points: u64,
    /// Fresh points that ran as lanes of a shared-predecode batch
    /// (resume-variant).
    pub batched_points: u64,
    /// Detailed-sim cycles spent on this rung's fresh points
    /// (resume-variant).
    pub detailed_cycles: u64,
}

/// One point of a per-workload perf-per-watt Pareto frontier.
#[derive(Clone, Debug)]
pub struct FrontierPoint {
    /// Workload name.
    pub workload: &'static str,
    /// Configuration name.
    pub config: String,
    /// Cycles per instruction (lower is better).
    pub cpi: f64,
    /// Tile power in milliwatts (lower is better).
    pub mw: f64,
}

/// Resume-variant sweep accounting (the analogue of `CampaignStats`).
#[derive(Clone, Debug)]
pub struct SweepStats {
    /// Worker threads used.
    pub jobs: usize,
    /// Wall-clock of the whole sweep, in milliseconds.
    pub wall_ms: u128,
    /// Artifact-store counters at sweep end (includes the point memo).
    pub cache: CacheStats,
    /// Points prefilled from the resume journal.
    pub replayed_points: u64,
    /// Fresh points that ran as lanes of a shared-predecode batch.
    pub batched_points: u64,
    /// Idle cycles fast-forwarded by event-driven skipping across all
    /// fresh points.
    pub idle_cycles_skipped: u64,
    /// Total detailed-sim cycles across all fresh points — the sweep's
    /// cost metric (what successive halving reduces versus exhaustive).
    pub detailed_cycles: u64,
}

/// Everything a sweep produced: the admitted design space, the rung
/// history, the surviving cells' full results, and the per-workload
/// Pareto frontiers.
#[derive(Debug)]
pub struct SweepReport {
    /// Admitted configurations: (name, fingerprint), in admission order.
    pub configs: Vec<(String, u64)>,
    /// Duplicate configurations folded away at admission.
    pub folded: usize,
    /// Workload names, in sweep order.
    pub workloads: Vec<&'static str>,
    /// Per-rung budget and elimination accounting.
    pub rungs: Vec<RungSummary>,
    /// Full results of every configuration that survived to the final
    /// rung, configuration-major like a campaign report.
    pub cells: Vec<CellResult>,
    /// The per-workload (CPI, mW) Pareto frontiers over the surviving
    /// cells, each sorted by (mW, CPI, name).
    pub frontier: Vec<FrontierPoint>,
    /// Resume-variant accounting.
    pub stats: SweepStats,
}

impl SweepReport {
    /// Whether every surviving cell produced a result.
    pub fn all_ok(&self) -> bool {
        self.cells.iter().all(|c| c.outcome.is_ok())
    }

    /// The deterministic sweep report: admitted configurations, rung
    /// budgets and elimination counts, every surviving cell's full
    /// result (floats with exact bit patterns), and the Pareto
    /// frontiers. Byte-identical across `jobs` settings and across
    /// kill + resume.
    pub fn render_deterministic(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("sweep configs {} folded {}\n", self.configs.len(), self.folded));
        for (name, fp) in &self.configs {
            out.push_str(&format!("config {name} {fp:016x}\n"));
        }
        out.push_str(&format!("rungs {}\n", self.rungs.len()));
        for (i, r) in self.rungs.iter().enumerate() {
            out.push_str(&format!(
                "rung {i} points {} shift {} entered {} promoted {} eliminated {}\n",
                r.points, r.shift, r.entered, r.promoted, r.eliminated
            ));
        }
        render_cells(&mut out, &self.cells);
        out.push_str(&self.render_frontier());
        out
    }

    /// Just the Pareto-frontier section — the byte string the adaptive
    /// sweep must reproduce exactly from the exhaustive baseline.
    pub fn render_frontier(&self) -> String {
        let mut out = String::new();
        for &w in &self.workloads {
            let pts: Vec<&FrontierPoint> =
                self.frontier.iter().filter(|p| p.workload == w).collect();
            out.push_str(&format!("frontier {w} {}\n", pts.len()));
            for p in pts {
                out.push_str(&format!("  {} cpi {} mw {}\n", p.config, fb(p.cpi), fb(p.mw)));
            }
        }
        out
    }

    /// Human-readable stage summary: per-rung budget/elimination/reuse
    /// table plus store and journal counters. Resume-variant — for
    /// operators, never for byte comparison.
    pub fn stage_summary(&self) -> String {
        let header: Vec<String> = [
            "Rung",
            "Points",
            "Shift",
            "Entered",
            "Promoted",
            "Eliminated",
            "Fresh",
            "Reused",
            "Batched",
            "Kcycles",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let rows: Vec<Vec<String>> = self
            .rungs
            .iter()
            .enumerate()
            .map(|(i, r)| {
                vec![
                    i.to_string(),
                    r.points.to_string(),
                    r.shift.to_string(),
                    r.entered.to_string(),
                    r.promoted.to_string(),
                    r.eliminated.to_string(),
                    r.fresh_points.to_string(),
                    r.reused_points.to_string(),
                    r.batched_points.to_string(),
                    (r.detailed_cycles / 1000).to_string(),
                ]
            })
            .collect();
        let mut out = render_table(&header, &rows);
        let s = &self.stats;
        out.push_str(&format!(
            "Point memo: {} hit(s), {} stored\n",
            s.cache.sweep_point_hits, s.cache.sweep_point_stored
        ));
        out.push_str(&format!("Detailed cycles (fresh): {}\n", s.detailed_cycles));
        if s.replayed_points > 0 {
            out.push_str(&format!("Journal: {} point(s) replayed\n", s.replayed_points));
        }
        if s.batched_points > 0 {
            out.push_str(&format!(
                "Batched lanes: {} point(s) shared a predecode\n",
                s.batched_points
            ));
        }
        if s.idle_cycles_skipped > 0 {
            out.push_str(&format!(
                "Idle skip: {} cycle(s) fast-forwarded\n",
                s.idle_cycles_skipped
            ));
        }
        out.push_str(&format!("Sweep wall: {} ms on {} job(s)\n", s.wall_ms, s.jobs));
        out
    }
}

/// A planned point with its measured interval truncated by `shift` (the
/// rung budget). Shift 0 is the identity; the interval never truncates
/// below 100 instructions (or its full length). The warm-up is
/// deliberately *not* truncated: warm-up exists to remove cold-start
/// bias, and shortening it would make early-rung rankings lie about
/// exactly the structures (caches, predictors) the sweep varies.
pub(crate) fn truncated(p: &PlannedPoint, shift: u32) -> PlannedPoint {
    let mut t = p.clone();
    if shift > 0 {
        t.interval_len = (p.interval_len >> shift).max(p.interval_len.min(100));
    }
    t
}

/// Splitmix64 — the deterministic stream behind random sampling (the
/// container has no `rand`; this is the standard 3-round mixer).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Strict-domination Pareto filter over (name, CPI, mW) candidates:
/// keeps every point no other point beats in one metric without losing
/// the other, sorted by (mW, CPI, name) for deterministic rendering.
fn pareto_filter(pts: &[(String, f64, f64)]) -> Vec<(String, f64, f64)> {
    let mut nd: Vec<(String, f64, f64)> = pts
        .iter()
        .filter(|a| !pts.iter().any(|b| (b.1 < a.1 && b.2 <= a.2) || (b.1 <= a.1 && b.2 < a.2)))
        .cloned()
        .collect();
    nd.sort_by(|a, b| a.2.total_cmp(&b.2).then(a.1.total_cmp(&b.1)).then(a.0.cmp(&b.0)));
    nd
}

/// Runs the adaptive successive-halving sweep.
///
/// `cfgs` is the raw generated design space — [`admit`] folds duplicate
/// fingerprints internally, so callers pass the grid as generated. The
/// front half of the flow is prepared once per workload through `store`;
/// every completed point is memoized there and (when
/// [`SweepOptions::journal_path`] is set) journaled for crash-safe
/// resume. See the module docs for the determinism contract.
///
/// # Errors
///
/// Journal I/O and validation errors ([`JournalError`]); per-point and
/// per-cell failures are *contained* (quarantine / failed cells in the
/// report), never returned.
pub fn run_sweep(
    cfgs: &[BoomConfig],
    workloads: &[Workload],
    flow: &FlowConfig,
    store: &ArtifactStore,
    opts: &SweepOptions,
) -> Result<SweepReport, JournalError> {
    let t0 = Instant::now();
    let jobs = opts.jobs.max(1);
    let (cfgs, folded) = admit(cfgs.to_vec());
    let w = workloads.len();

    // Phase 1 — per-workload artifact preparation, shared by every rung
    // through the store.
    let pool = run_pool(opts.pool.as_ref(), jobs);
    let run = PointRun::prepare(pool, store, flow, workloads, &cfgs, opts.batch_lanes);

    // The rung schedule depends on the largest selected-point count,
    // which the (deterministic, disk-cacheable) prep phase just fixed.
    let max_points = run.n_points(usize::MAX).into_iter().max().unwrap_or(0).max(1);
    let rungs_spec = rung_schedule(
        max_points,
        opts.rung0_points,
        opts.rung0_shift,
        opts.max_rungs,
        opts.exhaustive,
    );

    // Journal: the fingerprint covers the admitted configs, workloads,
    // flow, rung schedule, and ε — everything that determines record
    // indices and outcomes. Replayed records prefill the point memo, so
    // the rungs below treat them exactly like lower-rung reuse.
    let rung_pairs: Vec<(usize, u32)> = rungs_spec.iter().map(|r| (r.points, r.shift)).collect();
    let sweep_fp =
        sweep_fingerprint(&cfgs, workloads, flow, &rung_pairs, opts.epsilon, opts.epsilon_decay);
    let mut replayed: u64 = 0;
    let journal: Option<CampaignJournal> = match &opts.journal_path {
        None => None,
        Some(path) => {
            let (j, replay) = CampaignJournal::open(path, sweep_fp, opts.resume)?;
            for (&(cell, shift, p_idx), outcome) in &replay.outcomes {
                if cell < cfgs.len() * w {
                    store.record_point(run.key(cell / w, cell % w, shift, p_idx), outcome);
                    replayed += 1;
                }
            }
            Some(j)
        }
    };

    let charge_and_maybe_kill = kill_switch(flow);

    // Phase 2 — the rungs: point passes over the survivors, memo-prefilled.
    let mut alive: Vec<usize> = (0..cfgs.len()).collect();
    let mut final_slots = Vec::new();
    let mut rung_summaries: Vec<RungSummary> = Vec::new();
    let mut idle_cycles_skipped = 0u64;
    let n_rungs = rungs_spec.len();
    for (r_idx, &rung) in rungs_spec.iter().enumerate() {
        let entered = alive.len();
        let pass = run.pass(
            &alive,
            rung,
            |cfg_idx, w_idx, p_idx| store.cached_point(&run.key(cfg_idx, w_idx, rung.shift, p_idx)),
            |cfg_idx, w_idx, p_idx, outcome| {
                if let Some(j) = &journal {
                    j.append_point(cfg_idx * w + w_idx, rung.shift, p_idx, outcome);
                }
                charge_and_maybe_kill(1);
            },
        );
        idle_cycles_skipped += pass.idle_skipped;

        // Elimination: ε-band Pareto retention on the rung's estimates.
        // The final rung never eliminates — its entrants are the report.
        let last = r_idx + 1 == n_rungs;
        let (promoted, eliminated) = if last {
            (entered, 0)
        } else {
            let ests: Vec<Vec<Option<(f64, f64)>>> = pass
                .slots
                .chunks(w.max(1))
                .map(|lane| {
                    lane.iter()
                        .map(|cell| {
                            let refs: Vec<&PointOutcome> =
                                cell.iter().filter_map(OnceLock::get).collect();
                            weighted_estimate(&refs)
                        })
                        .collect()
                })
                .collect();
            let eps = (opts.epsilon * opts.epsilon_decay.max(0.0).powi(r_idx as i32)).max(0.0);
            // b ε-dominates a when it beats a by more than the ε band in
            // both metrics — or, on a bit-exact tie in one metric (the
            // common case for knobs the workload does not exercise, e.g.
            // a larger ROB that never fills), beats it by the band in
            // the other. Ties within the band in both metrics survive:
            // the exhaustive frontier keeps near-ties too, and the band
            // is what absorbs the truncated-budget estimate bias.
            let eps_dominates = |(bc, bm): (f64, f64), (cpi, mw): (f64, f64)| -> bool {
                let better_cpi = bc * (1.0 + eps) < cpi;
                let better_mw = bm * (1.0 + eps) < mw;
                ((bc == cpi || better_cpi) && better_mw) || (bm == mw && better_cpi)
            };
            let survives = |a_pos: usize| -> bool {
                (0..w).any(|w_idx| {
                    let Some(a) = ests[a_pos][w_idx] else {
                        return false;
                    };
                    !(0..alive.len()).any(|b| {
                        b != a_pos && ests[b][w_idx].is_some_and(|be| eps_dominates(be, a))
                    })
                })
            };
            let mut survivors: Vec<usize> = (0..alive.len()).filter(|&a| survives(a)).collect();
            if survivors.is_empty() {
                // Degenerate rung (every estimate missing, e.g. all prep
                // failed): promote everyone and let the final assembly
                // report the failures honestly.
                survivors = (0..alive.len()).collect();
            }
            let promoted = survivors.len();
            alive = survivors.into_iter().map(|a| alive[a]).collect();
            (promoted, entered - promoted)
        };
        rung_summaries.push(RungSummary {
            points: rung.points,
            shift: rung.shift,
            entered,
            promoted,
            eliminated,
            fresh_points: pass.fresh,
            reused_points: pass.reused,
            batched_points: pass.batched,
            detailed_cycles: pass.cycles,
        });
        if last {
            final_slots = pass.slots;
        }
    }

    // Phase 3 — the survivors' results from the final rung, which always
    // covers every selected point at shift 0, and the Pareto frontiers.
    let cells = run.assemble(&alive, final_slots);

    let mut frontier: Vec<FrontierPoint> = Vec::new();
    for workload in workloads {
        let candidates: Vec<(String, f64, f64)> = cells
            .iter()
            .filter(|c| c.workload == workload.name)
            .filter_map(|c| {
                let r = c.outcome.as_ref().ok()?;
                let cpi = 1.0 / r.ipc;
                cpi.is_finite().then(|| (c.config.clone(), cpi, r.tile_power_mw()))
            })
            .collect();
        for (config, cpi, mw) in pareto_filter(&candidates) {
            frontier.push(FrontierPoint { workload: workload.name, config, cpi, mw });
        }
    }

    let stats = SweepStats {
        jobs,
        wall_ms: t0.elapsed().as_millis(),
        cache: store.stats(),
        replayed_points: replayed,
        batched_points: rung_summaries.iter().map(|r| r.batched_points).sum(),
        idle_cycles_skipped,
        detailed_cycles: rung_summaries.iter().map(|r| r.detailed_cycles).sum(),
    };
    Ok(SweepReport {
        configs: cfgs.iter().zip(&run.fps).map(|(c, &fp)| (c.name.clone(), fp)).collect(),
        folded,
        workloads: workloads.iter().map(|wl| wl.name).collect(),
        rungs: rung_summaries,
        cells,
        frontier,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(axes: Vec<(SweepKnob, Vec<u64>)>) -> SweepSpec {
        SweepSpec { base: BoomConfig::medium(), axes, random: None }
    }

    #[test]
    fn knob_keys_round_trip() {
        for k in SweepKnob::ALL {
            assert_eq!(SweepKnob::parse(k.key()), Some(k), "{}", k.key());
        }
        assert_eq!(SweepKnob::parse("no-such-knob"), None);
    }

    #[test]
    fn grid_cross_product_and_names() {
        let cfgs = spec(vec![(SweepKnob::FetchWidth, vec![4, 8]), (SweepKnob::Rob, vec![32, 64])])
            .generate()
            .expect("generate");
        assert_eq!(cfgs.len(), 4);
        let names: Vec<&str> = cfgs.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["sw-f4-rob32", "sw-f4-rob64", "sw-f8-rob32", "sw-f8-rob64"]);
        for cfg in &cfgs {
            cfg.validate().expect("valid");
        }
    }

    #[test]
    fn clamps_repair_inconsistent_points() {
        let cfgs = spec(vec![
            (SweepKnob::FetchWidth, vec![2]),
            (SweepKnob::DecodeWidth, vec![8]),
            (SweepKnob::Rob, vec![33]),
        ])
        .generate()
        .expect("generate");
        let cfg = &cfgs[0];
        // Decode clamps to fetch; the ROB rounds up to a decode multiple.
        assert_eq!(cfg.decode_width, 2);
        assert_eq!(cfg.rob_entries, 34);
        assert_eq!(cfg.name, "sw-f2-d2-rob34");
        // Derived resources follow the clamped widths.
        assert_eq!(cfg.fetch_buffer_entries, 4 * cfg.fetch_width);
        cfg.validate().expect("valid");
    }

    #[test]
    fn admit_folds_clamp_collisions() {
        // Decode 4 and 8 both clamp to fetch width 2 → identical configs.
        let cfgs =
            spec(vec![(SweepKnob::FetchWidth, vec![2]), (SweepKnob::DecodeWidth, vec![4, 8])])
                .generate()
                .expect("generate");
        assert_eq!(cfgs.len(), 2);
        assert_eq!(cfgs[0].name, cfgs[1].name);
        let (admitted, folded) = admit(cfgs);
        assert_eq!(admitted.len(), 1);
        assert_eq!(folded, 1);
    }

    #[test]
    fn admit_folds_configurations_that_differ_only_in_name() {
        let mut copy = BoomConfig::medium();
        copy.name = "MediumCopy".to_string();
        let (admitted, folded) = admit(vec![BoomConfig::medium(), copy, BoomConfig::large()]);
        let names: Vec<&str> = admitted.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["MediumBOOM", "LargeBOOM"], "the first name is kept");
        assert_eq!(folded, 1);
    }

    #[test]
    fn random_sampling_is_seeded_and_in_range() {
        let s = SweepSpec {
            base: BoomConfig::medium(),
            axes: vec![(SweepKnob::Rob, vec![32, 64, 96]), (SweepKnob::DcacheWays, vec![2, 4])],
            random: Some((8, 7)),
        };
        let a = s.generate().expect("generate");
        let b = s.generate().expect("generate");
        assert_eq!(a.len(), 8);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name, "same seed, same draws");
            assert!([32, 64, 96].contains(&x.rob_entries));
            assert!([2, 4].contains(&x.dcache.ways));
        }
    }

    #[test]
    fn empty_axes_are_rejected() {
        assert!(matches!(spec(vec![]).generate(), Err(ConfigError::Zero { .. })));
        assert!(matches!(
            spec(vec![(SweepKnob::Rob, vec![])]).generate(),
            Err(ConfigError::Zero { .. })
        ));
    }

    #[test]
    fn presets_have_expected_sizes() {
        let ref64 = SweepSpec::preset("ref64").expect("ref64").generate().expect("generate");
        let (admitted, folded) = admit(ref64);
        assert_eq!((admitted.len(), folded), (64, 0));
        let smoke = SweepSpec::preset("smoke16").expect("smoke16").generate().expect("generate");
        let (admitted, folded) = admit(smoke);
        assert_eq!((admitted.len(), folded), (16, 0));
        assert!(SweepSpec::preset("nope").is_none());
    }

    #[test]
    fn schedule_shapes() {
        let pairs =
            |v: Vec<RungSpec>| v.into_iter().map(|r| (r.points, r.shift)).collect::<Vec<_>>();
        assert_eq!(
            pairs(rung_schedule(6, 1, 3, None, false)),
            [(1, 3), (1, 0), (2, 0), (4, 0), (6, 0)]
        );
        assert_eq!(pairs(rung_schedule(6, 1, 3, None, true)), [(6, 0)]);
        assert_eq!(pairs(rung_schedule(6, 1, 3, Some(3), false)), [(1, 3), (1, 0), (6, 0)]);
        // rung0 at shift 0 dedups against the first doubling rung.
        assert_eq!(pairs(rung_schedule(4, 2, 0, None, false)), [(2, 0), (4, 0)]);
        // A single-point workload collapses to one truncated prefilter
        // plus the full rung.
        assert_eq!(pairs(rung_schedule(1, 1, 3, None, false)), [(1, 3), (1, 0)]);
    }

    #[test]
    fn truncation_floors_hold() {
        let ckpt = Arc::new(rv_isa::checkpoint::Checkpoint {
            pc: 0,
            x: [0; 32],
            f: [0; 32],
            mem: rv_isa::mem::Memory::new(),
            instret: 0,
            image: None,
        });
        let p = PlannedPoint {
            sel_idx: 0,
            interval: 0,
            weight: 1.0,
            interval_len: 2000,
            warmup: 1000,
            checkpoint: ckpt,
        };
        let t = truncated(&p, 3);
        assert_eq!((t.interval_len, t.warmup), (250, 1000));
        let t = truncated(&p, 0);
        assert_eq!((t.interval_len, t.warmup), (2000, 1000));
        // Deep shifts floor at 100 instructions, not zero; the warm-up
        // is never truncated.
        let t = truncated(&p, 10);
        assert_eq!((t.interval_len, t.warmup), (100, 1000));
        let short = PlannedPoint { interval_len: 40, ..p };
        assert_eq!(truncated(&short, 4).interval_len, 40);
    }

    #[test]
    fn pareto_filter_keeps_nondominated_sorted() {
        let pts = vec![
            ("fast-hot".to_string(), 1.0, 9.0),
            ("slow-cool".to_string(), 3.0, 2.0),
            ("balanced".to_string(), 2.0, 4.0),
            ("dominated".to_string(), 2.5, 4.5),
            ("tie".to_string(), 2.0, 4.0),
        ];
        let nd = pareto_filter(&pts);
        let names: Vec<&str> = nd.iter().map(|p| p.0.as_str()).collect();
        // Ties are both kept (neither strictly dominates), sorted by
        // (mW, CPI, name).
        assert_eq!(names, ["slow-cool", "balanced", "tie", "fast-hot"]);
    }

    #[test]
    fn fixed_latency_detection() {
        let medium = BoomConfig::medium();
        assert!(all_fixed_latency(std::slice::from_ref(&medium)));
        let mut hier = medium;
        hier.mem_backend = MemBackendKind::Hierarchy(boom_uarch::HierarchyParams::default_uncore());
        assert!(!all_fixed_latency(&[hier]));
    }
}
