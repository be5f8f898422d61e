//! The paper's evaluation as one campaign and one reference table.
//!
//! Table II and Figs. 5–11 are all read from a single experiment: the
//! eleven workloads on the three BOOM configurations. [`Campaign`] runs
//! that experiment once; [`REFERENCE`] holds every number the paper
//! publishes for it, each row with the function that reads the same
//! quantity from the campaign; and [`scorecard`] renders the two side by
//! side as the markdown block EXPERIMENTS.md carries verbatim.

use crate::run_matrix;
use boom_uarch::BoomConfig;
use boomflow::{ArtifactStore, CampaignStats, WorkloadResult};
use rtl_power::Component;
use rv_workloads::{all, Scale, Workload};

/// The paper's configurations, in its presentation order (and in
/// [`BoomConfig::all_three`]'s).
pub const CONFIGS: [&str; 3] = [M, L, G];
const M: &str = "MediumBOOM";
const L: &str = "LargeBOOM";
const G: &str = "MegaBOOM";

/// The paper's experiment: every workload on every configuration, run as
/// one supervised campaign against one artifact store.
pub struct Campaign {
    /// The workloads, in the paper's Table II order.
    pub workloads: Vec<Workload>,
    /// The three configurations, in [`CONFIGS`] order.
    pub configs: Vec<BoomConfig>,
    /// `results[c][w]`: workload `w` on configuration `c`.
    pub results: Vec<Vec<WorkloadResult>>,
    /// The campaign's stage accounting.
    pub stats: CampaignStats,
    /// The store the campaign ran against, holding every workload's
    /// front-half artifacts for later full-run baselines.
    pub store: ArtifactStore,
}

impl Campaign {
    /// Runs the paper's 11 × 3 matrix at `scale`.
    ///
    /// # Panics
    ///
    /// Panics if any cell fails its flow (a correctness bug).
    pub fn run(scale: Scale) -> Campaign {
        let workloads = all(scale);
        let configs = BoomConfig::all_three();
        let store = ArtifactStore::new();
        let (results, stats) = run_matrix(&configs, &workloads, &store);
        Campaign { workloads, configs, results, stats, store }
    }

    /// The named workload's result on configuration `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if no workload has that name.
    pub fn result(&self, cfg: usize, workload: &str) -> &WorkloadResult {
        self.results[cfg]
            .iter()
            .find(|r| r.name == workload)
            .unwrap_or_else(|| panic!("no workload named {workload}"))
    }

    /// Mean of `f` over configuration `cfg`'s workloads.
    pub fn mean(&self, cfg: usize, f: impl Fn(&WorkloadResult) -> f64) -> f64 {
        let rs = &self.results[cfg];
        rs.iter().map(f).sum::<f64>() / rs.len() as f64
    }

    /// The most efficient configuration (highest IPC/W) for workload
    /// index `w`, as `(configuration index, IPC/W)`.
    pub fn most_efficient(&self, w: usize) -> (usize, f64) {
        (0..self.results.len())
            .map(|c| (c, self.results[c][w].perf_per_watt()))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("the campaign has configurations")
    }
}

/// One number the paper publishes, and how to read it from a [`Campaign`].
pub struct Reference {
    /// The table or figure it comes from.
    pub figure: &'static str,
    /// What it measures. Component rows carry the component's display
    /// name; per-workload rows start with the workload's name.
    pub entry: &'static str,
    /// The configuration it belongs to, or `""` when it spans them.
    pub config: &'static str,
    /// The paper's value.
    pub paper: f64,
    /// Unit of `paper` and of the measured value.
    pub unit: &'static str,
    /// Reads the measured counterpart from the campaign.
    pub measured: fn(&Campaign, &Reference) -> f64,
}

impl Reference {
    /// The row of `figure` named `entry` on `config`.
    ///
    /// # Panics
    ///
    /// Panics if the table has no such row.
    pub fn find(figure: &str, entry: &str, config: &str) -> &'static Reference {
        REFERENCE
            .iter()
            .find(|r| r.figure == figure && r.entry == entry && r.config == config)
            .unwrap_or_else(|| panic!("no reference row {figure} / {entry} / {config}"))
    }

    /// The measured value on `run`.
    pub fn measure(&self, run: &Campaign) -> f64 {
        (self.measured)(run, self)
    }

    /// Index of the row's configuration in [`CONFIGS`].
    fn cfg(&self) -> usize {
        CONFIGS.iter().position(|c| *c == self.config).expect("row names a configuration")
    }

    /// The workload a per-workload row names.
    fn workload(&self) -> &'static str {
        self.entry.split(' ').next().unwrap_or(self.entry)
    }

    /// Formats a value of this row's unit.
    fn fmt(&self, v: f64) -> String {
        let digits = match self.unit {
            "mW" | "IPC" | "×" => 2,
            _ => 0,
        };
        format!("{v:.digits$}")
    }

    /// The scorecard cells that hold the paper's side of this row.
    fn paper_cells(&self) -> String {
        let config = if self.config.is_empty() { "-" } else { self.config };
        let (figure, entry, unit) = (self.figure, self.entry, self.unit);
        format!("| {figure} | {entry} | {config} | {unit} | {} |", self.fmt(self.paper))
    }
}

const fn row(
    figure: &'static str,
    entry: &'static str,
    config: &'static str,
    paper: f64,
    unit: &'static str,
    measured: fn(&Campaign, &Reference) -> f64,
) -> Reference {
    Reference { figure, entry, config, paper, unit, measured }
}

fn component_mw(run: &Campaign, r: &Reference) -> f64 {
    let c = Component::ALL.into_iter().find(|c| c.name() == r.entry).expect("component row");
    run.mean(r.cfg(), |w| w.power.component(c).total_mw())
}

fn tile_mw(run: &Campaign, r: &Reference) -> f64 {
    run.mean(r.cfg(), WorkloadResult::tile_power_mw)
}

fn analyzed_pct(run: &Campaign, r: &Reference) -> f64 {
    100.0 * run.mean(r.cfg(), |w| w.power.analyzed_total_mw()) / tile_mw(run, r)
}

fn simpoints(run: &Campaign, r: &Reference) -> f64 {
    run.result(0, r.workload()).points.len() as f64
}

fn instructions(run: &Campaign, r: &Reference) -> f64 {
    run.result(0, r.workload()).total_insts as f64
}

fn interval(run: &Campaign, r: &Reference) -> f64 {
    run.result(0, r.workload()).interval_size as f64
}

fn ipc(run: &Campaign, r: &Reference) -> f64 {
    run.result(r.cfg(), r.workload()).ipc
}

fn mega_medium_ipc(run: &Campaign, _: &Reference) -> f64 {
    run.mean(2, |w| w.ipc) / run.mean(0, |w| w.ipc)
}

fn medium_wins(run: &Campaign, _: &Reference) -> f64 {
    (0..run.workloads.len()).filter(|&w| run.most_efficient(w).0 == 0).count() as f64
}

fn medium_over_mega_ppw(run: &Campaign, _: &Reference) -> f64 {
    let ppw = |c| run.mean(c, WorkloadResult::perf_per_watt);
    100.0 * (ppw(0) / ppw(2) - 1.0)
}

fn reduction(run: &Campaign, _: &Reference) -> f64 {
    run.mean(0, |w| w.speedup.ln()).exp()
}

const F5: &str = "Fig. 5";
const F6: &str = "Fig. 6";
const F7: &str = "Fig. 7";
const F9: &str = "Fig. 9";
const T2: &str = "Table II";

/// Every number of the paper's evaluation (ASAP7, 500 MHz) that the
/// campaign reproduces, in the paper's order.
///
/// Figs. 5–7 give each analyzed component's mean power across the
/// eleven workloads; these are also the power model's calibration
/// anchors. Fig. 9's tile totals are implied by the branch predictor's
/// 25.3 % / 28.8 % / 18.8 % tile shares, and the rest-of-tile rows are
/// the tile totals' unanalyzed shares.
pub static REFERENCE: &[Reference] = &[
    row(T2, "Basicmath SimPoints", "", 2.0, "count", simpoints),
    row(T2, "Basicmath instructions", "", 364_758_047.0, "insts", instructions),
    row(T2, "Basicmath interval", "", 1e6, "insts", interval),
    row(T2, "Stringsearch SimPoints", "", 2.0, "count", simpoints),
    row(T2, "Stringsearch instructions", "", 136_360_766.0, "insts", instructions),
    row(T2, "Stringsearch interval", "", 1e6, "insts", interval),
    row(T2, "FFT SimPoints", "", 1.0, "count", simpoints),
    row(T2, "FFT instructions", "", 266_217_322.0, "insts", instructions),
    row(T2, "FFT interval", "", 1e6, "insts", interval),
    row(T2, "iFFT SimPoints", "", 1.0, "count", simpoints),
    row(T2, "iFFT instructions", "", 266_643_273.0, "insts", instructions),
    row(T2, "iFFT interval", "", 1e6, "insts", interval),
    row(T2, "Bitcount SimPoints", "", 3.0, "count", simpoints),
    row(T2, "Bitcount instructions", "", 495_204_057.0, "insts", instructions),
    row(T2, "Bitcount interval", "", 1e6, "insts", interval),
    row(T2, "Qsort SimPoints", "", 1.0, "count", simpoints),
    row(T2, "Qsort instructions", "", 22_868_929.0, "insts", instructions),
    row(T2, "Qsort interval", "", 1e6, "insts", interval),
    row(T2, "Dijkstra SimPoints", "", 1.0, "count", simpoints),
    row(T2, "Dijkstra instructions", "", 227_879_044.0, "insts", instructions),
    row(T2, "Dijkstra interval", "", 1e6, "insts", interval),
    row(T2, "Patricia SimPoints", "", 2.0, "count", simpoints),
    row(T2, "Patricia instructions", "", 154_589_629.0, "insts", instructions),
    row(T2, "Patricia interval", "", 2e6, "insts", interval),
    row(T2, "Matmult SimPoints", "", 1.0, "count", simpoints),
    row(T2, "Matmult instructions", "", 516_885_284.0, "insts", instructions),
    row(T2, "Matmult interval", "", 1e6, "insts", interval),
    row(T2, "Sha SimPoints", "", 3.0, "count", simpoints),
    row(T2, "Sha instructions", "", 111_029_722.0, "insts", instructions),
    row(T2, "Sha interval", "", 1e6, "insts", interval),
    row(T2, "Tarfind SimPoints", "", 1.0, "count", simpoints),
    row(T2, "Tarfind instructions", "", 1_220_430_895.0, "insts", instructions),
    row(T2, "Tarfind interval", "", 2e6, "insts", interval),
    row(F5, "Int RegFile", M, 0.27, "mW", component_mw),
    row(F5, "FP RegFile", M, 0.05, "mW", component_mw),
    row(F5, "Int Rename", M, 0.95, "mW", component_mw),
    row(F5, "FP Rename", M, 0.60, "mW", component_mw),
    row(F5, "Int Issue", M, 0.83, "mW", component_mw),
    row(F5, "Mem Issue", M, 0.26, "mW", component_mw),
    row(F5, "FP Issue", M, 0.17, "mW", component_mw),
    row(F5, "ROB", M, 0.61, "mW", component_mw),
    row(F5, "Branch Predictor", M, 3.34, "mW", component_mw),
    row(F5, "Fetch Buffer", M, 0.22, "mW", component_mw),
    row(F5, "LSU", M, 0.84, "mW", component_mw),
    row(F5, "L1 DCache", M, 1.13, "mW", component_mw),
    row(F5, "L1 ICache", M, 0.36, "mW", component_mw),
    row(F6, "Int RegFile", L, 0.72, "mW", component_mw),
    row(F6, "FP RegFile", L, 0.08, "mW", component_mw),
    row(F6, "Int Rename", L, 1.57, "mW", component_mw),
    row(F6, "FP Rename", L, 1.29, "mW", component_mw),
    row(F6, "Int Issue", L, 2.08, "mW", component_mw),
    row(F6, "Mem Issue", L, 0.62, "mW", component_mw),
    row(F6, "FP Issue", L, 0.39, "mW", component_mw),
    row(F6, "ROB", L, 1.08, "mW", component_mw),
    row(F6, "Branch Predictor", L, 7.00, "mW", component_mw),
    row(F6, "Fetch Buffer", L, 0.31, "mW", component_mw),
    row(F6, "LSU", L, 1.30, "mW", component_mw),
    row(F6, "L1 DCache", L, 2.24, "mW", component_mw),
    row(F6, "L1 ICache", L, 1.06, "mW", component_mw),
    row(F7, "Int RegFile", G, 4.83, "mW", component_mw),
    row(F7, "FP RegFile", G, 1.18, "mW", component_mw),
    row(F7, "Int Rename", G, 2.50, "mW", component_mw),
    row(F7, "FP Rename", G, 2.16, "mW", component_mw),
    row(F7, "Int Issue", G, 4.40, "mW", component_mw),
    row(F7, "Mem Issue", G, 1.30, "mW", component_mw),
    row(F7, "FP Issue", G, 0.74, "mW", component_mw),
    row(F7, "ROB", G, 1.57, "mW", component_mw),
    row(F7, "Branch Predictor", G, 7.60, "mW", component_mw),
    row(F7, "Fetch Buffer", G, 0.36, "mW", component_mw),
    row(F7, "LSU", G, 2.20, "mW", component_mw),
    row(F7, "L1 DCache", G, 4.34, "mW", component_mw),
    row(F7, "L1 ICache", G, 1.06, "mW", component_mw),
    row(F9, "Analyzed share", M, 73.0, "%", analyzed_pct),
    row(F9, "Analyzed share", L, 81.0, "%", analyzed_pct),
    row(F9, "Analyzed share", G, 85.0, "%", analyzed_pct),
    row(F9, "Tile total", M, 13.20, "mW", tile_mw),
    row(F9, "Tile total", L, 24.31, "mW", tile_mw),
    row(F9, "Tile total", G, 40.43, "mW", tile_mw),
    row(F9, "Rest of Tile", M, 3.57, "mW", component_mw),
    row(F9, "Rest of Tile", L, 4.62, "mW", component_mw),
    row(F9, "Rest of Tile", G, 6.06, "mW", component_mw),
    row("Fig. 10", "Sha IPC", M, 1.83, "IPC", ipc),
    row("Fig. 10", "Sha IPC", L, 2.6, "IPC", ipc),
    row("Fig. 10", "Sha IPC", G, 3.5, "IPC", ipc),
    row("Fig. 10", "Mean IPC, MegaBOOM / MediumBOOM", "", 1.6, "×", mega_medium_ipc),
    row("Fig. 11", "Workloads MediumBOOM wins", "", 8.0, "count", medium_wins),
    row("Fig. 11", "Mean IPC/W, MediumBOOM over MegaBOOM", "", 52.0, "%", medium_over_mega_ppw),
    row("§IV-A", "Detailed-instruction reduction (geomean)", "", 45.0, "×", reduction),
];

/// Key Takeaway #7: TAGE draws ~2.5× the power of gshare. The predictor
/// ablation reads it; the paper campaign runs TAGE only.
pub const TAGE_OVER_GSHARE_POWER: f64 = 2.5;

/// The paper's per-component mean power (mW) for MediumBOOM / LargeBOOM
/// / MegaBOOM, read from [`REFERENCE`]: the power model's calibration
/// anchors. The uncore components of the hierarchy memory backend have
/// no reference figure (the paper's tile stops at the L1s) and read 0.
pub fn paper_mean_mw(c: Component) -> [f64; 3] {
    let mut mw = [0.0; 3];
    for r in REFERENCE.iter().filter(|r| r.unit == "mW" && r.entry == c.name()) {
        mw[r.cfg()] = r.paper;
    }
    mw
}

/// Marks the start of the scorecard block in bench output and in
/// EXPERIMENTS.md.
const SCORECARD_BEGIN: &str = "<!-- scorecard -->";
/// Marks the end of the scorecard block.
const SCORECARD_END: &str = "<!-- /scorecard -->";

/// Renders every [`REFERENCE`] row against its measured value on `run`
/// as a markdown table between the scorecard markers.
pub fn scorecard(run: &Campaign) -> String {
    let mut out = format!("{SCORECARD_BEGIN}\n");
    out.push_str("| Figure | Entry | Config | Unit | Paper | Measured | Δ % |\n");
    out.push_str("|---|---|---|---|---|---|---|\n");
    for r in REFERENCE {
        let m = r.measure(run);
        let delta = 100.0 * (m - r.paper) / r.paper;
        out.push_str(&format!("{} {} | {delta:+.0} |\n", r.paper_cells(), r.fmt(m)));
    }
    out.push_str(SCORECARD_END);
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_mean_mw_is_pinned() {
        let pinned: [(Component, [f64; 3]); 16] = [
            (Component::IntRegFile, [0.27, 0.72, 4.83]),
            (Component::FpRegFile, [0.05, 0.08, 1.18]),
            (Component::IntRename, [0.95, 1.57, 2.50]),
            (Component::FpRename, [0.60, 1.29, 2.16]),
            (Component::IntIssue, [0.83, 2.08, 4.40]),
            (Component::MemIssue, [0.26, 0.62, 1.30]),
            (Component::FpIssue, [0.17, 0.39, 0.74]),
            (Component::Rob, [0.61, 1.08, 1.57]),
            (Component::BranchPredictor, [3.34, 7.00, 7.60]),
            (Component::FetchBuffer, [0.22, 0.31, 0.36]),
            (Component::Lsu, [0.84, 1.30, 2.20]),
            (Component::DCache, [1.13, 2.24, 4.34]),
            (Component::ICache, [0.36, 1.06, 1.06]),
            (Component::RestOfTile, [3.57, 4.62, 6.06]),
            (Component::L2Cache, [0.0, 0.0, 0.0]),
            (Component::DramInterface, [0.0, 0.0, 0.0]),
        ];
        assert_eq!(pinned.map(|(c, _)| c), Component::ALL);
        for (c, mw) in pinned {
            assert_eq!(paper_mean_mw(c), mw, "{c:?}");
        }
    }

    #[test]
    fn reference_rows_are_unique() {
        for (i, r) in REFERENCE.iter().enumerate() {
            assert!(
                std::ptr::eq(Reference::find(r.figure, r.entry, r.config), r),
                "row {i} ({} / {} / {}) is duplicated",
                r.figure,
                r.entry,
                r.config
            );
        }
    }

    #[test]
    fn experiments_scorecard_carries_every_paper_value() {
        let doc = include_str!("../../../EXPERIMENTS.md");
        let start = doc.find(SCORECARD_BEGIN).expect("EXPERIMENTS.md has a scorecard");
        let end = doc.find(SCORECARD_END).expect("the scorecard is closed");
        let rows: Vec<&str> = doc[start..end].lines().skip(3).collect();
        assert_eq!(rows.len(), REFERENCE.len(), "one scorecard row per reference row");
        for (line, r) in rows.iter().zip(REFERENCE) {
            assert!(
                line.starts_with(&r.paper_cells()),
                "{line:?} should start {}",
                r.paper_cells()
            );
        }
    }
}
