//! Shared harness for the evaluation benches: the one supervised campaign
//! every matrix-shaped bench runs, and the paper's published reference
//! numbers ([`paper`]).
//!
//! A bench hands its whole configuration × workload matrix to one
//! [`supervise_campaign`] call against one [`ArtifactStore`], so the
//! configuration-independent stages (profiling, clustering, checkpoint
//! capture) run once per workload however many configurations the
//! matrix holds, and every detailed simulation runs on the campaign's
//! one worker pool.

use boom_uarch::BoomConfig;
use boomflow::{
    supervise_campaign, ArtifactStore, CampaignOptions, CampaignStats, FlowConfig, WorkloadResult,
};
use rv_workloads::{Scale, Workload};

pub mod paper;

pub use paper::paper_mean_mw;

/// Runs one supervised campaign over `cfgs` × `workloads` against
/// `store` with the default flow and scheduler options, returning each
/// configuration's results in workload order, plus the campaign's stage
/// accounting.
///
/// # Panics
///
/// Panics if any cell fails its flow (a correctness bug).
pub fn run_matrix(
    cfgs: &[BoomConfig],
    workloads: &[Workload],
    store: &ArtifactStore,
) -> (Vec<Vec<WorkloadResult>>, CampaignStats) {
    let report = supervise_campaign(
        cfgs,
        workloads,
        &FlowConfig::default(),
        store,
        &CampaignOptions::default(),
    );
    let mut cells = report
        .cells
        .into_iter()
        .map(|c| c.outcome.unwrap_or_else(|e| panic!("{} on {}: {e}", c.workload, c.config)));
    let results =
        cfgs.iter().map(|_| cells.by_ref().take(workloads.len()).map(|r| *r).collect()).collect();
    (results, report.stats)
}

/// The scale every figure-regenerating bench uses.
pub const BENCH_SCALE: Scale = Scale::Full;

/// Prints a bench banner so `cargo bench` output is navigable.
pub fn banner(title: &str) {
    println!();
    println!("=== {title} ===");
    println!();
}

#[cfg(test)]
mod tests {
    use super::paper::{Reference, CONFIGS};
    use super::*;
    use rtl_power::Component;

    #[test]
    fn paper_reference_sums_are_consistent() {
        // The 13 analyzed components must sum to share x tile, and the
        // rest of the tile is the tile's unanalyzed share.
        for (i, cfg) in CONFIGS.into_iter().enumerate() {
            let sum: f64 = Component::ANALYZED.iter().map(|c| paper_mean_mw(*c)[i]).sum();
            let tile = Reference::find("Fig. 9", "Tile total", cfg).paper;
            let share = Reference::find("Fig. 9", "Analyzed share", cfg).paper / 100.0;
            let frac = sum / tile;
            assert!((frac - share).abs() < 0.03, "{cfg}: analyzed fraction {frac:.3}");
            let rest = Reference::find("Fig. 9", "Rest of Tile", cfg).paper;
            assert!((rest - tile * (1.0 - share)).abs() < 0.01, "{cfg}: rest of tile {rest}");
        }
    }
}
