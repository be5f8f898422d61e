//! Key Takeaway #7 ablation: TAGE vs gshare vs bimodal predictor power.
//!
//! The paper observes TAGE consuming ~2.5x the power of the gshare
//! predictor used in the authors' prior study [14], in exchange for
//! better accuracy. This bench swaps the predictor and compares power,
//! misprediction rate, and IPC on all three configurations.

use boom_uarch::{BoomConfig, PredictorKind};
use boomflow::report::render_table;
use boomflow::{ArtifactStore, WorkloadResult};
use boomflow_bench::paper::TAGE_OVER_GSHARE_POWER;
use boomflow_bench::{banner, run_matrix, BENCH_SCALE};
use rtl_power::Component;
use rv_workloads::all;

fn main() {
    banner("Ablation: TAGE vs gshare vs bimodal (branch-predictor power, accuracy, IPC)");
    let workloads = all(BENCH_SCALE);
    // One campaign over all nine (config, predictor) variants: they
    // share each workload's profile/analysis/checkpoints.
    let kinds = [PredictorKind::Tage, PredictorKind::Gshare, PredictorKind::Bimodal];
    let variants: Vec<BoomConfig> = BoomConfig::all_three()
        .into_iter()
        .flat_map(|base| kinds.map(|k| base.clone().with_predictor(k)))
        .collect();
    let (results, _) = run_matrix(&variants, &workloads, &ArtifactStore::new());
    let header: Vec<String> = [
        "Configuration",
        "TAGE BP mW",
        "gshare BP mW",
        "bimodal BP mW",
        "TAGE/gshare",
        "TAGE mis%",
        "gshare mis%",
        "bimodal mis%",
        "TAGE IPC",
        "gshare IPC",
        "bimodal IPC",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut rows = Vec::new();
    let mut ratios = Vec::new();
    for (base, by_kind) in variants.iter().step_by(kinds.len()).zip(results.chunks(kinds.len())) {
        let [tage, gsh, bim] = by_kind else { unreachable!("one result set per predictor") };
        let n = workloads.len() as f64;
        let bp = |rs: &[WorkloadResult]| -> f64 {
            rs.iter().map(|r| r.power.component(Component::BranchPredictor).total_mw()).sum::<f64>()
                / n
        };
        let mis = |rs: &[WorkloadResult]| -> f64 {
            let (m, b) = rs.iter().fold((0u64, 0u64), |acc, r| {
                r.points
                    .iter()
                    .fold(acc, |(m, b), p| (m + p.stats.mispredicts, b + p.stats.branches))
            });
            100.0 * m as f64 / b.max(1) as f64
        };
        let ipc = |rs: &[WorkloadResult]| -> f64 { rs.iter().map(|r| r.ipc).sum::<f64>() / n };
        let ratio = bp(tage) / bp(gsh);
        ratios.push(ratio);
        rows.push(vec![
            base.name.clone(),
            format!("{:.2}", bp(tage)),
            format!("{:.2}", bp(gsh)),
            format!("{:.2}", bp(bim)),
            format!("{ratio:.2}x"),
            format!("{:.1}", mis(tage)),
            format!("{:.1}", mis(gsh)),
            format!("{:.1}", mis(bim)),
            format!("{:.2}", ipc(tage)),
            format!("{:.2}", ipc(gsh)),
            format!("{:.2}", ipc(bim)),
        ]);
    }
    print!("{}", render_table(&header, &rows));
    println!();
    let mean_ratio = ratios.iter().sum::<f64>() / ratios.len() as f64;
    println!("Mean TAGE/gshare power ratio: {mean_ratio:.2}x  (paper: ~{TAGE_OVER_GSHARE_POWER}x)");
    println!("TAGE buys its power back in accuracy (lower misprediction rate) and IPC.");
}
