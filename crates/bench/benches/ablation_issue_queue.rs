//! Key Takeaway #5 ablation: collapsing vs non-collapsing issue queues.
//!
//! The paper notes that BOOM's collapsing queues "enhance queue
//! utilization but sacrifice energy efficiency due to frequent register
//! writes per cycle" and proposes analyzing the trade-off across
//! implementations. This bench runs both flavours on all configurations:
//! the non-collapsing queue eliminates the shift writes but pays for an
//! age-ordered select network.

use boom_uarch::{BoomConfig, IssueQueueKind};
use boomflow::report::render_table;
use boomflow::{ArtifactStore, WorkloadResult};
use boomflow_bench::{banner, run_matrix, BENCH_SCALE};
use rtl_power::Component;
use rv_workloads::all;

fn main() {
    banner("Ablation: collapsing vs non-collapsing issue queues (Key Takeaway #5)");
    let workloads = all(BENCH_SCALE);
    // The front half of the flow is configuration-independent, so one
    // campaign over all six variants shares each workload's artifacts.
    let kinds = [IssueQueueKind::Collapsing, IssueQueueKind::NonCollapsing];
    let variants: Vec<BoomConfig> = BoomConfig::all_three()
        .into_iter()
        .flat_map(|base| kinds.map(|k| base.clone().with_issue_queue(k)))
        .collect();
    let (results, _) = run_matrix(&variants, &workloads, &ArtifactStore::new());
    let header: Vec<String> = [
        "Configuration",
        "collapse IQ mW",
        "non-coll IQ mW",
        "delta",
        "collapse IPC",
        "non-coll IPC",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut rows = Vec::new();
    for (base, by_kind) in variants.iter().step_by(kinds.len()).zip(results.chunks(kinds.len())) {
        let [coll, nc] = by_kind else { unreachable!("one result set per queue kind") };
        let n = workloads.len() as f64;
        let iq_power = |rs: &[WorkloadResult]| -> f64 {
            rs.iter()
                .map(|r| {
                    r.power.component(Component::IntIssue).total_mw()
                        + r.power.component(Component::MemIssue).total_mw()
                        + r.power.component(Component::FpIssue).total_mw()
                })
                .sum::<f64>()
                / n
        };
        let ipc = |rs: &[WorkloadResult]| rs.iter().map(|r| r.ipc).sum::<f64>() / n;
        let (pc, pn) = (iq_power(coll), iq_power(nc));
        rows.push(vec![
            base.name.clone(),
            format!("{pc:.2}"),
            format!("{pn:.2}"),
            format!("{:+.0}%", 100.0 * (pn - pc) / pc),
            format!("{:.2}", ipc(coll)),
            format!("{:.2}", ipc(nc)),
        ]);
    }
    print!("{}", render_table(&header, &rows));
    println!();
    println!("With identical timing behaviour (age-ordered select in both), the");
    println!("difference is purely energetic: shift writes vs the age-matrix select.");
}
