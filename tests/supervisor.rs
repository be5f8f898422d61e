//! Fault-tolerance tests for the flow supervisor: per-point isolation,
//! retry & re-weighting, watchdog diagnostics, and campaign-level cell
//! isolation.

use boom_uarch::BoomConfig;
use boomflow::{
    run_simpoint_flow, supervise_matrix_with, CampaignOptions, FailureKind, FaultInjection,
    FlowConfig, FlowError, RetryPolicy,
};
use proptest::prelude::*;
use rv_workloads::{by_name, Scale, Workload};
use simpoint::SimPointConfig;

fn quick_flow() -> FlowConfig {
    FlowConfig {
        simpoint: SimPointConfig { max_k: 6, restarts: 2, ..SimPointConfig::default() },
        warmup_insts: 1_000,
        max_profile_insts: 500_000_000,
        ..FlowConfig::default()
    }
}

/// The acceptance scenario: one simulation point forced to hang still
/// yields a `WorkloadResult` with re-normalized weights and a populated
/// degradation record carrying the watchdog snapshot.
#[test]
fn hang_on_one_point_degrades_and_renormalizes() {
    let w = by_name("bitcount", Scale::Test).unwrap();
    let cfg = BoomConfig::medium();

    // Establish that the workload has at least two points, so quarantining
    // one leaves a meaningful result.
    let clean = run_simpoint_flow(&cfg, &w, &quick_flow()).unwrap();
    assert!(clean.points.len() >= 2, "need >= 2 points for this test, got {}", clean.points.len());

    let flow = FlowConfig {
        inject: FaultInjection { hang_point: Some(0), ..FaultInjection::default() },
        retry: RetryPolicy { max_attempts: 2, ..RetryPolicy::default() },
        ..quick_flow()
    };
    let r = run_simpoint_flow(&cfg, &w, &flow).unwrap();

    assert_eq!(r.points.len(), clean.points.len() - 1);
    let wsum: f64 = r.points.iter().map(|p| p.weight).sum();
    assert!((wsum - 1.0).abs() < 1e-9, "weights must re-normalize to 1, got {wsum}");

    let d = r.degradation.expect("degradation record must be populated");
    assert_eq!(d.failed.len(), 1);
    assert_eq!(d.failed[0].simpoint, 0);
    assert_eq!(d.failed[0].attempts, 2, "the hung point must have been retried");
    assert!(d.lost_weight > 0.0 && d.lost_weight < 1.0);
    assert!(d.retries >= 1);
    match &d.failed[0].kind {
        FailureKind::Hung { snapshot } => {
            assert!(snapshot.cycles_since_commit >= 100_000, "watchdog fired early");
            assert!(!snapshot.issue_queues.is_empty());
            let text = snapshot.to_string();
            assert!(text.contains("watchdog"), "{text}");
            assert!(text.contains("diagnosis"), "{text}");
        }
        other => panic!("expected a hang, got {other}"),
    }
    // The degraded IPC is still a plausible weighted average.
    assert!(r.ipc > 0.2 && r.ipc < 3.0, "ipc {}", r.ipc);
}

/// An injected worker panic is caught, retried, and quarantined — the
/// process must not abort.
#[test]
fn panic_on_one_point_is_isolated() {
    let w = by_name("bitcount", Scale::Test).unwrap();
    let flow = FlowConfig {
        inject: FaultInjection { panic_point: Some(1), ..FaultInjection::default() },
        retry: RetryPolicy { max_attempts: 3, ..RetryPolicy::default() },
        ..quick_flow()
    };
    let r = run_simpoint_flow(&BoomConfig::medium(), &w, &flow).unwrap();
    let d = r.degradation.expect("degradation record must be populated");
    assert_eq!(d.failed.len(), 1);
    assert_eq!(d.failed[0].attempts, 3);
    assert!(matches!(d.failed[0].kind, FailureKind::Panicked { .. }));
    let wsum: f64 = r.points.iter().map(|p| p.weight).sum();
    assert!((wsum - 1.0).abs() < 1e-9);
}

/// The campaign driver isolates a failing cell: the broken workload's cell
/// fails, the healthy one still produces a result, and the failure log
/// names the failing cell.
#[test]
fn supervise_matrix_isolates_failing_cells() {
    use rv_isa::asm::Assembler;
    use rv_isa::reg::Reg::*;
    let mut a = Assembler::new();
    a.li(A0, 7);
    a.exit();
    let broken = Workload {
        name: "broken",
        suite: rv_workloads::Suite::MiBench,
        program: a.assemble().unwrap(),
        interval_size: 100,
    };
    let healthy = by_name("bitcount", Scale::Test).unwrap();

    let report = supervise_matrix_with(
        &[BoomConfig::medium()],
        &[broken, healthy],
        &quick_flow(),
        &CampaignOptions::default(),
    );
    assert_eq!(report.cells.len(), 2);
    assert!(!report.all_ok());
    assert_eq!(report.failed().count(), 1);
    assert!(report.cells[0].outcome.is_err(), "broken cell must fail");
    assert!(report.cells[1].outcome.is_ok(), "healthy cell must survive its neighbor");
    let log = report.failure_log().expect("failure log must be produced");
    assert!(log.contains("broken"), "{log}");
    assert!(log.contains("self-verification"), "{log}");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// A core forced into a hang on every point always surfaces as
    /// `FlowError::CoreHung` with a non-empty diagnostic snapshot,
    /// whatever the configuration, workload, or retry budget.
    #[test]
    fn forced_hang_always_yields_core_hung_with_snapshot(
        cfg_idx in 0usize..2,
        w_idx in 0usize..2,
        attempts in 1u32..3,
    ) {
        let cfg = if cfg_idx == 0 { BoomConfig::medium() } else { BoomConfig::large() };
        let w = by_name(["bitcount", "sha"][w_idx], Scale::Test).unwrap();
        let flow = FlowConfig {
            simpoint: SimPointConfig { max_k: 3, restarts: 1, ..SimPointConfig::default() },
            warmup_insts: 500,
            inject: FaultInjection { hang_every_point: true, ..FaultInjection::default() },
            retry: RetryPolicy { max_attempts: attempts, ..RetryPolicy::default() },
            ..FlowConfig::default()
        };
        match run_simpoint_flow(&cfg, &w, &flow) {
            Err(FlowError::CoreHung { snapshot, .. }) => {
                prop_assert!(snapshot.cycles_since_commit >= 100_000);
                prop_assert!(!snapshot.issue_queues.is_empty());
                prop_assert!(!snapshot.to_string().is_empty());
            }
            other => prop_assert!(false, "expected CoreHung, got {other:?}"),
        }
    }

    /// Quarantining any k of n points keeps the surviving weights summing
    /// to 1 after re-normalization.
    #[test]
    fn quarantine_keeps_weights_normalized(
        weights in proptest::collection::vec(0.01f64..1.0, 1..10),
        quarantine in 0usize..10,
    ) {
        let k = quarantine % weights.len();
        let survivors = &weights[k..];
        match boomflow::supervisor::renormalized(survivors) {
            Some(renorm) => {
                let sum: f64 = renorm.iter().sum();
                prop_assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
                prop_assert_eq!(renorm.len(), survivors.len());
            }
            None => prop_assert!(survivors.is_empty(), "non-empty survivors must renormalize"),
        }
    }
}
