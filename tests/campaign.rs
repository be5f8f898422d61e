//! Staged-pipeline and campaign-scheduler tests: artifact reuse across
//! configurations, compute-exactly-once under concurrency, and the
//! determinism contract between sequential and parallel campaigns.

// Test helpers unwrap freely: a failed unwrap is exactly a test failure.
#![allow(clippy::unwrap_used)]

use boom_uarch::BoomConfig;
use boomflow::{
    run_simpoint_flow, run_simpoint_flow_with_store, supervise_campaign, supervise_matrix_with,
    ArtifactStore, CampaignOptions, CampaignReport, CellFailure, FaultInjection, FlowConfig,
    FlowError, WorkPool, WorkloadResult,
};
use rtl_power::Component;
use rv_isa::codec::fnv1a;
use rv_workloads::{by_name, Scale, Workload};
use simpoint::SimPointConfig;
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

fn quick_flow() -> FlowConfig {
    FlowConfig {
        simpoint: SimPointConfig { max_k: 6, restarts: 2, ..SimPointConfig::default() },
        warmup_insts: 1_000,
        max_profile_insts: 500_000_000,
        ..FlowConfig::default()
    }
}

fn test_workloads() -> Vec<Workload> {
    vec![by_name("bitcount", Scale::Test).unwrap(), by_name("dijkstra", Scale::Test).unwrap()]
}

/// Exact (bit-level) equality of everything a `WorkloadResult` reports.
/// The flow is deterministic, so caching and scheduling must not perturb
/// a single bit of the output.
fn assert_results_identical(a: &WorkloadResult, b: &WorkloadResult, what: &str) {
    assert_eq!(a.name, b.name, "{what}: workload name");
    assert_eq!(a.config, b.config, "{what}: config name");
    assert_eq!(a.ipc.to_bits(), b.ipc.to_bits(), "{what}: ipc {} vs {}", a.ipc, b.ipc);
    assert_eq!(a.total_insts, b.total_insts, "{what}: total_insts");
    assert_eq!(a.interval_size, b.interval_size, "{what}: interval_size");
    assert_eq!(a.coverage.to_bits(), b.coverage.to_bits(), "{what}: coverage");
    assert_eq!(a.speedup.to_bits(), b.speedup.to_bits(), "{what}: speedup");
    assert_eq!(a.points.len(), b.points.len(), "{what}: point count");
    for (i, (pa, pb)) in a.points.iter().zip(&b.points).enumerate() {
        assert_eq!(pa.interval, pb.interval, "{what}: point {i} interval");
        assert_eq!(pa.weight.to_bits(), pb.weight.to_bits(), "{what}: point {i} weight");
        assert_eq!(pa.ipc.to_bits(), pb.ipc.to_bits(), "{what}: point {i} ipc");
    }
    for c in Component::ALL {
        assert_eq!(
            a.power.component(c).total_mw().to_bits(),
            b.power.component(c).total_mw().to_bits(),
            "{what}: {} power",
            c.name()
        );
    }
    assert_eq!(a.degradation.is_some(), b.degradation.is_some(), "{what}: degradation presence");
    if let (Some(da), Some(db)) = (&a.degradation, &b.degradation) {
        assert_eq!(da.failed.len(), db.failed.len(), "{what}: failed count");
        assert_eq!(da.retries, db.retries, "{what}: retries");
        assert_eq!(da.lost_weight.to_bits(), db.lost_weight.to_bits(), "{what}: lost weight");
    }
}

fn assert_reports_identical(a: &CampaignReport, b: &CampaignReport) {
    assert_eq!(a.cells.len(), b.cells.len(), "cell count");
    for (i, (ca, cb)) in a.cells.iter().zip(&b.cells).enumerate() {
        assert_eq!(ca.config, cb.config, "cell {i} config order");
        assert_eq!(ca.workload, cb.workload, "cell {i} workload order");
        match (&ca.outcome, &cb.outcome) {
            (Ok(ra), Ok(rb)) => assert_results_identical(ra, rb, &format!("cell {i}")),
            (Err(ea), Err(eb)) => {
                assert_eq!(ea.to_string(), eb.to_string(), "cell {i} error")
            }
            _ => panic!("cell {i}: one run succeeded and the other failed"),
        }
    }
}

/// Satellite: a run through a warm store must be bit-identical to a cold
/// (uncached) run — memoization changes cost, never content — and the
/// single-cell flow (a 1×1 campaign) must equal the matching cell of a
/// 3-configuration campaign, for a clean run and for one degraded by an
/// injected point panic.
#[test]
fn cached_and_uncached_flows_are_identical() {
    let w = by_name("bitcount", Scale::Test).unwrap();
    let cfg = BoomConfig::medium();
    let panicking = FlowConfig {
        inject: FaultInjection { panic_point: Some(1), ..FaultInjection::default() },
        ..quick_flow()
    };
    for (what, flow) in [("clean", quick_flow()), ("panic_point", panicking)] {
        let uncached = run_simpoint_flow(&cfg, &w, &flow).unwrap();
        let store = ArtifactStore::new();
        let cold = run_simpoint_flow_with_store(&cfg, &w, &flow, &store).unwrap();
        let warm = run_simpoint_flow_with_store(&cfg, &w, &flow, &store).unwrap();

        assert_results_identical(&uncached, &cold, &format!("{what}: uncached vs cold"));
        assert_results_identical(&cold, &warm, &format!("{what}: cold vs warm"));
        let s = store.stats();
        assert_eq!(s.profile_computed, 1, "{what}: warm run must reuse the profile");
        assert_eq!(s.checkpoint_computed, 1, "{what}: warm run must reuse the checkpoints");
        assert!(s.checkpoint_hits >= 1);

        let matrix = supervise_matrix_with(
            &BoomConfig::all_three(),
            std::slice::from_ref(&w),
            &flow,
            &CampaignOptions { jobs: 2, ..CampaignOptions::default() },
        );
        let cell = matrix.cells.iter().find(|c| c.config == cfg.name).unwrap();
        let from_matrix = cell.outcome.as_ref().unwrap();
        assert_results_identical(&uncached, from_matrix, &format!("{what}: flow vs matrix cell"));
        assert_eq!(
            uncached.degradation.is_some(),
            what == "panic_point",
            "{what}: only the injected panic degrades the result"
        );
    }
}

/// Satellite: concurrent cells racing on the same artifact key block on
/// one computation and share its result.
#[test]
fn concurrent_cells_compute_artifacts_exactly_once() {
    let store = ArtifactStore::new();
    let w = by_name("bitcount", Scale::Test).unwrap();
    let flow = quick_flow();
    let sets: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> =
            (0..8).map(|_| s.spawn(|| store.checkpoints(&w, &flow).unwrap())).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for set in &sets[1..] {
        assert!(Arc::ptr_eq(&sets[0], set), "all callers must share one artifact");
    }
    let s = store.stats();
    assert_eq!(s.profile_computed, 1);
    assert_eq!(s.cluster_computed, 1);
    assert_eq!(s.checkpoint_computed, 1);
    assert_eq!(s.checkpoint_hits, 7);
}

/// Acceptance: a 3-configuration campaign performs profiling, clustering,
/// and checkpointing exactly once per workload.
#[test]
fn three_config_campaign_computes_front_half_once_per_workload() {
    let cfgs = BoomConfig::all_three();
    let workloads = test_workloads();
    let store = ArtifactStore::new();
    let report = supervise_campaign(
        &cfgs,
        &workloads,
        &quick_flow(),
        &store,
        &CampaignOptions { jobs: 2, ..CampaignOptions::default() },
    );
    assert!(report.all_ok(), "{:?}", report.failure_log());
    assert_eq!(report.cells.len(), cfgs.len() * workloads.len());

    let s = store.stats();
    let n = workloads.len() as u64;
    assert_eq!(s.profile_computed, n, "one profiling pass per workload");
    assert_eq!(s.cluster_computed, n, "one phase analysis per workload");
    assert_eq!(s.checkpoint_computed, n, "one checkpoint capture per workload");
    assert_eq!(report.stats.cache, s, "report must carry the store's stats");
    assert_eq!(report.stats.jobs, 2);
    assert!(report.stats.cache.detailed_ms > 0.0, "detailed sim time must be recorded");
    assert!(!report.stage_summary().is_empty());
}

/// Configurations that differ only in their display name share one
/// config key, so a campaign over medium and a renamed copy simulates
/// every point once, and both cells render the same numbers.
#[test]
fn renamed_configuration_shares_every_point() {
    let mut copy = BoomConfig::medium();
    copy.name = "MediumCopy".to_string();
    let cfgs = [BoomConfig::medium(), copy];
    let workloads = test_workloads();
    let store = ArtifactStore::new();
    let report = supervise_campaign(
        &cfgs,
        &workloads,
        &quick_flow(),
        &store,
        &CampaignOptions { jobs: 2, ..CampaignOptions::default() },
    );
    assert!(report.all_ok(), "{:?}", report.failure_log());
    let n = workloads.len();
    let points: u64 =
        report.cells[..n].iter().map(|c| c.outcome.as_ref().unwrap().points.len() as u64).sum();
    let s = store.stats();
    assert_eq!(s.sweep_point_stored, points, "every point is simulated once");
    assert_eq!(s.inflight_dedup_hits + s.warm_store_hits, points, "the copy reuses every point");
    let text = report.render_deterministic().replace("cell MediumCopy ", "cell MediumBOOM ");
    let cells: Vec<&str> = text.trim_end().split("\ncell ").skip(1).collect();
    assert_eq!(cells.len(), 2 * n);
    assert_eq!(cells[..n], cells[n..], "both cells render the same numbers");
}

/// Acceptance: a parallel campaign's report is identical in content and
/// ordering to the sequential one — for clean runs and for runs that
/// degrade under fault injection.
#[test]
fn parallel_campaign_report_matches_sequential() {
    let cfgs = BoomConfig::all_three();
    let workloads = test_workloads();
    let flow = quick_flow();
    let sequential = supervise_matrix_with(
        &cfgs,
        &workloads,
        &flow,
        &CampaignOptions { jobs: 1, ..CampaignOptions::default() },
    );
    let parallel = supervise_matrix_with(
        &cfgs,
        &workloads,
        &flow,
        &CampaignOptions { jobs: 4, ..CampaignOptions::default() },
    );
    assert!(sequential.all_ok());
    assert_reports_identical(&sequential, &parallel);

    // Configuration-major order: workloads iterate fastest.
    let mut expect = Vec::new();
    for cfg in &cfgs {
        for w in &workloads {
            expect.push((cfg.name.clone(), w.name));
        }
    }
    let got: Vec<_> = sequential.cells.iter().map(|c| (c.config.clone(), c.workload)).collect();
    assert_eq!(got, expect, "cells must stay in configuration-major order");
}

/// Tentpole acceptance: a dual-core co-run cell — two cores co-running
/// different workloads over one shared L2 — produces per-core IPC,
/// per-component power including the uncore, and interference counters,
/// and the whole report is bit-identical at any job count (the co-run
/// itself always interleaves both cores on one thread).
#[test]
fn dual_core_campaign_is_deterministic_across_job_counts() {
    let cfgs = vec![BoomConfig::medium()];
    let workloads = test_workloads();
    let flow = quick_flow();
    let opts = |jobs| CampaignOptions { jobs, co_runs: vec![(0, 1)], ..CampaignOptions::default() };

    let sequential = supervise_matrix_with(&cfgs, &workloads, &flow, &opts(1));
    let parallel = supervise_matrix_with(&cfgs, &workloads, &flow, &opts(4));
    assert!(sequential.all_ok(), "{:?}", sequential.failure_log());

    assert_eq!(sequential.co_cells.len(), 1);
    let cell = &sequential.co_cells[0];
    assert_eq!(cell.config, "MediumBOOM");
    assert_eq!(cell.workloads, ["Bitcount", "Dijkstra"]);
    let cores = cell.outcome.as_ref().expect("co-run must succeed");
    for core in cores.iter() {
        assert!(core.ipc > 0.0, "{}: ipc", core.workload);
        assert!(core.stats.mem.l2.reads > 0, "{}: the shared L2 must see refills", core.workload);
        assert!(
            core.power.component(Component::L2Cache).total_mw() > 0.0,
            "{}: L2 power must be modelled",
            core.workload
        );
        assert!(
            core.power.component(Component::DramInterface).total_mw() > 0.0,
            "{}: DRAM-interface power must be modelled",
            core.workload
        );
        // The interference accessors exist and are consistent with the
        // underlying counters (contention may legitimately be zero for
        // tiny workloads; bandwidth waits always occur on a shared DRAM
        // channel with co-running cores).
        assert_eq!(core.l2_contention_stalls(), core.stats.mem.l2_contention_stalls);
        assert_eq!(core.dram_bw_wait_cycles(), core.stats.mem.dram_bw_wait_cycles);
    }
    assert!(
        cores.iter().any(|c| c.dram_bw_wait_cycles() > 0),
        "co-running cores must contend for DRAM bandwidth"
    );

    // The co-run section participates in the deterministic render, and
    // the full report is bit-identical across job counts.
    let rendered = sequential.render_deterministic();
    assert!(rendered.contains("co-cell MediumBOOM Bitcount+Dijkstra ok"), "{rendered}");
    assert!(rendered.contains("l2_contention_stalls"), "{rendered}");
    assert_eq!(rendered, parallel.render_deterministic(), "co-run report must not depend on jobs");
    assert_reports_identical(&sequential, &parallel);
}

/// FNV-1a of the co-run hang report below: it pins the cycle the watchdog
/// fires at and the snapshot it takes, down to the rendered byte.
const CO_RUN_HANG_REPORT: u64 = 0xad7b_37b3_3de8_bbd4;

/// A co-run core whose commit stage never moves is caught by the core's
/// own pipeline watchdog: the cell fails as hung once the core has gone
/// 100,000 cycles without a commit.
#[test]
fn co_run_hang_fails_the_cell_as_hung() {
    let cfgs = vec![BoomConfig::medium()];
    let flow = FlowConfig {
        inject: FaultInjection { hang_point: Some(0), ..FaultInjection::default() },
        ..quick_flow()
    };
    let opts = CampaignOptions { jobs: 1, co_runs: vec![(0, 1)], ..CampaignOptions::default() };
    let report = supervise_matrix_with(&cfgs, &test_workloads(), &flow, &opts);
    assert_eq!(report.co_cells.len(), 1);
    match &report.co_cells[0].outcome {
        Err(CellFailure::Flow(FlowError::CoreHung { simpoint: 0, snapshot })) => {
            assert_eq!(snapshot.cycles_since_commit, 100_000);
            assert_eq!(snapshot.retired, 0, "core 0 never commits");
        }
        other => panic!("expected core 0 to hang, got {other:?}"),
    }
    let rendered = report.render_deterministic();
    assert!(rendered.contains("co-cell MediumBOOM Bitcount+Dijkstra failed: "), "{rendered}");
    assert_eq!(fnv1a(rendered.as_bytes()), CO_RUN_HANG_REPORT, "{rendered}");
}

/// Tentpole acceptance: batched multi-config lanes and idle-cycle
/// skipping are pure wall-clock optimizations. A campaign run with both
/// enabled — at any job count — must match the solo skip-off campaign in
/// every cell, every counter, and every byte of the deterministic
/// render; the new `batched_points` counter surfaces only in the stage
/// summary.
#[test]
fn batched_idle_skip_campaign_is_bit_identical_to_solo() {
    let cfgs = BoomConfig::all_three();
    let workloads = test_workloads();
    let solo_flow = quick_flow();
    let baseline = supervise_matrix_with(
        &cfgs,
        &workloads,
        &solo_flow,
        &CampaignOptions { jobs: 1, ..CampaignOptions::default() },
    );
    assert!(baseline.all_ok(), "{:?}", baseline.failure_log());
    let reference = baseline.render_deterministic();
    assert_eq!(baseline.stats.batched_points, 0, "no batching was requested");

    let skip_flow = FlowConfig { idle_skip: true, ..quick_flow() };
    for jobs in [1usize, 4] {
        let batched = supervise_matrix_with(
            &cfgs,
            &workloads,
            &skip_flow,
            &CampaignOptions { jobs, batch_lanes: 3, ..CampaignOptions::default() },
        );
        assert!(batched.all_ok(), "jobs {jobs}: {:?}", batched.failure_log());
        assert_reports_identical(&baseline, &batched);
        assert_eq!(
            batched.render_deterministic(),
            reference,
            "jobs {jobs}: batched+skip report must be byte-identical to solo skip-off"
        );
        assert!(
            batched.stats.batched_points > 0,
            "jobs {jobs}: a 3-config campaign with batch_lanes 3 must batch"
        );
        assert!(
            batched.stage_summary().contains("Batched lanes"),
            "jobs {jobs}: batching must surface in the stage summary:\n{}",
            batched.stage_summary()
        );
    }

    // Idle skipping alone (no batching) is equally invisible.
    let skip_only = supervise_matrix_with(
        &cfgs,
        &workloads,
        &skip_flow,
        &CampaignOptions { jobs: 2, ..CampaignOptions::default() },
    );
    assert_reports_identical(&baseline, &skip_only);
    assert_eq!(skip_only.render_deterministic(), reference);
    assert_eq!(skip_only.stats.batched_points, 0, "batch_lanes 1 must not batch");
}

/// A broken workload fails its whole column — once per workload, not once
/// per cell — while every other cell still runs, under any job count.
#[test]
fn parallel_campaign_isolates_failing_workload_column() {
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
    let cfgs = BoomConfig::all_three();
    let store = ArtifactStore::new();
    let report = supervise_campaign(
        &cfgs,
        &[broken, healthy],
        &quick_flow(),
        &store,
        &CampaignOptions { jobs: 3, ..CampaignOptions::default() },
    );
    assert_eq!(report.cells.len(), 6);
    assert_eq!(report.failed().count(), 3, "the broken workload fails in every configuration");
    for cell in &report.cells {
        match cell.workload {
            "broken" => {
                let err = cell.outcome.as_ref().unwrap_err().to_string();
                assert!(err.contains("self-verification"), "{err}");
            }
            _ => assert!(cell.outcome.is_ok(), "healthy cells must survive"),
        }
    }
    // The failing profile ran once and its error replayed to all cells.
    assert_eq!(store.stats().profile_computed, 2, "one pass each for broken and healthy");
}

/// The point memo serves campaigns as it serves sweeps and served
/// requests: a second identical campaign on one store renders the same
/// bytes without simulating a point, while a fault-injected campaign on
/// that store recomputes and degrades exactly as it does on a fresh
/// store.
#[test]
fn repeated_campaign_on_one_store_reuses_every_point() {
    let cfgs = BoomConfig::all_three();
    let workloads = test_workloads();
    let opts = CampaignOptions { jobs: 2, ..CampaignOptions::default() };
    let store = ArtifactStore::new();

    let first = supervise_campaign(&cfgs, &workloads, &quick_flow(), &store, &opts);
    assert!(first.all_ok(), "{:?}", first.failure_log());
    assert_eq!(first.stats.cache.warm_store_hits, 0, "a fresh store has nothing to reuse");
    let points: u64 =
        first.cells.iter().map(|c| c.outcome.as_ref().unwrap().points.len() as u64).sum();
    assert_eq!(first.stats.cache.sweep_point_stored, points, "every point lands in the memo");

    let second = supervise_campaign(&cfgs, &workloads, &quick_flow(), &store, &opts);
    assert_eq!(second.render_deterministic(), first.render_deterministic());
    assert_eq!(
        second.stats.cache.detailed_ms, first.stats.cache.detailed_ms,
        "the second campaign must simulate nothing"
    );
    assert_eq!(second.stats.cache.warm_store_hits, points, "every point is a warm-store hit");

    let panicking = FlowConfig {
        inject: FaultInjection { panic_point: Some(1), ..FaultInjection::default() },
        ..quick_flow()
    };
    let fresh = supervise_campaign(&cfgs, &workloads, &panicking, &ArtifactStore::new(), &opts);
    let shared = supervise_campaign(&cfgs, &workloads, &panicking, &store, &opts);
    assert!(
        shared.stats.cache.detailed_ms > second.stats.cache.detailed_ms,
        "a fault-injected campaign must not reuse clean points"
    );
    let degradation = |r: &CampaignReport| -> Vec<(String, &str, usize, u64)> {
        r.degraded()
            .map(|(c, d)| (c.config.clone(), c.workload, d.failed.len(), d.lost_weight.to_bits()))
            .collect()
    };
    assert!(!degradation(&fresh).is_empty(), "panic_point 1 must degrade some cell");
    assert_eq!(degradation(&shared), degradation(&fresh));
    assert_eq!(shared.render_deterministic(), fresh.render_deterministic());
}

/// A fully warm campaign takes every checkpoint set and point at plan
/// time and submits nothing to the pool: with a shared one-worker pool's
/// only worker parked, a second campaign over the same cells on the same
/// store still finishes, renders the same bytes, and computes nothing.
#[test]
fn warm_campaign_finishes_while_the_shared_pool_is_parked() {
    let cfgs = vec![BoomConfig::medium(), BoomConfig::large()];
    let workloads = test_workloads();
    let pool = Arc::new(WorkPool::new(1));
    let opts = CampaignOptions { pool: Some(Arc::clone(&pool)), ..CampaignOptions::default() };
    let store = ArtifactStore::new();

    let first = supervise_campaign(&cfgs, &workloads, &quick_flow(), &store, &opts);
    assert!(first.all_ok(), "{:?}", first.failure_log());
    let points: u64 =
        first.cells.iter().map(|c| c.outcome.as_ref().unwrap().points.len() as u64).sum();
    let before = store.stats();

    let (parked, release) = (Barrier::new(2), Barrier::new(2));
    let (done_tx, done_rx) = mpsc::channel();
    let (second, finished) = std::thread::scope(|s| {
        let parker = s.spawn(|| {
            pool.run_scoped(vec![()], |()| {
                parked.wait();
                release.wait();
            })
        });
        parked.wait();
        let warm = s.spawn(|| {
            let report = supervise_campaign(&cfgs, &workloads, &quick_flow(), &store, &opts);
            let _ = done_tx.send(());
            report
        });
        let finished = done_rx.recv_timeout(Duration::from_secs(20)).is_ok();
        // Unpark the worker either way, so a campaign that did queue on
        // the pool still completes and the test fails instead of hanging.
        release.wait();
        parker.join().unwrap();
        (warm.join().unwrap(), finished)
    });
    assert!(finished, "a fully warm campaign must not wait on the shared pool");
    assert_eq!(second.render_deterministic(), first.render_deterministic());

    let after = store.stats();
    assert_eq!(after.warm_store_hits - before.warm_store_hits, points, "warm-store hits");
    assert_eq!(
        after.checkpoint_hits - before.checkpoint_hits,
        workloads.len() as u64,
        "checkpoint hits"
    );
    for (what, b, a) in [
        ("profile_computed", before.profile_computed, after.profile_computed),
        ("cluster_computed", before.cluster_computed, after.cluster_computed),
        ("checkpoint_computed", before.checkpoint_computed, after.checkpoint_computed),
        ("full_run_computed", before.full_run_computed, after.full_run_computed),
        ("sweep_point_stored", before.sweep_point_stored, after.sweep_point_stored),
        ("inflight_dedup_hits", before.inflight_dedup_hits, after.inflight_dedup_hits),
    ] {
        assert_eq!(a, b, "a fully warm campaign must leave {what} unchanged");
    }
}
