//! Adaptive-sweep tests: grid generation and clamp-collision dedup, the
//! determinism contract (`--jobs` invariance, kill → resume
//! bit-identity), adaptive-vs-exhaustive frontier identity with a
//! detailed-cycle reduction floor, spec validation, and the idle-skip
//! auto-arm precondition.

// Test helpers unwrap freely: a failed unwrap is exactly a test failure.
#![allow(clippy::unwrap_used)]

use boom_uarch::{BoomConfig, ConfigError, HierarchyParams, MemBackendKind};
use boomflow::{
    admit, all_fixed_latency, run_sweep, ArtifactStore, FaultInjection, FlowConfig, SweepKnob,
    SweepOptions, SweepSpec,
};
use rv_workloads::{by_name, Scale, Workload};
use simpoint::SimPointConfig;
use std::path::PathBuf;

fn quick_flow() -> FlowConfig {
    FlowConfig {
        simpoint: SimPointConfig { max_k: 6, restarts: 2, ..SimPointConfig::default() },
        warmup_insts: 1_000,
        max_profile_insts: 500_000_000,
        ..FlowConfig::default()
    }
}

fn scratch(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("boomflow-sweep-{tag}-{}-{n}", std::process::id()))
}

/// An 8-point grid over the knobs the reference grid exercises, small
/// enough for in-process tests.
fn small_grid() -> Vec<BoomConfig> {
    SweepSpec {
        base: BoomConfig::medium(),
        axes: vec![
            (SweepKnob::FetchWidth, vec![4, 8]),
            (SweepKnob::Rob, vec![32, 64]),
            (SweepKnob::DcacheWays, vec![1, 4]),
        ],
        random: None,
    }
    .generate()
    .unwrap()
}

fn workloads() -> Vec<Workload> {
    vec![by_name("bitcount", Scale::Test).unwrap(), by_name("dijkstra", Scale::Test).unwrap()]
}

/// Framed journal record end offsets (header is 16 bytes; each record is
/// a u32 length + payload + 8-byte checksum).
fn journal_record_ends(bytes: &[u8]) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut pos = 16;
    while pos + 4 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let end = pos + 4 + len + 8;
        if end > bytes.len() {
            break;
        }
        ends.push(end);
        pos = end;
    }
    ends
}

/// Clamping collides distinct grid points onto one configuration, and
/// admission folds them by fingerprint: an issue-width axis wider than
/// the decode width yields one admitted config, and a sweep over the
/// colliding grid simulates exactly one configuration per workload.
#[test]
fn clamp_collided_grid_points_fold_at_admission() {
    // MediumBOOM decodes 2-wide, so int-issue 2, 4, and 8 all clamp to 2.
    let spec = SweepSpec {
        base: BoomConfig::medium(),
        axes: vec![(SweepKnob::IntIssueWidth, vec![2, 4, 8])],
        random: None,
    };
    let cfgs = spec.generate().unwrap();
    assert_eq!(cfgs.len(), 3, "generation keeps every grid point");
    assert!(cfgs.iter().all(|c| c.int_issue_width == 2), "all clamp to decode width");
    assert!(cfgs.iter().all(|c| c.name == cfgs[0].name), "post-clamp names collide");

    let (unique, folded) = admit(cfgs.clone());
    assert_eq!(unique.len(), 1);
    assert_eq!(folded, 2);

    // The scheduler admits by fingerprint, not grid index: the sweep
    // runs one configuration, not three.
    let wl = vec![by_name("bitcount", Scale::Test).unwrap()];
    let report =
        run_sweep(&cfgs, &wl, &quick_flow(), &ArtifactStore::new(), &SweepOptions::default())
            .unwrap();
    assert!(report.all_ok());
    assert_eq!(report.configs.len(), 1, "one admitted configuration");
    assert_eq!(report.folded, 2, "the report records the folded duplicates");
    assert_eq!(report.cells.len(), 1, "one surviving cell, not three");
}

/// The deterministic report — configs, rung history, every cell, and
/// the frontier — is byte-identical across `--jobs` settings and across
/// batched (shared micro-op table) and solo lanes.
#[test]
fn sweep_report_is_jobs_invariant() {
    let cfgs = small_grid();
    let wls = workloads();
    let flow = quick_flow();

    let run = |jobs: usize, batch_lanes: usize| {
        run_sweep(
            &cfgs,
            &wls,
            &flow,
            &ArtifactStore::new(),
            &SweepOptions { jobs, batch_lanes, ..SweepOptions::default() },
        )
        .unwrap()
    };
    let solo = run(1, 1);
    assert!(solo.all_ok());
    assert_eq!(solo.stats.batched_points, 0, "batch_lanes 1 must not batch");
    let reference = solo.render_deterministic();

    for (jobs, batch_lanes) in [(4, 1), (1, 4), (4, 4)] {
        let other = run(jobs, batch_lanes);
        assert_eq!(
            other.render_deterministic(),
            reference,
            "jobs {jobs}, batch_lanes {batch_lanes}: must render byte-identically to \
             jobs 1, batch_lanes 1"
        );
        if batch_lanes > 1 {
            assert!(other.stats.batched_points > 0, "an 8-config rung with batch_lanes 4 batches");
        }
    }
}

/// Regression: the point memo is keyed by every input that changes an
/// outcome, so a sweep on a store that already ran a fault-injected or a
/// differently clustered sweep renders exactly what the same sweep
/// renders on a fresh store — no stale degraded or mis-clustered point
/// leaks in.
#[test]
fn sweeps_sharing_a_store_render_as_on_a_fresh_store() {
    let cfgs = small_grid();
    let wls = workloads();
    let opts = SweepOptions { jobs: 2, ..SweepOptions::default() };
    let panicking = FlowConfig {
        inject: FaultInjection { panic_point: Some(0), ..FaultInjection::default() },
        ..quick_flow()
    };
    let max_k3 = FlowConfig {
        simpoint: SimPointConfig { max_k: 3, restarts: 2, ..SimPointConfig::default() },
        ..quick_flow()
    };
    for (what, first, second) in [
        ("panic_point 0, then clean", panicking, quick_flow()),
        ("max_k 6, then 3", quick_flow(), max_k3),
    ] {
        let fresh = run_sweep(&cfgs, &wls, &second, &ArtifactStore::new(), &opts).unwrap();
        let store = ArtifactStore::new();
        run_sweep(&cfgs, &wls, &first, &store, &opts).unwrap();
        let shared = run_sweep(&cfgs, &wls, &second, &store, &opts).unwrap();
        assert_eq!(
            shared.render_deterministic(),
            fresh.render_deterministic(),
            "{what}: the second sweep must render as on a fresh store"
        );
    }
}

/// A sweep killed partway through resumes from its journal — at any job
/// count — and produces a report bit-identical to an uninterrupted run,
/// replaying the journaled points instead of re-simulating them.
#[test]
fn killed_sweep_resumes_bit_identically() {
    let cfgs = small_grid();
    let wls = workloads();
    let flow = quick_flow();
    let path = scratch("journal");

    let uninterrupted = run_sweep(
        &cfgs,
        &wls,
        &flow,
        &ArtifactStore::new(),
        &SweepOptions { jobs: 1, ..SweepOptions::default() },
    )
    .unwrap();
    assert!(uninterrupted.all_ok());
    let reference = uninterrupted.render_deterministic();

    // Journal a full run, then cut the journal back to a prefix — the
    // on-disk state of a process killed mid-rung.
    let journaled = run_sweep(
        &cfgs,
        &wls,
        &flow,
        &ArtifactStore::new(),
        &SweepOptions { jobs: 1, journal_path: Some(path.clone()), ..SweepOptions::default() },
    )
    .unwrap();
    assert_eq!(journaled.render_deterministic(), reference, "journaling must not perturb");
    let full = std::fs::read(&path).unwrap();
    let ends = journal_record_ends(&full);
    assert!(ends.len() >= 4, "sweep must journal at least 4 points, got {}", ends.len());
    let keep = ends.len() / 2;

    for jobs in [1usize, 4] {
        std::fs::write(&path, &full[..ends[keep - 1]]).unwrap();
        let resumed = run_sweep(
            &cfgs,
            &wls,
            &flow,
            &ArtifactStore::new(),
            &SweepOptions {
                jobs,
                journal_path: Some(path.clone()),
                resume: true,
                ..SweepOptions::default()
            },
        )
        .unwrap();
        assert_eq!(resumed.stats.replayed_points, keep as u64, "jobs {jobs}");
        assert_eq!(
            resumed.render_deterministic(),
            reference,
            "resumed report (jobs {jobs}) must be bit-identical to the uninterrupted run"
        );
        // After the resumed run the journal must be whole again.
        assert_eq!(
            journal_record_ends(&std::fs::read(&path).unwrap()).len(),
            ends.len(),
            "jobs {jobs}: resume must re-journal the recomputed points"
        );
    }
}

/// The acceptance property at test scale: the adaptive sweep's Pareto
/// frontier is byte-identical to the exhaustive full-budget frontier
/// while spending a fraction of the detailed-sim cycles, and the rung
/// history shows real elimination (not a degenerate promote-everything
/// run).
#[test]
fn adaptive_frontier_matches_exhaustive_at_a_fraction_of_the_cycles() {
    let cfgs = small_grid();
    let wls = workloads();
    let flow = quick_flow();

    let exhaustive = run_sweep(
        &cfgs,
        &wls,
        &flow,
        &ArtifactStore::new(),
        &SweepOptions { jobs: 2, exhaustive: true, ..SweepOptions::default() },
    )
    .unwrap();
    assert!(exhaustive.all_ok());
    assert_eq!(exhaustive.rungs.len(), 1, "exhaustive mode is a single full rung");
    assert_eq!(exhaustive.rungs[0].eliminated, 0, "exhaustive mode never eliminates");

    let adaptive = run_sweep(
        &cfgs,
        &wls,
        &flow,
        &ArtifactStore::new(),
        &SweepOptions { jobs: 2, ..SweepOptions::default() },
    )
    .unwrap();
    assert!(adaptive.all_ok());

    assert_eq!(
        adaptive.render_frontier(),
        exhaustive.render_frontier(),
        "adaptive frontier must be byte-identical to the exhaustive frontier"
    );
    let eliminated: usize = adaptive.rungs.iter().map(|r| r.eliminated).sum();
    assert!(eliminated > 0, "successive halving must eliminate something");
    // The short point ladders of test-scale workloads leave less room
    // for halving than the reference grid (benched at ≥ 5×); still, the
    // adaptive run must come in well under the exhaustive cost.
    let (ada, exh) = (adaptive.stats.detailed_cycles, exhaustive.stats.detailed_cycles);
    assert!(
        ada * 3 <= exh * 2,
        "adaptive sweep must cost at most 2/3 of the exhaustive cycles (got {ada} vs {exh})"
    );
    let reused: u64 = adaptive.rungs.iter().map(|r| r.reused_points).sum();
    assert!(reused > 0, "promoted configs must reuse lower-rung points, not resimulate");
}

/// Spec validation flows through the standard typed-config-error path.
#[test]
fn sweep_spec_validation_uses_config_errors() {
    let empty = SweepSpec { base: BoomConfig::medium(), axes: vec![], random: None };
    assert!(matches!(empty.generate(), Err(ConfigError::Zero { .. })));

    let hollow_axis = SweepSpec {
        base: BoomConfig::medium(),
        axes: vec![(SweepKnob::Rob, vec![])],
        random: None,
    };
    assert!(matches!(hollow_axis.generate(), Err(ConfigError::Zero { .. })));

    assert_eq!(SweepKnob::parse("fetch-width"), Some(SweepKnob::FetchWidth));
    assert_eq!(SweepKnob::parse("bp-shift"), Some(SweepKnob::BpShift));
    assert_eq!(SweepKnob::parse("bogus-knob"), None);
}

/// Idle-cycle skipping auto-arms only when every configuration in the
/// sweep uses the flat fixed-latency memory backend.
#[test]
fn idle_skip_auto_arm_requires_fixed_latency_everywhere() {
    let mut cfgs = small_grid();
    assert!(all_fixed_latency(&cfgs), "preset grids use the flat backend");

    cfgs[0].mem_backend = MemBackendKind::Hierarchy(HierarchyParams::default_uncore());
    assert!(
        !all_fixed_latency(&cfgs),
        "one hierarchy-backed configuration must disarm idle skipping"
    );
}
