//! Crash-safety tests: the disk-backed artifact cache under corruption
//! (truncations, bit flips, injected torn/corrupt writes) and the
//! resumable campaign journal (kill → resume → bit-identical report).

// Test helpers unwrap freely: a failed unwrap is exactly a test failure.
#![allow(clippy::unwrap_used)]

use boom_uarch::BoomConfig;
use boomflow::{
    campaign_fingerprint, campaign_fingerprint_with, run_simpoint_flow_with_store,
    supervise_campaign, supervise_matrix_with, ArtifactStore, CacheStage, CampaignJournal,
    CampaignOptions, DiskFaultInjection, FlowConfig, JournalError, WorkloadResult,
};
use proptest::prelude::*;
use rv_workloads::{by_name, Scale, Workload};
use simpoint::SimPointConfig;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

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
    std::env::temp_dir().join(format!("boomflow-crashsafe-{tag}-{}-{n}", std::process::id()))
}

/// Bit-level equality of everything a `WorkloadResult` reports.
fn assert_results_identical(a: &WorkloadResult, b: &WorkloadResult, what: &str) {
    assert_eq!(a.ipc.to_bits(), b.ipc.to_bits(), "{what}: ipc");
    assert_eq!(a.coverage.to_bits(), b.coverage.to_bits(), "{what}: coverage");
    assert_eq!(a.speedup.to_bits(), b.speedup.to_bits(), "{what}: speedup");
    assert_eq!(a.total_insts, b.total_insts, "{what}: total_insts");
    assert_eq!(a.points.len(), b.points.len(), "{what}: point count");
    for (i, (pa, pb)) in a.points.iter().zip(&b.points).enumerate() {
        assert_eq!(pa.interval, pb.interval, "{what}: point {i} interval");
        assert_eq!(pa.weight.to_bits(), pb.weight.to_bits(), "{what}: point {i} weight");
        assert_eq!(pa.ipc.to_bits(), pb.ipc.to_bits(), "{what}: point {i} ipc");
        assert_eq!(
            pa.stats.fingerprint(),
            pb.stats.fingerprint(),
            "{what}: point {i} activity fingerprint"
        );
    }
    for c in rtl_power::Component::ALL {
        assert_eq!(
            a.power.component(c).total_mw().to_bits(),
            b.power.component(c).total_mw().to_bits(),
            "{what}: {} power",
            c.name()
        );
    }
}

/// Cold store populates the disk cache; a brand-new store over the same
/// directory serves every front-half stage from disk, bit-identically.
#[test]
fn disk_cache_round_trips_across_store_instances() {
    let dir = scratch("roundtrip");
    let w = by_name("bitcount", Scale::Test).unwrap();
    let cfg = BoomConfig::medium();
    let flow = quick_flow();

    let cold_store = ArtifactStore::with_disk_cache(&dir).unwrap();
    let cold = run_simpoint_flow_with_store(&cfg, &w, &flow, &cold_store).unwrap();
    let cs = cold_store.stats();
    assert_eq!(cs.profile_computed, 1);
    assert_eq!(cs.disk_hits, 0, "cold run cannot hit the disk cache");
    assert!(cs.disk_misses >= 3, "profile, analysis, and checkpoints all miss cold");
    assert!(cs.disk_writes >= 3, "all three front-half stages must be persisted");

    let warm_store = ArtifactStore::with_disk_cache(&dir).unwrap();
    let warm = run_simpoint_flow_with_store(&cfg, &w, &flow, &warm_store).unwrap();
    let ws = warm_store.stats();
    assert_eq!(ws.profile_computed, 0, "warm run must load the profile from disk");
    assert_eq!(ws.cluster_computed, 0, "warm run must load the analysis from disk");
    assert_eq!(ws.checkpoint_computed, 0, "warm run must load the checkpoints from disk");
    assert!(ws.disk_hits >= 3, "all three stages must be disk hits, got {}", ws.disk_hits);
    assert_results_identical(&cold, &warm, "cold vs disk-warm");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Injected torn and corrupt writes poison the cache once; the next
/// store quarantines the damage, recomputes, and heals the cache —
/// results stay bit-identical throughout.
#[test]
fn injected_write_faults_quarantine_and_recompute() {
    let dir = scratch("faults");
    let w = by_name("bitcount", Scale::Test).unwrap();
    let cfg = BoomConfig::medium();
    let flow = quick_flow();

    let faults = DiskFaultInjection {
        torn_write: Some(CacheStage::Profile),
        corrupt_write: Some(CacheStage::Checkpoints),
    };
    let poisoned = ArtifactStore::with_disk_cache_injected(&dir, faults).unwrap();
    let reference = run_simpoint_flow_with_store(&cfg, &w, &flow, &poisoned).unwrap();

    let healer = ArtifactStore::with_disk_cache(&dir).unwrap();
    let healed = run_simpoint_flow_with_store(&cfg, &w, &flow, &healer).unwrap();
    let hs = healer.stats();
    assert!(hs.disk_quarantined >= 2, "torn profile and corrupt checkpoints must quarantine");
    assert!(hs.disk_writes >= 2, "quarantined stages must be recomputed and re-stored");
    assert_results_identical(&reference, &healed, "poisoned vs healed");
    assert!(
        std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .any(|e| { e.path().extension().is_some_and(|x| x == "corrupt") }),
        "quarantined entries must be preserved as .corrupt files"
    );

    let warm = ArtifactStore::with_disk_cache(&dir).unwrap();
    let again = run_simpoint_flow_with_store(&cfg, &w, &flow, &warm).unwrap();
    assert_eq!(warm.stats().disk_quarantined, 0, "the cache must be healed");
    assert!(warm.stats().disk_hits >= 3);
    assert_results_identical(&reference, &again, "poisoned vs healed-warm");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A replayed cached `FlowError` keeps its original failure context and
/// is counted as an error replay, and errors are never persisted to
/// disk (a transient failure must not poison future processes).
#[test]
fn cached_errors_replay_with_context_and_never_persist() {
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
    let dir = scratch("errs");
    let store = ArtifactStore::with_disk_cache(&dir).unwrap();
    let flow = quick_flow();
    let first = store.checkpoints(&broken, &flow).unwrap_err();
    let second = store.checkpoints(&broken, &flow).unwrap_err();
    assert_eq!(first.to_string(), second.to_string(), "replay must keep the failure context");
    let s = store.stats();
    assert_eq!(s.profile_computed, 1, "the failing profile ran once");
    assert!(s.error_replays >= 1, "the second call must be tagged as an error replay");
    assert_eq!(s.disk_writes, 0, "errors must never be persisted to the disk cache");

    let fresh = ArtifactStore::with_disk_cache(&dir).unwrap();
    let third = fresh.checkpoints(&broken, &flow).unwrap_err();
    assert_eq!(first.to_string(), third.to_string());
    assert_eq!(fresh.stats().profile_computed, 1, "a new process recomputes the error");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Offsets where journal records end: header is 16 bytes, records are
/// `[len u32][payload][checksum u64]`.
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

/// The acceptance scenario: a campaign interrupted mid-run resumes from
/// its journal — at `--jobs 1` and `--jobs 4` — and produces a report
/// bit-identical to an uninterrupted run, replaying the journaled
/// points instead of re-simulating them.
#[test]
fn resumed_campaign_report_is_bit_identical_to_uninterrupted() {
    let cfgs = vec![BoomConfig::medium(), BoomConfig::large()];
    let workloads =
        vec![by_name("bitcount", Scale::Test).unwrap(), by_name("dijkstra", Scale::Test).unwrap()];
    let flow = quick_flow();
    let fp = campaign_fingerprint(&cfgs, &workloads, &flow);
    let path = scratch("journal");

    let uninterrupted = supervise_matrix_with(
        &cfgs,
        &workloads,
        &flow,
        &CampaignOptions { jobs: 1, ..CampaignOptions::default() },
    );
    assert!(uninterrupted.all_ok());
    let reference = uninterrupted.render_deterministic();

    // Journal a full run, then cut the journal back to a prefix — the
    // on-disk state of a process killed partway through the campaign.
    let journal = CampaignJournal::create(&path, fp).unwrap();
    let journaled = supervise_campaign(
        &cfgs,
        &workloads,
        &flow,
        &ArtifactStore::new(),
        &CampaignOptions {
            jobs: 1,
            journal: Some(Arc::new(journal)),
            ..CampaignOptions::default()
        },
    );
    assert_eq!(journaled.render_deterministic(), reference, "journaling must not perturb");
    let full = std::fs::read(&path).unwrap();
    let ends = journal_record_ends(&full);
    assert!(ends.len() >= 4, "matrix must yield at least 4 points, got {}", ends.len());
    let keep = ends.len() / 2;

    for jobs in [1usize, 4] {
        std::fs::write(&path, &full[..ends[keep - 1]]).unwrap();
        let (journal, replay) = CampaignJournal::resume(&path, fp).unwrap();
        assert_eq!(replay.len(), keep, "every surviving record must replay");
        let resumed = supervise_campaign(
            &cfgs,
            &workloads,
            &flow,
            &ArtifactStore::new(),
            &CampaignOptions {
                jobs,
                journal: Some(Arc::new(journal)),
                replay: Some(Arc::new(replay)),
                ..CampaignOptions::default()
            },
        );
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

    // A journal from a different campaign setup is refused, not replayed.
    let mut other = quick_flow();
    other.warmup_insts += 1;
    let other_fp = campaign_fingerprint(&cfgs, &workloads, &other);
    assert!(matches!(
        CampaignJournal::resume(&path, other_fp),
        Err(JournalError::FingerprintMismatch { .. })
    ));
    let _ = std::fs::remove_file(&path);
}

/// `--resume` on a journal that does not exist yet is a fresh run: the
/// campaign and the sweep each write the report bytes of a run without
/// a journal, and leave a journal behind that resumes into them again.
#[test]
fn resume_on_a_missing_journal_is_a_fresh_run() {
    let dir = scratch("missing-journal");
    std::fs::create_dir_all(&dir).unwrap();
    let boomflow = |args: &[&str], out: &str| {
        let out = dir.join(out);
        let full = [args, &["--jobs", "1", "--report-out", out.to_str().unwrap()]].concat();
        let run = std::process::Command::new(env!("CARGO_BIN_EXE_boomflow"))
            .args(&full)
            .output()
            .unwrap();
        assert!(run.status.success(), "{full:?}: {}", String::from_utf8_lossy(&run.stderr));
        std::fs::read(out).unwrap()
    };
    let campaign = ["--workload", "bitcount,sha", "--config", "medium", "--scale", "test"];
    let sweep = ["sweep", "--grid-preset", "smoke16", "--workload", "bitcount", "--scale", "test"];
    for (i, args) in [&campaign[..], &sweep].into_iter().enumerate() {
        let journal = dir.join(format!("j{i}"));
        let journal = journal.to_str().unwrap();
        let plain = boomflow(args, "plain");
        let resumed = [args, &["--journal", journal, "--resume"]].concat();
        assert_eq!(boomflow(&resumed, "fresh"), plain, "{args:?}: a missing journal");
        assert_eq!(boomflow(&resumed, "again"), plain, "{args:?}: the journal it left");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A batched + idle-skip campaign journals per-(cell, point) records
/// exactly like a solo one — the campaign fingerprint deliberately
/// excludes both knobs — so a run killed partway resumes into a
/// bit-identical report in *either* mode: batched resuming batched, and
/// an unbatched skip-off process picking up a batched run's journal.
#[test]
fn batched_campaign_resumes_bit_identically_across_modes() {
    let cfgs = vec![BoomConfig::medium(), BoomConfig::large(), BoomConfig::mega()];
    let workloads =
        vec![by_name("bitcount", Scale::Test).unwrap(), by_name("dijkstra", Scale::Test).unwrap()];
    let solo_flow = quick_flow();
    let skip_flow = FlowConfig { idle_skip: true, ..quick_flow() };
    assert_eq!(
        campaign_fingerprint(&cfgs, &workloads, &solo_flow),
        campaign_fingerprint(&cfgs, &workloads, &skip_flow),
        "idle_skip must not enter the campaign fingerprint (journals resume across modes)"
    );
    let fp = campaign_fingerprint(&cfgs, &workloads, &solo_flow);
    let path = scratch("batched");

    let reference = supervise_matrix_with(
        &cfgs,
        &workloads,
        &solo_flow,
        &CampaignOptions { jobs: 1, ..CampaignOptions::default() },
    );
    assert!(reference.all_ok());
    let reference = reference.render_deterministic();

    // Journal a full batched + idle-skip run, then cut it back to the
    // on-disk prefix of a killed process.
    let journal = CampaignJournal::create(&path, fp).unwrap();
    let journaled = supervise_campaign(
        &cfgs,
        &workloads,
        &skip_flow,
        &ArtifactStore::new(),
        &CampaignOptions {
            jobs: 2,
            batch_lanes: 3,
            journal: Some(Arc::new(journal)),
            ..CampaignOptions::default()
        },
    );
    assert!(journaled.stats.batched_points > 0, "the journaled run must actually batch");
    assert_eq!(journaled.render_deterministic(), reference, "batched journaling must not perturb");
    let full = std::fs::read(&path).unwrap();
    let ends = journal_record_ends(&full);
    assert!(ends.len() >= 4, "matrix must yield at least 4 points, got {}", ends.len());
    let keep = ends.len() / 2;

    // Resume in batched mode and in solo skip-off mode; both must land on
    // the reference bytes. (Batching only groups the *unfilled* lanes, so
    // a half-replayed matrix still batches whatever is left.)
    let modes: [(&str, &FlowConfig, usize); 2] =
        [("batched", &skip_flow, 3), ("solo", &solo_flow, 1)];
    for (name, flow, batch_lanes) in modes {
        std::fs::write(&path, &full[..ends[keep - 1]]).unwrap();
        let (journal, replay) = CampaignJournal::resume(&path, fp).unwrap();
        assert_eq!(replay.len(), keep, "{name}: every surviving record must replay");
        let resumed = supervise_campaign(
            &cfgs,
            &workloads,
            flow,
            &ArtifactStore::new(),
            &CampaignOptions {
                jobs: 2,
                batch_lanes,
                journal: Some(Arc::new(journal)),
                replay: Some(Arc::new(replay)),
                ..CampaignOptions::default()
            },
        );
        assert_eq!(resumed.stats.replayed_points, keep as u64, "{name}");
        assert_eq!(
            resumed.render_deterministic(),
            reference,
            "{name}: resumed report must be bit-identical to the uninterrupted solo run"
        );
        assert_eq!(
            journal_record_ends(&std::fs::read(&path).unwrap()).len(),
            ends.len(),
            "{name}: resume must re-journal the recomputed points"
        );
    }
    let _ = std::fs::remove_file(&path);
}

/// Quarantined (degraded) points replay from the journal with weight
/// re-normalization intact: a resumed degraded campaign matches the
/// uninterrupted degraded campaign bit for bit.
#[test]
fn degraded_campaign_resumes_bit_identically() {
    use boomflow::{FaultInjection, RetryPolicy};
    let cfgs = vec![BoomConfig::medium()];
    let workloads = vec![by_name("bitcount", Scale::Test).unwrap()];
    let flow = FlowConfig {
        inject: FaultInjection { hang_point: Some(0), ..FaultInjection::default() },
        retry: RetryPolicy { max_attempts: 1, ..RetryPolicy::default() },
        ..quick_flow()
    };
    let fp = campaign_fingerprint(&cfgs, &workloads, &flow);
    let path = scratch("degraded");

    let reference = supervise_matrix_with(
        &cfgs,
        &workloads,
        &flow,
        &CampaignOptions { jobs: 1, ..CampaignOptions::default() },
    );
    let journal = CampaignJournal::create(&path, fp).unwrap();
    let journaled = supervise_campaign(
        &cfgs,
        &workloads,
        &flow,
        &ArtifactStore::new(),
        &CampaignOptions {
            jobs: 1,
            journal: Some(Arc::new(journal)),
            ..CampaignOptions::default()
        },
    );
    assert_eq!(journaled.render_deterministic(), reference.render_deterministic());
    assert!(
        reference.render_deterministic().contains("quarantined"),
        "the hang injection must actually degrade the campaign"
    );

    // Cut nothing: replay *everything*, including the quarantined point.
    let (journal, replay) = CampaignJournal::resume(&path, fp).unwrap();
    assert!(!replay.is_empty());
    let n = replay.len() as u64;
    let resumed = supervise_campaign(
        &cfgs,
        &workloads,
        &flow,
        &ArtifactStore::new(),
        &CampaignOptions {
            jobs: 1,
            journal: Some(Arc::new(journal)),
            replay: Some(Arc::new(replay)),
            ..CampaignOptions::default()
        },
    );
    assert_eq!(resumed.stats.replayed_points, n);
    assert_eq!(resumed.render_deterministic(), reference.render_deterministic());
    let _ = std::fs::remove_file(&path);
}

/// A dual-core campaign journals its co-run outcomes too: a run killed
/// partway — whether it lost one co-run core, or the whole co cell plus
/// some single-core points — resumes at any job count into a report
/// bit-identical to the uninterrupted run.
#[test]
fn dual_core_campaign_resumes_bit_identically() {
    let cfgs = vec![BoomConfig::medium()];
    let workloads =
        vec![by_name("bitcount", Scale::Test).unwrap(), by_name("dijkstra", Scale::Test).unwrap()];
    let flow = quick_flow();
    let co_runs = vec![(0usize, 1usize)];
    let fp = campaign_fingerprint_with(&cfgs, &workloads, &flow, &co_runs);
    let path = scratch("dualcore");
    let opts = |jobs, journal, replay| CampaignOptions {
        jobs,
        journal,
        replay,
        co_runs: co_runs.clone(),
        ..CampaignOptions::default()
    };

    // Adding a co-run changes the campaign identity: a journal written
    // without it must be refused, not partially replayed.
    assert_ne!(fp, campaign_fingerprint(&cfgs, &workloads, &flow));

    let reference = supervise_matrix_with(&cfgs, &workloads, &flow, &opts(1, None, None));
    assert!(reference.all_ok(), "{:?}", reference.failure_log());
    assert_eq!(reference.co_cells.len(), 1);
    let reference = reference.render_deterministic();

    let journal = CampaignJournal::create(&path, fp).unwrap();
    let journaled = supervise_campaign(
        &cfgs,
        &workloads,
        &flow,
        &ArtifactStore::new(),
        &opts(1, Some(Arc::new(journal)), None),
    );
    assert_eq!(journaled.render_deterministic(), reference, "journaling must not perturb");
    let full = std::fs::read(&path).unwrap();
    let ends = journal_record_ends(&full);
    assert!(ends.len() >= 4, "single-core points plus two co-run cores, got {}", ends.len());

    // Cut 1 drops only the last co-run core; cut 2 drops the whole co
    // cell and part of the single-core matrix.
    for (keep, jobs) in [(ends.len() - 1, 1usize), (ends.len() / 2, 4)] {
        std::fs::write(&path, &full[..ends[keep - 1]]).unwrap();
        let (journal, replay) = CampaignJournal::resume(&path, fp).unwrap();
        assert_eq!(replay.len(), keep);
        let resumed = supervise_campaign(
            &cfgs,
            &workloads,
            &flow,
            &ArtifactStore::new(),
            &opts(jobs, Some(Arc::new(journal)), Some(Arc::new(replay))),
        );
        assert_eq!(resumed.stats.replayed_points, keep as u64, "keep {keep} jobs {jobs}");
        assert_eq!(
            resumed.render_deterministic(),
            reference,
            "resumed dual-core report (keep {keep}, jobs {jobs}) must be bit-identical"
        );
        assert_eq!(
            journal_record_ends(&std::fs::read(&path).unwrap()).len(),
            ends.len(),
            "keep {keep} jobs {jobs}: resume must re-journal the recomputed points"
        );
    }

    // The pre-co-run fingerprint is refused outright.
    std::fs::write(&path, &full).unwrap();
    assert!(matches!(
        CampaignJournal::resume(&path, campaign_fingerprint(&cfgs, &workloads, &flow)),
        Err(JournalError::FingerprintMismatch { .. })
    ));
    let _ = std::fs::remove_file(&path);
}

/// Shared fixture for the corruption property: one populated cache
/// directory plus the reference result. Mutated entries quarantine and
/// recompute, which re-stores a good file, so the directory self-heals
/// between cases.
struct CorruptionFixture {
    dir: PathBuf,
    reference: WorkloadResult,
}

fn corruption_fixture() -> &'static CorruptionFixture {
    static FIXTURE: OnceLock<CorruptionFixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dir = scratch("prop");
        let w = by_name("bitcount", Scale::Test).unwrap();
        let store = ArtifactStore::with_disk_cache(&dir).unwrap();
        let reference =
            run_simpoint_flow_with_store(&BoomConfig::medium(), &w, &quick_flow(), &store).unwrap();
        CorruptionFixture { dir, reference }
    })
}

fn cache_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "bfa"))
        .collect();
    files.sort();
    files
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Satellite: whatever single mutilation a cache file suffers —
    /// truncation anywhere (including a zero-byte mid-write kill) or a
    /// bit flip anywhere — the flow quarantines the damage and
    /// recomputes. It never serves a wrong artifact and never aborts.
    #[test]
    fn corrupted_cache_entries_quarantine_never_corrupt_results(
        which in 0usize..3,
        truncate in any::<bool>(),
        frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let fixture = corruption_fixture();
        let files = cache_files(&fixture.dir);
        prop_assert_eq!(files.len(), 3, "profile, analysis, checkpoints");
        let victim = &files[which % files.len()];
        let original = std::fs::read(victim).unwrap();
        let mutated = if truncate {
            original[..(original.len() as f64 * frac) as usize].to_vec()
        } else {
            let mut m = original.clone();
            let idx = ((m.len() - 1) as f64 * frac) as usize;
            m[idx] ^= 1 << bit;
            m
        };
        let changed = mutated != original;
        std::fs::write(victim, &mutated).unwrap();

        let store = ArtifactStore::with_disk_cache(&fixture.dir).unwrap();
        let result = run_simpoint_flow_with_store(
            &BoomConfig::medium(),
            &by_name("bitcount", Scale::Test).unwrap(),
            &quick_flow(),
            &store,
        )
        .unwrap();
        assert_results_identical(&fixture.reference, &result, "corrupted cache");
        let s = store.stats();
        if changed {
            prop_assert!(
                s.disk_quarantined >= 1,
                "a damaged entry must be quarantined, not silently used"
            );
        }
        // Self-heal check: the victim file is valid again.
        let healed = ArtifactStore::with_disk_cache(&fixture.dir).unwrap();
        let again = run_simpoint_flow_with_store(
            &BoomConfig::medium(),
            &by_name("bitcount", Scale::Test).unwrap(),
            &quick_flow(),
            &healed,
        )
        .unwrap();
        assert_results_identical(&fixture.reference, &again, "healed cache");
        prop_assert_eq!(healed.stats().disk_quarantined, 0);
    }
}
