//! The paper's eight key takeaways and headline evaluation claims,
//! asserted as integration tests over the full flow.
//!
//! These read one shared `Scale::Test` campaign over the paper's matrix
//! (plus a few `Scale::Small` and gshare runs), so the whole file
//! finishes in seconds; the `paper` bench re-checks the ordering claims
//! at evaluation scale.

// Test helpers may unwrap freely; `allow-unwrap-in-tests` only covers
// `#[test]` fns, not the helpers integration tests share.
#![allow(clippy::unwrap_used)]

use boom_uarch::{BoomConfig, Core, PredictorKind};
use boomflow::{
    run_simpoint_flow, supervise_campaign, ArtifactStore, CampaignOptions, CampaignReport,
    FlowConfig, WorkloadResult,
};
use rtl_power::{estimate_core, Component};
use rv_workloads::{all, by_name, Scale};
use std::sync::OnceLock;

/// Every workload on every paper configuration at test scale, simulated
/// once and shared by every test of this file.
fn matrix() -> &'static CampaignReport {
    static MATRIX: OnceLock<CampaignReport> = OnceLock::new();
    MATRIX.get_or_init(|| {
        supervise_campaign(
            &BoomConfig::all_three(),
            &all(Scale::Test),
            &FlowConfig::default(),
            &ArtifactStore::new(),
            &CampaignOptions::default(),
        )
    })
}

/// The results of `cfg`'s cells, in workload order.
fn cells(cfg: &BoomConfig) -> impl Iterator<Item = &'static WorkloadResult> + '_ {
    matrix().cells.iter().filter(|c| c.config == cfg.name).map(|c| &**c.outcome.as_ref().unwrap())
}

fn flow(cfg: &BoomConfig, name: &str) -> WorkloadResult {
    cells(cfg).find(|r| r.name.eq_ignore_ascii_case(name)).unwrap().clone()
}

fn mean_component(cfg: &BoomConfig, c: Component) -> f64 {
    let powers: Vec<f64> = cells(cfg).map(|r| r.power.component(c).total_mw()).collect();
    powers.iter().sum::<f64>() / powers.len() as f64
}

/// Key Takeaway #1: integer register file power varies dramatically across
/// configurations, driven by the non-linear bypass network growth.
#[test]
fn kt1_int_regfile_grows_superlinearly() {
    let m = mean_component(&BoomConfig::medium(), Component::IntRegFile);
    let l = mean_component(&BoomConfig::large(), Component::IntRegFile);
    let g = mean_component(&BoomConfig::mega(), Component::IntRegFile);
    assert!(l > 1.5 * m, "Large {l:.2} vs Medium {m:.2}");
    assert!(g > 4.0 * l, "Mega {g:.2} vs Large {l:.2} (paper: ~6.7x)");
}

/// Key Takeaway #2: the FP register file is nearly free on the small
/// configs but has a large, mostly-static floor on MegaBOOM even for
/// integer-only code (2x ports).
#[test]
fn kt2_fp_regfile_static_floor_on_mega() {
    // Bitcount never touches FP registers.
    let m = flow(&BoomConfig::medium(), "bitcount");
    let g = flow(&BoomConfig::mega(), "bitcount");
    let pm = m.power.component(Component::FpRegFile);
    let pg = g.power.component(Component::FpRegFile);
    assert!(pg.total_mw() > 5.0 * pm.total_mw(), "{} vs {}", pg.total_mw(), pm.total_mw());
    // ...and that Mega floor is almost entirely leakage.
    assert!(
        pg.leakage_mw > 0.9 * pg.total_mw(),
        "leakage {:.3} of total {:.3}",
        pg.leakage_mw,
        pg.total_mw()
    );
}

/// Key Takeaway #3: the FP rename unit burns power on every branch (the
/// allocation-list snapshots) even when no FP instruction executes.
#[test]
fn kt3_fp_rename_burns_power_without_fp_code() {
    let r = flow(&BoomConfig::large(), "bitcount"); // integer-only
    let fp_rename = r.power.component(Component::FpRename).total_mw();
    let fp_rf = r.power.component(Component::FpRegFile).total_mw();
    assert!(
        fp_rename > 2.0 * fp_rf,
        "FP rename {fp_rename:.2} should dwarf FP RF {fp_rf:.2} on int code"
    );
    // Snapshot switching must be a visible share of it.
    assert!(r.power.component(Component::FpRename).switching_mw > 0.0);
}

/// Key Takeaway #4: the integer issue unit is the largest of the three
/// scheduler queues, and the scheduler collectively is second only to the
/// branch predictor.
#[test]
fn kt4_scheduler_is_second_hotspot() {
    let cfg = BoomConfig::mega();
    let int_iq = mean_component(&cfg, Component::IntIssue);
    let mem_iq = mean_component(&cfg, Component::MemIssue);
    let fp_iq = mean_component(&cfg, Component::FpIssue);
    assert!(int_iq > mem_iq && int_iq > fp_iq, "int {int_iq:.2} mem {mem_iq:.2} fp {fp_iq:.2}");
    let scheduler = int_iq + mem_iq + fp_iq;
    let bp = mean_component(&cfg, Component::BranchPredictor);
    // Scheduler beats every non-BP analyzed component.
    for c in Component::ANALYZED {
        if matches!(
            c,
            Component::IntIssue
                | Component::MemIssue
                | Component::FpIssue
                | Component::BranchPredictor
        ) {
            continue;
        }
        let v = mean_component(&cfg, c);
        assert!(scheduler > v, "scheduler {scheduler:.2} vs {c} {v:.2}");
    }
    assert!(bp > scheduler * 0.5, "BP {bp:.2} should lead scheduler {scheduler:.2}");
}

/// Key Takeaway #4 (Fig. 8 contrast): Dijkstra keeps the integer issue
/// queue fuller — and hotter — than Sha despite much lower IPC.
#[test]
fn kt4_dijkstra_occupancy_beats_sha() {
    let cfg = BoomConfig::mega();
    let d = flow(&cfg, "dijkstra");
    let s = flow(&cfg, "sha");
    assert!(d.ipc < s.ipc, "dijkstra {:.2} vs sha {:.2}", d.ipc, s.ipc);
    let occ = |r: &WorkloadResult| -> f64 {
        r.points.iter().map(|p| p.weight * p.stats.int_iq.mean_occupancy(p.stats.cycles)).sum()
    };
    assert!(occ(&d) > occ(&s), "occupancy {:.1} vs {:.1}", occ(&d), occ(&s));
    let iq = |r: &WorkloadResult| r.power.component(Component::IntIssue).total_mw();
    assert!(iq(&d) > iq(&s), "issue power {:.2} vs {:.2}", iq(&d), iq(&s));
}

/// Key Takeaway #6 context: BOOM's merged register file keeps the ROB
/// small — it must stay a modest share of tile power (~4-5%).
#[test]
fn kt6_rob_is_modest() {
    for cfg in BoomConfig::all_three() {
        let r = flow(&cfg, "qsort");
        let rob = r.power.component(Component::Rob).total_mw();
        let share = rob / r.tile_power_mw();
        assert!(share < 0.09, "{}: ROB share {:.1}%", cfg.name, 100.0 * share);
    }
}

/// Key Takeaway #7: the branch predictor is the single largest consumer in
/// every configuration, and TAGE costs ~2.5x gshare.
#[test]
fn kt7_branch_predictor_dominates_and_tage_costs() {
    for cfg in BoomConfig::all_three() {
        let r = flow(&cfg, "patricia");
        let bp = r.power.component(Component::BranchPredictor).total_mw();
        for c in Component::ANALYZED {
            if c == Component::BranchPredictor {
                continue;
            }
            let v = r.power.component(c).total_mw();
            assert!(bp > v, "{}: BP {bp:.2} vs {c} {v:.2}", cfg.name);
        }
    }
    // TAGE vs gshare on the same core.
    let tage = flow(&BoomConfig::large(), "dijkstra");
    let gsh = run_simpoint_flow(
        &BoomConfig::large().with_predictor(PredictorKind::Gshare),
        &by_name("dijkstra", Scale::Test).unwrap(),
        &FlowConfig::default(),
    )
    .unwrap();
    let ratio = tage.power.component(Component::BranchPredictor).total_mw()
        / gsh.power.component(Component::BranchPredictor).total_mw();
    assert!(ratio > 1.8 && ratio < 3.5, "TAGE/gshare ratio {ratio:.2} (paper ~2.5)");
}

/// Key Takeaway #8: MegaBOOM's D-cache burns roughly twice LargeBOOM's
/// despite identical geometry (dual memory units + 2x MSHRs).
#[test]
fn kt8_mega_dcache_doubles_large() {
    let l = mean_component(&BoomConfig::large(), Component::DCache);
    let g = mean_component(&BoomConfig::mega(), Component::DCache);
    assert!(g > 1.5 * l, "Mega dcache {g:.2} vs Large {l:.2}");
    // Geometry really is identical (the power difference is ports/MSHRs).
    assert_eq!(
        BoomConfig::large().dcache.capacity_bytes(),
        BoomConfig::mega().dcache.capacity_bytes()
    );
}

/// The L1 I-cache is the least workload-sensitive component.
#[test]
fn icache_power_is_workload_insensitive() {
    let cfg = BoomConfig::large();
    let vals: Vec<f64> = ["sha", "dijkstra", "qsort", "bitcount"]
        .iter()
        .map(|n| flow(&cfg, n).power.component(Component::ICache).total_mw())
        .collect();
    let mean = vals.iter().sum::<f64>() / vals.len() as f64;
    for v in &vals {
        assert!((v - mean).abs() / mean < 0.4, "icache spread too wide: {vals:?}");
    }
}

/// Fig. 9: the thirteen analyzed components must cover a growing share of
/// tile power from Medium to Mega (paper: 73% -> 85%).
#[test]
fn fig9_analyzed_share_grows_with_core_size() {
    let share = |cfg: &BoomConfig| -> f64 {
        let r = flow(cfg, "stringsearch");
        r.power.analyzed_fraction()
    };
    let m = share(&BoomConfig::medium());
    let g = share(&BoomConfig::mega());
    assert!(m > 0.6 && m < 0.85, "medium share {m:.2}");
    assert!(g > m, "mega share {g:.2} must exceed medium {m:.2}");
    assert!(g > 0.78 && g < 0.93, "mega share {g:.2}");
}

/// TAGE must out-predict gshare (that is what the extra power buys).
#[test]
fn tage_is_more_accurate_than_gshare() {
    let w = by_name("dijkstra", Scale::Small).unwrap();
    let mispredicts = |kind: PredictorKind| -> f64 {
        let mut core = Core::new(BoomConfig::large().with_predictor(kind), &w.program);
        core.run(200_000);
        let s = core.stats();
        // also exercise the power path end to end
        let _ = estimate_core(&core);
        s.mispredict_rate()
    };
    let tage = mispredicts(PredictorKind::Tage);
    let gshare = mispredicts(PredictorKind::Gshare);
    assert!(tage <= gshare, "TAGE {tage:.3} vs gshare {gshare:.3}");
}
