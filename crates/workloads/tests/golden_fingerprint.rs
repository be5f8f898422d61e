//! Golden-fingerprint regression tests for the detailed core.
//!
//! Each case runs a workload to completion on one BOOM configuration and
//! compares `Stats::fingerprint()` — a canonical hash over the final
//! cycle count, committed-instruction count, and every per-component
//! activity counter — against a committed golden value captured before
//! the allocation-free hot-loop overhaul. Any change to timing or to the
//! power-model activity inputs (CAM searches, collapse shifts, RF port
//! counts, ...) moves the hash, so these tests pin the "bit-identical"
//! claim that lets hot-loop refactors land without re-validating the
//! paper's figures.
//!
//! To re-capture goldens after an *intentional* model change, run with
//! `--nocapture` and copy the printed table into `GOLDEN`.

use boom_uarch::issue::IssueQueueKind;
use boom_uarch::{BoomConfig, Core, HierarchyParams};
use rv_workloads::{by_name, Scale};

/// (config name, workload, golden fingerprint) — captured on the seed
/// poll-based core, Scale::Test, full run to exit. The `medium+l2` row
/// pins the hierarchy memory backend (shared L2 + DRAM model): its
/// fingerprint includes the `MemSysStats` counters, so any change to L2
/// MSHR handling, DRAM bandwidth accounting, or the refill path moves it.
/// The `large+nc` row pins the non-collapsing issue queue: its per-slot
/// counters are indexed by physical slot, so it fixes the slot each
/// insert lands in, not just the age order.
const GOLDEN: [(&str, &str, u64); 8] = [
    ("medium", "bitcount", 0x828e_42cf_8749_bf2a),
    ("medium", "dijkstra", 0x5b5e_dc63_0790_cf44),
    ("large", "bitcount", 0x58c5_fc8e_5344_4bb4),
    ("large", "dijkstra", 0x393f_9d45_61f9_00d0),
    ("mega", "bitcount", 0x3bea_1766_f4d7_73aa),
    ("mega", "dijkstra", 0x8b6c_b37d_163c_a301),
    ("medium+l2", "dijkstra", 0x54cd_4c01_ed7e_74cf),
    ("large+nc", "dijkstra", 0x6dda_686b_2add_9373),
];

/// (config, workload, warm-up instructions, golden fingerprint): the
/// SimPoint measurement shape — run a warm-up, [`Core::reset_stats`],
/// then measure to exit. Pins that a stats reset mid-run drops every
/// counter the warm-up accumulated, per-slot ones included, and nothing
/// the measurement accumulates afterwards.
const WARM_MEASURE: (&str, &str, u64, u64) = ("mega", "dijkstra", 6_000, 0xdd4f_fad9_cf77_d3cb);

fn config(name: &str) -> BoomConfig {
    match name {
        "medium" => BoomConfig::medium(),
        "large" => BoomConfig::large(),
        "mega" => BoomConfig::mega(),
        "medium+l2" => BoomConfig::medium().with_hierarchy(HierarchyParams::default_uncore()),
        "large+nc" => BoomConfig::large().with_issue_queue(IssueQueueKind::NonCollapsing),
        other => panic!("unknown config {other}"),
    }
}

fn run_fingerprint(cfg: &str, workload: &str) -> u64 {
    let w = by_name(workload, Scale::Test).expect("known workload");
    let mut core = Core::new(config(cfg), &w.program);
    let r = core.run(500_000_000);
    assert!(r.exited && !r.hung, "{cfg}/{workload}: {r:?}");
    assert_eq!(r.exit_code, Some(0), "{cfg}/{workload} failed self-verification");
    core.stats().fingerprint()
}

#[test]
fn detailed_core_fingerprints_match_goldens() {
    let mut failures = Vec::new();
    for (cfg, workload, golden) in GOLDEN {
        let got = run_fingerprint(cfg, workload);
        println!("    (\"{cfg}\", \"{workload}\", {got:#018x}),");
        if got != golden {
            failures.push(format!(
                "{cfg}/{workload}: fingerprint {got:#018x} != golden {golden:#018x}"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "activity fingerprints drifted from committed goldens (timing or \
         power inputs changed):\n{}",
        failures.join("\n")
    );
}

/// Warm-up, stats reset, measurement: the fingerprint of the measured
/// part alone must match its golden.
#[test]
fn warm_reset_measure_fingerprint_matches_golden() {
    let (cfg, workload, warm, golden) = WARM_MEASURE;
    let w = by_name(workload, Scale::Test).expect("known workload");
    let mut core = Core::new(config(cfg), &w.program);
    let r = core.run(warm);
    assert!(!r.exited && r.retired >= warm, "{cfg}/{workload} warm-up: {r:?}");
    core.reset_stats();
    let r = core.run(500_000_000);
    assert!(r.exited && !r.hung, "{cfg}/{workload}: {r:?}");
    assert_eq!(r.exit_code, Some(0), "{cfg}/{workload} failed self-verification");
    let got = core.stats().fingerprint();
    println!("    WARM_MEASURE {cfg}/{workload}/{warm}: {got:#018x}");
    assert_eq!(got, golden, "warm-up/reset/measure fingerprint drifted");
}

/// Driving a core one [`Core::step_cycle`] at a time to exit — the
/// dual-core co-run path — must hash exactly like [`Core::run`].
#[test]
fn step_cycle_to_exit_matches_run_golden() {
    for (cfg, workload) in [("large", "dijkstra"), ("large+nc", "dijkstra")] {
        let golden = GOLDEN.iter().find(|g| g.0 == cfg && g.1 == workload).expect("golden row").2;
        let w = by_name(workload, Scale::Test).expect("known workload");
        let mut core = Core::new(config(cfg), &w.program);
        while core.exit_code().is_none() {
            core.step_cycle();
        }
        assert_eq!(core.exit_code(), Some(0), "{cfg}/{workload} failed self-verification");
        assert_eq!(
            core.stats().fingerprint(),
            golden,
            "{cfg}/{workload}: step_cycle run diverged from run() golden"
        );
    }
}

/// The fingerprint must be a pure function of the run — two identical
/// runs hash identically (guards against accidentally hashing wall-clock
/// or allocation-dependent state).
#[test]
fn fingerprint_is_deterministic() {
    let a = run_fingerprint("medium", "bitcount");
    let b = run_fingerprint("medium", "bitcount");
    assert_eq!(a, b);
}

/// Event-driven idle-cycle skipping is a pure wall-clock optimization:
/// a skip-on run of every fixed-latency golden row must hash to the
/// committed skip-off golden, and across the suite it must actually
/// skip something (otherwise the mode is silently disabled and this
/// test proves nothing).
#[test]
fn idle_skip_runs_match_skip_off_goldens() {
    let mut failures = Vec::new();
    let mut total_skipped = 0u64;
    for (cfg, workload, golden) in GOLDEN {
        if cfg == "medium+l2" {
            continue; // hierarchy backend: covered below as a no-op
        }
        let w = by_name(workload, Scale::Test).expect("known workload");
        let mut core = Core::new(config(cfg), &w.program);
        core.set_idle_skip(true);
        let r = core.run(500_000_000);
        assert!(r.exited && !r.hung, "{cfg}/{workload}: {r:?}");
        let got = core.stats().fingerprint();
        if got != golden {
            failures.push(format!(
                "{cfg}/{workload}: skip-on fingerprint {got:#018x} != golden {golden:#018x}"
            ));
        }
        total_skipped += core.stats().idle_cycles_skipped;
    }
    assert!(
        failures.is_empty(),
        "idle skipping changed observable stats:\n{}",
        failures.join("\n")
    );
    assert!(total_skipped > 0, "idle skipping never fired across the golden suite");
}

/// On the shared-L2 hierarchy backend the skip gate must refuse to
/// engage (the uncore has time-dependent state), leaving the run — and
/// its fingerprint — untouched.
#[test]
fn idle_skip_is_inert_on_hierarchy_backend() {
    let w = by_name("dijkstra", Scale::Test).expect("known workload");
    let mut core = Core::new(config("medium+l2"), &w.program);
    core.set_idle_skip(true);
    let r = core.run(500_000_000);
    assert!(r.exited && !r.hung, "{r:?}");
    assert_eq!(core.stats().idle_cycles_skipped, 0);
    let golden = GOLDEN.iter().find(|g| g.0 == "medium+l2").expect("l2 golden").2;
    assert_eq!(core.stats().fingerprint(), golden);
}

/// Batched multi-config lanes share one micro-op table (classification
/// is configuration-independent); every lane, with idle skipping on top,
/// must still hash to its solo skip-off golden.
#[test]
fn batched_lanes_with_idle_skip_match_goldens() {
    let mut failures = Vec::new();
    for workload in ["bitcount", "dijkstra"] {
        let w = by_name(workload, Scale::Test).expect("known workload");
        let uops = Core::shared_uop_table(&w.program.decoded_image());
        for cfg in ["medium", "large", "mega"] {
            let golden =
                GOLDEN.iter().find(|g| g.0 == cfg && g.1 == workload).expect("golden row exists").2;
            let mut core = Core::new_with_uops(config(cfg), &w.program, &uops);
            core.set_idle_skip(true);
            let r = core.run(500_000_000);
            assert!(r.exited && !r.hung, "{cfg}/{workload}: {r:?}");
            let got = core.stats().fingerprint();
            if got != golden {
                failures.push(format!(
                    "{cfg}/{workload}: batched lane fingerprint {got:#018x} != golden \
                     {golden:#018x}"
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "batched lanes diverged from solo goldens:\n{}",
        failures.join("\n")
    );
}
