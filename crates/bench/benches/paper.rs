//! Regenerates the paper's evaluation from one campaign: Table I, Table
//! II, Figs. 5–11 and the §IV-A SimPoint speedup, in the paper's order,
//! each a view of the same 11-workload × 3-configuration report, then
//! the paper-vs-measured scorecard that EXPERIMENTS.md carries verbatim.
//!
//! Exits non-zero when one of the paper's ordering claims does not hold.
//!
//! Instruction counts are scaled down ~50-100x from the paper (see
//! DESIGN.md); the interval:program ratio (~1:300 in the paper) is
//! preserved, so SimPoint counts are comparable.

use boom_uarch::BoomConfig;
use boomflow::report::{render_component_power, render_metric, render_table};
use boomflow::WorkloadResult;
use boomflow_bench::paper::{scorecard, Campaign, Reference, CONFIGS};
use boomflow_bench::{banner, paper_mean_mw, BENCH_SCALE};
use rtl_power::Component;
use std::time::Instant;

fn strings(cells: &[&str]) -> Vec<String> {
    cells.iter().map(|s| s.to_string()).collect()
}

fn main() {
    let run = Campaign::run(BENCH_SCALE);
    table1(&run.configs);
    table2(&run);
    for (cfg, fig) in ["Fig. 5", "Fig. 6", "Fig. 7"].into_iter().enumerate() {
        component_power(&run, cfg, fig);
    }
    let claims = [
        ("Fig. 8: Dijkstra fills and heats the issue queue more than Sha", fig8(&run)),
        ("Fig. 9: the analyzed share grows from MediumBOOM to MegaBOOM", fig9(&run)),
        ("Fig. 10: Sha has the highest and Tarfind the lowest IPC everywhere", fig10(&run)),
        ("Fig. 11: MegaBOOM is the most efficient configuration on no workload", fig11(&run)),
    ];
    speedup(&run);

    banner("Scorecard: paper vs measured (EXPERIMENTS.md carries this block verbatim)");
    print!("{}", scorecard(&run));
    let violated: Vec<&str> = claims.iter().filter(|(_, holds)| !holds).map(|(c, _)| *c).collect();
    for claim in &violated {
        eprintln!("paper claim VIOLATED: {claim}");
    }
    if !violated.is_empty() {
        std::process::exit(1);
    }
}

/// Table I: the three BOOM configurations used throughout the study.
fn table1(cfgs: &[BoomConfig]) {
    banner("Table I: BOOM configurations (Chipyard Medium/Large/MegaBoomConfig)");
    let header: Vec<String> = std::iter::once("Parameter".to_string())
        .chain(cfgs.iter().map(|c| c.name.clone()))
        .collect();
    let row = |name: &str, f: &dyn Fn(&BoomConfig) -> String| -> Vec<String> {
        std::iter::once(name.to_string()).chain(cfgs.iter().map(f)).collect()
    };
    let rows = vec![
        row("Fetch width", &|c| c.fetch_width.to_string()),
        row("Decode width", &|c| c.decode_width.to_string()),
        row("ROB entries", &|c| c.rob_entries.to_string()),
        row("Int phys regs", &|c| c.int_phys_regs.to_string()),
        row("FP phys regs", &|c| c.fp_phys_regs.to_string()),
        row("IRF ports (R/W)", &|c| format!("{}/{}", c.irf_read_ports, c.irf_write_ports)),
        row("FP RF ports (R/W)", &|c| format!("{}/{}", c.frf_read_ports, c.frf_write_ports)),
        row("Issue slots (int/mem/fp)", &|c| {
            format!("{}/{}/{}", c.int_issue_slots, c.mem_issue_slots, c.fp_issue_slots)
        }),
        row("Mem exec units", &|c| c.mem_issue_width.to_string()),
        row("LDQ/STQ", &|c| format!("{}/{}", c.ldq_entries, c.stq_entries)),
        row("Fetch buffer", &|c| c.fetch_buffer_entries.to_string()),
        row("Branch snapshots", &|c| c.max_br_count.to_string()),
        row("L1I (KiB/ways)", &|c| {
            format!("{}/{}", c.icache.capacity_bytes() / 1024, c.icache.ways)
        }),
        row("L1D (KiB/ways)", &|c| {
            format!("{}/{}", c.dcache.capacity_bytes() / 1024, c.dcache.ways)
        }),
        row("D-cache MSHRs", &|c| c.dcache.mshrs.to_string()),
        row("Clock (MHz)", &|c| format!("{:.0}", c.clock_hz / 1e6)),
    ];
    print!("{}", render_table(&header, &rows));
}

/// Table II: per-benchmark instruction counts, SimPoint interval sizes,
/// and the number of selected SimPoints at >= 90% coverage. The front
/// half of the flow is configuration-independent, so MediumBOOM's cells
/// stand for all three.
fn table2(run: &Campaign) {
    banner("Table II: benchmark instructions, interval size & number of SimPoints");
    let header = strings(&[
        "Benchmark",
        "Suite",
        "Interval",
        "#SimPoints",
        "Coverage",
        "Instructions",
        "Paper interval",
        "Paper #SP",
        "Paper insts",
    ]);
    let rows: Vec<Vec<String>> = run
        .workloads
        .iter()
        .zip(&run.results[0])
        .map(|(w, r)| {
            let paper =
                |what: &str| Reference::find("Table II", &format!("{} {what}", r.name), "").paper;
            vec![
                r.name.to_string(),
                w.suite.name().to_string(),
                format!("{}k", r.interval_size / 1000),
                r.points.len().to_string(),
                format!("{:.0}%", 100.0 * r.coverage),
                r.total_insts.to_string(),
                format!("{}M", paper("interval") / 1e6),
                paper("SimPoints").to_string(),
                paper("instructions").to_string(),
            ]
        })
        .collect();
    print!("{}", render_table(&header, &rows));
}

/// Figs. 5–7: per-component power of one configuration across all
/// eleven workloads, against the paper's per-component means.
fn component_power(run: &Campaign, cfg: usize, fig: &str) {
    let name = CONFIGS[cfg];
    banner(&format!("{fig}: per-component power (mW), {name}, all workloads"));
    let results = &run.results[cfg];
    print!("{}", render_component_power(results));
    println!();
    println!("Measured vs paper per-component means ({name}):");
    for c in Component::ANALYZED {
        let mean = run.mean(cfg, |r| r.power.component(c).total_mw());
        let paper = paper_mean_mw(c)[cfg];
        println!(
            "  {:18} measured {:6.2} mW   paper {:6.2} mW   ({:+.0}%)",
            c.name(),
            mean,
            paper,
            100.0 * (mean - paper) / paper
        );
    }
}

/// Fig. 8: per-slot power of MegaBOOM's 40-entry integer issue queue for
/// Dijkstra vs Sha. Dijkstra's dependence-bound code keeps all 40 slots
/// burning power despite its lower IPC, while high-ILP Sha drains the
/// queue so only the low-order slots are active (Key Takeaway #4).
fn fig8(run: &Campaign) -> bool {
    banner("Fig. 8: per-slot integer issue-queue power (mW), MegaBOOM");
    let occupancy = |r: &WorkloadResult| -> f64 {
        r.points.iter().map(|p| p.weight * p.stats.int_iq.mean_occupancy(p.stats.cycles)).sum()
    };
    let (dijkstra, sha) = (run.result(2, "Dijkstra"), run.result(2, "Sha"));
    let (d_slots, s_slots) = (&dijkstra.power.int_issue_slot_mw, &sha.power.int_issue_slot_mw);
    assert_eq!(d_slots.len(), 40, "MegaBOOM has 40 slots");

    println!("slot   Dijkstra      Sha");
    println!("--------------------------");
    for (i, (d, s)) in d_slots.iter().zip(s_slots).enumerate() {
        println!("{i:>4}   {d:8.4}  {s:8.4}");
    }
    let (d_ipc, s_ipc) = (dijkstra.ipc, sha.ipc);
    let (d_occ, s_occ) = (occupancy(dijkstra), occupancy(sha));
    let d_total: f64 = d_slots.iter().sum();
    let s_total: f64 = s_slots.iter().sum();
    println!();
    println!("Dijkstra: IPC {d_ipc:.2}, mean IQ occupancy {d_occ:.1} slots, slot-power sum {d_total:.2} mW");
    println!("Sha:      IPC {s_ipc:.2}, mean IQ occupancy {s_occ:.1} slots, slot-power sum {s_total:.2} mW");
    println!();
    let holds = d_occ > s_occ && d_total > s_total && d_ipc < s_ipc;
    println!(
        "Paper claim check: Dijkstra occupies more slots than Sha ({d_occ:.1} vs {s_occ:.1}) \
         and burns more issue power ({d_total:.2} vs {s_total:.2} mW) despite lower IPC \
         ({d_ipc:.2} vs {s_ipc:.2}): {}",
        if holds { "HOLDS" } else { "VIOLATED" }
    );
    // Count "hot" slots (above 20% of the hottest slot) per workload.
    let hot = |slots: &[f64]| {
        let max = slots.iter().cloned().fold(0.0, f64::max);
        slots.iter().filter(|&&s| s > 0.2 * max).count()
    };
    println!("Hot slots (>20% of peak): Dijkstra {} / 40, Sha {} / 40", hot(d_slots), hot(s_slots));
    holds
}

/// Fig. 9: fraction of total BOOM-tile power covered by the thirteen
/// analyzed components, per configuration.
fn fig9(run: &Campaign) -> bool {
    banner("Fig. 9: analyzed-component contribution to tile power");
    let header = strings(&[
        "Configuration",
        "13-component mW",
        "Tile mW",
        "Share",
        "Paper share",
        "Paper tile mW",
    ]);
    let mut shares = Vec::new();
    let rows: Vec<Vec<String>> = CONFIGS
        .into_iter()
        .enumerate()
        .map(|(i, cfg)| {
            let analyzed = run.mean(i, |r| r.power.analyzed_total_mw());
            let tile = run.mean(i, WorkloadResult::tile_power_mw);
            shares.push(analyzed / tile);
            vec![
                cfg.to_string(),
                format!("{analyzed:.2}"),
                format!("{tile:.2}"),
                format!("{:.0}%", 100.0 * analyzed / tile),
                format!("{:.0}%", Reference::find("Fig. 9", "Analyzed share", cfg).paper),
                format!("{:.1}", Reference::find("Fig. 9", "Tile total", cfg).paper),
            ]
        })
        .collect();
    print!("{}", render_table(&header, &rows));
    println!();
    println!("Paper observation: the share grows with core size because the analyzed");
    println!("structures (register files, queues, ROB) scale up while decode/execute");
    println!("logic stays comparatively fixed.");
    shares.windows(2).all(|w| w[0] < w[1])
}

/// Prints `f` for every workload × configuration (Figs. 10 and 11).
fn print_metric(run: &Campaign, title: &str, f: fn(&WorkloadResult) -> f64) {
    let names: Vec<&str> = run.results[0].iter().map(|r| r.name).collect();
    let metric: Vec<(&str, Vec<f64>)> =
        CONFIGS.iter().zip(&run.results).map(|(c, rs)| (*c, rs.iter().map(f).collect())).collect();
    print!("{}", render_metric(title, &names, &metric));
    println!();
}

/// Fig. 10: IPC for every benchmark and all three BOOM configurations.
fn fig10(run: &Campaign) -> bool {
    banner("Fig. 10: instructions per cycle (IPC)");
    print_metric(run, "IPC", |r| r.ipc);

    let sha = CONFIGS.map(|c| Reference::find("Fig. 10", "Sha IPC", c));
    println!(
        "Sha IPC:     measured {:.2} / {:.2} / {:.2}  (paper: {} / {} / {})",
        sha[0].measure(run),
        sha[1].measure(run),
        sha[2].measure(run),
        sha[0].paper,
        sha[1].paper,
        sha[2].paper
    );
    let mut holds = true;
    for (cfg, results) in CONFIGS.iter().zip(&run.results) {
        let max = results.iter().max_by(|a, b| a.ipc.total_cmp(&b.ipc)).unwrap();
        let min = results.iter().min_by(|a, b| a.ipc.total_cmp(&b.ipc)).unwrap();
        holds &= max.name == "Sha" && min.name == "Tarfind";
        println!("{cfg}: highest IPC = {} ({:.2}), lowest = {} ({:.2})  (paper: Sha highest, Tarfind lowest)",
            max.name, max.ipc, min.name, min.ipc);
    }
    let ratio = Reference::find("Fig. 10", "Mean IPC, MegaBOOM / MediumBOOM", "");
    println!(
        "Mean IPC ratio MegaBOOM/MediumBOOM: {:.2}x  (paper: {}x)",
        ratio.measure(run),
        ratio.paper
    );
    holds
}

/// Fig. 11: performance per watt (IPC/W) for every benchmark and
/// configuration, plus the paper's headline efficiency claims.
fn fig11(run: &Campaign) -> bool {
    banner("Fig. 11: performance per watt (IPC/W)");
    print_metric(run, "IPC/W", WorkloadResult::perf_per_watt);

    // Per-workload winner (paper: MediumBOOM in 8/11; LargeBOOM takes
    // Matmult, Stringsearch, Tarfind; MegaBOOM none).
    let mut mega_wins = 0;
    for (w, r) in run.results[0].iter().enumerate() {
        let (cfg, ppw) = run.most_efficient(w);
        mega_wins += usize::from(cfg == 2);
        println!("  {:14} best: {} ({ppw:.1} IPC/W)", r.name, CONFIGS[cfg]);
    }
    println!();
    let wins = Reference::find("Fig. 11", "Workloads MediumBOOM wins", "");
    println!("MediumBOOM wins {}/11 workloads (paper: {}/11).", wins.measure(run), wins.paper);
    let advantage = Reference::find("Fig. 11", "Mean IPC/W, MediumBOOM over MegaBOOM", "");
    println!(
        "Mean efficiency advantage of MediumBOOM over MegaBOOM: {:+.0}%  (paper: {:+}%)",
        advantage.measure(run),
        advantage.paper
    );
    mega_wins == 0
}

/// SimPoint speedup (paper §IV-A): the paper reports a 45x reduction in
/// detailed-simulation time (slightly over 2 days instead of 3+ months).
/// Each workload's SimPoint IPC on MediumBOOM is compared against a full
/// detailed simulation, simulated once through the campaign's store.
fn speedup(run: &Campaign) {
    banner("SimPoint speedup & accuracy vs full detailed simulation (MediumBOOM)");
    let header = strings(&["Benchmark", "Full IPC", "SimPoint IPC", "IPC err", "Inst reduction"]);
    let t0 = Instant::now();
    let mut worst_err = 0.0f64;
    let rows: Vec<Vec<String>> = run
        .workloads
        .iter()
        .zip(&run.results[0])
        .map(|(w, sp)| {
            let full = run.store.full_run(&run.configs[0], w).expect("full run");
            let err = (sp.ipc - full.ipc).abs() / full.ipc;
            worst_err = worst_err.max(err);
            vec![
                w.name.to_string(),
                format!("{:.3}", full.ipc),
                format!("{:.3}", sp.ipc),
                format!("{:.1}%", 100.0 * err),
                format!("{:.0}x", sp.speedup),
            ]
        })
        .collect();
    let full_s = t0.elapsed().as_secs_f64();
    print!("{}", render_table(&header, &rows));
    println!();
    let reduction = Reference::find("§IV-A", "Detailed-instruction reduction (geomean)", "");
    println!(
        "Geomean detailed-instruction reduction: {:.0}x (paper: {}x overall; our \
         workloads are ~50-100x shorter, and the flow's interval:program ratio is ~1:300 \
         as in the paper, so reductions of the same order are expected)",
        reduction.measure(run),
        reduction.paper
    );
    println!(
        "Wall clock: full detailed simulation of {} workloads on MediumBOOM {full_s:.1} s; \
         the SimPoint campaign over {} configurations {:.1} s",
        run.workloads.len(),
        run.configs.len(),
        run.stats.wall_ms / 1e3
    );
    println!(
        "Worst-case SimPoint IPC error: {:.1}% (SimPoint targets ~90% coverage)",
        100.0 * worst_err
    );
}
