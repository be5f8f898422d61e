//! Simulator throughput: functional-sim MIPS (plain and profiling) and
//! detailed-sim cycles/sec, per workload.
//!
//! Unlike the figure benches, this bench tracks the *simulator's own*
//! speed — the quantity the predecoded-image, flat-memory, and
//! scoreboard-wakeup fast paths optimize. It writes
//! `BENCH_throughput.json` at the workspace root so the perf trajectory
//! is comparable across PRs: the `rows` array keeps the original
//! MediumBOOM schema (CI's perf-smoke regression gate compares those
//! rows against the committed baseline), and the `detailed` array covers
//! the full config × workload matrix the paper's campaign sweeps.

use boom_uarch::{BoomConfig, Core};
use boomflow::{
    default_jobs, realize_campaign, request_events, run_sweep, supervise_matrix_with,
    ArtifactStore, CampaignOptions, CampaignRequest, ClientMsg, FlowConfig, Request, ServeAddr,
    ServeOptions, Server, ServerMsg, SweepOptions, SweepSpec,
};
use boomflow_bench::banner;
use rv_isa::bbv::BbvCollector;
use rv_isa::cpu::Cpu;
use rv_workloads::{by_name, Scale, Workload};
use std::time::{Duration, Instant};

/// Workloads timed by the bench (integer-heavy, sort/pointer-heavy,
/// memory-heavy, and hash-heavy — one per broad behavior class).
const WORKLOADS: [&str; 4] = ["bitcount", "qsort", "dijkstra", "sha"];

/// Detailed-simulation configs, smallest to largest.
const CONFIGS: [&str; 3] = ["MediumBOOM", "LargeBOOM", "MegaBOOM"];

/// Minimum wall-clock per measurement; repetitions accumulate until the
/// budget is met so short workloads still give stable rates.
const MIN_WALL: Duration = Duration::from_millis(300);

fn config_by_name(name: &str) -> BoomConfig {
    match name {
        "MediumBOOM" => BoomConfig::medium(),
        "LargeBOOM" => BoomConfig::large(),
        "MegaBOOM" => BoomConfig::mega(),
        other => panic!("unknown config {other}"),
    }
}

/// Accumulates (work units, seconds) over repetitions of `run` until
/// [`MIN_WALL`] is spent, then returns units/second.
fn rate(mut run: impl FnMut() -> u64) -> f64 {
    // One untimed warm-up repetition (page faults, caches).
    run();
    let mut units = 0u64;
    let t0 = Instant::now();
    while t0.elapsed() < MIN_WALL {
        units += run();
    }
    units as f64 / t0.elapsed().as_secs_f64()
}

struct Row {
    workload: &'static str,
    /// Functional simulation, no hooks (the full-run stage).
    functional_mips: f64,
    /// Functional simulation feeding the BBV collector (the profiling
    /// stage).
    profiling_mips: f64,
    /// Detailed (cycle-level) simulation on MediumBOOM.
    detailed_kcps: f64,
    /// Detailed-simulation instruction throughput, for reference.
    detailed_kips: f64,
}

/// One cell of the detailed config × workload matrix.
struct DetailedRow {
    config: &'static str,
    workload: &'static str,
    detailed_kcps: f64,
    detailed_kips: f64,
}

/// Repetitions of each arm of the batching study. The arms alternate,
/// and which runs first flips every repetition, so host drift hits both
/// alike.
const BATCH_REPS: usize = 9;

/// One workload's batching measurement. The batched arm is what the
/// flow's batched path does: one micro-op classification shared by all
/// three configs' lanes, which then run one after another on one thread.
/// The solo arm runs the same three configs on the same thread, each
/// classifying privately. Idle-cycle skipping is on in both arms, so the
/// shared table is the only difference.
struct BatchedRow {
    workload: &'static str,
    /// Each lane's kcycles/s within the batched arm (median over
    /// repetitions).
    per_config_kcps: [f64; 3],
    /// All lanes' cycles over the batched arm's median wall-clock,
    /// classification included.
    aggregate_kcps: f64,
    /// Median solo-arm wall over median batched-arm wall.
    batch_speedup: f64,
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Times the batched and solo arms of `w` across all three configs.
fn measure_batched(w: &Workload) -> BatchedRow {
    let cfgs: Vec<BoomConfig> = CONFIGS.iter().map(|c| config_by_name(c)).collect();
    let finish = |mut core: Core| -> u64 {
        core.set_idle_skip(true);
        let r = core.run(u64::MAX);
        assert!(r.exited, "lane must exit");
        r.cycles
    };
    // Batched arm: total wall plus each lane's (cycles, seconds).
    let batched = || -> (f64, [(u64, f64); 3]) {
        let t0 = Instant::now();
        let uops = Core::shared_uop_table(&w.program.decoded_image());
        let lanes = std::array::from_fn(|i| {
            let t = Instant::now();
            let cycles = finish(Core::new_with_uops(cfgs[i].clone(), &w.program, &uops));
            (cycles, t.elapsed().as_secs_f64())
        });
        (t0.elapsed().as_secs_f64(), lanes)
    };
    let solo = || -> (f64, [u64; 3]) {
        let t0 = Instant::now();
        let cycles = std::array::from_fn(|i| finish(Core::new(cfgs[i].clone(), &w.program)));
        (t0.elapsed().as_secs_f64(), cycles)
    };
    // One untimed warm-up of each arm (page faults, caches).
    let (_, warm) = batched();
    let cycles: [u64; 3] = warm.map(|(c, _)| c);
    assert_eq!(solo().1, cycles, "batched and solo lanes must simulate identically");

    let (mut batched_walls, mut solo_walls) = (Vec::new(), Vec::new());
    let mut lane_kcps: [Vec<f64>; 3] = Default::default();
    for rep in 0..BATCH_REPS {
        if rep % 2 == 1 {
            solo_walls.push(solo().0);
        }
        let (wall, lanes) = batched();
        batched_walls.push(wall);
        for (rates, (c, secs)) in lane_kcps.iter_mut().zip(lanes) {
            rates.push(c as f64 / secs / 1e3);
        }
        if rep % 2 == 0 {
            solo_walls.push(solo().0);
        }
    }
    let batched_wall = median(batched_walls);
    BatchedRow {
        workload: w.name,
        per_config_kcps: lane_kcps.map(median),
        aggregate_kcps: cycles.iter().sum::<u64>() as f64 / batched_wall / 1e3,
        batch_speedup: median(solo_walls) / batched_wall,
    }
}

/// The adaptive-sweep study: the reference 64-config grid, exhaustive
/// full-budget baseline vs successive halving, on the two most
/// phase-diverse timed workloads.
struct SweepStudyRow {
    grid: &'static str,
    workloads: String,
    configs: usize,
    /// Total detailed-sim cycles of the single-rung exhaustive run.
    exhaustive_kcycles: f64,
    /// Total detailed-sim cycles of the adaptive run (all rungs).
    adaptive_kcycles: f64,
    /// Exhaustive / adaptive — the quantity successive halving buys.
    reduction_factor: f64,
    /// Whether the adaptive Pareto frontier was byte-identical to the
    /// exhaustive one (asserted, so always true in a written file).
    frontier_identical: bool,
}

/// Runs the reference sweep both ways and checks the frontier contract.
/// Detailed-sim cycle counts are deterministic (not wall-clock), so this
/// study is immune to runner noise — the reduction factor only moves if
/// the schedule or the elimination rule changes.
fn measure_sweep() -> SweepStudyRow {
    let grid = "ref64";
    let spec = SweepSpec::preset(grid).expect("known preset");
    let cfgs = spec.generate().expect("reference grid generates");
    let wls: Vec<Workload> =
        ["sha", "qsort"].iter().map(|n| by_name(n, Scale::Test).expect("known workload")).collect();
    let flow = FlowConfig { warmup_insts: 5_000, idle_skip: true, ..FlowConfig::default() };
    let jobs = default_jobs();
    let exhaustive = run_sweep(
        &cfgs,
        &wls,
        &flow,
        &ArtifactStore::new(),
        &SweepOptions { jobs, exhaustive: true, ..SweepOptions::default() },
    )
    .expect("exhaustive sweep");
    let adaptive = run_sweep(
        &cfgs,
        &wls,
        &flow,
        &ArtifactStore::new(),
        &SweepOptions { jobs, ..SweepOptions::default() },
    )
    .expect("adaptive sweep");
    assert!(exhaustive.all_ok() && adaptive.all_ok(), "sweep cells must all succeed");
    let identical = adaptive.render_frontier() == exhaustive.render_frontier();
    assert!(identical, "adaptive frontier must be byte-identical to the exhaustive frontier");
    let exh = exhaustive.stats.detailed_cycles as f64;
    let ada = adaptive.stats.detailed_cycles as f64;
    SweepStudyRow {
        grid,
        workloads: wls.iter().map(|w| w.name).collect::<Vec<_>>().join("+"),
        configs: exhaustive.configs.len(),
        exhaustive_kcycles: exh / 1e3,
        adaptive_kcycles: ada / 1e3,
        reduction_factor: exh / ada,
        frontier_identical: identical,
    }
}

/// The campaign-service study: N overlapping campaign requests through
/// one warm `boomflow serve` process vs the same N campaigns run
/// sequentially as solo processes would run them (fresh store each).
struct ServeStudyRow {
    study: &'static str,
    /// Concurrent client requests submitted.
    requests: usize,
    /// Scheduler-pool width of the server (and jobs of each solo run).
    jobs: usize,
    /// Wall-clock of the N sequential solo campaigns.
    solo_secs: f64,
    /// Wall-clock of the N concurrent requests through one server.
    serve_secs: f64,
    /// solo / serve — what cross-request artifact sharing buys.
    serve_speedup: f64,
}

/// Three pairwise-overlapping campaign requests: every workload appears
/// in exactly two requests, so the server computes each front half and
/// each point once where the solo baseline computes them twice.
fn serve_requests() -> Vec<CampaignRequest> {
    ["bitcount,sha", "sha,qsort", "qsort,bitcount"]
        .into_iter()
        .map(|workloads| CampaignRequest {
            workloads: workloads.to_string(),
            config: "medium".to_string(),
            scale: Scale::Test,
            warmup: 5_000,
            retries: 3,
            batch_lanes: 1,
            idle_skip: false,
        })
        .collect()
}

/// Runs the serve study: solo baseline first (deterministic reference
/// bytes kept), then the served pass, asserting every served report is
/// byte-identical to its solo run before any rate is reported.
fn measure_serve() -> ServeStudyRow {
    let jobs = default_jobs();
    let requests = serve_requests();

    let t0 = Instant::now();
    let solo_reports: Vec<String> = requests
        .iter()
        .map(|req| {
            let (cfgs, ws, flow) = realize_campaign(req).expect("bench request realizes");
            let report = supervise_matrix_with(
                &cfgs,
                &ws,
                &flow,
                &CampaignOptions { jobs, ..CampaignOptions::default() },
            );
            assert!(report.all_ok(), "solo campaign must succeed");
            report.render_deterministic()
        })
        .collect();
    let solo_secs = t0.elapsed().as_secs_f64();

    let state_dir =
        std::env::temp_dir().join(format!("boomflow-bench-serve-{}", std::process::id()));
    let sock = state_dir.join("serve.sock");
    let _ = std::fs::remove_dir_all(&state_dir);
    let opts = ServeOptions {
        jobs,
        max_active: requests.len(),
        cache_dir: None,
        state_dir: state_dir.clone(),
        kill_after_points: None,
    };
    let server = Server::bind(&ServeAddr::Unix(sock), opts).expect("bench server binds");
    let addr = server.addr().clone();
    let server = std::thread::spawn(move || server.run());

    let t0 = Instant::now();
    let served: Vec<ServerMsg> = std::thread::scope(|s| {
        let handles: Vec<_> = requests
            .iter()
            .map(|req| {
                let addr = addr.clone();
                let msg = ClientMsg::Submit(Request::Campaign(req.clone()));
                s.spawn(move || {
                    request_events(&addr, &msg, |_| {})
                        .expect("bench client stream")
                        .expect("bench server must finish the request")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("bench client panicked")).collect()
    });
    let serve_secs = t0.elapsed().as_secs_f64();

    for (done, solo) in served.iter().zip(&solo_reports) {
        let ServerMsg::Done { ok: true, report, .. } = done else {
            panic!("served campaign failed: {done:?}");
        };
        assert_eq!(
            std::str::from_utf8(report).expect("utf8 report"),
            solo,
            "served report must be byte-identical to the solo run"
        );
    }
    let bye = request_events(&addr, &ClientMsg::Shutdown, |_| {}).expect("shutdown stream");
    assert!(matches!(bye, Some(ServerMsg::Bye { .. })), "expected Bye, got {bye:?}");
    server.join().expect("server thread").expect("server run");
    let _ = std::fs::remove_dir_all(&state_dir);

    ServeStudyRow {
        study: "overlapping_campaigns",
        requests: requests.len(),
        jobs,
        solo_secs,
        serve_secs,
        serve_speedup: solo_secs / serve_secs,
    }
}

/// Times detailed simulation of `w` under `cfg`, returning
/// (kcycles/sec, kinsts/sec) from one accumulating measurement so the
/// two rates describe the same repetitions.
fn measure_detailed(cfg: &BoomConfig, w: &Workload) -> (f64, f64) {
    let run = || {
        let mut core = Core::new(cfg.clone(), &w.program);
        let r = core.run(u64::MAX);
        assert!(r.exited, "detailed run must exit");
        (r.cycles, r.retired)
    };
    run(); // warm-up
    let (mut cycles, mut insts) = (0u64, 0u64);
    let t0 = Instant::now();
    while t0.elapsed() < MIN_WALL {
        let (c, i) = run();
        cycles += c;
        insts += i;
    }
    let secs = t0.elapsed().as_secs_f64();
    (cycles as f64 / secs / 1e3, insts as f64 / secs / 1e3)
}

fn measure(w: &Workload) -> Row {
    let functional = rate(|| {
        let mut cpu = Cpu::new(&w.program);
        cpu.run(u64::MAX).expect("functional run");
        cpu.instret()
    });
    let profiling = rate(|| {
        let mut cpu = Cpu::new(&w.program);
        let mut c = BbvCollector::for_program(w.interval_size, &w.program);
        cpu.run_with(u64::MAX, |r| c.observe(r)).expect("profiling run");
        let profile = c.finish();
        profile.total_insts
    });
    let cfg = BoomConfig::medium();
    let (detailed_kcps, detailed_kips) = measure_detailed(&cfg, w);
    Row {
        workload: w.name,
        functional_mips: functional / 1e6,
        profiling_mips: profiling / 1e6,
        detailed_kcps,
        detailed_kips,
    }
}

fn main() {
    banner("Simulator throughput (functional MIPS, profiling MIPS, detailed kcycles/s)");
    let workloads: Vec<Workload> =
        WORKLOADS.iter().map(|name| by_name(name, Scale::Small).expect("known workload")).collect();
    let rows: Vec<Row> = workloads.iter().map(measure).collect();

    println!(
        "{:<14} {:>16} {:>15} {:>17} {:>15}",
        "Workload", "Functional MIPS", "Profiling MIPS", "Detailed kcyc/s", "Detailed kips"
    );
    for r in &rows {
        println!(
            "{:<14} {:>16.1} {:>15.1} {:>17.0} {:>15.0}",
            r.workload, r.functional_mips, r.profiling_mips, r.detailed_kcps, r.detailed_kips
        );
    }

    let mut detailed: Vec<DetailedRow> = Vec::new();
    println!(
        "\n{:<12} {:<14} {:>17} {:>15}",
        "Config", "Workload", "Detailed kcyc/s", "Detailed kips"
    );
    for config in CONFIGS {
        let cfg = config_by_name(config);
        for w in &workloads {
            let (kcps, kips) = measure_detailed(&cfg, w);
            println!("{:<12} {:<14} {:>17.0} {:>15.0}", config, w.name, kcps, kips);
            detailed.push(DetailedRow {
                config,
                workload: w.name,
                detailed_kcps: kcps,
                detailed_kips: kips,
            });
        }
    }

    let batched: Vec<BatchedRow> = workloads.iter().map(measure_batched).collect();
    println!(
        "\n{:<14} {:>14} {:>13} {:>12} {:>18} {:>9}",
        "Batched", "Medium kcyc/s", "Large kcyc/s", "Mega kcyc/s", "Aggregate kcyc/s", "Speedup"
    );
    for b in &batched {
        println!(
            "{:<14} {:>14.0} {:>13.0} {:>12.0} {:>18.0} {:>8.2}x",
            b.workload,
            b.per_config_kcps[0],
            b.per_config_kcps[1],
            b.per_config_kcps[2],
            b.aggregate_kcps,
            b.batch_speedup
        );
    }

    let sweep = measure_sweep();
    println!(
        "\n{:<8} {:<12} {:>8} {:>19} {:>17} {:>10} {:>9}",
        "Sweep",
        "Workloads",
        "Configs",
        "Exhaustive kcyc",
        "Adaptive kcyc",
        "Reduction",
        "Frontier"
    );
    println!(
        "{:<8} {:<12} {:>8} {:>19.0} {:>17.0} {:>9.2}x {:>9}",
        sweep.grid,
        sweep.workloads,
        sweep.configs,
        sweep.exhaustive_kcycles,
        sweep.adaptive_kcycles,
        sweep.reduction_factor,
        if sweep.frontier_identical { "identical" } else { "DIFFERS" }
    );

    let serve = measure_serve();
    println!(
        "\n{:<22} {:>9} {:>6} {:>11} {:>12} {:>9}",
        "Serve", "Requests", "Jobs", "Solo s", "Served s", "Speedup"
    );
    println!(
        "{:<22} {:>9} {:>6} {:>11.2} {:>12.2} {:>8.2}x",
        serve.study,
        serve.requests,
        serve.jobs,
        serve.solo_secs,
        serve.serve_secs,
        serve.serve_speedup
    );

    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"workload\": \"{}\", \"functional_mips\": {:.2}, \
                 \"profiling_mips\": {:.2}, \"detailed_kcycles_per_sec\": {:.1}, \
                 \"detailed_kinsts_per_sec\": {:.1}}}",
                r.workload, r.functional_mips, r.profiling_mips, r.detailed_kcps, r.detailed_kips
            )
        })
        .collect();
    let json_detailed: Vec<String> = detailed
        .iter()
        .map(|d| {
            format!(
                "    {{\"config\": \"{}\", \"workload\": \"{}\", \
                 \"detailed_kcycles_per_sec\": {:.1}, \"detailed_kinsts_per_sec\": {:.1}}}",
                d.config, d.workload, d.detailed_kcps, d.detailed_kips
            )
        })
        .collect();
    // The `batched` array keeps the `detailed` row shape (config,
    // workload, detailed_kcycles_per_sec) so the perf-smoke gate scans
    // it with the same machinery; an extra pseudo-config "Aggregate" row
    // per workload carries the whole-batch rate and speedup.
    let json_batched: Vec<String> = batched
        .iter()
        .flat_map(|b| {
            CONFIGS
                .iter()
                .enumerate()
                .map(|(i, config)| {
                    format!(
                        "    {{\"config\": \"{}\", \"workload\": \"{}\", \
                         \"detailed_kcycles_per_sec\": {:.1}}}",
                        config, b.workload, b.per_config_kcps[i]
                    )
                })
                .chain(std::iter::once(format!(
                    "    {{\"config\": \"Aggregate\", \"workload\": \"{}\", \
                     \"detailed_kcycles_per_sec\": {:.1}, \"batch_speedup\": {:.2}}}",
                    b.workload, b.aggregate_kcps, b.batch_speedup
                )))
                .collect::<Vec<_>>()
        })
        .collect();
    // The `sweep` array records deterministic cycle totals, not rates:
    // the reduction factor is the guarded metric (perf-smoke fails if a
    // schedule or elimination-rule change erodes it), and
    // `frontier_identical` is asserted above before anything is written.
    let json_sweep = format!(
        "    {{\"grid\": \"{}\", \"workloads\": \"{}\", \"configs\": {}, \
         \"exhaustive_kcycles\": {:.1}, \"adaptive_kcycles\": {:.1}, \
         \"reduction_factor\": {:.2}, \"frontier_identical\": {}}}",
        sweep.grid,
        sweep.workloads,
        sweep.configs,
        sweep.exhaustive_kcycles,
        sweep.adaptive_kcycles,
        sweep.reduction_factor,
        sweep.frontier_identical
    );
    // The `serve` array is wall-clock (like `rows`/`detailed`): the
    // speedup is the guarded metric — it collapses toward 1 if requests
    // stop sharing the warm store. Reports were byte-compared to solo
    // runs before this row exists.
    let json_serve = format!(
        "    {{\"study\": \"{}\", \"requests\": {}, \"jobs\": {}, \"solo_secs\": {:.2}, \
         \"serve_secs\": {:.2}, \"serve_speedup\": {:.2}}}",
        serve.study,
        serve.requests,
        serve.jobs,
        serve.solo_secs,
        serve.serve_secs,
        serve.serve_speedup
    );
    let json = format!(
        "{{\n  \"scale\": \"small\",\n  \"detailed_config\": \"MediumBOOM\",\n  \
         \"rows\": [\n{}\n  ],\n  \"detailed\": [\n{}\n  ],\n  \"batched\": [\n{}\n  ],\n  \
         \"sweep\": [\n{}\n  ],\n  \"serve\": [\n{}\n  ]\n}}\n",
        json_rows.join(",\n"),
        json_detailed.join(",\n"),
        json_batched.join(",\n"),
        json_sweep,
        json_serve
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_throughput.json");
    std::fs::write(path, &json).expect("write BENCH_throughput.json");
    println!("\nWrote {path}");
}
