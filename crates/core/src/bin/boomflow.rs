//! `boomflow` — command-line front end for the SimPoint power/performance
//! analysis flow.
//!
//! ```text
//! boomflow serve (--socket PATH|--tcp ADDR) [--jobs N] [--max-active N]
//!          [--cache-dir DIR] [--state-dir DIR]
//! boomflow submit (--socket PATH|--tcp ADDR) [campaign flags...]
//!          [--sweep-preset ref64|smoke16 [sweep flags...]] [--report-out FILE]
//! boomflow attach (--socket PATH|--tcp ADDR) --id HEX [--report-out FILE]
//! boomflow shutdown (--socket PATH|--tcp ADDR)
//! boomflow sweep [--grid-preset ref64|smoke16] [--grid KNOB=V1,V2,...]
//!          [--base medium|large|mega] [--random N --seed S]
//!          [--workload NAME[,NAME...]|all] [--scale test|small|full]
//!          [--warmup N] [--jobs N] [--batch-lanes N]
//!          [--idle-skip|--no-idle-skip] [--rungs N] [--rung0-points N]
//!          [--rung0-shift N] [--epsilon F] [--epsilon-decay F] [--exhaustive]
//!          [--cache-dir DIR] [--journal FILE [--resume]]
//!          [--report-out FILE] [--frontier-out FILE]
//! boomflow [--workload NAME[,NAME...]|all] [--config medium|large|mega|all]
//!          [--scale test|small|full] [--predictor tage|gshare]
//!          [--iq collapsing|noncollapsing] [--full] [--warmup N]
//!          [--retries N] [--cycle-budget N] [--jobs N]
//!          [--mem-backend fixed|hierarchy] [--l2 SETSxWAYSxLINE]
//!          [--l2-mshrs N] [--l2-latency N] [--dram-latency N]
//!          [--dram-burst N] [--dram-row-hit N] [--co-run A+B ...]
//!          [--batch-lanes N] [--idle-skip]
//!          [--cache-dir DIR] [--journal FILE [--resume]] [--report-out FILE]
//! ```
//!
//! The matrix is run under the fault-tolerant supervisor as a staged
//! campaign: the configuration-independent stages (profiling, SimPoint
//! clustering, checkpoint capture) run exactly once per workload and are
//! shared across every configuration, then detailed simulation of the
//! individual points is spread over `--jobs` worker threads (default:
//! all cores). A hang or panic in one (configuration, workload) cell is
//! reported — including the pipeline watchdog's diagnostic snapshot —
//! and the remaining cells still run. The process exits non-zero only if
//! some cell failed after per-point retries.
//!
//! With `--mem-backend hierarchy` (implied by any `--l2*`/`--dram*`
//! knob) every configuration's L1 misses go to a shared L2 + DRAM model
//! instead of the flat fixed-latency memory, and the power report gains
//! the L2 Cache and DRAM Interface components. `--co-run A+B` adds a
//! dual-core cell per configuration: workloads A and B co-run on two
//! cores sharing one L2, reported with per-core IPC/power plus the
//! interference counters (L2 contention stalls, DRAM bandwidth-wait
//! cycles).
//!
//! `--batch-lanes N` groups up to `N` configurations' detailed
//! simulations of the same SimPoint into one batched work item that
//! shares the predecoded image and the (configuration-independent)
//! micro-op table across the per-config lanes. `--idle-skip` turns on
//! event-driven idle-cycle skipping in the detailed core: provably idle
//! stretches are fast-forwarded in one step and charged analytically.
//! Both are pure wall-clock optimizations — every counter, journal
//! record, and report byte is identical to an unbatched, skip-off run.
//! Idle skipping requires the flat fixed-latency memory backend (the
//! shared-uncore hierarchy is never idle) and cannot combine with
//! `--co-run`.
//!
//! With `--cache-dir` the configuration-independent artifacts are also
//! persisted to a checksummed on-disk cache and reused by later runs.
//! With `--journal` every completed point is appended to a write-ahead
//! journal; after a crash, re-running with `--resume` replays the
//! finished points and only simulates the rest, producing a report
//! byte-identical (`--report-out`) to an uninterrupted run.
//!
//! `boomflow serve` runs the same campaigns as a persistent service: one
//! process-wide artifact store stays warm across requests, overlapping
//! requests deduplicate their points through it in flight, and all
//! admitted requests share one `--jobs`-bounded scheduler pool served
//! round-robin. `submit` sends a request (and streams its progress),
//! `attach` re-joins a request by id — including after a server crash,
//! when it resumes the request from its journal — and `shutdown` drains
//! the service gracefully. See `boomflow::server`.
//!
//! Examples:
//!
//! ```sh
//! cargo run --release -p boomflow --bin boomflow -- --workload sha --config mega
//! cargo run --release -p boomflow --bin boomflow -- --workload all --config all --scale full
//! cargo run --release -p boomflow --bin boomflow -- --workload dijkstra --full
//! cargo run --release -p boomflow --bin boomflow -- --cache-dir .boomflow-cache \
//!     --journal campaign.bfj --resume --report-out report.txt
//! ```

use boom_uarch::{
    BoomConfig, CacheParams, ConfigError, HierarchyParams, IssueQueueKind, PredictorKind,
};
use boomflow::report::render_table;
use boomflow::{
    all_fixed_latency, campaign_fingerprint_with, default_jobs, request_events, request_id,
    run_full, run_sweep, supervise_campaign, ArtifactStore, CacheStage, CampaignJournal,
    CampaignOptions, CampaignRequest, ClientMsg, DiskFaultInjection, FaultInjection, FlowConfig,
    JournalReplay, Request, RetryPolicy, ServeAddr, ServeOptions, Server, ServerMsg, SweepKnob,
    SweepOptions, SweepRequest, SweepSpec, WorkloadResult,
};
use rtl_power::Component;
use rv_workloads::{all, by_name, Scale, Workload};
use std::path::PathBuf;
use std::process::exit;
use std::sync::Arc;

struct Args {
    workload: String,
    config: String,
    scale: Scale,
    predictor: PredictorKind,
    iq: IssueQueueKind,
    full: bool,
    warmup: u64,
    retries: u32,
    cycle_budget: Option<u64>,
    jobs: usize,
    hierarchy: bool,
    l2: Option<String>,
    l2_mshrs: Option<usize>,
    l2_latency: Option<u64>,
    dram_latency: Option<u64>,
    dram_burst: Option<u64>,
    dram_row_hit: Option<u64>,
    co_run: Vec<String>,
    batch_lanes: usize,
    idle_skip: bool,
    cache_dir: Option<PathBuf>,
    journal: Option<PathBuf>,
    resume: bool,
    report_out: Option<PathBuf>,
    /// Hidden: freeze commit on simulation point N (watchdog demo/tests).
    inject_hang: Option<usize>,
    /// Hidden: tear the next disk-cache write of this stage.
    inject_torn_write: Option<CacheStage>,
    /// Hidden: corrupt the next disk-cache write of this stage.
    inject_corrupt: Option<CacheStage>,
    /// Hidden: abort the process after journaling N fresh points.
    inject_kill_after: Option<u64>,
}

fn usage() -> ! {
    eprintln!(
        "usage: boomflow [--workload NAME[,NAME...]|all] [--config medium|large|mega|all]\n\
         \x20               [--scale test|small|full] [--predictor tage|gshare]\n\
         \x20               [--iq collapsing|noncollapsing] [--full] [--warmup N]\n\
         \x20               [--retries N] [--cycle-budget N] [--jobs N]\n\
         \x20               [--mem-backend fixed|hierarchy] [--l2 SETSxWAYSxLINE]\n\
         \x20               [--l2-mshrs N] [--l2-latency N] [--dram-latency N]\n\
         \x20               [--dram-burst N] [--dram-row-hit N] [--co-run A+B ...]\n\
         \x20               [--batch-lanes N] [--idle-skip]\n\
         \x20               [--cache-dir DIR] [--journal FILE [--resume]]\n\
         \x20               [--report-out FILE]\n\
         workloads: basicmath stringsearch fft ifft bitcount qsort dijkstra\n\
         \x20          patricia matmult sha tarfind"
    );
    exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: "all".to_string(),
        config: "all".to_string(),
        scale: Scale::Small,
        predictor: PredictorKind::Tage,
        iq: IssueQueueKind::Collapsing,
        full: false,
        warmup: 5_000,
        retries: RetryPolicy::default().max_attempts,
        cycle_budget: None,
        jobs: default_jobs(),
        hierarchy: false,
        l2: None,
        l2_mshrs: None,
        l2_latency: None,
        dram_latency: None,
        dram_burst: None,
        dram_row_hit: None,
        co_run: Vec::new(),
        batch_lanes: 1,
        idle_skip: false,
        cache_dir: None,
        journal: None,
        resume: false,
        report_out: None,
        inject_hang: None,
        inject_torn_write: None,
        inject_corrupt: None,
        inject_kill_after: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" | "-w" => args.workload = value().to_lowercase(),
            "--config" | "-c" => args.config = value().to_lowercase(),
            "--scale" | "-s" => {
                args.scale = match value().to_lowercase().as_str() {
                    "test" => Scale::Test,
                    "small" => Scale::Small,
                    "full" => Scale::Full,
                    _ => usage(),
                }
            }
            "--predictor" | "-p" => {
                args.predictor = match value().to_lowercase().as_str() {
                    "tage" => PredictorKind::Tage,
                    "gshare" => PredictorKind::Gshare,
                    _ => usage(),
                }
            }
            "--iq" => {
                args.iq = match value().to_lowercase().as_str() {
                    "collapsing" => IssueQueueKind::Collapsing,
                    "noncollapsing" | "non-collapsing" => IssueQueueKind::NonCollapsing,
                    _ => usage(),
                }
            }
            "--full" => args.full = true,
            "--warmup" => args.warmup = value().parse().unwrap_or_else(|_| usage()),
            "--retries" => args.retries = value().parse().unwrap_or_else(|_| usage()),
            "--cycle-budget" => {
                args.cycle_budget = Some(value().parse().unwrap_or_else(|_| usage()))
            }
            "--jobs" | "-j" => {
                args.jobs = value().parse().unwrap_or_else(|_| usage());
                if args.jobs == 0 {
                    usage()
                }
            }
            "--mem-backend" => {
                args.hierarchy = match value().to_lowercase().as_str() {
                    "fixed" => false,
                    "hierarchy" => true,
                    _ => usage(),
                }
            }
            "--l2" => args.l2 = Some(value()),
            "--l2-mshrs" => args.l2_mshrs = Some(value().parse().unwrap_or_else(|_| usage())),
            "--l2-latency" => args.l2_latency = Some(value().parse().unwrap_or_else(|_| usage())),
            "--dram-latency" => {
                args.dram_latency = Some(value().parse().unwrap_or_else(|_| usage()))
            }
            "--dram-burst" => args.dram_burst = Some(value().parse().unwrap_or_else(|_| usage())),
            "--dram-row-hit" => {
                args.dram_row_hit = Some(value().parse().unwrap_or_else(|_| usage()))
            }
            "--co-run" => args.co_run.push(value().to_lowercase()),
            "--batch-lanes" => {
                args.batch_lanes = value().parse().unwrap_or_else(|_| usage());
                if args.batch_lanes == 0 {
                    usage()
                }
            }
            "--idle-skip" => args.idle_skip = true,
            "--cache-dir" => args.cache_dir = Some(PathBuf::from(value())),
            "--journal" => args.journal = Some(PathBuf::from(value())),
            "--resume" => args.resume = true,
            "--report-out" => args.report_out = Some(PathBuf::from(value())),
            // Hidden fault-injection flags: exercise the watchdog /
            // quarantine path, the disk-cache corruption handling, and
            // the journal resume protocol on a live run.
            "--inject-hang" => args.inject_hang = Some(value().parse().unwrap_or_else(|_| usage())),
            "--inject-torn-write" => {
                args.inject_torn_write =
                    Some(CacheStage::parse(&value()).unwrap_or_else(|| usage()))
            }
            "--inject-corrupt" => {
                args.inject_corrupt = Some(CacheStage::parse(&value()).unwrap_or_else(|| usage()))
            }
            "--inject-kill-after" => {
                args.inject_kill_after = Some(value().parse().unwrap_or_else(|_| usage()))
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    args
}

fn configs(sel: &str, predictor: PredictorKind, iq: IssueQueueKind) -> Vec<BoomConfig> {
    let base = match sel {
        "all" => BoomConfig::all_three(),
        "medium" => vec![BoomConfig::medium()],
        "large" => vec![BoomConfig::large()],
        "mega" => vec![BoomConfig::mega()],
        _ => usage(),
    };
    base.into_iter().map(|c| c.with_predictor(predictor).with_issue_queue(iq)).collect()
}

/// Parses `SETSxWAYSxLINE` (e.g. `512x8x64`) onto a base L2 geometry.
fn parse_l2_geometry(spec: &str, base: CacheParams) -> CacheParams {
    let parts: Vec<&str> = spec.split('x').collect();
    let [sets, ways, line] = parts.as_slice() else { usage() };
    CacheParams {
        sets: sets.parse().unwrap_or_else(|_| usage()),
        ways: ways.parse().unwrap_or_else(|_| usage()),
        line_bytes: line.parse().unwrap_or_else(|_| usage()),
        ..base
    }
}

/// Builds the uncore parameter block from the CLI knobs, starting from
/// the Table-I-style defaults.
fn uncore_params(args: &Args) -> HierarchyParams {
    let mut uncore = HierarchyParams::default_uncore();
    if let Some(spec) = &args.l2 {
        uncore.l2 = parse_l2_geometry(spec, uncore.l2);
    }
    if let Some(m) = args.l2_mshrs {
        uncore.l2.mshrs = m;
    }
    if let Some(l) = args.l2_latency {
        uncore.l2.hit_latency = l;
    }
    if let Some(l) = args.dram_latency {
        uncore.dram_latency = l;
    }
    if let Some(b) = args.dram_burst {
        uncore.dram_burst_cycles = b;
    }
    if let Some(r) = args.dram_row_hit {
        uncore.dram_row_hit_latency = r;
    }
    uncore
}

fn workloads(sel: &str, scale: Scale) -> Vec<Workload> {
    if sel == "all" {
        return all(scale);
    }
    sel.split(',')
        .filter(|n| !n.is_empty())
        .map(|n| by_name(n, scale).unwrap_or_else(|| usage()))
        .collect()
}

fn print_result(r: &WorkloadResult) {
    println!(
        "\n### {} on {} — IPC {:.2}, tile {:.2} mW, {:.1} IPC/W, {} SimPoints ({:.0}% coverage, {:.0}x reduction)",
        r.name,
        r.config,
        r.ipc,
        r.tile_power_mw(),
        r.perf_per_watt(),
        r.points.len(),
        100.0 * r.coverage,
        r.speedup,
    );
    if let Some(d) = &r.degradation {
        println!("    {d}");
    }
    let header: Vec<String> =
        ["Component", "Leakage mW", "Internal mW", "Switching mW", "Total mW", "Share"]
            .iter()
            .map(|s| s.to_string())
            .collect();
    let tile = r.tile_power_mw();
    let rows: Vec<Vec<String>> = Component::ALL
        .iter()
        .map(|c| {
            let p = r.power.component(*c);
            vec![
                c.name().to_string(),
                format!("{:.3}", p.leakage_mw),
                format!("{:.3}", p.internal_mw),
                format!("{:.3}", p.switching_mw),
                format!("{:.3}", p.total_mw()),
                format!("{:.1}%", 100.0 * p.total_mw() / tile),
            ]
        })
        .collect();
    print!("{}", render_table(&header, &rows));
}

/// Arguments of the `boomflow sweep` subcommand.
struct SweepArgs {
    preset: Option<String>,
    grid: Vec<String>,
    base: Option<String>,
    random: Option<usize>,
    seed: u64,
    workload: String,
    scale: Scale,
    warmup: u64,
    jobs: usize,
    batch_lanes: usize,
    /// `None` = auto-arm idle skipping when every config allows it.
    idle_skip: Option<bool>,
    rungs: Option<usize>,
    rung0_points: usize,
    rung0_shift: u32,
    epsilon: f64,
    epsilon_decay: f64,
    exhaustive: bool,
    cache_dir: Option<PathBuf>,
    journal: Option<PathBuf>,
    resume: bool,
    report_out: Option<PathBuf>,
    frontier_out: Option<PathBuf>,
    /// Hidden: abort the process after journaling N fresh points.
    inject_kill_after: Option<u64>,
}

fn sweep_usage() -> ! {
    eprintln!(
        "usage: boomflow sweep [--grid-preset ref64|smoke16] [--grid KNOB=V1,V2,...]\n\
         \x20               [--base medium|large|mega] [--random N --seed S]\n\
         \x20               [--workload NAME[,NAME...]|all] [--scale test|small|full]\n\
         \x20               [--warmup N] [--jobs N] [--batch-lanes N]\n\
         \x20               [--idle-skip|--no-idle-skip] [--rungs N] [--rung0-points N]\n\
         \x20               [--rung0-shift N] [--epsilon F] [--epsilon-decay F] [--exhaustive]\n\
         \x20               [--cache-dir DIR] [--journal FILE [--resume]]\n\
         \x20               [--report-out FILE] [--frontier-out FILE]\n\
         knobs: {}",
        SweepKnob::ALL.map(|k| k.key()).join(" ")
    );
    exit(2)
}

fn parse_sweep_args(argv: &[String]) -> SweepArgs {
    let mut args = SweepArgs {
        preset: None,
        grid: Vec::new(),
        base: None,
        random: None,
        seed: 0,
        workload: "all".to_string(),
        scale: Scale::Small,
        warmup: 5_000,
        jobs: default_jobs(),
        batch_lanes: 4,
        idle_skip: None,
        rungs: None,
        rung0_points: 1,
        rung0_shift: 3,
        epsilon: 0.05,
        epsilon_decay: 0.5,
        exhaustive: false,
        cache_dir: None,
        journal: None,
        resume: false,
        report_out: None,
        frontier_out: None,
        inject_kill_after: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| sweep_usage());
        match flag.as_str() {
            "--grid-preset" => args.preset = Some(value().to_lowercase()),
            "--grid" => args.grid.push(value().to_lowercase()),
            "--base" => args.base = Some(value().to_lowercase()),
            "--random" => args.random = Some(value().parse().unwrap_or_else(|_| sweep_usage())),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| sweep_usage()),
            "--workload" | "-w" => args.workload = value().to_lowercase(),
            "--scale" | "-s" => {
                args.scale = match value().to_lowercase().as_str() {
                    "test" => Scale::Test,
                    "small" => Scale::Small,
                    "full" => Scale::Full,
                    _ => sweep_usage(),
                }
            }
            "--warmup" => args.warmup = value().parse().unwrap_or_else(|_| sweep_usage()),
            "--jobs" | "-j" => {
                args.jobs = value().parse().unwrap_or_else(|_| sweep_usage());
                if args.jobs == 0 {
                    sweep_usage()
                }
            }
            "--batch-lanes" => {
                args.batch_lanes = value().parse().unwrap_or_else(|_| sweep_usage());
                if args.batch_lanes == 0 {
                    sweep_usage()
                }
            }
            "--idle-skip" => args.idle_skip = Some(true),
            "--no-idle-skip" => args.idle_skip = Some(false),
            "--rungs" => args.rungs = Some(value().parse().unwrap_or_else(|_| sweep_usage())),
            "--rung0-points" => {
                args.rung0_points = value().parse().unwrap_or_else(|_| sweep_usage())
            }
            "--rung0-shift" => args.rung0_shift = value().parse().unwrap_or_else(|_| sweep_usage()),
            "--epsilon" => args.epsilon = value().parse().unwrap_or_else(|_| sweep_usage()),
            "--epsilon-decay" => {
                args.epsilon_decay = value().parse().unwrap_or_else(|_| sweep_usage())
            }
            "--exhaustive" => args.exhaustive = true,
            "--cache-dir" => args.cache_dir = Some(PathBuf::from(value())),
            "--journal" => args.journal = Some(PathBuf::from(value())),
            "--resume" => args.resume = true,
            "--report-out" => args.report_out = Some(PathBuf::from(value())),
            "--frontier-out" => args.frontier_out = Some(PathBuf::from(value())),
            "--inject-kill-after" => {
                args.inject_kill_after = Some(value().parse().unwrap_or_else(|_| sweep_usage()))
            }
            "--help" | "-h" => sweep_usage(),
            _ => sweep_usage(),
        }
    }
    args
}

/// Parses one `--grid KNOB=V1,V2,...` axis.
fn parse_grid_axis(spec: &str) -> (SweepKnob, Vec<u64>) {
    let Some((name, values)) = spec.split_once('=') else { sweep_usage() };
    let Some(knob) = SweepKnob::parse(name) else {
        eprintln!("boomflow sweep: unknown knob '{name}'");
        sweep_usage()
    };
    let values: Vec<u64> = values
        .split(',')
        .filter(|v| !v.is_empty())
        .map(|v| v.parse().unwrap_or_else(|_| sweep_usage()))
        .collect();
    (knob, values)
}

fn sweep_main(argv: &[String]) {
    let args = parse_sweep_args(argv);

    // Assemble the design-space specification: preset axes first, then
    // any explicit `--grid` axes appended in flag order.
    let mut spec = match &args.preset {
        Some(name) => SweepSpec::preset(name).unwrap_or_else(|| {
            eprintln!("boomflow sweep: unknown grid preset '{name}'");
            sweep_usage()
        }),
        None => SweepSpec { base: BoomConfig::medium(), axes: Vec::new(), random: None },
    };
    if let Some(base) = &args.base {
        spec.base = match base.as_str() {
            "medium" => BoomConfig::medium(),
            "large" => BoomConfig::large(),
            "mega" => BoomConfig::mega(),
            _ => sweep_usage(),
        };
    }
    for axis in &args.grid {
        spec.axes.push(parse_grid_axis(axis));
    }
    if let Some(n) = args.random {
        spec.random = Some((n, args.seed));
    }
    let cfgs = spec.generate().unwrap_or_else(|e| {
        eprintln!("boomflow sweep: invalid sweep specification: {e}");
        exit(2)
    });
    let ws = workloads(&args.workload, args.scale);

    // Idle-cycle skipping: auto-armed when every configuration sits on
    // the flat fixed-latency backend; an *explicit* `--idle-skip` over a
    // hierarchy config is a typed rejection, never a silent drop.
    let idle_skip = match args.idle_skip {
        Some(true) => {
            if !all_fixed_latency(&cfgs) {
                let e = ConfigError::IdleSkipUnsupported {
                    what: "sweep over memory-hierarchy configurations".to_string(),
                };
                eprintln!("boomflow sweep: {e}");
                exit(2);
            }
            true
        }
        Some(false) => false,
        None => all_fixed_latency(&cfgs),
    };

    let flow = FlowConfig {
        warmup_insts: args.warmup,
        idle_skip,
        inject: FaultInjection {
            kill_after_points: args.inject_kill_after,
            ..FaultInjection::default()
        },
        ..FlowConfig::default()
    };
    let store = match &args.cache_dir {
        None => ArtifactStore::new(),
        Some(dir) => ArtifactStore::with_disk_cache(dir).unwrap_or_else(|e| {
            eprintln!("boomflow sweep: cannot open cache dir {}: {e}", dir.display());
            exit(2);
        }),
    };
    if args.resume && args.journal.is_none() {
        eprintln!("boomflow sweep: --resume requires --journal");
        exit(2);
    }
    let resume = args.resume && args.journal.as_ref().is_some_and(|p| p.exists());
    let opts = SweepOptions {
        jobs: args.jobs,
        batch_lanes: args.batch_lanes,
        epsilon: args.epsilon,
        epsilon_decay: args.epsilon_decay,
        rung0_points: args.rung0_points,
        rung0_shift: args.rung0_shift,
        max_rungs: args.rungs,
        exhaustive: args.exhaustive,
        journal_path: args.journal.clone(),
        resume,
        pool: None,
    };

    let report = match run_sweep(&cfgs, &ws, &flow, &store, &opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("boomflow sweep: {e}");
            exit(2);
        }
    };
    if resume {
        eprintln!(
            "boomflow sweep: resumed, {} completed point(s) replayed",
            report.stats.replayed_points
        );
    }
    print!("{}", report.render_frontier());
    print!("\n{}", report.stage_summary());
    if let Some(path) = &args.report_out {
        if let Err(e) = std::fs::write(path, report.render_deterministic()) {
            eprintln!("boomflow sweep: cannot write report {}: {e}", path.display());
            exit(1);
        }
    }
    if let Some(path) = &args.frontier_out {
        if let Err(e) = std::fs::write(path, report.render_frontier()) {
            eprintln!("boomflow sweep: cannot write frontier {}: {e}", path.display());
            exit(1);
        }
    }
    if !report.all_ok() {
        exit(1);
    }
}

fn serve_usage() -> ! {
    eprintln!(
        "usage: boomflow serve (--socket PATH|--tcp ADDR) [--jobs N] [--max-active N]\n\
         \x20               [--cache-dir DIR] [--state-dir DIR]\n\
         \x20      boomflow submit (--socket PATH|--tcp ADDR)\n\
         \x20               [--workload NAME[,NAME...]|all] [--config medium|large|mega|all]\n\
         \x20               [--scale test|small|full] [--warmup N] [--retries N]\n\
         \x20               [--batch-lanes N] [--idle-skip] [--report-out FILE]\n\
         \x20               [--sweep-preset ref64|smoke16 [--base medium|large|mega]\n\
         \x20                [--rungs N] [--rung0-points N] [--rung0-shift N]\n\
         \x20                [--epsilon F] [--epsilon-decay F] [--exhaustive]]\n\
         \x20      boomflow attach (--socket PATH|--tcp ADDR) --id HEX [--report-out FILE]\n\
         \x20      boomflow shutdown (--socket PATH|--tcp ADDR)"
    );
    exit(2)
}

/// Collects the shared `--socket`/`--tcp` address flag, returning the
/// unconsumed flags.
fn parse_addr(argv: &[String]) -> (ServeAddr, Vec<String>) {
    let mut addr = None;
    let mut rest = Vec::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--socket" => {
                addr = Some(ServeAddr::Unix(PathBuf::from(
                    it.next().cloned().unwrap_or_else(|| serve_usage()),
                )))
            }
            "--tcp" => {
                addr = Some(ServeAddr::Tcp(it.next().cloned().unwrap_or_else(|| serve_usage())))
            }
            other => rest.push(other.to_string()),
        }
    }
    match addr {
        Some(addr) => (addr, rest),
        None => serve_usage(),
    }
}

fn serve_main(argv: &[String]) {
    let (addr, rest) = parse_addr(argv);
    let mut opts = ServeOptions::default();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| serve_usage());
        match flag.as_str() {
            "--jobs" | "-j" => {
                opts.jobs = value().parse().unwrap_or_else(|_| serve_usage());
                if opts.jobs == 0 {
                    serve_usage()
                }
            }
            "--max-active" => {
                opts.max_active = value().parse().unwrap_or_else(|_| serve_usage());
                if opts.max_active == 0 {
                    serve_usage()
                }
            }
            "--cache-dir" => opts.cache_dir = Some(PathBuf::from(value())),
            "--state-dir" => opts.state_dir = PathBuf::from(value()),
            "--inject-kill-after" => {
                opts.kill_after_points = Some(value().parse().unwrap_or_else(|_| serve_usage()))
            }
            _ => serve_usage(),
        }
    }
    let server = Server::bind(&addr, opts).unwrap_or_else(|e| {
        eprintln!("boomflow serve: cannot bind {addr}: {e}");
        exit(2);
    });
    eprintln!("boomflow serve: listening on {}", server.addr());
    if let Err(e) = server.run() {
        eprintln!("boomflow serve: {e}");
        exit(1);
    }
}

/// Runs one client request against the service and exits with the
/// request's status: progress to stderr, the result summary to stdout,
/// the deterministic report bytes to `report_out`.
fn client_main(addr: &ServeAddr, msg: &ClientMsg, report_out: Option<&PathBuf>) -> ! {
    let sub = match msg {
        ClientMsg::Shutdown => "shutdown",
        ClientMsg::Attach(_) => "attach",
        ClientMsg::Submit(_) => "submit",
    };
    let terminal = request_events(addr, msg, |event| match event {
        ServerMsg::Admitted { id, replayed, active } => {
            eprintln!(
                "boomflow {sub}: request {id:016x} admitted ({replayed} point(s) replayed, \
                 {active} active)"
            );
        }
        ServerMsg::Progress { done, total, .. } => eprintln!("boomflow {sub}: {done}/{total}"),
        _ => {}
    });
    match terminal {
        Ok(Some(ServerMsg::Done { ok, report, summary, extra, .. })) => {
            if !extra.is_empty() {
                println!("{extra}");
            }
            print!("{summary}");
            if let Some(path) = report_out {
                if let Err(e) = std::fs::write(path, &report) {
                    eprintln!("boomflow {sub}: cannot write report {}: {e}", path.display());
                    exit(1);
                }
            }
            exit(if ok { 0 } else { 1 })
        }
        Ok(Some(ServerMsg::Rejected { reason })) => {
            eprintln!("boomflow {sub}: rejected: {reason}");
            exit(2)
        }
        Ok(Some(ServerMsg::Bye { active })) => {
            eprintln!("boomflow {sub}: server shutting down ({active} request(s) draining)");
            exit(0)
        }
        Ok(_) => {
            eprintln!("boomflow {sub}: server closed the stream before finishing (killed?)");
            exit(1)
        }
        Err(e) => {
            eprintln!("boomflow {sub}: {e}");
            exit(1)
        }
    }
}

fn submit_main(argv: &[String]) {
    let (addr, rest) = parse_addr(argv);
    let mut campaign = CampaignRequest {
        workloads: "all".to_string(),
        config: "all".to_string(),
        scale: Scale::Small,
        warmup: 5_000,
        retries: RetryPolicy::default().max_attempts,
        batch_lanes: 1,
        idle_skip: false,
    };
    let mut sweep: Option<SweepRequest> = None;
    let mut report_out: Option<PathBuf> = None;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| serve_usage());
        match flag.as_str() {
            "--workload" | "-w" => campaign.workloads = value().to_lowercase(),
            "--config" | "-c" => campaign.config = value().to_lowercase(),
            "--scale" | "-s" => {
                campaign.scale = match value().to_lowercase().as_str() {
                    "test" => Scale::Test,
                    "small" => Scale::Small,
                    "full" => Scale::Full,
                    _ => serve_usage(),
                }
            }
            "--warmup" => campaign.warmup = value().parse().unwrap_or_else(|_| serve_usage()),
            "--retries" => campaign.retries = value().parse().unwrap_or_else(|_| serve_usage()),
            "--batch-lanes" => {
                campaign.batch_lanes = value().parse().unwrap_or_else(|_| serve_usage());
                if campaign.batch_lanes == 0 {
                    serve_usage()
                }
            }
            "--idle-skip" => campaign.idle_skip = true,
            "--report-out" => report_out = Some(PathBuf::from(value())),
            "--sweep-preset" => {
                sweep = Some(SweepRequest {
                    preset: value().to_lowercase(),
                    base: String::new(),
                    workloads: String::new(),
                    scale: Scale::Small,
                    warmup: 5_000,
                    max_rungs: 0,
                    rung0_points: 1,
                    rung0_shift: 3,
                    epsilon: 0.05,
                    epsilon_decay: 0.5,
                    exhaustive: false,
                    batch_lanes: 1,
                })
            }
            "--base" => match &mut sweep {
                Some(s) => s.base = value().to_lowercase(),
                None => serve_usage(),
            },
            "--rungs" => match &mut sweep {
                Some(s) => s.max_rungs = value().parse().unwrap_or_else(|_| serve_usage()),
                None => serve_usage(),
            },
            "--rung0-points" => match &mut sweep {
                Some(s) => s.rung0_points = value().parse().unwrap_or_else(|_| serve_usage()),
                None => serve_usage(),
            },
            "--rung0-shift" => match &mut sweep {
                Some(s) => s.rung0_shift = value().parse().unwrap_or_else(|_| serve_usage()),
                None => serve_usage(),
            },
            "--epsilon" => match &mut sweep {
                Some(s) => s.epsilon = value().parse().unwrap_or_else(|_| serve_usage()),
                None => serve_usage(),
            },
            "--epsilon-decay" => match &mut sweep {
                Some(s) => s.epsilon_decay = value().parse().unwrap_or_else(|_| serve_usage()),
                None => serve_usage(),
            },
            "--exhaustive" => match &mut sweep {
                Some(s) => s.exhaustive = true,
                None => serve_usage(),
            },
            _ => serve_usage(),
        }
    }
    let request = match sweep {
        Some(mut s) => {
            // The sweep rides the shared workload/scale/warmup/batching
            // flags; they were parsed into the campaign skeleton.
            s.workloads = campaign.workloads.clone();
            s.scale = campaign.scale;
            s.warmup = campaign.warmup;
            s.batch_lanes = campaign.batch_lanes;
            Request::Sweep(s)
        }
        None => Request::Campaign(campaign),
    };
    eprintln!("boomflow submit: request id {:016x}", request_id(&request));
    client_main(&addr, &ClientMsg::Submit(request), report_out.as_ref())
}

fn attach_main(argv: &[String]) {
    let (addr, rest) = parse_addr(argv);
    let mut id: Option<u64> = None;
    let mut report_out: Option<PathBuf> = None;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| serve_usage());
        match flag.as_str() {
            "--id" => {
                let raw = value();
                let raw = raw.trim_start_matches("0x");
                id = Some(u64::from_str_radix(raw, 16).unwrap_or_else(|_| serve_usage()));
            }
            "--report-out" => report_out = Some(PathBuf::from(value())),
            _ => serve_usage(),
        }
    }
    let Some(id) = id else { serve_usage() };
    client_main(&addr, &ClientMsg::Attach(id), report_out.as_ref())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("sweep") => {
            sweep_main(&argv[1..]);
            return;
        }
        Some("serve") => {
            serve_main(&argv[1..]);
            return;
        }
        Some("submit") => submit_main(&argv[1..]),
        Some("attach") => attach_main(&argv[1..]),
        Some("shutdown") => {
            let (addr, rest) = parse_addr(&argv[1..]);
            if !rest.is_empty() {
                serve_usage()
            }
            client_main(&addr, &ClientMsg::Shutdown, None)
        }
        _ => {}
    }
    let args = parse_args();
    let flow = FlowConfig {
        warmup_insts: args.warmup,
        idle_skip: args.idle_skip,
        retry: RetryPolicy {
            max_attempts: args.retries,
            cycle_budget: args.cycle_budget,
            ..RetryPolicy::default()
        },
        inject: FaultInjection {
            hang_point: args.inject_hang,
            kill_after_points: args.inject_kill_after,
            ..FaultInjection::default()
        },
        ..FlowConfig::default()
    };
    let mut cfgs = configs(&args.config, args.predictor, args.iq);
    let ws = workloads(&args.workload, args.scale);

    // Memory hierarchy: any L2/DRAM knob implies `--mem-backend
    // hierarchy`. Validation is typed — a bad geometry is reported next
    // to the offending knob instead of panicking mid-campaign.
    let knobs_given = args.l2.is_some()
        || args.l2_mshrs.is_some()
        || args.l2_latency.is_some()
        || args.dram_latency.is_some()
        || args.dram_burst.is_some()
        || args.dram_row_hit.is_some();
    if args.hierarchy || knobs_given {
        let uncore = uncore_params(&args);
        cfgs = cfgs.into_iter().map(|c| c.with_hierarchy(uncore)).collect();
    }
    for cfg in &cfgs {
        if let Err(e) = cfg.validate() {
            eprintln!("boomflow: invalid configuration {}: {e}", cfg.name);
            exit(2);
        }
    }

    // Dual-core co-run cells: resolve `--co-run A+B` names against the
    // selected workload set.
    let mut co_runs: Vec<(usize, usize)> = Vec::new();
    for spec in &args.co_run {
        let Some((a, b)) = spec.split_once('+') else { usage() };
        let idx = |n: &str| {
            ws.iter().position(|w| w.name.eq_ignore_ascii_case(n)).unwrap_or_else(|| {
                eprintln!("boomflow: co-run workload '{n}' is not in the selected workload set");
                exit(2)
            })
        };
        co_runs.push((idx(a), idx(b)));
    }
    if args.full && !co_runs.is_empty() {
        eprintln!("boomflow: --co-run is a campaign cell type; it cannot combine with --full");
        exit(2);
    }
    // Idle skipping is rejected — not silently dropped — for co-run
    // cells: the strict cycle interleave over a shared uncore must
    // observe every cycle of both cores.
    if args.idle_skip && !co_runs.is_empty() {
        let e = ConfigError::IdleSkipUnsupported { what: "--co-run dual-core cells".to_string() };
        eprintln!("boomflow: {e}");
        exit(2);
    }

    if args.full {
        // Full detailed simulation: one run per cell, no SimPoint. A hang
        // prints the watchdog snapshot and moves on to the next cell.
        let mut failures = 0u32;
        for cfg in &cfgs {
            for w in &ws {
                match run_full(cfg, w) {
                    Ok(full) => println!(
                        "{} on {} (full detailed simulation): IPC {:.3} over {} insts / {} cycles, tile {:.2} mW",
                        w.name, cfg.name, full.ipc, full.retired, full.cycles,
                        full.power.tile_total_mw()
                    ),
                    Err(e) => {
                        eprintln!("{} on {}: {e}", w.name, cfg.name);
                        failures += 1;
                    }
                }
            }
        }
        if failures > 0 {
            eprintln!("{failures} full-simulation cell(s) failed");
            exit(1);
        }
        return;
    }

    // Disk-backed artifact store. The I/O fault injectors only make
    // sense against a real cache directory.
    let faults = DiskFaultInjection {
        torn_write: args.inject_torn_write,
        corrupt_write: args.inject_corrupt,
    };
    if args.cache_dir.is_none() && (faults.torn_write.is_some() || faults.corrupt_write.is_some()) {
        eprintln!("boomflow: --inject-torn-write/--inject-corrupt require --cache-dir");
        exit(2);
    }
    let store = match &args.cache_dir {
        None => ArtifactStore::new(),
        Some(dir) => ArtifactStore::with_disk_cache_injected(dir, faults).unwrap_or_else(|e| {
            eprintln!("boomflow: cannot open cache dir {}: {e}", dir.display());
            exit(2);
        }),
    };

    // Resumable campaign journal, keyed by the campaign fingerprint so a
    // journal from a different matrix or flow setup is refused.
    if args.resume && args.journal.is_none() {
        eprintln!("boomflow: --resume requires --journal");
        exit(2);
    }
    let mut journal: Option<Arc<CampaignJournal>> = None;
    let mut replay: Option<Arc<JournalReplay>> = None;
    if let Some(path) = &args.journal {
        let fp = campaign_fingerprint_with(&cfgs, &ws, &flow, &co_runs);
        if args.resume && path.exists() {
            match CampaignJournal::resume(path, fp) {
                Ok((j, r)) => {
                    eprintln!(
                        "boomflow: resuming, {} completed point(s) replayed from {}",
                        r.len(),
                        path.display()
                    );
                    journal = Some(Arc::new(j));
                    replay = Some(Arc::new(r));
                }
                Err(e) => {
                    eprintln!("boomflow: cannot resume journal {}: {e}", path.display());
                    exit(2);
                }
            }
        } else {
            match CampaignJournal::create(path, fp) {
                Ok(j) => journal = Some(Arc::new(j)),
                Err(e) => {
                    eprintln!("boomflow: cannot create journal {}: {e}", path.display());
                    exit(2);
                }
            }
        }
    }

    let opts = CampaignOptions {
        jobs: args.jobs,
        journal,
        replay,
        co_runs,
        batch_lanes: args.batch_lanes,
        pool: None,
        progress: None,
    };
    let report = supervise_campaign(&cfgs, &ws, &flow, &store, &opts);
    for cell in &report.cells {
        if let Ok(r) = &cell.outcome {
            print_result(r);
        }
    }
    for cell in &report.co_cells {
        if let Ok(cores) = &cell.outcome {
            println!(
                "\n### co-run {}+{} on {} (two cores, shared L2)",
                cell.workloads[0], cell.workloads[1], cell.config
            );
            for (i, r) in cores.iter().enumerate() {
                println!(
                    "    core {i} {}: IPC {:.2} over {} insts / {} cycles, tile {:.2} mW, \
                     L2 contention stalls {}, DRAM bandwidth-wait cycles {}",
                    r.workload,
                    r.ipc,
                    r.stats.retired,
                    r.stats.cycles,
                    r.power.tile_total_mw(),
                    r.l2_contention_stalls(),
                    r.dram_bw_wait_cycles()
                );
            }
        }
    }
    print!("\n{}", report.stage_summary());
    if let Some(log) = report.failure_log() {
        eprint!("\n{log}");
    }
    if let Some(path) = &args.report_out {
        if let Err(e) = std::fs::write(path, report.render_deterministic()) {
            eprintln!("boomflow: cannot write report {}: {e}", path.display());
            exit(1);
        }
    }
    if !report.all_ok() {
        exit(1);
    }
}
