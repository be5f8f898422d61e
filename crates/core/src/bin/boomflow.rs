//! `boomflow` — command-line front end for the SimPoint power/performance
//! analysis flow.
//!
//! ```text
//! boomflow [--workload NAME[,NAME...]|all] [--config medium|large|mega|all]
//!          [--scale test|small|full] [--predictor tage|gshare]
//!          [--iq collapsing|noncollapsing] [--full] [--warmup N] [--retries N]
//!          [--cycle-budget N] [--jobs N] [--mem-backend fixed|hierarchy]
//!          [--l2 SETSxWAYSxLINE] [--l2-mshrs N] [--l2-latency N]
//!          [--dram-latency N] [--dram-burst N] [--dram-row-hit N]
//!          [--co-run A+B ...] [--batch-lanes N] [--idle-skip] [--cache-dir DIR]
//!          [--journal FILE] [--resume] [--report-out FILE]
//! boomflow sweep [--grid-preset ref64|smoke16] [--grid KNOB=V1,V2,...]
//!          [--base medium|large|mega] [--random N] [--seed S]
//!          [--workload NAME[,NAME...]|all] [--scale test|small|full] [--warmup N]
//!          [--jobs N] [--batch-lanes N] [--idle-skip|--no-idle-skip] [--rungs N]
//!          [--rung0-points N] [--rung0-shift N] [--epsilon F] [--epsilon-decay F]
//!          [--exhaustive] [--cache-dir DIR] [--journal FILE] [--resume]
//!          [--report-out FILE] [--frontier-out FILE]
//! boomflow serve (--socket PATH|--tcp ADDR) [--jobs N] [--max-active N]
//!          [--cache-dir DIR] [--state-dir DIR]
//! boomflow submit (--socket PATH|--tcp ADDR) [--sweep-preset ref64|smoke16]
//!          [--base medium|large|mega] [--workload NAME[,NAME...]|all]
//!          [--config medium|large|mega|all] [--scale test|small|full] [--warmup N]
//!          [--retries N] [--batch-lanes N] [--idle-skip] [--rungs N]
//!          [--rung0-points N] [--rung0-shift N] [--epsilon F] [--epsilon-decay F]
//!          [--exhaustive] [--report-out FILE]
//! boomflow attach (--socket PATH|--tcp ADDR) --id HEX [--report-out FILE]
//! boomflow shutdown (--socket PATH|--tcp ADDR)
//! ```
//!
//! Every flag is declared once, in the `flags!` table below: its name,
//! alias, value grammar, the entry points that accept it, and whether
//! usage shows it. One loop parses any command line into the wire records
//! (`CampaignRequest`, `SweepRequest`) plus the knobs they cannot carry
//! yet, the synopsis above is the table's usage output, and solo and
//! served runs realize the records with the same library code
//! (`realize_campaign`, `realize_sweep`).
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

use boom_uarch::{BoomConfig, ConfigError, HierarchyParams, IssueQueueKind, PredictorKind};
use boomflow::report::render_table;
use boomflow::{
    campaign_fingerprint_with, default_jobs, realize_campaign, realize_sweep, request_events,
    request_id, run_full, run_sweep, supervise_campaign, ArtifactStore, CacheStage,
    CampaignJournal, CampaignOptions, CampaignRequest, ClientMsg, DiskFaultInjection,
    FaultInjection, FlowConfig, Request, ServeAddr, ServeOptions, Server, ServerMsg, SweepExtras,
    SweepKnob, SweepOptions, SweepRequest, WorkloadResult,
};
use rtl_power::Component;
use rv_workloads::{Scale, Workload};
use std::path::PathBuf;
use std::process::exit;
use std::sync::Arc;

/// The entry points, named by the first argument (a solo campaign has
/// none).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Sub {
    Run,
    Sweep,
    Serve,
    Submit,
    Attach,
    Shutdown,
}

impl Sub {
    const ALL: [Sub; 6] =
        [Sub::Run, Sub::Sweep, Sub::Serve, Sub::Submit, Sub::Attach, Sub::Shutdown];

    /// The subcommand word; empty for a solo campaign.
    fn word(self) -> &'static str {
        match self {
            Sub::Run => "",
            Sub::Sweep => "sweep",
            Sub::Serve => "serve",
            Sub::Submit => "submit",
            Sub::Attach => "attach",
            Sub::Shutdown => "shutdown",
        }
    }

    /// The program name this entry point's messages start with.
    fn prog(self) -> String {
        match self {
            Sub::Run => "boomflow".to_string(),
            sub => format!("boomflow {}", sub.word()),
        }
    }

    /// The bit a flag's entry-point set holds for this entry point.
    const fn bit(self) -> u8 {
        1 << self as u8
    }
}

const RUN: u8 = Sub::Run.bit();
const SWEEP: u8 = Sub::Sweep.bit();
const SERVE: u8 = Sub::Serve.bit();
const SUBMIT: u8 = Sub::Submit.bit();
const ATTACH: u8 = Sub::Attach.bit();
const SHUTDOWN: u8 = Sub::Shutdown.bit();
/// `submit` takes the flag only together with `--sweep-preset`.
const WITH_PRESET: u8 = 1 << 6;
/// `submit` takes the flag only without `--sweep-preset`: a served sweep
/// has no such field.
const WITHOUT_PRESET: u8 = 1 << 7;
/// The service's client and server entry points.
const ADDR: u8 = SERVE | SUBMIT | ATTACH | SHUTDOWN;

/// How usage shows a flag.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Show {
    /// `[--flag VALUE]`.
    Opt,
    /// `--flag VALUE`: required.
    Req,
    /// An alternative to the flag before it: `[a|b]`, or `(a|b)` when
    /// that one is required.
    Alt,
    /// Not shown: the fault-injection drills.
    Hidden,
}

/// One command-line flag.
struct Flag {
    name: &'static str,
    alias: Option<&'static str>,
    /// The value grammar usage shows; `None` for a switch.
    value: Option<&'static str>,
    /// The entry points that accept the flag (a set of [`Sub::bit`]s,
    /// plus [`WITH_PRESET`] or [`WITHOUT_PRESET`]).
    subs: u8,
    show: Show,
    /// Stores the flag's value (`""` for a switch). An `Err` is a usage
    /// error, carrying a message when the usage alone would not say what
    /// is wrong.
    set: fn(&mut Cli, &str) -> Result<(), String>,
}

/// Declares [`FLAGS`] from one entry per flag:
/// `"--name" [| "-alias"] [= "VALUE"] [ENTRY | POINTS] [Show] |cli, value| store;`
macro_rules! flags {
    ($($name:literal $(| $alias:literal)? $(= $value:literal)? [$($sub:ident)|+] $($show:ident)?
        |$c:ident, $v:tt| $set:expr;)*) => {
        /// Every flag of every entry point; usage lists them in this order.
        const FLAGS: &[Flag] = &[$(Flag {
            name: $name,
            alias: flags!(@opt $($alias)?),
            value: flags!(@opt $($value)?),
            subs: 0 $(| $sub)+,
            show: flags!(@show $($show)?),
            set: |$c, $v| {
                $set;
                Ok(())
            },
        }),*];
    };
    (@opt) => { None };
    (@opt $x:literal) => { Some($x) };
    (@show) => { Show::Opt };
    (@show $show:ident) => { Show::$show };
}

flags! {
    "--socket" = "PATH" [ADDR] Req |c, v| c.local.addr = Some(ServeAddr::Unix(PathBuf::from(v)));
    "--tcp" = "ADDR" [ADDR] Alt |c, v| c.local.addr = Some(ServeAddr::Tcp(v.to_string()));
    "--id" = "HEX" [ATTACH] Req |c, v| {
        let hex = v.trim_start_matches("0x");
        c.local.id = Some(u64::from_str_radix(hex, 16).map_err(|_| String::new())?);
    };
    "--grid-preset" = "ref64|smoke16" [SWEEP] |c, v| c.sweep.preset = v.to_lowercase();
    "--sweep-preset" = "ref64|smoke16" [SUBMIT] |c, v| {
        c.sweep.preset = v.to_lowercase();
        c.local.sweep = true;
    };
    "--grid" = "KNOB=V1,V2,..." [SWEEP] |c, v| c.local.extras.axes.push(grid_axis(v)?);
    "--base" = "medium|large|mega" [SWEEP | SUBMIT | WITH_PRESET] |c, v| {
        c.sweep.base = v.to_lowercase();
    };
    "--random" = "N" [SWEEP] |c, v| c.local.extras.random = Some(num(v)?);
    "--seed" = "S" [SWEEP] |c, v| c.local.extras.seed = num(v)?;
    "--workload" | "-w" = "NAME[,NAME...]|all" [RUN | SWEEP | SUBMIT] |c, v| {
        c.campaign.workloads = v.to_lowercase();
        c.sweep.workloads = v.to_lowercase();
    };
    "--config" | "-c" = "medium|large|mega|all" [RUN | SUBMIT | WITHOUT_PRESET] |c, v| {
        c.campaign.config = v.to_lowercase();
    };
    "--scale" | "-s" = "test|small|full" [RUN | SWEEP | SUBMIT] |c, v| {
        c.campaign.scale =
            pick(v, &[("test", Scale::Test), ("small", Scale::Small), ("full", Scale::Full)])?;
        c.sweep.scale = c.campaign.scale;
    };
    "--predictor" | "-p" = "tage|gshare" [RUN] |c, v| {
        let kinds = [("tage", PredictorKind::Tage), ("gshare", PredictorKind::Gshare)];
        c.local.predictor = Some(pick(v, &kinds)?);
    };
    "--iq" = "collapsing|noncollapsing" [RUN] |c, v| {
        let kinds = [
            ("collapsing", IssueQueueKind::Collapsing),
            ("noncollapsing", IssueQueueKind::NonCollapsing),
            ("non-collapsing", IssueQueueKind::NonCollapsing),
        ];
        c.local.iq = Some(pick(v, &kinds)?);
    };
    "--full" [RUN] |c, _| c.local.full = true;
    "--warmup" = "N" [RUN | SWEEP | SUBMIT] |c, v| {
        c.campaign.warmup = num(v)?;
        c.sweep.warmup = c.campaign.warmup;
    };
    "--retries" = "N" [RUN | SUBMIT | WITHOUT_PRESET] |c, v| c.campaign.retries = num(v)?;
    "--cycle-budget" = "N" [RUN] |c, v| c.local.cycle_budget = Some(num(v)?);
    "--jobs" | "-j" = "N" [RUN | SWEEP | SERVE] |c, v| c.local.jobs = Some(positive(v)?);
    "--max-active" = "N" [SERVE] |c, v| c.local.serve.max_active = positive(v)?;
    "--mem-backend" = "fixed|hierarchy" [RUN] |c, v| {
        if pick(v, &[("fixed", false), ("hierarchy", true)])? {
            c.local.uncore();
        }
    };
    "--l2" = "SETSxWAYSxLINE" [RUN] |c, v| {
        let [sets, ways, line] = v.split('x').collect::<Vec<_>>()[..] else {
            return Err(String::new());
        };
        let l2 = &mut c.local.uncore().l2;
        (l2.sets, l2.ways, l2.line_bytes) = (num(sets)?, num(ways)?, num(line)?);
    };
    "--l2-mshrs" = "N" [RUN] |c, v| c.local.uncore().l2.mshrs = num(v)?;
    "--l2-latency" = "N" [RUN] |c, v| c.local.uncore().l2.hit_latency = num(v)?;
    "--dram-latency" = "N" [RUN] |c, v| c.local.uncore().dram_latency = num(v)?;
    "--dram-burst" = "N" [RUN] |c, v| c.local.uncore().dram_burst_cycles = num(v)?;
    "--dram-row-hit" = "N" [RUN] |c, v| c.local.uncore().dram_row_hit_latency = num(v)?;
    "--co-run" = "A+B ..." [RUN] |c, v| {
        let (a, b) = v.split_once('+').ok_or_else(String::new)?;
        c.local.co_run.push((a.to_lowercase(), b.to_lowercase()));
    };
    "--batch-lanes" = "N" [RUN | SWEEP | SUBMIT] |c, v| {
        c.campaign.batch_lanes = positive(v)?;
        c.sweep.batch_lanes = c.campaign.batch_lanes;
    };
    "--idle-skip" [RUN | SWEEP | SUBMIT | WITHOUT_PRESET] |c, _| {
        c.campaign.idle_skip = true;
        c.local.extras.idle_skip = Some(true);
    };
    "--no-idle-skip" [SWEEP] Alt |c, _| c.local.extras.idle_skip = Some(false);
    "--rungs" = "N" [SWEEP | SUBMIT | WITH_PRESET] |c, v| c.sweep.max_rungs = num(v)?;
    "--rung0-points" = "N" [SWEEP | SUBMIT | WITH_PRESET] |c, v| c.sweep.rung0_points = num(v)?;
    "--rung0-shift" = "N" [SWEEP | SUBMIT | WITH_PRESET] |c, v| c.sweep.rung0_shift = num(v)?;
    "--epsilon" = "F" [SWEEP | SUBMIT | WITH_PRESET] |c, v| c.sweep.epsilon = num(v)?;
    "--epsilon-decay" = "F" [SWEEP | SUBMIT | WITH_PRESET] |c, v| c.sweep.epsilon_decay = num(v)?;
    "--exhaustive" [SWEEP | SUBMIT | WITH_PRESET] |c, _| c.sweep.exhaustive = true;
    "--cache-dir" = "DIR" [RUN | SWEEP | SERVE] |c, v| c.local.cache_dir = Some(PathBuf::from(v));
    "--state-dir" = "DIR" [SERVE] |c, v| c.local.serve.state_dir = PathBuf::from(v);
    "--journal" = "FILE" [RUN | SWEEP] |c, v| c.local.journal = Some(PathBuf::from(v));
    "--resume" [RUN | SWEEP] |c, _| c.local.resume = true;
    "--report-out" = "FILE" [RUN | SWEEP | SUBMIT | ATTACH] |c, v| {
        c.local.report_out = Some(PathBuf::from(v));
    };
    "--frontier-out" = "FILE" [SWEEP] |c, v| c.local.frontier_out = Some(PathBuf::from(v));
    // Fault-injection drills: the watchdog / quarantine path, the
    // disk-cache corruption handling, and the journal resume protocol on
    // a live run.
    "--inject-hang" = "N" [RUN] Hidden |c, v| c.local.inject.hang_point = Some(num(v)?);
    "--inject-torn-write" = "STAGE" [RUN] Hidden |c, v| c.local.disk.torn_write = Some(stage(v)?);
    "--inject-corrupt" = "STAGE" [RUN] Hidden |c, v| c.local.disk.corrupt_write = Some(stage(v)?);
    "--inject-kill-after" = "N" [RUN | SWEEP | SERVE] Hidden |c, v| {
        c.local.inject.kill_after_points = Some(num(v)?);
    };
}

fn num<T: std::str::FromStr>(v: &str) -> Result<T, String> {
    v.parse().map_err(|_| String::new())
}

fn positive(v: &str) -> Result<usize, String> {
    match num(v)? {
        0 => Err(String::new()),
        n => Ok(n),
    }
}

/// The value `v` names (case-insensitively) among `choices`.
fn pick<T: Copy>(v: &str, choices: &[(&str, T)]) -> Result<T, String> {
    let v = v.to_lowercase();
    choices.iter().find(|(name, _)| *name == v).map(|&(_, x)| x).ok_or_else(String::new)
}

fn stage(v: &str) -> Result<CacheStage, String> {
    CacheStage::parse(v).ok_or_else(String::new)
}

/// Parses one `--grid KNOB=V1,V2,...` axis.
fn grid_axis(spec: &str) -> Result<(SweepKnob, Vec<u64>), String> {
    let spec = spec.to_lowercase();
    let (name, values) = spec.split_once('=').ok_or_else(String::new)?;
    let knob = SweepKnob::parse(name).ok_or_else(|| format!("unknown knob '{name}'"))?;
    let values = values.split(',').filter(|v| !v.is_empty()).map(num).collect::<Result<_, _>>()?;
    Ok((knob, values))
}

/// One parsed command line: the wire records every entry point builds,
/// plus the knobs they cannot carry yet.
#[derive(Default)]
struct Cli {
    campaign: CampaignRequest,
    sweep: SweepRequest,
    local: Local,
}

/// The CLI-local knobs (see `CampaignRequest`'s and `SweepRequest`'s
/// docs for why each stays off the wire). `None` keeps the library's
/// default.
#[derive(Default)]
struct Local {
    predictor: Option<PredictorKind>,
    iq: Option<IssueQueueKind>,
    full: bool,
    cycle_budget: Option<u64>,
    /// The uncore of the hierarchy backend, which `--mem-backend
    /// hierarchy` and every `--l2*`/`--dram*` knob select.
    uncore: Option<HierarchyParams>,
    co_run: Vec<(String, String)>,
    extras: SweepExtras,
    /// `submit --sweep-preset`: the request is a sweep.
    sweep: bool,
    jobs: Option<usize>,
    /// `serve`'s own knobs; its jobs, cache and kill drill come from the
    /// shared fields.
    serve: ServeOptions,
    addr: Option<ServeAddr>,
    id: Option<u64>,
    cache_dir: Option<PathBuf>,
    journal: Option<PathBuf>,
    resume: bool,
    report_out: Option<PathBuf>,
    frontier_out: Option<PathBuf>,
    inject: FaultInjection,
    disk: DiskFaultInjection,
}

impl Local {
    fn uncore(&mut self) -> &mut HierarchyParams {
        self.uncore.get_or_insert_with(HierarchyParams::default_uncore)
    }

    fn jobs(&self) -> usize {
        self.jobs.unwrap_or_else(default_jobs)
    }
}

impl Cli {
    /// The request `submit` sends.
    fn request(&self) -> Request {
        match self.local.sweep {
            true => Request::Sweep(self.sweep.clone()),
            false => Request::Campaign(self.campaign.clone()),
        }
    }
}

/// Parses the arguments after the subcommand word. An `Err` is a usage
/// error (see [`Flag::set`]).
fn parse(sub: Sub, argv: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    if sub == Sub::Submit {
        // A served sweep batches like a served campaign unless told
        // otherwise; its request id has always hashed this default.
        cli.sweep.batch_lanes = cli.campaign.batch_lanes;
    }
    let mut seen = [false; FLAGS.len()];
    let mut args = argv.iter();
    while let Some(arg) = args.next() {
        let i = FLAGS
            .iter()
            .position(|f| f.subs & sub.bit() != 0 && (f.name == arg || f.alias == Some(arg)))
            .ok_or_else(String::new)?;
        let value = match FLAGS[i].value {
            Some(_) => args.next().ok_or_else(String::new)?,
            None => "",
        };
        (FLAGS[i].set)(&mut cli, value)?;
        seen[i] = true;
    }
    // A required flag, or one of its alternatives, must be given; a
    // sweep-only submit flag needs `--sweep-preset`, and a campaign-only
    // one refuses it.
    let refused = if cli.local.sweep { WITHOUT_PRESET } else { WITH_PRESET };
    for (i, flag) in FLAGS.iter().enumerate() {
        let alts = FLAGS[i + 1..].iter().take_while(|f| f.show == Show::Alt).count();
        let missing = flag.show == Show::Req && !seen[i..=i + alts].contains(&true);
        let misplaced = sub == Sub::Submit && flag.subs & refused != 0 && seen[i];
        if flag.subs & sub.bit() != 0 && (missing || misplaced) {
            return Err(String::new());
        }
    }
    Ok(cli)
}

/// `sub`'s synopsis, generated from [`FLAGS`] and wrapped at 80 columns.
fn synopsis(sub: Sub) -> String {
    let mut items = vec![sub.prog()];
    for flag in FLAGS.iter().filter(|f| f.subs & sub.bit() != 0 && f.show != Show::Hidden) {
        let item = match flag.value {
            Some(value) => format!("{} {value}", flag.name),
            None => flag.name.to_string(),
        };
        match (flag.show, items.last_mut()) {
            (Show::Alt, Some(last)) => {
                *last = match last.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                    Some(inner) => format!("[{inner}|{item}]"),
                    None => format!("({last}|{item})"),
                };
            }
            (Show::Req, _) => items.push(item),
            _ => items.push(format!("[{item}]")),
        }
    }
    let mut out = String::new();
    let mut line = items.remove(0);
    for item in items {
        if line.len() + 1 + item.len() > 80 {
            out += &line;
            out.push('\n');
            line = " ".repeat("boomflow".len());
        }
        line.push(' ');
        line.push_str(&item);
    }
    out + &line + "\n"
}

/// Prints `sub`'s usage (and `msg`, when there is one), then exits 2.
fn usage(sub: Sub, msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("{}: {msg}", sub.prog());
    }
    for (i, line) in synopsis(sub).lines().enumerate() {
        eprintln!("{}{line}", if i == 0 { "usage: " } else { "       " });
    }
    let names = |subs: u8| {
        let flags = FLAGS.iter().filter(|f| f.subs & subs == subs);
        flags.map(|f| f.name).collect::<Vec<_>>().join(" ")
    };
    if sub == Sub::Submit {
        eprintln!("sweep flags, with --sweep-preset: {}", names(SUBMIT | WITH_PRESET));
        eprintln!("campaign flags, without --sweep-preset: {}", names(SUBMIT | WITHOUT_PRESET));
    }
    if matches!(sub, Sub::Run | Sub::Sweep | Sub::Submit) {
        let workloads = rv_workloads::names().map(str::to_lowercase).collect::<Vec<_>>();
        eprintln!("workloads: {}", workloads.join(" "));
    }
    if sub == Sub::Sweep {
        eprintln!("knobs: {}", SweepKnob::ALL.map(|k| k.key()).join(" "));
    }
    exit(2)
}

/// Prints `msg` under `sub`'s name and exits with `code`.
fn die(sub: Sub, code: i32, msg: impl std::fmt::Display) -> ! {
    eprintln!("{}: {msg}", sub.prog());
    exit(code)
}

/// Writes `bytes` to the `--report-out`/`--frontier-out` file, if any.
fn write_out(sub: Sub, what: &str, path: Option<&PathBuf>, bytes: &[u8]) {
    if let Some(path) = path {
        if let Err(e) = std::fs::write(path, bytes) {
            die(sub, 1, format!("cannot write {what} {}: {e}", path.display()));
        }
    }
}

/// The artifact store, disk-backed under `--cache-dir`. The I/O fault
/// injectors only make sense against a real cache directory.
fn open_store(sub: Sub, local: &Local) -> ArtifactStore {
    let injected = local.disk.torn_write.is_some() || local.disk.corrupt_write.is_some();
    match &local.cache_dir {
        None if injected => die(sub, 2, "--inject-torn-write/--inject-corrupt require --cache-dir"),
        None => ArtifactStore::new(),
        Some(dir) => ArtifactStore::with_disk_cache_injected(dir, local.disk).unwrap_or_else(|e| {
            die(sub, 2, format!("cannot open cache dir {}: {e}", dir.display()))
        }),
    }
}

/// Whether to resume `--journal` (a missing journal resumes as a fresh
/// one); `--resume` needs `--journal`.
fn resuming(sub: Sub, local: &Local) -> bool {
    if local.resume && local.journal.is_none() {
        die(sub, 2, "--resume requires --journal");
    }
    local.resume
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

/// A solo campaign: the shared realization, then the CLI-local knobs on
/// top.
struct Run {
    cfgs: Vec<BoomConfig>,
    ws: Vec<Workload>,
    flow: FlowConfig,
    co_runs: Vec<(usize, usize)>,
}

/// Realizes a solo campaign; an `Err` is a configuration error.
fn realize_run(cli: &Cli) -> Result<Run, String> {
    let local = &cli.local;
    let (cfgs, ws, mut flow) = realize_campaign(&cli.campaign)?;
    flow.retry.cycle_budget = local.cycle_budget;
    flow.inject = local.inject;
    // Memory hierarchy: any L2/DRAM knob implies `--mem-backend
    // hierarchy`. Validation is typed — a bad geometry is reported next
    // to the offending knob instead of panicking mid-campaign.
    let mut out = Vec::with_capacity(cfgs.len());
    for mut cfg in cfgs {
        cfg.predictor = local.predictor.unwrap_or(cfg.predictor);
        cfg.iq_kind = local.iq.unwrap_or(cfg.iq_kind);
        if let Some(uncore) = local.uncore {
            cfg = cfg.with_hierarchy(uncore);
        }
        cfg.validate().map_err(|e| format!("invalid configuration {}: {e}", cfg.name))?;
        out.push(cfg);
    }
    // Dual-core co-run cells: `--co-run A+B` names resolve against the
    // selected workload set.
    let index = |n: &str| {
        ws.iter()
            .position(|w| w.name.eq_ignore_ascii_case(n))
            .ok_or_else(|| format!("co-run workload '{n}' is not in the selected workload set"))
    };
    let co_runs = local
        .co_run
        .iter()
        .map(|(a, b)| Ok((index(a)?, index(b)?)))
        .collect::<Result<Vec<_>, String>>()?;
    if local.full && !co_runs.is_empty() {
        return Err("--co-run is a campaign cell type; it cannot combine with --full".to_string());
    }
    // Idle skipping is rejected — not silently dropped — for co-run
    // cells: the strict cycle interleave over a shared uncore must
    // observe every cycle of both cores.
    if flow.idle_skip && !co_runs.is_empty() {
        let what = "--co-run dual-core cells".to_string();
        return Err(ConfigError::IdleSkipUnsupported { what }.to_string());
    }
    Ok(Run { cfgs: out, ws, flow, co_runs })
}

fn run_main(cli: &Cli) {
    let sub = Sub::Run;
    let Run { cfgs, ws, flow, co_runs } = realize_run(cli).unwrap_or_else(|e| die(sub, 2, e));
    let local = &cli.local;

    if local.full {
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

    let store = open_store(sub, local);
    // Resumable campaign journal, keyed by the campaign fingerprint so a
    // journal from a different matrix or flow setup is refused.
    let resume = resuming(sub, local);
    let (journal, replay) = match &local.journal {
        Some(path) => {
            let fp = campaign_fingerprint_with(&cfgs, &ws, &flow, &co_runs);
            let (j, r) = CampaignJournal::open(path, fp, resume).unwrap_or_else(|e| {
                let verb = if resume { "resume" } else { "create" };
                die(sub, 2, format!("cannot {verb} journal {}: {e}", path.display()))
            });
            if resume {
                eprintln!(
                    "boomflow: resuming, {} completed point(s) replayed from {}",
                    r.len(),
                    path.display()
                );
            }
            (Some(Arc::new(j)), Some(Arc::new(r)))
        }
        None => (None, None),
    };

    let opts = CampaignOptions {
        jobs: local.jobs(),
        journal,
        replay,
        co_runs,
        batch_lanes: cli.campaign.batch_lanes,
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
    write_out(sub, "report", local.report_out.as_ref(), report.render_deterministic().as_bytes());
    if !report.all_ok() {
        exit(1);
    }
}

fn sweep_main(cli: &Cli) {
    let sub = Sub::Sweep;
    let local = &cli.local;
    let (cfgs, ws, mut flow, opts) =
        realize_sweep(&cli.sweep, &local.extras).unwrap_or_else(|e| die(sub, 2, e));
    flow.inject.kill_after_points = local.inject.kill_after_points;
    let store = open_store(sub, local);
    let resume = resuming(sub, local);
    let opts =
        SweepOptions { jobs: local.jobs(), journal_path: local.journal.clone(), resume, ..opts };
    let report = run_sweep(&cfgs, &ws, &flow, &store, &opts).unwrap_or_else(|e| die(sub, 2, e));
    if resume {
        eprintln!(
            "boomflow sweep: resumed, {} completed point(s) replayed",
            report.stats.replayed_points
        );
    }
    print!("{}", report.render_frontier());
    print!("\n{}", report.stage_summary());
    write_out(sub, "report", local.report_out.as_ref(), report.render_deterministic().as_bytes());
    write_out(sub, "frontier", local.frontier_out.as_ref(), report.render_frontier().as_bytes());
    if !report.all_ok() {
        exit(1);
    }
}

fn serve_main(cli: Cli) {
    let sub = Sub::Serve;
    let local = cli.local;
    let Some(addr) = &local.addr else { usage(sub, "") };
    let opts = ServeOptions {
        jobs: local.jobs(),
        cache_dir: local.cache_dir.clone(),
        kill_after_points: local.inject.kill_after_points,
        ..local.serve
    };
    let server = Server::bind(addr, opts)
        .unwrap_or_else(|e| die(sub, 2, format!("cannot bind {addr}: {e}")));
    eprintln!("boomflow serve: listening on {}", server.addr());
    if let Err(e) = server.run() {
        die(sub, 1, e);
    }
}

/// Runs one client request against the service and exits with the
/// request's status: progress to stderr, the result summary to stdout,
/// the deterministic report bytes to `--report-out`.
fn client_main(sub: Sub, local: &Local, msg: &ClientMsg) -> ! {
    let Some(addr) = &local.addr else { usage(sub, "") };
    let prog = sub.prog();
    let terminal = request_events(addr, msg, |event| match event {
        ServerMsg::Admitted { id, replayed, active } => {
            eprintln!(
                "{prog}: request {id:016x} admitted ({replayed} point(s) replayed, \
                 {active} active)"
            );
        }
        ServerMsg::Progress { done, total, .. } => eprintln!("{prog}: {done}/{total}"),
        _ => {}
    });
    match terminal {
        Ok(Some(ServerMsg::Done { ok, report, summary, extra, .. })) => {
            if !extra.is_empty() {
                println!("{extra}");
            }
            print!("{summary}");
            write_out(sub, "report", local.report_out.as_ref(), &report);
            exit(if ok { 0 } else { 1 })
        }
        Ok(Some(ServerMsg::Rejected { reason })) => die(sub, 2, format!("rejected: {reason}")),
        Ok(Some(ServerMsg::Bye { active })) => {
            eprintln!("{prog}: server shutting down ({active} request(s) draining)");
            exit(0)
        }
        Ok(_) => die(sub, 1, "server closed the stream before finishing (killed?)"),
        Err(e) => die(sub, 1, e),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let first = argv.first().map_or("", String::as_str);
    let sub = Sub::ALL.into_iter().find(|s| s.word() == first && !first.is_empty());
    let (sub, rest) = match sub {
        Some(sub) => (sub, &argv[1..]),
        None => (Sub::Run, &argv[..]),
    };
    let cli = parse(sub, rest).unwrap_or_else(|msg| usage(sub, &msg));
    match sub {
        Sub::Run => run_main(&cli),
        Sub::Sweep => sweep_main(&cli),
        Sub::Serve => serve_main(cli),
        Sub::Submit => {
            let request = cli.request();
            eprintln!("boomflow submit: request id {:016x}", request_id(&request));
            client_main(sub, &cli.local, &ClientMsg::Submit(request))
        }
        Sub::Attach => {
            let Some(id) = cli.local.id else { usage(sub, "") };
            client_main(sub, &cli.local, &ClientMsg::Attach(id))
        }
        Sub::Shutdown => client_main(sub, &cli.local, &ClientMsg::Shutdown),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    /// `line`'s flags, each with its value, in reverse order.
    fn reversed(line: &str) -> String {
        let mut groups: Vec<Vec<&str>> = Vec::new();
        for word in line.split_whitespace() {
            match groups.last_mut() {
                Some(group) if !word.starts_with('-') => group.push(word),
                _ => groups.push(vec![word]),
            }
        }
        groups.iter().rev().map(|g| g.join(" ")).collect::<Vec<_>>().join(" ")
    }

    fn submitted(line: &str) -> Request {
        match parse(Sub::Submit, &args(line)) {
            Ok(cli) => cli.request(),
            Err(msg) => panic!("`submit {line}` must parse ({msg})"),
        }
    }

    fn campaign(workloads: &str, config: &str, scale: Scale) -> CampaignRequest {
        CampaignRequest {
            workloads: workloads.to_string(),
            config: config.to_string(),
            scale,
            warmup: 5_000,
            retries: 3,
            batch_lanes: 1,
            idle_skip: false,
        }
    }

    fn smoke16() -> SweepRequest {
        SweepRequest {
            preset: "smoke16".to_string(),
            base: String::new(),
            workloads: "all".to_string(),
            scale: Scale::Small,
            warmup: 5_000,
            max_rungs: 0,
            rung0_points: 1,
            rung0_shift: 3,
            epsilon: 0.05,
            epsilon_decay: 0.5,
            exhaustive: false,
            batch_lanes: 1,
        }
    }

    const EVERY_CAMPAIGN_FLAG: &str = "--socket s --workload bitcount,sha --config mega \
        --scale test --warmup 3000 --retries 2 --batch-lanes 3 --idle-skip";
    const EVERY_SWEEP_FLAG: &str = "--socket s --sweep-preset REF64 --base Large --rungs 2 \
        --rung0-points 2 --rung0-shift 4 --epsilon 0.1 --epsilon-decay 0.25 --exhaustive \
        --workload sha,qsort --scale test --warmup 2000 --batch-lanes 2";

    /// The requests and ids `submit` built with the hand-written parsers
    /// the flag table replaced: spec logs and re-attaches from earlier
    /// builds keep working.
    #[test]
    fn submit_requests_keep_their_values() {
        let cases = [
            (
                "--socket s",
                Request::Campaign(campaign("all", "all", Scale::Small)),
                0x8223_51de_3fe5_3b9f,
            ),
            (
                EVERY_CAMPAIGN_FLAG,
                Request::Campaign(CampaignRequest {
                    warmup: 3_000,
                    retries: 2,
                    batch_lanes: 3,
                    idle_skip: true,
                    ..campaign("bitcount,sha", "mega", Scale::Test)
                }),
                0x80b4_5dcd_2b50_20da,
            ),
            (
                "--socket s -w Dijkstra -c LARGE -s FULL",
                Request::Campaign(campaign("dijkstra", "large", Scale::Full)),
                0x7408_a66d_e1b0_9778,
            ),
            (
                "--socket s --retries 0",
                Request::Campaign(CampaignRequest {
                    retries: 0,
                    ..campaign("all", "all", Scale::Small)
                }),
                0x0b22_b691_fbee_4dc2,
            ),
            ("--socket s --sweep-preset smoke16", Request::Sweep(smoke16()), 0x3188_b092_0530_22ae),
            (
                EVERY_SWEEP_FLAG,
                Request::Sweep(SweepRequest {
                    preset: "ref64".to_string(),
                    base: "large".to_string(),
                    workloads: "sha,qsort".to_string(),
                    scale: Scale::Test,
                    warmup: 2_000,
                    max_rungs: 2,
                    rung0_points: 2,
                    rung0_shift: 4,
                    epsilon: 0.1,
                    epsilon_decay: 0.25,
                    exhaustive: true,
                    batch_lanes: 2,
                }),
                0xa7f6_40d3_6786_94dc,
            ),
        ];
        for (line, want, id) in cases {
            let got = submitted(line);
            assert_eq!(got, want, "submit {line}");
            assert_eq!(request_id(&got), id, "submit {line}");
        }
    }

    #[test]
    fn submit_parses_flags_in_any_order() {
        for line in
            ["--socket s --base mega --sweep-preset smoke16", EVERY_SWEEP_FLAG, EVERY_CAMPAIGN_FLAG]
        {
            let (a, b) = (submitted(line), submitted(&reversed(line)));
            assert_eq!(a, b, "submit {line}");
            assert_eq!(request_id(&a), request_id(&b));
        }
        assert!(
            parse(Sub::Submit, &args("--socket s --base mega")).is_err(),
            "a sweep flag without --sweep-preset is a usage error"
        );
        for flag in ["--config mega", "-c mega", "--retries 1", "--idle-skip"] {
            for line in [
                format!("--socket s --sweep-preset smoke16 {flag}"),
                format!("{flag} --socket s --sweep-preset smoke16"),
            ] {
                assert!(
                    parse(Sub::Submit, &args(&line)).is_err(),
                    "`submit {line}`: a campaign flag with --sweep-preset is a usage error"
                );
            }
        }
        assert!(parse(Sub::Submit, &args("--workload sha")).is_err(), "the address is required");
        assert!(parse(Sub::Attach, &args("--socket s")).is_err(), "attach needs --id");
    }

    /// The flags each entry point accepted before the table.
    #[test]
    fn each_entry_point_accepts_its_flags() {
        let accepted = |sub: Sub| {
            let flags = FLAGS.iter().filter(|f| f.subs & sub.bit() != 0);
            flags.flat_map(|f| [Some(f.name), f.alias]).flatten().collect::<BTreeSet<_>>()
        };
        let set = |list: &'static str| list.split_whitespace().collect::<BTreeSet<_>>();
        let cases = [
            (
                Sub::Run,
                "--workload -w --config -c --scale -s --predictor -p --iq --full --warmup \
                 --retries --cycle-budget --jobs -j --mem-backend --l2 --l2-mshrs --l2-latency \
                 --dram-latency --dram-burst --dram-row-hit --co-run --batch-lanes --idle-skip \
                 --cache-dir --journal --resume --report-out --inject-hang --inject-torn-write \
                 --inject-corrupt --inject-kill-after",
            ),
            (
                Sub::Sweep,
                "--grid-preset --grid --base --random --seed --workload -w --scale -s --warmup \
                 --jobs -j --batch-lanes --idle-skip --no-idle-skip --rungs --rung0-points \
                 --rung0-shift --epsilon --epsilon-decay --exhaustive --cache-dir --journal \
                 --resume --report-out --frontier-out --inject-kill-after",
            ),
            (
                Sub::Serve,
                "--socket --tcp --jobs -j --max-active --cache-dir --state-dir --inject-kill-after",
            ),
            (
                Sub::Submit,
                "--socket --tcp --workload -w --config -c --scale -s --warmup --retries \
                 --batch-lanes --idle-skip --report-out --sweep-preset --base --rungs \
                 --rung0-points --rung0-shift --epsilon --epsilon-decay --exhaustive",
            ),
            (Sub::Attach, "--socket --tcp --id --report-out"),
            (Sub::Shutdown, "--socket --tcp"),
        ];
        for (sub, want) in cases {
            assert_eq!(accepted(sub), set(want), "{sub:?}");
        }
        // `submit`'s sweep-only and campaign-only flags.
        let only = |bit: u8| {
            let flags = FLAGS.iter().filter(|f| f.subs & (SUBMIT | bit) == SUBMIT | bit);
            flags.map(|f| f.name).collect::<BTreeSet<_>>()
        };
        let sweep_only = "--base --rungs --rung0-points --rung0-shift --epsilon --epsilon-decay \
            --exhaustive";
        assert_eq!(only(WITH_PRESET), set(sweep_only));
        assert_eq!(only(WITHOUT_PRESET), set("--config --retries --idle-skip"));
    }

    /// `--retries 0` runs one attempt, as `--retries 1` does, so both are
    /// one campaign with one journal fingerprint.
    #[test]
    fn retries_zero_and_one_realize_one_campaign() {
        let realized = |retries: u32| {
            let line = format!("--workload bitcount --scale test --retries {retries}");
            let cli = parse(Sub::Run, &args(&line)).unwrap();
            let run = realize_run(&cli).unwrap();
            let fp = campaign_fingerprint_with(&run.cfgs, &run.ws, &run.flow, &run.co_runs);
            (format!("{:?}", run.flow), fp)
        };
        assert_eq!(realized(0), realized(1));
        assert_ne!(realized(1).1, realized(2).1, "the retry count stays in the fingerprint");
    }

    /// The module synopsis and README's CLI synopsis are the table's
    /// usage output.
    #[test]
    fn docs_carry_the_generated_synopsis() {
        let synopsis: String = Sub::ALL.map(synopsis).concat();
        let module: String = include_str!("boomflow.rs")
            .lines()
            .skip_while(|l| *l != "//! ```text")
            .skip(1)
            .take_while(|l| *l != "//! ```")
            .map(|l| format!("{}\n", l.trim_start_matches("//!").strip_prefix(' ').unwrap_or("")))
            .collect();
        assert_eq!(module, synopsis, "regenerate the module synopsis");
        let readme = include_str!("../../../../README.md");
        assert!(
            readme.contains(&format!("```text\n{synopsis}```")),
            "regenerate README's synopsis"
        );
    }
}
