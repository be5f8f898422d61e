//! The boomflow benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload campaign|sweep|serve --seed N --seconds T --trace 0|1
//! ```
//!
//! Each workload runs through boomflow's public API at `jobs = 2`, from a
//! fresh [`boomflow::ArtifactStore`] and fresh temporary directories per
//! repetition, for `--seconds` of repetitions. Every output is checked
//! before a number is recorded; a mismatch exits with code 1 and prints
//! no result. With `--trace 0` the last stdout line carries the
//! end-to-end metrics, with `--trace 1` the per-layer metrics of a
//! separate traced run. See `perfbench/README.md` for every metric's
//! definition and the layer each one belongs to.

mod campaign;
mod probe;
mod reenact;
mod serve;
mod sweep;
mod trace;

use boomflow::CacheStats;
use reenact::Reenacted;
use rtl_power::{Component, PowerReport};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::exit;

/// Worker threads every workload runs with.
pub const JOBS: usize = 2;

/// Smallest number of timed repetitions per run, whatever `--seconds`.
const MIN_REPS: usize = 3;

/// Largest share of the traced re-enactment's wall its layer spans may
/// leave unaccounted for.
pub const SPAN_TOLERANCE: f64 = 0.05;

/// One named metric with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one run of a workload reports.
pub struct Outcome {
    /// Operations attempted (cells, ranked config×program pairs, or
    /// requests) over every repetition.
    pub attempted: u64,
    /// Operations that failed or were rejected.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Exact counts that a speed-only change must leave identical.
    pub ledger: Vec<(&'static str, String)>,
}

/// Host measurements of one timed repetition.
pub struct Rep {
    /// Set-up before the timed operation.
    pub setup_s: f64,
    /// `rv_workloads` program assembly, part of `setup_s`.
    pub build_s: f64,
    /// Host wall time of the timed operation, net of steal
    /// ([`probe::net_of_steal`]).
    pub wall_s: f64,
    /// Host wall time of the timed operation as measured.
    pub raw_wall_s: f64,
    /// Process user + system CPU over the timed operation.
    pub cpu_s: f64,
}

/// Runs `one` until `seconds` have passed and at least [`MIN_REPS`]
/// repetitions have run; every repetition is timed. There is no warm-up
/// repetition: each starts from a fresh store and directories, as a user's
/// run of the CLI does.
pub fn repeat(
    seconds: f64,
    mut one: impl FnMut() -> Result<Rep, String>,
) -> Result<Vec<Rep>, String> {
    let t0 = std::time::Instant::now();
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS || t0.elapsed().as_secs_f64() < seconds {
        let r = one()?;
        eprintln!(
            "rep {}: setup {:.6} s, wall {:.6} s, raw wall {:.6} s, cpu {:.2} s",
            reps.len(),
            r.setup_s,
            r.wall_s,
            r.raw_wall_s,
            r.cpu_s
        );
        reps.push(r);
    }
    Ok(reps)
}

/// Linear-interpolated quantile `q` of `v` (0 for an empty slice).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Medians of the repetitions' set-up, build, wall and CPU times.
pub fn rep_medians(reps: &[Rep]) -> Rep {
    let m = |f: fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    Rep {
        setup_s: m(|r| r.setup_s),
        build_s: m(|r| r.build_s),
        wall_s: m(|r| r.wall_s),
        raw_wall_s: m(|r| r.raw_wall_s),
        cpu_s: m(|r| r.cpu_s),
    }
}

/// Splitmix64, the seeded generator behind every input permutation.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, (self.next_u64() % (i as u64 + 1)) as usize);
        }
    }
}

/// Temporary directories under `.perfbench/` in the working directory,
/// removed when dropped.
pub struct Scratch {
    root: PathBuf,
    n: usize,
}

impl Scratch {
    pub fn new() -> Result<Scratch, String> {
        let root = PathBuf::from(".perfbench").join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
        Ok(Scratch { root, n: 0 })
    }

    /// Removes the directory [`Scratch::fresh`] returned last. Called
    /// before a repetition's set-up is timed, so set-up does not pay for
    /// the previous repetition's clean-up.
    pub fn clean(&self) {
        let _ = std::fs::remove_dir_all(self.root.join(self.n.to_string()));
    }

    /// A new empty directory; the previous one is removed first.
    pub fn fresh(&mut self) -> Result<PathBuf, String> {
        self.clean();
        self.n += 1;
        let dir = self.root.join(self.n.to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Mean |relative error| (%) of the 13 analyzed components' mean power
/// per paper configuration against the paper's reference means. `cells`
/// pairs each cell's paper-configuration index (0 = MediumBOOM, 1 =
/// LargeBOOM, 2 = MegaBOOM) with its weighted power report.
pub fn power_err_pct(cells: &[(usize, &PowerReport)]) -> f64 {
    let mut errs = Vec::new();
    for cfg in 0..3 {
        let mine: Vec<&PowerReport> =
            cells.iter().filter(|(c, _)| *c == cfg).map(|(_, r)| *r).collect();
        if mine.is_empty() {
            continue;
        }
        for comp in Component::ANALYZED {
            let mean =
                mine.iter().map(|r| r.component(comp).total_mw()).sum::<f64>() / mine.len() as f64;
            let paper = boomflow_bench::paper_mean_mw(comp)[cfg];
            errs.push((mean - paper).abs() / paper);
        }
    }
    100.0 * errs.iter().sum::<f64>() / errs.len().max(1) as f64
}

/// Splits a deterministic render into top-level blocks: each unindented
/// line with the indented lines under it (a cell, a frontier, a rung).
pub fn blocks(render: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for line in render.lines() {
        if !line.starts_with(' ') || out.is_empty() {
            out.push(String::new());
        }
        if let Some(b) = out.last_mut() {
            b.push_str(line);
            b.push('\n');
        }
    }
    out
}

/// FNV-1a digest of the renders' blocks, independent of the order the
/// seed put the programs in.
pub fn digest(renders: &[String]) -> String {
    let mut all: Vec<String> = renders.iter().flat_map(|r| blocks(r)).collect();
    all.sort();
    format!("{:016x}", rv_isa::codec::fnv1a(all.concat().as_bytes()))
}

/// Percentile reported as `req_p90_ms`: p90 when at least ten samples lie
/// beyond it (100 or more samples), else the median, the highest
/// percentile fewer samples support.
pub fn tail(v: &[f64]) -> f64 {
    quantile(v, if v.len() >= 100 { 0.9 } else { 0.5 })
}

/// Inputs of the end-to-end metrics. Every workload reports every metric;
/// what one request and one operation are differs per workload (see
/// `perfbench/README.md`).
pub struct EndToEnd<'a> {
    pub reps: &'a [Rep],
    /// Peak resident memory, read right after the timed repetitions.
    pub peak_rss_mb: f64,
    /// Operations one repetition completes.
    pub ops_per_rep: u64,
    /// Measured-interval detailed cycles the results of one repetition
    /// carry.
    pub sim_cycles: u64,
    pub power_err_pct: f64,
    /// Request latencies over every timed repetition, in ms.
    pub latencies_ms: Vec<f64>,
}

pub fn end_to_end(e: EndToEnd<'_>) -> Vec<Metric> {
    let med = rep_medians(e.reps);
    vec![
        metric("setup_s", med.setup_s, "s"),
        metric("wall_s", med.wall_s, "s"),
        metric("cpu_s", med.cpu_s, "s"),
        metric("peak_rss_mb", e.peak_rss_mb, "MiB"),
        metric("sim_kcyc_per_s", e.sim_cycles as f64 / 1000.0 / med.wall_s, "kcyc/s"),
        metric("power_err_pct", e.power_err_pct, "%"),
        metric("req_p50_ms", median(&e.latencies_ms), "ms"),
        metric("req_p90_ms", tail(&e.latencies_ms), "ms"),
        metric("req_per_s", e.ops_per_rep as f64 / med.wall_s, "1/s"),
    ]
}

/// Sweep-layer counts from a `SweepReport`.
#[derive(Default)]
pub struct SweepCounts {
    pub fresh_cycles: u64,
    pub memo_hits: u64,
    pub eliminated: u64,
    pub batched_points: u64,
    pub idle_skipped: u64,
}

/// Server/protocol-layer figures from client-side event timestamps and
/// the `Done` summaries.
#[derive(Default)]
pub struct ServerCounts {
    /// Median Submit-sent → `Admitted`, in ms.
    pub admit_ms: f64,
    /// Median `Admitted` → `Done`, in ms.
    pub exec_ms: f64,
    pub inflight_dedup_hits: u64,
    pub warm_store_hits: u64,
    /// Report bytes received.
    pub report_bytes: u64,
}

/// Inputs of the per-layer metrics, shared by every workload.
pub struct Layers<'a> {
    pub reps: &'a [Rep],
    /// The traced sequence: every layer span nests under its root.
    pub tracer: &'a trace::Tracer,
    /// Root span of the traced sequence.
    pub root: usize,
    /// Wall of the same sequence with tracing off.
    pub untraced_s: f64,
    pub re: &'a Reenacted,
    /// Store counters of one untraced repetition (fresh store, so they
    /// are that repetition's deltas). Only counts are read.
    pub cache: CacheStats,
    pub sweep: SweepCounts,
    pub server: ServerCounts,
    /// Wall of the parallel operation the sequential re-enactment repeats
    /// (`None` where the re-enactment covers only part of it).
    pub parallel_wall_s: Option<f64>,
}

/// Names of the spans around calls into a layer; the roots of the traced
/// sequences are the benchmark's own bookkeeping.
const LAYER_SPANS: [&str; 9] = [
    "isa.profile",
    "simpoint.analyze",
    "isa.checkpoint",
    "uarch.restore",
    "uarch.warmup",
    "uarch.measure",
    "power.estimate",
    "journal.append",
    "sweep.run",
];

/// Checks that the layer spans under `root` account for its wall within
/// [`SPAN_TOLERANCE`]; returns the covered share.
pub fn check_coverage(tr: &trace::Tracer, root: usize) -> Result<f64, String> {
    let selfs = tr.subtree_self_times(root);
    let covered: f64 = LAYER_SPANS.iter().filter_map(|n| selfs.get(n)).sum();
    let wall = tr.duration(root);
    let coverage = covered / wall;
    if (1.0 - coverage).abs() > SPAN_TOLERANCE {
        return Err(format!(
            "layer spans cover {:.1}% of the traced wall, outside the {:.0}% tolerance",
            100.0 * coverage,
            100.0 * SPAN_TOLERANCE
        ));
    }
    Ok(coverage)
}

pub fn per_layer(l: Layers<'_>) -> Result<Vec<Metric>, String> {
    let med = rep_medians(l.reps);
    let selfs = l.tracer.self_times();
    let s = |name: &str| selfs.get(name).copied().unwrap_or(0.0);
    let coverage = check_coverage(l.tracer, l.root)?;
    let traced = l.tracer.duration(l.root);
    let re = l.re;
    let c = &l.cache;
    let stage_hits = c.profile_hits + c.cluster_hits + c.checkpoint_hits + c.disk_hits;
    let lookups = stage_hits + c.profile_computed + c.cluster_computed + c.checkpoint_computed;
    let measure_s = s("uarch.measure");
    // Sequential layer work: everything but the (internally parallel)
    // sweep span.
    let seq_work: f64 = LAYER_SPANS.iter().filter(|n| **n != "sweep.run").map(|n| s(n)).sum();
    Ok(vec![
        metric("workloads.build_s", med.build_s, "s"),
        metric("host.raw_wall_s", med.raw_wall_s, "s"),
        metric("isa.profile_s", s("isa.profile"), "s"),
        metric("isa.profile_insts", re.profile_insts as f64, "count"),
        metric(
            "isa.profile_mips",
            re.profile_insts as f64 / 1e6 / s("isa.profile").max(1e-9),
            "MIPS",
        ),
        metric("isa.checkpoint_s", s("isa.checkpoint"), "s"),
        metric("isa.checkpoints", re.checkpoints as f64, "count"),
        metric("simpoint.analyze_s", s("simpoint.analyze"), "s"),
        metric("simpoint.intervals", re.intervals as f64, "count"),
        metric("simpoint.points", re.points as f64, "count"),
        metric("uarch.restore_s", s("uarch.restore"), "s"),
        metric("uarch.warmup_s", s("uarch.warmup"), "s"),
        metric("uarch.warmup_cycles", re.warmup_cycles as f64, "count"),
        metric("uarch.measure_s", measure_s, "s"),
        metric("uarch.measure_cycles", re.measure_cycles as f64, "count"),
        metric(
            "uarch.kcyc_per_s",
            (re.warmup_cycles + re.measure_cycles) as f64
                / 1000.0
                / (s("uarch.warmup") + measure_s),
            "kcyc/s",
        ),
        metric(
            "uarch.useful_frac",
            re.measure_cycles as f64 / (re.warmup_cycles + re.measure_cycles) as f64,
            "frac",
        ),
        metric("power.estimate_s", s("power.estimate"), "s"),
        metric("power.estimates", re.estimates as f64, "count"),
        metric("artifacts.lookups", lookups as f64, "count"),
        metric("artifacts.hit_ratio", stage_hits as f64 / lookups.max(1) as f64, "frac"),
        metric("artifacts.disk_writes", c.disk_writes as f64, "count"),
        metric(
            "artifacts.point_memo_hits",
            (c.sweep_point_hits + c.warm_store_hits) as f64,
            "count",
        ),
        metric("journal.append_s", s("journal.append"), "s"),
        metric("journal.records", re.records as f64, "count"),
        metric(
            "scheduler.busy_frac",
            l.parallel_wall_s.map_or(0.0, |w| seq_work / (JOBS as f64 * w)),
            "frac",
        ),
        metric("sweep.fresh_cycles", l.sweep.fresh_cycles as f64, "count"),
        metric("sweep.memo_hits", l.sweep.memo_hits as f64, "count"),
        metric("sweep.eliminated", l.sweep.eliminated as f64, "count"),
        metric("sweep.batched_points", l.sweep.batched_points as f64, "count"),
        metric("sweep.idle_skipped", l.sweep.idle_skipped as f64, "count"),
        metric("server.admit_ms", l.server.admit_ms, "ms"),
        metric("server.exec_ms", l.server.exec_ms, "ms"),
        metric("server.inflight_dedup_hits", l.server.inflight_dedup_hits as f64, "count"),
        metric("server.warm_store_hits", l.server.warm_store_hits as f64, "count"),
        metric("protocol.report_bytes", l.server.report_bytes as f64, "bytes"),
        metric("trace.wall_s", traced, "s"),
        metric("trace.coverage", coverage, "frac"),
        metric("trace.overhead_frac", traced / l.untraced_s - 1.0, "frac"),
    ])
}

/// Parses the store counters out of a `Done` stage summary (the server
/// sends the rendered text, not the struct). Only counts are read.
pub fn parse_summary(summary: &str) -> CacheStats {
    let mut c = CacheStats::default();
    let nums = |s: &str| -> Vec<u64> {
        s.split(|ch: char| !ch.is_ascii_digit()).filter_map(|t| t.parse().ok()).collect()
    };
    for line in summary.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        let col = |i: usize| words.get(i).and_then(|w| w.parse::<u64>().ok()).unwrap_or(0);
        match words.first().copied() {
            Some("Profile") => (c.profile_computed, c.profile_hits) = (col(1), col(2)),
            Some("Clustering") => (c.cluster_computed, c.cluster_hits) = (col(1), col(2)),
            Some("Checkpoints") => (c.checkpoint_computed, c.checkpoint_hits) = (col(1), col(2)),
            _ => {}
        }
        if let Some(rest) = line.strip_prefix("Single-flight:") {
            if let [inflight, warm, ..] = nums(rest)[..] {
                (c.inflight_dedup_hits, c.warm_store_hits) = (inflight, warm);
            }
        }
        if let Some(rest) = line.strip_prefix("Disk cache:") {
            if let [hits, misses, writes, quarantined, ..] = nums(rest)[..] {
                (c.disk_hits, c.disk_misses, c.disk_writes, c.disk_quarantined) =
                    (hits, misses, writes, quarantined);
            }
        }
    }
    c
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!("usage: perfbench --workload campaign|sweep|serve --seed N --seconds T --trace 0|1");
    exit(2)
}

fn parse_args() -> Args {
    let mut args = Args { workload: String::new(), seed: 0, seconds: 10.0, trace: false };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let (stolen0, total0) = probe::host_cpu_s();
    let result = match args.workload.as_str() {
        "campaign" => campaign::run(args.seed, args.seconds, args.trace),
        "sweep" => sweep::run(args.seed, args.seconds, args.trace),
        "serve" => serve::run(args.seed, args.seconds, args.trace),
        _ => usage(),
    };
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench {}: {e}", args.workload);
            exit(1);
        }
    };
    if let Some(m) = out.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench {}: metric {} is not finite", args.workload, m.name);
        exit(1);
    }
    let ledger: Vec<String> = out.ledger.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("ledger {} seed={} {}", args.workload, args.seed, ledger.join(" "));
    // Share of the host's CPU time the hypervisor gave to other machines
    // during the run, so a reader can tell a disturbed run on a shared
    // virtual machine.
    let (stolen1, total1) = probe::host_cpu_s();
    let steal_pct = 100.0 * (stolen1 - stolen0) / (total1 - total0).max(0.01);
    println!("host nproc={} jobs={JOBS} steal_pct={steal_pct:.1}", probe::nproc());
    let metrics: BTreeMap<&str, String> = out
        .metrics
        .iter()
        .map(|m| (m.name, format!("{{\"value\": {}, \"unit\": \"{}\"}}", m.value, m.unit)))
        .collect();
    let body: Vec<String> = metrics.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        body.join(", ")
    );
}
