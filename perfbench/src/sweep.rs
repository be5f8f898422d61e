//! The `sweep` workload: `run_sweep` on the `ref64` grid × {Sha, Qsort,
//! Dijkstra} at `Scale::Full` with `SweepOptions` defaults (batched lanes,
//! idle skip auto-armed) at `jobs = 2`. Detailed simulation is almost all
//! of the work; the front half is amortized over 64 configurations. The
//! seed permutes the program order; the simulated work is the same for
//! every seed.

use crate::campaign::{check_clean as check_campaign, paper_power_err};
use crate::reenact::{reenact, Reenacted};
use crate::trace::{traced, Tracer};
use crate::{
    end_to_end, per_layer, probe, EndToEnd, Layers, Outcome, Rep, Rng, Scratch, SweepCounts, JOBS,
};
use boom_uarch::BoomConfig;
use boomflow::{
    all_fixed_latency, run_sweep, supervise_campaign, ArtifactStore, CampaignJournal,
    CampaignOptions, FlowConfig, SweepOptions, SweepReport, SweepSpec,
};
use rv_workloads::{dijkstra, qsort, sha, Scale, Workload};
use std::path::Path;
use std::time::Instant;

const PRESET: &str = "ref64";

/// The three programs, built at `Scale::Full` in the seed's order.
fn programs(seed: u64) -> Vec<Workload> {
    let mut ws =
        vec![sha::build(Scale::Full), qsort::build(Scale::Full), dijkstra::build(Scale::Full)];
    Rng::new(seed).shuffle(&mut ws);
    ws
}

fn grid() -> Result<(Vec<BoomConfig>, FlowConfig), String> {
    let spec = SweepSpec::preset(PRESET).ok_or("unknown grid preset")?;
    let cfgs = spec.generate().map_err(|e| format!("grid: {e}"))?;
    let flow = FlowConfig { idle_skip: all_fixed_latency(&cfgs), ..FlowConfig::default() };
    Ok((cfgs, flow))
}

fn options() -> SweepOptions {
    SweepOptions { jobs: JOBS, ..SweepOptions::default() }
}

/// Every surviving cell ok, none degraded.
fn check_clean(report: &SweepReport) -> Result<(), String> {
    for c in &report.cells {
        match &c.outcome {
            Ok(r) if r.degradation.is_none() => {}
            Ok(_) => return Err(format!("{} on {} degraded", c.workload, c.config)),
            Err(e) => return Err(format!("{} on {} failed: {e}", c.workload, c.config)),
        }
    }
    Ok(())
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut scratch = Scratch::new()?;
    let mut first: Option<(String, String)> = None;
    let mut last: Option<(SweepReport, ArtifactStore)> = None;
    let reps = crate::repeat(seconds, || {
        // The previous repetition's store is freed before this one starts.
        last = None;
        let t = Instant::now();
        let tb = Instant::now();
        let ws = programs(seed);
        let build_s = tb.elapsed().as_secs_f64();
        let (cfgs, flow) = grid()?;
        let store = ArtifactStore::new();
        let setup_s = t.elapsed().as_secs_f64();

        let timer = probe::Timer::start();
        let report =
            run_sweep(&cfgs, &ws, &flow, &store, &options()).map_err(|e| format!("sweep: {e}"))?;
        let (wall_s, raw_wall_s, cpu_s) = timer.stop();

        check_clean(&report)?;
        let out = (report.render_deterministic(), report.render_frontier());
        match &first {
            None => first = Some(out),
            Some(f) if *f != out => {
                return Err("sweep report or frontier differs between repetitions".to_string())
            }
            Some(_) => {}
        }
        last = Some((report, store));
        Ok(Rep { setup_s, build_s, wall_s, raw_wall_s, cpu_s })
    })?;
    let peak_rss_mb = probe::peak_rss_mb();
    let (Some((render, _)), Some((report, store))) = (first, last) else {
        unreachable!("at least one repetition")
    };

    // Model error next to speed: the grid has no paper reference, so the
    // figure is that of the paper's three configurations on the sweep's
    // programs, simulated after the timed repetitions over the last one's
    // store.
    let opts = CampaignOptions { jobs: JOBS, ..CampaignOptions::default() };
    let paper = supervise_campaign(
        &BoomConfig::all_three(),
        &programs(seed),
        &FlowConfig::default(),
        &store,
        &opts,
    );
    check_campaign(&paper)?;
    let power_err = paper_power_err(&paper.cells.iter().collect::<Vec<_>>());

    let survivor_cycles: Vec<u64> = report
        .cells
        .iter()
        .map(|c| c.outcome.as_ref().map_or(0, |r| r.points.iter().map(|p| p.stats.cycles).sum()))
        .collect();
    let mut points: Vec<String> = report
        .cells
        .iter()
        .filter_map(|c| Some(format!("{}:{}", c.workload, c.outcome.as_ref().ok()?.points.len())))
        .collect();
    points.sort();
    points.dedup();
    let s = &report.stats;
    let ledger = vec![
        ("digest", crate::digest(std::slice::from_ref(&render))),
        ("measure_cycles", survivor_cycles.iter().sum::<u64>().to_string()),
        ("fresh_cycles", s.detailed_cycles.to_string()),
        ("survivor_cells", report.cells.len().to_string()),
        ("points", points.join(",")),
        ("power_err_pct", format!("{power_err}")),
    ];
    let ranked = (report.configs.len() * report.workloads.len()) as u64;
    let attempted = ranked * reps.len() as u64;

    let metrics = if !trace {
        // One request is the whole sweep; one operation is one ranked
        // configuration × program pair.
        end_to_end(EndToEnd {
            reps: &reps,
            peak_rss_mb,
            ops_per_rep: ranked,
            sim_cycles: s.detailed_cycles,
            power_err_pct: power_err,
            latencies_ms: reps.iter().map(|r| r.wall_s * 1000.0).collect(),
        })
    } else {
        // Traced sequence: the front half through the store, the sweep as
        // one span over the warmed store, then a re-enactment of the
        // final-rung survivors, whose cycles must equal the report's.
        let seq = |tr: &mut Tracer| -> Result<((SweepReport, Reenacted), f64), String> {
            let ws = programs(seed);
            let (cfgs, flow) = grid()?;
            let store = ArtifactStore::new();
            let journal = CampaignJournal::create(&scratch.fresh()?.join("reenact.bfj"), 0)
                .map_err(|e| format!("journal: {e}"))?;
            let t = Instant::now();
            let out = tr.span("sweep", 0, |tr| -> Result<_, String> {
                for (i, w) in ws.iter().enumerate() {
                    let key = i as u64;
                    let fail = |e: boomflow::FlowError| format!("{}: {e}", w.name);
                    tr.span("isa.profile", key, |_| store.profile(w, &flow)).map_err(fail)?;
                    tr.span("simpoint.analyze", key, |_| store.analysis(w, &flow)).map_err(fail)?;
                    tr.span("isa.checkpoint", key, |_| store.checkpoints(w, &flow))
                        .map_err(fail)?;
                }
                let report = tr
                    .span("sweep.run", 0, |_| run_sweep(&cfgs, &ws, &flow, &store, &options()))
                    .map_err(|e| format!("sweep: {e}"))?;
                let mut cells = Vec::with_capacity(report.cells.len());
                for c in &report.cells {
                    let cfg = cfgs.iter().find(|k| k.name == c.config).ok_or("unknown survivor")?;
                    let w =
                        ws.iter().position(|w| w.name == c.workload).ok_or("unknown program")?;
                    cells.push((cfg.clone(), w));
                }
                let re = reenact(tr, "reenact", &cells, &ws, &flow, &store, &journal)?;
                Ok((report, re))
            })?;
            Ok((out, t.elapsed().as_secs_f64()))
        };
        let (tr, (traced_report, re), untraced_s) = traced(seq)?;
        if traced_report.render_deterministic() != render {
            return Err("traced sweep report differs from the timed runs'".to_string());
        }
        if re.cell_cycles != survivor_cycles {
            return Err("re-enacted survivor cycles differ from the report's".to_string());
        }

        let out = per_layer(Layers {
            reps: &reps,
            tracer: &tr,
            root: 0,
            untraced_s,
            re: &re,
            cache: s.cache,
            sweep: SweepCounts {
                fresh_cycles: s.detailed_cycles,
                memo_hits: s.cache.sweep_point_hits,
                eliminated: report.rungs.iter().map(|r| r.eliminated as u64).sum(),
                batched_points: s.batched_points,
                idle_skipped: s.idle_cycles_skipped,
            },
            server: Default::default(),
            parallel_wall_s: None,
        })?;
        tr.write_jsonl(&Path::new(".perfbench").join(format!("trace-sweep-seed{seed}.jsonl")))
            .map_err(|e| format!("writing spans: {e}"))?;
        out
    };
    Ok(Outcome { attempted, failed: 0, metrics, ledger })
}
