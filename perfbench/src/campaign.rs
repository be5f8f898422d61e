//! The `campaign` workload: the paper's own experiment.
//!
//! All 11 programs × {MediumBOOM, LargeBOOM, MegaBOOM} at `Scale::Full`
//! through `supervise_campaign` (`supervise_matrix_with` over a
//! caller-owned store) at `jobs = 2`, with a fresh disk-cache directory
//! and a fresh `CampaignJournal` per repetition — the only workload that
//! writes. The seed permutes the program order; the simulated work is the
//! same for every seed.

use crate::reenact::{reenact, Reenacted};
use crate::trace::{traced, Tracer};
use crate::{
    end_to_end, per_layer, power_err_pct, probe, EndToEnd, Layers, Outcome, Rep, Rng, Scratch, JOBS,
};
use boom_uarch::BoomConfig;
use boomflow::{
    campaign_fingerprint, supervise_campaign, ArtifactStore, CampaignJournal, CampaignOptions,
    CampaignReport, CellResult, FlowConfig,
};
use rtl_power::PowerReport;
use rv_workloads::{all, Scale, Workload};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The programs in the seed's order.
fn programs(seed: u64) -> Vec<Workload> {
    let mut ws = all(Scale::Full);
    Rng::new(seed).shuffle(&mut ws);
    ws
}

/// Every cell ok, none degraded (no quarantined point, no retry).
pub fn check_clean(report: &CampaignReport) -> Result<(), String> {
    if let Some(log) = report.failure_log() {
        return Err(format!("campaign not clean:\n{log}"));
    }
    Ok(())
}

/// Measured-interval cycles of each cell of a campaign report.
pub fn cell_cycles(report: &CampaignReport) -> Vec<u64> {
    report
        .cells
        .iter()
        .map(|c| c.outcome.as_ref().map_or(0, |r| r.points.iter().map(|p| p.stats.cycles).sum()))
        .collect()
}

/// SimPoints per program, `Program:N` sorted by name.
pub fn points_per_program(cells: &[&CellResult]) -> String {
    let mut v: Vec<String> = cells
        .iter()
        .filter_map(|c| Some(format!("{}:{}", c.workload, c.outcome.as_ref().ok()?.points.len())))
        .collect();
    v.sort();
    v.dedup();
    v.join(",")
}

/// [`power_err_pct`] of the distinct cells over the paper's
/// configurations, summed in (configuration, program) order so the
/// figure does not depend on the order the seed ran them in.
pub fn paper_power_err(cells: &[&CellResult]) -> f64 {
    let names: Vec<String> = BoomConfig::all_three().into_iter().map(|c| c.name).collect();
    let mut keyed: Vec<(usize, &str, &PowerReport)> = cells
        .iter()
        .filter_map(|c| {
            let cfg = names.iter().position(|n| *n == c.config)?;
            Some((cfg, c.workload, &c.outcome.as_ref().ok()?.power))
        })
        .collect();
    keyed.sort_by_key(|&(cfg, w, _)| (cfg, w));
    keyed.dedup_by_key(|&mut (cfg, w, _)| (cfg, w));
    power_err_pct(&keyed.into_iter().map(|(cfg, _, p)| (cfg, p)).collect::<Vec<_>>())
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut scratch = Scratch::new()?;
    let cfgs = BoomConfig::all_three();
    let flow = FlowConfig::default();
    let mut first: Option<String> = None;
    let mut last: Option<CampaignReport> = None;
    let reps = crate::repeat(seconds, || {
        scratch.clean();
        let t = Instant::now();
        let tb = Instant::now();
        let ws = programs(seed);
        let build_s = tb.elapsed().as_secs_f64();
        let dir = scratch.fresh()?;
        let store = ArtifactStore::with_disk_cache(&dir.join("cache"))
            .map_err(|e| format!("disk cache: {e}"))?;
        let setup_s = t.elapsed().as_secs_f64();

        let timer = probe::Timer::start();
        let journal = CampaignJournal::create(
            &dir.join("campaign.bfj"),
            campaign_fingerprint(&cfgs, &ws, &flow),
        )
        .map_err(|e| format!("journal: {e}"))?;
        let opts = CampaignOptions {
            jobs: JOBS,
            journal: Some(Arc::new(journal)),
            ..CampaignOptions::default()
        };
        let report = supervise_campaign(&cfgs, &ws, &flow, &store, &opts);
        let (wall_s, raw_wall_s, cpu_s) = timer.stop();

        check_clean(&report)?;
        let render = report.render_deterministic();
        match &first {
            None => first = Some(render),
            Some(f) if *f != render => return Err("report differs between repetitions".to_string()),
            Some(_) => {}
        }
        last = Some(report);
        Ok(Rep { setup_s, build_s, wall_s, raw_wall_s, cpu_s })
    })?;
    let peak_rss_mb = probe::peak_rss_mb();
    let (Some(render), Some(report)) = (first, last) else {
        unreachable!("at least one repetition")
    };

    let cycles = cell_cycles(&report);
    let measure_cycles: u64 = cycles.iter().sum();
    let all_cells: Vec<&CellResult> = report.cells.iter().collect();
    let power_err = paper_power_err(&all_cells);
    let ledger = vec![
        ("digest", crate::digest(std::slice::from_ref(&render))),
        ("measure_cycles", measure_cycles.to_string()),
        ("cells", report.cells.len().to_string()),
        ("points", points_per_program(&all_cells)),
        ("power_err_pct", format!("{power_err}")),
    ];
    let attempted = (report.cells.len() * reps.len()) as u64;

    let metrics = if !trace {
        // One request is the whole campaign; one operation is one cell.
        end_to_end(EndToEnd {
            reps: &reps,
            peak_rss_mb,
            ops_per_rep: report.cells.len() as u64,
            sim_cycles: measure_cycles,
            power_err_pct: power_err,
            latencies_ms: reps.iter().map(|r| r.wall_s * 1000.0).collect(),
        })
    } else {
        // The traced run re-enacts the same cells sequentially, once with
        // tracing off and once on.
        let ws = programs(seed);
        let cells: Vec<(BoomConfig, usize)> =
            cfgs.iter().flat_map(|c| (0..ws.len()).map(move |w| (c.clone(), w))).collect();
        let seq = |tr: &mut Tracer| -> Result<(Reenacted, f64), String> {
            let dir = scratch.fresh()?;
            let store = ArtifactStore::with_disk_cache(&dir.join("cache"))
                .map_err(|e| format!("disk cache: {e}"))?;
            let journal = CampaignJournal::create(&dir.join("reenact.bfj"), 0)
                .map_err(|e| format!("journal: {e}"))?;
            let t = Instant::now();
            let re = reenact(tr, "reenact", &cells, &ws, &flow, &store, &journal)?;
            Ok((re, t.elapsed().as_secs_f64()))
        };
        let (tr, re, untraced_s) = traced(seq)?;
        if re.cell_cycles != cycles {
            return Err(format!(
                "re-enacted measure cycles {} differ from the report's {measure_cycles}",
                re.measure_cycles
            ));
        }

        let out = per_layer(Layers {
            reps: &reps,
            tracer: &tr,
            root: 0,
            untraced_s,
            re: &re,
            cache: report.stats.cache,
            sweep: Default::default(),
            server: Default::default(),
            parallel_wall_s: Some(crate::rep_medians(&reps).wall_s),
        })?;
        tr.write_jsonl(&Path::new(".perfbench").join(format!("trace-campaign-seed{seed}.jsonl")))
            .map_err(|e| format!("writing spans: {e}"))?;
        out
    };
    Ok(Outcome { attempted, failed: 0, metrics, ledger })
}
