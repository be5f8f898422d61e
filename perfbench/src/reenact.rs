//! Sequential re-enactment of a workload's cells through the layers'
//! public calls, with a span around each call.
//!
//! It repeats what the campaign scheduler does for each cell — front half
//! through the [`ArtifactStore`], then per point: restore the checkpoint
//! into a [`Core`], warm up, reset the statistics, measure, estimate
//! power, journal the outcome — in the flow's 50 000-instruction chunks.
//! Its measured cycles must equal the report's, which proves the traced
//! run simulated the same work the timed run did.

use crate::trace::Tracer;
use boom_uarch::{BoomConfig, Core};
use boomflow::flow::PointResult;
use boomflow::{ArtifactStore, CampaignJournal, FlowConfig};
use rtl_power::estimate_core;
use rv_workloads::Workload;

/// Instructions per `Core::run` call, as in the flow's budget-checked loop.
const CHUNK: u64 = 50_000;

/// What the re-enactment simulated, for the ledger and the per-layer
/// counts.
#[derive(Default)]
pub struct Reenacted {
    /// Measured-interval cycles per cell, in plan order.
    pub cell_cycles: Vec<u64>,
    /// Dynamic instructions profiled.
    pub profile_insts: u64,
    /// BBV intervals profiled.
    pub intervals: u64,
    /// SimPoints selected.
    pub points: u64,
    /// Checkpoints captured.
    pub checkpoints: u64,
    /// Warm-up cycles simulated.
    pub warmup_cycles: u64,
    /// Measured-interval cycles simulated.
    pub measure_cycles: u64,
    /// Power estimates made.
    pub estimates: u64,
    /// Journal records appended.
    pub records: u64,
}

/// Runs `insts` instructions in the flow's chunks; fails on a hang.
fn run_chunked(core: &mut Core, insts: u64) -> Result<u64, String> {
    let mut remaining = insts;
    let mut cycles = 0;
    while remaining > 0 {
        let r = core.run(remaining.min(CHUNK));
        cycles += r.cycles;
        if r.hung {
            return Err("detailed core hung during the re-enactment".to_string());
        }
        if r.exited {
            break;
        }
        remaining = remaining.saturating_sub(r.retired.max(1));
    }
    Ok(cycles)
}

/// Re-enacts `cells` — (configuration, index into `workloads`) in report
/// order — under one span named `root`.
///
/// # Errors
///
/// A front-half failure or a detailed-core hang.
pub fn reenact(
    tr: &mut Tracer,
    root: &'static str,
    cells: &[(BoomConfig, usize)],
    workloads: &[Workload],
    flow: &FlowConfig,
    store: &ArtifactStore,
    journal: &CampaignJournal,
) -> Result<Reenacted, String> {
    tr.span(root, 0, |tr| {
        let mut out = Reenacted::default();
        let mut sets = vec![None; workloads.len()];
        for &(_, w_idx) in cells {
            if sets[w_idx].is_some() {
                continue;
            }
            let w = &workloads[w_idx];
            let key = w_idx as u64;
            let fail = |e: boomflow::FlowError| format!("{}: {e}", w.name);
            let profile = tr.span("isa.profile", key, |_| store.profile(w, flow)).map_err(fail)?;
            let analysis =
                tr.span("simpoint.analyze", key, |_| store.analysis(w, flow)).map_err(fail)?;
            let set =
                tr.span("isa.checkpoint", key, |_| store.checkpoints(w, flow)).map_err(fail)?;
            out.profile_insts += profile.total_insts;
            out.intervals += profile.intervals.len() as u64;
            out.points += analysis.selected.len() as u64;
            out.checkpoints += set.points.len() as u64;
            sets[w_idx] = Some(set);
        }
        for (c_idx, (cfg, w_idx)) in cells.iter().enumerate() {
            let Some(set) = &sets[*w_idx] else { unreachable!("every cell's set was prepared") };
            let key = c_idx as u64;
            let mut cell_cycles = 0;
            for (p_idx, p) in set.points.iter().enumerate() {
                let mut core = tr.span("uarch.restore", key, |_| {
                    let mut core = Core::from_checkpoint(cfg.clone(), &p.checkpoint);
                    core.set_idle_skip(flow.idle_skip);
                    core
                });
                if p.warmup > 0 {
                    out.warmup_cycles +=
                        tr.span("uarch.warmup", key, |_| run_chunked(&mut core, p.warmup))?;
                }
                tr.span("uarch.measure", key, |_| {
                    core.reset_stats();
                    run_chunked(&mut core, p.interval_len)
                })?;
                let cycles = core.stats().cycles;
                out.measure_cycles += cycles;
                cell_cycles += cycles;
                let power = tr.span("power.estimate", key, |_| estimate_core(&core));
                out.estimates += 1;
                let point = PointResult {
                    interval: p.interval,
                    weight: p.weight,
                    ipc: core.stats().ipc(),
                    power,
                    stats: core.stats().clone(),
                };
                let outcome = Ok((point, 1));
                tr.span("journal.append", key, |_| journal.append(c_idx, p_idx, &outcome));
                out.records += 1;
            }
            out.cell_cycles.push(cell_cycles);
        }
        Ok(out)
    })
}
