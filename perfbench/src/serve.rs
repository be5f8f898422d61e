//! The `serve` workload.
//!
//! A fresh [`Server`] per repetition (fresh state directory, empty store,
//! pool `jobs = 2`) is driven closed-loop by two client threads, each
//! holding one connection at a time through [`request_events`]. The
//! requests are every 2-of-11 program subset × {medium, large, mega} at
//! `Scale::Small` — 165 distinct `CampaignRequest`s — in an order drawn
//! from the seed. Every (program, configuration) pair is covered by ten
//! requests, so most detailed points are served warm or by single-flight
//! from an earlier or in-flight request; the set of requests, and with it
//! the simulated work, is the same for every seed.

use crate::campaign::{cell_cycles, check_clean, paper_power_err, points_per_program};
use crate::reenact::{reenact, Reenacted};
use crate::trace::{traced, Tracer};
use crate::{
    end_to_end, median, parse_summary, per_layer, probe, EndToEnd, Layers, Outcome, Rep, Rng,
    Scratch, ServerCounts, JOBS,
};
use boomflow::{
    realize_campaign, request_events, supervise_matrix_with, CacheStats, CampaignJournal,
    CampaignOptions, CampaignReport, CampaignRequest, CellResult, ClientMsg, Request, ServeAddr,
    ServeOptions, Server, ServerMsg,
};
use rv_workloads::{all, Scale};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Configuration selections, in the paper's (and `all_three`'s) order.
const CONFIGS: [&str; 3] = ["medium", "large", "mega"];

/// Closed-loop clients, each with one connection at a time.
const CLIENTS: usize = 2;

/// One request's terminal result with its client-side event timestamps.
struct Served {
    report: Vec<u8>,
    summary: String,
    sent: Instant,
    admitted: Instant,
    done: Instant,
    /// Host CPU seconds stolen between `sent` and `done`.
    stolen_s: f64,
}

/// What [`Service::submit`] returns: `None` for a rejected or failed
/// request, an error for a broken exchange.
type Reply = Result<Option<Served>, String>;

/// An in-process campaign service on a Unix socket.
struct Service {
    addr: ServeAddr,
    handle: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Service {
    /// Binds a service in `dir` (socket and state directory) and starts
    /// its accept loop.
    fn start(dir: &Path) -> Result<Service, String> {
        let opts =
            ServeOptions { jobs: JOBS, state_dir: dir.join("state"), ..ServeOptions::default() };
        let server = Server::bind(&ServeAddr::Unix(dir.join("s.sock")), opts)
            .map_err(|e| format!("cannot bind the service: {e}"))?;
        let addr = server.addr().clone();
        let handle = std::thread::spawn(move || server.run());
        Ok(Service { addr, handle })
    }

    /// Submits `req` and waits for its terminal event.
    fn submit(&self, req: Request) -> Reply {
        let stolen0 = probe::host_cpu_s().0;
        let sent = Instant::now();
        let mut admitted = None;
        let end = request_events(&self.addr, &ClientMsg::Submit(req), |msg| {
            if matches!(msg, ServerMsg::Admitted { .. }) {
                admitted = Some(Instant::now());
            }
        });
        let done = Instant::now();
        let stolen_s = probe::host_cpu_s().0 - stolen0;
        match end {
            Ok(Some(ServerMsg::Done { ok: true, report, summary, .. })) => Ok(Some(Served {
                report,
                summary,
                sent,
                admitted: admitted.unwrap_or(sent),
                done,
                stolen_s,
            })),
            Ok(Some(ServerMsg::Done { summary, .. })) => {
                eprintln!("request failed: {summary}");
                Ok(None)
            }
            Ok(Some(ServerMsg::Rejected { reason })) => {
                eprintln!("request rejected: {reason}");
                Ok(None)
            }
            Ok(other) => Err(format!("unexpected end of the event stream: {other:?}")),
            Err(e) => Err(format!("protocol error: {e}")),
        }
    }

    /// Shuts the service down and waits for it to drain.
    fn stop(self) -> Result<(), String> {
        request_events(&self.addr, &ClientMsg::Shutdown, |_| {})
            .map_err(|e| format!("shutdown: {e}"))?;
        match self.handle.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("service failed: {e}")),
            Err(_) => Err("service thread panicked".to_string()),
        }
    }
}

/// Server-layer figures of a set of served requests.
fn server_counts(served: &[&Served]) -> ServerCounts {
    let ms = |a: Instant, b: Instant| b.saturating_duration_since(a).as_secs_f64() * 1000.0;
    // The summaries snapshot the service's one shared store, so the
    // largest counts are the latest.
    let stats: Vec<CacheStats> = served.iter().map(|s| parse_summary(&s.summary)).collect();
    ServerCounts {
        admit_ms: median(&served.iter().map(|s| ms(s.sent, s.admitted)).collect::<Vec<_>>()),
        exec_ms: median(&served.iter().map(|s| ms(s.admitted, s.done)).collect::<Vec<_>>()),
        inflight_dedup_hits: stats.iter().map(|c| c.inflight_dedup_hits).max().unwrap_or(0),
        warm_store_hits: stats.iter().map(|c| c.warm_store_hits).max().unwrap_or(0),
        report_bytes: served.iter().map(|s| s.report.len() as u64).sum(),
    }
}

/// Records each served request as a `serve.request` span with its
/// `server.admit` and `server.exec` children.
fn record_requests(tr: &mut Tracer, served: &[&Served]) {
    for (key, s) in served.iter().enumerate() {
        let idx = tr.record_at("serve.request", key as u64, s.sent, s.done);
        tr.enter(idx);
        tr.record_at("server.admit", key as u64, s.sent, s.admitted);
        tr.record_at("server.exec", key as u64, s.admitted, s.done);
        tr.exit();
    }
}

/// A campaign request with the CLI's defaults.
fn campaign_request(workloads: String, config: &str, scale: Scale) -> CampaignRequest {
    CampaignRequest {
        workloads,
        config: config.to_string(),
        scale,
        warmup: 5_000,
        retries: 3,
        batch_lanes: 1,
        idle_skip: false,
    }
}

/// The seeded request order over all 165 distinct requests.
fn requests(names: &[String], seed: u64) -> Vec<(usize, usize, usize)> {
    let mut reqs = Vec::new();
    for cfg in 0..CONFIGS.len() {
        for a in 0..names.len() {
            for b in a + 1..names.len() {
                reqs.push((cfg, a, b));
            }
        }
    }
    Rng::new(seed).shuffle(&mut reqs);
    reqs
}

fn to_request(names: &[String], (cfg, a, b): (usize, usize, usize)) -> Request {
    Request::Campaign(campaign_request(
        format!("{},{}", names[a], names[b]),
        CONFIGS[cfg],
        Scale::Small,
    ))
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut scratch = Scratch::new()?;
    let names: Vec<String> = all(Scale::Small).iter().map(|w| w.name.to_lowercase()).collect();
    let order = requests(&names, seed);

    let mut failed = 0;
    // The first report served for each request; every later one must
    // equal it byte for byte.
    let mut reports: Vec<Option<Vec<u8>>> = vec![None; order.len()];
    let mut last: Vec<Served> = Vec::new();
    let mut latencies: Vec<f64> = Vec::new();
    let reps = crate::repeat(seconds, || {
        scratch.clean();
        let t = Instant::now();
        let tb = Instant::now();
        let programs = all(Scale::Small);
        let build_s = tb.elapsed().as_secs_f64();
        let names: Vec<String> = programs.iter().map(|w| w.name.to_lowercase()).collect();
        let reqs: Vec<Request> =
            requests(&names, seed).into_iter().map(|r| to_request(&names, r)).collect();
        let dir = scratch.fresh()?;
        let service = Service::start(&dir)?;
        let setup_s = t.elapsed().as_secs_f64();

        let next = AtomicUsize::new(0);
        let results: Mutex<Vec<Option<Reply>>> =
            Mutex::new((0..reqs.len()).map(|_| None).collect());
        let timer = probe::Timer::start();
        std::thread::scope(|s| {
            for _ in 0..CLIENTS {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    let Some(req) = reqs.get(i) else { break };
                    let r = service.submit(req.clone());
                    results.lock().expect("a client thread panicked")[i] = Some(r);
                });
            }
        });
        let (wall_s, raw_wall_s, cpu_s) = timer.stop();
        service.stop()?;

        let results = results.into_inner().map_err(|_| "a client thread panicked")?;
        let mut served = Vec::with_capacity(results.len());
        for (i, r) in results.into_iter().enumerate() {
            let Some(s) = r.ok_or(format!("request {i} was never sent"))?? else {
                failed += 1;
                continue;
            };
            match &reports[i] {
                None => reports[i] = Some(s.report.clone()),
                Some(r) if *r != s.report => {
                    return Err(format!("served report of request {i} differs between repetitions"))
                }
                Some(_) => {}
            }
            served.push(s);
        }
        latencies.extend(served.iter().map(|s| {
            let raw = s.done.saturating_duration_since(s.sent).as_secs_f64();
            probe::net_of_steal(raw, s.stolen_s) * 1000.0
        }));
        last = served;
        Ok(Rep { setup_s, build_s, wall_s, raw_wall_s, cpu_s })
    })?;
    let peak_rss_mb = probe::peak_rss_mb();
    let served: Vec<&Served> = last.iter().collect();

    // Correctness gate, after the timed region: every served report must
    // equal the request's solo render, from `supervise_matrix_with` over
    // its own `realize_campaign`. Reports are identical at any `jobs`, so
    // the solo runs go one per worker thread at `jobs = 1`.
    let gate = Instant::now();
    let solo_one = |i: usize| -> Result<CampaignReport, String> {
        let Request::Campaign(c) = to_request(&names, order[i]) else { unreachable!() };
        let (cfgs, ws, flow) = realize_campaign(&c)?;
        let opts = CampaignOptions { jobs: 1, ..CampaignOptions::default() };
        let report = supervise_matrix_with(&cfgs, &ws, &flow, &opts);
        check_clean(&report)?;
        Ok(report)
    };
    let (solo_one, n) = (&solo_one, order.len());
    let mut solo: Vec<(usize, CampaignReport)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..JOBS)
            .map(|k| {
                s.spawn(move || {
                    (k..n)
                        .step_by(JOBS)
                        .map(|i| Ok((i, solo_one(i)?)))
                        .collect::<Result<Vec<_>, String>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().map_err(|_| "a gate thread panicked".to_string())?)
            .collect::<Result<Vec<_>, String>>()
    })?
    .into_iter()
    .flatten()
    .collect();
    solo.sort_by_key(|(i, _)| *i);
    let solo: Vec<CampaignReport> = solo.into_iter().map(|(_, r)| r).collect();
    let expected: Vec<String> = solo.iter().map(CampaignReport::render_deterministic).collect();
    eprintln!("gate: {} solo renders in {:.1} s", solo.len(), gate.elapsed().as_secs_f64());

    for (i, r) in reports.iter().enumerate() {
        if r.as_ref().is_some_and(|r| *r != expected[i].as_bytes()) {
            return Err(format!("served report of request {i} differs from its solo render"));
        }
    }

    // The distinct (configuration, program) cells behind the requests.
    let mut distinct: BTreeMap<(&str, &str), (&CellResult, u64)> = BTreeMap::new();
    for r in &solo {
        for (c, cycles) in r.cells.iter().zip(cell_cycles(r)) {
            distinct.insert((c.config.as_str(), c.workload), (c, cycles));
        }
    }
    let cells: Vec<&CellResult> = distinct.values().map(|(c, _)| *c).collect();
    let measure_cycles: u64 = distinct.values().map(|(_, n)| n).sum();
    let delivered_cycles: u64 = solo.iter().flat_map(cell_cycles).sum();
    let power_err = paper_power_err(&cells);
    let ledger = vec![
        ("digest", crate::digest(&expected)),
        ("measure_cycles", measure_cycles.to_string()),
        ("delivered_cycles", delivered_cycles.to_string()),
        ("requests", order.len().to_string()),
        ("points", points_per_program(&cells)),
        ("power_err_pct", format!("{power_err}")),
    ];
    let attempted = (order.len() * reps.len()) as u64;

    let metrics = if !trace {
        // One request and one operation are one submitted campaign; the
        // cycles are those its report carries, warm or fresh.
        end_to_end(EndToEnd {
            reps: &reps,
            peak_rss_mb,
            ops_per_rep: order.len() as u64,
            sim_cycles: delivered_cycles,
            power_err_pct: power_err,
            latencies_ms: latencies,
        })
    } else {
        // The traced run re-enacts the distinct cells sequentially, once
        // with tracing off and once on, and records the last repetition's
        // requests from their client-side event timestamps.
        let (cfgs, ws, flow) =
            realize_campaign(&campaign_request("all".to_string(), "all", Scale::Small))?;
        let plan: Vec<(boom_uarch::BoomConfig, usize)> =
            cfgs.iter().flat_map(|c| (0..ws.len()).map(move |w| (c.clone(), w))).collect();
        let want: Vec<u64> = plan
            .iter()
            .map(|(c, w)| distinct.get(&(c.name.as_str(), ws[*w].name)).map_or(0, |(_, n)| *n))
            .collect();
        let seq = |tr: &mut Tracer| -> Result<(Reenacted, f64), String> {
            let dir = scratch.fresh()?;
            let journal = CampaignJournal::create(&dir.join("reenact.bfj"), 0)
                .map_err(|e| format!("journal: {e}"))?;
            let store = boomflow::ArtifactStore::new();
            let t = Instant::now();
            let re = reenact(tr, "reenact", &plan, &ws, &flow, &store, &journal)?;
            Ok((re, t.elapsed().as_secs_f64()))
        };
        let (mut tr, re, untraced_s) = traced(seq)?;
        if re.cell_cycles != want {
            return Err("re-enacted cycles differ from the solo reports'".to_string());
        }
        record_requests(&mut tr, &served);
        let cache = served
            .iter()
            .map(|s| parse_summary(&s.summary))
            .fold(CacheStats::default(), max_counts);
        let out = per_layer(Layers {
            reps: &reps,
            tracer: &tr,
            root: 0,
            untraced_s,
            re: &re,
            cache,
            sweep: Default::default(),
            server: server_counts(&served),
            parallel_wall_s: None,
        })?;
        tr.write_jsonl(&Path::new(".perfbench").join(format!("trace-serve-seed{seed}.jsonl")))
            .map_err(|e| format!("writing spans: {e}"))?;
        out
    };
    Ok(Outcome { attempted, failed, metrics, ledger })
}

/// Element-wise maximum of the counts of two store snapshots.
fn max_counts(a: CacheStats, b: CacheStats) -> CacheStats {
    CacheStats {
        profile_computed: a.profile_computed.max(b.profile_computed),
        profile_hits: a.profile_hits.max(b.profile_hits),
        cluster_computed: a.cluster_computed.max(b.cluster_computed),
        cluster_hits: a.cluster_hits.max(b.cluster_hits),
        checkpoint_computed: a.checkpoint_computed.max(b.checkpoint_computed),
        checkpoint_hits: a.checkpoint_hits.max(b.checkpoint_hits),
        disk_hits: a.disk_hits.max(b.disk_hits),
        disk_writes: a.disk_writes.max(b.disk_writes),
        inflight_dedup_hits: a.inflight_dedup_hits.max(b.inflight_dedup_hits),
        warm_store_hits: a.warm_store_hits.max(b.warm_store_hits),
        ..CacheStats::default()
    }
}
