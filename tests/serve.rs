//! Campaign-service tests: concurrent clients through one `boomflow
//! serve` process get reports byte-identical to solo runs while sharing
//! work through the warm store, and a killed server resumes a request
//! from its spec log and journal on restart + re-attach.

// Test helpers unwrap freely: a failed unwrap is exactly a test failure.
#![allow(clippy::unwrap_used)]

use boomflow::{
    all_fixed_latency, encode_client, realize_campaign, request_events, request_id, run_sweep,
    supervise_matrix_with, ArtifactStore, CampaignOptions, CampaignRequest, ClientMsg, FlowConfig,
    Request, ServeAddr, ServeOptions, Server, ServerMsg, SweepOptions, SweepRequest, SweepSpec,
};
use rv_isa::codec::fnv1a;
use rv_workloads::Scale;
use std::collections::BTreeSet;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn scratch(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("boomflow-serve-{tag}-{}-{n}", std::process::id()))
}

/// A Test-scale campaign request over `workloads` (CSV), small enough
/// for CI but with real points to share.
fn campaign_request(workloads: &str) -> CampaignRequest {
    CampaignRequest {
        workloads: workloads.to_string(),
        config: "medium".to_string(),
        scale: Scale::Test,
        warmup: 1_000,
        retries: 3,
        batch_lanes: 1,
        idle_skip: false,
    }
}

/// The server's spec log in `state_dir`.
fn spec_log(state_dir: &Path) -> PathBuf {
    state_dir.join("requests.log")
}

/// The persisted specification of `req`: its submit frame payload.
fn spec_of(req: &CampaignRequest) -> Vec<u8> {
    encode_client(&ClientMsg::Submit(Request::Campaign(req.clone())))
}

/// `payload` as one spec-log record: `len u32 | payload | fnv1a-64`.
fn framed(payload: &[u8]) -> Vec<u8> {
    let mut rec = (payload.len() as u32).to_le_bytes().to_vec();
    rec.extend_from_slice(payload);
    rec.extend_from_slice(&fnv1a(payload).to_le_bytes());
    rec
}

/// The payloads of the spec log's records, in order, up to the end of
/// the file or the first record that is cut short or fails its checksum.
fn spec_records(state_dir: &Path) -> Vec<Vec<u8>> {
    let log = std::fs::read(spec_log(state_dir)).unwrap();
    let (mut records, mut pos) = (Vec::new(), 0);
    while pos + 4 <= log.len() {
        let len = u32::from_le_bytes(log[pos..pos + 4].try_into().unwrap()) as usize;
        let Some(sum) = log.get(pos + 4 + len..pos + 12 + len) else { break };
        let payload = &log[pos + 4..pos + 4 + len];
        if fnv1a(payload).to_le_bytes() != sum {
            break;
        }
        records.push(payload.to_vec());
        pos += 12 + len;
    }
    records
}

/// The names of the files in `dir`.
fn files_in(dir: &Path) -> BTreeSet<String> {
    std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().file_name().into_string().unwrap()).collect()
}

/// Submits `req` and checks that it succeeds with its solo report.
fn serve_like_solo(addr: &ServeAddr, req: &CampaignRequest) {
    match roundtrip(addr, &ClientMsg::Submit(Request::Campaign(req.clone()))) {
        ServerMsg::Done { ok: true, report, .. } => {
            assert_eq!(String::from_utf8(report).unwrap(), solo_report(req));
        }
        other => panic!("expected successful Done, got {other:?}"),
    }
}

/// The reference bytes a solo, fresh-store run of the same request
/// produces.
fn solo_report(req: &CampaignRequest) -> String {
    let (cfgs, ws, flow) = realize_campaign(req).unwrap();
    supervise_matrix_with(&cfgs, &ws, &flow, &CampaignOptions::default()).render_deterministic()
}

/// Binds an in-process server on a scratch Unix socket and runs it on a
/// background thread until `Shutdown`.
fn start_server(
    tag: &str,
    opts: ServeOptions,
) -> (ServeAddr, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(&ServeAddr::Unix(scratch(tag)), opts).unwrap();
    let addr = server.addr().clone();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

/// Submits `msg` and returns the terminal message (panicking on a
/// transport error or a server that died mid-stream).
fn roundtrip(addr: &ServeAddr, msg: &ClientMsg) -> ServerMsg {
    request_events(addr, msg, |_| {}).unwrap().expect("server closed the stream mid-request")
}

fn shutdown(addr: &ServeAddr, handle: std::thread::JoinHandle<std::io::Result<()>>) {
    let bye = roundtrip(addr, &ClientMsg::Shutdown);
    assert!(matches!(bye, ServerMsg::Bye { .. }), "expected Bye, got {bye:?}");
    handle.join().unwrap().unwrap();
}

/// The acceptance scenario: two clients concurrently submit overlapping
/// matrices; each report is byte-identical to its solo run, and the
/// overlap is actually shared — the stage summaries surface single-flight
/// or warm-store hits. Exercised at both ends of the pool-width range.
#[test]
fn concurrent_overlapping_clients_match_solo_reports() {
    for jobs in [1usize, 4] {
        let opts = ServeOptions {
            jobs,
            max_active: 4,
            cache_dir: None,
            state_dir: scratch(&format!("state-{jobs}")),
            kill_after_points: None,
        };
        let (addr, handle) = start_server(&format!("sock-{jobs}"), opts);

        // Overlap on sha: request A computes it first (or concurrently),
        // request B must coalesce onto those very points.
        let req_a = campaign_request("bitcount,sha");
        let req_b = campaign_request("sha,qsort");
        let results: Vec<ServerMsg> = std::thread::scope(|s| {
            let handles: Vec<_> = [&req_a, &req_b]
                .into_iter()
                .map(|req| {
                    let addr = addr.clone();
                    let msg = ClientMsg::Submit(Request::Campaign(req.clone()));
                    s.spawn(move || roundtrip(&addr, &msg))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        let mut shared = false;
        for (req, result) in [&req_a, &req_b].into_iter().zip(&results) {
            let ServerMsg::Done { ok, report, summary, .. } = result else {
                panic!("jobs {jobs}: expected Done, got {result:?}");
            };
            assert!(ok, "jobs {jobs}: served campaign failed:\n{summary}");
            assert_eq!(
                String::from_utf8(report.clone()).unwrap(),
                solo_report(req),
                "jobs {jobs}: served report must be byte-identical to the solo run"
            );
            shared |= summary.contains("Single-flight:");
        }
        assert!(
            shared,
            "jobs {jobs}: the overlapping sha points must surface as single-flight \
             dedup or warm-store hits in a stage summary"
        );
        shutdown(&addr, handle);
    }
}

/// Identical submissions coalesce onto one run: both clients are told
/// the same request id and receive the same bytes, and a later attach by
/// id replays the terminal result without re-running anything.
#[test]
fn identical_submissions_coalesce_and_attach_replays() {
    let opts = ServeOptions {
        jobs: 2,
        max_active: 4,
        cache_dir: None,
        state_dir: scratch("state-coalesce"),
        kill_after_points: None,
    };
    let (addr, handle) = start_server("sock-coalesce", opts);

    let req = campaign_request("bitcount");
    let id = request_id(&Request::Campaign(req.clone()));
    let msg = ClientMsg::Submit(Request::Campaign(req.clone()));
    let results: Vec<(u64, ServerMsg)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let addr = addr.clone();
                let msg = msg.clone();
                s.spawn(move || {
                    let mut admitted_id = 0;
                    let done = request_events(&addr, &msg, |event| {
                        if let ServerMsg::Admitted { id, .. } = event {
                            admitted_id = *id;
                        }
                    })
                    .unwrap()
                    .expect("server closed the stream mid-request");
                    (admitted_id, done)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let reports: Vec<&Vec<u8>> = results
        .iter()
        .map(|(admitted_id, done)| {
            assert_eq!(*admitted_id, id, "admitted id must be the content-addressed request id");
            match done {
                ServerMsg::Done { ok: true, report, .. } => report,
                other => panic!("expected successful Done, got {other:?}"),
            }
        })
        .collect();
    assert_eq!(reports[0], reports[1], "coalesced clients must read the same bytes");
    assert_eq!(String::from_utf8(reports[0].clone()).unwrap(), solo_report(&req));

    // Attach after completion replays the stored terminal message.
    match roundtrip(&addr, &ClientMsg::Attach(id)) {
        ServerMsg::Done { ok: true, report, .. } => assert_eq!(&report, reports[0]),
        other => panic!("attach after completion: expected Done, got {other:?}"),
    }
    // Attaching an id the server never saw is a typed rejection.
    match roundtrip(&addr, &ClientMsg::Attach(id ^ 0xdead_beef)) {
        ServerMsg::Rejected { reason } => {
            assert!(reason.contains("unknown request id"), "got: {reason}")
        }
        other => panic!("unknown attach: expected Rejected, got {other:?}"),
    }
    shutdown(&addr, handle);
}

/// A sweep request through the service matches the bytes of a solo
/// `run_sweep` with the same realized spec.
#[test]
fn served_sweep_matches_solo_run() {
    let opts = ServeOptions {
        jobs: 2,
        max_active: 4,
        cache_dir: None,
        state_dir: scratch("state-sweep"),
        kill_after_points: None,
    };
    let (addr, handle) = start_server("sock-sweep", opts);

    let req = SweepRequest {
        preset: "smoke16".to_string(),
        base: String::new(),
        workloads: "bitcount".to_string(),
        scale: Scale::Test,
        warmup: 1_000,
        max_rungs: 0,
        rung0_points: 1,
        rung0_shift: 3,
        epsilon: 0.05,
        epsilon_decay: 0.5,
        exhaustive: false,
        batch_lanes: 1,
    };
    let done = roundtrip(&addr, &ClientMsg::Submit(Request::Sweep(req.clone())));
    let ServerMsg::Done { ok, report, summary, extra, .. } = done else {
        panic!("expected Done, got {done:?}");
    };
    assert!(ok, "served sweep failed:\n{summary}");
    assert!(!extra.is_empty(), "a sweep's Done must carry the frontier rendering");

    let cfgs = SweepSpec::preset("smoke16").unwrap().generate().unwrap();
    let ws = vec![rv_workloads::by_name("bitcount", Scale::Test).unwrap()];
    let flow = FlowConfig {
        warmup_insts: req.warmup,
        idle_skip: all_fixed_latency(&cfgs),
        ..FlowConfig::default()
    };
    let solo = run_sweep(
        &cfgs,
        &ws,
        &flow,
        &ArtifactStore::new(),
        &SweepOptions { jobs: 1, batch_lanes: 1, ..SweepOptions::default() },
    )
    .unwrap();
    assert_eq!(
        String::from_utf8(report).unwrap(),
        solo.render_deterministic(),
        "served sweep report must be byte-identical to the solo run"
    );
    shutdown(&addr, handle);
}

/// The crash drill: a real server process killed mid-campaign
/// (`--inject-kill-after`) leaves a journal + persisted spec behind; a
/// restarted server on the same state directory resumes the request on
/// `attach` and finishes it byte-identical to an uninterrupted solo run.
#[test]
fn killed_server_resumes_on_restart_and_attach() {
    let state_dir = scratch("state-kill");
    let sock = scratch("sock-kill");
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_boomflow"))
        .args([
            "serve",
            "--socket",
            sock.to_str().unwrap(),
            "--state-dir",
            state_dir.to_str().unwrap(),
            "--jobs",
            "1",
            "--inject-kill-after",
            "1",
        ])
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    while !sock.exists() {
        assert!(Instant::now() < deadline, "server never bound its socket");
        std::thread::sleep(Duration::from_millis(20));
    }

    let req = campaign_request("bitcount,sha");
    let id = request_id(&Request::Campaign(req.clone()));
    // The server aborts after journaling its first fresh point, so the
    // submission must NOT complete successfully — the stream dies (EOF /
    // reset) or, in a tight race, the connection itself fails.
    let submit = request_events(
        &sock_addr(&sock),
        &ClientMsg::Submit(Request::Campaign(req.clone())),
        |_| {},
    );
    assert!(
        !matches!(submit, Ok(Some(ServerMsg::Done { ok: true, .. }))),
        "killed server cannot have completed the campaign: {submit:?}"
    );
    let status = child.wait().unwrap();
    assert!(!status.success(), "--inject-kill-after must abort the server");
    assert!(
        spec_records(&state_dir).contains(&spec_of(&req)),
        "the request spec must be persisted, as one spec-log record, before any simulation"
    );
    assert!(
        state_dir.join(format!("{id:016x}.bfj")).exists(),
        "the killed server must leave the request's journal behind"
    );

    // Restart (in-process this time) on the same state directory and
    // re-attach: the journal replays and the campaign completes.
    let opts = ServeOptions {
        jobs: 1,
        max_active: 4,
        cache_dir: None,
        state_dir,
        kill_after_points: None,
    };
    let (addr, handle) = start_server("sock-kill2", opts);
    match roundtrip(&addr, &ClientMsg::Attach(id)) {
        ServerMsg::Done { ok, report, summary, .. } => {
            assert!(ok, "resumed campaign failed:\n{summary}");
            assert!(
                summary.contains("Journal:") && summary.contains("point(s) replayed"),
                "the resumed run must replay journaled points:\n{summary}"
            );
            assert_eq!(
                String::from_utf8(report).unwrap(),
                solo_report(&req),
                "resumed report must be byte-identical to an uninterrupted solo run"
            );
        }
        other => panic!("attach after restart: expected Done, got {other:?}"),
    }
    shutdown(&addr, handle);
}

/// A request whose state-directory journal has an older format (a
/// version-2 header, written before the config key left out the display
/// name) restarts from its persisted spec on attach instead of being
/// rejected for good: a campaign's report is byte-identical to a fresh
/// solo run, and a sweep completes too.
#[test]
fn old_format_journal_restarts_the_request_on_attach() {
    let state_dir = scratch("state-v2");
    std::fs::create_dir_all(&state_dir).unwrap();
    let campaign = campaign_request("bitcount");
    let sweep = SweepRequest {
        preset: "smoke16".to_string(),
        base: String::new(),
        workloads: "bitcount".to_string(),
        scale: Scale::Test,
        warmup: 1_000,
        max_rungs: 2,
        rung0_points: 1,
        rung0_shift: 3,
        epsilon: 0.05,
        epsilon_decay: 0.5,
        exhaustive: false,
        batch_lanes: 1,
    };
    let mut old = b"BFJL".to_vec();
    old.extend_from_slice(&2u32.to_le_bytes());
    old.extend_from_slice(&0x0123_4567_89ab_cdef_u64.to_le_bytes());
    let mut planted = Vec::new();
    for (req, ext) in [(Request::Campaign(campaign.clone()), "bfj"), (Request::Sweep(sweep), "swj")]
    {
        let id = request_id(&req);
        let spec = encode_client(&ClientMsg::Submit(req));
        std::fs::write(state_dir.join(format!("{id:016x}.req")), spec).unwrap();
        let journal = state_dir.join(format!("{id:016x}.{ext}"));
        std::fs::write(&journal, &old).unwrap();
        planted.push((id, journal));
    }

    let opts = ServeOptions {
        jobs: 1,
        max_active: 4,
        cache_dir: None,
        state_dir,
        kill_after_points: None,
    };
    let (addr, handle) = start_server("sock-v2", opts);
    for (i, (id, journal)) in planted.iter().enumerate() {
        match roundtrip(&addr, &ClientMsg::Attach(*id)) {
            ServerMsg::Done { ok, report, summary, .. } => {
                assert!(ok, "restarted request failed:\n{summary}");
                if i == 0 {
                    assert_eq!(String::from_utf8(report).unwrap(), solo_report(&campaign));
                }
            }
            other => panic!("attach over an old journal: expected Done, got {other:?}"),
        }
        let header = std::fs::read(journal).unwrap();
        assert_eq!(header[4..8], 3u32.to_le_bytes(), "the journal is recreated");
    }
    shutdown(&addr, handle);
}

/// A request served fully warm still journals every point. Request X
/// computes its cells; request Y has the same cells in the other order
/// (a distinct id) and takes every point from the warm store. Restarted
/// on the same state directory with a fresh store, the server resumes Y
/// from its journal alone: every point replays, nothing is simulated,
/// and the report is Y's solo render.
#[test]
fn warm_served_request_journals_every_point() {
    let state_dir = scratch("state-warm");
    let opts = |state_dir: PathBuf| ServeOptions {
        jobs: 2,
        max_active: 4,
        cache_dir: None,
        state_dir,
        kill_after_points: None,
    };
    let req_x = campaign_request("bitcount,sha");
    let req_y = campaign_request("sha,bitcount");
    let id_y = request_id(&Request::Campaign(req_y.clone()));
    assert_ne!(request_id(&Request::Campaign(req_x.clone())), id_y);
    let solo_y = solo_report(&req_y);
    let (cfgs, ws, flow) = realize_campaign(&req_y).unwrap();
    let points: u64 = supervise_matrix_with(&cfgs, &ws, &flow, &CampaignOptions::default())
        .cells
        .iter()
        .map(|c| c.outcome.as_ref().unwrap().points.len() as u64)
        .sum();

    let (addr, handle) = start_server("sock-warm", opts(state_dir.clone()));
    for req in [&req_x, &req_y] {
        match roundtrip(&addr, &ClientMsg::Submit(Request::Campaign(req.clone()))) {
            ServerMsg::Done { ok: true, report, .. } => {
                assert_eq!(String::from_utf8(report).unwrap(), solo_report(req));
            }
            other => panic!("expected successful Done, got {other:?}"),
        }
    }
    shutdown(&addr, handle);

    let (addr, handle) = start_server("sock-warm2", opts(state_dir));
    match roundtrip(&addr, &ClientMsg::Attach(id_y)) {
        ServerMsg::Done { ok: true, report, summary, .. } => {
            assert!(
                summary.contains(&format!("Journal: {points} point(s) replayed")),
                "every point of the warm request must replay:\n{summary}"
            );
            assert_eq!(String::from_utf8(report).unwrap(), solo_y);
        }
        other => panic!("attach after restart: expected Done, got {other:?}"),
    }
    // The relaunching attach's `Admitted` may be sent before the runner
    // has opened the journal; once the run is done, `Admitted` carries
    // the replayed count.
    let mut replayed = None;
    request_events(&addr, &ClientMsg::Attach(id_y), |event| {
        if let ServerMsg::Admitted { replayed: r, .. } = event {
            replayed = Some(*r);
        }
    })
    .unwrap();
    assert_eq!(replayed, Some(points), "Admitted.replayed must count every point of Y");
    shutdown(&addr, handle);
}

/// The spec log and journal layout: every served campaign request,
/// warm or not, adds exactly one file to the state directory (its
/// journal) and one record to the one spec log; no per-request spec
/// file is written.
#[test]
fn served_requests_add_one_journal_each_and_one_spec_log_record() {
    let state_dir = scratch("state-files");
    let opts = ServeOptions {
        jobs: 2,
        max_active: 4,
        cache_dir: None,
        state_dir: state_dir.clone(),
        kill_after_points: None,
    };
    let (addr, handle) = start_server("sock-files", opts);
    // The second and third requests are fully warm.
    let reqs = [
        campaign_request("bitcount,sha"),
        campaign_request("sha,bitcount"),
        campaign_request("bitcount"),
    ];
    let mut before = files_in(&state_dir);
    assert_eq!(before, BTreeSet::from(["requests.log".to_string()]));
    for req in &reqs {
        serve_like_solo(&addr, req);
        let after = files_in(&state_dir);
        let id = request_id(&Request::Campaign(req.clone()));
        assert_eq!(
            after.difference(&before).cloned().collect::<Vec<_>>(),
            vec![format!("{id:016x}.bfj")],
            "a served request must create its journal and nothing else"
        );
        before = after;
    }
    shutdown(&addr, handle);
    assert_eq!(spec_records(&state_dir), reqs.iter().map(spec_of).collect::<Vec<_>>());
}

/// A crash mid-append leaves a partial record at the spec log's tail.
/// A restarted server truncates it, so a spec it admits afterwards is
/// found by the next restart, and so is every spec before the tear.
#[test]
fn torn_spec_log_tail_is_truncated_on_restart() {
    let state_dir = scratch("state-torn");
    let opts = || ServeOptions {
        jobs: 1,
        max_active: 4,
        cache_dir: None,
        state_dir: state_dir.clone(),
        kill_after_points: None,
    };
    let (req_a, req_b) = (campaign_request("bitcount"), campaign_request("sha"));
    let (addr, handle) = start_server("sock-torn", opts());
    serve_like_solo(&addr, &req_a);
    shutdown(&addr, handle);

    let torn = framed(&spec_of(&campaign_request("qsort")));
    let mut log = std::fs::OpenOptions::new().append(true).open(spec_log(&state_dir)).unwrap();
    log.write_all(&torn[..torn.len() / 2]).unwrap();
    drop(log);

    let (addr, handle) = start_server("sock-torn2", opts());
    serve_like_solo(&addr, &req_b);
    shutdown(&addr, handle);
    assert_eq!(spec_records(&state_dir), vec![spec_of(&req_a), spec_of(&req_b)]);

    let (addr, handle) = start_server("sock-torn3", opts());
    for req in [&req_a, &req_b] {
        match roundtrip(&addr, &ClientMsg::Attach(request_id(&Request::Campaign(req.clone())))) {
            ServerMsg::Done { ok: true, report, .. } => {
                assert_eq!(String::from_utf8(report).unwrap(), solo_report(req));
            }
            other => panic!("attach after restart: expected Done, got {other:?}"),
        }
    }
    shutdown(&addr, handle);
}

/// The journal header is not synced, so a power loss can leave a
/// request's journal empty. Attaching such a request restarts it from
/// its spec: it succeeds with the solo report.
#[test]
fn empty_journal_beside_its_spec_restarts_on_attach() {
    let state_dir = scratch("state-empty");
    std::fs::create_dir_all(&state_dir).unwrap();
    let req = campaign_request("bitcount");
    let id = request_id(&Request::Campaign(req.clone()));
    std::fs::write(spec_log(&state_dir), framed(&spec_of(&req))).unwrap();
    std::fs::write(state_dir.join(format!("{id:016x}.bfj")), b"").unwrap();

    let opts = ServeOptions {
        jobs: 1,
        max_active: 4,
        cache_dir: None,
        state_dir,
        kill_after_points: None,
    };
    let (addr, handle) = start_server("sock-empty", opts);
    match roundtrip(&addr, &ClientMsg::Attach(id)) {
        ServerMsg::Done { ok, report, summary, .. } => {
            assert!(ok, "restarted request failed:\n{summary}");
            assert_eq!(String::from_utf8(report).unwrap(), solo_report(&req));
        }
        other => panic!("attach over an empty journal: expected Done, got {other:?}"),
    }
    shutdown(&addr, handle);
}

fn sock_addr(path: &std::path::Path) -> ServeAddr {
    ServeAddr::Unix(path.to_path_buf())
}
