//! The `boomflow serve` campaign service: a persistent process that
//! accepts campaign and sweep requests over a Unix or TCP socket,
//! executes them on one shared scheduler pool, and streams progress and
//! results back over the [`protocol`](crate::protocol) frames.
//!
//! Why a daemon: a solo `boomflow` run pays process start-up, loads the
//! disk cache cold, and can share nothing with concurrent runs. The
//! service keeps one process-wide [`ArtifactStore`] warm across requests
//! (memory *and* disk tiers), so overlapping requests coalesce through
//! the store's single-flight maps — two clients asking for overlapping
//! (config, workload, point) work trigger exactly one computation, and
//! later requests reuse completed points warm. The reuse is observable:
//! `inflight_dedup_hits` / `warm_store_hits` in each request's stage
//! summary.
//!
//! Admission: a submitted request, and a request an `attach` relaunches
//! from its persisted spec, is realized (its workloads built through the
//! server's program memo, its configurations and grid resolved) when it
//! is admitted, before anything is written. A request naming an unknown
//! workload, configuration, preset or base is `Rejected` with the solo
//! CLI's words and leaves no state behind. Identical requests coalesce
//! onto one run before any realization.
//!
//! Scheduling: every admitted request drains its tasks through one
//! [`WorkPool`] bounded by `--jobs`, which serves submissions round-robin
//! — a small campaign admitted after a big one makes progress
//! immediately instead of queueing behind it. Admission control bounds
//! the number of active requests (`--max-active`); the rest are rejected
//! with a typed reason rather than silently queued without bound.
//!
//! Durability: each admitted request's specification is appended to the
//! state directory's one spec log (`requests.log`, framed and
//! checksummed like journal records), and its points are journaled
//! exactly as a solo `--journal` run's would be. Campaigns and sweeps
//! run through one body: the journal `<id>.bfj` or `<id>.swj` is always
//! resumed (a missing one starts fresh), and a journal of an older
//! format is restarted rather than rejected. A killed server
//! therefore resumes cleanly: restart it on the same state directory and
//! re-`attach` the request id — the journal replays the finished points
//! and the report comes out byte-identical to an uninterrupted run.
//! Nothing on the request path is fsynced: against process death every
//! byte written survives; against power loss whatever the OS wrote back
//! survives, a torn tail is truncated, an empty journal starts afresh and
//! the rest recomputes — nothing is ever mis-replayed. Graceful shutdown
//! cancels unstarted work (journals hold everything completed) before
//! the socket closes.

use crate::artifacts::ArtifactStore;
use crate::flow::FlowConfig;
use crate::journal::{
    campaign_fingerprint_with, frame, scan_frames, CampaignJournal, JournalError,
};
use crate::pool::WorkPool;
use crate::protocol::{
    decode_client, encode_client, encode_server, read_frame, request_id, write_frame,
    CampaignRequest, ClientMsg, ProtocolError, Request, ServerMsg, SweepRequest,
};
use crate::scheduler::{default_jobs, CampaignOptions, ProgressHook};
use crate::supervisor::{panic_message, supervise_campaign, RetryPolicy};
use crate::sweep::{all_fixed_latency, run_sweep, SweepExtras, SweepOptions, SweepSpec};
use crate::sync::lock;
use boom_uarch::{BoomConfig, ConfigError};
use rv_workloads::{all, by_name, Scale, Workload};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};

/// A bidirectional byte stream between a client and the service (Unix
/// or TCP — the protocol does not care).
pub trait ServeStream: Read + Write + Send {}
impl<T: Read + Write + Send> ServeStream for T {}

/// Where the service listens (and where clients connect).
#[derive(Clone, Debug)]
pub enum ServeAddr {
    /// A Unix-domain socket at this path.
    Unix(PathBuf),
    /// A TCP address (`host:port`; port 0 binds an ephemeral port, and
    /// the bound [`Server::addr`] reports the real one).
    Tcp(String),
}

impl std::fmt::Display for ServeAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeAddr::Unix(p) => write!(f, "unix:{}", p.display()),
            ServeAddr::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

/// Connects a client to a listening service.
///
/// # Errors
///
/// Propagates connection failures.
pub fn connect(addr: &ServeAddr) -> std::io::Result<Box<dyn ServeStream>> {
    Ok(match addr {
        ServeAddr::Unix(path) => Box::new(UnixStream::connect(path)?),
        ServeAddr::Tcp(a) => Box::new(TcpStream::connect(a.as_str())?),
    })
}

/// Service configuration.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Global scheduler-pool width: detailed-simulation tasks from *all*
    /// admitted requests share these workers.
    pub jobs: usize,
    /// Admission bound: requests active at once before new submissions
    /// are rejected.
    pub max_active: usize,
    /// Disk tier of the shared artifact store (`None` = memory only).
    pub cache_dir: Option<PathBuf>,
    /// State directory holding the spec log of every admitted request
    /// and each request's journal (created if needed) — the resume
    /// substrate.
    pub state_dir: PathBuf,
    /// Test-only: abort the whole server process after this many freshly
    /// journaled points, the service-side crash drill.
    pub kill_after_points: Option<u64>,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            jobs: default_jobs(),
            max_active: 8,
            cache_dir: None,
            state_dir: PathBuf::from(".boomflow-serve"),
            kill_after_points: None,
        }
    }
}

/// One admitted request's shared state: its subscriber fan-out and its
/// terminal result.
struct RequestState {
    id: u64,
    /// Points replayed from the journal at launch (0 until the runner
    /// has opened it).
    replayed: AtomicU64,
    /// Live subscribers; pruned on send failure. Guarded together with
    /// `done` (set under this lock) so a subscriber can never miss the
    /// terminal message.
    subscribers: Mutex<Vec<mpsc::Sender<ServerMsg>>>,
    done: OnceLock<ServerMsg>,
}

impl RequestState {
    /// Sends `msg` to every live subscriber; a terminal message is also
    /// recorded for subscribers that attach later.
    fn publish(&self, msg: &ServerMsg, terminal: bool) {
        let mut subs = lock(&self.subscribers);
        if terminal {
            let _ = self.done.set(msg.clone());
        }
        subs.retain(|tx| tx.send(msg.clone()).is_ok());
        if terminal {
            subs.clear();
        }
    }

    /// Registers a subscriber, or returns the terminal message directly
    /// when the request already finished.
    fn subscribe(&self) -> Result<mpsc::Receiver<ServerMsg>, ServerMsg> {
        let mut subs = lock(&self.subscribers);
        if let Some(done) = self.done.get() {
            return Err(done.clone());
        }
        let (tx, rx) = mpsc::channel();
        subs.push(tx);
        Ok(rx)
    }
}

/// Process-wide service state shared by the accept loop, the connection
/// handlers, and the request runners.
struct ServerState {
    opts: ServeOptions,
    addr: ServeAddr,
    /// The cross-request artifact store — the service's perf core.
    store: ArtifactStore,
    /// The global, request-fair scheduler pool.
    pool: Arc<WorkPool>,
    /// The spec log, `state_dir/requests.log`, open for appending.
    spec_log: Mutex<File>,
    /// Every program a request has named, built once.
    programs: Programs,
    requests: Mutex<HashMap<u64, Arc<RequestState>>>,
    active: AtomicU64,
    shutdown: AtomicBool,
    runners: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn accept(&self) -> std::io::Result<Box<dyn ServeStream>> {
        Ok(match self {
            Listener::Unix(l) => Box::new(l.accept()?.0),
            Listener::Tcp(l) => Box::new(l.accept()?.0),
        })
    }
}

/// The campaign service. Bind, then [`Server::run`] the accept loop
/// until a client sends [`ClientMsg::Shutdown`].
pub struct Server {
    listener: Listener,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds the service (Unix socket or TCP listener per `addr`),
    /// creating the state directory, opening its spec log (truncating a
    /// torn tail, as a journal resume does) and opening the shared
    /// store's disk tier.
    ///
    /// # Errors
    ///
    /// Propagates bind, directory-creation and spec-log failures.
    pub fn bind(addr: &ServeAddr, opts: ServeOptions) -> std::io::Result<Server> {
        std::fs::create_dir_all(&opts.state_dir)?;
        let mut spec_log =
            OpenOptions::new().read(true).append(true).create(true).open(spec_log_path(&opts))?;
        let mut bytes = Vec::new();
        spec_log.read_to_end(&mut bytes)?;
        spec_log.set_len(scan_frames(&bytes, 0, |_| true) as u64)?;
        let store = match &opts.cache_dir {
            None => ArtifactStore::new(),
            Some(dir) => ArtifactStore::with_disk_cache(dir)?,
        };
        let (listener, addr) = match addr {
            ServeAddr::Unix(path) => {
                // A stale socket file from a killed server would fail the
                // bind; the state directory, not the socket, is the
                // durable state.
                let _ = std::fs::remove_file(path);
                (Listener::Unix(UnixListener::bind(path)?), ServeAddr::Unix(path.clone()))
            }
            ServeAddr::Tcp(a) => {
                let l = TcpListener::bind(a.as_str())?;
                let bound = ServeAddr::Tcp(l.local_addr()?.to_string());
                (Listener::Tcp(l), bound)
            }
        };
        let pool = Arc::new(WorkPool::new(opts.jobs.max(1)));
        let state = Arc::new(ServerState {
            opts,
            addr,
            store,
            pool,
            spec_log: Mutex::new(spec_log),
            programs: Programs::default(),
            requests: Mutex::new(HashMap::new()),
            active: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            runners: Mutex::new(Vec::new()),
        });
        Ok(Server { listener, state })
    }

    /// The bound address (with the real port for `:0` TCP binds).
    pub fn addr(&self) -> &ServeAddr {
        &self.state.addr
    }

    /// Runs the accept loop until shutdown, then drains: joins every
    /// request runner (their journals flush as they unwind) and every
    /// connection handler before returning.
    ///
    /// # Errors
    ///
    /// Propagates accept failures.
    pub fn run(self) -> std::io::Result<()> {
        let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
        loop {
            let stream = self.listener.accept()?;
            if self.state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let state = Arc::clone(&self.state);
            conns.push(std::thread::spawn(move || {
                // Connection errors (a client vanishing mid-stream) are
                // that connection's problem, never the service's.
                let _ = handle_conn(stream, &state);
            }));
            conns.retain(|h| !h.is_finished());
        }
        for h in lock(&self.state.runners).drain(..) {
            let _ = h.join();
        }
        for h in conns {
            let _ = h.join();
        }
        if let ServeAddr::Unix(path) = &self.state.addr {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }
}

/// Handles one client connection: a single request frame, then (for
/// submit/attach) the event stream until the request's terminal message.
fn handle_conn(
    mut stream: Box<dyn ServeStream>,
    state: &Arc<ServerState>,
) -> Result<(), ProtocolError> {
    let reply = |stream: &mut Box<dyn ServeStream>, msg: &ServerMsg| {
        write_frame(stream, &encode_server(msg))
    };
    let msg = match read_frame(&mut stream).and_then(|p| decode_client(&p)) {
        Ok(msg) => msg,
        Err(e) => {
            // Reject malformed or version-mismatched clients with a
            // reason they can print, then drop the connection.
            let _ = reply(&mut stream, &ServerMsg::Rejected { reason: e.to_string() });
            return Err(e);
        }
    };
    let admitted = match msg {
        ClientMsg::Shutdown => {
            state.shutdown.store(true, Ordering::SeqCst);
            // Drop queued-but-unstarted work; running points finish and
            // are journaled, so restart + attach resumes precisely.
            state.pool.cancel_pending();
            reply(&mut stream, &ServerMsg::Bye { active: state.active.load(Ordering::SeqCst) })?;
            // Unblock the accept loop so `run` can drain and exit.
            let _ = connect(&state.addr);
            return Ok(());
        }
        ClientMsg::Submit(req) => admit(state, request_id(&req), || Some(req)),
        // Not in memory: relaunch from the persisted specification, the
        // resume path after a server crash.
        ClientMsg::Attach(id) => admit(state, id, || load_spec(state, id)),
    };
    match admitted {
        Ok(rs) => stream_events(stream, state, &rs),
        Err(reason) => reply(&mut stream, &ServerMsg::Rejected { reason }),
    }
}

/// Admits request `id`: joins the in-flight (or finished) run when one
/// exists, otherwise realizes `spec` and launches a runner for it under
/// the admission bound. Returns a rejection reason when the server is
/// shutting down, no specification is available, the request cannot be
/// realized (an unknown workload, configuration, preset or base) or the
/// queue is full. A rejected request leaves no state behind: no spec-log
/// record, no journal, no active slot.
fn admit(
    state: &Arc<ServerState>,
    id: u64,
    spec: impl FnOnce() -> Option<Request>,
) -> Result<Arc<RequestState>, String> {
    // Coalesced: an identical request is already running (or done); the
    // caller just subscribes to it.
    if let Some(rs) = lock(&state.requests).get(&id) {
        return Ok(Arc::clone(rs));
    }
    if state.shutdown.load(Ordering::SeqCst) {
        return Err("server is shutting down".to_string());
    }
    let req = spec().ok_or_else(|| format!("unknown request id {id:016x}"))?;
    // Realized outside the `requests` lock: building programs must not
    // stall every other admission.
    let job = realize(state, &req)?;
    let mut requests = lock(&state.requests);
    if let Some(rs) = requests.get(&id) {
        // An identical request was admitted while this one was realized.
        return Ok(Arc::clone(rs));
    }
    let active = state.active.load(Ordering::SeqCst);
    if active >= state.opts.max_active as u64 {
        return Err(format!(
            "queue full: {active} active request(s) (max {})",
            state.opts.max_active
        ));
    }
    let rs = Arc::new(RequestState {
        id,
        replayed: AtomicU64::new(0),
        subscribers: Mutex::new(Vec::new()),
        done: OnceLock::new(),
    });
    requests.insert(id, Arc::clone(&rs));
    state.active.fetch_add(1, Ordering::SeqCst);
    drop(requests);
    store_spec(state, id, &req);
    let runner_state = Arc::clone(state);
    let runner_rs = Arc::clone(&rs);
    let handle = std::thread::spawn(move || run_request(&runner_state, &runner_rs, &job));
    // Reap finished runners, so a long-lived server holds only live
    // ones (shutdown joins those). A runner contains its own panics, so
    // dropping a finished handle loses nothing and frees its stack.
    let mut runners = lock(&state.runners);
    runners.retain(|h| !h.is_finished());
    runners.push(handle);
    Ok(rs)
}

/// Sends the admission event and forwards the request's event stream
/// until its terminal message (or until the client hangs up).
fn stream_events(
    mut stream: Box<dyn ServeStream>,
    state: &Arc<ServerState>,
    rs: &Arc<RequestState>,
) -> Result<(), ProtocolError> {
    let admitted = ServerMsg::Admitted {
        id: rs.id,
        replayed: rs.replayed.load(Ordering::SeqCst),
        active: state.active.load(Ordering::SeqCst),
    };
    write_frame(&mut stream, &encode_server(&admitted))?;
    match rs.subscribe() {
        Err(done) => write_frame(&mut stream, &encode_server(&done)),
        Ok(rx) => {
            while let Ok(msg) = rx.recv() {
                let terminal = matches!(msg, ServerMsg::Done { .. });
                write_frame(&mut stream, &encode_server(&msg))?;
                if terminal {
                    break;
                }
            }
            Ok(())
        }
    }
}

/// The spec log: one [`frame`]d record per admitted request, holding the
/// full submit frame payload, so it stays versioned like the wire.
fn spec_log_path(opts: &ServeOptions) -> PathBuf {
    opts.state_dir.join("requests.log")
}

/// Appends request `id`'s specification to the spec log in one
/// `write_all`, unsynced like the journals.
fn store_spec(state: &ServerState, id: u64, req: &Request) {
    let record = frame(&encode_client(&ClientMsg::Submit(req.clone())));
    if let Err(e) = lock(&state.spec_log).write_all(&record) {
        eprintln!("boomflow serve: cannot persist request {id:016x}: {e}");
    }
}

/// Request `id`'s specification from the spec log or, for a state
/// directory written by an older build, from its `<id>.req` file (read,
/// never written).
fn load_spec(state: &ServerState, id: u64) -> Option<Request> {
    let as_spec = |payload: &[u8]| match decode_client(payload) {
        Ok(ClientMsg::Submit(req)) if request_id(&req) == id => Some(req),
        _ => None,
    };
    let mut found = None;
    if let Ok(log) = std::fs::read(spec_log_path(&state.opts)) {
        scan_frames(&log, 0, |payload| {
            found = as_spec(payload);
            found.is_none()
        });
    }
    found.or_else(|| {
        as_spec(&std::fs::read(state.opts.state_dir.join(format!("{id:016x}.req"))).ok()?)
    })
}

/// Executes one request end to end and publishes its terminal message.
fn run_request(state: &Arc<ServerState>, rs: &Arc<RequestState>, job: &Job) {
    let done =
        catch_unwind(AssertUnwindSafe(|| execute(state, rs, job))).unwrap_or_else(|payload| {
            failed(rs.id, format!("request runner panicked: {}", panic_message(payload.as_ref())))
        });
    rs.publish(&done, true);
    state.active.fetch_sub(1, Ordering::SeqCst);
}

/// Realizes a wire campaign request into the exact configuration,
/// workload, and flow objects a solo CLI run of the same flags builds —
/// the identity that makes served reports byte-comparable to solo ones.
/// `retries` is clamped to at least one attempt here, so `0` and `1` are
/// the same campaign (and the same journal fingerprint) on every path.
///
/// # Errors
///
/// Returns a human-readable reason for unknown selections.
pub fn realize_campaign(
    req: &CampaignRequest,
) -> Result<(Vec<BoomConfig>, Vec<Workload>, FlowConfig), String> {
    realize_campaign_in(req, &Programs::default())
}

/// [`realize_campaign`] with the workloads taken from `programs`.
fn realize_campaign_in(
    req: &CampaignRequest,
    programs: &Programs,
) -> Result<(Vec<BoomConfig>, Vec<Workload>, FlowConfig), String> {
    let cfgs = match req.config.as_str() {
        "all" => BoomConfig::all_three(),
        name => vec![BoomConfig::preset(name)
            .ok_or_else(|| format!("unknown configuration selection '{name}'"))?],
    };
    let ws = programs.realize(&req.workloads, req.scale)?;
    let flow = FlowConfig {
        warmup_insts: req.warmup,
        idle_skip: req.idle_skip,
        retry: RetryPolicy { max_attempts: req.retries.max(1), ..RetryPolicy::default() },
        ..FlowConfig::default()
    };
    Ok((cfgs, ws, flow))
}

/// A realized sweep: its configurations, workloads, flow and options.
/// The options' pool, jobs and journal are left at their defaults for
/// the caller to fill.
pub type RealizedSweep = (Vec<BoomConfig>, Vec<Workload>, FlowConfig, SweepOptions);

/// Realizes a wire sweep request plus the CLI-local `extras` (none for a
/// served sweep) — the one place a preset, base override, grid and
/// idle-skip choice become configurations, for the server and the solo
/// `boomflow sweep` alike.
///
/// # Errors
///
/// Returns a human-readable reason for unknown selections, an invalid
/// grid, or an explicit idle skip over hierarchy configurations.
pub fn realize_sweep(req: &SweepRequest, extras: &SweepExtras) -> Result<RealizedSweep, String> {
    realize_sweep_in(req, extras, &Programs::default())
}

/// [`realize_sweep`] with the workloads taken from `programs`.
fn realize_sweep_in(
    req: &SweepRequest,
    extras: &SweepExtras,
    programs: &Programs,
) -> Result<RealizedSweep, String> {
    let mut spec = match req.preset.as_str() {
        "" => SweepSpec { base: BoomConfig::medium(), axes: Vec::new(), random: None },
        name => SweepSpec::preset(name).ok_or_else(|| format!("unknown grid preset '{name}'"))?,
    };
    if !req.base.is_empty() {
        spec.base = BoomConfig::preset(&req.base)
            .ok_or_else(|| format!("unknown base configuration '{}'", req.base))?;
    }
    spec.axes.extend(extras.axes.iter().cloned());
    spec.random = extras.random.map(|n| (n, extras.seed));
    let cfgs = spec.generate().map_err(|e| format!("invalid sweep specification: {e}"))?;
    let ws = programs.realize(&req.workloads, req.scale)?;
    // An explicit idle skip over hierarchy configurations is a typed
    // rejection, never a silent drop.
    let idle_skip = match extras.idle_skip {
        Some(true) if !all_fixed_latency(&cfgs) => {
            let what = "sweep over memory-hierarchy configurations".to_string();
            return Err(ConfigError::IdleSkipUnsupported { what }.to_string());
        }
        Some(on) => on,
        None => all_fixed_latency(&cfgs),
    };
    let flow = FlowConfig { warmup_insts: req.warmup, idle_skip, ..FlowConfig::default() };
    let opts = SweepOptions {
        batch_lanes: req.batch_lanes.max(1),
        epsilon: req.epsilon,
        epsilon_decay: req.epsilon_decay,
        rung0_points: req.rung0_points.max(1),
        rung0_shift: req.rung0_shift,
        max_rungs: (req.max_rungs > 0).then_some(req.max_rungs),
        exhaustive: req.exhaustive,
        ..SweepOptions::default()
    };
    Ok((cfgs, ws, flow, opts))
}

/// A selection item at a scale: `None` is the `all` selection, `Some` a
/// lower-cased program name.
type SelectionKey = (Option<String>, u8);

/// Built workloads by [`SelectionKey`]. Only known names are kept, so it
/// holds at most twelve entries per scale. A hit clones the workloads,
/// carrying their cached fingerprints, instead of re-assembling them.
#[derive(Default)]
struct Programs(Mutex<HashMap<SelectionKey, Vec<Workload>>>);

impl Programs {
    /// The workloads a request's comma-separated selection names, in
    /// order; `all` is the paper's eleven.
    fn realize(&self, sel: &str, scale: Scale) -> Result<Vec<Workload>, String> {
        if sel == "all" {
            return Ok(self.get(None, scale).unwrap_or_default());
        }
        let mut ws = Vec::new();
        for n in sel.split(',').filter(|n| !n.is_empty()) {
            let w = self.get(Some(n), scale).ok_or_else(|| format!("unknown workload '{n}'"))?;
            ws.extend(w);
        }
        Ok(ws)
    }

    fn get(&self, name: Option<&str>, scale: Scale) -> Option<Vec<Workload>> {
        let key = (name.map(str::to_ascii_lowercase), scale as u8);
        if let Some(ws) = lock(&self.0).get(&key) {
            return Some(ws.clone());
        }
        let ws = match name {
            None => all(scale),
            Some(n) => vec![by_name(n, scale)?],
        };
        // Hashed here, once: every clone handed out carries the value.
        for w in &ws {
            w.program.fingerprint();
        }
        Some(lock(&self.0).entry(key).or_insert(ws).clone())
    }
}

/// A request realized at admission: what its runner executes.
struct Job {
    cfgs: Vec<BoomConfig>,
    ws: Vec<Workload>,
    flow: FlowConfig,
    kind: JobKind,
}

enum JobKind {
    /// A campaign, with its batch lanes.
    Campaign(usize),
    /// A sweep, with its options (the pool, jobs and journal are the
    /// server's).
    Sweep(SweepOptions),
}

/// Realizes `req` through the server's program memo into the job its
/// runner executes, armed with the server's kill drill. An `Err` names
/// the unknown selection the request is rejected for.
fn realize(state: &ServerState, req: &Request) -> Result<Job, String> {
    let mut job = match req {
        Request::Campaign(c) => {
            let (cfgs, ws, flow) = realize_campaign_in(c, &state.programs)?;
            Job { cfgs, ws, flow, kind: JobKind::Campaign(c.batch_lanes.max(1)) }
        }
        Request::Sweep(s) => {
            let (cfgs, ws, flow, opts) =
                realize_sweep_in(s, &SweepExtras::default(), &state.programs)?;
            Job { cfgs, ws, flow, kind: JobKind::Sweep(opts) }
        }
    };
    job.flow.inject.kill_after_points = state.opts.kill_after_points;
    Ok(job)
}

/// The terminal message of request `id` when it fails before it has a
/// report.
fn failed(id: u64, summary: String) -> ServerMsg {
    ServerMsg::Done { id, ok: false, report: Vec::new(), summary, extra: String::new() }
}

/// Runs `job` on the server's pool and store against its journal in the
/// state directory, `<id>.bfj` for a campaign and `<id>.swj` for a sweep,
/// always resumed: a previous server life's journal replays, a missing
/// one starts fresh. The fingerprint inside the journal independently
/// validates that the persisted spec still describes the same run.
fn execute(state: &Arc<ServerState>, rs: &Arc<RequestState>, job: &Job) -> ServerMsg {
    let (ext, what) = match job.kind {
        JobKind::Campaign(_) => ("bfj", "campaign"),
        JobKind::Sweep(_) => ("swj", "sweep"),
    };
    let path = state.opts.state_dir.join(format!("{:016x}.{ext}", rs.id));
    let (cfgs, ws, flow) = (&job.cfgs, &job.ws, &job.flow);
    let (jobs, pool) = (state.opts.jobs, Some(Arc::clone(&state.pool)));
    let run = |resume| -> Result<ServerMsg, JournalError> {
        match &job.kind {
            JobKind::Campaign(batch_lanes) => {
                let fp = campaign_fingerprint_with(cfgs, ws, flow, &[]);
                let (journal, replay) = CampaignJournal::open(&path, fp, resume)?;
                rs.replayed.store(replay.len() as u64, Ordering::SeqCst);
                let progress_rs = Arc::clone(rs);
                let opts = CampaignOptions {
                    jobs,
                    journal: Some(Arc::new(journal)),
                    replay: Some(Arc::new(replay)),
                    co_runs: Vec::new(),
                    batch_lanes: *batch_lanes,
                    pool: pool.clone(),
                    progress: Some(ProgressHook(Arc::new(move |done, total| {
                        let msg = ServerMsg::Progress { id: progress_rs.id, done, total };
                        progress_rs.publish(&msg, false);
                    }))),
                };
                let report = supervise_campaign(cfgs, ws, flow, &state.store, &opts);
                let mut summary = report.stage_summary();
                if let Some(log) = report.failure_log() {
                    summary = format!("{summary}\n{log}");
                }
                Ok(ServerMsg::Done {
                    id: rs.id,
                    ok: report.all_ok(),
                    report: report.render_deterministic().into_bytes(),
                    summary,
                    extra: String::new(),
                })
            }
            JobKind::Sweep(opts) => {
                let (journal_path, pool) = (Some(path.clone()), pool.clone());
                let opts = SweepOptions { jobs, journal_path, resume, pool, ..*opts };
                let report = run_sweep(cfgs, ws, flow, &state.store, &opts)?;
                rs.replayed.store(report.stats.replayed_points, Ordering::SeqCst);
                Ok(ServerMsg::Done {
                    id: rs.id,
                    ok: report.all_ok(),
                    report: report.render_deterministic().into_bytes(),
                    summary: report.stage_summary(),
                    extra: report.render_frontier(),
                })
            }
        }
    };
    let ran = match run(true) {
        // An older format is this server's own journal, written by an
        // older build for the same persisted spec: start it afresh
        // rather than reject the id for good.
        Err(JournalError::Version { .. }) => run(false),
        ran => ran,
    };
    let summary = match ran {
        Ok(_) if state.shutdown.load(Ordering::SeqCst) => format!(
            "server shut down mid-{what}; completed points are journaled — restart the server \
             and attach this id to resume"
        ),
        Ok(done) => return done,
        Err(e) => format!("cannot open journal: {e}"),
    };
    failed(rs.id, summary)
}

/// Convenience for in-process clients (tests, benches, the CLI): sends
/// one message and yields every server frame to `on_event` until the
/// stream ends, returning the terminal message if one arrived.
///
/// # Errors
///
/// Propagates stream and decode failures ([`ProtocolError::Io`] EOF
/// before a terminal frame means the server died mid-request).
pub fn request_events(
    addr: &ServeAddr,
    msg: &ClientMsg,
    mut on_event: impl FnMut(&ServerMsg),
) -> Result<Option<ServerMsg>, ProtocolError> {
    let mut stream = connect(addr)?;
    write_frame(&mut stream, &encode_client(msg))?;
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(p) => p,
            Err(ProtocolError::Io(e)) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                return Ok(None)
            }
            Err(e) => return Err(e),
        };
        let msg = crate::protocol::decode_server(&payload)?;
        on_event(&msg);
        match msg {
            ServerMsg::Done { .. } | ServerMsg::Rejected { .. } | ServerMsg::Bye { .. } => {
                return Ok(Some(msg))
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprints(ws: &[Workload]) -> Vec<(&'static str, u64, u64)> {
        ws.iter().map(|w| (w.name, w.program.fingerprint(), w.interval_size)).collect()
    }

    #[test]
    fn programs_are_built_per_name_and_scale() {
        let programs = Programs::default();
        let built = |sel: &str, scale: Scale| fingerprints(&programs.realize(sel, scale).unwrap());
        let fresh = |names: &[&str], scale: Scale| {
            let ws: Vec<Workload> = names.iter().map(|n| by_name(n, scale).unwrap()).collect();
            fingerprints(&ws)
        };
        for _ in 0..2 {
            assert_eq!(
                built("sha,Bitcount", Scale::Test),
                fresh(&["sha", "bitcount"], Scale::Test)
            );
            assert_eq!(built("SHA", Scale::Small), fresh(&["sha"], Scale::Small));
            assert_eq!(built("all", Scale::Test), fingerprints(&all(Scale::Test)));
        }
        assert_eq!(lock(&programs.0).len(), 4);
        assert!(programs.realize("ALL", Scale::Test).is_err(), "only `all` selects every program");
        assert!(programs.realize("sha,nope", Scale::Test).is_err());
        assert_eq!(lock(&programs.0).len(), 4, "unknown names are not kept");
    }

    #[test]
    fn a_known_id_coalesces_even_during_shutdown() {
        let dir = std::env::temp_dir().join(format!("boomflow-admit-{}", std::process::id()));
        let opts = ServeOptions {
            jobs: 1,
            max_active: 1,
            cache_dir: None,
            state_dir: dir.join("state"),
            kill_after_points: None,
        };
        let server = Server::bind(&ServeAddr::Unix(dir.join("s.sock")), opts).unwrap();
        let state = &server.state;
        let known = Arc::new(RequestState {
            id: 7,
            replayed: AtomicU64::new(0),
            subscribers: Mutex::new(Vec::new()),
            done: OnceLock::new(),
        });
        lock(&state.requests).insert(7, Arc::clone(&known));
        state.shutdown.store(true, Ordering::SeqCst);
        let joined = admit(state, 7, || unreachable!("a known id reads no spec")).unwrap();
        assert!(Arc::ptr_eq(&joined, &known));
        let refused = admit(state, 8, || unreachable!("shutdown refuses before the spec"));
        assert_eq!(refused.err().unwrap(), "server is shutting down");
        drop(server);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
