//! Staged, shareable artifacts of the SimPoint flow.
//!
//! The front half of the flow — functional profiling, phase analysis, and
//! architectural checkpoint capture — is *configuration-independent* by
//! construction: BBVs, cluster assignments, and architectural snapshots
//! depend only on the workload and the flow parameters, never on the
//! microarchitecture being evaluated (the same property the paper's
//! Spike/gem5 artifacts exploit). A campaign over many configurations
//! therefore needs each of those stages exactly once per workload.
//!
//! [`ArtifactStore`] memoizes the three stages behind a thread-safe,
//! compute-exactly-once cache:
//!
//! * **Profile** — [`BbvProfile`], keyed by (program fingerprint,
//!   interval size, profiling budget);
//! * **SimPointAnalysis** — [`SimPointAnalysis`], keyed by the profile
//!   key plus [`SimPointConfig::cache_fingerprint`](simpoint::SimPointConfig::cache_fingerprint);
//! * **CheckpointSet** — [`CheckpointSet`], keyed by the analysis key
//!   plus the warm-up length. Checkpoints are held behind [`Arc`]
//!   ([`rv_isa::checkpoint::SharedCheckpoint`]) so the memory images are
//!   shared — not cloned — across configurations and worker threads.
//!
//! A profile this store computes also parks [`RestartPoints`] along its
//! pass. They go only to the computing thread, whose next checkpoint
//! capture of the same profile resumes from them and then drops them;
//! they are never memoized or persisted. A profile served from the disk
//! tier or from another thread's computation leaves none, and capture
//! then runs from the program entry — the same bytes either way.
//!
//! Behind them, every campaign, sweep rung and served request runs its
//! detailed points through one single-flight point memo (`PointKey`).
//!
//! A full-run baseline cache ([`ArtifactStore::full_run`]) rides along for
//! the methodology benches that compare SimPoint against full detailed
//! simulation: the baseline is (configuration, workload)-keyed and only
//! ever simulated once per store.
//!
//! All five maps are one `Memo` type, and every stage records
//! compute/hit counters and wall-clock totals ([`CacheStats`]), which the
//! campaign scheduler surfaces through
//! [`CampaignReport`](crate::CampaignReport) — the reuse win is
//! observable, not assumed.

use crate::diskcache::{CacheStage, DiskCache, DiskFaultInjection, DiskLookup};
use crate::flow::{
    run_full, supervision_fingerprint, FlowConfig, FlowError, FullRunResult, PointOutcome,
};
use crate::sync::lock;
use boom_uarch::BoomConfig;
use rv_isa::bbv::BbvProfile;
use rv_isa::checkpoint::{checkpoints_from, Checkpoint, RestartPoints, SharedCheckpoint};
use rv_isa::codec::{ByteReader, ByteWriter, Codec, CodecError};
use rv_workloads::Workload;
use simpoint::{analyze, SimPointAnalysis};
use std::collections::HashMap;
use std::hash::Hash;
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::ThreadId;
use std::time::Instant;

rv_isa::record! {
    /// Memo key of a profile: the program fingerprint, the interval size
    /// and the profiling budget.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    struct ProfileKey {
        program: u64 [key],
        interval_size: u64 [key],
        budget: u64 [key],
    }
}

rv_isa::record! {
    /// Memo key of a phase analysis: the profile and the SimPoint config.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    struct AnalysisKey {
        profile: ProfileKey [key],
        simpoint: u64 [key],
    }
}

rv_isa::record! {
    /// Memo key of a checkpoint set: the analysis and the warm-up.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    struct CheckpointKey {
        analysis: AnalysisKey [key],
        warmup: u64 [key],
    }
}

/// Memo key of a full-run baseline.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct FullRunKey {
    config: u64,
    program: u64,
}

/// A stage's (fills run, lookups served, wall-clock ms) in [`CacheStats`].
type Meters = fn(&mut CacheStats) -> (&mut u64, &mut u64, &mut f64);

/// A front-half stage's memo key, which is also its disk entry's: the
/// entry's header key is the key's [`Codec::content_key`] (FNV-1a over
/// its fields' little-endian bytes).
trait StageKey: Codec + Eq + Hash {
    /// The stage the disk entry is filed under.
    const STAGE: CacheStage;
    /// The counters the stage's lookups charge.
    const METERS: Meters;
    /// The entry's file-name part, readable in a directory listing.
    fn entry(&self) -> String;
}

impl StageKey for ProfileKey {
    const STAGE: CacheStage = CacheStage::Profile;
    const METERS: Meters = |s| (&mut s.profile_computed, &mut s.profile_hits, &mut s.profile_ms);
    fn entry(&self) -> String {
        format!("{:016x}-{}-{}", self.program, self.interval_size, self.budget)
    }
}

impl StageKey for AnalysisKey {
    const STAGE: CacheStage = CacheStage::Analysis;
    const METERS: Meters = |s| (&mut s.cluster_computed, &mut s.cluster_hits, &mut s.cluster_ms);
    fn entry(&self) -> String {
        format!("{}-{:016x}", self.profile.entry(), self.simpoint)
    }
}

impl StageKey for CheckpointKey {
    const STAGE: CacheStage = CacheStage::Checkpoints;
    const METERS: Meters =
        |s| (&mut s.checkpoint_computed, &mut s.checkpoint_hits, &mut s.checkpoint_ms);
    fn entry(&self) -> String {
        format!("{}-{}", self.analysis.entry(), self.warmup)
    }
}

/// The workload-and-flow part of a [`PointKey`]: the checkpoint-set key
/// (program, interval size, profiling budget, SimPoint config, warm-up)
/// and the [`supervision_fingerprint`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct PointScope {
    checkpoints: CheckpointKey,
    supervision: u64,
}

/// Memo key of one point outcome: the config record key, which covers
/// every field but the display name; the [`PointScope`]; the truncation
/// shift; and the point index — every input that changes an outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct PointKey {
    pub(crate) config: u64,
    pub(crate) scope: PointScope,
    pub(crate) shift: u32,
    pub(crate) point: u32,
}

/// How a [`Memo::get_or_compute`] call found its key.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Found {
    /// This call ran the computation.
    Ran,
    /// The slot was already complete.
    Complete,
    /// Another call was computing it; this one waited and shares it.
    InFlight,
}

/// A compute-exactly-once map: one slot per key, filled by the first
/// caller while concurrent callers of the same key wait and share it.
struct Memo<K, V> {
    slots: Mutex<HashMap<K, Arc<OnceLock<V>>>>,
}

impl<K, V> Default for Memo<K, V> {
    fn default() -> Memo<K, V> {
        Memo { slots: Mutex::default() }
    }
}

impl<K: Eq + Hash, V: Clone> Memo<K, V> {
    /// The value of `key`, computed by `compute` if no call has. Whether
    /// the slot was complete is decided under the map lock, atomically
    /// with the slot lookup, so a wait is observable without timing races.
    fn get_or_compute(&self, key: K, compute: impl FnOnce() -> V) -> (V, Found) {
        let (slot, complete) = {
            let mut slots = lock(&self.slots);
            let slot = Arc::clone(slots.entry(key).or_default());
            let complete = slot.get().is_some();
            (slot, complete)
        };
        let mut ran = false;
        let value = slot.get_or_init(|| {
            ran = true;
            compute()
        });
        let found = match (ran, complete) {
            (true, _) => Found::Ran,
            (false, true) => Found::Complete,
            (false, false) => Found::InFlight,
        };
        (value.clone(), found)
    }

    /// The value of `key` if it is complete; never waits.
    fn peek(&self, key: &K) -> Option<V> {
        lock(&self.slots).get(key).and_then(|slot| slot.get().cloned())
    }

    /// Fills `key`'s slot with `value` if it is empty; whether it was.
    fn insert(&self, key: K, value: V) -> bool {
        let slot = Arc::clone(lock(&self.slots).entry(key).or_default());
        slot.set(value).is_ok()
    }
}

/// A stage memo: errors are memoized and replayed like values.
type StageMemo<K, T> = Memo<K, Result<T, FlowError>>;

/// One selected simulation point, fully planned for detailed simulation:
/// its checkpoint (shared, not cloned), warm-up length, and measurement
/// window.
#[derive(Clone, Debug)]
pub struct PlannedPoint {
    /// Index among the analysis' selected points.
    pub sel_idx: usize,
    /// Index of the represented interval in the BBV profile.
    pub interval: usize,
    /// Cluster weight (fraction of execution).
    pub weight: f64,
    /// Length of the measured interval in dynamic instructions.
    pub interval_len: u64,
    /// Warm-up instructions before the measured interval (clamped to the
    /// checkpoint's position).
    pub warmup: u64,
    /// Architectural snapshot at (interval start − warm-up), shared
    /// across every configuration that simulates this point.
    pub checkpoint: SharedCheckpoint,
}

/// The complete configuration-independent front half of the flow for one
/// (workload, flow-parameters) pair: profile, analysis, and one planned
/// point per selected simulation point.
#[derive(Clone, Debug)]
pub struct CheckpointSet {
    /// The BBV profile the analysis was derived from.
    pub profile: Arc<BbvProfile>,
    /// The phase analysis (selected points, weights, coverage, speedup).
    pub analysis: Arc<SimPointAnalysis>,
    /// Planned points in checkpoint-capture order (ascending position in
    /// the dynamic instruction stream) — the order detailed simulation
    /// and result assembly use.
    pub points: Vec<PlannedPoint>,
}

/// Per-stage compute/hit counters and wall-clock totals of an
/// [`ArtifactStore`] (monotonic; snapshot with [`ArtifactStore::stats`]).
///
/// "Computed" counts closure executions (cache misses that did the work);
/// "hits" counts lookups served from the cache, including the store's own
/// internal lookups (a checkpoint-set computation re-reads its profile
/// and analysis through the cache).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CacheStats {
    /// Profiling passes executed.
    pub profile_computed: u64,
    /// Profiling lookups served from cache.
    pub profile_hits: u64,
    /// Phase analyses executed.
    pub cluster_computed: u64,
    /// Phase-analysis lookups served from cache.
    pub cluster_hits: u64,
    /// Checkpoint-capture passes executed.
    pub checkpoint_computed: u64,
    /// Checkpoint-set lookups served from cache.
    pub checkpoint_hits: u64,
    /// Full-run baselines simulated.
    pub full_run_computed: u64,
    /// Full-run lookups served from cache.
    pub full_run_hits: u64,
    /// Wall-clock spent profiling, in ms.
    pub profile_ms: f64,
    /// Wall-clock spent clustering, in ms.
    pub cluster_ms: f64,
    /// Wall-clock spent capturing checkpoints, in ms: the capture pass
    /// and the disk tier's load or write of the set. The profile and
    /// analysis a capture needs are charged to their own stages, so the
    /// three stage times add up to the front half's worker time.
    pub checkpoint_ms: f64,
    /// Wall-clock spent in detailed point simulation, in ms (accumulated
    /// across worker threads; not a cached stage).
    pub detailed_ms: f64,
    /// Wall-clock spent simulating full-run baselines, in ms.
    pub full_run_ms: f64,
    /// Stage fills served from the disk cache (validated loads).
    pub disk_hits: u64,
    /// Disk-cache lookups that found no entry.
    pub disk_misses: u64,
    /// Artifacts persisted to the disk cache.
    pub disk_writes: u64,
    /// Disk entries that failed validation and were quarantined.
    pub disk_quarantined: u64,
    /// Cached stage *errors* replayed to later callers — the failure
    /// context is the original compute's, not the replaying cell's.
    pub error_replays: u64,
    /// Plan-time point-memo lookups that found a completed outcome (a
    /// promoted or resumed sweep re-reading an earlier measurement).
    pub sweep_point_hits: u64,
    /// Point outcomes inserted into the point memo.
    pub sweep_point_stored: u64,
    /// Lookups (stage or single-flight point) that found the key *in
    /// flight* — another caller was already computing it — and blocked
    /// on that computation instead of duplicating it. Nonzero means
    /// single-flight deduplication actually coalesced concurrent work.
    pub inflight_dedup_hits: u64,
    /// Campaign point lookups (at plan time, or single-flight calls)
    /// served from an already-*completed* memo slot — warm reuse of work
    /// another run or request finished.
    pub warm_store_hits: u64,
}

/// Thread-safe memoization of the flow's configuration-independent
/// stages and of every supervised point outcome, plus the full-run
/// baseline cache and stage accounting.
///
/// Artifacts and point outcomes live for the store's lifetime, which may
/// span many runs: campaigns, sweeps and served requests sharing one
/// store reuse each other's work, and [`CacheStats`] then describes the
/// reuse over that whole lifetime. A store per run (or per bench
/// process) confines both to the run.
#[derive(Default)]
pub struct ArtifactStore {
    profiles: StageMemo<ProfileKey, Arc<BbvProfile>>,
    analyses: StageMemo<AnalysisKey, Arc<SimPointAnalysis>>,
    checkpoints: StageMemo<CheckpointKey, Arc<CheckpointSet>>,
    full_runs: StageMemo<FullRunKey, Arc<FullRunResult>>,
    /// The point memo, shared by every campaign, sweep rung and request
    /// on the store.
    points: Memo<PointKey, PointOutcome>,
    stats: Mutex<CacheStats>,
    /// Optional crash-safe disk tier behind the in-memory memo maps.
    disk: Option<DiskCache>,
    /// Restart points of the last profile each thread computed, until
    /// that thread's capture of the same profile takes them.
    restarts: Mutex<HashMap<ThreadId, (ProfileKey, RestartPoints)>>,
}

impl ArtifactStore {
    /// Creates an empty, memory-only store.
    pub fn new() -> ArtifactStore {
        ArtifactStore::default()
    }

    /// Creates a store backed by a crash-safe disk cache at `dir`
    /// (created if needed): stage artifacts are persisted on compute and
    /// served from disk on later runs, under the same fingerprint keys
    /// the in-memory maps use. Corrupt entries are quarantined and
    /// recomputed, never trusted.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn with_disk_cache(dir: &Path) -> std::io::Result<ArtifactStore> {
        Self::with_disk_cache_injected(dir, DiskFaultInjection::default())
    }

    /// [`ArtifactStore::with_disk_cache`] with deterministic I/O fault
    /// injection, for tests and CI drills of the recovery paths.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn with_disk_cache_injected(
        dir: &Path,
        faults: DiskFaultInjection,
    ) -> std::io::Result<ArtifactStore> {
        Ok(ArtifactStore { disk: Some(DiskCache::open(dir, faults)?), ..ArtifactStore::default() })
    }

    /// The checkpoint-set key of `workload` under `flow`, which holds its
    /// analysis key, which holds its profile key.
    fn key(workload: &Workload, flow: &FlowConfig) -> CheckpointKey {
        let (program, interval_size) = (workload.program.fingerprint(), workload.interval_size);
        let profile = ProfileKey { program, interval_size, budget: flow.max_profile_insts };
        let analysis = AnalysisKey { profile, simpoint: flow.simpoint.cache_fingerprint() };
        CheckpointKey { analysis, warmup: flow.warmup_insts }
    }

    /// Charges `f` to the counters.
    fn count(&self, f: impl FnOnce(&mut CacheStats)) {
        f(&mut lock(&self.stats));
    }

    /// Charges a fill that started at `t0` to `meters`: its wall-clock,
    /// and a computation unless it was a disk load.
    fn charge_fill(&self, meters: Meters, t0: Instant, computed: bool) {
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        self.count(|s| {
            let (fills, _, spent) = meters(s);
            *fills += u64::from(computed);
            *spent += ms;
        });
    }

    /// Charges a lookup that did not run its fill to `meters`: a hit,
    /// plus `inflight_dedup_hits` if it waited and `error_replays` if the
    /// value is an error.
    fn charge_hit(&self, meters: Meters, waited: bool, error: bool) {
        self.count(|s| {
            *meters(s).1 += 1;
            s.inflight_dedup_hits += u64::from(waited);
            s.error_replays += u64::from(error);
        });
    }

    /// Looks `key` up in `memo`, running `fill` at most once across
    /// threads; the error of a failed fill is replayed to later callers.
    fn lookup<K: Eq + Hash, T: Clone>(
        &self,
        memo: &StageMemo<K, T>,
        meters: Meters,
        key: K,
        fill: impl FnOnce() -> Result<T, FlowError>,
    ) -> Result<T, FlowError> {
        let (value, found) = memo.get_or_compute(key, fill);
        if found != Found::Ran {
            self.charge_hit(meters, found == Found::InFlight, value.is_err());
        }
        value
    }

    /// Fills `key`'s stage through the disk tier: a validated entry
    /// short-circuits `compute`, anything else (miss, quarantine, or an
    /// undecodable payload) computes and persists the result. Stage
    /// *errors* are never persisted — only successful artifacts are worth
    /// replaying across processes.
    fn fill<K: StageKey, P>(
        &self,
        key: &K,
        decode: fn(&mut ByteReader<'_>) -> Result<P, CodecError>,
        encode: fn(&P, &mut ByteWriter),
        compute: impl FnOnce() -> Result<P, FlowError>,
    ) -> Result<P, FlowError> {
        let t0 = Instant::now();
        let (stage, hash, name) = (K::STAGE, key.content_key(), key.entry());
        let mut loaded = None;
        if let Some(disk) = &self.disk {
            match disk.load(stage, hash, &name) {
                DiskLookup::Hit(bytes) => {
                    let mut r = ByteReader::new(&bytes);
                    match decode(&mut r).and_then(|p| r.finish().map(|()| p)) {
                        Ok(p) => loaded = Some(p),
                        // Checksum passed but the payload does not decode
                        // (format drift): quarantine like any corruption.
                        Err(_) => disk.quarantine_entry(stage, &name),
                    }
                    let hit = loaded.is_some();
                    self.count(|s| {
                        *if hit { &mut s.disk_hits } else { &mut s.disk_quarantined } += 1
                    });
                }
                DiskLookup::Miss => self.count(|s| s.disk_misses += 1),
                DiskLookup::Quarantined => self.count(|s| s.disk_quarantined += 1),
            }
        }
        let from_disk = loaded.is_some();
        let result = loaded.map_or_else(compute, Ok);
        if let (Some(disk), Ok(p), false) = (&self.disk, &result, from_disk) {
            let mut w = ByteWriter::new();
            encode(p, &mut w);
            if disk.store(stage, hash, &name, &w.into_bytes()).is_ok() {
                self.count(|s| s.disk_writes += 1);
            }
        }
        self.charge_fill(K::METERS, t0, !from_disk);
        result
    }

    /// Stage 1 — the workload's BBV profile, computed at most once per
    /// (program, interval size, profiling budget).
    ///
    /// # Errors
    ///
    /// Propagates profiling failures (simulator fault, no exit, failed
    /// self-verification); the error is cached and replayed to every
    /// caller of the same key.
    pub fn profile(
        &self,
        workload: &Workload,
        flow: &FlowConfig,
    ) -> Result<Arc<BbvProfile>, FlowError> {
        let key = Self::key(workload, flow).analysis.profile;
        self.lookup(&self.profiles, ProfileKey::METERS, key, || {
            self.fill(&key, BbvProfile::decode, BbvProfile::encode, || {
                let (p, restarts) = crate::flow::profile(workload, flow.max_profile_insts)?;
                lock(&self.restarts).insert(std::thread::current().id(), (key, restarts));
                Ok(p)
            })
            .map(Arc::new)
        })
    }

    /// Stage 2 — the SimPoint phase analysis over the workload's profile,
    /// computed at most once per (profile, SimPoint config).
    ///
    /// # Errors
    ///
    /// Propagates a profiling failure from stage 1.
    pub fn analysis(
        &self,
        workload: &Workload,
        flow: &FlowConfig,
    ) -> Result<Arc<SimPointAnalysis>, FlowError> {
        let key = Self::key(workload, flow).analysis;
        self.lookup(&self.analyses, AnalysisKey::METERS, key, || {
            self.fill(&key, SimPointAnalysis::decode, SimPointAnalysis::encode, || {
                let bbv = self.profile(workload, flow)?;
                Ok(analyze(&bbv, &flow.simpoint))
            })
            .map(Arc::new)
        })
    }

    /// Takes the restart points this thread's last computed profile
    /// parked, if that profile is `key`'s.
    fn take_restarts(&self, key: &ProfileKey) -> Option<RestartPoints> {
        let mut parked = lock(&self.restarts);
        let id = std::thread::current().id();
        match parked.get(&id) {
            Some((k, _)) if k == key => parked.remove(&id).map(|(_, r)| r),
            _ => None,
        }
    }

    /// Stage 3 — the planned checkpoint set: one architectural snapshot
    /// per selected point at (interval start − warm-up), captured in a
    /// single functional pass at most once per (analysis, warm-up). The
    /// pass resumes from the restart points this thread's profile of the
    /// workload parked, when there are any, and from the entry otherwise.
    ///
    /// # Errors
    ///
    /// Propagates stage 1/2 failures and checkpoint-capture simulator
    /// faults.
    pub fn checkpoints(
        &self,
        workload: &Workload,
        flow: &FlowConfig,
    ) -> Result<Arc<CheckpointSet>, FlowError> {
        let key = Self::key(workload, flow);
        let set = self.lookup(&self.checkpoints, CheckpointKey::METERS, key, || {
            // Both the disk-decode and the compute path need the (cached)
            // front stages: the set embeds them, and the disk entry
            // stores only the planned points.
            let profile = self.profile(workload, flow)?;
            let analysis = self.analysis(workload, flow)?;
            let restarts = self.take_restarts(&key.analysis.profile);
            let points = self.fill(&key, decode_points, encode_points, || {
                let starts = analysis.selected_starts(&profile);
                // Capture at (interval start − warm-up), batched in one
                // pass; the capture cursor only moves forward, so sort by
                // position. This order is also the flow's point order.
                let mut targets: Vec<(usize, u64, u64)> = starts
                    .iter()
                    .enumerate()
                    .map(|(i, &s)| {
                        let warm = flow.warmup_insts.min(s);
                        (i, s - warm, warm)
                    })
                    .collect();
                targets.sort_by_key(|&(_, at, _)| at);
                let sorted: Vec<u64> = targets.iter().map(|&(_, at, _)| at).collect();
                let restarts = restarts.unwrap_or_else(|| RestartPoints::entry(&workload.program));
                let checkpoints = checkpoints_from(restarts, &sorted)?;
                let points = targets
                    .into_iter()
                    .zip(checkpoints)
                    .map(|((sel_idx, _, warmup), checkpoint)| {
                        let sp = analysis.selected[sel_idx];
                        PlannedPoint {
                            sel_idx,
                            interval: sp.interval,
                            weight: sp.weight,
                            interval_len: profile.intervals[sp.interval].len,
                            warmup,
                            checkpoint: Arc::new(checkpoint),
                        }
                    })
                    .collect();
                Ok(points)
            })?;
            Ok(Arc::new(CheckpointSet { profile, analysis, points }))
        });
        // A set found complete leaves any restarts this thread parked for
        // it unused; they are dropped here, never kept for later.
        self.take_restarts(&key.analysis.profile);
        set
    }

    /// Full-detailed-simulation baseline for one (configuration,
    /// workload), simulated at most once per store — the methodology
    /// benches compare many SimPoint variants against this single run.
    ///
    /// # Errors
    ///
    /// Propagates [`run_full`] failures.
    pub fn full_run(
        &self,
        cfg: &BoomConfig,
        workload: &Workload,
    ) -> Result<Arc<FullRunResult>, FlowError> {
        let key = FullRunKey { config: cfg.content_key(), program: workload.program.fingerprint() };
        let meters: Meters =
            |s| (&mut s.full_run_computed, &mut s.full_run_hits, &mut s.full_run_ms);
        self.lookup(&self.full_runs, meters, key, || {
            let t0 = Instant::now();
            let r = run_full(cfg, workload).map(Arc::new);
            self.charge_fill(meters, t0, true);
            r
        })
    }

    /// Adds detailed-simulation wall-clock (one point's attempt span) to
    /// the stage accounting.
    pub(crate) fn charge_detailed_us(&self, us: u64) {
        self.count(|s| s.detailed_ms += us as f64 / 1e3);
    }

    /// The [`PointScope`] of `workload` under `flow`. The program
    /// fingerprint hashes the whole image, so runs compute this once per
    /// workload, not per point.
    pub(crate) fn point_scope(workload: &Workload, flow: &FlowConfig) -> PointScope {
        let supervision = supervision_fingerprint(flow);
        PointScope { checkpoints: Self::key(workload, flow), supervision }
    }

    /// The checkpoint set of `scope`'s workload when it is already
    /// complete in the store, counted as [`ArtifactStore::checkpoints`]
    /// counts a completed-slot hit. Never waits on a set in flight:
    /// `None` means the caller must go through
    /// [`ArtifactStore::checkpoints`].
    pub(crate) fn cached_checkpoints(
        &self,
        scope: &PointScope,
    ) -> Option<Result<Arc<CheckpointSet>, FlowError>> {
        let hit = self.checkpoints.peek(&scope.checkpoints);
        hit.inspect(|set| self.charge_hit(CheckpointKey::METERS, false, set.is_err()))
    }

    /// A completed point outcome read at plan time by a sweep rung: a
    /// hit means a promoted (or resumed) configuration re-reads an
    /// earlier measurement instead of resimulating it.
    pub(crate) fn cached_point(&self, key: &PointKey) -> Option<PointOutcome> {
        self.points.peek(key).inspect(|_| self.count(|s| s.sweep_point_hits += 1))
    }

    /// A completed point outcome read at plan time by a campaign — the
    /// warm reuse [`ArtifactStore::singleflight_point`] would find, taken
    /// without a pool task and counted the same (`warm_store_hits`).
    pub(crate) fn warm_point(&self, key: &PointKey) -> Option<PointOutcome> {
        self.points.peek(key).inspect(|_| self.count(|s| s.warm_store_hits += 1))
    }

    /// Records an outcome computed outside the single-flight call (a
    /// batch lane or a replayed sweep record) into the point memo.
    pub(crate) fn record_point(&self, key: PointKey, outcome: &PointOutcome) {
        if self.points.insert(key, outcome.clone()) {
            self.count(|s| s.sweep_point_stored += 1);
        }
    }

    /// Runs one supervised point through the point memo's single flight:
    /// the first caller of `key` computes and stores the outcome,
    /// concurrent callers of an in-flight key block and share it
    /// (`inflight_dedup_hits`), and later callers reuse the completed
    /// slot (`warm_store_hits`).
    pub(crate) fn singleflight_point(
        &self,
        key: PointKey,
        compute: impl FnOnce() -> PointOutcome,
    ) -> PointOutcome {
        let (outcome, found) = self.points.get_or_compute(key, compute);
        self.count(|s| {
            *match found {
                Found::Ran => &mut s.sweep_point_stored,
                Found::Complete => &mut s.warm_store_hits,
                Found::InFlight => &mut s.inflight_dedup_hits,
            } += 1;
        });
        outcome
    }

    /// Snapshot of the per-stage counters and wall-clock totals.
    pub fn stats(&self) -> CacheStats {
        *lock(&self.stats)
    }
}

/// Serializes the planned points of a [`CheckpointSet`] (the profile and
/// analysis have their own disk entries and are re-attached on load).
fn encode_points(points: &Vec<PlannedPoint>, w: &mut ByteWriter) {
    w.put_usize(points.len());
    for p in points {
        w.put_usize(p.sel_idx);
        w.put_usize(p.interval);
        w.put_f64(p.weight);
        w.put_u64(p.interval_len);
        w.put_u64(p.warmup);
        p.checkpoint.encode(w);
    }
}

/// Decodes the planned points written by [`encode_points`], re-wrapping
/// each checkpoint in a fresh [`Arc`] for cross-thread sharing.
fn decode_points(r: &mut ByteReader<'_>) -> Result<Vec<PlannedPoint>, CodecError> {
    let n = r.seq_len(40)?;
    let mut points = Vec::with_capacity(n);
    for _ in 0..n {
        let sel_idx = r.usize()?;
        let interval = r.usize()?;
        let weight = r.f64()?;
        let interval_len = r.u64()?;
        let warmup = r.u64()?;
        let checkpoint = Arc::new(Checkpoint::decode(r)?);
        points.push(PlannedPoint { sel_idx, interval, weight, interval_len, warmup, checkpoint });
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rv_isa::codec::fnv1a;
    use rv_workloads::{by_name, Scale};
    use simpoint::SimPointConfig;

    fn quick_flow() -> FlowConfig {
        FlowConfig {
            simpoint: SimPointConfig { max_k: 4, restarts: 1, ..SimPointConfig::default() },
            warmup_insts: 500,
            ..FlowConfig::default()
        }
    }

    #[test]
    fn stages_compute_once_and_then_hit() {
        let store = ArtifactStore::new();
        let w = by_name("bitcount", Scale::Test).unwrap();
        let flow = quick_flow();
        let a = store.checkpoints(&w, &flow).unwrap();
        let b = store.checkpoints(&w, &flow).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup must share the artifact");
        let s = store.stats();
        assert_eq!(s.profile_computed, 1);
        assert_eq!(s.cluster_computed, 1);
        assert_eq!(s.checkpoint_computed, 1);
        assert_eq!(s.checkpoint_hits, 1);
        // Checkpoints are shared allocations, not clones.
        for p in &a.points {
            assert!(Arc::strong_count(&p.checkpoint) >= 1);
        }
    }

    #[test]
    fn distinct_warmups_share_profile_and_analysis() {
        let store = ArtifactStore::new();
        let w = by_name("bitcount", Scale::Test).unwrap();
        let f1 = quick_flow();
        let f2 = FlowConfig { warmup_insts: 100, ..quick_flow() };
        store.checkpoints(&w, &f1).unwrap();
        store.checkpoints(&w, &f2).unwrap();
        let s = store.stats();
        assert_eq!(s.profile_computed, 1, "warm-up must not invalidate the profile");
        assert_eq!(s.cluster_computed, 1, "warm-up must not invalidate the analysis");
        assert_eq!(s.checkpoint_computed, 2, "warm-up is part of the checkpoint key");
    }

    #[test]
    fn profiling_errors_are_cached_and_replayed() {
        use rv_isa::asm::Assembler;
        use rv_isa::reg::Reg::*;
        let mut a = Assembler::new();
        a.li(A0, 9);
        a.exit();
        let broken = Workload {
            name: "broken",
            suite: rv_workloads::Suite::MiBench,
            program: a.assemble().unwrap(),
            interval_size: 100,
        };
        let store = ArtifactStore::new();
        for _ in 0..2 {
            match store.profile(&broken, &quick_flow()) {
                Err(FlowError::SelfCheckFailed(9)) => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        let s = store.stats();
        assert_eq!(s.profile_computed, 1, "the failing profile must not be re-run");
        assert_eq!(s.profile_hits, 1);
    }

    #[test]
    fn singleflight_point_counts_inflight_and_warm_hits() {
        use crate::supervisor::{FailureKind, PointFailure};
        let store = Arc::new(ArtifactStore::new());
        let w = by_name("bitcount", Scale::Test).unwrap();
        let scope = ArtifactStore::point_scope(&w, &quick_flow());
        let key = PointKey { config: 7, scope, shift: 0, point: 0 };
        let outcome = |tag: &str| {
            Err(PointFailure {
                simpoint: 0,
                interval: 0,
                weight: 0.0,
                attempts: 1,
                kind: FailureKind::Panicked { message: tag.to_string() },
            })
        };
        // First caller holds the computation open until the second caller
        // has provably entered the lookup, so the second is guaranteed to
        // find the key in flight (not completed).
        let (entered_tx, entered_rx) = std::sync::mpsc::channel::<()>();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let first = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                store.singleflight_point(key, || {
                    entered_tx.send(()).expect("signal entry");
                    release_rx.recv().expect("await release");
                    outcome("first")
                })
            })
        };
        entered_rx.recv().expect("first caller entered compute");
        let second = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || store.singleflight_point(key, || outcome("second")))
        };
        // The second caller has looked up the slot (and decided "in
        // flight", since the first has not completed) exactly when the
        // slot's refcount reaches 3: map + first caller + second caller.
        // Only then is the first computation released.
        loop {
            let entered = lock(&store.points.slots)
                .get(&key)
                .is_some_and(|slot| Arc::strong_count(slot) >= 3);
            if entered {
                break;
            }
            std::thread::yield_now();
        }
        release_tx.send(()).expect("release first");
        let a = first.join().expect("first caller");
        let b = second.join().expect("second caller");
        // Single computation: both see the first caller's outcome.
        for r in [&a, &b] {
            match r {
                Err(f) => assert!(matches!(
                    &f.kind,
                    FailureKind::Panicked { message } if message == "first"
                )),
                Ok(_) => panic!("synthetic outcome must be a failure"),
            }
        }
        // Third lookup after completion: a warm-store hit.
        let c = store.singleflight_point(key, || outcome("third"));
        assert!(c.is_err());
        let s = store.stats();
        assert_eq!(s.inflight_dedup_hits, 1, "second caller blocked on the in-flight slot");
        assert_eq!(s.warm_store_hits, 1, "third caller reused the completed slot");
        assert_eq!(s.sweep_point_stored, 1, "only the first caller inserted");
        // A plan-time lookup reads the same slot; an insert of an
        // already-memoized key is a no-op.
        assert!(store.cached_point(&key).is_some());
        store.record_point(key, &outcome("fourth"));
        let s = store.stats();
        assert_eq!((s.sweep_point_hits, s.sweep_point_stored), (1, 1));
    }

    #[test]
    fn point_key_covers_every_outcome_input() {
        let w = by_name("bitcount", Scale::Test).unwrap();
        let fp = BoomConfig::medium().content_key();
        let key = |config, w: &Workload, shift, point| PointKey {
            config,
            scope: ArtifactStore::point_scope(w, &quick_flow()),
            shift,
            point,
        };
        let base = key(fp, &w, 0, 0);
        let longer = Workload { interval_size: w.interval_size + 1, ..w.clone() };
        let sha = by_name("sha", Scale::Test).unwrap();
        let large = BoomConfig::large().content_key();
        for (what, k) in [
            ("config", key(large, &w, 0, 0)),
            ("program", key(fp, &sha, 0, 0)),
            ("interval size", key(fp, &longer, 0, 0)),
            ("shift", key(fp, &w, 1, 0)),
            ("point index", key(fp, &w, 0, 1)),
        ] {
            assert_ne!(k, base, "perturbing the {what} must change the point key");
        }
        type Perturb = fn(&mut FlowConfig);
        let flow_key = |perturb: Perturb| {
            let mut flow = quick_flow();
            perturb(&mut flow);
            PointKey {
                config: fp,
                scope: ArtifactStore::point_scope(&w, &flow),
                shift: 0,
                point: 0,
            }
        };
        let perturbations: [(&str, Perturb); 18] = [
            ("max_profile_insts", |f| f.max_profile_insts += 1),
            ("simpoint.max_k", |f| f.simpoint.max_k += 1),
            ("simpoint.projected_dim", |f| f.simpoint.projected_dim += 1),
            ("simpoint.bic_threshold", |f| f.simpoint.bic_threshold += 0.01),
            ("simpoint.restarts", |f| f.simpoint.restarts += 1),
            ("simpoint.max_iters", |f| f.simpoint.max_iters += 1),
            ("simpoint.seed", |f| f.simpoint.seed += 1),
            ("simpoint.coverage", |f| f.simpoint.coverage -= 0.01),
            ("warm-up", |f| f.warmup_insts += 1),
            ("retry.max_attempts", |f| f.retry.max_attempts += 1),
            ("retry.warmup_perturb", |f| f.retry.warmup_perturb /= 2.0),
            ("retry.cycle_budget", |f| f.retry.cycle_budget = Some(1)),
            ("retry.budget_backoff", |f| f.retry.budget_backoff += 1.0),
            ("retry.wall_clock", |f| f.retry.wall_clock = Some(std::time::Duration::from_secs(1))),
            ("hang_point", |f| f.inject.hang_point = Some(0)),
            ("hang_every_point", |f| f.inject.hang_every_point = true),
            ("panic_point", |f| f.inject.panic_point = Some(0)),
            ("idle_skip", |f| f.idle_skip = !f.idle_skip),
        ];
        for (what, perturb) in perturbations {
            assert_ne!(flow_key(perturb), base, "perturbing {what} must change the point key");
        }
        // Kill-after only decides when the process dies, never what a
        // completed point contains.
        assert_eq!(flow_key(|f| f.inject.kill_after_points = Some(3)), base);
    }

    /// FNV-1a digest of each workload's encoded checkpoint set (the
    /// disk tier's payload, [`encode_points`]) at `Scale::Test` under the
    /// default flow, captured from the capture pass that re-ran every
    /// program from its entry. It pins both the disk format and the
    /// architectural state of every captured checkpoint.
    const GOLDEN_SETS: [(&str, u64); 11] = [
        ("Basicmath", 0xd2a6_987c_e37e_4b1c),
        ("Stringsearch", 0xbffb_ece8_2d52_5d77),
        ("FFT", 0xccbc_a774_0de0_4949),
        ("iFFT", 0x540e_df67_ea1e_60ad),
        ("Bitcount", 0xd01e_873a_7c08_a233),
        ("Qsort", 0x293c_84f2_68e7_59b2),
        ("Dijkstra", 0xb230_eee7_e280_4df9),
        ("Patricia", 0x4214_a1c3_3884_8e6d),
        ("Matmult", 0xb656_4e9a_4505_01ce),
        ("Sha", 0x9fbe_6c3a_5a48_4399),
        ("Tarfind", 0x5cf1_1396_5164_6d01),
    ];

    #[test]
    fn encoded_checkpoint_sets_match_golden_digests() {
        let flow = FlowConfig::default();
        let store = ArtifactStore::new();
        let workloads = rv_workloads::all(Scale::Test);
        let mut digests = Vec::new();
        for w in &workloads {
            let set = store.checkpoints(w, &flow).unwrap();
            let mut wr = ByteWriter::new();
            encode_points(&set.points, &mut wr);
            digests.push((w.name, fnv1a(&wr.into_bytes())));
        }
        assert_eq!(digests, GOLDEN_SETS.to_vec());
    }

    #[test]
    fn restarts_go_only_to_the_profiling_thread_and_never_outlive_capture() {
        let w = by_name("sha", Scale::Test).unwrap();
        let flow = quick_flow();
        let parked = |s: &ArtifactStore| lock(&s.restarts).len();
        let encoded = |set: &CheckpointSet| {
            let mut wr = ByteWriter::new();
            encode_points(&set.points, &mut wr);
            wr.into_bytes()
        };
        // This thread profiles, then captures: the capture takes the
        // parked restarts and nothing is left behind.
        let here = ArtifactStore::new();
        here.profile(&w, &flow).unwrap();
        assert_eq!(parked(&here), 1);
        let resumed = here.checkpoints(&w, &flow).unwrap();
        assert_eq!(parked(&here), 0, "capture drops the restarts it used");
        // This thread profiles and another captures: the restarts
        // stay parked for this thread, so the capture runs from the entry,
        // to the same bytes.
        let there = Arc::new(ArtifactStore::new());
        there.profile(&w, &flow).unwrap();
        let (store, wl, fl) = (Arc::clone(&there), w.clone(), flow.clone());
        let from_entry = std::thread::spawn(move || store.checkpoints(&wl, &fl))
            .join()
            .expect("capturing thread")
            .unwrap();
        assert_eq!(encoded(&resumed), encoded(&from_entry));
        assert_eq!(parked(&there), 1);
        // This thread's lookup finds the set complete and drops them.
        there.checkpoints(&w, &flow).unwrap();
        assert_eq!(parked(&there), 0);
        // A later profile replaces the restarts a thread parked, and a
        // capture takes only its own profile's: this one runs from the
        // entry, never from another program's CPUs.
        let other = by_name("bitcount", Scale::Test).unwrap();
        let mixed = ArtifactStore::new();
        mixed.profile(&w, &flow).unwrap();
        mixed.profile(&other, &flow).unwrap();
        assert_eq!(parked(&mixed), 1);
        assert_eq!(encoded(&mixed.checkpoints(&w, &flow).unwrap()), encoded(&resumed));
        assert_eq!(parked(&mixed), 1, "the other program's restarts stay parked");
    }

    /// Each stage's disk entry for Bitcount at `Scale::Test` under the
    /// default flow: (file name, the 64-bit key in the entry header). A
    /// key or name that moved would make every existing cache directory
    /// miss without any error.
    const DISK_IDENTITIES: [(&str, u64); 3] = [
        ("analysis-bbb7e712ee4ca2d4-2000-2000000000-11105bf16f0fdaaa.bfa", 0xc12c_a266_05ba_3efc),
        (
            "checkpoints-bbb7e712ee4ca2d4-2000-2000000000-11105bf16f0fdaaa-5000.bfa",
            0xf15b_242d_4199_dfd5,
        ),
        ("profile-bbb7e712ee4ca2d4-2000-2000000000.bfa", 0x23a2_202f_c1a2_0e45),
    ];

    #[test]
    fn disk_identities_of_every_stage_are_pinned() {
        let dir = std::env::temp_dir()
            .join(format!("boomflow-artifacts-identity-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::with_disk_cache(&dir).unwrap();
        let w = by_name("bitcount", Scale::Test).unwrap();
        store.checkpoints(&w, &FlowConfig::default()).unwrap();
        let mut entries: Vec<(String, u64)> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                let bytes = std::fs::read(e.path()).unwrap();
                // Header: magic (4), version (4), stage tag (1), key (8).
                let key = u64::from_le_bytes(bytes[9..17].try_into().unwrap());
                (e.file_name().into_string().unwrap(), key)
            })
            .collect();
        entries.sort();
        std::fs::remove_dir_all(&dir).unwrap();
        let pinned: Vec<(String, u64)> =
            DISK_IDENTITIES.iter().map(|&(n, k)| (n.to_string(), k)).collect();
        assert_eq!(entries, pinned);
    }

    #[test]
    fn full_run_baseline_is_cached_per_config() {
        let store = ArtifactStore::new();
        let w = by_name("bitcount", Scale::Test).unwrap();
        let medium = BoomConfig::medium();
        let a = store.full_run(&medium, &w).unwrap();
        let b = store.full_run(&medium, &w).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        store.full_run(&BoomConfig::large(), &w).unwrap();
        let s = store.stats();
        assert_eq!(s.full_run_computed, 2);
        assert_eq!(s.full_run_hits, 1);
    }
}
