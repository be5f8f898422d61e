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
//!   key plus [`SimPointConfig::cache_fingerprint`];
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
//! Every stage records compute/hit counters and wall-clock totals
//! ([`CacheStats`]), which the campaign scheduler surfaces through
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
use rv_isa::codec::{fnv1a, ByteReader, ByteWriter, Codec, CodecError};
use rv_workloads::Workload;
use simpoint::{analyze, SimPointAnalysis};
use std::collections::HashMap;
use std::hash::Hash;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::ThreadId;
use std::time::Instant;

/// Cache key of a profiling artifact.
type ProfileKey = (u64, u64, u64);
/// Cache key of a phase-analysis artifact.
type AnalysisKey = (ProfileKey, u64);
/// Cache key of a checkpoint-set artifact.
type CheckpointKey = (AnalysisKey, u64);
/// Cache key of a full-run baseline.
type FullRunKey = (u64, u64);

/// The workload-and-flow part of a [`PointKey`]: the checkpoint-set key
/// (program, interval size, profiling budget, SimPoint config, warm-up)
/// and the [`supervision_fingerprint`].
pub(crate) type PointScope = (CheckpointKey, u64);
/// Cache key of one memoized point outcome: (config record key, which
/// covers every field but the display name; [`PointScope`]; truncation
/// shift; point index) — every input that changes an outcome.
pub(crate) type PointKey = (u64, PointScope, u32, u32);

/// A compute-exactly-once slot: concurrent callers of the same key block
/// on the first computation and then share its result.
type Slot<T> = Arc<OnceLock<Result<T, FlowError>>>;

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

#[derive(Default)]
struct Counters {
    profile_computed: AtomicU64,
    profile_hits: AtomicU64,
    cluster_computed: AtomicU64,
    cluster_hits: AtomicU64,
    checkpoint_computed: AtomicU64,
    checkpoint_hits: AtomicU64,
    full_run_computed: AtomicU64,
    full_run_hits: AtomicU64,
    profile_us: AtomicU64,
    cluster_us: AtomicU64,
    checkpoint_us: AtomicU64,
    detailed_us: AtomicU64,
    full_run_us: AtomicU64,
    disk_hits: AtomicU64,
    disk_misses: AtomicU64,
    disk_writes: AtomicU64,
    disk_quarantined: AtomicU64,
    error_replays: AtomicU64,
    sweep_point_hits: AtomicU64,
    sweep_point_stored: AtomicU64,
    inflight_dedup_hits: AtomicU64,
    warm_store_hits: AtomicU64,
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
    profiles: Mutex<HashMap<ProfileKey, Slot<Arc<BbvProfile>>>>,
    analyses: Mutex<HashMap<AnalysisKey, Slot<Arc<SimPointAnalysis>>>>,
    checkpoints: Mutex<HashMap<CheckpointKey, Slot<Arc<CheckpointSet>>>>,
    full_runs: Mutex<HashMap<FullRunKey, Slot<Arc<FullRunResult>>>>,
    /// The point memo: one single-flight slot per [`PointKey`], shared
    /// by every campaign, sweep rung and request on the store.
    points: Mutex<HashMap<PointKey, Arc<OnceLock<PointOutcome>>>>,
    counters: Counters,
    /// Optional crash-safe disk tier behind the in-memory memo maps.
    disk: Option<DiskCache>,
    /// Restart points of the last profile each thread computed, until
    /// that thread's capture of the same profile takes them.
    restarts: Mutex<HashMap<ThreadId, (ProfileKey, RestartPoints)>>,
}

/// Fetches `key` from `map`, computing it exactly once across threads:
/// concurrent callers of an in-flight key block until the first
/// computation finishes and then share its (cloned) result.
///
/// `compute` additionally reports whether the fill was served by the
/// disk tier, so disk loads are counted as disk hits rather than
/// computations; in-memory replays of a cached *error* are tallied in
/// `error_replays` — the failure context stays attributed to the
/// original compute.
struct MemoMeters<'a> {
    /// Fresh (non-disk) computations of this stage.
    computed: &'a AtomicU64,
    /// Completed-slot cache hits.
    hits: &'a AtomicU64,
    /// Hits that replayed a cached *error*.
    error_replays: &'a AtomicU64,
    /// Hits that blocked on another caller's in-flight computation.
    inflight: &'a AtomicU64,
}

fn memoize<K, T>(
    map: &Mutex<HashMap<K, Slot<T>>>,
    key: K,
    meters: MemoMeters<'_>,
    compute: impl FnOnce() -> (Result<T, FlowError>, bool),
) -> Result<T, FlowError>
where
    K: Eq + Hash,
    T: Clone,
{
    let slot = lock(map).entry(key).or_default().clone();
    // Whether the slot was already complete *before* this lookup: a hit
    // on an incomplete slot means we blocked on another caller's
    // in-flight computation — single-flight dedup, not a plain cache hit.
    let pre_done = slot.get().is_some();
    let mut ran = false;
    let mut from_disk = false;
    let result = slot.get_or_init(|| {
        ran = true;
        let (r, disk) = compute();
        from_disk = disk;
        r
    });
    if ran {
        if !from_disk {
            meters.computed.fetch_add(1, Ordering::Relaxed);
        }
    } else {
        meters.hits.fetch_add(1, Ordering::Relaxed);
        if !pre_done {
            meters.inflight.fetch_add(1, Ordering::Relaxed);
        }
        if result.is_err() {
            meters.error_replays.fetch_add(1, Ordering::Relaxed);
        }
    }
    result.clone()
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

    fn profile_key(workload: &Workload, flow: &FlowConfig) -> ProfileKey {
        (workload.program.fingerprint(), workload.interval_size, flow.max_profile_insts)
    }

    fn analysis_key(workload: &Workload, flow: &FlowConfig) -> AnalysisKey {
        (Self::profile_key(workload, flow), flow.simpoint.cache_fingerprint())
    }

    fn checkpoint_key(workload: &Workload, flow: &FlowConfig) -> CheckpointKey {
        (Self::analysis_key(workload, flow), flow.warmup_insts)
    }

    /// Runs a stage fill through the disk tier: validated disk entries
    /// short-circuit the compute, anything else (miss, quarantine, or an
    /// undecodable payload) recomputes and persists the result. The bool
    /// reports whether the value came from disk. Stage *errors* are never
    /// persisted — only successful artifacts are worth replaying across
    /// processes. The fill's wall-clock is charged to `stage`.
    fn with_disk<T>(
        &self,
        stage: CacheStage,
        key: u64,
        name: &str,
        decode: impl FnOnce(&[u8]) -> Result<T, CodecError>,
        encode: impl FnOnce(&T) -> Vec<u8>,
        compute: impl FnOnce() -> Result<T, FlowError>,
    ) -> (Result<T, FlowError>, bool) {
        let c = &self.counters;
        let spent_us = match stage {
            CacheStage::Profile => &c.profile_us,
            CacheStage::Analysis => &c.cluster_us,
            CacheStage::Checkpoints => &c.checkpoint_us,
        };
        let t0 = Instant::now();
        let fill = 'fill: {
            let Some(disk) = &self.disk else {
                break 'fill (compute(), false);
            };
            match disk.load(stage, key, name) {
                DiskLookup::Hit(bytes) => match decode(&bytes) {
                    Ok(t) => {
                        c.disk_hits.fetch_add(1, Ordering::Relaxed);
                        break 'fill (Ok(t), true);
                    }
                    Err(_) => {
                        // Checksum passed but the payload does not decode
                        // (format drift): quarantine like any corruption.
                        disk.quarantine_entry(stage, name);
                        c.disk_quarantined.fetch_add(1, Ordering::Relaxed);
                    }
                },
                DiskLookup::Miss => {
                    c.disk_misses.fetch_add(1, Ordering::Relaxed);
                }
                DiskLookup::Quarantined => {
                    c.disk_quarantined.fetch_add(1, Ordering::Relaxed);
                }
            }
            let result = compute();
            if let Ok(t) = &result {
                if disk.store(stage, key, name, &encode(t)).is_ok() {
                    c.disk_writes.fetch_add(1, Ordering::Relaxed);
                }
            }
            (result, false)
        };
        spent_us.fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
        fill
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
        let c = &self.counters;
        let key = Self::profile_key(workload, flow);
        memoize(
            &self.profiles,
            key,
            MemoMeters {
                computed: &c.profile_computed,
                hits: &c.profile_hits,
                error_replays: &c.error_replays,
                inflight: &c.inflight_dedup_hits,
            },
            || {
                self.with_disk(
                    CacheStage::Profile,
                    hash_words(&[key.0, key.1, key.2]),
                    &format!("{:016x}-{}-{}", key.0, key.1, key.2),
                    |bytes| {
                        let mut r = ByteReader::new(bytes);
                        let p = BbvProfile::decode(&mut r)?;
                        r.finish()?;
                        Ok(Arc::new(p))
                    },
                    |p| {
                        let mut w = ByteWriter::new();
                        p.encode(&mut w);
                        w.into_bytes()
                    },
                    || {
                        let (p, restarts) = crate::flow::profile(workload, flow.max_profile_insts)?;
                        let parked = (key, restarts);
                        lock(&self.restarts).insert(std::thread::current().id(), parked);
                        Ok(Arc::new(p))
                    },
                )
            },
        )
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
        let c = &self.counters;
        let key = Self::analysis_key(workload, flow);
        memoize(
            &self.analyses,
            key,
            MemoMeters {
                computed: &c.cluster_computed,
                hits: &c.cluster_hits,
                error_replays: &c.error_replays,
                inflight: &c.inflight_dedup_hits,
            },
            || {
                self.with_disk(
                    CacheStage::Analysis,
                    hash_words(&[key.0 .0, key.0 .1, key.0 .2, key.1]),
                    &format!("{:016x}-{}-{}-{:016x}", key.0 .0, key.0 .1, key.0 .2, key.1),
                    |bytes| {
                        let mut r = ByteReader::new(bytes);
                        let a = SimPointAnalysis::decode(&mut r)?;
                        r.finish()?;
                        Ok(Arc::new(a))
                    },
                    |a| {
                        let mut w = ByteWriter::new();
                        a.encode(&mut w);
                        w.into_bytes()
                    },
                    || {
                        let bbv = self.profile(workload, flow)?;
                        Ok(Arc::new(analyze(&bbv, &flow.simpoint)))
                    },
                )
            },
        )
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
        let c = &self.counters;
        let key = Self::checkpoint_key(workload, flow);
        let set = memoize(
            &self.checkpoints,
            key,
            MemoMeters {
                computed: &c.checkpoint_computed,
                hits: &c.checkpoint_hits,
                error_replays: &c.error_replays,
                inflight: &c.inflight_dedup_hits,
            },
            || {
                // Both the disk-decode and the compute path need the
                // (cached) front stages: the set embeds them, and the
                // disk entry stores only the planned points.
                let profile = match self.profile(workload, flow) {
                    Ok(p) => p,
                    Err(e) => return (Err(e), false),
                };
                let analysis = match self.analysis(workload, flow) {
                    Ok(a) => a,
                    Err(e) => return (Err(e), false),
                };
                let restarts = self.take_restarts(&key.0 .0);
                let (dec_profile, dec_analysis) = (profile.clone(), analysis.clone());
                let ((pk, ik, bk), sk) = key.0;
                self.with_disk(
                    CacheStage::Checkpoints,
                    hash_words(&[pk, ik, bk, sk, key.1]),
                    &format!("{pk:016x}-{ik}-{bk}-{sk:016x}-{}", key.1),
                    move |bytes| {
                        let mut r = ByteReader::new(bytes);
                        let points = decode_points(&mut r)?;
                        r.finish()?;
                        Ok(Arc::new(CheckpointSet {
                            profile: dec_profile,
                            analysis: dec_analysis,
                            points,
                        }))
                    },
                    |set| {
                        let mut w = ByteWriter::new();
                        encode_points(&mut w, &set.points);
                        w.into_bytes()
                    },
                    move || {
                        let starts = analysis.selected_starts(&profile);
                        // Capture at (interval start − warm-up), batched
                        // in one pass; the capture cursor only moves
                        // forward, so sort by position. This order is
                        // also the flow's point order.
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
                        let restarts =
                            restarts.unwrap_or_else(|| RestartPoints::entry(&workload.program));
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
                        Ok(Arc::new(CheckpointSet { profile, analysis, points }))
                    },
                )
            },
        );
        // A set found complete leaves any restarts this thread parked for
        // it unused; they are dropped here, never kept for later.
        self.take_restarts(&key.0 .0);
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
        let c = &self.counters;
        let key = (cfg.content_key(), workload.program.fingerprint());
        memoize(
            &self.full_runs,
            key,
            MemoMeters {
                computed: &c.full_run_computed,
                hits: &c.full_run_hits,
                error_replays: &c.error_replays,
                inflight: &c.inflight_dedup_hits,
            },
            || {
                let t0 = Instant::now();
                let r = run_full(cfg, workload).map(Arc::new);
                c.full_run_us.fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
                (r, false)
            },
        )
    }

    /// Adds detailed-simulation wall-clock (one point's attempt span) to
    /// the stage accounting.
    pub(crate) fn charge_detailed_us(&self, us: u64) {
        self.counters.detailed_us.fetch_add(us, Ordering::Relaxed);
    }

    /// The [`PointScope`] of `workload` under `flow`. The program
    /// fingerprint hashes the whole image, so runs compute this once per
    /// workload, not per point.
    pub(crate) fn point_scope(workload: &Workload, flow: &FlowConfig) -> PointScope {
        (Self::checkpoint_key(workload, flow), supervision_fingerprint(flow))
    }

    /// The checkpoint set of `scope`'s workload when it is already
    /// complete in the store, counted as [`ArtifactStore::checkpoints`]
    /// counts a completed-slot hit (plus `error_replays` for a cached
    /// error). Never waits on a set in flight: `None` means the caller
    /// must go through [`ArtifactStore::checkpoints`].
    pub(crate) fn cached_checkpoints(
        &self,
        scope: &PointScope,
    ) -> Option<Result<Arc<CheckpointSet>, FlowError>> {
        let hit = lock(&self.checkpoints).get(&scope.0).and_then(|slot| slot.get().cloned())?;
        let c = &self.counters;
        c.checkpoint_hits.fetch_add(1, Ordering::Relaxed);
        if hit.is_err() {
            c.error_replays.fetch_add(1, Ordering::Relaxed);
        }
        Some(hit)
    }

    /// Looks up a completed point outcome without waiting on one in
    /// flight, charging a hit to `hits`.
    fn completed_point(&self, key: &PointKey, hits: &AtomicU64) -> Option<PointOutcome> {
        let hit = lock(&self.points).get(key).and_then(|slot| slot.get().cloned());
        if hit.is_some() {
            hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// A completed point outcome read at plan time by a sweep rung: a
    /// hit means a promoted (or resumed) configuration re-reads an
    /// earlier measurement instead of resimulating it.
    pub(crate) fn cached_point(&self, key: &PointKey) -> Option<PointOutcome> {
        self.completed_point(key, &self.counters.sweep_point_hits)
    }

    /// A completed point outcome read at plan time by a campaign — the
    /// warm reuse [`ArtifactStore::singleflight_point`] would find, taken
    /// without a pool task and counted the same (`warm_store_hits`).
    pub(crate) fn warm_point(&self, key: &PointKey) -> Option<PointOutcome> {
        self.completed_point(key, &self.counters.warm_store_hits)
    }

    /// Records an outcome computed outside the single-flight call (a
    /// batch lane or a replayed sweep record) into the point memo.
    pub(crate) fn record_point(&self, key: PointKey, outcome: &PointOutcome) {
        let slot = lock(&self.points).entry(key).or_default().clone();
        if slot.set(outcome.clone()).is_ok() {
            self.counters.sweep_point_stored.fetch_add(1, Ordering::Relaxed);
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
        // The completion check happens under the map lock so "found it in
        // flight" is decided atomically with the slot lookup (observable
        // and testable without timing races).
        let (slot, pre_done) = {
            let mut g = lock(&self.points);
            let slot = g.entry(key).or_default().clone();
            let pre_done = slot.get().is_some();
            (slot, pre_done)
        };
        let mut ran = false;
        let result = slot.get_or_init(|| {
            ran = true;
            compute()
        });
        let c = &self.counters;
        let counter = match (ran, pre_done) {
            (true, _) => &c.sweep_point_stored,
            (false, true) => &c.warm_store_hits,
            (false, false) => &c.inflight_dedup_hits,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        result.clone()
    }

    /// Snapshot of the per-stage counters and wall-clock totals.
    pub fn stats(&self) -> CacheStats {
        let c = &self.counters;
        let ms = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64 / 1000.0;
        CacheStats {
            profile_computed: c.profile_computed.load(Ordering::Relaxed),
            profile_hits: c.profile_hits.load(Ordering::Relaxed),
            cluster_computed: c.cluster_computed.load(Ordering::Relaxed),
            cluster_hits: c.cluster_hits.load(Ordering::Relaxed),
            checkpoint_computed: c.checkpoint_computed.load(Ordering::Relaxed),
            checkpoint_hits: c.checkpoint_hits.load(Ordering::Relaxed),
            full_run_computed: c.full_run_computed.load(Ordering::Relaxed),
            full_run_hits: c.full_run_hits.load(Ordering::Relaxed),
            profile_ms: ms(&c.profile_us),
            cluster_ms: ms(&c.cluster_us),
            checkpoint_ms: ms(&c.checkpoint_us),
            detailed_ms: ms(&c.detailed_us),
            full_run_ms: ms(&c.full_run_us),
            disk_hits: c.disk_hits.load(Ordering::Relaxed),
            disk_misses: c.disk_misses.load(Ordering::Relaxed),
            disk_writes: c.disk_writes.load(Ordering::Relaxed),
            disk_quarantined: c.disk_quarantined.load(Ordering::Relaxed),
            error_replays: c.error_replays.load(Ordering::Relaxed),
            sweep_point_hits: c.sweep_point_hits.load(Ordering::Relaxed),
            sweep_point_stored: c.sweep_point_stored.load(Ordering::Relaxed),
            inflight_dedup_hits: c.inflight_dedup_hits.load(Ordering::Relaxed),
            warm_store_hits: c.warm_store_hits.load(Ordering::Relaxed),
        }
    }
}

/// FNV-1a over a word sequence — the disk-cache key hash of a composite
/// in-memory key.
fn hash_words(words: &[u64]) -> u64 {
    let mut bytes = Vec::with_capacity(words.len() * 8);
    for w in words {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    fnv1a(&bytes)
}

/// Serializes the planned points of a [`CheckpointSet`] (the profile and
/// analysis have their own disk entries and are re-attached on load).
fn encode_points(w: &mut ByteWriter, points: &[PlannedPoint]) {
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
        let key = (7, ArtifactStore::point_scope(&w, &quick_flow()), 0, 0);
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
            let entered =
                lock(&store.points).get(&key).is_some_and(|slot| Arc::strong_count(slot) >= 3);
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
        let key = |cfg_fp, w: &Workload, shift, p_idx: u32| {
            (cfg_fp, ArtifactStore::point_scope(w, &quick_flow()), shift, p_idx)
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
            (fp, ArtifactStore::point_scope(&w, &flow), 0, 0)
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
            encode_points(&mut wr, &set.points);
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
            encode_points(&mut wr, &set.points);
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
