//! Write-ahead campaign journal for crash-safe, resumable campaigns.
//!
//! [`run_campaign`](crate::scheduler) records every completed
//! `(cell, point)` outcome — success *or* quarantined failure — as one
//! appended journal record. If the campaign process dies (crash, OOM
//! kill, `--inject-kill-after`), a restart with `--resume` replays the
//! finished points from the journal and only simulates the remainder,
//! producing a [`CampaignReport`](crate::supervisor::CampaignReport)
//! bit-identical to an uninterrupted run.
//!
//! ## On-disk format
//!
//! ```text
//! header:  magic "BFJL" | version u32 | campaign fingerprint u64
//! record:  payload len u32 | payload | fnv1a-64(payload)
//! payload: cell index u64 | point index u64 | encoded PointOutcome
//! ```
//!
//! Campaigns and sweeps address records alike: cell `cfg_idx · w + w_idx`
//! over the admitted configurations (co-run cells last), point
//! `shift << 24 | p_idx` — a campaign's records are the shift-0 case.
//!
//! All integers are little-endian. Records are appended with a single
//! `write_all`; a crash mid-append leaves a *torn tail* that fails the
//! length or checksum check on resume, at which point the journal is
//! truncated back to its last valid record and the campaign recomputes
//! the lost points. A journal can therefore never replay a wrong
//! outcome — the worst corruption can do is cost recomputation.
//!
//! The header's campaign fingerprint ([`campaign_fingerprint`]) covers
//! everything that determines point outcomes: the configuration matrix,
//! the workloads (program fingerprints and interval sizes), and the
//! [`FlowConfig`] knobs. It deliberately *excludes* scheduling and
//! fault-injection knobs (`--jobs`, disk I/O faults, kill-after) so a
//! journal written by a killed injection run resumes cleanly into a
//! clean run. Resuming against a journal whose fingerprint differs is
//! refused ([`JournalError::FingerprintMismatch`]) rather than silently
//! replaying stale results.

use crate::artifacts::config_fingerprint;
use crate::flow::{FlowConfig, PointOutcome, PointResult};
use crate::supervisor::{FailureKind, PointFailure};
use crate::sync::lock;
use boom_uarch::rob::UopState;
use boom_uarch::stats::{
    CacheStats, IssueQueueStats, MemSysStats, PredictorStats, RenameStats, Stats,
};
use boom_uarch::watchdog::{
    IssueQueueView, LsuView, MshrView, OldestEntryView, RobHeadView, WatchdogSnapshot,
};
use boom_uarch::BoomConfig;
use rtl_power::{Component, PowerBreakdown, PowerReport};
use rv_isa::codec::{fnv1a, ByteReader, ByteWriter, CodecError};
use rv_workloads::Workload;
use std::collections::HashMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

const MAGIC: &[u8; 4] = b"BFJL";
/// Version 2: stats records carry the memory-system (L2/DRAM) counters
/// and watchdog snapshots carry L2 MSHRs. Version-1 journals are
/// rejected on resume (the campaign restarts from scratch) rather than
/// misdecoded.
const VERSION: u32 = 2;
/// magic + version + campaign fingerprint.
const HEADER_LEN: usize = 4 + 4 + 8;

/// Why a journal could not be created or resumed.
#[derive(Debug)]
pub enum JournalError {
    /// The underlying file operation failed.
    Io(std::io::Error),
    /// The file exists but is not a journal (bad magic, bad version, or
    /// shorter than a header).
    BadHeader,
    /// The journal was written by a campaign with different
    /// configurations, workloads, or flow parameters.
    FingerprintMismatch {
        /// Fingerprint of the campaign being resumed.
        expected: u64,
        /// Fingerprint recorded in the journal header.
        found: u64,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::BadHeader => write!(f, "not a campaign journal (bad header)"),
            JournalError::FingerprintMismatch { expected, found } => write!(
                f,
                "journal belongs to a different campaign \
                 (expected fingerprint {expected:016x}, found {found:016x})"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> JournalError {
        JournalError::Io(e)
    }
}

/// Outcomes recovered from a journal, keyed by the decoded record
/// address `(cell, shift, point)` (see the module docs).
#[derive(Debug, Default)]
pub struct JournalReplay {
    pub(crate) outcomes: HashMap<(usize, u32, usize), PointOutcome>,
}

impl JournalReplay {
    /// Number of completed points recovered from the journal.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// Whether the journal held no completed points.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }
}

/// Low bits of a record's point index holding the SimPoint index.
const POINT_BITS: u32 = 24;

/// An append-only write-ahead log of completed campaign points.
///
/// Cloneable across scheduler workers via `Arc`; appends serialize on
/// an internal poison-recovering mutex.
#[derive(Debug)]
pub struct CampaignJournal {
    path: PathBuf,
    file: Mutex<File>,
}

impl CampaignJournal {
    /// Starts a fresh journal at `path` (truncating any existing file)
    /// for the campaign identified by `fingerprint`.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] if the file cannot be created or
    /// the header cannot be written.
    pub fn create(path: &Path, fingerprint: u64) -> Result<CampaignJournal, JournalError> {
        let mut file = File::create(path)?;
        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(&VERSION.to_le_bytes());
        header.extend_from_slice(&fingerprint.to_le_bytes());
        file.write_all(&header)?;
        file.sync_all()?;
        Ok(CampaignJournal { path: path.to_path_buf(), file: Mutex::new(file) })
    }

    /// Reopens the journal at `path`, replaying every valid record and
    /// truncating a torn tail left by a crash mid-append.
    ///
    /// Returns the journal (positioned to append after the last valid
    /// record) together with the recovered outcomes.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::BadHeader`] if the file is not a
    /// journal, [`JournalError::FingerprintMismatch`] if it belongs to
    /// a different campaign, and [`JournalError::Io`] on read/reopen
    /// failures.
    pub fn resume(
        path: &Path,
        fingerprint: u64,
    ) -> Result<(CampaignJournal, JournalReplay), JournalError> {
        let bytes = std::fs::read(path)?;
        if bytes.len() < HEADER_LEN || &bytes[..4] != MAGIC {
            return Err(JournalError::BadHeader);
        }
        let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        if version != VERSION {
            return Err(JournalError::BadHeader);
        }
        let mut fp = [0u8; 8];
        fp.copy_from_slice(&bytes[8..16]);
        let found = u64::from_le_bytes(fp);
        if found != fingerprint {
            return Err(JournalError::FingerprintMismatch { expected: fingerprint, found });
        }

        let mut replay = JournalReplay::default();
        let mut pos = HEADER_LEN;
        // A record that is incomplete, fails its checksum, or does not
        // decode marks the torn tail: everything before `pos` is
        // durable, everything after is discarded.
        while let Some(end) = scan_record(&bytes, pos, &mut replay) {
            pos = end;
        }

        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(pos as u64)?;
        file.seek(SeekFrom::End(0))?;
        Ok((CampaignJournal { path: path.to_path_buf(), file: Mutex::new(file) }, replay))
    }

    /// Path of the journal file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends the outcome of SimPoint `p_idx` at truncation `shift` of
    /// `cell` under the shared record address (see the module docs).
    pub(crate) fn append_point(&self, cell: usize, shift: u32, p_idx: usize, o: &PointOutcome) {
        self.append(cell, ((shift as usize) << POINT_BITS) | p_idx, o);
    }

    /// Appends one completed point. Best-effort: an I/O failure here
    /// only means the point is recomputed after a crash, so it is
    /// swallowed rather than aborting the campaign.
    pub fn append(&self, c_idx: usize, p_idx: usize, outcome: &PointOutcome) {
        let payload = encode_record(c_idx, p_idx, outcome);
        let mut framed = Vec::with_capacity(4 + payload.len() + 8);
        framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        framed.extend_from_slice(&payload);
        framed.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        // One write_all per record: a crash can tear the tail record
        // (caught by the checksum on resume) but never interleave two.
        let _ = lock(&self.file).write_all(&framed);
    }
}

/// Parses the record starting at `pos`, adding it to `replay`. Returns
/// the offset just past the record, or `None` at the torn tail / EOF.
fn scan_record(bytes: &[u8], pos: usize, replay: &mut JournalReplay) -> Option<usize> {
    let len_end = pos.checked_add(4)?;
    if len_end > bytes.len() {
        return None;
    }
    let mut len4 = [0u8; 4];
    len4.copy_from_slice(&bytes[pos..len_end]);
    let len = u32::from_le_bytes(len4) as usize;
    let payload_end = len_end.checked_add(len)?;
    let rec_end = payload_end.checked_add(8)?;
    if rec_end > bytes.len() {
        return None;
    }
    let payload = &bytes[len_end..payload_end];
    let mut sum = [0u8; 8];
    sum.copy_from_slice(&bytes[payload_end..rec_end]);
    if fnv1a(payload) != u64::from_le_bytes(sum) {
        return None;
    }
    let (cell, index, outcome) = decode_record(payload).ok()?;
    let (shift, p_idx) = ((index >> POINT_BITS) as u32, index & ((1 << POINT_BITS) - 1));
    replay.outcomes.insert((cell, shift, p_idx), outcome);
    Some(rec_end)
}

/// Fingerprint of everything that determines campaign point outcomes:
/// the configuration matrix, the workloads, and the flow parameters.
///
/// Scheduling and fault-injection knobs that do not change outcomes
/// (`--jobs`, disk-cache I/O faults, `--inject-kill-after`) are
/// deliberately excluded so a journal written under injection resumes
/// into a clean run.
pub fn campaign_fingerprint(cfgs: &[BoomConfig], workloads: &[Workload], flow: &FlowConfig) -> u64 {
    campaign_fingerprint_with(cfgs, workloads, flow, &[])
}

/// [`campaign_fingerprint`] for campaigns that also schedule dual-core
/// co-run cells (pairs of workload indices sharing an L2). The co-run
/// schedule shifts cell indices, so it must be part of the identity a
/// journal resumes against.
pub fn campaign_fingerprint_with(
    cfgs: &[BoomConfig],
    workloads: &[Workload],
    flow: &FlowConfig,
    co_runs: &[(usize, usize)],
) -> u64 {
    let mut w = ByteWriter::new();
    w.put_usize(cfgs.len());
    for cfg in cfgs {
        w.put_u64(config_fingerprint(cfg));
    }
    w.put_usize(workloads.len());
    for wl in workloads {
        w.put_str(wl.name);
        w.put_u64(wl.program.fingerprint());
        w.put_u64(wl.interval_size);
    }
    w.put_u64(flow.simpoint.cache_fingerprint());
    w.put_u64(flow.warmup_insts);
    w.put_u64(flow.max_profile_insts);
    w.put_u32(flow.retry.max_attempts);
    w.put_f64(flow.retry.warmup_perturb);
    put_opt_u64(&mut w, flow.retry.cycle_budget);
    w.put_f64(flow.retry.budget_backoff);
    put_opt_u64(&mut w, flow.retry.wall_clock.map(|d| d.as_millis() as u64));
    put_opt_u64(&mut w, flow.inject.hang_point.map(|p| p as u64));
    w.put_bool(flow.inject.hang_every_point);
    put_opt_u64(&mut w, flow.inject.panic_point.map(|p| p as u64));
    // Single-core campaigns hash exactly as before version 2: the co-run
    // block is appended only when present.
    if !co_runs.is_empty() {
        w.put_usize(co_runs.len());
        for &(a, b) in co_runs {
            w.put_usize(a);
            w.put_usize(b);
        }
    }
    fnv1a(&w.into_bytes())
}

/// Fingerprint of everything that determines *sweep* point outcomes and
/// record indices: the admitted (deduplicated) configurations, the
/// workloads, the flow parameters, the rung schedule (point budget and
/// interval-truncation shift per rung), and the ε-band with its per-rung
/// decay. A sweep journal
/// hashes differently from a campaign journal over the same matrix —
/// their record index spaces differ — so neither can replay the other.
///
/// Like [`campaign_fingerprint`], scheduling and fault-injection knobs
/// (`--jobs`, `--batch-lanes`, kill-after, disk faults) are excluded:
/// they never change outcomes, only wall-clock.
pub fn sweep_fingerprint(
    cfgs: &[BoomConfig],
    workloads: &[Workload],
    flow: &FlowConfig,
    rungs: &[(usize, u32)],
    epsilon: f64,
    epsilon_decay: f64,
) -> u64 {
    let mut w = ByteWriter::new();
    w.put_str("sweep");
    w.put_u64(campaign_fingerprint(cfgs, workloads, flow));
    w.put_usize(rungs.len());
    for &(points, shift) in rungs {
        w.put_usize(points);
        w.put_u32(shift);
    }
    w.put_f64(epsilon);
    w.put_f64(epsilon_decay);
    fnv1a(&w.into_bytes())
}

// ---------------------------------------------------------------------
// Record payload codec.
// ---------------------------------------------------------------------

fn put_opt_u64(w: &mut ByteWriter, v: Option<u64>) {
    match v {
        None => w.put_bool(false),
        Some(x) => {
            w.put_bool(true);
            w.put_u64(x);
        }
    }
}

fn take_opt_u64(r: &mut ByteReader<'_>) -> Result<Option<u64>, CodecError> {
    Ok(if r.bool()? { Some(r.u64()?) } else { None })
}

fn encode_record(c_idx: usize, p_idx: usize, outcome: &PointOutcome) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_usize(c_idx);
    w.put_usize(p_idx);
    encode_outcome(&mut w, outcome);
    w.into_bytes()
}

fn decode_record(payload: &[u8]) -> Result<(usize, usize, PointOutcome), CodecError> {
    let mut r = ByteReader::new(payload);
    let c_idx = r.usize()?;
    let p_idx = r.usize()?;
    let outcome = decode_outcome(&mut r)?;
    r.finish()?;
    Ok((c_idx, p_idx, outcome))
}

fn encode_outcome(w: &mut ByteWriter, outcome: &PointOutcome) {
    match outcome {
        Ok((result, attempts)) => {
            w.put_u8(0);
            w.put_u32(*attempts);
            encode_point_result(w, result);
        }
        Err(failure) => {
            w.put_u8(1);
            encode_point_failure(w, failure);
        }
    }
}

fn decode_outcome(r: &mut ByteReader<'_>) -> Result<PointOutcome, CodecError> {
    match r.u8()? {
        0 => {
            let attempts = r.u32()?;
            Ok(Ok((decode_point_result(r)?, attempts)))
        }
        1 => Ok(Err(decode_point_failure(r)?)),
        _ => Err(CodecError::Invalid("outcome tag")),
    }
}

fn encode_point_result(w: &mut ByteWriter, p: &PointResult) {
    w.put_usize(p.interval);
    w.put_f64(p.weight);
    w.put_f64(p.ipc);
    encode_power(w, &p.power);
    encode_stats(w, &p.stats);
}

fn decode_point_result(r: &mut ByteReader<'_>) -> Result<PointResult, CodecError> {
    Ok(PointResult {
        interval: r.usize()?,
        weight: r.f64()?,
        ipc: r.f64()?,
        power: decode_power(r)?,
        stats: decode_stats(r)?,
    })
}

fn encode_power(w: &mut ByteWriter, p: &PowerReport) {
    let entries: Vec<&(Component, PowerBreakdown)> = p.iter().collect();
    w.put_usize(entries.len());
    for (c, b) in entries {
        // `u8::MAX` can never match a real slot on decode, so an
        // unknown component (impossible today) fails validation there
        // instead of silently aliasing another component.
        let tag = Component::ALL.iter().position(|x| x == c).map_or(u8::MAX, |i| i as u8);
        w.put_u8(tag);
        w.put_f64(b.leakage_mw);
        w.put_f64(b.internal_mw);
        w.put_f64(b.switching_mw);
    }
    w.put_usize(p.int_issue_slot_mw.len());
    for &mw in &p.int_issue_slot_mw {
        w.put_f64(mw);
    }
}

fn decode_power(r: &mut ByteReader<'_>) -> Result<PowerReport, CodecError> {
    let n = r.seq_len(25)?;
    let mut entries = Vec::with_capacity(n);
    let mut seen = [false; Component::ALL.len()];
    for _ in 0..n {
        let tag = r.u8()? as usize;
        let c = *Component::ALL.get(tag).ok_or(CodecError::Invalid("component tag"))?;
        // `PowerReport::new` panics on duplicates; corrupt input must
        // surface as a decode error instead.
        if std::mem::replace(&mut seen[tag], true) {
            return Err(CodecError::Invalid("duplicate component"));
        }
        let b =
            PowerBreakdown { leakage_mw: r.f64()?, internal_mw: r.f64()?, switching_mw: r.f64()? };
        entries.push((c, b));
    }
    let slots = r.seq_len(8)?;
    let mut int_issue_slot_mw = Vec::with_capacity(slots);
    for _ in 0..slots {
        int_issue_slot_mw.push(r.f64()?);
    }
    Ok(PowerReport::new(entries, int_issue_slot_mw))
}

fn encode_cache_stats(w: &mut ByteWriter, s: &CacheStats) {
    w.put_u64(s.reads);
    w.put_u64(s.writes);
    w.put_u64(s.misses);
    w.put_u64(s.mshr_allocs);
    w.put_u64(s.mshr_occupancy_sum);
    w.put_u64(s.writebacks);
}

fn decode_cache_stats(r: &mut ByteReader<'_>) -> Result<CacheStats, CodecError> {
    Ok(CacheStats {
        reads: r.u64()?,
        writes: r.u64()?,
        misses: r.u64()?,
        mshr_allocs: r.u64()?,
        mshr_occupancy_sum: r.u64()?,
        writebacks: r.u64()?,
    })
}

fn encode_predictor_stats(w: &mut ByteWriter, s: &PredictorStats) {
    w.put_u64(s.lookups);
    w.put_u64(s.table_reads);
    w.put_u64(s.updates);
    w.put_u64(s.allocations);
    w.put_u64(s.btb_lookups);
    w.put_u64(s.btb_updates);
    w.put_u64(s.ras_pushes);
    w.put_u64(s.ras_pops);
}

fn decode_predictor_stats(r: &mut ByteReader<'_>) -> Result<PredictorStats, CodecError> {
    Ok(PredictorStats {
        lookups: r.u64()?,
        table_reads: r.u64()?,
        updates: r.u64()?,
        allocations: r.u64()?,
        btb_lookups: r.u64()?,
        btb_updates: r.u64()?,
        ras_pushes: r.u64()?,
        ras_pops: r.u64()?,
    })
}

fn encode_rename_stats(w: &mut ByteWriter, s: &RenameStats) {
    w.put_u64(s.map_writes);
    w.put_u64(s.map_reads);
    w.put_u64(s.freelist_pops);
    w.put_u64(s.freelist_pushes);
    w.put_u64(s.snapshot_writes);
}

fn decode_rename_stats(r: &mut ByteReader<'_>) -> Result<RenameStats, CodecError> {
    Ok(RenameStats {
        map_writes: r.u64()?,
        map_reads: r.u64()?,
        freelist_pops: r.u64()?,
        freelist_pushes: r.u64()?,
        snapshot_writes: r.u64()?,
    })
}

fn encode_iq_stats(w: &mut ByteWriter, s: &IssueQueueStats) {
    w.put_u64(s.writes);
    w.put_u64(s.collapse_writes);
    w.put_u64(s.issued);
    w.put_u64(s.wakeup_cam_matches);
    w.put_u64(s.occupancy_sum);
    w.put_usize(s.slot_occupancy.len());
    for &v in &s.slot_occupancy {
        w.put_u64(v);
    }
    w.put_usize(s.slot_writes.len());
    for &v in &s.slot_writes {
        w.put_u64(v);
    }
}

fn decode_iq_stats(r: &mut ByteReader<'_>) -> Result<IssueQueueStats, CodecError> {
    let mut s = IssueQueueStats {
        writes: r.u64()?,
        collapse_writes: r.u64()?,
        issued: r.u64()?,
        wakeup_cam_matches: r.u64()?,
        occupancy_sum: r.u64()?,
        slot_occupancy: Vec::new(),
        slot_writes: Vec::new(),
    };
    for _ in 0..r.seq_len(8)? {
        s.slot_occupancy.push(r.u64()?);
    }
    for _ in 0..r.seq_len(8)? {
        s.slot_writes.push(r.u64()?);
    }
    Ok(s)
}

fn encode_stats(w: &mut ByteWriter, s: &Stats) {
    w.put_u64(s.cycles);
    w.put_u64(s.retired);
    w.put_u64(s.branches);
    w.put_u64(s.mispredicts);
    w.put_u64(s.squashed);
    encode_cache_stats(w, &s.icache);
    encode_cache_stats(w, &s.dcache);
    encode_predictor_stats(w, &s.bp);
    w.put_u64(s.fetch_buffer_writes);
    w.put_u64(s.fetch_buffer_reads);
    w.put_u64(s.fetch_buffer_occupancy_sum);
    w.put_u64(s.decoded);
    encode_rename_stats(w, &s.int_rename);
    encode_rename_stats(w, &s.fp_rename);
    w.put_u64(s.irf_reads);
    w.put_u64(s.irf_writes);
    w.put_u64(s.frf_reads);
    w.put_u64(s.frf_writes);
    encode_iq_stats(w, &s.int_iq);
    encode_iq_stats(w, &s.mem_iq);
    encode_iq_stats(w, &s.fp_iq);
    w.put_u64(s.rob_writes);
    w.put_u64(s.rob_reads);
    w.put_u64(s.rob_occupancy_sum);
    w.put_u64(s.ldq_writes);
    w.put_u64(s.stq_writes);
    w.put_u64(s.stq_searches);
    w.put_u64(s.forwards);
    w.put_u64(s.lsu_occupancy_sum);
    w.put_u64(s.alu_ops);
    w.put_u64(s.mul_ops);
    w.put_u64(s.div_ops);
    w.put_u64(s.fpu_ops);
    w.put_u64(s.fdiv_ops);
    w.put_u64(s.agu_ops);
    encode_cache_stats(w, &s.mem.l2);
    w.put_u64(s.mem.dram_reads);
    w.put_u64(s.mem.dram_writes);
    w.put_u64(s.mem.dram_row_hits);
    w.put_u64(s.mem.dram_bw_wait_cycles);
    w.put_u64(s.mem.l2_contention_stalls);
}

fn decode_stats(r: &mut ByteReader<'_>) -> Result<Stats, CodecError> {
    Ok(Stats {
        cycles: r.u64()?,
        retired: r.u64()?,
        branches: r.u64()?,
        mispredicts: r.u64()?,
        squashed: r.u64()?,
        icache: decode_cache_stats(r)?,
        dcache: decode_cache_stats(r)?,
        bp: decode_predictor_stats(r)?,
        fetch_buffer_writes: r.u64()?,
        fetch_buffer_reads: r.u64()?,
        fetch_buffer_occupancy_sum: r.u64()?,
        decoded: r.u64()?,
        int_rename: decode_rename_stats(r)?,
        fp_rename: decode_rename_stats(r)?,
        irf_reads: r.u64()?,
        irf_writes: r.u64()?,
        frf_reads: r.u64()?,
        frf_writes: r.u64()?,
        int_iq: decode_iq_stats(r)?,
        mem_iq: decode_iq_stats(r)?,
        fp_iq: decode_iq_stats(r)?,
        rob_writes: r.u64()?,
        rob_reads: r.u64()?,
        rob_occupancy_sum: r.u64()?,
        ldq_writes: r.u64()?,
        stq_writes: r.u64()?,
        stq_searches: r.u64()?,
        forwards: r.u64()?,
        lsu_occupancy_sum: r.u64()?,
        alu_ops: r.u64()?,
        mul_ops: r.u64()?,
        div_ops: r.u64()?,
        fpu_ops: r.u64()?,
        fdiv_ops: r.u64()?,
        agu_ops: r.u64()?,
        // Deliberately not journaled: a replayed point skipped nothing in
        // this process, and the counter is excluded from fingerprints.
        idle_cycles_skipped: 0,
        mem: MemSysStats {
            l2: decode_cache_stats(r)?,
            dram_reads: r.u64()?,
            dram_writes: r.u64()?,
            dram_row_hits: r.u64()?,
            dram_bw_wait_cycles: r.u64()?,
            l2_contention_stalls: r.u64()?,
        },
    })
}

fn encode_point_failure(w: &mut ByteWriter, f: &PointFailure) {
    w.put_usize(f.simpoint);
    w.put_usize(f.interval);
    w.put_f64(f.weight);
    w.put_u32(f.attempts);
    encode_failure_kind(w, &f.kind);
}

fn decode_point_failure(r: &mut ByteReader<'_>) -> Result<PointFailure, CodecError> {
    Ok(PointFailure {
        simpoint: r.usize()?,
        interval: r.usize()?,
        weight: r.f64()?,
        attempts: r.u32()?,
        kind: decode_failure_kind(r)?,
    })
}

fn encode_failure_kind(w: &mut ByteWriter, k: &FailureKind) {
    match k {
        FailureKind::Hung { snapshot } => {
            w.put_u8(0);
            encode_snapshot(w, snapshot);
        }
        FailureKind::Panicked { message } => {
            w.put_u8(1);
            w.put_str(message);
        }
        FailureKind::CycleBudgetExceeded { cycles, budget } => {
            w.put_u8(2);
            w.put_u64(*cycles);
            w.put_u64(*budget);
        }
        FailureKind::WallClockExceeded { elapsed_ms, budget_ms } => {
            w.put_u8(3);
            w.put_u64(*elapsed_ms);
            w.put_u64(*budget_ms);
        }
    }
}

fn decode_failure_kind(r: &mut ByteReader<'_>) -> Result<FailureKind, CodecError> {
    Ok(match r.u8()? {
        0 => FailureKind::Hung { snapshot: Box::new(decode_snapshot(r)?) },
        1 => FailureKind::Panicked { message: r.str()?.to_string() },
        2 => FailureKind::CycleBudgetExceeded { cycles: r.u64()?, budget: r.u64()? },
        3 => FailureKind::WallClockExceeded { elapsed_ms: r.u64()?, budget_ms: r.u64()? },
        _ => return Err(CodecError::Invalid("failure kind tag")),
    })
}

fn encode_uop_state(w: &mut ByteWriter, s: UopState) {
    match s {
        UopState::Waiting => w.put_u8(0),
        UopState::Executing { done_at } => {
            w.put_u8(1);
            w.put_u64(done_at);
        }
        UopState::WaitMem => w.put_u8(2),
        UopState::Done => w.put_u8(3),
    }
}

fn decode_uop_state(r: &mut ByteReader<'_>) -> Result<UopState, CodecError> {
    Ok(match r.u8()? {
        0 => UopState::Waiting,
        1 => UopState::Executing { done_at: r.u64()? },
        2 => UopState::WaitMem,
        3 => UopState::Done,
        _ => return Err(CodecError::Invalid("uop state tag")),
    })
}

fn encode_snapshot(w: &mut ByteWriter, s: &WatchdogSnapshot) {
    w.put_u64(s.cycle);
    w.put_u64(s.cycles_since_commit);
    w.put_u64(s.retired);
    w.put_u64(s.fetch_pc);
    w.put_bool(s.fetch_wedged);
    w.put_usize(s.fetch_buffer_len);
    match s.redirect {
        None => w.put_bool(false),
        Some((from, to)) => {
            w.put_bool(true);
            w.put_u64(from);
            w.put_u64(to);
        }
    }
    w.put_usize(s.rob_len);
    w.put_usize(s.rob_capacity);
    match &s.rob_head {
        None => w.put_bool(false),
        Some(h) => {
            w.put_bool(true);
            w.put_u64(h.seq);
            w.put_u64(h.pc);
            w.put_str(&h.inst);
            encode_uop_state(w, h.state);
            w.put_u64(h.age_cycles);
            w.put_bool(h.srcs_ready);
        }
    }
    w.put_usize(s.issue_queues.len());
    for q in &s.issue_queues {
        w.put_u8(iq_name_tag(q.name));
        w.put_usize(q.occupancy);
        w.put_usize(q.capacity);
        match &q.oldest {
            None => w.put_bool(false),
            Some(o) => {
                w.put_bool(true);
                w.put_u64(o.seq);
                w.put_bool(o.srcs_ready);
                encode_uop_state(w, o.state);
            }
        }
    }
    w.put_usize(s.lsu.ldq_len);
    put_opt_u64(w, s.lsu.ldq_head_seq);
    w.put_usize(s.lsu.stq_len);
    match s.lsu.stq_head {
        None => w.put_bool(false),
        Some((seq, addr)) => {
            w.put_bool(true);
            w.put_u64(seq);
            put_opt_u64(w, addr);
        }
    }
    encode_mshrs(w, &s.icache_mshrs);
    encode_mshrs(w, &s.dcache_mshrs);
    encode_mshrs(w, &s.l2_mshrs);
}

fn decode_snapshot(r: &mut ByteReader<'_>) -> Result<WatchdogSnapshot, CodecError> {
    let cycle = r.u64()?;
    let cycles_since_commit = r.u64()?;
    let retired = r.u64()?;
    let fetch_pc = r.u64()?;
    let fetch_wedged = r.bool()?;
    let fetch_buffer_len = r.usize()?;
    let redirect = if r.bool()? { Some((r.u64()?, r.u64()?)) } else { None };
    let rob_len = r.usize()?;
    let rob_capacity = r.usize()?;
    let rob_head = if r.bool()? {
        Some(RobHeadView {
            seq: r.u64()?,
            pc: r.u64()?,
            inst: r.str()?.to_string(),
            state: decode_uop_state(r)?,
            age_cycles: r.u64()?,
            srcs_ready: r.bool()?,
        })
    } else {
        None
    };
    let n_queues = r.seq_len(18)?;
    let mut issue_queues = Vec::with_capacity(n_queues);
    for _ in 0..n_queues {
        let name = iq_name_from_tag(r.u8()?)?;
        let occupancy = r.usize()?;
        let capacity = r.usize()?;
        let oldest = if r.bool()? {
            Some(OldestEntryView {
                seq: r.u64()?,
                srcs_ready: r.bool()?,
                state: decode_uop_state(r)?,
            })
        } else {
            None
        };
        issue_queues.push(IssueQueueView { name, occupancy, capacity, oldest });
    }
    let lsu = LsuView {
        ldq_len: r.usize()?,
        ldq_head_seq: take_opt_u64(r)?,
        stq_len: r.usize()?,
        stq_head: if r.bool()? { Some((r.u64()?, take_opt_u64(r)?)) } else { None },
    };
    let icache_mshrs = decode_mshrs(r)?;
    let dcache_mshrs = decode_mshrs(r)?;
    let l2_mshrs = decode_mshrs(r)?;
    Ok(WatchdogSnapshot {
        cycle,
        cycles_since_commit,
        retired,
        fetch_pc,
        fetch_wedged,
        fetch_buffer_len,
        redirect,
        rob_len,
        rob_capacity,
        rob_head,
        issue_queues,
        lsu,
        icache_mshrs,
        dcache_mshrs,
        l2_mshrs,
    })
}

fn encode_mshrs(w: &mut ByteWriter, mshrs: &[MshrView]) {
    w.put_usize(mshrs.len());
    for m in mshrs {
        w.put_u64(m.line_addr);
        w.put_u64(m.done_at);
    }
}

fn decode_mshrs(r: &mut ByteReader<'_>) -> Result<Vec<MshrView>, CodecError> {
    let n = r.seq_len(16)?;
    let mut mshrs = Vec::with_capacity(n);
    for _ in 0..n {
        mshrs.push(MshrView { line_addr: r.u64()?, done_at: r.u64()? });
    }
    Ok(mshrs)
}

/// [`IssueQueueView::name`] is a `&'static str` drawn from the core's
/// fixed queue set, so it round-trips as a tag.
fn iq_name_tag(name: &str) -> u8 {
    match name {
        "int" => 0,
        "mem" => 1,
        "fp" => 2,
        _ => u8::MAX,
    }
}

fn iq_name_from_tag(tag: u8) -> Result<&'static str, CodecError> {
    match tag {
        0 => Ok("int"),
        1 => Ok("mem"),
        2 => Ok("fp"),
        _ => Err(CodecError::Invalid("issue queue name tag")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("boomflow-journal-{tag}-{}-{n}.bfj", std::process::id()))
    }

    fn sample_power() -> PowerReport {
        PowerReport::new(
            vec![
                (
                    Component::IntRegFile,
                    PowerBreakdown { leakage_mw: 0.25, internal_mw: 1.5, switching_mw: 2.75 },
                ),
                (
                    Component::DCache,
                    PowerBreakdown { leakage_mw: 3.0, internal_mw: 0.125, switching_mw: 0.5 },
                ),
            ],
            vec![0.5, 0.25, 0.125],
        )
    }

    fn sample_ok() -> PointOutcome {
        let stats = Stats {
            cycles: 12_345,
            retired: 10_000,
            int_iq: IssueQueueStats {
                slot_occupancy: vec![7, 6, 5],
                slot_writes: vec![1, 2],
                ..IssueQueueStats::default()
            },
            mem: MemSysStats {
                l2: CacheStats { reads: 11, misses: 3, ..CacheStats::default() },
                dram_reads: 3,
                dram_row_hits: 1,
                dram_bw_wait_cycles: 27,
                l2_contention_stalls: 2,
                ..MemSysStats::default()
            },
            ..Stats::default()
        };
        Ok((
            PointResult { interval: 4, weight: 0.375, ipc: 0.8125, power: sample_power(), stats },
            2,
        ))
    }

    fn sample_hang() -> PointOutcome {
        Err(PointFailure {
            simpoint: 1,
            interval: 9,
            weight: 0.0625,
            attempts: 3,
            kind: FailureKind::Hung {
                snapshot: Box::new(WatchdogSnapshot {
                    cycle: 500,
                    cycles_since_commit: 400,
                    retired: 17,
                    fetch_pc: 0x8000_0010,
                    fetch_wedged: true,
                    fetch_buffer_len: 3,
                    redirect: Some((0x8000_0000, 0x8000_0040)),
                    rob_len: 8,
                    rob_capacity: 32,
                    rob_head: Some(RobHeadView {
                        seq: 99,
                        pc: 0x8000_0020,
                        inst: "lw a0, 0(a1)".to_string(),
                        state: UopState::Executing { done_at: 777 },
                        age_cycles: 400,
                        srcs_ready: true,
                    }),
                    issue_queues: vec![IssueQueueView {
                        name: "mem",
                        occupancy: 2,
                        capacity: 16,
                        oldest: Some(OldestEntryView {
                            seq: 99,
                            srcs_ready: false,
                            state: UopState::Waiting,
                        }),
                    }],
                    lsu: LsuView {
                        ldq_len: 1,
                        ldq_head_seq: Some(99),
                        stq_len: 2,
                        stq_head: Some((98, None)),
                    },
                    icache_mshrs: vec![],
                    dcache_mshrs: vec![MshrView { line_addr: 0x1000, done_at: 600 }],
                    l2_mshrs: vec![MshrView { line_addr: 0x40, done_at: 650 }],
                }),
            },
        })
    }

    fn assert_outcomes_identical(a: &PointOutcome, b: &PointOutcome) {
        // The payload codec is canonical (no maps, fixed field order),
        // so byte equality of re-encodings is outcome equality.
        assert_eq!(encode_record(0, 0, a), encode_record(0, 0, b));
    }

    #[test]
    fn outcome_codec_round_trips_success_and_hang() {
        for outcome in [sample_ok(), sample_hang()] {
            let payload = encode_record(3, 7, &outcome);
            let (c, p, decoded) = decode_record(&payload).expect("decode");
            assert_eq!((c, p), (3, 7));
            assert_outcomes_identical(&outcome, &decoded);
        }
    }

    #[test]
    fn every_truncation_of_a_record_errors() {
        let payload = encode_record(1, 2, &sample_hang());
        for cut in 0..payload.len() {
            assert!(decode_record(&payload[..cut]).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn create_append_resume_replays_everything() {
        let path = scratch("roundtrip");
        let journal = CampaignJournal::create(&path, 0xfeed).expect("create");
        journal.append(0, 0, &sample_ok());
        journal.append(0, 1, &sample_hang());
        journal.append(2, 5, &sample_ok());
        drop(journal);

        let (journal, replay) = CampaignJournal::resume(&path, 0xfeed).expect("resume");
        assert_eq!(replay.len(), 3);
        assert_outcomes_identical(&replay.outcomes[&(0, 0, 0)], &sample_ok());
        assert_outcomes_identical(&replay.outcomes[&(0, 0, 1)], &sample_hang());
        assert_outcomes_identical(&replay.outcomes[&(2, 0, 5)], &sample_ok());
        // Appending after resume keeps the file valid.
        journal.append(3, 0, &sample_ok());
        drop(journal);
        let (_, replay) = CampaignJournal::resume(&path, 0xfeed).expect("re-resume");
        assert_eq!(replay.len(), 4);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_and_survivors_replayed() {
        let path = scratch("torn");
        let journal = CampaignJournal::create(&path, 1).expect("create");
        journal.append(0, 0, &sample_ok());
        journal.append(0, 1, &sample_ok());
        drop(journal);
        let full = std::fs::read(&path).expect("read");
        // Tear the last record at every possible byte boundary: the
        // first record must always survive, the torn one never replays.
        let first_end = {
            let mut len4 = [0u8; 4];
            len4.copy_from_slice(&full[HEADER_LEN..HEADER_LEN + 4]);
            HEADER_LEN + 4 + u32::from_le_bytes(len4) as usize + 8
        };
        for cut in first_end..full.len() {
            std::fs::write(&path, &full[..cut]).expect("write torn");
            let (_, replay) = CampaignJournal::resume(&path, 1).expect("resume torn");
            assert_eq!(replay.len(), 1, "cut at {cut}");
            assert_eq!(
                std::fs::metadata(&path).expect("meta").len(),
                first_end as u64,
                "torn tail must be truncated away (cut at {cut})"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bit_flip_in_tail_record_never_replays_a_wrong_outcome() {
        let path = scratch("flip");
        let journal = CampaignJournal::create(&path, 1).expect("create");
        journal.append(0, 0, &sample_ok());
        journal.append(0, 1, &sample_hang());
        drop(journal);
        let full = std::fs::read(&path).expect("read");
        let first_end = {
            let mut len4 = [0u8; 4];
            len4.copy_from_slice(&full[HEADER_LEN..HEADER_LEN + 4]);
            HEADER_LEN + 4 + u32::from_le_bytes(len4) as usize + 8
        };
        // Flip one bit somewhere in the second record: the checksum (or
        // the framing) must reject it, leaving only the first record.
        for pos in (first_end..full.len()).step_by(7) {
            let mut bytes = full.clone();
            bytes[pos] ^= 0x40;
            std::fs::write(&path, &bytes).expect("write flipped");
            let (_, replay) = CampaignJournal::resume(&path, 1).expect("resume flipped");
            assert!(replay.len() <= 1, "flip at {pos} must not invent records");
            if let Some(outcome) = replay.outcomes.get(&(0, 0, 0)) {
                assert_outcomes_identical(outcome, &sample_ok());
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_rejects_wrong_fingerprint_and_bad_header() {
        let path = scratch("reject");
        drop(CampaignJournal::create(&path, 7).expect("create"));
        match CampaignJournal::resume(&path, 8) {
            Err(JournalError::FingerprintMismatch { expected: 8, found: 7 }) => {}
            other => panic!("expected fingerprint mismatch, got {other:?}"),
        }
        std::fs::write(&path, b"not a journal at all").expect("write");
        assert!(matches!(CampaignJournal::resume(&path, 7), Err(JournalError::BadHeader)));
        std::fs::write(&path, b"BF").expect("write");
        assert!(matches!(CampaignJournal::resume(&path, 7), Err(JournalError::BadHeader)));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn campaign_fingerprint_ignores_schedule_knobs_but_not_flow_knobs() {
        let cfgs = [BoomConfig::medium(), BoomConfig::large()];
        let workloads: Vec<Workload> = Vec::new();
        let flow = FlowConfig::default();
        let base = campaign_fingerprint(&cfgs, &workloads, &flow);
        assert_eq!(base, campaign_fingerprint(&cfgs, &workloads, &flow), "deterministic");

        let mut warm = flow.clone();
        warm.warmup_insts += 1;
        assert_ne!(base, campaign_fingerprint(&cfgs, &workloads, &warm));

        let mut inj = flow.clone();
        inj.inject.hang_point = Some(0);
        assert_ne!(base, campaign_fingerprint(&cfgs, &workloads, &inj));

        assert_ne!(base, campaign_fingerprint(&cfgs[..1], &workloads, &flow));
    }
}
