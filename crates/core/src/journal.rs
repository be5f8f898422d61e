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
//! Every run opens its journal by one rule, [`CampaignJournal::open`]:
//! create afresh, or resume, where a missing or empty journal resumes as
//! a fresh one, so no caller looks for the file first.
//!
//! ## On-disk format
//!
//! ```text
//! header:  magic "BFJL" | version u32 | campaign fingerprint u64
//! record:  payload len u32 | payload | fnv1a-64(payload)
//! payload: cell index u64 | point index u64 | outcome tag u8
//!          | Ok:  attempts u32 | PointResult   (tag 0)
//!          | Err: PointFailure                 (tag 1)
//! ```
//!
//! `PointResult` and `PointFailure` encode through their
//! [`rv_isa::record!`] declarations (field order is encoding order).
//!
//! Format history:
//! 1. The first format.
//! 2. Stats records gained the memory-system (L2/DRAM) counters and
//!    watchdog snapshots the L2 MSHRs.
//! 3. The header fingerprint keys each configuration by its record key,
//!    which leaves out the display name, instead of hashing its `Debug`
//!    text; record payloads are byte-identical to version 2. Any other
//!    version is refused with [`JournalError::Version`].
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
//! everything that determines point outcomes: the configuration matrix
//! (each configuration's record key), the workloads (program
//! fingerprints and interval sizes), and the [`FlowConfig`] knobs (the
//! retry and fault-injection records by their keys). It deliberately
//! *excludes* scheduling and fault-injection knobs (`--jobs`, disk I/O
//! faults, kill-after) so a
//! journal written by a killed injection run resumes cleanly into a
//! clean run. Resuming against a journal whose fingerprint differs is
//! refused ([`JournalError::FingerprintMismatch`]) rather than silently
//! replaying stale results.

use crate::flow::{FlowConfig, PointOutcome, PointResult};
use crate::supervisor::PointFailure;
use crate::sync::lock;
use boom_uarch::BoomConfig;
use rv_isa::codec::{fnv1a, ByteReader, ByteWriter, Codec, CodecError};
use rv_workloads::Workload;
use std::collections::HashMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Mutex;

const MAGIC: &[u8; 4] = b"BFJL";
/// Version 3: the config key no longer hashes the display name, so a
/// version-2 header fingerprint would never match; older journals are
/// refused with [`JournalError::Version`] rather than misread (format
/// history in the module docs).
const VERSION: u32 = 3;
/// magic + version + campaign fingerprint.
const HEADER_LEN: usize = 4 + 4 + 8;

/// Why a journal could not be created or resumed.
#[derive(Debug)]
pub enum JournalError {
    /// The underlying file operation failed.
    Io(std::io::Error),
    /// The file exists but is not a journal (bad magic, or shorter than
    /// a header).
    BadHeader,
    /// The file is a journal of another format version.
    Version {
        /// Version recorded in the journal header.
        found: u32,
        /// Version this build reads and writes.
        expected: u32,
    },
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
            JournalError::Version { found, expected } => write!(
                f,
                "journal format version {found} is not supported (this build reads version \
                 {expected})"
            ),
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
        // Not synced, like every record after it: a header lost to a
        // power cut leaves an empty file, which `resume` starts afresh.
        file.write_all(&header)?;
        Ok(CampaignJournal { file: Mutex::new(file) })
    }

    /// Reopens the journal at `path`, replaying every valid record and
    /// truncating a torn tail left by a crash mid-append. A missing file,
    /// or an empty one (a header the OS never wrote back before a power
    /// loss), is a fresh journal: the header is written, nothing replays.
    ///
    /// Returns the journal (positioned to append after the last valid
    /// record) together with the recovered outcomes.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::BadHeader`] if the file is not a
    /// journal, [`JournalError::Version`] if it has another format
    /// version, [`JournalError::FingerprintMismatch`] if it belongs to
    /// a different campaign, and [`JournalError::Io`] on read/reopen
    /// failures.
    pub fn resume(
        path: &Path,
        fingerprint: u64,
    ) -> Result<(CampaignJournal, JournalReplay), JournalError> {
        let bytes = match std::fs::read(path) {
            Err(e) if e.kind() == ErrorKind::NotFound => Vec::new(),
            read => read?,
        };
        if bytes.is_empty() {
            return Ok((CampaignJournal::create(path, fingerprint)?, JournalReplay::default()));
        }
        if bytes.len() < HEADER_LEN || &bytes[..4] != MAGIC {
            return Err(JournalError::BadHeader);
        }
        let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        if version != VERSION {
            return Err(JournalError::Version { found: version, expected: VERSION });
        }
        let mut fp = [0u8; 8];
        fp.copy_from_slice(&bytes[8..16]);
        let found = u64::from_le_bytes(fp);
        if found != fingerprint {
            return Err(JournalError::FingerprintMismatch { expected: fingerprint, found });
        }

        // A record that does not decode marks the torn tail, as an
        // incomplete or checksum-failing one does.
        let mut replay = JournalReplay::default();
        let pos = scan_frames(&bytes, HEADER_LEN, |payload| {
            let Ok((cell, index, outcome)) = decode_record(payload) else { return false };
            let (shift, p_idx) = ((index >> POINT_BITS) as u32, index & ((1 << POINT_BITS) - 1));
            replay.outcomes.insert((cell, shift, p_idx), outcome);
            true
        });

        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(pos as u64)?;
        file.seek(SeekFrom::End(0))?;
        Ok((CampaignJournal { file: Mutex::new(file) }, replay))
    }

    /// Opens a run's journal: [`resume`](CampaignJournal::resume)s it, or
    /// [`create`](CampaignJournal::create)s it with nothing to replay.
    ///
    /// # Errors
    ///
    /// As `create` and `resume`.
    pub fn open(
        path: &Path,
        fingerprint: u64,
        resume: bool,
    ) -> Result<(CampaignJournal, JournalReplay), JournalError> {
        match resume {
            true => CampaignJournal::resume(path, fingerprint),
            false => Ok((CampaignJournal::create(path, fingerprint)?, JournalReplay::default())),
        }
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
        // One write_all per record: a crash can tear the tail record
        // (caught by the checksum on resume) but never interleave two.
        let _ = lock(&self.file).write_all(&frame(&encode_record(c_idx, p_idx, outcome)));
    }
}

/// Frames `payload` as one record, `len u32 | payload | fnv1a-64(payload)`:
/// the framing of journal records and of the server's spec log.
pub(crate) fn frame(payload: &[u8]) -> Vec<u8> {
    let mut framed = Vec::with_capacity(4 + payload.len() + 8);
    framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    framed.extend_from_slice(payload);
    framed.extend_from_slice(&fnv1a(payload).to_le_bytes());
    framed
}

/// Hands each [`frame`]d payload in `bytes`, from offset `pos` on, to
/// `accept`, and returns the end of the valid prefix. The scan stops at
/// the first record that is incomplete, fails its checksum or is refused
/// by `accept`: that record starts the torn tail, which the caller
/// truncates away.
pub(crate) fn scan_frames(
    bytes: &[u8],
    mut pos: usize,
    mut accept: impl FnMut(&[u8]) -> bool,
) -> usize {
    let next = |pos: usize| -> Option<(&[u8], usize)> {
        let len_end = pos.checked_add(4)?;
        let len = u32::from_le_bytes(bytes.get(pos..len_end)?.try_into().ok()?) as usize;
        let payload_end = len_end.checked_add(len)?;
        let rec_end = payload_end.checked_add(8)?;
        let payload = bytes.get(len_end..payload_end)?;
        let sum = u64::from_le_bytes(bytes.get(payload_end..rec_end)?.try_into().ok()?);
        (fnv1a(payload) == sum).then_some((payload, rec_end))
    };
    while let Some((payload, end)) = next(pos) {
        if !accept(payload) {
            break;
        }
        pos = end;
    }
    pos
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
        w.put_u64(cfg.content_key());
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
    flow.retry.key(&mut w);
    flow.inject.key(&mut w);
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
// Record payload codec: the address, then an outcome tag, then the
// record (`attempts` precedes a successful point's result).
// ---------------------------------------------------------------------

fn encode_record(c_idx: usize, p_idx: usize, outcome: &PointOutcome) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_usize(c_idx);
    w.put_usize(p_idx);
    match outcome {
        Ok((result, attempts)) => {
            w.put_u8(0);
            w.put_u32(*attempts);
            result.encode(&mut w);
        }
        Err(failure) => {
            w.put_u8(1);
            failure.encode(&mut w);
        }
    }
    w.into_bytes()
}

fn decode_record(payload: &[u8]) -> Result<(usize, usize, PointOutcome), CodecError> {
    let mut r = ByteReader::new(payload);
    let c_idx = r.usize()?;
    let p_idx = r.usize()?;
    let outcome = match r.u8()? {
        0 => {
            let attempts = r.u32()?;
            Ok((PointResult::decode(&mut r)?, attempts))
        }
        1 => Err(PointFailure::decode(&mut r)?),
        _ => return Err(CodecError::Invalid("outcome tag")),
    };
    r.finish()?;
    Ok((c_idx, p_idx, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervisor::FailureKind;
    use boom_uarch::rob::UopState;
    use boom_uarch::stats::{CacheStats, IssueQueueStats, MemSysStats, Stats};
    use boom_uarch::watchdog::{
        IqName, IssueQueueView, LsuView, MshrView, OldestEntryView, RobHeadView, WatchdogSnapshot,
    };
    use rtl_power::{Component, PowerBreakdown, PowerReport};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch(tag: &str) -> std::path::PathBuf {
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
                        name: IqName::Mem,
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

    /// The other failure kinds, and a hang whose snapshot takes the
    /// other branch of every optional field.
    fn sample_other_failures() -> Vec<PointOutcome> {
        let fail =
            |kind| Err(PointFailure { simpoint: 2, interval: 5, weight: 0.125, attempts: 1, kind });
        let bare = WatchdogSnapshot {
            cycle: 9,
            cycles_since_commit: 8,
            retired: 0,
            fetch_pc: 0x8000_0000,
            fetch_wedged: false,
            fetch_buffer_len: 0,
            redirect: None,
            rob_len: 0,
            rob_capacity: 64,
            rob_head: None,
            issue_queues: vec![
                IssueQueueView { name: IqName::Int, occupancy: 0, capacity: 20, oldest: None },
                IssueQueueView {
                    name: IqName::Fp,
                    occupancy: 1,
                    capacity: 16,
                    oldest: Some(OldestEntryView {
                        seq: 4,
                        srcs_ready: true,
                        state: UopState::Done,
                    }),
                },
            ],
            lsu: LsuView {
                ldq_len: 0,
                ldq_head_seq: None,
                stq_len: 1,
                stq_head: Some((3, Some(0x2000))),
            },
            icache_mshrs: vec![MshrView { line_addr: 0x10, done_at: 12 }],
            dcache_mshrs: vec![],
            l2_mshrs: vec![],
        };
        vec![
            fail(FailureKind::Hung { snapshot: Box::new(bare) }),
            fail(FailureKind::Panicked { message: "boom".to_string() }),
            fail(FailureKind::CycleBudgetExceeded { cycles: 1000, budget: 999 }),
            fail(FailureKind::WallClockExceeded { elapsed_ms: 50, budget_ms: 40 }),
        ]
    }

    /// FNV-1a of encoded record payloads, captured from the hand-written
    /// codec that preceded the declarative records: an `Ok` point with
    /// active memory-system stats, a `Hung` point with a full snapshot,
    /// then [`sample_other_failures`]. Record payloads must never move
    /// without a journal version bump.
    const GOLDEN_PAYLOADS: [u64; 6] = [
        0x0262_66c9_36ab_e9e5,
        0xbf62_99db_a253_2d0a,
        0x1871_6314_2769_ac37,
        0x0078_15b3_6665_6e1d,
        0xcd03_f283_689d_9454,
        0xfda5_431d_42c3_f0c6,
    ];

    #[test]
    fn encoded_payloads_match_golden_digests() {
        let mut outcomes = vec![sample_ok(), sample_hang()];
        outcomes.extend(sample_other_failures());
        let digests: Vec<u64> = outcomes.iter().map(|o| fnv1a(&encode_record(3, 7, o))).collect();
        assert_eq!(digests, GOLDEN_PAYLOADS.to_vec());
    }

    fn assert_outcomes_identical(a: &PointOutcome, b: &PointOutcome) {
        // The payload codec is canonical (no maps, fixed field order),
        // so byte equality of re-encodings is outcome equality.
        assert_eq!(encode_record(0, 0, a), encode_record(0, 0, b));
    }

    #[test]
    fn outcome_codec_round_trips_success_and_hang() {
        let mut outcomes = vec![sample_ok(), sample_hang()];
        outcomes.extend(sample_other_failures());
        for outcome in outcomes {
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
    fn empty_file_resumes_as_a_fresh_journal() {
        // The header is not synced, so a power loss can leave the file
        // empty: it resumes with nothing replayed and a rewritten header.
        let path = scratch("empty");
        std::fs::write(&path, b"").expect("write");
        let (journal, replay) = CampaignJournal::resume(&path, 9).expect("resume empty");
        assert!(replay.is_empty());
        assert_eq!(std::fs::metadata(&path).expect("meta").len(), HEADER_LEN as u64);
        journal.append(1, 2, &sample_ok());
        journal.append(1, 3, &sample_hang());
        drop(journal);
        let (_, replay) = CampaignJournal::resume(&path, 9).expect("resume after appends");
        assert_eq!(replay.len(), 2);
        assert_outcomes_identical(&replay.outcomes[&(1, 0, 2)], &sample_ok());
        assert_outcomes_identical(&replay.outcomes[&(1, 0, 3)], &sample_hang());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_resumes_as_a_fresh_journal() {
        let path = scratch("missing");
        let _ = std::fs::remove_file(&path);
        let (journal, replay) = CampaignJournal::resume(&path, 9).expect("resume missing");
        assert!(replay.is_empty());
        assert_eq!(std::fs::metadata(&path).expect("created").len(), HEADER_LEN as u64);
        journal.append(0, 1, &sample_ok());
        drop(journal);
        let (_, replay) = CampaignJournal::resume(&path, 9).expect("resume after append");
        assert_eq!(replay.len(), 1);
        assert_outcomes_identical(&replay.outcomes[&(0, 0, 1)], &sample_ok());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn version_2_header_is_a_typed_version_error() {
        let path = scratch("version");
        let mut header = b"BFJL".to_vec();
        header.extend_from_slice(&2u32.to_le_bytes());
        header.extend_from_slice(&7u64.to_le_bytes());
        std::fs::write(&path, &header).expect("write");
        let err = CampaignJournal::resume(&path, 7).expect_err("version 2 must not resume");
        assert!(matches!(err, JournalError::Version { found: 2, expected: 3 }), "{err:?}");
        assert!(err.to_string().contains("version 2"), "{err}");
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
