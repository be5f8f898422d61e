//! Decode robustness of every persisted or keyed record: one generic
//! property, applied to a random value of each record type and to each
//! hand-written tagged codec.
//!
//! For every value: encode then decode gives back the same encoding;
//! every truncation is a `CodecError`; a `u64::MAX` written over any
//! eight bytes (every length field among them) decodes to an error or to
//! a value that re-encodes to exactly those bytes, without one large
//! allocation; and random bytes — alone, overwriting the encoding or
//! spliced into it — never panic. A counting global allocator checks
//! the allocation bound, so this binary holds this one test only.

// Test helpers unwrap freely: a failed unwrap is exactly a test failure.
#![allow(clippy::unwrap_used)]

use boom_uarch::config::{CacheParams, HierarchyParams, MemBackendKind, PredictorKind};
use boom_uarch::rob::UopState;
use boom_uarch::stats::{IssueQueueStats, Stats};
use boom_uarch::watchdog::{
    IqName, IssueQueueView, LsuView, MshrView, OldestEntryView, RobHeadView, WatchdogSnapshot,
};
use boom_uarch::{BoomConfig, IssueQueueKind};
use boomflow::flow::PointResult;
use boomflow::{
    CampaignRequest, FailureKind, FaultInjection, PointFailure, Request, RetryPolicy, SweepRequest,
};
use proptest::test_runner::TestRng;
use rtl_power::{Component, PowerBreakdown, PowerReport};
use rv_isa::codec::{ByteReader, ByteWriter, Codec, CodecError};
use rv_workloads::Scale;
use simpoint::SimPointConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// The largest single allocation requested since the last reset.
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct PeakAlloc;

// SAFETY: every call forwards to the system allocator unchanged; the
// wrapper only records requested sizes.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        PEAK.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        PEAK.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

fn to_bytes<T: Codec>(value: &T) -> Vec<u8> {
    let mut w = ByteWriter::new();
    value.encode(&mut w);
    w.into_bytes()
}

/// Decodes a buffer holding exactly one `T`.
fn from_bytes<T: Codec>(bytes: &[u8]) -> Result<T, CodecError> {
    let mut r = ByteReader::new(bytes);
    let value = T::decode(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// Decodes `bytes` as one `T`, requiring that no single allocation
/// exceeds a small multiple of the input.
fn decode_bounded<T: Codec>(what: &str, bytes: &[u8]) -> Result<T, CodecError> {
    PEAK.store(0, Ordering::Relaxed);
    let decoded = from_bytes::<T>(bytes);
    let peak = PEAK.load(Ordering::Relaxed);
    assert!(peak <= 64 * bytes.len() + 4096, "{what}: allocated {peak} B for {} B", bytes.len());
    decoded
}

/// A decode that succeeds must re-encode to exactly its input.
fn check_canonical<T: Codec>(what: &str, bytes: &[u8]) {
    if let Ok(v) = decode_bounded::<T>(what, bytes) {
        assert_eq!(to_bytes(&v), bytes, "{what}: decoded a non-canonical encoding");
    }
}

/// The one robustness property, for any record type.
fn assert_decode_robust<T: Codec>(what: &str, value: &T, noise: &[u8]) {
    let bytes = to_bytes(value);
    assert!(bytes.len() >= T::MIN_BYTES, "{what}: shorter than its declared minimum");
    let back = decode_bounded::<T>(what, &bytes).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(to_bytes(&back), bytes, "{what}: round trip");
    for cut in 0..bytes.len() {
        assert!(decode_bounded::<T>(what, &bytes[..cut]).is_err(), "{what}: cut at {cut}");
    }
    for at in 0..bytes.len().saturating_sub(7) {
        let mut inflated = bytes.clone();
        inflated[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        check_canonical::<T>(what, &inflated);
    }
    check_canonical::<T>(what, noise);
    for at in (0..bytes.len()).step_by(bytes.len() / 8 + 1) {
        let mut over = bytes.clone();
        for (b, n) in over[at..].iter_mut().zip(noise) {
            *b = *n;
        }
        check_canonical::<T>(what, &over);
        let mut spliced = bytes.clone();
        spliced.splice(at..at, noise.iter().copied());
        check_canonical::<T>(what, &spliced);
    }
}

/// Draws for the record generators.
struct Gen(TestRng);

impl Gen {
    fn u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// Small values, so generated lengths and counts stay cheap.
    fn small(&mut self, below: u64) -> usize {
        (self.0.next_u64() % below) as usize
    }

    fn bool(&mut self) -> bool {
        self.0.next_u64() & 1 == 1
    }

    fn f64(&mut self) -> f64 {
        f64::from_bits(self.0.next_u64())
    }

    fn opt<T>(&mut self, f: impl FnOnce(&mut Gen) -> T) -> Option<T> {
        if self.bool() {
            Some(f(self))
        } else {
            None
        }
    }

    fn vec<T>(&mut self, max: u64, mut f: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let n = self.small(max);
        (0..n).map(|_| f(self)).collect()
    }

    fn string(&mut self) -> String {
        ["", "lw a0, 0(a1)", "wörld", "bitcount,sha"][self.small(4)].to_string()
    }

    fn uop_state(&mut self) -> UopState {
        match self.small(4) {
            0 => UopState::Waiting,
            1 => UopState::Executing { done_at: self.u64() },
            2 => UopState::WaitMem,
            _ => UopState::Done,
        }
    }

    fn stats(&mut self) -> Stats {
        let mut s = Stats::new(self.small(6), self.small(6), self.small(6));
        for q in [&mut s.int_iq, &mut s.mem_iq, &mut s.fp_iq] {
            q.writes = self.u64();
            q.occupancy_sum = self.u64();
            for v in q.slot_occupancy.iter_mut().chain(q.slot_writes.iter_mut()) {
                *v = self.u64();
            }
        }
        // A queue whose two per-slot vectors differ in length still
        // round-trips.
        s.fp_iq.slot_writes.push(self.u64());
        s.cycles = self.u64();
        s.retired = self.u64();
        s.icache.misses = self.u64();
        s.dcache.writebacks = self.u64();
        s.bp.ras_pops = self.u64();
        s.fp_rename.snapshot_writes = self.u64();
        s.agu_ops = self.u64();
        s.idle_cycles_skipped = self.u64();
        if self.bool() {
            s.mem.l2.reads = self.u64();
            s.mem.l2_contention_stalls = self.u64();
        }
        s
    }

    fn power(&mut self) -> PowerReport {
        let n = self.small(Component::ALL.len() as u64 + 1);
        let entries = Component::ALL[..n]
            .iter()
            .map(|&c| {
                let b = PowerBreakdown {
                    leakage_mw: self.f64(),
                    internal_mw: self.f64(),
                    switching_mw: self.f64(),
                };
                (c, b)
            })
            .collect();
        PowerReport::new(entries, self.vec(6, Gen::f64))
    }

    fn snapshot(&mut self) -> WatchdogSnapshot {
        let mshrs = |g: &mut Gen| g.vec(4, |g| MshrView { line_addr: g.u64(), done_at: g.u64() });
        WatchdogSnapshot {
            cycle: self.u64(),
            cycles_since_commit: self.u64(),
            retired: self.u64(),
            fetch_pc: self.u64(),
            fetch_wedged: self.bool(),
            fetch_buffer_len: self.small(64),
            redirect: self.opt(|g| (g.u64(), g.u64())),
            rob_len: self.small(128),
            rob_capacity: self.small(128),
            rob_head: self.opt(|g| RobHeadView {
                seq: g.u64(),
                pc: g.u64(),
                inst: g.string(),
                state: g.uop_state(),
                age_cycles: g.u64(),
                srcs_ready: g.bool(),
            }),
            issue_queues: self.vec(4, |g| IssueQueueView {
                name: [IqName::Int, IqName::Mem, IqName::Fp][g.small(3)],
                occupancy: g.small(40),
                capacity: g.small(40),
                oldest: g.opt(|g| OldestEntryView {
                    seq: g.u64(),
                    srcs_ready: g.bool(),
                    state: g.uop_state(),
                }),
            }),
            lsu: LsuView {
                ldq_len: self.small(32),
                ldq_head_seq: self.opt(Gen::u64),
                stq_len: self.small(32),
                stq_head: self.opt(|g| (g.u64(), g.opt(Gen::u64))),
            },
            icache_mshrs: mshrs(self),
            dcache_mshrs: mshrs(self),
            l2_mshrs: mshrs(self),
        }
    }

    fn failure_kind(&mut self) -> FailureKind {
        match self.small(4) {
            0 => FailureKind::Hung { snapshot: Box::new(self.snapshot()) },
            1 => FailureKind::Panicked { message: self.string() },
            2 => FailureKind::CycleBudgetExceeded { cycles: self.u64(), budget: self.u64() },
            _ => FailureKind::WallClockExceeded { elapsed_ms: self.u64(), budget_ms: self.u64() },
        }
    }

    fn cache_params(&mut self) -> CacheParams {
        CacheParams {
            sets: self.small(1024),
            ways: self.small(16),
            line_bytes: self.small(256),
            mshrs: self.small(16),
            hit_latency: self.u64(),
        }
    }

    fn config(&mut self) -> BoomConfig {
        let mut c = match self.small(3) {
            0 => BoomConfig::medium(),
            1 => BoomConfig::large(),
            _ => BoomConfig::mega(),
        };
        c.name = self.string();
        c.rob_entries = self.small(256);
        c.bp_table_shift = self.small(4) as u32;
        c.predictor =
            [PredictorKind::Tage, PredictorKind::Gshare, PredictorKind::Bimodal][self.small(3)];
        c.iq_kind = [IssueQueueKind::Collapsing, IssueQueueKind::NonCollapsing][self.small(2)];
        c.dcache = self.cache_params();
        c.clock_hz = self.f64();
        if self.bool() {
            c.mem_backend = MemBackendKind::Hierarchy(HierarchyParams {
                l2: self.cache_params(),
                dram_latency: self.u64(),
                dram_burst_cycles: self.u64(),
                dram_row_hit_latency: self.u64(),
                dram_row_bytes: self.u64(),
            });
        }
        c
    }

    fn scale(&mut self) -> Scale {
        [Scale::Test, Scale::Small, Scale::Full][self.small(3)]
    }
}

#[test]
fn every_record_decodes_robustly() {
    for case in 0..48 {
        let mut g = Gen(TestRng::for_case(case));
        let noise: Vec<u8> = (0..g.small(48)).map(|_| g.u64() as u8).collect();
        let n = &noise;

        let stats = g.stats();
        assert_decode_robust("Stats", &stats, n);
        assert_decode_robust::<IssueQueueStats>("IssueQueueStats", &stats.fp_iq, n);
        assert_decode_robust("CacheStats", &stats.icache, n);
        assert_decode_robust("MemSysStats", &stats.mem, n);
        assert_decode_robust("PredictorStats", &stats.bp, n);
        assert_decode_robust("RenameStats", &stats.fp_rename, n);

        let snapshot = g.snapshot();
        assert_decode_robust("WatchdogSnapshot", &snapshot, n);
        assert_decode_robust("LsuView", &snapshot.lsu, n);
        assert_decode_robust("MshrView vector", &snapshot.dcache_mshrs, n);
        assert_decode_robust("IssueQueueView vector", &snapshot.issue_queues, n);
        if let Some(head) = &snapshot.rob_head {
            assert_decode_robust("RobHeadView", head, n);
            assert_decode_robust("UopState", &head.state, n);
        }
        if let Some(q) = snapshot.issue_queues.first() {
            assert_decode_robust("IssueQueueView", q, n);
            assert_decode_robust("IqName", &q.name, n);
            if let Some(o) = &q.oldest {
                assert_decode_robust("OldestEntryView", o, n);
            }
        }

        let power = g.power();
        assert_decode_robust("PowerReport", &power, n);
        let result =
            PointResult { interval: g.small(1000), weight: g.f64(), ipc: g.f64(), power, stats };
        assert_decode_robust("PointResult", &result, n);
        let kind = g.failure_kind();
        assert_decode_robust("FailureKind", &kind, n);
        let failure = PointFailure {
            simpoint: g.small(30),
            interval: g.small(1000),
            weight: g.f64(),
            attempts: g.small(5) as u32,
            kind,
        };
        assert_decode_robust("PointFailure", &failure, n);

        let cfg = g.config();
        assert_decode_robust("BoomConfig", &cfg, n);
        assert_decode_robust("CacheParams", &cfg.dcache, n);
        assert_decode_robust("MemBackendKind", &cfg.mem_backend, n);
        if let MemBackendKind::Hierarchy(h) = &cfg.mem_backend {
            assert_decode_robust("HierarchyParams", h, n);
        }
        let simpoint = SimPointConfig {
            max_k: g.small(30),
            bic_threshold: g.f64(),
            seed: g.u64(),
            ..SimPointConfig::default()
        };
        assert_decode_robust("SimPointConfig", &simpoint, n);
        let retry = RetryPolicy {
            max_attempts: g.small(5) as u32,
            warmup_perturb: g.f64(),
            cycle_budget: g.opt(Gen::u64),
            budget_backoff: g.f64(),
            wall_clock: g.opt(|g| Duration::new(g.u64(), g.small(1_000_000_000) as u32)),
        };
        assert_decode_robust("RetryPolicy", &retry, n);
        let inject = FaultInjection {
            hang_point: g.opt(|g| g.small(30)),
            hang_every_point: g.bool(),
            panic_point: g.opt(|g| g.small(30)),
            kill_after_points: g.opt(Gen::u64),
        };
        assert_decode_robust("FaultInjection", &inject, n);

        let campaign = CampaignRequest {
            workloads: g.string(),
            config: g.string(),
            scale: g.scale(),
            warmup: g.u64(),
            retries: g.small(5) as u32,
            batch_lanes: g.small(4),
            idle_skip: g.bool(),
        };
        assert_decode_robust("CampaignRequest", &campaign, n);
        assert_decode_robust("Scale", &campaign.scale, n);
        let sweep = SweepRequest {
            preset: g.string(),
            base: g.string(),
            workloads: g.string(),
            scale: g.scale(),
            warmup: g.u64(),
            max_rungs: g.small(4),
            rung0_points: g.small(4),
            rung0_shift: g.small(8) as u32,
            epsilon: g.f64(),
            epsilon_decay: g.f64(),
            exhaustive: g.bool(),
            batch_lanes: g.small(4),
        };
        assert_decode_robust("SweepRequest", &sweep, n);
        let request = if g.bool() { Request::Campaign(campaign) } else { Request::Sweep(sweep) };
        assert_decode_robust("Request", &request, n);
    }
}
