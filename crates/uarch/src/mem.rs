//! Memory backends: what happens on an L1 miss.
//!
//! The core's L1 caches delegate refill timing to a [`MemoryBackend`]:
//!
//! * [`FixedLatency`] — the paper's Table-I model: every refill completes
//!   a fixed number of cycles after the miss. This is the default and is
//!   pinned bit-identical by the golden-fingerprint suite.
//! * [`Hierarchy`] — a shared, MSHR-tracked L2 (the same
//!   [`Cache`](crate::cache::Cache) structure as the L1s, driven through
//!   its split lookup/fill interface) in front of a bandwidth-bounded
//!   DRAM model with an open-row hit bonus. Cloning a `Hierarchy` shares
//!   the uncore, which is how two co-running cores contend for the L2
//!   and the DRAM bus.
//!
//! Backend activity is charged to [`MemSysStats`], which feeds the L2
//! SRAM and DRAM-interface power components and the dual-core
//! interference metrics (L2 contention stalls, bandwidth-wait cycles).

use crate::cache::{Cache, Lookup};
use crate::config::{BoomConfig, HierarchyParams, MemBackendKind};
use crate::stats::MemSysStats;
use std::sync::{Arc, Mutex};

/// Timing model for L1 refills and victim writebacks.
///
/// `refill` returns the cycle at which the line arrives, or `None` when
/// the backend cannot accept the request this cycle (the L1 then blocks
/// the access exactly as if its own MSHRs were exhausted, and the core
/// retries). `writeback` posts an evicted dirty line; posted writes
/// consume bandwidth but never stall the core.
pub trait MemoryBackend: std::fmt::Debug + Send {
    /// Requests the line containing `addr`; returns its arrival cycle.
    fn refill(&mut self, addr: u64, cycle: u64, stats: &mut MemSysStats) -> Option<u64>;
    /// Posts a victim writeback for the line containing `addr`.
    fn writeback(&mut self, addr: u64, cycle: u64, stats: &mut MemSysStats);
    /// Outstanding backend refills as `(line_addr, done_at)` pairs, for
    /// watchdog snapshots. Empty for fixed-latency backends.
    fn inflight(&self) -> Vec<(u64, u64)>;
    /// Clones the backend. A [`Hierarchy`] clone shares its uncore.
    fn box_clone(&self) -> Box<dyn MemoryBackend>;
    /// Whether the core may event-skip idle cycles while this backend is
    /// installed. Defaults to `false`: a backend with time-dependent
    /// uncore state (L2 MSHR release, DRAM channel busy-until, open-row
    /// tracking) or one shared between cores cannot guarantee that a
    /// stretch of core-idle cycles is also backend-inert. `FixedLatency`
    /// opts in — it is stateless between accesses.
    fn idle_skip_safe(&self) -> bool {
        false
    }
}

impl Clone for Box<dyn MemoryBackend> {
    fn clone(&self) -> Self {
        self.box_clone()
    }
}

/// Builds the backend selected by `cfg.mem_backend`.
pub fn backend_for(cfg: &BoomConfig) -> Box<dyn MemoryBackend> {
    match cfg.mem_backend {
        MemBackendKind::FixedLatency => Box::new(FixedLatency::new(cfg.mem_latency)),
        MemBackendKind::Hierarchy(h) => Box::new(Hierarchy::new(h)),
    }
}

/// Every refill completes `latency` cycles after the miss; writebacks
/// vanish. This reproduces the original hard-coded model exactly.
#[derive(Clone, Copy, Debug)]
pub struct FixedLatency {
    latency: u64,
}

impl FixedLatency {
    /// A backend with the given refill latency (cycles).
    pub fn new(latency: u64) -> FixedLatency {
        FixedLatency { latency }
    }
}

impl MemoryBackend for FixedLatency {
    fn refill(&mut self, _addr: u64, cycle: u64, _stats: &mut MemSysStats) -> Option<u64> {
        Some(cycle + self.latency)
    }
    fn writeback(&mut self, _addr: u64, _cycle: u64, _stats: &mut MemSysStats) {}
    fn inflight(&self) -> Vec<(u64, u64)> {
        Vec::new()
    }
    fn box_clone(&self) -> Box<dyn MemoryBackend> {
        Box::new(*self)
    }
    fn idle_skip_safe(&self) -> bool {
        true
    }
}

/// Shared L2 + DRAM. The uncore sits behind a mutex so two co-running
/// cores can share it; single-core runs never contend on the lock, and
/// dual-core runs interleave strictly on one thread, so timing stays
/// deterministic.
#[derive(Clone, Debug)]
pub struct Hierarchy {
    shared: Arc<Mutex<Uncore>>,
    /// High tag bits mixed into every line address before it reaches the
    /// shared uncore. Co-running programs load at identical addresses,
    /// but two real processes occupy disjoint physical pages — without
    /// the salt, core 1 would score timing "hits" on lines core 0
    /// fetched. Salting only the bits above any program address keeps
    /// set indexing (and therefore set conflicts and DRAM row locality)
    /// contending realistically while eliminating cross-core tag
    /// aliasing.
    salt: u64,
}

/// First address bit above anything a program can touch (flat memory
/// caps at 64 MiB above a 2 GiB base).
const CORE_SALT_BIT: u64 = 1 << 40;

impl Hierarchy {
    /// A private uncore from Table-I-style knobs.
    pub fn new(params: HierarchyParams) -> Hierarchy {
        Hierarchy { shared: Arc::new(Mutex::new(Uncore::new(params))), salt: 0 }
    }

    /// Two handles onto one shared uncore, for a dual-core co-run. The
    /// second handle's traffic is tag-salted into a disjoint "physical"
    /// address range (see [`Hierarchy::salt`]).
    pub fn shared_pair(params: HierarchyParams) -> (Hierarchy, Hierarchy) {
        let a = Hierarchy::new(params);
        let mut b = a.clone();
        b.salt = CORE_SALT_BIT;
        (a, b)
    }

    fn uncore(&self) -> std::sync::MutexGuard<'_, Uncore> {
        // A poisoned lock means a panic mid-update on the other core;
        // propagating the panic loses the watchdog snapshot, so recover.
        self.shared.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl MemoryBackend for Hierarchy {
    fn refill(&mut self, addr: u64, cycle: u64, stats: &mut MemSysStats) -> Option<u64> {
        let addr = addr | self.salt;
        let mut u = self.uncore();
        u.l2.release_before(cycle);
        match u.l2.lookup(addr, false, cycle, &mut stats.l2) {
            Lookup::Hit { ready_at } | Lookup::Merged { ready_at } => Some(ready_at),
            Lookup::Blocked => {
                stats.l2_contention_stalls += 1;
                None
            }
            Lookup::MissReady => {
                let done_at = u.dram.read(addr, cycle, stats);
                if let Some(victim) = u.l2.fill(addr, false, cycle, done_at, &mut stats.l2) {
                    u.dram.post_write(victim, cycle, stats);
                }
                Some(done_at)
            }
        }
    }

    fn writeback(&mut self, addr: u64, cycle: u64, stats: &mut MemSysStats) {
        let addr = addr | self.salt;
        let mut u = self.uncore();
        u.l2.release_before(cycle);
        // Write-no-allocate: present lines turn dirty in place; absent
        // lines become posted DRAM writes.
        if !u.l2.write_no_allocate(addr, &mut stats.l2) {
            u.dram.post_write(addr, cycle, stats);
        }
    }

    fn inflight(&self) -> Vec<(u64, u64)> {
        // Strip the salt (whichever handle allocated the entry) so watchdog
        // snapshots show program line addresses. `mshr_states` reports in
        // line-address units, so shift the salt bit to match.
        let uncore = self.uncore();
        let salt_line = CORE_SALT_BIT >> uncore.l2.line_shift();
        uncore.l2.mshr_states().into_iter().map(|(a, c)| (a & !salt_line, c)).collect()
    }

    fn box_clone(&self) -> Box<dyn MemoryBackend> {
        Box::new(self.clone())
    }
}

#[derive(Debug)]
struct Uncore {
    l2: Cache,
    dram: Dram,
}

impl Uncore {
    fn new(params: HierarchyParams) -> Uncore {
        // `BoomConfig::validate` / CLI parsing reject bad geometry before
        // a backend is built, so `Cache::new`'s panic path is unreachable
        // for validated configs.
        Uncore { l2: Cache::new(params.l2), dram: Dram::new(params) }
    }
}

/// Fixed-latency DRAM with bounded bandwidth (one transfer at a time via
/// a busy-until cycle) and an open-row hit bonus: a read to the row that
/// served the previous transfer completes after `row_hit_latency` instead
/// of `latency`.
#[derive(Debug)]
struct Dram {
    latency: u64,
    burst_cycles: u64,
    row_hit_latency: u64,
    row_shift: u32,
    busy_until: u64,
    open_row: Option<u64>,
}

impl Dram {
    fn new(p: HierarchyParams) -> Dram {
        Dram {
            latency: p.dram_latency,
            burst_cycles: p.dram_burst_cycles,
            row_hit_latency: p.dram_row_hit_latency,
            row_shift: p.dram_row_bytes.trailing_zeros(),
            busy_until: 0,
            open_row: None,
        }
    }

    /// Claims the bus for one burst starting no earlier than `cycle`;
    /// returns the start cycle and whether the open row matched.
    fn claim(&mut self, addr: u64, cycle: u64) -> (u64, bool) {
        let start = cycle.max(self.busy_until);
        self.busy_until = start + self.burst_cycles;
        let row = addr >> self.row_shift;
        let row_hit = self.open_row == Some(row);
        self.open_row = Some(row);
        (start, row_hit)
    }

    /// A demand read: waiting for the bus counts as bandwidth-wait.
    fn read(&mut self, addr: u64, cycle: u64, stats: &mut MemSysStats) -> u64 {
        let (start, row_hit) = self.claim(addr, cycle);
        stats.dram_bw_wait_cycles += start - cycle;
        stats.dram_reads += 1;
        if row_hit {
            stats.dram_row_hits += 1;
            start + self.row_hit_latency
        } else {
            start + self.latency
        }
    }

    /// A posted write: consumes bandwidth (delaying later reads) but the
    /// core never waits on it, so no bandwidth-wait is charged.
    fn post_write(&mut self, addr: u64, cycle: u64, stats: &mut MemSysStats) {
        let (_, row_hit) = self.claim(addr, cycle);
        if row_hit {
            stats.dram_row_hits += 1;
        }
        stats.dram_writes += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheParams;
    use crate::stats::Counters;

    fn small_uncore() -> HierarchyParams {
        HierarchyParams {
            l2: CacheParams { sets: 8, ways: 2, line_bytes: 64, mshrs: 2, hit_latency: 12 },
            dram_latency: 80,
            dram_burst_cycles: 4,
            dram_row_hit_latency: 48,
            dram_row_bytes: 2048,
        }
    }

    #[test]
    fn fixed_latency_reproduces_the_flat_model() {
        let mut b = FixedLatency::new(40);
        let mut m = MemSysStats::default();
        assert_eq!(b.refill(0x1234, 7, &mut m), Some(47));
        b.writeback(0x1234, 7, &mut m);
        assert!(!m.is_active(), "flat backend must leave mem-system counters idle");
        assert!(b.inflight().is_empty());
    }

    #[test]
    fn l2_miss_goes_to_dram_then_hits_in_l2() {
        let mut h = Hierarchy::new(small_uncore());
        let mut m = MemSysStats::default();
        // Cold miss: L2 misses, DRAM read (row miss) -> cycle + 80.
        assert_eq!(h.refill(0x4000, 0, &mut m), Some(80));
        assert_eq!((m.l2.misses, m.dram_reads), (1, 1));
        // After the refill lands, the same line hits in the L2.
        assert_eq!(h.refill(0x4000, 100, &mut m), Some(112));
        assert_eq!((m.l2.reads, m.l2.misses, m.dram_reads), (2, 1, 1));
    }

    #[test]
    fn concurrent_refills_merge_in_the_l2_mshr() {
        let mut h = Hierarchy::new(small_uncore());
        let mut m = MemSysStats::default();
        let done = h.refill(0x4000, 0, &mut m);
        // Second core misses on the same line while the refill is in
        // flight: merged, same completion, one DRAM read.
        assert_eq!(h.refill(0x4020, 3, &mut m), done);
        assert_eq!((m.l2.mshr_allocs, m.dram_reads), (1, 1));
    }

    #[test]
    fn l2_mshr_exhaustion_counts_contention_stalls() {
        let mut h = Hierarchy::new(small_uncore());
        let mut m = MemSysStats::default();
        assert!(h.refill(0x0000, 0, &mut m).is_some());
        assert!(h.refill(0x1000, 0, &mut m).is_some());
        // Both L2 MSHRs busy: the third distinct line is refused.
        assert_eq!(h.refill(0x2000, 1, &mut m), None);
        assert_eq!(m.l2_contention_stalls, 1);
        // Counters rolled back: the refused probe left no trace beyond
        // the stall counter.
        assert_eq!(m.l2.reads, 2);
        // Once a refill completes the slot frees up.
        assert!(h.refill(0x2000, 200, &mut m).is_some());
        assert_eq!(m.l2_contention_stalls, 1);
    }

    /// Satellite coverage: DRAM bandwidth saturation — back-to-back
    /// bursts serialize on the busy-until cycle and the queueing shows up
    /// in `dram_bw_wait_cycles`.
    #[test]
    fn dram_bandwidth_saturates_under_back_to_back_reads() {
        // Plenty of L2 MSHRs so only the DRAM bus limits throughput.
        let mut p = small_uncore();
        p.l2.mshrs = 8;
        let mut h = Hierarchy::new(p);
        let mut m = MemSysStats::default();
        // Three distinct lines, same 2 KiB row, issued on consecutive
        // cycles. Bursts occupy the bus for 4 cycles each: starts at
        // 0, 4, 8 -> waits of 0, 3, 6.
        let d0 = h.refill(0x0000, 0, &mut m);
        let d1 = h.refill(0x0040, 1, &mut m);
        let d2 = h.refill(0x0080, 2, &mut m);
        assert_eq!(d0, Some(80), "row miss from cold");
        assert_eq!(d1, Some(4 + 48), "row hit, delayed by the busy bus");
        assert_eq!(d2, Some(8 + 48));
        assert_eq!(m.dram_bw_wait_cycles, 3 + 6);
        assert_eq!(m.dram_row_hits, 2);
    }

    #[test]
    fn posted_writes_consume_bandwidth_without_charging_waits() {
        let mut h = Hierarchy::new(small_uncore());
        let mut m = MemSysStats::default();
        // A victim writeback to a line absent from the L2 becomes a
        // posted DRAM write...
        h.writeback(0x8000, 0, &mut m);
        assert_eq!((m.dram_writes, m.dram_bw_wait_cycles), (1, 0));
        // ...which delays a demand read right behind it.
        assert_eq!(h.refill(0x8800, 1, &mut m), Some(4 + 80));
        assert_eq!(m.dram_bw_wait_cycles, 3);
    }

    #[test]
    fn writeback_to_present_line_dirties_in_place() {
        let mut h = Hierarchy::new(small_uncore());
        let mut m = MemSysStats::default();
        h.refill(0x4000, 0, &mut m);
        h.writeback(0x4000, 100, &mut m);
        assert_eq!(m.dram_writes, 0, "present line absorbs the writeback");
        assert_eq!(m.l2.writes, 1);
    }

    #[test]
    fn cloned_hierarchy_shares_the_uncore() {
        let (mut a, mut b) = Hierarchy::shared_pair(small_uncore());
        let mut ma = MemSysStats::default();
        let mut mb = MemSysStats::default();
        a.refill(0x4000, 0, &mut ma);
        // Tag salting keeps the cores' identically placed working sets
        // distinct: core B's refill to the same program address is its own
        // miss, not a merge with (or hit on) core A's line...
        assert!(b.refill(0x4000, 2, &mut mb).is_some());
        assert_eq!(mb.l2.mshr_allocs, 1, "own refill, not a cross-core merge");
        // ...but the MSHR file is genuinely shared: both handles see both
        // in-flight refills, salt-stripped back to the program's line
        // address (0x4000 >> 6 for 64-byte lines).
        assert_eq!(a.inflight(), b.inflight());
        assert_eq!(a.inflight().len(), 2);
        assert!(a.inflight().iter().all(|&(addr, _)| addr == 0x4000 >> 6));
    }
}
