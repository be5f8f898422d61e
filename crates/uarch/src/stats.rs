//! Microarchitectural activity counters — the model's "signal trace".
//!
//! Where the paper feeds Verilator toggle traces to Cadence Joules, this
//! model accumulates per-structure activity counts that `rtl-power`
//! converts to leakage/internal/switching power. Counters are grouped by
//! the thirteen components the paper analyzes, plus the execution/decode
//! activity that forms the "rest of tile".
//!
//! Each record is declared once with [`rv_isa::record!`]: its journal
//! codec, its [`Counters::is_active`] and its content key
//! ([`Stats::fingerprint`]) all come from that one field list. Two
//! markers keep the fingerprint at the values the golden tests pin: the
//! issue queue keys its slot count once for its two per-slot vectors
//! (`key_elems`), and the memory-system block is keyed only when the
//! hierarchy backend recorded activity (`key_if_active`).

use rv_isa::codec::Codec;
pub use rv_isa::codec::Counters;

rv_isa::record! { counters:
    /// Activity of one issue queue (BOOM's collapsing queues).
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct IssueQueueStats {
        /// Dispatch writes into the queue.
        pub writes: u64 [key],
        /// Entry shifts caused by collapsing on dequeue (Key Takeaway #5).
        pub collapse_writes: u64 [key],
        /// Instructions issued (selected) from the queue.
        pub issued: u64 [key],
        /// Wakeup broadcasts received (one per completing producer × occupancy).
        pub wakeup_cam_matches: u64 [key],
        /// Sum over cycles of queue occupancy.
        pub occupancy_sum: u64 [key],
        /// Per-slot occupied-cycle counts (index = physical slot).
        pub slot_occupancy: Vec<u64> [key],
        /// Per-slot write counts (dispatch + collapse shifts). Keyed
        /// without its length: both vectors have one entry per slot, and
        /// the fingerprint has always hashed that count once.
        pub slot_writes: Vec<u64> [key_elems],
    }
}

impl IssueQueueStats {
    /// Creates stats sized for a queue with `slots` entries.
    pub fn new(slots: usize) -> IssueQueueStats {
        IssueQueueStats {
            slot_occupancy: vec![0; slots],
            slot_writes: vec![0; slots],
            ..IssueQueueStats::default()
        }
    }

    /// Mean occupancy per cycle.
    pub fn mean_occupancy(&self, cycles: u64) -> f64 {
        self.occupancy_sum as f64 / cycles.max(1) as f64
    }
}

rv_isa::record! { counters:
    /// Activity of one cache.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct CacheStats {
        /// Read (or fetch) accesses.
        pub reads: u64 [key],
        /// Write accesses.
        pub writes: u64 [key],
        /// Misses (reads + writes).
        pub misses: u64 [key],
        /// MSHR allocations.
        pub mshr_allocs: u64 [key],
        /// Sum over cycles of occupied MSHRs.
        pub mshr_occupancy_sum: u64 [key],
        /// Dirty-line writebacks to memory.
        pub writebacks: u64 [key],
    }
}

impl CacheStats {
    /// Miss rate over all accesses.
    pub fn miss_rate(&self) -> f64 {
        let acc = self.reads + self.writes;
        if acc == 0 {
            0.0
        } else {
            self.misses as f64 / acc as f64
        }
    }
}

rv_isa::record! { counters:
    /// Activity of the memory system beyond the L1s, attributed to the
    /// requesting core (each core of a dual-core tile counts its own L2
    /// accesses and DRAM traffic even though the structures are shared).
    ///
    /// All-zero under the `FixedLatency` backend; [`Stats::fingerprint`]
    /// keys these counters only when one is nonzero
    /// ([`Counters::is_active`]), so fixed-latency fingerprints are
    /// unchanged from the pre-hierarchy golden values.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct MemSysStats {
        /// Shared L2 activity caused by this core's refills and writebacks.
        pub l2: CacheStats [key],
        /// DRAM line reads (demand refills that missed the L2).
        pub dram_reads: u64 [key],
        /// DRAM line writes (posted L2 victim writebacks).
        pub dram_writes: u64 [key],
        /// DRAM accesses that hit the open row.
        pub dram_row_hits: u64 [key],
        /// Cycles demand refills spent waiting for the busy DRAM channel —
        /// the bandwidth-interference metric of a co-run.
        pub dram_bw_wait_cycles: u64 [key],
        /// L1 refills refused because the shared L2 had no free MSHR — the
        /// contention-interference metric of a co-run.
        pub l2_contention_stalls: u64 [key],
    }
}

rv_isa::record! { counters:
    /// Branch-prediction activity.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct PredictorStats {
        /// Conditional-predictor lookups (every fetched conditional branch).
        pub lookups: u64 [key],
        /// Number of predictor tables read per lookup (TAGE reads all tables).
        pub table_reads: u64 [key],
        /// Conditional-predictor training updates (at commit).
        pub updates: u64 [key],
        /// New tagged-entry allocations (TAGE only).
        pub allocations: u64 [key],
        /// BTB lookups (every fetch group).
        pub btb_lookups: u64 [key],
        /// BTB fills/updates.
        pub btb_updates: u64 [key],
        /// Return-address-stack pushes.
        pub ras_pushes: u64 [key],
        /// Return-address-stack pops.
        pub ras_pops: u64 [key],
    }
}

rv_isa::record! { counters:
    /// Renaming activity for one register class.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct RenameStats {
        /// Map-table (RAT) writes: one per renamed destination.
        pub map_writes: u64 [key],
        /// Map-table reads: one per renamed source operand.
        pub map_reads: u64 [key],
        /// Free-list pops (allocations).
        pub freelist_pops: u64 [key],
        /// Free-list pushes (commit-time frees and squash rollbacks).
        pub freelist_pushes: u64 [key],
        /// Allocation-list snapshot writes: one full snapshot per branch
        /// (Key Takeaway #3 — these occur even when no FP code runs).
        pub snapshot_writes: u64 [key],
    }
}

rv_isa::record! { counters:
    /// The complete activity record of one simulation.
    ///
    /// Field order is encoding and key order. The memory-system block
    /// comes last (it joined the record after the golden fingerprints
    /// were pinned) and is keyed only when active.
    #[derive(Clone, Debug, Default)]
    pub struct Stats {
        /// Cycles simulated.
        pub cycles: u64 [key],
        /// Instructions committed.
        pub retired: u64 [key],
        /// Conditional branches committed.
        pub branches: u64 [key],
        /// Mispredicted branches (conditional + jump-target).
        pub mispredicts: u64 [key],
        /// Instructions squashed by misprediction recovery.
        pub squashed: u64 [key],

        /// L1 instruction cache.
        pub icache: CacheStats [key],
        /// L1 data cache.
        pub dcache: CacheStats [key],

        /// Branch-prediction structures.
        pub bp: PredictorStats [key],

        /// Fetch-buffer writes (instructions inserted).
        pub fetch_buffer_writes: u64 [key],
        /// Fetch-buffer reads (instructions drained to decode).
        pub fetch_buffer_reads: u64 [key],
        /// Sum over cycles of fetch-buffer occupancy.
        pub fetch_buffer_occupancy_sum: u64 [key],

        /// Instructions decoded.
        pub decoded: u64 [key],

        /// Integer rename unit.
        pub int_rename: RenameStats [key],
        /// FP rename unit.
        pub fp_rename: RenameStats [key],

        /// Integer register file reads.
        pub irf_reads: u64 [key],
        /// Integer register file writes.
        pub irf_writes: u64 [key],
        /// FP register file reads.
        pub frf_reads: u64 [key],
        /// FP register file writes.
        pub frf_writes: u64 [key],

        /// Integer issue queue.
        pub int_iq: IssueQueueStats [key],
        /// Memory issue queue.
        pub mem_iq: IssueQueueStats [key],
        /// FP issue queue.
        pub fp_iq: IssueQueueStats [key],

        /// ROB dispatch writes.
        pub rob_writes: u64 [key],
        /// ROB commit reads.
        pub rob_reads: u64 [key],
        /// Sum over cycles of ROB occupancy.
        pub rob_occupancy_sum: u64 [key],

        /// Load-queue allocations.
        pub ldq_writes: u64 [key],
        /// Store-queue allocations.
        pub stq_writes: u64 [key],
        /// Store-queue CAM searches performed by loads.
        pub stq_searches: u64 [key],
        /// Store-to-load forwards.
        pub forwards: u64 [key],
        /// Sum over cycles of LDQ+STQ occupancy.
        pub lsu_occupancy_sum: u64 [key],

        /// Integer ALU operations executed.
        pub alu_ops: u64 [key],
        /// Integer multiply operations executed.
        pub mul_ops: u64 [key],
        /// Integer divide operations executed.
        pub div_ops: u64 [key],
        /// FP (pipelined) operations executed.
        pub fpu_ops: u64 [key],
        /// FP divide/sqrt operations executed.
        pub fdiv_ops: u64 [key],
        /// Address-generation operations executed.
        pub agu_ops: u64 [key],

        /// Cycles fast-forwarded by event-driven idle skipping rather than
        /// simulated stage-by-stage. These cycles are *included* in `cycles`
        /// and in every occupancy sum (the skip charges them analytically),
        /// so this is a pure diagnostic of how much work the skip saved.
        /// Neither encoded nor keyed: it records *how* the run
        /// was simulated, and a skip-on run must fingerprint (and journal)
        /// identically to the skip-off run it is provably equivalent to.
        pub idle_cycles_skipped: u64 [skip],

        /// Memory system past the L1s (all-zero with the fixed-latency
        /// backend, and then left out of the key).
        pub mem: MemSysStats [key_if_active],
    }
}

impl Stats {
    /// Creates a stats record sized for the given issue-queue capacities.
    pub fn new(int_slots: usize, mem_slots: usize, fp_slots: usize) -> Stats {
        Stats {
            int_iq: IssueQueueStats::new(int_slots),
            mem_iq: IssueQueueStats::new(mem_slots),
            fp_iq: IssueQueueStats::new(fp_slots),
            ..Stats::default()
        }
    }

    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.retired as f64 / self.cycles.max(1) as f64
    }

    /// Branch misprediction rate (per committed branch).
    pub fn mispredict_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.branches as f64
        }
    }

    /// The record's content key ([`Codec::content_key`]): a stable
    /// FNV-1a fingerprint over every counter that describes the simulated
    /// machine, including the per-slot issue-queue vectors.
    ///
    /// Two runs produce the same fingerprint iff their timing and power
    /// inputs are bit-identical — the regression tests pin hot-loop
    /// refactors of the detailed core against committed golden values.
    pub fn fingerprint(&self) -> u64 {
        self.content_key()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_handles_zero_cycles() {
        let s = Stats::new(4, 4, 4);
        assert_eq!(s.ipc(), 0.0);
    }

    #[test]
    fn fingerprint_ignores_idle_mem_system_only() {
        // All-zero memory-system counters must not perturb the hash (the
        // golden fixed-latency fingerprints depend on this) ...
        let a = Stats::new(4, 4, 4);
        let mut b = Stats::new(4, 4, 4);
        assert!(!b.mem.is_active());
        assert_eq!(a.fingerprint(), b.fingerprint());
        // ... while any hierarchy activity must change it.
        b.mem.dram_reads = 1;
        assert!(b.mem.is_active());
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn fingerprint_ignores_idle_cycles_skipped() {
        // The skip counter is simulation-mode metadata: two runs of the
        // same program with skip on and off differ only in it, and must
        // hash identically.
        let a = Stats::new(4, 4, 4);
        let mut b = Stats::new(4, 4, 4);
        b.idle_cycles_skipped = 12_345;
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn miss_rate_bounds() {
        let c = CacheStats { reads: 80, writes: 20, misses: 10, ..Default::default() };
        assert!((c.miss_rate() - 0.1).abs() < 1e-12);
        assert_eq!(CacheStats::default().miss_rate(), 0.0);
    }
}
