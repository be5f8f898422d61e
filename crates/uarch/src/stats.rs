//! Microarchitectural activity counters — the model's "signal trace".
//!
//! Where the paper feeds Verilator toggle traces to Cadence Joules, this
//! model accumulates per-structure activity counts that `rtl-power`
//! converts to leakage/internal/switching power. Counters are grouped by
//! the thirteen components the paper analyzes, plus the execution/decode
//! activity that forms the "rest of tile".

/// Activity of one issue queue (BOOM's collapsing queues).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IssueQueueStats {
    /// Dispatch writes into the queue.
    pub writes: u64,
    /// Entry shifts caused by collapsing on dequeue (Key Takeaway #5).
    pub collapse_writes: u64,
    /// Instructions issued (selected) from the queue.
    pub issued: u64,
    /// Wakeup broadcasts received (one per completing producer × occupancy).
    pub wakeup_cam_matches: u64,
    /// Sum over cycles of queue occupancy.
    pub occupancy_sum: u64,
    /// Per-slot occupied-cycle counts (index = physical slot).
    pub slot_occupancy: Vec<u64>,
    /// Per-slot write counts (dispatch + collapse shifts).
    pub slot_writes: Vec<u64>,
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

/// Activity of one cache.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheStats {
    /// Read (or fetch) accesses.
    pub reads: u64,
    /// Write accesses.
    pub writes: u64,
    /// Misses (reads + writes).
    pub misses: u64,
    /// MSHR allocations.
    pub mshr_allocs: u64,
    /// Sum over cycles of occupied MSHRs.
    pub mshr_occupancy_sum: u64,
    /// Dirty-line writebacks to memory.
    pub writebacks: u64,
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

/// Activity of the memory system beyond the L1s, attributed to the
/// requesting core (each core of a dual-core tile counts its own L2
/// accesses and DRAM traffic even though the structures are shared).
///
/// All-zero under the `FixedLatency` backend; [`Stats::fingerprint`]
/// folds these counters in only when some field is nonzero, so
/// fixed-latency fingerprints are unchanged from the pre-hierarchy
/// golden values.
#[derive(Clone, Copy, Debug, Default)]
pub struct MemSysStats {
    /// Shared L2 activity caused by this core's refills and writebacks.
    pub l2: CacheStats,
    /// DRAM line reads (demand refills that missed the L2).
    pub dram_reads: u64,
    /// DRAM line writes (posted L2 victim writebacks).
    pub dram_writes: u64,
    /// DRAM accesses that hit the open row.
    pub dram_row_hits: u64,
    /// Cycles demand refills spent waiting for the busy DRAM channel —
    /// the bandwidth-interference metric of a co-run.
    pub dram_bw_wait_cycles: u64,
    /// L1 refills refused because the shared L2 had no free MSHR — the
    /// contention-interference metric of a co-run.
    pub l2_contention_stalls: u64,
}

impl MemSysStats {
    /// Whether any memory-system activity was recorded (i.e. a
    /// `Hierarchy` backend actually serviced traffic).
    pub fn is_active(&self) -> bool {
        let l2 = &self.l2;
        l2.reads
            + l2.writes
            + l2.misses
            + l2.mshr_allocs
            + l2.mshr_occupancy_sum
            + l2.writebacks
            + self.dram_reads
            + self.dram_writes
            + self.dram_row_hits
            + self.dram_bw_wait_cycles
            + self.l2_contention_stalls
            != 0
    }
}

/// Branch-prediction activity.
#[derive(Clone, Copy, Debug, Default)]
pub struct PredictorStats {
    /// Conditional-predictor lookups (every fetched conditional branch).
    pub lookups: u64,
    /// Number of predictor tables read per lookup (TAGE reads all tables).
    pub table_reads: u64,
    /// Conditional-predictor training updates (at commit).
    pub updates: u64,
    /// New tagged-entry allocations (TAGE only).
    pub allocations: u64,
    /// BTB lookups (every fetch group).
    pub btb_lookups: u64,
    /// BTB fills/updates.
    pub btb_updates: u64,
    /// Return-address-stack pushes.
    pub ras_pushes: u64,
    /// Return-address-stack pops.
    pub ras_pops: u64,
}

/// Renaming activity for one register class.
#[derive(Clone, Copy, Debug, Default)]
pub struct RenameStats {
    /// Map-table (RAT) writes: one per renamed destination.
    pub map_writes: u64,
    /// Map-table reads: one per renamed source operand.
    pub map_reads: u64,
    /// Free-list pops (allocations).
    pub freelist_pops: u64,
    /// Free-list pushes (commit-time frees and squash rollbacks).
    pub freelist_pushes: u64,
    /// Allocation-list snapshot writes: one full snapshot per branch
    /// (Key Takeaway #3 — these occur even when no FP code runs).
    pub snapshot_writes: u64,
}

/// The complete activity record of one simulation.
#[derive(Clone, Debug, Default)]
pub struct Stats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Instructions committed.
    pub retired: u64,
    /// Conditional branches committed.
    pub branches: u64,
    /// Mispredicted branches (conditional + jump-target).
    pub mispredicts: u64,
    /// Instructions squashed by misprediction recovery.
    pub squashed: u64,

    /// L1 instruction cache.
    pub icache: CacheStats,
    /// L1 data cache.
    pub dcache: CacheStats,
    /// Memory system past the L1s (all-zero with the fixed-latency
    /// backend).
    pub mem: MemSysStats,

    /// Branch-prediction structures.
    pub bp: PredictorStats,

    /// Fetch-buffer writes (instructions inserted).
    pub fetch_buffer_writes: u64,
    /// Fetch-buffer reads (instructions drained to decode).
    pub fetch_buffer_reads: u64,
    /// Sum over cycles of fetch-buffer occupancy.
    pub fetch_buffer_occupancy_sum: u64,

    /// Instructions decoded.
    pub decoded: u64,

    /// Integer rename unit.
    pub int_rename: RenameStats,
    /// FP rename unit.
    pub fp_rename: RenameStats,

    /// Integer register file reads.
    pub irf_reads: u64,
    /// Integer register file writes.
    pub irf_writes: u64,
    /// FP register file reads.
    pub frf_reads: u64,
    /// FP register file writes.
    pub frf_writes: u64,

    /// Integer issue queue.
    pub int_iq: IssueQueueStats,
    /// Memory issue queue.
    pub mem_iq: IssueQueueStats,
    /// FP issue queue.
    pub fp_iq: IssueQueueStats,

    /// ROB dispatch writes.
    pub rob_writes: u64,
    /// ROB commit reads.
    pub rob_reads: u64,
    /// Sum over cycles of ROB occupancy.
    pub rob_occupancy_sum: u64,

    /// Load-queue allocations.
    pub ldq_writes: u64,
    /// Store-queue allocations.
    pub stq_writes: u64,
    /// Store-queue CAM searches performed by loads.
    pub stq_searches: u64,
    /// Store-to-load forwards.
    pub forwards: u64,
    /// Sum over cycles of LDQ+STQ occupancy.
    pub lsu_occupancy_sum: u64,

    /// Integer ALU operations executed.
    pub alu_ops: u64,
    /// Integer multiply operations executed.
    pub mul_ops: u64,
    /// Integer divide operations executed.
    pub div_ops: u64,
    /// FP (pipelined) operations executed.
    pub fpu_ops: u64,
    /// FP divide/sqrt operations executed.
    pub fdiv_ops: u64,
    /// Address-generation operations executed.
    pub agu_ops: u64,

    /// Cycles fast-forwarded by event-driven idle skipping rather than
    /// simulated stage-by-stage. These cycles are *included* in `cycles`
    /// and in every occupancy sum (the skip charges them analytically),
    /// so this is a pure diagnostic of how much work the skip saved.
    /// Excluded from [`Stats::fingerprint`]: a skip-on run must hash
    /// identically to the skip-off run it is provably equivalent to.
    pub idle_cycles_skipped: u64,
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

    /// A stable 64-bit FNV-1a fingerprint over *every* counter in the
    /// record (cycles, retired, and all per-component activity, including
    /// the per-slot issue-queue vectors), in a fixed canonical order.
    ///
    /// Two runs produce the same fingerprint iff their timing and power
    /// inputs are bit-identical — the regression tests pin hot-loop
    /// refactors of the detailed core against committed golden values.
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut put = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        put(self.cycles);
        put(self.retired);
        put(self.branches);
        put(self.mispredicts);
        put(self.squashed);
        for c in [&self.icache, &self.dcache] {
            put(c.reads);
            put(c.writes);
            put(c.misses);
            put(c.mshr_allocs);
            put(c.mshr_occupancy_sum);
            put(c.writebacks);
        }
        put(self.bp.lookups);
        put(self.bp.table_reads);
        put(self.bp.updates);
        put(self.bp.allocations);
        put(self.bp.btb_lookups);
        put(self.bp.btb_updates);
        put(self.bp.ras_pushes);
        put(self.bp.ras_pops);
        put(self.fetch_buffer_writes);
        put(self.fetch_buffer_reads);
        put(self.fetch_buffer_occupancy_sum);
        put(self.decoded);
        for r in [&self.int_rename, &self.fp_rename] {
            put(r.map_writes);
            put(r.map_reads);
            put(r.freelist_pops);
            put(r.freelist_pushes);
            put(r.snapshot_writes);
        }
        put(self.irf_reads);
        put(self.irf_writes);
        put(self.frf_reads);
        put(self.frf_writes);
        for q in [&self.int_iq, &self.mem_iq, &self.fp_iq] {
            put(q.writes);
            put(q.collapse_writes);
            put(q.issued);
            put(q.wakeup_cam_matches);
            put(q.occupancy_sum);
            put(q.slot_occupancy.len() as u64);
            for &s in &q.slot_occupancy {
                put(s);
            }
            for &s in &q.slot_writes {
                put(s);
            }
        }
        put(self.rob_writes);
        put(self.rob_reads);
        put(self.rob_occupancy_sum);
        put(self.ldq_writes);
        put(self.stq_writes);
        put(self.stq_searches);
        put(self.forwards);
        put(self.lsu_occupancy_sum);
        put(self.alu_ops);
        put(self.mul_ops);
        put(self.div_ops);
        put(self.fpu_ops);
        put(self.fdiv_ops);
        put(self.agu_ops);
        // `idle_cycles_skipped` is deliberately absent: it records *how*
        // the run was simulated, not what the simulated machine did, and
        // skip-on runs must fingerprint identically to skip-off runs.
        // Memory-system counters join the hash only when the hierarchy
        // backend produced activity: fixed-latency runs keep the exact
        // fingerprints pinned by the pre-hierarchy golden suite.
        if self.mem.is_active() {
            let l2 = &self.mem.l2;
            put(l2.reads);
            put(l2.writes);
            put(l2.misses);
            put(l2.mshr_allocs);
            put(l2.mshr_occupancy_sum);
            put(l2.writebacks);
            put(self.mem.dram_reads);
            put(self.mem.dram_writes);
            put(self.mem.dram_row_hits);
            put(self.mem.dram_bw_wait_cycles);
            put(self.mem.l2_contention_stalls);
        }
        h
    }

    /// Merges another run's counters into this one (used to accumulate
    /// across SimPoint intervals *before* weighting; weighted merges are
    /// done on power/IPC numbers instead).
    pub fn merge(&mut self, other: &Stats) {
        self.cycles += other.cycles;
        self.retired += other.retired;
        self.branches += other.branches;
        self.mispredicts += other.mispredicts;
        self.squashed += other.squashed;
        for (a, b) in [
            (&mut self.icache, &other.icache),
            (&mut self.dcache, &other.dcache),
            (&mut self.mem.l2, &other.mem.l2),
        ] {
            a.reads += b.reads;
            a.writes += b.writes;
            a.misses += b.misses;
            a.mshr_allocs += b.mshr_allocs;
            a.mshr_occupancy_sum += b.mshr_occupancy_sum;
            a.writebacks += b.writebacks;
        }
        self.mem.dram_reads += other.mem.dram_reads;
        self.mem.dram_writes += other.mem.dram_writes;
        self.mem.dram_row_hits += other.mem.dram_row_hits;
        self.mem.dram_bw_wait_cycles += other.mem.dram_bw_wait_cycles;
        self.mem.l2_contention_stalls += other.mem.l2_contention_stalls;
        let bp = &other.bp;
        self.bp.lookups += bp.lookups;
        self.bp.table_reads += bp.table_reads;
        self.bp.updates += bp.updates;
        self.bp.allocations += bp.allocations;
        self.bp.btb_lookups += bp.btb_lookups;
        self.bp.btb_updates += bp.btb_updates;
        self.bp.ras_pushes += bp.ras_pushes;
        self.bp.ras_pops += bp.ras_pops;
        self.fetch_buffer_writes += other.fetch_buffer_writes;
        self.fetch_buffer_reads += other.fetch_buffer_reads;
        self.fetch_buffer_occupancy_sum += other.fetch_buffer_occupancy_sum;
        self.decoded += other.decoded;
        for (a, b) in
            [(&mut self.int_rename, &other.int_rename), (&mut self.fp_rename, &other.fp_rename)]
        {
            a.map_writes += b.map_writes;
            a.map_reads += b.map_reads;
            a.freelist_pops += b.freelist_pops;
            a.freelist_pushes += b.freelist_pushes;
            a.snapshot_writes += b.snapshot_writes;
        }
        self.irf_reads += other.irf_reads;
        self.irf_writes += other.irf_writes;
        self.frf_reads += other.frf_reads;
        self.frf_writes += other.frf_writes;
        for (a, b) in [
            (&mut self.int_iq, &other.int_iq),
            (&mut self.mem_iq, &other.mem_iq),
            (&mut self.fp_iq, &other.fp_iq),
        ] {
            a.writes += b.writes;
            a.collapse_writes += b.collapse_writes;
            a.issued += b.issued;
            a.wakeup_cam_matches += b.wakeup_cam_matches;
            a.occupancy_sum += b.occupancy_sum;
            for (s, o) in a.slot_occupancy.iter_mut().zip(&b.slot_occupancy) {
                *s += o;
            }
            for (s, o) in a.slot_writes.iter_mut().zip(&b.slot_writes) {
                *s += o;
            }
        }
        self.rob_writes += other.rob_writes;
        self.rob_reads += other.rob_reads;
        self.rob_occupancy_sum += other.rob_occupancy_sum;
        self.ldq_writes += other.ldq_writes;
        self.stq_writes += other.stq_writes;
        self.stq_searches += other.stq_searches;
        self.forwards += other.forwards;
        self.lsu_occupancy_sum += other.lsu_occupancy_sum;
        self.alu_ops += other.alu_ops;
        self.mul_ops += other.mul_ops;
        self.div_ops += other.div_ops;
        self.fpu_ops += other.fpu_ops;
        self.fdiv_ops += other.fdiv_ops;
        self.agu_ops += other.agu_ops;
        self.idle_cycles_skipped += other.idle_cycles_skipped;
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
    fn merge_accumulates() {
        let mut a = Stats::new(4, 4, 4);
        a.cycles = 10;
        a.retired = 20;
        a.int_iq.slot_occupancy[1] = 5;
        let mut b = Stats::new(4, 4, 4);
        b.cycles = 5;
        b.retired = 7;
        b.int_iq.slot_occupancy[1] = 2;
        b.irf_reads = 3;
        a.merge(&b);
        assert_eq!(a.cycles, 15);
        assert_eq!(a.retired, 27);
        assert_eq!(a.int_iq.slot_occupancy[1], 7);
        assert_eq!(a.irf_reads, 3);
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
        // hash identically. It still merges like every other counter.
        let a = Stats::new(4, 4, 4);
        let mut b = Stats::new(4, 4, 4);
        b.idle_cycles_skipped = 12_345;
        assert_eq!(a.fingerprint(), b.fingerprint());
        let mut c = Stats::new(4, 4, 4);
        c.idle_cycles_skipped = 5;
        c.merge(&b);
        assert_eq!(c.idle_cycles_skipped, 12_350);
    }

    #[test]
    fn merge_accumulates_mem_system() {
        let mut a = Stats::new(4, 4, 4);
        a.mem.l2.reads = 3;
        a.mem.dram_bw_wait_cycles = 7;
        let mut b = Stats::new(4, 4, 4);
        b.mem.l2.reads = 2;
        b.mem.l2_contention_stalls = 5;
        a.merge(&b);
        assert_eq!(a.mem.l2.reads, 5);
        assert_eq!(a.mem.dram_bw_wait_cycles, 7);
        assert_eq!(a.mem.l2_contention_stalls, 5);
    }

    #[test]
    fn miss_rate_bounds() {
        let c = CacheStats { reads: 80, writes: 20, misses: 10, ..Default::default() };
        assert!((c.miss_rate() - 0.1).abs() < 1e-12);
        assert_eq!(CacheStats::default().miss_rate(), 0.0);
    }
}
