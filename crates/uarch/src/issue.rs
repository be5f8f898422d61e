//! BOOM's issue queues: collapsing (the shipped design) and a
//! non-collapsing alternative for the Key Takeaway #5 ablation.
//!
//! BOOM deploys age-ordered *collapsing* queues: when an entry issues, all
//! younger entries shift down to fill the hole. This maximizes utilization
//! and keeps select trivial (position = age) but pays register writes for
//! every shift — the energy-efficiency trade-off the paper highlights as
//! Key Takeaway #5 and proposes studying against other implementations.
//! [`IssueQueueKind::NonCollapsing`] is that alternative: entries stay put
//! (no shift writes) and an age-ordered select network picks the oldest
//! ready entry instead.
//!
//! The queue tracks per-slot occupancy and write counts so the power model
//! can reproduce the paper's Fig. 8 (per-slot power of Dijkstra vs Sha).
//!
//! # Layout
//!
//! Host work follows the entries a broadcast wakes and the entries select
//! takes, not the queue's occupancy; every modeled counter is still the
//! one the shift-everything hardware would produce.
//!
//! - **Slab and age index.** Entries are packed 24-byte records (seq,
//!   three one-word source tags, pending mask) at stable ids that never
//!   move while queued; ids are allocated lowest-free first, so a
//!   non-collapsing queue's id *is* its physical slot. A small `order`
//!   array of ids gives age order — insertion order for the collapsing
//!   flavour, sequence order for the non-collapsing one — and a
//!   collapsing entry's logical position is its index there, so a removal
//!   moves 4-byte ids rather than entries.
//! - **Waiter masks.** Each (physical register, class) tag keeps a
//!   bitmask of the ids with a pending source on it, so a wakeup
//!   broadcast visits only the entries it wakes. The modeled CAM energy
//!   (`wakeup_cam_matches`) is still charged for every occupied entry.
//! - **Width-bounded select.** [`IssueQueue::next_ready`] walks ready
//!   entries oldest first, one at a time, so the issue stage stops as
//!   soon as its ports are used up; a cached ready count lets it skip
//!   queues with nothing to select.
//! - **Deferred per-slot counters.** A collapsing queue's residency is a
//!   function of occupancy alone, so each cycle adds to a
//!   cycles-at-occupancy histogram, and collapse shifts go into a
//!   difference array over `slot_writes`. Both reach [`IssueQueueStats`]
//!   only through [`IssueQueue::flush_stats`] ([`Core::run`](crate::Core::run)
//!   flushes before it returns, [`Core::step_cycle`](crate::Core::step_cycle)
//!   once the program has exited). A non-collapsing queue charges each
//!   occupied slot's residency directly every cycle, and every scalar
//!   counter is charged immediately.

use crate::regfile::PReg;
use crate::rob::SrcPhys;
use crate::stats::IssueQueueStats;

/// A renamed source packed into one word: 0 = no source, otherwise a
/// valid bit, a register-class bit, and the physical register index —
/// so the wakeup CAM compares one integer per source slot.
const SRC_NONE: u32 = 0;

#[inline]
fn pack_src(src: Option<SrcPhys>) -> u32 {
    match src {
        None => SRC_NONE,
        Some(SrcPhys::Int(p)) => 0x8000_0000 | u32::from(p),
        Some(SrcPhys::Fp(p)) => 0x8001_0000 | u32::from(p),
    }
}

#[inline]
fn unpack_src(tag: u32) -> Option<SrcPhys> {
    if tag == SRC_NONE {
        None
    } else if tag & 0x1_0000 != 0 {
        Some(SrcPhys::Fp((tag & 0xFFFF) as PReg))
    } else {
        Some(SrcPhys::Int((tag & 0xFFFF) as PReg))
    }
}

/// Row of a packed (non-empty) tag in the waiter table: two rows per
/// physical register index, one per register class.
#[inline]
fn tag_row(tag: u32) -> usize {
    (((tag & 0xFFFF) << 1) | ((tag >> 16) & 1)) as usize
}

/// One issue-queue entry: a uop's identity, its renamed sources as CAM
/// tags, and which of them are still outstanding.
#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    seq: u64,
    tags: [u32; 3],
    pending: u8,
}

/// Which issue-queue implementation a core uses (Key Takeaway #5 ablation).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum IssueQueueKind {
    /// BOOM's age-compacting queue (entries shift on every dequeue).
    #[default]
    Collapsing,
    /// Entries keep their slot; age is tracked explicitly and selection
    /// uses an age-ordered picker. No shift writes, bigger select logic.
    NonCollapsing,
}

rv_isa::tags!(IssueQueueKind { Collapsing = 0, NonCollapsing = 1 });

/// A select pass over one queue: where [`IssueQueue::next_ready`]
/// resumes, and how many ready entries lie at or beyond it. Valid until
/// the queue is next mutated.
#[derive(Clone, Copy, Debug)]
pub struct Select {
    pos: usize,
    left: usize,
}

/// An issue queue holding uop sequence numbers.
///
/// Both implementations expose the same interface: [`IssueQueue::candidates`]
/// yields `(slot, seq)` pairs oldest-first — logical age positions for the
/// collapsing flavour, physical slots for the non-collapsing one. Entries
/// are selected ([`IssueQueue::next_ready`]) and removed
/// ([`IssueQueue::issue`]) by age position, an index into `candidates()`,
/// for both flavours.
#[derive(Clone, Debug)]
pub struct IssueQueue {
    kind: IssueQueueKind,
    capacity: usize,
    /// Entries by stable id (`capacity` of them).
    slots: Vec<Slot>,
    /// Free ids, one bit each (set = free).
    free: Vec<u64>,
    /// Queued ids, oldest first.
    order: Vec<u32>,
    /// Queued entries whose pending mask is clear.
    ready: usize,
    /// Per-tag waiter masks: `words` words per [`tag_row`], holding the
    /// ids with a pending source on that tag; grown on first use.
    waiters: Vec<u64>,
    words: usize,
    /// Collapsing: cycles spent at each occupancy `0..=capacity` since
    /// the last flush.
    cycles_at: Vec<u64>,
    /// Collapsing: unflushed collapse shifts as a (wrapping) difference
    /// array over `slot_writes`.
    shift_diff: Vec<u64>,
}

impl IssueQueue {
    /// Creates a queue with `capacity` slots.
    pub fn new(capacity: usize) -> IssueQueue {
        IssueQueue::with_kind(IssueQueueKind::Collapsing, capacity)
    }

    /// Creates a queue of the given implementation kind.
    pub fn with_kind(kind: IssueQueueKind, capacity: usize) -> IssueQueue {
        let words = capacity.div_ceil(64);
        let mut free = vec![0u64; words];
        for id in 0..capacity {
            free[id / 64] |= 1 << (id % 64);
        }
        let collapsing = kind == IssueQueueKind::Collapsing;
        let per_slot = |on: bool, n: usize| if on { vec![0; n] } else { Vec::new() };
        IssueQueue {
            kind,
            capacity,
            slots: vec![Slot::default(); capacity],
            free,
            order: Vec::with_capacity(capacity),
            ready: 0,
            waiters: Vec::new(),
            words,
            cycles_at: per_slot(collapsing, capacity + 1),
            shift_diff: per_slot(collapsing, capacity),
        }
    }

    /// The implementation flavour.
    pub fn kind(&self) -> IssueQueueKind {
        self.kind
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when no entries are waiting.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// True when no slot is free.
    pub fn is_full(&self) -> bool {
        self.order.len() >= self.capacity
    }

    /// True when at least one occupied entry has a clear pending mask.
    #[inline]
    pub fn has_ready(&self) -> bool {
        self.ready != 0
    }

    /// Queue capacity in slots.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The waiter mask of `tag`, growing the table to cover it.
    fn waiters_mut(&mut self, tag: u32) -> &mut [u64] {
        let at = tag_row(tag) * self.words;
        if self.waiters.len() < at + self.words {
            self.waiters.resize(at + self.words, 0);
        }
        &mut self.waiters[at..at + self.words]
    }

    /// Inserts a dispatched uop with its renamed sources and the pending
    /// bitmask computed against the busy table at dispatch (bit `i` set ⇒
    /// source slot `i` is still waiting for its value).
    ///
    /// # Panics
    ///
    /// Panics if the queue is full (dispatch must check [`IssueQueue::is_full`]).
    pub fn insert(
        &mut self,
        seq: u64,
        srcs: [Option<SrcPhys>; 3],
        pending: u8,
        stats: &mut IssueQueueStats,
    ) {
        assert!(!self.is_full(), "issue queue overflow");
        let w = self.free.iter().position(|&w| w != 0).expect("a free id exists when not full");
        let id = w * 64 + self.free[w].trailing_zeros() as usize;
        self.free[w] &= self.free[w] - 1;
        let slot =
            Slot { seq, tags: [pack_src(srcs[0]), pack_src(srcs[1]), pack_src(srcs[2])], pending };
        self.slots[id] = slot;
        for (i, &tag) in slot.tags.iter().enumerate() {
            if pending & (1 << i) != 0 && tag != SRC_NONE {
                self.waiters_mut(tag)[id / 64] |= 1 << (id % 64);
            }
        }
        let pos = match self.kind {
            IssueQueueKind::Collapsing => {
                self.order.push(id as u32);
                self.order.len() - 1
            }
            IssueQueueKind::NonCollapsing => {
                // Dispatch order is seq order, so this is almost always
                // an append.
                let at = match self.order.last() {
                    Some(&last) if self.slots[last as usize].seq > seq => {
                        self.order.partition_point(|&o| self.slots[o as usize].seq <= seq)
                    }
                    _ => self.order.len(),
                };
                self.order.insert(at, id as u32);
                id
            }
        };
        self.ready += usize::from(pending == 0);
        stats.writes += 1;
        stats.slot_writes[pos] += 1;
    }

    /// Waiting uops as `(slot, seq)` pairs, oldest first (allocates;
    /// diagnostics/tests only).
    pub fn candidates(&self) -> Vec<(usize, u64)> {
        let seq = |id: u32| self.slots[id as usize].seq;
        match self.kind {
            IssueQueueKind::Collapsing => {
                self.order.iter().enumerate().map(|(i, &id)| (i, seq(id))).collect()
            }
            IssueQueueKind::NonCollapsing => {
                self.order.iter().map(|&id| (id as usize, seq(id))).collect()
            }
        }
    }

    /// Starts a select pass (see [`IssueQueue::next_ready`]).
    pub fn select(&self) -> Select {
        Select { pos: 0, left: self.ready }
    }

    /// The next *ready* entry (pending mask clear) of a select pass, as
    /// `(age position, seq)`, oldest first. Readiness was already resolved
    /// by wakeup broadcasts, so the walk reads only this queue, and it
    /// ends at the youngest ready entry.
    #[inline]
    pub fn next_ready(&self, sel: &mut Select) -> Option<(usize, u64)> {
        if sel.left == 0 {
            return None;
        }
        while let Some(&id) = self.order.get(sel.pos) {
            sel.pos += 1;
            let s = &self.slots[id as usize];
            if s.pending == 0 {
                sel.left -= 1;
                return Some((sel.pos - 1, s.seq));
            }
        }
        None
    }

    /// Removes the issued entries at the given age positions (ascending,
    /// as [`IssueQueue::next_ready`] returns them), charging collapse
    /// shifts exactly as the shift-everything hardware would pay them.
    ///
    /// # Panics
    ///
    /// Panics if a position is not occupied.
    pub fn issue(&mut self, positions: &[usize], stats: &mut IssueQueueStats) {
        debug_assert!(positions.windows(2).all(|w| w[0] < w[1]));
        let Some(&first) = positions.first() else { return };
        let n = self.order.len();
        assert!(positions[positions.len() - 1] < n, "removing an empty slot");
        stats.issued += positions.len() as u64;
        if self.kind == IssueQueueKind::Collapsing {
            // Modeled energy, youngest removal first: the entries
            // logically above each hole shift down one slot.
            for (k, &pos) in positions.iter().rev().enumerate() {
                let top = n - 1 - k;
                stats.collapse_writes += (top - pos) as u64;
                if pos < top {
                    self.shift_diff[pos] = self.shift_diff[pos].wrapping_add(1);
                    self.shift_diff[top] = self.shift_diff[top].wrapping_sub(1);
                }
            }
        }
        // Close the holes: each run of survivors moves down as a block.
        let mut keep = first;
        for (j, &pos) in positions.iter().enumerate() {
            self.leave(self.order[pos] as usize);
            let end = positions.get(j + 1).copied().unwrap_or(n);
            self.order.copy_within(pos + 1..end, keep);
            keep += end - pos - 1;
        }
        self.order.truncate(keep);
    }

    /// Bookkeeping for an entry leaving the queue (already unlinked from
    /// `order`, or about to be).
    fn leave(&mut self, id: usize) {
        let s = self.slots[id];
        if s.pending == 0 {
            self.ready -= 1;
        } else {
            for (i, &tag) in s.tags.iter().enumerate() {
                if s.pending & (1 << i) != 0 && tag != SRC_NONE {
                    self.waiters_mut(tag)[id / 64] &= !(1 << (id % 64));
                }
            }
        }
        self.free[id / 64] |= 1 << (id % 64);
    }

    /// Drops every entry younger than (strictly after) `seq`; returns the
    /// number squashed. Squashes invalidate in place (no collapse energy).
    pub fn squash_after(&mut self, seq: u64) -> usize {
        let n = self.order.len();
        let mut keep = 0;
        for i in 0..n {
            let id = self.order[i];
            if self.slots[id as usize].seq > seq {
                self.leave(id as usize);
            } else {
                self.order[keep] = id;
                keep += 1;
            }
        }
        self.order.truncate(keep);
        n - keep
    }

    /// Per-cycle bookkeeping: the occupancy sum and per-slot residency
    /// (deferred to [`IssueQueue::flush_stats`] for a collapsing queue).
    #[inline]
    pub fn tick(&mut self, stats: &mut IssueQueueStats) {
        self.charge_idle(1, stats);
    }

    /// Charges `cycles` consecutive idle ticks at once — exactly what
    /// [`IssueQueue::tick`] would accumulate over `cycles` calls with the
    /// queue untouched in between. Used by the core's event-driven idle
    /// skip, which proves no insert/issue/wakeup can occur in the window
    /// before fast-forwarding the clock.
    #[inline]
    pub fn charge_idle(&mut self, cycles: u64, stats: &mut IssueQueueStats) {
        let occupied = self.order.len();
        stats.occupancy_sum += cycles * occupied as u64;
        match self.kind {
            IssueQueueKind::Collapsing => self.cycles_at[occupied] += cycles,
            IssueQueueKind::NonCollapsing => {
                for &id in &self.order {
                    stats.slot_occupancy[id as usize] += cycles;
                }
            }
        }
    }

    /// Folds a collapsing queue's deferred per-slot counters
    /// (`slot_occupancy`, and the collapse part of `slot_writes`) into
    /// `stats`. Afterwards `stats` holds exactly what charging every cycle
    /// and shift eagerly would. A non-collapsing queue defers nothing.
    pub fn flush_stats(&mut self, stats: &mut IssueQueueStats) {
        if self.kind == IssueQueueKind::NonCollapsing {
            return;
        }
        // Slot `i` was occupied in every cycle the queue held more than
        // `i` entries.
        let mut above = 0;
        for occ in (1..=self.capacity).rev() {
            above += std::mem::take(&mut self.cycles_at[occ]);
            stats.slot_occupancy[occ - 1] += above;
        }
        self.cycles_at[0] = 0;
        let mut shifts = 0u64;
        for (w, d) in stats.slot_writes.iter_mut().zip(&mut self.shift_diff) {
            shifts = shifts.wrapping_add(std::mem::take(d));
            *w += shifts;
        }
    }

    /// Drops the deferred per-slot counters unflushed (a stats reset).
    pub fn discard_deferred(&mut self) {
        self.cycles_at.fill(0);
        self.shift_diff.fill(0);
    }

    /// Records a wakeup broadcast: every waiting entry compares its source
    /// tags against the completing destination (CAM match energy), and
    /// matching entries clear the corresponding pending bit — the
    /// scoreboard update that replaces per-cycle readiness polling. Only
    /// the tag's waiters are visited.
    pub fn wakeup_broadcast(&mut self, written: SrcPhys, stats: &mut IssueQueueStats) {
        stats.wakeup_cam_matches += self.order.len() as u64;
        if self.ready == self.order.len() {
            return; // nothing is waiting on any source
        }
        let target = pack_src(Some(written));
        let at = tag_row(target) * self.words;
        let Some(mask) = self.waiters.get_mut(at..at + self.words) else { return };
        for (w, bits) in mask.iter_mut().enumerate() {
            let mut m = std::mem::take(bits);
            while m != 0 {
                let s = &mut self.slots[w * 64 + m.trailing_zeros() as usize];
                m &= m - 1;
                let hit = u8::from(s.tags[0] == target)
                    | (u8::from(s.tags[1] == target) << 1)
                    | (u8::from(s.tags[2] == target) << 2);
                s.pending &= !hit;
                self.ready += usize::from(s.pending == 0);
            }
        }
    }

    /// The renamed sources of the entry at `slot` (diagnostics/tests;
    /// logical position for the collapsing flavour).
    pub fn slot_srcs(&self, slot: usize) -> [Option<SrcPhys>; 3] {
        let id = match self.kind {
            IssueQueueKind::Collapsing => self.order[slot] as usize,
            IssueQueueKind::NonCollapsing => slot,
        };
        let t = &self.slots[id].tags;
        [unpack_src(t[0]), unpack_src(t[1]), unpack_src(t[2])]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queue_and_stats(cap: usize) -> (IssueQueue, IssueQueueStats) {
        (IssueQueue::new(cap), IssueQueueStats::new(cap))
    }

    fn seqs(q: &IssueQueue) -> Vec<u64> {
        q.candidates().iter().map(|&(_, s)| s).collect()
    }

    /// Insert with no sources (ready immediately) — most structural tests
    /// don't care about the wakeup scoreboard.
    fn ins(q: &mut IssueQueue, seq: u64, s: &mut IssueQueueStats) {
        q.insert(seq, [None; 3], 0, s);
    }

    fn ready_seqs(q: &IssueQueue) -> Vec<u64> {
        let mut sel = q.select();
        std::iter::from_fn(|| q.next_ready(&mut sel)).map(|(_, s)| s).collect()
    }

    #[test]
    fn insert_and_age_order() {
        let (mut q, mut s) = queue_and_stats(4);
        ins(&mut q, 10, &mut s);
        ins(&mut q, 11, &mut s);
        ins(&mut q, 12, &mut s);
        assert_eq!(seqs(&q), vec![10, 11, 12]);
        assert_eq!(s.writes, 3);
        assert_eq!(s.slot_writes, vec![1, 1, 1, 0]);
    }

    #[test]
    fn remove_collapses_and_counts_shifts() {
        let (mut q, mut s) = queue_and_stats(4);
        for seq in 0..4 {
            ins(&mut q, seq, &mut s);
        }
        // Issue the oldest: 3 entries shift down.
        q.issue(&[0], &mut s);
        q.flush_stats(&mut s);
        assert_eq!(seqs(&q), vec![1, 2, 3]);
        assert_eq!(s.collapse_writes, 3);
        // slots 0..=2 each received a shifted entry
        assert_eq!(&s.slot_writes[..3], &[2, 2, 2]);
    }

    #[test]
    fn remove_multiple_slots() {
        let (mut q, mut s) = queue_and_stats(8);
        for seq in 0..6 {
            ins(&mut q, seq, &mut s);
        }
        q.issue(&[1, 4], &mut s);
        assert_eq!(seqs(&q), vec![0, 2, 3, 5]);
        assert_eq!(s.issued, 2);
    }

    #[test]
    fn ring_wraps_across_sustained_insert_remove() {
        let (mut q, mut s) = queue_and_stats(4);
        // Far more operations than the capacity, always removing the
        // oldest: every id is freed and reused many times over.
        for seq in 0..64u64 {
            ins(&mut q, seq, &mut s);
            if q.len() == 3 {
                let head = q.candidates()[0];
                assert_eq!(head.1, seq - 2, "oldest survives in age order");
                q.issue(&[head.0], &mut s);
            }
        }
        assert_eq!(seqs(&q), vec![62, 63]);
    }

    #[test]
    fn squash_drops_younger_only() {
        let (mut q, mut s) = queue_and_stats(8);
        for seq in [5, 7, 9, 11] {
            ins(&mut q, seq, &mut s);
        }
        let n = q.squash_after(7);
        assert_eq!(n, 2);
        assert_eq!(seqs(&q), vec![5, 7]);
    }

    #[test]
    fn squash_compacts_out_of_order_entries() {
        let (mut q, mut s) = queue_and_stats(8);
        for seq in [4, 9, 2, 7] {
            ins(&mut q, seq, &mut s);
        }
        let n = q.squash_after(4);
        assert_eq!(n, 2);
        assert_eq!(seqs(&q), vec![4, 2], "insertion order kept for survivors");
    }

    #[test]
    fn tick_accumulates_per_slot_occupancy() {
        let (mut q, mut s) = queue_and_stats(4);
        ins(&mut q, 1, &mut s);
        ins(&mut q, 2, &mut s);
        q.tick(&mut s);
        q.tick(&mut s);
        q.flush_stats(&mut s);
        assert_eq!(s.occupancy_sum, 4);
        assert_eq!(s.slot_occupancy, vec![2, 2, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let (mut q, mut s) = queue_and_stats(1);
        ins(&mut q, 1, &mut s);
        ins(&mut q, 2, &mut s);
    }

    // ---- non-collapsing flavour ------------------------------------

    fn nc_queue(cap: usize) -> (IssueQueue, IssueQueueStats) {
        (IssueQueue::with_kind(IssueQueueKind::NonCollapsing, cap), IssueQueueStats::new(cap))
    }

    #[test]
    fn non_collapsing_reuses_freed_slots_without_shifts() {
        let (mut q, mut s) = nc_queue(4);
        for seq in 0..4 {
            ins(&mut q, seq, &mut s);
        }
        q.issue(&[1], &mut s); // age position 1: seq 1 in slot 1
        assert_eq!(s.collapse_writes, 0, "no shifts in a non-collapsing queue");
        // Next insert lands in the freed slot 1.
        ins(&mut q, 9, &mut s);
        assert_eq!(s.slot_writes[1], 2);
        // Age order is by sequence, not position.
        assert_eq!(seqs(&q), vec![0, 2, 3, 9]);
        assert_eq!(q.candidates()[3], (1, 9));
    }

    #[test]
    fn non_collapsing_squash_and_occupancy() {
        let (mut q, mut s) = nc_queue(4);
        for seq in [3, 8, 5, 10] {
            ins(&mut q, seq, &mut s);
        }
        assert_eq!(q.squash_after(5), 2);
        assert_eq!(q.len(), 2);
        q.tick(&mut s);
        assert_eq!(s.occupancy_sum, 2);
        // Slots 1 and 3 (which held 8 and 10) are free again.
        ins(&mut q, 11, &mut s);
        ins(&mut q, 12, &mut s);
        assert!(q.is_full());
    }

    #[test]
    fn both_kinds_agree_on_age_order() {
        let (mut c, mut cs) = queue_and_stats(8);
        let (mut n, mut ns) = nc_queue(8);
        for seq in [4, 1, 7, 2] {
            // (Sequence numbers arrive in dispatch order in the core, but
            // the queue must not depend on that.)
            ins(&mut c, seq, &mut cs);
            ins(&mut n, seq, &mut ns);
        }
        // Collapsing preserves insertion order; non-collapsing sorts by
        // seq. For in-order dispatch these coincide; assert the
        // non-collapsing one is truly age-sorted.
        let ages: Vec<u64> = n.candidates().iter().map(|&(_, s)| s).collect();
        assert_eq!(ages, vec![1, 2, 4, 7]);
    }

    // ---- wakeup scoreboard ------------------------------------------

    #[test]
    fn pending_entries_wake_on_matching_broadcast() {
        let (mut q, mut s) = queue_and_stats(4);
        q.insert(1, [Some(SrcPhys::Int(40)), Some(SrcPhys::Int(41)), None], 0b11, &mut s);
        ins(&mut q, 2, &mut s);
        assert_eq!(ready_seqs(&q), vec![2], "two-source entry starts pending");
        q.wakeup_broadcast(SrcPhys::Int(40), &mut s);
        assert_eq!(ready_seqs(&q), vec![2], "one source still outstanding");
        q.wakeup_broadcast(SrcPhys::Int(41), &mut s);
        assert_eq!(ready_seqs(&q), vec![1, 2], "both woken, age order kept");
        assert_eq!(s.wakeup_cam_matches, 4, "each broadcast CAMs all occupied entries");
    }

    #[test]
    fn broadcast_distinguishes_register_classes() {
        let (mut q, mut s) = queue_and_stats(4);
        q.insert(1, [Some(SrcPhys::Fp(40)), None, None], 0b1, &mut s);
        q.wakeup_broadcast(SrcPhys::Int(40), &mut s);
        assert!(ready_seqs(&q).is_empty(), "int broadcast must not wake an fp source");
        q.wakeup_broadcast(SrcPhys::Fp(40), &mut s);
        assert_eq!(ready_seqs(&q), vec![1]);
    }

    #[test]
    fn one_broadcast_clears_every_matching_slot() {
        let (mut q, mut s) = queue_and_stats(4);
        // Same preg feeds both sources (e.g. `add a0, t0, t0`).
        q.insert(3, [Some(SrcPhys::Int(50)), Some(SrcPhys::Int(50)), None], 0b11, &mut s);
        q.wakeup_broadcast(SrcPhys::Int(50), &mut s);
        assert_eq!(ready_seqs(&q), vec![3]);
    }

    #[test]
    fn ready_candidates_sorted_by_age_in_non_collapsing() {
        let (mut q, mut s) = nc_queue(4);
        for seq in [4, 1, 7, 2] {
            ins(&mut q, seq, &mut s);
        }
        q.issue(&[0], &mut s); // oldest, seq 1: frees slot 1
        q.insert(9, [Some(SrcPhys::Int(60)), None, None], 0b1, &mut s); // lands in slot 1
        assert_eq!(ready_seqs(&q), vec![2, 4, 7], "pending entry excluded");
        q.wakeup_broadcast(SrcPhys::Int(60), &mut s);
        assert_eq!(ready_seqs(&q), vec![2, 4, 7, 9], "age-sorted after wakeup");
    }

    #[test]
    fn src_tags_round_trip_through_packing() {
        let (mut q, mut s) = queue_and_stats(4);
        let srcs = [Some(SrcPhys::Int(7)), Some(SrcPhys::Fp(7)), None];
        q.insert(1, srcs, 0b11, &mut s);
        assert_eq!(q.slot_srcs(0), srcs);
    }

    #[test]
    fn ready_count_tracks_squash_and_removal() {
        let (mut q, mut s) = queue_and_stats(8);
        ins(&mut q, 1, &mut s);
        q.insert(2, [Some(SrcPhys::Int(40)), None, None], 0b1, &mut s);
        ins(&mut q, 3, &mut s);
        assert!(q.has_ready());
        q.issue(&[0, 2], &mut s); // both ready entries issue
        assert!(!q.has_ready(), "only the pending entry remains");
        q.wakeup_broadcast(SrcPhys::Int(40), &mut s);
        assert!(q.has_ready());
        q.squash_after(0);
        assert!(!q.has_ready());
        assert!(q.is_empty());
    }
}
