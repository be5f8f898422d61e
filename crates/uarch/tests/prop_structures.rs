//! Property-based tests for the microarchitectural structures: predictors
//! and caches must be total (never panic) and well-behaved for arbitrary
//! inputs, and the issue-queue flavours must agree on scheduling order.

use boom_uarch::cache::{Access, Cache};
use boom_uarch::config::CacheParams;
use boom_uarch::issue::{IssueQueue, IssueQueueKind};
use boom_uarch::predictor::{BranchKind, Btb, CondPredictor, Ras};
use boom_uarch::rob::SrcPhys;
use boom_uarch::stats::{IssueQueueStats, MemSysStats, PredictorStats};
use boom_uarch::{FixedLatency, PredictorKind};
use proptest::prelude::*;

proptest! {
    /// Predictors accept any pc/history and their update path is total.
    #[test]
    fn predictors_are_total(
        pcs in proptest::collection::vec((0u64..1 << 40, any::<bool>()), 1..200),
        ghist_seed in any::<u128>(),
        kind_sel in any::<bool>(),
        shift in 0u32..2,
    ) {
        let kind = if kind_sel { PredictorKind::Tage } else { PredictorKind::Gshare };
        let mut p = CondPredictor::new(kind, shift);
        let mut stats = PredictorStats::default();
        let mut ghist = ghist_seed;
        for &(pc, taken) in &pcs {
            let (pred, meta) = p.predict(pc, ghist, &mut stats);
            p.update(pc, ghist, pred, taken, &meta, &mut stats);
            ghist = (ghist << 1) | taken as u128;
        }
        prop_assert_eq!(stats.lookups, pcs.len() as u64);
        prop_assert_eq!(stats.updates, pcs.len() as u64);
    }

    /// A trained predictor converges on any fixed periodic pattern with a
    /// period it can observe in its history.
    #[test]
    fn tage_learns_any_short_period(period in 1usize..5, reps in 60usize..120) {
        let pattern: Vec<bool> = (0..period).map(|i| i % 2 == 0).collect();
        let mut p = CondPredictor::new(PredictorKind::Tage, 0);
        let mut stats = PredictorStats::default();
        let mut ghist = 0u128;
        let mut correct = 0u32;
        let mut total = 0u32;
        for rep in 0..reps {
            for &taken in &pattern {
                let (pred, meta) = p.predict(0x1000, ghist, &mut stats);
                if rep > reps / 2 {
                    total += 1;
                    correct += (pred == taken) as u32;
                }
                p.update(0x1000, ghist, pred, taken, &meta, &mut stats);
                ghist = (ghist << 1) | taken as u128;
            }
        }
        prop_assert!(correct as f64 >= 0.9 * total as f64, "{correct}/{total}");
    }

    /// BTB lookups after an update return the installed target until evicted.
    #[test]
    fn btb_returns_what_was_installed(
        pcs in proptest::collection::vec(0u64..1 << 20, 1..50),
    ) {
        let mut btb = Btb::new(64, 2);
        let mut stats = PredictorStats::default();
        for &pc in &pcs {
            btb.update(pc, pc ^ 0xF00D, BranchKind::Jump, &mut stats);
            let hit = btb.lookup(pc, &mut stats);
            prop_assert_eq!(hit, Some((pc ^ 0xF00D, BranchKind::Jump)));
        }
    }

    /// RAS never exceeds capacity and pops in LIFO order for balanced use.
    #[test]
    fn ras_lifo_up_to_capacity(addrs in proptest::collection::vec(any::<u64>(), 1..20)) {
        let mut ras = Ras::new(8);
        let mut stats = PredictorStats::default();
        for &a in &addrs {
            ras.push(a, &mut stats);
            prop_assert!(ras.depth() <= 8);
        }
        let keep = addrs.len().min(8);
        for &expect in addrs[addrs.len() - keep..].iter().rev() {
            prop_assert_eq!(ras.pop(&mut stats), Some(expect));
        }
    }

    /// Cache accesses are total and a repeated access to the same line
    /// after the refill window is always a hit.
    #[test]
    fn cache_hit_after_refill(addrs in proptest::collection::vec(0u64..1 << 30, 1..100)) {
        let params = CacheParams { sets: 16, ways: 2, line_bytes: 64, mshrs: 4, hit_latency: 2 };
        let mut cache = Cache::new(params);
        let mut backend = FixedLatency::new(40);
        let mut mem = MemSysStats::default();
        let mut stats = boom_uarch::stats::CacheStats::default();
        let mut cycle = 0u64;
        for &addr in &addrs {
            loop {
                match cache.access(addr, false, cycle, &mut stats, &mut backend, &mut mem) {
                    Access::Blocked => {
                        cycle += 1;
                        cache.tick(cycle, &mut stats);
                    }
                    acc => {
                        cycle = acc.ready_at().unwrap() + 1;
                        cache.tick(cycle, &mut stats);
                        break;
                    }
                }
            }
            // Immediately re-access: must be a hit now.
            match cache.access(addr, false, cycle, &mut stats, &mut backend, &mut mem) {
                Access::Hit { .. } => {}
                other => prop_assert!(false, "expected hit, got {other:?}"),
            }
        }
    }

    /// Both issue-queue flavours dequeue in identical (age) order for any
    /// interleaving of inserts and oldest-first removals.
    #[test]
    fn issue_queue_kinds_agree(ops in proptest::collection::vec(any::<bool>(), 1..120)) {
        let cap = 8;
        let mut coll = IssueQueue::with_kind(IssueQueueKind::Collapsing, cap);
        let mut nc = IssueQueue::with_kind(IssueQueueKind::NonCollapsing, cap);
        let mut cs = IssueQueueStats::new(cap);
        let mut ns = IssueQueueStats::new(cap);
        let mut next_seq = 0u64;
        for &insert in &ops {
            if insert && !coll.is_full() {
                coll.insert(next_seq, [None; 3], 0, &mut cs);
                nc.insert(next_seq, [None; 3], 0, &mut ns);
                next_seq += 1;
            } else if !coll.is_empty() {
                let c_head = coll.candidates()[0];
                let n_head = nc.candidates()[0];
                prop_assert_eq!(c_head.1, n_head.1, "age order diverged");
                coll.issue(&[0], &mut cs);
                nc.issue(&[0], &mut ns);
            }
            prop_assert_eq!(coll.len(), nc.len());
        }
        // Non-collapsing never pays shift writes; collapsing often does.
        prop_assert_eq!(ns.collapse_writes, 0);
    }
}

/// A plain scan-based issue queue with the shift-everything semantics:
/// every counter is charged eagerly, every broadcast compares every
/// entry, and select scans the whole queue. [`IssueQueue`] must match it
/// operation for operation.
struct RefQueue {
    collapsing: bool,
    /// Collapsing: entries in age order. Non-collapsing: `capacity` fixed
    /// slots.
    slots: Vec<Option<RefEntry>>,
    stats: IssueQueueStats,
}

#[derive(Clone, Copy, Debug)]
struct RefEntry {
    seq: u64,
    srcs: [Option<SrcPhys>; 3],
    pending: u8,
}

impl RefQueue {
    fn new(kind: IssueQueueKind, cap: usize) -> RefQueue {
        let collapsing = kind == IssueQueueKind::Collapsing;
        let slots = if collapsing { Vec::new() } else { vec![None; cap] };
        RefQueue { collapsing, slots, stats: IssueQueueStats::new(cap) }
    }

    fn len(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    fn insert(&mut self, seq: u64, srcs: [Option<SrcPhys>; 3], pending: u8) {
        let e = Some(RefEntry { seq, srcs, pending });
        let slot = if self.collapsing {
            self.slots.push(e);
            self.slots.len() - 1
        } else {
            let i = self.slots.iter().position(Option::is_none).expect("not full");
            self.slots[i] = e;
            i
        };
        self.stats.writes += 1;
        self.stats.slot_writes[slot] += 1;
    }

    /// `(slot, seq, pending)` oldest first.
    fn entries(&self) -> Vec<(usize, u64, u8)> {
        let mut out: Vec<_> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.map(|e| (i, e.seq, e.pending)))
            .collect();
        if !self.collapsing {
            out.sort_by_key(|&(_, seq, _)| seq);
        }
        out
    }

    fn candidates(&self) -> Vec<(usize, u64)> {
        self.entries().into_iter().map(|(slot, seq, _)| (slot, seq)).collect()
    }

    /// Ready entries as `(age position, seq)`, oldest first.
    fn ready(&self) -> Vec<(usize, u64)> {
        let entries = self.entries().into_iter().enumerate();
        entries.filter(|(_, e)| e.2 == 0).map(|(pos, e)| (pos, e.1)).collect()
    }

    fn wakeup(&mut self, written: SrcPhys) {
        self.stats.wakeup_cam_matches += self.len() as u64;
        for e in self.slots.iter_mut().flatten() {
            for (i, src) in e.srcs.iter().enumerate() {
                if *src == Some(written) {
                    e.pending &= !(1 << i);
                }
            }
        }
    }

    /// Removes the entries at the given (ascending) slots.
    fn remove(&mut self, slots: &[usize]) {
        for &slot in slots.iter().rev() {
            self.stats.issued += 1;
            if self.collapsing {
                let n = self.slots.len();
                self.stats.collapse_writes += (n - 1 - slot) as u64;
                for w in &mut self.stats.slot_writes[slot..n - 1] {
                    *w += 1;
                }
                self.slots.remove(slot);
            } else {
                assert!(self.slots[slot].take().is_some());
            }
        }
    }

    fn squash_after(&mut self, seq: u64) -> usize {
        let mut squashed = 0;
        for e in &mut self.slots {
            if e.is_some_and(|e| e.seq > seq) {
                *e = None;
                squashed += 1;
            }
        }
        if self.collapsing {
            self.slots.retain(Option::is_some);
        }
        squashed
    }

    fn charge_idle(&mut self, cycles: u64) {
        self.stats.occupancy_sum += cycles * self.len() as u64;
        for (i, e) in self.slots.iter().enumerate() {
            if e.is_some() {
                self.stats.slot_occupancy[i] += cycles;
            }
        }
    }
}

/// One operation of the reference-model test.
#[derive(Clone, Debug)]
enum QueueOp {
    /// Insert with these sources (`None` = no source) and pending bits;
    /// `dup` copies source 0 into source 1, and `early` (when not live)
    /// replaces the next sequence number, so entries arrive out of age
    /// order.
    Insert {
        srcs: [Option<(bool, u16)>; 3],
        pending: u8,
        dup: bool,
        early: Option<u64>,
    },
    /// Broadcast a completing destination.
    Wakeup {
        fp: bool,
        preg: u16,
    },
    /// Walk the ready entries oldest first; the `i`-th issues if bit `i`
    /// of the mask is set (the others model a busy unit or a replay).
    Issue(u16),
    /// Remove one or two entries picked by the two halves of the word,
    /// ready or not.
    Remove(u64),
    /// Squash everything younger than `back` entries before the next seq.
    Squash(u64),
    Tick,
    Idle(u64),
    Flush,
}

fn src_phys((fp, preg): (bool, u16)) -> SrcPhys {
    if fp {
        SrcPhys::Fp(preg)
    } else {
        SrcPhys::Int(preg)
    }
}

/// A register tag drawn from 16 random bits: few registers, so tags
/// collide across entries and source slots, plus an occasional high
/// index that grows the waiter table.
fn reg_of(x: u64) -> (bool, u16) {
    let preg = if x.is_multiple_of(16) { 200 + (x >> 4) % 3 } else { (x >> 4) % 6 };
    ((x >> 8) & 1 == 1, preg as u16)
}

/// Decodes one operation from a selector and two random words.
fn queue_op((sel, a, b): (u8, u64, u64)) -> QueueOp {
    match sel {
        0..=5 => {
            let src = |i: u64| {
                let x = a >> (16 * i);
                ((x >> 12) & 3 != 0).then(|| reg_of(x))
            };
            QueueOp::Insert {
                srcs: [src(0), src(1), src(2)],
                pending: (b & 7) as u8,
                dup: b % 5 == 3,
                early: b.is_multiple_of(7).then_some((b >> 32) % 256),
            }
        }
        6..=9 => {
            let (fp, preg) = reg_of(a);
            QueueOp::Wakeup { fp, preg }
        }
        10..=12 => QueueOp::Issue(a as u16),
        13 => QueueOp::Remove(a),
        14 => QueueOp::Squash(a % 12),
        15 | 16 => QueueOp::Tick,
        17 => QueueOp::Idle(1 + a % 5000),
        _ => QueueOp::Flush,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// The slab/waiter-mask queue with its width-bounded select and
    /// deferred per-slot counters is observationally the scan-based
    /// reference: same candidates, ready set and length after every
    /// operation, and the same stats after every flush. Capacities run
    /// past 64 so waiter masks and the free-id map span several words;
    /// `churn` (out of 16) thins the removing operations so some cases
    /// fill the queue.
    #[test]
    fn issue_queue_matches_scan_reference(
        nc in any::<bool>(),
        cap in 1usize..=130,
        churn in 0usize..=16,
        ops in proptest::collection::vec((0u8..19, any::<u64>(), any::<u64>()).prop_map(queue_op), 1..700),
    ) {
        let kind = if nc { IssueQueueKind::NonCollapsing } else { IssueQueueKind::Collapsing };
        let mut q = IssueQueue::with_kind(kind, cap);
        let mut stats = IssueQueueStats::new(cap);
        let mut r = RefQueue::new(kind, cap);
        let mut next_seq = 0u64;
        for (step, op) in ops.iter().enumerate() {
            let removes = matches!(op, QueueOp::Issue(_) | QueueOp::Remove(_) | QueueOp::Squash(_));
            if removes && step % 16 >= churn {
                continue;
            }
            match *op {
                QueueOp::Insert { srcs, pending, dup, early } => {
                    if q.is_full() {
                        continue;
                    }
                    let mut srcs = srcs.map(|s| s.map(src_phys));
                    if dup {
                        srcs[1] = srcs[0];
                    }
                    let seq = match early {
                        Some(e) if e < next_seq && r.candidates().iter().all(|c| c.1 != e) => e,
                        _ => {
                            next_seq += 1;
                            next_seq - 1
                        }
                    };
                    q.insert(seq, srcs, pending, &mut stats);
                    r.insert(seq, srcs, pending);
                }
                QueueOp::Wakeup { fp, preg } => {
                    q.wakeup_broadcast(src_phys((fp, preg)), &mut stats);
                    r.wakeup(src_phys((fp, preg)));
                }
                QueueOp::Issue(mask) => {
                    let mut sel = q.select();
                    let mut positions = Vec::new();
                    let mut i = 0;
                    while let Some((pos, _)) = q.next_ready(&mut sel) {
                        if i < 16 && mask & (1 << i) != 0 {
                            positions.push(pos);
                        }
                        i += 1;
                    }
                    let cands = r.candidates();
                    let mut slots: Vec<usize> = positions.iter().map(|&p| cands[p].0).collect();
                    slots.sort_unstable();
                    q.issue(&positions, &mut stats);
                    r.remove(&slots);
                }
                QueueOp::Remove(pick) => {
                    let cands = r.candidates();
                    if cands.is_empty() {
                        continue;
                    }
                    let (a, b) = (pick as u32 as usize, (pick >> 32) as usize);
                    let mut positions = vec![a % cands.len(), b % cands.len()];
                    positions.sort_unstable();
                    positions.dedup();
                    let mut slots: Vec<usize> = positions.iter().map(|&p| cands[p].0).collect();
                    slots.sort_unstable();
                    q.issue(&positions, &mut stats);
                    r.remove(&slots);
                }
                QueueOp::Squash(back) => {
                    let seq = next_seq.saturating_sub(1 + back);
                    prop_assert_eq!(q.squash_after(seq), r.squash_after(seq));
                    next_seq = next_seq.min(seq + 1);
                }
                QueueOp::Tick => {
                    q.tick(&mut stats);
                    r.charge_idle(1);
                }
                QueueOp::Idle(cycles) => {
                    q.charge_idle(cycles, &mut stats);
                    r.charge_idle(cycles);
                }
                QueueOp::Flush => {
                    q.flush_stats(&mut stats);
                    prop_assert_eq!(&stats, &r.stats);
                }
            }
            prop_assert_eq!(q.candidates(), r.candidates(), "after {:?}", op);
            let mut sel = q.select();
            let ready: Vec<_> = std::iter::from_fn(|| q.next_ready(&mut sel)).collect();
            prop_assert_eq!(&ready, &r.ready(), "after {:?}", op);
            prop_assert_eq!(q.has_ready(), !ready.is_empty());
            prop_assert_eq!(q.len(), r.len());
        }
        q.flush_stats(&mut stats);
        prop_assert_eq!(&stats, &r.stats);
    }
}
