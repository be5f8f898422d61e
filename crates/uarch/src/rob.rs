//! The reorder buffer and its entry type.
//!
//! BOOM's merged-register-file design keeps data out of the ROB (paper
//! §IV-B), so entries here carry only control state: renaming undo
//! information, branch-prediction bookkeeping, and memory-queue indices.

use crate::predictor::{BranchKind, PredMeta};
use crate::regfile::PReg;
use crate::uop::UopInfo;
use rv_isa::codec::{ByteReader, ByteWriter, Codec, CodecError};
use rv_isa::exec::{Loaded, Outcome};
use rv_isa::inst::Inst;
use std::collections::VecDeque;

/// Renamed destination with undo information for walk-based recovery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DestPhys {
    /// No destination register.
    None,
    /// Integer destination: `arch` now maps to `new`; `prev` is freed at
    /// commit (or `new` is freed and the map restored on squash).
    Int {
        /// Architectural register index.
        arch: usize,
        /// Newly allocated physical register.
        new: PReg,
        /// Previous mapping (stale after commit).
        prev: PReg,
    },
    /// FP destination (same roles as `Int`).
    Fp {
        /// Architectural register index.
        arch: usize,
        /// Newly allocated physical register.
        new: PReg,
        /// Previous mapping (stale after commit).
        prev: PReg,
    },
}

/// A renamed source operand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SrcPhys {
    /// Integer physical register.
    Int(PReg),
    /// FP physical register.
    Fp(PReg),
}

/// Execution state of an in-flight uop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UopState {
    /// In an issue queue waiting for operands.
    Waiting,
    /// Issued to a unit; completes at the given cycle.
    Executing {
        /// Completion (writeback) cycle.
        done_at: u64,
    },
    /// A memory op waiting on ordering or a blocked cache port.
    WaitMem,
    /// Complete; eligible for commit when it reaches the ROB head.
    Done,
}

/// A one-byte tag, then `done_at` for `Executing`.
impl Codec for UopState {
    const MIN_BYTES: usize = 1;
    fn encode(&self, w: &mut ByteWriter) {
        match *self {
            UopState::Waiting => w.put_u8(0),
            UopState::Executing { done_at } => {
                w.put_u8(1);
                w.put_u64(done_at);
            }
            UopState::WaitMem => w.put_u8(2),
            UopState::Done => w.put_u8(3),
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<UopState, CodecError> {
        Ok(match r.u8()? {
            0 => UopState::Waiting,
            1 => UopState::Executing { done_at: r.u64()? },
            2 => UopState::WaitMem,
            3 => UopState::Done,
            _ => return Err(CodecError::Invalid("uop state tag")),
        })
    }
}

/// Branch-prediction bookkeeping carried by control-flow uops.
#[derive(Clone, Copy, Debug)]
pub struct BranchInfo {
    /// Predicted next pc (what fetch followed).
    pub pred_next: u64,
    /// Predicted direction (conditional branches).
    pub pred_taken: bool,
    /// Global history *before* this branch's prediction.
    pub pre_hist: u128,
    /// Conditional-predictor metadata (None for jumps).
    pub meta: Option<PredMeta>,
    /// BTB training kind, decided at fetch.
    pub kind: BranchKind,
}

/// One reorder-buffer entry.
#[derive(Clone, Debug)]
pub struct RobEntry {
    /// Unique, monotonically increasing uop id.
    pub seq: u64,
    /// Instruction address.
    pub pc: u64,
    /// The instruction.
    pub inst: Inst,
    /// Cycle at which the uop was dispatched (for watchdog age reporting).
    pub dispatched_at: u64,
    /// Micro-op classification.
    pub uop: UopInfo,
    /// Renamed sources (parallel to `uop.srcs`).
    pub srcs: [Option<SrcPhys>; 3],
    /// Renamed destination.
    pub dest: DestPhys,
    /// Pipeline state.
    pub state: UopState,
    /// Resolved next pc (set at execute for control flow; `pc+4` otherwise).
    pub actual_next: u64,
    /// Resolved direction (conditional branches).
    pub taken: bool,
    /// Whether this uop triggered a misprediction recovery.
    pub mispredicted: bool,
    /// Load-queue index, if a load.
    pub ldq_idx: Option<usize>,
    /// Store-queue sequence, if a store.
    pub in_stq: bool,
    /// Architectural effect computed at execute.
    pub outcome: Option<Outcome>,
    /// Load result computed when the access completed.
    pub load_value: Option<Loaded>,
}

/// The reorder buffer: a bounded FIFO of in-flight uops addressed by `seq`.
#[derive(Clone, Debug)]
pub struct Rob {
    entries: VecDeque<RobEntry>,
    capacity: usize,
    head_seq: u64,
    next_seq: u64,
}

impl Rob {
    /// Creates an empty ROB with `capacity` entries.
    pub fn new(capacity: usize) -> Rob {
        Rob { entries: VecDeque::with_capacity(capacity), capacity, head_seq: 0, next_seq: 0 }
    }

    /// Entries currently in flight.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when dispatch must stall.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Total entries the ROB can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The sequence number the next dispatched uop will receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Appends a new entry; returns its sequence number.
    ///
    /// # Panics
    ///
    /// Panics if full.
    pub fn push(&mut self, mut entry: RobEntry) -> u64 {
        assert!(!self.is_full(), "ROB overflow");
        let seq = self.next_seq;
        entry.seq = seq;
        self.next_seq += 1;
        self.entries.push_back(entry);
        seq
    }

    /// Looks up an in-flight entry by sequence number.
    pub fn get(&self, seq: u64) -> Option<&RobEntry> {
        let idx = seq.checked_sub(self.head_seq)? as usize;
        self.entries.get(idx)
    }

    /// Mutable lookup by sequence number.
    pub fn get_mut(&mut self, seq: u64) -> Option<&mut RobEntry> {
        let idx = seq.checked_sub(self.head_seq)? as usize;
        self.entries.get_mut(idx)
    }

    /// The oldest in-flight entry.
    pub fn head(&self) -> Option<&RobEntry> {
        self.entries.front()
    }

    /// Removes the oldest entry (commit).
    ///
    /// # Panics
    ///
    /// Panics if empty.
    pub fn pop_head(&mut self) -> RobEntry {
        let e = self.entries.pop_front().expect("commit from empty ROB");
        self.head_seq += 1;
        e
    }

    /// Removes the oldest entry without returning it — the commit stage
    /// copies the few fields it needs out of [`Rob::head`] first, so the
    /// full entry never moves (entries are plain data with no `Drop`).
    ///
    /// # Panics
    ///
    /// Panics if empty.
    pub fn drop_head(&mut self) {
        self.entries.pop_front().expect("commit from empty ROB");
        self.head_seq += 1;
    }

    /// Removes every entry younger than `seq` (exclusive), youngest first,
    /// returning them for rename rollback.
    pub fn squash_after(&mut self, seq: u64) -> Vec<RobEntry> {
        let mut squashed = Vec::new();
        self.squash_after_into(seq, &mut squashed);
        squashed
    }

    /// [`Rob::squash_after`] into a caller-provided buffer (appended,
    /// youngest first) — the core reuses one scratch vector across
    /// mispredicts so recovery allocates nothing in steady state.
    pub fn squash_after_into(&mut self, seq: u64, out: &mut Vec<RobEntry>) {
        let keep = (seq + 1).saturating_sub(self.head_seq) as usize;
        while self.entries.len() > keep {
            out.push(self.entries.pop_back().expect("non-empty"));
        }
        self.next_seq = self.head_seq + self.entries.len() as u64;
    }

    /// [`Rob::squash_after`] reduced to the fields recovery actually
    /// needs — the hot-path variant, so a mispredict shuffles ~40-byte
    /// records instead of full entries.
    pub fn squash_after_brief(&mut self, seq: u64, out: &mut Vec<SquashedUop>) {
        let keep = (seq + 1).saturating_sub(self.head_seq) as usize;
        while self.entries.len() > keep {
            let e = self.entries.back().expect("non-empty");
            out.push(SquashedUop { seq: e.seq, inst: e.inst, dest: e.dest });
            self.entries.pop_back();
        }
        self.next_seq = self.head_seq + self.entries.len() as u64;
    }

    /// Iterates over in-flight entries, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &RobEntry> {
        self.entries.iter()
    }
}

/// What misprediction recovery needs to know about a squashed uop:
/// its identity (trace records), its instruction (branch-snapshot
/// accounting), and its renamed destination (rename rollback).
#[derive(Clone, Copy, Debug)]
pub struct SquashedUop {
    /// The squashed uop's sequence number.
    pub seq: u64,
    /// The squashed instruction.
    pub inst: Inst,
    /// Renamed destination to unwind.
    pub dest: DestPhys,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uop::classify;
    use rv_isa::inst::{AluOp, Inst};
    use rv_isa::reg::Reg;

    fn dummy_entry() -> RobEntry {
        let inst = Inst::OpImm { op: AluOp::Add, rd: Reg::A0, rs1: Reg::A0, imm: 1 };
        RobEntry {
            seq: 0,
            pc: 0x8000_0000,
            uop: classify(&inst),
            inst,
            dispatched_at: 0,
            srcs: [None; 3],
            dest: DestPhys::None,
            state: UopState::Waiting,
            actual_next: 0,
            taken: false,
            mispredicted: false,
            ldq_idx: None,
            in_stq: false,
            outcome: None,
            load_value: None,
        }
    }

    #[test]
    fn sequence_numbers_are_contiguous() {
        let mut rob = Rob::new(8);
        for expect in 0..5 {
            assert_eq!(rob.push(dummy_entry()), expect);
        }
        assert_eq!(rob.pop_head().seq, 0);
        assert_eq!(rob.push(dummy_entry()), 5);
        assert_eq!(rob.get(3).unwrap().seq, 3);
        assert!(rob.get(0).is_none(), "committed entries are gone");
    }

    #[test]
    fn squash_returns_youngest_first_and_reuses_seqs() {
        let mut rob = Rob::new(8);
        for _ in 0..6 {
            rob.push(dummy_entry());
        }
        let squashed = rob.squash_after(2);
        let seqs: Vec<u64> = squashed.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![5, 4, 3]);
        assert_eq!(rob.len(), 3);
        // Sequence numbers after a squash are reissued.
        assert_eq!(rob.push(dummy_entry()), 3);
    }

    #[test]
    fn capacity_enforced() {
        let mut rob = Rob::new(2);
        rob.push(dummy_entry());
        rob.push(dummy_entry());
        assert!(rob.is_full());
    }

    #[test]
    fn squash_after_committed_boundary() {
        let mut rob = Rob::new(8);
        for _ in 0..4 {
            rob.push(dummy_entry());
        }
        rob.pop_head();
        rob.pop_head(); // head_seq = 2
        let squashed = rob.squash_after(2);
        assert_eq!(squashed.len(), 1);
        assert_eq!(rob.len(), 1);
    }
}
