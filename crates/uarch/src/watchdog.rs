//! Pipeline watchdog diagnostics: a structured snapshot of every stall
//! point in the core, captured when the no-commit watchdog fires.
//!
//! The paper's methodology farms each SimPoint out as an independent
//! simulator job; when a job wedges, the only useful artifact is a
//! description of *where* the pipeline stopped making progress. A
//! [`WatchdogSnapshot`] freezes exactly that: the ROB head (the uop the
//! machine is refusing to retire) and its age, the occupancy and
//! oldest-entry readiness of each distributed issue queue, the load/store
//! queue heads, outstanding MSHR refills, and the front-end state. The
//! flow layer attaches it to `FlowError::CoreHung` so a hung point
//! surfaces as a readable diagnostic instead of an aborted campaign.

use crate::rob::UopState;
use std::fmt;

rv_isa::record! {
    /// The ROB head at the moment the watchdog fired: the uop commit is stuck
    /// behind.
    #[derive(Clone, Debug)]
    pub struct RobHeadView {
        /// Sequence number of the head uop.
        pub seq: u64 [key],
        /// Its instruction address.
        pub pc: u64 [key],
        /// Disassembly of the instruction.
        pub inst: String [key],
        /// Pipeline state of the head uop.
        pub state: UopState [key],
        /// Cycles since the head uop was dispatched.
        pub age_cycles: u64 [key],
        /// Whether every renamed source operand is ready.
        pub srcs_ready: bool [key],
    }
}

/// One of the core's three distributed issue queues.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IqName {
    /// The integer queue.
    Int,
    /// The memory queue.
    Mem,
    /// The floating-point queue.
    Fp,
}

rv_isa::tags!(IqName { Int = 0, Mem = 1, Fp = 2 });

impl fmt::Display for IqName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            IqName::Int => "int",
            IqName::Mem => "mem",
            IqName::Fp => "fp",
        })
    }
}

rv_isa::record! {
    /// One issue queue's stall-relevant state.
    #[derive(Clone, Debug)]
    pub struct IssueQueueView {
        /// Which queue.
        pub name: IqName [key],
        /// Occupied slots.
        pub occupancy: usize [key],
        /// Total slots.
        pub capacity: usize [key],
        /// The oldest waiting entry, if any: its sequence number, whether its
        /// sources are ready, and its ROB state.
        pub oldest: Option<OldestEntryView> [key],
    }
}

rv_isa::record! {
    /// The oldest entry of one issue queue.
    #[derive(Clone, Debug)]
    pub struct OldestEntryView {
        /// Sequence number of the entry.
        pub seq: u64 [key],
        /// Whether its renamed sources are all ready (an old not-ready entry
        /// points at a lost wakeup; an old ready one at a select/port bug).
        pub srcs_ready: bool [key],
        /// Its ROB state.
        pub state: UopState [key],
    }
}

rv_isa::record! {
    /// Load/store queue heads (program-order oldest entries).
    #[derive(Clone, Debug)]
    pub struct LsuView {
        /// Load-queue occupancy.
        pub ldq_len: usize [key],
        /// Sequence number of the oldest load, if any.
        pub ldq_head_seq: Option<u64> [key],
        /// Store-queue occupancy.
        pub stq_len: usize [key],
        /// Oldest store: `(seq, resolved address)` — an unresolved address
        /// (`None`) at the head is the classic memory-ordering stall.
        pub stq_head: Option<(u64, Option<u64>)> [key],
    }
}

rv_isa::record! {
    /// One outstanding MSHR refill.
    #[derive(Clone, Copy, Debug)]
    pub struct MshrView {
        /// Line address being refilled (already shifted by the line size).
        pub line_addr: u64 [key],
        /// Cycle at which the refill completes; a `done_at` forever in the
        /// past would indicate a tick/retain bug.
        pub done_at: u64 [key],
    }
}

rv_isa::record! {
    /// A structured diagnostic snapshot of a stalled pipeline.
    ///
    /// Captured by [`crate::Core::dump_state`]; the [`fmt::Display`]
    /// implementation renders the multi-line report the `boomflow` CLI prints
    /// when a simulation point hangs.
    #[derive(Clone, Debug)]
    pub struct WatchdogSnapshot {
        /// Cycle at which the snapshot was taken.
        pub cycle: u64 [key],
        /// Cycles since the last commit (what tripped the watchdog).
        pub cycles_since_commit: u64 [key],
        /// Instructions retired so far.
        pub retired: u64 [key],
        /// Next fetch address.
        pub fetch_pc: u64 [key],
        /// Front end frozen on an undecodable word (wrong-path garbage).
        pub fetch_wedged: bool [key],
        /// Fetch-buffer occupancy.
        pub fetch_buffer_len: usize [key],
        /// A pending fetch redirect: `(target, effective_cycle)`.
        pub redirect: Option<(u64, u64)> [key],
        /// ROB occupancy.
        pub rob_len: usize [key],
        /// ROB capacity.
        pub rob_capacity: usize [key],
        /// The ROB head, absent only when the ROB is empty (a front-end stall).
        pub rob_head: Option<RobHeadView> [key],
        /// The three distributed issue queues (int, mem, fp).
        pub issue_queues: Vec<IssueQueueView> [key],
        /// Load/store unit state.
        pub lsu: LsuView [key],
        /// Outstanding L1I refills.
        pub icache_mshrs: Vec<MshrView> [key],
        /// Outstanding L1D refills.
        pub dcache_mshrs: Vec<MshrView> [key],
        /// Outstanding refills in the memory backend (the shared L2's MSHRs
        /// under the hierarchy backend; always empty under fixed latency).
        pub l2_mshrs: Vec<MshrView> [key],
    }
}

impl WatchdogSnapshot {
    /// A one-line classification of the most likely stall cause, derived
    /// from the captured state (best-effort; the full snapshot is the
    /// authoritative record).
    pub fn diagnosis(&self) -> String {
        if let Some(head) = &self.rob_head {
            match head.state {
                UopState::Waiting if !head.srcs_ready => format!(
                    "ROB head seq {} ({}) waiting {} cycles for operands — lost wakeup or \
                     dependence on a squashed producer",
                    head.seq, head.inst, head.age_cycles
                ),
                UopState::Waiting => format!(
                    "ROB head seq {} ({}) ready but unissued for {} cycles — select/port \
                     starvation",
                    head.seq, head.inst, head.age_cycles
                ),
                UopState::Executing { done_at } => format!(
                    "ROB head seq {} ({}) stuck executing (done_at {}, now {}) — completion \
                     never observed",
                    head.seq, head.inst, done_at, self.cycle
                ),
                UopState::WaitMem => format!(
                    "ROB head seq {} ({}) blocked in the memory system — ordering or MSHR stall",
                    head.seq, head.inst
                ),
                UopState::Done => format!(
                    "ROB head seq {} ({}) is Done but not committing — commit-side resource \
                     (store port / dcache MSHRs) blocked",
                    head.seq, head.inst
                ),
            }
        } else if self.fetch_wedged {
            format!(
                "empty ROB with fetch wedged at {:#x} — undecodable instruction stream and no \
                 redirect in flight",
                self.fetch_pc
            )
        } else {
            format!(
                "empty ROB, fetch at {:#x} — front end delivering nothing (icache or redirect \
                 stall)",
                self.fetch_pc
            )
        }
    }
}

impl fmt::Display for WatchdogSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "pipeline watchdog: no commit for {} cycles (cycle {}, {} retired)",
            self.cycles_since_commit, self.cycle, self.retired
        )?;
        writeln!(f, "  diagnosis: {}", self.diagnosis())?;
        match &self.rob_head {
            Some(h) => writeln!(
                f,
                "  rob: {}/{} entries; head seq {} pc {:#x} `{}` state {:?} age {} cycles \
                 srcs_ready={}",
                self.rob_len,
                self.rob_capacity,
                h.seq,
                h.pc,
                h.inst,
                h.state,
                h.age_cycles,
                h.srcs_ready
            )?,
            None => writeln!(f, "  rob: empty ({} capacity)", self.rob_capacity)?,
        }
        for iq in &self.issue_queues {
            match &iq.oldest {
                Some(o) => writeln!(
                    f,
                    "  iq.{}: {}/{} occupied; oldest seq {} srcs_ready={} state {:?}",
                    iq.name, iq.occupancy, iq.capacity, o.seq, o.srcs_ready, o.state
                )?,
                None => writeln!(f, "  iq.{}: {}/{} occupied", iq.name, iq.occupancy, iq.capacity)?,
            }
        }
        write!(
            f,
            "  lsu: ldq {} (head seq {}), stq {} (head ",
            self.lsu.ldq_len,
            self.lsu.ldq_head_seq.map_or_else(|| "-".to_string(), |s| s.to_string()),
            self.lsu.stq_len,
        )?;
        match self.lsu.stq_head {
            Some((seq, Some(addr))) => writeln!(f, "seq {seq} addr {addr:#x})")?,
            Some((seq, None)) => writeln!(f, "seq {seq} addr unresolved)")?,
            None => writeln!(f, "-)")?,
        }
        for (name, mshrs) in
            [("icache", &self.icache_mshrs), ("dcache", &self.dcache_mshrs), ("l2", &self.l2_mshrs)]
        {
            if mshrs.is_empty() {
                // The L2 line only appears when a hierarchy backend has
                // refills in flight, keeping fixed-latency reports as
                // before.
                if name != "l2" {
                    writeln!(f, "  {name}: no outstanding refills")?;
                }
            } else {
                write!(f, "  {name}: {} refill(s) in flight:", mshrs.len())?;
                for m in mshrs {
                    write!(f, " line {:#x} done_at {}", m.line_addr, m.done_at)?;
                }
                writeln!(f)?;
            }
        }
        write!(
            f,
            "  frontend: fetch_pc {:#x} wedged={} buffer {} redirect {:?}",
            self.fetch_pc, self.fetch_wedged, self.fetch_buffer_len, self.redirect
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot_with_head(state: UopState, srcs_ready: bool) -> WatchdogSnapshot {
        WatchdogSnapshot {
            cycle: 200_000,
            cycles_since_commit: 100_000,
            retired: 42,
            fetch_pc: 0x8000_0040,
            fetch_wedged: false,
            fetch_buffer_len: 3,
            redirect: None,
            rob_len: 5,
            rob_capacity: 96,
            rob_head: Some(RobHeadView {
                seq: 17,
                pc: 0x8000_0010,
                inst: "addi a0, a0, 1".to_string(),
                state,
                age_cycles: 99_000,
                srcs_ready,
            }),
            issue_queues: vec![IssueQueueView {
                name: IqName::Int,
                occupancy: 2,
                capacity: 20,
                oldest: Some(OldestEntryView { seq: 17, srcs_ready, state }),
            }],
            lsu: LsuView { ldq_len: 0, ldq_head_seq: None, stq_len: 1, stq_head: Some((18, None)) },
            icache_mshrs: vec![],
            dcache_mshrs: vec![MshrView { line_addr: 0x100, done_at: 150 }],
            l2_mshrs: vec![],
        }
    }

    #[test]
    fn display_mentions_every_section() {
        let s = snapshot_with_head(UopState::Waiting, false);
        let text = s.to_string();
        for needle in ["watchdog", "diagnosis", "rob:", "iq.int", "lsu:", "dcache", "frontend"] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
        assert!(text.contains("addr unresolved"), "{text}");
    }

    #[test]
    fn diagnosis_distinguishes_stall_classes() {
        let waiting = snapshot_with_head(UopState::Waiting, false).diagnosis();
        assert!(waiting.contains("waiting"), "{waiting}");
        let starved = snapshot_with_head(UopState::Waiting, true).diagnosis();
        assert!(starved.contains("select/port"), "{starved}");
        let done = snapshot_with_head(UopState::Done, true).diagnosis();
        assert!(done.contains("commit-side"), "{done}");
        let mut empty = snapshot_with_head(UopState::Done, true);
        empty.rob_head = None;
        empty.fetch_wedged = true;
        assert!(empty.diagnosis().contains("wedged"), "{}", empty.diagnosis());
    }
}
