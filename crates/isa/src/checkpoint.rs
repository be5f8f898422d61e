//! Architectural checkpoints — the Spike checkpoint role in the paper's
//! SimPoint flow (Fig. 4).
//!
//! A [`Checkpoint`] captures the full architectural state (pc, integer and
//! FP register files, and the sparse memory image) at an instruction
//! boundary. Checkpoints restore into the functional simulator or seed the
//! cycle-level out-of-order model in `boom-uarch`.
//!
//! Capture is a functional pass to each target instruction count. A
//! profiling pass that ran the same program can leave [`RestartPoints`]
//! behind — up to [`RestartPoints::BUDGET`] parked CPUs, evenly spread —
//! and [`checkpoints_from`] then resumes from the latest one at or before
//! each target instead of re-running from the entry. Only the parked
//! CPUs' written pages are copied (see [`crate::mem`]), so parking is
//! cheap, and a resumed CPU is the very state a run from the entry
//! reaches: the checkpoints come out bit-identical either way.

use crate::codec::{ByteReader, ByteWriter, CodecError};
use crate::cpu::{Cpu, Retired, SimError, StopReason};
use crate::image::{DecodedImage, SharedImage};
use crate::mem::{Memory, FLAT_MAX};
use crate::program::Program;
use std::sync::Arc;

/// A checkpoint shared across consumers without cloning its memory image.
///
/// Checkpoints are configuration-independent: the same architectural
/// snapshot seeds the detailed model for *every* microarchitectural
/// configuration, so campaign drivers hold them behind `Arc` and hand the
/// same allocation to many worker threads.
pub type SharedCheckpoint = Arc<Checkpoint>;

/// A complete architectural snapshot at an instruction boundary.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// Program counter of the next instruction to execute.
    pub pc: u64,
    /// Integer register file.
    pub x: [u64; 32],
    /// FP register file (raw bits).
    pub f: [u64; 32],
    /// Full sparse memory image.
    pub mem: Memory,
    /// Dynamic instruction count at which the snapshot was taken.
    pub instret: u64,
    /// Predecoded text image carried from the captured CPU (an `Arc`
    /// share, not a copy), so every simulator seeded from this
    /// checkpoint keeps the fast fetch path.
    pub image: Option<SharedImage>,
}

impl Checkpoint {
    /// Snapshots a functional CPU.
    ///
    /// The captured memory image is immediately frozen into
    /// copy-on-write mode ([`Memory::freeze_flat`]): a checkpoint seeds
    /// one simulator per (config, SimPoint) work item, and freezing makes
    /// each of those per-consumer `mem.clone()` calls O(dirty pages)
    /// instead of a copy of the whole workload footprint.
    pub fn capture(cpu: &Cpu) -> Checkpoint {
        let mut mem = cpu.mem.clone();
        mem.freeze_flat();
        Checkpoint {
            pc: cpu.pc(),
            x: *cpu.xregs(),
            f: *cpu.fregs(),
            mem,
            instret: cpu.instret(),
            image: cpu.image().cloned(),
        }
    }

    /// Restores this snapshot into a fresh functional CPU (re-attaching
    /// the predecoded image, if the captured CPU had one).
    pub fn restore(&self) -> Cpu {
        let mut cpu = Cpu::from_state(self.pc, self.x, self.f, self.mem.clone(), self.instret);
        if let Some(image) = &self.image {
            cpu.attach_image(image.clone());
        }
        cpu
    }

    /// In-memory footprint in bytes: the memory pages the snapshot holds
    /// ([`Memory::footprint_bytes`], not the flat reservation) plus the
    /// register state.
    pub fn size_bytes(&self) -> usize {
        self.mem.footprint_bytes() + 2 * 32 * 8 + 16
    }

    /// Serializes the snapshot for the disk artifact cache.
    ///
    /// The predecoded text image is *not* written out instruction by
    /// instruction: its bytes are already present in the memory image, so
    /// only its geometry (base, byte length) is recorded and
    /// [`Checkpoint::decode`] re-predecodes those bytes — the restored
    /// checkpoint is semantically identical and keeps the fast fetch path.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.pc);
        for &x in &self.x {
            w.put_u64(x);
        }
        for &f in &self.f {
            w.put_u64(f);
        }
        w.put_u64(self.instret);
        self.mem.encode(w);
        match &self.image {
            None => w.put_bool(false),
            Some(img) => {
                w.put_bool(true);
                w.put_u64(img.base());
                w.put_u64(img.len() as u64 * 4);
            }
        }
    }

    /// Decodes a snapshot produced by [`Checkpoint::encode`].
    ///
    /// # Errors
    ///
    /// [`CodecError`] on any truncation, bad tag, or absurd length — the
    /// cache layer treats every such error as corruption and recomputes.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Checkpoint, CodecError> {
        let pc = r.u64()?;
        let mut x = [0u64; 32];
        for slot in &mut x {
            *slot = r.u64()?;
        }
        let mut f = [0u64; 32];
        for slot in &mut f {
            *slot = r.u64()?;
        }
        let instret = r.u64()?;
        let mem = Memory::decode(r)?;
        let image = if r.bool()? {
            let base = r.u64()?;
            let len = r.u64()?;
            if len == 0 || len % 4 != 0 || len > FLAT_MAX {
                return Err(CodecError::Invalid("image geometry"));
            }
            let text = mem.read_bytes(base, len as usize);
            Some(Arc::new(DecodedImage::decode_text(base, &text)))
        } else {
            None
        };
        Ok(Checkpoint { pc, x, f, mem, instret, image })
    }
}

/// Functional CPUs parked at evenly spread instruction boundaries of one
/// run, from which a capture pass resumes ([`checkpoints_from`]) instead
/// of re-running the program from its entry.
///
/// The set always holds the CPU its run started from and never more than
/// [`RestartPoints::BUDGET`] CPUs: when it is full, every other one is
/// dropped and the stride doubles, so the survivors stay evenly spread
/// over however long the run turns out to be.
#[derive(Debug)]
pub struct RestartPoints {
    /// Parked CPUs, ascending by `instret`; the first is the run's start.
    parked: Vec<Cpu>,
    /// Instructions between consecutive parked CPUs.
    stride: u64,
}

impl RestartPoints {
    /// Most CPUs a set holds, its start included.
    pub const BUDGET: usize = 8;

    /// The set holding only a CPU at `program`'s entry: a capture pass
    /// from it re-runs the program from the first instruction.
    pub fn entry(program: &Program) -> RestartPoints {
        RestartPoints { parked: vec![Cpu::new(program)], stride: u64::MAX }
    }

    /// Runs `cpu` for up to `max_insts` instructions, invoking `hook`
    /// after each one exactly as [`Cpu::run_with`] does, and parks a
    /// copy of it at its start and then every `stride` instructions
    /// (at least 1) until it stops.
    ///
    /// # Errors
    ///
    /// Propagates the first [`SimError`] encountered.
    pub fn run_with(
        cpu: &mut Cpu,
        stride: u64,
        max_insts: u64,
        mut hook: impl FnMut(&Retired),
    ) -> Result<(StopReason, RestartPoints), SimError> {
        let end = cpu.instret().saturating_add(max_insts);
        let mut restarts = RestartPoints { parked: vec![cpu.clone()], stride: stride.max(1) };
        loop {
            let due = restarts.last_instret().saturating_add(restarts.stride).min(end);
            let stop = cpu.run_with(due - cpu.instret(), &mut hook)?;
            if stop != StopReason::InstLimit || cpu.instret() >= end {
                return Ok((stop, restarts));
            }
            restarts.park(cpu);
        }
    }

    fn last_instret(&self) -> u64 {
        self.parked.last().map_or(0, Cpu::instret)
    }

    /// Parks a copy of `cpu`, first thinning a full set to every other
    /// CPU (counted from the start) and doubling the stride.
    fn park(&mut self, cpu: &Cpu) {
        if self.parked.len() == Self::BUDGET {
            self.stride = self.stride.saturating_mul(2);
            let (start, stride) = (self.parked[0].instret(), self.stride);
            self.parked.retain(|c| (c.instret() - start) % stride == 0);
        }
        self.parked.push(cpu.clone());
    }

    /// The instruction counts of the parked CPUs, ascending.
    pub fn positions(&self) -> Vec<u64> {
        self.parked.iter().map(Cpu::instret).collect()
    }
}

/// Runs `program` from its entry and captures a checkpoint at each
/// instruction count in `points` (which must be sorted ascending):
/// [`checkpoints_from`] with only the entry to start from.
///
/// # Errors
///
/// Propagates simulator errors; every point past program exit yields a
/// checkpoint at the exit boundary.
///
/// # Panics
///
/// Panics if `points` is not sorted ascending.
pub fn checkpoints_at(program: &Program, points: &[u64]) -> Result<Vec<Checkpoint>, SimError> {
    checkpoints_from(RestartPoints::entry(program), points)
}

/// Captures a checkpoint at each instruction count in `points` (sorted
/// ascending) in one forward pass, resuming for each target from the
/// latest parked CPU at or before it when that lies ahead of the pass.
/// Every parked CPU the pass has passed is dropped on the way, so memory
/// falls as capture proceeds.
///
/// The checkpoints are bit-identical to a pass from the entry: a parked
/// CPU is the state the run reached at that instruction count.
///
/// # Errors
///
/// Propagates simulator errors. Every point past program exit yields a
/// checkpoint at the exit boundary: the pass never runs past the exit.
///
/// # Panics
///
/// Panics if `points` is not sorted ascending or its first point lies
/// before the set's start.
pub fn checkpoints_from(
    restarts: RestartPoints,
    points: &[u64],
) -> Result<Vec<Checkpoint>, SimError> {
    assert!(points.windows(2).all(|w| w[0] <= w[1]), "points must be sorted");
    let mut parked = restarts.parked.into_iter().peekable();
    let Some(mut cpu) = parked.next() else { unreachable!("a restart set holds its start") };
    assert!(points.first().is_none_or(|&p| p >= cpu.instret()), "point before the start");
    let mut out = Vec::with_capacity(points.len());
    let mut exited = false;
    for &target in points {
        while let Some(ahead) = parked.next_if(|c| c.instret() <= target) {
            if ahead.instret() > cpu.instret() {
                (cpu, exited) = (ahead, false);
            }
        }
        let remaining = target.saturating_sub(cpu.instret());
        if remaining > 0 && !exited {
            exited = matches!(cpu.run(remaining)?, StopReason::Exited(_));
        }
        out.push(Checkpoint::capture(&cpu));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;
    use crate::cpu::StopReason;
    use crate::reg::Reg::*;

    fn counting_program() -> Program {
        let mut a = Assembler::new();
        a.li(A0, 0);
        a.li(T0, 1000);
        a.label("loop");
        a.addi(A0, A0, 1);
        a.addi(T0, T0, -1);
        a.bnez(T0, "loop");
        a.exit();
        a.assemble().unwrap()
    }

    #[test]
    fn restore_resumes_identically() {
        let p = counting_program();
        let mut reference = Cpu::new(&p);
        reference.run(500).unwrap();
        let ck = Checkpoint::capture(&reference);

        // Continue both the original and the restored copy to completion.
        let mut restored = ck.restore();
        let r1 = reference.run(u64::MAX).unwrap();
        let r2 = restored.run(u64::MAX).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(reference.xregs(), restored.xregs());
        assert_eq!(reference.instret(), restored.instret());
        assert!(matches!(r1, StopReason::Exited(_)));
    }

    #[test]
    fn batch_checkpoints_match_single_runs() {
        let p = counting_program();
        let cks = checkpoints_at(&p, &[100, 600, 1500]).unwrap();
        assert_eq!(cks.len(), 3);
        for (i, target) in [100u64, 600, 1500].iter().enumerate() {
            let mut cpu = Cpu::new(&p);
            cpu.run(*target).unwrap();
            assert_eq!(cks[i].pc, cpu.pc(), "checkpoint {i}");
            assert_eq!(&cks[i].x, cpu.xregs());
            assert_eq!(cks[i].instret, cpu.instret());
        }
    }

    #[test]
    fn checkpoint_past_exit_saturates() {
        let p = counting_program();
        let cks = checkpoints_at(&p, &[1_000_000]).unwrap();
        // The loop runs 1000 iterations * 3 insts + prologue/epilogue.
        assert!(cks[0].instret < 4000);
        // Further points past the exit alias it: the pass does not run
        // on past the exit `ecall` into whatever follows it.
        let cks = checkpoints_at(&p, &[1_000_000, 2_000_000, 3_000_000]).unwrap();
        assert!(cks.iter().all(|c| (c.instret, c.pc) == (cks[0].instret, cks[0].pc)));
    }

    #[test]
    fn captured_memory_is_frozen_and_restores_identically() {
        let p = counting_program();
        let mut cpu = Cpu::new(&p);
        cpu.run(500).unwrap();
        let ck = Checkpoint::capture(&cpu);
        assert!(ck.mem.is_frozen(), "capture freezes the image for CoW sharing");
        // Two restores diverge independently and match a never-frozen run.
        let mut a = ck.restore();
        let mut b = ck.restore();
        let ra = a.run(u64::MAX).unwrap();
        let rb = b.run(u64::MAX).unwrap();
        assert_eq!(ra, rb);
        assert_eq!(a.xregs(), b.xregs());
        let mut reference = Cpu::new(&p);
        reference.run(u64::MAX).unwrap();
        assert_eq!(a.xregs(), reference.xregs());
    }

    #[test]
    fn encode_decode_round_trips_and_resumes_identically() {
        let p = counting_program();
        let mut cpu = Cpu::new(&p);
        cpu.attach_image(p.decoded_image());
        cpu.run(500).unwrap();
        let ck = Checkpoint::capture(&cpu);
        assert!(ck.image.is_some(), "capture carries the predecoded image");

        let mut w = ByteWriter::new();
        ck.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let decoded = Checkpoint::decode(&mut r).unwrap();
        r.finish().unwrap();

        assert_eq!(decoded.pc, ck.pc);
        assert_eq!(decoded.x, ck.x);
        assert_eq!(decoded.f, ck.f);
        assert_eq!(decoded.instret, ck.instret);
        assert!(decoded.image.is_some(), "image geometry restores the fast path");
        assert!(decoded.mem.is_frozen(), "decoded memory stays CoW-shareable");

        let mut a = ck.restore();
        let mut b = decoded.restore();
        let ra = a.run(u64::MAX).unwrap();
        let rb = b.run(u64::MAX).unwrap();
        assert_eq!(ra, rb);
        assert_eq!(a.xregs(), b.xregs());
        assert_eq!(a.instret(), b.instret());
    }

    #[test]
    fn decode_rejects_corrupt_image_geometry() {
        let p = counting_program();
        let ck = checkpoints_at(&p, &[100]).unwrap().remove(0);
        let mut w = ByteWriter::new();
        ck.encode(&mut w);
        let bytes = w.into_bytes();
        // Every strict prefix must fail, never panic or mis-decode.
        for cut in (0..bytes.len()).step_by(97) {
            let mut r = ByteReader::new(&bytes[..cut]);
            let res = Checkpoint::decode(&mut r).and_then(|_| r.finish());
            assert!(res.is_err(), "cut at {cut} must not decode");
        }
    }

    fn encoded(ck: &Checkpoint) -> Vec<u8> {
        let mut w = ByteWriter::new();
        ck.encode(&mut w);
        w.into_bytes()
    }

    #[test]
    fn restart_points_stay_evenly_spread_within_the_budget() {
        let p = counting_program();
        let mut cpu = Cpu::new(&p);
        let mut seen = 0u64;
        let (stop, restarts) =
            RestartPoints::run_with(&mut cpu, 10, u64::MAX, |_| seen += 1).unwrap();
        assert!(matches!(stop, StopReason::Exited(_)));
        assert_eq!(seen, cpu.instret(), "the hook sees every instruction once");
        let at = restarts.positions();
        assert!(at.len() > 1 && at.len() <= RestartPoints::BUDGET, "{at:?}");
        let stride = at[1];
        assert!(stride >= 10 && (stride / 10).is_power_of_two(), "{at:?}");
        assert!(at.iter().enumerate().all(|(i, &x)| x == i as u64 * stride), "{at:?}");
        assert!(at[at.len() - 1] + stride >= cpu.instret(), "spread over the whole run");
    }

    #[test]
    fn restart_run_stops_at_the_instruction_budget() {
        let p = counting_program();
        let mut cpu = Cpu::new(&p);
        let (stop, restarts) = RestartPoints::run_with(&mut cpu, 7, 100, |_| {}).unwrap();
        assert_eq!(stop, StopReason::InstLimit);
        assert_eq!(cpu.instret(), 100);
        assert!(restarts.positions().iter().all(|&x| x < 100));
    }

    #[test]
    fn capture_from_restarts_matches_capture_from_the_entry() {
        let p = counting_program();
        let (_, restarts) =
            RestartPoints::run_with(&mut Cpu::new(&p), 10, u64::MAX, |_| {}).unwrap();
        let at = restarts.positions();
        // Before the first restart past the entry, on and around every
        // restart, and past the exit.
        let mut points = vec![0, at[1] / 2];
        for &x in &at[1..] {
            points.extend([x - 1, x, x + 1]);
        }
        points.push(1_000_000);
        let resumed = checkpoints_from(restarts, &points).unwrap();
        let entry = checkpoints_at(&p, &points).unwrap();
        assert_eq!(resumed.len(), points.len());
        for (a, b) in resumed.iter().zip(&entry) {
            assert_eq!(encoded(a), encoded(b), "checkpoint at {}", b.instret);
        }
    }

    #[test]
    fn size_reporting_nonzero() {
        let p = counting_program();
        let cks = checkpoints_at(&p, &[10]).unwrap();
        assert!(cks[0].size_bytes() > 4096);
        // The held pages (text, no stack or data written yet), not the
        // 16 MiB flat reservation.
        assert!(cks[0].size_bytes() < 4 * 4096, "{}", cks[0].size_bytes());
    }
}
