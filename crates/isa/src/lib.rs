//! # rv-isa — RV64IMFD instruction set and functional simulation
//!
//! This crate is the instruction-set substrate of the `boomflow` workspace,
//! playing the role that Spike (the RISC-V ISA simulator) and gem5's
//! basic-block-vector profiling play in the paper *"SimPoint-Based
//! Microarchitectural Hotspot & Energy-Efficiency Analysis of RISC-V OoO
//! CPUs"* (ISPASS 2024).
//!
//! It provides:
//!
//! * [`inst::Inst`] — a typed representation of the RV64IMFD subset used by
//!   the workloads, with exact [`inst::decode`] / [`inst::encode`]
//!   round-tripping and a disassembler ([`Display`](std::fmt::Display)).
//! * [`exec`] — pure instruction semantics shared by the functional simulator
//!   *and* the cycle-level out-of-order core model (`boom-uarch`), so that
//!   golden-model co-simulation agrees by construction.
//! * [`mem::Memory`] — a physical memory with a contiguous flat fast-path
//!   region (program image + stack) backed by sparse overflow pages; it
//!   tracks the flat pages it holds, so snapshots cost what was written.
//! * [`image::DecodedImage`] — the text segment predecoded once at load,
//!   shared behind `Arc` by every simulator and worker thread.
//! * [`cpu::Cpu`] — a fast functional (architectural) simulator with syscall
//!   handling, run-length control, and instruction retirement hooks.
//! * [`asm::Assembler`] — a label-resolving macro-assembler DSL used to write
//!   the MiBench/Embench-style workloads in `rv-workloads`.
//! * [`checkpoint::Checkpoint`] — architectural checkpoints (the Spike role
//!   in the paper's Fig. 4) that can be restored into any simulator, and
//!   [`checkpoint::RestartPoints`], the CPUs a profiling pass parks so
//!   capture can resume instead of re-running from the entry.
//! * [`bbv`] — per-interval basic-block vector collection (the gem5 role in
//!   the paper's Fig. 4), consumed by the `simpoint` crate.
//!
//! ## Example
//!
//! ```
//! use rv_isa::asm::Assembler;
//! use rv_isa::cpu::{Cpu, StopReason};
//! use rv_isa::reg::Reg;
//!
//! let mut a = Assembler::new();
//! a.li(Reg::A0, 0);
//! a.li(Reg::T0, 10);
//! a.label("loop");
//! a.add(Reg::A0, Reg::A0, Reg::T0);
//! a.addi(Reg::T0, Reg::T0, -1);
//! a.bnez(Reg::T0, "loop");
//! a.exit(); // ecall with a7 = 93, code in a0
//! let program = a.assemble().unwrap();
//!
//! let mut cpu = Cpu::new(&program);
//! let stop = cpu.run(1_000_000).unwrap();
//! assert_eq!(stop, StopReason::Exited(55));
//! ```

#![warn(missing_docs)]
pub mod asm;
pub mod bbv;
pub mod checkpoint;
pub mod codec;
pub mod cpu;
pub mod exec;
pub mod image;
pub mod inst;
pub mod mem;
pub mod program;
pub mod reg;

pub use inst::{decode, encode, Inst};
pub use program::Program;
pub use reg::{FReg, Reg};

/// Default load address for programs produced by the assembler.
///
/// Matches the conventional RISC-V DRAM base used by Spike and Chipyard.
pub const DEFAULT_BASE: u64 = 0x8000_0000;
