//! Property-based tests for the ISA layer: encode/decode round-trips,
//! decoder totality, memory invariants, and checkpoint determinism.

use proptest::prelude::*;
use rv_isa::asm::Assembler;
use rv_isa::checkpoint::Checkpoint;
use rv_isa::codec::{ByteReader, ByteWriter};
use rv_isa::cpu::Cpu;
use rv_isa::inst::{
    AluOp, BrCond, CvtInt, FmaOp, FpCmp, FpFmt, FpOp, Inst, LoadKind, MulOp, Rm, StoreKind,
};
use rv_isa::mem::{Memory, PAGE_SIZE};
use rv_isa::reg::{FReg, Reg};
use rv_isa::{decode, encode};
use std::collections::{HashMap, HashSet};

fn any_reg() -> impl Strategy<Value = Reg> {
    (0u32..32).prop_map(Reg::from_index)
}

fn any_freg() -> impl Strategy<Value = FReg> {
    (0u32..32).prop_map(FReg::from_index)
}

fn imm12() -> impl Strategy<Value = i32> {
    -2048i32..=2047
}

fn any_fmt() -> impl Strategy<Value = FpFmt> {
    prop_oneof![Just(FpFmt::S), Just(FpFmt::D)]
}

/// Base of the flat region in the memory model tests: four pages, with
/// two overflow pages on either side.
const FLAT: u64 = 0x8000_0000;
const MODEL_LO: u64 = FLAT - 2 * PAGE_SIZE;
const MODEL_HI: u64 = FLAT + 6 * PAGE_SIZE;

/// One step of the memory model test: `(kind, address, size selector,
/// value)`. Kinds 0–5 write one access, 6 writes a byte run, 7 freezes,
/// 8 clones, 9 round-trips through encode/decode.
type MemOp = (u32, u64, usize, u64);

fn mem_op() -> impl Strategy<Value = MemOp> {
    // Offsets cluster at page starts and ends so accesses straddle pages
    // and both edges of the flat region.
    let in_page = prop_oneof![0u64..16, (PAGE_SIZE - 12)..PAGE_SIZE, 0..PAGE_SIZE];
    let addr = (0u64..8, in_page).prop_map(|(page, off)| MODEL_LO + page * PAGE_SIZE + off);
    let value = prop_oneof![Just(0u64), any::<u64>()];
    (0u32..10, addr, 0usize..4, value)
}

fn model_read(model: &HashMap<u64, u8>, addr: u64, size: u64) -> u64 {
    (0..size).fold(0, |v, i| v | (model.get(&(addr + i)).copied().unwrap_or(0) as u64) << (8 * i))
}

/// Asserts that `m` reads as `model` at every byte of the tested range and
/// that its held pages are exactly what it reports: they cover every
/// non-zero byte, carry the model's contents, and make up its footprint.
fn assert_matches_model(m: &Memory, model: &HashMap<u64, u8>) {
    for a in MODEL_LO..MODEL_HI {
        assert_eq!(m.read_u8(a), model.get(&a).copied().unwrap_or(0), "byte at {a:#x}");
    }
    let mut held = HashSet::new();
    for (base, bytes) in m.pages() {
        assert!(held.insert(base), "page {base:#x} listed twice");
        for (i, &b) in bytes.iter().enumerate() {
            assert_eq!(b, model.get(&(base + i as u64)).copied().unwrap_or(0));
        }
    }
    for (&a, &v) in model {
        assert!(v == 0 || held.contains(&(a & !(PAGE_SIZE - 1))), "{a:#x} not held");
    }
    assert_eq!(m.footprint_bytes(), held.len() * PAGE_SIZE as usize);
}

fn encoded(m: &Memory) -> Vec<u8> {
    let mut w = ByteWriter::new();
    m.encode(&mut w);
    w.into_bytes()
}

/// A strategy over every valid instruction form.
fn any_inst() -> impl Strategy<Value = Inst> {
    let alu_rr = prop_oneof![
        Just(AluOp::Add),
        Just(AluOp::Sub),
        Just(AluOp::Sll),
        Just(AluOp::Slt),
        Just(AluOp::Sltu),
        Just(AluOp::Xor),
        Just(AluOp::Srl),
        Just(AluOp::Sra),
        Just(AluOp::Or),
        Just(AluOp::And),
        Just(AluOp::Addw),
        Just(AluOp::Subw),
        Just(AluOp::Sllw),
        Just(AluOp::Srlw),
        Just(AluOp::Sraw),
    ];
    let mul_op = prop_oneof![
        Just(MulOp::Mul),
        Just(MulOp::Mulh),
        Just(MulOp::Mulhsu),
        Just(MulOp::Mulhu),
        Just(MulOp::Div),
        Just(MulOp::Divu),
        Just(MulOp::Rem),
        Just(MulOp::Remu),
        Just(MulOp::Mulw),
        Just(MulOp::Divw),
        Just(MulOp::Divuw),
        Just(MulOp::Remw),
        Just(MulOp::Remuw),
    ];
    let br = prop_oneof![
        Just(BrCond::Eq),
        Just(BrCond::Ne),
        Just(BrCond::Lt),
        Just(BrCond::Ge),
        Just(BrCond::Ltu),
        Just(BrCond::Geu),
    ];
    let load = prop_oneof![
        Just(LoadKind::B),
        Just(LoadKind::H),
        Just(LoadKind::W),
        Just(LoadKind::D),
        Just(LoadKind::Bu),
        Just(LoadKind::Hu),
        Just(LoadKind::Wu),
    ];
    let store = prop_oneof![
        Just(StoreKind::B),
        Just(StoreKind::H),
        Just(StoreKind::W),
        Just(StoreKind::D),
    ];
    let fp_arith = prop_oneof![
        Just(FpOp::Add),
        Just(FpOp::Sub),
        Just(FpOp::Mul),
        Just(FpOp::Div),
        Just(FpOp::SgnJ),
        Just(FpOp::SgnJn),
        Just(FpOp::SgnJx),
        Just(FpOp::Min),
        Just(FpOp::Max),
    ];
    let fma =
        prop_oneof![Just(FmaOp::Madd), Just(FmaOp::Msub), Just(FmaOp::Nmsub), Just(FmaOp::Nmadd)];
    let cmp = prop_oneof![Just(FpCmp::Le), Just(FpCmp::Lt), Just(FpCmp::Eq)];
    let cvt = prop_oneof![Just(CvtInt::W), Just(CvtInt::Wu), Just(CvtInt::L), Just(CvtInt::Lu)];
    let rm = prop_oneof![Just(Rm::Rne), Just(Rm::Rtz)];

    prop_oneof![
        (any_reg(), (-0x80000i64..0x80000).prop_map(|v| v << 12))
            .prop_map(|(rd, imm)| Inst::Lui { rd, imm }),
        (any_reg(), (-0x80000i64..0x80000).prop_map(|v| v << 12))
            .prop_map(|(rd, imm)| Inst::Auipc { rd, imm }),
        (any_reg(), (-(1i32 << 19)..(1 << 19)).prop_map(|v| v * 2))
            .prop_map(|(rd, offset)| Inst::Jal { rd, offset }),
        (any_reg(), any_reg(), imm12()).prop_map(|(rd, rs1, offset)| Inst::Jalr {
            rd,
            rs1,
            offset
        }),
        (br, any_reg(), any_reg(), (-2048i32..2048).prop_map(|v| v * 2))
            .prop_map(|(cond, rs1, rs2, offset)| Inst::Branch { cond, rs1, rs2, offset }),
        (load, any_reg(), any_reg(), imm12()).prop_map(|(kind, rd, rs1, offset)| Inst::Load {
            kind,
            rd,
            rs1,
            offset
        }),
        (store, any_reg(), any_reg(), imm12()).prop_map(|(kind, rs1, rs2, offset)| Inst::Store {
            kind,
            rs1,
            rs2,
            offset
        }),
        (alu_rr.clone(), any_reg(), any_reg(), any_reg()).prop_map(|(op, rd, rs1, rs2)| Inst::Op {
            op,
            rd,
            rs1,
            rs2
        }),
        (mul_op, any_reg(), any_reg(), any_reg()).prop_map(|(op, rd, rs1, rs2)| Inst::MulDiv {
            op,
            rd,
            rs1,
            rs2
        }),
        // OpImm: non-shift forms with 12-bit immediates
        (any_reg(), any_reg(), imm12()).prop_map(|(rd, rs1, imm)| Inst::OpImm {
            op: AluOp::Add,
            rd,
            rs1,
            imm
        }),
        (any_reg(), any_reg(), imm12()).prop_map(|(rd, rs1, imm)| Inst::OpImm {
            op: AluOp::Xor,
            rd,
            rs1,
            imm
        }),
        // shifts with constrained shamt
        (any_reg(), any_reg(), 0i32..64).prop_map(|(rd, rs1, imm)| Inst::OpImm {
            op: AluOp::Srl,
            rd,
            rs1,
            imm
        }),
        (any_reg(), any_reg(), 0i32..32).prop_map(|(rd, rs1, imm)| Inst::OpImm {
            op: AluOp::Sraw,
            rd,
            rs1,
            imm
        }),
        (any_fmt(), any_freg(), any_reg(), imm12())
            .prop_map(|(fmt, rd, rs1, offset)| Inst::FpLoad { fmt, rd, rs1, offset }),
        (any_fmt(), any_reg(), any_freg(), imm12())
            .prop_map(|(fmt, rs1, rs2, offset)| Inst::FpStore { fmt, rs1, rs2, offset }),
        (fp_arith, any_fmt(), any_freg(), any_freg(), any_freg())
            .prop_map(|(op, fmt, rd, rs1, rs2)| Inst::FpOp { op, fmt, rd, rs1, rs2 }),
        (any_fmt(), any_freg(), any_freg()).prop_map(|(fmt, rd, rs1)| Inst::FpOp {
            op: FpOp::Sqrt,
            fmt,
            rd,
            rs1,
            rs2: rs1
        }),
        (fma, any_fmt(), any_freg(), any_freg(), any_freg(), any_freg())
            .prop_map(|(op, fmt, rd, rs1, rs2, rs3)| Inst::FpFma { op, fmt, rd, rs1, rs2, rs3 }),
        (cmp, any_fmt(), any_reg(), any_freg(), any_freg())
            .prop_map(|(cmp, fmt, rd, rs1, rs2)| Inst::FpCmp { cmp, fmt, rd, rs1, rs2 }),
        (cvt.clone(), any_fmt(), any_reg(), any_freg(), rm)
            .prop_map(|(to, fmt, rd, rs1, rm)| Inst::FpCvtToInt { to, fmt, rd, rs1, rm }),
        (cvt, any_fmt(), any_freg(), any_reg())
            .prop_map(|(from, fmt, rd, rs1)| Inst::FpCvtFromInt { from, fmt, rd, rs1 }),
        (any_fmt(), any_freg(), any_freg()).prop_map(|(to, rd, rs1)| Inst::FpCvtFmt {
            to,
            rd,
            rs1
        }),
        (any_fmt(), any_reg(), any_freg()).prop_map(|(fmt, rd, rs1)| Inst::FpMvToInt {
            fmt,
            rd,
            rs1
        }),
        (any_fmt(), any_freg(), any_reg()).prop_map(|(fmt, rd, rs1)| Inst::FpMvFromInt {
            fmt,
            rd,
            rs1
        }),
        Just(Inst::Fence),
        Just(Inst::Ecall),
        Just(Inst::Ebreak),
    ]
}

proptest! {
    /// decode(encode(i)) == i for every constructible instruction.
    #[test]
    fn encode_decode_round_trip(inst in any_inst()) {
        let word = encode(inst);
        let back = decode(word).expect("canonical encoding must decode");
        prop_assert_eq!(back, inst);
    }

    /// The decoder never panics on arbitrary words, and anything it accepts
    /// re-encodes to a decodable word with identical meaning.
    #[test]
    fn decode_is_total_and_stable(word in any::<u32>()) {
        if let Ok(inst) = decode(word) {
            let re = encode(inst);
            let again = decode(re).expect("re-encoded word must decode");
            prop_assert_eq!(again, inst);
        }
    }

    /// Disassembly is never empty for any decodable word.
    #[test]
    fn disasm_nonempty(inst in any_inst()) {
        prop_assert!(!inst.to_string().is_empty());
    }

    /// Memory reads return exactly what was written, across page boundaries.
    #[test]
    fn memory_read_after_write(
        addr in 0u64..(1 << 40),
        value in any::<u64>(),
        size_sel in 0usize..4,
    ) {
        let size = [1u64, 2, 4, 8][size_sel];
        let mut m = Memory::new();
        m.write(addr, size, value);
        let mask = if size == 8 { u64::MAX } else { (1u64 << (8 * size)) - 1 };
        prop_assert_eq!(m.read(addr, size), value & mask);
    }

    /// `Memory` agrees with a byte-map reference model under any mix of
    /// writes (zero writes over non-zero pages included), freezes, clones
    /// and encode/decode round trips, in owned and frozen mode, with
    /// accesses straddling pages and the flat region's edges. Clones stay
    /// independent of the memory they were taken from.
    #[test]
    fn memory_matches_a_byte_map_model(ops in proptest::collection::vec(mem_op(), 1..48)) {
        let mut m = Memory::new();
        m.reserve_flat(FLAT, FLAT + 4 * PAGE_SIZE);
        let mut model: HashMap<u64, u8> = HashMap::new();
        let mut parked = Vec::new();
        for (kind, addr, size_sel, value) in ops {
            let size = [1u64, 2, 4, 8][size_sel];
            match kind {
                0..=5 => {
                    m.write(addr, size, value);
                    for i in 0..size {
                        model.insert(addr + i, (value >> (8 * i)) as u8);
                    }
                }
                6 => {
                    let bytes: Vec<u8> = (0..(value % (PAGE_SIZE + 64)) + 1)
                        .map(|i| if value & 1 == 0 { 0 } else { (i as u8) ^ (value as u8) })
                        .collect();
                    m.write_bytes(addr, &bytes);
                    for (i, &b) in bytes.iter().enumerate() {
                        model.insert(addr + i as u64, b);
                    }
                }
                7 => m.freeze_flat(),
                8 => {
                    // Keep writing to one of the pair; check the other
                    // against the model as it stood, at the end.
                    let c = m.clone();
                    let old = if value & 1 == 0 { std::mem::replace(&mut m, c) } else { c };
                    parked.push((old, model.clone()));
                }
                _ => {
                    let bytes = encoded(&m);
                    let mut r = ByteReader::new(&bytes);
                    let d = Memory::decode(&mut r).unwrap();
                    r.finish().unwrap();
                    prop_assert_eq!(d.is_frozen(), m.is_frozen());
                    prop_assert_eq!(encoded(&d), bytes);
                    m = d;
                }
            }
            for width in [1u64, 2, 4, 8] {
                prop_assert_eq!(m.read(addr, width), model_read(&model, addr, width));
            }
        }
        assert_matches_model(&m, &model);
        for (old, old_model) in &parked {
            assert_matches_model(old, old_model);
        }
    }

    /// Checkpoint + restore mid-run reproduces the exact final state of an
    /// uninterrupted run, for randomized arithmetic programs.
    #[test]
    fn checkpoint_restore_determinism(
        seed in any::<u64>(),
        iters in 10u32..200,
        split in 5u64..100,
    ) {
        let mut a = Assembler::new();
        a.li(Reg::A0, seed as i64);
        a.li(Reg::T0, iters as i64);
        a.label("loop");
        // xorshift-style mixing so state depends on every iteration
        a.slli(Reg::T1, Reg::A0, 13);
        a.xor(Reg::A0, Reg::A0, Reg::T1);
        a.srli(Reg::T1, Reg::A0, 7);
        a.xor(Reg::A0, Reg::A0, Reg::T1);
        a.addi(Reg::T0, Reg::T0, -1);
        a.bnez(Reg::T0, "loop");
        a.exit();
        let p = a.assemble().unwrap();

        let mut straight = Cpu::new(&p);
        straight.run(u64::MAX).unwrap();

        let mut first = Cpu::new(&p);
        let stop = first.run(split).unwrap();
        let mut resumed = if matches!(stop, rv_isa::cpu::StopReason::Exited(_)) {
            // The split fell past program exit; the checkpoint degenerates
            // to the final state.
            first
        } else {
            let ck = Checkpoint::capture(&first);
            let mut resumed = ck.restore();
            resumed.run(u64::MAX).unwrap();
            resumed
        };
        let _ = &mut resumed;

        prop_assert_eq!(straight.xregs(), resumed.xregs());
        prop_assert_eq!(straight.pc(), resumed.pc());
        prop_assert_eq!(straight.instret(), resumed.instret());
    }
}
