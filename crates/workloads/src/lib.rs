//! # rv-workloads — the paper's eleven benchmarks for RV64IMFD
//!
//! The paper evaluates eleven workloads from MiBench and Embench
//! (Table II). No RISC-V cross-compiler exists in this environment, so
//! each benchmark kernel is re-implemented against the [`rv_isa::asm`]
//! macro-assembler with:
//!
//! * **deterministic inputs** generated from fixed seeds, embedded in the
//!   program image;
//! * **self-verification**: every program checks its own result (against
//!   a Rust-side oracle constant baked into the image, or an algebraic
//!   property) and exits with code 0 on success;
//! * **a scaling knob** ([`Scale`]): dynamic instruction counts are scaled
//!   down ~50–100× from the paper's hundreds of millions (Table II) so a
//!   full SimPoint flow runs in seconds — SimPoint makes the methodology
//!   insensitive to absolute workload length, which is exactly the
//!   paper's point.
//!
//! The kernels preserve the *microarchitectural signatures* the paper's
//! analysis keys on: Sha's high ILP, Dijkstra's dependence-bound
//! issue-queue pressure, FFT/iFFT/Qsort's floating-point use, Matmult and
//! Tarfind's data-cache traffic, Tarfind's low IPC, and Patricia's
//! pointer chasing.
//!
//! ```
//! use rv_workloads::{all, Scale};
//! use rv_isa::cpu::{Cpu, StopReason};
//!
//! let workloads = all(Scale::Test);
//! assert_eq!(workloads.len(), 11);
//! let mut cpu = Cpu::new(&workloads[0].program);
//! assert_eq!(cpu.run(50_000_000).unwrap(), StopReason::Exited(0));
//! ```

#![warn(missing_docs)]
pub mod basicmath;
pub mod bitcount;
pub mod data;
pub mod dijkstra;
pub mod fft;
pub mod matmult;
pub mod patricia;
pub mod qsort;
pub mod sha;
pub mod stringsearch;
pub mod tarfind;

use rv_isa::Program;

/// Which benchmark suite a workload comes from (paper Table II).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Suite {
    /// MiBench (Guthaus et al., WWC 2001).
    MiBench,
    /// Embench (embench.org).
    Embench,
}

impl Suite {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Suite::MiBench => "MiBench",
            Suite::Embench => "Embench",
        }
    }
}

/// Workload size selector.
///
/// `Full` is the evaluation size used by the benches (≈0.5–6 M dynamic
/// instructions per workload, a documented ~50–100× scale-down of the
/// paper's Table II); `Small` suits integration tests; `Test` keeps unit
/// tests fast.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Tiny: tens of thousands of instructions.
    Test,
    /// Medium: a few hundred thousand instructions.
    Small,
    /// Evaluation size: millions of instructions.
    Full,
}

rv_isa::tags!(Scale { Test = 0, Small = 1, Full = 2 });

impl Scale {
    /// A scale-dependent iteration/size factor: `Test` = base,
    /// `Small` ≈ 4×, `Full` ≈ 16×.
    pub fn factor(self) -> u64 {
        match self {
            Scale::Test => 1,
            Scale::Small => 4,
            Scale::Full => 16,
        }
    }

    /// SimPoint interval size (dynamic instructions) appropriate for this
    /// scale — the analogue of Table II's 1M/2M intervals.
    pub fn interval(self) -> u64 {
        match self {
            Scale::Test => 2_000,
            Scale::Small => 10_000,
            Scale::Full => 50_000,
        }
    }
}

/// One benchmark: a self-verifying program plus its Table II metadata.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Benchmark name as the paper prints it.
    pub name: &'static str,
    /// Source suite.
    pub suite: Suite,
    /// The assembled, loadable program (exits 0 on success).
    pub program: Program,
    /// SimPoint interval size in dynamic instructions for this scale
    /// (Table II's "Interval" column, scaled).
    pub interval_size: u64,
}

/// Builds one workload at a scale.
type Builder = fn(Scale) -> Workload;

/// Every workload's paper name and builder, in the paper's Table II
/// order — the one list both [`all`] and [`by_name`] read.
const TABLE: [(&str, Builder); 11] = [
    ("Basicmath", basicmath::build),
    ("Stringsearch", stringsearch::build),
    ("FFT", |scale| fft::build(scale, false)),
    ("iFFT", |scale| fft::build(scale, true)),
    ("Bitcount", bitcount::build),
    ("Qsort", qsort::build),
    ("Dijkstra", dijkstra::build),
    ("Patricia", patricia::build),
    ("Matmult", matmult::build),
    ("Sha", sha::build),
    ("Tarfind", tarfind::build),
];

/// Builds all eleven workloads in the paper's Table II order.
pub fn all(scale: Scale) -> Vec<Workload> {
    TABLE.iter().map(|(_, build)| build(scale)).collect()
}

/// Every workload's paper name, in the paper's Table II order.
pub fn names() -> impl Iterator<Item = &'static str> {
    TABLE.iter().map(|(name, _)| *name)
}

/// Looks a workload up by its paper name (case-insensitive) and builds
/// only that one.
pub fn by_name(name: &str, scale: Scale) -> Option<Workload> {
    TABLE.iter().find(|(n, _)| n.eq_ignore_ascii_case(name)).map(|(_, build)| build(scale))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eleven_workloads_in_table2_order() {
        let names: Vec<&str> = all(Scale::Test).iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            vec![
                "Basicmath",
                "Stringsearch",
                "FFT",
                "iFFT",
                "Bitcount",
                "Qsort",
                "Dijkstra",
                "Patricia",
                "Matmult",
                "Sha",
                "Tarfind"
            ]
        );
    }

    #[test]
    fn lookup_by_name() {
        for w in all(Scale::Test) {
            for name in [w.name.to_string(), w.name.to_lowercase(), w.name.to_uppercase()] {
                let found = by_name(&name, Scale::Test)
                    .unwrap_or_else(|| panic!("'{name}' must name a workload"));
                assert_eq!(found.name, w.name, "'{name}'");
                assert_eq!(found.program.fingerprint(), w.program.fingerprint(), "'{name}'");
                assert_eq!(found.interval_size, w.interval_size, "'{name}'");
            }
        }
        assert!(by_name("nope", Scale::Test).is_none());
        assert!(by_name("", Scale::Test).is_none());
    }
}

#[cfg(test)]
mod scale_tests {
    use super::*;
    use rv_isa::cpu::{Cpu, StopReason};

    /// Dynamic instruction counts must grow with scale for every workload,
    /// and every scale must still self-verify.
    #[test]
    fn scales_grow_and_verify() {
        for (test_w, small_w) in all(Scale::Test).into_iter().zip(all(Scale::Small)) {
            let count = |w: &Workload| -> u64 {
                let mut cpu = Cpu::new(&w.program);
                let stop = cpu.run(500_000_000).unwrap();
                assert_eq!(stop, StopReason::Exited(0), "{} failed", w.name);
                cpu.instret()
            };
            let t = count(&test_w);
            let s = count(&small_w);
            assert!(s > 2 * t, "{}: Test {t} vs Small {s}", test_w.name);
        }
    }
}
