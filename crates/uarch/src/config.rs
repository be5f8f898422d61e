//! BOOM core configurations (the paper's Table I).
//!
//! The three presets mirror Chipyard's `MediumBoomConfig` (2-wide),
//! `LargeBoomConfig` (3-wide) and `MegaBoomConfig` (4-wide) generator
//! parameters: widths, window sizes, register-file port counts, issue queue
//! capacities, load/store queues, MSHRs, and cache geometry.

use crate::issue::IssueQueueKind;
use rv_isa::codec::{ByteReader, ByteWriter, Codec, CodecError};
use std::fmt;

/// A configuration parameter that cannot describe buildable hardware.
///
/// Returned by [`BoomConfig::validate`] (and the `Cache::try_new`
/// constructor) instead of panicking, so the CLI can report a bad
/// `--l2`/`--dram` knob as a usage error rather than a crash.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// A count that must be a power of two (cache sets, line bytes, DRAM
    /// row bytes) is not.
    NotPowerOfTwo {
        /// Which parameter.
        what: String,
        /// The offending value.
        got: u64,
    },
    /// A parameter that must be nonzero (ways, MSHRs, latencies, DRAM
    /// burst cycles) is zero.
    Zero {
        /// Which parameter.
        what: String,
    },
    /// The L2 line is smaller than an L1 line, so one L1 refill would
    /// need several L2 transactions (not modelled).
    L2LineSmallerThanL1 {
        /// L2 line size in bytes.
        l2_line: usize,
        /// The larger L1 line size in bytes.
        l1_line: usize,
    },
    /// The DRAM open-row hit latency exceeds the closed-row latency.
    RowHitSlowerThanMiss {
        /// Configured open-row hit latency.
        row_hit: u64,
        /// Configured closed-row latency.
        latency: u64,
    },
    /// Event-driven idle-cycle skipping was requested in a mode that
    /// cannot honor it (a dual-core co-run's strict cycle interleave
    /// must observe every cycle of both cores, and a shared uncore is
    /// not idle-skip-safe). Rejected up front rather than silently
    /// desynchronizing or silently ignoring the flag.
    IdleSkipUnsupported {
        /// The incompatible mode, e.g. `"--co-run dual-core cells"`.
        what: String,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NotPowerOfTwo { what, got } => {
                write!(f, "{what} must be a power of two (got {got})")
            }
            ConfigError::Zero { what } => write!(f, "{what} must be nonzero"),
            ConfigError::L2LineSmallerThanL1 { l2_line, l1_line } => write!(
                f,
                "L2 line size ({l2_line} B) must be at least the L1 line size ({l1_line} B)"
            ),
            ConfigError::RowHitSlowerThanMiss { row_hit, latency } => write!(
                f,
                "DRAM row-hit latency ({row_hit}) must not exceed the closed-row latency \
                 ({latency})"
            ),
            ConfigError::IdleSkipUnsupported { what } => {
                write!(f, "event-driven idle-cycle skipping is not supported with {what}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

rv_isa::record! {
    /// Geometry and timing of one L1 cache.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct CacheParams {
        /// Number of sets.
        pub sets: usize [key],
        /// Associativity.
        pub ways: usize [key],
        /// Line size in bytes.
        pub line_bytes: usize [key],
        /// Miss Status Handling Registers (outstanding misses).
        pub mshrs: usize [key],
        /// Hit latency in cycles.
        pub hit_latency: u64 [key],
    }
}

impl CacheParams {
    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.sets * self.ways * self.line_bytes
    }

    /// Checks the geometry is buildable; `what` names the cache in error
    /// messages (`"dcache"`, `"l2"`).
    pub fn validate(&self, what: &str) -> Result<(), ConfigError> {
        if !self.sets.is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo {
                what: format!("{what} sets"),
                got: self.sets as u64,
            });
        }
        if !self.line_bytes.is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo {
                what: format!("{what} line bytes"),
                got: self.line_bytes as u64,
            });
        }
        for (field, v) in
            [("ways", self.ways), ("mshrs", self.mshrs), ("hit latency", self.hit_latency as usize)]
        {
            if v == 0 {
                return Err(ConfigError::Zero { what: format!("{what} {field}") });
            }
        }
        Ok(())
    }
}

rv_isa::record! {
    /// Uncore knobs of the [`MemBackendKind::Hierarchy`] backend: a shared
    /// MSHR-tracked L2 backed by a bandwidth-bounded DRAM channel.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct HierarchyParams {
        /// Shared L2 geometry and timing.
        pub l2: CacheParams [key],
        /// Closed-row DRAM access latency in cycles (core clock).
        pub dram_latency: u64 [key],
        /// Cycles the DRAM channel is busy per line transfer — the bandwidth
        /// bound: a second request issued while the channel is busy waits.
        pub dram_burst_cycles: u64 [key],
        /// Open-row hit latency in cycles; set equal to `dram_latency` to
        /// disable the open-row bonus.
        pub dram_row_hit_latency: u64 [key],
        /// DRAM row-buffer size in bytes (power of two, ≥ the L2 line).
        pub dram_row_bytes: u64 [key],
    }
}

impl HierarchyParams {
    /// Table-I-style default uncore: a 256 KiB 8-way shared L2 with
    /// 8 MSHRs and 12-cycle hits, over an 80-cycle DRAM with a 4-cycle
    /// line-transfer slot and a 2 KiB open row at 48 cycles.
    pub fn default_uncore() -> HierarchyParams {
        HierarchyParams {
            l2: CacheParams { sets: 512, ways: 8, line_bytes: 64, mshrs: 8, hit_latency: 12 },
            dram_latency: 80,
            dram_burst_cycles: 4,
            dram_row_hit_latency: 48,
            dram_row_bytes: 2048,
        }
    }

    /// Checks the uncore against the core's L1 geometry.
    pub fn validate(&self, l1_line_bytes: usize) -> Result<(), ConfigError> {
        self.l2.validate("l2")?;
        if self.l2.line_bytes < l1_line_bytes {
            return Err(ConfigError::L2LineSmallerThanL1 {
                l2_line: self.l2.line_bytes,
                l1_line: l1_line_bytes,
            });
        }
        if !self.dram_row_bytes.is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo {
                what: "dram row bytes".to_string(),
                got: self.dram_row_bytes,
            });
        }
        for (field, v) in [
            ("dram latency", self.dram_latency),
            ("dram burst cycles", self.dram_burst_cycles),
            ("dram row-hit latency", self.dram_row_hit_latency),
        ] {
            if v == 0 {
                return Err(ConfigError::Zero { what: field.to_string() });
            }
        }
        if self.dram_row_hit_latency > self.dram_latency {
            return Err(ConfigError::RowHitSlowerThanMiss {
                row_hit: self.dram_row_hit_latency,
                latency: self.dram_latency,
            });
        }
        Ok(())
    }
}

/// What services an L1 miss — the swappable memory-system backend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemBackendKind {
    /// A flat backing memory with a fixed refill latency
    /// ([`BoomConfig::mem_latency`]) — the paper's model.
    FixedLatency,
    /// A shared L2 + DRAM hierarchy with the given uncore knobs.
    Hierarchy(HierarchyParams),
}

/// A one-byte tag, then the uncore knobs for `Hierarchy`.
impl Codec for MemBackendKind {
    const MIN_BYTES: usize = 1;
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            MemBackendKind::FixedLatency => w.put_u8(0),
            MemBackendKind::Hierarchy(h) => {
                w.put_u8(1);
                h.encode(w);
            }
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<MemBackendKind, CodecError> {
        match r.u8()? {
            0 => Ok(MemBackendKind::FixedLatency),
            1 => Ok(MemBackendKind::Hierarchy(HierarchyParams::decode(r)?)),
            _ => Err(CodecError::Invalid("memory backend tag")),
        }
    }
}

/// Which conditional branch predictor the front end uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PredictorKind {
    /// BOOM's default TAGE predictor (the paper's configuration).
    Tage,
    /// The gshare predictor used by the paper's prior-work comparison
    /// (Key Takeaway #7 ablation).
    Gshare,
    /// A plain bimodal predictor (cheapest ablation point).
    Bimodal,
}

rv_isa::tags!(PredictorKind { Tage = 0, Gshare = 1, Bimodal = 2 });

rv_isa::record! {
    /// A complete BOOM core configuration.
    ///
    /// Construct with [`BoomConfig::medium`], [`BoomConfig::large`], or
    /// [`BoomConfig::mega`], then adjust fields for ablation studies.
    #[derive(Clone, Debug)]
    pub struct BoomConfig {
        /// Human-readable configuration name. Out of key: configurations
        /// that differ only in name share every simulated point.
        pub name: String [nokey],
        /// Instructions fetched per cycle (within one cache line).
        pub fetch_width: usize [key],
        /// Decode/rename/dispatch width; also the commit width.
        pub decode_width: usize [key],
        /// Reorder buffer entries.
        pub rob_entries: usize [key],
        /// Integer physical registers.
        pub int_phys_regs: usize [key],
        /// Floating-point physical registers.
        pub fp_phys_regs: usize [key],
        /// Integer register file read ports.
        pub irf_read_ports: usize [key],
        /// Integer register file write ports.
        pub irf_write_ports: usize [key],
        /// FP register file read ports.
        pub frf_read_ports: usize [key],
        /// FP register file write ports.
        pub frf_write_ports: usize [key],
        /// Integer issue queue slots.
        pub int_issue_slots: usize [key],
        /// Memory issue queue slots.
        pub mem_issue_slots: usize [key],
        /// FP issue queue slots.
        pub fp_issue_slots: usize [key],
        /// Integer instructions issued per cycle (= integer ALUs).
        pub int_issue_width: usize [key],
        /// Memory operations issued per cycle (= memory execution units).
        pub mem_issue_width: usize [key],
        /// FP operations issued per cycle (= FPUs).
        pub fp_issue_width: usize [key],
        /// Load queue entries.
        pub ldq_entries: usize [key],
        /// Store queue entries.
        pub stq_entries: usize [key],
        /// Fetch buffer entries (instructions).
        pub fetch_buffer_entries: usize [key],
        /// Maximum in-flight branches (rename snapshots / allocation lists).
        pub max_br_count: usize [key],
        /// BTB sets.
        pub btb_sets: usize [key],
        /// BTB ways.
        pub btb_ways: usize [key],
        /// Return-address stack entries.
        pub ras_entries: usize [key],
        /// Conditional predictor flavour.
        pub predictor: PredictorKind [key],
        /// Scale factor for predictor table sizes (Medium uses half-size BTB).
        pub bp_table_shift: u32 [key],
        /// L1 instruction cache.
        pub icache: CacheParams [key],
        /// L1 data cache.
        pub dcache: CacheParams [key],
        /// Backing-memory latency in cycles (L1 miss penalty under the
        /// [`MemBackendKind::FixedLatency`] backend).
        pub mem_latency: u64 [key],
        /// Memory-system backend serving L1 misses.
        pub mem_backend: MemBackendKind [key],
        /// Additional front-end redirect penalty on a mispredict, beyond the
        /// natural pipeline refill (models BOOM's deeper fetch pipeline).
        pub redirect_penalty: u64 [key],
        /// Pipelined integer multiply latency.
        pub mul_latency: u64 [key],
        /// Unpipelined integer divide latency.
        pub div_latency: u64 [key],
        /// Pipelined FPU (add/mul/fma/cvt) latency.
        pub fpu_latency: u64 [key],
        /// Unpipelined FP divide/sqrt latency.
        pub fdiv_latency: u64 [key],
        /// Core clock in Hz (the paper runs everything at 500 MHz).
        pub clock_hz: f64 [key],
        /// Issue-queue implementation (Key Takeaway #5 ablation).
        pub iq_kind: IssueQueueKind [key],
    }
}

impl BoomConfig {
    /// `MediumBoomConfig`: the 2-wide core.
    pub fn medium() -> BoomConfig {
        BoomConfig {
            name: "MediumBOOM".to_string(),
            fetch_width: 4,
            decode_width: 2,
            rob_entries: 64,
            int_phys_regs: 80,
            fp_phys_regs: 64,
            irf_read_ports: 6,
            irf_write_ports: 3,
            frf_read_ports: 3,
            frf_write_ports: 2,
            int_issue_slots: 20,
            mem_issue_slots: 12,
            fp_issue_slots: 16,
            int_issue_width: 2,
            mem_issue_width: 1,
            fp_issue_width: 1,
            ldq_entries: 16,
            stq_entries: 16,
            fetch_buffer_entries: 16,
            max_br_count: 12,
            btb_sets: 64,
            btb_ways: 2,
            ras_entries: 32,
            predictor: PredictorKind::Tage,
            bp_table_shift: 1, // half-size tables (paper: Medium's BTB is half)
            icache: CacheParams { sets: 64, ways: 4, line_bytes: 64, mshrs: 2, hit_latency: 1 },
            dcache: CacheParams { sets: 64, ways: 4, line_bytes: 64, mshrs: 4, hit_latency: 3 },
            mem_latency: 40,
            mem_backend: MemBackendKind::FixedLatency,
            redirect_penalty: 3,
            mul_latency: 3,
            div_latency: 16,
            fpu_latency: 4,
            fdiv_latency: 18,
            clock_hz: 500e6,
            iq_kind: IssueQueueKind::Collapsing,
        }
    }

    /// `LargeBoomConfig`: the 3-wide core.
    pub fn large() -> BoomConfig {
        BoomConfig {
            name: "LargeBOOM".to_string(),
            fetch_width: 8,
            decode_width: 3,
            rob_entries: 96,
            int_phys_regs: 100,
            fp_phys_regs: 96,
            irf_read_ports: 8,
            irf_write_ports: 4,
            frf_read_ports: 4,
            frf_write_ports: 2,
            int_issue_slots: 32,
            mem_issue_slots: 24,
            fp_issue_slots: 24,
            int_issue_width: 3,
            mem_issue_width: 1,
            fp_issue_width: 1,
            ldq_entries: 24,
            stq_entries: 24,
            fetch_buffer_entries: 24,
            max_br_count: 16,
            btb_sets: 128,
            btb_ways: 2,
            ras_entries: 32,
            predictor: PredictorKind::Tage,
            bp_table_shift: 0,
            icache: CacheParams { sets: 64, ways: 8, line_bytes: 64, mshrs: 2, hit_latency: 1 },
            dcache: CacheParams { sets: 64, ways: 8, line_bytes: 64, mshrs: 4, hit_latency: 3 },
            mem_latency: 40,
            mem_backend: MemBackendKind::FixedLatency,
            redirect_penalty: 3,
            mul_latency: 3,
            div_latency: 16,
            fpu_latency: 4,
            fdiv_latency: 18,
            clock_hz: 500e6,
            iq_kind: IssueQueueKind::Collapsing,
        }
    }

    /// `MegaBoomConfig`: the 4-wide core.
    pub fn mega() -> BoomConfig {
        BoomConfig {
            name: "MegaBOOM".to_string(),
            fetch_width: 8,
            decode_width: 4,
            rob_entries: 128,
            int_phys_regs: 128,
            fp_phys_regs: 128,
            irf_read_ports: 12,
            irf_write_ports: 6,
            frf_read_ports: 6,
            frf_write_ports: 4,
            int_issue_slots: 40,
            mem_issue_slots: 24,
            fp_issue_slots: 32,
            int_issue_width: 4,
            mem_issue_width: 2,
            fp_issue_width: 2,
            ldq_entries: 32,
            stq_entries: 32,
            fetch_buffer_entries: 32,
            max_br_count: 20,
            btb_sets: 128,
            btb_ways: 2,
            ras_entries: 32,
            predictor: PredictorKind::Tage,
            bp_table_shift: 0,
            icache: CacheParams { sets: 64, ways: 8, line_bytes: 64, mshrs: 2, hit_latency: 1 },
            dcache: CacheParams { sets: 64, ways: 8, line_bytes: 64, mshrs: 8, hit_latency: 3 },
            mem_latency: 40,
            mem_backend: MemBackendKind::FixedLatency,
            redirect_penalty: 3,
            mul_latency: 3,
            div_latency: 16,
            fpu_latency: 4,
            fdiv_latency: 18,
            clock_hz: 500e6,
            iq_kind: IssueQueueKind::Collapsing,
        }
    }

    /// A paper configuration by its lower-case name: `medium`, `large`
    /// or `mega`.
    pub fn preset(name: &str) -> Option<BoomConfig> {
        match name {
            "medium" => Some(BoomConfig::medium()),
            "large" => Some(BoomConfig::large()),
            "mega" => Some(BoomConfig::mega()),
            _ => None,
        }
    }

    /// The three paper configurations, smallest first.
    pub fn all_three() -> Vec<BoomConfig> {
        vec![BoomConfig::medium(), BoomConfig::large(), BoomConfig::mega()]
    }

    /// Returns a copy using the given conditional predictor (for the
    /// TAGE-vs-gshare ablation of Key Takeaway #7).
    pub fn with_predictor(mut self, predictor: PredictorKind) -> BoomConfig {
        self.predictor = predictor;
        self
    }

    /// Returns a copy using the given issue-queue implementation (for the
    /// collapsing-vs-non-collapsing ablation of Key Takeaway #5).
    pub fn with_issue_queue(mut self, kind: IssueQueueKind) -> BoomConfig {
        self.iq_kind = kind;
        self
    }

    /// Returns a copy served by the L2 + DRAM [`MemBackendKind::Hierarchy`]
    /// backend, with `+L2` appended to the name so campaign cells
    /// distinguish it from the flat-memory configuration (its key differs
    /// through `mem_backend`).
    pub fn with_hierarchy(mut self, uncore: HierarchyParams) -> BoomConfig {
        self.name.push_str("+L2");
        self.mem_backend = MemBackendKind::Hierarchy(uncore);
        self
    }

    /// Re-derives the register-file port counts and the fetch buffer from
    /// the issue and fetch widths, for generated (swept) configurations
    /// whose widths departed from a preset.
    ///
    /// The rule matches the presets' scaling: each integer or memory unit
    /// needs two read ports and one write port (Medium 6/3, Large 8/4,
    /// Mega 12/6), each FPU three read and two write ports (Medium 3/2,
    /// Mega 6/4; Large's fourth FP read port is a preset quirk the
    /// uniform rule does not reproduce), and the fetch buffer holds four
    /// fetch groups.
    pub fn derive_ports(&mut self) {
        self.irf_read_ports = 2 * (self.int_issue_width + self.mem_issue_width);
        self.irf_write_ports = self.int_issue_width + self.mem_issue_width;
        self.frf_read_ports = 3 * self.fp_issue_width;
        self.frf_write_ports = 2 * self.fp_issue_width;
        self.fetch_buffer_entries = 4 * self.fetch_width;
    }

    /// Validates every memory-system parameter, typed instead of panicking
    /// — the CLI surfaces the error next to the offending flag.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.icache.validate("icache")?;
        self.dcache.validate("dcache")?;
        if self.mem_latency == 0 {
            return Err(ConfigError::Zero { what: "mem_latency".to_string() });
        }
        if let MemBackendKind::Hierarchy(h) = &self.mem_backend {
            h.validate(self.icache.line_bytes.max(self.dcache.line_bytes))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_scale_monotonically() {
        let m = BoomConfig::medium();
        let l = BoomConfig::large();
        let g = BoomConfig::mega();
        assert!(m.decode_width < l.decode_width && l.decode_width < g.decode_width);
        assert!(m.rob_entries < l.rob_entries && l.rob_entries < g.rob_entries);
        assert!(m.int_phys_regs < l.int_phys_regs && l.int_phys_regs < g.int_phys_regs);
        assert!(m.irf_read_ports < l.irf_read_ports && l.irf_read_ports < g.irf_read_ports);
        assert!(m.int_issue_slots < l.int_issue_slots && l.int_issue_slots < g.int_issue_slots);
    }

    #[test]
    fn paper_table1_invariants() {
        let m = BoomConfig::medium();
        let l = BoomConfig::large();
        let g = BoomConfig::mega();
        // Mega has 12 read / 6 write IRF ports; Large 8/4; Medium 6/3 (§IV-B).
        assert_eq!((g.irf_read_ports, g.irf_write_ports), (12, 6));
        assert_eq!((l.irf_read_ports, l.irf_write_ports), (8, 4));
        assert_eq!((m.irf_read_ports, m.irf_write_ports), (6, 3));
        // Mega's FP RF has 2x the ports of Large (Key Takeaway #2).
        assert_eq!(g.frf_read_ports, 2 * (l.frf_read_ports - 1)); // 6 vs 4
        assert_eq!(g.frf_write_ports, 2 * l.frf_write_ports);
        // Mega: 40 integer issue slots (Fig. 8), two memory units, 2x MSHRs.
        assert_eq!(g.int_issue_slots, 40);
        assert_eq!(g.mem_issue_width, 2);
        assert_eq!(g.dcache.mshrs, 2 * l.dcache.mshrs);
        // Large and Mega share D-cache geometry; Medium is half-size.
        assert_eq!(l.dcache.capacity_bytes(), g.dcache.capacity_bytes());
        assert_eq!(2 * m.dcache.capacity_bytes(), l.dcache.capacity_bytes());
        // Medium's predictor tables are half-size.
        assert_eq!(m.bp_table_shift, 1);
        assert_eq!(l.bp_table_shift, 0);
        // Everything runs at 500 MHz.
        for c in [&m, &l, &g] {
            assert_eq!(c.clock_hz, 500e6);
        }
    }

    #[test]
    fn presets_validate_with_and_without_hierarchy() {
        for cfg in BoomConfig::all_three() {
            cfg.validate().expect("preset must validate");
            let l2 = cfg.with_hierarchy(HierarchyParams::default_uncore());
            assert!(l2.name.ends_with("+L2"));
            l2.validate().expect("hierarchy preset must validate");
        }
    }

    #[test]
    fn config_key_covers_every_field_but_the_name() {
        let base = BoomConfig::medium();
        let key = base.content_key();
        let mut renamed = base.clone();
        renamed.name = "MediumCopy".to_string();
        assert_eq!(renamed.content_key(), key, "the display name is out of key");
        type Perturb = fn(&mut BoomConfig);
        let perturbations: [(&str, Perturb); 47] = [
            ("fetch_width", |c| c.fetch_width += 1),
            ("decode_width", |c| c.decode_width += 1),
            ("rob_entries", |c| c.rob_entries += 1),
            ("int_phys_regs", |c| c.int_phys_regs += 1),
            ("fp_phys_regs", |c| c.fp_phys_regs += 1),
            ("irf_read_ports", |c| c.irf_read_ports += 1),
            ("irf_write_ports", |c| c.irf_write_ports += 1),
            ("frf_read_ports", |c| c.frf_read_ports += 1),
            ("frf_write_ports", |c| c.frf_write_ports += 1),
            ("int_issue_slots", |c| c.int_issue_slots += 1),
            ("mem_issue_slots", |c| c.mem_issue_slots += 1),
            ("fp_issue_slots", |c| c.fp_issue_slots += 1),
            ("int_issue_width", |c| c.int_issue_width += 1),
            ("mem_issue_width", |c| c.mem_issue_width += 1),
            ("fp_issue_width", |c| c.fp_issue_width += 1),
            ("ldq_entries", |c| c.ldq_entries += 1),
            ("stq_entries", |c| c.stq_entries += 1),
            ("fetch_buffer_entries", |c| c.fetch_buffer_entries += 1),
            ("max_br_count", |c| c.max_br_count += 1),
            ("btb_sets", |c| c.btb_sets += 1),
            ("btb_ways", |c| c.btb_ways += 1),
            ("ras_entries", |c| c.ras_entries += 1),
            ("predictor", |c| c.predictor = PredictorKind::Gshare),
            ("bp_table_shift", |c| c.bp_table_shift += 1),
            ("icache.sets", |c| c.icache.sets += 1),
            ("icache.ways", |c| c.icache.ways += 1),
            ("icache.line_bytes", |c| c.icache.line_bytes += 1),
            ("icache.mshrs", |c| c.icache.mshrs += 1),
            ("icache.hit_latency", |c| c.icache.hit_latency += 1),
            ("dcache.sets", |c| c.dcache.sets += 1),
            ("dcache.ways", |c| c.dcache.ways += 1),
            ("dcache.line_bytes", |c| c.dcache.line_bytes += 1),
            ("dcache.mshrs", |c| c.dcache.mshrs += 1),
            ("dcache.hit_latency", |c| c.dcache.hit_latency += 1),
            ("mem_latency", |c| c.mem_latency += 1),
            ("mem_backend", |c| {
                c.mem_backend = MemBackendKind::Hierarchy(HierarchyParams::default_uncore())
            }),
            ("redirect_penalty", |c| c.redirect_penalty += 1),
            ("mul_latency", |c| c.mul_latency += 1),
            ("div_latency", |c| c.div_latency += 1),
            ("fpu_latency", |c| c.fpu_latency += 1),
            ("fdiv_latency", |c| c.fdiv_latency += 1),
            ("clock_hz", |c| c.clock_hz *= 2.0),
            ("iq_kind", |c| c.iq_kind = IssueQueueKind::NonCollapsing),
            ("hierarchy.l2", |c| hierarchy(c).l2.ways += 1),
            ("hierarchy.dram_latency", |c| hierarchy(c).dram_latency += 1),
            ("hierarchy.dram_burst_cycles", |c| hierarchy(c).dram_burst_cycles += 1),
            ("hierarchy.dram_row_hit_latency", |c| hierarchy(c).dram_row_hit_latency += 1),
        ];
        let uncore = base.clone().with_hierarchy(HierarchyParams::default_uncore());
        for (what, perturb) in perturbations {
            let from = if what.starts_with("hierarchy.") { &uncore } else { &base };
            let mut c = from.clone();
            perturb(&mut c);
            assert_ne!(
                c.content_key(),
                from.content_key(),
                "perturbing {what} must change the key"
            );
        }
        let mut rows = uncore.clone();
        hierarchy(&mut rows).dram_row_bytes *= 2;
        assert_ne!(rows.content_key(), uncore.content_key(), "dram_row_bytes is in key");
    }

    /// The uncore knobs of a hierarchy configuration.
    fn hierarchy(c: &mut BoomConfig) -> &mut HierarchyParams {
        match &mut c.mem_backend {
            MemBackendKind::Hierarchy(h) => h,
            MemBackendKind::FixedLatency => panic!("not a hierarchy configuration"),
        }
    }

    #[test]
    fn validation_catches_bad_hierarchy_knobs() {
        let mut h = HierarchyParams::default_uncore();
        h.l2.sets = 12;
        let e = BoomConfig::medium().with_hierarchy(h).validate().unwrap_err();
        assert!(matches!(e, ConfigError::NotPowerOfTwo { .. }), "{e}");

        let mut h = HierarchyParams::default_uncore();
        h.l2.line_bytes = 32; // smaller than the 64 B L1 line
        let e = BoomConfig::medium().with_hierarchy(h).validate().unwrap_err();
        assert!(matches!(e, ConfigError::L2LineSmallerThanL1 { .. }), "{e}");

        let mut h = HierarchyParams::default_uncore();
        h.l2.mshrs = 0;
        let e = BoomConfig::medium().with_hierarchy(h).validate().unwrap_err();
        assert!(matches!(e, ConfigError::Zero { .. }), "{e}");

        let mut h = HierarchyParams::default_uncore();
        h.dram_burst_cycles = 0;
        let e = BoomConfig::medium().with_hierarchy(h).validate().unwrap_err();
        assert!(e.to_string().contains("burst"), "{e}");

        let mut h = HierarchyParams::default_uncore();
        h.dram_row_hit_latency = h.dram_latency + 1;
        let e = BoomConfig::medium().with_hierarchy(h).validate().unwrap_err();
        assert!(matches!(e, ConfigError::RowHitSlowerThanMiss { .. }), "{e}");
    }
}
