//! Power report types: per-component leakage/internal/switching breakdowns.

use rv_isa::codec::{ByteReader, ByteWriter, Codec, CodecError};
use std::fmt;

/// The thirteen microarchitectural components the paper analyzes, plus
/// the remainder of the BOOM tile (execution units, decode, FTQ, …).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Component {
    /// Integer physical register file (incl. its bypass network).
    IntRegFile,
    /// FP physical register file (incl. its bypass network).
    FpRegFile,
    /// Integer rename unit (map table, free list, allocation lists).
    IntRename,
    /// FP rename unit.
    FpRename,
    /// Integer issue unit (collapsing queue).
    IntIssue,
    /// Memory issue unit.
    MemIssue,
    /// FP issue unit.
    FpIssue,
    /// Reorder buffer.
    Rob,
    /// Branch predictor (conditional predictor + BTB + RAS).
    BranchPredictor,
    /// Fetch buffer.
    FetchBuffer,
    /// Load-store unit (LDQ/STQ + search logic).
    Lsu,
    /// L1 data cache (incl. MSHRs).
    DCache,
    /// L1 instruction cache.
    ICache,
    /// Everything else in the tile (execution units, decode, fetch
    /// control) — needed to reproduce the paper's Fig. 9 contributions.
    RestOfTile,
    /// Shared L2 SRAM (incl. its MSHRs); present only when a hierarchy
    /// memory backend is configured.
    L2Cache,
    /// DRAM interface (controller queues, row activation, bus drivers);
    /// present only when a hierarchy memory backend is configured.
    DramInterface,
}

impl Component {
    /// The thirteen analyzed components, in the paper's presentation order.
    pub const ANALYZED: [Component; 13] = [
        Component::IntRegFile,
        Component::FpRegFile,
        Component::IntRename,
        Component::FpRename,
        Component::IntIssue,
        Component::MemIssue,
        Component::FpIssue,
        Component::Rob,
        Component::BranchPredictor,
        Component::FetchBuffer,
        Component::Lsu,
        Component::DCache,
        Component::ICache,
    ];

    /// All components: the tile remainder plus the uncore components
    /// that appear under the hierarchy memory backend. New variants go
    /// at the end — the journal codec tags components by position here.
    pub const ALL: [Component; 16] = [
        Component::IntRegFile,
        Component::FpRegFile,
        Component::IntRename,
        Component::FpRename,
        Component::IntIssue,
        Component::MemIssue,
        Component::FpIssue,
        Component::Rob,
        Component::BranchPredictor,
        Component::FetchBuffer,
        Component::Lsu,
        Component::DCache,
        Component::ICache,
        Component::RestOfTile,
        Component::L2Cache,
        Component::DramInterface,
    ];

    /// Short display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Component::IntRegFile => "Int RegFile",
            Component::FpRegFile => "FP RegFile",
            Component::IntRename => "Int Rename",
            Component::FpRename => "FP Rename",
            Component::IntIssue => "Int Issue",
            Component::MemIssue => "Mem Issue",
            Component::FpIssue => "FP Issue",
            Component::Rob => "ROB",
            Component::BranchPredictor => "Branch Predictor",
            Component::FetchBuffer => "Fetch Buffer",
            Component::Lsu => "LSU",
            Component::DCache => "L1 DCache",
            Component::ICache => "L1 ICache",
            Component::RestOfTile => "Rest of Tile",
            Component::L2Cache => "L2 Cache",
            Component::DramInterface => "DRAM Interface",
        }
    }
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Power of one component, decomposed the way RTL tools report it.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PowerBreakdown {
    /// Static (leakage) power in mW.
    pub leakage_mw: f64,
    /// Internal (cell-internal) power in mW.
    pub internal_mw: f64,
    /// Switching (net) power in mW.
    pub switching_mw: f64,
}

impl PowerBreakdown {
    /// Total power in mW.
    pub fn total_mw(&self) -> f64 {
        self.leakage_mw + self.internal_mw + self.switching_mw
    }

    /// Component-wise sum.
    pub fn add(&self, other: &PowerBreakdown) -> PowerBreakdown {
        PowerBreakdown {
            leakage_mw: self.leakage_mw + other.leakage_mw,
            internal_mw: self.internal_mw + other.internal_mw,
            switching_mw: self.switching_mw + other.switching_mw,
        }
    }

    /// Scales all three parts (weighted SimPoint averaging).
    pub fn scale(&self, k: f64) -> PowerBreakdown {
        PowerBreakdown {
            leakage_mw: self.leakage_mw * k,
            internal_mw: self.internal_mw * k,
            switching_mw: self.switching_mw * k,
        }
    }
}

/// A complete per-component power report for one simulation.
#[derive(Clone, Debug)]
pub struct PowerReport {
    entries: Vec<(Component, PowerBreakdown)>,
    /// Per-slot power of the integer issue queue (paper Fig. 8), mW.
    pub int_issue_slot_mw: Vec<f64>,
}

/// The component map as (tag, leakage, internal, switching) entries in
/// presentation order, then the per-slot integer-issue powers. A tag is
/// the component's index in [`Component::ALL`].
impl Codec for PowerReport {
    const MIN_BYTES: usize = 16;
    fn encode(&self, w: &mut ByteWriter) {
        w.put_usize(self.entries.len());
        for (c, b) in &self.entries {
            // `u8::MAX` can never match a real slot on decode, so an
            // unknown component (impossible today) fails validation there
            // instead of silently aliasing another component.
            let tag = Component::ALL.iter().position(|x| x == c).map_or(u8::MAX, |i| i as u8);
            w.put_u8(tag);
            w.put_f64(b.leakage_mw);
            w.put_f64(b.internal_mw);
            w.put_f64(b.switching_mw);
        }
        self.int_issue_slot_mw.encode(w);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<PowerReport, CodecError> {
        let n = r.seq_len(25)?;
        let mut entries = Vec::with_capacity(n);
        let mut seen = [false; Component::ALL.len()];
        for _ in 0..n {
            let tag = r.u8()? as usize;
            let c = *Component::ALL.get(tag).ok_or(CodecError::Invalid("component tag"))?;
            // `PowerReport::new` panics on duplicates; corrupt input must
            // surface as a decode error instead.
            if std::mem::replace(&mut seen[tag], true) {
                return Err(CodecError::Invalid("duplicate component"));
            }
            let b = PowerBreakdown {
                leakage_mw: r.f64()?,
                internal_mw: r.f64()?,
                switching_mw: r.f64()?,
            };
            entries.push((c, b));
        }
        Ok(PowerReport::new(entries, Vec::decode(r)?))
    }
}

impl PowerReport {
    /// Builds a report from `(component, breakdown)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if a component appears twice.
    pub fn new(
        entries: Vec<(Component, PowerBreakdown)>,
        int_issue_slot_mw: Vec<f64>,
    ) -> PowerReport {
        for (i, (c, _)) in entries.iter().enumerate() {
            assert!(entries[i + 1..].iter().all(|(d, _)| d != c), "duplicate component {c}");
        }
        PowerReport { entries, int_issue_slot_mw }
    }

    /// Power of one component (zero if absent).
    pub fn component(&self, c: Component) -> PowerBreakdown {
        self.entries.iter().find(|(d, _)| *d == c).map(|(_, p)| *p).unwrap_or_default()
    }

    /// Iterates `(component, breakdown)` in presentation order.
    pub fn iter(&self) -> impl Iterator<Item = &(Component, PowerBreakdown)> {
        self.entries.iter()
    }

    /// Total tile power (all components + rest of tile), mW.
    pub fn tile_total_mw(&self) -> f64 {
        self.entries.iter().map(|(_, p)| p.total_mw()).sum()
    }

    /// Sum of the thirteen analyzed components, mW.
    pub fn analyzed_total_mw(&self) -> f64 {
        Component::ANALYZED.iter().map(|c| self.component(*c).total_mw()).sum()
    }

    /// Fraction of tile power covered by the analyzed components
    /// (the paper's Fig. 9: 73 % / 81 % / 85 %).
    pub fn analyzed_fraction(&self) -> f64 {
        self.analyzed_total_mw() / self.tile_total_mw().max(1e-12)
    }

    /// Weighted average of reports (SimPoint aggregation). Weights should
    /// sum to 1.
    ///
    /// # Panics
    ///
    /// Panics if `reports` is empty or lengths differ.
    pub fn weighted_average(reports: &[(f64, &PowerReport)]) -> PowerReport {
        assert!(!reports.is_empty(), "no reports to average");
        let first = reports[0].1;
        let mut entries: Vec<(Component, PowerBreakdown)> =
            first.entries.iter().map(|(c, _)| (*c, PowerBreakdown::default())).collect();
        let mut slots = vec![0.0; first.int_issue_slot_mw.len()];
        for (w, r) in reports {
            assert_eq!(r.entries.len(), entries.len(), "mismatched report shapes");
            for (acc, (c, p)) in entries.iter_mut().zip(r.entries.iter()) {
                assert_eq!(acc.0, *c);
                acc.1 = acc.1.add(&p.scale(*w));
            }
            for (acc, s) in slots.iter_mut().zip(&r.int_issue_slot_mw) {
                *acc += w * s;
            }
        }
        PowerReport { entries, int_issue_slot_mw: slots }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pb(l: f64, i: f64, s: f64) -> PowerBreakdown {
        PowerBreakdown { leakage_mw: l, internal_mw: i, switching_mw: s }
    }

    #[test]
    fn totals_are_additive() {
        let r = PowerReport::new(
            vec![
                (Component::IntRegFile, pb(0.1, 0.2, 0.3)),
                (Component::RestOfTile, pb(1.0, 0.0, 0.0)),
            ],
            vec![],
        );
        assert!((r.tile_total_mw() - 1.6).abs() < 1e-12);
        assert!((r.analyzed_total_mw() - 0.6).abs() < 1e-12);
        assert!((r.analyzed_fraction() - 0.375).abs() < 1e-12);
    }

    #[test]
    fn weighted_average_is_convex() {
        let a = PowerReport::new(vec![(Component::Rob, pb(1.0, 1.0, 1.0))], vec![2.0]);
        let b = PowerReport::new(vec![(Component::Rob, pb(3.0, 3.0, 3.0))], vec![4.0]);
        let avg = PowerReport::weighted_average(&[(0.5, &a), (0.5, &b)]);
        assert!((avg.component(Component::Rob).total_mw() - 6.0).abs() < 1e-12);
        assert!((avg.int_issue_slot_mw[0] - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_component_rejected() {
        let _ = PowerReport::new(
            vec![(Component::Rob, pb(1.0, 0.0, 0.0)), (Component::Rob, pb(2.0, 0.0, 0.0))],
            vec![],
        );
    }

    #[test]
    fn missing_component_reads_zero() {
        let r = PowerReport::new(vec![], vec![]);
        assert_eq!(r.component(Component::DCache).total_mw(), 0.0);
    }
}
