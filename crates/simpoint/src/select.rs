//! End-to-end SimPoint analysis: cluster, pick representatives, trim to a
//! coverage target.

use crate::bic::{bic, choose_k};
use crate::kmeans::kmeans_best_of;
use crate::projection::project;
use rv_isa::bbv::BbvProfile;
use rv_isa::codec::Codec;

rv_isa::record! {
    /// Tunable parameters of the SimPoint analysis.
    #[derive(Clone, Debug)]
    pub struct SimPointConfig {
        /// Maximum number of clusters to consider (`maxK`). Paper-scale runs use
        /// up to 30; our scaled workloads default to 10.
        pub max_k: usize [key],
        /// Dimension after random projection (SimPoint 3.0 default: 15).
        pub projected_dim: usize [key],
        /// Fraction of the best BIC a smaller `k` must reach to be chosen.
        pub bic_threshold: f64 [key],
        /// Independent k-means restarts per `k`.
        pub restarts: usize [key],
        /// Lloyd iteration cap per restart.
        pub max_iters: usize [key],
        /// RNG seed for projection and clustering.
        pub seed: u64 [key],
        /// Execution-coverage target for the selected subset (paper: ≥ 0.9).
        pub coverage: f64 [key],
    }
}

impl Default for SimPointConfig {
    fn default() -> SimPointConfig {
        SimPointConfig {
            max_k: 10,
            projected_dim: 15,
            bic_threshold: 0.9,
            restarts: 5,
            max_iters: 100,
            seed: 0xB00F,
            coverage: 0.9,
        }
    }
}

impl SimPointConfig {
    /// The record's content key ([`Codec::content_key`]) over every
    /// field that influences the analysis result (floats by bit pattern).
    /// Two configs with the same fingerprint produce identical
    /// [`SimPointAnalysis`] artifacts for the same profile, so memoizing
    /// stores and the disk cache use this as a cache key.
    pub fn cache_fingerprint(&self) -> u64 {
        self.content_key()
    }
}

rv_isa::record! {
    /// One chosen simulation point.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct SimPoint {
        /// Index of the representative interval in the profile.
        pub interval: usize [key],
        /// Fraction of total execution represented by this point's cluster.
        pub weight: f64 [key],
        /// Cluster this point represents.
        pub cluster: usize [key],
    }
}

rv_isa::record! {
    /// Complete result of a SimPoint analysis; its encoding (weights by
    /// exact bit pattern) is the disk artifact cache's payload.
    #[derive(Clone, Debug)]
    pub struct SimPointAnalysis {
        /// One point per cluster, sorted by descending weight.
        pub points: Vec<SimPoint> [key],
        /// The prefix of [`SimPointAnalysis::points`] kept to reach the
        /// coverage target, with weights renormalized to sum to 1.
        pub selected: Vec<SimPoint> [key],
        /// Chosen number of clusters.
        pub k: usize [key],
        /// Interval size (dynamic instructions) of the underlying profile.
        pub interval_size: u64 [key],
        /// Total dynamic instructions in the profiled execution.
        pub total_insts: u64 [key],
        /// Raw coverage of `selected` before renormalization.
        raw_coverage: f64 [key],
    }
}

impl SimPointAnalysis {
    /// Execution coverage of the selected points (before renormalization).
    pub fn selected_coverage(&self) -> f64 {
        self.raw_coverage
    }

    /// Dynamic-instruction index at which each selected point's interval
    /// begins, given the profile it was derived from. The profile's
    /// interval starts are prefix-summed once, so this is linear in the
    /// profile size rather than quadratic.
    pub fn selected_starts(&self, profile: &BbvProfile) -> Vec<u64> {
        let starts = profile.interval_starts();
        self.selected.iter().map(|p| starts[p.interval]).collect()
    }

    /// The simulated-instruction budget: `selected.len() × interval_size`,
    /// versus `total_insts` for full simulation.
    pub fn speedup(&self) -> f64 {
        let detailed = self.selected.len() as u64 * self.interval_size;
        self.total_insts as f64 / detailed.max(1) as f64
    }
}

/// Runs the full SimPoint analysis over a BBV profile.
///
/// # Panics
///
/// Panics if the profile has no intervals.
pub fn analyze(profile: &BbvProfile, config: &SimPointConfig) -> SimPointAnalysis {
    assert!(!profile.intervals.is_empty(), "profile has no intervals");
    let n = profile.intervals.len();
    let vectors = project(profile, config.projected_dim.min(profile.dim.max(1)), config.seed);

    // Score k = 1..=min(maxK, n) with BIC; keep each clustering.
    let k_max = config.max_k.min(n).max(1);
    let mut ks = Vec::new();
    let mut scores = Vec::new();
    let mut clusterings = Vec::new();
    for k in 1..=k_max {
        let c =
            kmeans_best_of(&vectors, k, config.max_iters, config.restarts, config.seed + k as u64);
        ks.push(k);
        scores.push(bic(&c, n));
        clusterings.push(c);
    }
    let k = choose_k(&ks, &scores, config.bic_threshold);
    let clustering = &clusterings[k - 1];

    // Representative of each cluster: interval closest to the centroid,
    // weighted by the cluster's share of dynamic instructions.
    let total_insts: u64 = profile.total_insts.max(1);
    let mut points = Vec::with_capacity(k);
    for c in 0..k {
        let centroid = clustering.centroid(c);
        let mut best: Option<(usize, f64)> = None;
        let mut cluster_insts = 0u64;
        for (i, &a) in clustering.assignment.iter().enumerate() {
            if a != c {
                continue;
            }
            cluster_insts += profile.intervals[i].len;
            let d: f64 = vectors.row(i).iter().zip(centroid).map(|(x, y)| (x - y) * (x - y)).sum();
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((i, d));
            }
        }
        if let Some((interval, _)) = best {
            points.push(SimPoint {
                interval,
                weight: cluster_insts as f64 / total_insts as f64,
                cluster: c,
            });
        }
    }
    points.sort_by(|a, b| b.weight.total_cmp(&a.weight));

    // Keep the highest-weight points until the coverage target is met.
    let mut selected = Vec::new();
    let mut cum = 0.0;
    for p in &points {
        selected.push(*p);
        cum += p.weight;
        if cum >= config.coverage {
            break;
        }
    }
    let raw_coverage = cum;
    // Renormalize the kept weights so downstream weighted averages are
    // proper convex combinations.
    for p in &mut selected {
        p.weight /= raw_coverage;
    }

    SimPointAnalysis {
        points,
        selected,
        k,
        interval_size: profile.interval_size,
        total_insts: profile.total_insts,
        raw_coverage,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rv_isa::codec::{ByteReader, ByteWriter};

    #[test]
    fn cache_fingerprint_keeps_its_value_and_covers_every_field() {
        // Captured from the hand-rolled FNV this key replaced: disk-cache
        // entries of phase analyses stay addressable.
        let base = SimPointConfig::default();
        assert_eq!(base.cache_fingerprint(), 0x1110_5bf1_6f0f_daaa);
        type Perturb = fn(&mut SimPointConfig);
        let perturbations: [(&str, Perturb); 7] = [
            ("max_k", |c| c.max_k += 1),
            ("projected_dim", |c| c.projected_dim += 1),
            ("bic_threshold", |c| c.bic_threshold += 0.01),
            ("restarts", |c| c.restarts += 1),
            ("max_iters", |c| c.max_iters += 1),
            ("seed", |c| c.seed += 1),
            ("coverage", |c| c.coverage -= 0.01),
        ];
        for (what, perturb) in perturbations {
            let mut c = base.clone();
            perturb(&mut c);
            assert_ne!(c.cache_fingerprint(), base.cache_fingerprint(), "{what} is in key");
        }
    }
    use rv_isa::bbv::Interval;

    fn phased_profile(phase_sizes: &[usize]) -> BbvProfile {
        let mut intervals = Vec::new();
        for (p, &count) in phase_sizes.iter().enumerate() {
            for _ in 0..count {
                intervals.push(Interval { weights: vec![(p, 100)], len: 100 });
            }
        }
        let total = intervals.iter().map(|i| i.len).sum();
        BbvProfile { intervals, dim: phase_sizes.len(), interval_size: 100, total_insts: total }
    }

    #[test]
    fn weights_sum_to_one() {
        let p = phased_profile(&[10, 5, 5]);
        let a = analyze(&p, &SimPointConfig::default());
        let sum: f64 = a.points.iter().map(|p| p.weight).sum();
        assert!((sum - 1.0).abs() < 1e-9, "weights sum to {sum}");
        let sel_sum: f64 = a.selected.iter().map(|p| p.weight).sum();
        assert!((sel_sum - 1.0).abs() < 1e-9, "selected weights sum to {sel_sum}");
    }

    #[test]
    fn representative_comes_from_its_phase() {
        let p = phased_profile(&[12, 8]);
        let a = analyze(&p, &SimPointConfig::default());
        assert_eq!(a.k, 2);
        // The heavier point must be an interval from the 12-interval phase.
        let heavy = &a.points[0];
        assert!(heavy.interval < 12, "heavy representative at {}", heavy.interval);
        assert!((heavy.weight - 0.6).abs() < 1e-9);
    }

    #[test]
    fn coverage_trimming_drops_light_clusters() {
        // 90% of execution in phase 0; tiny phases 1..4.
        let p = phased_profile(&[45, 2, 2, 1]);
        let cfg = SimPointConfig { coverage: 0.9, ..SimPointConfig::default() };
        let a = analyze(&p, &cfg);
        assert!(a.selected.len() <= a.points.len());
        assert!(a.selected_coverage() >= 0.9);
    }

    #[test]
    fn speedup_reflects_interval_budget() {
        let p = phased_profile(&[50]);
        let a = analyze(&p, &SimPointConfig::default());
        assert_eq!(a.k, 1);
        assert!((a.speedup() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn analysis_encode_decode_round_trips_bit_identically() {
        let p = phased_profile(&[12, 8, 3]);
        let a = analyze(&p, &SimPointConfig::default());
        let mut w = ByteWriter::new();
        a.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let d = SimPointAnalysis::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(d.k, a.k);
        assert_eq!(d.interval_size, a.interval_size);
        assert_eq!(d.total_insts, a.total_insts);
        assert_eq!(d.selected_coverage().to_bits(), a.selected_coverage().to_bits());
        assert_eq!(d.points.len(), a.points.len());
        for (x, y) in d.points.iter().zip(&a.points).chain(d.selected.iter().zip(&a.selected)) {
            assert_eq!(x.interval, y.interval);
            assert_eq!(x.cluster, y.cluster);
            assert_eq!(x.weight.to_bits(), y.weight.to_bits());
        }
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(SimPointAnalysis::decode(&mut r).and_then(|_| r.finish()).is_err());
        }
    }

    #[test]
    fn single_interval_profile_degenerates_gracefully() {
        let p = phased_profile(&[1]);
        let a = analyze(&p, &SimPointConfig::default());
        assert_eq!(a.k, 1);
        assert_eq!(a.selected.len(), 1);
        assert_eq!(a.selected[0].interval, 0);
    }
}
