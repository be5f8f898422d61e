//! Calibration fitter: regenerates the `rtl-power` calibration table.
//!
//! Runs the paper's campaign (all workloads on the three configurations),
//! averages each component's modelled (leakage, dynamic) power with the
//! current calibration divided out, then least-squares fits the two scale
//! factors per component against the paper's published per-component
//! means. Prints a table to paste into `crates/power/src/calib.rs` and
//! the resulting fit quality.
//!
//! Usage: `cargo run --release -p boomflow-bench --bin calibrate [small|full]`

use boomflow_bench::paper::Campaign;
use boomflow_bench::paper_mean_mw;
use rtl_power::calib::calibration;
use rtl_power::Component;
use rv_workloads::Scale;

/// Components whose dynamic scale is pinned rather than fitted, so the
/// calibrated model keeps the workload sensitivity the paper describes
/// (IRF power tracks IPC; FP RF spikes on FP code; BP varies per
/// workload) instead of collapsing everything into leakage.
fn pinned_dynamic(c: Component) -> Option<f64> {
    match c {
        Component::IntRegFile => Some(2.0),
        Component::FpRegFile => Some(4.0),
        Component::BranchPredictor => Some(26.0),
        _ => None,
    }
}

fn main() {
    let scale = match std::env::args().nth(1).as_deref() {
        Some("full") => Scale::Full,
        _ => Scale::Small,
    };
    eprintln!("running flow at {scale:?} scale for calibration...");
    let run = Campaign::run(scale);

    println!("// Fitted by `cargo run --release -p boomflow-bench --bin calibrate`");
    println!("// against the paper's per-component means (see boomflow-bench).");
    let mut max_err = 0.0f64;
    let mut report = String::new();
    for c in Component::ALL {
        if matches!(c, Component::L2Cache | Component::DramInterface) {
            // Uncore components have no paper reference figure (the
            // paper's tile stops at the L1s) and the calibration flow
            // runs the flat-memory configurations anyway; they ship
            // uncalibrated.
            println!("        Component::{c:?} => (1.0, 1.0),");
            continue;
        }
        let k = calibration(c);
        // Per-config means of the uncalibrated model.
        let mut l = [0.0f64; 3];
        let mut d = [0.0f64; 3];
        for (i, results) in run.results.iter().enumerate() {
            for r in results {
                let pb = r.power.component(c);
                l[i] += pb.leakage_mw / k.leakage;
                d[i] += (pb.internal_mw + pb.switching_mw) / k.dynamic;
            }
            l[i] /= results.len() as f64;
            d[i] /= results.len() as f64;
        }
        let t = paper_mean_mw(c);

        // 2-variable non-negative least squares.
        let (sll, sld, sdd, slt, sdt) = (0..3).fold((0.0, 0.0, 0.0, 0.0, 0.0), |acc, i| {
            (
                acc.0 + l[i] * l[i],
                acc.1 + l[i] * d[i],
                acc.2 + d[i] * d[i],
                acc.3 + l[i] * t[i],
                acc.4 + d[i] * t[i],
            )
        });
        let det = sll * sdd - sld * sld;
        let (mut a, mut b) = if let Some(pin) = pinned_dynamic(c) {
            // Fit leakage only, against the residual after the pinned
            // dynamic contribution.
            let srt: f64 = (0..3).map(|i| l[i] * (t[i] - pin * d[i])).sum();
            (if sll > 0.0 { (srt / sll).max(0.0) } else { 0.0 }, pin)
        } else if det.abs() > 1e-12 {
            ((slt * sdd - sdt * sld) / det, (sdt * sll - slt * sld) / det)
        } else {
            (0.0, 0.0)
        };
        if a < 0.0 {
            a = 0.0;
            b = if sdd > 0.0 { sdt / sdd } else { 0.0 };
        }
        if b < 0.0 {
            b = 0.0;
            a = if sll > 0.0 { slt / sll } else { 0.0 };
        }

        let variant = format!("{c:?}").split(&['(', ' '][..]).next().unwrap().to_string();
        println!("        Component::{variant} => ({a:.4}, {b:.4}),");

        for i in 0..3 {
            let model = a * l[i] + b * d[i];
            let err = (model - t[i]) / t[i];
            max_err = max_err.max(err.abs());
            report.push_str(&format!(
                "// {:<16} cfg{} model {:6.2} target {:6.2} err {:+5.1}%  (L={:.3} D={:.3})\n",
                c.name(),
                i,
                model,
                t[i],
                100.0 * err,
                l[i],
                d[i]
            ));
        }
    }
    println!();
    print!("{report}");
    println!("// worst-case component error: {:.1}%", 100.0 * max_err);
}
