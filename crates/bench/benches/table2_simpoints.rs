//! Table II: per-benchmark instruction counts, SimPoint interval sizes,
//! and the number of selected SimPoints at >= 90% coverage.
//!
//! Instruction counts are scaled down ~50-100x from the paper (see
//! DESIGN.md); the interval:program ratio (~1:300 in the paper) is
//! preserved, so SimPoint counts are comparable.

use boomflow::flow::profile;
use boomflow::report::render_table;
use boomflow_bench::{banner, BENCH_SCALE};
use rv_workloads::all;
use simpoint::{analyze, SimPointConfig};

/// Paper Table II reference: (interval, #simpoints, instructions).
fn paper_row(name: &str) -> (&'static str, u64, u64) {
    match name {
        "Basicmath" => ("1M", 2, 364_758_047),
        "Stringsearch" => ("1M", 2, 136_360_766),
        "FFT" => ("1M", 1, 266_217_322),
        "iFFT" => ("1M", 1, 266_643_273),
        "Bitcount" => ("1M", 3, 495_204_057),
        "Qsort" => ("1M", 1, 22_868_929),
        "Dijkstra" => ("1M", 1, 227_879_044),
        "Patricia" => ("2M", 2, 154_589_629),
        "Matmult" => ("1M", 1, 516_885_284),
        "Sha" => ("1M", 3, 111_029_722),
        "Tarfind" => ("2M", 1, 1_220_430_895),
        _ => unreachable!(),
    }
}

fn main() {
    banner("Table II: benchmark instructions, interval size & number of SimPoints");
    let header: Vec<String> = [
        "Benchmark",
        "Suite",
        "Interval",
        "#SimPoints",
        "Coverage",
        "Instructions",
        "Paper interval",
        "Paper #SP",
        "Paper insts",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut rows = Vec::new();
    for w in all(BENCH_SCALE) {
        let (bbv, _) = profile(&w, u64::MAX).expect("workload profiles cleanly");
        let analysis = analyze(&bbv, &SimPointConfig::default());
        let (p_int, p_sp, p_insts) = paper_row(w.name);
        rows.push(vec![
            w.name.to_string(),
            w.suite.name().to_string(),
            format!("{}k", w.interval_size / 1000),
            analysis.selected.len().to_string(),
            format!("{:.0}%", 100.0 * analysis.selected_coverage()),
            bbv.total_insts.to_string(),
            p_int.to_string(),
            p_sp.to_string(),
            p_insts.to_string(),
        ]);
    }
    print!("{}", render_table(&header, &rows));
}
