//! CI perf-smoke gate: compares a freshly generated `BENCH_throughput.json`
//! against the committed copy and fails when any detailed-core row regresses
//! by more than the threshold (default 30%).
//!
//! The threshold is deliberately loose: shared CI runners are noisy, and the
//! point of this gate is to catch the order-of-magnitude mistakes (an
//! accidental debug build, a hot-loop allocation creeping back in), not to
//! police single-digit drift. Functional/profiling MIPS are informational
//! only — the detailed core is the target the hot-loop work optimizes, so
//! `detailed_kcycles_per_sec` is the only guarded metric.
//!
//! The JSON is read with a purpose-built extractor rather than a JSON crate:
//! the workspace vendors no serializer (see Cargo.toml), and the bench file
//! format is a flat, known shape that a scanner handles in ~60 lines.
//!
//! Usage: `perf_smoke <committed.json> <fresh.json> [--threshold <pct>]`

use std::process::ExitCode;

/// One guarded measurement: a (config, workload) cell's detailed throughput.
#[derive(Debug, Clone, PartialEq)]
struct PerfRow {
    config: String,
    workload: String,
    kcycles_per_sec: f64,
}

/// Returns the text of the `[...]` array following `"key"`, brackets
/// excluded, or `None` when the key is absent.
fn find_array<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\"");
    let start = json.find(&needle)? + needle.len();
    let rest = &json[start..];
    let open = rest.find('[')?;
    let body = &rest[open + 1..];
    let mut depth = 1usize;
    for (i, c) in body.char_indices() {
        match c {
            '[' => depth += 1,
            ']' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&body[..i]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Splits an array body into its top-level `{...}` objects.
fn objects(array_body: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, c) in array_body.char_indices() {
        match c {
            '{' => {
                if depth == 0 {
                    start = i + 1;
                }
                depth += 1;
            }
            '}' => {
                depth -= 1;
                if depth == 0 {
                    out.push(&array_body[start..i]);
                }
            }
            _ => {}
        }
    }
    out
}

/// Extracts the string value of `"key": "value"` within an object body.
fn str_field(obj: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\"");
    let start = obj.find(&needle)? + needle.len();
    let rest = obj[start..].trim_start().strip_prefix(':')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    let end = rest.find('"')?;
    Some(rest[..end].to_string())
}

/// Extracts the numeric value of `"key": 123.4` within an object body.
fn num_field(obj: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let start = obj.find(&needle)? + needle.len();
    let rest = obj[start..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Pulls every guarded row out of a `BENCH_throughput.json` body.
///
/// Prefers the per-config `detailed` array; files from before that array
/// existed fall back to the MediumBOOM `rows` table, with the config name
/// taken from the top-level `detailed_config` field.
fn extract_rows(json: &str) -> Vec<PerfRow> {
    if let Some(body) = find_array(json, "detailed") {
        return objects(body)
            .iter()
            .filter_map(|o| {
                Some(PerfRow {
                    config: str_field(o, "config")?,
                    workload: str_field(o, "workload")?,
                    kcycles_per_sec: num_field(o, "detailed_kcycles_per_sec")?,
                })
            })
            .collect();
    }
    let config = str_field(json, "detailed_config").unwrap_or_else(|| "MediumBOOM".to_string());
    find_array(json, "rows")
        .map(|body| {
            objects(body)
                .iter()
                .filter_map(|o| {
                    Some(PerfRow {
                        config: config.clone(),
                        workload: str_field(o, "workload")?,
                        kcycles_per_sec: num_field(o, "detailed_kcycles_per_sec")?,
                    })
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Pulls the batched-lane rows (multi-config batches with idle skipping)
/// out of a `BENCH_throughput.json` body. Empty for files from before the
/// `batched` array existed, which `regressions` then skips cell-by-cell.
///
/// Configs are prefixed `batched:` so a batched MediumBOOM cell can never
/// pair with the solo MediumBOOM cell of the same workload — the two
/// measure different things (one lane of a batch sharing a micro-op
/// table, timed whole-program with idle skipping, vs a solo run).
fn extract_batched(json: &str) -> Vec<PerfRow> {
    find_array(json, "batched")
        .map(|body| {
            objects(body)
                .iter()
                .filter_map(|o| {
                    Some(PerfRow {
                        config: format!("batched:{}", str_field(o, "config")?),
                        workload: str_field(o, "workload")?,
                        kcycles_per_sec: num_field(o, "detailed_kcycles_per_sec")?,
                    })
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Pulls the adaptive-sweep study rows out of a `BENCH_throughput.json`
/// body, with the deterministic cycle-reduction factor standing in for
/// the guarded rate: like a throughput, a *drop* means the successive
/// halving got more expensive (schedule or elimination-rule erosion), so
/// the same lower-is-worse threshold machinery applies. Empty for files
/// from before the `sweep` array existed.
///
/// Configs are prefixed `sweep:` so a study row can never pair with a
/// detailed or batched cell.
fn extract_sweep(json: &str) -> Vec<PerfRow> {
    find_array(json, "sweep")
        .map(|body| {
            objects(body)
                .iter()
                .filter_map(|o| {
                    Some(PerfRow {
                        config: format!("sweep:{}", str_field(o, "grid")?),
                        workload: str_field(o, "workloads")?,
                        kcycles_per_sec: num_field(o, "reduction_factor")?,
                    })
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Pulls the campaign-service study rows out of a `BENCH_throughput.json`
/// body, with the solo-vs-served wall-clock speedup as the guarded rate:
/// it collapses toward 1.0 if requests stop sharing the warm store, and
/// the same lower-is-worse threshold machinery applies. Empty for files
/// from before the `serve` array existed.
///
/// Configs are prefixed `serve:` so a study row can never pair with a
/// detailed, batched, or sweep cell.
fn extract_serve(json: &str) -> Vec<PerfRow> {
    find_array(json, "serve")
        .map(|body| {
            objects(body)
                .iter()
                .filter_map(|o| {
                    Some(PerfRow {
                        config: format!("serve:{}", str_field(o, "study")?),
                        workload: format!("{} requests", num_field(o, "requests")? as u64),
                        kcycles_per_sec: num_field(o, "serve_speedup")?,
                    })
                })
                .collect()
        })
        .unwrap_or_default()
}

/// The top-level arrays the gate understands. Anything else in the file
/// is probably a new study whose extractor was forgotten — surfaced as a
/// warning so it cannot be silently ignored.
const KNOWN_ARRAYS: [&str; 5] = ["rows", "detailed", "batched", "sweep", "serve"];

/// Names every top-level `"key": [...]` array in the JSON object.
fn top_level_arrays(json: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut in_str = false;
    let mut cur = String::new();
    let mut key = String::new();
    let mut after_colon = false;
    for c in json.chars() {
        if in_str {
            if c == '"' {
                in_str = false;
            } else {
                cur.push(c);
            }
            continue;
        }
        match c {
            '"' => {
                in_str = true;
                cur.clear();
                continue;
            }
            ':' if depth == 1 => {
                key = cur.clone();
                after_colon = true;
                continue;
            }
            '[' => {
                if depth == 1 && after_colon {
                    out.push(key.clone());
                }
                depth += 1;
            }
            '{' => depth += 1,
            ']' | '}' => depth -= 1,
            c if c.is_whitespace() => continue,
            _ => {}
        }
        after_colon = false;
    }
    out
}

/// Warns about top-level arrays the gate has no extractor for.
fn warn_unknown_arrays(what: &str, json: &str) {
    for key in top_level_arrays(json) {
        if !KNOWN_ARRAYS.contains(&key.as_str()) {
            eprintln!(
                "perf_smoke: WARNING {what} has a top-level array \"{key}\" this gate does \
                 not understand — its rows are NOT guarded (add an extractor?)"
            );
        }
    }
}

/// Compares fresh rows against the committed baseline; returns the list of
/// human-readable failures. Cells present on only one side are skipped (the
/// bench matrix may grow or shrink across commits without breaking CI).
fn regressions(committed: &[PerfRow], fresh: &[PerfRow], threshold_pct: f64) -> Vec<String> {
    let mut failures = Vec::new();
    for base in committed {
        let Some(new) =
            fresh.iter().find(|r| r.config == base.config && r.workload == base.workload)
        else {
            continue;
        };
        let floor = base.kcycles_per_sec * (1.0 - threshold_pct / 100.0);
        if new.kcycles_per_sec < floor {
            failures.push(format!(
                "{}/{}: {:.1} kcyc/s vs committed {:.1} (floor {:.1}, -{:.1}%)",
                base.config,
                base.workload,
                new.kcycles_per_sec,
                base.kcycles_per_sec,
                floor,
                (1.0 - new.kcycles_per_sec / base.kcycles_per_sec) * 100.0
            ));
        }
    }
    failures
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let mut threshold = 30.0;
    let mut paths = Vec::new();
    let mut it = args.iter().skip(1);
    while let Some(a) = it.next() {
        if a == "--threshold" {
            threshold =
                it.next().and_then(|s| s.parse().ok()).expect("--threshold takes a percentage");
        } else {
            paths.push(a.clone());
        }
    }
    let [committed_path, fresh_path] = paths.as_slice() else {
        eprintln!("usage: perf_smoke <committed.json> <fresh.json> [--threshold <pct>]");
        return ExitCode::from(2);
    };

    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_else(|e| panic!("read {p}: {e}"));
    let committed_json = read(committed_path);
    let fresh_json = read(fresh_path);
    let mut committed = extract_rows(&committed_json);
    let mut fresh = extract_rows(&fresh_json);
    committed.extend(extract_batched(&committed_json));
    fresh.extend(extract_batched(&fresh_json));
    committed.extend(extract_sweep(&committed_json));
    fresh.extend(extract_sweep(&fresh_json));
    committed.extend(extract_serve(&committed_json));
    fresh.extend(extract_serve(&fresh_json));
    warn_unknown_arrays("committed file", &committed_json);
    warn_unknown_arrays("fresh file", &fresh_json);
    if committed.is_empty() || fresh.is_empty() {
        eprintln!(
            "perf_smoke: no comparable rows (committed: {}, fresh: {})",
            committed.len(),
            fresh.len()
        );
        return ExitCode::from(2);
    }

    let failures = regressions(&committed, &fresh, threshold);
    println!(
        "perf_smoke: {} committed row(s), {} fresh row(s), threshold {threshold}%",
        committed.len(),
        fresh.len()
    );
    if failures.is_empty() {
        println!("perf_smoke: OK — no detailed-throughput regression beyond {threshold}%");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("perf_smoke: REGRESSION {f}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CURRENT: &str = r#"{
      "scale": "small",
      "detailed_config": "MediumBOOM",
      "rows": [
        {"workload": "Bitcount", "functional_mips": 237.4, "detailed_kcycles_per_sec": 5849.8, "detailed_kinsts_per_sec": 8976.5}
      ],
      "detailed": [
        {"config": "MediumBOOM", "workload": "Bitcount", "detailed_kcycles_per_sec": 5736.8, "detailed_kinsts_per_sec": 8803.0},
        {"config": "LargeBOOM", "workload": "Qsort", "detailed_kcycles_per_sec": 3570.3, "detailed_kinsts_per_sec": 3822.3}
      ],
      "batched": [
        {"config": "MediumBOOM", "workload": "Bitcount", "detailed_kcycles_per_sec": 1912.3},
        {"config": "Aggregate", "workload": "Bitcount", "detailed_kcycles_per_sec": 4890.1, "batch_speedup": 1.02}
      ],
      "sweep": [
        {"grid": "ref64", "workloads": "Sha+Qsort", "configs": 64, "exhaustive_kcycles": 1591.4, "adaptive_kcycles": 274.6, "reduction_factor": 5.79, "frontier_identical": true}
      ],
      "serve": [
        {"study": "overlapping_campaigns", "requests": 3, "jobs": 1, "solo_secs": 4.10, "serve_secs": 2.30, "serve_speedup": 1.78}
      ]
    }"#;

    const LEGACY: &str = r#"{
      "scale": "small",
      "detailed_config": "MediumBOOM",
      "rows": [
        {"workload": "Bitcount", "functional_mips": 241.5, "detailed_kcycles_per_sec": 3718.7, "detailed_kinsts_per_sec": 5628.1},
        {"workload": "Dijkstra", "functional_mips": 224.7, "detailed_kcycles_per_sec": 1794.4, "detailed_kinsts_per_sec": 2981.4}
      ]
    }"#;

    #[test]
    fn parses_detailed_array() {
        let rows = extract_rows(CURRENT);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].config, "MediumBOOM");
        assert_eq!(rows[0].workload, "Bitcount");
        assert!((rows[0].kcycles_per_sec - 5736.8).abs() < 1e-9);
        assert_eq!(rows[1].config, "LargeBOOM");
        assert_eq!(rows[1].workload, "Qsort");
    }

    #[test]
    fn falls_back_to_rows_for_legacy_files() {
        let rows = extract_rows(LEGACY);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.config == "MediumBOOM"));
        assert!((rows[1].kcycles_per_sec - 1794.4).abs() < 1e-9);
    }

    #[test]
    fn threshold_splits_pass_from_fail() {
        let base = vec![PerfRow {
            config: "MediumBOOM".into(),
            workload: "Bitcount".into(),
            kcycles_per_sec: 1000.0,
        }];
        let ok = vec![PerfRow { kcycles_per_sec: 701.0, ..base[0].clone() }];
        let bad = vec![PerfRow { kcycles_per_sec: 699.0, ..base[0].clone() }];
        assert!(regressions(&base, &ok, 30.0).is_empty());
        assert_eq!(regressions(&base, &bad, 30.0).len(), 1);
    }

    #[test]
    fn unmatched_cells_are_skipped() {
        let base = vec![PerfRow {
            config: "MegaBOOM".into(),
            workload: "Sha".into(),
            kcycles_per_sec: 1000.0,
        }];
        let fresh = vec![PerfRow {
            config: "MediumBOOM".into(),
            workload: "Sha".into(),
            kcycles_per_sec: 1.0,
        }];
        assert!(regressions(&base, &fresh, 30.0).is_empty());
    }

    #[test]
    fn batched_rows_are_extracted_with_prefixed_configs() {
        let rows = extract_batched(CURRENT);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].config, "batched:MediumBOOM");
        assert_eq!(rows[0].workload, "Bitcount");
        assert!((rows[0].kcycles_per_sec - 1912.3).abs() < 1e-9);
        assert_eq!(rows[1].config, "batched:Aggregate");
        // The prefix keeps batched cells from pairing with solo cells of
        // the same config — the solo extractor must not see them at all.
        let solo = extract_rows(CURRENT);
        assert!(solo.iter().all(|r| !r.config.starts_with("batched:")));
        assert_eq!(solo.len(), 2);
    }

    #[test]
    fn files_without_batched_array_yield_no_batched_rows() {
        assert!(extract_batched(LEGACY).is_empty());
        // And a batched regression is still caught when both sides have it.
        let base = vec![PerfRow {
            config: "batched:Aggregate".into(),
            workload: "Bitcount".into(),
            kcycles_per_sec: 4890.1,
        }];
        let bad = vec![PerfRow { kcycles_per_sec: 3000.0, ..base[0].clone() }];
        assert_eq!(regressions(&base, &bad, 30.0).len(), 1);
    }

    #[test]
    fn sweep_rows_guard_the_reduction_factor() {
        let rows = extract_sweep(CURRENT);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].config, "sweep:ref64");
        assert_eq!(rows[0].workload, "Sha+Qsort");
        assert!((rows[0].kcycles_per_sec - 5.79).abs() < 1e-9);
        // The prefix keeps the study row from pairing with detailed or
        // batched cells, and legacy files simply contribute nothing.
        assert!(extract_rows(CURRENT).iter().all(|r| !r.config.starts_with("sweep:")));
        assert!(extract_sweep(LEGACY).is_empty());
        // A reduction-factor erosion beyond the threshold fails the gate.
        let bad = vec![PerfRow { kcycles_per_sec: 3.9, ..rows[0].clone() }];
        assert_eq!(regressions(&rows, &bad, 30.0).len(), 1);
        let ok = vec![PerfRow { kcycles_per_sec: 4.3, ..rows[0].clone() }];
        assert!(regressions(&rows, &ok, 30.0).is_empty());
    }

    #[test]
    fn serve_rows_guard_the_speedup() {
        let rows = extract_serve(CURRENT);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].config, "serve:overlapping_campaigns");
        assert_eq!(rows[0].workload, "3 requests");
        assert!((rows[0].kcycles_per_sec - 1.78).abs() < 1e-9);
        // The prefix keeps the study row from pairing with any other
        // cell, and legacy files simply contribute nothing.
        assert!(extract_rows(CURRENT).iter().all(|r| !r.config.starts_with("serve:")));
        assert!(extract_serve(LEGACY).is_empty());
        // A warm-server speedup collapse beyond the threshold fails.
        let bad = vec![PerfRow { kcycles_per_sec: 1.1, ..rows[0].clone() }];
        assert_eq!(regressions(&rows, &bad, 30.0).len(), 1);
        let ok = vec![PerfRow { kcycles_per_sec: 1.3, ..rows[0].clone() }];
        assert!(regressions(&rows, &ok, 30.0).is_empty());
    }

    #[test]
    fn top_level_arrays_are_named_and_unknowns_detectable() {
        let keys = top_level_arrays(CURRENT);
        assert_eq!(keys, ["rows", "detailed", "batched", "sweep", "serve"]);
        assert!(keys.iter().all(|k| KNOWN_ARRAYS.contains(&k.as_str())));
        // Nested arrays are not top-level; unknown top-level ones are.
        let json = r#"{"mystery": [ {"x": [1, 2]} ], "rows": []}"#;
        assert_eq!(top_level_arrays(json), ["mystery", "rows"]);
        assert!(top_level_arrays(json).iter().any(|k| !KNOWN_ARRAYS.contains(&k.as_str())));
        // A top-level scalar or string is not an array.
        assert_eq!(top_level_arrays(r#"{"scale": "small", "n": 3}"#), Vec::<String>::new());
    }

    #[test]
    fn number_parsing_stops_at_delimiters() {
        assert_eq!(num_field(r#""x": 12.5, "y": 3"#, "x"), Some(12.5));
        assert_eq!(num_field(r#""y": -3}"#, "y"), Some(-3.0));
        assert_eq!(num_field(r#""z": "not a number""#, "z"), None);
    }
}
