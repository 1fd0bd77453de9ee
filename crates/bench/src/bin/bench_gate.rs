//! Nightly perf-regression gate.
//!
//! Reads the JSON-lines file the vendored criterion shim appends when
//! `CRITERION_JSON` is set, compares each benchmark's median against the
//! checked-in baselines, and fails (exit 1) when any tracked benchmark
//! regressed by more than the margin — perf changes must be deliberate.
//! A benchmark run several times into the file is judged on the median
//! of all its records, so one noisy run neither fails nor passes it.
//!
//! ```text
//! bench_gate --current reports/criterion.jsonl \
//!            --thresholds ci/nightly-thresholds.json \
//!            [--margin 0.15] [--report reports/nightly-report.json]
//! bench_gate --current reports/criterion.jsonl \
//!            --thresholds ci/nightly-thresholds.json --update
//! ```
//!
//! * a benchmark listed in the thresholds but absent from the current
//!   run is a failure too (a silently deleted benchmark is regression
//!   rot, not a pass);
//! * benchmarks present in the run but not in the thresholds are
//!   reported as `untracked` and do not fail the gate;
//! * `--update` merges the current medians (the same median of all
//!   records) into the thresholds file —
//!   benches absent from the current run keep their old baselines, so a
//!   partial bench run cannot silently drop benchmarks from tracking
//!   (the calibration path for deliberate changes);
//! * `--report` writes the full comparison as JSON — the artifact the
//!   nightly workflow uploads.

use std::collections::BTreeMap;
use std::process::exit;
use usi_server::json::Json;

fn die(msg: &str) -> ! {
    eprintln!("bench_gate: {msg}");
    exit(2);
}

fn read_arg(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .map(|i| args.get(i + 1).unwrap_or_else(|| die(&format!("{name} needs a value"))).clone())
}

/// Reads the shim's JSON-lines output: each benchmark's median over
/// all of its records.
fn read_current(path: &str) -> BTreeMap<String, f64> {
    let data =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    let medians = medians_by_name(&data).unwrap_or_else(|e| die(&format!("{path}:{e}")));
    if medians.is_empty() {
        die(&format!("{path} holds no benchmark results — did the bench run with CRITERION_JSON?"));
    }
    medians
}

/// Each benchmark's median over all of its records in `data`. Re-runs
/// append, so a name may appear many times; the median of its
/// `median_ns` values is the middle one, or the mean of the middle two
/// for an even count. An error names the bad line.
fn medians_by_name(data: &str) -> Result<BTreeMap<String, f64>, String> {
    let mut runs: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (lineno, line) in data.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = |what: String| format!("{}: {what}", lineno + 1);
        let value = Json::parse(line).map_err(|e| at(e.to_string()))?;
        let name = value.get("name").and_then(Json::as_str);
        let name = name.ok_or_else(|| at("missing \"name\"".into()))?;
        let median = value.get("median_ns").and_then(Json::as_f64);
        let median = median.ok_or_else(|| at("missing \"median_ns\"".into()))?;
        runs.entry(name.to_string()).or_default().push(median);
    }
    Ok(runs
        .into_iter()
        .map(|(name, mut records)| {
            records.sort_by(f64::total_cmp);
            let mid = records.len() / 2;
            let median = if records.len() % 2 == 1 {
                records[mid]
            } else {
                (records[mid - 1] + records[mid]) / 2.0
            };
            (name, median)
        })
        .collect())
}

/// Reads the thresholds file. Keys starting with `_` are free-form
/// annotations (provenance notes like which box the medians came from),
/// not baselines: they are returned separately, preserved by
/// `--update`, and never compared.
fn read_thresholds(path: &str) -> (BTreeMap<String, f64>, Vec<(String, Json)>) {
    let data =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    let value = Json::parse(&data).unwrap_or_else(|e| die(&format!("{path}: {e}")));
    let Json::Obj(members) = value else {
        die(&format!("{path}: expected a JSON object of name → median_ns"));
    };
    let mut thresholds = BTreeMap::new();
    let mut annotations = Vec::new();
    for (name, v) in members {
        if name.starts_with('_') {
            annotations.push((name, v));
            continue;
        }
        let ns = v.as_f64().unwrap_or_else(|| die(&format!("{path}: {name} is not a number")));
        thresholds.insert(name, ns);
    }
    (thresholds, annotations)
}

fn write_thresholds(path: &str, medians: &BTreeMap<String, f64>, annotations: &[(String, Json)]) {
    let mut members: Vec<(String, Json)> = annotations.to_vec();
    members.extend(medians.iter().map(|(name, &ns)| (name.clone(), Json::Num(ns.round()))));
    let obj = Json::Obj(members);
    std::fs::write(path, obj.encode() + "\n")
        .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
    println!("bench_gate: wrote {} baselines to {path}", medians.len());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let current_path =
        read_arg(&args, "--current").unwrap_or_else(|| die("--current FILE is required"));
    let thresholds_path =
        read_arg(&args, "--thresholds").unwrap_or_else(|| die("--thresholds FILE is required"));
    let margin: f64 = read_arg(&args, "--margin")
        .map_or(0.15, |m| m.parse().unwrap_or_else(|_| die("bad --margin")));
    let report_path = read_arg(&args, "--report");
    let update = args.iter().any(|a| a == "--update");

    let current = read_current(&current_path);
    if update {
        // merge: benches not in this run keep their existing baselines,
        // and `_`-prefixed annotations survive recalibration
        let (mut merged, annotations) = if std::path::Path::new(&thresholds_path).exists() {
            read_thresholds(&thresholds_path)
        } else {
            (BTreeMap::new(), Vec::new())
        };
        merged.extend(current);
        write_thresholds(&thresholds_path, &merged, &annotations);
        return;
    }
    let (thresholds, _annotations) = read_thresholds(&thresholds_path);

    let mut results: Vec<Json> = Vec::new();
    let mut failures = 0usize;
    println!(
        "{:<52} {:>14} {:>14} {:>7}  status (margin {:.0}%)",
        "benchmark",
        "median_ns",
        "baseline_ns",
        "ratio",
        margin * 100.0
    );
    for (name, &baseline) in &thresholds {
        let (status, detail) = match current.get(name) {
            None => {
                failures += 1;
                ("missing", Json::Null)
            }
            Some(&median) => {
                let ratio = if baseline > 0.0 { median / baseline } else { f64::INFINITY };
                let status = if ratio > 1.0 + margin {
                    failures += 1;
                    "regressed"
                } else {
                    "ok"
                };
                println!("{name:<52} {median:>14.0} {baseline:>14.0} {ratio:>7.3}  {status}");
                (status, Json::Num(ratio))
            }
        };
        if status == "missing" {
            println!("{name:<52} {:>14} {baseline:>14.0} {:>7}  missing", "-", "-");
        }
        results.push(Json::Obj(vec![
            ("name".into(), Json::str(name.clone())),
            ("median_ns".into(), current.get(name).map_or(Json::Null, |&m| Json::Num(m))),
            ("baseline_ns".into(), Json::Num(baseline)),
            ("ratio".into(), detail),
            ("status".into(), Json::str(status)),
        ]));
    }
    for (name, &median) in &current {
        if !thresholds.contains_key(name) {
            println!("{name:<52} {median:>14.0} {:>14} {:>7}  untracked", "-", "-");
            results.push(Json::Obj(vec![
                ("name".into(), Json::str(name.clone())),
                ("median_ns".into(), Json::Num(median)),
                ("baseline_ns".into(), Json::Null),
                ("ratio".into(), Json::Null),
                ("status".into(), Json::str("untracked")),
            ]));
        }
    }

    if let Some(path) = report_path {
        let report = Json::Obj(vec![
            ("margin".into(), Json::Num(margin)),
            ("failures".into(), Json::num(failures as u32)),
            ("results".into(), Json::Arr(results)),
        ]);
        std::fs::write(&path, report.encode() + "\n")
            .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        println!("bench_gate: report written to {path}");
    }

    if failures > 0 {
        eprintln!(
            "bench_gate: {failures} benchmark(s) regressed past the {:.0}% margin",
            margin * 100.0
        );
        exit(1);
    }
    println!("bench_gate: all {} tracked benchmarks within margin", thresholds.len());
}

#[cfg(test)]
mod tests {
    use super::medians_by_name;

    #[test]
    fn each_benchmark_is_judged_on_the_median_of_all_its_records() {
        // five runs of one benchmark at one commit, the last one the
        // fastest: the median, not the last record, is what counts
        let data = r#"{"name":"conn_scale/idle_0","median_ns":60600}
{"name":"once","median_ns":5}
{"name":"conn_scale/idle_0","median_ns":55400}

{"name":"conn_scale/idle_0","median_ns":60600}
{"name":"even","median_ns":30}
{"name":"conn_scale/idle_0","median_ns":42600}
{"name":"even","median_ns":10}
{"name":"conn_scale/idle_0","median_ns":38600}
"#;
        let medians = medians_by_name(data).unwrap();
        assert_eq!(medians.len(), 3);
        assert_eq!(medians["conn_scale/idle_0"], 55400.0);
        assert_eq!(medians["once"], 5.0);
        assert_eq!(medians["even"], 20.0);
        let err =
            medians_by_name("{\"name\":\"a\",\"median_ns\":1}\n{\"name\":\"b\"}").unwrap_err();
        assert!(err.starts_with("2: missing \"median_ns\""), "{err}");
    }
}
