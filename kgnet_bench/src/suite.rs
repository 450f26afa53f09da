//! Whole-benchmark runs and their comparison: `--suite` / `--smoke` run
//! every workload (each run in a child process, so process-wide figures such
//! as `proc.peak_rss_mb` are the run's own) and check the output against `BENCHMARK.json`; `--compare`
//! holds two such result files against the bounds declared there.

use std::process::{Command, ExitCode, Stdio};

use crate::gen::Workload;
use crate::json::{self, quote, Value};
use crate::stats;

const CONTRACT: &str = "BENCHMARK.json";

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// One child run of this binary; returns its result object.
fn child(workload: Workload, seed: u64, seconds: f64, trace: u8) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", &trace.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: {e}", workload.name()))?;
    if !output.status.success() {
        return Err(format!("{} (trace {trace}) exited with {}", workload.name(), output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("no result line")?;
    json::parse(line).map_err(|e| format!("{}: result line: {e}", workload.name()))
}

/// The metrics of `section` (`end_to_end` / `per_layer`) in the contract, as
/// `(name, unit)`.
fn declared(contract: &Value, section: &str) -> Vec<(String, String)> {
    let field = |m: &Value, key: &str| m.get(key).and_then(Value::as_str).unwrap_or("").to_owned();
    contract
        .get(section)
        .map_or(&[][..], Value::items)
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

/// Hold one result object against the contract: correct, nothing failed,
/// and exactly the declared metrics with the declared units.
fn problems(result: &Value, expected: &[(String, String)], what: &str) -> Vec<String> {
    let mut found = Vec::new();
    if result.get("correct").and_then(Value::as_bool) != Some(true) {
        found.push(format!("{what}: not correct"));
    }
    if result.get("failed").and_then(Value::as_f64) != Some(0.0) {
        found.push(format!("{what}: operations failed"));
    }
    let metrics = result.get("metrics").map_or(&[][..], Value::members);
    for (name, unit) in expected {
        match metrics.iter().find(|(k, _)| k == name) {
            None => found.push(format!("{what}: metric {name} is not printed")),
            Some((_, m)) => {
                if m.get("unit").and_then(Value::as_str) != Some(unit) {
                    found.push(format!("{what}: metric {name} is not in {unit}"));
                }
                if m.get("value").and_then(Value::as_f64).is_none() {
                    found.push(format!("{what}: metric {name} has no value"));
                }
            }
        }
    }
    for (name, _) in metrics {
        if !expected.iter().any(|(n, _)| n == name) {
            found.push(format!("{what}: metric {name} is not in {CONTRACT}"));
        }
    }
    found
}

fn metric_value(result: &Value, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

/// Run every workload `repeats` times untraced (seeds `seed`, `seed + 1`,
/// ..) and once traced (at `seed`), check each result against the contract,
/// and write everything to `out`. Exit code 1 when a check fails.
pub fn run(out: &str, seed: u64, seconds: f64, repeats: usize) -> Result<ExitCode, String> {
    let contract = read_json(CONTRACT)?;
    let end_to_end = declared(&contract, "end_to_end");
    let per_layer = declared(&contract, "per_layer");
    let mut found = Vec::new();
    let mut sections = Vec::new();
    for workload in Workload::ALL {
        let mut runs = Vec::new();
        for r in 0..repeats.max(1) {
            let result = child(workload, seed + r as u64, seconds, 0)?;
            found.extend(problems(&result, &end_to_end, workload.name()));
            runs.push(result);
        }
        let traced = child(workload, seed, seconds, 1)?;
        found.extend(problems(&traced, &per_layer, &format!("{} (traced)", workload.name())));

        let e2e: Vec<String> = end_to_end
            .iter()
            .map(|(name, unit)| {
                let values: Vec<f64> = runs.iter().map(|r| metric_value(r, name)).collect();
                let listed: Vec<String> = values.iter().map(f64::to_string).collect();
                // The interpolating median, as the driver takes it over a set
                // of runs; a single run is its own median and has no spread.
                let summary = match stats::quartiles(&values) {
                    Some([q1, median, q3]) => format!(
                        "\"median\": {median}, \"q1\": {q1}, \"q3\": {q3}, \"spread\": {}",
                        (q3 - q1) / median.abs()
                    ),
                    None => format!("\"median\": {}", values[0]),
                };
                format!(
                    "      {}: {{\"unit\": {}, \"values\": [{}], {summary}}}",
                    quote(name),
                    quote(unit),
                    listed.join(", "),
                )
            })
            .collect();
        let layers: Vec<String> = per_layer
            .iter()
            .map(|(name, unit)| {
                let value = metric_value(&traced, name);
                format!("      {}: {{\"unit\": {}, \"value\": {value}}}", quote(name), quote(unit))
            })
            .collect();
        let attempted: f64 =
            runs.iter().filter_map(|r| r.get("attempted").and_then(Value::as_f64)).sum();
        sections.push(format!(
            "  {}: {{\n    \"attempted\": {attempted},\n    \"end_to_end\": {{\n{}\n    }},\n    \
             \"per_layer\": {{\n{}\n    }}\n  }}",
            quote(workload.name()),
            e2e.join(",\n"),
            layers.join(",\n"),
        ));
    }
    let text = format!(
        "{{\n\"seed\": {seed},\n\"seconds\": {seconds},\n\"repeats\": {},\n\"workloads\": {{\n{}\n}}\n}}\n",
        repeats.max(1),
        sections.join(",\n")
    );
    if let Some(dir) = std::path::Path::new(out).parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(out, text).map_err(|e| format!("{out}: {e}"))?;
    println!("wrote {out}");
    for problem in &found {
        println!("FAIL {problem}");
    }
    Ok(if found.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// `(median, spread)` of one end-to-end metric of one workload in a suite
/// file; the spread is absent below two repeats.
fn summary(file: &Value, workload: &str, metric: &str) -> Option<(f64, Option<f64>)> {
    let m = file.get("workloads")?.get(workload)?.get("end_to_end")?.get(metric)?;
    Some((m.get("median")?.as_f64()?, m.get("spread").and_then(Value::as_f64)))
}

/// One row per (end-to-end metric, workload): both medians, the ratio with
/// its base, and a verdict. `worse`: `b` is worse than `a` by more than the
/// metric's bound. `unresolved`: a side's run-to-run spread is wider than
/// the bound, so neither `ok` nor `worse` can be told. Exit code 1 on any
/// `worse`.
pub fn compare(a_path: &str, b_path: &str) -> Result<ExitCode, String> {
    let contract = read_json(CONTRACT)?;
    let (a, b) = (read_json(a_path)?, read_json(b_path)?);
    println!(
        "{:<12} {:<12} {:>14} {:>14} {:>16} {:>7}  verdict",
        "workload", "metric", "a", "b", "b/a (base a)", "bound"
    );
    let mut any_worse = false;
    for m in contract.get("end_to_end").map_or(&[][..], Value::items) {
        let name = m.get("name").and_then(Value::as_str).unwrap_or("");
        let bound = m.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
        let lower_is_better = m.get("better").and_then(Value::as_str) == Some("lower");
        for workload in Workload::ALL {
            let (Some((va, sa)), Some((vb, sb))) =
                (summary(&a, workload.name(), name), summary(&b, workload.name(), name))
            else {
                return Err(format!("{name} on {} is missing from a result file", workload.name()));
            };
            let worsening = if lower_is_better { (vb - va) / va } else { (va - vb) / va };
            let spread = sa.unwrap_or(0.0).max(sb.unwrap_or(0.0));
            let verdict = if spread > bound {
                "unresolved"
            } else if worsening > bound {
                any_worse = true;
                "worse"
            } else {
                "ok"
            };
            println!(
                "{:<12} {:<12} {va:>14.4} {vb:>14.4} {:>16} {bound:>7.2}  {verdict}",
                workload.name(),
                name,
                format!("{:.4} of {va:.4}", vb / va),
            );
        }
    }
    Ok(if any_worse { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_result_is_held_to_the_declared_names_and_units() {
        let expected = vec![("p50_ms".to_owned(), "ms".to_owned())];
        let good = json::parse(&crate::result_line(10, 0, &[("p50_ms", 1.5, "ms")])).unwrap();
        assert!(problems(&good, &expected, "w").is_empty());
        let failed = json::parse(&crate::result_line(10, 1, &[("p50_ms", 1.5, "ms")])).unwrap();
        assert_eq!(problems(&failed, &expected, "w").len(), 2, "not correct + failed");
        let unit = json::parse(&crate::result_line(10, 0, &[("p50_ms", 1.5, "s")])).unwrap();
        assert_eq!(problems(&unit, &expected, "w"), vec!["w: metric p50_ms is not in ms"]);
        let extra = crate::result_line(10, 0, &[("p50_ms", 1.5, "ms"), ("x", 1.0, "s")]);
        assert_eq!(problems(&json::parse(&extra).unwrap(), &expected, "w").len(), 1);
        let missing = json::parse(&crate::result_line(10, 0, &[])).unwrap();
        assert_eq!(problems(&missing, &expected, "w"), vec!["w: metric p50_ms is not printed"]);
    }
}
