//! `kgnet_bench`: the repository's benchmark.
//!
//! ```text
//! kgnet_bench --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! kgnet_bench --suite <out.json> [--seed <u64>] [--seconds <n>] [--repeats <k>]
//! kgnet_bench --smoke
//! kgnet_bench --compare <a.json> <b.json>
//! ```
//!
//! One run starts the platform (`KgServer` + `HttpServer`) in-process on a
//! loopback port, drives one workload through the public API with at most
//! two client threads, checks every answer against the oracle, and prints
//! one JSON object as the last line of standard output. See `README.md`
//! beside this package for the workloads, the metrics and the list of
//! public calls the benchmark depends on.

#![forbid(unsafe_code)]

mod drive;
mod env;
mod gen;
mod json;
mod oracle;
mod stats;
mod suite;
mod trace;

use std::collections::HashMap;
use std::process::ExitCode;

use env::{secs, Env};
use gen::Workload;

/// End-to-end metrics, printed by every workload's untraced run.
pub const END_TO_END: &[(&str, &str)] = &[("p50_ms", "ms"), ("ops_per_s", "1/s"), ("setup_s", "s")];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Warm-up before the measured window of an untraced run, in seconds.
const WARMUP_S: f64 = 1.0;
/// Where a traced run leaves its spans, relative to the working directory.
pub const OUT_DIR: &str = "kgnet_bench/out";

/// `--key value...` command-line arguments.
struct Args(HashMap<String, Vec<String>>);

impl Args {
    fn parse() -> Args {
        let mut flags: HashMap<String, Vec<String>> = HashMap::new();
        let mut key = String::new();
        for arg in std::env::args().skip(1) {
            match arg.strip_prefix("--") {
                Some(flag) => {
                    key = flag.to_owned();
                    flags.entry(key.clone()).or_default();
                }
                None => flags.entry(key.clone()).or_default().push(arg),
            }
        }
        Args(flags)
    }

    fn has(&self, key: &str) -> bool {
        self.0.contains_key(key)
    }

    fn values(&self, key: &str) -> &[String] {
        self.0.get(key).map_or(&[], Vec::as_slice)
    }

    fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.values(key).first() {
            Some(text) => text.parse().map_err(|_| format!("--{key}: cannot read `{text}`")),
            None => Ok(default),
        }
    }
}

/// The result object of one run, as its one-line JSON.
pub fn result_line(attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json::quote(name),
                json::quote(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        metrics.join(", ")
    )
}

/// One workload, untraced: the end-to-end metrics.
fn run_untraced(workload: Workload, seed: u64, seconds: f64) -> String {
    let (env, first_setup_s) = Env::timed_setup(workload, seed);
    let outcome = drive::run(&env, workload.wire_clients(), secs(WARMUP_S), secs(seconds));
    drop(env);
    let mut setups = vec![first_setup_s];
    setups.extend((1..SETUPS).map(|_| Env::timed_setup(workload, seed).1));
    let setup_s = stats::median(setups);
    eprintln!(
        "{}: {} ops, {} failed, p50 {:.4} ms, p99 {:.4} ms, {:.2} ops/s, set-up {setup_s:.3} s",
        workload.name(),
        outcome.attempted,
        outcome.failed,
        outcome.p50_ms(),
        outcome.p99_ms(),
        outcome.ops_per_s,
    );
    let values = [outcome.p50_ms(), outcome.ops_per_s, setup_s];
    let metrics: Vec<(&str, f64, &str)> =
        END_TO_END.iter().zip(values).map(|(&(name, unit), v)| (name, v, unit)).collect();
    result_line(outcome.attempted, outcome.failed, &metrics)
}

/// One workload, traced: the per-layer metrics, and the spans on disk.
fn run_traced(workload: Workload, seed: u64, seconds: f64) -> String {
    let env = Env::setup(workload, seed);
    let traced = trace::run(&env, seconds);
    drop(env);
    let path = format!("{OUT_DIR}/trace.{}.json", workload.name());
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, traced.trace.to_json()));
    match written {
        Ok(()) => eprintln!("{}: {} spans in {path}", workload.name(), traced.trace.spans.len()),
        Err(e) => eprintln!("{}: could not write {path}: {e}", workload.name()),
    }
    let metrics: Vec<(&str, f64, &str)> = trace::LAYER_METRICS
        .iter()
        .map(|&(name, unit)| (name, traced.layers.get(name).copied().unwrap_or(0.0), unit))
        .collect();
    for (name, value, unit) in &metrics {
        eprintln!("  {name:<36} {value:>14.4} {unit}");
    }
    result_line(traced.attempted, traced.failed, &metrics)
}

fn dispatch(args: &Args) -> Result<ExitCode, String> {
    let seed: u64 = args.number("seed", 13)?;
    let seconds: f64 = args.number("seconds", 10.0)?;
    if args.has("compare") {
        let [a, b] = args.values("compare") else {
            return Err("--compare takes two result files".to_owned());
        };
        return suite::compare(a, b);
    }
    if args.has("smoke") {
        return suite::run(&format!("{OUT_DIR}/smoke.json"), seed, 2.0, 1);
    }
    if let Some(out) = args.values("suite").first() {
        return suite::run(out, seed, seconds, args.number("repeats", 1)?);
    }
    let name = args.values("workload").first().ok_or("--workload <name> is required")?;
    let workload = Workload::from_name(name).ok_or_else(|| {
        let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload `{name}` (known: {})", known.join(", "))
    })?;
    if !(seconds.is_finite() && seconds >= 1.0) {
        return Err("--seconds must be at least 1".to_owned());
    }
    let line = match args.number::<u8>("trace", 0)? {
        0 => run_untraced(workload, seed, seconds),
        _ => run_traced(workload, seed, seconds),
    };
    println!("{line}");
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args = Args::parse();
    // Nothing is timed on the main thread: the same training call measured
    // ~1.6x as long there as on a spawned thread, and the platform itself
    // only ever trains and serves on spawned ones.
    let outcome = std::thread::scope(|scope| scope.spawn(|| dispatch(&args)).join());
    match outcome {
        Ok(Ok(code)) => code,
        Ok(Err(message)) => {
            eprintln!("kgnet_bench: {message}");
            ExitCode::from(2)
        }
        Err(_) => ExitCode::from(101),
    }
}
