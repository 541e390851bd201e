//! The PrismDB benchmark. See `benchmark/README.md`.
//!
//! ```text
//! benchmark run --workload W --seed N --seconds S --trace 0|1   one workload, one process
//! benchmark all [--seed N] [--seconds S] [--trace] [--out DIR]  every workload, a child each
//! benchmark compare A.json B.json                               judge B against baseline A
//! benchmark manifest                                            print BENCHMARK.json
//! ```

mod budget;
mod catalog;
mod compare;
mod engine;
mod json;
mod measure;
mod oracle;
mod probes;
mod spec;
mod stats;
mod trace;
mod wire;

#[cfg(test)]
mod smoke;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use prism_obs::json::JsonObject;

use catalog::{contract_metrics, Metric, METRICS, RUN_SECONDS, W, WORKLOADS};
use json::Json;
use spec::{Outcome, Spec};
use trace::Tracer;

const DEFAULT_SEED: u64 = 42;

/// Run `ops` measured ops of the workload `spec` sizes.
fn run_spec(spec: &Spec, seed: u64, ops: usize, traced: bool) -> (Outcome, Option<Tracer>) {
    match spec.workload {
        W::WireB => wire::run(spec, seed, ops, traced),
        _ => engine::run(spec, seed, ops, traced),
    }
}

/// Command-line options shared by `run` and `all`.
struct Args {
    workload: Option<W>,
    seed: u64,
    seconds: u64,
    traced: bool,
    /// Report every measured metric of the workload instead of the driver's
    /// fixed list (what `all` asks its children for).
    full: bool,
    out_dir: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        traced: false,
        full: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut args = args.iter().peekable();
    while let Some(flag) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                parsed.workload =
                    Some(W::from_name(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => {
                parsed.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                parsed.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--out" => parsed.out_dir = PathBuf::from(value("a directory")?),
            "--full" => parsed.full = true,
            // `--trace 0|1` from the driver, bare `--trace` by hand.
            "--trace" => {
                parsed.traced = match args.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(1..=600).contains(&parsed.seconds) {
        return Err("--seconds must be between 1 and 600".into());
    }
    Ok(parsed)
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
fn result_line(outcome: &Outcome, metrics: impl Iterator<Item = &'static Metric>) -> String {
    let mut values = JsonObject::new();
    for metric in metrics {
        let mut entry = JsonObject::new();
        entry.float("value", outcome.get(metric.name));
        entry.string("unit", metric.unit);
        values.raw(metric.name, &entry.finish());
    }
    let mut line = JsonObject::new();
    line.boolean("correct", outcome.failed == 0);
    line.number("attempted", outcome.attempted);
    line.number("failed", outcome.failed);
    line.raw("metrics", &values.finish());
    line.finish()
}

fn cmd_run(args: &Args) -> Result<ExitCode, String> {
    let workload = args.workload.ok_or("run needs --workload")?;
    // The driver allows a run 180 s; the longest takes under 50 s at the
    // default 20 s. Past the deadline the threads of the system under test
    // are taken to be wedged: fail, rather than hang whoever is waiting.
    let deadline = std::time::Duration::from_secs(130 + 2 * args.seconds);
    std::thread::spawn(move || {
        std::thread::sleep(deadline);
        eprintln!("benchmark: no result after {deadline:?}, giving up");
        std::process::exit(3);
    });
    let spec = Spec::of(workload);
    let ops = spec.measured_ops(args.seconds);
    let (outcome, tracer) = run_spec(&spec, args.seed, ops, args.traced);
    if let Some(tracer) = tracer {
        std::fs::create_dir_all(&args.out_dir).map_err(|e| format!("{:?}: {e}", args.out_dir))?;
        let path = args
            .out_dir
            .join(format!("{}.trace.jsonl", workload.name()));
        let file = std::fs::File::create(&path).map_err(|e| format!("{path:?}: {e}"))?;
        let mut file = std::io::BufWriter::new(file);
        tracer
            .dump(&mut file)
            .map_err(|e| format!("{path:?}: {e}"))?;
        std::io::Write::flush(&mut file).map_err(|e| format!("{path:?}: {e}"))?;
    }
    let line = if args.full {
        let measured = METRICS
            .iter()
            .filter(|m| m.applies_to(workload) && outcome.metrics.contains_key(m.name));
        result_line(&outcome, measured)
    } else {
        // End-to-end metrics must all be there and none may be zero; a
        // per-layer metric the workload does not exercise reads 0.
        if let Some(missing) = contract_metrics(false).find(|m| outcome.get(m.name) <= 0.0) {
            return Err(format!("{} was not measured", missing.name));
        }
        result_line(&outcome, contract_metrics(args.traced))
    };
    println!("{line}");
    Ok(ExitCode::SUCCESS)
}

/// Run `benchmark run` for one workload in a child process; returns its
/// result line, raw and parsed.
fn run_child(args: &Args, workload: W, traced: bool) -> Result<(String, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["run", "--full", "--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out_dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the {} run: {e}", workload.name()))?;
    if !output.status.success() {
        return Err(format!(
            "the {} run exited with {}",
            workload.name(),
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("the run printed nothing")?;
    let parsed =
        json::parse(line).map_err(|e| format!("the {} result line: {e}", workload.name()))?;
    Ok((line.to_string(), parsed))
}

fn print_table(title: &str, workload: W, result: &Json, keep: impl Fn(&Metric) -> bool) {
    println!("\n{} — {title}", workload.name());
    println!(
        "  {:<44} {:>16} {:<7} {:<5} better",
        "metric", "value", "unit", "clock"
    );
    for metric in METRICS.iter().filter(|m| keep(m)) {
        let Some(value) = result
            .get("metrics")
            .and_then(|m| m.get(metric.name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
        else {
            continue;
        };
        println!(
            "  {:<44} {:>16.4} {:<7} {:<5} {}",
            metric.name,
            value,
            metric.unit,
            metric.clock.label(),
            metric.better.label()
        );
    }
}

fn cmd_all(args: &Args) -> Result<ExitCode, String> {
    let mut results = JsonObject::new();
    let mut layers = JsonObject::new();
    let mut failed_ops = 0.0;
    for workload in WORKLOADS {
        let (line, untraced) = run_child(args, workload, false)?;
        print_table("end to end (untraced run)", workload, &untraced, |m| {
            m.bound.is_some()
        });
        let count = |key: &str| untraced.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        let (attempted, failed) = (count("attempted"), count("failed"));
        println!(
            "  {:<44} {:>16.6} {:<7} {:<5} lower   ({failed} of {attempted} ops)",
            "error_rate",
            failed / attempted.max(1.0),
            "ratio",
            "-"
        );
        failed_ops += failed;
        results.raw(workload.name(), &line);
        if args.traced {
            let (line, traced) = run_child(args, workload, true)?;
            print_table("per layer (traced run)", workload, &traced, |m| {
                m.bound.is_none()
            });
            failed_ops += traced.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
            layers.raw(workload.name(), &line);
        }
    }
    let mut file = JsonObject::new();
    file.number("seed", args.seed);
    file.number("seconds", args.seconds);
    file.raw("workloads", &results.finish());
    if args.traced {
        file.raw("traced", &layers.finish());
    }
    std::fs::create_dir_all(&args.out_dir).map_err(|e| format!("{:?}: {e}", args.out_dir))?;
    let path = args.out_dir.join("results.json");
    std::fs::write(&path, file.finish() + "\n").map_err(|e| format!("{path:?}: {e}"))?;
    println!("\nwrote {}", path.display());
    if failed_ops > 0.0 {
        return Err(format!("{failed_ops} ops failed: error_rate is above zero"));
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_compare(paths: &[String]) -> Result<ExitCode, String> {
    let [a, b] = paths else {
        return Err("compare needs two result files".into());
    };
    let load = |path: &String| {
        let text = std::fs::read_to_string(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let regressions = compare::compare(&load(a)?, &load(b)?);
    if regressions > 0 {
        println!("{regressions} regressed");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("usage: benchmark run|all|compare|manifest ...");
        return ExitCode::from(2);
    };
    let result = match command.as_str() {
        "run" => parse_args(rest).and_then(|args| cmd_run(&args)),
        "all" => parse_args(rest).and_then(|args| cmd_all(&args)),
        "compare" => cmd_compare(rest),
        "manifest" => {
            print!("{}", catalog::manifest());
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command {other}")),
    };
    result.unwrap_or_else(|message| {
        eprintln!("benchmark: {message}");
        ExitCode::FAILURE
    })
}
