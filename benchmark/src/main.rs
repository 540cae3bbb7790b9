//! The repo's one benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     run --workload <name|all> --seed <u64> [--seconds <s>] [--trace [0|1]] [--scale full|smoke]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     compare <parent.jsonl> <change.jsonl> [--claim <workload>:<metric>]
//! ```
//!
//! `run` drives one workload through the whole pipeline (train → detect →
//! serve → stream → recover), checks every output against a reference,
//! prints every metric by name with its unit, appends a result record with
//! its provenance to `benchmark/out/results.jsonl`, and ends with the one
//! JSON line the driver reads.  Run it from the repo root.

mod catalog;
mod compare;
mod json;
mod loadgen;
mod offline;
mod provenance;
mod serve;
mod stats;
mod stream;
mod trace;
mod workload;

use catalog::{END_TO_END, PER_LAYER};
use json::Value;
use offline::Offline;
use serve::Serve;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use stream::Stream;
use trace::Tracer;
use workload::{Scale, Spec};

/// `run_seconds` of `BENCHMARK.json`: the measuring time the section shares
/// in [`workload::WORKLOADS`] were sized for.
pub const DEFAULT_SECONDS: f64 = 20.0;
const SMOKE_SECONDS: f64 = 2.0;

/// The engine's data-parallel fan-out the benchmark runs with unless
/// `CYBERHD_THREADS` is already set.  One thread, not the engine's default
/// of one per core: on the 2-vCPU bench host whatever keeps both cores busy
/// swings 20-28 % with where the host happens to place the vCPUs (minutes
/// at a time), single-thread work 4-8 %.  The fan-out is recorded as
/// `engine_threads`, and `compare` refuses results that differ in it.
const ENGINE_THREADS: &str = "1";

/// Share of `--seconds` a traced run gives the sections whose length is a
/// choice: it runs several of them twice (recording on and off) and adds the
/// layer probes, and must end in about the time an untraced run does.
const TRACED_SHARE: f64 = 0.5;

/// Metric values by catalogued name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(catalog::unit_of(name).is_some(), "{name} is not in the catalogue");
        self.0.insert(name, value);
    }
}

/// Operations attempted and failed, and which correctness checks failed.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub ran: u64,
    pub failures: Vec<(String, u64)>,
}

impl Checks {
    /// Records one correctness check and how many operations failed it.
    pub fn record(&mut self, name: impl Into<String>, failures: u64) {
        self.attempted += 1;
        self.failed += failures;
        self.ran += 1;
        if failures > 0 {
            self.failures.push((name.into(), failures));
        }
    }
}

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    scale: Scale,
    out: PathBuf,
}

struct RunResult {
    metrics: Vec<(&'static str, f64, &'static str)>,
    checks: Checks,
    flags: Vec<String>,
    record: Value,
}

/// Generates every input from the seed and logs how long that took.
fn timed_generation(
    spec: &Spec,
    seed: u64,
    generation_s: &mut Vec<f64>,
) -> Result<workload::Inputs, String> {
    let start = Instant::now();
    let inputs = workload::generate_inputs(spec, seed).map_err(|e| e.to_string())?;
    generation_s.push(start.elapsed().as_secs_f64());
    Ok(inputs)
}

fn run_workload(spec: &Spec, args: &RunArgs) -> Result<RunResult, String> {
    let seconds = args.seconds.unwrap_or(match args.scale {
        Scale::Full => DEFAULT_SECONDS,
        Scale::Smoke => SMOKE_SECONDS,
    });
    let spec = spec.at(args.scale);
    // One round's share of the sections whose length is a choice.
    let round_s = seconds * if args.trace { TRACED_SHARE } else { 1.0 } / spec.rounds as f64;
    let wal_root = args.out.join(format!("wal-{}-{}", spec.name, std::process::id()));
    std::fs::remove_dir_all(&wal_root).ok();
    std::fs::create_dir_all(&wal_root).map_err(|e| format!("{}: {e}", wal_root.display()))?;

    let mut metrics = Metrics::default();
    let mut checks = Checks::default();
    let mut tracer = Tracer::new(args.trace);
    let mut generation_s = Vec::new();
    let inputs = timed_generation(&spec, args.seed, &mut generation_s)?;

    // Every round runs one window of every section, so each metric's samples
    // span the whole run and a slow stretch of the host touches them all
    // alike.  A traced run records on even rounds only: the odd ones time the
    // same windows with recording off, which is the overhead measurement.
    let refit_share = if args.trace { 0.0 } else { offline::REFIT_SHARE };
    let refit_budget = Duration::from_secs_f64(seconds * refit_share);
    let mut offline = Offline::start(&spec, &inputs, args.seed);
    let mut serve = Serve::start(&spec, &inputs);
    let mut stream = Stream::start(&spec, &inputs, &offline.dense, &wal_root, &mut tracer);
    for round in 0..spec.rounds {
        tracer.set_enabled(args.trace && round % 2 == 0);
        let detect_budget = Duration::from_secs_f64(round_s * spec.detect_share);
        offline.step(round, refit_budget, detect_budget, &mut tracer);
        serve.step(round, round_s, &offline.dense, &offline.reference, &mut tracer);
        stream.step(round, &mut tracer);
        // Set-up again, between rounds: generate the inputs from the seed.
        std::hint::black_box(timed_generation(&spec, args.seed, &mut generation_s)?);
    }
    tracer.set_enabled(args.trace);
    offline.finish(&mut tracer, &mut metrics, &mut checks);
    serve.finish(
        round_s,
        &offline.dense,
        &offline.reference,
        &mut tracer,
        &mut metrics,
        &mut checks,
    );
    stream.finish(&mut tracer, &mut metrics, &mut checks);
    let wal_disk = provenance::filesystem_of(&wal_root);
    std::fs::remove_dir_all(&wal_root).ok();

    // Set-up is everything that has to happen before the first flow can be
    // served: generate the inputs, train the detector, build a round's
    // registries and engines and the three lanes.  Work moved out of a timed
    // region into training or construction therefore still shows.
    metrics.set(
        "setup_s",
        stats::lower_half_mean(&generation_s)
            + offline.fit_s()
            + stats::lower_half_mean(&serve.setup_s)
            + stream.setup_s,
    );
    let measured = offline.measured + serve.measured + stream.measured;

    if args.trace {
        let pairs = [offline.detect_pass_s(), serve.peak_flow_s(), stream.serial_window_s()];
        // Each section's traced ÷ untraced time for the same window of work.
        let ratio = pairs.iter().map(|(traced, untraced)| traced / untraced).sum::<f64>()
            / pairs.len() as f64;
        metrics.set("benchmark.trace_overhead_ratio", ratio);
        metrics.set("benchmark.measured_s", measured.as_secs_f64());
        let path = args.out.join(format!("trace-{}.json", spec.name));
        std::fs::write(&path, tracer.to_json(spec.name).to_json())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }

    // Exactly the catalogued metrics of this mode, in catalogue order.
    let wanted: Vec<(&'static str, &'static str)> = if args.trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let mut reported = Vec::with_capacity(wanted.len());
    for (name, unit) in wanted {
        let value =
            *metrics.0.get(name).ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            checks.record(format!("metric.{name}.is_finite"), 1);
        }
        reported.push((name, value, unit));
    }

    let mut flags = serve.flags();
    if args.scale == Scale::Smoke {
        flags.push("scale:smoke".into());
    }
    let record = Value::obj([
        ("schema", Value::UInt(1)),
        ("workload", Value::str(spec.name)),
        ("seed", Value::UInt(args.seed)),
        ("seconds", Value::Num(seconds)),
        ("trace", Value::Bool(args.trace)),
        ("scale", Value::str(args.scale.name())),
        ("correct", Value::Bool(checks.failed == 0)),
        ("ops_attempted", Value::UInt(checks.attempted)),
        ("ops_failed", Value::UInt(checks.failed)),
        ("measured_s", Value::Num(measured.as_secs_f64())),
        ("metrics", metrics_json(&reported)),
        ("checks_run", Value::UInt(checks.ran)),
        (
            "checks_failed",
            Value::Arr(checks.failures.iter().map(|(name, _)| Value::str(name.as_str())).collect()),
        ),
        ("flags", Value::Arr(flags.iter().map(|f| Value::str(f.as_str())).collect())),
        ("provenance", provenance::collect(&wal_root, &wal_disk, serve::shard_count())),
    ]);
    Ok(RunResult { metrics: reported, checks, flags, record })
}

fn metrics_json(metrics: &[(&'static str, f64, &'static str)]) -> Value {
    Value::obj(metrics.iter().map(|&(name, value, unit)| {
        (name, Value::obj([("value", Value::Num(value)), ("unit", Value::str(unit))]))
    }))
}

fn print_report(spec: &Spec, args: &RunArgs, result: &RunResult) {
    println!(
        "workload {} seed {} scale {} trace {}",
        spec.name,
        args.seed,
        args.scale.name(),
        u8::from(args.trace)
    );
    for (name, value, unit) in &result.metrics {
        println!("  {name:<48} {value:>16.6} {unit}");
    }
    println!(
        "  ops_attempted {} ops_failed {} checks_run {}",
        result.checks.attempted, result.checks.failed, result.checks.ran
    );
    for (name, failures) in &result.checks.failures {
        println!("  FAILED {name}: {failures}");
    }
    for flag in &result.flags {
        println!("  flag {flag}");
    }
}

fn run(args: RunArgs) -> Result<bool, String> {
    let specs: Vec<Spec> = if args.workload == "all" {
        workload::WORKLOADS.to_vec()
    } else {
        vec![workload::find(&args.workload).ok_or_else(|| {
            let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload {:?}; expected one of {names:?} or \"all\"", args.workload)
        })?]
    };
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let mut all_correct = true;
    for spec in &specs {
        let result = run_workload(spec, &args)?;
        print_report(spec, &args, &result);
        append_line(&args.out.join("results.jsonl"), &result.record.to_json())?;
        let correct = result.checks.failed == 0;
        all_correct &= correct;
        // The driver's line: exactly these four keys, last on stdout.
        let line = Value::obj([
            ("correct", Value::Bool(correct)),
            ("attempted", Value::UInt(result.checks.attempted.max(1))),
            ("failed", Value::UInt(result.checks.failed)),
            ("metrics", metrics_json(&result.metrics)),
        ]);
        println!("{}", line.to_json());
    }
    Ok(all_correct)
}

fn append_line(path: &Path, line: &str) -> Result<(), String> {
    use std::io::Write;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    writeln!(file, "{line}").map_err(|e| format!("{}: {e}", path.display()))
}

const USAGE: &str = "usage:
  cyberhd-benchmark run --workload <name|all> --seed <u64> [--seconds <s>] [--trace [0|1]]
                        [--scale full|smoke] [--out <dir>]
  cyberhd-benchmark compare <parent.jsonl> <change.jsonl> [--claim <workload>:<metric>]
                        [--benchmark-json <path>]";

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: None,
        trace: false,
        scale: Scale::Full,
        out: PathBuf::from("benchmark/out"),
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i).cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => parsed.workload = value(&mut i, "--workload")?,
            "--seed" => {
                let text = value(&mut i, "--seed")?;
                parsed.seed = text.parse().map_err(|_| format!("--seed {text:?} is not a u64"))?;
            }
            "--seconds" => {
                let text = value(&mut i, "--seconds")?;
                let seconds: f64 =
                    text.parse().map_err(|_| format!("--seconds {text:?} is not a number"))?;
                if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {text} is out of range (0, 600]"));
                }
                parsed.seconds = Some(seconds);
            }
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    parsed.trace = false;
                    i += 1;
                }
                Some("1") => {
                    parsed.trace = true;
                    i += 1;
                }
                _ => parsed.trace = true,
            },
            "--scale" => {
                parsed.scale = match value(&mut i, "--scale")?.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    other => return Err(format!("--scale {other:?}: expected full or smoke")),
                }
            }
            "--out" => parsed.out = PathBuf::from(value(&mut i, "--out")?),
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    if parsed.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    if std::env::var_os("CYBERHD_THREADS").is_none() {
        std::env::set_var("CYBERHD_THREADS", ENGINE_THREADS);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).and_then(run),
        Some("compare") => compare::main(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
