//! The repository benchmark: named workloads against the public API,
//! checked outputs, end-to-end metrics (plain run) or per-layer metrics
//! (traced run), printed as one JSON object on the last stdout line.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sim-fqn|sim-mmdew|serve-d3|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. See `perfbench/README.md` for what each
//! workload and metric means.

mod layers;
mod serve;
mod sim;
mod trace;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;

/// Every end-to-end metric, in output order, with its unit.
const END_TO_END: [(&str, &str); 7] = [
    ("readings_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("radio_bytes_per_reading", "B"),
    ("ack_p50_ms", "ms"),
    ("durable_ack_p50_ms", "ms"),
    ("escalation_p50_ms", "ms"),
];

const WORKLOADS: [&str; 3] = ["sim-fqn", "sim-mmdew", "serve-d3"];

/// Directory (under the working directory) for trace files, checkpoint
/// replays and the serve workload's checkpoint directory.
const OUT_DIR: &str = ".perfbench_out";

/// Set-up is timed in this many child processes, half before the
/// workload and half after it, and `setup_s` is the mean of the faster
/// half of their medians. A process's heap layout alone moves a small
/// build's time by up to 1.7x, so one process is one sample of a
/// two-mode mixture; the mean of several converges where a median flips
/// between the modes. Splitting them around the workload spreads them
/// over the run, and keeping the faster half drops the probes that fell
/// in one of the shared host's slow spells, which last seconds to
/// minutes and make every probe in them 1.3-1.8x slower.
const SETUP_PROBES: usize = 10;

/// Wall-time budget of one set-up probe's repeated builds.
pub const SETUP_BUDGET_S: f64 = 0.2;

/// What a workload run does.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// End-to-end metrics, no benchmark tracing.
    Plain,
    /// Per-layer metrics from traced wrappers and replays.
    Traced,
    /// Only the repeated set-up, reported as `setup_s` (one probe).
    Setup,
}

pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// What a workload run reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Workload-specific JSON object: check results, sample counts.
    pub detail: String,
}

impl Outcome {
    /// A set-up probe's result: the median of its repeated set-ups.
    pub fn setup(setup_s: f64) -> Self {
        Self {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: vec![Metric::new("setup_s", setup_s, "s")],
            detail: String::new(),
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: sim::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        setup_probe: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad value for --seconds: {value}"))?
            }
            "--trace" => args.trace = value == "1",
            "--setup-probe" => args.setup_probe = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err(format!(
            "--workload is required ({} or all)",
            WORKLOADS.join(", ")
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// `--workload all`: each workload in its own process (so `peak_rss_mb`
/// is that workload's), one after another.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut ok = true;
    for w in WORKLOADS {
        println!("== {w}");
        let status = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .expect("spawn workload process");
        ok &= status.success();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs `n` set-up probes of `workload`, one process each, and returns
/// their results.
fn setup_probes(workload: &str, n: usize) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    (0..n)
        .map(|_| {
            let out = std::process::Command::new(&exe)
                .args(["--workload", workload, "--setup-probe", "1"])
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| e.to_string())?;
            let text = String::from_utf8_lossy(&out.stdout);
            match text.trim().parse::<f64>() {
                Ok(v) if out.status.success() => Ok(v),
                _ => Err(format!(
                    "probe exited with {} and printed {text:?}",
                    out.status
                )),
            }
        })
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let out = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&out).expect("create output directory");
    let mode = match (args.setup_probe, args.trace) {
        (true, _) => Mode::Setup,
        (false, true) => Mode::Traced,
        (false, false) => Mode::Plain,
    };
    if !WORKLOADS.contains(&args.workload.as_str()) {
        eprintln!(
            "perfbench: unknown workload {} ({})",
            args.workload,
            WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    }
    let probe = |n| {
        let probes = if mode == Mode::Plain {
            setup_probes(&args.workload, n)
        } else {
            Ok(Vec::new())
        };
        probes.inspect_err(|e| eprintln!("perfbench: set-up probe failed: {e}"))
    };
    let Ok(mut probes) = probe(SETUP_PROBES / 2) else {
        return ExitCode::FAILURE;
    };
    let run = |w: &str| {
        sim::run(w, args.seed, args.seconds, mode, &out)
            .or_else(|| serve::run(w, args.seed, args.seconds, mode, &out))
    };
    let mut outcome = run(&args.workload).expect("known workload");
    if mode == Mode::Setup {
        println!("{}", outcome.metrics[0].value);
        return ExitCode::SUCCESS;
    }
    if mode == Mode::Plain {
        let Ok(after) = probe(SETUP_PROBES - SETUP_PROBES / 2) else {
            return ExitCode::FAILURE;
        };
        probes.extend(after);
        let mut faster = probes.clone();
        faster.sort_by(f64::total_cmp);
        faster.truncate(SETUP_PROBES / 2);
        let setup_s = faster.iter().sum::<f64>() / faster.len() as f64;
        outcome.metrics.push(Metric::new("setup_s", setup_s, "s"));
        outcome
            .metrics
            .push(Metric::new("peak_rss_mb", util::peak_rss_mb(), "MB"));
    }

    // Order the metrics canonically; a missing one is a benchmark bug.
    let canon: &[(&str, &str)] = if args.trace {
        &layers::PER_LAYER
    } else {
        &END_TO_END
    };
    let mut body = Vec::new();
    for &(name, unit) in canon {
        let Some(m) = outcome.metrics.iter().find(|m| m.name == name) else {
            eprintln!(
                "perfbench: workload {} did not report {name}",
                args.workload
            );
            return ExitCode::FAILURE;
        };
        assert_eq!(m.unit, unit, "unit of {name}");
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        body.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }

    let stamp = util::env_stamp(&out);
    if args.trace {
        let path = out.join(format!("{}-seed{}.trace.json", args.workload, args.seed));
        if let Err(e) = trace::write(&path, &stamp) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
        let (kept, dropped) = trace::span_counts();
        eprintln!(
            "perfbench: {kept} spans ({dropped} past the cap) -> {}",
            path.display()
        );
    }
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"env\": {stamp}, \
         \"setup_probes_s\": {probes:?}, \"detail\": {}}}",
        args.workload, args.seed, args.seconds, args.trace, outcome.detail
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
