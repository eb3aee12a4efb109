//! End-to-end and per-layer benchmark of the tensor-core beamformer.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-out <dir>]
//! perfbench --smoke
//! ```
//!
//! Workloads (all closed loop):
//!
//! - `serve-small-f16`: two tenants stream 16 × 64 × 256 f16 blocks to an
//!   in-process `tcbf_serve::serve` (2 engines, 2 workers, queue depth 4)
//!   over loopback.  The engine call is short, so the wire codec, admission
//!   and queue, checkout and thread fan-out are most of a block.
//! - `serve-retune-f16`: the same server at 512 × 512 × 64; each tenant
//!   installs its own weights and retunes every 64 blocks, so the pool's
//!   weight swaps and the f16 kernel dominate.
//! - `ultrasound-int1`: no server; `Reconstructor::reconstruct_stream_with`
//!   on one int1 engine, one 64-frame ensemble per call.  The int1 kernel
//!   is nearly the whole call: the bypass for every serving change.
//!
//! With `--trace 0` the last line of standard output carries the
//! end-to-end metrics; with `--trace 1` a separate run records spans
//! around the calls into each layer and carries the per-layer metrics.
//! Every output is checked against a directly built engine, and the last
//! line reports `correct`, `attempted` and `failed`.  `--smoke` runs every
//! workload briefly in both modes and checks that every metric is present.

mod kernel;
mod served;
mod stats;
mod trace;
mod ultrasound;

use stats::{cpu_ticks, Metrics};
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics, reported with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("blocks_per_s", "1/s"),
    ("measured_gops", "GOP/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by the traced run.  A layer that a
/// workload does not pass through reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("wire.encode_block_us", "us"),
    ("wire.decode_block_us", "us"),
    ("wire.encode_beams_us", "us"),
    ("wire.decode_beams_us", "us"),
    ("wire.bytes_per_block", "bytes"),
    ("server.latency_p50_ms", "ms"),
    ("server.latency_p99_ms", "ms"),
    ("transport.p50_ms", "ms"),
    ("server.queue_wait_p50_ms", "ms"),
    ("server.throttled_per_block", "count/block"),
    ("pool.swaps_per_block", "count/block"),
    ("pool.ensure_weights_us", "us"),
    ("pool.checkout_us", "us"),
    ("engine.process_us", "us"),
    ("prepare.block_us", "us"),
    ("gemm.kernel_us", "us"),
    ("gemm.gops_per_s", "GOP/s"),
    ("gemm.ops", "count"),
    ("gemm.bytes_computed", "bytes"),
    ("par.fanout_us", "us"),
    ("app.doppler_us", "us"),
    ("app.self_us", "us"),
    ("setup.serve_s", "s"),
    ("setup.build_engine_s", "s"),
    ("setup.model_build_s", "s"),
    ("trace.overhead_frac", "fraction"),
];

pub const WORKLOADS: &[&str] = &["serve-small-f16", "serve-retune-f16", "ultrasound-int1"];

/// How one run is measured.
#[derive(Clone, Debug)]
pub struct Settings {
    pub seed: u64,
    /// Measured seconds (split between the untraced and traced phases of
    /// a traced run).
    pub seconds: f64,
    /// Closed-loop warm-up before each measured phase.
    pub warmup_s: f64,
    /// Set-up measurements per run; `setup_s` is their median.
    pub setup_reps: usize,
    pub trace: bool,
    pub trace_out: Option<PathBuf>,
    pub smoke: bool,
}

/// What one workload run produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks that are not tied to one block (reference spot checks,
    /// a decomposition that does not reproduce the engine).
    pub check_failures: Vec<String>,
    pub metrics: Metrics,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.check_failures.is_empty()
    }
}

/// Peak resident set of this process (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Prints an informational line; the result line is always the last one.
pub fn note(line: impl AsRef<str>) {
    println!("# {}", line.as_ref());
}

fn run_workload(name: &str, settings: &Settings) -> Result<Outcome, String> {
    let before = cpu_ticks();
    let outcome = match name {
        "serve-small-f16" => served::run(&served::SMALL, settings)?,
        "serve-retune-f16" => served::run(&served::RETUNE, settings)?,
        "ultrasound-int1" => ultrasound::run(settings)?,
        other => {
            return Err(format!(
                "unknown workload {other:?} (known: {})",
                WORKLOADS.join(", ")
            ))
        }
    };
    if let (Some((s0, t0)), Some((s1, t1))) = (before, cpu_ticks()) {
        let share = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        note(format!(
            "{name}: host steal {:.1}% of CPU time during the run",
            share * 100.0
        ));
    }
    let expected = if settings.trace {
        PER_LAYER
    } else {
        END_TO_END
    };
    let got: Vec<(&str, &str)> = outcome.metrics.0.iter().map(|m| (m.name, m.unit)).collect();
    if got != expected {
        return Err(format!(
            "{name} reported {got:?}, expected exactly {expected:?}"
        ));
    }
    Ok(outcome)
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {metrics}}}"
    )
}

fn parse_args() -> Result<(Option<String>, Settings), String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut settings = Settings {
        seed: 1,
        seconds: 10.0,
        warmup_s: 1.0,
        setup_reps: 9,
        trace: false,
        trace_out: None,
        smoke: false,
    };
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            settings.smoke = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => settings.seed = value.parse().map_err(|_| bad("a u64"))?,
            "--seconds" => {
                settings.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--trace" => {
                settings.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--trace-out" => settings.trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if settings.smoke {
        settings.seconds = 1.0;
        settings.warmup_s = 0.2;
        settings.setup_reps = 2;
    } else if workload.is_none() {
        return Err("--workload is required (or --smoke)".into());
    }
    Ok((workload, settings))
}

/// Runs every workload briefly with tracing off and on, printing one
/// `SMOKE {...}` line per run, and fails unless each run is correct.
fn smoke(settings: &Settings) -> Result<(bool, u64, u64), String> {
    let (mut all_correct, mut attempted, mut failed) = (true, 0, 0);
    for name in WORKLOADS {
        for trace in [false, true] {
            let settings = Settings {
                trace,
                ..settings.clone()
            };
            let outcome = run_workload(name, &settings)?;
            for failure in &outcome.check_failures {
                note(format!("check failed: {failure}"));
            }
            println!(
                "SMOKE {{\"workload\": \"{name}\", \"trace\": {}, \"correct\": {}, \"metrics\": {}}}",
                u8::from(trace),
                outcome.correct(),
                outcome.metrics.to_json()?
            );
            all_correct &= outcome.correct();
            attempted += outcome.attempted;
            failed += outcome.failed;
        }
    }
    Ok((all_correct, attempted, failed))
}

fn main() -> ExitCode {
    let (workload, settings) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if settings.smoke {
        return match smoke(&settings) {
            Ok((correct, attempted, failed)) => {
                println!("{}", result_line(correct, attempted, failed, "{}"));
                if correct {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let name = workload.expect("checked in parse_args");
    let outcome = match run_workload(&name, &settings) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for failure in &outcome.check_failures {
        note(format!("check failed: {failure}"));
    }
    let metrics = match outcome.metrics.to_json() {
        Ok(json) => json,
        Err(e) => {
            eprintln!("perfbench: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{}",
        result_line(
            outcome.correct(),
            outcome.attempted,
            outcome.failed,
            &metrics
        )
    );
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
