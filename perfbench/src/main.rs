//! End-to-end and per-layer benchmark of the soft-scheduling stack.
//!
//! ```text
//! perfbench --workload <compile-cold|serve-mix|loops>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload builds its inputs from the seed, sets up five to
//! fifteen times (`setup_s` is the median), then runs a closed loop for
//! the given seconds, checking every answer. With `--trace 0` the last stdout
//! line carries the end-to-end metrics with `hls-obs` disabled; with
//! `--trace 1` it carries the per-layer metrics of a traced run, and
//! the spans are written to `perfbench/out/`. See `README.md`.

mod cold;
mod gen;
mod layers;
mod loops;
mod measure;
mod serve;
mod trace;

use measure::Metric;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOC: measure::CountingAlloc = measure::CountingAlloc;

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Ctx {
    /// `true` until the measured window of `seconds` has passed.
    pub fn in_window(&self, since: Instant) -> bool {
        since.elapsed().as_secs_f64() < self.seconds
    }

    /// Whether to start pass `done + 1` of a corpus begun at `since`:
    /// the first pass always runs, a later one only if a pass of the
    /// mean length so far still ends inside the window. Whole passes
    /// keep every run's input mix the same.
    pub fn another_pass(&self, since: Instant, done: u32) -> bool {
        let elapsed = since.elapsed().as_secs_f64();
        done == 0 || elapsed * (done + 1) as f64 / done as f64 <= self.seconds
    }
}

/// What one workload run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Sample counts behind the metrics, by name.
    pub samples: Vec<(&'static str, usize)>,
    /// The run's median host calibration, ms, where times were scaled
    /// by it (see [`measure::HostSpeed`]).
    pub calibration_ms: Option<f64>,
    /// The traced run's spans.
    pub trace: Option<trace::Tracer>,
}

/// Set-ups per run: at least [`MIN_SETUPS`], and more, up to
/// [`MAX_SETUPS`], while they take under [`SETUP_SECONDS`] together.
/// `setup_s` is their median, so a cheap set-up gets enough samples to
/// steady it.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 15;
const SETUP_SECONDS: f64 = 2.0;

/// Runs `setup` repeatedly and returns the last result with the median
/// set-up time in seconds.
pub fn setup_repeated<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::new();
    let mut last = None;
    let start = Instant::now();
    while secs.len() < MIN_SETUPS
        || (secs.len() < MAX_SETUPS && start.elapsed().as_secs_f64() < SETUP_SECONDS)
    {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup());
        secs.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("set-up ran"), measure::median(&secs))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0).max(0.1),
        trace: trace.unwrap_or(false),
    })
}

fn command_line(program: &str, args: &[&str], envs: &[(&str, &str)]) -> String {
    let mut cmd = std::process::Command::new(program);
    cmd.args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    if ctx.trace {
        // Small rings: the traced run drains them after every call, and
        // race worker threads each keep one for the life of the process.
        std::env::set_var("HLS_OBS_RING", "256");
    }
    let out = match args.workload.as_str() {
        "compile-cold" => cold::run(&ctx),
        "serve-mix" => serve::run(&ctx),
        "loops" => loops::run(&ctx),
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            return ExitCode::from(2);
        }
    };

    let mut failed = out.failed;
    let mut failures = out.failures;
    for m in &out.metrics {
        if !m.value.is_finite() {
            failed += 1;
            failures.push(format!("metric {} is not finite", m.name));
        }
    }
    for f in &failures {
        eprintln!("perfbench: check failed: {f}");
    }

    let trace_file = out.trace.as_ref().map(|t| {
        let path = std::path::PathBuf::from(format!(
            "perfbench/out/trace-{}-{}.json",
            args.workload, args.seed
        ));
        if let Err(e) = t.write(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
        path.display().to_string()
    });

    // The run's context, one line before the result.
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let parent = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.display().to_string()))
        .unwrap_or_default();
    let git_rev = command_line(
        "git",
        &["rev-parse", "HEAD"],
        &[("GIT_CEILING_DIRECTORIES", parent.as_str())],
    );
    let samples: Vec<String> = out
        .samples
        .iter()
        .map(|(k, n)| format!("{}:{n}", json_str(k)))
        .collect();
    println!(
        "perfbench-env {{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\"cpu\":{},\"rustc\":{},\"git_rev\":{},\"samples\":{{{}}},\"calibration_ms\":{},\"trace_file\":{}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        json_str(&cpu_model()),
        json_str(&command_line("rustc", &["--version"], &[])),
        json_str(&git_rev),
        samples.join(","),
        out.calibration_ms
            .map_or("null".to_string(), |c| c.to_string()),
        trace_file.as_deref().map_or("null".to_string(), json_str),
    );

    let correct = failed == 0;
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "{}:{{\"value\":{v},\"unit\":{}}}",
                json_str(&m.name),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        out.attempted.max(1),
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
