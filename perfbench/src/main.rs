//! Seeded benchmark of the adaptation control plane.
//!
//! ```text
//! perfbench --workload <storm|wide_scope|contended|video> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload's inputs are generated from `--seed` and handed to the
//! public entry points (`sada_fleet::run_fleet_sharded`, or
//! `sada_video::run_video_scenario` with `Strategy::Safe`). With
//! `--trace 0` the run times the entry point repeatedly for `--seconds`
//! and prints the end-to-end metrics; with `--trace 1` it wraps the
//! benchmark's own calls into each layer in spans and prints the per-layer
//! metrics. Either way the outputs are checked, and the last line of
//! standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod alloc;
mod fleet;
mod inputs;
mod trace;
mod video;

use std::process::ExitCode;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// The four workloads, named as on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Storm,
    WideScope,
    Contended,
    Video,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "storm" => Workload::Storm,
            "wide_scope" => Workload::WideScope,
            "contended" => Workload::Contended,
            "video" => Workload::Video,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Storm => "storm",
            Workload::WideScope => "wide_scope",
            Workload::Contended => "contended",
            Workload::Video => "video",
        }
    }
}

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one benchmark invocation produced.
pub struct Outcome {
    /// Sessions submitted across every measured run.
    pub attempted: u64,
    /// Of those, sessions that did not commit.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// Output checks: every failed check is kept and fails the run.
#[derive(Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(42),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..=100) of `sorted` ascending values.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of nothing");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Combines repeated passes metric by metric, taking each one's median.
/// Every pass must report the same names in the same order.
pub fn median_metrics(passes: &[Vec<Metric>]) -> Vec<Metric> {
    let first = passes.first().expect("at least one pass");
    first
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let values: Vec<f64> = passes.iter().map(|p| p[i].value).collect();
            metric(m.name, median(&values), m.unit)
        })
        .collect()
}

/// Times `setup` at least three times and until about two seconds have
/// gone (at most 200 repetitions), and returns the median in seconds with
/// the last repetition's output.
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (f64, T) {
    let started = Instant::now();
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let out = std::hint::black_box(setup());
        times.push(t.elapsed().as_secs_f64());
        if times.len() >= 3 && (started.elapsed() >= Duration::from_secs(2) || times.len() >= 200) {
            return (median(&times), out);
        }
    }
}

/// Prints each layer's self time and writes the traced run's spans as
/// JSON lines to `perfbench/out/spans-<workload>-<seed>.jsonl`.
pub fn write_trace(w: Workload, seed: u64, tr: &trace::Tracer, checks: &mut Checks) {
    for (name, s) in tr.self_times() {
        println!("self_s {name:<24} {s:.6}");
    }
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("spans-{}-{seed}.jsonl", w.name()));
    let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tr.to_jsonl()));
    checks.check(written.is_ok(), || format!("cannot write {}: {written:?}", path.display()));
    println!("spans: {}", path.display());
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` keeps every significant digit of the f64.
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();
    println!(
        "replay: cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
         --workload {name} --seed {} --seconds {} --trace {}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("host_cores: {}", std::thread::available_parallelism().map_or(1, |n| n.get()));
    let seconds = Duration::from_secs(args.seconds.max(1));
    let mut checks = Checks::default();
    let out = match args.workload {
        Workload::Video if args.trace => video::traced(args.seed, seconds, &mut checks),
        Workload::Video => video::measure(args.seed, seconds, &mut checks),
        w if args.trace => fleet::traced(w, args.seed, seconds, &mut checks),
        w => fleet::measure(w, args.seed, seconds, &mut checks),
    };
    for m in &out.metrics {
        println!("{name} {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for f in &checks.failures {
        eprintln!("check failed: {f}");
    }
    let correct = checks.failures.is_empty();
    let body: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
