//! The repository's benchmark: one command that generates a workload
//! from a seed, drives the program through its public APIs only, checks
//! every output against an in-process ground truth, and prints each
//! metric by name with its unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-bursty --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` alternates untraced and traced repetitions, records spans
//! around the benchmark's calls into each layer, prints the per-layer
//! table beside the untraced results, checks that the workload stresses
//! the layers it claims to, and reports the per-layer metrics.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Any correctness or
//! layer-contrast failure exits with code 1; bad arguments exit with 2.
#![forbid(unsafe_code)]

mod fib;
mod serve;
mod spans;
mod stats;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use stats::quartiles;

/// The workloads, by the names the command line takes.
#[derive(Clone, Copy)]
enum Workload {
    ServeBursty,
    ServeDurable,
    FibOffline,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "serve-bursty" => Some(Self::ServeBursty),
            "serve-durable" => Some(Self::ServeDurable),
            "fib-offline" => Some(Self::FibOffline),
            _ => None,
        }
    }

    /// Mixed into the command-line seed, so the workloads draw different
    /// inputs from the same seed.
    fn salt(self) -> u64 {
        match self {
            Self::ServeBursty => 0x5E12_B057,
            Self::ServeDurable => 0xD0AB_1E55,
            Self::FibOffline => 0xF1B0_FF11,
        }
    }
}

/// Everything a workload needs from the command line.
pub struct Ctx {
    /// The workload's own seed (command-line seed mixed with its salt).
    pub seed: u64,
    /// How long the measured repetitions run.
    pub seconds: Duration,
    /// `--trace 1`: alternate untraced and traced repetitions.
    pub trace: bool,
    /// Scratch directory for logs and snapshots, removed at exit.
    pub work: PathBuf,
    /// Where the traced run writes its spans.
    pub out: PathBuf,
}

/// Seeded input variants every workload draws, and the repetitions every
/// run makes at least, whatever `--seconds` says: repetition `i` runs
/// variant `i mod VARIANTS`, so one pass covers them all.
pub const VARIANTS: usize = 8;

impl Ctx {
    /// True while measured repetitions should continue: until `--seconds`
    /// have passed and every variant has run once.
    #[must_use]
    pub fn more(&self, start: Instant, reps: usize) -> bool {
        reps < VARIANTS || start.elapsed() < self.seconds
    }
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// What a workload run hands back for the result line.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (frames on serve, events on fib-offline).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Every correctness or layer-contrast check that failed.
    pub problems: Vec<String>,
    /// The end-to-end metrics (`--trace 0`) or per-layer ones (`--trace 1`).
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Records a failed check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("CHECK FAILED: {msg}");
            self.problems.push(msg);
        }
    }

    pub fn metric(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }
}

/// Prints one metric's spread across repetitions: median, mean, quartiles
/// and the interquartile range as a share of the median.
pub fn print_spread(name: &str, unit: &str, values: &[f64]) {
    let (q1, med, q3) = quartiles(values);
    println!(
        "  {name:<24} median {med:>14.4} {unit:<5} mean {:>14.4}  q1 {q1:>14.4}  \
         q3 {q3:>14.4}  iqr/median {:.4}  (n={})",
        stats::mean(values),
        (q3 - q1) / med.abs(),
        values.len()
    );
}

/// Prints a latency sample's p50 and p99 with the sample count.
pub fn print_percentiles(name: &str, unit: &str, samples: &[f64]) {
    println!(
        "  {name:<24} p50 {:>12.3} {unit}  p99 {:>12.3} {unit}  (samples={}, {} above p99)",
        stats::percentile(samples, 50.0),
        stats::percentile(samples, 99.0),
        samples.len(),
        samples.len() / 100
    );
}

/// Each repetition's `p`-th percentile of its `per_rep` samples.
fn per_rep(samples: &[f64], per_rep: usize, p: f64) -> Vec<f64> {
    samples.chunks_exact(per_rep).map(|r| stats::percentile(r, p)).collect()
}

/// The two latency figures, from samples recorded repetition after
/// repetition with `per_rep` samples each: the mean over repetitions of
/// each repetition's median, and the median over repetitions of each
/// repetition's p90.
///
/// Where the scheduler places the server's threads is drawn afresh for
/// every repetition and moves a repetition's median by up to 2x, so the
/// per-repetition medians are bimodal: their median jumps between the two
/// modes and their mean does not. The tail follows episodes of host CPU
/// steal: a few percent of steal moves a run's p99 by up to 2x but its p90
/// by a few percent, and the median over repetitions holds against the
/// repetitions an episode hits.
#[must_use]
pub fn latency_figures(samples: &[f64], per_rep_samples: usize) -> (f64, f64) {
    let p50 = per_rep(samples, per_rep_samples, 50.0);
    let p90 = per_rep(samples, per_rep_samples, 90.0);
    (p50.iter().sum::<f64>() / p50.len() as f64, stats::median(&p90))
}

/// Prints the latency figures with their sample counts and spreads, and
/// the p99 beside them.
pub fn print_latency(samples: &[f64], per_rep_samples: usize) {
    let (p50, p90) = latency_figures(samples, per_rep_samples);
    let reps = samples.len() / per_rep_samples;
    println!(
        "  latency_p50_us           {p50:.3} us: mean over {reps} repetitions of the per-repetition \
         median ({per_rep_samples} samples each)"
    );
    println!(
        "  latency_p90_us           {p90:.3} us: median over {reps} repetitions of the \
         per-repetition p90 ({} samples beyond it each)",
        per_rep_samples / 10
    );
    let p99 = per_rep(samples, per_rep_samples, 99.0);
    println!(
        "  latency_p99_us           {:.3} us: median over {reps} repetitions of the \
         per-repetition p99 ({} samples beyond it each)",
        stats::median(&p99),
        per_rep_samples / 100
    );
    print_spread("  per-repetition p50", "us", &per_rep(samples, per_rep_samples, 50.0));
    print_spread("  per-repetition p90", "us", &per_rep(samples, per_rep_samples, 90.0));
    print_spread("  per-repetition p99", "us", &p99);
    print_percentiles("  all samples pooled", "us", samples);
}

/// Minimal JSON string escaping for the names this program emits.
fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn usage() -> ! {
    eprintln!(
        "usage: otc-perfbench --workload <serve-bursty|serve-durable|fib-offline> \
         --seed <u64> --seconds <1..=600> --trace <0|1>"
    );
    std::process::exit(2);
}

fn parse_args() -> (Workload, u64, u64, bool) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<u64>().ok().filter(|s| (1..=600).contains(s)),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(w), Some(s), Some(secs), Some(t)) => (w, s, secs, t),
        _ => usage(),
    }
}

fn main() {
    let (workload, seed, seconds, trace) = parse_args();
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let ctx = Ctx {
        seed: seed ^ workload.salt(),
        seconds: Duration::from_secs(seconds),
        trace,
        work: root.join("work").join(std::process::id().to_string()),
        out: root.join("out"),
    };

    let host = otc_bench::HostInfo::capture();
    println!("host: nproc {}, {}, {}", host.nproc, host.rustc, host.date);
    println!("seed {seed} (workload seed {:#x}), {seconds} s, trace {}", ctx.seed, u8::from(trace));

    let mut outcome = match workload {
        Workload::ServeBursty => serve::run(&ctx, false),
        Workload::ServeDurable => serve::run(&ctx, true),
        Workload::FibOffline => fib::run(&ctx),
    };
    std::fs::remove_dir_all(&ctx.work).ok();
    // The parent goes too once no other run is using it.
    std::fs::remove_dir(root.join("work")).ok();

    for m in &outcome.metrics {
        if !m.value.is_finite() {
            outcome.problems.push(format!("metric {} is not a finite number", m.name));
        }
    }
    let correct = outcome.problems.is_empty() && outcome.failed == 0 && outcome.attempted > 0;
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value.to_string() } else { "null".into() };
            format!("{}: {{\"value\": {value}, \"unit\": {}}}", json_str(m.name), json_str(m.unit))
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
