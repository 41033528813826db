//! The VIP benchmark: one command per workload, every end-to-end
//! metric printed by name with its unit, outputs checked.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload tiles-accurate --seed 7 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` is the
//! separate traced run and reports the per-layer metrics instead. The
//! last line of standard output is one JSON object
//! (`correct`, `attempted`, `failed`, `metrics`); the lines before it
//! repeat the metrics for a reader and name what each run exercised.
//! Any output-check failure exits with code 1. See `NOTES.md`.

mod serving;
mod tiles;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Fewest timed passes a run makes, however short `--seconds` is.
pub const MIN_PASSES: usize = 3;

/// Share of a pass's host time its recorded spans must cover; the
/// same share as `pass_s`'s bound in `BENCHMARK.json`.
pub const PASS_BOUND: f64 = 0.25;

/// The end-to-end metrics, in report order, with their units. Every
/// workload reports every one of them (see `NOTES.md` for what each
/// means on each workload).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("sim_cycles", "cycles"),
    ("cycle_err_pct", "%"),
    ("peak_rss_mb", "MB"),
    ("sim_latency_ms.p50", "sim_ms"),
    ("sim_latency_ms.tail", "sim_ms"),
    ("sim_goodput_rps", "req/sim_s"),
];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    /// Tile-data seed: the tile workloads' inputs and BP data costs.
    pub seed: u64,
    /// Serving workload seed: request classes, order and think times.
    pub serve_seed: u64,
    /// Chaos seed: the serving fleet's failure draws.
    pub chaos_seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Default seeds. Seed 1009 is held out, for each of the three: a later
/// performance claim must also hold on it.
const DEFAULT_SEED: u64 = 7;
const DEFAULT_SERVE_SEED: u64 = 7;
const DEFAULT_CHAOS_SEED: u64 = 7;

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        serve_seed: DEFAULT_SERVE_SEED,
        chaos_seed: DEFAULT_CHAOS_SEED,
        seconds: 30.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &str| format!("{flag}: bad value `{v}`");
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--serve-seed" => {
                let v = value()?;
                args.serve_seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--chaos-seed" => {
                let v = value()?;
                args.chaos_seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad(&v))?;
            }
            "--trace" => {
                let v = value()?;
                args.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&v)),
                };
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(args)
}

/// What a workload run hands back for reporting.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Check failures (wrong results, nondeterminism, broken trace
    /// accounting). Any one makes the run incorrect; those tied to one
    /// operation are also counted in `failed`.
    pub mismatches: Vec<String>,
    pub metrics: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    pub fn mismatch(&mut self, what: String) {
        eprintln!("CHECK FAILED: {what}");
        self.mismatches.push(what);
    }
}

/// Whether the timed loop should run another set-up + pass.
pub fn keep_going(start: Instant, seconds: f64, passes: usize) -> bool {
    passes < MIN_PASSES || start.elapsed() < Duration::from_secs_f64(seconds)
}

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

pub fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// The highest whole percentile with at least ten of `n` samples
/// strictly beyond its nearest-rank position; 100 (the maximum) when
/// there are too few samples for any.
pub fn tail_percentile(n: usize) -> u64 {
    let n = n as u64;
    (1..100)
        .rev()
        .find(|&p| n - (n * p).div_ceil(100) >= 10)
        .unwrap_or(100)
}

/// Median time of one calibration loop ([`HostSpeed::sample`]) on the
/// reference host, a 2-vCPU KVM guest (Intel Xeon, 2.0 GHz).
const REF_CALIB_S: f64 = 0.033;

/// How much more the simulator's host time moves than the calibration
/// loop's when the host changes speed: host time scales as the loop
/// time to this power. Fitted on the reference host (see `NOTES.md`).
const CALIB_EXPONENT: i32 = 2;

/// Host-speed calibration. The virtual machines this benchmark runs on
/// change speed by up to 1.8× from minute to minute, under load that is
/// not the benchmark's: user CPU time equals wall time, and steal and
/// system time stay under 5%. Right before each timed piece of work
/// (a tile run, a set-up, a serving pass) the benchmark times a fixed
/// loop of its own: branchy integer arithmetic in registers, no memory
/// traffic and no repository code. Each host time is scaled by
/// (reference loop time ÷ the loop time just before it) to the power
/// [`CALIB_EXPONENT`]: seconds at the reference host's speed. Runs
/// report medians of these.
pub struct HostSpeed {
    /// The latest calibration loop's time, s.
    last: f64,
    samples: Vec<f64>,
}

/// One timed piece of work.
#[derive(Clone, Copy)]
pub struct Timed {
    /// Host seconds as measured.
    raw_s: f64,
    /// The same, at the reference host's speed.
    ref_s: f64,
}

impl Timed {
    pub fn raw(&self) -> f64 {
        self.raw_s
    }

    pub fn scaled(&self) -> f64 {
        self.ref_s
    }
}

impl Default for HostSpeed {
    fn default() -> Self {
        HostSpeed {
            last: REF_CALIB_S,
            samples: Vec::new(),
        }
    }
}

impl HostSpeed {
    /// Times one calibration loop: the divisor of the host times
    /// [`HostSpeed::timed`] records until the next sample.
    pub fn sample(&mut self) {
        let start = Instant::now();
        let mut h = 0x1234_5678u64;
        let mut acc = 0u64;
        for i in 0..2_000_000u64 {
            h ^= h << 13;
            h ^= h >> 7;
            h ^= h << 17;
            match h % 5 {
                0 => acc = acc.wrapping_add(h),
                1 => acc ^= i,
                2 => acc = acc.rotate_left(5),
                3 => acc = acc.wrapping_mul(3),
                _ => acc = acc.wrapping_sub(h >> 3),
            }
        }
        std::hint::black_box(acc);
        self.last = start.elapsed().as_secs_f64();
        self.samples.push(self.last);
    }

    /// The latest calibration loop's time, s.
    pub fn last(&self) -> f64 {
        self.last
    }

    /// `raw_s` host seconds, measured since the latest sample.
    pub fn timed(&self, raw_s: f64) -> Timed {
        Timed {
            raw_s,
            ref_s: raw_s * (REF_CALIB_S / self.last).powi(CALIB_EXPONENT),
        }
    }

    /// Sets the three host-time end-to-end metrics, each given as
    /// `[raw, at reference speed]`: the set-up and pass seconds and the
    /// simulated Mcycles per second. Prints the raw values alongside.
    pub fn report(&self, out: &mut Outcome, setup_s: [f64; 2], pass_s: [f64; 2], mcps: [f64; 2]) {
        let calib = median(&self.samples);
        println!(
            "host: calibration median {calib:.6} s over {} loops (reference {REF_CALIB_S} s); \
             raw setup_s {:.6}, pass_s {:.6}, sim_mcycles_per_s {:.6}",
            self.samples.len(),
            setup_s[0],
            pass_s[0],
            mcps[0]
        );
        out.set("setup_s", setup_s[1]);
        out.set("pass_s", pass_s[1]);
        out.set("sim_mcycles_per_s", mcps[1]);
        out.set("bench.calib_s", calib);
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Scratch space the benchmark owns: journals, the empty schedule
/// directory, trace files. Anchored at the benchmark's own directory,
/// so the working directory never matters.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: vip-perfbench --workload tiles-accurate|tiles-functional|serve-chaos \
                 [--seed <u64>] [--serve-seed <u64>] [--chaos-seed <u64>] [--seconds <s>] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let mut tracer = trace::Tracer::new();
    let run = match args.workload.as_str() {
        "tiles-accurate" => tiles::run(&args, tiles::Engine::Accurate, &mut tracer),
        "tiles-functional" => tiles::run(&args, tiles::Engine::Functional, &mut tracer),
        "serve-chaos" => serving::run(&args, &mut tracer),
        other => Err(format!("unknown workload `{other}`")),
    };
    let mut out = match run {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let names: Vec<(String, &str)> = if args.trace {
        let spans_path = out_dir().join(format!("trace-{}-{}.json", args.workload, args.seed));
        let written =
            std::fs::create_dir_all(out_dir()).and_then(|()| tracer.write_chrome(&spans_path));
        match written {
            Ok(()) => println!("spans written to {}", spans_path.display()),
            Err(e) => out.mismatch(format!("writing {}: {e}", spans_path.display())),
        }
        tiles::per_layer_names()
            .into_iter()
            .chain(serving::per_layer_names())
            .chain(trace_metric_names())
            .collect()
    } else {
        out.set("peak_rss_mb", peak_rss_mb());
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };

    let correct = out.mismatches.is_empty();
    let mut fields = Vec::new();
    for (name, unit) in &names {
        let value = out.metrics.get(name).copied().unwrap_or(0.0);
        println!("{name:<34} {value:>18.6} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The traced run's own accounting: self time per layer, how much of
/// each pass the spans cover, and what tracing costs.
const TRACE_LAYERS: &[&str] = &["bench", "kernels", "mem", "core", "serve"];

fn trace_metric_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &str)> = TRACE_LAYERS
        .iter()
        .map(|l| (format!("trace.self_s.{l}"), "s"))
        .collect();
    v.push(("trace.pass_coverage".into(), "ratio"));
    v.push(("bench.calib_s".into(), "s"));
    v.push(("trace.overhead_s".into(), "s"));
    v
}

/// Fills the `trace.*` metrics and checks that every traced pass's
/// spans account for its host time within [`PASS_BOUND`].
pub fn trace_summary(
    tracer: &trace::Tracer,
    out: &mut Outcome,
    traced_pass_s: f64,
    untraced_pass_s: f64,
) {
    let passes = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "bench.pass")
        .count()
        .max(1) as f64;
    for (layer, s) in tracer.self_time_by_layer() {
        out.set(format!("trace.self_s.{layer}"), s / passes);
    }
    let mut worst = f64::INFINITY;
    for (i, span) in tracer.spans().iter().enumerate() {
        if span.name == "bench.pass" {
            let cover = tracer.child_time(i) / span.dur();
            worst = worst.min(cover);
        }
    }
    if worst.is_finite() {
        out.set("trace.pass_coverage", worst);
        if worst < 1.0 - PASS_BOUND {
            out.mismatch(format!(
                "spans cover only {:.1}% of a pass (need {:.0}%)",
                worst * 100.0,
                (1.0 - PASS_BOUND) * 100.0
            ));
        }
    }
    out.set("trace.overhead_s", traced_pass_s - untraced_pass_s);
}
