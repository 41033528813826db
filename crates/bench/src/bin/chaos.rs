//! Chaos sweep over the serving fleet: availability, recovery
//! latency, and goodput versus injected failure rate.
//!
//! Replays one seeded closed-loop workload at increasing chaos
//! intensity — each point scales the configured per-slice crash and
//! hang rates to a percentage of their full values, with 0 % as the
//! clean baseline — via [`vip_serve::run_chaos_sweep`], printing one
//! summary row per point and writing `BENCH_chaos.json` atomically
//! into the output directory. The report is a pure function of the
//! seeds and the configuration — byte-identical across re-runs at any
//! `--jobs` — which is exactly what the `--gate` determinism check in
//! CI diffs.
//!
//! Flags:
//!
//! * `--devices <n>` — simulated devices in the fleet (default `4`)
//! * `--queue-depth <n>` — shared admission bound (default `64`)
//! * `--quantum <cycles>` — device slice length (default `100000`)
//! * `--batch <n>` — max requests batched into one tile (default `8`)
//! * `--engine fast|naive|functional` — device stepping engine
//!   (default `fast`)
//! * `--requests <n>` — requests per sweep point (default `48`)
//! * `--clients <n>` — concurrent closed-loop clients (default `8`)
//! * `--think <cycles>` — mean client think time (default `100000`)
//! * `--seed <u64>` — workload seed (default: `VIP_TEST_SEED` env
//!   override, else `7`)
//! * `--chaos-seed <u64>` — chaos stream seed (default: workload seed)
//! * `--scales <csv>` — chaos intensities in percent (default
//!   `0,25,50,100,200`)
//! * `--crash-ppm <n>` / `--hang-ppm <n>` / `--flaky-ppm <n>` — the
//!   100 % injection rates
//! * `--checkpoint-every <n>` — periodic-checkpoint cadence in paused
//!   slices (`0` disables; jobs then recover by re-running)
//! * `--max-attempts <n>` — dispatch attempts per job
//! * `--deadline <cycles>` — per-job deadline (`0` disables)
//! * `--shed-floor <pct>` — load-shedding floor (`0` disables)
//! * `--jobs <n>` — sweep-point worker threads (default `1`)
//! * `--dir <path>` — output directory (default `serve-out`)
//! * `--schedules <path>` — tuned schedule artifacts (default:
//!   `VIP_SCHEDULE_DIR` or `schedules/`)
//! * `--fleet-checkpoint-every <events>` — run durably: journal
//!   scheduler events and checkpoint the whole fleet every N events
//!   under `<dir>/wal/` (distinct from `--checkpoint-every`, the
//!   per-job device-snapshot cadence)
//! * `--resume` — continue an interrupted durable run from its
//!   journal and checkpoints (the finished report is byte-identical
//!   to an uninterrupted run's)
//! * `--quick` — small fleet, short points, small tiles, hotter rates
//!   (CI smoke)
//! * `--gate` — exit nonzero unless every request reached a typed
//!   terminal status, the clean point served everything, availability
//!   held the floor, and the hot end actually injected failures
//! * `--floor <pct>` — availability floor the gate enforces
//!   (default `50`)

use std::path::PathBuf;
use std::process::exit;

use vip_bench::cli::{env_seed, Cli};
use vip_serve::{
    chaos_gate, chaos_report_json, metrics, run_chaos_sweep, run_chaos_sweep_durable, ChaosConfig,
    ChaosSweepConfig, DurableConfig, Engine, ServeConfig, Workload,
};
use vip_snap::atomic_write;

/// Default fleet-checkpoint cadence when `--resume` is given without
/// an explicit `--fleet-checkpoint-every`.
const DEFAULT_FLEET_CHECKPOINT_EVERY: u64 = 256;

fn main() {
    let mut cli = Cli::new(
        "chaos",
        "[--devices <n>] [--queue-depth <n>] [--quantum <cycles>] [--batch <n>] \
         [--engine fast|naive|functional] [--requests <n>] [--clients <n>] \
         [--think <cycles>] [--seed <u64>] [--chaos-seed <u64>] [--scales <csv>] \
         [--crash-ppm <n>] [--hang-ppm <n>] [--flaky-ppm <n>] [--checkpoint-every <n>] \
         [--max-attempts <n>] [--deadline <cycles>] [--shed-floor <pct>] [--jobs <n>] \
         [--dir <path>] [--schedules <path>] [--fleet-checkpoint-every <events>] [--resume] \
         [--quick] [--gate] [--floor <pct>]",
    );
    let mut serve_cfg = ServeConfig::default();
    let mut requests = 48usize;
    let mut clients = 8usize;
    let mut think = 100_000u64;
    let mut seed: Option<u64> = None;
    let mut chaos_seed: Option<u64> = None;
    let mut scales_csv = String::from("0,25,50,100,200");
    let mut chaos = ChaosConfig::default_rates(0);
    let mut jobs = 1usize;
    let mut dir = PathBuf::from("serve-out");
    let mut fleet_checkpoint_every: Option<u64> = None;
    let mut resume = false;
    let mut quick = false;
    let mut gate_run = false;
    let mut floor = 50.0f64;
    while let Some(arg) = cli.next_arg() {
        match arg.as_str() {
            "--devices" => serve_cfg.devices = cli.value("--devices"),
            "--queue-depth" => serve_cfg.queue_depth = cli.value("--queue-depth"),
            "--quantum" => serve_cfg.quantum = cli.value("--quantum"),
            "--batch" => serve_cfg.batch_max = cli.value("--batch"),
            "--engine" => {
                let label: String = cli.value("--engine");
                serve_cfg.engine = Engine::parse(&label).unwrap_or_else(|| {
                    eprintln!("--engine: unknown engine `{label}`");
                    cli.usage();
                });
            }
            "--requests" => requests = cli.value("--requests"),
            "--clients" => clients = cli.value("--clients"),
            "--think" => think = cli.value("--think"),
            "--seed" => seed = Some(cli.value("--seed")),
            "--chaos-seed" => chaos_seed = Some(cli.value("--chaos-seed")),
            "--scales" => scales_csv = cli.value("--scales"),
            "--crash-ppm" => chaos.crash_ppm = cli.value("--crash-ppm"),
            "--hang-ppm" => chaos.hang_ppm = cli.value("--hang-ppm"),
            "--flaky-ppm" => chaos.flaky_ppm = cli.value("--flaky-ppm"),
            "--checkpoint-every" => chaos.checkpoint_every = cli.value("--checkpoint-every"),
            "--max-attempts" => chaos.max_attempts = cli.value("--max-attempts"),
            "--deadline" => chaos.deadline = cli.value("--deadline"),
            "--shed-floor" => chaos.shed_floor_pct = cli.value("--shed-floor"),
            "--jobs" => jobs = cli.value("--jobs"),
            "--dir" => dir = cli.value("--dir"),
            "--schedules" => serve_cfg.schedule_dir = cli.value("--schedules"),
            "--fleet-checkpoint-every" => {
                fleet_checkpoint_every = Some(cli.value("--fleet-checkpoint-every"));
            }
            "--resume" => resume = true,
            "--quick" => quick = true,
            "--gate" => gate_run = true,
            "--floor" => floor = cli.value("--floor"),
            _ => cli.usage(),
        }
    }
    if quick {
        serve_cfg.devices = serve_cfg.devices.min(3);
        // Slices much shorter than a small tile, so jobs span several
        // and mid-flight failures (and checkpoints) can land.
        serve_cfg.quantum = serve_cfg.quantum.min(2_000);
        requests = requests.min(16);
        clients = clients.min(6);
        // Hot enough that the short smoke run actually injects and
        // recovers failures on every class.
        chaos.crash_ppm = chaos.crash_ppm.max(60_000);
        chaos.hang_ppm = chaos.hang_ppm.max(80_000);
        chaos.flaky_ppm = chaos.flaky_ppm.max(500_000);
        if let Some(dram) = chaos.faults.dram.as_mut() {
            dram.single_bit_ppm = dram.single_bit_ppm.max(150);
            dram.double_bit_ppm = dram.double_bit_ppm.max(80);
        }
        chaos.checkpoint_every = 1;
        chaos.retry_backoff = chaos.retry_backoff.min(10_000);
        chaos.quarantine = chaos.quarantine.min(50_000);
    }

    let wl_seed = seed.unwrap_or_else(|| env_seed(7));
    let base = ChaosConfig {
        seed: chaos_seed.unwrap_or(wl_seed),
        ..chaos
    };
    let scales: Vec<u32> = scales_csv
        .split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|s| {
            s.trim().parse().unwrap_or_else(|_| {
                eprintln!("--scales: `{s}` is not a percentage");
                cli.usage();
            })
        })
        .collect();
    serve_cfg.chaos = Some(base);
    let cfg = ChaosSweepConfig {
        serve: serve_cfg,
        seed: wl_seed,
        requests,
        clients,
        think,
        scales,
        jobs,
        mix: if quick {
            Workload::small_mix()
        } else {
            Workload::standard_mix()
        },
    };

    println!(
        "chaos sweep: {} devices, {} requests/point, engine {}, seed {:#x}, chaos seed {:#x}",
        cfg.serve.devices,
        cfg.requests,
        cfg.serve.engine.label(),
        cfg.seed,
        base.seed,
    );
    println!(
        "{:<8} {:>7} {:>10} {:>10} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "scale%",
        "avail%",
        "goodput",
        "rec_p99",
        "crashes",
        "hangs",
        "mchecks",
        "retries",
        "quarant",
        "failed"
    );
    let points = if fleet_checkpoint_every.is_some() || resume {
        let durable = DurableConfig {
            dir: dir.join("wal"),
            checkpoint_every: fleet_checkpoint_every.unwrap_or(DEFAULT_FLEET_CHECKPOINT_EVERY),
            resume,
        };
        match run_chaos_sweep_durable(&cfg, &durable) {
            Ok(points) => points,
            Err(e) => {
                eprintln!("error: durable chaos sweep failed: {e}");
                exit(1);
            }
        }
    } else {
        run_chaos_sweep(&cfg)
    };
    for p in &points {
        let c = &p.outcome.chaos;
        let rec = metrics::recovery_summary(&p.outcome);
        println!(
            "{:<8} {:>7.2} {:>10.2} {:>10.4} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
            p.scale,
            metrics::availability_pct(&p.outcome),
            metrics::throughput_rps(&p.outcome),
            metrics::ms(rec.map_or(0, |l| l.p99)),
            c.crashes,
            c.hang_failures,
            c.fault_failures,
            c.job_retries,
            c.quarantines,
            c.failed,
        );
    }

    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!(
            "error: cannot create output directory {}: {e}",
            dir.display()
        );
        exit(1);
    }
    let report = chaos_report_json(&cfg, &points);
    let path = dir.join("BENCH_chaos.json");
    if let Err(e) = atomic_write(&path, report.as_bytes()) {
        eprintln!("error: cannot write report {}: {e}", path.display());
        exit(1);
    }
    println!("report: {}", path.display());

    if gate_run {
        if let Err(why) = chaos_gate(&points, floor) {
            eprintln!("gate: FAILED: {why}");
            exit(1);
        }
        println!("gate: ok");
    }
}
