//! Closed-loop serving sweeps over a simulated VIP fleet.
//!
//! Replays one seeded closed-loop workload over a pool of simulated
//! devices via [`vip_serve::run_sweep`], along one of two axes:
//!
//! * **offered load** (the default) — client counts 1,2,4,… up to
//!   `--clients-max`, written to `BENCH_serving.json`;
//! * **chaos intensity** (`--scales <csv>`) — a fixed `--clients`
//!   count at each percentage of the configured per-slice crash/hang
//!   and fault rates, 0 % the clean baseline: availability, recovery
//!   latency, and goodput versus injected failure rate, written to
//!   `BENCH_chaos.json`.
//!
//! It prints one summary row per point and writes the report
//! atomically into the output directory. The report is a pure
//! function of the seeds and the configuration — byte-identical
//! across re-runs at any `--jobs` — which is exactly what the
//! `--gate` determinism checks in CI diff.
//!
//! Flags for both axes:
//!
//! * `--devices <n>` — simulated devices in the fleet (default `4`)
//! * `--queue-depth <n>` — shared admission bound (default `64`)
//! * `--quantum <cycles>` — device slice length (default `100000`)
//! * `--batch <n>` — max requests batched into one tile (default `8`)
//! * `--engine fast|functional` — device stepping engine (default
//!   `fast`)
//! * `--requests <n>` — requests per sweep point (default `64`; `48`
//!   with `--scales`)
//! * `--think <cycles>` — mean client think time (default `200000`;
//!   `100000` with `--scales`)
//! * `--seed <u64>` — workload seed (default: `VIP_TEST_SEED` env
//!   override, else `7`)
//! * `--jobs <n>` — sweep-point worker threads (default `1`)
//! * `--dir <path>` — output directory (default `serve-out`)
//! * `--schedules <path>` — tuned schedule artifacts (default:
//!   `VIP_SCHEDULE_DIR` or `schedules/`)
//! * `--checkpoint-every <events>` — run durably: journal scheduler
//!   events and checkpoint the whole fleet every N events under
//!   `<dir>/wal/`
//! * `--resume` — continue an interrupted durable run from its
//!   journal and checkpoints (the finished report is byte-identical
//!   to an uninterrupted run's)
//! * `--quick` — CI smoke preset: small fleet, short sweep, small
//!   tiles; with `--scales` also short slices and hotter rates
//! * `--gate` — exit nonzero unless the load curve is monotone,
//!   saturating, and fully served; with `--scales`, unless every
//!   request reached a typed terminal status, the clean point served
//!   everything, availability held the floor, and the hot end
//!   actually injected failures
//!
//! Offered-load axis only:
//!
//! * `--clients-max <n>` — sweep client counts 1,2,4,… up to this
//!   (default `16`)
//!
//! Chaos axis only (each needs `--scales`):
//!
//! * `--scales <csv>` — chaos intensities in percent, for example
//!   `0,25,50,100,200`
//! * `--clients <n>` — concurrent closed-loop clients (default `8`)
//! * `--chaos-seed <u64>` — chaos stream seed (default: workload seed)
//! * `--crash-ppm <n>` / `--hang-ppm <n>` / `--flaky-ppm <n>` — the
//!   100 % injection rates
//! * `--snapshot-every <slices>` — per-job device-snapshot cadence in
//!   paused slices (`0` disables; jobs then recover by re-running)
//! * `--max-attempts <n>` — dispatch attempts per job
//! * `--deadline <cycles>` — per-job deadline (`0` disables)
//! * `--shed-floor <pct>` — load-shedding floor (`0` disables)
//! * `--floor <pct>` — availability floor the gate enforces
//!   (default `50`)
//!
//! A zero device, queue-depth, quantum, request or client count, an
//! empty sweep, and a flag of the other axis are usage errors (exit
//! status 2, no report).

use std::path::PathBuf;
use std::process::exit;

use vip_bench::cli::{env_seed, Cli};
use vip_serve::{
    chaos_gate, chaos_report_json, gate, metrics, report_json, run_sweep, Axis, ChaosConfig,
    DurableConfig, Engine, ServeConfig, SweepConfig, Workload,
};
use vip_snap::atomic_write;

/// Default fleet-checkpoint cadence when `--resume` is given without
/// an explicit `--checkpoint-every`.
const DEFAULT_CHECKPOINT_EVERY: u64 = 256;

/// The flags that only make sense on the chaos axis.
const CHAOS_FLAGS: [&str; 10] = [
    "--clients",
    "--chaos-seed",
    "--crash-ppm",
    "--hang-ppm",
    "--flaky-ppm",
    "--snapshot-every",
    "--max-attempts",
    "--deadline",
    "--shed-floor",
    "--floor",
];

fn main() {
    let mut cli = Cli::new(
        "serve",
        "[--devices <n>] [--queue-depth <n>] [--quantum <cycles>] [--batch <n>] \
         [--engine fast|functional] [--requests <n>] [--think <cycles>] [--seed <u64>] \
         [--jobs <n>] [--dir <path>] [--schedules <path>] [--checkpoint-every <events>] \
         [--resume] [--quick] [--gate] [--clients-max <n>] | [--scales <csv> [--clients <n>] \
         [--chaos-seed <u64>] [--crash-ppm <n>] [--hang-ppm <n>] [--flaky-ppm <n>] \
         [--snapshot-every <slices>] [--max-attempts <n>] [--deadline <cycles>] \
         [--shed-floor <pct>] [--floor <pct>]]",
    );
    let mut serve_cfg = ServeConfig::default();
    let mut requests: Option<usize> = None;
    let mut think: Option<u64> = None;
    let mut seed: Option<u64> = None;
    let mut jobs = 1usize;
    let mut dir = PathBuf::from("serve-out");
    let mut checkpoint_every: Option<u64> = None;
    let mut resume = false;
    let mut quick = false;
    let mut gate_run = false;
    let mut clients_max: Option<usize> = None;
    let mut scales_csv: Option<String> = None;
    let mut clients = 8usize;
    let mut chaos_seed: Option<u64> = None;
    let mut chaos = ChaosConfig::default_rates(0);
    let mut floor = 50.0f64;
    let mut chaos_flag: Option<String> = None;
    while let Some(arg) = cli.next_arg() {
        if chaos_flag.is_none() && CHAOS_FLAGS.contains(&arg.as_str()) {
            chaos_flag = Some(arg.clone());
        }
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
            "--requests" => requests = Some(cli.value("--requests")),
            "--think" => think = Some(cli.value("--think")),
            "--seed" => seed = Some(cli.value("--seed")),
            "--jobs" => jobs = cli.value("--jobs"),
            "--dir" => dir = cli.value("--dir"),
            "--schedules" => serve_cfg.schedule_dir = cli.value("--schedules"),
            "--checkpoint-every" => checkpoint_every = Some(cli.value("--checkpoint-every")),
            "--resume" => resume = true,
            "--quick" => quick = true,
            "--gate" => gate_run = true,
            "--clients-max" => clients_max = Some(cli.value("--clients-max")),
            "--scales" => scales_csv = Some(cli.value("--scales")),
            "--clients" => clients = cli.value("--clients"),
            "--chaos-seed" => chaos_seed = Some(cli.value("--chaos-seed")),
            "--crash-ppm" => chaos.crash_ppm = cli.value("--crash-ppm"),
            "--hang-ppm" => chaos.hang_ppm = cli.value("--hang-ppm"),
            "--flaky-ppm" => chaos.flaky_ppm = cli.value("--flaky-ppm"),
            "--snapshot-every" => chaos.checkpoint_every = cli.value("--snapshot-every"),
            "--max-attempts" => chaos.max_attempts = cli.value("--max-attempts"),
            "--deadline" => chaos.deadline = cli.value("--deadline"),
            "--shed-floor" => chaos.shed_floor_pct = cli.value("--shed-floor"),
            "--floor" => floor = cli.value("--floor"),
            _ => cli.usage(),
        }
    }

    let seed = seed.unwrap_or_else(|| env_seed(7));
    let (requests, think, axis) = match scales_csv {
        None => {
            if let Some(flag) = chaos_flag {
                eprintln!("{flag} applies to a chaos sweep, which needs --scales");
                cli.usage();
            }
            let mut requests = requests.unwrap_or(64);
            let mut clients_max = clients_max.unwrap_or(16);
            if quick {
                serve_cfg.devices = serve_cfg.devices.min(2);
                requests = requests.min(24);
                clients_max = clients_max.min(8);
            }
            let counts = std::iter::successors(Some(1usize), |c| c.checked_mul(2))
                .take_while(|&c| c <= clients_max)
                .collect();
            (requests, think.unwrap_or(200_000), Axis::Clients(counts))
        }
        Some(csv) => {
            if clients_max.is_some() {
                eprintln!("--clients-max belongs to the client-count axis, not --scales");
                cli.usage();
            }
            let mut requests = requests.unwrap_or(48);
            if quick {
                serve_cfg.devices = serve_cfg.devices.min(3);
                // Slices much shorter than a small tile, so jobs span
                // several and mid-flight failures (and snapshots) land.
                serve_cfg.quantum = serve_cfg.quantum.min(2_000);
                requests = requests.min(16);
                clients = clients.min(6);
                // Hot enough that the short smoke run actually injects
                // and recovers failures on every class.
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
            let scales = csv
                .split(',')
                .filter(|s| !s.trim().is_empty())
                .map(|s| {
                    s.trim().parse().unwrap_or_else(|_| {
                        eprintln!("--scales: `{s}` is not a percentage");
                        cli.usage();
                    })
                })
                .collect();
            serve_cfg.chaos = Some(ChaosConfig {
                seed: chaos_seed.unwrap_or(seed),
                ..chaos
            });
            let think = think.unwrap_or(100_000);
            (requests, think, Axis::ChaosScale { clients, scales })
        }
    };
    let cfg = SweepConfig {
        serve: serve_cfg,
        seed,
        requests,
        think,
        axis,
        jobs,
        mix: if quick {
            Workload::small_mix()
        } else {
            Workload::standard_mix()
        },
    };
    // Checked before any worker starts: the scheduler asserts these as
    // invariants, and a sweep with nothing to run would publish an
    // empty report. (`clients` keeps its default off the chaos axis.)
    for (flag, value) in [
        ("--devices", cfg.serve.devices as u64),
        ("--queue-depth", cfg.serve.queue_depth as u64),
        ("--quantum", cfg.serve.quantum),
        ("--requests", cfg.requests as u64),
        ("--clients", clients as u64),
    ] {
        if value == 0 {
            eprintln!("{flag} must be at least 1");
            cli.usage();
        }
    }
    if cfg.is_empty() {
        eprintln!("the sweep has no points (--clients-max 0 or an empty --scales)");
        cli.usage();
    }

    let durable = (checkpoint_every.is_some() || resume).then(|| DurableConfig {
        dir: dir.join("wal"),
        checkpoint_every: checkpoint_every.unwrap_or(DEFAULT_CHECKPOINT_EVERY),
        resume,
    });
    let points = run_sweep(&cfg, durable.as_ref()).unwrap_or_else(|e| {
        eprintln!("error: durable sweep failed: {e}");
        exit(1);
    });

    // Only `--scales` arms chaos, so this is the chaos axis.
    let (name, report, verdict) = if let Some(chaos) = cfg.serve.chaos {
        println!(
            "chaos sweep: {} devices, {} requests/point, engine {}, seed {:#x}, chaos seed {:#x}",
            cfg.serve.devices,
            cfg.requests,
            cfg.serve.engine.label(),
            cfg.seed,
            chaos.seed,
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
        for p in &points {
            let (o, c) = (&p.outcome, &p.outcome.chaos);
            let rec = metrics::recovery_summary(o);
            println!(
                "{:<8} {:>7.2} {:>10.2} {:>10.4} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
                p.scale,
                metrics::availability_pct(o),
                metrics::throughput_rps(o),
                metrics::ms(rec.map_or(0, |l| l.p99)),
                c.crashes,
                c.hang_failures,
                c.fault_failures,
                c.job_retries,
                c.quarantines,
                c.failed,
            );
        }
        let verdict = chaos_gate(&points, floor);
        let report = chaos_report_json(&cfg, &points);
        ("BENCH_chaos.json", report, verdict)
    } else {
        println!(
            "serving sweep: {} devices, {} requests/point, engine {}, seed {:#x}",
            cfg.serve.devices,
            cfg.requests,
            cfg.serve.engine.label(),
            cfg.seed
        );
        println!(
            "{:<8} {:>10} {:>10} {:>10} {:>10} {:>8} {:>8} {:>8}",
            "clients", "tput(rps)", "p50(ms)", "p99(ms)", "max(ms)", "batches", "preempt", "reject"
        );
        for p in &points {
            let o = &p.outcome;
            let lat = metrics::latency_summary(o);
            println!(
                "{:<8} {:>10.2} {:>10.4} {:>10.4} {:>10.4} {:>8} {:>8} {:>8}",
                p.clients,
                metrics::throughput_rps(o),
                metrics::ms(lat.map_or(0, |l| l.p50)),
                metrics::ms(lat.map_or(0, |l| l.p99)),
                metrics::ms(lat.map_or(0, |l| l.max)),
                o.batches,
                o.preemptions,
                o.rejections,
            );
        }
        let verdict = gate(&points, cfg.requests);
        ("BENCH_serving.json", report_json(&cfg, &points), verdict)
    };
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!(
            "error: cannot create output directory {}: {e}",
            dir.display()
        );
        exit(1);
    }
    let path = dir.join(name);
    if let Err(e) = atomic_write(&path, report.as_bytes()) {
        eprintln!("error: cannot write report {}: {e}", path.display());
        exit(1);
    }
    println!("report: {}", path.display());

    if gate_run {
        if let Err(why) = verdict {
            eprintln!("gate: FAILED: {why}");
            exit(1);
        }
        println!("gate: ok");
    }
}
