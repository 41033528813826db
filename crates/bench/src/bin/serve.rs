//! Closed-loop serving benchmark over a simulated VIP fleet.
//!
//! Sweeps offered load (client count) over a pool of simulated
//! devices via [`vip_serve`], printing one summary row per point and
//! writing `BENCH_serving.json` atomically into the output directory.
//! The report is a pure function of the seed and the configuration —
//! byte-identical across re-runs at any `--jobs` — which is exactly
//! what the `--gate` determinism check in CI diffs.
//!
//! Flags:
//!
//! * `--devices <n>` — simulated devices in the fleet (default `4`)
//! * `--queue-depth <n>` — shared admission bound (default `64`)
//! * `--quantum <cycles>` — device slice length (default `100000`)
//! * `--batch <n>` — max requests batched into one tile (default `8`)
//! * `--engine fast|naive|functional` — device stepping engine
//!   (default `fast`)
//! * `--requests <n>` — requests per sweep point (default `64`)
//! * `--clients-max <n>` — sweep client counts 1,2,4,… up to this
//!   (default `16`)
//! * `--think <cycles>` — mean client think time (default `200000`)
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
//! * `--quick` — small fleet, short sweep, small tiles (CI smoke)
//! * `--gate` — exit nonzero unless the load curve is monotone,
//!   saturating, and fully served

use std::path::PathBuf;
use std::process::exit;

use vip_bench::cli::{env_seed, Cli};
use vip_serve::{
    gate, metrics, report_json, run_sweep, run_sweep_durable, DurableConfig, Engine, ServeConfig,
    SweepConfig, Workload,
};
use vip_snap::atomic_write;

/// Default fleet-checkpoint cadence when `--resume` is given without
/// an explicit `--checkpoint-every`.
const DEFAULT_CHECKPOINT_EVERY: u64 = 256;

fn main() {
    let mut cli = Cli::new(
        "serve",
        "[--devices <n>] [--queue-depth <n>] [--quantum <cycles>] [--batch <n>] \
         [--engine fast|naive|functional] [--requests <n>] [--clients-max <n>] \
         [--think <cycles>] [--seed <u64>] [--jobs <n>] [--dir <path>] \
         [--schedules <path>] [--checkpoint-every <events>] [--resume] [--quick] [--gate]",
    );
    let mut serve_cfg = ServeConfig::default();
    let mut requests = 64usize;
    let mut clients_max = 16usize;
    let mut think = 200_000u64;
    let mut seed: Option<u64> = None;
    let mut jobs = 1usize;
    let mut dir = PathBuf::from("serve-out");
    let mut checkpoint_every: Option<u64> = None;
    let mut resume = false;
    let mut quick = false;
    let mut gate_run = false;
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
            "--clients-max" => clients_max = cli.value("--clients-max"),
            "--think" => think = cli.value("--think"),
            "--seed" => seed = Some(cli.value("--seed")),
            "--jobs" => jobs = cli.value("--jobs"),
            "--dir" => dir = cli.value("--dir"),
            "--schedules" => serve_cfg.schedule_dir = cli.value("--schedules"),
            "--checkpoint-every" => checkpoint_every = Some(cli.value("--checkpoint-every")),
            "--resume" => resume = true,
            "--quick" => quick = true,
            "--gate" => gate_run = true,
            _ => cli.usage(),
        }
    }
    if quick {
        serve_cfg.devices = serve_cfg.devices.min(2);
        requests = requests.min(24);
        clients_max = clients_max.min(8);
    }

    let mut clients = Vec::new();
    let mut c = 1usize;
    while c <= clients_max {
        clients.push(c);
        c *= 2;
    }
    let cfg = SweepConfig {
        serve: serve_cfg,
        seed: seed.unwrap_or_else(|| env_seed(7)),
        requests,
        think,
        clients,
        jobs,
        mix: if quick {
            Workload::small_mix()
        } else {
            Workload::standard_mix()
        },
    };

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
    let points = if checkpoint_every.is_some() || resume {
        let durable = DurableConfig {
            dir: dir.join("wal"),
            checkpoint_every: checkpoint_every.unwrap_or(DEFAULT_CHECKPOINT_EVERY),
            resume,
        };
        match run_sweep_durable(&cfg, &durable) {
            Ok(points) => points,
            Err(e) => {
                eprintln!("error: durable sweep failed: {e}");
                exit(1);
            }
        }
    } else {
        run_sweep(&cfg)
    };
    for p in &points {
        let lat = metrics::latency_summary(&p.outcome);
        println!(
            "{:<8} {:>10.2} {:>10.4} {:>10.4} {:>10.4} {:>8} {:>8} {:>8}",
            p.clients,
            metrics::throughput_rps(&p.outcome),
            metrics::ms(lat.map_or(0, |l| l.p50)),
            metrics::ms(lat.map_or(0, |l| l.p99)),
            metrics::ms(lat.map_or(0, |l| l.max)),
            p.outcome.batches,
            p.outcome.preemptions,
            p.outcome.rejections,
        );
    }

    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!(
            "error: cannot create output directory {}: {e}",
            dir.display()
        );
        exit(1);
    }
    let report = report_json(&cfg, &points);
    let path = dir.join("BENCH_serving.json");
    if let Err(e) = atomic_write(&path, report.as_bytes()) {
        eprintln!("error: cannot write report {}: {e}", path.display());
        exit(1);
    }
    println!("report: {}", path.display());

    if gate_run {
        if let Err(why) = gate(&points, cfg.requests) {
            eprintln!("gate: FAILED: {why}");
            exit(1);
        }
        println!("gate: ok");
    }
}
