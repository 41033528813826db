//! The `serve-chaos` workload: one closed-loop point on a 4-device
//! fleet under the default chaos rates, served durably.
//!
//! Each pass is one `serve_durable` call journaling into a fresh
//! directory the benchmark owns. Its set-up is the workload, the fleet
//! configuration and the journal directory. Outputs are checked after
//! every pass: every request reaches a terminal status, every served
//! result hash equals that of a clean stand-alone run of its class at
//! its batch size, and every pass produces the same outcome.

use std::collections::btree_map::{BTreeMap, Entry};
use std::path::{Path, PathBuf};
use std::time::Instant;

use vip_core::{SystemConfig, CLOCK_HZ};
use vip_mem::MemConfig;
use vip_serve::{
    metrics, serve, serve_durable, ChaosConfig, ChaosStats, Engine, LoadMode, PointStore,
    ProgramCache, ServeConfig, ServeOutcome, Terminal, TileClass, Workload,
};

use crate::trace::Tracer;
use crate::{
    keep_going, median, out_dir, tail_percentile, trace_summary, Args, HostSpeed, Outcome, Timed,
};

/// Requests per pass: p84 has ten samples beyond it. A pass takes
/// about 4 s.
const REQUESTS: usize = 64;
const CLIENTS: usize = 8;
const THINK: u64 = 100_000;
const DEVICES: usize = 4;
/// Scheduler events between whole-fleet checkpoints.
const FLEET_CHECKPOINT_EVERY: u64 = 256;
/// Set-ups per pass: one set-up is well under a millisecond, so a
/// run takes the median of many.
const SETUP_REPS: usize = 50;

fn class_label(c: &TileClass) -> &'static str {
    match c {
        TileClass::Mlp { .. } => "mlp",
        TileClass::Cnn { .. } => "cnn",
        TileClass::Bp { .. } => "bp",
    }
}

/// Per-layer metric names and units this module reports.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v = vec![
        ("serve.run_s".to_string(), "s"),
        ("serve.durable_overhead_s".to_string(), "s"),
    ];
    for e in Workload::standard_mix() {
        v.push((format!("serve.stage_s.{}", class_label(&e.class)), "s"));
    }
    for (n, u) in [
        ("serve.dispatches", "count"),
        ("serve.batch_mean", "req"),
        ("serve.preemptions", "count"),
        ("serve.migrations", "count"),
        ("serve.cache_hit_ratio", "ratio"),
        ("serve.device_busy_frac", "ratio"),
        ("serve.queue_high_water", "req"),
        ("serve.rejections", "count"),
        ("serve.useful_dispatch_ratio", "ratio"),
        ("serve.chaos.job_retries", "count"),
        ("serve.chaos.recoveries_snapshot", "count"),
        ("serve.chaos.recoveries_restart", "count"),
        ("serve.chaos.quarantines", "count"),
        ("serve.chaos.probe_failures", "count"),
        ("serve.chaos.failed", "count"),
        ("serve.recovery_ms.p50", "sim_ms"),
    ] {
        v.push((n.to_string(), u));
    }
    v
}

fn fleet(sched_dir: PathBuf, chaos_seed: u64) -> ServeConfig {
    ServeConfig {
        devices: DEVICES,
        engine: Engine::Fast,
        mem: MemConfig::baseline(),
        schedule_dir: sched_dir,
        chaos: Some(ChaosConfig::default_rates(chaos_seed)),
        ..ServeConfig::default()
    }
}

/// Clears the pass's journal directory and opens a fresh store in it.
fn fresh_store(root: &Path, fingerprint: u64) -> Result<PointStore, String> {
    match std::fs::remove_dir_all(root) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(format!("clearing {}: {e}", root.display())),
    }
    PointStore::open(root, 0, fingerprint).map_err(|e| e.to_string())
}

/// Hashes of each batch slot's result in a clean stand-alone run of
/// `class` at `batch`, plus its cycle count on `engine`.
fn clean_run(
    class: &TileClass,
    batch: usize,
    sched_dir: &Path,
    engine: Engine,
) -> Result<(Vec<u64>, u64), String> {
    let cfg = SystemConfig::single_vault(MemConfig::baseline());
    let mut job = class.stage(&cfg, batch, sched_dir, &ProgramCache::new());
    job.load_programs();
    let cycles = match engine {
        Engine::Functional => job.sys.run_functional(job.limit),
        _ => job.sys.run(job.limit),
    }
    .map_err(|e| format!("clean {} run: {e}", class.key()))?;
    let hashes = job
        .reader
        .read(job.sys.hmc())
        .iter()
        .map(|b| vip_snap::hash_bytes(b))
        .collect();
    Ok((hashes, cycles))
}

/// The closed-loop workload: the standard mix, 8 clients.
fn workload(seed: u64) -> Workload {
    Workload {
        seed,
        requests: REQUESTS,
        mode: LoadMode::Closed {
            clients: CLIENTS,
            think: THINK,
        },
        mix: Workload::standard_mix(),
    }
}

/// Runs the `serve-chaos` workload.
pub fn run(args: &Args, tracer: &mut Tracer) -> Result<Outcome, String> {
    let root = out_dir().join(format!("serve-{}", std::process::id()));
    let result = run_in(args, tracer, &root);
    let _ = std::fs::remove_dir_all(&root);
    result
}

fn run_in(args: &Args, tracer: &mut Tracer, root: &Path) -> Result<Outcome, String> {
    // The fleet's schedule directory: owned by the benchmark and empty,
    // so every class runs the paper's default schedule wherever the
    // benchmark is started from.
    let sched_dir = root.join("schedules");
    std::fs::create_dir_all(&sched_dir).map_err(|e| format!("{}: {e}", sched_dir.display()))?;
    let journal = root.join("journal");
    let fingerprint =
        vip_snap::hash_bytes(format!("{}/{}", args.serve_seed, args.chaos_seed).as_bytes());
    let mut out = Outcome::default();

    let mut setup_s = Vec::new();
    let mut durable_s: Vec<(bool, Timed)> = Vec::new();
    let mut plain_s = Vec::new();
    let mut first: Option<ServeOutcome> = None;
    let mut speed = HostSpeed::default();
    let start = Instant::now();
    let per_mode = |n: usize| if args.trace { n / 2 } else { n };
    while keep_going(start, args.seconds, per_mode(durable_s.len())) {
        let traced = args.trace && durable_s.len() % 2 == 1;
        tracer.pass = durable_s.len() as u32;
        tracer.set_on(traced);
        speed.sample();

        let mut staged = None;
        for _ in 0..SETUP_REPS {
            let t0 = Instant::now();
            let s = tracer.span("bench.setup", |t| -> Result<_, String> {
                let workload = workload(args.serve_seed);
                let cfg = fleet(sched_dir.clone(), args.chaos_seed);
                let store = t.span("serve.journal_dir", |_| fresh_store(&journal, fingerprint))?;
                Ok((workload, cfg, store))
            })?;
            setup_s.push(speed.timed(t0.elapsed().as_secs_f64()));
            staged = Some(s);
        }
        let (workload, cfg, mut store) = staged.expect("SETUP_REPS > 0");

        let t1 = Instant::now();
        let outcome = tracer.span("bench.pass", |t| {
            t.span("serve.serve_durable", |_| {
                serve_durable(&cfg, &workload, &mut store, FLEET_CHECKPOINT_EVERY)
            })
        });
        let pass_s = t1.elapsed().as_secs_f64();
        println!(
            "pass {}: serve_durable {pass_s:.6} s, calibration loop {:.6} s before it",
            durable_s.len(),
            speed.last()
        );
        durable_s.push((traced, speed.timed(pass_s)));
        let outcome = outcome.map_err(|e| format!("serve_durable: {e}"))?;

        if traced {
            // The same point without the journal: the durable run's
            // overhead, and a check that durability changes nothing.
            let t2 = Instant::now();
            let plain = tracer.span("serve.serve", |_| serve(&cfg, &workload));
            plain_s.push(t2.elapsed().as_secs_f64());
            if plain != outcome {
                out.mismatch("serve and serve_durable produced different outcomes".into());
            }
        }
        tracer.set_on(false);

        match &first {
            None => first = Some(outcome),
            Some(f) if *f != outcome => {
                out.mismatch("serving outcome differs between passes".into());
            }
            Some(_) => {}
        }
    }
    let outcome = first.expect("at least one pass");
    check(&mut out, &outcome, &sched_dir)?;

    // The functional tier's cycle error on each class, clean and alone.
    let mut worst_err: f64 = 0.0;
    for e in Workload::standard_mix() {
        let (_, exact) = clean_run(&e.class, 1, &sched_dir, Engine::Fast)?;
        let (_, estimate) = clean_run(&e.class, 1, &sched_dir, Engine::Functional)?;
        let err = (estimate as f64 - exact as f64) / exact as f64 * 100.0;
        println!(
            "{:<4} exact {exact:>9} cycles  functional {estimate:>9}  error {err:+.3}%",
            class_label(&e.class)
        );
        worst_err = worst_err.max(err.abs());
    }

    let c = &outcome.chaos;
    println!(
        "{} passes, {} requests per pass, serve seed {}, chaos seed {}: crashes {} induced_hangs {} \
         hang_failures {} fault_failures {} job_retries {} recoveries_snapshot {} \
         recoveries_restart {} quarantines {} probes {} probe_failures {} decommissions {} \
         timeouts {} shed {} failed {}",
        durable_s.len(),
        REQUESTS,
        args.serve_seed,
        args.chaos_seed,
        c.crashes,
        c.induced_hangs,
        c.hang_failures,
        c.fault_failures,
        c.job_retries,
        c.recoveries_snapshot,
        c.recoveries_restart,
        c.quarantines,
        c.probes,
        c.probe_failures,
        c.decommissions,
        c.timeouts,
        c.shed,
        c.failed
    );

    let mut lat: Vec<u64> = outcome
        .records
        .iter()
        .filter(|r| r.status.is_served())
        .filter_map(|r| r.latency())
        .collect();
    lat.sort_unstable();
    // The tail percentile follows from the requests issued, so a run
    // that leaves a request unserved still reports the same percentile.
    let tail_p = tail_percentile(REQUESTS);
    println!("{} served, latency tail = p{tail_p}", lat.len());
    let pct = |p: u64| metrics::percentile(&lat, p).map_or(0.0, metrics::ms);
    let busy: u64 = outcome.device_busy.iter().sum();
    // The median pass, raw or at reference speed.
    let pass_median = |traced: bool, host: fn(&Timed) -> f64| {
        median(
            &durable_s
                .iter()
                .filter(|d| d.0 == traced)
                .map(|d| host(&d.1))
                .collect::<Vec<_>>(),
        )
    };
    let host_metrics = |host: fn(&Timed) -> f64| {
        let pass_s = pass_median(false, host);
        [
            median(&setup_s.iter().map(host).collect::<Vec<_>>()),
            pass_s,
            busy as f64 / pass_s / 1e6,
        ]
    };
    let [raw, scaled] = [host_metrics(Timed::raw), host_metrics(Timed::scaled)];
    speed.report(
        &mut out,
        [raw[0], scaled[0]],
        [raw[1], scaled[1]],
        [raw[2], scaled[2]],
    );
    out.set("sim_cycles", busy as f64);
    out.set("cycle_err_pct", worst_err);
    out.set("sim_latency_ms.p50", pct(50));
    out.set("sim_latency_ms.tail", pct(tail_p));
    out.set(
        "sim_goodput_rps",
        lat.len() as f64 * CLOCK_HZ / outcome.makespan.max(1) as f64,
    );

    if args.trace {
        let traced = pass_median(true, Timed::raw);
        per_layer(&mut out, &outcome, &sched_dir, tracer, traced, &plain_s);
        trace_summary(tracer, &mut out, traced, raw[1]);
    }
    Ok(out)
}

/// Output checks: terminal statuses and result hashes.
fn check(out: &mut Outcome, outcome: &ServeOutcome, sched_dir: &Path) -> Result<(), String> {
    let mut expected: BTreeMap<(String, usize), Vec<u64>> = BTreeMap::new();
    for r in outcome.records.iter().filter(|r| r.status.is_served()) {
        if let Entry::Vacant(slot) = expected.entry((r.key.clone(), r.batch)) {
            slot.insert(clean_run(&r.class, r.batch, sched_dir, Engine::Fast)?.0);
        }
    }
    for r in &outcome.records {
        out.attempted += 1;
        if r.status == Terminal::Pending {
            out.failed += 1;
            out.mismatch(format!("request {} never reached a terminal status", r.id));
        } else if !r.status.is_served() {
            out.failed += 1;
            println!("request {} not served: {:?}", r.id, r.status);
        } else if !expected[&(r.key.clone(), r.batch)].contains(&r.result_hash) {
            out.failed += 1;
            out.mismatch(format!(
                "request {} ({}, batch {}) served a result no clean run produces",
                r.id, r.key, r.batch
            ));
        }
    }
    Ok(())
}

fn per_layer(
    out: &mut Outcome,
    o: &ServeOutcome,
    sched_dir: &Path,
    tracer: &mut Tracer,
    traced: f64,
    plain_s: &[f64],
) {
    let plain = median(plain_s);
    out.set("serve.run_s", plain);
    out.set("serve.durable_overhead_s", traced - plain);
    // One cache miss: staging a class from scratch, median of a few.
    let cfg = SystemConfig::single_vault(MemConfig::baseline());
    tracer.pass = u32::MAX;
    tracer.set_on(true);
    for e in Workload::standard_mix() {
        let label = class_label(&e.class);
        let times: Vec<f64> = (0..5)
            .map(|_| {
                let t0 = Instant::now();
                let job = tracer.span(&format!("serve.stage.{label}"), |_| {
                    e.class.stage(&cfg, 1, sched_dir, &ProgramCache::new())
                });
                let s = t0.elapsed().as_secs_f64();
                drop(job);
                s
            })
            .collect();
        out.set(format!("serve.stage_s.{label}"), median(&times));
    }
    tracer.set_on(false);

    let served: Vec<_> = o.records.iter().filter(|r| r.status.is_served()).collect();
    let c: &ChaosStats = &o.chaos;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    out.set("serve.dispatches", o.dispatches as f64);
    out.set(
        "serve.batch_mean",
        ratio(
            served.iter().map(|r| r.batch as u64).sum(),
            served.len() as u64,
        ),
    );
    out.set("serve.preemptions", o.preemptions as f64);
    out.set("serve.migrations", o.migrations as f64);
    out.set(
        "serve.cache_hit_ratio",
        ratio(o.cache_hits, o.cache_hits + o.cache_misses),
    );
    out.set(
        "serve.device_busy_frac",
        ratio(
            o.device_busy.iter().sum(),
            o.makespan * o.device_busy.len() as u64,
        ),
    );
    out.set(
        "serve.queue_high_water",
        o.max_queue_depth.iter().copied().max().unwrap_or(0) as f64,
    );
    out.set("serve.rejections", o.rejections as f64);
    out.set(
        "serve.useful_dispatch_ratio",
        ratio(o.dispatches.saturating_sub(c.job_retries), o.dispatches),
    );
    out.set("serve.chaos.job_retries", c.job_retries as f64);
    out.set(
        "serve.chaos.recoveries_snapshot",
        c.recoveries_snapshot as f64,
    );
    out.set(
        "serve.chaos.recoveries_restart",
        c.recoveries_restart as f64,
    );
    out.set("serve.chaos.quarantines", c.quarantines as f64);
    out.set("serve.chaos.probe_failures", c.probe_failures as f64);
    out.set("serve.chaos.failed", c.failed as f64);
    out.set(
        "serve.recovery_ms.p50",
        metrics::recovery_summary(o).map_or(0.0, |s| metrics::ms(s.p50)),
    );
}
