//! The serving sweeps and their reports.
//!
//! A sweep replays one seeded closed-loop workload once per point,
//! one independent [`serve`] run each, along one of two axes: offered
//! load (client counts, until and past fleet saturation, reported as
//! `BENCH_serving.json`) or chaos intensity (percentages of the
//! configured injection rates, reported as `BENCH_chaos.json`). Points
//! are embarrassingly parallel — every run owns its devices and RNG
//! streams — so they fan out over a work-stealing thread pool, with
//! results collected back in input order. Nothing in either report
//! depends on wall clock or thread count: the same seeds and config
//! produce byte-identical reports at any `--jobs`.

use std::fs;
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use vip_snap::{Fingerprint, Snapshot, Writer};

use crate::chaos::Terminal;
use crate::durable::{run_dir, DurableConfig, DurableError, PointStore};
use crate::metrics::{
    availability_pct, latency_summary, ms, recovery_summary, throughput_rps, LatencySummary,
};
use crate::scheduler::{serve, serve_durable, ServeConfig, ServeOutcome};
use crate::workload::{LoadMode, MixEntry, Workload};

/// What a sweep varies from point to point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Axis {
    /// Concurrent closed-loop clients per point, in order; the fleet
    /// config (chaos included, if any) runs as given.
    Clients(Vec<usize>),
    /// A fixed client count replayed at each chaos intensity, as
    /// percent of the configured injection rates (0 = clean baseline;
    /// see [`ChaosConfig::scaled`](crate::ChaosConfig::scaled)). The
    /// fleet config's chaos is the 100 % point and must be `Some`.
    ChaosScale {
        /// Concurrent closed-loop clients at every point.
        clients: usize,
        /// Chaos intensity per point, in order.
        scales: Vec<u32>,
    },
}

/// One sweep's shape.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Fleet and policy knobs shared by every point.
    pub serve: ServeConfig,
    /// Workload seed shared by every point.
    pub seed: u64,
    /// Requests per point.
    pub requests: usize,
    /// Mean closed-loop think time (cycles).
    pub think: u64,
    /// What varies across points.
    pub axis: Axis,
    /// Worker threads for the point fan-out (≥ 1; affects wall clock
    /// only, never results).
    pub jobs: usize,
    /// The request mix.
    pub mix: Vec<MixEntry>,
}

impl SweepConfig {
    /// Number of points on the axis.
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.axis {
            Axis::Clients(clients) => clients.len(),
            Axis::ChaosScale { scales, .. } => scales.len(),
        }
    }

    /// Whether the axis has no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Point `i`'s client count and chaos scale (100 on the clients
    /// axis), with the fleet config and workload its run serves.
    fn point(&self, i: usize) -> (usize, u32, ServeConfig, Workload) {
        let mut serve = self.serve.clone();
        let (clients, scale) = match &self.axis {
            Axis::Clients(clients) => (clients[i], 100),
            Axis::ChaosScale { clients, scales } => {
                serve.chaos = serve.chaos.map(|base| base.scaled(scales[i]));
                (*clients, scales[i])
            }
        };
        let workload = Workload {
            seed: self.seed,
            requests: self.requests,
            mode: LoadMode::Closed {
                clients,
                think: self.think,
            },
            mix: self.mix.clone(),
        };
        (clients, scale, serve, workload)
    }

    /// The run fingerprint durable state is filed under: the axis kind
    /// and values and every result-affecting knob of the sweep, so a
    /// client sweep and a chaos sweep never share a run directory.
    /// `jobs` is deliberately excluded — the fan-out width never
    /// changes results, so a resumed run may use a different one. Each
    /// axis absorbs its knobs in the order its run directories have
    /// always been named by, so existing durable state still resumes.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut f = Fingerprint::new();
        f.push_bytes(match self.axis {
            Axis::Clients(_) => b"serve-sweep",
            Axis::ChaosScale { .. } => b"chaos-sweep",
        });
        self.serve.absorb(&mut f);
        f.push_u64(self.seed);
        f.push_usize(self.requests);
        match &self.axis {
            Axis::Clients(clients) => {
                f.push_u64(self.think);
                f.push_usize(clients.len());
                for &c in clients {
                    f.push_usize(c);
                }
            }
            Axis::ChaosScale { clients, scales } => {
                f.push_usize(*clients);
                f.push_u64(self.think);
                f.push_usize(scales.len());
                for &s in scales {
                    f.push_u64(u64::from(s));
                }
            }
        }
        f.push_usize(self.mix.len());
        for entry in &self.mix {
            let mut w = Writer::new();
            entry.class.save(&mut w);
            f.push_bytes(&w.into_bytes());
            f.push_u64(u64::from(entry.weight));
            f.push_u64(u64::from(entry.priority));
        }
        f.finish()
    }
}

/// One completed sweep point.
#[derive(Debug)]
pub struct SweepPoint {
    /// Concurrent clients at this point.
    pub clients: usize,
    /// Percent of the configured chaos rates injected here (100 on the
    /// clients axis, where the config runs as given).
    pub scale: u32,
    /// The full serving outcome.
    pub outcome: ServeOutcome,
}

/// Runs every point of the sweep over a work-stealing pool of
/// `cfg.jobs` threads, results in input order.
///
/// Without `durable`, each point is one plain [`serve`] run. With it,
/// each point journals its scheduler events and checkpoints its whole
/// fleet (chaos RNG cursors included) under `run_dir(durable.dir,
/// cfg.fingerprint())`, finished points collapse to done-records, and
/// with `durable.resume` set a rerun picks every point up where a
/// crash left it — producing results byte-identical to an
/// uninterrupted run. Without `resume`, prior state for this
/// configuration is wiped first.
///
/// # Errors
///
/// [`DurableError`] when the filesystem refuses a durable read or
/// write (corrupt or divergent persisted state is recovered by
/// recomputing, not reported). A run without `durable` never fails.
///
/// # Panics
///
/// Panics on the chaos-scale axis if `cfg.serve.chaos` is `None` — a
/// chaos sweep over a fleet with chaos disabled would sweep nothing.
pub fn run_sweep(
    cfg: &SweepConfig,
    durable: Option<&DurableConfig>,
) -> Result<Vec<SweepPoint>, DurableError> {
    assert!(
        cfg.serve.chaos.is_some() || matches!(cfg.axis, Axis::Clients(_)),
        "a chaos-scale sweep needs a chaos config"
    );
    let fingerprint = cfg.fingerprint();
    if let Some(durable) = durable.filter(|d| !d.resume) {
        let dir = run_dir(&durable.dir, fingerprint);
        if let Err(e) = fs::remove_dir_all(&dir) {
            if e.kind() != io::ErrorKind::NotFound {
                return Err(DurableError::Io {
                    op: "wipe run directory",
                    path: dir,
                    source: e,
                });
            }
        }
    }
    let n = cfg.len();
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<Result<SweepPoint, DurableError>>>> =
        Mutex::new((0..n).map(|_| None).collect());
    let workers = cfg.jobs.max(1).min(n.max(1));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let (clients, scale, serve_cfg, workload) = cfg.point(i);
                let outcome = match durable {
                    None => Ok(serve(&serve_cfg, &workload)),
                    Some(d) => PointStore::open(&d.dir, i, fingerprint).and_then(|mut store| {
                        serve_durable(&serve_cfg, &workload, &mut store, d.checkpoint_every)
                    }),
                };
                slots.lock().expect("sweep slots")[i] = Some(outcome.map(|outcome| SweepPoint {
                    clients,
                    scale,
                    outcome,
                }));
            });
        }
    });
    slots
        .into_inner()
        .expect("sweep slots")
        .into_iter()
        .map(|p| p.expect("every point ran"))
        .collect()
}

fn point_json(p: &SweepPoint) -> String {
    let o = &p.outcome;
    let completed = o.records.iter().filter(|r| r.completion.is_some()).count();
    let lat = latency_summary(o).unwrap_or(LatencySummary {
        completed: 0,
        p50: 0,
        p99: 0,
        mean: 0,
        max: 0,
    });
    format!(
        "    {{\"clients\": {}, \"issued\": {}, \"completed\": {}, \"rejections\": {}, \
         \"throughput_rps\": {:.2}, \"p50_ms\": {:.4}, \"p99_ms\": {:.4}, \"mean_ms\": {:.4}, \
         \"max_ms\": {:.4}, \"makespan_cycles\": {}, \"dispatches\": {}, \"batches\": {}, \
         \"preemptions\": {}, \"migrations\": {}, \"max_queue_depth\": [{}, {}], \
         \"cache_hits\": {}, \"cache_misses\": {}}}",
        p.clients,
        o.records.len(),
        completed,
        o.rejections,
        throughput_rps(o),
        ms(lat.p50),
        ms(lat.p99),
        ms(lat.mean),
        ms(lat.max),
        o.makespan,
        o.dispatches,
        o.batches,
        o.preemptions,
        o.migrations,
        o.max_queue_depth[0],
        o.max_queue_depth[1],
        o.cache_hits,
        o.cache_misses,
    )
}

/// Renders `BENCH_serving.json`. Deliberately free of wall-clock and
/// `jobs` fields so re-runs of the same seed/config are byte-identical
/// — the determinism gate diffs two of these.
#[must_use]
pub fn report_json(cfg: &SweepConfig, points: &[SweepPoint]) -> String {
    let entries: Vec<String> = points.iter().map(point_json).collect();
    format!(
        "{{\n  \"bench\": \"serving\",\n  \"unit_note\": \"closed-loop sweep over client \
         counts; latency percentiles are integer nearest-rank over per-request \
         arrival-to-completion cycles, converted to ms at the 1.25 GHz device clock; \
         throughput_rps = completed * clock_hz / makespan_cycles\",\n  \"seed\": {},\n  \
         \"engine\": \"{}\",\n  \"devices\": {},\n  \"queue_depth\": {},\n  \"quantum\": {},\n  \
         \"batch_max\": {},\n  \"requests_per_point\": {},\n  \"think_cycles\": {},\n  \
         \"points\": [\n{}\n  ]\n}}\n",
        cfg.seed,
        cfg.serve.engine.label(),
        cfg.serve.devices,
        cfg.serve.queue_depth,
        cfg.serve.quantum,
        cfg.serve.batch_max,
        cfg.requests,
        cfg.think,
        entries.join(",\n")
    )
}

/// The serve-smoke acceptance gate: every point completed its full
/// request count, throughput is nonzero everywhere, and the curve is
/// sane — the most-loaded point's throughput and p99 both at or above
/// the least-loaded point's (monotone-then-saturating load curve).
///
/// # Errors
///
/// Returns a human-readable description of the first violated
/// property.
pub fn gate(points: &[SweepPoint], requests: usize) -> Result<(), String> {
    if points.is_empty() {
        return Err("sweep produced no points".into());
    }
    for p in points {
        let completed = p
            .outcome
            .records
            .iter()
            .filter(|r| r.completion.is_some())
            .count();
        if completed != requests {
            return Err(format!(
                "point clients={} completed {completed}/{requests} requests",
                p.clients
            ));
        }
        if throughput_rps(&p.outcome) <= 0.0 {
            return Err(format!("point clients={} has zero throughput", p.clients));
        }
    }
    let first = points.first().expect("non-empty");
    let last = points.last().expect("non-empty");
    let (t0, t1) = (
        throughput_rps(&first.outcome),
        throughput_rps(&last.outcome),
    );
    if t1 < t0 {
        return Err(format!(
            "throughput fell under load: {t0:.2} rps at {} clients vs {t1:.2} rps at {}",
            first.clients, last.clients
        ));
    }
    let p99 = |p: &SweepPoint| latency_summary(&p.outcome).map_or(0, |l| l.p99);
    if p99(last) < p99(first) {
        return Err(format!(
            "p99 shrank under load: {} cycles at {} clients vs {} cycles at {}",
            p99(first),
            first.clients,
            p99(last),
            last.clients
        ));
    }
    Ok(())
}

fn chaos_point_json(p: &SweepPoint) -> String {
    let o = &p.outcome;
    let served = o.records.iter().filter(|r| r.status.is_served()).count();
    let recovered = o
        .records
        .iter()
        .filter(|r| matches!(r.status, Terminal::Recovered { .. }))
        .count();
    let rec_lat = recovery_summary(o);
    let c = &o.chaos;
    format!(
        "    {{\"scale_pct\": {}, \"issued\": {}, \"served\": {}, \"recovered\": {}, \
         \"failed\": {}, \"timeouts\": {}, \"shed\": {}, \"rejections\": {}, \
         \"availability_pct\": {:.4}, \"goodput_rps\": {:.2}, \
         \"recovery_p50_ms\": {:.4}, \"recovery_p99_ms\": {:.4}, \
         \"crashes\": {}, \"induced_hangs\": {}, \"hang_failures\": {}, \
         \"fault_failures\": {}, \"job_retries\": {}, \"recoveries_snapshot\": {}, \
         \"recoveries_restart\": {}, \"quarantines\": {}, \"probes\": {}, \
         \"probe_failures\": {}, \"decommissions\": {}, \"makespan_cycles\": {}}}",
        p.scale,
        o.records.len(),
        served,
        recovered,
        c.failed,
        c.timeouts,
        c.shed,
        o.rejections,
        availability_pct(o),
        throughput_rps(o),
        ms(rec_lat.map_or(0, |l| l.p50)),
        ms(rec_lat.map_or(0, |l| l.p99)),
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
        o.makespan,
    )
}

/// Renders `BENCH_chaos.json`: availability, recovery latency, and
/// goodput versus injected failure rate. Free of wall-clock and
/// `jobs` fields, so re-runs of the same seed/config are
/// byte-identical — the determinism gate diffs two of these.
///
/// # Panics
///
/// Panics unless `cfg` is a chaos-scale sweep with a chaos config.
#[must_use]
pub fn chaos_report_json(cfg: &SweepConfig, points: &[SweepPoint]) -> String {
    let chaos = cfg.serve.chaos.expect("chaos sweep needs a chaos config");
    let Axis::ChaosScale { clients, .. } = cfg.axis else {
        panic!("chaos report needs a chaos-scale sweep");
    };
    let entries: Vec<String> = points.iter().map(chaos_point_json).collect();
    format!(
        "{{\n  \"bench\": \"chaos\",\n  \"unit_note\": \"closed-loop fleet sweep over chaos \
         intensity (percent of the configured per-slice crash/hang rates); availability = \
         served requests / issued; goodput_rps = served * clock_hz / makespan_cycles; \
         recovery latency is arrival-to-completion of failed-then-recovered requests, \
         nearest-rank, ms at the 1.25 GHz device clock\",\n  \"seed\": {},\n  \
         \"chaos_seed\": {},\n  \"engine\": \"{}\",\n  \"devices\": {},\n  \
         \"queue_depth\": {},\n  \"quantum\": {},\n  \"crash_ppm\": {},\n  \
         \"hang_ppm\": {},\n  \"flaky_ppm\": {},\n  \"checkpoint_every\": {},\n  \
         \"max_attempts\": {},\n  \"deadline\": {},\n  \"shed_floor_pct\": {},\n  \
         \"requests_per_point\": {},\n  \"clients\": {},\n  \"think_cycles\": {},\n  \
         \"points\": [\n{}\n  ]\n}}\n",
        cfg.seed,
        chaos.seed,
        cfg.serve.engine.label(),
        cfg.serve.devices,
        cfg.serve.queue_depth,
        cfg.serve.quantum,
        chaos.crash_ppm,
        chaos.hang_ppm,
        chaos.flaky_ppm,
        chaos.checkpoint_every,
        chaos.max_attempts,
        chaos.deadline,
        chaos.shed_floor_pct,
        cfg.requests,
        clients,
        cfg.think,
        entries.join(",\n")
    )
}

/// The chaos-smoke acceptance gate: the run held together under
/// injection. Specifically — every request reached a typed terminal
/// status; the clean (scale-0) point served everything; availability
/// stayed at or above `floor_pct` everywhere; the loaded end actually
/// injected failures; and every failure was either recovered or
/// accounted terminal (served + failed + rejected = issued).
///
/// # Errors
///
/// Returns a human-readable description of the first violated
/// property.
pub fn chaos_gate(points: &[SweepPoint], floor_pct: f64) -> Result<(), String> {
    if points.is_empty() {
        return Err("chaos sweep produced no points".into());
    }
    for p in points {
        let o = &p.outcome;
        let mut served = 0usize;
        let mut failed = 0usize;
        let mut rejected = 0usize;
        for r in &o.records {
            match r.status {
                Terminal::Pending => {
                    return Err(format!(
                        "scale {}%: request {} ended without a terminal status",
                        p.scale, r.id
                    ));
                }
                Terminal::Completed | Terminal::Recovered { .. } => served += 1,
                Terminal::Failed { .. } => failed += 1,
                Terminal::Rejected(_) => rejected += 1,
            }
        }
        if served + failed + rejected != o.records.len() {
            return Err(format!(
                "scale {}%: {} served + {} failed + {} rejected ≠ {} issued",
                p.scale,
                served,
                failed,
                rejected,
                o.records.len()
            ));
        }
        let avail = availability_pct(o);
        if p.scale == 0 && served != o.records.len() {
            return Err(format!(
                "clean point served only {}/{} requests",
                served,
                o.records.len()
            ));
        }
        if avail < floor_pct {
            return Err(format!(
                "scale {}%: availability {avail:.2}% below the {floor_pct:.2}% floor",
                p.scale
            ));
        }
    }
    let hottest = points.last().expect("non-empty");
    let c = &hottest.outcome.chaos;
    if hottest.scale > 0 && c.crashes + c.hang_failures + c.fault_failures == 0 {
        return Err(format!(
            "scale {}% injected no failures — the sweep proves nothing",
            hottest.scale
        ));
    }
    Ok(())
}
