//! Chaos-regime conformance: recovery changes *when* results arrive,
//! never *what* they are — and never costs determinism.
//!
//! Three pillars, mirroring the clean suite in `properties.rs`:
//!
//! * **Determinism**: a chaos run is a pure function of (workload
//!   seed, chaos config) — an identical rerun reproduces every
//!   record, counter, and injected failure; the chaos sweep report is
//!   byte-identical at any `--jobs`.
//! * **Recovery conformance**: every request a chaos run serves —
//!   including failed-then-recovered jobs restored from a periodic
//!   snapshot onto a different device — hashes bit-identically to its
//!   unperturbed twin from a clean run of the same workload, on both
//!   stepping engines.
//! * **Coverage**: under the default test seeds every injected
//!   failure class actually fires (crashes, induced hangs, machine
//!   checks from fault-poisoned devices), both recovery paths run
//!   (snapshot restore and restage-from-admission), and the policy
//!   edges (deadline timeouts, load shedding, terminal failure)
//!   resolve to their typed statuses.

use std::collections::HashMap;

use vip_rng::for_each_seed;
use vip_serve::{
    chaos_gate, chaos_report_json, run_sweep, serve, Axis, ChaosConfig, Engine, FailureKind,
    LoadMode, Rejection, ServeConfig, ServeOutcome, SweepConfig, Terminal, Workload,
};

/// A small fleet with slices short enough that every job spans
/// several, so periodic checkpoints and mid-flight failures both land.
fn fleet(engine: Engine, chaos: Option<ChaosConfig>) -> ServeConfig {
    ServeConfig {
        devices: 3,
        queue_depth: 8,
        quantum: 15_000,
        batch_max: 1,
        engine,
        chaos,
        ..ServeConfig::default()
    }
}

/// Chaos rates hot enough that a short run exercises every failure
/// class, with checkpoints every paused slice so snapshot recovery is
/// the common path.
fn hot_chaos(seed: u64) -> ChaosConfig {
    let mut c = ChaosConfig::default_rates(seed);
    c.crash_ppm = 60_000;
    c.hang_ppm = 45_000;
    c.flaky_ppm = 500_000;
    if let Some(dram) = c.faults.dram.as_mut() {
        dram.single_bit_ppm = 100;
        dram.double_bit_ppm = 60;
    }
    c.checkpoint_every = 1;
    c.max_attempts = 6;
    c.retry_backoff = 10_000;
    c.quarantine = 50_000;
    c.probe_pass_ppm = 700_000;
    c
}

fn closed(seed: u64, requests: usize, clients: usize) -> Workload {
    Workload {
        seed,
        requests,
        mode: LoadMode::Closed {
            clients,
            think: 20_000,
        },
        mix: Workload::small_mix(),
    }
}

fn assert_total(outcome: &ServeOutcome) {
    for rec in &outcome.records {
        assert_ne!(
            rec.status,
            Terminal::Pending,
            "request {} has no terminal status",
            rec.id
        );
    }
}

fn assert_identical(a: &ServeOutcome, b: &ServeOutcome) {
    assert_eq!(a.records.len(), b.records.len());
    for (x, y) in a.records.iter().zip(&b.records) {
        assert_eq!(x.status, y.status, "request {} diverged", x.id);
        assert_eq!(x.completion, y.completion);
        assert_eq!(x.attempts, y.attempts);
        assert_eq!(x.devices, y.devices);
        assert_eq!(x.result_hash, y.result_hash);
    }
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.chaos, b.chaos);
    assert_eq!(a.device_busy, b.device_busy);
}

#[test]
fn chaos_runs_are_deterministic_and_cover_every_failure_class() {
    let mut sum = vip_serve::ChaosStats::default();
    let mut recovered_snapshot = 0u64;
    let mut recovered_restart = 0u64;
    for_each_seed("serve-chaos", 31, 3, |seed| {
        let cfg = fleet(Engine::Fast, Some(hot_chaos(seed ^ 0xc4a0)));
        let wl = closed(seed, 20, 6);
        let outcome = serve(&cfg, &wl);
        assert_eq!(outcome.records.len(), wl.requests);
        assert_total(&outcome);
        // Rerun-identical: injection is part of the seeded contract.
        let again = serve(&cfg, &wl);
        assert_identical(&outcome, &again);
        for rec in &outcome.records {
            match rec.status {
                Terminal::Recovered { via_snapshot, .. } => {
                    if via_snapshot {
                        recovered_snapshot += 1;
                    } else {
                        recovered_restart += 1;
                    }
                }
                Terminal::Failed { attempts, .. } => {
                    assert!(attempts >= 1);
                }
                _ => {}
            }
        }
        sum.crashes += outcome.chaos.crashes;
        sum.induced_hangs += outcome.chaos.induced_hangs;
        sum.hang_failures += outcome.chaos.hang_failures;
        sum.fault_failures += outcome.chaos.fault_failures;
        sum.job_retries += outcome.chaos.job_retries;
        sum.recoveries_snapshot += outcome.chaos.recoveries_snapshot;
        sum.recoveries_restart += outcome.chaos.recoveries_restart;
        sum.quarantines += outcome.chaos.quarantines;
        sum.probes += outcome.chaos.probes;
    });
    // Every injected failure class, both recovery paths, and the
    // quarantine machinery must actually fire across the seed set —
    // deterministic for the fixed seeds, so not flaky.
    if vip_rng::seed_override().is_none() {
        assert!(sum.crashes > 0, "no seed injected a crash: {sum:?}");
        assert!(sum.induced_hangs > 0, "no seed wedged a slice: {sum:?}");
        assert!(sum.hang_failures > 0, "no hang failure surfaced: {sum:?}");
        assert!(
            sum.fault_failures > 0,
            "no machine check from a fault-poisoned device: {sum:?}"
        );
        assert!(sum.job_retries > 0, "nothing retried: {sum:?}");
        assert!(
            sum.recoveries_snapshot > 0,
            "no snapshot recovery ran: {sum:?}"
        );
        assert!(
            sum.recoveries_restart > 0,
            "no restage recovery ran: {sum:?}"
        );
        assert!(sum.quarantines > 0, "no device was quarantined: {sum:?}");
        assert!(sum.probes > 0, "no health probe ran: {sum:?}");
        assert!(
            recovered_snapshot > 0,
            "no request completed via snapshot recovery"
        );
        assert!(
            recovered_restart > 0,
            "no request completed via restage recovery"
        );
    }
}

#[test]
fn recovered_results_match_unperturbed_twins_on_every_engine() {
    let mut recoveries = 0u64;
    for engine in [Engine::Fast, Engine::Functional] {
        let wl = closed(0xf417, 12, 4);
        // The unperturbed twin: same workload, chaos off. batch_max is
        // 1 throughout, so every request of a class computes the same
        // tile over the same inputs — its result hash is the class's.
        let clean = serve(&fleet(engine, None), &wl);
        let mut expected: HashMap<String, u64> = HashMap::new();
        for rec in &clean.records {
            assert_eq!(rec.status, Terminal::Completed);
            let prev = expected.insert(rec.key.clone(), rec.result_hash);
            assert!(
                prev.is_none_or(|h| h == rec.result_hash),
                "clean hashes disagree within class {}",
                rec.key
            );
        }
        let chaotic = serve(&fleet(engine, Some(hot_chaos(0xd15ea5e))), &wl);
        assert_total(&chaotic);
        for rec in &chaotic.records {
            if rec.status.is_served() {
                assert_eq!(
                    rec.result_hash,
                    expected[&rec.key],
                    "{}: request {} ({}) served different bits under chaos \
                     (status {:?}, devices {:?})",
                    engine.label(),
                    rec.id,
                    rec.key,
                    rec.status,
                    rec.devices
                );
            }
            if let Terminal::Recovered { .. } = rec.status {
                recoveries += 1;
            }
        }
    }
    // At least one failed-then-recovered request proved the bit-exact
    // claim somewhere across the two engines.
    assert!(recoveries > 0, "no engine exercised a recovery");
}

#[test]
fn chaos_report_is_jobs_independent_and_gated() {
    let sweep = |jobs: usize| SweepConfig {
        serve: fleet(Engine::Fast, Some(hot_chaos(0xbad5eed))),
        seed: 0xa11ce,
        requests: 12,
        think: 20_000,
        axis: Axis::ChaosScale {
            clients: 4,
            scales: vec![0, 50, 100],
        },
        jobs,
        mix: Workload::small_mix(),
    };
    let serial_cfg = sweep(1);
    let serial = run_sweep(&serial_cfg, None).expect("plain chaos sweep");
    let parallel_cfg = sweep(4);
    let parallel = run_sweep(&parallel_cfg, None).expect("plain chaos sweep");
    chaos_gate(&serial, 40.0).expect("chaos sweep passes the gate");
    assert_eq!(
        chaos_report_json(&serial_cfg, &serial),
        chaos_report_json(&parallel_cfg, &parallel),
        "chaos report depends on --jobs"
    );
}

#[test]
fn deadline_and_shedding_resolve_to_typed_rejections() {
    // A deadline far shorter than the retry backoff: any job that
    // fails once blows it, and queued work expires under load.
    let mut chaos = hot_chaos(0x7ea);
    chaos.deadline = 120_000;
    chaos.shed_floor_pct = 100; // any quarantine sheds batch work
    chaos.max_attempts = 3;
    let cfg = fleet(Engine::Fast, Some(chaos));
    let wl = Workload {
        seed: 0x7ea,
        requests: 24,
        mode: LoadMode::Closed {
            clients: 8,
            think: 5_000,
        },
        mix: Workload::standard_mix(),
    };
    let outcome = serve(&cfg, &wl);
    assert_total(&outcome);
    let mut timeouts = 0u64;
    let mut shed = 0u64;
    let mut failed = 0u64;
    for rec in &outcome.records {
        match rec.status {
            Terminal::Rejected(Rejection::Timeout { deadline, waited }) => {
                assert_eq!(deadline, 120_000);
                assert!(waited > deadline, "timed out before the deadline");
                timeouts += 1;
            }
            Terminal::Rejected(Rejection::Shed { healthy, devices }) => {
                assert!(healthy < devices);
                shed += 1;
            }
            Terminal::Failed { kind, attempts } => {
                assert!(attempts <= 3, "retry budget exceeded");
                assert!(matches!(kind, FailureKind::Crash | FailureKind::Sim(_)));
                failed += 1;
            }
            _ => {}
        }
    }
    assert_eq!(outcome.chaos.timeouts, timeouts);
    assert_eq!(outcome.chaos.shed, shed);
    assert_eq!(outcome.chaos.failed, failed);
    assert!(
        timeouts > 0,
        "no deadline timeout fired: {:?}",
        outcome.chaos
    );
    assert!(shed > 0, "no load shedding fired: {:?}", outcome.chaos);
}

/// The circuit breaker's strike boundary, pinned exactly: with probes
/// that can never pass and direct decommissions disabled, every
/// quarantined device fails exactly `max_strikes` probes and then
/// opens the breaker — no off-by-one readmission, no early death.
#[test]
fn breaker_opens_after_exactly_max_strikes_failed_probes() {
    let mut chaos = hot_chaos(0x57217e);
    chaos.crash_ppm = 300_000;
    chaos.decommission_ppm = 0; // breaker is the only path to Dead
    chaos.probe_pass_ppm = 0; // probes always fail
    chaos.max_strikes = 3;
    let cfg = fleet(Engine::Fast, Some(chaos));
    let outcome = serve(&cfg, &closed(0x57217e, 20, 6));
    assert_total(&outcome);
    let c = &outcome.chaos;
    assert!(c.quarantines > 0, "no device was quarantined: {c:?}");
    // One quarantine episode per device: with no passing probe a
    // quarantined device never rejoins the fleet.
    assert_eq!(c.quarantines, c.decommissions, "{c:?}");
    assert_eq!(c.probes, c.probe_failures, "a probe passed at 0 ppm");
    assert_eq!(
        c.probe_failures,
        3 * c.decommissions,
        "strike boundary missed: {c:?}"
    );
}

/// The opposite boundary: probes that always pass readmit every
/// quarantined device on its first probe (strikes reset, breaker never
/// opens), so the fleet survives an arbitrary quarantine churn.
#[test]
fn perfect_probes_readmit_on_first_attempt() {
    let mut chaos = hot_chaos(0x4ead);
    chaos.crash_ppm = 300_000;
    chaos.decommission_ppm = 0;
    chaos.probe_pass_ppm = vip_faults::PPM_SCALE as u32;
    let cfg = fleet(Engine::Fast, Some(chaos));
    let outcome = serve(&cfg, &closed(0x4ead, 20, 6));
    assert_total(&outcome);
    let c = &outcome.chaos;
    assert!(c.quarantines > 0, "no device was quarantined: {c:?}");
    assert_eq!(c.probes, c.quarantines, "a readmission took >1 probe");
    assert_eq!(c.probe_failures, 0, "{c:?}");
    assert_eq!(c.decommissions, 0, "{c:?}");
    assert!(
        outcome.records.iter().any(|r| r.status.is_served()),
        "readmitted fleet served nothing"
    );
}

/// Losing every device at once must not wedge or drop work: with two
/// devices and near-certain slice crashes, the whole fleet cycles
/// through quarantine (often simultaneously), yet every request still
/// reaches a typed terminal status and the backoff eventually serves.
#[test]
fn whole_fleet_quarantine_backs_off_and_recovers() {
    let mut chaos = hot_chaos(0xa11);
    chaos.crash_ppm = 900_000;
    chaos.decommission_ppm = 0;
    chaos.probe_pass_ppm = vip_faults::PPM_SCALE as u32;
    let cfg = ServeConfig {
        devices: 2,
        ..fleet(Engine::Fast, Some(chaos))
    };
    let outcome = serve(&cfg, &closed(0xa11, 16, 5));
    assert_total(&outcome);
    let c = &outcome.chaos;
    assert!(
        c.quarantines >= 2,
        "both devices should have cycled through quarantine: {c:?}"
    );
    assert_eq!(c.decommissions, 0, "{c:?}");
    // Rerun-identical even at the saturation edge.
    assert_identical(&outcome, &serve(&cfg, &closed(0xa11, 16, 5)));
}

/// Deadline expiry racing successful recovery: with a deadline a few
/// retry-backoffs wide, some failed jobs recover in time and some blow
/// the deadline mid-recovery. Both outcomes must appear across the
/// seed set, and a timeout must never fire early.
#[test]
fn deadline_races_recovery_both_ways() {
    let mut raced_recoveries = 0u64;
    let mut raced_timeouts = 0u64;
    for_each_seed("serve-deadline-race", 0xace, 4, |seed| {
        let mut chaos = hot_chaos(seed ^ 0xd11e);
        chaos.deadline = 300_000;
        chaos.max_attempts = 6;
        let cfg = fleet(Engine::Fast, Some(chaos));
        let outcome = serve(&cfg, &closed(seed, 20, 8));
        assert_total(&outcome);
        for rec in &outcome.records {
            match rec.status {
                Terminal::Rejected(Rejection::Timeout { deadline, waited }) => {
                    assert_eq!(deadline, 300_000);
                    assert!(waited > deadline, "timed out before the deadline");
                    raced_timeouts += 1;
                }
                Terminal::Recovered { .. } => raced_recoveries += 1,
                _ => {}
            }
        }
    });
    if vip_rng::seed_override().is_none() {
        assert!(
            raced_recoveries > 0,
            "no failed job recovered inside the deadline"
        );
        assert!(
            raced_timeouts > 0,
            "no failed job blew the deadline mid-recovery"
        );
    }
}
