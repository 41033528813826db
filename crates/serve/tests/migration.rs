//! Preempt-via-snapshot migration conformance.
//!
//! For every tile class and every stepping engine: running a request
//! straight to completion on device A must be architecturally
//! indistinguishable from preempting it mid-flight, snapshotting,
//! restoring the snapshot onto a fresh device B, and finishing there.
//! The exact engine (fast) must also agree on total cycles and on
//! the full final snapshot bytes; the functional engine
//! guarantees bit-identical architectural results but only estimated
//! cycles (restore resets its calibration), so it is held to the
//! results bar alone.

use vip_core::{RunOutcome, System, SystemConfig};
use vip_mem::MemConfig;
use vip_serve::{Engine, ProgramCache, TileClass};

/// Tiles big enough that even the functional engine — whose minimum
/// pause granularity is one ~9k-cycle calibration window — can be
/// caught mid-flight.
fn classes() -> Vec<TileClass> {
    vec![
        TileClass::Mlp {
            inputs: 2048,
            outputs: 64,
        },
        TileClass::Cnn {
            in_channels: 16,
            out_channels: 16,
            filters_per_group: 8,
        },
        TileClass::Bp {
            width: 32,
            height: 32,
            labels: 16,
            iters: 1,
        },
    ]
}

struct Finished {
    blobs: Vec<Vec<u8>>,
    cycles: u64,
    snapshot: Vec<u8>,
}

/// Runs `class` straight to quiescence on one device.
fn run_straight(engine: Engine, class: TileClass, cfg: &SystemConfig) -> Finished {
    let cache = ProgramCache::new();
    let dir = std::env::temp_dir().join("vip-serve-missing-schedules");
    let mut staged = class.stage(cfg, 1, &dir, &cache);
    staged.load_programs();
    let out = engine
        .advance(&mut staged.sys, staged.limit, staged.limit)
        .expect("tile completes");
    assert!(matches!(out, RunOutcome::Quiesced(_)));
    Finished {
        blobs: staged.reader.read(staged.sys.hmc()),
        cycles: staged.sys.now(),
        snapshot: staged.sys.save_snapshot(),
    }
}

/// Runs `class` to (at least) `pause_at` cycles on device A, parks it
/// as a snapshot, restores onto a brand-new device B, and finishes.
/// Returns `None` if the tile quiesced before it could be preempted
/// (the functional engine pauses loosely and may drain right past a
/// late pause point).
fn run_migrated(
    engine: Engine,
    class: TileClass,
    cfg: &SystemConfig,
    pause_at: u64,
) -> Option<Finished> {
    let cache = ProgramCache::new();
    let dir = std::env::temp_dir().join("vip-serve-missing-schedules");
    let mut staged = class.stage(cfg, 1, &dir, &cache);
    staged.load_programs();
    let out = engine
        .advance(&mut staged.sys, pause_at, staged.limit)
        .expect("first slice runs");
    if !matches!(out, RunOutcome::Paused(_)) {
        return None;
    }
    let parked = staged.sys.save_snapshot();

    // Device B: a different System instance entirely, same structural
    // configuration — exactly what the fleet scheduler does.
    let mut dev_b = System::new(cfg.clone());
    dev_b
        .restore_snapshot(&parked)
        .expect("same fingerprint restores");
    let out = engine
        .advance(&mut dev_b, staged.limit, staged.limit)
        .expect("tile completes after migration");
    assert!(matches!(out, RunOutcome::Quiesced(_)));
    Some(Finished {
        blobs: staged.reader.read(dev_b.hmc()),
        cycles: dev_b.now(),
        snapshot: dev_b.save_snapshot(),
    })
}

#[test]
fn migration_preserves_results_on_every_engine() {
    let cfg = SystemConfig::single_vault(MemConfig::baseline());
    for class in classes() {
        let mut results: Vec<Vec<Vec<u8>>> = Vec::new();
        for engine in [Engine::Fast, Engine::Functional] {
            let straight = run_straight(engine, class, &cfg);
            assert!(straight.cycles > 1, "{class:?} finished immediately");
            // Find a pause point genuinely inside this engine's run —
            // successively earlier fractions, since the functional
            // engine's loose pause can drain straight past a late one.
            let migrated = [2, 4, 8, 16]
                .iter()
                .find_map(|div| run_migrated(engine, class, &cfg, straight.cycles / div))
                .unwrap_or_else(|| {
                    panic!(
                        "{class:?}/{}: no pause point landed mid-tile",
                        engine.label()
                    )
                });
            // Architectural results are bit-identical with and without
            // the mid-flight migration, on every engine.
            assert_eq!(
                straight.blobs,
                migrated.blobs,
                "{class:?}/{}: migration changed the results",
                engine.label()
            );
            // The exact engine also agrees on timing and on the entire
            // final machine state.
            if engine != Engine::Functional {
                assert_eq!(
                    straight.cycles,
                    migrated.cycles,
                    "{class:?}/{}: migration changed the cycle count",
                    engine.label()
                );
                assert_eq!(
                    straight.snapshot,
                    migrated.snapshot,
                    "{class:?}/{}: migration changed final machine state",
                    engine.label()
                );
            }
            results.push(straight.blobs);
        }
        // Both engines produce the same architectural results.
        assert_eq!(
            results[0], results[1],
            "{class:?}: fast vs functional differ"
        );
    }
}
