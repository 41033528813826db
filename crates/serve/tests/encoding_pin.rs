//! Encoding pins for durable serving: the hash of a chaos run's
//! done-record payload and of one whole-fleet checkpoint payload.
//!
//! A round trip cannot catch a reordered field list, because the
//! writer and the reader change together. A pinned hash can. If one of
//! these fails, the durable format changed: bump
//! `vip_snap::FORMAT_VERSION` and pin the new values.

use std::path::PathBuf;

use vip_faults::{NocFaultConfig, PeFaultConfig};
use vip_serve::{
    run_dir, serve, serve_durable_interrupted, ChaosConfig, Engine, LoadMode, PointStore,
    ServeConfig, Workload,
};
use vip_snap::{scan_frames, Snapshot, Writer};

const FP: u64 = 0x0e4c_0d1e_0000_0012;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vip-pin-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A small fleet under hot chaos, with all three fault injectors in
/// the flaky-device template, so the payloads carry every status and
/// failure variant.
fn fleet() -> ServeConfig {
    let mut chaos = ChaosConfig::default_rates(0x0e4c);
    chaos.crash_ppm = 120_000;
    chaos.hang_ppm = 45_000;
    chaos.flaky_ppm = 500_000;
    if let Some(dram) = chaos.faults.dram.as_mut() {
        dram.single_bit_ppm = 100;
        dram.double_bit_ppm = 60;
    }
    chaos.faults.noc = Some(NocFaultConfig {
        seed: 0x0e4c_0002,
        corrupt_ppm: 100,
        drop_ppm: 10,
        max_retries: 4,
        backoff: 8,
    });
    chaos.faults.pe = Some(PeFaultConfig {
        seed: 0x0e4c_0003,
        writeback_flip_ppm: 1,
    });
    chaos.checkpoint_every = 1;
    chaos.max_attempts = 3;
    chaos.deadline = 150_000;
    chaos.shed_floor_pct = 100;
    chaos.retry_backoff = 10_000;
    chaos.quarantine = 50_000;
    chaos.probe_pass_ppm = 700_000;
    ServeConfig {
        devices: 3,
        queue_depth: 8,
        quantum: 15_000,
        batch_max: 2,
        engine: Engine::Fast,
        chaos: Some(chaos),
        ..ServeConfig::default()
    }
}

fn workload() -> Workload {
    Workload {
        seed: 0x0e4c,
        requests: 20,
        mode: LoadMode::Closed {
            clients: 6,
            think: 5_000,
        },
        mix: Workload::small_mix(),
    }
}

#[test]
fn chaos_done_record_payload_is_pinned() {
    let outcome = serve(&fleet(), &workload());
    // The done-record payload: the snapshot header (magic, format
    // version, run fingerprint), then the outcome.
    let mut w = Writer::new();
    w.raw(&vip_snap::MAGIC);
    w.u32(vip_snap::FORMAT_VERSION);
    w.u64(FP);
    outcome.save(&mut w);
    let got = vip_snap::hash_bytes(&w.into_bytes());
    assert_eq!(
        got, 0xe809_36ea_0cab_4e1a,
        "done-record payload changed: {got:#018x}"
    );
}

#[test]
fn fleet_checkpoint_payload_is_pinned() {
    let root = scratch("fleet");
    let mut store = PointStore::open(&root, 0, FP).expect("open point store");
    serve_durable_interrupted(&fleet(), &workload(), &mut store, 8, 20).expect("interrupted run");
    drop(store);
    let dir = run_dir(&root, FP);
    let mut ckpts: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("run directory")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "ckpt"))
        .collect();
    ckpts.sort();
    assert_eq!(ckpts.len(), 1, "expected one checkpoint: {ckpts:?}");
    let raw = std::fs::read(&ckpts[0]).expect("read checkpoint");
    let scan = scan_frames(&raw);
    assert_eq!(scan.frames.len(), 1, "checkpoint is one CRC frame");
    let got = vip_snap::hash_bytes(scan.frames[0]);
    let _ = std::fs::remove_dir_all(&root);
    assert_eq!(
        got, 0xe371_95da_5b73_1668,
        "fleet checkpoint payload changed: {got:#018x}"
    );
}
