//! Encoding pins for the snapshot codec: the exact bytes of a paused
//! machine, hashed, for the BP, CNN and MLP tiles with DRAM, NoC and
//! PE fault injection all live.
//!
//! Round-trip tests cannot see a layout change, because `save` and
//! `restore` move together: reorder two fields in a snapshot list and
//! every round trip still passes. These constants do see it. A failure
//! here means the wire format changed; that needs a
//! `vip_snap::FORMAT_VERSION` bump and new constants.

use vip_bench::experiments::{self, PreparedTile};
use vip_core::RunOutcome;
use vip_faults::{DramFaultConfig, FaultConfig, NocFaultConfig, PeFaultConfig};
use vip_mem::MemConfig;

/// All three injectors wired with nonzero rates.
fn live_faults() -> FaultConfig {
    FaultConfig {
        dram: Some(DramFaultConfig {
            seed: 0x91A0_0001,
            single_bit_ppm: 300,
            double_bit_ppm: 0,
        }),
        noc: Some(NocFaultConfig {
            seed: 0x91A0_0002,
            corrupt_ppm: 200,
            drop_ppm: 50,
            max_retries: 8,
            backoff: 4,
        }),
        pe: Some(PeFaultConfig {
            seed: 0x91A0_0003,
            writeback_flip_ppm: 1,
        }),
    }
}

/// Hash of the snapshot of `stage`'s tile paused at `pause_at`.
fn snapshot_hash(stage: impl Fn() -> PreparedTile, pause_at: u64) -> u64 {
    let (mut sys, limit) = stage().into_system();
    sys.set_fault_config(&live_faults());
    match sys.run_until(pause_at, limit) {
        Ok(RunOutcome::Paused(_)) => {}
        other => panic!("tile did not pause at cycle {pause_at}: {other:?}"),
    }
    vip_snap::hash_bytes(&sys.save_snapshot())
}

#[test]
fn snapshot_format_version_is_pinned() {
    assert_eq!(vip_snap::FORMAT_VERSION, 3);
}

#[test]
fn bp_tile_snapshot_encoding_is_pinned() {
    let got = snapshot_hash(
        || experiments::bp_tile_sim(MemConfig::baseline(), 1),
        20_000,
    );
    assert_eq!(
        got, 0x3013_d234_a987_dfe9,
        "BP snapshot bytes changed: {got:#018x}"
    );
}

#[test]
fn cnn_tile_snapshot_encoding_is_pinned() {
    let got = snapshot_hash(
        || {
            experiments::conv_tile_sim(
                MemConfig::baseline(),
                &experiments::conv_sim_layer(64, 8),
                2,
            )
        },
        10_000,
    );
    assert_eq!(
        got, 0x29ef_2f8e_8601_e366,
        "CNN snapshot bytes changed: {got:#018x}"
    );
}

#[test]
fn mlp_tile_snapshot_encoding_is_pinned() {
    let got = snapshot_hash(|| experiments::fc_tile_sim(MemConfig::baseline()), 10_000);
    assert_eq!(
        got, 0x2f10_eacb_9b2a_c461,
        "MLP snapshot bytes changed: {got:#018x}"
    );
}
