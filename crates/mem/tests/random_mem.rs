//! Seeded-random tests for the DRAM model: data integrity under random
//! traffic, conservation of requests, policy invariants, and the
//! incremental FR-FCFS scheduler's bookkeeping. Failures
//! print their seed and re-run alone under `VIP_TEST_SEED`.

use vip_mem::{Hmc, MemConfig, MemRequest, MemResponse, RequestKind, Storage, VaultController};
use vip_rng::{for_each_seed, SplitMix64};
use vip_snap::{Reader, Snapshot, Writer};

/// A randomly generated plain transaction (no full-empty).
#[derive(Debug, Clone)]
enum Op {
    Write {
        addr_col: u64,
        offset: u8,
        data: Vec<u8>,
    },
    Read {
        addr_col: u64,
        offset: u8,
        len: u8,
    },
}

fn random_op(rng: &mut SplitMix64, cols: u64) -> Op {
    let c = rng.below(cols);
    let off = (rng.below(32) as u8).min(31);
    if rng.bool() {
        let len = rng.usize_in(1..32);
        let mut data = rng.bytes(len);
        data.truncate(32 - off as usize);
        Op::Write {
            addr_col: c,
            offset: off,
            data,
        }
    } else {
        let len = rng.usize_in(1..32) as u8;
        Op::Read {
            addr_col: c,
            offset: off,
            len: len.min(32 - off),
        }
    }
}

fn drain(hmc: &mut Hmc, limit: u64) -> Vec<MemResponse> {
    let mut out = Vec::new();
    for _ in 0..limit {
        hmc.tick(&mut out);
        if hmc.is_idle() {
            return out;
        }
    }
    panic!("memory did not drain in {limit} cycles");
}

/// Reads always return exactly what the most recent overlapping
/// write (in submission order) put there, under every Figure 5
/// configuration — the address-overlap ordering invariant.
#[test]
fn reads_see_program_order_writes() {
    for_each_seed("reads_see_program_order_writes", 0x0edd, 16, |seed| {
        let mut rng = SplitMix64::new(seed);
        let cfg_idx = rng.usize_in(0..8);
        let cfg = MemConfig::figure5_sweep()[cfg_idx].clone();
        let mut hmc = Hmc::new(cfg);
        let mut shadow = vec![0u8; 64 * 32];
        let mut expected: Vec<(u64, Vec<u8>)> = Vec::new();
        let n_ops = rng.usize_in(1..40);
        let ops: Vec<Op> = (0..n_ops).map(|_| random_op(&mut rng, 64)).collect();
        let mut responses: Vec<MemResponse> = Vec::new();
        for (id, op) in (0u64..).zip(&ops) {
            // Stall until the queue accepts (mirrors NoC back-pressure).
            let req = match op {
                Op::Write {
                    addr_col,
                    offset,
                    data,
                } => {
                    let addr = addr_col * 32 + u64::from(*offset);
                    shadow[addr as usize..addr as usize + data.len()].copy_from_slice(data);
                    MemRequest::write(id, addr, data.clone())
                }
                Op::Read {
                    addr_col,
                    offset,
                    len,
                } => {
                    let addr = addr_col * 32 + u64::from(*offset);
                    let want = shadow[addr as usize..addr as usize + *len as usize].to_vec();
                    expected.push((id, want));
                    MemRequest::read(id, addr, *len as usize)
                }
            };
            let mut accepted = false;
            for _ in 0..100_000 {
                if hmc.enqueue(0, req.clone()).is_ok() {
                    accepted = true;
                    break;
                }
                // Queue full: give the controller a cycle (keeping any
                // completions that retire meanwhile).
                hmc.tick(&mut responses);
            }
            assert!(accepted, "queue never drained");
        }
        responses.extend(drain(&mut hmc, 2_000_000));
        responses.sort_by_key(|r| r.id);
        for (id, want) in expected {
            let got = responses
                .iter()
                .find(|r| r.id == id)
                .expect("response arrived");
            assert_eq!(&got.data, &want, "read {id}");
        }
    });
}

/// Every enqueued request gets exactly one response, and counters
/// conserve: responses = reads + writes in the stats.
#[test]
fn requests_are_conserved() {
    for_each_seed("requests_are_conserved", 0xc09, 16, |seed| {
        let mut rng = SplitMix64::new(seed);
        let n_reads = rng.usize_in(1..30);
        let n_writes = rng.usize_in(0..30);
        let mut hmc = Hmc::new(MemConfig::baseline());
        let mut sent = 0u64;
        let mut responses: Vec<MemResponse> = Vec::new();
        for i in 0..n_reads {
            while hmc
                .enqueue(0, MemRequest::read(sent, (i as u64 % 64) * 32, 32))
                .is_err()
            {
                hmc.tick(&mut responses);
            }
            sent += 1;
        }
        for i in 0..n_writes {
            while hmc
                .enqueue(
                    0,
                    MemRequest::write(sent, (i as u64 % 64) * 32, vec![7; 32]),
                )
                .is_err()
            {
                hmc.tick(&mut responses);
            }
            sent += 1;
        }
        responses.extend(drain(&mut hmc, 1_000_000));
        assert_eq!(responses.len() as u64, sent);
        let mut ids: Vec<u64> = responses.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len() as u64, sent, "no duplicated responses");
        let s = hmc.stats();
        assert_eq!(s.reads, n_reads as u64);
        assert_eq!(s.writes, n_writes as u64);
    });
}

/// The closed-page policy never produces row hits; the open-page
/// policy produces at least one hit on a same-row burst.
#[test]
fn page_policy_hit_invariants() {
    for cols in 2u64..8 {
        for (cfg, expect_hits) in [
            (MemConfig::baseline(), true),
            (MemConfig::closed_page(), false),
        ] {
            let mut hmc = Hmc::new(cfg);
            for c in 0..cols {
                hmc.enqueue(0, MemRequest::read(c, c * 32, 32)).unwrap();
            }
            drain(&mut hmc, 500_000);
            let hits = hmc.stats().row_hits;
            if expect_hits {
                assert!(hits > 0, "open page should hit on a {cols}-column burst");
            } else {
                assert_eq!(hits, 0, "closed page never hits");
            }
        }
    }
}

/// Full-empty tokens ping-pong correctly: N store/load pairs always
/// settle with the word empty and the last stored value read.
#[test]
fn full_empty_pairs_settle() {
    for n in 1u64..10 {
        let mut hmc = Hmc::new(MemConfig::baseline());
        let addr = 1024;
        let mut id = 0;
        for i in 0..n {
            hmc.enqueue(0, MemRequest::fe_store(id, addr, 100 + i))
                .unwrap();
            id += 1;
            hmc.enqueue(0, MemRequest::fe_load(id, addr)).unwrap();
            id += 1;
        }
        let responses = drain(&mut hmc, 1_000_000);
        assert_eq!(responses.len() as u64, 2 * n);
        assert!(!hmc.host_is_full(addr));
        // Each load observed the store that preceded it.
        for i in 0..n {
            let load = responses.iter().find(|r| r.id == 2 * i + 1).unwrap();
            let v = u64::from_le_bytes(load.data.clone().try_into().unwrap());
            assert_eq!(v, 100 + i);
        }
    }
}

/// One controller over its own backing store, with every response it
/// has produced.
struct Vault {
    vc: VaultController,
    storage: Storage,
    out: Vec<MemResponse>,
}

impl Vault {
    /// Ticks once, checking the incremental scheduler's derived state
    /// against first principles on the way.
    fn tick_checked(&mut self) {
        let queued: Vec<(&MemRequest, u32)> = self.vc.queued().collect();
        let recount: Vec<u32> = (0..queued.len())
            .map(|i| {
                let n = queued[..i]
                    .iter()
                    .filter(|(older, _)| ranges_overlap(older, queued[i].0))
                    .count();
                n as u32
            })
            .collect();
        let counts: Vec<u32> = queued.iter().map(|&(_, c)| c).collect();
        let now = self.vc.stats().elapsed_cycles;
        assert_eq!(counts, recount, "conflict counts at cycle {now}");

        let bound = self.vc.schedule_bound(&self.storage);
        let next = now + 1;
        if next < bound {
            assert_eq!(
                self.vc.pick(&self.storage, next),
                None,
                "bound {bound} gates cycle {next} with a command ready"
            );
        }
        if bound < u64::MAX {
            assert!(
                self.vc.pick(&self.storage, bound.max(next)).is_some(),
                "nothing to issue at the bound {bound}"
            );
        }
        self.vc.tick(&mut self.storage, &mut self.out);
    }

    /// A twin restored from a snapshot of this vault and its store.
    fn restored_twin(&self, cfg: &MemConfig) -> Vault {
        let mut w = Writer::new();
        self.storage.save(&mut w);
        self.vc.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let storage = Storage::restore(&mut r).expect("store restores");
        let mut vc = VaultController::new(0, cfg.clone());
        vc.restore_state(&mut r).expect("controller restores");
        r.finish().expect("no trailing bytes");
        Vault {
            vc,
            storage,
            out: Vec::new(),
        }
    }
}

/// The overlap rule, restated from the request fields: plain requests
/// whose byte ranges intersect; full-empty requests never conflict.
fn ranges_overlap(a: &MemRequest, b: &MemRequest) -> bool {
    let span = |r: &MemRequest| {
        let len = if r.kind == RequestKind::Write {
            r.data.len()
        } else {
            r.len
        };
        (r.addr, r.addr + len as u64)
    };
    let ((a0, a1), (b0, b1)) = (span(a), span(b));
    !a.is_full_empty() && !b.is_full_empty() && a0 < b1 && b0 < a1
}

/// One arrival at vault 0: a plain read or write inside one request
/// granule of a few rows and banks (so ranges overlap and rows
/// conflict), or a full-empty store/load pair on one of four words.
/// Pairs keep every word's stores and loads balanced, so the queue
/// always drains.
fn random_arrival(rng: &mut SplitMix64, cfg: &MemConfig, id: &mut u64) -> Vec<MemRequest> {
    let mut next_id = || {
        *id += 1;
        *id
    };
    let row_stride = (cfg.banks_per_vault * cfg.row_bytes) as u64;
    if rng.below(5) == 0 {
        let word = 3 * row_stride + 8 * rng.below(4);
        let mut pair = vec![
            MemRequest::fe_store(next_id(), word, rng.next_u64()),
            MemRequest::fe_load(next_id(), word),
        ];
        if rng.bool() {
            pair.reverse();
        }
        return pair;
    }
    let granule = cfg.request_granule() as u64;
    let base = rng.below(3) * row_stride
        + rng.below(cfg.banks_per_vault.min(4) as u64) * cfg.row_bytes as u64
        + rng.below((cfg.row_bytes as u64 / granule).clamp(1, 4)) * granule;
    let off = rng.below(granule);
    let len = 1 + rng.below(granule - off) as usize;
    let addr = base + off;
    assert_eq!(cfg.vault_of(addr), 0);
    vec![if rng.bool() {
        MemRequest::write(next_id(), addr, rng.bytes(len))
    } else {
        MemRequest::read(next_id(), addr, len)
    }]
}

/// The incremental FR-FCFS bookkeeping matches a brute-force recount
/// after every tick, the cached schedule bound only gates cycles on
/// which the picker has nothing to issue (and is tight), and a
/// controller restored from a mid-queue snapshot — whose derived state
/// is rebuilt, not serialized — produces identical responses and
/// statistics to the end.
#[test]
fn incremental_scheduler_matches_brute_force() {
    for_each_seed(
        "incremental_scheduler_matches_brute_force",
        0x5c4ed,
        24,
        |seed| {
            let mut rng = SplitMix64::new(seed);
            let mut configs = MemConfig::figure5_sweep();
            configs.push(MemConfig::with_hmc_packets());
            let cfg = configs[rng.usize_in(0..configs.len())].clone();
            let mut a = Vault {
                vc: VaultController::new(0, cfg.clone()),
                storage: Storage::new(),
                out: Vec::new(),
            };
            let mut twin: Option<Vault> = None;
            let arrivals = rng.usize_in(40..200);
            let snap_after = rng.usize_in(1..arrivals);
            // Mean gap between arrivals, in cycles: from back-to-back (the
            // queue saturates) to sparse (the vault idles between them).
            let gap = 1 + rng.below(12);
            let mut sent = 0;
            let mut id = 0;
            let mut cycles = 0u64;
            while sent < arrivals || !a.vc.is_idle() {
                if sent < arrivals && rng.below(gap) == 0 {
                    let reqs = random_arrival(&mut rng, &cfg, &mut id);
                    if cfg.trans_queue_depth - a.vc.pending() >= reqs.len() {
                        for req in reqs {
                            if let Some(b) = &mut twin {
                                b.vc.enqueue(req.clone()).expect("twin has room");
                            }
                            a.vc.enqueue(req).expect("checked room");
                        }
                        sent += 1;
                    }
                }
                if twin.is_none() && sent >= snap_after && a.vc.pending() > 0 {
                    a.out.clear();
                    twin = Some(a.restored_twin(&cfg));
                }
                a.tick_checked();
                if let Some(b) = &mut twin {
                    b.tick_checked();
                }
                cycles += 1;
                assert!(cycles < 2_000_000, "vault did not drain");
            }
            let b = twin.expect("a snapshot was taken mid-queue");
            assert_eq!(a.out, b.out, "responses after the snapshot");
            assert_eq!(a.vc.stats(), b.vc.stats());
        },
    );
}
