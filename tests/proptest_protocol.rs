//! Protocol fuzzing: random multi-core access sequences must preserve the
//! coherence invariants, single-writer data semantics, and the BBB
//! persistence invariants — for every persistency mode.
//!
//! Action sequences are drawn from the simulator's own [`SplitMix64`]
//! stream (fixed seed, reproducible failures).

use bbb::core::{PersistencyMode, System};
use bbb::cpu::Op;
use bbb::sim::{SimConfig, SplitMix64};

const CASES: u64 = 32;

/// One fuzz action: (core, slot, is_store).
fn draw_actions(rng: &mut SplitMix64, max_len: u64) -> Vec<(usize, u64, bool)> {
    let len = 1 + rng.next_below(max_len - 1);
    (0..len)
        .map(|_| (rng.next_index(2), rng.next_below(24), rng.chance(1, 2)))
        .collect()
}

/// Random reads/writes from random cores never violate the coherence
/// or bbPB-inclusion invariants, in any mode.
#[test]
fn random_traffic_preserves_invariants() {
    let mut rng = SplitMix64::new(0x9007_0001);
    for case in 0..CASES {
        let actions = draw_actions(&mut rng, 120);
        let mode = PersistencyMode::ALL[rng.next_index(PersistencyMode::ALL.len())];
        let mut sys = System::new(SimConfig::small_for_tests(), mode).unwrap();
        let base = sys.address_map().persistent_base();
        let mut seq = 0u64;
        for (core, slot, is_store) in actions {
            let addr = base + slot * 0x140; // straddle sets, stay aligned
            let addr = addr & !7;
            let op = if is_store {
                seq += 1;
                Op::store_u64(addr, (seq << 8) | slot)
            } else {
                Op::load_u64(addr)
            };
            sys.step_op(core, &op);
        }
        sys.check_invariants();
        let _ = case;
    }
}

/// The last committed store to each *non-racy* slot wins: for slots
/// written by a single core, the crash image after draining reflects
/// exactly the final value. (Slots written by multiple cores without
/// synchronization are legitimately order-free and excluded — the
/// per-core program-order property is what TSO/strict persistency
/// promises.)
#[test]
fn last_writer_wins_for_single_core_slots() {
    let mut rng = SplitMix64::new(0x9007_0002);
    for case in 0..CASES {
        let actions = draw_actions(&mut rng, 100);
        let mut sys =
            System::new(SimConfig::small_for_tests(), PersistencyMode::BbbMemorySide).unwrap();
        let base = sys.address_map().persistent_base();
        let mut last: std::collections::HashMap<u64, (usize, u64)> =
            std::collections::HashMap::new();
        let mut racy: std::collections::HashSet<u64> = std::collections::HashSet::new();
        let mut seq = 0u64;
        for (core, slot, is_store) in actions {
            let addr = (base + slot * 0x140) & !7;
            if is_store {
                seq += 1;
                let v = (seq << 8) | slot;
                if let Some(&(prev_core, _)) = last.get(&addr) {
                    if prev_core != core {
                        racy.insert(addr);
                    }
                }
                last.insert(addr, (core, v));
                sys.step_op(core, &Op::store_u64(addr, v));
            } else {
                sys.step_op(core, &Op::load_u64(addr));
            }
        }
        sys.drain_all_store_buffers();
        let img = sys.crash_now(true);
        for (&addr, &(_, v)) in &last {
            if racy.contains(&addr) {
                continue;
            }
            assert_eq!(img.read_u64(addr), v, "case {case}: slot at {addr:#x}");
        }
    }
}

/// bbPB entries never outnumber capacity, under arbitrary traffic and
/// tiny buffer geometries (Invariant: the battery budget is bounded).
#[test]
fn bbpb_occupancy_never_exceeds_capacity() {
    let mut rng = SplitMix64::new(0x9007_0003);
    for case in 0..CASES {
        let actions = draw_actions(&mut rng, 100);
        let entries = 1 + rng.next_index(5);
        let mut cfg = SimConfig::small_for_tests();
        cfg.bbpb.entries = entries;
        let mut sys = System::new(cfg, PersistencyMode::BbbMemorySide).unwrap();
        let base = sys.address_map().persistent_base();
        let mut seq = 0u64;
        for (core, slot, is_store) in actions {
            let addr = (base + slot * 0x140) & !7;
            if is_store {
                seq += 1;
                sys.step_op(core, &Op::store_u64(addr, seq));
            } else {
                sys.step_op(core, &Op::load_u64(addr));
            }
            let cost = sys.crash_cost();
            assert!(
                cost.bbpb_entries <= (entries * 2) as u64,
                "case {case}: resident entries {} exceed 2 cores x {entries} capacity",
                cost.bbpb_entries
            );
        }
    }
}
