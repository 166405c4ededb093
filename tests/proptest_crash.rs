//! Property-based tests: random workloads, random crash points, random
//! buffer geometries — the BBB guarantees must hold for all of them.
//!
//! Cases are generated with the simulator's own [`SplitMix64`] stream
//! (fixed seed, so failures reproduce exactly); each property runs a few
//! dozen independently drawn cases.

use bbb::core::{PersistencyMode, System};
use bbb::cpu::Op;
use bbb::sim::{DrainPolicy, SimConfig, SplitMix64};
use bbb::workloads::arrays::check_array_recovery;
use bbb::workloads::hashmap::check_hashmap_recovery;
use bbb::workloads::{make_workload, WorkloadKind, WorkloadParams};

const CASES: u64 = 24;

fn small_cfg(entries: usize, threshold_pct: u8) -> SimConfig {
    let mut cfg = SimConfig::small_for_tests();
    cfg.bbpb.entries = entries;
    cfg.bbpb.drain_policy = DrainPolicy::Threshold { threshold_pct };
    cfg
}

/// Any sequence of aligned persisting stores, crashed after any prefix,
/// leaves exactly that prefix durable under BBB — for any bbPB size and
/// drain threshold.
#[test]
fn prefix_durability_holds_for_any_geometry() {
    let mut rng = SplitMix64::new(0xC7A5_4001);
    for case in 0..CASES {
        let entries = 1 + rng.next_index(15);
        let threshold = 1 + rng.next_below(100) as u8;
        let slots: Vec<u64> = (0..1 + rng.next_below(59))
            .map(|_| rng.next_below(64))
            .collect();

        let mut sys = System::new(
            small_cfg(entries, threshold),
            PersistencyMode::BbbMemorySide,
        )
        .unwrap();
        let base = sys.address_map().persistent_base();
        let ops: Vec<Op> = slots
            .iter()
            .enumerate()
            .map(|(i, &s)| Op::store_u64(base + s * 8, (i as u64) << 8 | 1))
            .collect();
        sys.run_single_core(0, ops).unwrap();
        let img = sys.crash_now(true);
        // Each slot must hold the *last* value stored to it.
        let mut expect = vec![0u64; 64];
        for (i, &s) in slots.iter().enumerate() {
            expect[s as usize] = (i as u64) << 8 | 1;
        }
        for (s, &e) in expect.iter().enumerate() {
            assert_eq!(
                img.read_u64(base + s as u64 * 8),
                e,
                "case {case} (entries={entries} threshold={threshold}): slot {s}"
            );
        }
    }
}

/// Random multi-core hashmap runs crashed at random op budgets always
/// leave a walkable, untorn image under BBB.
#[test]
fn hashmap_recovers_from_random_crash_points() {
    let mut rng = SplitMix64::new(0xC7A5_4002);
    for case in 0..CASES {
        let seed = rng.next_below(1000);
        let budget = 1 + rng.next_below(599);
        let entries = 2 + rng.next_index(10);

        let cfg = small_cfg(entries, 75);
        let params = WorkloadParams {
            initial: 64,
            per_core_ops: 200,
            seed,
            instrument: false,
        };
        let mut w = make_workload(WorkloadKind::Hashmap, &cfg, params);
        let mut sys = System::new(cfg, PersistencyMode::BbbMemorySide).unwrap();
        sys.prepare(w.as_mut());
        sys.run(w.as_mut(), budget);
        sys.check_invariants();
        let map = sys.address_map().clone();
        let img = sys.crash_now(true);
        let buckets = (params.initial / 2).next_power_of_two().max(64);
        let n = check_hashmap_recovery(&img, &map, map.persistent_base(), buckets).unwrap_or_else(
            |e| panic!("case {case} (seed={seed} budget={budget}): corrupt image: {e}"),
        );
        assert!(
            n >= params.initial,
            "case {case} (seed={seed} budget={budget}): setup data lost: {n}"
        );
    }
}

/// Random array-swap runs never tear values, under either BBB
/// organization.
#[test]
fn swaps_never_tear() {
    let mut rng = SplitMix64::new(0xC7A5_4003);
    for case in 0..CASES {
        let seed = rng.next_below(1000);
        let budget = 1 + rng.next_below(399);
        let procside = rng.chance(1, 2);

        let cfg = small_cfg(4, 75);
        let params = WorkloadParams {
            initial: 64,
            per_core_ops: 100,
            seed,
            instrument: false,
        };
        let mode = if procside {
            PersistencyMode::BbbProcessorSide
        } else {
            PersistencyMode::BbbMemorySide
        };
        let mut w = make_workload(WorkloadKind::SwapC, &cfg, params);
        let mut sys = System::new(cfg.clone(), mode).unwrap();
        sys.prepare(w.as_mut());
        sys.run(w.as_mut(), budget);
        let img = sys.crash_now(true);
        let reserve = (cfg.persistent_heap_bytes / 8).clamp(4096, 1 << 21);
        let base = sys.address_map().persistent_base() + reserve;
        let elements = params.initial.div_ceil(2) * 2;
        check_array_recovery(&img, base, elements).unwrap_or_else(|e| {
            panic!("case {case} (seed={seed} budget={budget} mode={mode}): torn value: {e}")
        });
    }
}

/// eADR and BBB agree on the final durable state of a completed run
/// (after draining): both must equal the architectural memory.
#[test]
fn completed_runs_agree_with_architectural_memory() {
    let mut rng = SplitMix64::new(0xC7A5_4004);
    for case in 0..CASES {
        let seed = rng.next_below(200);
        for mode in [PersistencyMode::Eadr, PersistencyMode::BbbMemorySide] {
            let cfg = small_cfg(4, 75);
            let params = WorkloadParams {
                initial: 32,
                per_core_ops: 40,
                seed,
                instrument: false,
            };
            // Single-core-generated workloads keep generation order equal
            // to application order so the comparison is exact.
            let mut w = make_workload(WorkloadKind::MutateNC, &cfg, params);
            let mut sys = System::new(cfg.clone(), mode).unwrap();
            sys.prepare(w.as_mut());
            sys.run(w.as_mut(), u64::MAX);
            sys.drain_all_store_buffers();
            let reserve = (cfg.persistent_heap_bytes / 8).clamp(4096, 1 << 21);
            let base = sys.address_map().persistent_base() + reserve;
            let elements = params.initial.div_ceil(2) * 2;
            let arch: Vec<u64> = (0..elements)
                .map(|i| sys.arch_mem().read_u64(base + i * 8))
                .collect();
            let img = sys.crash_now(true);
            for (i, &a) in arch.iter().enumerate() {
                assert_eq!(
                    img.read_u64(base + i as u64 * 8),
                    a,
                    "case {case} (seed={seed}): {mode} element {i} diverged from architectural memory"
                );
            }
        }
    }
}
