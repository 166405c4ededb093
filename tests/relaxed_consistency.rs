//! The paper's §III-C argument, demonstrated end to end: under relaxed
//! consistency, stores may reach the L1D out of program order, so the
//! bbPB alone cannot guarantee program-order persistency — BBB therefore
//! battery-backs the store buffer, moving the point of persistency up to
//! store *commit*.

use bbb::core::{PersistencyMode, System};
use bbb::cpu::Op;
use bbb::sim::SimConfig;

/// An op sequence engineered so a younger store is L1D-ready while an
/// older one must miss: under relaxed SB draining the younger reaches the
/// L1D (and the bbPB) first.
fn reorder_prone_ops(base: u64) -> Vec<Op> {
    vec![
        // Warm block B so a later store to it hits in M state.
        Op::store_u64(base + 0x40, 0xAAAA),
        // Cold block A: its store will need a long RdX.
        Op::store_u64(base + 0x4000, 0x0101), // older store, misses
        Op::store_u64(base + 0x40, 0xBBBB),   // younger store, hits
    ]
}

/// With the battery-backed store buffer (the paper's design), program-
/// order persistency holds even with relaxed draining: if the younger
/// store is durable, the older one is too.
#[test]
fn battery_backed_sb_preserves_program_order_under_relaxed_drain() {
    let cfg = SimConfig {
        relaxed_sb_drain: true,
        battery_backed_sb: true,
        ..SimConfig::default()
    };
    let mut sys = System::new(cfg, PersistencyMode::BbbMemorySide).unwrap();
    let base = sys.address_map().persistent_base();
    sys.run_single_core(0, reorder_prone_ops(base)).unwrap();
    let img = sys.crash_now(true);
    let younger = img.read_u64(base + 0x40);
    let older = img.read_u64(base + 0x4000);
    if younger == 0xBBBB {
        assert_eq!(older, 0x0101, "younger durable implies older durable");
    }
    // With the SB in the persistence domain, in fact *everything committed*
    // is durable.
    assert_eq!(younger, 0xBBBB);
    assert_eq!(older, 0x0101);
}

/// Ablation: without the battery-backed SB, relaxed draining can persist
/// a younger store while an older committed store is still volatile — the
/// exact hazard §III-C identifies. Many (cold-miss older, warm-hit
/// younger) pairs stream through the SB; the relaxed drain engine prefers
/// the L1-writable younger stores, so cutting the run mid-stream must
/// leave some pair with the younger durable and the older lost.
#[test]
fn without_battery_backed_sb_reordering_is_observable() {
    let cfg = SimConfig {
        relaxed_sb_drain: true,
        battery_backed_sb: false,
        ..SimConfig::default()
    };
    let mut sys = System::new(cfg, PersistencyMode::BbbMemorySide).unwrap();
    let base = sys.address_map().persistent_base();
    let warm = base + 0x40;
    let mut ops = vec![Op::store_u64(warm, 0)]; // make the warm block M
    for i in 1..=24u64 {
        ops.push(Op::store_u64(base + 0x4000 + i * 0x400, i)); // older: cold
        ops.push(Op::store_u64(warm, i)); // younger: hit, coalesces
    }
    sys.run_single_core(0, ops).unwrap();
    let img = sys.crash_now(true); // SB contents are lost in this ablation
    let v = img.read_u64(warm);
    assert!(v > 0, "some younger stores must have drained");
    let missing_older = (1..=v)
        .filter(|&i| img.read_u64(base + 0x4000 + i * 0x400) == 0)
        .count();
    assert!(
        missing_older > 0,
        "expected the paper's hazard: warm block shows {v} but all older \
         stores up to {v} persisted"
    );
}

/// TSO draining (the default) never exposes the hazard even without the
/// battery-backed SB: the SB drains in order, so at any cut the durable
/// set is a program-order prefix.
#[test]
fn tso_drain_keeps_prefix_order_without_bb_sb() {
    let cfg = SimConfig {
        relaxed_sb_drain: false,
        battery_backed_sb: false,
        ..SimConfig::default()
    };
    let mut sys = System::new(cfg, PersistencyMode::BbbMemorySide).unwrap();
    let base = sys.address_map().persistent_base();
    sys.run_single_core(0, reorder_prone_ops(base)).unwrap();
    let img = sys.crash_now(true);
    let warm_block = img.read_u64(base + 0x40);
    let older = img.read_u64(base + 0x4000);
    // Under TSO the younger store (0xBBBB) can only be durable if the
    // older one drained first.
    if warm_block == 0xBBBB {
        assert_eq!(older, 0x0101);
    }
}

/// The relaxed configuration changes only ordering, not durability of
/// fully drained runs: after the SBs empty, both configurations persist
/// identical data.
#[test]
fn relaxed_and_tso_agree_after_full_drain() {
    let mut images = Vec::new();
    for relaxed in [false, true] {
        let cfg = SimConfig {
            relaxed_sb_drain: relaxed,
            ..SimConfig::default()
        };
        let mut sys = System::new(cfg, PersistencyMode::BbbMemorySide).unwrap();
        let base = sys.address_map().persistent_base();
        let ops: Vec<Op> = (0..50u64)
            .map(|i| Op::store_u64(base + (i % 10) * 0x400, i + 1))
            .collect();
        sys.run_single_core(0, ops).unwrap();
        sys.drain_all_store_buffers();
        let img = sys.crash_now(true);
        let state: Vec<u64> = (0..10u64).map(|i| img.read_u64(base + i * 0x400)).collect();
        images.push(state);
    }
    assert_eq!(images[0], images[1]);
}
