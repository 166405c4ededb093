//! The paper's central guarantee, tested end to end: under BBB, persist
//! order equals program order with **no flushes and no fences** — every
//! committed persisting store is durable at every possible crash point.

use bbb::core::{PersistencyMode, System};
use bbb::cpu::Op;
use bbb::sim::SimConfig;

fn system(mode: PersistencyMode) -> System {
    System::new(SimConfig::default(), mode).expect("valid config")
}

/// Crash after every prefix of a store sequence: the image must contain
/// exactly a program-order prefix (all stores up to the crash, since each
/// store is durable at commit under BBB with a battery-backed SB).
#[test]
fn bbb_prefix_durability_at_every_crash_point() {
    let n = 40u64;
    for crash_after in [0, 1, 2, 3, 5, 8, 13, 21, 34, 40] {
        let mut sys = system(PersistencyMode::BbbMemorySide);
        let base = sys.address_map().persistent_base();
        let ops: Vec<Op> = (0..crash_after)
            .map(|i| Op::store_u64(base + i * 8, i + 1))
            .collect();
        sys.run_single_core(0, ops).unwrap();
        let img = sys.crash_now(true);
        for i in 0..n {
            let expect = if i < crash_after { i + 1 } else { 0 };
            assert_eq!(
                img.read_u64(base + i * 8),
                expect,
                "crash after {crash_after}: slot {i}"
            );
        }
    }
}

/// The same guarantee holds when stores hit the same cache block
/// repeatedly (coalescing must preserve the latest value).
#[test]
fn bbb_coalesced_stores_keep_latest_value() {
    let mut sys = system(PersistencyMode::BbbMemorySide);
    let base = sys.address_map().persistent_base();
    let ops: Vec<Op> = (0..100u64).map(|i| Op::store_u64(base, i)).collect();
    sys.run_single_core(0, ops).unwrap();
    let img = sys.crash_now(true);
    assert_eq!(img.read_u64(base), 99);
}

/// Dependent stores across blocks: if the dependent (later) store is
/// durable, the earlier one must be too — on every mode that claims
/// ordering, at many crash points.
#[test]
fn dependence_ordering_under_all_hardware_modes() {
    for mode in [
        PersistencyMode::BbbMemorySide,
        PersistencyMode::BbbProcessorSide,
        PersistencyMode::Eadr,
    ] {
        for budget in [1usize, 2, 5, 10, 20] {
            let mut sys = system(mode);
            let base = sys.address_map().persistent_base();
            // Pairs: data at 0x400*i, then "valid flag" pointing at it.
            let mut ops = Vec::new();
            for i in 0..10u64 {
                ops.push(Op::store_u64(base + 0x1000 + i * 0x400, 0xDA7A_0000 | i));
                ops.push(Op::store_u64(base + i * 8, base + 0x1000 + i * 0x400));
            }
            ops.truncate(budget);
            sys.run_single_core(0, ops).unwrap();
            let img = sys.crash_now(true);
            for i in 0..10u64 {
                let flag = img.read_u64(base + i * 8);
                if flag != 0 {
                    assert_eq!(
                        img.read_u64(flag),
                        0xDA7A_0000 | i,
                        "{mode}: flag {i} durable but data missing (budget {budget})"
                    );
                }
            }
        }
    }
}

/// PMEM (ADR baseline) only provides the guarantee when the programmer
/// inserts the paper's Fig. 3 instrumentation.
#[test]
fn pmem_needs_flushes_for_durability() {
    // Without flushes: stores sit in volatile caches.
    let mut sys = system(PersistencyMode::Pmem);
    let base = sys.address_map().persistent_base();
    sys.run_single_core(0, vec![Op::store_u64(base, 7)])
        .unwrap();
    assert_eq!(sys.crash_now(true).read_u64(base), 0);

    // With clwb + sfence: durable.
    let mut sys = system(PersistencyMode::Pmem);
    sys.run_single_core(
        0,
        vec![Op::store_u64(base, 7), Op::Clwb { addr: base }, Op::Fence],
    )
    .unwrap();
    assert_eq!(sys.crash_now(true).read_u64(base), 7);
}

/// A store is never visible to another core before it is persistent
/// (Invariant 3): after core 1 *reads* core 0's store, a crash must show
/// that store durable.
#[test]
fn visibility_implies_persistence() {
    let mut sys = system(PersistencyMode::BbbMemorySide);
    let base = sys.address_map().persistent_base();
    sys.run_single_core(0, vec![Op::store_u64(base, 0x5EE_u64)])
        .unwrap();
    // Core 1 reads the block: coherence forwards core 0's value, which
    // means it must already be in the persistence domain.
    sys.run_single_core(1, vec![Op::load_u64(base)]).unwrap();
    let img = sys.crash_now(true);
    assert_eq!(img.read_u64(base), 0x5EE_u64);
}
