//! Buffered Epoch Persistency semantics, end to end: durability is
//! guaranteed only at epoch boundaries, the programmer must insert the
//! barriers, and the barriers cost stalls — the three properties BBB
//! removes (paper §II-B, §III-A, §VI "persist buffers").

use bbb::core::{PersistencyMode, System};
use bbb::cpu::Op;
use bbb::sim::SimConfig;
use bbb::workloads::hashmap::check_hashmap_recovery;
use bbb::workloads::suite::with_epoch_barriers;
use bbb::workloads::{make_workload, WorkloadKind, WorkloadParams};

fn system() -> System {
    System::new(SimConfig::default(), PersistencyMode::Bep).unwrap()
}

/// Stores before a completed epoch barrier are durable; stores after it
/// (still in the volatile persist buffer) are lost at a crash.
#[test]
fn durability_stops_at_the_last_epoch_boundary() {
    let mut sys = system();
    let base = sys.address_map().persistent_base();
    sys.run_single_core(
        0,
        vec![
            Op::store_u64(base, 0x11),      // epoch 1
            Op::store_u64(base + 8, 0x22),  // epoch 1
            Op::Fence,                      // epoch boundary: all durable
            Op::store_u64(base + 16, 0x33), // epoch 2: volatile at crash
        ],
    )
    .unwrap();
    let img = sys.crash_now(true);
    assert_eq!(img.read_u64(base), 0x11);
    assert_eq!(img.read_u64(base + 8), 0x22);
    assert_eq!(
        img.read_u64(base + 16),
        0,
        "open-epoch store must be lost by the volatile buffer"
    );
}

/// Without barriers, BEP provides no durability at all — the hazard the
/// programmer must manage.
#[test]
fn bep_without_barriers_loses_everything_buffered() {
    let mut sys = system();
    let base = sys.address_map().persistent_base();
    let ops: Vec<Op> = (0..8u64)
        .map(|i| Op::store_u64(base + i * 8, i + 1))
        .collect();
    sys.run_single_core(0, ops).unwrap();
    let img = sys.crash_now(true);
    let survived = (0..8u64)
        .filter(|&i| img.read_u64(base + i * 8) != 0)
        .count();
    // Threshold draining may have pushed a few entries out, but with only
    // 8 stores against a 32-entry buffer nothing has drained.
    assert_eq!(survived, 0, "volatile buffer under capacity: all lost");
}

/// BBB on the identical (barrier-free) op stream persists everything —
/// the paper's programmability claim in one assertion.
#[test]
fn bbb_needs_no_barriers_where_bep_does() {
    let base;
    let ops: Vec<Op>;
    {
        let sys = system();
        base = sys.address_map().persistent_base();
        ops = (0..8u64)
            .map(|i| Op::store_u64(base + i * 8, i + 1))
            .collect();
    }
    let mut bbb = System::new(SimConfig::default(), PersistencyMode::BbbMemorySide).unwrap();
    bbb.run_single_core(0, ops).unwrap();
    let img = bbb.crash_now(true);
    for i in 0..8u64 {
        assert_eq!(img.read_u64(base + i * 8), i + 1);
    }
}

/// Epoch barriers stall: the same stream with barriers takes longer than
/// without (the performance tax BEP pays and BBB avoids).
#[test]
fn epoch_barriers_cost_cycles() {
    let mk_ops = |with_barriers: bool, base: u64| -> Vec<Op> {
        let mut v = Vec::new();
        for i in 0..50u64 {
            v.push(Op::store_u64(base + i * 0x400, i + 1));
            if with_barriers {
                v.push(Op::Fence);
            }
        }
        v
    };
    let mut bep = system();
    let base = bep.address_map().persistent_base();
    let t_barriers = bep.run_single_core(0, mk_ops(true, base)).unwrap();

    let mut bbb = System::new(SimConfig::default(), PersistencyMode::BbbMemorySide).unwrap();
    let t_bbb = bbb.run_single_core(0, mk_ops(false, base)).unwrap();
    assert!(
        t_barriers > t_bbb,
        "epoch barriers must cost stalls: BEP {t_barriers} vs BBB {t_bbb}"
    );
}

/// A full workload with per-operation epochs recovers consistently under
/// BEP: each operation is one epoch, so a crash can only lose whole
/// trailing operations, never tear one.
#[test]
fn epoch_instrumented_workload_recovers_consistently() {
    let cfg = SimConfig::default();
    let params = WorkloadParams {
        initial: 400,
        per_core_ops: 100,
        seed: 77,
        instrument: false,
    };
    let mut w = with_epoch_barriers(make_workload(WorkloadKind::Hashmap, &cfg, params));
    let mut sys = System::new(cfg, PersistencyMode::Bep).unwrap();
    sys.prepare(&mut w);
    sys.run(&mut w, 441); // crash mid-run
    let map = sys.address_map().clone();
    let img = sys.crash_now(true);
    let buckets = (params.initial / 2).next_power_of_two().max(64);
    let n = check_hashmap_recovery(&img, &map, map.persistent_base(), buckets)
        .expect("epoch-delimited BEP image must be consistent");
    assert!(n >= params.initial, "setup must survive: {n}");
}
