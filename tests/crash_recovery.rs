//! End-to-end crash-recovery validation for every Table IV data structure
//! under every persistency mode.

use bbb::core::{PersistencyMode, System};
use bbb::sim::SimConfig;
use bbb::workloads::hashmap::check_hashmap_recovery;
use bbb::workloads::{
    make_workload, verify_recovery, LinkedList, Palloc, WorkloadKind, WorkloadParams,
};

fn params() -> WorkloadParams {
    WorkloadParams {
        initial: 500,
        per_core_ops: 100,
        seed: 0xDEC0DE,
        instrument: false,
    }
}

fn cfg() -> SimConfig {
    SimConfig::default()
}

/// Under BBB (memory-side), every structure — including the btree
/// extension — recovers consistently from a crash injected mid-run,
/// without any flushes in the program.
#[test]
fn bbb_every_structure_recovers_mid_run() {
    for kind in WorkloadKind::EXTENDED {
        let cfg = cfg();
        let mut w = make_workload(kind, &cfg, params());
        let mut sys = System::new(cfg.clone(), PersistencyMode::BbbMemorySide).unwrap();
        sys.prepare(w.as_mut());
        sys.run(w.as_mut(), 577); // cut mid-operation
        sys.check_invariants();
        let img = sys.crash_now(true);
        let n = verify_recovery(kind, &img, &cfg, params())
            .unwrap_or_else(|e| panic!("{}: corrupt image: {e}", kind.name()));
        assert!(n > 0, "{}: nothing recovered", kind.name());
    }
}

/// eADR gives the same guarantee (at far higher battery cost).
#[test]
fn eadr_structures_recover_mid_run() {
    for kind in [WorkloadKind::Ctree, WorkloadKind::Hashmap] {
        let cfg = cfg();
        let mut w = make_workload(kind, &cfg, params());
        let mut sys = System::new(cfg.clone(), PersistencyMode::Eadr).unwrap();
        sys.prepare(w.as_mut());
        sys.run(w.as_mut(), 577);
        let img = sys.crash_now(true);
        verify_recovery(kind, &img, &cfg, params()).unwrap();
    }
}

/// Processor-side BBB also recovers (it pays in NVMM writes, not in
/// correctness).
#[test]
fn procside_structures_recover_mid_run() {
    let cfg = cfg();
    let mut w = make_workload(WorkloadKind::Hashmap, &cfg, params());
    let mut sys = System::new(cfg, PersistencyMode::BbbProcessorSide).unwrap();
    sys.prepare(w.as_mut());
    sys.run(w.as_mut(), 333);
    let map = sys.address_map().clone();
    let img = sys.crash_now(true);
    let buckets = (params().initial / 2).next_power_of_two().max(64);
    check_hashmap_recovery(&img, &map, map.persistent_base(), buckets)
        .expect("processor-side keeps program order");
}

/// The motivating linked list (paper Fig. 2/3) across modes: BBB keeps the
/// unmodified code consistent, PMEM without flushes loses the list.
#[test]
fn linked_list_motivation_plays_out() {
    let appends = 200u64;

    // BBB, Fig. 2 code (no flushes): full recovery.
    let mut sys = System::new(cfg(), PersistencyMode::BbbMemorySide).unwrap();
    let map = sys.address_map().clone();
    let mut list = LinkedList::new(map.persistent_base());
    let mut palloc = Palloc::new(&map, 1, 4096);
    for _ in 0..appends {
        let ops = list
            .append_ops(&map, sys.arch_mem_mut(), &mut palloc, 0, false)
            .unwrap();
        sys.run_single_core(0, ops).unwrap();
    }
    let r = list.check_recovery(&sys.crash_now(true), &map).unwrap();
    assert_eq!(r.reachable_nodes, appends);

    // PMEM, Fig. 2 code: data loss (or corruption) is expected.
    let mut sys = System::new(cfg(), PersistencyMode::Pmem).unwrap();
    let map = sys.address_map().clone();
    let mut list = LinkedList::new(map.persistent_base());
    let mut palloc = Palloc::new(&map, 1, 4096);
    for _ in 0..appends {
        let ops = list
            .append_ops(&map, sys.arch_mem_mut(), &mut palloc, 0, false)
            .unwrap();
        sys.run_single_core(0, ops).unwrap();
    }
    // Corruption (Err) also demonstrates the hazard.
    if let Ok(r) = list.check_recovery(&sys.crash_now(true), &map) {
        assert!(r.reachable_nodes < appends, "caches cannot persist all");
    }

    // PMEM, Fig. 3 code (instrumented): full recovery again.
    let mut sys = System::new(cfg(), PersistencyMode::Pmem).unwrap();
    let map = sys.address_map().clone();
    let mut list = LinkedList::new(map.persistent_base());
    let mut palloc = Palloc::new(&map, 1, 4096);
    for _ in 0..appends {
        let ops = list
            .append_ops(&map, sys.arch_mem_mut(), &mut palloc, 0, true)
            .unwrap();
        sys.run_single_core(0, ops).unwrap();
    }
    let r = list.check_recovery(&sys.crash_now(true), &map).unwrap();
    assert_eq!(r.reachable_nodes, appends);
}

/// Crashing twice at different points yields monotonically growing
/// recovered state (no lost updates between crash points).
#[test]
fn recovery_is_monotone_in_crash_point() {
    let mut last = 0;
    for budget in [100u64, 400, 900, 1600] {
        let cfg = cfg();
        let mut w = make_workload(WorkloadKind::Hashmap, &cfg, params());
        let mut sys = System::new(cfg, PersistencyMode::BbbMemorySide).unwrap();
        sys.prepare(w.as_mut());
        sys.run(w.as_mut(), budget);
        let map = sys.address_map().clone();
        let img = sys.crash_now(true);
        let buckets = (params().initial / 2).next_power_of_two().max(64);
        let n = check_hashmap_recovery(&img, &map, map.persistent_base(), buckets).unwrap();
        assert!(n >= last, "recovered set shrank: {n} < {last}");
        last = n;
    }
}
