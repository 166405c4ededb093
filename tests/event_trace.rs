//! Golden-trace tests: the exact event sequence a two-core
//! publish/subscribe exchange produces, under BBB (memory-side) and under
//! instrumented strict PMEM.
//!
//! The golden strings are cycle-free ([`TraceEvent`]'s `Display` omits
//! cycles by design), so timing-model tweaks do not churn them — only a
//! change to *which* events fire, or their order, does. That is exactly
//! the contract the persist-order checker depends on.

use bbb::core::{PersistencyMode, System};
use bbb::cpu::Op;
use bbb::sim::{AddressMap, SimConfig, TraceEvent};

/// Producer on core 0 stores data then flag (instrumented with
/// clwb+sfence when `instrument`); consumer on core 1 waits out the
/// drains and reads flag then data. Ends with a battery-backed crash.
fn publish_subscribe(mode: PersistencyMode, instrument: bool) -> Vec<String> {
    let cfg = SimConfig::small_for_tests();
    let base = AddressMap::new(&cfg).persistent_base();
    let (data, flag) = (base, base + 0x1000);
    let mut s = System::new(cfg, mode).unwrap();
    s.set_tracing(true);
    let mut producer = vec![Op::store_u64(data, 0xD)];
    if instrument {
        producer.push(Op::Clwb { addr: data });
        producer.push(Op::Fence);
    }
    producer.push(Op::store_u64(flag, 1));
    if instrument {
        producer.push(Op::Clwb { addr: flag });
        producer.push(Op::Fence);
    }
    for op in &producer {
        s.step_op(0, op);
    }
    s.step_op(1, &Op::Compute { cycles: 4000 });
    s.step_op(1, &Op::load_u64(flag));
    s.step_op(1, &Op::load_u64(data));
    s.drain_all_store_buffers();
    s.crash_now(true);
    s.take_events().iter().map(TraceEvent::to_string).collect()
}

#[test]
fn bbb_publish_subscribe_golden_trace() {
    // Under BBB each store's bbPB allocation directly follows its L1D
    // visibility — PoV = PoP is visible in the raw trace — and the crash
    // drain writes both buffered blocks to NVMM.
    assert_eq!(
        publish_subscribe(PersistencyMode::BbbMemorySide, false),
        [
            "store_commit c0 b0x4000 s0 p",
            "store_commit c0 b0x4040 s1 p",
            "store_visible c0 b0x4000 s0",
            "persist_alloc c0 b0x4000 s0",
            "store_visible c0 b0x4040 s1",
            "persist_alloc c0 b0x4040 s1",
            "load_commit c1 b0x4040",
            "load_commit c1 b0x4000",
            "crash battery",
            "nvmm_write b0x4000",
            "nvmm_write b0x4040",
        ]
    );
}

#[test]
fn strict_pmem_publish_subscribe_golden_trace() {
    // Under instrumented PMEM every persisting store pays a clwb+sfence
    // pair; the WPQ accept (nvmm_write) of each flush lands between the
    // next store's commit and its visibility, and nothing is left for the
    // crash to drain.
    assert_eq!(
        publish_subscribe(PersistencyMode::Pmem, true),
        [
            "store_commit c0 b0x4000 s0 p",
            "store_visible c0 b0x4000 s0",
            "flush c0 b0x4000 wb",
            "epoch_barrier c0",
            "store_commit c0 b0x4040 s1 p",
            "nvmm_write b0x4000",
            "store_visible c0 b0x4040 s1",
            "flush c0 b0x4040 wb",
            "epoch_barrier c0",
            "nvmm_write b0x4040",
            "load_commit c1 b0x4040",
            "load_commit c1 b0x4000",
            "crash battery",
        ]
    );
}

#[test]
fn traces_replay_clean_through_the_checker() {
    // The same two traces satisfy their mode theorems end to end.
    use bbb::check::PersistOrderChecker;
    for (mode, instrument) in [
        (PersistencyMode::BbbMemorySide, false),
        (PersistencyMode::Pmem, true),
    ] {
        let cfg = SimConfig::small_for_tests();
        let base = AddressMap::new(&cfg).persistent_base();
        let mut s = System::new(cfg.clone(), mode).unwrap();
        s.set_tracing(true);
        let mut ops = vec![Op::store_u64(base, 0xD)];
        if instrument {
            ops.push(Op::Clwb { addr: base });
            ops.push(Op::Fence);
        }
        ops.push(Op::store_u64(base + 0x1000, 1));
        if instrument {
            ops.push(Op::Clwb {
                addr: base + 0x1000,
            });
            ops.push(Op::Fence);
        }
        for op in &ops {
            s.step_op(0, op);
        }
        s.crash_now(true);
        let report = PersistOrderChecker::run(mode, cfg.cores, &s.take_events());
        assert!(report.ok(), "{mode}: {:?}", report.witnesses);
        assert_eq!(report.persistent_stores, 2);
        assert_eq!(report.persisted, 2);
    }
}

#[test]
fn pstore_commit_path_is_flush_free_under_battery_modes() {
    // The pstore acceptance claim, proved on the raw event stream: a full
    // producer/consumer ring run — grants, commits, releases, laps —
    // retires not one `flush` or `epoch_barrier` event under the
    // battery-backed modes, while the identical ring code instrumented
    // for strict PMEM pays both at every commit. The battery trace must
    // also satisfy the mode's persist-order theorem end to end.
    use bbb::check::PersistOrderChecker;
    use bbb::workloads::{make_workload, WorkloadKind, WorkloadParams};

    let cfg = SimConfig::small_for_tests();
    for mode in [
        PersistencyMode::BbbMemorySide,
        PersistencyMode::BbbProcessorSide,
        PersistencyMode::Eadr,
        PersistencyMode::Pmem,
    ] {
        let mut params = WorkloadParams::smoke();
        params.instrument = mode.requires_flushes();
        let mut w = make_workload(WorkloadKind::PstoreLog, &cfg, params);
        let mut s = System::new(cfg.clone(), mode).unwrap();
        s.set_tracing(true);
        s.prepare(w.as_mut());
        let summary = s.run(w.as_mut(), 1_000_000);
        assert!(summary.completed, "{mode}: ring run must finish");
        s.drain_all_store_buffers();
        let events = s.take_events();
        let flushes = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Flush { .. }))
            .count();
        let barriers = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::EpochBarrier { .. }))
            .count();
        let commits = events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    TraceEvent::StoreCommit {
                        persistent: true,
                        ..
                    }
                )
            })
            .count();
        assert!(commits > 0, "{mode}: no persisting stores traced");
        if mode.requires_flushes() {
            assert!(
                flushes > 0 && barriers > 0,
                "{mode}: instrumented commits must flush ({flushes}) and fence ({barriers})"
            );
        } else {
            assert_eq!(
                (flushes, barriers),
                (0, 0),
                "{mode}: the commit path leaked ordering instructions"
            );
            let report = PersistOrderChecker::run(mode, cfg.cores, &events);
            assert!(report.ok(), "{mode}: {:?}", report.witnesses);
        }
    }
}

#[test]
fn tracing_is_off_by_default_and_drains_on_take() {
    let cfg = SimConfig::small_for_tests();
    let base = AddressMap::new(&cfg).persistent_base();
    let mut s = System::new(cfg, PersistencyMode::BbbMemorySide).unwrap();
    s.step_op(0, &Op::store_u64(base, 1));
    s.drain_all_store_buffers();
    assert!(s.take_events().is_empty(), "untraced runs record nothing");
    s.set_tracing(true);
    s.step_op(0, &Op::store_u64(base + 8, 2));
    s.drain_all_store_buffers();
    assert!(!s.take_events().is_empty());
    assert!(s.take_events().is_empty(), "take drains the stream");
}
