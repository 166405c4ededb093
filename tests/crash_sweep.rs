//! Tier-1 crash-point sweep: the paper's central correctness claim,
//! checked exhaustively rather than at hand-picked cycles.
//!
//! BBB's point of persistency equals its point of visibility, so
//! unmodified structure code must recover from a power failure at *any*
//! cycle. These tests drive the `bbb-crashfuzz` engine over dense +
//! random + event-boundary crash grids and also exercise its negative
//! oracles: a dead battery, and PMEM stripped of its flushes, must both
//! demonstrably lose updates — a sweep that cannot catch a machine
//! designed to lose data proves nothing about one designed not to.

use bbb::core::PersistencyMode;
use bbb::crashfuzz::{
    lost_updates_observable, merge_shards, plan_shards, shrink, sweep, sweep_shard, CrashFailure,
    GridSpec, SweepConfig, CRASHFUZZ_SEED,
};
use bbb::runner::Runner;
use bbb::sim::SimConfig;
use bbb::workloads::{RecoveryReport, WorkloadKind, WorkloadParams};

fn small() -> (SimConfig, WorkloadParams) {
    (SimConfig::small_for_tests(), WorkloadParams::smoke())
}

#[test]
fn bbb_modes_survive_every_point_of_a_dense_sweep() {
    // The tentpole assertion: ≥200 distinct crash points per pair, zero
    // recovery failures, and the battery-dropped oracle drawing blood at
    // the very same cycles.
    let (cfg, params) = small();
    for mode in [
        PersistencyMode::BbbMemorySide,
        PersistencyMode::BbbProcessorSide,
        PersistencyMode::Eadr,
    ] {
        let sc = SweepConfig::paper_discipline(
            WorkloadKind::Hashmap,
            mode,
            &cfg,
            params,
            GridSpec::smoke(),
        );
        let out = sweep(&sc);
        assert!(
            out.points >= 200,
            "{}: only {} points",
            out.label,
            out.points
        );
        assert!(
            out.failures.is_empty(),
            "{}: {} crash points failed recovery (first at cycle {})",
            out.label,
            out.failures.len(),
            out.failures[0].cycle
        );
        assert!(
            out.negative_signatures > 0,
            "{}: a dead battery never lost an update",
            out.label
        );
        assert!(out.passed());
    }
}

#[test]
fn instrumented_pmem_and_bep_barriers_survive_their_sweeps() {
    // The two software disciplines (clwb+sfence, epoch barriers) must be
    // just as crash consistent as the hardware ones — the paper's claim
    // is that BBB gets there *without* the programmer effort.
    let (cfg, params) = small();
    for mode in [PersistencyMode::Pmem, PersistencyMode::Bep] {
        let sc = SweepConfig::paper_discipline(
            WorkloadKind::Ctree,
            mode,
            &cfg,
            params,
            GridSpec::bounded(96, 32, CRASHFUZZ_SEED),
        );
        let out = sweep(&sc);
        assert!(out.expects_consistent);
        assert!(
            out.failures.is_empty(),
            "{}: {} crash points failed recovery",
            out.label,
            out.failures.len()
        );
    }
}

#[test]
fn unflushed_pmem_differential_oracle_shows_lost_updates() {
    let (cfg, params) = small();
    let sc = SweepConfig::lossy(
        WorkloadKind::Hashmap,
        PersistencyMode::Pmem,
        &cfg,
        params,
        GridSpec::bounded(64, 16, CRASHFUZZ_SEED),
    );
    let out = sweep(&sc);
    assert!(!out.expects_consistent);
    assert!(out.oracle_required);
    assert!(
        out.negative_signatures > 0,
        "PMEM without flushes must come up short of its flushed twin"
    );
    assert!(out.passed());
}

#[test]
fn array_lost_updates_are_unobservable_so_the_oracle_is_gated() {
    // In-place array updates restore older but still-valid values when
    // lost; no integrity checker can flag that, so the sweep must not
    // demand signatures there (and must say so via `oracle_required`).
    assert!(!lost_updates_observable(WorkloadKind::SwapC));
    assert!(!lost_updates_observable(WorkloadKind::MutateNC));
    assert!(lost_updates_observable(WorkloadKind::Rtree));
    assert!(lost_updates_observable(WorkloadKind::Btree));
    let (cfg, params) = small();
    let sc = SweepConfig::paper_discipline(
        WorkloadKind::SwapC,
        PersistencyMode::BbbMemorySide,
        &cfg,
        params,
        GridSpec::bounded(48, 8, CRASHFUZZ_SEED),
    );
    let out = sweep(&sc);
    assert!(!out.oracle_required);
    assert!(!out.toothless());
    assert!(out.failures.is_empty());
    assert!(out.passed());
}

#[test]
fn sweeps_are_deterministic() {
    // Same config + seed → byte-identical outcome, the property the
    // shrinker's replay-based minimization depends on.
    let (cfg, params) = small();
    let sc = SweepConfig::paper_discipline(
        WorkloadKind::Rtree,
        PersistencyMode::BbbMemorySide,
        &cfg,
        params,
        GridSpec::bounded(64, 16, CRASHFUZZ_SEED),
    );
    let a = sweep(&sc);
    let b = sweep(&sc);
    assert_eq!(a.points, b.points);
    assert_eq!(a.failures.len(), b.failures.len());
    assert_eq!(a.negative_points, b.negative_points);
    assert_eq!(a.negative_signatures, b.negative_signatures);
}

#[test]
fn sharded_parallel_sweep_matches_serial_sweep_exactly() {
    // The fixed-seed contract behind `crashfuzz`'s worker-pool sharding:
    // splitting a pair's crash points into contiguous shards, sweeping
    // the shards on a thread pool, and merging in plan order must report
    // the identical points/failures/signatures as the serial sweep —
    // for any shard count. (The only legitimate difference is replayed
    // simulation cycles, since every shard forward-runs from cycle 0.)
    let (cfg, params) = small();
    for sc in [
        SweepConfig::paper_discipline(
            WorkloadKind::Hashmap,
            PersistencyMode::BbbMemorySide,
            &cfg,
            params,
            GridSpec::bounded(64, 16, CRASHFUZZ_SEED),
        ),
        SweepConfig::lossy(
            WorkloadKind::Hashmap,
            PersistencyMode::Pmem,
            &cfg,
            params,
            GridSpec::bounded(48, 8, CRASHFUZZ_SEED),
        ),
    ] {
        let serial = sweep(&sc);
        for shard_count in [2, 3, 7] {
            let shards = plan_shards(&sc, shard_count);
            let partials = Runner::with_threads(shard_count).map(&shards, sweep_shard);
            let merged = merge_shards(&sc, &partials);
            assert_eq!(merged.points, serial.points, "{shard_count} shards");
            assert_eq!(
                merged.failures.len(),
                serial.failures.len(),
                "{shard_count} shards"
            );
            for (a, b) in merged.failures.iter().zip(&serial.failures) {
                assert_eq!(a.cycle, b.cycle);
                assert_eq!(a.battery_dropped, b.battery_dropped);
            }
            assert_eq!(merged.negative_points, serial.negative_points);
            assert_eq!(merged.negative_signatures, serial.negative_signatures);
            // Crash verdicts are per-point-deterministic, but the
            // snapshot/reuse split is not: the verdict memo is
            // shard-local, so every extra shard boundary may re-take a
            // snapshot the serial sweep's memo reused. The number of
            // verdicts computed must merge back exactly, and sharding
            // can only add snapshots, never skip one the serial sweep
            // took.
            assert_eq!(
                merged.perf.snapshots + merged.perf.snapshots_reused,
                serial.perf.snapshots + serial.perf.snapshots_reused,
                "{shard_count} shards"
            );
            assert!(
                merged.perf.snapshots >= serial.perf.snapshots,
                "{shard_count} shards"
            );
        }
    }
}

#[test]
fn crash_image_matches_destructive_fork_throughout_a_real_run() {
    // The clone-free imaging path the sweep relies on, differentially
    // validated against fork-and-crash on real multi-core workload
    // executions: at a spread of pause points, `crash_image` must equal
    // the image a cloned-and-crashed machine produces, in both battery
    // states, for every mode.
    use bbb::core::{BatchStream, RunCursor, StopAt, System};
    use bbb::workloads::{make_workload, suite::with_epoch_barriers};

    let (cfg, params) = small();
    for mode in PersistencyMode::ALL {
        let mut params = params;
        params.instrument = mode.requires_flushes();
        let mut w = make_workload(WorkloadKind::Hashmap, &cfg, params);
        if mode.requires_epoch_barriers() {
            w = with_epoch_barriers(w);
        }
        let mut w = BatchStream::new(w);
        let mut sys = System::new(cfg.clone(), mode).expect("valid config");
        sys.prepare_stream(&mut w);
        let mut cursor = RunCursor::new(cfg.cores);
        let mut at = 400;
        for _ in 0..12 {
            let s = sys.run_until(&mut w, &mut cursor, StopAt::Cycle(at), None);
            let healthy = sys.crash_image(true);
            let dropped = sys.crash_image(false);
            assert_eq!(
                healthy,
                sys.clone().crash_now(true),
                "{mode}: healthy image diverged at cycle {at}"
            );
            assert_eq!(
                dropped,
                sys.clone().crash_now(false),
                "{mode}: battery-dropped image diverged at cycle {at}"
            );
            if s.completed {
                break;
            }
            at += 700;
        }
    }
}

#[test]
fn crash_image_epoch_memo_is_sound_in_both_battery_states() {
    // The sweep reuses a crash verdict whenever `crash_image_epoch` is
    // unchanged, so every durable-state transition — media writes,
    // battery-backed store-buffer mutations, bbPB drains and cross-core
    // procPB migrations, cache writebacks under eADR — must bump the
    // epoch. Differential validation on real conflicting multi-core
    // runs: pause often, and whenever the epoch equals the memoized one
    // (tracked separately per battery state, exactly like the sweep's
    // memo), the freshly taken image must be byte-identical to the
    // memoized image.
    use bbb::core::{BatchStream, RunCursor, StopAt, System};
    use bbb::mem::NvmImage;
    use bbb::workloads::{make_workload, suite::with_epoch_barriers};

    let (cfg, params) = small();
    let mut epoch_hits = 0u64;
    // SwapC shares the whole array across cores — the cross-core
    // conflicts that drive procPB entry migrations under processor-side
    // BBB; Hashmap covers the pointer-chasing allocation path.
    for kind in [WorkloadKind::SwapC, WorkloadKind::Hashmap] {
        for mode in PersistencyMode::ALL {
            let mut params = params;
            params.instrument = mode.requires_flushes();
            let mut w = make_workload(kind, &cfg, params);
            if mode.requires_epoch_barriers() {
                w = with_epoch_barriers(w);
            }
            let mut w = BatchStream::new(w);
            let mut sys = System::new(cfg.clone(), mode).expect("valid config");
            sys.prepare_stream(&mut w);
            let mut cursor = RunCursor::new(cfg.cores);
            let mut memo: [Option<(u64, NvmImage)>; 2] = [None, None];
            let mut at = 150;
            for _ in 0..40 {
                let s = sys.run_until(&mut w, &mut cursor, StopAt::Cycle(at), None);
                for (i, battery_ok) in [true, false].into_iter().enumerate() {
                    let epoch = sys.crash_image_epoch(battery_ok);
                    let image = sys.crash_image(battery_ok);
                    if let Some((e, img)) = &memo[i] {
                        if *e == epoch {
                            epoch_hits += 1;
                            assert_eq!(
                                &image, img,
                                "{kind:?}/{mode}: epoch {epoch} unchanged but the \
                                 battery_ok={battery_ok} image differs at cycle {at}"
                            );
                        }
                    }
                    memo[i] = Some((epoch, image));
                }
                if s.completed {
                    break;
                }
                at += 150;
            }
        }
    }
    assert!(
        epoch_hits > 0,
        "no pause ever repeated an epoch — the memo path went unexercised"
    );
}

#[test]
fn shrinker_emits_a_complete_regression_test() {
    // Feed the shrinker a battery-dropped failure from a real sweep so
    // the generated source goes through the full path on real data.
    let (cfg, params) = small();
    let sc = SweepConfig::paper_discipline(
        WorkloadKind::Hashmap,
        PersistencyMode::BbbMemorySide,
        &cfg,
        params,
        GridSpec::bounded(48, 8, CRASHFUZZ_SEED),
    );
    let f = CrashFailure {
        cycle: 777,
        battery_dropped: true,
        report: RecoveryReport {
            workload: WorkloadKind::Hashmap,
            recovered: 3,
            failure: Some("bucket 9: torn node".into()),
        },
    };
    let src = bbb::crashfuzz::test_source(&sc, &f);
    for needle in [
        "#[test]",
        "WorkloadKind::Hashmap",
        "PersistencyMode::BbbMemorySide",
        "StopAt::Cycle(777)",
        "crash_now(false)",
        "verify_recovery_report",
    ] {
        assert!(src.contains(needle), "missing {needle} in:\n{src}");
    }
    // And the real shrinker on a real failure, if the lossy config
    // yields one at this scale.
    let lossy = SweepConfig::lossy(
        WorkloadKind::Hashmap,
        PersistencyMode::Pmem,
        &cfg,
        params,
        GridSpec::bounded(64, 16, CRASHFUZZ_SEED),
    );
    let reference = bbb::crashfuzz::reference_run(&lossy);
    let points =
        bbb::crashfuzz::plan_points(reference.total_cycles, &reference.event_cycles, &lossy.grid);
    if let Some(found) = bbb::crashfuzz::first_failure_at(&lossy, false, &points) {
        let rep = shrink(&lossy, &found);
        assert!(rep.failure.cycle <= found.cycle);
        assert!(rep.test_source.contains("#[test]"));
    }
}
