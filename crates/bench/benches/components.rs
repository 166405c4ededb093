//! Microbenchmarks for the simulator's hot components: bbPB
//! allocation/coalescing, the MESI protocol, the WPQ, and a full-system
//! workload step — the costs that bound how large an experiment the
//! harness can run.
//!
//! Dependency-free (`harness = false`): each benchmark runs a warmup, then
//! measures batches of iterations with `std::time::Instant` and reports
//! the best ns/iter (the classic min-of-batches estimator, robust against
//! scheduler noise). Run with:
//!
//! ```text
//! cargo bench -p bbb-bench --features bench-criterion
//! ```

use std::hint::black_box;
use std::time::Instant;

use bbb_cache::{CacheHierarchy, NullHooks};
use bbb_core::{Bbpb, PersistencyMode, System};
use bbb_mem::NvmmController;
use bbb_sim::{AddressMap, BbpbConfig, BlockAddr, MemTiming, MemoryPort, SimConfig};
use bbb_workloads::{make_workload, WorkloadKind, WorkloadParams};

/// Measures `f` and prints a `name ... ns/iter` line: `batches` batches of
/// `iters_per_batch` calls each, reporting the fastest batch.
fn bench(name: &str, iters_per_batch: u32, batches: u32, mut f: impl FnMut()) {
    // Warmup: one batch, unmeasured.
    for _ in 0..iters_per_batch {
        f();
    }
    let mut best = f64::INFINITY;
    for _ in 0..batches {
        // Perf-timing site: the bench harness is the thing being timed.
        #[allow(clippy::disallowed_methods)]
        let t0 = Instant::now();
        for _ in 0..iters_per_batch {
            f();
        }
        let ns = t0.elapsed().as_nanos() as f64 / f64::from(iters_per_batch);
        best = best.min(ns);
    }
    println!("{name:40} {best:12.1} ns/iter");
}

fn bench_bbpb() {
    let mut nvmm = NvmmController::new(MemTiming::default());
    let mut pb = Bbpb::new(&BbpbConfig::default());
    let mut i = 0u64;
    bench("bbpb_allocate_coalesce_drain", 10_000, 20, || {
        // Two fresh blocks + one coalescing store, like a structure op.
        let t = i * 10;
        pb.allocate(t, BlockAddr::from_index(i % 4096), [1; 64], &mut nvmm);
        pb.allocate(
            t + 1,
            BlockAddr::from_index(4096 + i % 64),
            [2; 64],
            &mut nvmm,
        );
        pb.allocate(t + 2, BlockAddr::from_index(i % 4096), [3; 64], &mut nvmm);
        i += 1;
        black_box(&pb);
    });
}

fn bench_protocol() {
    let cfg = SimConfig::default();
    let mut h = CacheHierarchy::new(&cfg);
    let mut mem = NvmmController::new(MemTiming::default());
    let mut hooks = NullHooks;
    let map = AddressMap::new(&cfg);
    let base = BlockAddr::containing(map.persistent_base());
    let mut t = 0u64;
    bench("mesi_write_ping_pong", 10_000, 20, || {
        let core = (t % 2) as usize;
        let block = BlockAddr::from_index(base.index() + t % 512);
        h.write(t * 20, core, block, 0, &[t as u8], &mut mem, &mut hooks);
        t += 1;
        black_box(&h);
    });
}

fn bench_wpq() {
    // Saturated: each write arrives at the cycle the previous one was
    // accepted, like a core stalled on backpressure, so the queue stays
    // full and every write takes the full-queue path. Per-write cost
    // should not grow with depth.
    for depth in [16, 64, 256] {
        let mut n = NvmmController::new(MemTiming {
            wpq_entries: depth,
            ..MemTiming::default()
        });
        let (mut t, mut i) = (0u64, 0u64);
        bench(
            &format!("nvmm_write_through_wpq/{depth}"),
            10_000,
            20,
            || {
                t = MemoryPort::write_block(
                    &mut n,
                    t,
                    BlockAddr::from_index(i % 8192),
                    [i as u8; 64],
                );
                i += 1;
                black_box(t);
            },
        );
    }
}

fn bench_full_system() {
    bench("system_run_hashmap_1000_ops", 5, 8, || {
        let cfg = SimConfig::default();
        let params = WorkloadParams {
            initial: 1_000,
            per_core_ops: 125,
            seed: 1,
            instrument: false,
        };
        let mut w = make_workload(WorkloadKind::Hashmap, &cfg, params);
        let mut sys = System::new(cfg, PersistencyMode::BbbMemorySide).unwrap();
        sys.prepare(w.as_mut());
        let summary = sys.run(w.as_mut(), u64::MAX);
        black_box(summary.cycles);
    });
}

fn main() {
    // `cargo bench` passes filter/--bench args; a filter selects by
    // substring like the criterion harness did.
    let filter: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with("--"))
        .collect();
    let wants = |name: &str| filter.is_empty() || filter.iter().any(|f| name.contains(f.as_str()));
    if wants("bbpb_allocate_coalesce_drain") {
        bench_bbpb();
    }
    if wants("mesi_write_ping_pong") {
        bench_protocol();
    }
    if wants("nvmm_write_through_wpq") {
        bench_wpq();
    }
    if wants("system_run_hashmap_1000_ops") {
        bench_full_system();
    }
}
