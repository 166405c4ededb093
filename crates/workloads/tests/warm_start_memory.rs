//! Proves warm start is copy-free: `System::prepare_stream` on a KV
//! geometry allocates little beyond what the workload's own `setup`
//! does, because the NVMM media shares the architectural pages instead
//! of copying them. A media copy would double the allocation.
//!
//! (Its own integration-test binary: the counting allocator is
//! process-global, so no other test may allocate while it measures.)

use std::alloc::{GlobalAlloc, Layout, System as SysAlloc};
use std::sync::atomic::{AtomicU64, Ordering};

use bbb_core::{PersistencyMode, System};
use bbb_mem::{ByteStore, PAGE_BYTES};
use bbb_sim::SimConfig;
use bbb_workloads::{make_stream, WorkloadKind, WorkloadParams};

struct CountingAlloc;

/// Bytes handed out so far (a `realloc` counts its new size).
static ALLOCATED: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        SysAlloc.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        SysAlloc.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size as u64, Ordering::Relaxed);
        SysAlloc.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Bytes `f` allocates.
fn allocated_by(f: impl FnOnce()) -> u64 {
    let before = ALLOCATED.load(Ordering::Relaxed);
    f();
    ALLOCATED.load(Ordering::Relaxed) - before
}

#[test]
fn kv_warm_start_shares_media_pages() {
    let cfg = SimConfig::default();
    let params = WorkloadParams {
        initial: 100_000,
        per_core_ops: 100,
        ..WorkloadParams::smoke()
    };
    let stream = || make_stream(WorkloadKind::KvA, &cfg, params, false).expect("KV streams");

    let mut own = stream();
    let mut arch = ByteStore::new();
    let setup = allocated_by(|| own.setup(&mut arch));

    let mut sys = System::new(cfg.clone(), PersistencyMode::BbbMemorySide).expect("valid config");
    let mut stream = stream();
    let prepare = allocated_by(|| sys.prepare_stream(stream.as_mut()));

    let image = (sys.arch_mem().resident_pages() * PAGE_BYTES) as u64;
    assert_eq!(sys.arch_mem(), &arch, "same set-up on both sides");
    assert!(
        image >= 1 << 20,
        "image of {image} bytes is too small to tell"
    );
    let extra = prepare.saturating_sub(setup);
    assert!(
        extra < image / 10,
        "prepare_stream allocated {extra} bytes beyond set-up's {setup} for a {image}-byte image"
    );
}
