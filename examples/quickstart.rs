//! Quickstart: the paper's Fig. 2 linked list, flush-free under BBB.
//!
//! Builds the simulated 8-core machine with memory-side battery-backed
//! persist buffers, appends nodes to a persistent linked list using the
//! *unmodified* Fig. 2 code path (no `clwb`, no `sfence`), crashes the
//! machine at an arbitrary point, and verifies the recovered list.
//!
//! Run with: `cargo run --release --example quickstart`

use bbb::core::{PersistencyMode, System, SystemError};
use bbb::sim::SimConfig;
use bbb::workloads::{LinkedList, Palloc};

fn main() -> Result<(), SystemError> {
    // The paper's Table III machine with a memory-side bbPB per core.
    let cfg = SimConfig::default();
    let mut sys = System::new(cfg, PersistencyMode::BbbMemorySide)?;
    let map = sys.address_map().clone();

    // A persistent linked list: head pointer at the start of the heap,
    // nodes allocated by palloc.
    let mut list = LinkedList::new(map.persistent_base());
    let mut palloc = Palloc::new(&map, 1, 4096);

    // AppendNode, exactly as in the paper's Fig. 2 — three plain stores,
    // zero persist instructions (`instrument = false`).
    println!("appending 1000 nodes with no flushes or fences...");
    for _ in 0..1000 {
        let ops = list
            .append_ops(&map, sys.arch_mem_mut(), &mut palloc, 0, false)
            .expect("allocator space");
        sys.run_single_core(0, ops)?;
    }
    println!(
        "done at cycle {} ({} committed ops)",
        sys.cycle(),
        sys.stats().get("cores.committed")
    );

    // Pull the plug. The battery drains the bbPBs (and store buffers) to
    // NVMM; everything committed is durable.
    let cost = sys.crash_cost();
    println!("crash! flush-on-fail drains {cost}");
    let image = sys.crash_now(true);

    let recovery = list
        .check_recovery(&image, &map)
        .expect("BBB guarantees a consistent image at any crash point");
    println!(
        "recovered {} of {} appended nodes - strict persistency with zero \
         programmer effort",
        recovery.reachable_nodes,
        list.len()
    );
    assert_eq!(recovery.reachable_nodes, list.len());

    // The same code on the ADR/PMEM baseline (still no flushes) loses data:
    let mut baseline = System::new(SimConfig::default(), PersistencyMode::Pmem)?;
    let bmap = baseline.address_map().clone();
    let mut blist = LinkedList::new(bmap.persistent_base());
    let mut bpalloc = Palloc::new(&bmap, 1, 4096);
    for _ in 0..1000 {
        let ops = blist
            .append_ops(&bmap, baseline.arch_mem_mut(), &mut bpalloc, 0, false)
            .expect("allocator space");
        baseline.run_single_core(0, ops)?;
    }
    let bimage = baseline.crash_now(true);
    match blist.check_recovery(&bimage, &bmap) {
        Ok(r) => println!(
            "PMEM baseline without flushes: only {} of {} nodes survived",
            r.reachable_nodes,
            blist.len()
        ),
        Err(e) => println!("PMEM baseline without flushes: corrupt image ({e})"),
    }
    Ok(())
}
