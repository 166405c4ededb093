//! A full persistence lifecycle: run, crash, reboot, recover, continue —
//! across two simulated machine sessions, the way a real NVMM application
//! lives across power failures.
//!
//! Session 1 appends to a persistent list (no flushes — BBB), then loses
//! power. Session 2 boots a *fresh* machine from the crash image, runs
//! recovery code (walk + validate + allocator high-water scan), continues
//! appending, and crashes again. Every committed append from both
//! sessions survives.
//!
//! Run with: `cargo run --release --example restart_and_continue`

use bbb::core::{PersistencyMode, System, SystemError};
use bbb::sim::SimConfig;
use bbb::workloads::{LinkedList, Palloc};

const SESSION1_APPENDS: u64 = 600;
const SESSION2_APPENDS: u64 = 400;

fn main() -> Result<(), SystemError> {
    // ---- Session 1 ----------------------------------------------------
    let mut sys = System::new(SimConfig::default(), PersistencyMode::BbbMemorySide)?;
    let map = sys.address_map().clone();
    let head = map.persistent_base();
    let mut list = LinkedList::new(head);
    let mut palloc = Palloc::new(&map, 1, 4096);
    for _ in 0..SESSION1_APPENDS {
        let ops = list
            .append_ops(&map, sys.arch_mem_mut(), &mut palloc, 0, false)
            .expect("allocator space");
        sys.run_single_core(0, ops)?;
    }
    println!("session 1: appended {SESSION1_APPENDS} nodes, crashing...");
    let image = sys.crash_now(true);
    drop(sys); // the machine is gone; only the NVMM image remains

    // ---- Session 2: reboot and recover --------------------------------
    let mut sys = System::new(SimConfig::default(), PersistencyMode::BbbMemorySide)?;
    sys.adopt_image(&image);
    let map = sys.address_map().clone();
    let (mut list, high_water) =
        LinkedList::recover(&image, &map, head).expect("session-1 image is consistent");
    println!(
        "session 2: recovered {} nodes (allocator resumes above {high_water:#x})",
        list.len()
    );
    assert_eq!(list.len(), SESSION1_APPENDS, "nothing was lost");

    let mut palloc = Palloc::resuming(&map, 1, 4096, high_water);
    for _ in 0..SESSION2_APPENDS {
        let ops = list
            .append_ops(&map, sys.arch_mem_mut(), &mut palloc, 0, false)
            .expect("allocator space");
        sys.run_single_core(0, ops)?;
    }
    println!("session 2: appended {SESSION2_APPENDS} more, crashing again...");
    let image2 = sys.crash_now(true);

    // ---- Final validation ---------------------------------------------
    let (final_list, _) =
        LinkedList::recover(&image2, &map, head).expect("session-2 image is consistent");
    println!(
        "final recovery: {} nodes (expected {})",
        final_list.len(),
        SESSION1_APPENDS + SESSION2_APPENDS
    );
    assert_eq!(final_list.len(), SESSION1_APPENDS + SESSION2_APPENDS);
    println!("two power failures, zero flushes, zero data loss.");
    Ok(())
}
