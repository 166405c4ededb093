//! Crash-recovery torture test for a persistent key-value store.
//!
//! Runs the hashmap workload (a chained persistent KV store) on all 8
//! cores, injects a power failure at a series of arbitrary mid-operation
//! points, and validates the recovered image after every crash: chains
//! walkable, no torn nodes, no dangling pointers. Under BBB this holds at
//! *every* crash point with zero flushes in the program.
//!
//! Run with: `cargo run --release --example crash_recovery_kv`

use bbb::core::{PersistencyMode, System, SystemError};
use bbb::sim::{AddressMap, SimConfig};
use bbb::workloads::hashmap::check_hashmap_recovery;
use bbb::workloads::{Hashmap, HashmapWorkload, WorkloadParams};

const BUCKETS: u64 = 1 << 12;
const INITIAL: u64 = 5_000;
const PER_CORE_OPS: u64 = 2_000;

fn build() -> Result<(System, HashmapWorkload, AddressMap), SystemError> {
    let cfg = SimConfig::default();
    let sys = System::new(cfg, PersistencyMode::BbbMemorySide)?;
    let map = sys.address_map().clone();
    let params = WorkloadParams {
        initial: INITIAL,
        per_core_ops: PER_CORE_OPS,
        seed: 0xC0FFEE,
        instrument: false, // no flushes: BBB makes the plain code crash consistent
    };
    let hashmap = Hashmap::new(map.persistent_base(), BUCKETS);
    let w = HashmapWorkload::new(hashmap, map.clone(), 8, BUCKETS * 8, params);
    Ok((sys, w, map))
}

fn main() -> Result<(), SystemError> {
    // Crash at several arbitrary op counts, rebuilding each time so every
    // crash hits a different machine state (deterministic seeds keep the
    // experiment reproducible).
    for (i, budget) in [137u64, 1_009, 4_999, 12_345, u64::MAX].iter().enumerate() {
        let (mut sys, mut w, map) = build()?;
        sys.prepare(&mut w);
        let summary = sys.run(&mut w, *budget);
        let cost = sys.crash_cost();
        let image = sys.crash_now(true);
        let nodes = check_hashmap_recovery(&image, &map, map.persistent_base(), BUCKETS)
            .expect("BBB image must be consistent at any crash point");
        println!(
            "crash #{i}: after {} ops at cycle {} -> recovered {} nodes \
             (drain set: {} bbPB entries, {} SB entries)",
            summary.ops,
            sys.cycle(),
            nodes,
            cost.bbpb_entries,
            cost.sb_entries,
        );
        assert!(nodes >= INITIAL, "setup data must always survive");
    }
    println!("every crash point recovered consistently - no flushes, no fences.");
    Ok(())
}
