//! The `hashmap` workload: a persistent chained hash table.
//!
//! Matches the paper's Table IV `hashmap` row: a 1M-node table,
//! pre-populated at setup, with random insertions during the measured
//! window (6.0% persisting stores — the lowest of the suite, because the
//! bucket-array loads dominate). Each insert prepends a node to its
//! bucket's chain, exactly the linked-list pattern of the paper's Fig. 2:
//! node stores first, bucket-head publish store last.
//!
//! Layout: bucket array of `u64` head pointers at a reserved base; nodes
//! are 24 bytes `{ key, value, next }`.

use bbb_mem::{ByteStore, NvmImage};
use bbb_sim::{Addr, AddressMap, SplitMix64};

use crate::builder::OpBuilder;
use crate::insert::{Heap, InsertStructure, InsertWorkload};

/// The persistent chained hashmap: a bucket array of head pointers, and
/// inserts that prepend to a chain.
#[derive(Debug, Clone)]
pub struct Hashmap {
    buckets_addr: Addr,
    n_buckets: u64,
}

/// The hashmap driven as a multi-core insert workload.
pub type HashmapWorkload = InsertWorkload<Hashmap>;

impl Hashmap {
    /// Node size in bytes.
    pub const NODE_BYTES: u64 = 24;

    /// A hashmap whose bucket array occupies `n_buckets * 8` bytes at
    /// `buckets_addr` (reserved space).
    ///
    /// # Panics
    ///
    /// Panics if `n_buckets` is not a power of two.
    #[must_use]
    pub fn new(buckets_addr: Addr, n_buckets: u64) -> Self {
        assert!(n_buckets.is_power_of_two(), "bucket count must be 2^k");
        Self {
            buckets_addr,
            n_buckets,
        }
    }

    fn bucket_slot(&self, key: u64) -> Addr {
        // Fibonacci hashing: cheap, well-spread.
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - self.n_buckets.trailing_zeros());
        self.buckets_addr + h * 8
    }
}

impl InsertStructure for Hashmap {
    type Key = u64;
    const NAME: &'static str = "hashmap";
    const SETUP_SEED: u64 = 0x4A5_115EED;
    // Every insert publishes with one bucket-head store of a fresh node.
    const LOCKED: bool = false;

    fn random_key(rng: &mut SplitMix64) -> u64 {
        rng.next_u64() | 1 // nonzero keys
    }

    fn init_roots(&self, arch: &mut ByteStore) {
        // Zero the bucket array explicitly so the pages exist in media.
        for i in 0..self.n_buckets {
            arch.write_u64(self.buckets_addr + i * 8, 0);
        }
    }

    fn insert(&self, b: &mut OpBuilder<'_>, heap: &mut Heap, key: u64) -> Option<bool> {
        let node = heap.alloc(Self::NODE_BYTES)?;
        let slot = self.bucket_slot(key);
        let head = b.load_u64(slot);
        // Insert-if-absent: walk the chain checking for the key, like the
        // WHISPER hashmap the paper uses (this is also why hashmap has the
        // suite's lowest persisting-store fraction, 6.0% in Table IV).
        let mut p = head;
        let mut walked = 0;
        while p != 0 && walked < 64 {
            if b.load_u64(p) == key {
                return Some(false); // already present (rare)
            }
            p = b.load_u64(p + 16);
            walked += 1;
        }
        b.store_u64(node, key);
        b.store_u64(node + 8, key.wrapping_mul(7)); // value
        b.store_u64(node + 16, head);
        b.store_u64(slot, node); // publish
        Some(true)
    }
}

/// Walks every chain in a post-crash image, validating pointers. Returns
/// the number of reachable nodes.
///
/// # Errors
///
/// Returns a description of the first corrupt chain found — expected for
/// uninstrumented PMEM runs, never for BBB/eADR.
pub fn check_hashmap_recovery(
    image: &NvmImage,
    map: &AddressMap,
    buckets_addr: Addr,
    n_buckets: u64,
) -> Result<u64, String> {
    let mut image = image.reader();
    let mut nodes = 0u64;
    for i in 0..n_buckets {
        let mut p = image.read_u64(buckets_addr + i * 8);
        let mut depth = 0u64;
        while p != 0 {
            if !map.is_persistent(p) || !p.is_multiple_of(8) {
                return Err(format!("bucket {i}: malformed pointer {p:#x}"));
            }
            let key = image.read_u64(p);
            if key == 0 {
                return Err(format!("bucket {i}: pointer to uninitialized node {p:#x}"));
            }
            let value = image.read_u64(p + 8);
            if value != key.wrapping_mul(7) {
                return Err(format!("bucket {i}: torn node at {p:#x}"));
            }
            nodes += 1;
            depth += 1;
            if depth > 1_000_000 {
                return Err(format!("bucket {i}: cycle suspected"));
            }
            p = image.read_u64(p + 16);
        }
    }
    Ok(nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkloadParams;
    use bbb_core::{PersistencyMode, System};
    use bbb_sim::SimConfig;

    const BUCKETS: u64 = 64;

    fn build(mode: PersistencyMode, initial: u64, per_core: u64) -> (System, HashmapWorkload) {
        let sys = System::new(SimConfig::small_for_tests(), mode).unwrap();
        let map = sys.address_map().clone();
        let hashmap = Hashmap::new(map.persistent_base(), BUCKETS);
        let params = WorkloadParams {
            initial,
            per_core_ops: per_core,
            seed: 99,
            instrument: false,
        };
        let w = HashmapWorkload::new(hashmap, map, 2, BUCKETS * 8, params);
        (sys, w)
    }

    #[test]
    fn setup_populates_all_requested_nodes() {
        let (mut sys, mut w) = build(PersistencyMode::Eadr, 200, 0);
        sys.prepare(&mut w);
        let map = sys.address_map().clone();
        let img = sys.crash_now(true);
        let n = check_hashmap_recovery(&img, &map, map.persistent_base(), BUCKETS).unwrap();
        assert_eq!(n, 200);
        assert_eq!(w.inserted(), 200);
    }

    #[test]
    fn bbb_inserts_recover_at_any_crash_point() {
        let (mut sys, mut w) = build(PersistencyMode::BbbMemorySide, 50, 200);
        sys.prepare(&mut w);
        sys.run(&mut w, 333); // cut mid-insert
        sys.check_invariants();
        let map = sys.address_map().clone();
        let img = sys.crash_now(true);
        let n = check_hashmap_recovery(&img, &map, map.persistent_base(), BUCKETS)
            .expect("BBB image always consistent");
        assert!(n >= 50, "at least the setup survives: {n}");
    }

    #[test]
    fn eadr_full_run_matches_functional_count() {
        let (mut sys, mut w) = build(PersistencyMode::Eadr, 30, 20);
        sys.prepare(&mut w);
        let summary = sys.run(&mut w, u64::MAX);
        assert!(summary.completed);
        sys.drain_all_store_buffers();
        let map = sys.address_map().clone();
        let inserted = w.inserted();
        let img = sys.crash_now(true);
        let n = check_hashmap_recovery(&img, &map, map.persistent_base(), BUCKETS).unwrap();
        assert_eq!(n, inserted);
        assert_eq!(n, 30 + 2 * 20);
    }

    #[test]
    fn pmem_without_flushes_loses_tail_inserts() {
        let (mut sys, mut w) = build(PersistencyMode::Pmem, 0, 50);
        sys.prepare(&mut w);
        sys.run(&mut w, u64::MAX);
        let map = sys.address_map().clone();
        let img = sys.crash_now(true);
        // A torn chain (Err) is the other valid demonstration.
        if let Ok(n) = check_hashmap_recovery(&img, &map, map.persistent_base(), BUCKETS) {
            assert!(n < 100, "cached inserts must be missing: {n}");
        }
    }

    #[test]
    fn checker_detects_torn_node() {
        let (mut sys, _) = build(PersistencyMode::BbbMemorySide, 0, 0);
        let map = sys.address_map().clone();
        let node = map.persistent_base() + 0x4000;
        sys.preload_u64(map.persistent_base(), node);
        sys.preload_u64(node, 5); // key without matching value
        sys.preload_u64(node + 8, 999);
        let img = sys.crash_now(true);
        let err = check_hashmap_recovery(&img, &map, map.persistent_base(), BUCKETS).unwrap_err();
        assert!(err.contains("torn node"), "{err}");
    }
}
