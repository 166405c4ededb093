//! A persistent B+-tree workload (the `btree` the paper's §IV-B text
//! mentions alongside rtree and hashmap).
//!
//! Crash discipline follows the unsorted-node technique of persistent
//! B-tree designs (wB+Trees, FAST&FAIR): node entries are *appended*
//! rather than shifted, and the count field publishes the append, so a
//! single 8-byte store commits each insert. Searches scan nodes linearly
//! (fanout is 8, so a scan is cheaper than keeping entries sorted would
//! be crash-safe). Splits write the new right sibling completely before a
//! single parent append publishes it.
//!
//! Layout (256 B nodes): header `{count | leaf_flag << 32}`, then 8
//! entries of `{key, payload}` — payload is a value in leaves and a child
//! pointer in internal nodes. Internal entry *k* routes keys `>= key`;
//! every internal node keeps a leftmost entry with key 0.

use bbb_mem::{ByteStore, ImageReader, NvmImage};
use bbb_sim::{Addr, AddressMap, SplitMix64};

use crate::builder::OpBuilder;
use crate::insert::{Heap, InsertStructure, InsertWorkload};

/// Entries per node.
pub const FANOUT: usize = 8;
const NODE_BYTES: u64 = 256;
const LEAF_FLAG: u64 = 1 << 32;

fn hdr_count(h: u64) -> usize {
    (h & 0xFFFF_FFFF) as usize
}

fn hdr_is_leaf(h: u64) -> bool {
    h & LEAF_FLAG != 0
}

fn entry_addr(node: Addr, i: usize) -> Addr {
    node + 8 + i as u64 * 16
}

/// The persistent B+-tree: a root-pointer slot, and inserts that append
/// into unsorted nodes.
#[derive(Debug, Clone)]
pub struct Btree {
    root_slot: Addr,
}

/// The B+-tree driven as a multi-core insert workload.
pub type BtreeWorkload = InsertWorkload<Btree>;

impl Btree {
    /// A B+-tree whose root pointer lives at the reserved `root_slot`.
    #[must_use]
    pub fn new(root_slot: Addr) -> Self {
        Self { root_slot }
    }
}

/// Reads a node's `count` entries as (key, payload) pairs.
fn read_entries(b: &mut OpBuilder<'_>, node: Addr, count: usize) -> Vec<(u64, u64)> {
    (0..count)
        .map(|i| {
            (
                b.load_u64(entry_addr(node, i)),
                b.load_u64(entry_addr(node, i) + 8),
            )
        })
        .collect()
}

/// Writes `entries` into `node` from slot 0, then its header.
fn write_node(b: &mut OpBuilder<'_>, node: Addr, header_flags: u64, entries: &[(u64, u64)]) {
    for (i, (k, v)) in entries.iter().enumerate() {
        b.store_u64(entry_addr(node, i), *k);
        b.store_u64(entry_addr(node, i) + 8, *v);
    }
    b.store_u64(node, header_flags | entries.len() as u64);
}

/// Sorts `entries` and splits off the upper half, returning it with its
/// first key (the separator).
fn split_sorted(entries: &mut Vec<(u64, u64)>) -> (Vec<(u64, u64)>, u64) {
    entries.sort_unstable_by_key(|&(k, _)| k);
    let right = entries.split_off(entries.len() / 2);
    let sep = right[0].0;
    (right, sep)
}

impl InsertStructure for Btree {
    type Key = u64;
    const NAME: &'static str = "btree";
    const SETUP_SEED: u64 = 0xB7EE_0001;
    // Unsorted in-place appends race: two cores would claim the same slot.
    const LOCKED: bool = true;

    fn random_key(rng: &mut SplitMix64) -> u64 {
        rng.next_u64() | 1 // nonzero: 0 is the internal leftmost sentinel
    }

    fn init_roots(&self, arch: &mut ByteStore) {
        arch.write_u64(self.root_slot, 0);
    }

    fn insert(&self, b: &mut OpBuilder<'_>, heap: &mut Heap, key: u64) -> Option<bool> {
        let root = b.load_u64(self.root_slot);
        if root == 0 {
            let node = heap.alloc(NODE_BYTES)?;
            b.store_u64(entry_addr(node, 0), key);
            b.store_u64(entry_addr(node, 0) + 8, key.wrapping_mul(5));
            b.store_u64(node, LEAF_FLAG | 1);
            b.store_u64(self.root_slot, node); // publish
            return Some(true);
        }

        // Descend: at each internal node pick the entry with the largest
        // separator key <= key (entries are unsorted; linear scan).
        let mut path: Vec<Addr> = Vec::with_capacity(8);
        let mut p = root;
        loop {
            let h = b.load_u64(p);
            if hdr_is_leaf(h) {
                break;
            }
            let count = hdr_count(h);
            debug_assert!(count > 0);
            let mut best = 0usize;
            let mut best_key = 0u64;
            for i in 0..count {
                let k = b.load_u64(entry_addr(p, i));
                if k <= key && k >= best_key {
                    best_key = k;
                    best = i;
                }
            }
            path.push(p);
            p = b.load_u64(entry_addr(p, best) + 8);
        }

        // Append into the leaf if it has room: a single count store
        // publishes the insert.
        let h = b.load_u64(p);
        let count = hdr_count(h);
        if count < FANOUT {
            b.store_u64(entry_addr(p, count), key);
            b.store_u64(entry_addr(p, count) + 8, key.wrapping_mul(5));
            b.store_u64(p, h + 1); // publish
            return Some(true);
        }

        // Leaf full: split around the median, then propagate.
        let mut entries = read_entries(b, p, count);
        entries.push((key, key.wrapping_mul(5)));
        let (right_entries, mut sep) = split_sorted(&mut entries);
        let mut right = heap.alloc(NODE_BYTES)?;
        write_node(b, right, LEAF_FLAG, &right_entries);
        write_node(b, p, LEAF_FLAG, &entries);

        // Propagate (sep, right) up the saved path.
        let mut split_left = p;
        loop {
            let Some(parent) = path.pop() else {
                // Root split: new root with sentinel-left + sep-right (the
                // sentinel key 0 routes keys < sep).
                let newroot = heap.alloc(NODE_BYTES)?;
                write_node(b, newroot, 0, &[(0, split_left), (sep, right)]);
                b.store_u64(self.root_slot, newroot); // publish
                break;
            };
            let ph = b.load_u64(parent);
            let pcount = hdr_count(ph);
            if pcount < FANOUT {
                b.store_u64(entry_addr(parent, pcount), sep);
                b.store_u64(entry_addr(parent, pcount) + 8, right);
                b.store_u64(parent, ph + 1); // publish
                break;
            }
            // Parent full: split it the same way.
            let mut pentries = read_entries(b, parent, pcount);
            pentries.push((sep, right));
            let (pright_entries, psep) = split_sorted(&mut pentries);
            let pright = heap.alloc(NODE_BYTES)?;
            write_node(b, pright, 0, &pright_entries);
            write_node(b, parent, 0, &pentries);
            sep = psep;
            split_left = parent;
            right = pright;
        }
        Some(true)
    }
}

/// Validates a post-crash B+-tree image: header tags and counts
/// well-formed, child pointers aligned and in-heap, leaf values matching
/// their keys' encoding. Returns reachable leaf entries.
///
/// # Errors
///
/// Returns a description of the first malformed node found.
pub fn check_btree_recovery(
    image: &NvmImage,
    map: &AddressMap,
    root_slot: Addr,
) -> Result<u64, String> {
    fn walk(
        image: &mut ImageReader<'_>,
        map: &AddressMap,
        node: Addr,
        depth: u32,
        keys: &mut u64,
    ) -> Result<(), String> {
        if depth > 64 {
            return Err("tree too deep: cycle suspected".into());
        }
        if !map.is_persistent(node) || !node.is_multiple_of(8) {
            return Err(format!("malformed node pointer {node:#x}"));
        }
        let h = image.read_u64(node);
        let count = hdr_count(h);
        if count == 0 || count > FANOUT {
            return Err(format!("bad count {count} at {node:#x}"));
        }
        for i in 0..count {
            let k = image.read_u64(entry_addr(node, i));
            let payload = image.read_u64(entry_addr(node, i) + 8);
            if hdr_is_leaf(h) {
                if payload != k.wrapping_mul(5) {
                    return Err(format!("torn leaf entry at {node:#x} slot {i}"));
                }
                *keys += 1;
            } else {
                walk(image, map, payload, depth + 1, keys)?;
            }
        }
        Ok(())
    }

    let mut reader = image.reader();
    let root = reader.read_u64(root_slot);
    if root == 0 {
        return Ok(0);
    }
    let mut keys = 0;
    walk(&mut reader, map, root, 0, &mut keys)?;
    Ok(keys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkloadParams;
    use bbb_core::{PersistencyMode, System};
    use bbb_sim::SimConfig;

    fn workload(
        map: &AddressMap,
        cores: usize,
        initial: u64,
        per_core: u64,
        seed: u64,
    ) -> BtreeWorkload {
        let root = Btree::new(map.persistent_base());
        let params = WorkloadParams {
            initial,
            per_core_ops: per_core,
            seed,
            instrument: false,
        };
        BtreeWorkload::new(root, map.clone(), cores, 4096, params)
    }

    fn build(mode: PersistencyMode, initial: u64, per_core: u64) -> (System, BtreeWorkload) {
        let sys = System::new(SimConfig::small_for_tests(), mode).unwrap();
        let w = workload(sys.address_map(), 2, initial, per_core, 11);
        (sys, w)
    }

    #[test]
    fn setup_builds_valid_tree_with_splits() {
        let (mut sys, mut w) = build(PersistencyMode::Eadr, 300, 0);
        sys.prepare(&mut w);
        let map = sys.address_map().clone();
        let img = sys.crash_now(true);
        let n = check_btree_recovery(&img, &map, map.persistent_base()).expect("valid");
        assert_eq!(n, 300, "every setup key reachable");
        assert_eq!(w.inserted(), 300);
    }

    #[test]
    fn search_path_finds_inserted_keys() {
        // Indirect check via the recovery count across several sizes that
        // force 2- and 3-level trees.
        for initial in [5u64, 50, 500] {
            let (mut sys, mut w) = build(PersistencyMode::Eadr, initial, 0);
            sys.prepare(&mut w);
            let map = sys.address_map().clone();
            let img = sys.crash_now(true);
            let n = check_btree_recovery(&img, &map, map.persistent_base()).unwrap();
            assert_eq!(n, initial);
        }
    }

    #[test]
    fn bbb_run_is_crash_consistent_mid_insert() {
        let (mut sys, mut w) = build(PersistencyMode::BbbMemorySide, 100, 200);
        sys.prepare(&mut w);
        sys.run(&mut w, 731); // cut mid-insert
        sys.check_invariants();
        let map = sys.address_map().clone();
        let img = sys.crash_now(true);
        let n = check_btree_recovery(&img, &map, map.persistent_base())
            .expect("BBB image consistent at any cycle");
        assert!(n >= 100, "setup survives: {n}");
    }

    #[test]
    fn eadr_full_run_matches_functional_count() {
        // Single-core workload keeps the comparison exact.
        let mut sys = System::new(SimConfig::small_for_tests(), PersistencyMode::Eadr).unwrap();
        let mut w = workload(sys.address_map(), 1, 40, 40, 5);
        sys.prepare(&mut w);
        sys.run(&mut w, u64::MAX);
        sys.drain_all_store_buffers();
        let map = sys.address_map().clone();
        let img = sys.crash_now(true);
        let n = check_btree_recovery(&img, &map, map.persistent_base()).unwrap();
        assert_eq!(n, w.inserted());
    }

    #[test]
    fn checker_rejects_torn_leaf() {
        let (mut sys, _) = build(PersistencyMode::BbbMemorySide, 0, 0);
        let map = sys.address_map().clone();
        let root_slot = map.persistent_base();
        let node = root_slot + 0x1000;
        sys.preload_u64(root_slot, node);
        sys.preload_u64(node, LEAF_FLAG | 1);
        sys.preload_u64(entry_addr(node, 0), 9);
        sys.preload_u64(entry_addr(node, 0) + 8, 1); // != 9*5
        let img = sys.crash_now(true);
        let err = check_btree_recovery(&img, &map, root_slot).unwrap_err();
        assert!(err.contains("torn leaf"), "{err}");
    }
}
