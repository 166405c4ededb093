//! The `ctree` workload: a persistent crit-bit (binary radix) tree.
//!
//! Matches the paper's Table IV `ctree` row: a 1M-node tree, pre-populated
//! at setup, with random key insertions during the measured window
//! (18.9% persisting stores in the paper). A crit-bit tree stores keys in
//! leaves; each internal node tests one bit position. An insert allocates
//! one leaf (plus, after the first, one internal node) and *publishes* the
//! subtree with a single pointer store — the crash-consistency commit
//! point, so strict persistency (BBB) keeps the tree valid at any crash.
//!
//! Layout: root pointer at a reserved slot. Internal node (24 B):
//! `{ tag=1 | bit << 8, left, right }`. Leaf (16 B): `{ tag=0 | key << 8,
//! value }`. Keys are 48-bit so the tag byte never collides.

use bbb_mem::{ByteStore, ImageReader, NvmImage};
use bbb_sim::{Addr, AddressMap, SplitMix64};

use crate::builder::OpBuilder;
use crate::insert::{Heap, InsertStructure, InsertWorkload};

const TAG_LEAF: u64 = 0;
const TAG_INTERNAL: u64 = 1;

/// Key space: 48-bit keys, bit 47 tested first.
const KEY_BITS: u32 = 48;

/// The persistent crit-bit tree: a root-pointer slot, and inserts that
/// splice in one leaf plus one internal node.
#[derive(Debug, Clone)]
pub struct Ctree {
    root_addr: Addr,
}

/// The crit-bit tree driven as a multi-core insert workload.
pub type CtreeWorkload = InsertWorkload<Ctree>;

/// Where an insert splices into the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InsertPlan {
    EmptyTree,
    Splice {
        /// Address of the pointer slot to overwrite (root or child slot).
        parent_slot: Addr,
        /// The subtree currently hanging off that slot.
        old_child: Addr,
        /// The differing bit the new internal node tests.
        bit: u32,
        /// True when the new key goes right (bit set).
        key_side_right: bool,
    },
}

fn leaf_key(tagged: u64) -> u64 {
    tagged >> 8
}

fn node_bit(tagged: u64) -> u32 {
    (tagged >> 8) as u32
}

fn is_leaf(tagged: u64) -> bool {
    tagged & 0xFF == TAG_LEAF
}

impl Ctree {
    /// A crit-bit tree whose root pointer lives at the reserved
    /// `root_addr`.
    #[must_use]
    pub fn new(root_addr: Addr) -> Self {
        Self { root_addr }
    }

    /// Plans an insert of `key`; `None` when the key is already present.
    fn plan(&self, b: &mut OpBuilder<'_>, key: u64) -> Option<InsertPlan> {
        let root = b.load_u64(self.root_addr);
        if root == 0 {
            return Some(InsertPlan::EmptyTree);
        }
        // Walk to the best-matching leaf.
        let mut p = root;
        loop {
            let tag = b.load_u64(p);
            if is_leaf(tag) {
                let existing = leaf_key(tag);
                if existing == key {
                    return None; // duplicate
                }
                let diff = existing ^ key;
                let bit = 63 - diff.leading_zeros(); // highest differing bit
                let key_side_right = key & (1 << bit) != 0;
                // Second walk: descend until a node tests a bit below
                // `bit` (or a leaf), tracking the pointer slot to splice.
                let mut slot = self.root_addr;
                let mut child = b.load_u64(self.root_addr);
                loop {
                    let t = b.load_u64(child);
                    if is_leaf(t) || node_bit(t) < bit {
                        return Some(InsertPlan::Splice {
                            parent_slot: slot,
                            old_child: child,
                            bit,
                            key_side_right,
                        });
                    }
                    let nb = node_bit(t);
                    slot = if key & (1 << nb) != 0 {
                        child + 16
                    } else {
                        child + 8
                    };
                    child = b.load_u64(slot);
                }
            }
            let nb = node_bit(tag);
            p = if key & (1 << nb) != 0 {
                b.load_u64(p + 16)
            } else {
                b.load_u64(p + 8)
            };
        }
    }
}

impl InsertStructure for Ctree {
    type Key = u64;
    const NAME: &'static str = "ctree";
    const SETUP_SEED: u64 = 0xC7EE_5EED;
    // Every insert publishes with one pointer store into fresh nodes.
    const LOCKED: bool = false;

    fn random_key(rng: &mut SplitMix64) -> u64 {
        rng.next_below(1 << KEY_BITS)
    }

    fn init_roots(&self, arch: &mut ByteStore) {
        arch.write_u64(self.root_addr, 0);
    }

    /// The leaf is written first, then the internal node; the final store
    /// splices the parent pointer.
    fn insert(&self, b: &mut OpBuilder<'_>, heap: &mut Heap, key: u64) -> Option<bool> {
        let leaf = heap.alloc(16)?;
        b.store_u64(leaf, TAG_LEAF | (key << 8));
        b.store_u64(leaf + 8, key.wrapping_mul(3)); // value

        let Some(plan) = self.plan(b, key) else {
            // Duplicate key: the traversal loads still count as work, but
            // nothing was inserted (the pre-written leaf is orphaned, just
            // like a real allocator losing a node to a lost race).
            return Some(false);
        };
        match plan {
            InsertPlan::EmptyTree => b.store_u64(self.root_addr, leaf),
            InsertPlan::Splice {
                parent_slot,
                old_child,
                bit,
                key_side_right,
            } => {
                let internal = heap.alloc(24)?;
                b.store_u64(internal, TAG_INTERNAL | (u64::from(bit) << 8));
                let (l, r) = if key_side_right {
                    (old_child, leaf)
                } else {
                    (leaf, old_child)
                };
                b.store_u64(internal + 8, l);
                b.store_u64(internal + 16, r);
                // Publish: the single pointer store that commits the insert.
                b.store_u64(parent_slot, internal);
            }
        }
        Some(true)
    }
}

/// Validates a post-crash ctree image: every pointer reachable from the
/// root must lead to a well-formed internal node or tagged leaf, with bit
/// indices strictly decreasing along every path.
///
/// # Errors
///
/// Returns a description of the first malformed node found.
pub fn check_ctree_recovery(
    image: &NvmImage,
    map: &AddressMap,
    root_addr: Addr,
) -> Result<u64, String> {
    fn walk(
        image: &mut ImageReader<'_>,
        map: &AddressMap,
        p: Addr,
        max_bit: u32,
        leaves: &mut u64,
        depth: u32,
    ) -> Result<(), String> {
        if depth > 200 {
            return Err("path too deep: cycle suspected".to_owned());
        }
        if !map.is_persistent(p) || !p.is_multiple_of(8) {
            return Err(format!("malformed pointer {p:#x}"));
        }
        let tag = image.read_u64(p);
        if is_leaf(tag) {
            if tag == 0 {
                return Err(format!("pointer {p:#x} to uninitialized node"));
            }
            *leaves += 1;
            return Ok(());
        }
        if tag & 0xFF != TAG_INTERNAL {
            return Err(format!("bad tag {tag:#x} at {p:#x}"));
        }
        let bit = node_bit(tag);
        if bit >= max_bit {
            return Err(format!("bit order violated at {p:#x}"));
        }
        let left = image.read_u64(p + 8);
        walk(image, map, left, bit, leaves, depth + 1)?;
        let right = image.read_u64(p + 16);
        walk(image, map, right, bit, leaves, depth + 1)
    }

    let mut reader = image.reader();
    let root = reader.read_u64(root_addr);
    if root == 0 {
        return Ok(0);
    }
    let mut leaves = 0;
    walk(&mut reader, map, root, KEY_BITS + 1, &mut leaves, 0)?;
    Ok(leaves)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkloadParams;
    use bbb_core::{PersistencyMode, System, Workload};
    use bbb_sim::SimConfig;

    fn workload(map: &AddressMap, cores: usize, initial: u64, per_core: u64) -> CtreeWorkload {
        let root = Ctree::new(map.persistent_base());
        let params = WorkloadParams {
            initial,
            per_core_ops: per_core,
            seed: 42,
            instrument: false,
        };
        CtreeWorkload::new(root, map.clone(), cores, 4096, params)
    }

    fn build(mode: PersistencyMode, initial: u64, per_core: u64) -> (System, CtreeWorkload) {
        let sys = System::new(SimConfig::small_for_tests(), mode).unwrap();
        let w = workload(sys.address_map(), 2, initial, per_core);
        (sys, w)
    }

    #[test]
    fn setup_builds_a_valid_tree() {
        let (mut sys, mut w) = build(PersistencyMode::Eadr, 100, 0);
        sys.prepare(&mut w);
        let map = sys.address_map().clone();
        let img = sys.crash_now(true);
        let leaves = check_ctree_recovery(&img, &map, map.persistent_base()).expect("valid");
        assert!(leaves >= 95, "most of 100 random keys inserted: {leaves}");
    }

    #[test]
    fn measured_inserts_run_and_recover_under_bbb() {
        let (mut sys, mut w) = build(PersistencyMode::BbbMemorySide, 50, 25);
        sys.prepare(&mut w);
        let summary = sys.run(&mut w, u64::MAX);
        assert!(summary.completed);
        sys.check_invariants();
        let map = sys.address_map().clone();
        let img = sys.crash_now(true);
        let leaves = check_ctree_recovery(&img, &map, map.persistent_base()).expect("valid");
        assert!(leaves >= 90, "tree grew: {leaves}");
    }

    #[test]
    fn crash_mid_run_is_consistent_under_bbb() {
        let (mut sys, mut w) = build(PersistencyMode::BbbMemorySide, 30, 100);
        sys.prepare(&mut w);
        // Cut the run mid-insert (op granularity) and crash.
        sys.run(&mut w, 157);
        let map = sys.address_map().clone();
        let img = sys.crash_now(true);
        check_ctree_recovery(&img, &map, map.persistent_base())
            .expect("BBB: any crash point is consistent");
    }

    #[test]
    fn functional_and_simulated_trees_agree() {
        // Single-core workload: with one writer, generation order equals
        // application order, so the image count is exact. (Cross-core
        // conflicting splices can diverge by a node or two — the
        // documented op-granularity approximation.)
        let mut sys = System::new(SimConfig::small_for_tests(), PersistencyMode::Eadr).unwrap();
        let mut w = workload(sys.address_map(), 1, 20, 20);
        sys.prepare(&mut w);
        sys.run(&mut w, u64::MAX);
        sys.drain_all_store_buffers();
        let map = sys.address_map().clone();
        let inserted = w.inserted();
        let img = sys.crash_now(true);
        let leaves = check_ctree_recovery(&img, &map, map.persistent_base()).expect("valid");
        assert_eq!(leaves, inserted, "eADR image matches functional count");
    }

    #[test]
    fn duplicate_keys_do_not_grow_the_tree() {
        let mut arch = ByteStore::new();
        let map = AddressMap::new(&SimConfig::small_for_tests());
        let mut w = workload(&map, 1, 0, 0);
        w.setup(&mut arch);
        assert!(w.insert_now(&mut arch, 0, 7));
        assert!(w.insert_now(&mut arch, 0, 9));
        let count_before = w.inserted();
        assert!(w.insert_now(&mut arch, 0, 7)); // duplicate
        assert_eq!(w.inserted(), count_before);
        let img = NvmImage::from_store(arch);
        let leaves = check_ctree_recovery(&img, &map, map.persistent_base()).unwrap();
        assert_eq!(leaves, count_before, "the duplicate is not reachable");
    }
}
