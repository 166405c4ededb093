//! The `rtree` workload: a persistent spatial R-tree.
//!
//! Matches the paper's Table IV `rtree` row: a 1M-node tree, pre-populated
//! at setup, with random rectangle insertions during the measured window
//! (15.5% persisting stores in the paper). Inserts descend by
//! least-enlargement, append into a leaf, and split full nodes by
//! partitioning entries around the midpoint of the node's bounding box.
//!
//! Crash discipline: a fresh node is fully written before the single
//! pointer/count store that publishes it, so strict persistency keeps the
//! tree structurally valid at every crash point. (Bounding boxes on the
//! ancestor path are updated after the publish; a crash between publish
//! and box-tighten leaves boxes conservative-but-valid, which the checker
//! accepts — the classic relaxed-invariant trick real persistent R-trees
//! use.)
//!
//! Node layout (8 entries/node, 8 + 8*24 = 200 B, rounded to 256 B):
//! `{ header: count | (leaf_flag << 32), entries[8]: { min: 2×u16 packed,
//! max: 2×u16 packed (one u64), child_or_value: u64, pad: u64 } }`.
//! Coordinates are u16 grid points packed into one u64 per entry.

use bbb_mem::{ByteStore, ImageReader, NvmImage};
use bbb_sim::{Addr, AddressMap, SplitMix64};

use crate::builder::OpBuilder;
use crate::insert::{Heap, InsertStructure, InsertWorkload};

/// Entries per R-tree node.
pub const FANOUT: usize = 8;
const NODE_BYTES: u64 = 256;
const ENTRY_BYTES: u64 = 24;

/// A packed axis-aligned rectangle on a u16 grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rect {
    /// Min x/y, max x/y.
    pub x0: u16,
    /// Min y.
    pub y0: u16,
    /// Max x (inclusive).
    pub x1: u16,
    /// Max y (inclusive).
    pub y1: u16,
}

impl Rect {
    /// Packs into one u64 (x0 | y0<<16 | x1<<32 | y1<<48).
    #[must_use]
    pub fn pack(self) -> u64 {
        u64::from(self.x0)
            | (u64::from(self.y0) << 16)
            | (u64::from(self.x1) << 32)
            | (u64::from(self.y1) << 48)
    }

    /// Unpacks from [`Rect::pack`]'s encoding.
    #[must_use]
    pub fn unpack(v: u64) -> Self {
        Self {
            x0: v as u16,
            y0: (v >> 16) as u16,
            x1: (v >> 32) as u16,
            y1: (v >> 48) as u16,
        }
    }

    /// True when the rectangle is well-formed (min ≤ max).
    #[must_use]
    pub fn valid(self) -> bool {
        self.x0 <= self.x1 && self.y0 <= self.y1
    }

    /// The smallest rectangle containing both.
    #[must_use]
    pub fn union(self, o: Rect) -> Rect {
        Rect {
            x0: self.x0.min(o.x0),
            y0: self.y0.min(o.y0),
            x1: self.x1.max(o.x1),
            y1: self.y1.max(o.y1),
        }
    }

    /// True when `o` fits entirely inside `self`.
    #[must_use]
    pub fn contains(self, o: Rect) -> bool {
        self.x0 <= o.x0 && self.y0 <= o.y0 && self.x1 >= o.x1 && self.y1 >= o.y1
    }

    fn area(self) -> u64 {
        (u64::from(self.x1) - u64::from(self.x0) + 1)
            * (u64::from(self.y1) - u64::from(self.y0) + 1)
    }

    fn enlargement(self, o: Rect) -> u64 {
        self.union(o).area() - self.area()
    }

    fn center(self) -> (u32, u32) {
        (
            (u32::from(self.x0) + u32::from(self.x1)) / 2,
            (u32::from(self.y0) + u32::from(self.y1)) / 2,
        )
    }
}

const LEAF_FLAG: u64 = 1 << 32;

fn hdr_count(h: u64) -> usize {
    (h & 0xFFFF_FFFF) as usize
}

fn hdr_is_leaf(h: u64) -> bool {
    h & LEAF_FLAG != 0
}

fn entry_addr(node: Addr, i: usize) -> Addr {
    node + 8 + i as u64 * ENTRY_BYTES
}

/// The persistent R-tree: a root-pointer slot, and inserts that descend
/// by least enlargement.
#[derive(Debug, Clone)]
pub struct Rtree {
    root_slot: Addr,
}

/// The R-tree driven as a multi-core insert workload.
pub type RtreeWorkload = InsertWorkload<Rtree>;

impl Rtree {
    /// An R-tree whose root pointer lives at the reserved `root_slot`.
    #[must_use]
    pub fn new(root_slot: Addr) -> Self {
        Self { root_slot }
    }
}

/// A node's entries: (box, child pointer or value) pairs.
type Entries = Vec<(Rect, u64)>;

/// Partitions `entries` for a node split: center against the
/// bounding-box midpoint along the wider axis, with a forced half/half
/// cut when degenerate.
fn partition(mut entries: Entries) -> (Entries, Entries) {
    let bbox = bbox_of(&entries);
    let (cx, cy) = bbox.center();
    let wide_x = u32::from(bbox.x1 - bbox.x0) >= u32::from(bbox.y1 - bbox.y0);
    let (mut keep, mut moved): (Vec<_>, Vec<_>) = entries.drain(..).partition(|(r, _)| {
        let (ex, ey) = r.center();
        if wide_x {
            ex <= cx
        } else {
            ey <= cy
        }
    });
    if keep.is_empty() || moved.is_empty() {
        let mut all = std::mem::take(&mut keep);
        all.append(&mut moved);
        moved = all.split_off(all.len() / 2);
        keep = all;
    }
    (keep, moved)
}

fn bbox_of(entries: &[(Rect, u64)]) -> Rect {
    entries[1..]
        .iter()
        .fold(entries[0].0, |a, (r, _)| a.union(*r))
}

/// Reads a node's first `count` entries.
fn read_entries(b: &mut OpBuilder<'_>, node: Addr, count: usize) -> Entries {
    (0..count)
        .map(|i| {
            (
                Rect::unpack(b.load_u64(entry_addr(node, i))),
                b.load_u64(entry_addr(node, i) + 8),
            )
        })
        .collect()
}

/// Writes `entries` into `node` from slot 0, then its header.
fn write_node(b: &mut OpBuilder<'_>, node: Addr, header_flags: u64, entries: &[(Rect, u64)]) {
    for (i, (r, v)) in entries.iter().enumerate() {
        b.store_u64(entry_addr(node, i), r.pack());
        b.store_u64(entry_addr(node, i) + 8, *v);
    }
    b.store_u64(node, header_flags | entries.len() as u64);
}

impl InsertStructure for Rtree {
    type Key = Rect;
    const NAME: &'static str = "rtree";
    const SETUP_SEED: u64 = 0x47EE_0001;
    // In-place appends and box tightening race across cores.
    const LOCKED: bool = true;

    fn random_key(rng: &mut SplitMix64) -> Rect {
        let x0 = rng.next_below(60_000) as u16;
        let y0 = rng.next_below(60_000) as u16;
        let w = rng.next_below(256) as u16;
        let h = rng.next_below(256) as u16;
        Rect {
            x0,
            y0,
            x1: x0 + w,
            y1: y0 + h,
        }
    }

    fn init_roots(&self, arch: &mut ByteStore) {
        arch.write_u64(self.root_slot, 0);
    }

    /// Splits propagate recursively up the saved path, so the tree stays
    /// balanced (depth O(log_FANOUT n)). A fresh sibling is fully written
    /// before the parent store that publishes it; the in-place shrink of
    /// the split node is tolerated by the checker because every
    /// transiently visible entry is still a valid old entry (the relaxed
    /// invariant real persistent R-trees rely on).
    fn insert(&self, b: &mut OpBuilder<'_>, heap: &mut Heap, rect: Rect) -> Option<bool> {
        let value = heap.inserted() + 1;
        let root = b.load_u64(self.root_slot);
        if root == 0 {
            let node = heap.alloc(NODE_BYTES)?;
            b.store_u64(entry_addr(node, 0), rect.pack());
            b.store_u64(entry_addr(node, 0) + 8, value);
            b.store_u64(node, LEAF_FLAG | 1); // header: leaf, count 1
            b.store_u64(self.root_slot, node); // publish
            return Some(true);
        }

        // Descend to a leaf by least enlargement, saving (node, entry idx).
        let mut path: Vec<(Addr, usize)> = Vec::with_capacity(8);
        let mut p = root;
        loop {
            let h = b.load_u64(p);
            if hdr_is_leaf(h) {
                break;
            }
            let count = hdr_count(h);
            debug_assert!(count > 0, "internal node cannot be empty");
            let mut best = 0usize;
            let mut best_cost = u64::MAX;
            for i in 0..count {
                let r = Rect::unpack(b.load_u64(entry_addr(p, i)));
                let cost = r.enlargement(rect);
                if cost < best_cost {
                    best_cost = cost;
                    best = i;
                }
            }
            // Tighten the chosen entry's box on the way down (post-publish
            // box maintenance; conservative at a crash).
            let cur = Rect::unpack(b.load_u64(entry_addr(p, best)));
            if !cur.contains(rect) {
                b.store_u64(entry_addr(p, best), cur.union(rect).pack());
            }
            path.push((p, best));
            p = b.load_u64(entry_addr(p, best) + 8);
        }

        // Fast path: leaf has room.
        let h = b.load_u64(p);
        let count = hdr_count(h);
        if count < FANOUT {
            b.store_u64(entry_addr(p, count), rect.pack());
            b.store_u64(entry_addr(p, count) + 8, value);
            b.store_u64(p, h + 1); // publish via count bump
            return Some(true);
        }

        // Leaf full: split, then propagate the new sibling up the path.
        let mut entries = read_entries(b, p, count);
        entries.push((rect, value));
        let (keep, moved) = partition(entries);
        let mut sibling = heap.alloc(NODE_BYTES)?;
        write_node(b, sibling, LEAF_FLAG, &moved);
        write_node(b, p, LEAF_FLAG, &keep);
        let mut split_node = p;
        let mut keep_box = bbox_of(&keep);
        let mut moved_box = bbox_of(&moved);

        // Walk back up, inserting the sibling; split parents as needed.
        loop {
            let Some((parent, idx)) = path.pop() else {
                // The split node was the root: grow a new root.
                let newroot = heap.alloc(NODE_BYTES)?;
                let halves = [(keep_box, split_node), (moved_box, sibling)];
                write_node(b, newroot, 0, &halves); // internal, count 2
                b.store_u64(self.root_slot, newroot); // publish
                break;
            };
            // The split child kept the `keep` half: tighten its box.
            b.store_u64(entry_addr(parent, idx), keep_box.pack());
            let ph = b.load_u64(parent);
            let pcount = hdr_count(ph);
            if pcount < FANOUT {
                b.store_u64(entry_addr(parent, pcount), moved_box.pack());
                b.store_u64(entry_addr(parent, pcount) + 8, sibling);
                b.store_u64(parent, ph + 1); // publish
                break;
            }
            // Parent full too: split it and continue upward.
            let mut pentries = read_entries(b, parent, pcount);
            pentries.push((moved_box, sibling));
            let (pkeep, pmoved) = partition(pentries);
            let new_internal = heap.alloc(NODE_BYTES)?;
            write_node(b, new_internal, 0, &pmoved);
            write_node(b, parent, 0, &pkeep);
            split_node = parent;
            sibling = new_internal;
            keep_box = bbox_of(&pkeep);
            moved_box = bbox_of(&pmoved);
        }
        Some(true)
    }
}

/// Validates a post-crash R-tree image: headers well-formed, counts within
/// fanout, child pointers aligned and in-heap, rectangles valid. Returns
/// the number of reachable leaf entries.
///
/// # Errors
///
/// Returns a description of the first malformed node found.
pub fn check_rtree_recovery(
    image: &NvmImage,
    map: &AddressMap,
    root_slot: Addr,
) -> Result<u64, String> {
    fn walk(
        image: &mut ImageReader<'_>,
        map: &AddressMap,
        node: Addr,
        depth: u32,
        leaves: &mut u64,
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
            let r = Rect::unpack(image.read_u64(entry_addr(node, i)));
            if !r.valid() {
                return Err(format!("invalid rect at {node:#x} entry {i}"));
            }
            if hdr_is_leaf(h) {
                let v = image.read_u64(entry_addr(node, i) + 8);
                if v == 0 {
                    return Err(format!("zero value at leaf {node:#x} entry {i}"));
                }
                *leaves += 1;
            } else {
                let child = image.read_u64(entry_addr(node, i) + 8);
                walk(image, map, child, depth + 1, leaves)?;
            }
        }
        Ok(())
    }

    let mut reader = image.reader();
    let root = reader.read_u64(root_slot);
    if root == 0 {
        return Ok(0);
    }
    let mut leaves = 0;
    walk(&mut reader, map, root, 0, &mut leaves)?;
    Ok(leaves)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkloadParams;
    use bbb_core::{PersistencyMode, System};
    use bbb_sim::SimConfig;

    fn workload(map: &AddressMap, cores: usize, initial: u64, per_core: u64) -> RtreeWorkload {
        let root = Rtree::new(map.persistent_base());
        let params = WorkloadParams {
            initial,
            per_core_ops: per_core,
            seed: 7,
            instrument: false,
        };
        RtreeWorkload::new(root, map.clone(), cores, 4096, params)
    }

    fn build(mode: PersistencyMode, initial: u64, per_core: u64) -> (System, RtreeWorkload) {
        let sys = System::new(SimConfig::small_for_tests(), mode).unwrap();
        let w = workload(sys.address_map(), 2, initial, per_core);
        (sys, w)
    }

    #[test]
    fn rect_pack_round_trip() {
        let r = Rect {
            x0: 1,
            y0: 2,
            x1: 300,
            y1: 40_000,
        };
        assert_eq!(Rect::unpack(r.pack()), r);
        assert!(r.valid());
        assert!(!Rect {
            x0: 5,
            y0: 0,
            x1: 4,
            y1: 0
        }
        .valid());
    }

    #[test]
    fn rect_union_and_enlargement() {
        let a = Rect {
            x0: 0,
            y0: 0,
            x1: 9,
            y1: 9,
        };
        let b = Rect {
            x0: 5,
            y0: 5,
            x1: 14,
            y1: 14,
        };
        let u = a.union(b);
        assert_eq!((u.x0, u.y0, u.x1, u.y1), (0, 0, 14, 14));
        assert!(u.contains(a) && u.contains(b));
        assert_eq!(a.enlargement(a), 0);
        assert!(a.enlargement(b) > 0);
    }

    #[test]
    fn setup_builds_valid_tree_with_splits() {
        let (mut sys, mut w) = build(PersistencyMode::Eadr, 200, 0);
        sys.prepare(&mut w);
        let map = sys.address_map().clone();
        let img = sys.crash_now(true);
        let n = check_rtree_recovery(&img, &map, map.persistent_base()).expect("valid");
        assert_eq!(n, 200, "every set-up insert reachable");
        assert_eq!(w.inserted(), 200);
    }

    #[test]
    fn bbb_run_is_crash_consistent() {
        let (mut sys, mut w) = build(PersistencyMode::BbbMemorySide, 64, 100);
        sys.prepare(&mut w);
        sys.run(&mut w, 900); // cut mid-insert
        sys.check_invariants();
        let map = sys.address_map().clone();
        let img = sys.crash_now(true);
        let n = check_rtree_recovery(&img, &map, map.persistent_base())
            .expect("BBB image consistent at any cycle");
        assert!(n >= 64, "setup data plus some inserts: {n}");
    }

    #[test]
    fn eadr_full_run_matches_functional_count() {
        // Single-core workload: one writer keeps generation order equal to
        // application order, so the image count is exact (cross-core
        // conflicting box updates can diverge slightly — the documented
        // op-granularity approximation).
        let mut sys = System::new(SimConfig::small_for_tests(), PersistencyMode::Eadr).unwrap();
        let mut w = workload(sys.address_map(), 1, 50, 60);
        sys.prepare(&mut w);
        let summary = sys.run(&mut w, u64::MAX);
        assert!(summary.completed);
        sys.drain_all_store_buffers();
        let map = sys.address_map().clone();
        let inserted = w.inserted();
        let img = sys.crash_now(true);
        let n = check_rtree_recovery(&img, &map, map.persistent_base()).unwrap();
        assert_eq!(n, inserted);
    }
}
