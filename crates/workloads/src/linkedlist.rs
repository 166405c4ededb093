//! The persistent linked list from the paper's motivation (Fig. 2/3).
//!
//! `AppendNode` creates a node, points it at the current head, and then
//! updates the head pointer. If the head update persists before the node
//! itself, a crash loses the whole list — the exact hazard the paper opens
//! with. Under BBB the unmodified Fig. 2 code (no flushes) is crash
//! consistent; under the PMEM baseline it needs the Fig. 3 instrumentation
//! (clwb + sfence after the node init and after the head update).
//!
//! Memory layout: `head` pointer at a fixed root address; each node is
//! 16 bytes `{ value: u64, next: u64 }`. Node values are tagged with a
//! magic pattern so the recovery checker can tell an initialized node from
//! zero-fill garbage.

use bbb_cpu::Op;
use bbb_mem::{ByteStore, NvmImage};
use bbb_sim::{Addr, AddressMap};

use crate::builder::OpBuilder;
use crate::palloc::Palloc;

/// High bits tagging every legitimate node value.
pub const VALUE_MAGIC: u64 = 0xB1B0_0000_0000_0000;

/// Result of walking a post-crash list image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ListRecovery {
    /// Nodes reachable from the head.
    pub reachable_nodes: u64,
}

/// What went wrong when a post-crash list image is inconsistent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ListCorruption {
    /// The head (or a `next` pointer) references a node whose value lacks
    /// the magic tag — the Fig. 2 hazard: pointer persisted, node didn't.
    DanglingPointer {
        /// The corrupt node's address.
        node: Addr,
    },
    /// A cycle or an out-of-heap pointer was encountered.
    MalformedPointer {
        /// The offending pointer value.
        pointer: Addr,
    },
}

impl std::fmt::Display for ListCorruption {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ListCorruption::DanglingPointer { node } => {
                write!(f, "dangling pointer to uninitialized node {node:#x}")
            }
            ListCorruption::MalformedPointer { pointer } => {
                write!(f, "malformed pointer {pointer:#x}")
            }
        }
    }
}

impl std::error::Error for ListCorruption {}

/// A persistent singly-linked list driven through the simulator.
#[derive(Debug)]
pub struct LinkedList {
    head_addr: Addr,
    appended: u64,
}

impl LinkedList {
    /// Node payload size in bytes.
    pub const NODE_BYTES: u64 = 16;

    /// Creates a list whose head pointer lives at `head_addr` (must be a
    /// reserved root slot in the persistent heap).
    #[must_use]
    pub fn new(head_addr: Addr) -> Self {
        Self {
            head_addr,
            appended: 0,
        }
    }

    /// The head-pointer root address.
    #[must_use]
    pub fn head_addr(&self) -> Addr {
        self.head_addr
    }

    /// Nodes appended so far.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.appended
    }

    /// True when nothing has been appended.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.appended == 0
    }

    /// Builds the op sequence of one `AppendNode` (paper Fig. 2: no
    /// flushes; pass `instrument = true` for the Fig. 3 version).
    ///
    /// Returns `None` if the allocator is exhausted.
    pub fn append_ops(
        &mut self,
        map: &AddressMap,
        arch: &mut ByteStore,
        palloc: &mut Palloc,
        core: usize,
        instrument: bool,
    ) -> Option<Vec<Op>> {
        let node = palloc.alloc(core, Self::NODE_BYTES)?;
        let mut b = OpBuilder::new(map, arch, instrument);
        // new_node->value = ...
        b.store_u64(node, VALUE_MAGIC | self.appended);
        // new_node->next = head
        let head = b.load_u64(self.head_addr);
        b.store_u64(node + 8, head);
        // head = new_node  (the publish: last store of the operation)
        b.store_u64(self.head_addr, node);
        self.appended += 1;
        Some(b.finish())
    }

    /// Re-opens a list from a post-crash image: validates it, counts the
    /// surviving nodes, and returns a handle (plus the highest node
    /// address, the allocator's recovery floor) ready to continue
    /// appending.
    ///
    /// # Errors
    ///
    /// Propagates any corruption [`LinkedList::check_recovery`] finds.
    pub fn recover(
        image: &NvmImage,
        map: &AddressMap,
        head_addr: Addr,
    ) -> Result<(Self, Addr), ListCorruption> {
        let probe = Self {
            head_addr,
            appended: u64::MAX, // no upper bound while counting
        };
        let r = probe.check_recovery(image, map)?;
        // Find the high-water mark for allocator resumption.
        let mut image = image.reader();
        let mut hw = head_addr + 8;
        let mut p = image.read_u64(head_addr);
        while p != 0 {
            hw = hw.max(p + Self::NODE_BYTES);
            p = image.read_u64(p + 8);
        }
        Ok((
            Self {
                head_addr,
                appended: r.reachable_nodes,
            },
            hw,
        ))
    }

    /// Walks the list in a post-crash image, validating every pointer.
    ///
    /// # Errors
    ///
    /// Returns the corruption found, if any — which is the expected outcome
    /// for the uninstrumented PMEM run and must never happen under
    /// BBB/eADR.
    pub fn check_recovery(
        &self,
        image: &NvmImage,
        map: &AddressMap,
    ) -> Result<ListRecovery, ListCorruption> {
        let mut image = image.reader();
        let mut seen = 0u64;
        let mut p = image.read_u64(self.head_addr);
        while p != 0 {
            if !map.is_persistent(p) || !p.is_multiple_of(8) {
                return Err(ListCorruption::MalformedPointer { pointer: p });
            }
            if seen > self.appended || seen > 100_000_000 {
                return Err(ListCorruption::MalformedPointer { pointer: p });
            }
            let value = image.read_u64(p);
            if value & 0xFFFF_0000_0000_0000 != VALUE_MAGIC {
                return Err(ListCorruption::DanglingPointer { node: p });
            }
            seen += 1;
            p = image.read_u64(p + 8);
        }
        Ok(ListRecovery {
            reachable_nodes: seen,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbb_core::{PersistencyMode, System};
    use bbb_sim::SimConfig;

    fn setup(mode: PersistencyMode) -> (System, LinkedList, Palloc) {
        let sys = System::new(SimConfig::small_for_tests(), mode).unwrap();
        let map = sys.address_map().clone();
        let list = LinkedList::new(map.persistent_base());
        let palloc = Palloc::new(&map, 2, 4096);
        (sys, list, palloc)
    }

    fn run_appends(
        sys: &mut System,
        list: &mut LinkedList,
        palloc: &mut Palloc,
        n: u64,
        instrument: bool,
    ) {
        let map = sys.address_map().clone();
        for _ in 0..n {
            let ops = list
                .append_ops(&map, sys.arch_mem_mut(), palloc, 0, instrument)
                .expect("allocator space");
            sys.run_single_core(0, ops).unwrap();
        }
    }

    #[test]
    fn bbb_list_recovers_fully_without_flushes() {
        let (mut sys, mut list, mut palloc) = setup(PersistencyMode::BbbMemorySide);
        run_appends(&mut sys, &mut list, &mut palloc, 20, false);
        let map = sys.address_map().clone();
        let img = sys.crash_now(true);
        let r = list.check_recovery(&img, &map).expect("consistent");
        assert_eq!(r.reachable_nodes, 20, "every committed append durable");
    }

    #[test]
    fn eadr_list_recovers_fully_without_flushes() {
        let (mut sys, mut list, mut palloc) = setup(PersistencyMode::Eadr);
        run_appends(&mut sys, &mut list, &mut palloc, 20, false);
        let map = sys.address_map().clone();
        let img = sys.crash_now(true);
        let r = list.check_recovery(&img, &map).expect("consistent");
        assert_eq!(r.reachable_nodes, 20);
    }

    #[test]
    fn pmem_instrumented_list_is_consistent() {
        let (mut sys, mut list, mut palloc) = setup(PersistencyMode::Pmem);
        run_appends(&mut sys, &mut list, &mut palloc, 10, true);
        let map = sys.address_map().clone();
        let img = sys.crash_now(true);
        // Every instrumented append fully persisted before the next began,
        // so the full list must be there.
        let r = list.check_recovery(&img, &map).expect("consistent");
        assert_eq!(r.reachable_nodes, 10);
    }

    #[test]
    fn pmem_uninstrumented_list_loses_data() {
        let (mut sys, mut list, mut palloc) = setup(PersistencyMode::Pmem);
        run_appends(&mut sys, &mut list, &mut palloc, 20, false);
        let map = sys.address_map().clone();
        let img = sys.crash_now(true);
        // Without flushes the whole list (or a prefix) sits in volatile
        // caches; the image must NOT contain all 20 nodes.
        // Corruption (Err) is also an acceptable demonstration.
        if let Ok(r) = list.check_recovery(&img, &map) {
            assert!(
                r.reachable_nodes < 20,
                "volatile caches cannot have persisted everything"
            );
        }
    }

    #[test]
    fn checker_detects_dangling_head() {
        let (mut sys, list, _) = setup(PersistencyMode::BbbMemorySide);
        let map = sys.address_map().clone();
        // Forge a head pointing at uninitialized space.
        let bogus = map.persistent_base() + 0x2000;
        sys.preload_u64(list.head_addr(), bogus);
        let img = sys.crash_now(true);
        assert_eq!(
            list.check_recovery(&img, &map),
            Err(ListCorruption::DanglingPointer { node: bogus })
        );
    }

    #[test]
    fn checker_detects_malformed_pointer() {
        let (mut sys, list, _) = setup(PersistencyMode::BbbMemorySide);
        let map = sys.address_map().clone();
        sys.preload_u64(list.head_addr(), 0x3); // unaligned garbage
        let img = sys.crash_now(true);
        assert!(matches!(
            list.check_recovery(&img, &map),
            Err(ListCorruption::MalformedPointer { .. })
        ));
    }
}
