//! The shared skeleton of the insert workloads: rtree, btree, ctree and
//! hashmap.
//!
//! Each of those workloads pre-populates a structure at set-up and then
//! inserts random keys during the measured window. Everything around the
//! insert itself is the same for all four, and lives here:
//!
//! * one RNG per core, split from the run seed;
//! * a per-core budget of measured inserts;
//! * set-up from a fixed seed, one insert per core in turn, stopping when
//!   the allocator runs out;
//! * the [`InsertLock`] handling for structures that append in place;
//! * the [`OpBuilder`] each insert runs against.
//!
//! A structure supplies only what differs, through [`InsertStructure`].
//! Its single `insert` body serves both phases: set-up runs it on a
//! set-up-mode builder (stores land in memory at once), the measured
//! window on a measured-mode builder (stores become ops).

use std::fmt;

use bbb_core::Workload;
use bbb_cpu::Op;
use bbb_mem::ByteStore;
use bbb_sim::{Addr, AddressMap, SplitMix64};

use crate::builder::OpBuilder;
use crate::locks::InsertLock;
use crate::palloc::Palloc;
use crate::suite::WorkloadParams;

/// What one insert workload's structure supplies to [`InsertWorkload`].
pub trait InsertStructure: Send + fmt::Debug {
    /// What an insert adds (a key, or a rectangle).
    type Key;

    /// Short name for reports (e.g. `"rtree"`).
    const NAME: &'static str;

    /// Seed of the set-up key stream. It is fixed per structure, so every
    /// run seed builds the same initial structure.
    const SETUP_SEED: u64;

    /// True when inserts mutate shared nodes in place and so must hold
    /// the [`InsertLock`] (see [`crate::locks`]).
    const LOCKED: bool;

    /// Draws the next key.
    fn random_key(rng: &mut SplitMix64) -> Self::Key;

    /// Writes the empty structure's roots into `arch` before set-up.
    fn init_roots(&self, arch: &mut ByteStore);

    /// Inserts `key` through `b`, allocating from `heap`. Returns
    /// `Some(true)` when the key was added, `Some(false)` when it was
    /// already present, and `None` when the allocator is exhausted.
    fn insert(&self, b: &mut OpBuilder<'_>, heap: &mut Heap, key: Self::Key) -> Option<bool>;
}

/// The allocation state an insert draws on.
#[derive(Debug)]
pub struct Heap {
    palloc: Palloc,
    core: usize,
    inserted: u64,
}

impl Heap {
    /// Allocates `size` bytes in the inserting core's arena; `None` when
    /// the arena is exhausted.
    pub fn alloc(&mut self, size: u64) -> Option<Addr> {
        self.palloc.alloc(self.core, size)
    }

    /// Keys added before the current insert (set-up and measured).
    #[must_use]
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// Runs one insert of `key` on `core` and counts it if it added the
    /// key. False when the allocator is exhausted.
    fn insert<S: InsertStructure>(
        &mut self,
        structure: &S,
        b: &mut OpBuilder<'_>,
        core: usize,
        key: S::Key,
    ) -> bool {
        self.core = core;
        match structure.insert(b, self, key) {
            Some(added) => {
                self.inserted += u64::from(added);
                true
            }
            None => false,
        }
    }
}

/// A persistent structure driven as a multi-core insert workload.
#[derive(Debug)]
pub struct InsertWorkload<S> {
    structure: S,
    map: AddressMap,
    heap: Heap,
    rngs: Vec<SplitMix64>,
    remaining: Vec<u64>,
    initial: u64,
    instrument: bool,
    lock: InsertLock,
}

impl<S: InsertStructure> InsertWorkload<S> {
    /// Creates the workload on `cores` cores. The allocator carves the
    /// persistent heap past its first `reserved` bytes (the roots) into
    /// one arena per core.
    #[must_use]
    pub fn new(
        structure: S,
        map: AddressMap,
        cores: usize,
        reserved: u64,
        params: WorkloadParams,
    ) -> Self {
        let mut master = SplitMix64::new(params.seed);
        Self {
            structure,
            heap: Heap {
                palloc: Palloc::new(&map, cores, reserved),
                core: 0,
                inserted: 0,
            },
            map,
            rngs: (0..cores).map(|_| master.split()).collect(),
            remaining: vec![params.per_core_ops; cores],
            initial: params.initial,
            instrument: params.instrument,
            lock: InsertLock::new(),
        }
    }

    /// Keys inserted (set-up + measured).
    #[must_use]
    pub fn inserted(&self) -> u64 {
        self.heap.inserted
    }

    /// Inserts `key` on `core` in set-up mode: the stores land in `arch`
    /// at once. False when the allocator is exhausted.
    pub(crate) fn insert_now(&mut self, arch: &mut ByteStore, core: usize, key: S::Key) -> bool {
        let mut b = OpBuilder::setup(&self.map, arch);
        self.heap.insert(&self.structure, &mut b, core, key)
    }
}

impl<S: InsertStructure> Workload for InsertWorkload<S> {
    fn name(&self) -> &str {
        S::NAME
    }

    fn setup(&mut self, arch: &mut ByteStore) {
        self.structure.init_roots(arch);
        let cores = self.rngs.len() as u64;
        let mut rng = SplitMix64::new(S::SETUP_SEED);
        for i in 0..self.initial {
            let key = S::random_key(&mut rng);
            if !self.insert_now(arch, (i % cores) as usize, key) {
                break; // allocator exhausted: the structure is as big as it gets
            }
        }
    }

    fn next_batch(&mut self, core: usize, arch: &mut ByteStore) -> Option<Vec<Op>> {
        if S::LOCKED {
            self.lock.release_if_held(core);
        }
        if core >= self.remaining.len() || self.remaining[core] == 0 {
            return None;
        }
        if S::LOCKED && !self.lock.try_acquire(core) {
            // Spin until the holder's batch commits.
            return Some(InsertLock::spin_batch());
        }
        self.remaining[core] -= 1;
        let key = S::random_key(&mut self.rngs[core]);
        let mut b = OpBuilder::new(&self.map, arch, self.instrument);
        if !self.heap.insert(&self.structure, &mut b, core, key) {
            self.lock.release();
            return None; // allocator exhausted: treat as end of stream
        }
        Some(b.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Btree, Ctree, Hashmap, Rtree};
    use bbb_core::{PersistencyMode, System};
    use bbb_mem::{NvmImage, PAGE_BYTES};
    use bbb_sim::SimConfig;

    /// Root reserve of the test heaps (the hashmap's 64 buckets fit).
    const RESERVE: u64 = 4096;

    fn workload<S: InsertStructure>(structure: S, map: &AddressMap, k: u64) -> InsertWorkload<S> {
        let params = WorkloadParams {
            initial: 40,
            per_core_ops: k,
            seed: 0x5EED,
            instrument: false,
        };
        InsertWorkload::new(structure, map.clone(), 1, RESERVE, params)
    }

    /// The first persistent-heap address at which `a` and `b` differ.
    fn first_difference(a: &ByteStore, b: &ByteStore, map: &AddressMap) -> Option<Addr> {
        let mut pages: Vec<Addr> = a.page_bases().chain(b.page_bases()).collect();
        pages.sort_unstable();
        pages.dedup();
        pages
            .into_iter()
            .filter(|&p| map.is_persistent(p))
            .find_map(|page| {
                let (mut x, mut y) = ([0u8; PAGE_BYTES], [0u8; PAGE_BYTES]);
                a.read(page, &mut x);
                b.read(page, &mut y);
                let i = x.iter().zip(&y).position(|(u, v)| u != v)?;
                Some(page + i as u64)
            })
    }

    /// Runs `k` measured inserts on a one-core machine to completion,
    /// then, through the same measured path, a forced duplicate of the
    /// first key and two fresh keys; applies the same keys to a second
    /// instance in set-up mode. Returns both `arch` stores, measured
    /// first.
    fn measured_and_setup<S: InsertStructure + Clone>(structure: S, k: u64) -> [ByteStore; 2]
    where
        S::Key: Clone,
    {
        let mut cfg = SimConfig::small_for_tests();
        cfg.cores = 1;
        let mut sys = System::new(cfg, PersistencyMode::Eadr).unwrap();
        let map = sys.address_map().clone();

        let mut measured = workload(structure.clone(), &map, k);
        sys.prepare(&mut measured);
        let mut key_stream = measured.rngs[0].clone();
        assert!(sys.run(&mut measured, u64::MAX).completed);
        let mut keys: Vec<S::Key> = (0..k + 2).map(|_| S::random_key(&mut key_stream)).collect();
        keys.insert(k as usize, keys[0].clone());
        for key in &keys[k as usize..] {
            let mut b = OpBuilder::new(&map, sys.arch_mem_mut(), false);
            assert!(measured
                .heap
                .insert(&measured.structure, &mut b, 0, key.clone()));
            let ops = b.finish();
            sys.run_single_core(0, ops).unwrap();
        }
        sys.drain_all_store_buffers();

        let mut arch = ByteStore::new();
        let mut reference = workload(structure, &map, 0);
        reference.setup(&mut arch);
        for key in keys {
            assert!(reference.insert_now(&mut arch, 0, key));
        }
        assert_eq!(measured.inserted(), reference.inserted(), "{}", S::NAME);
        [sys.arch_mem().clone(), arch]
    }

    fn base() -> Addr {
        AddressMap::new(&SimConfig::small_for_tests()).persistent_base()
    }

    #[test]
    fn setup_mode_builds_what_committed_measured_inserts_build() {
        let map = AddressMap::new(&SimConfig::small_for_tests());
        let [m, s] = measured_and_setup(Btree::new(base()), 200);
        assert_eq!(first_difference(&m, &s, &map), None, "btree");
        let [m, s] = measured_and_setup(Ctree::new(base()), 200);
        assert_eq!(first_difference(&m, &s, &map), None, "ctree");
        let [m, s] = measured_and_setup(Hashmap::new(base(), 64), 200);
        assert_eq!(first_difference(&m, &s, &map), None, "hashmap");
    }

    /// Known defect, pinned until it is fixed: a measured-mode load reads
    /// committed memory, so it does not see a store the same insert
    /// issued earlier, while a set-up-mode load does. Only rtree reads
    /// back its own store: a leaf split that overflows a full parent
    /// re-reads the parent entry whose box it just tightened, so the
    /// measured window rewrites that entry with the stale box. Both trees
    /// stay valid and hold every rectangle, but their boxes differ, and
    /// from there their shapes. Fixing it changes rtree's measured op streams; once it
    /// is fixed, this test fails and rtree joins the one above.
    #[test]
    fn rtree_measured_parent_splits_keep_a_stale_box() {
        let map = AddressMap::new(&SimConfig::small_for_tests());
        let [m, s] = measured_and_setup(Rtree::new(base()), 200);
        assert!(first_difference(&m, &s, &map).is_some(), "rtree now agrees");
        for arch in [m, s] {
            let image = NvmImage::from_store(arch);
            let leaves = crate::rtree::check_rtree_recovery(&image, &map, base()).unwrap();
            assert_eq!(leaves, 40 + 200 + 3, "every rectangle reachable");
        }
    }
}
