//! The `mutate` and `swap` array workloads (paper Table IV).
//!
//! A 1M-element `u64` array in the persistent heap; each operation either
//! mutates one random element in place or swaps two random elements
//! (23.8% persisting stores in the paper — the heaviest persist pressure
//! of the suite, back-to-back with almost no computation).
//!
//! The `NC`/`C` suffix selects sharing (paper §IV-B): **non-conflicting**
//! gives each thread its own array region, **conflicting** lets every
//! thread touch the whole array, so blocks — and under BBB their bbPB
//! entries — migrate between cores.
//!
//! Crash discipline for `swap`: the two elements are written as
//! `a' = b, b' = a` with a per-element sequence tag; under strict
//! persistency a crash can only lose a *suffix* of committed stores, which
//! the checker validates by confirming the multiset of values survived or
//! the interrupted pair is detectable. To keep that checkable we use
//! self-identifying values: element `i` initially holds `TAG | i`.

use bbb_core::Workload;
use bbb_cpu::Op;
use bbb_mem::{ByteStore, NvmImage};
use bbb_sim::{Addr, AddressMap, SplitMix64};

use crate::builder::OpBuilder;

/// High-bit tag marking legitimate array values.
pub const ARRAY_TAG: u64 = 0xA44A_0000_0000_0000;

/// Element update flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrayOpKind {
    /// `arr[i] = f(arr[i])` on one random element.
    Mutate,
    /// Swap two random elements.
    Swap,
}

/// Thread sharing pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sharing {
    /// Each core updates only its own array slice.
    NonConflicting,
    /// All cores update the whole array.
    Conflicting,
}

/// The array mutate/swap workload.
#[derive(Debug)]
pub struct ArrayWorkload {
    base: Addr,
    elements: u64,
    kind: ArrayOpKind,
    sharing: Sharing,
    map: AddressMap,
    rngs: Vec<SplitMix64>,
    remaining: Vec<u64>,
    instrument: bool,
}

impl ArrayWorkload {
    /// Creates the workload over `elements` `u64`s at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `elements` is not divisible by the core count (regions
    /// must be equal) or is zero.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        map: AddressMap,
        base: Addr,
        elements: u64,
        kind: ArrayOpKind,
        sharing: Sharing,
        cores: usize,
        per_core_ops: u64,
        seed: u64,
        instrument: bool,
    ) -> Self {
        assert!(elements > 0, "empty array");
        assert_eq!(
            elements % cores as u64,
            0,
            "elements must divide evenly across cores"
        );
        let mut master = SplitMix64::new(seed);
        Self {
            base,
            elements,
            kind,
            sharing,
            map,
            rngs: (0..cores).map(|_| master.split()).collect(),
            remaining: vec![per_core_ops; cores],
            instrument,
        }
    }

    fn slot(&self, index: u64) -> Addr {
        self.base + index * 8
    }

    /// Picks a random index within `core`'s allowed range.
    fn pick(&mut self, core: usize) -> u64 {
        let cores = self.rngs.len() as u64;
        match self.sharing {
            Sharing::Conflicting => self.rngs[core].next_below(self.elements),
            Sharing::NonConflicting => {
                let span = self.elements / cores;
                core as u64 * span + self.rngs[core].next_below(span)
            }
        }
    }
}

impl Workload for ArrayWorkload {
    fn name(&self) -> &str {
        match (self.kind, self.sharing) {
            (ArrayOpKind::Mutate, Sharing::NonConflicting) => "mutateNC",
            (ArrayOpKind::Mutate, Sharing::Conflicting) => "mutateC",
            (ArrayOpKind::Swap, Sharing::NonConflicting) => "swapNC",
            (ArrayOpKind::Swap, Sharing::Conflicting) => "swapC",
        }
    }

    fn setup(&mut self, arch: &mut ByteStore) {
        for i in 0..self.elements {
            arch.write_u64(self.slot(i), ARRAY_TAG | i);
        }
    }

    fn next_batch(&mut self, core: usize, arch: &mut ByteStore) -> Option<Vec<Op>> {
        if core >= self.remaining.len() || self.remaining[core] == 0 {
            return None;
        }
        self.remaining[core] -= 1;
        let map = self.map.clone();
        let mut b = OpBuilder::new(&map, arch, self.instrument);
        match self.kind {
            ArrayOpKind::Mutate => {
                let i = self.pick(core);
                let a = self.slot(i);
                let v = b.load_u64(a);
                // Mutate the low payload bits, preserving the tag.
                let nv = (v & 0xFFFF_0000_0000_0000) | ((v + 1) & 0xFFFF_FFFF_FFFF);
                b.store_u64(a, nv);
            }
            ArrayOpKind::Swap => {
                let i = self.pick(core);
                let j = self.pick(core);
                let (ai, aj) = (self.slot(i), self.slot(j));
                let vi = b.load_u64(ai);
                let vj = b.load_u64(aj);
                b.store_u64(ai, vj);
                b.store_u64(aj, vi);
            }
        }
        Some(b.finish())
    }
}

/// Validates a post-crash array image: every element carries the tag (no
/// torn/garbage values). Returns how many elements still hold their
/// *original* value (untouched or swapped back).
///
/// # Errors
///
/// Returns the index of the first untagged element.
pub fn check_array_recovery(image: &NvmImage, base: Addr, elements: u64) -> Result<u64, String> {
    let mut image = image.reader();
    let mut originals = 0;
    for i in 0..elements {
        let v = image.read_u64(base + i * 8);
        if v & 0xFFFF_0000_0000_0000 != ARRAY_TAG {
            return Err(format!("element {i} holds untagged value {v:#x}"));
        }
        if v == ARRAY_TAG | i {
            originals += 1;
        }
    }
    Ok(originals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbb_core::{PersistencyMode, System};
    use bbb_sim::SimConfig;

    const N: u64 = 64;

    fn build(
        mode: PersistencyMode,
        kind: ArrayOpKind,
        sharing: Sharing,
        per_core: u64,
    ) -> (System, ArrayWorkload) {
        let sys = System::new(SimConfig::small_for_tests(), mode).unwrap();
        let map = sys.address_map().clone();
        let base = map.persistent_base();
        let w = ArrayWorkload::new(map, base, N, kind, sharing, 2, per_core, 5, false);
        (sys, w)
    }

    #[test]
    fn names_follow_paper_convention() {
        for (kind, sharing, name) in [
            (ArrayOpKind::Mutate, Sharing::NonConflicting, "mutateNC"),
            (ArrayOpKind::Mutate, Sharing::Conflicting, "mutateC"),
            (ArrayOpKind::Swap, Sharing::NonConflicting, "swapNC"),
            (ArrayOpKind::Swap, Sharing::Conflicting, "swapC"),
        ] {
            let (_, w) = build(PersistencyMode::Eadr, kind, sharing, 0);
            assert_eq!(w.name(), name);
        }
    }

    #[test]
    fn nonconflicting_cores_stay_in_their_regions() {
        let (_, mut w) = build(
            PersistencyMode::Eadr,
            ArrayOpKind::Mutate,
            Sharing::NonConflicting,
            0,
        );
        for _ in 0..100 {
            assert!(w.pick(0) < N / 2);
            assert!(w.pick(1) >= N / 2);
        }
    }

    #[test]
    fn swaps_preserve_value_multiset_under_bbb() {
        let (mut sys, mut w) = build(
            PersistencyMode::BbbMemorySide,
            ArrayOpKind::Swap,
            Sharing::NonConflicting,
            30,
        );
        sys.prepare(&mut w);
        let summary = sys.run(&mut w, u64::MAX);
        assert!(summary.completed);
        sys.drain_all_store_buffers();
        sys.check_invariants();
        let base = sys.address_map().persistent_base();
        let img = sys.crash_now(true);
        check_array_recovery(&img, base, N).expect("all values tagged");
        // Complete (uninterrupted) swaps preserve the multiset exactly.
        let mut values: Vec<u64> = (0..N).map(|i| img.read_u64(base + i * 8)).collect();
        values.sort_unstable();
        let expected: Vec<u64> = (0..N).map(|i| ARRAY_TAG | i).collect();
        assert_eq!(values, expected);
    }

    #[test]
    fn mutations_are_durable_under_bbb() {
        let (mut sys, mut w) = build(
            PersistencyMode::BbbMemorySide,
            ArrayOpKind::Mutate,
            Sharing::Conflicting,
            20,
        );
        sys.prepare(&mut w);
        sys.run(&mut w, u64::MAX);
        sys.drain_all_store_buffers();
        let base = sys.address_map().persistent_base();
        let img = sys.crash_now(true);
        let originals = check_array_recovery(&img, base, N).expect("tagged");
        assert!(originals < N, "40 mutations must have changed something");
    }

    #[test]
    fn crash_mid_run_never_tears_under_bbb() {
        let (mut sys, mut w) = build(
            PersistencyMode::BbbMemorySide,
            ArrayOpKind::Swap,
            Sharing::Conflicting,
            100,
        );
        sys.prepare(&mut w);
        sys.run(&mut w, 137); // arbitrary mid-op cut
        let base = sys.address_map().persistent_base();
        let img = sys.crash_now(true);
        check_array_recovery(&img, base, N).expect("no garbage values ever");
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn uneven_partition_panics() {
        let map = AddressMap::new(&SimConfig::small_for_tests());
        let base = map.persistent_base();
        let _ = ArrayWorkload::new(
            map,
            base,
            63,
            ArrayOpKind::Mutate,
            Sharing::NonConflicting,
            2,
            0,
            0,
            false,
        );
    }
}
