//! Building op sequences with persistency-mode-aware instrumentation.
//!
//! [`OpBuilder`] is the bridge between a data structure's plain code and
//! the simulator. Every structure writes its operation once, as loads and
//! stores against a builder; the builder's mode decides what those
//! accesses do:
//!
//! * **Measured** ([`OpBuilder::new`]): loads read *committed*
//!   architectural memory to plan the operation, and stores append
//!   [`Op`]s whose effects the simulator applies to architectural memory
//!   when they commit (in `System::step_op`) — never at generation time.
//!   That ordering is load-bearing for crash realism: if generation wrote
//!   memory eagerly, a second core could chain to a node whose publishing
//!   store has not yet committed, producing crash images (publish visible
//!   before contents) that no real coherence protocol allows. When
//!   *instrumentation* is on — the PMEM baseline — each persisting store
//!   is followed by `clwb` + `sfence`, exactly the transformation the
//!   paper's Fig. 2 → Fig. 3 shows a programmer must perform by hand.
//!   Under BBB/eADR instrumentation stays off and the very same structure
//!   code is crash consistent.
//! * **Set-up** ([`OpBuilder::setup`]): loads read architectural memory
//!   and stores write it directly; no op is collected. Workloads build
//!   their pre-populated structure (the paper's 1M nodes) this way, with
//!   the same insert code the measured window runs.

use bbb_cpu::Op;
use bbb_mem::ByteStore;
use bbb_sim::{Addr, AddressMap};

/// Runs one high-level operation's loads and stores, either collecting
/// them as ops (measured) or applying them to memory (set-up).
///
/// # Examples
///
/// ```
/// use bbb_mem::ByteStore;
/// use bbb_sim::{AddressMap, SimConfig};
/// use bbb_workloads::OpBuilder;
///
/// let map = AddressMap::new(&SimConfig::default());
/// let mut arch = ByteStore::new();
/// let a = map.persistent_base();
///
/// // Uninstrumented (BBB/eADR): one store, no flushes.
/// let mut b = OpBuilder::new(&map, &mut arch, false);
/// b.store_u64(a, 7);
/// assert_eq!(b.finish().len(), 1);
///
/// // Instrumented (PMEM): store + clwb + sfence.
/// let mut b = OpBuilder::new(&map, &mut arch, true);
/// b.store_u64(a, 7);
/// assert_eq!(b.finish().len(), 3);
///
/// // Set-up: the store lands in memory, no op is collected.
/// let mut b = OpBuilder::setup(&map, &mut arch);
/// b.store_u64(a, 7);
/// assert!(b.finish().is_empty());
/// assert_eq!(arch.read_u64(a), 7);
/// ```
#[derive(Debug)]
pub struct OpBuilder<'a> {
    map: &'a AddressMap,
    arch: &'a mut ByteStore,
    instrument: bool,
    /// `None` in set-up mode: stores write `arch` and nothing is collected.
    ops: Option<Vec<Op>>,
}

impl<'a> OpBuilder<'a> {
    /// A measured-mode builder. `instrument` inserts `clwb`+`sfence`
    /// after every persisting store (strict persistency in software, the
    /// PMEM way).
    #[must_use]
    pub fn new(map: &'a AddressMap, arch: &'a mut ByteStore, instrument: bool) -> Self {
        Self {
            map,
            arch,
            instrument,
            ops: Some(Vec::new()),
        }
    }

    /// A set-up-mode builder: loads read `arch`, stores write it, and no
    /// op is collected.
    #[must_use]
    pub fn setup(map: &'a AddressMap, arch: &'a mut ByteStore) -> Self {
        Self {
            map,
            arch,
            instrument: false,
            ops: None,
        }
    }

    /// Reads a `u64` from architectural memory (emitting the load op in
    /// measured mode).
    pub fn load_u64(&mut self, addr: Addr) -> u64 {
        if let Some(ops) = &mut self.ops {
            ops.push(Op::load_u64(addr));
        }
        self.arch.read_u64(addr)
    }

    /// Set-up mode writes architectural memory. Measured mode emits the
    /// store op (plus flush/fence when instrumenting and the target is
    /// persistent) and deliberately does NOT write memory — the simulator
    /// applies the store when it commits, so other cores' generators can
    /// never observe it early.
    pub fn store_u64(&mut self, addr: Addr, value: u64) {
        let Some(ops) = &mut self.ops else {
            self.arch.write_u64(addr, value);
            return;
        };
        ops.push(Op::store_u64(addr, value));
        if self.instrument && self.map.is_persistent(addr) {
            ops.push(Op::Clwb { addr });
            ops.push(Op::Fence);
        }
    }

    /// Finishes the operation, returning its op sequence (empty in
    /// set-up mode).
    #[must_use]
    pub fn finish(self) -> Vec<Op> {
        self.ops.unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbb_sim::SimConfig;

    fn map() -> AddressMap {
        AddressMap::new(&SimConfig::small_for_tests())
    }

    #[test]
    fn load_reads_arch_and_emits_op() {
        let m = map();
        let mut arch = ByteStore::new();
        arch.write_u64(m.persistent_base(), 0x42);
        let mut b = OpBuilder::new(&m, &mut arch, false);
        let v = b.load_u64(m.persistent_base());
        assert_eq!(v, 0x42);
        let ops = b.finish();
        assert_eq!(ops.len(), 1);
        assert!(ops[0].is_load());
    }

    #[test]
    fn instrumentation_only_touches_persistent_stores() {
        let m = map();
        let mut arch = ByteStore::new();
        let mut b = OpBuilder::new(&m, &mut arch, true);
        b.store_u64(0x100, 1); // DRAM address
        b.store_u64(m.persistent_base(), 2); // persistent
        let ops = b.finish();
        // DRAM store alone; persistent store + clwb + fence.
        assert_eq!(ops.len(), 4);
        assert!(matches!(ops[1], Op::Store { .. }));
        assert!(matches!(ops[2], Op::Clwb { .. }));
        assert!(matches!(ops[3], Op::Fence));
    }

    #[test]
    fn stores_do_not_touch_arch_memory_at_generation_time() {
        // Committed-state discipline: the simulator writes architectural
        // memory when the store commits, so generation must not.
        let m = map();
        let mut arch = ByteStore::new();
        let mut b = OpBuilder::new(&m, &mut arch, false);
        b.store_u64(m.persistent_base() + 8, 99);
        assert_eq!(b.finish().len(), 1);
        assert_eq!(arch.read_u64(m.persistent_base() + 8), 0);
    }

    #[test]
    fn setup_mode_applies_stores_and_collects_nothing() {
        let m = map();
        let mut arch = ByteStore::new();
        let a = m.persistent_base();
        let mut b = OpBuilder::setup(&m, &mut arch);
        b.store_u64(a, 5);
        assert_eq!(b.load_u64(a), 5, "set-up loads see set-up stores");
        assert!(b.finish().is_empty());
        assert_eq!(arch.read_u64(a), 5);
    }
}
