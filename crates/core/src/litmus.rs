//! Litmus-to-workload bridge: drives an explicit global op schedule
//! through the standard [`OpStream`] interface.
//!
//! Litmus programs fix a *global* order of ops across cores (the
//! candidate execution under test). The event-driven run loop serves
//! whichever core's clock is earliest, so the bridge enforces the order
//! itself: each core's ops wait in a queue, and a core whose turn has
//! not come receives short [`Op::Compute`] stalls until the scheduled
//! predecessor op has been issued. This lets the crash-point sweep
//! machinery ([`crate::System::run_until`], probed or not) replay a
//! litmus schedule cycle-accurately, crashing *inside* ops rather than
//! only at op boundaries.

use std::collections::VecDeque;

use bbb_cpu::Op;
use bbb_mem::ByteStore;

use crate::stream::OpStream;

/// Stall granted to a core waiting for its scheduled turn. Short enough
/// that the waiting core re-polls well inside any op's latency.
const GATE_STALL: u32 = 8;

/// An [`OpStream`] that replays a fixed `(core, op)` sequence in exactly
/// that global issue order.
pub struct ScheduledOps {
    /// Per-core op queues, in program order.
    queues: Vec<VecDeque<Op>>,
    /// Remaining global schedule, as core ids.
    order: VecDeque<usize>,
}

impl ScheduledOps {
    /// Builds the bridge for `cores` cores from a schedule of per-core
    /// ops.
    ///
    /// # Panics
    ///
    /// Panics if an op names a core `>= cores`.
    #[must_use]
    pub fn new(ops: &[(usize, Op)], cores: usize) -> Self {
        let mut queues = vec![VecDeque::new(); cores];
        let mut order = VecDeque::with_capacity(ops.len());
        for (core, op) in ops {
            assert!(*core < cores, "op scheduled on core {core} of {cores}");
            queues[*core].push_back(*op);
            order.push_back(*core);
        }
        Self { queues, order }
    }
}

impl OpStream for ScheduledOps {
    fn name(&self) -> &str {
        "litmus"
    }

    fn next_op(&mut self, core: usize, _arch: &mut ByteStore) -> Option<Op> {
        if self.queues[core].is_empty() {
            return None;
        }
        if self.order.front() == Some(&core) {
            self.order.pop_front();
            self.queues[core].pop_front()
        } else {
            // Not this core's turn: spin until the scheduled predecessor
            // has been issued.
            Some(Op::Compute { cycles: GATE_STALL })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PersistencyMode, RunCursor, StopAt, System};
    use bbb_sim::{AddressMap, SimConfig};

    #[test]
    fn schedule_order_is_the_commit_order() {
        let cfg = SimConfig::small_for_tests();
        let base = AddressMap::new(&cfg).persistent_base();
        // Alternating cores: c1's store to x must land between c0's two.
        let ops = vec![
            (0, Op::store_u64(base, 1)),
            (1, Op::store_u64(base, 2)),
            (0, Op::store_u64(base, 3)),
            (1, Op::store_u64(base + 0x40, 9)),
        ];
        let mut w = ScheduledOps::new(&ops, cfg.cores);
        let mut sys = System::new(cfg, PersistencyMode::Eadr).expect("config");
        let mut cursor = RunCursor::new(2);
        sys.run_until(&mut w, &mut cursor, StopAt::End, None);
        let img = sys.crash_image(true);
        assert_eq!(img.read_u64(base), 3, "c0's second store wins");
        assert_eq!(img.read_u64(base + 0x40), 9);
    }

    #[test]
    fn bridge_terminates_with_idle_tail_cores() {
        let cfg = SimConfig::small_for_tests();
        let base = AddressMap::new(&cfg).persistent_base();
        // Core 1 finishes long before core 0's delay tail.
        let ops = vec![
            (1, Op::store_u64(base, 5)),
            (0, Op::Compute { cycles: 5000 }),
            (0, Op::store_u64(base + 0x40, 6)),
        ];
        let mut w = ScheduledOps::new(&ops, cfg.cores);
        let mut sys = System::new(cfg, PersistencyMode::BbbMemorySide).expect("config");
        let mut cursor = RunCursor::new(2);
        sys.run_until(&mut w, &mut cursor, StopAt::End, None);
        let img = sys.crash_image(true);
        assert_eq!(img.read_u64(base), 5);
        assert_eq!(img.read_u64(base + 0x40), 6);
    }
}
