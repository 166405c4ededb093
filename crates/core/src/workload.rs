//! The batch workload interface.
//!
//! Workloads run *execution-driven at operation granularity*: when a core
//! is ready for work, the system asks for the next high-level operation's
//! op sequence, generated against the functional architectural memory at
//! that simulation instant. Cores thus interleave operations in simulated-
//! time order, and the op payloads carry real bytes into the timing model.
//!
//! [`Workload`] is a generator-side convenience: the system drives only
//! [`OpStream`]s, and a batch workload reaches the run loop through
//! [`BatchStream`], which queues each batch and hands it out one op at a
//! time.

use std::collections::VecDeque;

use bbb_cpu::Op;
use bbb_mem::ByteStore;

use crate::stream::OpStream;

/// A multi-threaded workload feeding the system simulator.
///
/// Implementations live in `bbb-workloads` (the paper's Table IV set); the
/// trait is defined here so the system can drive any workload without a
/// dependency cycle.
///
/// `Send` is a supertrait: experiment points run on worker threads in the
/// experiment runner, so a workload must be movable across threads. All
/// implementations are plain owned data (no `Rc`/`RefCell`), which this
/// bound now guarantees at compile time.
pub trait Workload: Send {
    /// Short name for reports (e.g. `"rtree"`).
    fn name(&self) -> &str;

    /// Builds the workload's initial state (e.g. the 1M-node structure the
    /// paper pre-populates) directly in architectural memory, before the
    /// measured window. The system mirrors `arch` into the backing media
    /// afterwards. Default: nothing to set up.
    fn setup(&mut self, arch: &mut ByteStore) {
        let _ = arch;
    }

    /// Produces the op sequence of `core`'s next high-level operation,
    /// computed against (and applied to) the architectural memory `arch`.
    /// Returns `None` when the core has no more work.
    fn next_batch(&mut self, core: usize, arch: &mut ByteStore) -> Option<Vec<Op>>;
}

impl Workload for Box<dyn Workload> {
    fn name(&self) -> &str {
        self.as_ref().name()
    }

    fn setup(&mut self, arch: &mut ByteStore) {
        self.as_mut().setup(arch);
    }

    fn next_batch(&mut self, core: usize, arch: &mut ByteStore) -> Option<Vec<Op>> {
        self.as_mut().next_batch(core, arch)
    }
}

impl<W: Workload + ?Sized> Workload for &mut W {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn setup(&mut self, arch: &mut ByteStore) {
        (**self).setup(arch);
    }

    fn next_batch(&mut self, core: usize, arch: &mut ByteStore) -> Option<Vec<Op>> {
        (**self).next_batch(core, arch)
    }
}

/// Feeds a batch [`Workload`] to the run loop as an [`OpStream`]: each
/// core's batch is queued here and handed out one op at a time, and the
/// next batch is generated only when the core's queue is empty — at the
/// simulation instant the core is ready for it, exactly as the batch
/// contract promises. The queues belong to the adapter, so a run
/// advanced in increments keeps one adapter alive across the
/// increments.
#[derive(Debug)]
pub struct BatchStream<W> {
    workload: W,
    queues: Vec<VecDeque<Op>>,
}

impl<W: Workload> BatchStream<W> {
    /// Wraps `workload` with empty per-core queues.
    #[must_use]
    pub fn new(workload: W) -> Self {
        Self {
            workload,
            queues: Vec::new(),
        }
    }
}

impl<W: Workload> OpStream for BatchStream<W> {
    fn name(&self) -> &str {
        self.workload.name()
    }

    fn setup(&mut self, arch: &mut ByteStore) {
        self.workload.setup(arch);
    }

    fn next_op(&mut self, core: usize, arch: &mut ByteStore) -> Option<Op> {
        if core >= self.queues.len() {
            self.queues.resize_with(core + 1, VecDeque::new);
        }
        loop {
            if let Some(op) = self.queues[core].pop_front() {
                return Some(op);
            }
            let batch = self.workload.next_batch(core, arch)?;
            self.queues[core].extend(batch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial workload: each core stores an incrementing counter to its
    /// own slot `n` times.
    struct CounterWorkload {
        remaining: Vec<u32>,
        base: u64,
    }

    impl Workload for CounterWorkload {
        fn name(&self) -> &str {
            "counter"
        }

        fn next_batch(&mut self, core: usize, arch: &mut ByteStore) -> Option<Vec<Op>> {
            if self.remaining[core] == 0 {
                return None;
            }
            self.remaining[core] -= 1;
            let slot = self.base + core as u64 * 8;
            let v = arch.read_u64(slot) + 1;
            arch.write_u64(slot, v);
            Some(vec![Op::load_u64(slot), Op::store_u64(slot, v)])
        }
    }

    #[test]
    fn workload_is_object_safe_and_drives_arch_memory() {
        let mut arch = ByteStore::new();
        let mut w: Box<dyn Workload> = Box::new(CounterWorkload {
            remaining: vec![2, 1],
            base: 0x1000,
        });
        assert_eq!(w.name(), "counter");
        assert!(w.next_batch(0, &mut arch).is_some());
        assert!(w.next_batch(0, &mut arch).is_some());
        assert!(w.next_batch(0, &mut arch).is_none());
        assert!(w.next_batch(1, &mut arch).is_some());
        assert_eq!(arch.read_u64(0x1000), 2);
        assert_eq!(arch.read_u64(0x1008), 1);
    }

    #[test]
    fn batch_stream_hands_out_batches_op_by_op() {
        let mut arch = ByteStore::new();
        let mut s = BatchStream::new(CounterWorkload {
            remaining: vec![1, 1],
            base: 0x1000,
        });
        assert_eq!(s.name(), "counter");
        // Core 1 pulls first: the adapter grows its queues on demand.
        assert_eq!(s.next_op(1, &mut arch), Some(Op::load_u64(0x1008)));
        // The batch was generated (and applied to arch) on the first pull.
        assert_eq!(arch.read_u64(0x1008), 1);
        assert_eq!(s.next_op(1, &mut arch), Some(Op::store_u64(0x1008, 1)));
        assert_eq!(s.next_op(1, &mut arch), None);
        assert_eq!(s.next_op(0, &mut arch), Some(Op::load_u64(0x1000)));
        assert_eq!(s.next_op(0, &mut arch), Some(Op::store_u64(0x1000, 1)));
        assert_eq!(s.next_op(0, &mut arch), None);
    }
}
