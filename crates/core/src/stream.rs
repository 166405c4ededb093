//! Pull-based op streaming — the server-scale workload interface.
//!
//! The batch [`Workload`](crate::Workload) contract materializes a `Vec<Op>` per
//! high-level operation; that is fine for the paper's microbenchmarks but
//! allocates on every request and invites pre-materializing whole op
//! vectors. [`OpStream`] is the O(live keys) alternative: the system
//! pulls exactly one op at a time and the generator keeps only its live
//! state (key tables, per-core cursors) — memory stays independent of
//! how many ops a run executes, which is what makes million-key ×
//! ten-million-op sweeps feasible.
//!
//! `OpStream` is the only op source the system drives: batch workloads
//! reach the run loop through [`BatchStream`](crate::BatchStream). Ops are
//! generated against the architectural memory at the simulation instant
//! the core is ready for them, and stores mutate `arch` only when they
//! *commit* inside the system (not at generation time), preserving honest
//! cross-core visibility.

use bbb_cpu::Op;
use bbb_mem::ByteStore;

/// A multi-threaded workload that yields one op at a time.
///
/// `Send` is a supertrait for the same reason as on [`Workload`](crate::Workload):
/// experiment points run on worker threads.
pub trait OpStream: Send {
    /// Short name for reports (e.g. `"kv-a"`).
    fn name(&self) -> &str;

    /// Builds initial state directly in architectural memory before the
    /// measured window (mirrored into the media by
    /// [`System::prepare_stream`](crate::System::prepare_stream)).
    /// Default: nothing to set up.
    fn setup(&mut self, arch: &mut ByteStore) {
        let _ = arch;
    }

    /// The next op `core` should commit, generated against the
    /// architectural memory at this simulation instant. `None` ends the
    /// core's stream permanently.
    fn next_op(&mut self, core: usize, arch: &mut ByteStore) -> Option<Op>;
}

impl OpStream for Box<dyn OpStream> {
    fn name(&self) -> &str {
        self.as_ref().name()
    }

    fn setup(&mut self, arch: &mut ByteStore) {
        self.as_mut().setup(arch);
    }

    fn next_op(&mut self, core: usize, arch: &mut ByteStore) -> Option<Op> {
        self.as_mut().next_op(core, arch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct CountStream {
        remaining: Vec<u32>,
        base: u64,
    }

    impl OpStream for CountStream {
        fn name(&self) -> &str {
            "count"
        }

        fn next_op(&mut self, core: usize, _arch: &mut ByteStore) -> Option<Op> {
            if self.remaining[core] == 0 {
                return None;
            }
            self.remaining[core] -= 1;
            Some(Op::store_u64(self.base + core as u64 * 8, 7))
        }
    }

    #[test]
    fn stream_is_object_safe() {
        let mut arch = ByteStore::new();
        let mut s: Box<dyn OpStream> = Box::new(CountStream {
            remaining: vec![1, 0],
            base: 0x1000,
        });
        assert_eq!(s.name(), "count");
        assert_eq!(s.next_op(0, &mut arch), Some(Op::store_u64(0x1000, 7)));
        assert!(s.next_op(0, &mut arch).is_none());
        assert!(s.next_op(1, &mut arch).is_none());
    }
}
