//! The processor-side persist buffer organization (paper §III-B).
//!
//! The design the paper evaluates and rejects: entries are individual
//! stores in program order (not blocks), because the buffer sits *outside*
//! the persistence domain boundary semantics that would allow reordering.
//! Consequences modeled here, matching the paper:
//!
//! * **Ordering**: entries drain strictly FCFS.
//! * **Coalescing**: permitted only between *back-to-back* stores to the
//!   same block ("when two stores are subsequent and involve the same
//!   block").
//! * **Write amplification**: nearly every persisting store eventually
//!   causes its own NVMM write — the source of the ~2.8× NVMM-write
//!   overhead reported in §V-C.
//!
//! Drained stores are applied to the NVMM media read-modify-write at block
//! granularity, each counting as one media write.

use std::collections::VecDeque;

use bbb_sim::{BbpbConfig, BlockAddr, Counter, Cycle, MemoryPort, Stats, TraceEvent, TraceLog};

use crate::bbpb::{AllocOutcome, InFlight};

/// One buffered store: payload bytes at an offset within a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreEntry {
    /// Target block.
    pub block: BlockAddr,
    /// Byte offset within the block.
    pub offset: usize,
    /// Store length in bytes.
    pub len: usize,
    /// Payload (`bytes[..len]`).
    pub bytes: [u8; 8],
    /// Commit cycle of the originating store (of the *last* store after
    /// coalescing) — the τ key cross-core crash drains merge by.
    pub committed: Cycle,
    /// Per-core commit sequence of the originating store (τ tiebreak
    /// within one core and cycle).
    pub seq: u64,
}

/// One core's processor-side persist buffer.
///
/// # Examples
///
/// ```
/// use bbb_core::ProcSidePb;
/// use bbb_mem::NvmmController;
/// use bbb_sim::{BbpbConfig, BlockAddr, MemTiming};
///
/// let mut nvmm = NvmmController::new(MemTiming::default());
/// let mut pb = ProcSidePb::new(&BbpbConfig::default());
/// let out = pb.push(0, BlockAddr::from_index(1), 0, &7u64.to_le_bytes(), 0, 0, &mut nvmm);
/// assert_eq!(out.done, 0);
/// ```
#[derive(Debug, Clone)]
pub struct ProcSidePb {
    capacity: usize,
    drain_trigger_level: usize,
    drain_stop_level: usize,
    drain_latency: Cycle,
    entries: VecDeque<StoreEntry>,
    in_flight: InFlight,
    allocations: Counter,
    coalesces: Counter,
    rejections: Counter,
    drains: Counter,
    /// Which core this buffer sits next to (trace attribution only; set by
    /// `PersistState::new`).
    pub(crate) core_id: usize,
    /// Drain-event recorder for the persist-order checker.
    pub(crate) trace: TraceLog,
    /// Monotone mutation counter: bumped whenever `entries` changes, so an
    /// unchanged version proves an unchanged crash drain set.
    version: u64,
}

impl ProcSidePb {
    /// Creates a processor-side buffer from the bbPB configuration (same
    /// entry count and drain policy; entries are stores, not blocks).
    #[must_use]
    pub fn new(cfg: &BbpbConfig) -> Self {
        Self {
            capacity: cfg.entries,
            drain_trigger_level: cfg.drain_policy.trigger_level(cfg.entries),
            drain_stop_level: cfg.drain_policy.stop_level(cfg.entries),
            drain_latency: cfg.drain_latency,
            entries: VecDeque::new(),
            in_flight: InFlight::default(),
            allocations: Counter::new(),
            coalesces: Counter::new(),
            rejections: Counter::new(),
            drains: Counter::new(),
            core_id: 0,
            trace: TraceLog::default(),
            version: 0,
        }
    }

    /// Monotone mutation counter over the buffered stores: equal versions
    /// within one buffer's lifetime prove identical contents.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Entries occupied at `now`.
    #[must_use]
    pub fn occupancy(&mut self, now: Cycle) -> usize {
        self.in_flight.advance(now);
        self.entries.len() + self.in_flight.len()
    }

    /// Offers a committed persisting store, tagged with its commit cycle
    /// and per-core sequence (the τ key crash drains merge by). Coalesces
    /// only into the youngest entry (program-order-adjacent, same block);
    /// otherwise allocates, stalling if full.
    #[allow(clippy::too_many_arguments)] // the τ tag rides with the store
    pub fn push(
        &mut self,
        now: Cycle,
        block: BlockAddr,
        offset: usize,
        bytes: &[u8],
        committed: Cycle,
        seq: u64,
        mem: &mut dyn MemoryPort,
    ) -> AllocOutcome {
        assert!(bytes.len() <= 8, "store payload exceeds 8 bytes");
        self.in_flight.advance(now);

        if let Some(last) = self.entries.back_mut() {
            if last.block == block && last.offset == offset && last.len == bytes.len() {
                last.bytes[..bytes.len()].copy_from_slice(bytes);
                // The entry now carries the newer store's value, so it
                // carries the newer store's commit tag too.
                last.committed = committed;
                last.seq = seq;
                self.version += 1;
                self.coalesces.inc();
                self.maybe_drain(now, mem);
                return AllocOutcome {
                    done: now,
                    coalesced: true,
                    rejected: false,
                };
            }
        }

        // A full buffer starts its drain burst before the store stalls.
        self.maybe_drain(now, mem);
        let mut t = now;
        let mut rejected = false;
        while self.entries.len() + self.in_flight.len() >= self.capacity {
            rejected = true;
            t = self.wait_for_free(t, mem);
        }
        if rejected {
            self.rejections.inc();
        }
        let mut payload = [0u8; 8];
        payload[..bytes.len()].copy_from_slice(bytes);
        self.entries.push_back(StoreEntry {
            block,
            offset,
            len: bytes.len(),
            bytes: payload,
            committed,
            seq,
        });
        self.version += 1;
        self.allocations.inc();
        self.maybe_drain(t, mem);
        AllocOutcome {
            done: t,
            coalesced: false,
            rejected,
        }
    }

    /// Watermark draining, strictly FCFS: when the buffer fills, a burst
    /// drains oldest entries until occupancy falls to the stop level (see
    /// [`crate::Bbpb::maybe_drain`] for the trigger/stop semantics).
    pub fn maybe_drain(&mut self, now: Cycle, mem: &mut dyn MemoryPort) {
        self.in_flight.advance(now);
        if self.entries.len() + self.in_flight.len() < self.drain_trigger_level {
            return;
        }
        while self.entries.len() > self.drain_stop_level {
            if !self.drain_oldest(now, mem) {
                break;
            }
            self.in_flight.advance(now);
        }
    }

    /// Drops every entry without writing anything (a *volatile* persist
    /// buffer losing power — the BEP baseline). Returns entries lost.
    pub fn crash_discard(&mut self) -> u64 {
        let lost = self.entries.len() as u64;
        if lost > 0 {
            self.version += 1;
        }
        self.entries.clear();
        self.in_flight.clear();
        lost
    }

    /// Drains every entry in order and returns the cycle the last one is
    /// durable — the completion time of an epoch barrier.
    pub fn drain_all_timed(&mut self, now: Cycle, mem: &mut dyn MemoryPort) -> Cycle {
        while self.drain_oldest(now, mem) {}
        let t = self.in_flight.latest().map_or(now, |f| f.max(now));
        self.in_flight.advance(t);
        t
    }

    /// Remote invalidation of `block`: program order requires draining
    /// every entry up to and including the last store to that block before
    /// another core may own it. Returns the number of entries drained.
    pub fn drain_through_block(
        &mut self,
        now: Cycle,
        block: BlockAddr,
        mem: &mut dyn MemoryPort,
    ) -> u64 {
        let last_idx = self.entries.iter().rposition(|e| e.block == block);
        let Some(last_idx) = last_idx else { return 0 };
        let mut n = 0;
        for _ in 0..=last_idx {
            if self.drain_oldest(now, mem) {
                n += 1;
            }
        }
        n
    }

    /// Buffered stores oldest-first (crash-cost accounting and tests).
    pub fn iter(&self) -> impl Iterator<Item = &StoreEntry> {
        self.entries.iter()
    }

    /// Ordered drains issued so far (cheap event probe).
    #[must_use]
    pub fn drain_count(&self) -> u64 {
        self.drains.get()
    }

    /// Exports counters under the `bbpb.` prefix (same keys as the
    /// memory-side buffer so the harness compares them directly).
    #[must_use]
    pub fn stats(&self) -> Stats {
        let mut s = Stats::new();
        s.set("bbpb.allocations", self.allocations.get());
        s.set("bbpb.coalesces", self.coalesces.get());
        s.set("bbpb.rejections", self.rejections.get());
        s.set("bbpb.drains", self.drains.get());
        s
    }

    /// Drains the single oldest entry: one PbDrain event, one media
    /// read-modify-write, one drain counted. The system's crash drain
    /// interleaves these across cores in coherence order. Returns false
    /// when nothing is buffered.
    pub(crate) fn drain_oldest(&mut self, now: Cycle, mem: &mut dyn MemoryPort) -> bool {
        let Some(e) = self.entries.pop_front() else {
            return false;
        };
        self.version += 1;
        self.trace.push(TraceEvent::PbDrain {
            core: self.core_id,
            block: e.block,
            cycle: now,
            forced: false,
        });
        // Read-modify-write of the target block at the controller.
        let persist = mem.rmw_block(now, e.block, e.offset, &e.bytes[..e.len]);
        self.in_flight.push(persist.max(now + self.drain_latency));
        self.drains.inc();
        true
    }

    fn wait_for_free(&mut self, now: Cycle, mem: &mut dyn MemoryPort) -> Cycle {
        if self.in_flight.is_empty() && !self.drain_oldest(now, mem) {
            return now;
        }
        let t = self.in_flight.earliest().map_or(now, |f| f.max(now));
        self.in_flight.advance(t);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbb_mem::NvmmController;
    use bbb_sim::{DrainPolicy, MemTiming};

    fn nvmm() -> NvmmController {
        NvmmController::new(MemTiming::default())
    }

    fn pb(entries: usize, pct: u8) -> ProcSidePb {
        ProcSidePb::new(&BbpbConfig {
            entries,
            drain_policy: DrainPolicy::Threshold { threshold_pct: pct },
            drain_latency: 0,
        })
    }

    fn b(i: u64) -> BlockAddr {
        BlockAddr::from_index(i)
    }

    #[test]
    fn per_store_entries_do_not_coalesce_across_blocks() {
        let mut n = nvmm();
        let mut p = pb(8, 100);
        p.push(0, b(1), 0, &[1u8; 8], 0, 0, &mut n);
        p.push(0, b(2), 0, &[2u8; 8], 0, 0, &mut n);
        p.push(0, b(1), 8, &[3u8; 8], 0, 0, &mut n);
        // Three separate entries: the third store is not adjacent to the
        // first even though it shares the block.
        assert_eq!(p.occupancy(0), 3);
        assert_eq!(p.stats().get("bbpb.coalesces"), 0);
    }

    #[test]
    fn adjacent_same_slot_stores_coalesce() {
        let mut n = nvmm();
        let mut p = pb(8, 100);
        p.push(0, b(1), 0, &[1u8; 8], 0, 0, &mut n);
        let out = p.push(1, b(1), 0, &[9u8; 8], 0, 0, &mut n);
        assert!(out.coalesced);
        assert_eq!(p.occupancy(1), 1);
    }

    #[test]
    fn drains_write_every_store() {
        let mut n = nvmm();
        let mut p = pb(8, 100);
        // Five stores into the SAME block at different offsets: the
        // memory-side buffer would write this block once; processor-side
        // writes it five times.
        for i in 0..5u64 {
            p.push(0, b(1), (i * 8) as usize, &i.to_le_bytes(), 0, 0, &mut n);
        }
        p.drain_all_timed(10, &mut n);
        assert_eq!(n.endurance().writes_to(b(1)), 5);
        // Final media contents reflect all stores in order.
        let img = n.crash_image();
        for i in 0..5u64 {
            assert_eq!(img.read_u64(b(1).base() + i * 8), i);
        }
    }

    #[test]
    fn fifo_drain_order() {
        let mut n = nvmm();
        let mut p = pb(8, 100);
        p.push(0, b(1), 0, &1u64.to_le_bytes(), 0, 0, &mut n);
        p.push(0, b(2), 0, &2u64.to_le_bytes(), 0, 0, &mut n);
        p.push(0, b(1), 0, &3u64.to_le_bytes(), 0, 0, &mut n);
        p.drain_all_timed(0, &mut n);
        // Last write to block 1 was value 3 (program order preserved).
        assert_eq!(n.crash_image().read_u64(b(1).base()), 3);
    }

    #[test]
    fn drain_through_block_respects_order() {
        let mut n = nvmm();
        let mut p = pb(8, 100);
        p.push(0, b(1), 0, &1u64.to_le_bytes(), 0, 0, &mut n);
        p.push(0, b(2), 0, &2u64.to_le_bytes(), 0, 0, &mut n);
        p.push(0, b(3), 0, &3u64.to_le_bytes(), 0, 0, &mut n);
        let drained = p.drain_through_block(5, b(2), &mut n);
        assert_eq!(drained, 2, "entries for blocks 1 and 2 drained in order");
        assert_eq!(p.occupancy(5), 1);
        assert_eq!(p.drain_through_block(5, b(9), &mut n), 0);
    }

    #[test]
    fn watermark_draining_kicks_in_at_capacity() {
        let mut n = nvmm();
        let mut p = pb(4, 75); // trigger at 4 occupied, stop at 3
        p.push(0, b(1), 0, &[1u8; 8], 0, 0, &mut n);
        p.push(0, b(2), 0, &[2u8; 8], 0, 0, &mut n);
        p.push(0, b(3), 0, &[3u8; 8], 0, 0, &mut n);
        assert_eq!(p.stats().get("bbpb.drains"), 0, "below trigger");
        p.push(0, b(4), 0, &[4u8; 8], 0, 0, &mut n);
        assert!(p.stats().get("bbpb.drains") >= 1);
    }

    /// A processor-side buffer that filters its in-flight drains with
    /// `retain` on every call. The reference the differential test
    /// compares against.
    struct RetainProcPb {
        capacity: usize,
        trigger: usize,
        stop: usize,
        drain_latency: Cycle,
        entries: VecDeque<(BlockAddr, usize, [u8; 8])>,
        in_flight: Vec<Cycle>,
    }

    impl RetainProcPb {
        fn new(cfg: &BbpbConfig) -> Self {
            Self {
                capacity: cfg.entries,
                trigger: cfg.drain_policy.trigger_level(cfg.entries),
                stop: cfg.drain_policy.stop_level(cfg.entries),
                drain_latency: cfg.drain_latency,
                entries: VecDeque::new(),
                in_flight: Vec::new(),
            }
        }

        fn advance(&mut self, now: Cycle) {
            self.in_flight.retain(|&f| f > now);
        }

        fn occupied(&self) -> usize {
            self.entries.len() + self.in_flight.len()
        }

        fn occupancy(&mut self, now: Cycle) -> usize {
            self.advance(now);
            self.occupied()
        }

        fn drain_oldest(&mut self, now: Cycle, mem: &mut dyn MemoryPort) -> bool {
            let Some((block, offset, bytes)) = self.entries.pop_front() else {
                return false;
            };
            let persist = mem.rmw_block(now, block, offset, &bytes);
            self.in_flight.push(persist.max(now + self.drain_latency));
            true
        }

        fn maybe_drain(&mut self, now: Cycle, mem: &mut dyn MemoryPort) {
            self.advance(now);
            if self.occupied() < self.trigger {
                return;
            }
            while self.entries.len() > self.stop && self.drain_oldest(now, mem) {
                self.advance(now);
            }
        }

        fn wait_for_free(&mut self, now: Cycle, mem: &mut dyn MemoryPort) -> Cycle {
            if self.in_flight.is_empty() && !self.drain_oldest(now, mem) {
                return now;
            }
            let t = self
                .in_flight
                .iter()
                .copied()
                .min()
                .map_or(now, |f| f.max(now));
            self.advance(t);
            t
        }

        fn push(
            &mut self,
            now: Cycle,
            block: BlockAddr,
            offset: usize,
            bytes: [u8; 8],
            mem: &mut dyn MemoryPort,
        ) -> AllocOutcome {
            self.advance(now);
            if let Some(last) = self.entries.back_mut() {
                if last.0 == block && last.1 == offset {
                    last.2 = bytes;
                    self.maybe_drain(now, mem);
                    return AllocOutcome {
                        done: now,
                        coalesced: true,
                        rejected: false,
                    };
                }
            }
            self.maybe_drain(now, mem);
            let (mut t, mut rejected) = (now, false);
            while self.occupied() >= self.capacity {
                rejected = true;
                t = self.wait_for_free(t, mem);
            }
            self.entries.push_back((block, offset, bytes));
            self.maybe_drain(t, mem);
            AllocOutcome {
                done: t,
                coalesced: false,
                rejected,
            }
        }

        fn drain_all_timed(&mut self, now: Cycle, mem: &mut dyn MemoryPort) -> Cycle {
            while self.drain_oldest(now, mem) {}
            let t = self
                .in_flight
                .iter()
                .copied()
                .max()
                .map_or(now, |f| f.max(now));
            self.advance(t);
            t
        }

        fn drain_through_block(&mut self, now: Cycle, block: BlockAddr, mem: &mut dyn MemoryPort) {
            if let Some(last) = self.entries.iter().rposition(|e| e.0 == block) {
                for _ in 0..=last {
                    self.drain_oldest(now, mem);
                }
            }
        }
    }

    #[test]
    fn ordered_in_flight_set_matches_the_retain_reference() {
        // Remote invalidations drain through a block at another core's
        // clock, so cycles are not monotone; a tiny WPQ makes drains slow
        // enough that pushes stall.
        let mut rng = bbb_sim::SplitMix64::new(0xB90C_0001);
        let mut rejections = 0;
        for case in 0..200 {
            let cfg = BbpbConfig {
                entries: 1 + rng.next_index(32),
                drain_policy: if rng.chance(1, 8) {
                    DrainPolicy::Eager
                } else {
                    DrainPolicy::Threshold {
                        threshold_pct: 50 + rng.next_below(51) as u8,
                    }
                },
                drain_latency: rng.next_below(200),
            };
            let timing = MemTiming {
                wpq_entries: 1 + rng.next_index(8),
                nvmm_channels: 1 + rng.next_index(4),
                ..MemTiming::default()
            };
            let (mut p, mut pm) = (ProcSidePb::new(&cfg), NvmmController::new(timing.clone()));
            let (mut r, mut rm) = (RetainProcPb::new(&cfg), NvmmController::new(timing));
            let blocks = 1 + rng.next_below(2 * cfg.entries as u64);
            let mut clocks = vec![0; 1 + rng.next_index(4)];
            for step in 0..400u64 {
                let core = rng.next_index(clocks.len());
                clocks[core] += rng.next_below(400);
                let now = clocks[core];
                let block = b(rng.next_below(blocks));
                let offset = 8 * rng.next_index(2);
                let bytes = step.to_le_bytes();
                let ctx = format!("case {case} step {step} at {now}");
                match rng.next_below(20) {
                    0 => assert_eq!(
                        p.drain_all_timed(now, &mut pm),
                        r.drain_all_timed(now, &mut rm),
                        "{ctx}"
                    ),
                    1 | 2 => {
                        p.drain_through_block(now, block, &mut pm);
                        r.drain_through_block(now, block, &mut rm);
                    }
                    _ => {
                        let got = p.push(now, block, offset, &bytes, now, step, &mut pm);
                        let want = r.push(now, block, offset, bytes, &mut rm);
                        assert_eq!(got, want, "{ctx}");
                        rejections += u64::from(got.rejected);
                        clocks[core] = got.done;
                    }
                }
                let t = now + rng.next_below(2000);
                assert_eq!(p.occupancy(t), r.occupancy(t), "{ctx}: occupancy({t})");
            }
        }
        assert!(rejections > 0, "the sequences never stalled a push");
    }

    #[test]
    #[should_panic(expected = "exceeds 8 bytes")]
    fn oversized_store_panics() {
        let mut n = nvmm();
        let mut p = pb(4, 75);
        p.push(0, b(1), 0, &[0u8; 9], 0, 0, &mut n);
    }
}
