//! The NVMM controller's write-pending queue (WPQ).
//!
//! Under ADR the WPQ is the point of persistency: a write is durable the
//! cycle it is accepted, because a capacitor guarantees the queue drains to
//! media on power failure (paper §I footnote 1, §VI "eADR"). The WPQ also
//! coalesces writes to a block that is still queued, which matters for the
//! NVMM write-endurance comparison.
//!
//! Timing is analytic: each accepted entry is immediately assigned a media
//! start/completion window on the controller's channels; the entry occupies
//! a WPQ slot until its media write completes.
//!
//! Every NVMM write passes through [`WritePendingQueue::offer`], so the
//! queue keeps its entries in completion order as well as by block: a
//! min-heap of `(completion, block)` events lets an offer retire expired
//! entries and find the earliest completion without scanning the queue.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use bbb_sim::{BlockAddr, Counter, Cycle, FxHashMap, Stats, BLOCK_BYTES};

use crate::sched::ChannelScheduler;

#[derive(Debug, Clone)]
struct Entry {
    start: Cycle,
    completion: Cycle,
}

/// Outcome of offering a write to the WPQ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WpqAccept {
    /// Cycle the write was accepted — the point of persistency under ADR.
    pub persist: Cycle,
    /// Cycle the media write completes (equals `persist` for coalesced
    /// writes, which piggyback on the queued entry).
    pub media_completion: Cycle,
    /// True if the write merged into an already-queued entry for the same
    /// block instead of consuming a new media write.
    pub coalesced: bool,
}

/// A fixed-capacity write-pending queue with ADR semantics.
///
/// # Examples
///
/// ```
/// use bbb_mem::{ChannelScheduler, WritePendingQueue};
/// use bbb_sim::BlockAddr;
///
/// let mut wpq = WritePendingQueue::new(8);
/// let mut media = ChannelScheduler::new(2);
/// let accept = wpq.offer(0, BlockAddr::from_index(1), &mut media, 1000);
/// assert_eq!(accept.persist, 0); // durable on acceptance (ADR)
/// ```
#[derive(Debug, Clone)]
pub struct WritePendingQueue {
    capacity: usize,
    entries: FxHashMap<BlockAddr, Entry>,
    /// One `(completion, block)` event per media write, earliest first. An
    /// event is live while `entries[block].completion == completion`; an
    /// entry overwritten by a newer write to its block strands its event,
    /// which [`WritePendingQueue::purge`] discards when it surfaces.
    completions: BinaryHeap<Reverse<(Cycle, BlockAddr)>>,
    media_writes: Counter,
    coalesced: Counter,
    backpressure_events: Counter,
}

impl WritePendingQueue {
    /// Creates a WPQ holding up to `capacity` block entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "WPQ capacity must be positive");
        Self {
            capacity,
            entries: FxHashMap::default(),
            completions: BinaryHeap::new(),
            media_writes: Counter::new(),
            coalesced: Counter::new(),
            backpressure_events: Counter::new(),
        }
    }

    /// Capacity in block entries.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries still occupying the queue at `now` (media write not yet
    /// complete).
    #[must_use]
    pub fn occupancy(&self, now: Cycle) -> usize {
        self.entries.values().filter(|e| e.completion > now).count()
    }

    /// Offers a block write arriving at `now`. `media` schedules the drain
    /// to the NVM media with `write_latency` per block.
    ///
    /// If the block is already queued and its media write has not started,
    /// the write coalesces (no new media write). If the queue is full, the
    /// write is accepted only when the earliest entry completes
    /// (backpressure) — the returned `persist` reflects that stall.
    pub fn offer(
        &mut self,
        now: Cycle,
        block: BlockAddr,
        media: &mut ChannelScheduler,
        write_latency: Cycle,
    ) -> WpqAccept {
        // After `purge(now)` every entry completes after `now`, so the
        // map's size is the occupancy at `now` and the earliest live event
        // is the earliest completion.
        self.purge(now);
        let mut accept = now;
        if self.coalescable(block, now).is_none() && self.entries.len() >= self.capacity {
            self.backpressure_events.inc();
            accept = self.earliest_completion().unwrap_or(now);
            self.purge(accept);
        }
        // The coalesce decision is made at the cycle the write is actually
        // accepted. The check used to run at `now` only, so a write that
        // stalled on a full queue was never re-checked against a same-block
        // entry still queued at `accept` — double-counting it as a fresh
        // media write.
        if let Some(completion) = self.coalescable(block, accept) {
            self.coalesced.inc();
            return WpqAccept {
                persist: accept,
                media_completion: completion,
                coalesced: true,
            };
        }
        let (start, completion) = media.schedule(accept, write_latency);
        self.entries.insert(block, Entry { start, completion });
        self.completions.push(Reverse((completion, block)));
        self.media_writes.inc();
        WpqAccept {
            persist: accept,
            media_completion: completion,
            coalesced: false,
        }
    }

    /// The completion cycle of a queued same-block entry a write arriving
    /// at `t` can merge into — the entry's media write must not have
    /// started, because an in-flight write cannot absorb new data.
    fn coalescable(&self, block: BlockAddr, t: Cycle) -> Option<Cycle> {
        self.entries
            .get(&block)
            .filter(|e| e.start > t)
            .map(|e| e.completion)
    }

    /// True if `block` still has a queued entry at `now` (read forwarding).
    #[must_use]
    pub fn holds(&self, block: BlockAddr, now: Cycle) -> bool {
        self.entries.get(&block).is_some_and(|e| e.completion > now)
    }

    /// True if the `(completion, block)` event still names its block's
    /// queued entry.
    fn is_live(&self, (completion, block): (Cycle, BlockAddr)) -> bool {
        self.entries
            .get(&block)
            .is_some_and(|e| e.completion == completion)
    }

    /// Drops entries whose media writes have completed by `now`: pops the
    /// expired events, removing each live one's entry. Every entry has a
    /// live event, so no expired entry is left behind.
    fn purge(&mut self, now: Cycle) {
        while let Some(&Reverse(event)) = self.completions.peek() {
            if event.0 > now {
                break;
            }
            self.completions.pop();
            if self.is_live(event) {
                self.entries.remove(&event.1);
            }
        }
    }

    /// The earliest completion among queued entries, discarding stale
    /// events that reach the top of the heap on the way.
    fn earliest_completion(&mut self) -> Option<Cycle> {
        while let Some(&Reverse(event)) = self.completions.peek() {
            if self.is_live(event) {
                return Some(event.0);
            }
            self.completions.pop();
        }
        None
    }

    /// Bytes that the flush-on-fail battery must drain if power is lost at
    /// `now` — every still-queued entry.
    #[must_use]
    pub fn crash_drain_bytes(&self, now: Cycle) -> u64 {
        self.occupancy(now) as u64 * BLOCK_BYTES as u64
    }

    /// Backpressure stalls so far (allocation-free event probe).
    #[must_use]
    pub fn backpressure_count(&self) -> u64 {
        self.backpressure_events.get()
    }

    /// Exports counters under the `wpq.` prefix.
    #[must_use]
    pub fn stats(&self) -> Stats {
        let mut s = Stats::new();
        s.set("wpq.media_writes", self.media_writes.get());
        s.set("wpq.coalesced", self.coalesced.get());
        s.set("wpq.backpressure_events", self.backpressure_events.get());
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wpq_and_media() -> (WritePendingQueue, ChannelScheduler) {
        (WritePendingQueue::new(4), ChannelScheduler::new(1))
    }

    const WLAT: Cycle = 1000;

    #[test]
    fn accept_is_immediate_with_space() {
        let (mut q, mut m) = wpq_and_media();
        let a = q.offer(5, BlockAddr::from_index(1), &mut m, WLAT);
        assert_eq!(a.persist, 5);
        assert_eq!(a.media_completion, 5 + WLAT);
        assert!(!a.coalesced);
        assert_eq!(q.occupancy(5), 1);
    }

    #[test]
    fn coalesces_queued_block() {
        let (mut q, mut m) = wpq_and_media();
        // First write starts immediately; a write to a *different* block
        // queues behind it on the single channel, so its start is in the
        // future and a third write to that block can coalesce.
        q.offer(0, BlockAddr::from_index(1), &mut m, WLAT);
        let b = q.offer(0, BlockAddr::from_index(2), &mut m, WLAT);
        assert_eq!(b.persist, 0);
        let c = q.offer(10, BlockAddr::from_index(2), &mut m, WLAT);
        assert!(c.coalesced);
        assert_eq!(c.media_completion, b.media_completion);
        assert_eq!(q.stats().get("wpq.media_writes"), 2);
        assert_eq!(q.stats().get("wpq.coalesced"), 1);
    }

    #[test]
    fn started_entry_does_not_coalesce() {
        let (mut q, mut m) = wpq_and_media();
        q.offer(0, BlockAddr::from_index(1), &mut m, WLAT); // starts at 0
        let again = q.offer(10, BlockAddr::from_index(1), &mut m, WLAT);
        assert!(
            !again.coalesced,
            "in-flight media write cannot absorb new data"
        );
        assert_eq!(q.stats().get("wpq.media_writes"), 2);
    }

    #[test]
    fn backpressure_when_full() {
        let (mut q, mut m) = wpq_and_media();
        for i in 0..4 {
            q.offer(0, BlockAddr::from_index(i), &mut m, WLAT);
        }
        assert_eq!(q.occupancy(0), 4);
        let a = q.offer(0, BlockAddr::from_index(99), &mut m, WLAT);
        // Earliest completion on the single channel is WLAT.
        assert_eq!(a.persist, WLAT);
        assert_eq!(q.stats().get("wpq.backpressure_events"), 1);
    }

    #[test]
    fn full_queue_merges_same_block_write_without_backpressure() {
        // Regression for the backpressure coalesce gap: a mergeable write
        // must never stall on a full queue, pay a backpressure event, or
        // count as a fresh media write.
        let mut q = WritePendingQueue::new(2);
        let mut m = ChannelScheduler::new(1);
        q.offer(0, BlockAddr::from_index(1), &mut m, WLAT); // starts at 0
        q.offer(0, BlockAddr::from_index(2), &mut m, WLAT); // starts at WLAT
        assert_eq!(q.occupancy(5), 2, "queue full");
        let a = q.offer(5, BlockAddr::from_index(2), &mut m, WLAT);
        assert!(a.coalesced);
        assert_eq!(a.persist, 5);
        assert_eq!(q.stats().get("wpq.backpressure_events"), 0);
        assert_eq!(q.stats().get("wpq.media_writes"), 2);
    }

    #[test]
    fn coalesce_check_runs_at_accept_after_backpressure() {
        // A same-block entry whose media write is in flight cannot absorb
        // the new write, so the write backpressures; the stall ends exactly
        // when that entry completes, the accept-time re-check finds it
        // purged, and the write correctly counts as fresh.
        let mut q = WritePendingQueue::new(2);
        let mut m = ChannelScheduler::new(1);
        q.offer(0, BlockAddr::from_index(1), &mut m, WLAT); // starts at 0
        q.offer(0, BlockAddr::from_index(2), &mut m, WLAT); // starts at WLAT
        let a = q.offer(5, BlockAddr::from_index(1), &mut m, WLAT);
        assert!(!a.coalesced, "in-flight media write cannot absorb new data");
        assert_eq!(a.persist, WLAT, "stalled until block 1's write completed");
        assert_eq!(q.stats().get("wpq.backpressure_events"), 1);
        assert_eq!(q.stats().get("wpq.media_writes"), 3);
    }

    #[test]
    fn coalesce_window_is_start_time_not_completion() {
        let mut q = WritePendingQueue::new(4);
        let mut m = ChannelScheduler::new(1);
        q.offer(0, BlockAddr::from_index(1), &mut m, WLAT); // starts at 0
        q.offer(0, BlockAddr::from_index(2), &mut m, WLAT); // starts at WLAT
        assert_eq!(q.coalescable(BlockAddr::from_index(1), 5), None);
        assert_eq!(q.coalescable(BlockAddr::from_index(2), 5), Some(2 * WLAT));
        // At the entry's own start cycle the window has closed.
        assert_eq!(q.coalescable(BlockAddr::from_index(2), WLAT), None);
    }

    #[test]
    fn crash_with_queue_at_capacity_covers_every_entry() {
        // Satellite coverage: crash while occupancy == capacity, right
        // after a backpressure stall. Every still-queued entry is inside
        // the ADR domain and must be charged to the flush-on-fail battery.
        let (mut q, mut m) = wpq_and_media();
        for i in 0..4 {
            q.offer(0, BlockAddr::from_index(i), &mut m, WLAT);
        }
        let a = q.offer(0, BlockAddr::from_index(99), &mut m, WLAT);
        assert_eq!(q.stats().get("wpq.backpressure_events"), 1);
        assert_eq!(q.occupancy(0), 4);
        assert_eq!(q.crash_drain_bytes(0), 4 * 64);
        // At the stalled accept cycle the new entry occupies the freed
        // slot: still at capacity, still fully covered.
        assert_eq!(q.occupancy(a.persist), 4);
        assert_eq!(q.crash_drain_bytes(a.persist), 4 * 64);
    }

    #[test]
    fn occupancy_drains_over_time() {
        let (mut q, mut m) = wpq_and_media();
        for i in 0..3 {
            q.offer(0, BlockAddr::from_index(i), &mut m, WLAT);
        }
        assert_eq!(q.occupancy(0), 3);
        assert_eq!(q.occupancy(WLAT), 2);
        assert_eq!(q.occupancy(3 * WLAT), 0);
        assert_eq!(q.crash_drain_bytes(WLAT), 2 * 64);
    }

    #[test]
    fn holds_reflects_queue_contents() {
        let (mut q, mut m) = wpq_and_media();
        let b = BlockAddr::from_index(3);
        q.offer(0, b, &mut m, WLAT);
        assert!(q.holds(b, 10));
        assert!(!q.holds(b, WLAT + 1));
        assert!(!q.holds(BlockAddr::from_index(4), 0));
    }

    #[test]
    fn overwritten_in_flight_entry_stops_counting_toward_occupancy() {
        // Pins a known occupancy defect; this test fails once it is fixed.
        // A second write to a block whose media write has already started
        // cannot coalesce, and its insert overwrites the in-flight entry,
        // so the older write no longer occupies a slot. Three outstanding
        // media writes then fit a 2-entry queue without backpressure; a
        // correct queue would stall the third write until cycle 1000.
        let mut q = WritePendingQueue::new(2);
        let mut m = ChannelScheduler::new(1);
        let first = q.offer(0, BlockAddr::from_index(1), &mut m, WLAT);
        let second = q.offer(0, BlockAddr::from_index(1), &mut m, WLAT);
        let third = q.offer(0, BlockAddr::from_index(2), &mut m, WLAT);
        assert_eq!(
            [
                first.media_completion,
                second.media_completion,
                third.media_completion
            ],
            [WLAT, 2 * WLAT, 3 * WLAT],
            "three media writes outstanding at once"
        );
        assert_eq!(third.persist, 0, "the third write did not stall");
        assert_eq!(q.stats().get("wpq.media_writes"), 3);
        assert_eq!(q.stats().get("wpq.backpressure_events"), 0);
        assert_eq!(q.occupancy(0), 2, "the overwritten write is not counted");
    }

    /// A WPQ that answers every question by scanning the whole queue:
    /// purge by `retain`, occupancy by `count`, backpressure wait by
    /// `min`. The reference the differential test compares against.
    struct ScanWpq {
        capacity: usize,
        entries: FxHashMap<BlockAddr, Entry>,
        media_writes: u64,
        coalesced: u64,
        backpressure_events: u64,
    }

    impl ScanWpq {
        fn new(capacity: usize) -> Self {
            Self {
                capacity,
                entries: FxHashMap::default(),
                media_writes: 0,
                coalesced: 0,
                backpressure_events: 0,
            }
        }

        fn occupancy(&self, now: Cycle) -> usize {
            self.entries.values().filter(|e| e.completion > now).count()
        }

        fn coalescable(&self, block: BlockAddr, t: Cycle) -> Option<Cycle> {
            self.entries
                .get(&block)
                .filter(|e| e.start > t)
                .map(|e| e.completion)
        }

        fn offer(
            &mut self,
            now: Cycle,
            block: BlockAddr,
            media: &mut ChannelScheduler,
            write_latency: Cycle,
        ) -> WpqAccept {
            self.entries.retain(|_, e| e.completion > now);
            let mut accept = now;
            if self.coalescable(block, now).is_none() && self.occupancy(now) >= self.capacity {
                self.backpressure_events += 1;
                accept = self
                    .entries
                    .values()
                    .map(|e| e.completion)
                    .filter(|&c| c > now)
                    .min()
                    .unwrap_or(now);
                self.entries.retain(|_, e| e.completion > accept);
            }
            if let Some(completion) = self.coalescable(block, accept) {
                self.coalesced += 1;
                return WpqAccept {
                    persist: accept,
                    media_completion: completion,
                    coalesced: true,
                };
            }
            let (start, completion) = media.schedule(accept, write_latency);
            self.entries.insert(block, Entry { start, completion });
            self.media_writes += 1;
            WpqAccept {
                persist: accept,
                media_completion: completion,
                coalesced: false,
            }
        }
    }

    #[test]
    fn event_ordered_queue_matches_the_scan_reference() {
        // Several cores' clocks feed one controller, so arrival cycles are
        // not monotone; a small block pool makes same-block rewrites (both
        // coalescing and overwriting) common.
        let mut rng = bbb_sim::SplitMix64::new(0x5750_5121);
        let (mut stalls, mut merges) = (0, 0);
        for case in 0..300 {
            let capacity = 1 + rng.next_index(256);
            let channels = 1 + rng.next_index(32);
            let latency = 1 + rng.next_below(2 * WLAT);
            let blocks = 1 + rng.next_below(2 * capacity as u64 + 4);
            let mut clocks = vec![0; 1 + rng.next_index(8)];
            let (mut q, mut qm) = (
                WritePendingQueue::new(capacity),
                ChannelScheduler::new(channels),
            );
            let (mut r, mut rm) = (ScanWpq::new(capacity), ChannelScheduler::new(channels));
            for step in 0..600 {
                let core = rng.next_index(clocks.len());
                clocks[core] += rng.next_below(latency / 4 + 2);
                let now = clocks[core];
                let block = BlockAddr::from_index(rng.next_below(blocks));
                let got = q.offer(now, block, &mut qm, latency);
                let want = r.offer(now, block, &mut rm, latency);
                assert_eq!(got, want, "case {case} step {step}: offer({now}, {block})");
                // A stalled core resumes at its accept cycle.
                clocks[core] = clocks[core].max(got.persist);
                let t = now.saturating_sub(latency) + rng.next_below(3 * latency);
                assert_eq!(
                    q.occupancy(t),
                    r.occupancy(t),
                    "case {case} step {step}: occupancy({t})"
                );
            }
            let s = q.stats();
            assert_eq!(s.get("wpq.media_writes"), r.media_writes, "case {case}");
            assert_eq!(s.get("wpq.coalesced"), r.coalesced, "case {case}");
            assert_eq!(
                s.get("wpq.backpressure_events"),
                r.backpressure_events,
                "case {case}"
            );
            assert_eq!(qm, rm, "case {case}: media schedules diverged");
            stalls += r.backpressure_events;
            merges += r.coalesced;
        }
        assert!(stalls > 0 && merges > 0, "sequences must fill and coalesce");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = WritePendingQueue::new(0);
    }
}
