//! The full simulated machine.
//!
//! [`System`] wires the cores (`bbb-cpu`), the cache hierarchy
//! (`bbb-cache`), the hybrid main memory (`bbb-mem`), and the persistence
//! machinery of this crate into the machine of the paper's Table III, and
//! interprets committed op streams against it.
//!
//! # Execution model
//!
//! Each core is a sequential interpreter over its op stream with a
//! background store-buffer drain engine; the scheduler always advances the
//! core with the smallest local clock, so cores interleave in simulated-
//! time order. A store commits into the store buffer in one cycle; the
//! drain engine retires one entry at a time into the L1D through the
//! coherence protocol, and — under BBB — allocates the block into the
//! core's bbPB **in the same cycle the L1D is written**, which is the
//! design's central property (PoV == PoP).

use std::error::Error;
use std::fmt;

use bbb_cache::CacheHierarchy;
use bbb_cpu::{CoreState, Op, SbEntry};
use bbb_mem::{ByteStore, NvmImage, PAGE_BYTES};
use bbb_sim::{
    merge_logs, AddressMap, BlockAddr, Cycle, EventKind, EventQueue, MemoryPort, SchedProfile,
    SimConfig, Stats, TraceEvent, TraceLog,
};

use crate::crash::CrashCost;
use crate::latency::PersistLatencyTracker;
use crate::litmus::ScheduledOps;
use crate::memories::Memories;
use crate::mode::PersistencyMode;
use crate::persist::PersistState;
use crate::stream::OpStream;
use crate::workload::{BatchStream, Workload};

/// Errors from building or driving a [`System`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SystemError {
    /// The configuration failed validation.
    InvalidConfig(String),
    /// A core index exceeded the configured core count.
    CoreOutOfRange {
        /// Requested core.
        core: usize,
        /// Configured core count.
        cores: usize,
    },
}

impl fmt::Display for SystemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            SystemError::CoreOutOfRange { core, cores } => {
                write!(f, "core {core} out of range (machine has {cores})")
            }
        }
    }
}

impl Error for SystemError {}

/// Summary of a finished (or op-budget-limited) run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSummary {
    /// Final simulated time (max over cores, store buffers drained).
    pub cycles: Cycle,
    /// Ops committed across all cores.
    pub ops: u64,
    /// True when every core's workload stream ended (vs. budget cut).
    pub completed: bool,
}

/// Where [`System::run_until`] should stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopAt {
    /// Stop once this many ops (cumulative over the cursor) have committed.
    Ops(u64),
    /// Stop at the first op boundary where simulated time has reached this
    /// cycle — the crash-at-cycle hook. The op that crossed the boundary
    /// has committed, and the machine is exactly as a power failure at that
    /// instant would find it (store buffers and persist buffers mid-flight).
    Cycle(Cycle),
    /// Run until every core's op stream ends.
    End,
}

/// Resumable state of a multi-core run: per-core liveness, the op count,
/// and the scheduler's event heap that [`System::run_stream`] keeps
/// internally. Holding it outside the call lets a driver advance one run
/// in increments via [`System::run_until`] and, between increments,
/// crash-test the machine without replaying from cycle zero.
#[derive(Debug, Clone)]
pub struct RunCursor {
    active: Vec<bool>,
    ops: u64,
    /// Pending per-core completion events: at most one `(ready_at, core)`
    /// entry per active core. Seeded lazily on the first
    /// [`System::run_until`] call; stale entries (a core whose clock was
    /// advanced between increments, e.g. by a crash-test driver) are
    /// detected on pop and re-pushed at the current clock.
    events: EventQueue,
}

impl RunCursor {
    /// A cursor at the start of a run on an `n`-core machine.
    #[must_use]
    pub fn new(cores: usize) -> Self {
        Self {
            active: vec![true; cores],
            ops: 0,
            events: EventQueue::new(),
        }
    }

    /// Ops committed so far through this cursor.
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// True once every core's op stream has ended.
    #[must_use]
    pub fn finished(&self) -> bool {
        self.active.iter().all(|&a| !a)
    }

    /// Completion events currently queued. The scheduler's invariant is
    /// one event per active core; lazy stale-event invalidation can
    /// transiently exceed that, and the compaction pass in
    /// [`System::run_until`] guarantees the count stays `O(cores)` on
    /// arbitrarily long runs — tests assert against this accessor.
    #[must_use]
    pub fn queued_events(&self) -> usize {
        self.events.len()
    }
}

/// Boundary cycles a probed [`System::run_until`] records — the
/// crash-point planner's reference pass. Kept separate from
/// [`EventProbe`] on purpose: adding fields to the probe struct would
/// change boundary detection — and therefore the committed sweep
/// artifacts — for every existing workload.
#[derive(Debug)]
pub enum Probe<'a> {
    /// After each committed op, the cycle at which the monotone
    /// [`EventProbe`] counters (fences, forced drains, WPQ backpressure)
    /// first changed: the default crash-point planner signal.
    Ordering(&'a mut Vec<Cycle>),
    /// The cycle after every committed *persisting store*. The pstore
    /// crash sweep plans on this grid: a store-granular protocol (plain
    /// stores, no fences under BBB) has its interesting crash points at
    /// store boundaries, which the ordering probe cannot see at all on a
    /// battery-backed machine.
    PersistingStores(&'a mut Vec<Cycle>),
}

/// Why a compute batch-retire fold returned to the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FoldOutcome {
    /// The stop condition fired on one of the folded ops.
    Stopped,
    /// Another core's event became due mid-fold.
    Yielded,
    /// The core's op stream ended.
    Ended,
    /// The run of compute ops ended at this op; step it next.
    Next(Op),
}

/// A battery-backed structure above the memory controller that a power
/// failure drains before the store buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DrainBuffer {
    /// eADR: every dirty NVMM block in the cache hierarchy.
    DirtyCache,
    /// Memory-side BBB: each core's bbPB in FIFO order, core by core.
    Bbpb,
    /// Processor-side BBB: the per-core buffers' fronts, k-way merged in
    /// coherence order τ.
    ProcPb,
}

/// What a power failure drains, in drain order: the mode's persistence
/// domain above the WPQ (which is already merged into media). Everything
/// outside it is volatile and dies with the power.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DrainPlan {
    /// The battery-backed buffer drained first, if any.
    buffer: Option<DrainBuffer>,
    /// Persistent store-buffer entries, drained last in τ order.
    store_buffers: bool,
}

/// Monotone event counters sampled between ops — the cheap signal a
/// crash-point planner uses to place boundary points straddling epoch
/// barriers, forced bbPB drains, and WPQ backpressure stalls, without
/// paying for a full [`Stats`] merge per op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EventProbe {
    /// Fences committed across all cores (epoch barriers under BEP).
    pub fences: u64,
    /// Persist-buffer drains forced by coherence/inclusion (memory-side),
    /// or any ordered drain (processor-side organizations).
    pub forced_drains: u64,
    /// WPQ backpressure stalls at the NVMM controller.
    pub wpq_backpressure: u64,
}

/// The simulated machine.
///
/// `System` is `Clone`: every component is plain owned data, so a clone is
/// an independent machine whose future — including a destructive
/// [`System::crash_now`] — cannot affect the original. Crash-point sweeps
/// rely on this to fork the machine at each injection point.
#[derive(Clone)]
pub struct System {
    cfg: SimConfig,
    hierarchy: CacheHierarchy,
    memories: Memories,
    persist: PersistState,
    cores: Vec<CoreState>,
    arch: ByteStore,
    now_max: Cycle,
    /// Pipeline-level event recorder (store commit/visibility, persist
    /// allocation, loads, fences, flushes, crashes). Component logs live
    /// in `persist` and the NVMM controller; [`System::take_events`]
    /// merges them all.
    trace: TraceLog,
    /// Per-kind event counts and simulated-cycle attribution (see
    /// [`EventKind`]); exported under `sched.*` by [`System::stats`].
    profile: SchedProfile,
    /// Commit→point-of-persistence latency per persisting store; exported
    /// under `persist.latency.*` by [`System::stats`].
    persist_lat: PersistLatencyTracker,
    /// Ops committed since the last periodic debug audit.
    audit_countdown: u32,
}

/// How many committed ops the always-on debug audit lets pass between
/// [`System::check_invariants`] sweeps. Large enough that debug test runs
/// stay fast; small enough that every multi-thousand-op sweep is audited
/// many times.
const DEBUG_AUDIT_PERIOD: u32 = 4096;

impl fmt::Debug for System {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("System")
            .field("mode", &self.persist.mode())
            .field("cores", &self.cores.len())
            .field("now_max", &self.now_max)
            .finish_non_exhaustive()
    }
}

// Experiment points run whole `System`s on worker threads. Every component
// is plain owned data — no `Rc`, `RefCell`, or raw pointers — and this
// assertion keeps it that way at compile time.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<System>();
    assert_send::<Box<dyn crate::Workload>>();
};

impl System {
    /// Builds a machine from a configuration and persistency mode.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::InvalidConfig`] if the configuration fails
    /// [`SimConfig::validate`].
    pub fn new(cfg: SimConfig, mode: PersistencyMode) -> Result<Self, SystemError> {
        cfg.validate().map_err(SystemError::InvalidConfig)?;
        let hierarchy = CacheHierarchy::new(&cfg);
        let memories = Memories::new(&cfg);
        let persist = PersistState::new(&cfg, mode);
        let cores = (0..cfg.cores)
            .map(|i| CoreState::new(i, cfg.core.store_buffer_entries))
            .collect();
        let persist_lat = PersistLatencyTracker::new(mode, cfg.battery_backed_sb, cfg.cores);
        Ok(Self {
            cfg,
            hierarchy,
            memories,
            persist,
            cores,
            arch: ByteStore::new(),
            now_max: 0,
            trace: TraceLog::default(),
            profile: SchedProfile::default(),
            persist_lat,
            audit_countdown: 0,
        })
    }

    /// Enables or disables event tracing across every component (the
    /// pipeline, persist buffers, and the NVMM controller). Off by
    /// default; the persist-order checker (`bbb-check`) turns it on.
    pub fn set_tracing(&mut self, on: bool) {
        self.trace.set_enabled(on);
        self.persist.set_tracing(on);
        self.memories.nvmm_mut().set_tracing(on);
    }

    /// Drains every component's event log into one cycle-ordered stream.
    /// Ties within a cycle keep component order: pipeline events first,
    /// then persist-state and per-core buffer events, then NVMM
    /// persist-point events.
    pub fn take_events(&mut self) -> Vec<TraceEvent> {
        let mut logs = vec![self.trace.take()];
        logs.extend(self.persist.take_trace_logs());
        logs.push(self.memories.nvmm_mut().take_trace());
        merge_logs(logs)
    }

    /// The machine configuration.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The active persistency mode.
    #[must_use]
    pub fn mode(&self) -> PersistencyMode {
        self.persist.mode()
    }

    /// The physical address map.
    #[must_use]
    pub fn address_map(&self) -> &AddressMap {
        self.memories.map()
    }

    /// The functional architectural memory workloads generate against.
    #[must_use]
    pub fn arch_mem(&self) -> &ByteStore {
        &self.arch
    }

    /// Mutable architectural memory (workload setup).
    pub fn arch_mem_mut(&mut self) -> &mut ByteStore {
        &mut self.arch
    }

    /// Current simulated time (the furthest any core has progressed).
    #[must_use]
    pub fn cycle(&self) -> Cycle {
        self.now_max
    }

    /// Pre-loads bytes into both the architectural memory and the backing
    /// media (warm start: state that existed before the measured window).
    ///
    /// Each page `bytes` touch is shared into media whole, so the rest of
    /// the page must already be equal on both sides. It is before the
    /// first op: set-up writes only architectural memory, and every path
    /// into media ([`System::prepare_stream`], [`System::adopt_image`],
    /// this one) shares the architectural pages.
    pub fn preload(&mut self, addr: u64, bytes: &[u8]) {
        debug_assert_eq!(self.now_max, 0, "preload after the first op");
        self.arch.write(addr, bytes);
        if bytes.is_empty() {
            return;
        }
        let page = PAGE_BYTES as u64;
        let (first, last) = (addr / page, (addr + bytes.len() as u64 - 1) / page);
        let pages = (first..=last).map(|p| p * page);
        self.memories.share_pages(&self.arch, pages);
    }

    /// Pre-loads one `u64` (convenience over [`System::preload`]).
    pub fn preload_u64(&mut self, addr: u64, value: u64) {
        self.preload(addr, &value.to_le_bytes());
    }

    /// Boots this (fresh) machine from a post-crash NVMM image: the
    /// image's contents become both the architectural memory and the NVMM
    /// media, exactly as a reboot would find them. Recovery code then
    /// runs as ordinary workload operations.
    pub fn adopt_image(&mut self, image: &NvmImage) {
        let src = image.as_store();
        for base in src.page_bases() {
            self.arch.share_page_from(src, base);
        }
        self.sync_media_from_arch();
    }

    /// Runs a batch workload's [`Workload::setup`] against architectural
    /// memory and mirrors the result into the backing media (warm start
    /// for the measured window): [`System::prepare_stream`] over a
    /// [`BatchStream`].
    pub fn prepare(&mut self, workload: &mut dyn Workload) {
        self.prepare_stream(&mut BatchStream::new(workload));
    }

    /// Runs a stream's [`OpStream::setup`] against architectural memory
    /// and mirrors the result into the backing media.
    pub fn prepare_stream(&mut self, stream: &mut dyn OpStream) {
        stream.setup(&mut self.arch);
        self.sync_media_from_arch();
    }

    /// Shares every materialized architectural-memory page into the
    /// backing media, copy-on-write, without consuming simulated time: a
    /// page is copied only when one side first writes it.
    ///
    /// # Panics
    ///
    /// If a page lies past the end of physical memory.
    pub fn sync_media_from_arch(&mut self) {
        self.memories
            .share_pages(&self.arch, self.arch.page_bases());
    }

    /// Runs a complete op stream on one core (single-threaded experiments
    /// and examples) through [`System::run_until`], returning the
    /// completion cycle. The store buffer is *not* force-drained
    /// afterwards — crash semantics stay observable.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::CoreOutOfRange`] for a bad core index.
    pub fn run_single_core(&mut self, core: usize, ops: Vec<Op>) -> Result<Cycle, SystemError> {
        let cores = self.cores.len();
        if core >= cores {
            return Err(SystemError::CoreOutOfRange { core, cores });
        }
        let schedule: Vec<(usize, Op)> = ops.into_iter().map(|op| (core, op)).collect();
        let mut stream = ScheduledOps::new(&schedule, cores);
        self.run_until(&mut stream, &mut RunCursor::new(cores), StopAt::End, None);
        Ok(self.cores[core].ready_at)
    }

    /// Drives a batch workload to completion or until `op_budget` total
    /// ops have committed: [`System::run_stream`] over a [`BatchStream`].
    pub fn run(&mut self, workload: &mut dyn Workload, op_budget: u64) -> RunSummary {
        self.run_stream(&mut BatchStream::new(workload), op_budget)
    }

    /// Drives a multi-threaded op stream to completion or until
    /// `op_budget` total ops have committed (`u64::MAX` for unlimited),
    /// pulling exactly one op at a time — no per-request `Vec` is ever
    /// built, so the run's memory footprint is the generator's live state
    /// alone. Store buffers are pumped (not force-drained) at the end.
    pub fn run_stream(&mut self, stream: &mut dyn OpStream, op_budget: u64) -> RunSummary {
        let mut cursor = RunCursor::new(self.cores.len());
        let summary = self.run_until(stream, &mut cursor, StopAt::Ops(op_budget), None);
        // Let in-progress drains finish pumping where possible.
        for c in 0..self.cores.len() {
            let t = self.cores[c].ready_at;
            self.pump_sb(c, t);
        }
        RunSummary {
            cycles: self.now_max,
            ..summary
        }
    }

    /// Advances a multi-threaded run until `stop` is reached or the
    /// stream ends, updating `cursor` so a later call resumes where this
    /// one left off. Unlike [`System::run_stream`] nothing is pumped
    /// afterwards — a crash injected right after it returns sees the
    /// machine mid-flight, which is the point.
    ///
    /// With a `probe`, the run also records boundary cycles between every
    /// committed op (see [`Probe`]) — equivalent to stepping one op at a
    /// time and sampling [`System::probe_events`] between steps, without
    /// a scheduler entry and exit per op.
    ///
    /// Scheduling is event-driven: the cursor carries a min-heap of
    /// per-core completion events and each iteration pops the earliest
    /// `(cycle, core)` pair — O(log cores) per event, serving the core
    /// with the earliest clock (lowest index on ties).
    ///
    /// # Panics
    ///
    /// Panics if the cursor was built for a different core count.
    pub fn run_until(
        &mut self,
        stream: &mut dyn OpStream,
        cursor: &mut RunCursor,
        stop: StopAt,
        mut probe: Option<Probe<'_>>,
    ) -> RunSummary {
        let mut last = match probe {
            Some(Probe::Ordering(_)) => self.probe_events(),
            _ => EventProbe::default(),
        };
        let mut last_pstores: Vec<u64> = match probe {
            Some(Probe::PersistingStores(_)) => self
                .cores
                .iter()
                .map(|c| c.persisting_stores.get())
                .collect(),
            _ => Vec::new(),
        };
        let n = self.cores.len();
        assert_eq!(cursor.active.len(), n, "cursor built for another machine");
        // Seed one completion event per active core on the cursor's first
        // use. The invariant from here on: exactly one queued event per
        // active core (stepping pops it and pushes the successor).
        if cursor.events.is_empty() {
            for c in 0..n {
                if cursor.active[c] {
                    cursor.events.push(self.cores[c].ready_at, c);
                }
            }
        }
        'sched: loop {
            if self.stop_reached(stop, cursor.ops) {
                break;
            }
            // Heap hygiene: stale events are invalidated lazily (detected
            // on pop and re-pushed at the current clock), which is O(1)
            // per event but lets entries accumulate if something queues
            // duplicates — e.g. a driver mixing run_until with direct
            // clock advances across many increments. Past a small bound
            // the heap is rebuilt from the per-core clocks instead:
            // correct because every live core's next event is fully
            // determined by `ready_at`, so stale and duplicate entries
            // carry no information.
            if cursor.events.len() > 2 * n + 8 {
                cursor.events.clear();
                for c in 0..n {
                    if cursor.active[c] {
                        cursor.events.push(self.cores[c].ready_at, c);
                    }
                }
            }
            let Some((at, core)) = cursor.events.pop() else {
                break;
            };
            if !cursor.active[core] {
                continue;
            }
            if at != self.cores[core].ready_at {
                // Stale: the core's clock moved between run_until calls
                // (run_single_core, drain_all_store_buffers, …).
                // Reschedule at the current clock.
                cursor.events.push(self.cores[core].ready_at, core);
                continue;
            }
            // Step this core inline while it stays the globally earliest
            // event: re-pushing and immediately re-popping the same core
            // for back-to-back ops would be pure heap churn, and comparing
            // `(ready_at, core)` against the heap root reproduces the pop
            // order (cycle, then lowest core index) exactly.
            let mut next = None;
            loop {
                let op = match next.take() {
                    Some(op) => op,
                    None => match stream.next_op(core, &mut self.arch) {
                        Some(op) => op,
                        None => {
                            cursor.active[core] = false;
                            continue 'sched; // stream ended: drop the core's event
                        }
                    },
                };
                // Batch-retire fast path: fold a run of consecutive
                // pure-compute ops into one scheduler event. Each folded op
                // replays step_op's Compute semantics exactly — per-op SB
                // pump at the advancing clock, per-op stop check, per-op
                // yield check against the heap root — so the fold commits
                // precisely the ops the unfolded loop would have before
                // yielding, at identical cycles, with identical SB/WPQ/bbPB
                // side effects. Disabled under a probe: probed runs must
                // sample boundary state between every op.
                if probe.is_none() {
                    if let Op::Compute { cycles } = op {
                        match self.fold_computes(stream, core, cycles, cursor, stop) {
                            FoldOutcome::Stopped => {
                                cursor.events.push(self.cores[core].ready_at, core);
                                break 'sched;
                            }
                            FoldOutcome::Yielded => {
                                cursor.events.push(self.cores[core].ready_at, core);
                                continue 'sched;
                            }
                            FoldOutcome::Ended => {
                                cursor.active[core] = false;
                                continue 'sched;
                            }
                            FoldOutcome::Next(op) => {
                                next = Some(op);
                                continue;
                            }
                        }
                    }
                }
                self.step_op(core, &op);
                cursor.ops += 1;
                match probe {
                    Some(Probe::Ordering(ref mut sink)) => {
                        let p = self.probe_events();
                        if p != last {
                            sink.push(self.now_max);
                            last = p;
                        }
                    }
                    Some(Probe::PersistingStores(ref mut sink)) => {
                        // Only the stepping core's counter can move.
                        let p = self.cores[core].persisting_stores.get();
                        if p != last_pstores[core] {
                            sink.push(self.now_max);
                            last_pstores[core] = p;
                        }
                    }
                    None => {}
                }
                // The stop check runs between ops exactly as it would at
                // the top of the scheduler loop; on a stop the core's next
                // event is queued, restoring the one-event-per-active-core
                // invariant.
                if self.stop_reached(stop, cursor.ops) {
                    cursor.events.push(self.cores[core].ready_at, core);
                    break 'sched;
                }
                match cursor.events.peek() {
                    // Another core's event is due first (or ties with a
                    // lower index): yield to it.
                    Some(next) if next < (self.cores[core].ready_at, core) => {
                        cursor.events.push(self.cores[core].ready_at, core);
                        continue 'sched;
                    }
                    // Still the earliest (or the only active core).
                    _ => {}
                }
            }
        }
        RunSummary {
            cycles: self.now_max,
            ops: cursor.ops,
            completed: cursor.finished(),
        }
    }

    /// True once `stop` holds with `ops` committed.
    fn stop_reached(&self, stop: StopAt, ops: u64) -> bool {
        match stop {
            StopAt::Ops(budget) => ops >= budget,
            StopAt::Cycle(at) => self.now_max >= at,
            StopAt::End => false,
        }
    }

    /// Retires `first_cycles` of compute plus every [`Op::Compute`] the
    /// stream hands `core` next, as one scheduler event but with per-op
    /// semantics: the SB is pumped at each op's start cycle (so
    /// background drains hit the hierarchy at the same instants as
    /// unfolded stepping), the stop condition is evaluated after each op,
    /// and the yield check runs against the heap root after each op — the
    /// fold ends exactly where the unfolded loop would have left this
    /// core. The next op is pulled only once both checks pass, which is
    /// when the unfolded loop would pull it, so the generator sees the
    /// same architectural memory either way. Profile counts attribute one
    /// pipeline event per folded op via [`SchedProfile::record_many`],
    /// keeping `sched.*` stats identical to unfolded runs.
    fn fold_computes(
        &mut self,
        stream: &mut dyn OpStream,
        core: usize,
        first_cycles: u32,
        cursor: &mut RunCursor,
        stop: StopAt,
    ) -> FoldOutcome {
        let mut folded = 0u64;
        let mut spent: Cycle = 0;
        let mut cycles = first_cycles;
        let outcome = loop {
            let now = self.cores[core].ready_at;
            self.pump_sb(core, now);
            let end = now + Cycle::from(cycles);
            self.cores[core].ready_at = end;
            self.now_max = self.now_max.max(end);
            spent += end - now;
            folded += 1;
            if self.stop_reached(stop, cursor.ops + folded) {
                break FoldOutcome::Stopped;
            }
            if let Some(next) = cursor.events.peek() {
                if next < (self.cores[core].ready_at, core) {
                    break FoldOutcome::Yielded;
                }
            }
            match stream.next_op(core, &mut self.arch) {
                Some(Op::Compute { cycles: c }) => cycles = c,
                Some(op) => break FoldOutcome::Next(op),
                None => break FoldOutcome::Ended,
            }
        };
        self.cores[core].committed.add(folded);
        self.profile.record_many(EventKind::Pipeline, folded, spent);
        cursor.ops += folded;
        self.bump_audit(folded);
        outcome
    }

    /// Advances the periodic debug-audit countdown by `n` committed ops.
    fn bump_audit(&mut self, n: u64) {
        self.audit_countdown = self
            .audit_countdown
            .saturating_add(u32::try_from(n).unwrap_or(u32::MAX));
        if self.audit_countdown >= DEBUG_AUDIT_PERIOD {
            self.audit_countdown = 0;
            if cfg!(debug_assertions) {
                self.check_invariants();
            }
        }
    }

    /// Interprets one op on `core` at the core's local clock.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn step_op(&mut self, core: usize, op: &Op) {
        let now = self.cores[core].ready_at;
        self.pump_sb(core, now);
        let (end, kind) = match *op {
            Op::Compute { cycles } => (now + Cycle::from(cycles), EventKind::Pipeline),
            Op::Load { addr, .. } => {
                let block = BlockAddr::containing(addr);
                let (done, kind) = if self.cores[core].sb.holds_block(block) {
                    // Store-to-load forwarding from the SB.
                    (now + self.cfg.l1d.latency, EventKind::Pipeline)
                } else {
                    let (res, _) = self.hierarchy.read(
                        now,
                        core,
                        block,
                        &mut self.memories,
                        &mut self.persist,
                    );
                    let kind = if res.l1_hit {
                        EventKind::Pipeline
                    } else {
                        EventKind::Nvmm
                    };
                    (res.completion, kind)
                };
                self.trace.push(TraceEvent::LoadCommit {
                    core,
                    block,
                    cycle: done,
                });
                (done, kind)
            }
            Op::Store { addr, size, bytes } => {
                let block = BlockAddr::containing(addr);
                let offset = block.offset_of(addr);
                assert!(
                    offset + size as usize <= bbb_sim::BLOCK_BYTES,
                    "store spans cache blocks"
                );
                let persistent = self.memories.map().is_persistent(addr);
                let mut t = now;
                while self.cores[core].sb.is_full() {
                    let freed = self.drain_one_sb(core);
                    self.cores[core].sb_full_stalls.add(freed.saturating_sub(t));
                    t = t.max(freed);
                }
                let seq = self.cores[core].stores.get();
                let entry = SbEntry {
                    block,
                    offset,
                    len: size as usize,
                    bytes,
                    persistent,
                    committed: t,
                    seq,
                };
                self.cores[core].sb.push(entry).expect("space ensured");
                self.trace.push(TraceEvent::StoreCommit {
                    core,
                    block,
                    seq,
                    persistent,
                    cycle: t,
                });
                // Architectural memory reflects *committed* stores only.
                // Workload generators read it to plan their next ops, so
                // writing it here (not at op-generation time) is what
                // keeps cross-core visibility honest: a core can chain to
                // another core's node only after the publishing store has
                // actually committed — exactly the coherence order a real
                // load would observe.
                self.arch.write(addr, &bytes[..size as usize]);
                self.cores[core].stores.inc();
                if persistent {
                    self.cores[core].persisting_stores.inc();
                    self.cores[core].persisting_store_bytes.add(size as u64);
                    self.persist_lat.on_store_commit(core, block, t);
                }
                let kind = if t > now {
                    EventKind::StoreBuffer
                } else {
                    EventKind::Pipeline
                };
                (t + 1, kind)
            }
            Op::Clwb { addr } => {
                // Program order: all older stores must reach the L1D before
                // the line is written back.
                let t = self.drain_sb_all(core, now);
                let block = BlockAddr::containing(addr);
                let f = self.hierarchy.flush(t, core, block, &mut self.memories);
                self.trace.push(TraceEvent::Flush {
                    core,
                    block,
                    cycle: f.persist,
                    wrote_back: f.wrote_back,
                });
                self.cores[core].record_flush(f.persist);
                self.persist_lat.on_clwb(core, block, f.persist);
                let kind = if f.wrote_back {
                    EventKind::Wpq
                } else if t > now {
                    EventKind::StoreBuffer
                } else {
                    EventKind::Pipeline
                };
                (t + 1, kind)
            }
            Op::Fence => {
                let sb_done = self.drain_sb_all(core, now);
                let mut t = sb_done;
                if self.persist.mode() == PersistencyMode::Bep {
                    // Epoch barrier: stall until the volatile persist
                    // buffer has fully drained to the persistence domain
                    // (the stall the paper's §III-A notes BEP still pays).
                    t = self
                        .persist
                        .procpb_mut(core)
                        .drain_all_timed(t, &mut self.memories);
                }
                let done = self.cores[core].flushes_done_by(t);
                // BEP point of persistence: by `t` the SB and the volatile
                // procPB have both fully drained, so every persisting
                // store this core committed before the barrier is durable.
                self.persist_lat.on_fence(core, t);
                self.cores[core]
                    .fence_stall_cycles
                    .add(done.saturating_sub(now));
                self.cores[core].fences.inc();
                self.trace
                    .push(TraceEvent::EpochBarrier { core, cycle: done });
                let kind = if t > sb_done {
                    EventKind::Bbpb
                } else if done > t {
                    EventKind::Wpq
                } else if sb_done > now {
                    EventKind::StoreBuffer
                } else {
                    EventKind::Pipeline
                };
                (done, kind)
            }
        };
        self.cores[core].committed.inc();
        self.cores[core].ready_at = end.max(now);
        self.profile.record(kind, self.cores[core].ready_at - now);
        self.now_max = self.now_max.max(self.cores[core].ready_at);
        // Always-on debug audit: every few thousand committed ops, sweep
        // the coherence, inclusion, and holder-index invariants so every
        // debug test and crashfuzz sweep runs them for free. Release
        // builds keep only the counter arithmetic.
        self.bump_audit(1);
    }

    /// The persistence domain a power failure drains — the one place the
    /// per-mode rule is stated. With the battery dead nothing above the
    /// WPQ survives. With it, the mode's battery-backed buffer drains
    /// first, then — when the store buffers are battery backed — their
    /// persistent entries. PMEM (ADR) keeps only the WPQ, and BEP's
    /// volatile persist buffers lose their contents even with the
    /// battery; neither has store buffers in the domain.
    fn drain_plan(&self, battery_ok: bool) -> DrainPlan {
        let buffer = match self.persist.mode() {
            _ if !battery_ok => None,
            PersistencyMode::Pmem | PersistencyMode::Bep => None,
            PersistencyMode::Eadr => Some(DrainBuffer::DirtyCache),
            PersistencyMode::BbbMemorySide => Some(DrainBuffer::Bbpb),
            PersistencyMode::BbbProcessorSide => Some(DrainBuffer::ProcPb),
        };
        DrainPlan {
            buffer,
            store_buffers: buffer.is_some() && self.cfg.battery_backed_sb,
        }
    }

    /// Dirty cache blocks that live in NVMM (eADR's drain set).
    fn dirty_nvmm_blocks(&self) -> Vec<(BlockAddr, [u8; bbb_sim::BLOCK_BYTES])> {
        self.hierarchy
            .dirty_blocks()
            .into_iter()
            .filter(|(block, _, _)| self.memories.map().is_nvmm(block.base()))
            .map(|(block, data, _)| (block, data))
            .collect()
    }

    /// Every core's processor-side buffer entries, in crash drain order.
    /// The coherence hooks drain a core's entries for a line before
    /// another core may own it, so cross-core procPB conflicts cannot
    /// arise in practice; the τ merge canonicalizes the order defensively.
    fn procpb_drain_order(&self) -> impl Iterator<Item = (usize, &crate::StoreEntry)> {
        tau_merge((0..self.cores.len()).map(|c| {
            self.persist
                .procpb(c)
                .iter()
                .map(|e| (e.committed, e.seq, e))
        }))
    }

    /// Every core's persistent store-buffer entries, in crash drain order.
    fn sb_drain_order(&self) -> impl Iterator<Item = (usize, &SbEntry)> {
        tau_merge(self.cores.iter().map(|core| {
            core.sb
                .iter()
                .filter(|e| e.persistent)
                .map(|e| (e.committed, e.seq, e))
        }))
    }

    /// Injects a power failure *now*: drains exactly the persistence
    /// domain (see [`System::crash_image`]) to NVMM through the
    /// components — so the drain's NVMM writes, persist-buffer drain
    /// events, and counters are recorded as they would be on real
    /// hardware — discards every volatile buffer, and returns the
    /// post-crash image recovery code would see.
    ///
    /// `battery_ok == false` is the differential *negative* oracle for
    /// crash-consistency checking: every battery-backed structure above
    /// the memory controller loses its contents, so modes whose
    /// durability depends on the battery must exhibit lost updates
    /// relative to a healthy crash at the same point.
    pub fn crash_now(&mut self, battery_ok: bool) -> NvmImage {
        let now = self.now_max;
        self.memories.nvmm_mut().note_crash(now, battery_ok);
        let plan = self.drain_plan(battery_ok);
        match plan.buffer {
            Some(DrainBuffer::DirtyCache) => {
                for (block, data) in self.dirty_nvmm_blocks() {
                    self.memories.nvmm_mut().write(now, block, data);
                }
            }
            Some(DrainBuffer::Bbpb) => {
                for c in 0..self.cores.len() {
                    self.persist
                        .bbpb_mut(c)
                        .crash_drain(now, self.memories.nvmm_mut());
                }
            }
            Some(DrainBuffer::ProcPb) => {
                let order: Vec<usize> = self.procpb_drain_order().map(|(c, _)| c).collect();
                for c in order {
                    self.persist
                        .procpb_mut(c)
                        .drain_oldest(now, self.memories.nvmm_mut());
                }
            }
            None => {}
        }
        if plan.store_buffers {
            let entries: Vec<SbEntry> = self.sb_drain_order().map(|(_, e)| *e).collect();
            for e in entries {
                self.memories
                    .nvmm_mut()
                    .rmw_block(now, e.block, e.offset, &e.bytes[..e.len]);
            }
        }
        // Whatever the plan did not drain was volatile: it dies with the
        // power.
        self.persist.crash_discard();
        for core in &mut self.cores {
            core.sb.drain_all();
        }
        self.memories.crash_image()
    }

    /// The post-crash image if power failed *now*, without crashing: the
    /// persistence domain is drained in [`System::crash_now`]'s order onto
    /// a copy-on-write snapshot of NVMM media, so the live system is
    /// untouched and unshared pages are never copied. The drain order is
    /// the domain's coherence order: eADR's dirty NVMM blocks, or each
    /// core's bbPB FIFO, or the procPB fronts merged by τ = (commit cycle,
    /// core, per-core sequence); then the battery-backed store buffers'
    /// persistent entries by τ — so cross-core same-line conflicts resolve
    /// in commit order, never by core index (DESIGN.md §9.4, resolved
    /// ledger item 1). With `battery_ok == false` the image is the media
    /// snapshot alone.
    ///
    /// Crash-point sweeps call this instead of cloning the whole system
    /// and crashing the clone; the two paths produce byte-identical
    /// images (see the differential tests).
    #[must_use]
    pub fn crash_image(&self, battery_ok: bool) -> NvmImage {
        let mut media = self.memories.nvmm().media_snapshot();
        let plan = self.drain_plan(battery_ok);
        match plan.buffer {
            Some(DrainBuffer::DirtyCache) => {
                for (block, data) in self.dirty_nvmm_blocks() {
                    media.write_block(block, &data);
                }
            }
            Some(DrainBuffer::Bbpb) => {
                for c in 0..self.cores.len() {
                    for (block, data) in self.persist.bbpb(c).drain_set() {
                        media.write_block(block, &data);
                    }
                }
            }
            Some(DrainBuffer::ProcPb) => {
                for (_, e) in self.procpb_drain_order() {
                    media.write(e.block.base() + e.offset as u64, &e.bytes[..e.len]);
                }
            }
            None => {}
        }
        if plan.store_buffers {
            for (_, e) in self.sb_drain_order() {
                media.write(e.block.base() + e.offset as u64, &e.bytes[..e.len]);
            }
        }
        NvmImage::from_store(media)
    }

    /// A fingerprint of everything [`System::crash_image`] can read: equal
    /// epochs at two probe points of the *same* system prove the two images
    /// are byte-identical, so a crash-point sweep can reuse the previous
    /// point's recovery verdict without snapshotting again.
    ///
    /// Soundness: each summand is a monotone per-structure mutation
    /// counter (media, plus whichever of the store buffers, persist
    /// buffers, or cache hierarchy the drain plan reads), so an unchanged
    /// *sum* implies every summand — hence every structure the image
    /// derives from — is unchanged. The converse does not hold (a counter
    /// can bump without changing image bytes); a changed epoch only costs
    /// a fresh snapshot.
    #[must_use]
    pub fn crash_image_epoch(&self, battery_ok: bool) -> u64 {
        let plan = self.drain_plan(battery_ok);
        let buffer = match plan.buffer {
            Some(DrainBuffer::DirtyCache) => self.hierarchy.version(),
            Some(DrainBuffer::Bbpb | DrainBuffer::ProcPb) => self.persist.buffers_version(),
            None => 0,
        };
        let sb: u64 = if plan.store_buffers {
            self.cores.iter().map(|c| c.sb.version()).sum()
        } else {
            0
        };
        self.memories.nvmm().media_version() + sb + buffer
    }

    /// Snapshot-cost accounting for [`System::crash_image`]: the number of
    /// materialized NVMM media pages (all shared, not copied, when a COW
    /// snapshot forks) and the media store's lifetime copy-on-write page
    /// copies. Crash-point sweeps difference the copy counter across an
    /// image's lifetime to report pages shared vs. copied.
    #[must_use]
    pub fn media_cow_stats(&self) -> (usize, u64) {
        let nvmm = self.memories.nvmm();
        (nvmm.media_resident_pages(), nvmm.media_cow_page_copies())
    }

    /// Samples the monotone event counters a crash-point planner wants to
    /// straddle (see [`EventProbe`]). Cheap enough to call between ops.
    #[must_use]
    pub fn probe_events(&self) -> EventProbe {
        EventProbe {
            fences: self.cores.iter().map(|c| c.fences.get()).sum(),
            forced_drains: self.persist.forced_drains(),
            wpq_backpressure: self.memories.nvmm().wpq_backpressure_events(),
        }
    }

    /// The flush-on-fail drain set if power failed right now (for the
    /// energy model), without mutating anything.
    #[must_use]
    pub fn crash_cost(&self) -> CrashCost {
        let plan = self.drain_plan(true);
        let (mut sb_entries, mut sb_bytes) = (0u64, 0u64);
        if plan.store_buffers {
            for (_, e) in self.sb_drain_order() {
                sb_entries += 1;
                sb_bytes += e.len as u64;
            }
        }
        let (bbpb_entries, dirty_cache_blocks) = match plan.buffer {
            Some(DrainBuffer::DirtyCache) => (0, self.dirty_nvmm_blocks().len() as u64),
            Some(DrainBuffer::Bbpb | DrainBuffer::ProcPb) => {
                (self.persist.total_resident_entries(), 0)
            }
            None => (0, 0),
        };
        CrashCost {
            mode: self.persist.mode(),
            bbpb_entries,
            sb_entries,
            sb_bytes,
            dirty_cache_blocks,
            wpq_blocks: self.memories.nvmm().wpq_occupancy(self.now_max) as u64,
        }
    }

    /// Persistent blocks that are dirty in the persistence-mode's holding
    /// structures but not yet written to NVMM media: resident bbPB entries
    /// under BBB, dirty persistent cache blocks otherwise. A steady-state
    /// write comparison adds these to the media write count (they are
    /// writes the measured window produced whose media cost falls just
    /// past its end).
    #[must_use]
    pub fn residual_persist_blocks(&self) -> u64 {
        if self.persist.mode().has_bbpb() {
            self.persist.total_resident_entries()
        } else {
            self.hierarchy
                .dirty_blocks()
                .iter()
                .filter(|(_, _, persistent)| *persistent)
                .count() as u64
        }
    }

    /// Merged statistics from every component, plus run-level metrics.
    #[must_use]
    pub fn stats(&self) -> Stats {
        let mut s = self.hierarchy.stats();
        s.merge(&self.memories.stats());
        s.merge(&self.persist.stats());
        for c in &self.cores {
            s.merge(&c.stats());
        }
        s.set("sim.cycles", self.now_max);
        s.set(
            "sim.residual_persist_blocks",
            self.residual_persist_blocks(),
        );
        self.profile.export(&mut s);
        self.persist_lat.export(&mut s);
        s
    }

    /// The commit→point-of-persistence latency distribution of every
    /// persisting store stepped on this machine (see `latency` module
    /// docs for where each mode's PoP is observed). Mergeable: shard
    /// histograms combine with [`bbb_sim::LatencyHistogram::merge`].
    #[must_use]
    pub fn persist_latency(&self) -> &bbb_sim::LatencyHistogram {
        self.persist_lat.histogram()
    }

    /// Per-kind event counts and simulated-cycle attribution for every op
    /// stepped on this machine so far (pipeline vs. store buffer vs. WPQ
    /// vs. bbPB vs. NVMM — see [`EventKind`]).
    #[must_use]
    pub fn sched_profile(&self) -> &SchedProfile {
        &self.profile
    }

    /// Verifies the cache-coherence and bbPB-inclusion invariants. Tests
    /// call this after runs.
    ///
    /// # Panics
    ///
    /// Panics (with a description) on the first violation.
    pub fn check_invariants(&self) {
        self.hierarchy.check_invariants();
        // The O(1) holder index must agree with the exhaustive scan for
        // every resident or indexed block (satellite fix audit).
        self.persist.check_holder_index();
        if self.persist.mode() == PersistencyMode::BbbMemorySide {
            // Invariant 4 + LLC inclusion: every bbPB-resident block is in
            // the L2 and in at most one bbPB.
            for core in 0..self.cores.len() {
                for (block, _) in self.persist.bbpb(core).drain_set() {
                    assert_eq!(
                        self.persist.holder_of(block),
                        Some(core),
                        "block in multiple bbPBs"
                    );
                    assert!(
                        self.hierarchy.l2().contains(block),
                        "LLC inclusion of bbPB violated for {block}"
                    );
                }
            }
        }
    }

    /// Forces every store buffer empty (end-of-measurement barrier).
    /// Entries drain interleaved across cores in commit-time order, so the
    /// final memory state reflects simulated time rather than core index.
    pub fn drain_all_store_buffers(&mut self) {
        loop {
            let next = (0..self.cores.len())
                .filter_map(|c| self.cores[c].sb.front().map(|e| (e.committed, c)))
                .min();
            let Some((_, core)) = next else { break };
            let done = self.drain_one_sb(core);
            self.cores[core].ready_at = self.cores[core].ready_at.max(done);
        }
    }

    /// Drains SB entries whose turn has come by `now`.
    fn pump_sb(&mut self, core: usize, now: Cycle) {
        while !self.cores[core].sb.is_empty() && self.cores[core].sb_drain_busy_until <= now {
            self.drain_one_sb(core);
        }
    }

    /// Drains every SB entry, returning when the last reaches the L1D.
    fn drain_sb_all(&mut self, core: usize, now: Cycle) -> Cycle {
        while !self.cores[core].sb.is_empty() {
            self.drain_one_sb(core);
        }
        now.max(self.cores[core].sb_drain_busy_until)
    }

    /// Retires one SB entry into the L1D (and, under BBB, into the bbPB in
    /// the same cycle). Under TSO the oldest entry drains; under the
    /// relaxed-consistency configuration any L1-writable entry may drain
    /// first (paper §III-C) — which is exactly why BBB battery-backs the
    /// store buffer: PoP is at commit, so program-order persistency
    /// survives the out-of-order L1D writes. Returns the cycle the drain
    /// engine frees.
    fn drain_one_sb(&mut self, core: usize) -> Cycle {
        let e = if self.cfg.relaxed_sb_drain {
            // Prefer an entry whose block is already writable in the L1D
            // (no coherence transaction needed): out-of-order drain.
            let ready = self.cores[core]
                .sb
                .iter()
                .position(|e| self.hierarchy.state_of(core, e.block).writable());
            match ready {
                Some(i) => self.cores[core].sb.pop_at(i).expect("index valid"),
                None => self.cores[core].sb.pop_front().expect("non-empty"),
            }
        } else {
            self.cores[core]
                .sb
                .pop_front()
                .expect("drain_one_sb on empty SB")
        };
        let start = self.cores[core].sb_drain_busy_until.max(e.committed);
        let res = self.hierarchy.write(
            start,
            core,
            e.block,
            e.offset,
            &e.bytes[..e.len],
            &mut self.memories,
            &mut self.persist,
        );
        let mut done = res.completion;
        self.trace.push(TraceEvent::StoreVisible {
            core,
            block: e.block,
            seq: e.seq,
            cycle: done,
        });
        if e.persistent {
            match self.persist.mode() {
                PersistencyMode::BbbMemorySide => {
                    let data = self
                        .hierarchy
                        .peek_block(e.block)
                        .expect("block just written");
                    let out =
                        self.persist
                            .allocate_block(core, done, e.block, data, &mut self.memories);
                    self.trace.push(TraceEvent::PersistAlloc {
                        core,
                        block: e.block,
                        seq: e.seq,
                        cycle: out.done,
                        coalesced: out.coalesced,
                        rejected: out.rejected,
                        battery: true,
                    });
                    done = out.done.max(done);
                }
                PersistencyMode::BbbProcessorSide | PersistencyMode::Bep => {
                    let battery = self.persist.mode() == PersistencyMode::BbbProcessorSide;
                    let out = self.persist.procpb_mut(core).push(
                        done,
                        e.block,
                        e.offset,
                        &e.bytes[..e.len],
                        e.committed,
                        e.seq,
                        &mut self.memories,
                    );
                    self.trace.push(TraceEvent::PersistAlloc {
                        core,
                        block: e.block,
                        seq: e.seq,
                        cycle: out.done,
                        coalesced: out.coalesced,
                        rejected: out.rejected,
                        battery,
                    });
                    done = out.done.max(done);
                }
                PersistencyMode::Pmem | PersistencyMode::Eadr => {}
            }
        }
        if e.persistent {
            // No-battery-SB machines: the drain *is* the store's arrival
            // in the battery domain (no-op for every other persist point).
            self.persist_lat.on_sb_drain(e.committed, done);
        }
        self.cores[core].sb_drain_busy_until = done;
        self.now_max = self.now_max.max(done);
        done
    }
}

/// Merges per-core queues of `(commit cycle, seq, item)` into coherence
/// order τ = (commit cycle, core, per-core sequence), taking only queue
/// fronts so each core's own FIFO order is kept. Yields `(core, item)`.
fn tau_merge<T, I>(queues: impl Iterator<Item = I>) -> impl Iterator<Item = (usize, T)>
where
    I: Iterator<Item = (Cycle, u64, T)>,
{
    let mut queues: Vec<_> = queues.map(Iterator::peekable).collect();
    std::iter::from_fn(move || {
        let (_, c, _) = queues
            .iter_mut()
            .enumerate()
            .filter_map(|(c, q)| q.peek().map(|&(committed, seq, _)| (committed, c, seq)))
            .min()?;
        queues[c].next().map(|(_, _, item)| (c, item))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbb_sim::BLOCK_BYTES;

    fn sys(mode: PersistencyMode) -> System {
        System::new(SimConfig::small_for_tests(), mode).expect("valid config")
    }

    fn pbase(s: &System) -> u64 {
        s.address_map().persistent_base()
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut cfg = SimConfig::small_for_tests();
        cfg.cores = 0;
        let err = System::new(cfg, PersistencyMode::Eadr).unwrap_err();
        assert!(matches!(err, SystemError::InvalidConfig(_)));
        assert!(format!("{err}").contains("invalid configuration"));
    }

    #[test]
    fn core_out_of_range_is_reported() {
        let mut s = sys(PersistencyMode::Eadr);
        let err = s.run_single_core(99, vec![]).unwrap_err();
        assert_eq!(err, SystemError::CoreOutOfRange { core: 99, cores: 2 });
    }

    #[test]
    fn bbb_store_is_durable_without_flushes() {
        let mut s = sys(PersistencyMode::BbbMemorySide);
        let a = pbase(&s);
        s.run_single_core(0, vec![Op::store_u64(a, 0xFEED)])
            .unwrap();
        let img = s.crash_now(true);
        assert_eq!(img.read_u64(a), 0xFEED);
    }

    #[test]
    fn pmem_store_without_flush_is_lost() {
        let mut s = sys(PersistencyMode::Pmem);
        let a = pbase(&s);
        s.run_single_core(0, vec![Op::store_u64(a, 0xFEED)])
            .unwrap();
        let img = s.crash_now(true);
        assert_eq!(img.read_u64(a), 0, "volatile caches lost the store");
    }

    #[test]
    fn pmem_store_with_flush_and_fence_is_durable() {
        let mut s = sys(PersistencyMode::Pmem);
        let a = pbase(&s);
        s.run_single_core(
            0,
            vec![Op::store_u64(a, 0xBEEF), Op::Clwb { addr: a }, Op::Fence],
        )
        .unwrap();
        let img = s.crash_now(true);
        assert_eq!(img.read_u64(a), 0xBEEF);
    }

    #[test]
    fn eadr_store_is_durable_without_flushes() {
        let mut s = sys(PersistencyMode::Eadr);
        let a = pbase(&s);
        s.run_single_core(0, vec![Op::store_u64(a, 0xACE)]).unwrap();
        let img = s.crash_now(true);
        assert_eq!(img.read_u64(a), 0xACE);
    }

    #[test]
    fn procside_store_is_durable_without_flushes() {
        let mut s = sys(PersistencyMode::BbbProcessorSide);
        let a = pbase(&s);
        s.run_single_core(0, vec![Op::store_u64(a, 0xCAFE)])
            .unwrap();
        let img = s.crash_now(true);
        assert_eq!(img.read_u64(a), 0xCAFE);
    }

    /// Pins a known pricing defect: `Memories` does not override
    /// `MemoryPort::rmw_block`, so every processor-side/BEP persist-buffer
    /// drain takes the trait default, which issues a timed NVMM read
    /// (occupying a read channel) before the write. The crash drain
    /// patches media directly. Here 64 stores to distinct persistent
    /// blocks cost 64 NVMM reads (the L2 fills) under the other modes and
    /// 125 under bbb-proc and BEP. Fails once the drain stops issuing the
    /// read; then assert 64 for every mode.
    #[test]
    fn procside_drains_price_a_timed_nvmm_read() {
        for mode in PersistencyMode::ALL {
            let mut s = sys(mode);
            let base = pbase(&s);
            for i in 0..64u64 {
                s.step_op(0, &Op::store_u64(base + i * BLOCK_BYTES as u64, i + 1));
            }
            s.drain_all_store_buffers();
            let want = match mode {
                PersistencyMode::BbbProcessorSide | PersistencyMode::Bep => 125,
                _ => 64,
            };
            assert_eq!(s.stats().get("nvmm.reads"), want, "{mode}");
        }
    }

    #[test]
    fn dram_stores_never_survive() {
        for mode in PersistencyMode::ALL {
            let mut s = sys(mode);
            s.run_single_core(0, vec![Op::store_u64(0x100, 42)])
                .unwrap();
            let img = s.crash_now(true);
            assert_eq!(img.read_u64(0x100), 0, "{mode}: DRAM data must die");
        }
    }

    #[test]
    fn program_order_is_preserved_in_crash_image() {
        // The linked-list hazard of paper Fig. 2: node init must persist
        // before the head pointer. Under BBB both are durable instantly, so
        // any crash sees a prefix-consistent state.
        let mut s = sys(PersistencyMode::BbbMemorySide);
        let node = pbase(&s) + 0x400;
        let head = pbase(&s);
        s.run_single_core(
            0,
            vec![Op::store_u64(node, 0x1234), Op::store_u64(head, node)],
        )
        .unwrap();
        let img = s.crash_now(true);
        let head_val = img.read_u64(head);
        if head_val != 0 {
            assert_eq!(img.read_u64(head_val), 0x1234, "head implies node");
        }
    }

    #[test]
    fn loads_observe_prior_stores() {
        let mut s = sys(PersistencyMode::BbbMemorySide);
        let a = pbase(&s) + 0x100;
        s.preload_u64(a, 0x11);
        let end = s
            .run_single_core(
                0,
                vec![Op::load_u64(a), Op::store_u64(a, 0x22), Op::load_u64(a)],
            )
            .unwrap();
        assert!(end > 0);
        s.check_invariants();
    }

    #[test]
    fn preload_reaches_arch_and_media() {
        let mut s = sys(PersistencyMode::Pmem);
        let a = pbase(&s) + 24;
        s.preload_u64(a, 0x77);
        assert_eq!(s.arch_mem().read_u64(a), 0x77);
        let img = s.crash_now(true);
        assert_eq!(img.read_u64(a), 0x77);
    }

    /// The pre-sharing warm start, kept as the reference: a per-block
    /// copy of `src`'s pages at `bases` into `into`.
    fn copy_per_block(into: &mut ByteStore, src: &ByteStore, bases: impl Iterator<Item = u64>) {
        for base in bases {
            for block in (base..base + PAGE_BYTES as u64)
                .step_by(BLOCK_BYTES)
                .map(BlockAddr::containing)
            {
                into.write_block(block, &src.read_block(block));
            }
        }
    }

    /// Media seeded from the per-block copy `copied` must match `s`'s
    /// shared media: stats, crash image and every block's bytes (read
    /// through a clone, so `s`'s read counters stay put).
    fn assert_media_matches(s: &System, copied: &ByteStore) {
        let mut reference = Memories::new(s.config());
        reference.share_pages(copied, copied.page_bases());
        let mut live = s.memories.clone();
        assert_eq!(live.stats(), reference.stats());
        assert_eq!(live.crash_image(), reference.crash_image());
        for base in s.arch.page_bases().chain(copied.page_bases()) {
            for block in (base..base + PAGE_BYTES as u64)
                .step_by(BLOCK_BYTES)
                .map(BlockAddr::containing)
            {
                let (_, got) = live.read_block(0, block);
                assert_eq!(got, reference.read_block(0, block).1, "{block:?}");
            }
        }
        assert_eq!(live.stats(), reference.stats());
    }

    #[test]
    fn run_based_media_sync_matches_per_block_reference() {
        let mut s = sys(PersistencyMode::BbbMemorySide);
        let nvmm = s.address_map().nvmm_base();
        let mut copied = ByteStore::new();
        // Arch pages on both sides of the DRAM/NVMM boundary.
        let pattern: Vec<u8> = (0..3 * 4096 + 200).map(|i| (i * 7 + 1) as u8).collect();
        s.arch_mem_mut().write(0x2000, &pattern);
        s.arch_mem_mut().write(nvmm - 4096, &pattern);
        s.arch_mem_mut().write_u64(nvmm + 0x9008, 0x5A);
        s.sync_media_from_arch();
        copy_per_block(&mut copied, &s.arch, s.arch.page_bases());
        assert!(s.memories.stats().get("nvmm.media_pages") >= 4);
        assert_media_matches(&s, &copied);

        // One preload run straddling the boundary, unaligned at both ends:
        // the reference copies only the blocks it touches.
        let run: Vec<u8> = (0..300u32).map(|i| i as u8 ^ 0xC3).collect();
        let at = nvmm - 100;
        s.preload(at, &run);
        let start = BlockAddr::containing(at).base();
        let end = BlockAddr::containing(at + run.len() as u64 - 1).base() + BLOCK_BYTES as u64;
        for block in (start..end).step_by(BLOCK_BYTES).map(BlockAddr::containing) {
            copied.write_block(block, &s.arch.read_block(block));
        }
        assert_media_matches(&s, &copied);

        // Isolation both ways: neither side's first write reaches the other.
        let a = nvmm + 0x9008;
        s.arch_mem_mut().write_u64(a, 0xA1);
        assert_eq!(s.memories.crash_image().read_u64(a), 0x5A);
        let b = BlockAddr::containing(nvmm - 4096);
        let before = s.arch.read_block(b);
        s.memories.write_block(0, b, [0xEE; BLOCK_BYTES]);
        assert_eq!(s.arch.read_block(b), before);
        assert_eq!(s.memories.crash_image().read_u64(a), 0x5A);
        assert_eq!(s.arch.read_u64(a), 0xA1);

        // Adopting an image with pages on both sides of the boundary.
        let mut image = ByteStore::new();
        image.write(0x5000, &pattern);
        image.write(nvmm - 8, &pattern);
        let mut r = sys(PersistencyMode::BbbMemorySide);
        r.adopt_image(&NvmImage::from_store(image.clone()));
        assert_eq!(r.arch, image);
        let mut copied = ByteStore::new();
        copy_per_block(&mut copied, &image, image.page_bases());
        assert_media_matches(&r, &copied);
    }

    #[test]
    #[should_panic(expected = "load outside memory")]
    fn media_sync_rejects_a_page_past_the_end() {
        let mut s = sys(PersistencyMode::BbbMemorySide);
        let end = s.address_map().end();
        s.arch_mem_mut().write_u64(end, 1);
        s.sync_media_from_arch();
    }

    #[test]
    fn compute_advances_time() {
        let mut s = sys(PersistencyMode::Eadr);
        let end = s
            .run_single_core(0, vec![Op::Compute { cycles: 1000 }])
            .unwrap();
        assert_eq!(end, 1000);
        assert_eq!(s.cycle(), 1000);
    }

    #[test]
    fn fence_without_flushes_is_cheap() {
        let mut s = sys(PersistencyMode::BbbMemorySide);
        let a = pbase(&s);
        s.run_single_core(0, vec![Op::store_u64(a, 1), Op::Fence])
            .unwrap();
        // The fence only waits for the SB drain (which here includes one
        // cold-miss fill from NVMM, ~300 cycles) — never for the
        // 1000-cycle NVMM write a PMEM-style flush would require.
        assert!(s.cycle() < 500, "cycle = {}", s.cycle());
    }

    #[test]
    fn pmem_fence_pays_flush_latency() {
        let a_cfg = SimConfig::small_for_tests();
        let mut bbb = System::new(a_cfg.clone(), PersistencyMode::BbbMemorySide).unwrap();
        let mut pmem = System::new(a_cfg, PersistencyMode::Pmem).unwrap();
        let a = pbase(&bbb);
        let ops = |flush: bool| {
            let mut v = Vec::new();
            for i in 0..20u64 {
                v.push(Op::store_u64(a + i * 64, i));
                if flush {
                    v.push(Op::Clwb { addr: a + i * 64 });
                    v.push(Op::Fence);
                }
            }
            v
        };
        let t_bbb = bbb.run_single_core(0, ops(false)).unwrap();
        let t_pmem = pmem.run_single_core(0, ops(true)).unwrap();
        assert!(
            t_pmem > 2 * t_bbb,
            "strict persistency in software must be much slower: {t_pmem} vs {t_bbb}"
        );
    }

    #[test]
    fn stats_aggregate_across_components() {
        let mut s = sys(PersistencyMode::BbbMemorySide);
        let a = pbase(&s);
        s.run_single_core(0, vec![Op::store_u64(a, 1), Op::load_u64(a + 64)])
            .unwrap();
        s.drain_all_store_buffers();
        let st = s.stats();
        assert_eq!(st.get("cores.stores"), 1);
        assert_eq!(st.get("cores.persisting_stores"), 1);
        assert!(st.get("cores.committed") >= 2);
        assert!(st.get("bbpb.allocations") >= 1);
        assert!(st.get("sim.cycles") > 0);
    }

    #[test]
    fn crash_cost_reflects_mode() {
        // eADR: dirty cache blocks dominate; BBB: bbPB entries.
        let mut eadr = sys(PersistencyMode::Eadr);
        let mut bbb = sys(PersistencyMode::BbbMemorySide);
        let a = pbase(&eadr);
        let ops: Vec<Op> = (0..8u64).map(|i| Op::store_u64(a + i * 64, i)).collect();
        eadr.run_single_core(0, ops.clone()).unwrap();
        eadr.drain_all_store_buffers();
        bbb.run_single_core(0, ops).unwrap();
        bbb.drain_all_store_buffers();

        let ce = eadr.crash_cost();
        let cb = bbb.crash_cost();
        assert!(ce.dirty_cache_blocks >= 4);
        assert_eq!(ce.bbpb_entries, 0);
        assert!(cb.bbpb_entries >= 1);
        assert_eq!(cb.dirty_cache_blocks, 0);
        // The headline claim in miniature: BBB's drain set is far smaller.
        assert!(cb.above_mc_blocks() < ce.above_mc_blocks());
    }

    #[test]
    fn multicore_ping_pong_stays_consistent() {
        let mut s = sys(PersistencyMode::BbbMemorySide);
        let a = pbase(&s);

        // Arch memory reflects *committed* stores, so an unsynchronized
        // read-increment-store from two cores is a genuine lost-update
        // race. Serialize like real code would: a lock held from batch
        // generation until the holder's next request (by which point its
        // store has committed and is architecturally visible).
        struct PingPong {
            left: [u32; 2],
            addr: u64,
            holder: Option<usize>,
        }
        impl Workload for PingPong {
            fn name(&self) -> &str {
                "pingpong"
            }
            fn next_batch(&mut self, core: usize, arch: &mut ByteStore) -> Option<Vec<Op>> {
                if self.holder == Some(core) {
                    self.holder = None;
                }
                if self.left[core] == 0 {
                    return None;
                }
                if self.holder.is_some() {
                    return Some(vec![Op::Compute { cycles: 16 }]);
                }
                self.holder = Some(core);
                self.left[core] -= 1;
                let v = arch.read_u64(self.addr) + 1;
                Some(vec![Op::load_u64(self.addr), Op::store_u64(self.addr, v)])
            }
        }

        let mut w = PingPong {
            left: [25, 25],
            addr: a,
            holder: None,
        };
        let summary = s.run(&mut w, u64::MAX);
        assert!(summary.completed);
        // 50 increment batches of 2 ops each, plus any contended spins.
        assert!(summary.ops >= 100);
        s.check_invariants();
        s.drain_all_store_buffers();
        let img = s.crash_now(true);
        assert_eq!(img.read_u64(a), 50, "all 50 increments durable");
    }

    #[test]
    fn run_respects_op_budget() {
        let mut s = sys(PersistencyMode::Eadr);
        let a = pbase(&s);
        struct Infinite {
            addr: u64,
        }
        impl Workload for Infinite {
            fn name(&self) -> &str {
                "infinite"
            }
            fn next_batch(&mut self, _core: usize, arch: &mut ByteStore) -> Option<Vec<Op>> {
                let v = arch.read_u64(self.addr) + 1;
                arch.write_u64(self.addr, v);
                Some(vec![Op::store_u64(self.addr, v)])
            }
        }
        let summary = s.run(&mut Infinite { addr: a }, 10);
        assert_eq!(summary.ops, 10);
        assert!(!summary.completed);
    }

    #[test]
    fn run_until_in_increments_matches_one_shot_run() {
        // The resumable path must be the same machine as `run`: advancing
        // a cursor in cycle-bounded increments, then to completion, lands
        // on the identical crash image and op count.
        let mk = || {
            let s = sys(PersistencyMode::BbbMemorySide);
            let a = pbase(&s);
            let ops: Vec<Op> = (0..64u64)
                .map(|i| Op::store_u64(a + (i % 16) * 64, i))
                .collect();
            (s, ops)
        };
        struct Fixed {
            per_core: Vec<Vec<Op>>,
        }
        impl Workload for Fixed {
            fn name(&self) -> &str {
                "fixed"
            }
            fn next_batch(&mut self, core: usize, _arch: &mut ByteStore) -> Option<Vec<Op>> {
                let ops = std::mem::take(&mut self.per_core[core]);
                if ops.is_empty() {
                    None
                } else {
                    Some(ops)
                }
            }
        }

        let (mut whole, ops) = mk();
        let mut w1 = Fixed {
            per_core: vec![ops.clone(), ops.clone()],
        };
        whole.run(&mut w1, u64::MAX);

        let (mut stepped, ops) = mk();
        let mut w2 = BatchStream::new(Fixed {
            per_core: vec![ops.clone(), ops],
        });
        let mut cursor = RunCursor::new(2);
        let mut at = 50;
        loop {
            let s = stepped.run_until(&mut w2, &mut cursor, StopAt::Cycle(at), None);
            if s.completed {
                break;
            }
            at += 50;
        }
        assert!(cursor.finished());
        // Match `run`'s trailing pump before comparing.
        for c in 0..2 {
            let t = stepped.cores[c].ready_at;
            stepped.pump_sb(c, t);
        }
        assert_eq!(stepped.cycle(), whole.cycle());
        assert_eq!(cursor.ops(), 128);
        assert_eq!(
            stepped.crash_now(true).read_u64(pbase(&whole)),
            whole.crash_now(true).read_u64(pbase(&whole))
        );
    }

    #[test]
    fn event_heap_stays_bounded_on_long_incremental_runs() {
        // Scheduler-heap hygiene: stale events are invalidated lazily on
        // pop with no per-event cleanup. An audit of run_until shows every
        // push is matched by a pop on all paths (step, yield, stop, stream
        // end), so organic runs cannot leak — but a long run advanced in
        // thousands of tiny increments is exactly where an imbalance
        // would compound, so this regression test pins the O(cores)
        // bound the compaction pass enforces either way.
        let mut cfg = SimConfig::small_for_tests();
        cfg.cores = 1;
        let mut s = System::new(cfg, PersistencyMode::BbbMemorySide).unwrap();
        let a = s.address_map().persistent_base();
        struct Stream {
            addr: u64,
            left: u64,
        }
        impl Workload for Stream {
            fn name(&self) -> &str {
                "stream"
            }
            fn next_batch(&mut self, _core: usize, _arch: &mut ByteStore) -> Option<Vec<Op>> {
                if self.left == 0 {
                    return None;
                }
                self.left -= 1;
                Some(vec![Op::store_u64(
                    self.addr + (self.left % 64) * 64,
                    self.left,
                )])
            }
        }
        let mut w = BatchStream::new(Stream {
            addr: a,
            left: 5000,
        });
        let mut cursor = RunCursor::new(1);
        // One in-flight workload event: the compaction threshold 2n + 8.
        let bound = 10;
        let mut at = 0;
        loop {
            at += 200;
            let summary = s.run_until(&mut w, &mut cursor, StopAt::Cycle(at), None);
            assert!(
                cursor.queued_events() <= bound,
                "event heap grew to {} entries",
                cursor.queued_events()
            );
            if summary.completed {
                break;
            }
        }
        assert_eq!(cursor.ops(), 5000);
    }

    #[test]
    fn forged_duplicate_events_are_compacted_away() {
        // Force the pathological heap state the lazy invalidation could
        // in principle accumulate: hundreds of stale duplicates for one
        // core, and no entry at all for the other. The compaction pass
        // must rebuild the heap from the per-core clocks — restoring the
        // one-event-per-active-core invariant — and the run must still
        // complete with every op accounted for.
        let mut s = sys(PersistencyMode::Eadr);
        let a = pbase(&s);
        struct Fixed {
            per_core: Vec<Vec<Op>>,
        }
        impl Workload for Fixed {
            fn name(&self) -> &str {
                "fixed"
            }
            fn next_batch(&mut self, core: usize, _arch: &mut ByteStore) -> Option<Vec<Op>> {
                let ops = std::mem::take(&mut self.per_core[core]);
                if ops.is_empty() {
                    None
                } else {
                    Some(ops)
                }
            }
        }
        let ops: Vec<Op> = (0..32u64).map(|i| Op::store_u64(a + i * 64, i)).collect();
        let mut w = BatchStream::new(Fixed {
            per_core: vec![ops.clone(), ops],
        });
        let mut cursor = RunCursor::new(2);
        for i in 0..500u64 {
            cursor.events.push(i, 0);
        }
        let summary = s.run_until(&mut w, &mut cursor, StopAt::End, None);
        assert!(summary.completed);
        assert_eq!(cursor.ops(), 64, "both cores ran despite the forged heap");
        assert!(cursor.queued_events() <= 2 * 2 + 8);
        s.check_invariants();
    }

    #[test]
    fn cloned_system_crashes_independently() {
        let mut s = sys(PersistencyMode::BbbMemorySide);
        let a = pbase(&s);
        s.run_single_core(0, vec![Op::store_u64(a, 0x111)]).unwrap();
        let mut fork = s.clone();
        let img = fork.crash_now(true);
        assert_eq!(img.read_u64(a), 0x111);
        // The original keeps running as if the fork never existed —
        // including writes that land on pages the fork's COW snapshot
        // still shares.
        s.run_single_core(0, vec![Op::store_u64(a + 8, 0x222)])
            .unwrap();
        let img2 = s.crash_now(true);
        assert_eq!(img2.read_u64(a), 0x111);
        assert_eq!(img2.read_u64(a + 8), 0x222);
        // And the fork's image is frozen: the original's later store must
        // not bleed through the shared pages.
        assert_eq!(img.read_u64(a + 8), 0);
    }

    /// Cross-core same-line SB conflicts at a crash must resolve in
    /// coherence order τ = (commit cycle, core, seq), not core index
    /// (DESIGN.md §9.4, resolved ledger item 1): core 1 stores first,
    /// core 0 stores the same word 1000 cycles later, and the later store
    /// must win in the crash image even though core 0 drains "first" by
    /// index.
    #[test]
    fn crash_drain_resolves_sb_conflicts_by_commit_order() {
        for mode in [
            PersistencyMode::Eadr,
            PersistencyMode::BbbMemorySide,
            PersistencyMode::BbbProcessorSide,
        ] {
            let mut s = sys(mode);
            let a = pbase(&s);
            s.step_op(1, &Op::store_u64(a, 0x0B01D)); // committed early
            s.step_op(0, &Op::Compute { cycles: 1000 });
            s.step_op(0, &Op::store_u64(a, 0xA11CE)); // committed late
            let img = s.crash_image(true);
            let mut fork = s.clone();
            let destructive = fork.crash_now(true);
            assert_eq!(img, destructive, "{mode}: overlay vs destructive");
            assert_eq!(
                img.read_u64(a),
                0xA11CE,
                "{mode}: the later-committed store must win the conflict"
            );
        }
    }

    /// The non-destructive `crash_image` must be byte-identical to forking
    /// the system and crashing the fork — for every mode, in both battery
    /// states, both mid-flight (store buffers and persist buffers
    /// occupied) and after the buffers drain (dirty caches under eADR,
    /// resident bbPB entries under BBB).
    #[test]
    fn crash_image_matches_destructive_crash_across_modes() {
        for mode in PersistencyMode::ALL {
            let mut s = sys(mode);
            let a = pbase(&s);
            let mut ops = Vec::new();
            for i in 0..24u64 {
                ops.push(Op::store_u64(a + i * 40, 0x1000 + i));
                if mode.requires_flushes() && i % 3 == 0 {
                    ops.push(Op::Clwb { addr: a + i * 40 });
                    ops.push(Op::Fence);
                }
                if mode.requires_epoch_barriers() && i % 5 == 0 {
                    ops.push(Op::Fence);
                }
            }
            s.run_single_core(0, ops).unwrap();

            // Mid-flight: store buffers may still hold entries.
            for battery_ok in [true, false] {
                let image = s.crash_image(battery_ok);
                let mut fork = s.clone();
                let destructive = if battery_ok {
                    fork.crash_now(true)
                } else {
                    fork.crash_now(false)
                };
                assert_eq!(
                    image, destructive,
                    "{mode}: mid-flight, battery_ok={battery_ok}"
                );
            }

            // Post-drain: persist domain holds the interesting state.
            s.drain_all_store_buffers();
            for battery_ok in [true, false] {
                let image = s.crash_image(battery_ok);
                let mut fork = s.clone();
                let destructive = if battery_ok {
                    fork.crash_now(true)
                } else {
                    fork.crash_now(false)
                };
                assert_eq!(
                    image, destructive,
                    "{mode}: post-drain, battery_ok={battery_ok}"
                );
            }

            // crash_image is genuinely non-destructive: the live system
            // still produces the same destructive image afterwards.
            let again = s.crash_image(true);
            let destructive = s.crash_now(true);
            assert_eq!(again, destructive, "{mode}: live system undisturbed");
        }
    }

    #[test]
    fn battery_dropped_crash_loses_buffered_stores() {
        for mode in [
            PersistencyMode::BbbMemorySide,
            PersistencyMode::BbbProcessorSide,
            PersistencyMode::Eadr,
        ] {
            let mut s = sys(mode);
            let a = pbase(&s);
            s.run_single_core(0, vec![Op::store_u64(a, 0xFEED)])
                .unwrap();
            let mut fork = s.clone();
            assert_eq!(
                fork.crash_now(true).read_u64(a),
                0xFEED,
                "{mode}: battery drains"
            );
            let img = s.crash_now(false);
            assert_eq!(
                img.read_u64(a),
                0,
                "{mode}: without the battery the store dies"
            );
        }
    }

    #[test]
    fn crash_mid_wpq_backpressure_keeps_every_accepted_write() {
        // Satellite: crash while the WPQ sits at occupancy == capacity.
        // A tiny queue plus a store stream wide enough to outrun the media
        // guarantees backpressure; every accepted write must still be in
        // the crash image because the queue is inside the ADR domain.
        let mut cfg = SimConfig::small_for_tests();
        cfg.mem.wpq_entries = 2;
        cfg.mem.nvmm_channels = 1;
        let mut s = System::new(cfg, PersistencyMode::BbbMemorySide).unwrap();
        let a = s.address_map().persistent_base();
        let ops: Vec<Op> = (0..64u64)
            .map(|i| Op::store_u64(a + i * 64, i + 1))
            .collect();
        s.run_single_core(0, ops).unwrap();
        s.drain_all_store_buffers();
        let probe = s.probe_events();
        assert!(
            probe.wpq_backpressure > 0,
            "stream must backpressure the WPQ"
        );
        let img = s.crash_now(true);
        for i in 0..64u64 {
            assert_eq!(img.read_u64(a + i * 64), i + 1, "store {i}");
        }
    }

    #[test]
    fn probe_events_counts_fences() {
        let mut s = sys(PersistencyMode::Pmem);
        let a = pbase(&s);
        s.run_single_core(
            0,
            vec![
                Op::store_u64(a, 1),
                Op::Clwb { addr: a },
                Op::Fence,
                Op::Fence,
            ],
        )
        .unwrap();
        assert_eq!(s.probe_events().fences, 2);
    }

    #[test]
    fn bbpb_inclusion_invariant_holds_under_pressure() {
        // Stream stores over many distinct blocks so LLC evictions force
        // drains; the invariant check would catch stale bbPB entries.
        let mut s = sys(PersistencyMode::BbbMemorySide);
        let a = pbase(&s);
        let ops: Vec<Op> = (0..600u64).map(|i| Op::store_u64(a + i * 64, i)).collect();
        s.run_single_core(0, ops).unwrap();
        s.drain_all_store_buffers();
        s.check_invariants();
        let st = s.stats();
        assert!(
            st.get("cache.suppressed_writebacks") > 0,
            "persistent evictions must skip the redundant writeback"
        );
        // Everything durable at crash despite zero flushes.
        let img = s.crash_now(true);
        for i in 0..600u64 {
            assert_eq!(img.read_u64(a + i * 64), i, "store {i}");
        }
    }

    /// Two cores interleaving runs of compute ops with stores; batches mix
    /// compute-run lengths so the fold exercises mid-run yields and stops.
    struct ComputeHeavy {
        left: [u32; 2],
        base: u64,
    }

    impl Workload for ComputeHeavy {
        fn name(&self) -> &str {
            "compute-heavy"
        }
        fn next_batch(&mut self, core: usize, arch: &mut ByteStore) -> Option<Vec<Op>> {
            if self.left[core] == 0 {
                return None;
            }
            self.left[core] -= 1;
            let i = u64::from(self.left[core]);
            let mut ops = Vec::new();
            // Uneven compute runs so cores' clocks cross mid-fold.
            for k in 0..(1 + (i + core as u64) % 5) {
                ops.push(Op::Compute {
                    cycles: (7 + 13 * k + core as u64 * 3) as u32,
                });
            }
            let slot = self.base + (core as u64 * 64 + (i % 8)) * 8;
            let v = arch.read_u64(slot) + 1;
            ops.push(Op::store_u64(slot, v));
            ops.push(Op::Compute { cycles: 5 });
            ops.push(Op::Compute { cycles: 9 });
            Some(ops)
        }
    }

    /// A lock-guarded increment in the manner of the workloads' insert
    /// lock: while another core holds the lock, a core's whole batch is
    /// one spin `Compute`, so spin turns arrive one batch at a time and a
    /// fold over them crosses `next_batch` calls. The lock is released
    /// when the holder asks for its next batch.
    struct LockSpin {
        left: [u32; 2],
        addr: u64,
        holder: Option<usize>,
    }

    impl Workload for LockSpin {
        fn name(&self) -> &str {
            "lock-spin"
        }
        fn next_batch(&mut self, core: usize, arch: &mut ByteStore) -> Option<Vec<Op>> {
            if self.holder == Some(core) {
                self.holder = None;
            }
            if self.left[core] == 0 {
                return None;
            }
            if self.holder.is_some() {
                return Some(vec![Op::Compute { cycles: 24 }]);
            }
            self.holder = Some(core);
            self.left[core] -= 1;
            let v = arch.read_u64(self.addr) + 1;
            Some(vec![
                Op::load_u64(self.addr),
                Op::Compute { cycles: 90 },
                Op::store_u64(self.addr, v),
                Op::Compute { cycles: 40 },
            ])
        }
    }

    /// Runs the op source `mk` builds on two fresh `mode` machines —
    /// folded (`run_stream`) and as the probed per-op reference, which
    /// disables the fold — and asserts the same summary, stats (including
    /// `sched.*` attribution), and crash image. Returns the ops run.
    fn assert_fold_matches_reference<S: OpStream>(
        mode: PersistencyMode,
        mk: impl Fn(u64) -> S,
    ) -> u64 {
        let mut folded = sys(mode);
        let mut reference = sys(mode);
        let base = pbase(&folded) + 0x400;
        let s1 = folded.run_stream(&mut mk(base), u64::MAX);
        let mut cursor = RunCursor::new(reference.cores.len());
        let mut sink = Vec::new();
        let probe = Some(Probe::Ordering(&mut sink));
        let s2 = reference.run_until(&mut mk(base), &mut cursor, StopAt::End, probe);
        for c in 0..reference.cores.len() {
            let t = reference.cores[c].ready_at;
            reference.pump_sb(c, t);
        }
        let s2 = RunSummary {
            cycles: reference.now_max,
            ..s2
        };
        assert_eq!(s1, s2, "{mode:?}");
        assert_eq!(folded.stats(), reference.stats(), "{mode:?}");
        let (ia, ib) = (folded.crash_image(true), reference.crash_image(true));
        assert_eq!(ia.as_store(), ib.as_store(), "{mode:?}");
        s1.ops
    }

    #[test]
    fn compute_fold_matches_unfolded_reference() {
        // The fold looks ahead through the stream, so each input below
        // has compute runs that span separate op pulls: ComputeHeavy's
        // batches end and begin with computes, lock spins are one-op
        // batches, and the litmus bridge's gate stalls are one-op pulls.
        for mode in PersistencyMode::ALL {
            assert_fold_matches_reference(mode, |base| {
                BatchStream::new(ComputeHeavy {
                    left: [40, 31],
                    base,
                })
            });

            let locked = 2 * 12 * 4;
            let ops = assert_fold_matches_reference(mode, |addr| {
                BatchStream::new(LockSpin {
                    left: [12, 12],
                    addr,
                    holder: None,
                })
            });
            assert!(ops > locked, "{mode:?}: no spin turns ({ops} ops)");

            let mut schedule = Vec::new();
            for i in 0..16u64 {
                let c = (i % 2) as usize;
                schedule.push((
                    c,
                    Op::Compute {
                        cycles: (40 + 29 * i) as u32,
                    },
                ));
                schedule.push((1 - c, Op::store_u64(0x40 * (i % 4), i)));
                schedule.push((c, Op::store_u64(0x40 * (i % 4) + 8, i)));
            }
            let ops = assert_fold_matches_reference(mode, |base| {
                let ops: Vec<(usize, Op)> = schedule
                    .iter()
                    .map(|&(c, op)| match op {
                        Op::Store { addr, size, bytes } => (
                            c,
                            Op::Store {
                                addr: base + addr,
                                size,
                                bytes,
                            },
                        ),
                        op => (c, op),
                    })
                    .collect();
                crate::ScheduledOps::new(&ops, 2)
            });
            assert!(ops > schedule.len() as u64, "{mode:?}: no gate stalls");
        }
    }

    #[test]
    fn compute_fold_respects_op_budget_and_cycle_stop() {
        let base_budget = 37u64;
        for stop_kind in 0..2 {
            let mut folded = sys(PersistencyMode::Eadr);
            let mut reference = sys(PersistencyMode::Eadr);
            let base = pbase(&folded) + 0x400;
            let mk = || ComputeHeavy {
                left: [40, 31],
                base,
            };
            let stop = if stop_kind == 0 {
                StopAt::Ops(base_budget)
            } else {
                StopAt::Cycle(500)
            };
            let mut c1 = RunCursor::new(folded.cores.len());
            let s1 = folded.run_until(&mut BatchStream::new(mk()), &mut c1, stop, None);
            // Per-op reference: one-op run_until increments, each of which
            // stops before a fold can retire a second op.
            let mut c2 = RunCursor::new(reference.cores.len());
            let mut w = BatchStream::new(mk());
            let mut s2 = reference.run_until(&mut w, &mut c2, StopAt::Ops(1), None);
            loop {
                let done = match stop {
                    StopAt::Ops(b) => c2.ops() >= b,
                    StopAt::Cycle(at) => reference.now_max >= at,
                    StopAt::End => unreachable!(),
                };
                if done || c2.finished() {
                    break;
                }
                let next = c2.ops() + 1;
                s2 = reference.run_until(&mut w, &mut c2, StopAt::Ops(next), None);
            }
            assert_eq!(s1.ops, s2.ops, "stop {stop:?}");
            assert_eq!(folded.now_max, reference.now_max, "stop {stop:?}");
            assert_eq!(folded.stats(), reference.stats(), "stop {stop:?}");
        }
    }

    #[test]
    fn persist_latency_is_zero_under_battery_and_positive_under_pmem() {
        // Battery-backed SB: PoP == commit, the whole distribution is 0.
        for mode in [
            PersistencyMode::Eadr,
            PersistencyMode::BbbMemorySide,
            PersistencyMode::BbbProcessorSide,
        ] {
            let mut s = sys(mode);
            let a = pbase(&s);
            let ops: Vec<Op> = (0..16u64).map(|i| Op::store_u64(a + i * 64, i)).collect();
            s.run_single_core(0, ops).unwrap();
            let st = s.stats();
            assert_eq!(st.get("persist.latency.samples"), 16, "{mode:?}");
            assert_eq!(st.get("persist.latency.p999"), 0, "{mode:?}");
            assert_eq!(st.get("persist.latency.max"), 0, "{mode:?}");
            assert_eq!(st.get("cores.persisting_store_bytes"), 16 * 8, "{mode:?}");
        }
        // ADR + flushes: the clwb resolves the store at WPQ acceptance,
        // hundreds of cycles after commit.
        let mut s = sys(PersistencyMode::Pmem);
        let a = pbase(&s);
        let mut ops = Vec::new();
        for i in 0..8u64 {
            ops.push(Op::store_u64(a + i * 64, i));
            ops.push(Op::Clwb { addr: a + i * 64 });
            ops.push(Op::Fence);
        }
        s.run_single_core(0, ops).unwrap();
        let st = s.stats();
        assert_eq!(st.get("persist.latency.samples"), 8);
        assert!(st.get("persist.latency.p50") > 0);
        assert_eq!(st.get("persist.latency.unresolved"), 0);
        // BEP: the epoch barrier resolves everything the core committed.
        let mut s = sys(PersistencyMode::Bep);
        let a = pbase(&s);
        let mut ops: Vec<Op> = (0..8u64).map(|i| Op::store_u64(a + i * 64, i)).collect();
        ops.push(Op::Fence);
        s.run_single_core(0, ops).unwrap();
        let st = s.stats();
        assert_eq!(st.get("persist.latency.samples"), 8);
        assert_eq!(st.get("persist.latency.unresolved"), 0);
    }
}
