//! Host timing of experiment points, taken from outside the simulator.
//!
//! [`execute`] repeats `bbb_runner::execute_spec` step by step through the
//! same public calls, reading the clock between them. Traced, it also
//! wraps the workload in [`Timed`], which times `setup` and a sample of
//! the per-op generator calls.

use std::cell::RefCell;
use std::time::Instant;

use bbb_core::{ByteStore, Op, OpStream, RunSummary, System, Workload};
use bbb_runner::{ExperimentSpec, RunResult, Runner};
use bbb_sim::LatencyHistogram;
use bbb_workloads::{make_stream, make_workload, suite::with_epoch_barriers};

/// Reads the host clock. The one wall-clock site of the benchmark: host
/// time is reported, never fed back into a simulation.
#[allow(clippy::disallowed_methods)]
#[must_use]
pub fn now() -> Instant {
    Instant::now()
}

/// Seconds since `t`, restarting `t` at the present instant.
pub fn lap(t: &mut Instant) -> f64 {
    let n = now();
    let s = n.duration_since(*t).as_secs_f64();
    *t = n;
    s
}

/// Host seconds [`host_speed`]'s kernel takes on a quiet host (2-vCPU
/// Xeon VM at 2.0 GHz).
const REFERENCE_KERNEL_S: f64 = 1.0e-4;

thread_local! {
    static KERNEL_TABLE: RefCell<Vec<u64>> = RefCell::new(vec![0; 1 << 15]);
}

/// The host's speed right now, relative to a quiet host: the
/// reference time of a fixed kernel (SplitMix64-driven read-modify-writes
/// over a 256 KiB table, integer work and cache traffic like the
/// simulator's) divided by its measured time.
///
/// Other tenants of a shared host slow every pass by up to 2× in phases
/// that last from a second to minutes. Sampled between units of work and
/// weighted by their duration ([`SpeedMeter`]), this factor converts the
/// host seconds of a pass to seconds on the quiet host.
#[must_use]
pub fn host_speed() -> f64 {
    KERNEL_TABLE.with(|table| {
        let mut table = table.borrow_mut();
        // Bring the table back into cache before timing.
        let warm = table.iter().fold(0u64, |a, &v| a ^ v);
        let mask = table.len() - 1;
        let t = now();
        let mut x = warm;
        for _ in 0..(1u32 << 16) {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let i = (z as usize) & mask;
            table[i] = table[i].wrapping_add(z);
        }
        std::hint::black_box(&mut *table);
        REFERENCE_KERNEL_S / t.elapsed().as_secs_f64()
    })
}

/// Duration-weighted mean of [`host_speed`] samples over a pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpeedMeter {
    seconds: f64,
    scaled: f64,
}

impl SpeedMeter {
    /// Records `seconds` of work done at `speed`.
    pub fn add(&mut self, seconds: f64, speed: f64) {
        self.seconds += seconds;
        self.scaled += seconds * speed;
    }

    /// The mean speed (1 when nothing was recorded).
    #[must_use]
    pub fn speed(&self) -> f64 {
        if self.seconds > 0.0 {
            self.scaled / self.seconds
        } else {
            1.0
        }
    }
}

/// Host seconds one experiment point spent in each public call.
#[derive(Debug, Clone, Copy, Default)]
pub struct PointTimes {
    /// [`host_speed`] sampled just before the point.
    pub setup_speed: f64,
    /// [`host_speed`] sampled just before the run window.
    pub run_speed: f64,
    /// `System::new`.
    pub new_s: f64,
    /// `prepare_stream` / `prepare`: workload setup plus media sync.
    pub prepare_s: f64,
    /// The workload's own `setup` inside `prepare` (traced only).
    pub setup_s: f64,
    /// `run_stream` / `run`: the measured window.
    pub run_s: f64,
    /// Estimated time inside the workload's per-op generator during the
    /// run (traced only).
    pub gen_s: f64,
    /// Generator calls during the run (traced only).
    pub gen_calls: u64,
    /// `drain_all_store_buffers`.
    pub drain_s: f64,
    /// `stats`.
    pub stats_s: f64,
}

impl PointTimes {
    /// Host seconds before the measured window.
    #[must_use]
    pub fn before_run_s(&self) -> f64 {
        self.new_s + self.prepare_s
    }

    /// Host seconds of the whole point.
    #[must_use]
    pub fn total_s(&self) -> f64 {
        self.new_s + self.prepare_s + self.run_s + self.drain_s + self.stats_s
    }

    /// Records the point's host speed: set-up at the speed sampled before
    /// it, the rest at the speed sampled before the run window.
    pub fn record_speed(&self, meter: &mut SpeedMeter) {
        meter.add(self.before_run_s(), self.setup_speed);
        meter.add(self.total_s() - self.before_run_s(), self.run_speed);
    }
}

/// Every `GEN_SAMPLE`-th generator call is timed. Reading the clock
/// around every call would cost as much as a simulated op; 7 is coprime
/// with every simulated core count, so the sample does not alias with
/// the cores' turn order.
const GEN_SAMPLE: u64 = 7;

/// A workload wrapper that times `setup` and samples the per-op
/// generator calls (`OpStream::next_op`, `Workload::next_batch`).
pub struct Timed<'a, W: ?Sized> {
    inner: &'a mut W,
    setup_s: f64,
    calls: u64,
    sampled: u64,
    sampled_s: f64,
}

impl<'a, W: ?Sized> Timed<'a, W> {
    fn new(inner: &'a mut W) -> Self {
        Self {
            inner,
            setup_s: 0.0,
            calls: 0,
            sampled: 0,
            sampled_s: 0.0,
        }
    }

    fn timed_setup(&mut self, f: impl FnOnce(&mut W)) {
        let t = now();
        f(self.inner);
        self.setup_s += t.elapsed().as_secs_f64();
    }

    fn timed_call<R>(&mut self, f: impl FnOnce(&mut W) -> R) -> R {
        self.calls += 1;
        if !self.calls.is_multiple_of(GEN_SAMPLE) {
            return f(self.inner);
        }
        let t = now();
        let r = f(self.inner);
        self.sampled_s += t.elapsed().as_secs_f64();
        self.sampled += 1;
        r
    }

    /// Counts recorded since construction, with the sampled generator
    /// time scaled up to every call.
    fn record(&self, times: &mut PointTimes) {
        times.setup_s = self.setup_s;
        times.gen_calls = self.calls;
        times.gen_s = if self.sampled == 0 {
            0.0
        } else {
            self.sampled_s * self.calls as f64 / self.sampled as f64
        };
    }
}

impl OpStream for Timed<'_, dyn OpStream> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn setup(&mut self, arch: &mut ByteStore) {
        self.timed_setup(|w| w.setup(arch));
    }

    fn next_op(&mut self, core: usize, arch: &mut ByteStore) -> Option<Op> {
        self.timed_call(|w| w.next_op(core, arch))
    }
}

impl Workload for Timed<'_, dyn Workload> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn setup(&mut self, arch: &mut ByteStore) {
        self.timed_setup(|w| w.setup(arch));
    }

    fn next_batch(&mut self, core: usize, arch: &mut ByteStore) -> Option<Vec<Op>> {
        self.timed_call(|w| w.next_batch(core, arch))
    }
}

/// Runs one spec exactly as `execute_spec` does, timing each call, and
/// returns the result, the times, and the persist-latency histogram.
/// `traced` adds the [`Timed`] generator wrapper.
#[must_use]
pub fn execute(spec: &ExperimentSpec, traced: bool) -> (RunResult, PointTimes, LatencyHistogram) {
    let mut times = PointTimes {
        setup_speed: host_speed(),
        ..PointTimes::default()
    };
    let mut t = now();
    let mut sys = System::new(spec.cfg.clone(), spec.mode).expect("valid config");
    times.new_s = lap(&mut t);
    let summary = if let Some(mut stream) =
        make_stream(spec.workload, &spec.cfg, spec.params, spec.epoch_barriers)
    {
        if traced {
            let mut timed = Timed::new(stream.as_mut());
            let s = run_stream(&mut sys, &mut timed, spec.op_budget, &mut times, &mut t);
            timed.record(&mut times);
            s
        } else {
            run_stream(
                &mut sys,
                stream.as_mut(),
                spec.op_budget,
                &mut times,
                &mut t,
            )
        }
    } else {
        let mut w = make_workload(spec.workload, &spec.cfg, spec.params);
        if spec.epoch_barriers {
            w = with_epoch_barriers(w);
        }
        if traced {
            let mut timed = Timed::new(w.as_mut());
            let s = run_batch(&mut sys, &mut timed, spec.op_budget, &mut times, &mut t);
            timed.record(&mut times);
            s
        } else {
            run_batch(&mut sys, w.as_mut(), spec.op_budget, &mut times, &mut t)
        }
    };
    if spec.op_budget == u64::MAX {
        sys.drain_all_store_buffers();
    }
    times.drain_s = lap(&mut t);
    let stats = sys.stats();
    times.stats_s = lap(&mut t);
    let latency = sys.persist_latency().clone();
    (RunResult { summary, stats }, times, latency)
}

fn run_stream(
    sys: &mut System,
    stream: &mut dyn OpStream,
    budget: u64,
    times: &mut PointTimes,
    t: &mut Instant,
) -> RunSummary {
    sys.prepare_stream(stream);
    times.prepare_s = lap(t);
    times.run_speed = host_speed();
    lap(t);
    let summary = sys.run_stream(stream, budget);
    times.run_s = lap(t);
    summary
}

fn run_batch(
    sys: &mut System,
    w: &mut dyn Workload,
    budget: u64,
    times: &mut PointTimes,
    t: &mut Instant,
) -> RunSummary {
    sys.prepare(w);
    times.prepare_s = lap(t);
    times.run_speed = host_speed();
    lap(t);
    let summary = sys.run(w, budget);
    times.run_s = lap(t);
    summary
}

/// The outcome of executing a spec list.
pub struct SpecRun {
    /// Spec index defining each distinct point.
    pub jobs: Vec<usize>,
    /// The distinct point each spec maps to.
    pub assignment: Vec<usize>,
    /// Result of each distinct point.
    pub results: Vec<RunResult>,
    /// Host times of each distinct point.
    pub times: Vec<PointTimes>,
    /// Persist-latency histogram of each distinct point.
    pub latency: Vec<LatencyHistogram>,
}

impl SpecRun {
    /// The result of spec `i`.
    #[must_use]
    pub fn result(&self, i: usize) -> &RunResult {
        &self.results[self.assignment[i]]
    }
}

/// Executes every distinct point of `specs` once on a `threads`-wide
/// worker pool, timing each, and hands duplicates the shared result —
/// the contract of `Runner::run`, with the points timed from outside.
#[must_use]
pub fn run_specs(specs: &[ExperimentSpec], threads: usize, traced: bool) -> SpecRun {
    let mut jobs: Vec<usize> = Vec::new();
    let assignment: Vec<usize> = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            jobs.iter()
                .position(|&j| specs[j].same_point(spec))
                .unwrap_or_else(|| {
                    jobs.push(i);
                    jobs.len() - 1
                })
        })
        .collect();
    let points = Runner::with_threads(threads).map(&jobs, |&i| execute(&specs[i], traced));
    let mut run = SpecRun {
        jobs,
        assignment,
        results: Vec::with_capacity(points.len()),
        times: Vec::with_capacity(points.len()),
        latency: Vec::with_capacity(points.len()),
    };
    for (result, times, latency) in points {
        run.results.push(result);
        run.times.push(times);
        run.latency.push(latency);
    }
    run
}
