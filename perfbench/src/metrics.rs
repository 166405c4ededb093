//! Metric names, per-pass measurements, and the summary a run prints.
//!
//! Which end-to-end metric each per-layer metric should move, and on
//! which workload, is written down in `perfbench/README.md`.

use std::collections::BTreeMap;
use std::fmt::Debug;

use bbb_core::PersistencyMode;
use bbb_runner::{ExperimentSpec, RunResult};
use bbb_sim::{LatencyHistogram, Stats};

use crate::exec::{PointTimes, SpecRun, SpeedMeter};

/// End-to-end metrics `(name, unit)`, printed by an untraced run.
pub const END_TO_END: [(&str, &str); 10] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_ops_per_s", "1/s"),
    ("sim_cycles_per_s", "1/s"),
    ("points_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("pass_frac", "frac"),
    ("bbb_slowdown_vs_eadr", "x"),
    ("nvmm_write_amp", "B/B"),
    ("pmem_p999_persist_cycles", "cycles"),
];

/// Per-layer metrics `(name, unit)`, printed by a traced run. A layer the
/// workload does not pass through reads 0.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("workloads.setup_s", "s"),
    ("core.prepare_media_s", "s"),
    ("workloads.next_op_ns", "ns"),
    ("core.run_ns_per_op", "ns"),
    ("core.new_ms", "ms"),
    ("core.drain_ms", "ms"),
    ("core.stats_ms", "ms"),
    ("cache.l1_miss_ratio", "frac"),
    ("cache.l2_misses", "count"),
    ("cache.coherence_msgs", "count"),
    ("cpu.sb_full_stalls", "count"),
    ("cpu.fence_stall_cycles", "cycles"),
    ("cpu.fences", "count"),
    ("bbpb.allocations", "count"),
    ("bbpb.coalesce_ratio", "frac"),
    ("bbpb.rejections", "count"),
    ("bbpb.drains", "count"),
    ("bbpb.mean_occupancy", "entries"),
    ("mem.wpq_backpressure", "count"),
    ("mem.nvmm_writes", "count"),
    ("mem.nvmm_reads", "count"),
    ("sched.cycles.pipeline", "frac"),
    ("sched.cycles.store_buffer", "frac"),
    ("sched.cycles.wpq", "frac"),
    ("sched.cycles.bbpb", "frac"),
    ("sched.cycles.nvmm", "frac"),
    ("crashfuzz.plan_s", "s"),
    ("crashfuzz.sweep_us_per_point", "us"),
    ("crashfuzz.merge_s", "s"),
    ("crashfuzz.snapshot_reuse_ratio", "frac"),
    ("crashfuzz.pages_copied", "count"),
    ("check.evaluate_ms_per_shape", "ms"),
    ("check.conform_ms_per_shape", "ms"),
    ("check.crash_images", "count"),
    ("runner.plan_s", "s"),
    ("runner.overhead_s", "s"),
    ("runner.unique_ratio", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// Output checks: how many ran and how many failed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
}

impl Checks {
    /// Records one check, reporting a failure on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    /// The checks every simulated point must pass: it ran to completion,
    /// and a battery-backed row keeps the parity-pinned invariants (no
    /// fences, zero persist latency at p999, no unresolved stores).
    pub fn point(&mut self, spec: &ExperimentSpec, r: &RunResult) {
        let battery = matches!(
            spec.mode,
            PersistencyMode::Eadr
                | PersistencyMode::BbbMemorySide
                | PersistencyMode::BbbProcessorSide
        );
        let ok = r.summary.completed
            && r.summary.ops > 0
            && (!battery
                || (r.stats.get("cores.fences") == 0
                    && r.stats.get("persist.latency.p999") == 0
                    && r.stats.get("persist.latency.unresolved") == 0));
        self.check(ok, || format!("point {} broke an invariant", spec.label));
    }
}

/// FNV-1a over every simulated counter a pass produced: equal digests on
/// two commits mean every simulated counter stayed byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Adds a point's summary and full statistics.
    pub fn result(&mut self, r: &RunResult) {
        self.debug(&r.summary);
        for (k, v) in r.stats.iter() {
            self.bytes(format!("{k}={v};").as_bytes());
        }
    }

    /// Adds a value through its `Debug` rendering (every field).
    pub fn debug(&mut self, v: &impl Debug) {
        self.bytes(format!("{v:?}").as_bytes());
    }
}

/// The simulated end-to-end metrics: deterministic for a seed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimMetrics {
    /// Geomean over bbb-mem points of cycles / matched eADR cycles.
    pub slowdown: f64,
    /// bbb-mem steady NVMM media bytes per persisting store byte.
    pub write_amp: f64,
    /// PMEM p999 commit-to-persist latency, cycles.
    pub pmem_p999: f64,
}

impl SimMetrics {
    /// Derives the metrics from a point list; `baseline[i]` is the eADR
    /// point a bbb-mem point `i` is normalised to. The PMEM latency is the
    /// p999 of every PMEM point's histogram merged.
    #[must_use]
    pub fn of(specs: &[ExperimentSpec], run: &SpecRun, baseline: &[Option<usize>]) -> Self {
        let mut log_sum = 0.0;
        let mut pairs = 0u32;
        let (mut media, mut persisted) = (0u64, 0u64);
        for (i, b) in baseline.iter().enumerate() {
            if let Some(b) = *b {
                let r = run.result(i);
                log_sum += (r.cycles() as f64 / run.result(b).cycles().max(1) as f64).ln();
                pairs += 1;
                media += r.nvmm_writes_steady() * 64;
                persisted += r.stats.get("cores.persisting_store_bytes");
            }
        }
        let mut pmem = LatencyHistogram::new();
        for (&j, latency) in run.jobs.iter().zip(&run.latency) {
            if specs[j].mode == PersistencyMode::Pmem {
                pmem.merge(latency);
            }
        }
        Self {
            slowdown: (log_sum / f64::from(pairs.max(1))).exp(),
            write_amp: media as f64 / persisted.max(1) as f64,
            pmem_p999: pmem.percentile_permille(999) as f64,
        }
    }
}

/// What one pass over a workload measured. Its end-to-end host times
/// are scaled to the quiet host (see `exec::host_speed`).
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Host seconds of the whole pass.
    pub wall_s: f64,
    /// Host seconds before the measured windows.
    pub setup_s: f64,
    /// Host seconds inside the measured run windows.
    pub run_s: f64,
    /// Simulated ops committed inside the run windows.
    pub sim_ops: u64,
    /// Simulated cycles inside the run windows.
    pub sim_cycles: u64,
    /// Completed units (experiment points, crash points, crash images).
    pub points: u64,
    /// Output checks.
    pub checks: Checks,
    /// Digest of every simulated counter.
    pub digest: Digest,
    /// Simulated end-to-end metrics.
    pub sim: SimMetrics,
    /// Per-layer metrics (traced passes only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Host speed over the pass's units of work.
    pub speed: SpeedMeter,
}

impl Pass {
    /// Sets the pass's wall time from its raw host seconds, scaled by the
    /// pass's mean host speed.
    pub fn set_wall(&mut self, raw_s: f64) {
        self.wall_s = raw_s * self.speed.speed();
    }
}

impl Pass {
    /// Sets a per-layer metric; the name must be one of [`PER_LAYER`].
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.layers.insert(name, value);
    }

    /// Adds the run windows, output checks and counters of the distinct
    /// points of a spec list.
    pub fn add_points(&mut self, specs: &[ExperimentSpec], run: &SpecRun) {
        for ((&j, r), t) in run.jobs.iter().zip(&run.results).zip(&run.times) {
            self.checks.point(&specs[j], r);
            self.digest.result(r);
            self.setup_s += t.before_run_s() * t.setup_speed;
            self.run_s += t.run_s * t.run_speed;
            self.sim_ops += r.summary.ops;
            self.sim_cycles += r.summary.cycles;
            t.record_speed(&mut self.speed);
        }
    }

    /// Per-layer metrics of the simulator's call boundaries and simulated
    /// counters, over the distinct points of a traced pass.
    pub fn point_layers(&mut self, results: &[RunResult], times: &[PointTimes]) {
        let n = times.len().max(1) as f64;
        let ops: u64 = results.iter().map(|r| r.summary.ops).sum();
        let sum = |f: fn(&PointTimes) -> f64| times.iter().map(f).sum::<f64>();
        let calls: u64 = times.iter().map(|t| t.gen_calls).sum();
        self.layer("workloads.setup_s", sum(|t| t.setup_s));
        self.layer("core.prepare_media_s", sum(|t| t.prepare_s - t.setup_s));
        self.layer(
            "workloads.next_op_ns",
            sum(|t| t.gen_s) * 1e9 / calls.max(1) as f64,
        );
        self.layer(
            "core.run_ns_per_op",
            sum(|t| t.run_s - t.gen_s) * 1e9 / ops.max(1) as f64,
        );
        self.layer("core.new_ms", sum(|t| t.new_s) * 1e3 / n);
        self.layer("core.drain_ms", sum(|t| t.drain_s) * 1e3 / n);
        self.layer("core.stats_ms", sum(|t| t.stats_s) * 1e3 / n);
        let s = Stats::merged(results.iter().map(|r| r.stats.clone()));
        let g = |k: &str| s.get(k) as f64;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        self.layer(
            "cache.l1_miss_ratio",
            ratio(
                g("cache.l1_misses"),
                g("cache.l1_hits") + g("cache.l1_misses"),
            ),
        );
        self.layer("cache.l2_misses", g("cache.l2_misses"));
        self.layer(
            "cache.coherence_msgs",
            g("cache.invalidations") + g("cache.interventions") + g("cache.back_invalidations"),
        );
        self.layer("cpu.sb_full_stalls", g("cores.sb_full_stalls"));
        self.layer("cpu.fence_stall_cycles", g("cores.fence_stall_cycles"));
        self.layer("cpu.fences", g("cores.fences"));
        self.layer("bbpb.allocations", g("bbpb.allocations"));
        self.layer(
            "bbpb.coalesce_ratio",
            ratio(
                g("bbpb.coalesces"),
                g("bbpb.allocations") + g("bbpb.coalesces"),
            ),
        );
        self.layer("bbpb.rejections", g("bbpb.rejections"));
        self.layer("bbpb.drains", g("bbpb.drains"));
        self.layer(
            "bbpb.mean_occupancy",
            ratio(g("bbpb.occupancy_sum"), g("bbpb.occupancy_samples")),
        );
        self.layer("mem.wpq_backpressure", g("wpq.backpressure_events"));
        self.layer("mem.nvmm_writes", g("nvmm.writes"));
        self.layer("mem.nvmm_reads", g("nvmm.reads"));
        // The share metrics are named after the simulator's own counters.
        let shares = PER_LAYER
            .iter()
            .map(|&(name, _)| name)
            .filter(|name| name.starts_with("sched.cycles."));
        let total: f64 = shares.clone().map(g).sum();
        for name in shares {
            self.layer(name, ratio(g(name), total));
        }
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident memory of this process in MB (`VmHWM`).
///
/// # Panics
///
/// Panics when `/proc/self/status` is unreadable or has no `VmHWM` line.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Folds a run's passes into its metrics and prints them: one line per
/// metric, then the result object as the last line of stdout.
pub fn report(workload: &str, seed: u64, passes: &[Pass], traced: bool) {
    let mut checks = Checks::default();
    for p in passes {
        checks.attempted += p.checks.attempted;
        checks.failed += p.checks.failed;
    }
    // Every pass simulates the same inputs, so every counter must repeat.
    for p in &passes[1..] {
        checks.check(
            p.digest == passes[0].digest && p.sim == passes[0].sim,
            || "a repeated pass changed a simulated counter".to_owned(),
        );
    }
    let failed_frac = checks.failed as f64 / checks.attempted.max(1) as f64;
    println!(
        "workload {workload} seed {seed} passes {} traced {traced}",
        passes.len()
    );
    println!("stats_digest {:016x}", passes[0].digest.0);
    println!(
        "failed_frac {failed_frac} ({}/{})",
        checks.failed, checks.attempted
    );

    // Per-layer host times are scaled to the quiet host by each pass's mean
    // host speed (see `exec::host_speed`); every metric is the median pass.
    let med = |f: &dyn Fn(&Pass) -> f64| median(passes.iter().map(f).collect());
    let speed = |p: &Pass| p.speed.speed();
    println!("host_speed {}", med(&speed));
    let values: Vec<(&str, &str, f64)> = if traced {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let time = matches!(unit, "s" | "ms" | "us" | "ns");
                let value = med(&|p| {
                    let v = p.layers.get(name).copied().unwrap_or(0.0);
                    if time {
                        v * speed(p)
                    } else {
                        v
                    }
                });
                (name, unit, value)
            })
            .collect()
    } else {
        let sim = passes[0].sim;
        let v = [
            med(&|p| p.wall_s),
            med(&|p| p.setup_s),
            med(&|p| p.sim_ops as f64 / p.run_s),
            med(&|p| p.sim_cycles as f64 / p.run_s),
            med(&|p| p.points as f64 / p.wall_s),
            peak_rss_mb(),
            1.0 - failed_frac,
            sim.slowdown,
            sim.write_amp,
            sim.pmem_p999,
        ];
        END_TO_END
            .iter()
            .zip(v)
            .map(|(&(name, unit), value)| (name, unit, value))
            .collect()
    };
    let mut json = Vec::new();
    for (name, unit, value) in &values {
        println!("{name} {value} {unit}");
        let value = if value.is_finite() { *value } else { 0.0 };
        json.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        json.join(", ")
    );
}
