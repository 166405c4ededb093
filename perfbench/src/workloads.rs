//! The benchmark's four workloads, each run as repeated passes.
//!
//! An untraced pass drives the simulator through its public calls and
//! reads the clock only at the boundaries the end-to-end metrics need.
//! A traced pass first runs the library's own entry points untimed
//! (`Runner::run`, `sweep`, `run_shape_conform`), then repeats their
//! steps one call at a time under finer timers, checks that both give
//! bit-equal results, and reports the per-layer split.

use bbb_bench::explore::{
    all_specs, explore_config, explore_scale, sim_points, SimPoint, CORE_COUNTS, WORKLOADS,
};
use bbb_check::{evaluate, generate_suite, run_shape_conform, GenBounds, ShapeConform};
use bbb_core::PersistencyMode;
use bbb_crashfuzz::{
    lost_updates_observable, merge_shards, plan_shards, sweep, sweep_shard, GridSpec, ShardOutcome,
    SweepConfig, SweepOutcome,
};
use bbb_runner::{paper_config, unique_points, ExperimentSpec, RunResult, Runner, Scale};
use bbb_sim::SimConfig;
use bbb_workloads::{WorkloadKind, WorkloadParams};

use crate::exec::{host_speed, lap, now, run_specs, PointTimes, SpecRun};
use crate::metrics::{Pass, SimMetrics};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Million-key Zipfian KV, YCSB mixes A and C, every mode.
    KvZipf1m,
    /// Group-commit WAL with a long run window, every mode.
    WalCommit,
    /// The crashfuzz default grid plus the full conformance suite.
    CrashVerify,
    /// A sub-grid of the explorer's smoke grid on two worker threads.
    ExploreGrid,
}

impl Workload {
    /// Every workload with its command-line name.
    pub const ALL: [(&'static str, Workload); 4] = [
        ("kv-zipf-1m", Workload::KvZipf1m),
        ("wal-commit", Workload::WalCommit),
        ("crash-verify", Workload::CrashVerify),
        ("explore-grid", Workload::ExploreGrid),
    ];

    /// Runs one pass over the workload's inputs, generated from `seed`.
    #[must_use]
    pub fn pass(self, seed: u64, traced: bool) -> Pass {
        match self {
            Workload::KvZipf1m => points_pass(&kv(seed), traced),
            Workload::WalCommit => points_pass(&wal(seed), traced),
            Workload::CrashVerify => crash_verify_pass(seed, traced),
            Workload::ExploreGrid => points_pass(&explore(seed), traced),
        }
    }
}

/// Experiment points with the eADR point each bbb-mem point is
/// normalised to.
struct PointList {
    specs: Vec<ExperimentSpec>,
    baseline: Vec<Option<usize>>,
    threads: usize,
}

fn seeded(spec: ExperimentSpec, seed: u64) -> ExperimentSpec {
    let params = spec.params;
    spec.with_params(WorkloadParams { seed, ..params })
}

/// Every persistency mode for each of `kinds` under each of `seeds` on
/// one machine.
fn every_mode(kinds: &[WorkloadKind], cfg: &SimConfig, scale: Scale, seeds: &[u64]) -> PointList {
    let mut list = PointList {
        specs: Vec::new(),
        baseline: Vec::new(),
        threads: 1,
    };
    let eadr = PersistencyMode::ALL
        .iter()
        .position(|&m| m == PersistencyMode::Eadr)
        .expect("eADR is a mode");
    for &seed in seeds {
        for &kind in kinds {
            let base = list.specs.len();
            for mode in PersistencyMode::ALL {
                list.specs
                    .push(seeded(ExperimentSpec::new(kind, mode, cfg, scale), seed));
                list.baseline
                    .push((mode == PersistencyMode::BbbMemorySide).then_some(base + eadr));
            }
        }
    }
    list
}

/// The `kv` binary's default sizing, 1M keys and 2000 requests per core:
/// set-up (preload and alias tables) dominates, and mix C sends nothing
/// to the persist buffers.
fn kv(seed: u64) -> PointList {
    let scale = Scale {
        initial: 1_000_000,
        per_core_ops: 2_000,
    };
    every_mode(
        &[WorkloadKind::KvA, WorkloadKind::KvC],
        &paper_config(scale),
        scale,
        &[seed],
    )
}

/// The `wal` binary's paper sizing: the run window dwarfs set-up.
fn wal(seed: u64) -> PointList {
    let scale = Scale {
        initial: 8_192,
        per_core_ops: 8_000,
    };
    every_mode(&[WorkloadKind::Wal], &paper_config(scale), scale, &[seed])
}

/// A sub-grid of the explorer's smoke grid that keeps every core count
/// and WPQ depth (bbb-mem points, each followed by its shared eADR
/// baseline), plus one PMEM point per workload and core count at the
/// paper's WPQ depth for the persist-latency metric.
fn explore(seed: u64) -> PointList {
    let scale = explore_scale("smoke");
    let points: Vec<SimPoint> = sim_points()
        .into_iter()
        .filter(|p| [4, 32, 256].contains(&p.entries) && p.threshold_pct != 75)
        .collect();
    let mut specs: Vec<ExperimentSpec> = all_specs(&points, scale)
        .into_iter()
        .map(|s| seeded(s, seed))
        .collect();
    let mut baseline: Vec<Option<usize>> = (0..specs.len())
        .map(|i| (i % 2 == 0).then_some(i + 1))
        .collect();
    for &kind in &WORKLOADS {
        for &cores in &CORE_COUNTS {
            let cfg = explore_config(scale, cores, 64);
            specs.push(seeded(
                ExperimentSpec::new(kind, PersistencyMode::Pmem, &cfg, scale),
                seed,
            ));
            baseline.push(None);
        }
    }
    PointList {
        specs,
        baseline,
        threads: 2,
    }
}

fn points_pass(list: &PointList, traced: bool) -> Pass {
    let mut pass = Pass::default();
    let reference = traced.then(|| RunnerReference::run(&list.specs, list.threads));
    let mut t = now();
    let run = run_specs(&list.specs, list.threads, traced);
    let raw_wall_s = lap(&mut t);
    pass.add_points(&list.specs, &run);
    pass.set_wall(raw_wall_s);
    pass.points = run.jobs.len() as u64;
    pass.sim = SimMetrics::of(&list.specs, &run, &list.baseline);
    if let Some(reference) = reference {
        reference.compare(&mut pass, &list.specs, &run, raw_wall_s);
        pass.layer("trace.overhead_frac", raw_wall_s / reference.wall_s - 1.0);
    }
    pass
}

/// The untraced library path: `unique_points` and `Runner::run`.
struct RunnerReference {
    results: Vec<RunResult>,
    unique: usize,
    plan_s: f64,
    wall_s: f64,
    threads: usize,
}

impl RunnerReference {
    fn run(specs: &[ExperimentSpec], threads: usize) -> Self {
        let mut t = now();
        let unique = unique_points(specs);
        let plan_s = lap(&mut t);
        let results = Runner::with_threads(threads).run(specs);
        Self {
            results,
            unique,
            plan_s,
            wall_s: lap(&mut t),
            threads,
        }
    }

    /// Checks the traced results against the untraced ones and records
    /// the point and runner layers. The runner's overhead is the traced
    /// pool's wall time beyond its summed point time per worker: planning,
    /// dispatch, and workers idle behind the longest point.
    fn compare(
        &self,
        pass: &mut Pass,
        specs: &[ExperimentSpec],
        run: &SpecRun,
        traced_wall_s: f64,
    ) {
        for (i, (spec, want)) in specs.iter().zip(&self.results).enumerate() {
            pass.checks.check(want == run.result(i), || {
                format!("traced result of {} differs from Runner::run", spec.label)
            });
        }
        pass.point_layers(&run.results, &run.times);
        let busy: f64 = run.times.iter().map(PointTimes::total_s).sum();
        pass.layer("runner.plan_s", self.plan_s);
        pass.layer(
            "runner.overhead_s",
            traced_wall_s - busy / self.threads as f64,
        );
        pass.layer(
            "runner.unique_ratio",
            self.unique as f64 / specs.len() as f64,
        );
    }
}

/// Conformance shapes (about 0.5 ms each) between host-speed samples.
const SHAPES_PER_SPEED_SAMPLE: usize = 16;

/// The `crashfuzz` binary's default configurations: every Table IV
/// workload under every mode's discipline, plus the lossy PMEM/BEP
/// oracles where lost updates are observable.
fn sweep_configs(cfg: &SimConfig, params: WorkloadParams, grid: GridSpec) -> Vec<SweepConfig> {
    let mut configs = Vec::new();
    for kind in WorkloadKind::ALL {
        for mode in PersistencyMode::ALL {
            configs.push(SweepConfig::paper_discipline(kind, mode, cfg, params, grid));
        }
        if lost_updates_observable(kind) {
            for mode in [PersistencyMode::Pmem, PersistencyMode::Bep] {
                configs.push(SweepConfig::lossy(kind, mode, cfg, params, grid));
            }
        }
    }
    configs
}

/// Crash sweeps at the `crashfuzz` binary's default sizing and grid, the
/// full conformance suite, and reference runs for the run windows and the
/// simulated metrics: every Table IV workload under every mode, run to
/// completion with twice the sweep's ops under four seeds. At the sweep's
/// own size and seed those metrics swing by ±10% with the seed.
fn crash_verify_pass(seed: u64, traced: bool) -> Pass {
    let params = WorkloadParams {
        initial: 2_048,
        per_core_ops: 256,
        seed,
        instrument: false,
    };
    let cfg = SimConfig::default();
    let configs = sweep_configs(&cfg, params, GridSpec::bounded(512, 128, seed));
    let refs_scale = Scale {
        initial: params.initial,
        per_core_ops: params.per_core_ops * 2,
    };
    // Disjoint for neighbouring seeds, so their references share nothing.
    let refs_seeds: Vec<u64> = (0..4)
        .map(|i| seed.wrapping_mul(4).wrapping_add(i))
        .collect();
    let refs = every_mode(&WorkloadKind::ALL, &cfg, refs_scale, &refs_seeds);

    // The untraced library path, for the traced pass to match.
    let reference = traced.then(|| {
        let runner = RunnerReference::run(&refs.specs, refs.threads);
        let mut t = now();
        let sweeps: Vec<String> = configs.iter().map(|c| format!("{:?}", sweep(c))).collect();
        let shapes = generate_suite(&GenBounds::full_suite());
        let conform: Vec<ShapeConform> = shapes.iter().map(run_shape_conform).collect();
        let wall_s = runner.wall_s + lap(&mut t);
        (runner, sweeps, conform, wall_s)
    });

    let mut pass = Pass::default();
    let mut t = now();
    let run = run_specs(&refs.specs, refs.threads, traced);
    let refs_wall_s = t.elapsed().as_secs_f64();
    pass.add_points(&refs.specs, &run);
    pass.sim = SimMetrics::of(&refs.specs, &run, &refs.baseline);

    let (mut plan_s, mut sweep_s, mut merge_s) = (0.0, 0.0, 0.0);
    let outcomes: Vec<SweepOutcome> = configs
        .iter()
        .map(|c| {
            let speed = host_speed();
            let mut tc = now();
            let shards = plan_shards(c, 1);
            let plan = lap(&mut tc);
            let parts: Vec<ShardOutcome> = shards.iter().map(sweep_shard).collect();
            let sweep = lap(&mut tc);
            let out = merge_shards(c, &parts);
            let merge = lap(&mut tc);
            pass.speed.add(plan + sweep + merge, speed);
            pass.setup_s += plan * speed;
            plan_s += plan;
            sweep_s += sweep;
            merge_s += merge;
            out
        })
        .collect();
    let (mut crash_points, mut reused, mut pages_copied) = (0u64, 0u64, 0u64);
    for out in &outcomes {
        pass.checks
            .check(out.passed(), || format!("crash sweep {} failed", out.label));
        pass.digest.debug(out);
        crash_points += out.points as u64;
        reused += out.perf.snapshots_reused;
        pages_copied += out.perf.pages_copied;
    }

    let mut speed = host_speed();
    let mut tc = now();
    let shapes = generate_suite(&GenBounds::full_suite());
    let generate_s = lap(&mut tc);
    pass.speed.add(generate_s, speed);
    pass.setup_s += generate_s * speed;
    let (mut evaluate_s, mut conform_s, mut images) = (0.0, 0.0, 0u64);
    let mut conform = Vec::with_capacity(shapes.len());
    for (k, prog) in shapes.iter().enumerate() {
        if k % SHAPES_PER_SPEED_SAMPLE == 0 {
            speed = host_speed();
            lap(&mut tc);
        }
        // Traced only: the model on its own, outside `run_shape_conform`.
        let verdicts: Vec<_> = if traced {
            let v = PersistencyMode::ALL.map(|mode| evaluate(prog, mode));
            evaluate_s += lap(&mut tc);
            v.to_vec()
        } else {
            Vec::new()
        };
        let shape = run_shape_conform(prog);
        let shape_s = lap(&mut tc);
        pass.speed.add(shape_s, speed);
        conform_s += shape_s;
        for (i, m) in shape.per_mode.iter().enumerate() {
            pass.checks.check(
                m.violations.is_empty() && m.witnessed == m.forbidden,
                || {
                    format!(
                        "conform {} under {:?} disagrees with the model",
                        shape.shape, m.mode
                    )
                },
            );
            if let Some(v) = verdicts.get(i) {
                pass.checks.check(
                    v.allowed.len() == m.allowed && v.forbidden.len() == m.forbidden,
                    || format!("model verdicts of {} changed between calls", shape.shape),
                );
            }
            images += m.crash_points as u64;
        }
        pass.digest.debug(&shape);
        conform.push(shape);
    }
    // The separate model calls are tracing, not workload.
    let raw_wall_s = lap(&mut t) - evaluate_s;
    pass.set_wall(raw_wall_s);
    pass.points = crash_points + images;

    if let Some((runner, sweeps, ref_conform, wall_s)) = reference {
        runner.compare(&mut pass, &refs.specs, &run, refs_wall_s);
        for (want, got) in sweeps.iter().zip(&outcomes) {
            pass.checks.check(*want == format!("{got:?}"), || {
                format!("traced sweep of {} differs from sweep()", got.label)
            });
        }
        for (want, got) in ref_conform.iter().zip(&conform) {
            pass.checks
                .check(format!("{want:?}") == format!("{got:?}"), || {
                    format!("conform of {} differs between runs", got.shape)
                });
        }
        let n = shapes.len().max(1) as f64;
        pass.layer("crashfuzz.plan_s", plan_s);
        pass.layer(
            "crashfuzz.sweep_us_per_point",
            sweep_s * 1e6 / crash_points.max(1) as f64,
        );
        pass.layer("crashfuzz.merge_s", merge_s);
        pass.layer(
            "crashfuzz.snapshot_reuse_ratio",
            reused as f64 / crash_points.max(1) as f64,
        );
        pass.layer("crashfuzz.pages_copied", pages_copied as f64);
        pass.layer("check.evaluate_ms_per_shape", evaluate_s * 1e3 / n);
        pass.layer("check.conform_ms_per_shape", conform_s * 1e3 / n);
        pass.layer("check.crash_images", images as f64);
        pass.layer("trace.overhead_frac", raw_wall_s / wall_s - 1.0);
    }
    pass
}
