//! General-purpose simulation driver: run any workload under any
//! persistency mode with configurable scale, and print the full statistics
//! dump — the tool for exploring design points beyond the paper's tables.
//!
//! ```text
//! usage: simulate [WORKLOAD] [MODE] [key=value ...] [--json]
//!
//!   WORKLOAD: rtree|ctree|hashmap|mutateNC|mutateC|swapNC|swapC|btree
//!   MODE:     pmem|eadr|bbb|procside|bep
//!   keys:     initial=N per-core-ops=N entries=N threshold=PCT seed=N
//!             cores=N epoch-barriers=0|1 crash-at=N
//! ```
//!
//! The normal path runs through the experiment runner like every other
//! binary; `crash-at=N` drives the [`System`] directly because the
//! post-crash image and recovery check need the machine itself.

use bbb_bench::{ExperimentSpec, Report, Runner, Scale};
use bbb_core::{PersistencyMode, System};
use bbb_sim::{DrainPolicy, SimConfig};
use bbb_workloads::suite::with_epoch_barriers;
use bbb_workloads::{make_workload, verify_recovery, WorkloadKind, WorkloadParams};

fn usage() -> ! {
    eprintln!("usage: simulate [WORKLOAD] [MODE] [key=value ...] [--json]");
    eprintln!("  WORKLOAD: rtree|ctree|hashmap|mutateNC|mutateC|swapNC|swapC|btree");
    eprintln!("  MODE:     pmem|eadr|bbb|procside|bep");
    eprintln!("  keys:     initial=N per-core-ops=N entries=N threshold=PCT");
    eprintln!("            seed=N cores=N epoch-barriers=0|1 crash-at=N");
    std::process::exit(2);
}

fn parse_workload(s: &str) -> Option<WorkloadKind> {
    WorkloadKind::EXTENDED
        .into_iter()
        .find(|k| k.name().eq_ignore_ascii_case(s))
}

fn parse_mode(s: &str) -> Option<PersistencyMode> {
    match s.to_ascii_lowercase().as_str() {
        "pmem" => Some(PersistencyMode::Pmem),
        "eadr" => Some(PersistencyMode::Eadr),
        "bbb" | "memside" => Some(PersistencyMode::BbbMemorySide),
        "procside" => Some(PersistencyMode::BbbProcessorSide),
        "bep" => Some(PersistencyMode::Bep),
        _ => None,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut kind = WorkloadKind::Ctree;
    let mut mode = PersistencyMode::BbbMemorySide;
    let mut params = WorkloadParams {
        initial: 50_000,
        per_core_ops: 2_000,
        seed: 0xBBB,
        instrument: false,
    };
    let mut cfg = SimConfig::default();
    let mut epoch_barriers = false;
    let mut crash_at: Option<u64> = None;

    let mut positional = 0;
    for arg in &args {
        if arg == "--json" {
            continue; // handled by Report::new
        }
        if let Some((key, value)) = arg.split_once('=') {
            let parse = |v: &str| v.parse::<u64>().unwrap_or_else(|_| usage());
            match key {
                "initial" => params.initial = parse(value),
                "per-core-ops" => params.per_core_ops = parse(value),
                "entries" => cfg.bbpb.entries = parse(value) as usize,
                "threshold" => {
                    cfg.bbpb.drain_policy = DrainPolicy::Threshold {
                        threshold_pct: parse(value) as u8,
                    };
                }
                "seed" => params.seed = parse(value),
                "cores" => cfg.cores = parse(value) as usize,
                "epoch-barriers" => epoch_barriers = parse(value) != 0,
                "crash-at" => crash_at = Some(parse(value)),
                _ => usage(),
            }
        } else {
            match positional {
                0 => kind = parse_workload(arg).unwrap_or_else(|| usage()),
                1 => mode = parse_mode(arg).unwrap_or_else(|| usage()),
                _ => usage(),
            }
            positional += 1;
        }
    }
    params.instrument = mode.requires_flushes();
    // Size the heap for the requested structure.
    let need = (params.initial + cfg.cores as u64 * params.per_core_ops) * 512;
    cfg.persistent_heap_bytes = need.next_power_of_two().max(64 * 1024 * 1024);

    let mut report = Report::new("simulate");
    report.meta_scale_name(
        Scale {
            initial: params.initial,
            per_core_ops: params.per_core_ops,
        }
        .name(),
    );
    report.meta("workload", kind.name());
    report.meta("mode", mode.to_string());
    report.meta("entries", cfg.bbpb.entries);
    report.note(format!(
        "workload={} mode={mode} entries={}",
        kind.name(),
        cfg.bbpb.entries
    ));

    // Perf-timing site: wall time is reported, never fed back into the sim.
    #[allow(clippy::disallowed_methods)]
    let t0 = std::time::Instant::now();
    let (summary, stats) = if let Some(budget) = crash_at {
        // Crash exploration: run the machine directly so we can take the
        // post-crash NVMM image and check recovery.
        let mut w = make_workload(kind, &cfg, params);
        if epoch_barriers || mode.requires_epoch_barriers() {
            w = with_epoch_barriers(w);
        }
        let mut sys = System::new(cfg, mode).expect("valid config");
        sys.prepare(w.as_mut());
        let summary = sys.run(w.as_mut(), budget);
        report.note(format!("crash-drain set: {}", sys.crash_cost()));
        let stats = sys.stats();
        let cfg_for_verify = sys.config().clone();
        let img = sys.crash_now(true);
        match verify_recovery(kind, &img, &cfg_for_verify, params) {
            Ok(n) => report.note(format!(
                "post-crash verification: OK, {n} elements recovered"
            )),
            Err(e) => report.note(format!("post-crash verification: CORRUPT ({e})")),
        }
        (summary, stats)
    } else {
        let scale = Scale {
            initial: params.initial,
            per_core_ops: params.per_core_ops,
        };
        let spec = ExperimentSpec::new(kind, mode, &cfg, scale)
            .with_params(params)
            .with_epoch_barriers(epoch_barriers);
        let r = Runner::from_env().run_one(&spec);
        (r.summary, r.stats)
    };
    // Wall time goes to stderr: stdout stays identical run-to-run.
    eprintln!("wall time: {:?}", t0.elapsed());

    report.note(format!(
        "ran {} ops in {} cycles; completed={}",
        summary.ops, summary.cycles, summary.completed
    ));
    report.note("");
    for line in stats.to_string().lines() {
        report.note(line);
    }
    report.emit().expect("report output");
}
