//! Server-scale durable WAL across the persistency spectrum.
//!
//! Zipfian-sharded log appends with group commit (head publish every 8
//! appends) and ring truncation, streamed through every persistency
//! machine. Group commit exists to amortize flush cost — so it is
//! pure overhead under BBB, where each record store is already durable
//! at commit. The table shows exactly that: battery-backed rows run
//! fence-free (pinned to 0) at eADR speed with zero persist latency,
//! while PMEM pays clwb+sfence per record word and BEP its epoch drains.

use bbb_bench::{paper_config, ExperimentSpec, Report, Runner, Scale};
use bbb_core::PersistencyMode;
use bbb_sim::Table;
use bbb_workloads::WorkloadKind;

const MODES: [PersistencyMode; 5] = [
    PersistencyMode::Eadr,
    PersistencyMode::BbbMemorySide,
    PersistencyMode::BbbProcessorSide,
    PersistencyMode::Bep,
    PersistencyMode::Pmem,
];

/// WAL sizing per preset: (total ring-record budget, appends per core).
/// Rings are deliberately small relative to the append count so every
/// run exercises truncation.
fn wal_scale(preset: &str) -> Scale {
    match preset {
        "smoke" => Scale {
            initial: 2_048,
            per_core_ops: 400,
        },
        "paper" => Scale {
            initial: 8_192,
            per_core_ops: 8_000,
        },
        _ => Scale {
            initial: 8_192,
            per_core_ops: 2_000,
        },
    }
}

fn main() {
    let preset = Scale::from_env().name();
    let scale = wal_scale(preset);
    let cfg = paper_config(scale);
    let runner = Runner::from_env();

    let specs: Vec<ExperimentSpec> = MODES
        .iter()
        .map(|&mode| ExperimentSpec::new(WorkloadKind::Wal, mode, &cfg, scale))
        .collect();
    #[allow(clippy::disallowed_methods)] // wall clock goes to stderr only
    let t0 = std::time::Instant::now();
    let results = runner.run(&specs);
    #[allow(clippy::disallowed_methods)]
    let wall = t0.elapsed().as_secs_f64();
    let sim_ops: u64 = results.iter().map(|r| r.summary.ops).sum();
    eprintln!(
        "wal: {} points, {sim_ops} sim-ops in {wall:.2}s ({:.0} ops/sec)",
        specs.len(),
        sim_ops as f64 / wall.max(1e-9)
    );
    let base = results[0].cycles() as f64;

    let mut t = Table::new(
        "WAL append + group commit: persist latency (cycles) and write amplification",
        &[
            "Mode",
            "cycles",
            "vs eADR",
            "p50",
            "p99",
            "p999",
            "unresolved",
            "fences",
            "NVMM writes",
            "WA",
        ],
    );
    for (mode, r) in MODES.iter().zip(&results) {
        let persisted_bytes = r.stats.get("cores.persisting_store_bytes");
        t.row_owned(vec![
            mode.tag().into(),
            r.cycles().to_string(),
            format!("{:.3}", r.cycles() as f64 / base),
            r.stats.get("persist.latency.p50").to_string(),
            r.stats.get("persist.latency.p99").to_string(),
            r.stats.get("persist.latency.p999").to_string(),
            r.stats.get("persist.latency.unresolved").to_string(),
            r.stats.get("cores.fences").to_string(),
            r.nvmm_writes_steady().to_string(),
            format!(
                "{:.3}",
                (r.nvmm_writes_steady() * 64) as f64 / persisted_bytes.max(1) as f64
            ),
        ]);
    }

    let mut report = Report::new("wal");
    report.meta_scale_name(preset);
    report.meta("ring_budget", scale.initial);
    report.meta("per_core_appends", scale.per_core_ops);
    report.meta("group_commit", 8u64);
    report.meta("threads", runner.threads());
    report.table(t);
    report.note("One log shard per (core, tenant); Zipfian tenant choice, group commit");
    report.note("every 8 appends, tail truncation when a ring fills. Identical append");
    report.note("code in every row: battery-backed modes run it fence-free (pinned 0)");
    report.note("with p999 persist latency pinned to exactly 0.");
    report.emit().expect("report output");
}
