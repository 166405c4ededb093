//! Server-scale Zipfian KV service across the persistency spectrum.
//!
//! A million-key YCSB-style KV store (mixes A/B/C, alias-table Zipfian
//! s = 0.99, multi-tenant, bursty open-loop arrivals) streamed through
//! every persistency machine. Two observables the paper's
//! microbenchmarks cannot show:
//!
//! * **Tail persist latency** — cycles from store commit to the point of
//!   persistence, p50/p99/p999 from the mergeable HDR histogram. The
//!   battery-backed modes are pinned to exactly 0 (PoP == PoV, the
//!   paper's thesis); PMEM pays the flush round-trip, BEP the epoch
//!   drain.
//! * **NVMM write amplification** — media bytes written (steady-state)
//!   per byte of persisting store the program issued; Zipfian hot lines
//!   make the bbPB coalescing visible.
//!
//! The KV keyspace is sized by preset (`BBB_SCALE`), not by the generic
//! `Scale` table sizes: `default` and `paper` run the acceptance-scale
//! million-key store.

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

const MIXES: [(&str, WorkloadKind); 3] = [
    ("mix A (50r/40u/10i)", WorkloadKind::KvA),
    ("mix B (95r/4u/1i)", WorkloadKind::KvB),
    ("mix C (read-only)", WorkloadKind::KvC),
];

/// KV sizing per preset: (keys, requests per core).
fn kv_scale(preset: &str) -> Scale {
    match preset {
        "smoke" => Scale {
            initial: 40_000,
            per_core_ops: 400,
        },
        // Acceptance scale: ≥ 1M keys. `paper` runs longer, not bigger.
        "paper" => Scale {
            initial: 1_000_000,
            per_core_ops: 8_000,
        },
        _ => Scale {
            initial: 1_000_000,
            per_core_ops: 2_000,
        },
    }
}

fn main() {
    let preset = Scale::from_env().name();
    let scale = kv_scale(preset);
    let cfg = paper_config(scale);
    let runner = Runner::from_env();

    let mut specs = Vec::new();
    for &(_, kind) in &MIXES {
        for mode in MODES {
            specs.push(ExperimentSpec::new(kind, mode, &cfg, scale));
        }
    }
    #[allow(clippy::disallowed_methods)] // wall clock goes to stderr only
    let t0 = std::time::Instant::now();
    let results = runner.run(&specs);
    #[allow(clippy::disallowed_methods)]
    let wall = t0.elapsed().as_secs_f64();
    let sim_ops: u64 = results.iter().map(|r| r.summary.ops).sum();
    eprintln!(
        "kv: {} points, {sim_ops} sim-ops in {wall:.2}s ({:.0} ops/sec)",
        specs.len(),
        sim_ops as f64 / wall.max(1e-9)
    );

    let mut report = Report::new("kv");
    report.meta_scale_name(preset);
    report.meta("keys", scale.initial);
    report.meta("per_core_requests", scale.per_core_ops);
    report.meta("zipf_s", "0.99");
    report.meta("threads", runner.threads());

    for (m, &(mix_label, _)) in MIXES.iter().enumerate() {
        let mut t = Table::new(
            &format!("KV {mix_label}: persist latency (cycles) and NVMM write amplification"),
            &[
                "Mode",
                "cycles",
                "ops",
                "p50",
                "p99",
                "p999",
                "max",
                "unresolved",
                "fences",
                "NVMM writes",
                "WA",
            ],
        );
        for (i, mode) in MODES.iter().enumerate() {
            let r = &results[m * MODES.len() + i];
            let persisted_bytes = r.stats.get("cores.persisting_store_bytes");
            let wa = if persisted_bytes == 0 {
                "n/a".to_owned()
            } else {
                format!(
                    "{:.3}",
                    (r.nvmm_writes_steady() * 64) as f64 / persisted_bytes as f64
                )
            };
            t.row_owned(vec![
                mode.tag().into(),
                r.cycles().to_string(),
                r.summary.ops.to_string(),
                r.stats.get("persist.latency.p50").to_string(),
                r.stats.get("persist.latency.p99").to_string(),
                r.stats.get("persist.latency.p999").to_string(),
                r.stats.get("persist.latency.max").to_string(),
                r.stats.get("persist.latency.unresolved").to_string(),
                r.stats.get("cores.fences").to_string(),
                r.nvmm_writes_steady().to_string(),
                wa,
            ]);
        }
        report.table(t);
    }

    report.note("Persist latency = store commit -> point of persistence, per persisting");
    report.note("store, from the log-bucketed mergeable histogram (<=3.1% relative error).");
    report.note("Battery-backed modes persist at commit: p999 pinned to exactly 0 by the");
    report.note("parity gate, as is fences=0. WA = steady NVMM media bytes per persisting");
    report.note("store byte; 'n/a' where the mix persists nothing (read-only).");
    report.emit().expect("report output");
}
