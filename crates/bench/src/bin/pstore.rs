//! The bbb-pstore ring across the persistency spectrum: one unmodified
//! grant/commit/release protocol, five machines.
//!
//! This is the paper's thesis applied to the repo's own persistent
//! structure. The ring's commit path is plain stores; under the
//! battery-backed modes it must run fence-free at (near-)eADR speed,
//! while the identical code instrumented for strict PMEM pays a
//! clwb+sfence pair per commit and BEP pays its epoch barriers. The
//! `fences` column is the load-bearing one — the parity gate pins it to
//! exactly zero for eADR and both BBB organizations.

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

fn main() {
    let scale = Scale::from_env();
    let cfg = paper_config(scale);
    let runner = Runner::from_env();

    let specs: Vec<ExperimentSpec> = MODES
        .iter()
        .map(|&mode| ExperimentSpec::new(WorkloadKind::PstoreLog, mode, &cfg, scale))
        .collect();
    let results = runner.run(&specs);
    let base = results[0].cycles() as f64;

    let mut t = Table::new(
        "bbb-pstore ring log: producer/consumer append stream per mode",
        &["Mode", "cycles", "vs eADR", "NVMM writes", "fences"],
    );
    for (mode, r) in MODES.iter().zip(&results) {
        t.row_owned(vec![
            mode.tag().into(),
            r.cycles().to_string(),
            format!("{:.3}", r.cycles() as f64 / base),
            r.nvmm_writes().to_string(),
            r.stats.get("cores.fences").to_string(),
        ]);
    }

    let mut report = Report::new("pstore");
    report.meta_scale(scale);
    report.meta("threads", runner.threads());
    report.table(t);
    report.note("Identical ring code in every row. The battery-backed modes commit with");
    report.note("plain stores (fences = 0, by construction and by gate); strict PMEM pays");
    report.note("the FliT-style shim's clwb+sfence per commit, BEP its epoch barriers.");
    report.emit().expect("report output");
}
