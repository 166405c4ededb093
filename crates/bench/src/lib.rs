//! Shared harness code for the per-table/per-figure benchmark binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation. The heavy lifting lives in `bbb-runner`: binaries
//! declare their sweep as a `Vec<ExperimentSpec>`, hand it to a
//! [`Runner`] (parallel across `BBB_THREADS` workers, duplicate points
//! memoized, results in spec order), and print through a [`Report`]
//! (ASCII tables, plus `BENCH_<name>.json` when `--json` is passed).
//!
//! This crate re-exports the runner API so older call sites keep working.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use bbb_runner::{
    execute_spec, geomean, json_requested, norm, paper_config, unique_points, ExperimentSpec, Json,
    NormSeries, Report, RunResult, Runner, Scale, PAPER_SEED,
};

pub mod explore;
pub mod parity;
pub mod registry;

#[cfg(test)]
mod tests {
    use super::*;
    use bbb_core::PersistencyMode;
    use bbb_workloads::WorkloadKind;

    #[test]
    fn smoke_scale_runs_quickly() {
        let scale = Scale {
            initial: 200,
            per_core_ops: 20,
        };
        let cfg = paper_config(scale);
        let r = execute_spec(&ExperimentSpec::new(
            WorkloadKind::Hashmap,
            PersistencyMode::BbbMemorySide,
            &cfg,
            scale,
        ));
        assert!(r.summary.ops > 0);
        assert!(r.cycles() > 0);
        assert!(r.nvmm_writes() > 0);
    }
}
