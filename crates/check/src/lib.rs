//! `bbb-check` — a trace-based persist-order checker for the simulated
//! machines.
//!
//! The simulator emits a [`bbb_sim::TraceEvent`] stream when tracing is
//! on ([`bbb_core::System::set_tracing`]); this crate replays that stream
//! through a vector-clock analysis ([`PersistOrderChecker`]) that checks
//! the persistency theorem each mode claims:
//!
//! * battery modes (eADR, both BBB organizations): point of persistency
//!   equals point of visibility for every store, and a battery-backed
//!   crash loses nothing that committed;
//! * strict PMEM: persists follow per-core program order;
//! * BEP: persists may reorder within an epoch but never across a
//!   barrier, nor against a cross-core happens-before edge.
//!
//! Violations come with a minimal witness: the two stores involved and
//! the happens-before path that orders them. The [`litmus`] module runs
//! canonical persistency litmus shapes against all five modes and decides
//! allowed/forbidden verdicts empirically by sweeping crash points with
//! `conform::sweep_schedule`, the crate's one litmus crash sweep.
//!
//! On top of the dynamic checker sits an *axiomatic* side: [`model`]
//! declares a litmus IR and evaluates Px86-TSO-style persistency axioms
//! (with per-mode relaxations) over all candidate executions, producing
//! allowed/forbidden verdict sets with a minimal witness per forbidden
//! outcome; [`enumerate`] generates litmus shapes diy-style, deduplicated
//! by canonical isomorphism; and [`conform`] runs the differential — the
//! model's verdicts against crash-swept simulator executions — flagging
//! any sim-shows-forbidden outcome as a soundness bug.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checker;
mod clock;
pub mod conform;
pub mod enumerate;
pub mod litmus;
pub mod model;

pub use checker::{CheckReport, PersistOrderChecker, Witness, MAX_WITNESSES};
pub use clock::VectorClock;
pub use conform::{run_shape_conform, run_suite, ModeConform, ShapeConform, Violation};
pub use enumerate::{generate, generate_suite, GenBounds};
pub use model::{evaluate, Inst, ModelVerdicts, ModelWitness, Outcome, Prog, StoreRef};
