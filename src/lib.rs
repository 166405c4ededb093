//! # bbb — Battery-Backed Buffers
//!
//! A from-scratch Rust reproduction of *BBB: Simplifying Persistent
//! Programming using Battery-Backed Buffers* (HPCA 2021). This facade crate
//! re-exports the workspace's public API:
//!
//! * [`sim`] — simulation kernel (clock, config, stats, PRNG),
//! * [`mem`] — DRAM/NVMM devices, memory controllers, the ADR WPQ,
//! * [`cache`] — set-associative caches with directory-based MESI coherence,
//! * [`cpu`] — the simplified out-of-order core model,
//! * [`core`] — the paper's contribution: bbPB, persistency modes, crash and
//!   recovery machinery, and the full [`core::System`] simulator,
//! * [`workloads`] — the paper's Table IV workloads and recoverable data
//!   structures,
//! * [`pstore`] — the SPSC persistent ring buffer programmed on the BBB
//!   discipline (grant/commit/release; flush-free under battery backing),
//! * [`energy`] — the draining-energy/time and battery-sizing models behind
//!   the paper's Tables V–X,
//! * [`runner`] — declarative experiment specs, the parallel point runner,
//!   and the shared ASCII/JSON report layer,
//! * [`crashfuzz`] — the crash-point sweep harness: dense/random/boundary
//!   power-failure injection, differential negative oracles, and failure
//!   shrinking to minimal regression tests,
//! * [`check`] — the trace-based persist-order checker: vector-clock
//!   PoV/PoP analysis over the simulator's event stream and the
//!   persistency litmus front-end.
//!
//! # Quickstart
//!
//! ```
//! use bbb::core::{PersistencyMode, System};
//! use bbb::sim::SimConfig;
//!
//! let cfg = SimConfig::small_for_tests();
//! let mut sys = System::new(cfg, PersistencyMode::BbbMemorySide)?;
//! let base = sys.address_map().persistent_base();
//! // A persisting store needs no flush or fence under BBB:
//! sys.run_single_core(0, vec![bbb::cpu::Op::store_u64(base, 42)])?;
//! let image = sys.crash_now(true);
//! assert_eq!(image.read_u64(base), 42); // durable immediately
//! # Ok::<(), bbb::core::SystemError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use bbb_cache as cache;
pub use bbb_check as check;
pub use bbb_core as core;
pub use bbb_cpu as cpu;
pub use bbb_crashfuzz as crashfuzz;
pub use bbb_energy as energy;
pub use bbb_mem as mem;
pub use bbb_pstore as pstore;
pub use bbb_runner as runner;
pub use bbb_sim as sim;
pub use bbb_workloads as workloads;
