//! Cache hierarchy for the BBB reproduction.
//!
//! Models the paper's two-level hierarchy (Table III): a private L1D per
//! core and a shared, inclusive L2 — the last-level cache (LLC) — with a
//! directory-based MESI protocol (paper §IV-A). Blocks carry real 64-byte
//! payloads, so dirty data moves with coherence messages exactly as it
//! would in hardware, and a crash at any cycle yields a concrete memory
//! image.
//!
//! The persistence machinery of `bbb-core` attaches through two small
//! traits instead of being woven into the protocol:
//!
//! * [`MemoryPort`] — routes fills and writebacks to the DRAM/NVMM
//!   controllers owned by the system,
//! * [`CoherenceHooks`] — receives the coherence events the paper's
//!   Table II assigns bbPB actions to (remote invalidation, remote
//!   intervention/downgrade, dirty LLC eviction) and decides whether dirty
//!   persistent evictions write back or are silently dropped.
//!
//! Transactions are *blocking*: the directory resolves one request at a
//! time and all latencies are charged analytically on the requester. This
//! sidesteps the transient-state race matrix of a pipelined protocol while
//! preserving every state transition and every bbPB interaction the paper
//! describes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
pub mod block;
pub mod hierarchy;
pub mod hooks;

pub use array::SetAssocArray;
pub use block::{cores_in, L1Line, L2Line, Mesi};
pub use hierarchy::{AccessResult, CacheHierarchy, FlushResult};
pub use hooks::{CoherenceHooks, MemoryPort, NullHooks, WritebackDecision};
