//! # v2d-comm — the message-passing substrate (MPI stand-in)
//!
//! V2D is an MPI code: it decomposes its 2-D grid into NPRX1 × NPRX2
//! tiles, exchanges halo strips for the matrix-free stencil operator, and
//! reduces (ganged) inner products globally once or twice per BiCGSTAB
//! iteration.  No MPI implementation is available here, so this crate
//! provides a faithful stand-in: an SPMD runner ([`Spmd`]), typed
//! point-to-point messaging, and data-carrying collectives (allreduce /
//! allgather / broadcast / barrier) with deterministic rank-ordered
//! reduction.
//!
//! **Simulated time.**  Every operation both moves real data *and*
//! advances the per-rank virtual clocks in the rank's
//! [`v2d_machine::MultiCostSink`] according to the per-compiler
//! [`v2d_machine::MpiCostModel`]s.  Collectives synchronize clocks
//! conservatively (no rank leaves before the slowest participant has
//! entered, exactly like a real allreduce); point-to-point receives wait
//! for the sender's virtual send time plus latency and transfer time.
//! This is a conservative parallel-discrete-event simulation — the
//! modeled clocks are deterministic and independent of host scheduling.
//!
//! **One engine.**  [`Spmd`] runs its ranks on a discrete-event
//! scheduler that matches the cost model's PDES nature: each rank is a
//! resumable task yielding at its blocking communication sites, a
//! min-heap on `(virtual clock, rank)` decides who runs, and exactly
//! one rank executes at any instant.  Fault timeouts resolve by exact
//! quiescence detection instead of wall-clock deadlines, deadlocks
//! surface as typed [`CommError::Deadlock`] values carrying the full
//! wait graph.  On x86-64 Linux the ranks of a launch are continuations
//! on their own stacks, all run by the thread that called
//! [`Spmd::run`], so a hand-off is a user-level stack switch and
//! thousands of ranks cost one OS thread; other targets carry each rank
//! on a parked thread behind the same scheduler.
//!
//! [`CartComm`] adds the Cartesian process topology of V2D (runtime
//! parameters NPRX1/NPRX2 in the paper) with block tile extents and
//! neighbor halo exchange.

// Library code must degrade through typed errors, never panic: a rank
// that panics takes the whole virtual machine down with it.  Tests and
// binaries (separate crates) are exempt.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod carrier;
pub mod comm;
pub mod sched;
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod stack;
pub mod topology;
pub mod universe;

pub use comm::{coll_site, BlockedRank, CollTicket, Comm, CommError, ReduceOp, WaitEdge, WaitOn};
pub use sched::{msg_buf_alloc_count, SchedStats};
pub use topology::{CartComm, Tile, TileMap};
pub use universe::{RankCtx, Spmd};
