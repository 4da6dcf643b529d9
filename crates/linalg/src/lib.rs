//! # v2d-linalg — distributed vectors, V2D's sparse kernels, and solvers
//!
//! V2D never stores its sparse matrix: the Krylov solver applies the
//! finite-difference diffusion operator directly to column vectors that
//! are "stored as Fortran arrays defined with the same spatial shape as
//! the 2D grid" (paper, §I-C).  This crate is that layer:
//!
//! * [`TileVec`] — a rank-local field over the tile: planes over a ghost
//!   frame, two radiation species with a one-zone frame for the 5-point
//!   stencil, or one hydro plane with a two-zone frame for MUSCL;
//! * [`kernels`] — DPROD / DAXPY / DSCAL / DDAXPY / copy / norm, each
//!   executing natively and charging its [`v2d_machine::KernelShape`] to
//!   the rank's cost sinks;
//! * [`StencilOp`] — the matrix-free pentadiagonal operator with local
//!   2×2 species coupling (the `x1·x2·2`-unknown system of the paper),
//!   and [`exchange_halos`], the one halo exchange every field uses;
//! * [`precond`] — Identity / Jacobi / block-Jacobi / SPAI(1)
//!   preconditioners, the last following the sparse-approximate-inverse
//!   approach of Swesty, Smolarski & Saylor (2004), the paper's ref [7];
//! * [`solver`] — BiCGSTAB in classic form and in V2D's *restructured*
//!   form that gangs inner products into two global reductions per
//!   iteration, plus CG as the symmetric baseline;
//! * [`workspace`] — the reusable [`SolverWorkspace`] all three solvers
//!   draw their tile-shaped scratch from, making warm solves
//!   allocation-free;
//! * [`backend`] — the native slice loops every `TileVec` kernel runs
//!   its rows through;
//! * [`sparsity`] — the assembled sparsity pattern of the never-stored
//!   matrix, regenerating the paper's Fig. 1.
//!
//! Every kernel, operator, preconditioner, and solver entry point takes
//! a [`v2d_machine::ExecCtx`] — the execution context bundling the cost
//! lanes and the ambient working-set size — instead of ad-hoc
//! `(sink, ws)` pairs.

// Library code must not panic on a `None`/`Err` it could report: a
// kernel that panics takes its rank, and with it the launch, down.
// Tests and binaries (separate crates) are exempt.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod backend;
pub mod kernels;
pub mod op;
pub mod precond;
pub mod solver;
pub mod sparsity;
pub mod tilevec;
pub mod workspace;

pub use op::{exchange_halos, LinearOp, StencilCoeffs, StencilOp};
pub use precond::{BlockJacobi, Identity, Jacobi, Preconditioner, Spai};
pub use solver::{
    bicgstab, cg, gmres, solve_cascade, BicgVariant, BreakdownReason, SolveAttempt, SolveError,
    SolveOpts, SolveStats, SolverKind,
};
pub use tilevec::{tilevec_alloc_count, TileVec};
pub use workspace::SolverWorkspace;

/// Number of radiation species (energy groups) carried per zone — the
/// "2" in the paper's `x1 × x2 × 2` linear systems.
pub const NSPEC: usize = 2;
