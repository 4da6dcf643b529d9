//! # v2d-core — the V2D radiation-hydrodynamics application
//!
//! A Rust reconstruction of the V2D code studied by the paper (Swesty &
//! Myra 2009, ApJS 181:1): finite-difference/finite-volume solvers for
//! the equations of Eulerian hydrodynamics and multi-species flux-limited
//! diffusive radiation transport in two spatial dimensions, domain-
//! decomposed over the `v2d-comm` substrate, with the implicit radiation
//! update solved by the ganged-reduction BiCGSTAB of `v2d-linalg`.
//!
//! Structure:
//!
//! * [`grid`] — the 2-D structured grid with orthogonal coordinate
//!   systems (Cartesian, cylindrical r–z, spherical r–θ): V2D "has been
//!   generically written to allow various coordinate systems" (§I-C);
//! * [`opacity`], [`limiter`] — the microphysics closures: constant
//!   per-species opacities and the flux limiters (Levermore–Pomraning,
//!   Wilson) that close the diffusion approximation;
//! * [`rad`] — the multigroup flux-limited diffusion module: coefficient
//!   assembly into the matrix-free stencil operator and the implicit
//!   stepper that performs the paper's **three linear-system solves per
//!   timestep**;
//! * [`hydro`] — the explicit Eulerian hydrodynamics module
//!   (MUSCL–Hancock with HLL fluxes, gamma-law EOS), frozen for the
//!   paper's radiation test problem but exercised by its own tests and
//!   examples;
//! * [`problems`] — the registry of eight problem families, each with
//!   its configuration, initial condition and validation: the 2-D
//!   Gaussian radiation pulse of the study, a multigroup opacity step, a
//!   radiative step front, radiative and matter–radiation relaxation,
//!   the Sod shock tube, a Sedov–Taylor blast and a Kelvin–Helmholtz
//!   shear layer;
//! * [`sim`] — the [`sim::V2dSim`] driver tying it together;
//! * [`config_file`] — the runtime parameter-file reader (V2D-style
//!   `key = value` decks, including the NPRX1/NPRX2 topology knobs);
//! * [`checkpoint`] — HDF5-style (h5lite) parallel checkpoint/restart;
//! * [`supervise`] — the fault-tolerant run supervisor: checkpoint
//!   rollback, bounded retries with deterministic virtual-clock backoff,
//!   and shrinking re-decomposition after permanent rank loss.

// Library code recovers through typed errors (SolveError,
// CheckpointError, ParError) rather than panicking; tests and binaries
// (separate crates) are exempt.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod checkpoint;
pub mod config_file;
pub mod grid;
pub mod hydro;
pub mod limiter;
pub mod opacity;
pub mod problems;
pub mod rad;
pub mod sim;
pub mod supervise;

pub use grid::{Geometry, Grid2, LocalGrid};
pub use limiter::Limiter;
pub use opacity::OpacityModel;
pub use sim::{PrecondKind, RecoveryPolicy, StepError, StepStats, V2dConfig, V2dSim};
pub use supervise::{
    run_supervised, RecoveryLedger, RetryPolicy, SuperviseError, SuperviseReport, SuperviseSpec,
};
