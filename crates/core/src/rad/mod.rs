//! Multigroup flux-limited diffusion radiation transport.
//!
//! [`coeffs`] assembles the implicit backward-Euler system — the
//! `x1 × x2 × 2` sparse matrix of the paper, in matrix-free stencil form
//! — from the current radiation field, the flux limiter, the opacities
//! and the grid metric.  [`stepper`] advances one timestep by solving
//! **three** such systems with the ganged-reduction BiCGSTAB, matching
//! the paper's "each time step requires the solution of three unique
//! x1 × x2 × 2 linear systems" (§II-D).

pub mod coeffs;
pub mod coupling;
pub mod stepper;

pub use coeffs::assemble_system;
pub use coupling::MatterCoupling;
pub use stepper::{RadStepError, RadStepStats, RadStepper};
