//! Eulerian hydrodynamics.
//!
//! V2D "solves the equations of Eulerian hydrodynamics and multi-species
//! flux-limited diffusive radiation transport in two spatial dimensions"
//! (§I-C).  The paper's SVE study runs with hydrodynamics frozen, but the
//! module is part of the code — and of the multi-physics overhead story —
//! so it is implemented fully here: a dimensionally split MUSCL–Hancock
//! scheme with HLL fluxes and a gamma-law equation of state, on
//! one-plane [`v2d_linalg::TileVec`]s with two-zone ghost frames.

pub mod eos;
pub mod euler;

pub use eos::{GammaLaw, Unphysical};
pub use euler::{BcKind, CflError, HydroBc, HydroState, HydroStepper, GHOST_DEPTH, MAX_CFL};
