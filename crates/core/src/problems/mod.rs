//! Test problems: initial conditions, configurations, and analytic
//! references, unified behind the [`scenario`] registry.  Each family is
//! exactly one type implementing [`Scenario`], in its own module:
//!
//! * [`gaussian`] — the paper's radiation test: diffusion of a 2-D
//!   Gaussian pulse on a 200 × 100 grid with two species, 100 timesteps,
//!   three solves per step (Table I's workload), plus a linear variant
//!   with a closed-form solution for verification;
//! * [`shock_tube`] — the Sod problem exercising the hydro module;
//! * [`equilibrium`] — two-species radiative relaxation with an
//!   exponential analytic rate, verifying the species coupling;
//! * [`marshak`] — matter–radiation thermalization with an analytic
//!   joint equilibrium, verifying the emission/absorption coupling;
//! * [`sedov`] — a Sedov–Taylor blast in a closed box (conservation
//!   invariants plus the similarity radius);
//! * [`kelvin_helmholtz`] — a seeded shear-layer instability with a
//!   pinned growth factor;
//! * [`radshock`] — a radiative step front with an erfc closed form;
//! * [`multigroup`] — two groups crossing an opacity step, each with
//!   its own analytic diffusion rate;
//! * [`scenario`] — the [`Scenario`] trait, the string-keyed [`Family`]
//!   registry, [`deck_from_config`], and the shared validation numerics
//!   (collective norms, `erf`, the exact Riemann solver, the 0-D
//!   coupling ODE reference, the hydro config/study helpers).  It holds
//!   no problem-specific code.

pub mod equilibrium;
pub mod gaussian;
pub mod kelvin_helmholtz;
pub mod marshak;
pub mod multigroup;
pub mod radshock;
pub mod scenario;
pub mod sedov;
pub mod shock_tube;

pub use equilibrium::RadiativeRelaxation;
pub use gaussian::GaussianPulse;
pub use kelvin_helmholtz::KelvinHelmholtzScenario;
pub use marshak::MatterRelaxation;
pub use multigroup::MultigroupScenario;
pub use radshock::RadShockScenario;
pub use scenario::{
    deck_from_config, Convergence, ConvergenceMode, Family, Refinement, Scenario, ValidationReport,
    FAMILIES,
};
pub use sedov::SedovScenario;
pub use shock_tube::SodTube;
