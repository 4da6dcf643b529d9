//! A radiative step front: a discontinuity in the radiation field
//! relaxing under linear flux-limited diffusion in a Dirichlet-walled
//! channel.
//!
//! With `Limiter::None` and constant pure-scattering opacity the FLD
//! update is *exactly* linear diffusion with `D = c/(3κ_s)`.  The
//! radiation boundary is a zero ghost frame, i.e. homogeneous Dirichlet
//! at the ghost *centers* — half a zone beyond each face.  The initial
//! condition is built separable against exactly that operator:
//!
//! ```text
//! E(x, y, 0) = step(x) · sin(π (y − y_g) / H_eff)
//! ```
//!
//! where `y_g = x2min − Δy/2` and `H_eff = H + Δy` put the sine's zeros
//! on the ghost centers — the transverse profile is an eigenvector of
//! the discrete y-operator at every resolution.  Constant-coefficient
//! splitting on a uniform grid makes the x- and y-operators commute, so
//! the evolved field stays a product:
//!
//! ```text
//! E(x, y, t) = [E_R + (E_L−E_R)/2 · erfc((x−x₀)/√(4Dt))]
//!              · sin(π (y − y_g)/H_eff) · exp(−D (π/H_eff)² t)
//! ```
//!
//! valid while the front stays several diffusion lengths from the
//! x-walls (validation grades a window around the front; the wall
//! imprint there is < 2e-4).  The jump sits exactly on a cell face at
//! every even resolution (x₀ = 0.5 on a unit domain), so the sampled
//! initial condition carries no O(Δx) front-placement error and the
//! scheme converges at second order under `Δt ∝ Δx²` refinement — this
//! scenario pins the x-flux, the y-flux, *and* the wall discretization
//! in one closed form.

use v2d_comm::Comm;
use v2d_linalg::SolveOpts;
use v2d_machine::MultiCostSink;

use crate::grid::{Geometry, Grid2};
use crate::limiter::Limiter;
use crate::opacity::OpacityModel;
use crate::sim::{PrecondKind, V2dConfig, V2dSim};

use super::scenario::{
    erfc, Convergence, ConvergenceMode, Family, NormAccum, Refinement, Scenario, ValidationReport,
};

/// Physical end time: front width √(4DT) ≈ 0.094, x-walls > 5 widths
/// from the graded window.
pub const T_RADSHOCK: f64 = 0.02;

/// Upstream radiation energy.
pub const E_LEFT: f64 = 1.0;
/// Downstream radiation energy (positive: the limiter-free solve is
/// linear, but positivity keeps the config reusable with limiters on).
pub const E_RIGHT: f64 = 0.01;

/// Front position (a cell face at every even `n1` on the unit domain).
pub const X_FRONT: f64 = 0.5;

/// Scattering opacity (both species — one front, one closed form).
pub const KAPPA_S: f64 = 3.0;

/// Half-width of the graded window around the front.
pub const WINDOW: f64 = 0.25;

/// The radiative step-front scenario.
pub struct RadShockScenario;

/// The transverse channel mode and its decay rate for the grid's
/// discrete Dirichlet frame: `(sin(π(y−y_g)/H_eff), (π/H_eff)²)` with
/// the zeros on the ghost centers.
fn channel_mode(grid: &Grid2, y: f64) -> (f64, f64) {
    let dy = (grid.x2max - grid.x2min) / grid.n2 as f64;
    let h_eff = (grid.x2max - grid.x2min) + dy;
    let k = std::f64::consts::PI / h_eff;
    ((k * (y - (grid.x2min - 0.5 * dy))).sin(), k * k)
}

impl RadShockScenario {
    /// The linear diffusion coefficient `c/(3κ_s)`.
    pub fn diffusion(cfg: &V2dConfig) -> f64 {
        cfg.c_light / (3.0 * cfg.opacity.kappa_s[0])
    }

    /// The separable closed form at `(x, y, t)` on `grid`.
    pub fn analytic(grid: &Grid2, d: f64, x: f64, y: f64, t: f64) -> f64 {
        let xpart = E_RIGHT + 0.5 * (E_LEFT - E_RIGHT) * erfc((x - X_FRONT) / (4.0 * d * t).sqrt());
        let (ymode, k2) = channel_mode(grid, y);
        xpart * ymode * (-d * k2 * t).exp()
    }
}

impl Scenario for RadShockScenario {
    fn family(&self) -> Family {
        Family::RadShock
    }

    fn describe(&self) -> &'static str {
        "radiative step front in a Dirichlet channel vs the separable erfc x sine closed form"
    }

    fn smoke(&self) -> (usize, usize, usize) {
        (48, 6, 12)
    }

    fn config(&self, n1: usize, n2: usize, steps: usize) -> V2dConfig {
        V2dConfig {
            grid: Grid2::new(n1, n2, (0.0, 1.0), (0.0, 0.25), Geometry::Cartesian),
            limiter: Limiter::None,
            opacity: OpacityModel {
                kappa_a: [0.0, 0.0],
                kappa_s: [KAPPA_S, KAPPA_S],
                kappa_x: 0.0,
            },
            c_light: 1.0,
            dt: T_RADSHOCK / steps as f64,
            n_steps: steps,
            precond: PrecondKind::BlockJacobi,
            solve: SolveOpts { tol: 1e-12, ..Default::default() },
            hydro: None,
            coupling: None,
        }
    }

    fn init(&self, sim: &mut V2dSim) {
        let grid = *sim.grid();
        sim.erad_mut().fill_with(|_, i1, i2| {
            let (x, y) = grid.center(i1, i2);
            let (ymode, _) = channel_mode(&grid.global, y);
            (if x < X_FRONT { E_LEFT } else { E_RIGHT }) * ymode
        });
    }

    fn validate(&self, sim: &V2dSim, comm: &Comm, sink: &mut MultiCostSink) -> ValidationReport {
        let d = Self::diffusion(sim.config());
        let t = sim.time();
        let grid = sim.grid();
        let mut acc = NormAccum::default();
        for s in 0..v2d_linalg::NSPEC {
            for i2 in 0..grid.n2 {
                for i1 in 0..grid.n1 {
                    let (x, y) = grid.center(i1, i2);
                    // Grade the window around the front only: the
                    // closed form ignores the x-walls, whose imprint at
                    // > 2.5 front-widths is < 2e-4.
                    if (x - X_FRONT).abs() > WINDOW {
                        continue;
                    }
                    acc.push(
                        sim.erad().get(s, i1 as isize, i2 as isize),
                        Self::analytic(&grid.global, d, x, y, t),
                    );
                }
            }
        }
        let (l1, l2, linf) = acc.reduce(comm, sink);
        let tolerance = 0.05;
        ValidationReport {
            family: self.family().name(),
            l1,
            l2,
            linf,
            tolerance,
            pass: l2 < tolerance,
            detail: format!("step front vs erfc x sine at t={t:.4} (D={d:.4})"),
        }
    }

    fn convergence(&self) -> Convergence {
        Convergence {
            mode: ConvergenceMode::Analytic,
            refine: Refinement::SpaceTime,
            base: (24, 6, 6),
            min_order: 1.2,
        }
    }
}
