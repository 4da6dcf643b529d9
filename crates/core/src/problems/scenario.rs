//! The problem-family registry and its uniform validation harness.
//!
//! Every test problem V2D can run — the paper's Gaussian pulse, the
//! verification problems, and the physics workloads added on top of
//! them — is one type implementing [`Scenario`], defined in its own
//! module: it configures a run at any resolution, sets the initial
//! condition, and *grades* the finished fields against an analytic or
//! golden reference.  This module holds only what they share: the
//! registry, the trait and report types, [`deck_from_config`], and the
//! shared numerics.  Scenarios are string-keyed by [`Family`], so a
//! parameter deck selects one with
//!
//! ```text
//! [problem]
//! family = sedov
//! ```
//!
//! and every layer that launches runs — the `v2d` driver, the
//! `v2d-serve` request path, the testkit fuzzer, and the supervised
//! fault path — reaches the same registry.
//!
//! Two invariants make the registry safe to thread everywhere:
//!
//! * **A registry entry is a parameter struct.**  [`Family::scenario`]
//!   hands out `static` instances (`GaussianPulse::standard()`, …), so
//!   a run through the registry and a run through the struct's own
//!   constructor are the same run, bit for bit.
//! * **Fixed physical end time.**  Each scenario's `config(n1, n2,
//!   steps)` derives `dt = T_final / steps` from a per-family constant,
//!   so refining `steps` refines the timestep while every resolution
//!   integrates to the same physical time — the property the
//!   convergence study leans on.  (Hydro subcycles to its own CFL limit
//!   inside each radiation step, so any `dt` choice is stable.)

use std::fmt;

use v2d_comm::{Comm, ReduceOp};
use v2d_machine::MultiCostSink;

use crate::config_file::{BICGSTAB, BOUNDARY, FAMILY, GEOMETRY, LIMITER, PRECOND, SWITCH};
use crate::grid::{Geometry, Grid2};
use crate::hydro::eos::Prim;
use crate::limiter::Limiter;
use crate::opacity::OpacityModel;
use crate::sim::{HydroConfig, PrecondKind, V2dConfig, V2dSim};

use super::{
    GaussianPulse, KelvinHelmholtzScenario, MatterRelaxation, MultigroupScenario, RadShockScenario,
    RadiativeRelaxation, SedovScenario, SodTube,
};

/// The registered problem families, in registry (sweep) order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// The paper's 2-D Gaussian radiation pulse (linear verification
    /// variant with the closed-form diffusion solution).
    Gaussian,
    /// Two radiation groups crossing an opacity step: each group
    /// diffuses a pulse at its own `D_s = c/(3κ_s)`.
    Multigroup,
    /// A radiative step front relaxing under linear diffusion (erfc
    /// closed form).
    RadShock,
    /// Uniform two-species radiative relaxation (exponential exchange
    /// decay).
    Relax,
    /// Marshak-style matter–radiation thermalization (0-D ODE
    /// reference).
    Marshak,
    /// The Sod shock tube (exact Riemann solution).
    Sod,
    /// A Sedov–Taylor blast in a closed box (conservation invariants +
    /// similarity radius).
    Sedov,
    /// A Kelvin–Helmholtz shear layer (seeded-mode growth).
    KelvinHelmholtz,
}

/// Every registered family, in sweep order.
pub const FAMILIES: [Family; 8] = [
    Family::Gaussian,
    Family::Multigroup,
    Family::RadShock,
    Family::Relax,
    Family::Marshak,
    Family::Sod,
    Family::Sedov,
    Family::KelvinHelmholtz,
];

impl Family {
    /// The registry key (what `[problem] family = …` matches).
    pub fn name(self) -> &'static str {
        FAMILY.name(self)
    }

    /// The scenario object for this family.
    pub fn scenario(self) -> &'static dyn Scenario {
        static GAUSSIAN: GaussianPulse = GaussianPulse::standard();
        static RELAX: RadiativeRelaxation = RadiativeRelaxation::standard();
        static MARSHAK: MatterRelaxation = MatterRelaxation::standard();
        static SOD: SodTube = SodTube::standard();
        match self {
            Family::Gaussian => &GAUSSIAN,
            Family::Multigroup => &MultigroupScenario,
            Family::RadShock => &RadShockScenario,
            Family::Relax => &RELAX,
            Family::Marshak => &MARSHAK,
            Family::Sod => &SOD,
            Family::Sedov => &SedovScenario,
            Family::KelvinHelmholtz => &KelvinHelmholtzScenario,
        }
    }
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The graded outcome of one finished run.
///
/// The three norms are *relative* residuals whose meaning is
/// scenario-defined: analytic scenarios report field error norms against
/// the closed-form solution; invariant-graded scenarios (Sedov,
/// Kelvin–Helmholtz) report their conservation/feature residuals.
/// `pass` is the scenario's own aggregation of its checks; `tolerance`
/// is the bound applied to the leading norm (`l2` unless the scenario's
/// docs say otherwise).
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationReport {
    /// The family that graded the run.
    pub family: &'static str,
    /// Relative L1 residual.
    pub l1: f64,
    /// Relative L2 residual (the leading norm for analytic scenarios).
    pub l2: f64,
    /// Relative L∞ residual.
    pub linf: f64,
    /// The bound applied to the leading norm.
    pub tolerance: f64,
    /// Did every check pass?
    pub pass: bool,
    /// Human-readable summary of the individual checks.
    pub detail: String,
}

impl fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} l1={:.3e} l2={:.3e} linf={:.3e} (tol {:.1e}) — {}",
            self.family,
            if self.pass { "PASS" } else { "FAIL" },
            self.l1,
            self.l2,
            self.linf,
            self.tolerance,
            self.detail
        )
    }
}

/// How a scenario's resolution triple `(n1, n2, steps)` is refined
/// between convergence-study levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refinement {
    /// Double the grid and quadruple the steps per level (`dt ∝ dx²` —
    /// the diffusion scaling).
    SpaceTime,
    /// Double the grid at a fixed step count (hydro subcycles to its
    /// own CFL limit, so spatial refinement refines the flow timestep
    /// implicitly).
    Space,
    /// Double the steps (halve `dt`) on a fixed grid.
    Time,
}

/// How the convergence study measures a scenario's error at each level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConvergenceMode {
    /// Use the `l2` norm of [`Scenario::validate`] (an analytic
    /// reference exists).
    Analytic,
    /// No closed form: restrict each factor-2 finer [`study
    /// field`](Scenario::study_field) onto the coarser grid by 2×2
    /// block averaging and measure the L1 difference between
    /// consecutive levels.
    SelfConvergence,
}

/// A scenario's expected error-norm convergence behaviour.
#[derive(Debug, Clone, Copy)]
pub struct Convergence {
    /// Error measurement strategy.
    pub mode: ConvergenceMode,
    /// Refinement axis between levels.
    pub refine: Refinement,
    /// Level-0 resolution `(n1, n2, steps)`.
    pub base: (usize, usize, usize),
    /// The study asserts the measured order stays at or above this.
    pub min_order: f64,
}

impl Convergence {
    /// The resolution triple at refinement `level` (level 0 = `base`).
    pub fn level(&self, level: u32) -> (usize, usize, usize) {
        let (n1, n2, steps) = self.base;
        let g = 1usize << level;
        match self.refine {
            Refinement::SpaceTime => (n1 * g, n2 * g, steps * g * g),
            Refinement::Space => (n1 * g, n2 * g, steps),
            Refinement::Time => (n1, n2, steps * g),
        }
    }
}

/// One registered problem family: configuration, initial condition, and
/// the validation hook that grades a finished run.
///
/// Implementations must be pure: the same `(n1, n2, steps)` always
/// yields the same configuration and initial fields, so runs stay
/// bit-deterministic and replay/memoization over scenarios stays sound.
pub trait Scenario: Sync {
    /// The registry key of this scenario.
    fn family(&self) -> Family;

    /// One-line description for tables and docs.
    fn describe(&self) -> &'static str;

    /// The smoke resolution `(n1, n2, steps)`: small enough for every
    /// `cargo test`, fine enough that [`Scenario::validate`] passes.
    fn smoke(&self) -> (usize, usize, usize);

    /// The solver configuration at a resolution.  `dt` is derived from
    /// a fixed per-family end time (`dt = T_final / steps`).
    fn config(&self, n1: usize, n2: usize, steps: usize) -> V2dConfig;

    /// Set this rank's initial fields (radiation, and hydro/temperature
    /// where the config enables them).
    fn init(&self, sim: &mut V2dSim);

    /// Grade the finished run.  Collective over `comm`: every rank
    /// contributes its tile and receives the same report.
    fn validate(&self, sim: &V2dSim, comm: &Comm, sink: &mut MultiCostSink) -> ValidationReport;

    /// The expected error-norm convergence behaviour (used by the
    /// nightly convergence study).
    fn convergence(&self) -> Convergence;

    /// The field the self-convergence mode restricts and compares
    /// (row-major over this rank's interior).  Defaults to radiation
    /// species 0; hydro scenarios override with a flow field.
    fn study_field(&self, sim: &V2dSim) -> Vec<f64> {
        let g = sim.grid();
        let mut out = Vec::with_capacity(g.n1 * g.n2);
        for i2 in 0..g.n2 {
            for i1 in 0..g.n1 {
                out.push(sim.erad().get(0, i1 as isize, i2 as isize));
            }
        }
        out
    }

    /// A complete parameter deck reproducing `config(n1, n2, steps)`
    /// under an `np1 × np2` topology, `[problem]` section included.
    fn deck(&self, n1: usize, n2: usize, steps: usize, np1: usize, np2: usize) -> String {
        deck_from_config(self.family(), &self.config(n1, n2, steps), np1, np2)
    }
}

/// Serialize a configuration into the strict `key = value` deck format,
/// with the `[problem]` section naming `family`.  Parsing the result
/// through [`crate::config_file::ParFile::to_config`] reproduces `cfg`
/// exactly (`f64` Display round-trips bit-for-bit; every enum is written
/// as its canonical spelling from the table the parser reads).
pub fn deck_from_config(family: Family, cfg: &V2dConfig, np1: usize, np2: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let g = &cfg.grid;
    let _ = writeln!(out, "[problem]\nfamily = {}\n", family.name());
    let _ = writeln!(out, "[grid]\nn1 = {}\nn2 = {}", g.n1, g.n2);
    let _ = writeln!(out, "x1 = {} {}\nx2 = {} {}", g.x1min, g.x1max, g.x2min, g.x2max);
    let _ = writeln!(out, "geometry = {}\n", GEOMETRY.name(g.geometry));
    let _ = writeln!(out, "[run]\ndt = {}\nn_steps = {}", cfg.dt, cfg.n_steps);
    let _ = writeln!(out, "nprx1 = {np1}\nnprx2 = {np2}\n");
    let _ = writeln!(out, "[radiation]\nlimiter = {}", LIMITER.name(cfg.limiter));
    let OpacityModel { kappa_a: ka, kappa_s: ks, kappa_x: kx } = cfg.opacity;
    let _ = writeln!(
        out,
        "kappa_a = {} {}\nkappa_s = {} {}\nkappa_x = {}",
        ka[0], ka[1], ks[0], ks[1], kx
    );
    let _ = writeln!(out, "precond = {}", PRECOND.name(cfg.precond));
    let _ = writeln!(out, "tol = {}\nmax_iters = {}", cfg.solve.tol, cfg.solve.max_iters);
    let _ = writeln!(out, "bicgstab = {}", BICGSTAB.name(cfg.solve.variant));
    let _ = writeln!(out, "c_light = {}\n", cfg.c_light);
    let on = SWITCH.name(true);
    if let Some(h) = cfg.hydro {
        let _ = writeln!(out, "[hydro]\nenabled = {on}\ngamma = {}\ncfl = {}", h.gamma, h.cfl);
        let _ = writeln!(
            out,
            "bc_west = {}\nbc_east = {}\nbc_south = {}\nbc_north = {}\n",
            BOUNDARY.name(h.bc.west),
            BOUNDARY.name(h.bc.east),
            BOUNDARY.name(h.bc.south),
            BOUNDARY.name(h.bc.north)
        );
    }
    if let Some(cp) = cfg.coupling {
        let _ = writeln!(
            out,
            "[coupling]\nenabled = {on}\ncv = {}\na_rad = {}\nsplit = {} {}\n",
            cp.cv, cp.a_rad, cp.split[0], cp.split[1]
        );
    }
    out
}

// ---------------------------------------------------------------------
// Shared numerics: collective norms, erf, the exact Riemann solver, the
// 0-D coupling ODE reference, and the hydro scenarios' config and study
// helpers.
// ---------------------------------------------------------------------

/// Local accumulator for relative L1/L2/L∞ norms of `got − want`.
#[derive(Debug, Clone, Copy, Default)]
pub struct NormAccum {
    num1: f64,
    num2: f64,
    ninf: f64,
    den1: f64,
    den2: f64,
    dinf: f64,
}

impl NormAccum {
    /// Fold one sample pair into the accumulator.
    pub fn push(&mut self, got: f64, want: f64) {
        let e = got - want;
        self.num1 += e.abs();
        self.num2 += e * e;
        self.ninf = self.ninf.max(e.abs());
        self.den1 += want.abs();
        self.den2 += want * want;
        self.dinf = self.dinf.max(want.abs());
    }

    /// Reduce across ranks and form the relative norms `(l1, l2, linf)`.
    pub fn reduce(&self, comm: &Comm, sink: &mut MultiCostSink) -> (f64, f64, f64) {
        let sum = |sink: &mut MultiCostSink, v: f64| comm.allreduce_scalar(sink, ReduceOp::Sum, v);
        let max = |sink: &mut MultiCostSink, v: f64| comm.allreduce_scalar(sink, ReduceOp::Max, v);
        let num1 = sum(sink, self.num1);
        let num2 = sum(sink, self.num2);
        let ninf = max(sink, self.ninf);
        let den1 = sum(sink, self.den1).max(f64::MIN_POSITIVE);
        let den2 = sum(sink, self.den2).max(f64::MIN_POSITIVE);
        let dinf = max(sink, self.dinf).max(f64::MIN_POSITIVE);
        // `f64::max` drops a NaN operand, so neither `push` nor the Max
        // reduction can carry a NaN error into L∞; the Sum-reduced L1
        // numerator carries it to every rank.
        let linf = if num1.is_nan() { f64::NAN } else { ninf / dinf };
        (num1 / den1, (num2 / den2).sqrt(), linf)
    }
}

/// The error function, via Abramowitz & Stegun 7.1.26 (|ε| < 1.5e-7 —
/// far below every validation tolerance; `std` provides no `erf`).
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    sign * (1.0 - poly * (-x * x).exp())
}

/// The complementary error function.
pub fn erfc(x: f64) -> f64 {
    1.0 - erf(x)
}

/// The exact solution of the Riemann problem for the gamma-law Euler
/// equations (Toro ch. 4), sampled at similarity coordinate `xi = x/t`.
/// Returns the primitive state `(rho, u, p)` on the `x1` axis.
pub fn riemann_exact(left: Prim, right: Prim, gamma: f64, xi: f64) -> (f64, f64, f64) {
    let g = gamma;
    let (rho_l, u_l, p_l) = (left.rho, left.u1, left.p);
    let (rho_r, u_r, p_r) = (right.rho, right.u1, right.p);
    let c_l = (g * p_l / rho_l).sqrt();
    let c_r = (g * p_r / rho_r).sqrt();

    // f_K(p): the velocity jump across the left/right wave as a function
    // of the star pressure, with its derivative (Toro eqs. 4.6–4.7).
    let fk = |p: f64, p_k: f64, rho_k: f64, c_k: f64| -> (f64, f64) {
        if p > p_k {
            // Shock branch.
            let a_k = 2.0 / ((g + 1.0) * rho_k);
            let b_k = (g - 1.0) / (g + 1.0) * p_k;
            let root = (a_k / (p + b_k)).sqrt();
            let f = (p - p_k) * root;
            let df = root * (1.0 - 0.5 * (p - p_k) / (p + b_k));
            (f, df)
        } else {
            // Rarefaction branch.
            let pr = p / p_k;
            let f = 2.0 * c_k / (g - 1.0) * (pr.powf((g - 1.0) / (2.0 * g)) - 1.0);
            let df = 1.0 / (rho_k * c_k) * pr.powf(-(g + 1.0) / (2.0 * g));
            (f, df)
        }
    };

    // Star pressure by Newton iteration from the PV (primitive-variable)
    // guess, floored to stay positive.
    let mut p_star = (0.5 * (p_l + p_r) - 0.125 * (u_r - u_l) * (rho_l + rho_r) * (c_l + c_r))
        .max(1e-8 * (p_l + p_r));
    for _ in 0..60 {
        let (f_l, df_l) = fk(p_star, p_l, rho_l, c_l);
        let (f_r, df_r) = fk(p_star, p_r, rho_r, c_r);
        let f = f_l + f_r + (u_r - u_l);
        let step = f / (df_l + df_r);
        let next = (p_star - step).max(1e-10 * p_star);
        if ((next - p_star) / (0.5 * (next + p_star))).abs() < 1e-14 {
            p_star = next;
            break;
        }
        p_star = next;
    }
    let (f_l, _) = fk(p_star, p_l, rho_l, c_l);
    let (f_r, _) = fk(p_star, p_r, rho_r, c_r);
    let u_star = 0.5 * (u_l + u_r) + 0.5 * (f_r - f_l);

    // Sample (Toro §4.5).
    if xi <= u_star {
        // Left of the contact.
        if p_star > p_l {
            // Left shock.
            let ms =
                u_l - c_l * ((g + 1.0) / (2.0 * g) * p_star / p_l + (g - 1.0) / (2.0 * g)).sqrt();
            if xi <= ms {
                (rho_l, u_l, p_l)
            } else {
                let pr = p_star / p_l;
                let gr = (g - 1.0) / (g + 1.0);
                (rho_l * (pr + gr) / (gr * pr + 1.0), u_star, p_star)
            }
        } else {
            // Left rarefaction.
            let c_star = c_l * (p_star / p_l).powf((g - 1.0) / (2.0 * g));
            let (head, tail) = (u_l - c_l, u_star - c_star);
            if xi <= head {
                (rho_l, u_l, p_l)
            } else if xi >= tail {
                (rho_l * (p_star / p_l).powf(1.0 / g), u_star, p_star)
            } else {
                let u = 2.0 / (g + 1.0) * (c_l + (g - 1.0) / 2.0 * u_l + xi);
                let c = 2.0 / (g + 1.0) * (c_l + (g - 1.0) / 2.0 * (u_l - xi));
                (
                    rho_l * (c / c_l).powf(2.0 / (g - 1.0)),
                    u,
                    p_l * (c / c_l).powf(2.0 * g / (g - 1.0)),
                )
            }
        }
    } else {
        // Right of the contact (mirror).
        if p_star > p_r {
            let ms =
                u_r + c_r * ((g + 1.0) / (2.0 * g) * p_star / p_r + (g - 1.0) / (2.0 * g)).sqrt();
            if xi >= ms {
                (rho_r, u_r, p_r)
            } else {
                let pr = p_star / p_r;
                let gr = (g - 1.0) / (g + 1.0);
                (rho_r * (pr + gr) / (gr * pr + 1.0), u_star, p_star)
            }
        } else {
            let c_star = c_r * (p_star / p_r).powf((g - 1.0) / (2.0 * g));
            let (head, tail) = (u_r + c_r, u_star + c_star);
            if xi >= head {
                (rho_r, u_r, p_r)
            } else if xi <= tail {
                (rho_r * (p_star / p_r).powf(1.0 / g), u_star, p_star)
            } else {
                let u = 2.0 / (g + 1.0) * (-c_r + (g - 1.0) / 2.0 * u_r + xi);
                let c = 2.0 / (g + 1.0) * (c_r - (g - 1.0) / 2.0 * (u_r - xi));
                (
                    rho_r * (c / c_r).powf(2.0 / (g - 1.0)),
                    u,
                    p_r * (c / c_r).powf(2.0 * g / (g - 1.0)),
                )
            }
        }
    }
}

/// Fine-step RK4 reference for the 0-D matter–radiation coupling ODE
///
/// ```text
/// dE_s/dt = c κ_a,s (B_s(T) − E_s),  c_v dT/dt = −Σ_s c κ_a,s (B_s(T) − E_s)
/// ```
///
/// Returns `(E_0, E_1, T)` at `t_final`, using `n` substeps (the RK4
/// truncation error is O((t/n)⁴), negligible next to the solver's
/// first-order splitting error for any reasonable `n`).
pub fn coupling_ode_reference(
    e0: [f64; 2],
    t0: f64,
    c_light: f64,
    kappa_a: [f64; 2],
    coupling: &crate::rad::coupling::MatterCoupling,
    t_final: f64,
    n: usize,
) -> ([f64; 2], f64) {
    let rhs = |y: [f64; 3]| -> [f64; 3] {
        let t = y[2];
        let mut dy = [0.0; 3];
        let mut gas = 0.0;
        for s in 0..2 {
            let drive = c_light * kappa_a[s] * (coupling.emission(s, t) - y[s]);
            dy[s] = drive;
            gas -= drive;
        }
        dy[2] = gas / coupling.cv;
        dy
    };
    let mut y = [e0[0], e0[1], t0];
    let h = t_final / n as f64;
    for _ in 0..n {
        let k1 = rhs(y);
        let k2 = rhs([y[0] + 0.5 * h * k1[0], y[1] + 0.5 * h * k1[1], y[2] + 0.5 * h * k1[2]]);
        let k3 = rhs([y[0] + 0.5 * h * k2[0], y[1] + 0.5 * h * k2[1], y[2] + 0.5 * h * k2[2]]);
        let k4 = rhs([y[0] + h * k3[0], y[1] + h * k3[1], y[2] + h * k3[2]]);
        for i in 0..3 {
            y[i] += h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
        }
    }
    ([y[0], y[1]], y[2])
}

/// The density field, row-major over this rank's interior (shared by
/// the hydro scenarios' study hooks).
pub(crate) fn hydro_rho(sim: &V2dSim) -> Vec<f64> {
    let g = sim.grid();
    let mut out = Vec::with_capacity(g.n1 * g.n2);
    if let Some(state) = sim.hydro() {
        for i2 in 0..g.n2 {
            for i1 in 0..g.n1 {
                out.push(state.rho.get(0, i1 as isize, i2 as isize));
            }
        }
    }
    out
}

/// Shared helper for hydro scenario configs: Sod-style passive
/// radiation (the update still runs — it is part of the code path — but
/// with negligible energy), hydro enabled with the given BC.
pub(crate) fn hydro_config(
    n1: usize,
    n2: usize,
    steps: usize,
    dt: f64,
    extent: [(f64, f64); 2],
    gamma: f64,
    bc: crate::hydro::HydroBc,
) -> V2dConfig {
    V2dConfig {
        grid: Grid2::new(n1, n2, extent[0], extent[1], Geometry::Cartesian),
        limiter: Limiter::LevermorePomraning,
        opacity: OpacityModel::test_problem(),
        c_light: 1.0,
        dt,
        n_steps: steps,
        precond: PrecondKind::BlockJacobi,
        solve: v2d_linalg::SolveOpts::default(),
        hydro: Some(HydroConfig { gamma, cfl: 0.4, bc }),
        coupling: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_total_and_names_round_trip() {
        for f in FAMILIES {
            assert_eq!(FAMILY.parse(f.name()), Some(f), "{f} must parse back");
            assert_eq!(f.scenario().family(), f, "{f} scenario must self-identify");
        }
        assert_eq!(FAMILY.parse("warp-drive"), None);
        let names: Vec<_> = FAMILIES.iter().map(|f| f.name()).collect();
        assert_eq!(FAMILY.valid(), names.join(", "), "the table lists families in sweep order");
    }

    #[test]
    fn a_nan_error_on_any_rank_makes_every_norm_nan() {
        let norms = v2d_comm::Spmd::new(2).run(|ctx| {
            let mut acc = NormAccum::default();
            acc.push(1.5, 1.0);
            if ctx.rank() == 1 {
                acc.push(f64::NAN, 1.0);
            }
            acc.reduce(&ctx.comm, &mut ctx.sink)
        });
        for (rank, (l1, l2, linf)) in norms.into_iter().enumerate() {
            assert!(l1.is_nan() && l2.is_nan(), "rank {rank}: l1={l1} l2={l2}");
            assert!(linf.is_nan(), "rank {rank}: a NaN sample must not leave linf={linf}");
        }
    }

    #[test]
    fn erf_matches_known_values() {
        // erf(0)=0, erf(∞)→1, erf(1)≈0.8427007929 (A&S 7.1.26 is
        // accurate to ~1.5e-7, including a tiny residual at x=0).
        assert!(erf(0.0).abs() < 2e-7);
        assert!((erf(1.0) - 0.842_700_792_9).abs() < 2e-7);
        assert!((erf(-1.0) + 0.842_700_792_9).abs() < 2e-7);
        assert!((erf(3.0) - 0.999_977_909_5).abs() < 2e-7);
        assert!((erfc(0.5) - 0.479_500_122).abs() < 2e-7);
    }

    #[test]
    fn riemann_solver_reproduces_sod_star_state() {
        // Toro's Test 1 (the Sod tube): p* = 0.30313, u* = 0.92745,
        // rho*L = 0.42632, rho*R = 0.26557 (Toro Table 4.3).
        let tube = SodTube::standard();
        let (rho, u, p) = riemann_exact(tube.left, tube.right, 1.4, 0.5);
        // ξ = 0.5 sits between the contact (0.927) — no: 0.5 < u*, so
        // this is the left star region.
        assert!((p - 0.30313).abs() < 1e-4, "p* = {p}");
        assert!((u - 0.92745).abs() < 1e-4, "u* = {u}");
        assert!((rho - 0.42632).abs() < 1e-4, "rho*L = {rho}");
        // Right star region: between the contact and the shock.
        let (rho_r, _, _) = riemann_exact(tube.left, tube.right, 1.4, 1.2);
        assert!((rho_r - 0.26557).abs() < 1e-4, "rho*R = {rho_r}");
        // Far field untouched.
        let (rho_far, _, _) = riemann_exact(tube.left, tube.right, 1.4, 5.0);
        assert!((rho_far - 0.125).abs() < 1e-12);
        let (rho_far, _, _) = riemann_exact(tube.left, tube.right, 1.4, -5.0);
        assert!((rho_far - 1.0).abs() < 1e-12);
    }

    #[test]
    fn coupling_ode_reference_conserves_energy_and_equilibrates() {
        let p = MatterRelaxation::standard();
        let (e, t) =
            coupling_ode_reference(p.e0, p.t0, 1.0, [0.4, 0.4], &p.coupling, 100.0, 50_000);
        let t_eq = p.equilibrium_temperature();
        assert!((t - t_eq).abs() < 1e-6, "ODE must reach the analytic equilibrium: {t} vs {t_eq}");
        let total0 = p.coupling.cv * p.t0 + p.e0.iter().sum::<f64>();
        let total1 = p.coupling.cv * t + e[0] + e[1];
        assert!(((total1 - total0) / total0).abs() < 1e-9, "budget drift");
    }

    #[test]
    fn convergence_levels_follow_the_refinement_axis() {
        let c = Convergence {
            mode: ConvergenceMode::Analytic,
            refine: Refinement::SpaceTime,
            base: (16, 8, 4),
            min_order: 1.0,
        };
        assert_eq!(c.level(0), (16, 8, 4));
        assert_eq!(c.level(1), (32, 16, 16));
        assert_eq!(c.level(2), (64, 32, 64));
        let c = Convergence { refine: Refinement::Space, ..c };
        assert_eq!(c.level(2), (64, 32, 4));
        let c = Convergence { refine: Refinement::Time, ..c };
        assert_eq!(c.level(2), (16, 8, 16));
    }

    #[test]
    fn decks_name_their_family_and_parse() {
        for f in FAMILIES {
            let deck = f.scenario().deck(16, 8, 4, 2, 1);
            let pf = crate::config_file::ParFile::parse(&deck)
                .unwrap_or_else(|e| panic!("{f} deck must parse: {e}\n{deck}"));
            assert_eq!(pf.get("problem.family"), Some(f.name()));
            let (cfg, (np1, np2)) = pf
                .to_config()
                .unwrap_or_else(|e| panic!("{f} deck must build a config: {e}\n{deck}"));
            assert_eq!((np1, np2), (2, 1));
            assert_eq!(cfg, f.scenario().config(16, 8, 4), "{f}: config must round-trip");
        }
    }
}
