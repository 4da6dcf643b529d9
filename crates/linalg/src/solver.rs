//! Krylov solvers: BiCGSTAB (classic and V2D's restructured, inner-
//! product-ganging form) and CG as the symmetric baseline.
//!
//! The paper (§I-C): V2D "uses a restructured version of the BiCGSTAB
//! algorithm, which gangs inner products to reduce the number of parallel
//! global reduction operations required per iteration".  The
//! [`BicgVariant::Ganged`] solver here performs exactly **two** global
//! reductions per iteration:
//!
//! 1. `⟨r̂, v⟩` after the first operator application, and
//! 2. a single five-way gang `{⟨t,s⟩, ⟨t,t⟩, ⟨s,s⟩, ⟨r̂,s⟩, ⟨r̂,t⟩}`
//!    after the second, from which ω, the new residual norm
//!    (`‖r‖² = ⟨s,s⟩ − 2ω⟨t,s⟩ + ω²⟨t,t⟩`) and the next iteration's
//!    ρ (`⟨r̂,r⟩ = ⟨r̂,s⟩ − ω⟨r̂,t⟩`) all follow algebraically.
//!
//! The [`BicgVariant::Classic`] form issues five separate reductions per
//! iteration; both produce the same iterates up to floating-point
//! reassociation, which the test suite verifies.
//!
//! All three solvers share one opening — the in-place initial residual
//! ([`kernels::residual_into`]) and one `{‖r‖², ‖b‖²}` gang — and draw
//! their tile-shaped scratch from a caller-owned [`SolverWorkspace`],
//! so a warm solve performs **zero**
//! `TileVec` heap allocations — see the `workspace_alloc` integration
//! test and the `ablation_alloc` bench.

use std::ops::ControlFlow;

use v2d_comm::{coll_site, Comm, CommError, ReduceOp};
use v2d_machine::{AttrVal, ExecCtx};

use crate::kernels;
use crate::op::LinearOp;
use crate::precond::Preconditioner;
use crate::tilevec::TileVec;
use crate::workspace::SolverWorkspace;

/// Which BiCGSTAB reduction structure to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BicgVariant {
    /// Textbook van der Vorst form: one allreduce per inner product.
    Classic,
    /// V2D's restructured form: two reduction points per iteration.
    Ganged,
}

/// Solver options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveOpts {
    /// Convergence: `‖r‖ ≤ tol · ‖b‖`.
    pub tol: f64,
    /// Iteration cap.
    pub max_iters: usize,
    /// Reduction structure (BiCGSTAB only).
    pub variant: BicgVariant,
}

impl Default for SolveOpts {
    fn default() -> Self {
        SolveOpts { tol: 1e-9, max_iters: 10_000, variant: BicgVariant::Ganged }
    }
}

/// Iterations without a new best residual norm before BiCGSTAB declares
/// stagnation (and restarts, if restarts remain).  Chosen well above the
/// longest plateau of a healthy solve.
const STALL_WINDOW: usize = 250;

/// True-residual restarts BiCGSTAB may spend on ρ/ω/stagnation
/// breakdowns before giving the system up to the fallback cascade.
const MAX_RESTARTS: u32 = 2;

/// A pivot (ρ, ω, `⟨r̂,v⟩`, `⟨p,Ap⟩`, a Givens denominator) below this
/// magnitude counts as zero.
const TINY: f64 = 1e-290;

/// Why an iterative solve gave up — the cause the seed implementation
/// silently folded into `converged: false`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakdownReason {
    /// `⟨r̂, r⟩` collapsed to zero — the classic BiCGSTAB breakdown.
    RhoZero,
    /// ω collapsed to zero (`t ≈ 0` while `s` stayed large).
    OmegaZero,
    /// `⟨r̂, A·p̂⟩` collapsed to zero.
    RhatVZero,
    /// `⟨p, A·p⟩` collapsed — CG on an indefinite or defective system.
    PapZero,
    /// A residual or inner product became NaN/Inf: the data itself is
    /// poisoned, so restarting cannot help.
    NonFinite,
    /// No new best residual norm for a full stall window.
    Stagnation,
    /// A scheduled fault-injection event forced this breakdown.
    Injected,
    /// The iteration cap expired before the tolerance was met.
    MaxIters,
}

impl BreakdownReason {
    /// Stable lower-snake label (metric-name component, trace attribute).
    pub fn name(self) -> &'static str {
        match self {
            BreakdownReason::RhoZero => "rho_zero",
            BreakdownReason::OmegaZero => "omega_zero",
            BreakdownReason::RhatVZero => "rhat_v_zero",
            BreakdownReason::PapZero => "pap_zero",
            BreakdownReason::NonFinite => "non_finite",
            BreakdownReason::Stagnation => "stagnation",
            BreakdownReason::Injected => "injected",
            BreakdownReason::MaxIters => "max_iters",
        }
    }

    /// All reasons, in a stable order (dense metric enumeration).
    pub fn all() -> [BreakdownReason; 8] {
        [
            BreakdownReason::RhoZero,
            BreakdownReason::OmegaZero,
            BreakdownReason::RhatVZero,
            BreakdownReason::PapZero,
            BreakdownReason::NonFinite,
            BreakdownReason::Stagnation,
            BreakdownReason::Injected,
            BreakdownReason::MaxIters,
        ]
    }
}

/// Outcome of a solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveStats {
    /// Iterations performed.
    pub iters: usize,
    /// Whether the tolerance was reached.
    pub converged: bool,
    /// Final relative residual norm (from the recurrence).
    pub relres: f64,
    /// Number of global reduction operations issued — the quantity V2D's
    /// restructuring minimizes (ablation A3 measures it).
    pub reductions: usize,
    /// Why the solve stopped short, when it did (`None` on success).
    pub breakdown: Option<BreakdownReason>,
    /// Recovery actions that contributed to this result: in-solver
    /// true-residual restarts, plus one per exhausted solver when the
    /// result comes from [`solve_cascade`]'s fallback chain.
    pub recoveries: u32,
}

/// Which solver of the fallback cascade produced an attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverKind {
    BicgStab,
    Gmres,
    Cg,
}

impl SolverKind {
    /// Stable lower-snake label (metric-name component, trace attribute).
    pub fn name(self) -> &'static str {
        match self {
            SolverKind::BicgStab => "bicgstab",
            SolverKind::Gmres => "gmres",
            SolverKind::Cg => "cg",
        }
    }
}

/// One exhausted attempt of the [`solve_cascade`] chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveAttempt {
    pub solver: SolverKind,
    pub stats: SolveStats,
}

/// Every solver of the cascade failed.  Carries the per-solver stats so
/// the caller can see *how* each one died (and report it).
#[derive(Debug, Clone, PartialEq)]
pub struct SolveError {
    pub attempts: Vec<SolveAttempt>,
    /// Set when the cascade aborted because the communicator itself
    /// failed (lockstep mismatch, collective/receive timeout, peer
    /// death).  A poisoned communicator cannot run the remaining
    /// fallbacks — retrying locally would desynchronize further — so
    /// the caller must treat the whole step as lost.
    pub comm: Option<CommError>,
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if let Some(ce) = &self.comm {
            write!(f, "solve aborted on a communicator fault: {ce}")?;
            if !self.attempts.is_empty() {
                write!(f, "; prior attempts:")?;
            }
        } else {
            write!(f, "all solvers failed:")?;
        }
        for at in &self.attempts {
            write!(
                f,
                " [{:?}: {:?} after {} iters, relres {:.3e}]",
                at.solver,
                at.stats.breakdown.unwrap_or(BreakdownReason::MaxIters),
                at.stats.iters,
                at.stats.relres
            )?;
        }
        Ok(())
    }
}

impl std::error::Error for SolveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        self.comm.as_ref().map(|ce| ce as &(dyn std::error::Error + 'static))
    }
}

/// The counters a solve carries to its exit, and the only place a
/// [`SolveStats`] is built: every exit goes through [`Tally::done`] or
/// [`Tally::fail`], so `converged == breakdown.is_none()` holds by
/// construction.
#[derive(Default)]
struct Tally {
    reductions: usize,
    recoveries: u32,
}

impl Tally {
    /// One global sum of a slice of ganged partial inner products,
    /// through the lockstep-verified fallible surface: a desynchronized
    /// or abandoned collective comes back as a typed [`CommError`] the
    /// step driver can turn into a recovery decision instead of a hang.
    fn reduce(
        &mut self,
        comm: &Comm,
        cx: &mut ExecCtx,
        partials: &mut [f64],
    ) -> Result<(), CommError> {
        comm.try_allreduce(cx, coll_site::SOLVER_REDUCE, ReduceOp::Sum, partials)?;
        self.reductions += 1;
        Ok(())
    }

    /// The tolerance was met.
    fn done(&self, iters: usize, relres: f64) -> SolveStats {
        self.stats(iters, relres, None)
    }

    /// The solve stopped short for `why`.
    fn fail(&self, iters: usize, relres: f64, why: BreakdownReason) -> SolveStats {
        self.stats(iters, relres, Some(why))
    }

    fn stats(&self, iters: usize, relres: f64, breakdown: Option<BreakdownReason>) -> SolveStats {
        SolveStats {
            iters,
            converged: breakdown.is_none(),
            relres,
            reductions: self.reductions,
            breakdown,
            recoveries: self.recoveries,
        }
    }
}

/// Size `wks` for `a`'s tile and scope the ambient working set of `cx`
/// to the operator's for the duration of `body`.
fn enter<A: LinearOp, T>(
    cx: &mut ExecCtx,
    a: &mut A,
    wks: &mut SolverWorkspace,
    body: impl FnOnce(&mut ExecCtx, &mut A, &mut SolverWorkspace) -> T,
) -> T {
    let (n1, n2) = a.tile_dims();
    wks.ensure(n1, n2);
    let old_ws = cx.set_ws(a.working_set());
    let out = body(cx, a, wks);
    cx.set_ws(old_ws);
    out
}

/// The opening every solver shares: `r = b − A·x` computed in place
/// (`r` holds `A·x`, then `b − A·x`) and one gang `{‖r‖², ‖b‖²}`.  Three
/// outcomes need no iteration and come back decided — a non-finite norm,
/// a homogeneous system (`x = 0` is the solution) and an initial guess
/// already within tolerance; otherwise the solver continues with
/// `(‖b‖, ‖r₀‖²)`.
#[allow(clippy::too_many_arguments)] // the solver's operands plus its tally
fn open<A: LinearOp>(
    comm: &Comm,
    cx: &mut ExecCtx,
    a: &mut A,
    b: &TileVec,
    x: &mut TileVec,
    r: &mut TileVec,
    tol: f64,
    tally: &mut Tally,
) -> Result<ControlFlow<SolveStats, (f64, f64)>, CommError> {
    a.apply(comm, cx, x, r);
    kernels::residual_into(cx, b, r);
    let mut gang = kernels::dprod_gang(cx, [(&*r, &*r), (b, b)]);
    tally.reduce(comm, cx, &mut gang)?;
    let [rr, bb] = gang;
    let bnorm = bb.sqrt();
    Ok(if !rr.is_finite() || !bnorm.is_finite() {
        ControlFlow::Break(tally.fail(0, f64::NAN, BreakdownReason::NonFinite))
    } else if bnorm == 0.0 {
        x.zero();
        ControlFlow::Break(tally.done(0, 0.0))
    } else if rr.sqrt() <= tol * bnorm {
        ControlFlow::Break(tally.done(0, rr.sqrt() / bnorm))
    } else {
        ControlFlow::Continue((bnorm, rr))
    })
}

/// Scheduled fault injection for the fallback solvers: fail the attempt
/// before any collective work begins (every rank shares the plan, so all
/// fail together).
fn injected(cx: &mut ExecCtx, solver: SolverKind) -> Option<SolveStats> {
    let inj = cx.faults()?;
    if !inj.poll_solver_breakdown() {
        return None;
    }
    inj.note(format!("{}: forced breakdown (injected)", solver.name()));
    Some(Tally::default().fail(0, f64::NAN, BreakdownReason::Injected))
}

/// Preconditioned BiCGSTAB: solve `A x = b`, starting from the `x`
/// passed in, overwriting it with the solution.  Scratch comes from
/// `wks`; the ambient working set of `cx` is scoped to the operator's
/// for the duration of the solve.
#[allow(clippy::too_many_arguments)] // mirrors the cg/gmres signature
pub fn bicgstab<A: LinearOp, M: Preconditioner>(
    comm: &Comm,
    cx: &mut ExecCtx,
    a: &mut A,
    m: &mut M,
    b: &TileVec,
    x: &mut TileVec,
    wks: &mut SolverWorkspace,
    opts: &SolveOpts,
) -> Result<SolveStats, CommError> {
    enter(cx, a, wks, |cx, a, wks| bicgstab_inner(comm, cx, a, m, b, x, wks, opts))
}

#[allow(clippy::too_many_arguments)] // the public signature, minus sugar
fn bicgstab_inner<A: LinearOp, M: Preconditioner>(
    comm: &Comm,
    cx: &mut ExecCtx,
    a: &mut A,
    m: &mut M,
    b: &TileVec,
    x: &mut TileVec,
    wks: &mut SolverWorkspace,
    opts: &SolveOpts,
) -> Result<SolveStats, CommError> {
    let mut tally = Tally::default();
    let mut restarts_left = MAX_RESTARTS;
    // Disjoint borrows of the workspace's scratch suite.
    let SolverWorkspace { r, rhat, p, v, s, t, phat, shat, .. } = wks;

    let (bnorm, mut rr) = match open(comm, cx, a, b, x, r, opts.tol, &mut tally)? {
        ControlFlow::Break(st) => return Ok(st),
        ControlFlow::Continue(opened) => opened,
    };
    rhat.copy_from(r);

    // ρ is *carried* between iterations when the variant supplies it
    // algebraically (Ganged) and recomputed with a dedicated reduction
    // when it does not (Classic, where the carry is `None`).  Starting
    // carry: ⟨r̂, r⟩ = ‖r‖², since r̂ = r.
    let mut rho_carry: Option<f64> = Some(rr);
    let mut rho_prev = rr;
    let mut alpha: f64 = 1.0;
    let mut omega: f64 = 1.0;
    // `fresh` marks the first direction update after an (re)start: the
    // search direction is seeded from r rather than β-recurred.
    let mut fresh = true;
    let mut best_rr = rr;
    let mut since_best = 0usize;

    let mut iter = 0usize;
    while iter < opts.max_iters {
        iter += 1;
        let mut rho = match rho_carry.take() {
            Some(carried) => carried,
            None => {
                // The classic form recomputes ρ = ⟨r̂, r⟩ with its own
                // reduction; the ganged form derived it algebraically
                // from last iteration's five-way gang.
                let mut g = [kernels::dprod_local(cx, rhat, r)];
                tally.reduce(comm, cx, &mut g)?;
                g[0]
            }
        };
        // Scheduled fault injection: force the classic ρ → 0 breakdown.
        // The plan is shared by every rank, so all ranks break (and
        // restart) collectively — no reduction-schedule desync.
        if let Some(inj) = cx.faults() {
            if inj.poll_solver_breakdown() {
                inj.note(format!("bicgstab iter {iter}: forced rho -> 0 breakdown"));
                rho = 0.0;
            }
        }
        if !rho.is_finite() || !omega.is_finite() || !rr.is_finite() {
            return Ok(tally.fail(iter - 1, rr.sqrt() / bnorm, BreakdownReason::NonFinite));
        }
        let why = if rho.abs() < TINY {
            Some(BreakdownReason::RhoZero)
        } else if omega.abs() < TINY {
            Some(BreakdownReason::OmegaZero)
        } else if since_best >= STALL_WINDOW {
            Some(BreakdownReason::Stagnation)
        } else {
            None
        };
        if let Some(why) = why {
            if restarts_left == 0 {
                return Ok(tally.fail(iter - 1, rr.sqrt() / bnorm, why));
            }
            // True-residual restart: recompute r = b − A·x from the
            // current iterate, reseed r̂ = r, and restart the recurrence.
            // The breakdown verdict came from globally-reduced scalars,
            // so every rank takes this branch together.
            restarts_left -= 1;
            tally.recoveries += 1;
            a.apply(comm, cx, x, r);
            kernels::residual_into(cx, b, r);
            rhat.copy_from(r);
            let mut g = [kernels::norm2_local(cx, r)];
            tally.reduce(comm, cx, &mut g)?;
            rr = g[0];
            if !rr.is_finite() {
                return Ok(tally.fail(iter, f64::NAN, BreakdownReason::NonFinite));
            }
            if let Some(inj) = cx.faults() {
                inj.note(format!(
                    "bicgstab iter {iter}: {why:?} breakdown, true-residual restart \
                     (relres {:.3e})",
                    rr.sqrt() / bnorm
                ));
            }
            cx.trace_instant(
                "solver_restart",
                &[
                    ("solver", AttrVal::Str("bicgstab")),
                    ("reason", AttrVal::Str(why.name())),
                    ("iter", AttrVal::U64(iter as u64)),
                    ("relres", AttrVal::F64(rr.sqrt() / bnorm)),
                ],
            );
            if rr.sqrt() <= opts.tol * bnorm {
                return Ok(tally.done(iter, rr.sqrt() / bnorm));
            }
            rho_carry = Some(rr);
            rho_prev = rr;
            alpha = 1.0;
            omega = 1.0;
            fresh = true;
            best_rr = rr;
            since_best = 0;
            continue;
        }
        if fresh {
            p.copy_from(r);
            fresh = false;
        } else {
            let beta = (rho / rho_prev) * (alpha / omega);
            kernels::p_update(cx, beta, omega, r, v, p);
        }

        m.apply(comm, cx, p, phat);
        a.apply(comm, cx, phat, v);
        let mut g = [kernels::dprod_local(cx, rhat, v)];
        tally.reduce(comm, cx, &mut g)?;
        let rv = g[0];
        if !rv.is_finite() {
            return Ok(tally.fail(iter, rr.sqrt() / bnorm, BreakdownReason::NonFinite));
        }
        if rv.abs() < TINY {
            return Ok(tally.fail(iter, rr.sqrt() / bnorm, BreakdownReason::RhatVZero));
        }
        alpha = rho / rv;
        kernels::xmay(cx, r, alpha, v, s); // s = r − α·v

        m.apply(comm, cx, s, shat);
        a.apply(comm, cx, shat, t);

        let rho_next: Option<f64>;
        match opts.variant {
            BicgVariant::Ganged => {
                // One five-way gang closes the iteration.
                let (t, s, rhat) = (&*t, &*s, &*rhat);
                let mut g = kernels::dprod_gang(cx, [(t, s), (t, t), (s, s), (rhat, s), (rhat, t)]);
                tally.reduce(comm, cx, &mut g)?;
                let [ts, tt, ss, rs, rt] = g;
                if tt < TINY {
                    // t ≈ 0: converged iff s ≈ 0.
                    kernels::daxpy(cx, alpha, phat, x);
                    return Ok(omega_exit(&tally, iter, ss.sqrt(), opts.tol, bnorm));
                }
                omega = ts / tt;
                // ‖r‖² and next ρ follow algebraically — no extra
                // reductions.
                rr = (ss - 2.0 * omega * ts + omega * omega * tt).max(0.0);
                rho_next = Some(rs - omega * rt);
            }
            BicgVariant::Classic => {
                let mut g1 = [kernels::dprod_local(cx, t, s)];
                tally.reduce(comm, cx, &mut g1)?;
                let mut g2 = [kernels::norm2_local(cx, t)];
                tally.reduce(comm, cx, &mut g2)?;
                let [ts, tt] = [g1[0], g2[0]];
                if tt < TINY {
                    kernels::daxpy(cx, alpha, phat, x);
                    let mut g3 = [kernels::norm2_local(cx, s)];
                    tally.reduce(comm, cx, &mut g3)?;
                    return Ok(omega_exit(&tally, iter, g3[0].sqrt(), opts.tol, bnorm));
                }
                omega = ts / tt;
                rho_next = None; // recomputed at the next loop top
            }
        }

        // x ← x + α·p̂ + ω·ŝ  (V2D's combined scaling/addition routine)
        kernels::ddaxpy(cx, alpha, phat, omega, shat, x);
        // r ← s − ω·t
        kernels::xmay(cx, s, omega, t, r);

        if opts.variant == BicgVariant::Classic {
            let mut g = [kernels::norm2_local(cx, r)];
            tally.reduce(comm, cx, &mut g)?;
            rr = g[0];
        }
        cx.trace_instant(
            "bicgstab_iter",
            &[("iter", AttrVal::U64(iter as u64)), ("relres", AttrVal::F64(rr.sqrt() / bnorm))],
        );
        if rr.sqrt() <= opts.tol * bnorm {
            return Ok(tally.done(iter, rr.sqrt() / bnorm));
        }
        // Stagnation watch: count iterations since the recurrence last
        // set a new best residual norm (host-side — no kernel cost).
        if rr < best_rr {
            best_rr = rr;
            since_best = 0;
        } else {
            since_best += 1;
        }
        rho_prev = rho;
        rho_carry = rho_next;
    }
    Ok(tally.fail(opts.max_iters, rr.sqrt() / bnorm, BreakdownReason::MaxIters))
}

/// BiCGSTAB's `t ≈ 0` exit: ω is undefined, and the solve converged iff
/// `‖s‖` is already within tolerance.
fn omega_exit(tally: &Tally, iter: usize, snorm: f64, tol: f64, bnorm: f64) -> SolveStats {
    if snorm <= tol * bnorm {
        tally.done(iter, snorm / bnorm)
    } else {
        tally.fail(iter, snorm / bnorm, BreakdownReason::OmegaZero)
    }
}

/// Preconditioned conjugate gradient for symmetric positive-definite
/// systems — the method BiCGSTAB extends (paper §II-A); used as the
/// baseline in the preconditioner ablation.
#[allow(clippy::too_many_arguments)] // mirrors the bicgstab/gmres signature
pub fn cg<A: LinearOp, M: Preconditioner>(
    comm: &Comm,
    cx: &mut ExecCtx,
    a: &mut A,
    m: &mut M,
    b: &TileVec,
    x: &mut TileVec,
    wks: &mut SolverWorkspace,
    opts: &SolveOpts,
) -> Result<SolveStats, CommError> {
    enter(cx, a, wks, |cx, a, wks| cg_inner(comm, cx, a, m, b, x, wks, opts))
}

#[allow(clippy::too_many_arguments)]
fn cg_inner<A: LinearOp, M: Preconditioner>(
    comm: &Comm,
    cx: &mut ExecCtx,
    a: &mut A,
    m: &mut M,
    b: &TileVec,
    x: &mut TileVec,
    wks: &mut SolverWorkspace,
    opts: &SolveOpts,
) -> Result<SolveStats, CommError> {
    if let Some(st) = injected(cx, SolverKind::Cg) {
        return Ok(st);
    }
    let mut tally = Tally::default();
    // CG's suite aliases the BiCGSTAB field names: z lives in `rhat`,
    // A·p in `v`.
    let SolverWorkspace { r, rhat: z, p, v: ap, .. } = wks;

    let (bnorm, mut rr) = match open(comm, cx, a, b, x, r, opts.tol, &mut tally)? {
        ControlFlow::Break(st) => return Ok(st),
        ControlFlow::Continue(opened) => opened,
    };

    m.apply(comm, cx, r, z);
    p.copy_from(z);
    let mut gang = [kernels::dprod_local(cx, r, z)];
    tally.reduce(comm, cx, &mut gang)?;
    let mut rz = gang[0];

    for iter in 1..=opts.max_iters {
        a.apply(comm, cx, p, ap);
        let mut gang = [kernels::dprod_local(cx, p, ap)];
        tally.reduce(comm, cx, &mut gang)?;
        let pap = gang[0];
        if !pap.is_finite() {
            return Ok(tally.fail(iter, rr.sqrt() / bnorm, BreakdownReason::NonFinite));
        }
        if pap.abs() < TINY {
            return Ok(tally.fail(iter, rr.sqrt() / bnorm, BreakdownReason::PapZero));
        }
        let alpha = rz / pap;
        kernels::daxpy(cx, alpha, p, x);
        kernels::daxpy(cx, -alpha, ap, r);
        m.apply(comm, cx, r, z);
        // Gang {⟨r,z⟩, ⟨r,r⟩} into one reduction.
        let mut gang = kernels::dprod_gang(cx, [(&*r, &*z), (&*r, &*r)]);
        tally.reduce(comm, cx, &mut gang)?;
        let rz_new = gang[0];
        rr = gang[1];
        if !rr.is_finite() || !rz_new.is_finite() {
            return Ok(tally.fail(iter, f64::NAN, BreakdownReason::NonFinite));
        }
        if rr.sqrt() <= opts.tol * bnorm {
            return Ok(tally.done(iter, rr.sqrt() / bnorm));
        }
        let beta = rz_new / rz;
        rz = rz_new;
        // p = z + β·p
        kernels::p_update(cx, beta, 0.0, z, ap, p);
    }
    Ok(tally.fail(opts.max_iters, rr.sqrt() / bnorm, BreakdownReason::MaxIters))
}

/// Restarted GMRES(m) with right preconditioning — the other Krylov
/// family compared for these systems by Swesty, Smolarski & Saylor
/// (2004), the paper's ref [7].
///
/// Each Arnoldi step orthogonalizes against the whole basis with
/// modified Gram–Schmidt, costing one global reduction *per basis
/// vector* — the communication-hungry behaviour that made the ganged
/// BiCGSTAB attractive for V2D.  The solver tracks the residual norm
/// through Givens rotations and restarts every `m` steps.  The Arnoldi
/// basis draws from the workspace's vector pool, so restarts and
/// repeated solves reuse the same storage.
#[allow(clippy::too_many_arguments)] // mirrors the bicgstab/cg signature + restart length
pub fn gmres<A: LinearOp, M: Preconditioner>(
    comm: &Comm,
    cx: &mut ExecCtx,
    a: &mut A,
    m: &mut M,
    b: &TileVec,
    x: &mut TileVec,
    wks: &mut SolverWorkspace,
    restart: usize,
    opts: &SolveOpts,
) -> Result<SolveStats, CommError> {
    assert!(restart >= 1, "GMRES restart length must be ≥ 1");
    enter(cx, a, wks, |cx, a, wks| {
        wks.ensure_basis(restart + 1);
        gmres_inner(comm, cx, a, m, b, x, wks, restart, opts)
    })
}

#[allow(clippy::too_many_arguments)]
fn gmres_inner<A: LinearOp, M: Preconditioner>(
    comm: &Comm,
    cx: &mut ExecCtx,
    a: &mut A,
    m: &mut M,
    b: &TileVec,
    x: &mut TileVec,
    wks: &mut SolverWorkspace,
    restart: usize,
    opts: &SolveOpts,
) -> Result<SolveStats, CommError> {
    if let Some(st) = injected(cx, SolverKind::Gmres) {
        return Ok(st);
    }
    let mut tally = Tally::default();
    // GMRES aliases: w ↦ `s`, M⁻¹-image ↦ `shat`, solution update
    // accumulator ↦ `t`, Arnoldi basis ↦ the `basis` pool.
    let SolverWorkspace { r, s: w, t: update, shat: zhat, basis, .. } = wks;

    let (bnorm, rr) = match open(comm, cx, a, b, x, r, opts.tol, &mut tally)? {
        ControlFlow::Break(st) => return Ok(st),
        ControlFlow::Continue(opened) => opened,
    };
    let mut beta = rr.sqrt();

    // Hessenberg and rotation storage (small host vectors).
    let mut h = vec![vec![0.0f64; restart]; restart + 1];
    let mut cs = vec![0.0f64; restart];
    let mut sn = vec![0.0f64; restart];
    let mut g = vec![0.0f64; restart + 1];

    let mut total_iters = 0usize;
    let max_outer = opts.max_iters.div_ceil(restart).max(1);

    for _outer in 0..max_outer {
        // v0 = r / β
        kernels::copy(cx, r, &mut basis[0]);
        kernels::dscal(cx, 0.0, -1.0 / beta, &mut basis[0]); // v0 = r/β via c − d·y
        let mut nb = 1; // valid basis vectors
        for gi in g.iter_mut() {
            *gi = 0.0;
        }
        g[0] = beta;

        let mut k_used = 0;
        let mut converged = false;
        for k in 0..restart {
            if total_iters >= opts.max_iters {
                break;
            }
            total_iters += 1;
            k_used = k + 1;

            // w = A·M⁻¹·v_k (the preconditioner may refresh v_k's ghost
            // frame; its interior — all the basis arithmetic reads — is
            // untouched).
            m.apply(comm, cx, &mut basis[k], zhat);
            a.apply(comm, cx, zhat, w);

            // Modified Gram–Schmidt: one reduction per basis vector.
            for (j, vj) in basis.iter().take(nb).enumerate() {
                let mut dot = [kernels::dprod_local(cx, w, vj)];
                tally.reduce(comm, cx, &mut dot)?;
                h[j][k] = dot[0];
                kernels::daxpy(cx, -dot[0], vj, w);
            }
            let mut nrm = [kernels::norm2_local(cx, w)];
            tally.reduce(comm, cx, &mut nrm)?;
            let hk1 = nrm[0].sqrt();
            if !hk1.is_finite() {
                return Ok(tally.fail(total_iters, f64::NAN, BreakdownReason::NonFinite));
            }
            h[k + 1][k] = hk1;

            // Apply accumulated Givens rotations to the new column.
            for j in 0..k {
                let t = cs[j] * h[j][k] + sn[j] * h[j + 1][k];
                h[j + 1][k] = -sn[j] * h[j][k] + cs[j] * h[j + 1][k];
                h[j][k] = t;
            }
            let denom = (h[k][k] * h[k][k] + hk1 * hk1).sqrt();
            if denom < TINY {
                // Lucky breakdown: exact solution within the subspace.
                cs[k] = 1.0;
                sn[k] = 0.0;
            } else {
                cs[k] = h[k][k] / denom;
                sn[k] = hk1 / denom;
            }
            h[k][k] = cs[k] * h[k][k] + sn[k] * hk1;
            h[k + 1][k] = 0.0;
            g[k + 1] = -sn[k] * g[k];
            g[k] *= cs[k];

            let relres = g[k + 1].abs() / bnorm;
            if hk1 >= TINY {
                let vk1 = &mut basis[k + 1];
                kernels::copy(cx, w, vk1);
                kernels::dscal(cx, 0.0, -1.0 / hk1, vk1);
                nb = k + 2;
            }
            if relres <= opts.tol || hk1 < TINY {
                converged = true;
                break;
            }
        }

        if k_used > 0 {
            // Solve the small triangular system and update x += M⁻¹·V·y.
            let mut y = vec![0.0f64; k_used];
            for i in (0..k_used).rev() {
                let mut v = g[i];
                for j in i + 1..k_used {
                    v -= h[i][j] * y[j];
                }
                y[i] = v / h[i][i];
            }
            // The accumulator is pooled scratch: zero it before use.
            update.zero();
            for (j, &yj) in y.iter().enumerate() {
                kernels::daxpy(cx, yj, &basis[j], update);
            }
            m.apply(comm, cx, update, zhat);
            kernels::daxpy(cx, 1.0, zhat, x);
        }

        // True residual for the restart (and the convergence report).
        a.apply(comm, cx, x, r);
        kernels::residual_into(cx, b, r);
        let mut nrm = [kernels::norm2_local(cx, r)];
        tally.reduce(comm, cx, &mut nrm)?;
        beta = nrm[0].sqrt();
        if !beta.is_finite() {
            return Ok(tally.fail(total_iters, f64::NAN, BreakdownReason::NonFinite));
        }
        if converged || beta <= opts.tol * bnorm {
            return Ok(if beta <= opts.tol * bnorm * 10.0 {
                tally.done(total_iters, beta / bnorm)
            } else {
                tally.fail(total_iters, beta / bnorm, BreakdownReason::Stagnation)
            });
        }
        if total_iters >= opts.max_iters {
            break;
        }
    }
    Ok(tally.fail(total_iters, beta / bnorm, BreakdownReason::MaxIters))
}

/// Restart length used by the cascade's GMRES fallback.
const CASCADE_GMRES_RESTART: usize = 30;

/// Fallback cascade: BiCGSTAB → restarted GMRES(30) → CG.
///
/// Each fallback restarts from the iterate the caller passed in (saved
/// in the workspace's `x0` slot), not from whatever state the failed
/// solver left behind.  On success the returned stats carry the winning
/// solver's numbers plus one recovery per exhausted predecessor; on
/// total failure `x` is restored to the entry iterate and the error
/// records how every attempt died.
#[allow(clippy::too_many_arguments)] // mirrors the solver signatures
pub fn solve_cascade<A: LinearOp, M: Preconditioner>(
    comm: &Comm,
    cx: &mut ExecCtx,
    a: &mut A,
    m: &mut M,
    b: &TileVec,
    x: &mut TileVec,
    wks: &mut SolverWorkspace,
    opts: &SolveOpts,
) -> Result<SolveStats, SolveError> {
    let (n1, n2) = a.tile_dims();
    wks.ensure(n1, n2);
    wks.x0.copy_from(x);
    let mut attempts = Vec::new();
    // A communicator fault aborts the cascade outright: the collectives
    // are sticky-poisoned (or a peer is gone), so the remaining
    // fallbacks could never complete a reduction.  Restore the entry
    // iterate and surface the typed verdict.
    macro_rules! run {
        ($call:expr) => {
            match $call {
                Ok(st) => st,
                Err(ce) => {
                    x.copy_from(&wks.x0);
                    return Err(SolveError { attempts, comm: Some(ce) });
                }
            }
        };
    }

    let st = run!(bicgstab(comm, cx, a, m, b, x, wks, opts));
    if st.converged {
        return Ok(st);
    }
    attempts.push(SolveAttempt { solver: SolverKind::BicgStab, stats: st });
    if let Some(inj) = cx.faults() {
        inj.note(format!(
            "bicgstab failed ({:?}); falling back to GMRES({CASCADE_GMRES_RESTART})",
            st.breakdown
        ));
    }
    trace_fallback(cx, SolverKind::BicgStab, &st);

    x.copy_from(&wks.x0);
    let mut st = run!(gmres(comm, cx, a, m, b, x, wks, CASCADE_GMRES_RESTART, opts));
    if st.converged {
        st.recoveries += attempts.len() as u32;
        return Ok(st);
    }
    attempts.push(SolveAttempt { solver: SolverKind::Gmres, stats: st });
    if let Some(inj) = cx.faults() {
        inj.note(format!("gmres failed ({:?}); falling back to CG", st.breakdown));
    }
    trace_fallback(cx, SolverKind::Gmres, &st);

    x.copy_from(&wks.x0);
    let mut st = run!(cg(comm, cx, a, m, b, x, wks, opts));
    if st.converged {
        st.recoveries += attempts.len() as u32;
        return Ok(st);
    }
    attempts.push(SolveAttempt { solver: SolverKind::Cg, stats: st });
    trace_fallback(cx, SolverKind::Cg, &st);

    // Leave the caller's iterate exactly as it came in, so a higher-level
    // retry (smaller dt, restored checkpoint) starts from clean state.
    x.copy_from(&wks.x0);
    Err(SolveError { attempts, comm: None })
}

/// Stamp one exhausted cascade attempt on the tracer.
fn trace_fallback(cx: &mut ExecCtx, solver: SolverKind, st: &SolveStats) {
    cx.trace_instant(
        "solver_fallback",
        &[
            ("solver", AttrVal::Str(solver.name())),
            ("reason", AttrVal::Str(st.breakdown.unwrap_or(BreakdownReason::MaxIters).name())),
            ("iters", AttrVal::U64(st.iters as u64)),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{assemble_dense, StencilCoeffs, StencilOp};
    use crate::precond::{BlockJacobi, Identity, Jacobi, Spai};
    use v2d_comm::{CartComm, Spmd, TileMap};
    use v2d_machine::{CompilerProfile, FaultInjector, FaultKind, FaultPlan};

    fn profiles() -> Vec<CompilerProfile> {
        vec![CompilerProfile::cray_opt()]
    }

    /// Dense LU with partial pivoting — the oracle.
    #[allow(clippy::needless_range_loop)]
    fn lu_solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Vec<f64> {
        let n = b.len();
        for col in 0..n {
            let piv =
                (col..n).max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs())).unwrap();
            a.swap(col, piv);
            b.swap(col, piv);
            for row in col + 1..n {
                let f = a[row][col] / a[col][col];
                for k in col..n {
                    a[row][k] -= f * a[col][k];
                }
                b[row] -= f * b[col];
            }
        }
        let mut x = vec![0.0; n];
        for row in (0..n).rev() {
            let mut v = b[row];
            for k in row + 1..n {
                v -= a[row][k] * x[k];
            }
            x[row] = v / a[row][row];
        }
        x
    }

    fn rhs_field(n1: usize, n2: usize, g1: usize, g2: usize) -> TileVec {
        let mut b = TileVec::new(n1, n2);
        b.fill_with(|s, i1, i2| {
            (((g1 + i1) * 3 + (g2 + i2) * 5 + s * 17) as f64 * 0.119).sin() + 0.2
        });
        b
    }

    #[test]
    fn bicgstab_matches_dense_oracle() {
        let (n1, n2) = (6, 5);
        let map = TileMap::new(n1, n2, 1, 1);
        Spmd::new(1).with_profiles(profiles()).run(|ctx| {
            let cart = CartComm::new(&ctx.comm, map);
            let mut op = StencilOp::new(StencilCoeffs::manufactured(n1, n2, 0, 0), cart);
            let a = assemble_dense(&mut op, &ctx.comm, &mut ExecCtx::new(&mut ctx.sink));
            let b = rhs_field(n1, n2, 0, 0);
            let expect = lu_solve(a, b.interior_to_vec());

            let mut x = TileVec::new(n1, n2);
            let mut m = Identity;
            let mut wks = SolverWorkspace::new(n1, n2);
            let stats = bicgstab(
                &ctx.comm,
                &mut ExecCtx::new(&mut ctx.sink),
                &mut op,
                &mut m,
                &b,
                &mut x,
                &mut wks,
                &SolveOpts { tol: 1e-12, ..Default::default() },
            )
            .unwrap();
            assert!(stats.converged, "did not converge: {stats:?}");
            for (g, e) in x.interior_to_vec().iter().zip(&expect) {
                assert!((g - e).abs() < 1e-8, "{g} vs {e}");
            }
        });
    }

    #[test]
    fn classic_and_ganged_agree() {
        let (n1, n2) = (10, 8);
        let map = TileMap::new(n1, n2, 1, 1);
        Spmd::new(1).with_profiles(profiles()).run(|ctx| {
            let cart = CartComm::new(&ctx.comm, map);
            let b = rhs_field(n1, n2, 0, 0);
            let run = |variant, ctx: &mut v2d_comm::RankCtx| {
                let mut op = StencilOp::new(StencilCoeffs::manufactured(n1, n2, 0, 0), cart);
                let mut m = Identity;
                let mut x = TileVec::new(n1, n2);
                let mut wks = SolverWorkspace::new(n1, n2);
                let stats = bicgstab(
                    &ctx.comm,
                    &mut ExecCtx::new(&mut ctx.sink),
                    &mut op,
                    &mut m,
                    &b,
                    &mut x,
                    &mut wks,
                    &SolveOpts { tol: 1e-11, variant, ..Default::default() },
                )
                .unwrap();
                (x.interior_to_vec(), stats)
            };
            let (xc, sc) = run(BicgVariant::Classic, ctx);
            let (xg, sg) = run(BicgVariant::Ganged, ctx);
            assert!(sc.converged && sg.converged);
            for (a, b) in xc.iter().zip(&xg) {
                assert!((a - b).abs() < 1e-7, "classic {a} vs ganged {b}");
            }
            // The restructuring's whole purpose: far fewer reductions.
            assert!(
                sg.reductions <= 2 * sg.iters + 2,
                "ganged issued {} reductions over {} iters",
                sg.reductions,
                sg.iters
            );
            assert!(sc.reductions >= 4 * sc.iters, "classic should reduce ~5×/iter");
        });
    }

    #[test]
    fn dirty_workspace_reproduces_fresh_iterates_bitwise() {
        // Workspace reuse must be invisible: a solve into a workspace
        // dirtied by a *different* previous solve must produce the same
        // bits (solution and stats) as one into a fresh workspace.
        let (n1, n2) = (12, 9);
        let map = TileMap::new(n1, n2, 1, 1);
        Spmd::new(1).with_profiles(profiles()).run(|ctx| {
            let cart = CartComm::new(&ctx.comm, map);
            let b = rhs_field(n1, n2, 0, 0);
            let opts = SolveOpts { tol: 1e-11, ..Default::default() };

            let solve_bicg = |wks: &mut SolverWorkspace, ctx: &mut v2d_comm::RankCtx| {
                let mut op = StencilOp::new(StencilCoeffs::manufactured(n1, n2, 0, 0), cart);
                let mut m = Identity;
                let mut x = TileVec::new(n1, n2);
                let stats = bicgstab(
                    &ctx.comm,
                    &mut ExecCtx::new(&mut ctx.sink),
                    &mut op,
                    &mut m,
                    &b,
                    &mut x,
                    wks,
                    &opts,
                )
                .unwrap();
                (x.interior_to_vec(), stats)
            };
            let solve_cg = |wks: &mut SolverWorkspace, ctx: &mut v2d_comm::RankCtx| {
                let mut op = StencilOp::new(StencilCoeffs::laplacian_like(n1, n2), cart);
                let mut m = Jacobi::new(&op);
                let mut x = TileVec::new(n1, n2);
                let stats = cg(
                    &ctx.comm,
                    &mut ExecCtx::new(&mut ctx.sink),
                    &mut op,
                    &mut m,
                    &b,
                    &mut x,
                    wks,
                    &opts,
                )
                .unwrap();
                (x.interior_to_vec(), stats)
            };
            let solve_gmres = |wks: &mut SolverWorkspace, ctx: &mut v2d_comm::RankCtx| {
                let mut op = StencilOp::new(StencilCoeffs::manufactured(n1, n2, 0, 0), cart);
                let mut m = Identity;
                let mut x = TileVec::new(n1, n2);
                let stats = gmres(
                    &ctx.comm,
                    &mut ExecCtx::new(&mut ctx.sink),
                    &mut op,
                    &mut m,
                    &b,
                    &mut x,
                    wks,
                    7,
                    &opts,
                )
                .unwrap();
                (x.interior_to_vec(), stats)
            };

            // Fresh-workspace references.
            let (x_bi, s_bi) = solve_bicg(&mut SolverWorkspace::new(n1, n2), ctx);
            let (x_cg, s_cg) = solve_cg(&mut SolverWorkspace::new(n1, n2), ctx);
            let (x_gm, s_gm) = solve_gmres(&mut SolverWorkspace::new(n1, n2), ctx);
            assert!(s_bi.converged && s_cg.converged && s_gm.converged);

            // One shared workspace, dirtied by each solver in turn and
            // handed to the next — every result must be bit-identical
            // to its fresh-workspace reference.
            let mut wks = SolverWorkspace::new(n1, n2);
            for _round in 0..2 {
                let (x2, s2) = solve_gmres(&mut wks, ctx);
                assert_eq!(s2, s_gm);
                assert!(x2.iter().zip(&x_gm).all(|(a, b)| a.to_bits() == b.to_bits()));
                let (x2, s2) = solve_bicg(&mut wks, ctx);
                assert_eq!(s2, s_bi);
                assert!(x2.iter().zip(&x_bi).all(|(a, b)| a.to_bits() == b.to_bits()));
                let (x2, s2) = solve_cg(&mut wks, ctx);
                assert_eq!(s2, s_cg);
                assert!(x2.iter().zip(&x_cg).all(|(a, b)| a.to_bits() == b.to_bits()));
            }
        });
    }

    #[test]
    fn multirank_solution_matches_single_rank() {
        let (n1, n2) = (16, 12);
        let solve_with = |np1: usize, np2: usize| {
            let map = TileMap::new(n1, n2, np1, np2);
            let outs = Spmd::new(np1 * np2).with_profiles(profiles()).run(|ctx| {
                let cart = CartComm::new(&ctx.comm, map);
                let t = cart.tile();
                let mut op = StencilOp::new(
                    StencilCoeffs::manufactured(t.n1, t.n2, t.i1_start, t.i2_start),
                    cart,
                );
                op.exchange_coeff_halos(&ctx.comm, &mut ExecCtx::new(&mut ctx.sink));
                let mut m = Spai::new(&op, &ctx.comm, &mut ExecCtx::new(&mut ctx.sink));
                let b = rhs_field(t.n1, t.n2, t.i1_start, t.i2_start);
                let mut x = TileVec::new(t.n1, t.n2);
                let mut wks = SolverWorkspace::new(t.n1, t.n2);
                let stats = bicgstab(
                    &ctx.comm,
                    &mut ExecCtx::new(&mut ctx.sink),
                    &mut op,
                    &mut m,
                    &b,
                    &mut x,
                    &mut wks,
                    &SolveOpts { tol: 1e-11, ..Default::default() },
                )
                .unwrap();
                assert!(stats.converged);
                let mut out = Vec::new();
                for s in 0..crate::NSPEC {
                    for i2 in 0..t.n2 {
                        for i1 in 0..t.n1 {
                            out.push((
                                (s, t.i1_start + i1, t.i2_start + i2),
                                x.get(s, i1 as isize, i2 as isize),
                            ));
                        }
                    }
                }
                out
            });
            let mut all: Vec<_> = outs.into_iter().flatten().collect();
            all.sort_by_key(|&((s, g1, g2), _)| (s, g2, g1));
            all.into_iter().map(|(_, v)| v).collect::<Vec<f64>>()
        };
        let single = solve_with(1, 1);
        for (np1, np2) in [(2, 2), (4, 3)] {
            let multi = solve_with(np1, np2);
            for (i, (a, b)) in single.iter().zip(&multi).enumerate() {
                assert!(
                    (a - b).abs() < 1e-7,
                    "solution differs at {i}: {a} vs {b} for {np1}x{np2}"
                );
            }
        }
    }

    #[test]
    fn preconditioners_cut_iterations() {
        let (n1, n2) = (24, 20);
        let map = TileMap::new(n1, n2, 1, 1);
        Spmd::new(1).with_profiles(profiles()).run(|ctx| {
            let b = rhs_field(n1, n2, 0, 0);
            let opts = SolveOpts { tol: 1e-10, ..Default::default() };
            let iters_with = |name: &str, ctx: &mut v2d_comm::RankCtx| -> usize {
                let cart = CartComm::new(&ctx.comm, map);
                let mut op = StencilOp::new(StencilCoeffs::manufactured(n1, n2, 0, 0), cart);
                op.exchange_coeff_halos(&ctx.comm, &mut ExecCtx::new(&mut ctx.sink));
                let mut x = TileVec::new(n1, n2);
                let mut wks = SolverWorkspace::new(n1, n2);
                let stats = match name {
                    "identity" => {
                        let mut m = Identity;
                        bicgstab(
                            &ctx.comm,
                            &mut ExecCtx::new(&mut ctx.sink),
                            &mut op,
                            &mut m,
                            &b,
                            &mut x,
                            &mut wks,
                            &opts,
                        )
                        .unwrap()
                    }
                    "jacobi" => {
                        let mut m = Jacobi::new(&op);
                        bicgstab(
                            &ctx.comm,
                            &mut ExecCtx::new(&mut ctx.sink),
                            &mut op,
                            &mut m,
                            &b,
                            &mut x,
                            &mut wks,
                            &opts,
                        )
                        .unwrap()
                    }
                    "block" => {
                        let mut m = BlockJacobi::new(&op);
                        bicgstab(
                            &ctx.comm,
                            &mut ExecCtx::new(&mut ctx.sink),
                            &mut op,
                            &mut m,
                            &b,
                            &mut x,
                            &mut wks,
                            &opts,
                        )
                        .unwrap()
                    }
                    _ => {
                        let mut m = Spai::new(&op, &ctx.comm, &mut ExecCtx::new(&mut ctx.sink));
                        bicgstab(
                            &ctx.comm,
                            &mut ExecCtx::new(&mut ctx.sink),
                            &mut op,
                            &mut m,
                            &b,
                            &mut x,
                            &mut wks,
                            &opts,
                        )
                        .unwrap()
                    }
                };
                assert!(stats.converged, "{name} failed to converge");
                stats.iters
            };
            let none = iters_with("identity", ctx);
            let spai = iters_with("spai", ctx);
            assert!(spai < none, "SPAI ({spai} iters) should beat no preconditioning ({none})");
            // The cheap ones must at least not hurt badly.
            assert!(iters_with("jacobi", ctx) <= none + 2);
            assert!(iters_with("block", ctx) <= none + 2);
        });
    }

    #[test]
    fn cg_solves_spd_system_and_matches_bicgstab() {
        let (n1, n2) = (9, 7);
        let map = TileMap::new(n1, n2, 1, 1);
        Spmd::new(1).with_profiles(profiles()).run(|ctx| {
            let b = rhs_field(n1, n2, 0, 0);
            let opts = SolveOpts { tol: 1e-11, ..Default::default() };
            let cart = CartComm::new(&ctx.comm, map);
            let mut wks = SolverWorkspace::new(n1, n2);
            let mut op = StencilOp::new(StencilCoeffs::laplacian_like(n1, n2), cart);
            let mut m = Jacobi::new(&op);
            let mut x_cg = TileVec::new(n1, n2);
            let s_cg = cg(
                &ctx.comm,
                &mut ExecCtx::new(&mut ctx.sink),
                &mut op,
                &mut m,
                &b,
                &mut x_cg,
                &mut wks,
                &opts,
            )
            .unwrap();
            assert!(s_cg.converged, "CG failed: {s_cg:?}");

            let mut op2 = StencilOp::new(StencilCoeffs::laplacian_like(n1, n2), cart);
            let mut m2 = Jacobi::new(&op2);
            let mut x_bi = TileVec::new(n1, n2);
            let s_bi = bicgstab(
                &ctx.comm,
                &mut ExecCtx::new(&mut ctx.sink),
                &mut op2,
                &mut m2,
                &b,
                &mut x_bi,
                &mut wks,
                &opts,
            )
            .unwrap();
            assert!(s_bi.converged);
            for (a, c) in x_cg.interior_to_vec().iter().zip(x_bi.interior_to_vec()) {
                assert!((a - c).abs() < 1e-7, "CG {a} vs BiCGSTAB {c}");
            }
        });
    }

    #[test]
    fn gmres_matches_bicgstab_solution() {
        let (n1, n2) = (8, 7);
        let map = TileMap::new(n1, n2, 1, 1);
        Spmd::new(1).with_profiles(profiles()).run(|ctx| {
            let cart = CartComm::new(&ctx.comm, map);
            let b = rhs_field(n1, n2, 0, 0);
            let opts = SolveOpts { tol: 1e-11, ..Default::default() };
            let mut wks = SolverWorkspace::new(n1, n2);

            let mut op1 = StencilOp::new(StencilCoeffs::manufactured(n1, n2, 0, 0), cart);
            let mut m1 = Identity;
            let mut x_bi = TileVec::new(n1, n2);
            let s_bi = bicgstab(
                &ctx.comm,
                &mut ExecCtx::new(&mut ctx.sink),
                &mut op1,
                &mut m1,
                &b,
                &mut x_bi,
                &mut wks,
                &opts,
            )
            .unwrap();
            assert!(s_bi.converged);

            let mut op2 = StencilOp::new(StencilCoeffs::manufactured(n1, n2, 0, 0), cart);
            let mut m2 = Identity;
            let mut x_gm = TileVec::new(n1, n2);
            let s_gm = gmres(
                &ctx.comm,
                &mut ExecCtx::new(&mut ctx.sink),
                &mut op2,
                &mut m2,
                &b,
                &mut x_gm,
                &mut wks,
                30,
                &opts,
            )
            .unwrap();
            assert!(s_gm.converged, "GMRES failed: {s_gm:?}");
            for (a, c) in x_bi.interior_to_vec().iter().zip(x_gm.interior_to_vec()) {
                assert!((a - c).abs() < 1e-7, "BiCGSTAB {a} vs GMRES {c}");
            }
            // GMRES pays one reduction per Arnoldi basis vector — the
            // communication profile ref [7] weighed against BiCGSTAB.
            assert!(
                s_gm.reductions > 2 * s_gm.iters,
                "GMRES should reduce more than twice per iteration: {} over {}",
                s_gm.reductions,
                s_gm.iters
            );
        });
    }

    #[test]
    fn gmres_restarts_and_still_converges() {
        let (n1, n2) = (10, 10);
        let map = TileMap::new(n1, n2, 1, 1);
        Spmd::new(1).with_profiles(profiles()).run(|ctx| {
            let cart = CartComm::new(&ctx.comm, map);
            let b = rhs_field(n1, n2, 0, 0);
            let mut op = StencilOp::new(StencilCoeffs::manufactured(n1, n2, 0, 0), cart);
            let mut m = Jacobi::new(&op);
            let mut x = TileVec::new(n1, n2);
            let mut wks = SolverWorkspace::new(n1, n2);
            // Tiny restart length forces several outer cycles.
            let stats = gmres(
                &ctx.comm,
                &mut ExecCtx::new(&mut ctx.sink),
                &mut op,
                &mut m,
                &b,
                &mut x,
                &mut wks,
                5,
                &SolveOpts { tol: 1e-10, max_iters: 500, ..Default::default() },
            )
            .unwrap();
            assert!(stats.converged, "restarted GMRES failed: {stats:?}");
            // Verify against a direct residual.
            let mut ax = TileVec::new(n1, n2);
            op.apply(&ctx.comm, &mut ExecCtx::new(&mut ctx.sink), &mut x, &mut ax);
            for (g, w) in ax.interior_to_vec().iter().zip(b.interior_to_vec()) {
                assert!((g - w).abs() < 1e-6);
            }
        });
    }

    #[test]
    fn gmres_multirank_matches_serial() {
        let (n1, n2) = (12, 8);
        let solve = |np1: usize, np2: usize| {
            let map = TileMap::new(n1, n2, np1, np2);
            let outs = Spmd::new(np1 * np2).with_profiles(profiles()).run(|ctx| {
                let cart = CartComm::new(&ctx.comm, map);
                let t = cart.tile();
                let mut op = StencilOp::new(
                    StencilCoeffs::manufactured(t.n1, t.n2, t.i1_start, t.i2_start),
                    cart,
                );
                let mut m = Identity;
                let b = rhs_field(t.n1, t.n2, t.i1_start, t.i2_start);
                let mut x = TileVec::new(t.n1, t.n2);
                let mut wks = SolverWorkspace::new(t.n1, t.n2);
                let stats = gmres(
                    &ctx.comm,
                    &mut ExecCtx::new(&mut ctx.sink),
                    &mut op,
                    &mut m,
                    &b,
                    &mut x,
                    &mut wks,
                    20,
                    &SolveOpts { tol: 1e-11, ..Default::default() },
                )
                .unwrap();
                assert!(stats.converged);
                let mut out = Vec::new();
                for s in 0..crate::NSPEC {
                    for i2 in 0..t.n2 {
                        for i1 in 0..t.n1 {
                            out.push((
                                (s, t.i1_start + i1, t.i2_start + i2),
                                x.get(s, i1 as isize, i2 as isize),
                            ));
                        }
                    }
                }
                out
            });
            let mut all: Vec<_> = outs.into_iter().flatten().collect();
            all.sort_by_key(|&((s, a, b), _)| (s, b, a));
            all.into_iter().map(|(_, v)| v).collect::<Vec<f64>>()
        };
        let single = solve(1, 1);
        let multi = solve(2, 2);
        for (i, (a, b)) in single.iter().zip(&multi).enumerate() {
            assert!((a - b).abs() < 1e-7, "GMRES differs at {i}: {a} vs {b}");
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Which {
        Ganged,
        Classic,
        Cg,
        Gmres,
    }

    /// One unpreconditioned solve by `which` (GMRES restarts every 5).
    fn solve_by(
        which: Which,
        ctx: &mut v2d_comm::RankCtx,
        op: &mut StencilOp,
        b: &TileVec,
        x: &mut TileVec,
        inj: Option<&mut FaultInjector>,
    ) -> SolveStats {
        let (n1, n2) = op.tile_dims();
        let wks = &mut SolverWorkspace::new(n1, n2);
        let (comm, cx, m) =
            (&ctx.comm, &mut ExecCtx::with_parts(&mut ctx.sink, None, inj, None), &mut Identity);
        let bicg = |variant| SolveOpts { variant, ..Default::default() };
        match which {
            Which::Ganged => bicgstab(comm, cx, op, m, b, x, wks, &bicg(BicgVariant::Ganged)),
            Which::Classic => bicgstab(comm, cx, op, m, b, x, wks, &bicg(BicgVariant::Classic)),
            Which::Cg => cg(comm, cx, op, m, b, x, wks, &SolveOpts::default()),
            Which::Gmres => gmres(comm, cx, op, m, b, x, wks, 5, &SolveOpts::default()),
        }
        .unwrap()
    }

    #[test]
    fn every_solver_opening_decides_without_iterating() {
        let (n1, n2) = (6, 5);
        let map = TileMap::new(n1, n2, 1, 1);
        Spmd::new(1).with_profiles(profiles()).run(|ctx| {
            let cart = CartComm::new(&ctx.comm, map);
            let mut op = StencilOp::new(StencilCoeffs::manufactured(n1, n2, 0, 0), cart);
            let zero = TileVec::new(n1, n2);
            let mut poisoned = rhs_field(n1, n2, 0, 0);
            poisoned.set(1, 2, 3, f64::NAN);
            let mut x0 = rhs_field(n1, n2, 0, 0);
            let mut ax0 = TileVec::new(n1, n2);
            op.apply(&ctx.comm, &mut ExecCtx::new(&mut ctx.sink), &mut x0, &mut ax0);

            // Three outcomes the shared opening decides, each on its one
            // {‖r‖², ‖b‖²} reduction.
            for which in [Which::Ganged, Which::Classic, Which::Cg, Which::Gmres] {
                let mut x = TileVec::new(n1, n2);
                x.fill_interior(3.0);
                let st = solve_by(which, ctx, &mut op, &zero, &mut x, None);
                assert_eq!(
                    (st.converged, st.iters, st.relres),
                    (true, 0, 0.0),
                    "{which:?}: {st:?}"
                );
                assert_eq!(st.reductions, 1, "{which:?}: {st:?}");
                assert!(x.interior_to_vec().iter().all(|&v| v == 0.0), "{which:?}: x kept");

                let st = solve_by(which, ctx, &mut op, &poisoned, &mut TileVec::new(n1, n2), None);
                assert_eq!(st.breakdown, Some(BreakdownReason::NonFinite), "{which:?}: {st:?}");
                assert!(!st.converged && st.relres.is_nan(), "{which:?}: {st:?}");
                assert_eq!((st.iters, st.reductions), (0, 1), "{which:?}: {st:?}");

                let st = solve_by(which, ctx, &mut op, &ax0, &mut x0.clone(), None);
                assert_eq!(
                    (st.converged, st.iters, st.relres),
                    (true, 0, 0.0),
                    "{which:?}: {st:?}"
                );
                assert_eq!(st.reductions, 1, "{which:?}: {st:?}");
            }

            // The fallback solvers' injected breakdown fires before any
            // reduction.
            for which in [Which::Cg, Which::Gmres] {
                let plan =
                    FaultPlan::empty().with_event(0, None, FaultKind::SolverBreakdown { count: 1 });
                let mut inj = FaultInjector::new(plan, 0);
                inj.begin_step(0);
                let st = solve_by(which, ctx, &mut op, &ax0, &mut x0.clone(), Some(&mut inj));
                assert_eq!(st.breakdown, Some(BreakdownReason::Injected), "{which:?}: {st:?}");
                assert_eq!((st.iters, st.reductions), (0, 0), "{which:?}: {st:?}");
            }
        });
    }

    #[test]
    fn nonzero_initial_guess_converges() {
        let (n1, n2) = (8, 8);
        let map = TileMap::new(n1, n2, 1, 1);
        Spmd::new(1).with_profiles(profiles()).run(|ctx| {
            let cart = CartComm::new(&ctx.comm, map);
            let mut op = StencilOp::new(StencilCoeffs::manufactured(n1, n2, 0, 0), cart);
            let a = assemble_dense(&mut op, &ctx.comm, &mut ExecCtx::new(&mut ctx.sink));
            let b = rhs_field(n1, n2, 0, 0);
            let expect = lu_solve(a, b.interior_to_vec());
            let mut x = TileVec::new(n1, n2);
            x.fill_with(|s, i1, i2| (s + i1 + i2) as f64 * 0.1);
            let mut m = Identity;
            let mut wks = SolverWorkspace::new(n1, n2);
            let stats = bicgstab(
                &ctx.comm,
                &mut ExecCtx::new(&mut ctx.sink),
                &mut op,
                &mut m,
                &b,
                &mut x,
                &mut wks,
                &SolveOpts { tol: 1e-12, ..Default::default() },
            )
            .unwrap();
            assert!(stats.converged);
            for (g, e) in x.interior_to_vec().iter().zip(&expect) {
                assert!((g - e).abs() < 1e-8);
            }
        });
    }
}
