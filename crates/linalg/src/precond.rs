//! Preconditioners for the V2D linear systems.
//!
//! The paper (§I-C) states that "preconditioning of the linear system is
//! accomplished using a sparse approximate inverse preconditioner",
//! citing Swesty, Smolarski & Saylor (ApJS 153, 2004) — their ref [7],
//! which compared preconditioning strategies for exactly these
//! flux-limited-diffusion systems.  This module implements the family:
//!
//! * [`Identity`] — no preconditioning (baseline),
//! * [`Jacobi`] — reciprocal-diagonal scaling,
//! * [`BlockJacobi`] — exact inverse of the local 2×2 species-coupling
//!   blocks (a sparse approximate inverse on the block-diagonal pattern),
//! * [`Spai`] — a row-oriented SPAI(1): for every row, the entries of
//!   `M` on the operator's own stencil pattern minimizing
//!   `‖mᵢᵀA − eᵢᵀ‖₂`, assembled from local + halo coefficient data and
//!   solved as a ≤6×6 dense normal-equation system per row.
//!
//! All of them execute natively and charge [`KernelClass::Precond`]
//! shapes, so preconditioning shows up as its own line in the reproduced
//! §II-E routine breakdown.

use v2d_comm::{CartComm, Comm};
use v2d_machine::{ExecCtx, KernelClass, KernelShape};

use crate::op::{exchange_halos, LinearOp, StencilCoeffs, StencilOp};
use crate::tilevec::TileVec;
use crate::NSPEC;

/// An approximation `M ≈ A⁻¹` applied as `z ← M·r`.
pub trait Preconditioner {
    /// `z ← M·r`.  `r` is mutable because pattern-bearing preconditioners
    /// refresh its ghost frame.
    fn apply(&mut self, comm: &Comm, cx: &mut ExecCtx, r: &mut TileVec, z: &mut TileVec);
}

/// No preconditioning: `z = r`.
pub struct Identity;

impl Preconditioner for Identity {
    fn apply(&mut self, _comm: &Comm, cx: &mut ExecCtx, r: &mut TileVec, z: &mut TileVec) {
        // A bare copy has no working set of its own: charge L1-resident
        // whatever the ambient solver state.
        let old_ws = cx.set_ws(0);
        crate::kernels::copy(cx, r, z);
        cx.set_ws(old_ws);
    }
}

/// Reciprocal-diagonal (point-Jacobi) scaling.
pub struct Jacobi {
    inv_diag: TileVec,
    ws: usize,
}

impl Jacobi {
    /// Build from the operator's diagonal.
    pub fn new(op: &StencilOp) -> Self {
        let (n1, n2) = op.coeffs.dims();
        let mut inv_diag = TileVec::new(n1, n2);
        // A zero (or non-finite) diagonal means the stencil coefficients
        // are already corrupt on *this* rank only — e.g. an injected NaN
        // flowing through the flux limiter.  Panicking here would kill
        // one rank mid-assembly and strand its peers in the solver's
        // first collective; instead `1/0 → ±inf` (and `1/NaN → NaN`)
        // poisons the preconditioned residual, the ganged reductions go
        // non-finite on *every* rank, and the solver fails collectively
        // with `BreakdownReason::NonFinite` — same philosophy as
        // `Limiter::lambda` letting non-finite R through.
        inv_diag.fill_with(|s, i1, i2| 1.0 / op.coeffs.cc.get(s, i1 as isize, i2 as isize));
        Jacobi { inv_diag, ws: op.working_set() }
    }
}

impl Preconditioner for Jacobi {
    fn apply(&mut self, _comm: &Comm, cx: &mut ExecCtx, r: &mut TileVec, z: &mut TileVec) {
        for s in 0..NSPEC {
            for i2 in 0..r.n2() {
                let rr = r.row(s, i2);
                let dr = self.inv_diag.row(s, i2);
                let zr = z.row_mut(s, i2);
                for ((zi, ri), di) in zr.iter_mut().zip(rr).zip(dr) {
                    *zi = ri * di;
                }
            }
        }
        cx.charge(&KernelShape::streaming(KernelClass::Precond, r.n_owned(), 1, 2, 1, self.ws));
    }
}

/// Exact inverse of each zone's 2×2 species block — the sparse
/// approximate inverse on the block-diagonal pattern (SPAI(0) in the
/// nomenclature of ref [7]).
pub struct BlockJacobi {
    /// Inverted block entries per zone: `z₀ = m00·r₀ + m01·r₁`,
    /// `z₁ = m10·r₀ + m11·r₁`; stored as four zone-indexed planes.
    m00: Vec<f64>,
    m01: Vec<f64>,
    m10: Vec<f64>,
    m11: Vec<f64>,
    n1: usize,
    ws: usize,
}

impl BlockJacobi {
    /// Build by inverting `[[cc₀, c01], [c10, cc₁]]` per zone.
    pub fn new(op: &StencilOp) -> Self {
        let (n1, n2) = op.coeffs.dims();
        let zones = n1 * n2;
        let mut p = BlockJacobi {
            m00: vec![0.0; zones],
            m01: vec![0.0; zones],
            m10: vec![0.0; zones],
            m11: vec![0.0; zones],
            n1,
            ws: op.working_set(),
        };
        for i2 in 0..n2 {
            for i1 in 0..n1 {
                let a = op.coeffs.cc.get(0, i1 as isize, i2 as isize);
                let b = op.coeffs.cpl.get(0, i1 as isize, i2 as isize);
                let c = op.coeffs.cpl.get(1, i1 as isize, i2 as isize);
                let d = op.coeffs.cc.get(1, i1 as isize, i2 as isize);
                let det = a * d - b * c;
                // A singular or non-finite block cannot be inverted, but
                // it also must not panic: this is a *per-rank* verdict
                // (a NaN coefficient from a faulted field exists on one
                // rank only), and a panic here is exactly the lockstep
                // divergence that deadlocked the nonlinear FieldNan run
                // (see ROADMAP).  Poison the inverse with NaN instead —
                // it reaches the solver's globally-reduced scalars, so
                // every rank agrees on `BreakdownReason::NonFinite` and
                // the recovery ladder can scrub and retry.
                let k = i2 * n1 + i1;
                if det.abs() > 1e-300 {
                    p.m00[k] = d / det;
                    p.m01[k] = -b / det;
                    p.m10[k] = -c / det;
                    p.m11[k] = a / det;
                } else {
                    p.m00[k] = f64::NAN;
                    p.m01[k] = f64::NAN;
                    p.m10[k] = f64::NAN;
                    p.m11[k] = f64::NAN;
                }
            }
        }
        p
    }
}

impl Preconditioner for BlockJacobi {
    fn apply(&mut self, _comm: &Comm, cx: &mut ExecCtx, r: &mut TileVec, z: &mut TileVec) {
        let n1 = self.n1;
        // `zₛ ← a·r₀ + b·r₁` over one row, every slice cut to `n1`.
        let mix = |z: &mut [f64], a: &[f64], b: &[f64], r0: &[f64], r1: &[f64]| {
            let (z, a, b, r0, r1) = (&mut z[..n1], &a[..n1], &b[..n1], &r0[..n1], &r1[..n1]);
            for i1 in 0..n1 {
                z[i1] = a[i1] * r0[i1] + b[i1] * r1[i1];
            }
        };
        for i2 in 0..r.n2() {
            let (k, r0, r1) = (i2 * n1, r.row(0, i2), r.row(1, i2));
            mix(z.row_mut(0, i2), &self.m00[k..], &self.m01[k..], r0, r1);
            mix(z.row_mut(1, i2), &self.m10[k..], &self.m11[k..], r0, r1);
        }
        cx.charge(&KernelShape::streaming(KernelClass::Precond, r.n_owned(), 3, 3, 1, self.ws));
    }
}

/// Row-oriented SPAI(1): `M` carries the operator's own stencil pattern
/// (diagonal, four spatial neighbors, species partner), with each row's
/// entries minimizing `‖mᵢᵀA − eᵢᵀ‖₂` over that pattern.
///
/// The minimization for row `i` needs the coefficients of every row in
/// `i`'s pattern — one zone away at most — so construction requires the
/// coefficient halos filled by [`StencilOp::exchange_coeff_halos`].
/// Application is another stencil sweep, charged as `Precond`.
pub struct Spai {
    m: StencilCoeffs,
    cart: CartComm,
    ws: usize,
    buf: Vec<f64>,
}

/// A row index in the local (ghost-extended) stencil graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Node {
    s: usize,
    i1: isize,
    i2: isize,
}

impl Spai {
    /// Build the preconditioner.  `op` must have had its coefficient
    /// halos exchanged (`exchange_coeff_halos`) when running on more than
    /// one rank.
    ///
    /// `(g1, g2)` come from the topology; the global grid extent bounds
    /// which pattern entries exist (rows outside the domain have no
    /// columns).
    pub fn new(op: &StencilOp, comm: &Comm, cx: &mut ExecCtx) -> Self {
        let cart = *op.cart();
        let tile = cart.tile();
        let (n1, n2) = op.coeffs.dims();
        let (gn1, gn2) = (cart.map().n1, cart.map().n2);
        let (g1, g2) = (tile.i1_start as isize, tile.i2_start as isize);
        let in_domain = |i1: isize, i2: isize| {
            let (a, b) = (g1 + i1, g2 + i2);
            a >= 0 && b >= 0 && (a as usize) < gn1 && (b as usize) < gn2
        };
        // Coefficients of a row (possibly a ghost row — halo data).
        // Returns (self, w, e, s, n, partner) couplings.
        let row_coeffs = |c: &StencilCoeffs, nd: Node| -> [f64; 6] {
            [
                c.cc.get(nd.s, nd.i1, nd.i2),
                c.cw.get(nd.s, nd.i1, nd.i2),
                c.ce.get(nd.s, nd.i1, nd.i2),
                c.cs.get(nd.s, nd.i1, nd.i2),
                c.cn.get(nd.s, nd.i1, nd.i2),
                c.cpl.get(nd.s, nd.i1, nd.i2),
            ]
        };
        // The stencil targets of a row, aligned with row_coeffs.
        let targets = |nd: Node| -> [Node; 6] {
            [
                nd,
                Node { i1: nd.i1 - 1, ..nd },
                Node { i1: nd.i1 + 1, ..nd },
                Node { i2: nd.i2 - 1, ..nd },
                Node { i2: nd.i2 + 1, ..nd },
                Node { s: 1 - nd.s, ..nd },
            ]
        };

        let mut m = StencilCoeffs::new(n1, n2);
        for s in 0..NSPEC {
            for li2 in 0..n2 as isize {
                for li1 in 0..n1 as isize {
                    let i = Node { s, i1: li1, i2: li2 };
                    // Pattern J(i): the in-domain subset of i's stencil.
                    let mut pattern: Vec<Node> = Vec::with_capacity(6);
                    for t in targets(i) {
                        if in_domain(t.i1, t.i2) {
                            pattern.push(t);
                        }
                    }
                    let k = pattern.len();
                    // Column set K = ∪ stencil(l), l ∈ J(i); we only need
                    // G[l][l'] = Σ_k A[l,k]·A[l',k] and rhs[l] = A[l,i].
                    // Exploit the shared-target structure directly:
                    let mut g = vec![vec![0.0; k]; k];
                    let mut rhs = vec![0.0; k];
                    let mut rows: Vec<([f64; 6], [Node; 6])> = Vec::with_capacity(k);
                    for &l in &pattern {
                        rows.push((row_coeffs(&op.coeffs, l), targets(l)));
                    }
                    for (a, (ca, ta)) in rows.iter().enumerate() {
                        for (b, (cb, tb)) in rows.iter().enumerate().skip(a) {
                            let mut dot = 0.0;
                            for (va, na) in ca.iter().zip(ta) {
                                if !in_domain(na.i1, na.i2) {
                                    continue;
                                }
                                for (vb, nb) in cb.iter().zip(tb) {
                                    if na == nb {
                                        dot += va * vb;
                                    }
                                }
                            }
                            g[a][b] = dot;
                            g[b][a] = dot;
                        }
                        // rhs[a] = A[l_a, i]
                        let mut v = 0.0;
                        for (va, na) in ca.iter().zip(ta) {
                            if *na == i {
                                v += va;
                            }
                        }
                        rhs[a] = v;
                    }
                    let sol = solve_dense_small(&mut g, &mut rhs);
                    // Scatter the solved pattern entries into M's fields.
                    for (t, &v) in pattern.iter().zip(&sol) {
                        if *t == i {
                            m.cc.set(s, li1, li2, v);
                        } else if t.s != s {
                            m.cpl.set(s, li1, li2, v);
                        } else if t.i1 == li1 - 1 {
                            m.cw.set(s, li1, li2, v);
                        } else if t.i1 == li1 + 1 {
                            m.ce.set(s, li1, li2, v);
                        } else if t.i2 == li2 - 1 {
                            m.cs.set(s, li1, li2, v);
                        } else {
                            m.cn.set(s, li1, li2, v);
                        }
                    }
                }
            }
        }
        // Construction cost: per row, assembling the ≤6×6 normal
        // equations (~36 stencil-overlap dot terms) and an LU solve —
        // a few hundred flops streaming the coefficient fields.
        cx.charge(&KernelShape::streaming(
            KernelClass::Precond,
            n1 * n2 * NSPEC,
            320,
            12,
            6,
            op.working_set(),
        ));
        let _ = comm; // construction is communication-free once halos exist
        Spai { m, cart, ws: op.working_set(), buf: Vec::new() }
    }

    /// The computed approximate-inverse coefficients (tests inspect them).
    pub fn coeffs(&self) -> &StencilCoeffs {
        &self.m
    }
}

impl Preconditioner for Spai {
    fn apply(&mut self, comm: &Comm, cx: &mut ExecCtx, r: &mut TileVec, z: &mut TileVec) {
        let (n1, n2) = self.m.dims();
        let old_ws = cx.set_ws(self.ws);
        cx.span("halo_exchange", &[], |cx| {
            exchange_halos(&self.cart, comm, cx, &mut [r], &mut self.buf, "halo");
        });
        let c = &self.m;
        for s in 0..NSPEC {
            let other = 1 - s;
            for i2 in 0..n2 {
                let rc = r.padded_row(s, i2 as isize);
                let rs = &r.padded_row(s, i2 as isize - 1)[1..n1 + 1];
                let rn = &r.padded_row(s, i2 as isize + 1)[1..n1 + 1];
                let ro = r.row(other, i2);
                let mcc = c.cc.row(s, i2);
                let mcw = c.cw.row(s, i2);
                let mce = c.ce.row(s, i2);
                let mcs = c.cs.row(s, i2);
                let mcn = c.cn.row(s, i2);
                let mcpl = c.cpl.row(s, i2);
                let zr = z.row_mut(s, i2);
                for i1 in 0..n1 {
                    zr[i1] = mcc[i1] * rc[i1 + 1]
                        + mcw[i1] * rc[i1]
                        + mce[i1] * rc[i1 + 2]
                        + mcs[i1] * rs[i1]
                        + mcn[i1] * rn[i1]
                        + mcpl[i1] * ro[i1];
                }
            }
        }
        cx.charge_streaming(KernelClass::Precond, z.n_owned(), 11, 8, 1);
        cx.set_ws(old_ws);
    }
}

/// Solve a small dense SPD-ish system in place by Gaussian elimination
/// with partial pivoting; returns the solution.
fn solve_dense_small(a: &mut [Vec<f64>], b: &mut [f64]) -> Vec<f64> {
    let n = b.len();
    for col in 0..n {
        // `total_cmp` tolerates NaN coefficients (corrupt input fields);
        // a NaN or singular pivot poisons the whole solution rather than
        // panicking — per-rank panics desynchronize the collectives
        // (see `BlockJacobi::new`).
        let piv = match (col..n).max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs())) {
            Some(p) => p,
            None => return Vec::new(),
        };
        a.swap(col, piv);
        b.swap(col, piv);
        let d = a[col][col];
        if d.is_nan() || d.abs() <= 1e-300 {
            return vec![f64::NAN; n];
        }
        for row in col + 1..n {
            let f = a[row][col] / d;
            if f == 0.0 {
                continue;
            }
            let (top, rest) = a.split_at_mut(row);
            let pivot_row = &top[col];
            for (k, v) in rest[0].iter_mut().enumerate().skip(col) {
                *v -= f * pivot_row[k];
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::assemble_dense;
    use v2d_comm::{Spmd, TileMap};
    use v2d_machine::{CompilerProfile, ExecCtx};

    fn profiles() -> Vec<CompilerProfile> {
        vec![CompilerProfile::cray_opt()]
    }

    #[test]
    fn small_dense_solver_solves() {
        let mut a = vec![vec![4.0, 1.0, 0.0], vec![1.0, 3.0, 1.0], vec![0.0, 1.0, 2.0]];
        let mut b = vec![1.0, 2.0, 3.0];
        let x = solve_dense_small(&mut a, &mut b);
        // Verify A·x = b with the original matrix.
        let a0 = [[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]];
        let b0 = [1.0, 2.0, 3.0];
        for i in 0..3 {
            let r: f64 = (0..3).map(|j| a0[i][j] * x[j]).sum();
            assert!((r - b0[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn jacobi_divides_by_diagonal() {
        let map = TileMap::new(6, 5, 1, 1);
        Spmd::new(1).with_profiles(profiles()).run(|ctx| {
            let cart = CartComm::new(&ctx.comm, map);
            let op = StencilOp::new(StencilCoeffs::manufactured(6, 5, 0, 0), cart);
            let mut p = Jacobi::new(&op);
            let mut r = TileVec::new(6, 5);
            r.fill_with(|s, i1, i2| (1 + s + i1 + i2) as f64);
            let mut z = TileVec::new(6, 5);
            p.apply(&ctx.comm, &mut ExecCtx::new(&mut ctx.sink), &mut r, &mut z);
            let d = op.coeffs.cc.get(1, 2, 3);
            assert!((z.get(1, 2, 3) - r.get(1, 2, 3) / d).abs() < 1e-15);
        });
    }

    #[test]
    fn block_jacobi_inverts_species_blocks() {
        let map = TileMap::new(4, 4, 1, 1);
        Spmd::new(1).with_profiles(profiles()).run(|ctx| {
            let cart = CartComm::new(&ctx.comm, map);
            let op = StencilOp::new(StencilCoeffs::manufactured(4, 4, 0, 0), cart);
            let mut p = BlockJacobi::new(&op);
            let mut r = TileVec::new(4, 4);
            r.fill_with(|s, i1, i2| ((s + 2 * i1 + 3 * i2) as f64 * 0.37).cos());
            let mut z = TileVec::new(4, 4);
            p.apply(&ctx.comm, &mut ExecCtx::new(&mut ctx.sink), &mut r, &mut z);
            // Check D·z = r where D is the 2×2 block.
            for i2 in 0..4isize {
                for i1 in 0..4isize {
                    let a = op.coeffs.cc.get(0, i1, i2);
                    let b = op.coeffs.cpl.get(0, i1, i2);
                    let c = op.coeffs.cpl.get(1, i1, i2);
                    let d = op.coeffs.cc.get(1, i1, i2);
                    let got0 = a * z.get(0, i1, i2) + b * z.get(1, i1, i2);
                    let got1 = c * z.get(0, i1, i2) + d * z.get(1, i1, i2);
                    assert!((got0 - r.get(0, i1, i2)).abs() < 1e-12);
                    assert!((got1 - r.get(1, i1, i2)).abs() < 1e-12);
                }
            }
        });
    }

    /// ‖M·A − I‖_F for a dense M and A.
    #[allow(clippy::needless_range_loop)]
    fn spai_quality(ma: &[Vec<f64>]) -> f64 {
        let n = ma.len();
        let mut q = 0.0;
        for i in 0..n {
            for j in 0..n {
                let t = ma[i][j] - if i == j { 1.0 } else { 0.0 };
                q += t * t;
            }
        }
        q.sqrt()
    }

    #[test]
    fn spai_beats_jacobi_in_frobenius_norm() {
        let (n1, n2) = (5, 4);
        let map = TileMap::new(n1, n2, 1, 1);
        Spmd::new(1).with_profiles(profiles()).run(|ctx| {
            let cart = CartComm::new(&ctx.comm, map);
            let mut op = StencilOp::new(StencilCoeffs::manufactured(n1, n2, 0, 0), cart);
            let a = assemble_dense(&mut op, &ctx.comm, &mut ExecCtx::new(&mut ctx.sink));
            let n = a.len();

            let mut spai = Spai::new(&op, &ctx.comm, &mut ExecCtx::new(&mut ctx.sink));
            let mut jac = Jacobi::new(&op);

            // Dense M·A for both preconditioners, by applying M to A's
            // columns.
            let dense_ma = |p: &mut dyn Preconditioner, ctx: &mut v2d_comm::RankCtx| {
                let mut ma = vec![vec![0.0; n]; n];
                let mut col = TileVec::new(n1, n2);
                let mut out = TileVec::new(n1, n2);
                for j in 0..n {
                    col.zero();
                    for (i, row) in a.iter().enumerate() {
                        let (s, rest) = (i / (n1 * n2), i % (n1 * n2));
                        let (i2, i1) = (rest / n1, rest % n1);
                        col.set(s, i1 as isize, i2 as isize, row[j]);
                    }
                    p.apply(&ctx.comm, &mut ExecCtx::new(&mut ctx.sink), &mut col, &mut out);
                    for (i, v) in out.interior_to_vec().into_iter().enumerate() {
                        ma[i][j] = v;
                    }
                }
                ma
            };
            let q_spai = spai_quality(&dense_ma(&mut spai, ctx));
            let q_jac = spai_quality(&dense_ma(&mut jac, ctx));
            let q_none = spai_quality(&{
                // M = I → MA = A.
                a.clone()
            });
            assert!(q_spai < q_jac, "SPAI {q_spai} should beat Jacobi {q_jac}");
            assert!(q_jac < q_none, "Jacobi {q_jac} should beat identity {q_none}");
        });
    }

    #[test]
    fn spai_construction_is_decomposition_invariant() {
        // The SPAI coefficients at a tile boundary must match the
        // single-rank construction — this is exactly what the coefficient
        // halo exchange is for.
        let (n1, n2) = (8, 6);
        let single = {
            let map = TileMap::new(n1, n2, 1, 1);
            Spmd::new(1).with_profiles(profiles()).run(|ctx| {
                let cart = CartComm::new(&ctx.comm, map);
                let mut op = StencilOp::new(StencilCoeffs::manufactured(n1, n2, 0, 0), cart);
                op.exchange_coeff_halos(&ctx.comm, &mut ExecCtx::new(&mut ctx.sink));
                let spai = Spai::new(&op, &ctx.comm, &mut ExecCtx::new(&mut ctx.sink));
                spai.coeffs().cc.interior_to_vec()
            })
        };
        let map = TileMap::new(n1, n2, 2, 2);
        let parts = Spmd::new(4).with_profiles(profiles()).run(|ctx| {
            let cart = CartComm::new(&ctx.comm, map);
            let t = cart.tile();
            let mut op = StencilOp::new(
                StencilCoeffs::manufactured(t.n1, t.n2, t.i1_start, t.i2_start),
                cart,
            );
            op.exchange_coeff_halos(&ctx.comm, &mut ExecCtx::new(&mut ctx.sink));
            let spai = Spai::new(&op, &ctx.comm, &mut ExecCtx::new(&mut ctx.sink));
            let mut out = Vec::new();
            for s in 0..NSPEC {
                for i2 in 0..t.n2 {
                    for i1 in 0..t.n1 {
                        out.push((
                            (s, t.i1_start + i1, t.i2_start + i2),
                            spai.coeffs().cc.get(s, i1 as isize, i2 as isize),
                        ));
                    }
                }
            }
            out
        });
        let mut merged: Vec<_> = parts.into_iter().flatten().collect();
        merged.sort_by_key(|&((s, g1, g2), _)| (s, g2, g1));
        let merged_vals: Vec<f64> = merged.iter().map(|&(_, v)| v).collect();
        assert_eq!(single[0].len(), merged_vals.len());
        for (i, (a, b)) in single[0].iter().zip(&merged_vals).enumerate() {
            assert!((a - b).abs() < 1e-12, "SPAI diagonal differs at {i}: {a} vs {b}");
        }
    }
}
