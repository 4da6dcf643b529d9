//! The matrix-free finite-difference operator.
//!
//! V2D's linear systems come from a second-order spatial finite-difference
//! discretization of the flux-limited diffusion operator.  The matrix is
//! never stored; [`StencilOp::apply`] evaluates `y = A·x` directly from
//! per-zone stencil coefficients — five spatial couplings per species
//! (the pentadiagonal structure of the paper's Fig. 1) plus the local
//! 2×2 species coupling that joins the two `x1·x2` blocks into one
//! `x1·x2·2` system.
//!
//! Each application first refreshes the ghost frame of `x` by halo
//! exchange (or zeros it at physical boundaries — homogeneous Dirichlet,
//! as in the Gaussian-pulse test problem), then sweeps the tile row-wise.

use v2d_comm::topology::Dir;
use v2d_comm::{CartComm, Comm};
use v2d_machine::{ExecCtx, KernelClass};

use crate::backend::native;
use crate::tilevec::TileVec;
use crate::NSPEC;

/// Per-zone stencil coefficients of the operator, in V2D's "shaped like
/// the grid" storage.  Ghost frames of the five spatial fields are filled
/// by [`StencilOp::exchange_coeff_halos`] when a preconditioner needs
/// neighbor-row coefficients (SPAI does).
#[derive(Debug, Clone, PartialEq)]
pub struct StencilCoeffs {
    /// Diagonal.
    pub cc: TileVec,
    /// Coupling to the −x1 / +x1 / −x2 / +x2 neighbor.
    pub cw: TileVec,
    pub ce: TileVec,
    pub cs: TileVec,
    pub cn: TileVec,
    /// Local species coupling, stored with plane `s` holding the
    /// coefficient with which a species-`s` row reads the *other*
    /// species at the same zone (plane 0 = c₀₁, plane 1 = c₁₀).  A
    /// `TileVec` so it has a ghost frame like the other fields (SPAI
    /// needs neighbor-row couplings).
    pub cpl: TileVec,
}

impl StencilCoeffs {
    /// Zeroed coefficients for an `n1 × n2` tile.
    pub fn new(n1: usize, n2: usize) -> Self {
        StencilCoeffs {
            cc: TileVec::new(n1, n2),
            cw: TileVec::new(n1, n2),
            ce: TileVec::new(n1, n2),
            cs: TileVec::new(n1, n2),
            cn: TileVec::new(n1, n2),
            cpl: TileVec::new(n1, n2),
        }
    }

    /// Tile extents.
    pub fn dims(&self) -> (usize, usize) {
        (self.cc.n1(), self.cc.n2())
    }

    /// Total bytes of all coefficient fields (for working-set estimates).
    pub fn bytes(&self) -> usize {
        6 * self.cc.bytes()
    }

    /// A deterministic, diagonally dominant, *nonsymmetric* test operator
    /// defined by global zone coordinates, so every rank of any topology
    /// builds the same global matrix.  `(g1, g2)` are the tile's global
    /// offsets.  Used by tests, benches and examples.
    pub fn manufactured(n1: usize, n2: usize, g1: usize, g2: usize) -> Self {
        let mut c = StencilCoeffs::new(n1, n2);
        let w = |k: usize, a: usize, b: usize, s: usize| {
            0.4 + 0.15 * (((a * 7 + b * 13 + s * 29 + k * 41) % 97) as f64 / 97.0)
        };
        for s in 0..NSPEC {
            for i2 in 0..n2 {
                for i1 in 0..n1 {
                    let (a, b) = (g1 + i1, g2 + i2);
                    let cw = w(1, a, b, s);
                    let ce = w(2, a, b, s);
                    let cs = w(3, a, b, s);
                    let cn = w(4, a, b, s);
                    let cpl = 0.2 + 0.1 * (((a * 11 + b * 3 + s) % 53) as f64 / 53.0);
                    // Strict diagonal dominance keeps the test solves
                    // well-conditioned.
                    let diag = 1.0 + cw + ce + cs + cn + cpl + 0.05 * ((a + 2 * b + s) % 5) as f64;
                    c.cc.set(s, i1 as isize, i2 as isize, diag);
                    c.cw.set(s, i1 as isize, i2 as isize, -cw);
                    c.ce.set(s, i1 as isize, i2 as isize, -ce);
                    c.cs.set(s, i1 as isize, i2 as isize, -cs);
                    c.cn.set(s, i1 as isize, i2 as isize, -cn);
                    let v = if s == 0 { -cpl } else { -(cpl * 0.9) };
                    c.cpl.set(s, i1 as isize, i2 as isize, v);
                }
            }
        }
        c
    }

    /// A constant-coefficient symmetric positive-definite operator
    /// (discrete Laplacian plus mass term with symmetric species
    /// coupling) — the CG baseline's test matrix.  Constant coefficients
    /// are symmetric under any domain decomposition.
    pub fn laplacian_like(n1: usize, n2: usize) -> Self {
        let mut c = StencilCoeffs::new(n1, n2);
        for s in 0..NSPEC {
            for i2 in 0..n2 {
                for i1 in 0..n1 {
                    c.cc.set(s, i1 as isize, i2 as isize, 5.0);
                    c.cw.set(s, i1 as isize, i2 as isize, -1.0);
                    c.ce.set(s, i1 as isize, i2 as isize, -1.0);
                    c.cs.set(s, i1 as isize, i2 as isize, -1.0);
                    c.cn.set(s, i1 as isize, i2 as isize, -1.0);
                    c.cpl.set(s, i1 as isize, i2 as isize, -0.4);
                }
            }
        }
        c
    }
}

/// A matrix-free linear operator on tile fields.
pub trait LinearOp {
    /// `y ← A·x`.  `x` is mutable because its ghost frame is refreshed by
    /// halo exchange.  Cost is charged through `cx` at the operator's
    /// own working set (the ambient one is scoped and restored).
    fn apply(&mut self, comm: &Comm, cx: &mut ExecCtx, x: &mut TileVec, y: &mut TileVec);

    /// Local tile extents `(n1, n2)`.
    fn tile_dims(&self) -> (usize, usize);

    /// Ambient working set in bytes of a Krylov solve with this operator
    /// (coefficients + the solver's vector suite), used by the kernels'
    /// cost model to pick the memory level.
    fn working_set(&self) -> usize;
}

/// Number of tile-shaped vectors a preconditioned BiCGSTAB solve keeps
/// live (x, b, r, r̂, p, v, s, t, p̂, ŝ).
const SOLVER_VECTORS: usize = 10;

/// The V2D finite-difference diffusion operator on this rank's tile.
pub struct StencilOp {
    /// The stencil coefficients (public: preconditioners read them).
    pub coeffs: StencilCoeffs,
    cart: CartComm,
    ws_hint: usize,
    /// Reused halo packing buffer (no allocation in the hot path).
    buf: Vec<f64>,
}

impl StencilOp {
    /// Wrap coefficients for the tile owned by `cart`'s rank.
    pub fn new(coeffs: StencilCoeffs, cart: CartComm) -> Self {
        let (n1, n2) = coeffs.dims();
        assert_eq!(
            (n1, n2),
            (cart.tile().n1, cart.tile().n2),
            "coefficients do not match this rank's tile"
        );
        let ws_hint = coeffs.bytes() + SOLVER_VECTORS * TileVec::new(n1, n2).bytes();
        StencilOp { coeffs, cart, ws_hint, buf: Vec::new() }
    }

    /// The topology view this operator runs on.
    pub fn cart(&self) -> &CartComm {
        &self.cart
    }

    /// Fill the ghost frames of the five spatial coefficient fields from
    /// the neighboring ranks (needed once, before constructing an SPAI
    /// preconditioner).
    pub fn exchange_coeff_halos(&mut self, comm: &Comm, cx: &mut ExecCtx) {
        let old_ws = cx.set_ws(self.ws_hint);
        for field in [
            &mut self.coeffs.cc,
            &mut self.coeffs.cw,
            &mut self.coeffs.ce,
            &mut self.coeffs.cs,
            &mut self.coeffs.cn,
            &mut self.coeffs.cpl,
        ] {
            cx.span("halo_exchange", &[], |cx| {
                exchange_halos(&self.cart, comm, cx, &mut [field], &mut self.buf, "halo");
            });
        }
        cx.set_ws(old_ws);
    }
}

impl LinearOp for StencilOp {
    fn apply(&mut self, comm: &Comm, cx: &mut ExecCtx, x: &mut TileVec, y: &mut TileVec) {
        let (n1, n2) = self.tile_dims();
        debug_assert_eq!((x.n1(), x.n2()), (n1, n2));
        debug_assert_eq!((y.n1(), y.n2()), (n1, n2));

        // The operator knows its own working set; scope it so charges
        // here classify residency correctly whatever the caller's
        // ambient state, then restore.
        let old_ws = cx.set_ws(self.ws_hint);
        cx.span("halo_exchange", &[], |cx| {
            exchange_halos(&self.cart, comm, cx, &mut [x], &mut self.buf, "halo");
        });

        let c = &self.coeffs;
        let bands = [&c.cc, &c.cw, &c.ce, &c.cs, &c.cn, &c.cpl];
        for s in 0..NSPEC {
            let other = 1 - s;
            for i2 in 0..n2 {
                // The five unit-stride bands the SVE kernel study
                // vectorizes, plus the species partner.
                let xc = x.padded_row(s, i2 as isize);
                native::stencil_row(
                    y.row_mut(s, i2),
                    std::array::from_fn(|k| bands[k].row(s, i2)),
                    [
                        &xc[1..],
                        xc,
                        &xc[2..],
                        &x.padded_row(s, i2 as isize - 1)[1..],
                        &x.padded_row(s, i2 as isize + 1)[1..],
                        x.row(other, i2),
                    ],
                );
            }
        }
        // 6 multiplies + 5 adds per unknown; streams x (with stencil
        // reuse ≈ 1.5 passes), five coefficient fields, the coupling
        // field (shared between species: ½ per unknown) and y.
        cx.charge_streaming(KernelClass::MatVec, y.n_owned(), 11, 8, 1);
        cx.set_ws(old_ws);
    }

    fn tile_dims(&self) -> (usize, usize) {
        self.coeffs.dims()
    }

    fn working_set(&self) -> usize {
        self.ws_hint
    }
}

/// Refresh the ghost frames of `tiles`: one message per neighbor
/// direction carrying every tile's strip in slice order, zeros at
/// physical sides (callers with other boundary conditions overwrite
/// those afterwards).  Charges packing work at the context's ambient
/// working set, and MPI time.  `buf` is caller-owned scratch, so a
/// steady-state exchange loop allocates nothing; `what` names the
/// exchange in the stale-ghost fault note.
pub fn exchange_halos(
    cart: &CartComm,
    comm: &Comm,
    cx: &mut ExecCtx,
    tiles: &mut [&mut TileVec],
    buf: &mut Vec<f64>,
    what: &str,
) {
    // Post every direction first (nonblocking sends), then receive:
    // the virtual clocks of the receives then overlap instead of
    // serializing along the process chain — the behaviour of a real
    // Irecv/Isend/Waitall halo exchange.
    for dir in Dir::ALL {
        if cart.neighbor(dir).is_some() {
            buf.clear();
            for t in tiles.iter() {
                t.pack_edge(dir, buf);
            }
            cx.charge_streaming(KernelClass::Pack, buf.len(), 0, 1, 1);
            cart.post(comm, cx, dir, buf);
        } else {
            for t in tiles.iter_mut() {
                t.zero_ghost(dir);
            }
        }
    }
    // `buf` is free again once every direction is posted; receive
    // through it (`collect_into` recycles the transport buffer).
    for dir in Dir::ALL {
        match cart.collect_into(comm, cx, dir, buf) {
            Ok(true) => {
                let total: usize = tiles.iter().map(|t| t.edge_len(dir)).sum();
                assert_eq!(buf.len(), total, "halo strip length mismatch");
                let mut rest = &buf[..];
                for t in tiles.iter_mut() {
                    let (strip, tail) = rest.split_at(t.edge_len(dir));
                    t.unpack_ghost(dir, strip);
                    rest = tail;
                }
                cx.charge_streaming(KernelClass::Pack, buf.len(), 0, 1, 1);
            }
            Ok(false) => {}
            Err(e) => {
                // A lost or late halo strip (only reachable when a
                // fault injector armed a receive deadline): keep the
                // stale ghost frame — a zero-order hold — instead of
                // aborting the step.  The tag stream realigns at the
                // next exchange because each (src, dst) channel carries
                // a single direction's tag.
                if let Some(inj) = cx.faults() {
                    inj.note(format!("{what} recv failed ({e}); holding stale ghost"));
                }
            }
        }
    }
}

/// Assemble the operator's dense matrix by applying it to unit vectors —
/// an O(n²) oracle for tests and for the Fig. 1 sparsity harness.
/// Row/column indices use the global dictionary ordering
/// `i1 + n1·i2 + (n1·n2)·s` restricted to the local tile (callers use it
/// on single-rank communicators).
pub fn assemble_dense(op: &mut dyn LinearOp, comm: &Comm, cx: &mut ExecCtx) -> Vec<Vec<f64>> {
    let (n1, n2) = op.tile_dims();
    let n = n1 * n2 * NSPEC;
    let mut a = vec![vec![0.0; n]; n];
    let mut e = TileVec::new(n1, n2);
    let mut y = TileVec::new(n1, n2);
    #[allow(clippy::needless_range_loop)] // j is both a column index and a decomposed coordinate
    for j in 0..n {
        e.zero();
        let (s, rest) = (j / (n1 * n2), j % (n1 * n2));
        let (i2, i1) = (rest / n1, rest % n1);
        e.set(s, i1 as isize, i2 as isize, 1.0);
        op.apply(comm, cx, &mut e, &mut y);
        let col = y.interior_to_vec();
        for (i, &v) in col.iter().enumerate() {
            a[i][j] = v;
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use v2d_comm::{Spmd, TileMap};
    use v2d_machine::CompilerProfile;

    fn single_profiles() -> Vec<CompilerProfile> {
        vec![CompilerProfile::cray_opt()]
    }

    /// Apply the manufactured operator on a 1-rank and a multi-rank
    /// decomposition; the global result must agree.
    fn global_apply(
        n1: usize,
        n2: usize,
        np1: usize,
        np2: usize,
    ) -> Vec<(usize, usize, usize, f64)> {
        let map = TileMap::new(n1, n2, np1, np2);
        let outs = Spmd::new(np1 * np2).with_profiles(single_profiles()).run(|ctx| {
            let cart = CartComm::new(&ctx.comm, map);
            let t = cart.tile();
            let coeffs = StencilCoeffs::manufactured(t.n1, t.n2, t.i1_start, t.i2_start);
            let mut op = StencilOp::new(coeffs, cart);
            let mut x = TileVec::new(t.n1, t.n2);
            x.fill_with(|s, i1, i2| {
                let (g1, g2) = (t.i1_start + i1, t.i2_start + i2);
                ((g1 * 3 + g2 * 7 + s * 11) as f64 * 0.1).sin()
            });
            let mut y = TileVec::new(t.n1, t.n2);
            op.apply(&ctx.comm, &mut ExecCtx::new(&mut ctx.sink), &mut x, &mut y);
            let mut out = Vec::new();
            for s in 0..NSPEC {
                for i2 in 0..t.n2 {
                    for i1 in 0..t.n1 {
                        out.push((
                            s,
                            t.i1_start + i1,
                            t.i2_start + i2,
                            y.get(s, i1 as isize, i2 as isize),
                        ));
                    }
                }
            }
            out
        });
        let mut all: Vec<_> = outs.into_iter().flatten().collect();
        all.sort_by_key(|&(s, g1, g2, _)| (s, g2, g1));
        all
    }

    #[test]
    fn decomposed_apply_matches_single_rank() {
        let single = global_apply(12, 10, 1, 1);
        for (np1, np2) in [(2, 1), (1, 2), (3, 2), (4, 5)] {
            let multi = global_apply(12, 10, np1, np2);
            assert_eq!(single.len(), multi.len());
            for (a, b) in single.iter().zip(&multi) {
                assert_eq!((a.0, a.1, a.2), (b.0, b.1, b.2));
                assert!(
                    (a.3 - b.3).abs() < 1e-13,
                    "mismatch at {:?}: {} vs {} ({}×{})",
                    (a.0, a.1, a.2),
                    a.3,
                    b.3,
                    np1,
                    np2
                );
            }
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn dense_assembly_is_pentadiagonal_per_species() {
        let (n1, n2) = (5, 4);
        let map = TileMap::new(n1, n2, 1, 1);
        let rows = Spmd::new(1).with_profiles(single_profiles()).run(|ctx| {
            let cart = CartComm::new(&ctx.comm, map);
            let coeffs = StencilCoeffs::manufactured(n1, n2, 0, 0);
            let mut op = StencilOp::new(coeffs, cart);
            assemble_dense(&mut op, &ctx.comm, &mut ExecCtx::new(&mut ctx.sink))
        });
        let a = &rows[0];
        let n = n1 * n2;
        for i in 0..2 * n {
            for j in 0..2 * n {
                let (si, ri) = (i / n, i % n);
                let (sj, rj) = (j / n, j % n);
                let nonzero_allowed = if si == sj {
                    ri == rj
                        || (ri.abs_diff(rj) == 1 && ri / n1 == rj / n1) // ±1, same row
                        || ri.abs_diff(rj) == n1 // ±n1
                } else {
                    ri == rj // species coupling is local
                };
                if !nonzero_allowed {
                    assert_eq!(a[i][j], 0.0, "unexpected nonzero at ({i},{j})");
                }
            }
        }
        // Diagonal dominance of the manufactured operator.
        for i in 0..2 * n {
            let off: f64 = (0..2 * n).filter(|&j| j != i).map(|j| a[i][j].abs()).sum();
            assert!(a[i][i] > off, "row {i} not diagonally dominant");
        }
    }

    #[test]
    fn operator_is_nonsymmetric() {
        // BiCGSTAB exists in V2D precisely because A ≠ Aᵀ.
        let map = TileMap::new(4, 3, 1, 1);
        let rows = Spmd::new(1).with_profiles(single_profiles()).run(|ctx| {
            let cart = CartComm::new(&ctx.comm, map);
            let mut op = StencilOp::new(StencilCoeffs::manufactured(4, 3, 0, 0), cart);
            assemble_dense(&mut op, &ctx.comm, &mut ExecCtx::new(&mut ctx.sink))
        });
        let a = &rows[0];
        let asym = (0..a.len())
            .flat_map(|i| (0..a.len()).map(move |j| (i, j)))
            .any(|(i, j)| (a[i][j] - a[j][i]).abs() > 1e-12);
        assert!(asym);
    }

    #[test]
    fn apply_charges_matvec_and_pack() {
        let map = TileMap::new(8, 8, 1, 1);
        Spmd::new(1).with_profiles(single_profiles()).run(|ctx| {
            let cart = CartComm::new(&ctx.comm, map);
            let mut op = StencilOp::new(StencilCoeffs::manufactured(8, 8, 0, 0), cart);
            let mut x = TileVec::new(8, 8);
            x.fill_interior(1.0);
            let mut y = TileVec::new(8, 8);
            op.apply(&ctx.comm, &mut ExecCtx::new(&mut ctx.sink), &mut x, &mut y);
            let c = &ctx.sink.lanes[0].counters;
            assert_eq!(c.calls[KernelClass::MatVec.index()], 1);
            // Single rank: no neighbors, so no packing either.
            assert_eq!(c.calls[KernelClass::Pack.index()], 0);
        });
    }
}
