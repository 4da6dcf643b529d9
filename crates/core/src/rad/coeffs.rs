//! Assembly of the implicit radiation system.
//!
//! Backward-Euler discretization of the two-species FLD equations
//!
//! ```text
//! ∂E_s/∂t = ∇·(D_s ∇E_s) − c κ_a,s E_s + c κ_x (E_o − E_s) + S_s
//! ```
//!
//! over one timestep `dt` gives, per zone and species,
//!
//! ```text
//! (1 + dt·c·κ_a + dt·c·κ_x + Σ_f dt·A_f·D_f/(V·Δx)) E_s
//!   − Σ_f dt·A_f·D_f/(V·Δx) E_nbr  − dt·c·κ_x E_o  =  E_sⁿ + dt·S_s
//! ```
//!
//! with face diffusion coefficients `D_f = c·λ(R_f)/κ_t,f` evaluated
//! from the *current* iterate of the radiation field (the nonlinearity
//! the stepper fixed-point iterates over).  Opacities are constant per
//! run ([`OpacityModel`]), so the face opacity `κ_t,f` — the mean of the
//! two adjacent zones — is the zone's own `κ_t`, and a zone on a tile
//! seam needs nothing from the neighbouring rank but its ghost energy.
//! Homogeneous Dirichlet boundaries come for free from the zero ghost
//! frame: the boundary column simply does not exist.
//!
//! The assembly is multi-physics work — table lookups, limiter
//! transcendentals, metric factors — and is charged to the cost model as
//! [`KernelClass::Physics`], which no studied compiler vectorizes.  This
//! is the mechanism behind the paper's headline observation that the
//! full code speeds up far less under SVE than its solver kernels.

use v2d_comm::{CartComm, Comm};
use v2d_linalg::{exchange_halos, StencilCoeffs, StencilOp, TileVec, NSPEC};
use v2d_machine::{ExecCtx, KernelClass, KernelShape};

use crate::grid::LocalGrid;
use crate::limiter::Limiter;
use crate::opacity::OpacityModel;

/// Floor for face energies inside the limiter argument (avoids 0/0 in
/// evacuated zones).
const E_FLOOR: f64 = 1e-30;

/// Assemble the stencil coefficients and right-hand side for one
/// backward-Euler radiation solve.
///
/// The flux-limiter nonlinearity is evaluated at `lin_state` (whose
/// ghost frame this function refreshes), while the right-hand side
/// carries `rhs_state` — the beginning-of-step field `Eⁿ` — plus
/// `dt·source`.  Separating the two is what lets the stepper fixed-point
/// iterate the coefficients without double-stepping the data.
#[allow(clippy::too_many_arguments)]
pub fn assemble_system(
    comm: &Comm,
    cx: &mut ExecCtx,
    cart: &CartComm,
    grid: &LocalGrid,
    limiter: Limiter,
    opacity: &OpacityModel,
    c_light: f64,
    dt: f64,
    lin_state: &mut TileVec,
    rhs_state: &TileVec,
    source: &TileVec,
) -> (StencilOp, TileVec) {
    assert!(dt > 0.0 && c_light > 0.0, "dt and c must be positive");
    let (n1, n2) = (grid.n1, grid.n2);
    let g = &grid.global;

    // Fresh ghosts for the face-gradient evaluation.
    let mut buf = Vec::new();
    let ws = 16 * lin_state.bytes();
    let old_ws = cx.set_ws(ws);
    cx.span("halo_exchange", &[], |cx| {
        exchange_halos(cart, comm, cx, &mut [lin_state], &mut buf, "halo");
    });
    cx.set_ws(old_ws);

    let mut c = StencilCoeffs::new(n1, n2);
    let mut rhs = TileVec::new(n1, n2);

    let dx1 = g.dx1_centers();
    // The north-face D of the row below, which is this row's south-face D.
    let mut d_below = vec![0.0; n1];
    for s in 0..NSPEC {
        // Every face κ is the zone κ (module docs).
        let kt = opacity.kappa_t(s);
        let sigma = dt * c_light * (opacity.kappa_a[s] + opacity.kappa_x);
        let cpl = -dt * c_light * opacity.kappa_x;
        // Face diffusion coefficient between zone energies `e_c` and
        // `e_nbr` (a ghost: zero past the physical edge).  Symmetric in
        // the two by bits, so each face is evaluated once and carried to
        // the zone across it (DESIGN.md §8, the face carry).
        let face_d = |e_c: f64, e_nbr: f64, dx: f64| -> f64 {
            let grad = (e_nbr - e_c) / dx;
            let e_face = 0.5 * (e_c + e_nbr).max(E_FLOOR);
            let r = grad.abs() / (kt * e_face);
            c_light * limiter.lambda(r) / kt
        };
        for i2 in 0..n2 {
            let e_s = lin_state.padded_row(s, i2 as isize - 1);
            let e_row = lin_state.padded_row(s, i2 as isize);
            let e_n = lin_state.padded_row(s, i2 as isize + 1);
            let (rhs0, src) = (rhs_state.row(s, i2), source.row(s, i2));
            let StencilCoeffs { cc, cw, ce, cs, cn, cpl: cp } = &mut c;
            let (cc, cw, ce) = (cc.row_mut(s, i2), cw.row_mut(s, i2), ce.row_mut(s, i2));
            let (cs, cn, cp) = (cs.row_mut(s, i2), cn.row_mut(s, i2), cp.row_mut(s, i2));
            let rhs = rhs.row_mut(s, i2);
            let mut dw = face_d(e_row[1], e_row[0], dx1);
            for i1 in 0..n1 {
                let (g1, g2) = grid.to_global(i1, i2);
                // Padded rows: zone i1 sits at i1 + 1.
                let e_c = e_row[i1 + 1];
                // Depends on g1 alone: a column's faces share it.
                let dx2 = g.dx2_centers(g1);
                let vol = g.volume(g1, g2);

                let de = face_d(e_c, e_row[i1 + 2], dx1);
                let ds = if i2 == 0 { face_d(e_c, e_s[i1 + 1], dx2) } else { d_below[i1] };
                let dn = face_d(e_c, e_n[i1 + 1], dx2);

                // Metric face areas (global indices; +1 faces).
                let a_w = g.area1(g1, g2);
                let a_e = g.area1(g1 + 1, g2);
                let a_s = g.area2(g1, g2);
                let a_n = g.area2(g1, g2 + 1);

                let tw = dt * a_w * dw / (vol * dx1);
                let te = dt * a_e * de / (vol * dx1);
                let ts = dt * a_s * ds / (vol * dx2);
                let tn = dt * a_n * dn / (vol * dx2);

                cc[i1] = 1.0 + sigma + tw + te + ts + tn;
                cw[i1] = -tw;
                ce[i1] = -te;
                cs[i1] = -ts;
                cn[i1] = -tn;
                cp[i1] = cpl;
                rhs[i1] = rhs0[i1] + dt * src[i1];

                dw = de;
                d_below[i1] = dn;
            }
        }
    }

    // Multi-physics assembly cost: limiter transcendentals, opacity
    // evaluation, metric factors — scalar work in every compiler model.
    cx.charge(&KernelShape::streaming(KernelClass::Physics, n1 * n2 * NSPEC, 60, 4, 7, ws));

    (StencilOp::new(c, *cart), rhs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{Geometry, Grid2};
    use v2d_comm::{Spmd, TileMap};
    use v2d_linalg::LinearOp;
    use v2d_machine::CompilerProfile;

    fn profiles() -> Vec<CompilerProfile> {
        vec![CompilerProfile::cray_opt()]
    }

    fn setup(n1: usize, n2: usize) -> (Grid2, TileMap) {
        (
            Grid2::new(n1, n2, (0.0, n1 as f64), (0.0, n2 as f64), Geometry::Cartesian),
            TileMap::new(n1, n2, 1, 1),
        )
    }

    #[test]
    fn assembled_matrix_is_diagonally_dominant_m_matrix() {
        let (g, map) = setup(8, 6);
        Spmd::new(1).with_profiles(profiles()).run(|ctx| {
            let cart = CartComm::new(&ctx.comm, map);
            let grid = LocalGrid::new(g, cart.tile());
            let mut e = TileVec::new(8, 6);
            e.fill_with(|s, i1, i2| 1.0 + 0.1 * ((s + i1 + i2) as f64).sin());
            let src = TileVec::new(8, 6);
            let (op, _rhs) = assemble_system(
                &ctx.comm,
                &mut ExecCtx::new(&mut ctx.sink),
                &cart,
                &grid,
                Limiter::LevermorePomraning,
                &OpacityModel::test_problem(),
                1.0,
                0.5,
                &mut e.clone(),
                &e,
                &src,
            );
            for s in 0..NSPEC {
                for i2 in 0..6isize {
                    for i1 in 0..8isize {
                        let cc = op.coeffs.cc.get(s, i1, i2);
                        let off = op.coeffs.cw.get(s, i1, i2).abs()
                            + op.coeffs.ce.get(s, i1, i2).abs()
                            + op.coeffs.cs.get(s, i1, i2).abs()
                            + op.coeffs.cn.get(s, i1, i2).abs()
                            + op.coeffs.cpl.get(s, i1, i2).abs();
                        assert!(cc > 0.0, "non-positive diagonal");
                        assert!(
                            cc >= off + 1.0 - 1e-12,
                            "dominance violated: {cc} vs {off} at ({s},{i1},{i2})"
                        );
                        // Off-diagonals non-positive: M-matrix structure.
                        assert!(op.coeffs.cw.get(s, i1, i2) <= 0.0);
                        assert!(op.coeffs.cpl.get(s, i1, i2) <= 0.0);
                    }
                }
            }
        });
    }

    #[test]
    fn uniform_field_unlimited_gives_identity_plus_absorption() {
        // With E constant, ∇E = 0 at interior faces, so interior rows of
        // A·E reduce to (1 + dt·c·(κ_a+κ_x))·E − dt·c·κ_x·E (diffusion
        // terms cancel).  Check via an operator application.
        let (g, map) = setup(10, 10);
        Spmd::new(1).with_profiles(profiles()).run(|ctx| {
            let cart = CartComm::new(&ctx.comm, map);
            let grid = LocalGrid::new(g, cart.tile());
            let mut e = TileVec::new(10, 10);
            e.fill_interior(2.0);
            let src = TileVec::new(10, 10);
            let (kappa_a, kappa_x, dt, c_l) = ([0.1, 0.2], 0.05, 0.3, 1.0);
            let (mut op, _rhs) = assemble_system(
                &ctx.comm,
                &mut ExecCtx::new(&mut ctx.sink),
                &cart,
                &grid,
                Limiter::None,
                &OpacityModel { kappa_a, kappa_s: [1.0, 1.0], kappa_x },
                c_l,
                dt,
                &mut e.clone(),
                &e,
                &src,
            );
            let mut x = TileVec::new(10, 10);
            x.fill_interior(2.0);
            let mut y = TileVec::new(10, 10);
            op.apply(&ctx.comm, &mut ExecCtx::new(&mut ctx.sink), &mut x, &mut y);
            // Interior zone (5,5), species 0.
            let expect = (1.0 + dt * c_l * (kappa_a[0] + kappa_x)) * 2.0 - dt * c_l * kappa_x * 2.0;
            assert!((y.get(0, 5, 5) - expect).abs() < 1e-12, "{} vs {expect}", y.get(0, 5, 5));
        });
    }

    #[test]
    fn rhs_carries_previous_energy_plus_source() {
        let (g, map) = setup(4, 4);
        Spmd::new(1).with_profiles(profiles()).run(|ctx| {
            let cart = CartComm::new(&ctx.comm, map);
            let grid = LocalGrid::new(g, cart.tile());
            let mut e = TileVec::new(4, 4);
            e.fill_interior(3.0);
            let mut src = TileVec::new(4, 4);
            src.fill_interior(10.0);
            let (_op, rhs) = assemble_system(
                &ctx.comm,
                &mut ExecCtx::new(&mut ctx.sink),
                &cart,
                &grid,
                Limiter::None,
                &OpacityModel::test_problem(),
                1.0,
                0.25,
                &mut e.clone(),
                &e,
                &src,
            );
            assert!((rhs.get(1, 2, 2) - (3.0 + 0.25 * 10.0)).abs() < 1e-14);
        });
    }

    #[test]
    fn assembly_charges_physics_class() {
        let (g, map) = setup(6, 6);
        Spmd::new(1).with_profiles(profiles()).run(|ctx| {
            let cart = CartComm::new(&ctx.comm, map);
            let grid = LocalGrid::new(g, cart.tile());
            let mut e = TileVec::new(6, 6);
            e.fill_interior(1.0);
            let src = TileVec::new(6, 6);
            let before = ctx.sink.lanes[0].counters.calls[KernelClass::Physics.index()];
            let _ = assemble_system(
                &ctx.comm,
                &mut ExecCtx::new(&mut ctx.sink),
                &cart,
                &grid,
                Limiter::Wilson,
                &OpacityModel::test_problem(),
                1.0,
                0.1,
                &mut e.clone(),
                &e,
                &src,
            );
            let after = ctx.sink.lanes[0].counters.calls[KernelClass::Physics.index()];
            assert_eq!(after, before + 1);
        });
    }

    #[test]
    fn shared_faces_get_one_coefficient_at_any_decomposition() {
        // On a uniform Cartesian grid a face's coupling is the same seen
        // from either side, by bits, tile seams included: the invariant
        // the face carry in `assemble_system` rests on.  The field has
        // flat rows (R = 0: the limiter's series branch), a sinusoid, and
        // steep drops by four decades.
        let (n1, n2) = (12, 10);
        let g = Grid2::new(n1, n2, (0.0, 3.0), (0.0, 2.5), Geometry::Cartesian);
        let gather = |np1: usize, np2: usize| {
            let map = TileMap::new(n1, n2, np1, np2);
            let outs = Spmd::new(np1 * np2).with_profiles(profiles()).run(|ctx| {
                let cart = CartComm::new(&ctx.comm, map);
                let t = cart.tile();
                let grid = LocalGrid::new(g, t);
                let mut e = TileVec::new(t.n1, t.n2);
                e.fill_with(|s, i1, i2| {
                    let (g1, g2) = grid.to_global(i1, i2);
                    let smooth = 1.0 + 0.5 * (((g1 * 5 + g2 * 3 + s) as f64) * 0.37).sin();
                    if g2 < 3 {
                        1.0
                    } else if (g1 + 2 * g2) % 7 == 3 {
                        1e-4 * smooth
                    } else {
                        smooth
                    }
                });
                let (op, _rhs) = assemble_system(
                    &ctx.comm,
                    &mut ExecCtx::new(&mut ctx.sink),
                    &cart,
                    &grid,
                    Limiter::LevermorePomraning,
                    &OpacityModel::test_problem(),
                    1.0,
                    0.4,
                    &mut e.clone(),
                    &e,
                    &TileVec::new(t.n1, t.n2),
                );
                let c = &op.coeffs;
                let mut out = Vec::new();
                for s in 0..NSPEC {
                    for i2 in 0..t.n2 as isize {
                        for i1 in 0..t.n1 as isize {
                            let (g1, g2) = grid.to_global(i1 as usize, i2 as usize);
                            let bits = [&c.cw, &c.ce, &c.cs, &c.cn, &c.cc]
                                .map(|f| f.get(s, i1, i2).to_bits());
                            out.push(((s, g1, g2), bits));
                        }
                    }
                }
                out
            });
            let mut all: Vec<_> = outs.into_iter().flatten().collect();
            all.sort_by_key(|&(k, _)| k);
            all
        };
        let single = gather(1, 1);
        assert_eq!(gather(2, 2), single, "2×2 ranks assemble other coefficients");
        let at = |s: usize, g1: usize, g2: usize| {
            let (key, bits) = single[(s * n1 + g1) * n2 + g2];
            assert_eq!(key, (s, g1, g2));
            bits
        };
        for s in 0..NSPEC {
            for g2 in 0..n2 {
                for g1 in 0..n1 {
                    let [_, ce, _, cn, _] = at(s, g1, g2);
                    if g1 + 1 < n1 {
                        assert_eq!(at(s, g1 + 1, g2)[0], ce, "west/east face at ({s},{g1},{g2})");
                    }
                    if g2 + 1 < n2 {
                        assert_eq!(at(s, g1, g2 + 1)[2], cn, "south/north face at ({s},{g1},{g2})");
                    }
                }
            }
        }
    }

    #[test]
    fn decomposed_assembly_matches_single_rank() {
        // The operator built on 4 ranks must act identically to the
        // single-rank one (face D at tile seams must agree).
        let (n1, n2) = (12, 8);
        let g = Grid2::new(n1, n2, (0.0, 3.0), (0.0, 2.0), Geometry::Cartesian);
        let apply_global = |np1: usize, np2: usize| {
            let map = TileMap::new(n1, n2, np1, np2);
            let outs = Spmd::new(np1 * np2).with_profiles(profiles()).run(|ctx| {
                let cart = CartComm::new(&ctx.comm, map);
                let t = cart.tile();
                let grid = LocalGrid::new(g, t);
                let mut e = TileVec::new(t.n1, t.n2);
                e.fill_with(|s, i1, i2| {
                    let (g1, g2) = grid.to_global(i1, i2);
                    1.0 + 0.5 * (((g1 * 3 + g2 * 7 + s) as f64) * 0.21).sin()
                });
                let src = TileVec::new(t.n1, t.n2);
                let (mut op, _rhs) = assemble_system(
                    &ctx.comm,
                    &mut ExecCtx::new(&mut ctx.sink),
                    &cart,
                    &grid,
                    Limiter::LevermorePomraning,
                    &OpacityModel::test_problem(),
                    1.0,
                    0.4,
                    &mut e.clone(),
                    &e,
                    &src,
                );
                let mut x = e.clone();
                let mut y = TileVec::new(t.n1, t.n2);
                op.apply(&ctx.comm, &mut ExecCtx::new(&mut ctx.sink), &mut x, &mut y);
                let mut out = Vec::new();
                for s in 0..NSPEC {
                    for i2 in 0..t.n2 {
                        for i1 in 0..t.n1 {
                            out.push((
                                (s, t.i1_start + i1, t.i2_start + i2),
                                y.get(s, i1 as isize, i2 as isize),
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
        let single = apply_global(1, 1);
        let multi = apply_global(2, 2);
        for (i, (a, b)) in single.iter().zip(&multi).enumerate() {
            assert!((a - b).abs() < 1e-12, "A·E differs at {i}: {a} vs {b}");
        }
    }
}
