//! The V2D vector kernels over [`TileVec`] interiors.
//!
//! Each kernel executes natively — the row-wise slice loops live in
//! [`crate::backend::native`], shared with the [`crate::backend`]
//! dispatch surface so there is one implementation of each operation —
//! and charges its [`v2d_machine::KernelShape`] through the
//! [`ExecCtx`], so the same call both produces the numerics and
//! advances all modeled compilers' virtual clocks.  Memory residency of
//! the streaming charge comes from the context's *ambient* working set
//! ([`ExecCtx::ws`]), which the enclosing solver scopes once instead of
//! every call site threading a `ws` argument.
//!
//! Naming follows the paper's Table II: DPROD, DAXPY, DSCAL
//! (`y ← c − d·y`), DDAXPY (`w ← a·x + b·y + z`).

use v2d_machine::{ExecCtx, KernelClass};

use crate::backend::native;
use crate::tilevec::TileVec;
use crate::NSPEC;

/// Local parts of `N` dot products `Σ xₖ·yₖ` in one pass over the rows.
/// Row results add into the totals in row order from `0.0`, so each
/// equals its own single-pair call bit for bit; one DotProd per pair.
pub fn dprod_gang<const N: usize>(cx: &mut ExecCtx, pairs: [(&TileVec, &TileVec); N]) -> [f64; N] {
    let (n1, n2) = (pairs[0].0.n1(), pairs[0].0.n2());
    debug_assert!(pairs.iter().all(|(x, y)| (x.n1(), x.n2(), y.n1(), y.n2()) == (n1, n2, n1, n2)));
    let mut acc = [0.0; N];
    for s in 0..NSPEC {
        for i2 in 0..n2 {
            let rows: [f64; N] = native::dprod_gang(std::array::from_fn(|k| {
                (pairs[k].0.row(s, i2), pairs[k].1.row(s, i2))
            }));
            for (a, r) in acc.iter_mut().zip(rows) {
                *a += r;
            }
        }
    }
    for (x, _) in pairs {
        cx.charge_streaming(KernelClass::DotProd, x.n_owned(), 2, 2, 0);
    }
    acc
}

/// Local part of the dot product `Σ x·y`.
pub fn dprod_local(cx: &mut ExecCtx, x: &TileVec, y: &TileVec) -> f64 {
    dprod_gang(cx, [(x, y)])[0]
}

/// Local part of `‖x‖²`.
pub fn norm2_local(cx: &mut ExecCtx, x: &TileVec) -> f64 {
    dprod_local(cx, x, x)
}

/// `y ← a·x + y`
pub fn daxpy(cx: &mut ExecCtx, a: f64, x: &TileVec, y: &mut TileVec) {
    debug_assert_eq!((x.n1(), x.n2()), (y.n1(), y.n2()));
    for s in 0..NSPEC {
        for i2 in 0..x.n2() {
            native::daxpy(a, x.row(s, i2), y.row_mut(s, i2));
        }
    }
    cx.charge_streaming(KernelClass::Daxpy, x.n_owned(), 2, 2, 1);
}

/// `y ← c − d·y` (the paper's DSCAL form).
pub fn dscal(cx: &mut ExecCtx, c: f64, d: f64, y: &mut TileVec) {
    for s in 0..NSPEC {
        for i2 in 0..y.n2() {
            native::dscal(c, d, y.row_mut(s, i2));
        }
    }
    cx.charge_streaming(KernelClass::Dscal, y.n_owned(), 2, 1, 1);
}

/// `w ← a·x + b·y + w` — the in-place form of the paper's DDAXPY
/// (`w` plays the role of the third operand `z`).
pub fn ddaxpy(cx: &mut ExecCtx, a: f64, x: &TileVec, b: f64, y: &TileVec, w: &mut TileVec) {
    debug_assert_eq!((x.n1(), x.n2()), (w.n1(), w.n2()));
    debug_assert_eq!((y.n1(), y.n2()), (w.n1(), w.n2()));
    for s in 0..NSPEC {
        for i2 in 0..x.n2() {
            native::ddaxpy_acc(a, x.row(s, i2), b, y.row(s, i2), w.row_mut(s, i2));
        }
    }
    cx.charge_streaming(KernelClass::Ddaxpy, w.n_owned(), 4, 3, 1);
}

/// BiCGSTAB's search-direction update `p ← r + β·(p − ω·v)`, fused the
/// way V2D's combined scaling/addition routine does it.
pub fn p_update(
    cx: &mut ExecCtx,
    beta: f64,
    omega: f64,
    r: &TileVec,
    v: &TileVec,
    p: &mut TileVec,
) {
    debug_assert_eq!((r.n1(), r.n2()), (p.n1(), p.n2()));
    for s in 0..NSPEC {
        for i2 in 0..r.n2() {
            native::p_update(beta, omega, r.row(s, i2), v.row(s, i2), p.row_mut(s, i2));
        }
    }
    cx.charge_streaming(KernelClass::Ddaxpy, p.n_owned(), 4, 3, 1);
}

/// `w ← x − a·y` (residual-style update, e.g. `s = r − α·v`).
pub fn xmay(cx: &mut ExecCtx, x: &TileVec, a: f64, y: &TileVec, w: &mut TileVec) {
    debug_assert_eq!((x.n1(), x.n2()), (w.n1(), w.n2()));
    for s in 0..NSPEC {
        for i2 in 0..x.n2() {
            native::xmay(a, x.row(s, i2), y.row(s, i2), w.row_mut(s, i2));
        }
    }
    cx.charge_streaming(KernelClass::Daxpy, w.n_owned(), 2, 2, 1);
}

/// `r ← b − r` in place: the residual finisher.  `r` arrives holding
/// `A·x` and leaves holding `b − A·x`, so the solvers need no residual
/// scratch copy (the `r.clone()` this replaces was never charged, so
/// the simulated cost — one fused streaming pass, same as [`xmay`] —
/// is unchanged).
pub fn residual_into(cx: &mut ExecCtx, b: &TileVec, r: &mut TileVec) {
    debug_assert_eq!((b.n1(), b.n2()), (r.n1(), r.n2()));
    for s in 0..NSPEC {
        for i2 in 0..b.n2() {
            native::residual(b.row(s, i2), r.row_mut(s, i2));
        }
    }
    cx.charge_streaming(KernelClass::Daxpy, r.n_owned(), 2, 2, 1);
}

/// Copy `x` into `y` (interior only; ghosts are refreshed by the next
/// operator application anyway).
pub fn copy(cx: &mut ExecCtx, x: &TileVec, y: &mut TileVec) {
    debug_assert_eq!((x.n1(), x.n2()), (y.n1(), y.n2()));
    for s in 0..NSPEC {
        for i2 in 0..x.n2() {
            y.row_mut(s, i2).copy_from_slice(x.row(s, i2));
        }
    }
    cx.charge_streaming(KernelClass::Other, x.n_owned(), 0, 1, 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use v2d_machine::{CompilerProfile, MultiCostSink};

    fn sink() -> MultiCostSink {
        MultiCostSink::single(CompilerProfile::cray_opt())
    }

    fn field(n1: usize, n2: usize, seed: f64) -> TileVec {
        let mut v = TileVec::new(n1, n2);
        v.fill_with(|s, i1, i2| ((s * 31 + i1 * 7 + i2 * 13) as f64 * seed).sin());
        v
    }

    #[test]
    fn dprod_matches_flat_oracle() {
        let x = field(7, 5, 0.3);
        let y = field(7, 5, 0.7);
        let mut sk = sink();
        let mut cx = ExecCtx::new(&mut sk);
        let got = dprod_local(&mut cx, &x, &y);
        let expect: f64 =
            x.interior_to_vec().iter().zip(y.interior_to_vec()).map(|(a, b)| a * b).sum();
        assert!((got - expect).abs() < 1e-14);
        assert!(sk.lanes[0].counters.calls[v2d_machine::KernelClass::DotProd.index()] == 1);
    }

    /// A seeded tile whose values span signs and six decades.
    fn random_field(n1: usize, n2: usize, seed: u64) -> TileVec {
        let mut state = seed;
        let mut v = TileVec::new(n1, n2);
        v.fill_with(|_, _, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let unit = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            unit * 10f64.powi((state % 7) as i32 - 3)
        });
        v
    }

    /// The dot product as one chain per row, summed in row order.
    fn row_order_dot(x: &TileVec, y: &TileVec) -> f64 {
        let mut acc = 0.0;
        for s in 0..NSPEC {
            for i2 in 0..x.n2() {
                acc += native::dprod(x.row(s, i2), y.row(s, i2));
            }
        }
        acc
    }

    #[test]
    fn dprod_gang_equals_separate_dots_bit_for_bit() {
        for (n1, n2) in [(7, 5), (13, 3), (1, 1), (200, 2), (8, 8)] {
            let [a, b, c] = [1, 2, 3].map(|k| random_field(n1, n2, 1000 * k + n1 as u64));
            let pairs = [(&a, &b), (&a, &a), (&b, &b), (&c, &b), (&c, &a)];
            let (mut gang_sink, mut solo_sink) =
                (MultiCostSink::all_compilers(), MultiCostSink::all_compilers());
            let gang = {
                let mut cx = ExecCtx::new(&mut gang_sink);
                cx.set_ws(1 << 22);
                dprod_gang(&mut cx, pairs)
            };
            let solo = {
                let mut cx = ExecCtx::new(&mut solo_sink);
                cx.set_ws(1 << 22);
                pairs.map(|(x, y)| dprod_local(&mut cx, x, y))
            };
            let oracle = pairs.map(|(x, y)| row_order_dot(x, y));
            assert_eq!(gang.map(f64::to_bits), solo.map(f64::to_bits), "{n1}x{n2}");
            assert_eq!(gang.map(f64::to_bits), oracle.map(f64::to_bits), "{n1}x{n2}");
            for (g, s) in gang_sink.lanes.iter().zip(&solo_sink.lanes) {
                assert_eq!(g.clock.now(), s.clock.now(), "{n1}x{n2} {:?}", g.profile.id);
                let (gc, sc) = (&g.counters, &s.counters);
                assert_eq!(
                    (gc.cycles, gc.calls, gc.flops, gc.bytes),
                    (sc.cycles, sc.calls, sc.flops, sc.bytes)
                );
            }
        }
    }

    #[test]
    fn dprod_gang_keeps_the_signed_zero_of_native_dprod() {
        let (zeros, neg_zeros) = ([0.0; 5], [-0.0; 5]);
        let row = native::dprod(&zeros, &neg_zeros);
        let [g, h] = native::dprod_gang([(&zeros, &neg_zeros), (&neg_zeros, &neg_zeros)]);
        assert_eq!(g.to_bits(), row.to_bits());
        assert_eq!(h.to_bits(), native::dprod(&neg_zeros, &neg_zeros).to_bits());
        assert!(g.is_sign_negative(), "a row of −0 products sums to −0");
        // The tile total starts from +0, as the row-order sum does.
        let mut x = TileVec::new(1, 1);
        x.fill_interior(-0.0);
        let y = TileVec::new(1, 1);
        let mut sk = sink();
        let [d] = dprod_gang(&mut ExecCtx::new(&mut sk), [(&x, &y)]);
        assert_eq!(d.to_bits(), row_order_dot(&x, &y).to_bits());
    }

    #[test]
    fn daxpy_and_xmay() {
        let x = field(6, 4, 0.3);
        let y0 = field(6, 4, 0.9);
        let mut y = y0.clone();
        let mut sk = sink();
        let mut cx = ExecCtx::new(&mut sk);
        daxpy(&mut cx, 2.5, &x, &mut y);
        for s in 0..NSPEC {
            for i2 in 0..4 {
                for i1 in 0..6isize {
                    let e = y0.get(s, i1, i2 as isize) + 2.5 * x.get(s, i1, i2 as isize);
                    assert!((y.get(s, i1, i2 as isize) - e).abs() < 1e-15);
                }
            }
        }
        let mut w = TileVec::new(6, 4);
        xmay(&mut cx, &y0, 0.5, &x, &mut w);
        assert!((w.get(0, 2, 2) - (y0.get(0, 2, 2) - 0.5 * x.get(0, 2, 2))).abs() < 1e-15);
    }

    #[test]
    fn residual_into_matches_xmay() {
        let b = field(6, 5, 0.4);
        let ax = field(6, 5, 0.8);
        let mut sk = sink();
        let mut cx = ExecCtx::new(&mut sk);
        // Reference: w ← b − 1·ax via the out-of-place kernel.
        let mut w = TileVec::new(6, 5);
        xmay(&mut cx, &b, 1.0, &ax, &mut w);
        // In place: r starts as A·x, ends as b − A·x.
        let mut r = ax.clone();
        residual_into(&mut cx, &b, &mut r);
        assert_eq!(r.interior_to_vec(), w.interior_to_vec());
        // Both charge the same Daxpy shape (two calls recorded).
        assert_eq!(sk.lanes[0].counters.calls[KernelClass::Daxpy.index()], 2);
    }

    #[test]
    fn dscal_is_c_minus_dy() {
        let mut y = field(5, 5, 0.4);
        let y0 = y.clone();
        let mut sk = sink();
        dscal(&mut ExecCtx::new(&mut sk), 1.5, 0.25, &mut y);
        assert!((y.get(1, 3, 2) - (1.5 - 0.25 * y0.get(1, 3, 2))).abs() < 1e-15);
    }

    #[test]
    fn ddaxpy_accumulates() {
        let x = field(4, 4, 0.2);
        let y = field(4, 4, 0.6);
        let w0 = field(4, 4, 1.1);
        let mut w = w0.clone();
        let mut sk = sink();
        ddaxpy(&mut ExecCtx::new(&mut sk), 2.0, &x, -1.5, &y, &mut w);
        let e = w0.get(0, 1, 1) + 2.0 * x.get(0, 1, 1) - 1.5 * y.get(0, 1, 1);
        assert!((w.get(0, 1, 1) - e).abs() < 1e-15);
    }

    #[test]
    fn p_update_formula() {
        let r = field(4, 3, 0.2);
        let v = field(4, 3, 0.8);
        let p0 = field(4, 3, 1.3);
        let mut p = p0.clone();
        let mut sk = sink();
        p_update(&mut ExecCtx::new(&mut sk), 0.7, 0.3, &r, &v, &mut p);
        let e = r.get(1, 2, 1) + 0.7 * (p0.get(1, 2, 1) - 0.3 * v.get(1, 2, 1));
        assert!((p.get(1, 2, 1) - e).abs() < 1e-15);
    }

    #[test]
    fn kernels_advance_all_lanes() {
        let x = field(8, 8, 0.5);
        let mut y = field(8, 8, 0.25);
        let mut sk = MultiCostSink::all_compilers();
        let mut cx = ExecCtx::new(&mut sk);
        cx.set_ws(1 << 24);
        daxpy(&mut cx, 1.0, &x, &mut y);
        for lane in &sk.lanes {
            assert!(lane.clock.now().cycles() > 0);
        }
        // HBM-resident working set: the unvectorized lane must be slower.
        let opt =
            sk.lanes.iter().find(|l| l.profile.id == v2d_machine::CompilerId::CrayOpt).unwrap();
        let noopt =
            sk.lanes.iter().find(|l| l.profile.id == v2d_machine::CompilerId::CrayNoOpt).unwrap();
        assert!(noopt.clock.now() > opt.clock.now());
    }
}
