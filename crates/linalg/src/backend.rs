//! The host execution of the paper's Table II kernels: the plain Rust
//! slice loops the solver layer runs in production (LLVM
//! auto-vectorizes them on the host).
//!
//! The [`native`] submodule holds the flat-slice routines themselves;
//! the `TileVec` kernels in [`crate::kernels`] run their row loops
//! through the same functions, so there is exactly one native
//! implementation of each mathematical operation in the crate.  The
//! `v2d-sve` simulator's scalar and SVE codegen of the same kernels are
//! checked against f64 oracles by `tests/proptests.rs`.

/// The shared native slice routines.  These are the single source of
/// truth for the arithmetic of each kernel: the `TileVec` kernels map
/// them over interior rows.
pub mod native {
    /// `Σ x·y`
    #[inline]
    pub fn dprod(x: &[f64], y: &[f64]) -> f64 {
        x.iter().zip(y).map(|(a, b)| a * b).sum()
    }

    /// `N` dot products over equal-length rows in one pass: chain `k`
    /// folds from `-0.0` in element order, as [`dprod`] does, so it
    /// returns `dprod(xₖ, yₖ)` bit for bit.
    #[inline]
    pub fn dprod_gang<const N: usize>(rows: [(&[f64], &[f64]); N]) -> [f64; N] {
        let n = rows.first().map_or(0, |(x, _)| x.len());
        let rows: [(&[f64], &[f64]); N] =
            std::array::from_fn(|k| (&rows[k].0[..n], &rows[k].1[..n]));
        let mut acc = [-0.0; N];
        for i in 0..n {
            for (a, (x, y)) in acc.iter_mut().zip(&rows) {
                *a += x[i] * y[i];
            }
        }
        acc
    }

    /// One stencil-operator row, `y ← Σₖ cₖ·xₖ` summed in band order
    /// (centre, west, east, south, north, species partner).  `y` is its
    /// own `&mut` argument, so no input aliases it and the row vectorizes.
    #[inline]
    pub fn stencil_row(y: &mut [f64], c: [&[f64]; 6], x: [&[f64]; 6]) {
        let n = y.len();
        let (c, x): ([&[f64]; 6], [&[f64]; 6]) =
            (std::array::from_fn(|k| &c[k][..n]), std::array::from_fn(|k| &x[k][..n]));
        for (i, yi) in y.iter_mut().enumerate() {
            *yi = (1..6).fold(c[0][i] * x[0][i], |acc, k| acc + c[k][i] * x[k][i]);
        }
    }

    /// `y ← a·x + y`
    #[inline]
    pub fn daxpy(a: f64, x: &[f64], y: &mut [f64]) {
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi += a * xi;
        }
    }

    /// `y ← c − d·y`
    #[inline]
    pub fn dscal(c: f64, d: f64, y: &mut [f64]) {
        for yi in y.iter_mut() {
            *yi = c - d * *yi;
        }
    }

    /// `w ← a·x + b·y + z` (the paper's four-operand DDAXPY).
    #[inline]
    pub fn ddaxpy(a: f64, b: f64, x: &[f64], y: &[f64], z: &[f64], w: &mut [f64]) {
        for (((wi, xi), yi), zi) in w.iter_mut().zip(x).zip(y).zip(z) {
            *wi = a * xi + b * yi + zi;
        }
    }

    /// `w ← a·x + b·y + w` — DDAXPY with `w` doubling as the third
    /// operand (the in-place form the solvers use).
    #[inline]
    pub fn ddaxpy_acc(a: f64, x: &[f64], b: f64, y: &[f64], w: &mut [f64]) {
        for ((wi, xi), yi) in w.iter_mut().zip(x).zip(y) {
            *wi += a * xi + b * yi;
        }
    }

    /// BiCGSTAB's fused search-direction update `p ← r + β·(p − ω·v)`.
    #[inline]
    pub fn p_update(beta: f64, omega: f64, r: &[f64], v: &[f64], p: &mut [f64]) {
        for ((pi, ri), vi) in p.iter_mut().zip(r).zip(v) {
            *pi = ri + beta * (*pi - omega * vi);
        }
    }

    /// `w ← x − a·y` (residual-style update).
    #[inline]
    pub fn xmay(a: f64, x: &[f64], y: &[f64], w: &mut [f64]) {
        for ((wi, xi), yi) in w.iter_mut().zip(x).zip(y) {
            *wi = xi - a * yi;
        }
    }

    /// `r ← b − r` in place — the fused residual finisher (`r` arrives
    /// holding `A·x` and leaves holding `b − A·x`), which is what lets
    /// the solvers drop their per-solve `r.clone()`.
    #[inline]
    pub fn residual(b: &[f64], r: &mut [f64]) {
        for (ri, bi) in r.iter_mut().zip(b) {
            *ri = bi - *ri;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vecs(n: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let f = |k: f64| (0..n).map(|i| (i as f64 * k).sin() + 0.1).collect::<Vec<_>>();
        (f(0.37), f(0.51), f(0.13))
    }

    #[test]
    fn native_in_place_forms_match_out_of_place() {
        let n = 31;
        let (x, y, z) = vecs(n);
        // ddaxpy_acc(w ← a·x + b·y + w) must equal ddaxpy with z = w.
        let mut acc = z.clone();
        native::ddaxpy_acc(2.0, &x, -1.5, &y, &mut acc);
        let mut out = vec![0.0; n];
        native::ddaxpy(2.0, -1.5, &x, &y, &z, &mut out);
        assert_eq!(acc, out);
        // residual(r ← b − r) must equal xmay(w ← x − 1·y).
        let mut r = y.clone();
        native::residual(&x, &mut r);
        let mut w = vec![0.0; n];
        native::xmay(1.0, &x, &y, &mut w);
        assert_eq!(r, w);
    }
}
