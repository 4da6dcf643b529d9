//! Native oracles for the five Table II routines: the plain-Rust results
//! the simulated kernels are checked against.
//!
//! Test code only, and kept as one copy: the kernel module's unit tests
//! include it as `kernels::oracle`, and the workspace property tests
//! include this same file by path.  Either includer must have
//! `BandedSystem` in scope at the parent of the module.

use super::BandedSystem;

/// `y = A·x` for a banded system.
pub fn matvec(sys: &BandedSystem, x: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), sys.n);
    let (n, m) = (sys.n, sys.m);
    let mut y = vec![0.0; n];
    for (i, yi) in y.iter_mut().enumerate() {
        let mut v = sys.dc[i] * x[i];
        if i >= 1 {
            v += sys.dl1[i] * x[i - 1];
        }
        if i + 1 < n {
            v += sys.du1[i] * x[i + 1];
        }
        if i >= m {
            v += sys.dl2[i] * x[i - m];
        }
        if i + m < n {
            v += sys.du2[i] * x[i + m];
        }
        *yi = v;
    }
    y
}

/// `x · y`
pub fn dprod(x: &[f64], y: &[f64]) -> f64 {
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// `y ← a·x + y`
pub fn daxpy(a: f64, x: &[f64], y: &mut [f64]) {
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

/// `y ← c − d·y`
pub fn dscal(c: f64, d: f64, y: &mut [f64]) {
    for yi in y.iter_mut() {
        *yi = c - d * *yi;
    }
}

/// `w ← a·x + b·y + z`
pub fn ddaxpy(a: f64, b: f64, x: &[f64], y: &[f64], z: &[f64]) -> Vec<f64> {
    x.iter().zip(y).zip(z).map(|((xi, yi), zi)| a * xi + b * yi + zi).collect()
}
