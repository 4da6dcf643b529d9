//! The five V2D BiCGSTAB kernels of the paper's Table II, written against
//! the simulated ISA in both scalar and SVE form.
//!
//! | Routine | Operation (paper's definition) |
//! |---------|--------------------------------|
//! | MATVEC  | pentadiagonal matrix-vector product |
//! | DPROD   | dot product |
//! | DAXPY   | `y ← a·x + y` |
//! | DSCAL   | `y ← c − d·y` |
//! | DDAXPY  | `w ← a·x + b·y + z` |
//!
//! The scalar variants mirror what an optimizing compiler emits *without*
//! SVE (moving-pointer unrolled reduction with four accumulators for
//! DPROD, straightforward pipelined element loops elsewhere); the SVE
//! variants use vector-length-agnostic `whilelt` loops, exactly the
//! codegen pattern of the Cray and Fujitsu compilers on A64FX.  Each
//! runner executes the program on the simulated core, checks nothing
//! itself, and returns both the architectural result (so tests can compare
//! against the native oracles here) and the cycle statistics (which the
//! Table II harness converts to seconds).

pub mod scalar;
pub mod sve_code;

use crate::cache;
use crate::exec::{ExecConfig, ExecStats, Executor};
use crate::isa::{Instr, D, X};
use crate::mem::SimMem;
use crate::reg::RegFile;

/// Which implementation of a kernel to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Optimized scalar code (the paper's "No-SVE" column).
    Scalar,
    /// Vector-length-agnostic SVE code (the paper's "SVE" column).
    Sve,
}

/// The five Table II routines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Routine {
    Matvec,
    Dprod,
    Daxpy,
    Dscal,
    Ddaxpy,
}

impl Routine {
    /// All routines in the paper's Table II row order.
    pub const ALL: [Routine; 5] =
        [Routine::Matvec, Routine::Dprod, Routine::Daxpy, Routine::Dscal, Routine::Ddaxpy];

    /// The paper's row label.
    pub fn name(self) -> &'static str {
        match self {
            Routine::Matvec => "MATVEC",
            Routine::Dprod => "DPROD",
            Routine::Daxpy => "DAXPY",
            Routine::Dscal => "DSCAL",
            Routine::Ddaxpy => "DDAXPY",
        }
    }
}

/// A pentadiagonal system in the V2D banded form: bands at offsets
/// `0, ±1, ±m` (the `±m` bands are the x2-direction couplings at distance
/// x1 in the dictionary-ordered grid; the paper's Fig. 1 shows exactly
/// this pattern).  Boundary rows carry zero coefficients in the bands that
/// would reach outside, so the operator needs no branches.
#[derive(Debug, Clone, PartialEq)]
pub struct BandedSystem {
    /// Number of equations.
    pub n: usize,
    /// Offset of the outlying bands (the paper's x1).
    pub m: usize,
    /// Main diagonal.
    pub dc: Vec<f64>,
    /// Sub/super-diagonal at ±1.
    pub dl1: Vec<f64>,
    pub du1: Vec<f64>,
    /// Outlying bands at ±m.
    pub dl2: Vec<f64>,
    pub du2: Vec<f64>,
}

impl BandedSystem {
    /// A diagonally dominant test system with deterministic, non-trivial
    /// coefficients (boundary band entries zeroed).
    pub fn test_system(n: usize, m: usize) -> Self {
        assert!(m >= 1 && m < n, "band offset must satisfy 1 ≤ m < n");
        let f = |i: usize, k: u32| ((i as f64 + 1.3 * k as f64).sin() * 0.2) - 0.25;
        let mut sys = BandedSystem {
            n,
            m,
            dc: (0..n).map(|i| 4.0 + 0.1 * (i as f64).cos()).collect(),
            dl1: (0..n).map(|i| f(i, 1)).collect(),
            du1: (0..n).map(|i| f(i, 2)).collect(),
            dl2: (0..n).map(|i| f(i, 3)).collect(),
            du2: (0..n).map(|i| f(i, 4)).collect(),
        };
        sys.dl1[0] = 0.0;
        sys.du1[n - 1] = 0.0;
        for i in 0..m.min(n) {
            sys.dl2[i] = 0.0;
            sys.du2[n - 1 - i] = 0.0;
        }
        sys
    }

    /// Native oracle: `y = A·x`.
    pub fn matvec_reference(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n);
        let n = self.n;
        let m = self.m;
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut v = self.dc[i] * x[i];
            if i >= 1 {
                v += self.dl1[i] * x[i - 1];
            }
            if i + 1 < n {
                v += self.du1[i] * x[i + 1];
            }
            if i >= m {
                v += self.dl2[i] * x[i - m];
            }
            if i + m < n {
                v += self.du2[i] * x[i + m];
            }
            y[i] = v;
        }
        y
    }
}

/// Native oracles for the vector routines (used by tests and by the
/// Table II harness to verify the simulated kernels).
pub mod oracle {
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
}

/// Build the initial machine state for MATVEC: the banded memory image
/// and the register convention shared by both variants.  Returns the
/// ready-to-run `(regs, mem)` plus the address of `y` for readback.
fn matvec_state(sys: &BandedSystem, x: &[f64], vl_bits: u32) -> (RegFile, SimMem, usize) {
    assert_eq!(x.len(), sys.n);
    let n = sys.n;
    let m = sys.m;
    let mut mem = SimMem::new(8 * (7 * n + 4 * m) + 4096);
    // x is padded by m zeros on each side so the shifted streams never
    // read out of bounds (boundary coefficients are zero).
    let mut xp = vec![0.0; n + 2 * m];
    xp[m..m + n].copy_from_slice(x);
    let x_base = mem.alloc_f64(&xp) + 8 * m; // &x[0]
    let y_base = mem.alloc_f64_zeroed(n);
    let dc = mem.alloc_f64(&sys.dc);
    let dl1 = mem.alloc_f64(&sys.dl1);
    let du1 = mem.alloc_f64(&sys.du1);
    let dl2 = mem.alloc_f64(&sys.dl2);
    let du2 = mem.alloc_f64(&sys.du2);

    let mut regs = RegFile::new(vl_bits);
    // Register convention shared by both variants (see builders).
    regs.x[0] = dc as u64;
    regs.x[1] = dl1 as u64;
    regs.x[2] = du1 as u64;
    regs.x[3] = dl2 as u64;
    regs.x[4] = du2 as u64;
    regs.x[5] = x_base as u64;
    regs.x[6] = y_base as u64;
    regs.x[7] = n as u64;
    regs.x[9] = (x_base - 8) as u64; // &x[-1]
    regs.x[10] = (x_base + 8) as u64; // &x[+1]
    regs.x[11] = (x_base - 8 * m) as u64; // &x[-m]
    regs.x[12] = (x_base + 8 * m) as u64; // &x[+m]
    (regs, mem, y_base)
}

/// Initial machine state for DPROD.
fn dprod_state(x: &[f64], y: &[f64], vl_bits: u32) -> (RegFile, SimMem) {
    assert_eq!(x.len(), y.len());
    let n = x.len();
    let mut mem = SimMem::new(8 * 2 * n + 4096);
    let xb = mem.alloc_f64(x);
    let yb = mem.alloc_f64(y);
    let mut regs = RegFile::new(vl_bits);
    regs.x[0] = xb as u64;
    regs.x[1] = yb as u64;
    regs.x[2] = n as u64;
    (regs, mem)
}

/// Initial machine state for DAXPY; also returns the address of `y`.
fn daxpy_state(a: f64, x: &[f64], y: &[f64], vl_bits: u32) -> (RegFile, SimMem, usize) {
    assert_eq!(x.len(), y.len());
    let n = x.len();
    let mut mem = SimMem::new(8 * 2 * n + 4096);
    let xb = mem.alloc_f64(x);
    let yb = mem.alloc_f64(y);
    let mut regs = RegFile::new(vl_bits);
    regs.x[0] = xb as u64;
    regs.x[1] = yb as u64;
    regs.x[2] = n as u64;
    regs.d[0] = a;
    (regs, mem, yb)
}

/// Initial machine state for DSCAL; also returns the address of `y`.
fn dscal_state(c: f64, d: f64, y: &[f64], vl_bits: u32) -> (RegFile, SimMem, usize) {
    let n = y.len();
    let mut mem = SimMem::new(8 * n + 4096);
    let yb = mem.alloc_f64(y);
    let mut regs = RegFile::new(vl_bits);
    regs.x[0] = yb as u64;
    regs.x[1] = n as u64;
    regs.d[0] = c;
    regs.d[1] = d;
    (regs, mem, yb)
}

/// Initial machine state for DDAXPY; also returns the address of `w`.
fn ddaxpy_state(
    a: f64,
    b: f64,
    x: &[f64],
    y: &[f64],
    z: &[f64],
    vl_bits: u32,
) -> (RegFile, SimMem, usize) {
    assert!(x.len() == y.len() && y.len() == z.len());
    let n = x.len();
    let mut mem = SimMem::new(8 * 4 * n + 4096);
    let xb = mem.alloc_f64(x);
    let yb = mem.alloc_f64(y);
    let zb = mem.alloc_f64(z);
    let wb = mem.alloc_f64_zeroed(n);
    let mut regs = RegFile::new(vl_bits);
    regs.x[0] = xb as u64;
    regs.x[1] = yb as u64;
    regs.x[2] = zb as u64;
    regs.x[3] = wb as u64;
    regs.x[4] = n as u64;
    regs.d[0] = a;
    regs.d[1] = b;
    (regs, mem, wb)
}

/// Stable cache key of a kernel program.  The builders are shape-agnostic
/// (problem sizes arrive in registers), so (routine, variant) names the
/// instruction sequence exactly.
fn program_key(routine: Routine, variant: Variant) -> &'static str {
    match (routine, variant) {
        (Routine::Matvec, Variant::Scalar) => "matvec/scalar",
        (Routine::Matvec, Variant::Sve) => "matvec/sve",
        (Routine::Dprod, Variant::Scalar) => "dprod/scalar",
        (Routine::Dprod, Variant::Sve) => "dprod/sve",
        (Routine::Daxpy, Variant::Scalar) => "daxpy/scalar",
        (Routine::Daxpy, Variant::Sve) => "daxpy/sve",
        (Routine::Dscal, Variant::Scalar) => "dscal/scalar",
        (Routine::Dscal, Variant::Sve) => "dscal/sve",
        (Routine::Ddaxpy, Variant::Scalar) => "ddaxpy/scalar",
        (Routine::Ddaxpy, Variant::Sve) => "ddaxpy/sve",
    }
}

/// Assemble a kernel program from its builder (counted, so cache tests
/// can assert the warm path never reaches here).
fn build_program(routine: Routine, variant: Variant) -> Vec<Instr> {
    cache::note_assembled();
    match (routine, variant) {
        (Routine::Matvec, Variant::Scalar) => scalar::matvec(),
        (Routine::Matvec, Variant::Sve) => sve_code::matvec(),
        (Routine::Dprod, Variant::Scalar) => scalar::dprod(),
        (Routine::Dprod, Variant::Sve) => sve_code::dprod(),
        (Routine::Daxpy, Variant::Scalar) => scalar::daxpy(),
        (Routine::Daxpy, Variant::Sve) => sve_code::daxpy(),
        (Routine::Dscal, Variant::Scalar) => scalar::dscal(),
        (Routine::Dscal, Variant::Sve) => sve_code::dscal(),
        (Routine::Ddaxpy, Variant::Scalar) => scalar::ddaxpy(),
        (Routine::Ddaxpy, Variant::Sve) => sve_code::ddaxpy(),
    }
}

/// Execute a kernel's cached pre-decoded program on a prepared machine
/// state.
fn execute(
    routine: Routine,
    variant: Variant,
    cfg: &ExecConfig,
    regs: &mut RegFile,
    mem: &mut SimMem,
) -> ExecStats {
    let dp = decoded_routine(routine, variant, cfg);
    Executor::new(cfg.clone()).run_decoded(&dp, regs, mem)
}

/// Run MATVEC (`y = A·x`) on the simulated core; returns `y` and stats.
pub fn run_matvec(
    sys: &BandedSystem,
    x: &[f64],
    variant: Variant,
    cfg: &ExecConfig,
) -> (Vec<f64>, ExecStats) {
    let (mut regs, mut mem, y_base) = matvec_state(sys, x, cfg.vl_bits);
    let stats = execute(Routine::Matvec, variant, cfg, &mut regs, &mut mem);
    (mem.read_f64_slice(y_base, sys.n), stats)
}

/// Run DPROD (`x · y`); returns the dot product and stats.
pub fn run_dprod(x: &[f64], y: &[f64], variant: Variant, cfg: &ExecConfig) -> (f64, ExecStats) {
    let (mut regs, mut mem) = dprod_state(x, y, cfg.vl_bits);
    let stats = execute(Routine::Dprod, variant, cfg, &mut regs, &mut mem);
    (regs.d[0], stats)
}

/// Run DAXPY (`y ← a·x + y`); returns the updated `y` and stats.
pub fn run_daxpy(
    a: f64,
    x: &[f64],
    y: &[f64],
    variant: Variant,
    cfg: &ExecConfig,
) -> (Vec<f64>, ExecStats) {
    let (mut regs, mut mem, yb) = daxpy_state(a, x, y, cfg.vl_bits);
    let stats = execute(Routine::Daxpy, variant, cfg, &mut regs, &mut mem);
    (mem.read_f64_slice(yb, x.len()), stats)
}

/// Run DSCAL (`y ← c − d·y`); returns the updated `y` and stats.
pub fn run_dscal(
    c: f64,
    d: f64,
    y: &[f64],
    variant: Variant,
    cfg: &ExecConfig,
) -> (Vec<f64>, ExecStats) {
    let (mut regs, mut mem, yb) = dscal_state(c, d, y, cfg.vl_bits);
    let stats = execute(Routine::Dscal, variant, cfg, &mut regs, &mut mem);
    (mem.read_f64_slice(yb, y.len()), stats)
}

/// Run DDAXPY (`w ← a·x + b·y + z`); returns `w` and stats.
pub fn run_ddaxpy(
    a: f64,
    b: f64,
    x: &[f64],
    y: &[f64],
    z: &[f64],
    variant: Variant,
    cfg: &ExecConfig,
) -> (Vec<f64>, ExecStats) {
    let (mut regs, mut mem, wb) = ddaxpy_state(a, b, x, y, z, cfg.vl_bits);
    let stats = execute(Routine::Ddaxpy, variant, cfg, &mut regs, &mut mem);
    (mem.read_f64_slice(wb, x.len()), stats)
}

/// Run `routine` on a standard Table II problem (banded system with band
/// offset `m = 50`, deterministic data) of size `n`; returns stats only.
/// The driver binary uses this for every cell of the reproduced table.
pub fn run_routine(routine: Routine, n: usize, variant: Variant, cfg: &ExecConfig) -> ExecStats {
    let (mut regs, mut mem) = prepare_routine(routine, n, cfg);
    execute(routine, variant, cfg, &mut regs, &mut mem)
}

/// Build the ready-to-run machine state (register file + memory image)
/// for `routine` on the standard Table II problem of size `n` that
/// [`run_routine`] executes.
///
/// Both variants share the register convention, so the state is
/// variant-independent.  Harnesses clone this state per repetition to
/// time or fingerprint the bare [`Executor::run_decoded`] call, and the
/// test suites run the reference [`Executor::run`] on it.
pub fn prepare_routine(routine: Routine, n: usize, cfg: &ExecConfig) -> (RegFile, SimMem) {
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
    let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.51).cos()).collect();
    let z: Vec<f64> = (0..n).map(|i| 0.5 - (i as f64 * 0.13).sin()).collect();
    match routine {
        Routine::Matvec => {
            let m = (n / 20).max(1);
            let sys = BandedSystem::test_system(n, m);
            let (regs, mem, _) = matvec_state(&sys, &x, cfg.vl_bits);
            (regs, mem)
        }
        Routine::Dprod => dprod_state(&x, &y, cfg.vl_bits),
        Routine::Daxpy => {
            let (regs, mem, _) = daxpy_state(1.7, &x, &y, cfg.vl_bits);
            (regs, mem)
        }
        Routine::Dscal => {
            let (regs, mem, _) = dscal_state(0.9, 1.1, &y, cfg.vl_bits);
            (regs, mem)
        }
        Routine::Ddaxpy => {
            let (regs, mem, _) = ddaxpy_state(1.7, -0.6, &x, &y, &z, cfg.vl_bits);
            (regs, mem)
        }
    }
}

/// The cached decoded program for `(routine, variant)` under `cfg` —
/// what the `run_*` functions execute, exposed so harnesses can time or
/// inspect the program without re-entering the cache per call.
pub fn decoded_routine(
    routine: Routine,
    variant: Variant,
    cfg: &ExecConfig,
) -> std::sync::Arc<crate::decode::DecodedProgram> {
    cache::cached_program(program_key(routine, variant), cfg, || build_program(routine, variant))
}

// Register-convention documentation shared with the builders: kept here so
// doc links resolve from both submodules.
pub(crate) const _CONVENTION: (X, D) = (X(0), D(0));

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ExecConfig {
        ExecConfig::a64fx_l1()
    }

    fn approx_eq_slice(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
                "mismatch at {i}: {x} vs {y}"
            );
        }
    }

    fn test_vec(n: usize, seed: f64) -> Vec<f64> {
        (0..n).map(|i| ((i as f64) * seed).sin() + 0.1).collect()
    }

    #[test]
    fn daxpy_matches_oracle_both_variants() {
        for n in [1usize, 7, 8, 16, 100, 1000] {
            let x = test_vec(n, 0.37);
            let y = test_vec(n, 0.51);
            let mut expect = y.clone();
            oracle::daxpy(1.7, &x, &mut expect);
            for v in [Variant::Scalar, Variant::Sve] {
                let (got, stats) = run_daxpy(1.7, &x, &y, v, &cfg());
                approx_eq_slice(&got, &expect, 1e-15);
                assert!(stats.cycles > 0);
            }
        }
    }

    #[test]
    fn dprod_matches_oracle_both_variants() {
        for n in [1usize, 3, 8, 9, 100, 1000, 1003] {
            let x = test_vec(n, 0.21);
            let y = test_vec(n, 0.83);
            let expect = oracle::dprod(&x, &y);
            for v in [Variant::Scalar, Variant::Sve] {
                let (got, _) = run_dprod(&x, &y, v, &cfg());
                assert!(
                    (got - expect).abs() < 1e-10 * (1.0 + expect.abs()),
                    "{v:?} n={n}: {got} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn dscal_matches_oracle_both_variants() {
        for n in [1usize, 8, 13, 1000] {
            let y = test_vec(n, 0.77);
            let mut expect = y.clone();
            oracle::dscal(0.9, 1.1, &mut expect);
            for v in [Variant::Scalar, Variant::Sve] {
                let (got, _) = run_dscal(0.9, 1.1, &y, v, &cfg());
                approx_eq_slice(&got, &expect, 1e-15);
            }
        }
    }

    #[test]
    fn ddaxpy_matches_oracle_both_variants() {
        for n in [1usize, 8, 25, 1000] {
            let x = test_vec(n, 0.37);
            let y = test_vec(n, 0.51);
            let z = test_vec(n, 0.13);
            let expect = oracle::ddaxpy(1.7, -0.6, &x, &y, &z);
            for v in [Variant::Scalar, Variant::Sve] {
                let (got, _) = run_ddaxpy(1.7, -0.6, &x, &y, &z, v, &cfg());
                approx_eq_slice(&got, &expect, 1e-15);
            }
        }
    }

    #[test]
    fn matvec_matches_oracle_both_variants() {
        for (n, m) in [(10usize, 3usize), (64, 8), (1000, 50), (1000, 200)] {
            let sys = BandedSystem::test_system(n, m);
            let x = test_vec(n, 0.29);
            let expect = sys.matvec_reference(&x);
            for v in [Variant::Scalar, Variant::Sve] {
                let (got, _) = run_matvec(&sys, &x, v, &cfg());
                approx_eq_slice(&got, &expect, 1e-13);
            }
        }
    }

    #[test]
    fn sve_is_faster_for_every_routine_at_n1000() {
        // The qualitative content of Table II.
        for r in Routine::ALL {
            let s = run_routine(r, 1000, Variant::Scalar, &cfg());
            let v = run_routine(r, 1000, Variant::Sve, &cfg());
            assert!(
                (v.cycles as f64) < 0.5 * s.cycles as f64,
                "{}: SVE {} vs scalar {} cycles — expected ≥2× speedup",
                r.name(),
                v.cycles,
                s.cycles
            );
        }
    }

    #[test]
    fn sve_results_are_vl_agnostic() {
        // Same kernel, every legal power-of-two VL: identical results.
        let x = test_vec(123, 0.41);
        let y = test_vec(123, 0.73);
        let (base, _) = run_daxpy(2.2, &x, &y, Variant::Sve, &cfg().with_vl(128));
        for vl in [256u32, 512, 1024, 2048] {
            let (got, _) = run_daxpy(2.2, &x, &y, Variant::Sve, &cfg().with_vl(vl));
            approx_eq_slice(&got, &base, 0.0);
        }
    }

    #[test]
    fn wider_vectors_take_fewer_cycles() {
        let stats128 = run_routine(Routine::Daxpy, 1000, Variant::Sve, &cfg().with_vl(128));
        let stats1024 = run_routine(Routine::Daxpy, 1000, Variant::Sve, &cfg().with_vl(1024));
        assert!(stats1024.cycles < stats128.cycles);
    }

    #[test]
    fn prepared_state_reproduces_run_routine() {
        // prepare_routine + decoded_routine is exactly what run_routine
        // does internally, minus the readback — same stats, both
        // variants, every routine.
        for r in Routine::ALL {
            for v in [Variant::Scalar, Variant::Sve] {
                let c = cfg();
                let expect = run_routine(r, 257, v, &c);
                let (mut regs, mut mem) = prepare_routine(r, 257, &c);
                let dp = decoded_routine(r, v, &c);
                let exec = Executor::new(c.clone());
                let stats = exec.run_decoded(&dp, &mut regs, &mut mem);
                assert_eq!(stats, expect, "{} {:?}", r.name(), v);
            }
        }
    }

    #[test]
    fn banded_system_rejects_bad_offset() {
        let r = std::panic::catch_unwind(|| BandedSystem::test_system(10, 10));
        assert!(r.is_err());
    }
}
