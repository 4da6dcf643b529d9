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
//! against native oracles) and the cycle statistics (which the
//! Table II harness converts to seconds).

#[cfg(test)]
mod oracle;
pub mod scalar;
pub mod sve_code;

use crate::cache;
use crate::exec::{ExecConfig, ExecStats, Executor};
use crate::isa::{Instr, D, X};
use crate::mem::SimMem;
use crate::reg::RegFile;
use std::cell::Cell;

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
}

/// A kernel's machine state before it runs, independent of vector
/// length: the memory image, the scalar registers the register
/// convention sets, and where the routine's output array lives.
#[derive(Debug, Clone, PartialEq)]
struct State {
    mem: SimMem,
    x: [u64; 32],
    d: [f64; 32],
    /// Base address of the output array (`y` or `w`); 0 for DPROD, whose
    /// result is `d0`.
    out: usize,
}

impl State {
    fn new(capacity: usize) -> Self {
        State { mem: SimMem::new(capacity), x: [0; 32], d: [0.0; 32], out: 0 }
    }

    /// A zeroed register file at `vl_bits` carrying this state's scalars.
    fn regs(&self, vl_bits: u32) -> RegFile {
        let mut regs = RegFile::new(vl_bits);
        regs.x = self.x;
        regs.d = self.d;
        regs
    }
}

/// Build the initial machine state for MATVEC: the banded memory image
/// and the register convention shared by both variants.
fn matvec_state(sys: &BandedSystem, x: &[f64]) -> State {
    assert_eq!(x.len(), sys.n);
    let n = sys.n;
    let m = sys.m;
    let mut s = State::new(8 * (7 * n + 4 * m) + 4096);
    // x is padded by m zeros on each side so the shifted streams never
    // read out of bounds (boundary coefficients are zero).
    let mut xp = vec![0.0; n + 2 * m];
    xp[m..m + n].copy_from_slice(x);
    let x_base = s.mem.alloc_f64(&xp) + 8 * m; // &x[0]
    s.out = s.mem.alloc_f64_zeroed(n);
    let dc = s.mem.alloc_f64(&sys.dc);
    let dl1 = s.mem.alloc_f64(&sys.dl1);
    let du1 = s.mem.alloc_f64(&sys.du1);
    let dl2 = s.mem.alloc_f64(&sys.dl2);
    let du2 = s.mem.alloc_f64(&sys.du2);

    // Register convention shared by both variants (see builders).
    s.x[0] = dc as u64;
    s.x[1] = dl1 as u64;
    s.x[2] = du1 as u64;
    s.x[3] = dl2 as u64;
    s.x[4] = du2 as u64;
    s.x[5] = x_base as u64;
    s.x[6] = s.out as u64;
    s.x[7] = n as u64;
    s.x[9] = (x_base - 8) as u64; // &x[-1]
    s.x[10] = (x_base + 8) as u64; // &x[+1]
    s.x[11] = (x_base - 8 * m) as u64; // &x[-m]
    s.x[12] = (x_base + 8 * m) as u64; // &x[+m]
    s
}

/// Initial machine state for DPROD.
fn dprod_state(x: &[f64], y: &[f64]) -> State {
    assert_eq!(x.len(), y.len());
    let n = x.len();
    let mut s = State::new(8 * 2 * n + 4096);
    s.x[0] = s.mem.alloc_f64(x) as u64;
    s.x[1] = s.mem.alloc_f64(y) as u64;
    s.x[2] = n as u64;
    s
}

/// Initial machine state for DAXPY; the output is `y`.
fn daxpy_state(a: f64, x: &[f64], y: &[f64]) -> State {
    assert_eq!(x.len(), y.len());
    let n = x.len();
    let mut s = State::new(8 * 2 * n + 4096);
    s.x[0] = s.mem.alloc_f64(x) as u64;
    s.out = s.mem.alloc_f64(y);
    s.x[1] = s.out as u64;
    s.x[2] = n as u64;
    s.d[0] = a;
    s
}

/// Initial machine state for DSCAL; the output is `y`.
fn dscal_state(c: f64, d: f64, y: &[f64]) -> State {
    let n = y.len();
    let mut s = State::new(8 * n + 4096);
    s.out = s.mem.alloc_f64(y);
    s.x[0] = s.out as u64;
    s.x[1] = n as u64;
    s.d[0] = c;
    s.d[1] = d;
    s
}

/// Initial machine state for DDAXPY; the output is `w`.
fn ddaxpy_state(a: f64, b: f64, x: &[f64], y: &[f64], z: &[f64]) -> State {
    assert!(x.len() == y.len() && y.len() == z.len());
    let n = x.len();
    let mut s = State::new(8 * 4 * n + 4096);
    s.x[0] = s.mem.alloc_f64(x) as u64;
    s.x[1] = s.mem.alloc_f64(y) as u64;
    s.x[2] = s.mem.alloc_f64(z) as u64;
    s.out = s.mem.alloc_f64_zeroed(n);
    s.x[3] = s.out as u64;
    s.x[4] = n as u64;
    s.d[0] = a;
    s.d[1] = b;
    s
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

/// Run `routine` on `state` in place; returns the final registers and
/// the stats.
fn run_state(
    routine: Routine,
    state: &mut State,
    variant: Variant,
    cfg: &ExecConfig,
) -> (RegFile, ExecStats) {
    let mut regs = state.regs(cfg.vl_bits);
    let stats = execute(routine, variant, cfg, &mut regs, &mut state.mem);
    (regs, stats)
}

/// Run MATVEC (`y = A·x`) on the simulated core; returns `y` and stats.
pub fn run_matvec(
    sys: &BandedSystem,
    x: &[f64],
    variant: Variant,
    cfg: &ExecConfig,
) -> (Vec<f64>, ExecStats) {
    let mut s = matvec_state(sys, x);
    let (_, stats) = run_state(Routine::Matvec, &mut s, variant, cfg);
    (s.mem.read_f64_slice(s.out, sys.n), stats)
}

/// Run DPROD (`x · y`); returns the dot product and stats.
pub fn run_dprod(x: &[f64], y: &[f64], variant: Variant, cfg: &ExecConfig) -> (f64, ExecStats) {
    let (regs, stats) = run_state(Routine::Dprod, &mut dprod_state(x, y), variant, cfg);
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
    let mut s = daxpy_state(a, x, y);
    let (_, stats) = run_state(Routine::Daxpy, &mut s, variant, cfg);
    (s.mem.read_f64_slice(s.out, x.len()), stats)
}

/// Run DSCAL (`y ← c − d·y`); returns the updated `y` and stats.
pub fn run_dscal(
    c: f64,
    d: f64,
    y: &[f64],
    variant: Variant,
    cfg: &ExecConfig,
) -> (Vec<f64>, ExecStats) {
    let mut s = dscal_state(c, d, y);
    let (_, stats) = run_state(Routine::Dscal, &mut s, variant, cfg);
    (s.mem.read_f64_slice(s.out, y.len()), stats)
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
    let mut s = ddaxpy_state(a, b, x, y, z);
    let (_, stats) = run_state(Routine::Ddaxpy, &mut s, variant, cfg);
    (s.mem.read_f64_slice(s.out, x.len()), stats)
}

/// The standard Table II state of one `(routine, n)`, kept between calls
/// with the pristine contents of its output array.
struct Image {
    routine: Routine,
    n: usize,
    state: State,
    /// The output array as built (empty for DPROD).
    pristine: Vec<f64>,
}

thread_local! {
    /// The image of the last `(routine, n)` this thread ran or prepared.
    /// Between calls it always equals a fresh [`standard_state`].
    static IMAGE: Cell<Option<Image>> = const { Cell::new(None) };
    /// Images built on this thread (tests assert a sweep's count).
    static BUILDS: Cell<u64> = const { Cell::new(0) };
}

/// Build the standard Table II problem of size `n` for `routine`:
/// deterministic `sin`/`cos` inputs and, for MATVEC, a banded system with
/// outlying bands at `m = max(n / 20, 1)` (50 at the paper's n = 1000).
///
/// # Panics
/// For MATVEC with `n < 2`: the banded system needs `1 ≤ m < n`.
fn standard_state(routine: Routine, n: usize) -> State {
    assert!(
        routine != Routine::Matvec || n >= 2,
        "{} needs n ≥ 2 equations, got n = {n}",
        routine.name()
    );
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
    let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.51).cos()).collect();
    match routine {
        Routine::Matvec => matvec_state(&BandedSystem::test_system(n, (n / 20).max(1)), &x),
        Routine::Dprod => dprod_state(&x, &y),
        Routine::Daxpy => daxpy_state(1.7, &x, &y),
        Routine::Dscal => dscal_state(0.9, 1.1, &y),
        Routine::Ddaxpy => {
            let z: Vec<f64> = (0..n).map(|i| 0.5 - (i as f64 * 0.13).sin()).collect();
            ddaxpy_state(1.7, -0.6, &x, &y, &z)
        }
    }
}

/// Run `f` on this thread's image of `(routine, n)`, building it if the
/// slot holds another problem.  The image is out of the slot while `f`
/// runs, so a panic drops it rather than leaving a dirty one behind; `f`
/// must leave it pristine.
fn with_image<T>(routine: Routine, n: usize, f: impl FnOnce(&mut Image) -> T) -> T {
    // The mismatching image is dropped before the build, so a thread
    // never holds two.
    let held = IMAGE.take().filter(|img| img.routine == routine && img.n == n);
    let mut img = held.unwrap_or_else(|| {
        BUILDS.set(BUILDS.get() + 1);
        let state = standard_state(routine, n);
        let len = if routine == Routine::Dprod { 0 } else { n };
        let pristine = state.mem.read_f64_slice(state.out, len);
        Image { routine, n, state, pristine }
    });
    let out = f(&mut img);
    IMAGE.set(Some(img));
    out
}

/// Run `routine` on the standard Table II problem of size `n` (see
/// [`prepare_routine`]); returns stats only.  The driver binary uses this
/// for every cell of the reproduced table.
///
/// Each thread keeps the problem of the last `(routine, n)` it ran or
/// prepared: the kernel runs in place on that image, then the output
/// array (`y`, or `w` for DDAXPY) is written back to its built contents.
/// No kernel writes anywhere else, so the next call sees the state a
/// fresh build would give.  Consecutive calls on one `(routine, n)` — any
/// variant, vector length or residency level — share one build.
///
/// # Panics
/// For MATVEC with `n < 2`.
pub fn run_routine(routine: Routine, n: usize, variant: Variant, cfg: &ExecConfig) -> ExecStats {
    with_image(routine, n, |img| {
        let (_, stats) = run_state(routine, &mut img.state, variant, cfg);
        img.state.mem.store_f64_stream(img.state.out, &img.pristine);
        stats
    })
}

/// The ready-to-run machine state (register file + memory image) for
/// `routine` on the standard Table II problem of size `n` that
/// [`run_routine`] executes: deterministic `sin`/`cos` inputs and, for
/// MATVEC, a banded system with outlying bands at `m = max(n / 20, 1)`.
///
/// Both variants share the register convention, so the state is
/// variant-independent.  It is a copy of the image [`run_routine`] keeps
/// (built on a miss), so the two never disagree.  Harnesses clone this
/// state per repetition to time or fingerprint the bare
/// [`Executor::run_decoded`] call, and the test suites run the reference
/// [`Executor::run`] on it.
///
/// # Panics
/// For MATVEC with `n < 2`.
pub fn prepare_routine(routine: Routine, n: usize, cfg: &ExecConfig) -> (RegFile, SimMem) {
    with_image(routine, n, |img| (img.state.regs(cfg.vl_bits), img.state.mem.clone()))
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
            let expect = oracle::matvec(&sys, &x);
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

    const VARIANTS: [Variant; 2] = [Variant::Scalar, Variant::Sve];

    /// What `run_routine` must return: the kernel run on a fresh build.
    fn fresh_stats(r: Routine, n: usize, v: Variant, c: &ExecConfig) -> ExecStats {
        run_state(r, &mut standard_state(r, n), v, c).1
    }

    #[test]
    fn image_is_pristine_after_every_run() {
        // No kernel writes outside its declared output array: after the
        // restore the kept image equals a fresh build, byte for byte.
        for r in Routine::ALL {
            for n in [2usize, 257, 1000] {
                let fresh = standard_state(r, n);
                for v in VARIANTS {
                    for vl in [128u32, 512, 2048] {
                        run_routine(r, n, v, &cfg().with_vl(vl));
                        let img = IMAGE.take().expect("run_routine leaves its image");
                        assert_eq!((img.routine, img.n), (r, n));
                        assert!(img.state == fresh, "{} {v:?} VL {vl} n={n}", r.name());
                        IMAGE.set(Some(img));
                    }
                }
            }
        }
    }

    #[test]
    fn every_call_order_matches_a_fresh_build() {
        let mut routine_major = Vec::new();
        for r in Routine::ALL {
            for v in VARIANTS {
                for vl in [128u32, 512, 2048] {
                    for n in [2usize, 257] {
                        routine_major.push((r, v, vl, n));
                    }
                }
            }
        }
        // Routine-major and VL-major both change `n` on every call; the
        // third order changes routine on every call: the single slot's
        // worst case.
        let mut vl_major = routine_major.clone();
        vl_major.sort_by_key(|&(r, v, vl, n)| (vl, r as u8, v as u8, n));
        let mut alternating = routine_major.clone();
        alternating.sort_by_key(|&(r, v, vl, n)| (n, v as u8, vl, r as u8));
        for order in [routine_major, vl_major, alternating] {
            for (r, v, vl, n) in order {
                let c = cfg().with_vl(vl);
                let got = run_routine(r, n, v, &c);
                assert_eq!(got, fresh_stats(r, n, v, &c), "{} {v:?} VL {vl} n={n}", r.name());
            }
        }
    }

    #[test]
    fn a_panicking_build_leaves_a_usable_slot() {
        let c = cfg();
        run_routine(Routine::Dprod, 64, Variant::Sve, &c);
        let err = std::panic::catch_unwind(|| run_routine(Routine::Matvec, 1, Variant::Sve, &c))
            .expect_err("MATVEC at n = 1 must panic");
        let msg = err.downcast_ref::<String>().expect("formatted panic message");
        assert!(msg.contains("MATVEC") && msg.contains("n = 1"), "{msg}");
        for v in VARIANTS {
            assert_eq!(
                run_routine(Routine::Dprod, 64, v, &c),
                fresh_stats(Routine::Dprod, 64, v, &c)
            );
        }
        for r in Routine::ALL.into_iter().filter(|&r| r != Routine::Matvec) {
            for n in [0usize, 1] {
                assert_eq!(
                    run_routine(r, n, Variant::Sve, &c),
                    fresh_stats(r, n, Variant::Sve, &c)
                );
            }
        }
    }

    #[test]
    fn a_driver_sweep_builds_one_image_per_routine_run() {
        // The kernel-driver benchmark's cells: routine-major, its start
        // rotated by a seed.  A sweep builds at most one image per
        // contiguous run of a routine — six when the rotation splits one.
        let mut cells = Vec::new();
        for r in Routine::ALL {
            for v in VARIANTS {
                for vl in [128u32, 256, 512, 1024, 2048] {
                    cells.push((r, v, vl));
                }
            }
        }
        for start in [0usize, 7, 33] {
            let mut order = cells.clone();
            order.rotate_left(start);
            for sweep in ["cold", "warm"] {
                let before = BUILDS.get();
                for &(r, v, vl) in &order {
                    run_routine(r, 64, v, &cfg().with_vl(vl));
                }
                let built = BUILDS.get() - before;
                assert!(built <= 6, "{sweep} sweep from cell {start} built {built} images");
            }
        }
    }
}
