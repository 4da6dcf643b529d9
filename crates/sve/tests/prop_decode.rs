//! Property tests: the production engine — pre-decoded, threaded-code
//! [`Executor::run_decoded`], one dispatch per basic block — is
//! bitwise-identical to the reference step interpreter [`Executor::run`]:
//! same registers, same memory image, same [`v2d_sve::ExecStats`] to the
//! cycle, on every kernel program and on randomized straight-line
//! programs, at every vector length and residency level.

use proptest::prelude::*;
use v2d_machine::MemLevel;
use v2d_sve::kernels::{decoded_routine, prepare_routine, Routine, Variant};
use v2d_sve::{DecodedProgram, ExecConfig, Executor, Instr, RegFile, SimMem, D, P, X, Z};

const VLS: [u32; 5] = [128, 256, 512, 1024, 2048];
const LEVELS: [MemLevel; 3] = [MemLevel::L1, MemLevel::L2, MemLevel::Hbm];

/// Every routine × variant cell over the given sizes, vector lengths and
/// levels: the interpreter runs the decoded program's own instruction
/// list on the same prepared state, and stats, registers and memory must
/// agree exactly.
fn kernels_match_the_interpreter(ns: &[usize], vls: &[u32], levels: &[MemLevel]) {
    for &n in ns {
        for &vl in vls {
            for &level in levels {
                let cfg = ExecConfig::a64fx_l1().with_vl(vl).with_level(level);
                let exec = Executor::new(cfg.clone());
                for r in Routine::ALL {
                    for v in [Variant::Scalar, Variant::Sve] {
                        let dp = decoded_routine(r, v, &cfg);
                        let (mut rr, mut mr) = prepare_routine(r, n, &cfg);
                        let sr = exec.run(&dp.instrs(), &mut rr, &mut mr);
                        let (mut rf, mut mf) = prepare_routine(r, n, &cfg);
                        let sf = exec.run_decoded(&dp, &mut rf, &mut mf);
                        let at = format!("{r:?}/{v:?} n={n} vl={vl} level={level:?}");
                        assert_eq!(sf, sr, "stats diverge: {at}");
                        assert_eq!(rf, rr, "registers diverge: {at}");
                        assert_eq!(mf, mr, "memory diverges: {at}");
                    }
                }
            }
        }
    }
}

#[test]
fn every_kernel_matches_the_reference_interpreter() {
    // Tail-heavy sizes exercise chains whose final iteration runs under a
    // partial predicate.
    kernels_match_the_interpreter(&[101, 173], &VLS, &LEVELS);
}

#[test]
fn long_kernels_match_the_reference_interpreter_across_ring_prunes() {
    // At n = 2 000 every scalar cell and every VL-128 SVE cell runs past
    // the 4 096-instruction prune cadence (MATVEC scalar: 36 002 dynamic
    // instructions), so the pipe rings prune, drain and re-seek their
    // cursors mid-run.
    kernels_match_the_interpreter(&[2000], &[128, 512, 2048], &[MemLevel::L1, MemLevel::Hbm]);
}

/// Length of the f64 array random programs may address through `x0`.
const ARR: usize = 256;

/// One random straight-line instruction.  Memory ops go through `x0`
/// (the array base, never overwritten) with in-bounds offsets; vector
/// loads index through `x1` (kept at 0); integer ops write only
/// `x3..x8`, so addresses stay valid for the whole program.
fn arb_instr() -> impl Strategy<Value = Instr> {
    let xd = || (3u8..8).prop_map(X);
    let xs = || (0u8..8).prop_map(X);
    let d = || (0u8..8).prop_map(D);
    let z = || (0u8..8).prop_map(Z);
    let p = || (0u8..4).prop_map(P);
    prop_oneof![
        (xd(), 0u64..64).prop_map(|(dst, imm)| Instr::MovXI { d: dst, imm }),
        (xd(), xs()).prop_map(|(dst, n)| Instr::MovX { d: dst, n }),
        (xd(), xs(), -8i64..64).prop_map(|(dst, n, imm)| Instr::AddXI { d: dst, n, imm }),
        (xd(), xs(), xs()).prop_map(|(dst, n, m)| Instr::AddX { d: dst, n, m }),
        xd().prop_map(|dst| Instr::IncdX { d: dst }),
        xd().prop_map(|dst| Instr::CntdX { d: dst }),
        (d(), -2.0f64..2.0).prop_map(|(dst, imm)| Instr::FMovDI { d: dst, imm }),
        (d(), d()).prop_map(|(dst, n)| Instr::FMovD { d: dst, n }),
        (d(), d(), d()).prop_map(|(dst, n, m)| Instr::FAddD { d: dst, n, m }),
        (d(), d(), d()).prop_map(|(dst, n, m)| Instr::FSubD { d: dst, n, m }),
        (d(), d(), d()).prop_map(|(dst, n, m)| Instr::FMulD { d: dst, n, m }),
        (d(), d(), d(), d()).prop_map(|(dst, n, m, a)| Instr::FMaddD { d: dst, n, m, a }),
        (d(), d()).prop_map(|(dst, n)| Instr::FNegD { d: dst, n }),
        (d(), 0i64..(ARR as i64 - 1)).prop_map(|(dst, k)| Instr::LdrD {
            d: dst,
            base: X(0),
            offset: 8 * k
        }),
        (d(), 0i64..(ARR as i64 - 1)).prop_map(|(s, k)| Instr::StrD {
            s,
            base: X(0),
            offset: 8 * k
        }),
        p().prop_map(|dst| Instr::PtrueD { d: dst }),
        (p(), xs(), xs()).prop_map(|(dst, n, m)| Instr::WhileltD { d: dst, n, m }),
        (z(), d()).prop_map(|(dst, n)| Instr::DupZD { d: dst, n }),
        (z(), -2.0f64..2.0).prop_map(|(dst, imm)| Instr::DupZI { d: dst, imm }),
        (z(), z()).prop_map(|(dst, n)| Instr::MovZ { d: dst, n }),
        (z(), p()).prop_map(|(t, pg)| Instr::Ld1d { t, pg, base: X(0), index: X(1) }),
        (z(), p()).prop_map(|(t, pg)| Instr::St1d { t, pg, base: X(0), index: X(1) }),
        (z(), p(), z(), z()).prop_map(|(dst, pg, n, m)| Instr::FAddZ { d: dst, pg, n, m }),
        (z(), p(), z(), z()).prop_map(|(dst, pg, n, m)| Instr::FSubZ { d: dst, pg, n, m }),
        (z(), p(), z(), z()).prop_map(|(dst, pg, n, m)| Instr::FMulZ { d: dst, pg, n, m }),
        (z(), p(), z(), z()).prop_map(|(da, pg, n, m)| Instr::FMlaZ { da, pg, n, m }),
        (z(), p(), z(), z()).prop_map(|(da, pg, n, m)| Instr::FMlsZ { da, pg, n, m }),
        (z(), p(), z()).prop_map(|(dst, pg, n)| Instr::FNegZ { d: dst, pg, n }),
        (d(), p(), z()).prop_map(|(dst, pg, n)| Instr::FaddvD { d: dst, pg, n }),
    ]
}

fn machine_state(vl: u32, bound: u64) -> (RegFile, SimMem) {
    let mut mem = SimMem::new(8 * ARR + 4096);
    let vals: Vec<f64> = (0..ARR).map(|i| (i as f64 * 0.37).sin() * 0.5).collect();
    let base = mem.alloc_f64(&vals);
    let mut regs = RegFile::new(vl);
    regs.x[0] = base as u64;
    regs.x[1] = 0; // vector-load index: lanes ≤ 32 ≤ ARR
    regs.x[2] = bound;
    for i in 3..8 {
        regs.x[i] = (i as u64) * 3;
    }
    for i in 0..8 {
        regs.d[i] = 0.25 * i as f64 - 0.8;
    }
    (regs, mem)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn random_programs_match_the_reference_interpreter(
        prog in proptest::collection::vec(arb_instr(), 1..48),
        vl in prop_oneof![Just(128u32), Just(256), Just(512), Just(1024), Just(2048)],
        level in prop_oneof![Just(MemLevel::L1), Just(MemLevel::L2), Just(MemLevel::Hbm)],
        bound in 0u64..40,
    ) {
        let cfg = ExecConfig::a64fx_l1().with_vl(vl).with_level(level);
        let exec = Executor::new(cfg.clone());
        let (mut r1, mut m1) = machine_state(vl, bound);
        let s1 = exec.run(&prog, &mut r1, &mut m1);
        let dp = DecodedProgram::decode(&prog, &cfg);
        let (mut r2, mut m2) = machine_state(vl, bound);
        let s2 = exec.run_decoded(&dp, &mut r2, &mut m2);
        prop_assert_eq!(s1, s2, "stats diverge (vl={}, level={:?})", vl, level);
        prop_assert_eq!(r1, r2, "registers diverge (vl={}, level={:?})", vl, level);
        prop_assert_eq!(m1, m2, "memory diverges (vl={}, level={:?})", vl, level);
    }
}
