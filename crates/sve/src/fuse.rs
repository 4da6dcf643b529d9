//! Superinstruction fusion: pattern-matching stereotyped micro-op chains
//! of a [`crate::decode::DecodedProgram`] into superops.
//!
//! The paper's kernels are built from a handful of idioms — `whilelt` →
//! `ld1d` streaming preambles, load → FMA → store bodies, the
//! strictly-ordered `faddv` reduction ladder, and their scalar
//! counterparts — and every dynamic iteration replays the same short
//! chain.  The fusion pass recognizes those chains *syntactically* (by
//! opcode sequence; operands are free, so the same pattern covers every
//! kernel and most random programs) and groups them into superops that the
//! threaded-code engine in [`crate::thread`] dispatches with a single
//! indirect call.
//!
//! Fusion only groups dispatch: the runtime charges every part
//! individually, in program order.  The pipe-reservation state
//! (backfilling ring buffers) and the cumulative-bytes bandwidth limiter
//! are serial recurrences with no closed form, and replaying the
//! per-part arithmetic is what keeps modeled cycles bit-identical to the
//! reference interpreter ([`crate::exec::Executor::run`]) by
//! construction.
//!
//! Chain boundaries respect control flow: a chain may *start* at a branch
//! target, may *end* with a conditional branch, but no interior part may
//! be a branch target or a branch.

use crate::decode::DecodedOp;
use crate::isa::Instr;
use std::sync::atomic::{AtomicU64, Ordering};

/// Chains formed at decode time, process-wide (mirrors
/// [`crate::decode::decode_count`]; tests and the `sve.fuse.*` gate
/// entries consume deltas of these counters).
static FUSED_CHAINS: AtomicU64 = AtomicU64::new(0);
/// Dynamic instructions executed *inside* fused chains by the threaded
/// engine, process-wide.
static FUSED_DYN: AtomicU64 = AtomicU64::new(0);
/// Total dynamic instructions executed by the threaded engine (the
/// denominator of the dynamic fused-op fraction).
static DYN_TOTAL: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of chains formed at decode time.
pub fn fused_chain_count() -> u64 {
    FUSED_CHAINS.load(Ordering::Relaxed)
}

/// Process-wide dynamic instructions executed inside fused chains.
pub fn fused_dyn_count() -> u64 {
    FUSED_DYN.load(Ordering::Relaxed)
}

/// Process-wide dynamic instructions executed by the threaded engine.
pub fn dyn_total_count() -> u64 {
    DYN_TOTAL.load(Ordering::Relaxed)
}

thread_local! {
    /// `(fused_dyn, dyn_total)` of the most recent threaded-engine run
    /// on this thread.  The process-wide counters above aggregate every
    /// thread; harnesses that need a *deterministic* snapshot (the
    /// `sve.fuse.*` bench gate runs inside a multi-threaded test
    /// process) read this instead of racing on deltas.
    static LAST_RUN: std::cell::Cell<(u64, u64)> = const { std::cell::Cell::new((0, 0)) };
}

/// `(fused dynamic instructions, total dynamic instructions)` of the
/// most recent threaded-engine run on the calling thread.
pub fn last_run_fuse_counts() -> (u64, u64) {
    LAST_RUN.with(|c| c.get())
}

/// Fold one threaded-engine run into the process counters.
pub(crate) fn note_run(fused_dyn: u64, total_dyn: u64) {
    FUSED_DYN.fetch_add(fused_dyn, Ordering::Relaxed);
    DYN_TOTAL.fetch_add(total_dyn, Ordering::Relaxed);
    LAST_RUN.with(|c| c.set((fused_dyn, total_dyn)));
}

fn note_chains(n: u64) {
    FUSED_CHAINS.fetch_add(n, Ordering::Relaxed);
}

/// Coarse opcode class used for syntactic pattern matching.  Instructions
/// outside this table never participate in a chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OpClass {
    Whilelt,
    Ptrue,
    Ld1d,
    St1d,
    Fmla,
    FmulZ,
    FaddZ,
    MovZ,
    Faddv,
    Incd,
    /// Conditional backward branch `b.lt` — only ever the *last* part.
    Blt,
    /// Scalar scaled-index load/store.
    LdrS,
    StrS,
    Fmadd,
    FmulD,
    AddI,
}

impl OpClass {
    /// A representative instruction of the class — used to dedupe the
    /// compound mnemonics through [`crate::disasm::mnemonic`] in the
    /// pattern-table test suite.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn representative(self) -> Instr {
        use crate::isa::{D, P, X, Z};
        match self {
            OpClass::Whilelt => Instr::WhileltD { d: P(0), n: X(0), m: X(1) },
            OpClass::Ptrue => Instr::PtrueD { d: P(0) },
            OpClass::Ld1d => Instr::Ld1d { t: Z(0), pg: P(0), base: X(0), index: X(1) },
            OpClass::St1d => Instr::St1d { t: Z(0), pg: P(0), base: X(0), index: X(1) },
            OpClass::Fmla => Instr::FMlaZ { da: Z(0), pg: P(0), n: Z(1), m: Z(2) },
            OpClass::FmulZ => Instr::FMulZ { d: Z(0), pg: P(0), n: Z(1), m: Z(2) },
            OpClass::FaddZ => Instr::FAddZ { d: Z(0), pg: P(0), n: Z(1), m: Z(2) },
            OpClass::MovZ => Instr::MovZ { d: Z(0), n: Z(1) },
            OpClass::Faddv => Instr::FaddvD { d: D(0), pg: P(0), n: Z(0) },
            OpClass::Incd => Instr::IncdX { d: X(0) },
            OpClass::Blt => Instr::BLtX { n: X(0), m: X(1), target: 0 },
            OpClass::LdrS => Instr::LdrDScaled { d: D(0), base: X(0), index: X(1) },
            OpClass::StrS => Instr::StrDScaled { s: D(0), base: X(0), index: X(1) },
            OpClass::Fmadd => Instr::FMaddD { d: D(0), n: D(1), m: D(2), a: D(3) },
            OpClass::FmulD => Instr::FMulD { d: D(0), n: D(1), m: D(2) },
            OpClass::AddI => Instr::AddXI { d: X(0), n: X(1), imm: 1 },
        }
    }
}

/// Classify an instruction for pattern matching (`None` = never fused).
pub(crate) fn classify(i: &Instr) -> Option<OpClass> {
    use Instr::*;
    Some(match i {
        WhileltD { .. } => OpClass::Whilelt,
        PtrueD { .. } => OpClass::Ptrue,
        Ld1d { .. } => OpClass::Ld1d,
        St1d { .. } => OpClass::St1d,
        FMlaZ { .. } => OpClass::Fmla,
        FMulZ { .. } => OpClass::FmulZ,
        FAddZ { .. } => OpClass::FaddZ,
        MovZ { .. } => OpClass::MovZ,
        FaddvD { .. } => OpClass::Faddv,
        IncdX { .. } => OpClass::Incd,
        BLtX { .. } => OpClass::Blt,
        LdrDScaled { .. } => OpClass::LdrS,
        StrDScaled { .. } => OpClass::StrS,
        FMaddD { .. } => OpClass::Fmadd,
        FMulD { .. } => OpClass::FmulD,
        AddXI { .. } => OpClass::AddI,
        _ => return None,
    })
}

/// The pattern table, longest first (the matcher is greedy).  Names are
/// the compound mnemonics — each is the parts' [`crate::disasm::mnemonic`]
/// joined by `+`, asserted by a test so the table can never drift from
/// the canonical mnemonic table.
///
/// The long entries are the whole loop bodies of the paper's ten kernels;
/// the short ones mop up partial matches in randomized programs.  `Blt`
/// appears only in final position (chains never span a branch).
pub(crate) const PATTERNS: &[(&str, &[OpClass])] = {
    use OpClass::*;
    &[
        (
            "whilelt+ld1d+ld1d+ld1d+fmla+fmla+st1d+incd+b.lt",
            &[Whilelt, Ld1d, Ld1d, Ld1d, Fmla, Fmla, St1d, Incd, Blt],
        ),
        (
            "ldr+ldr+ldr+fmadd+fmadd+str+add+b.lt",
            &[LdrS, LdrS, LdrS, Fmadd, Fmadd, StrS, AddI, Blt],
        ),
        ("whilelt+ld1d+ld1d+fmla+st1d+incd+b.lt", &[Whilelt, Ld1d, Ld1d, Fmla, St1d, Incd, Blt]),
        ("whilelt+ld1d+mov.z+fmla+st1d+incd+b.lt", &[Whilelt, Ld1d, MovZ, Fmla, St1d, Incd, Blt]),
        ("whilelt+ld1d+ld1d+fmla+incd+b.lt", &[Whilelt, Ld1d, Ld1d, Fmla, Incd, Blt]),
        ("ldr+ldr+fmadd+str+add+b.lt", &[LdrS, LdrS, Fmadd, StrS, AddI, Blt]),
        ("whilelt+ld1d+ld1d+fmla+incd", &[Whilelt, Ld1d, Ld1d, Fmla, Incd]),
        ("ldr+ldr+fmadd+add+b.lt", &[LdrS, LdrS, Fmadd, AddI, Blt]),
        ("ldr+fmadd+str+add+b.lt", &[LdrS, Fmadd, StrS, AddI, Blt]),
        ("whilelt+ld1d+ld1d+fmul.z", &[Whilelt, Ld1d, Ld1d, FmulZ]),
        ("ptrue+fadd.z+faddv", &[Ptrue, FaddZ, Faddv]),
        ("ld1d+ld1d+fmla", &[Ld1d, Ld1d, Fmla]),
        ("st1d+incd+b.lt", &[St1d, Incd, Blt]),
        ("ldr+ldr+fmadd", &[LdrS, LdrS, Fmadd]),
        ("ldr+ldr+fmul", &[LdrS, LdrS, FmulD]),
        ("str+add+b.lt", &[StrS, AddI, Blt]),
        ("fadd.z+faddv", &[FaddZ, Faddv]),
        ("whilelt+ld1d", &[Whilelt, Ld1d]),
        ("ld1d+fmla", &[Ld1d, Fmla]),
        ("fmla+st1d", &[Fmla, St1d]),
        ("incd+b.lt", &[Incd, Blt]),
        ("fmadd+str", &[Fmadd, StrS]),
        ("ldr+fmadd", &[LdrS, Fmadd]),
        ("add+b.lt", &[AddI, Blt]),
    ]
};

/// One fused chain of the plan.
#[derive(Debug, Clone)]
pub(crate) struct FusedChain {
    /// First instruction index.
    pub start: usize,
    /// Number of fused parts.
    pub len: usize,
    /// Compound mnemonic from [`PATTERNS`].
    pub name: &'static str,
}

/// One dispatch group: a fused chain or a single plain op.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Group {
    pub start: usize,
    pub len: usize,
    /// Index into [`FusionPlan::chains`] when fused.
    pub chain: Option<u32>,
}

/// The fusion plan: a partition of the program into dispatch groups.
#[derive(Debug, Clone, Default)]
pub(crate) struct FusionPlan {
    pub groups: Vec<Group>,
    pub chains: Vec<FusedChain>,
}

/// Build the fusion plan for a decoded program: greedy longest-first
/// matching of [`PATTERNS`] over the opcode classes, never fusing across
/// an interior branch target.
pub(crate) fn plan(ops: &[DecodedOp]) -> FusionPlan {
    let mut is_target = vec![false; ops.len() + 1];
    for op in ops {
        if let Instr::B { target } | Instr::BLtX { target, .. } | Instr::BGeX { target, .. } =
            op.instr
        {
            if let Some(t) = is_target.get_mut(target) {
                *t = true;
            }
        }
    }
    let classes: Vec<Option<OpClass>> = ops.iter().map(|o| classify(&o.instr)).collect();

    let mut plan = FusionPlan::default();
    let mut pc = 0usize;
    while pc < ops.len() {
        let matched = PATTERNS.iter().find(|(_, pat)| {
            pc + pat.len() <= ops.len()
                && pat.iter().enumerate().all(|(k, cl)| classes[pc + k] == Some(*cl))
                && (1..pat.len()).all(|k| !is_target[pc + k])
        });
        match matched {
            Some(&(name, pat)) => {
                let len = pat.len();
                plan.chains.push(FusedChain { start: pc, len, name });
                plan.groups.push(Group {
                    start: pc,
                    len,
                    chain: Some((plan.chains.len() - 1) as u32),
                });
                pc += len;
            }
            None => {
                plan.groups.push(Group { start: pc, len: 1, chain: None });
                pc += 1;
            }
        }
    }
    note_chains(plan.chains.len() as u64);
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::DecodedProgram;
    use crate::disasm::mnemonic;
    use crate::exec::ExecConfig;
    use crate::kernels::{scalar, sve_code};

    #[test]
    fn pattern_names_are_deduped_through_the_mnemonic_table() {
        for (name, classes) in PATTERNS {
            let joined =
                classes.iter().map(|c| mnemonic(&c.representative())).collect::<Vec<_>>().join("+");
            assert_eq!(*name, joined, "pattern name drifted from disasm::mnemonic");
        }
    }

    #[test]
    fn branches_only_terminate_patterns() {
        for (name, classes) in PATTERNS {
            for (k, c) in classes.iter().enumerate() {
                assert!(
                    *c != OpClass::Blt || k == classes.len() - 1,
                    "{name}: branch in non-final position"
                );
            }
        }
    }

    #[test]
    fn table_is_longest_first_and_classes_roundtrip() {
        for w in PATTERNS.windows(2) {
            assert!(w[0].1.len() >= w[1].1.len(), "pattern table must be longest-first");
        }
        // Every class' representative classifies back to itself, so the
        // matcher and the name test look at the same classification.
        for (_, classes) in PATTERNS {
            for c in classes.iter() {
                assert_eq!(classify(&c.representative()), Some(*c));
            }
        }
    }

    /// Per-pattern unit test: every pattern's representative program
    /// decodes to exactly one chain carrying the pattern's name.
    #[test]
    fn every_pattern_fuses_into_one_named_chain() {
        for vl in [128u32, 512, 2048] {
            let cfg = ExecConfig::a64fx_l1().with_vl(vl);
            for (name, classes) in PATTERNS {
                let prog: Vec<_> = classes.iter().map(|c| c.representative()).collect();
                let dp = DecodedProgram::decode(&prog, &cfg);
                let chains: Vec<_> = dp.chains().collect();
                assert_eq!(chains.len(), 1, "{name}: expected exactly one chain");
                assert_eq!(chains[0], (0, classes.len(), *name));
            }
        }
    }

    #[test]
    fn kernel_loop_bodies_fuse_completely() {
        let cfg = ExecConfig::a64fx_l1();
        // (program, expected chain names in order)
        let cases: Vec<(Vec<crate::isa::Instr>, Vec<&str>)> = vec![
            (sve_code::daxpy(), vec!["whilelt+ld1d+ld1d+fmla+st1d+incd+b.lt"]),
            (
                sve_code::dprod(),
                vec![
                    "whilelt+ld1d+ld1d+fmla+incd",
                    "whilelt+ld1d+ld1d+fmla+incd+b.lt",
                    "ptrue+fadd.z+faddv",
                ],
            ),
            (sve_code::dscal(), vec!["whilelt+ld1d+mov.z+fmla+st1d+incd+b.lt"]),
            (sve_code::ddaxpy(), vec!["whilelt+ld1d+ld1d+ld1d+fmla+fmla+st1d+incd+b.lt"]),
            (
                sve_code::matvec(),
                vec![
                    "whilelt+ld1d+ld1d+fmul.z",
                    "ld1d+ld1d+fmla",
                    "ld1d+ld1d+fmla",
                    "ld1d+ld1d+fmla",
                    "ld1d+ld1d+fmla",
                    "st1d+incd+b.lt",
                ],
            ),
            (scalar::daxpy(), vec!["ldr+ldr+fmadd+str+add+b.lt"]),
            (
                scalar::dprod(),
                vec![
                    "ldr+ldr+fmadd",
                    "ldr+ldr+fmadd",
                    "ldr+ldr+fmadd+add+b.lt",
                    "ldr+ldr+fmadd+add+b.lt",
                ],
            ),
            (scalar::dscal(), vec!["ldr+fmadd+str+add+b.lt"]),
            (scalar::ddaxpy(), vec!["ldr+ldr+ldr+fmadd+fmadd+str+add+b.lt"]),
            (
                scalar::matvec(),
                vec![
                    "ldr+ldr+fmul",
                    "ldr+ldr+fmadd",
                    "ldr+ldr+fmadd",
                    "ldr+ldr+fmadd",
                    "ldr+ldr+fmadd+str+add+b.lt",
                ],
            ),
        ];
        for (prog, expect) in cases {
            let dp = DecodedProgram::decode(&prog, &cfg);
            let names: Vec<_> = dp.chains().map(|(_, _, n)| n).collect();
            assert_eq!(names, expect, "fusion coverage regressed");
        }
    }

    #[test]
    fn chains_never_cross_branch_targets() {
        use crate::asm::Asm;
        use crate::isa::{Instr, P, X, Z};
        // A branch targets the *middle* of what would otherwise be a
        // whilelt+ld1d chain; the chain must not form across it.
        let mut a = Asm::new();
        let mid = a.new_label();
        a.push(Instr::WhileltD { d: P(0), n: X(0), m: X(1) });
        a.bind(mid);
        a.push(Instr::Ld1d { t: Z(0), pg: P(0), base: X(2), index: X(0) });
        a.push(Instr::IncdX { d: X(0) });
        a.blt(X(0), X(1), mid);
        let dp = DecodedProgram::decode(&a.finish(), &ExecConfig::a64fx_l1());
        for (start, len, name) in dp.chains() {
            assert!(
                (start + 1..start + len).all(|k| k != 1),
                "chain {name} fused across a branch target"
            );
        }
    }

    #[test]
    fn counters_accumulate() {
        let before = fused_chain_count();
        let _ = DecodedProgram::decode(&sve_code::daxpy(), &ExecConfig::a64fx_l1());
        assert!(fused_chain_count() > before, "decode formed no chains");
    }
}
