//! Dispatch grouping: the basic-block partition of a program that the
//! threaded-code engine in [`crate::thread`] dispatches with one indirect
//! call per group.
//!
//! [`plan`] cuts the program after every branch (`b`, `b.lt`, `b.ge`) and
//! before every branch target, so each group is a maximal straight-line
//! run that control flow can enter only at its first op and leave only
//! after its last.  A kernel loop body is then one group, and one
//! dispatch per iteration, for every program alike: the partition reads
//! only control flow, never opcode shapes.
//!
//! Grouping only changes dispatch: the runtime charges every part
//! individually, in program order.  The pipe-reservation state
//! (backfilling ring buffers) and the cumulative-bytes bandwidth limiter
//! are serial recurrences with no closed form, and replaying the
//! per-part arithmetic is what keeps modeled cycles bit-identical to the
//! reference interpreter ([`crate::exec::Executor::run`]) by
//! construction.

use crate::isa::Instr;
use std::sync::atomic::{AtomicU64, Ordering};

/// Dynamic instructions executed *inside* multi-op groups by the threaded
/// engine, process-wide (tests and the `sve.fuse.*` gate entries consume
/// deltas of these counters).
static FUSED_DYN: AtomicU64 = AtomicU64::new(0);
/// Total dynamic instructions executed by the threaded engine (the
/// denominator of the dynamic fused-op fraction).
static DYN_TOTAL: AtomicU64 = AtomicU64::new(0);

/// Process-wide dynamic instructions executed inside multi-op groups.
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

/// `(dynamic instructions inside multi-op groups, total dynamic
/// instructions)` of the most recent threaded-engine run on the calling
/// thread.
pub fn last_run_fuse_counts() -> (u64, u64) {
    LAST_RUN.with(|c| c.get())
}

/// Fold one threaded-engine run into the process counters.
pub(crate) fn note_run(fused_dyn: u64, total_dyn: u64) {
    FUSED_DYN.fetch_add(fused_dyn, Ordering::Relaxed);
    DYN_TOTAL.fetch_add(total_dyn, Ordering::Relaxed);
    LAST_RUN.with(|c| c.set((fused_dyn, total_dyn)));
}

/// One dispatch group: the basic block of `len ≥ 1` ops from `start`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Group {
    pub start: usize,
    pub len: usize,
}

/// The target of a branch, `None` for every other instruction.
pub(crate) fn branch_target(i: &Instr) -> Option<usize> {
    match *i {
        Instr::B { target } | Instr::BLtX { target, .. } | Instr::BGeX { target, .. } => {
            Some(target)
        }
        _ => None,
    }
}

/// Partition `prog` into its basic blocks, in program order: a group
/// starts at op 0, after every branch and at every branch target.
pub(crate) fn plan(prog: &[Instr]) -> Vec<Group> {
    let mut leader = vec![false; prog.len() + 1];
    for (pc, i) in prog.iter().enumerate() {
        if let Some(target) = branch_target(i) {
            leader[pc + 1] = true;
            if let Some(l) = leader.get_mut(target) {
                *l = true;
            }
        }
    }
    leader[prog.len()] = true;
    let mut groups = Vec::new();
    let mut start = 0;
    for (pc, _) in leader.iter().enumerate().skip(1).filter(|(_, &cut)| cut) {
        groups.push(Group { start, len: pc - start });
        start = pc;
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::isa::{D, P, X, Z};
    use crate::kernels::{scalar, sve_code};

    /// The partition invariants: the groups tile `0..len` in order; every
    /// branch target inside the program starts a group; every branch ends
    /// one; so no group has a target or a branch in its interior.  And the
    /// groups are maximal: each one after the first starts at a target or
    /// right after a branch.
    fn assert_basic_blocks(prog: &[Instr], groups: &[Group]) {
        let mut next = 0;
        for g in groups {
            assert!(g.len > 0 && g.start == next, "groups do not tile the program: {groups:?}");
            next = g.start + g.len;
        }
        assert_eq!(next, prog.len(), "groups do not cover the program: {groups:?}");
        let starts: Vec<usize> = groups.iter().map(|g| g.start).collect();
        let ends: Vec<usize> = groups.iter().map(|g| g.start + g.len - 1).collect();
        for (pc, i) in prog.iter().enumerate() {
            if let Some(t) = branch_target(i) {
                assert!(ends.contains(&pc), "branch at {pc} does not end a group");
                assert!(t >= prog.len() || starts.contains(&t), "target {t} is not a group start");
            }
        }
        for &start in starts.iter().skip(1) {
            assert!(
                branch_target(&prog[start - 1]).is_some()
                    || prog.iter().any(|i| branch_target(i) == Some(start)),
                "needless cut before {start}: {groups:?}"
            );
        }
    }

    /// Seeded random programs of the straight-line shapes the
    /// interpreter-equivalence property suite generates, with branches
    /// (to anywhere in or just past the program) mixed in.
    #[test]
    fn groups_are_the_basic_blocks_of_random_programs() {
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let mut rnd = |n: usize| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % n as u64) as usize
        };
        for _ in 0..500 {
            let len = 1 + rnd(48);
            let prog: Vec<Instr> = (0..len)
                .map(|_| {
                    let (target, r) = (rnd(len + 2), rnd(8) as u8);
                    match rnd(10) {
                        0 => Instr::B { target },
                        1 => Instr::BLtX { n: X(r), m: X(2), target },
                        2 => Instr::BGeX { n: X(r), m: X(2), target },
                        3 => Instr::AddXI { d: X(3), n: X(r), imm: 1 },
                        4 => Instr::FMaddD { d: D(r), n: D(1), m: D(2), a: D(r) },
                        5 => Instr::WhileltD { d: P(r % 4), n: X(r), m: X(2) },
                        6 => Instr::Ld1d { t: Z(r), pg: P(0), base: X(0), index: X(1) },
                        7 => Instr::FMlaZ { da: Z(r), pg: P(0), n: Z(1), m: Z(2) },
                        8 => Instr::FaddvD { d: D(r), pg: P(0), n: Z(r) },
                        _ => Instr::StrD { s: D(r), base: X(0), offset: 8 },
                    }
                })
                .collect();
            assert_basic_blocks(&prog, &plan(&prog));
        }
    }

    /// Every kernel is partitioned into its basic blocks, and each loop
    /// body — from the loop label through its backward `b.lt` — is
    /// exactly one group.
    #[test]
    fn kernel_loop_bodies_are_one_group_each() {
        // (program, (start, len) of each loop body)
        let cases = [
            (sve_code::daxpy(), vec![(3, 7)]),
            (sve_code::dprod(), vec![(4, 11)]),
            (sve_code::dscal(), vec![(5, 7)]),
            (sve_code::ddaxpy(), vec![(4, 9)]),
            (sve_code::matvec(), vec![(2, 19)]),
            (scalar::daxpy(), vec![(2, 6)]),
            (scalar::dprod(), vec![(7, 13), (21, 5)]),
            (scalar::dscal(), vec![(3, 5)]),
            (scalar::ddaxpy(), vec![(2, 8)]),
            (scalar::matvec(), vec![(2, 18)]),
        ];
        for (prog, bodies) in cases {
            let groups = plan(&prog);
            assert_basic_blocks(&prog, &groups);
            for (start, len) in bodies {
                assert!(
                    groups.contains(&Group { start, len }),
                    "loop body ({start}, {len}) is not one group: {groups:?}"
                );
                let back = branch_target(&prog[start + len - 1]);
                assert_eq!(back, Some(start), "({start}, {len}) is not a loop body");
            }
        }
    }

    #[test]
    fn chains_never_cross_branch_targets() {
        // A branch targets the *middle* of a straight-line run; the run
        // must split there.
        let mut a = Asm::new();
        let mid = a.new_label();
        a.push(Instr::WhileltD { d: P(0), n: X(0), m: X(1) });
        a.bind(mid);
        a.push(Instr::Ld1d { t: Z(0), pg: P(0), base: X(2), index: X(0) });
        a.push(Instr::IncdX { d: X(0) });
        a.blt(X(0), X(1), mid);
        let prog = a.finish();
        let groups = plan(&prog);
        assert_basic_blocks(&prog, &groups);
        assert_eq!(groups, [Group { start: 0, len: 1 }, Group { start: 1, len: 3 }]);
    }
}
