//! # v2d-perf — TAU-like routine profiling over the simulated clock
//!
//! The paper attributed V2D's run time to routines with TAU and Arm MAP;
//! this crate rebuilds that view over the virtual clock:
//!
//! * [`class_breakdown`] — per-kernel-class calls, time and flops of one
//!   lane, for the in-text §II-E claims;
//! * [`Profiler`] — a TAU-like routine profiler with inclusive/exclusive
//!   virtual times and a ParaProf-style text report ("enabled us to see
//!   which routines contributed most to the total time without the need
//!   to add additional routine calls").  It is fed through
//!   [`v2d_machine::ExecCtx::routine`], which times each call.
//!
//! All of it is deterministic: the numbers come from [`v2d_machine`]'s
//! clocks, never from the host.

// Library code must not panic on a `None`/`Err` it could report.  Tests
// and binaries (separate crates) are exempt.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use std::fmt::Write as _;

use v2d_machine::{CostSink, KernelClass, ProfilerScope, SimDuration, FREQ_HZ};

/// Per-kernel-class breakdown of a lane's accounting — the reproduction
/// of the paper's §II-E analysis ("the majority of time was spent in the
/// matrix-vector multiplications…").
pub fn class_breakdown(lane: &CostSink) -> String {
    let total = lane.clock.now().cycles().max(1);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:>12} {:>14} {:>14} {:>8}",
        "class", "calls", "secs", "Mflops", "%time"
    );
    for class in KernelClass::all() {
        let i = class.index();
        let calls = lane.counters.calls[i];
        if calls == 0 {
            continue;
        }
        let secs = lane.counters.cycles[i] as f64 / FREQ_HZ;
        let mflop = lane.counters.flops[i] as f64 / 1e6;
        let pct = 100.0 * lane.counters.cycles[i] as f64 / total as f64;
        let _ = writeln!(
            out,
            "{:<10} {:>12} {:>14.3} {:>14.2} {:>7.1}%",
            class.name(),
            calls,
            secs,
            mflop,
            pct
        );
    }
    let mpi_secs = lane.mpi_cycles as f64 / FREQ_HZ;
    let _ = writeln!(
        out,
        "{:<10} {:>12} {:>14.3} {:>14} {:>7.1}%",
        "MPI",
        "-",
        mpi_secs,
        "-",
        100.0 * lane.mpi_cycles as f64 / total as f64
    );
    out
}

/// Accumulated statistics for one profiled routine.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RoutineStats {
    /// Times the routine was entered.
    pub calls: u64,
    /// Total time including children.
    pub inclusive: SimDuration,
    /// Total time excluding profiled children.
    pub exclusive: SimDuration,
}

/// A TAU-like routine profiler over one compiler lane's clock.
///
/// [`v2d_machine::ExecCtx::routine`] times each call and records it
/// here; the report is a ParaProf-style table sorted by exclusive time.
#[derive(Debug, Default)]
pub struct Profiler {
    /// One row per routine, in first-call order (a handful of rows).
    routines: Vec<(&'static str, RoutineStats)>,
}

impl Profiler {
    /// An empty profiler.
    pub fn new() -> Self {
        Profiler::default()
    }

    /// Statistics for one routine, if profiled.
    pub fn routine(&self, name: &str) -> Option<RoutineStats> {
        self.routines.iter().find(|(n, _)| *n == name).map(|&(_, st)| st)
    }

    /// ParaProf-style report, sorted by exclusive time, with percentages
    /// of the given total.
    pub fn report(&self, lane: &CostSink) -> String {
        let total = lane.clock.now().cycles().max(1) as f64;
        let mut rows: Vec<&(&'static str, RoutineStats)> = self.routines.iter().collect();
        // Name as the secondary key: zero-cost routines tie on exclusive
        // time, and the report feeds byte-exact golden outputs.
        rows.sort_by_key(|(name, st)| (std::cmp::Reverse(st.exclusive), *name));
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<24} {:>8} {:>14} {:>14} {:>8}",
            "routine", "calls", "excl secs", "incl secs", "%excl"
        );
        for (name, st) in rows {
            let _ = writeln!(
                out,
                "{:<24} {:>8} {:>14.3} {:>14.3} {:>7.1}%",
                name,
                st.calls,
                st.exclusive.as_secs(),
                st.inclusive.as_secs(),
                100.0 * st.exclusive.cycles() as f64 / total
            );
        }
        out
    }
}

/// Lets a [`v2d_machine::ExecCtx`] carry this profiler, so solvers and
/// steppers record their routines through the execution context instead
/// of threading a separate profiler parameter down the call chain.
impl ProfilerScope for Profiler {
    fn record(&mut self, name: &'static str, inclusive: SimDuration, exclusive: SimDuration) {
        let i = match self.routines.iter().position(|(n, _)| *n == name) {
            Some(i) => i,
            None => {
                self.routines.push((name, RoutineStats::default()));
                self.routines.len() - 1
            }
        };
        let st = &mut self.routines[i].1;
        st.calls += 1;
        st.inclusive += inclusive;
        st.exclusive += exclusive;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use v2d_machine::{CompilerProfile, ExecCtx, KernelShape, MultiCostSink};

    fn lanes() -> MultiCostSink {
        MultiCostSink::single(CompilerProfile::cray_opt())
    }

    fn burn(cx: &mut ExecCtx, class: KernelClass, elems: usize) {
        cx.charge(&KernelShape::streaming(class, elems, 2, 2, 1, 1 << 22));
    }

    #[test]
    fn class_breakdown_lists_used_classes_only() {
        let mut sk = lanes();
        let mut cx = ExecCtx::new(&mut sk);
        burn(&mut cx, KernelClass::MatVec, 1000);
        burn(&mut cx, KernelClass::Precond, 1000);
        let text = class_breakdown(&sk.lanes[0]);
        assert!(text.contains("MATVEC"));
        assert!(text.contains("PRECOND"));
        assert!(!text.contains("DSCAL"));
        assert!(text.contains("MPI"));
    }

    #[test]
    fn profiler_nesting_and_exclusive_times() {
        let mut sk = lanes();
        let mut prof = Profiler::new();
        {
            let mut cx = ExecCtx::with_parts(&mut sk, Some(&mut prof), None, None);
            cx.routine("solve", |cx| {
                burn(cx, KernelClass::Daxpy, 1000); // exclusive to solve
                cx.routine("matvec", |cx| burn(cx, KernelClass::MatVec, 4000));
            });
        }

        let solve = prof.routine("solve").unwrap();
        let matvec = prof.routine("matvec").unwrap();
        assert_eq!(solve.calls, 1);
        assert_eq!(matvec.calls, 1);
        assert!(solve.inclusive > matvec.inclusive);
        assert_eq!(solve.inclusive, solve.exclusive + matvec.inclusive);
        assert_eq!(matvec.inclusive, matvec.exclusive);

        let rep = prof.report(&sk.lanes[0]);
        assert!(rep.contains("matvec") && rep.contains("solve"));
    }

    #[test]
    fn report_is_byte_stable_across_identical_runs() {
        // Zero-cost routines tie on exclusive cycles, so the sort must
        // fall back to the name — not to first-call order.
        let build = || {
            let mut sk = lanes();
            let mut prof = Profiler::new();
            {
                let mut cx = ExecCtx::with_parts(&mut sk, Some(&mut prof), None, None);
                for name in ["zeta", "alpha", "mu", "beta", "omega", "kappa"] {
                    cx.routine(name, |_| {});
                }
                cx.routine("work", |cx| burn(cx, KernelClass::Daxpy, 1000));
            }
            prof.report(&sk.lanes[0])
        };
        let first = build();
        for _ in 0..16 {
            assert_eq!(build(), first, "profiler report is not byte-stable");
        }
        // Ties are resolved alphabetically.
        let alpha = first.find("alpha").unwrap();
        let zeta = first.find("zeta").unwrap();
        assert!(alpha < zeta, "tied routines must sort by name:\n{first}");
    }

    #[test]
    fn repeated_calls_accumulate() {
        let mut sk = lanes();
        let mut prof = Profiler::new();
        {
            let mut cx = ExecCtx::with_parts(&mut sk, Some(&mut prof), None, None);
            for _ in 0..3 {
                cx.routine("kernel", |cx| burn(cx, KernelClass::Dscal, 100));
            }
        }
        assert_eq!(prof.routine("kernel").unwrap().calls, 3);
    }
}
