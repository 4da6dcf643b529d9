//! # v2d-perf — perf-stat / TAU-like instrumentation
//!
//! The paper measured V2D with tool families that do not exist for a
//! simulated machine, so this crate rebuilds their *interfaces* over the
//! virtual clock.  (Its PAPI counts have no twin here: Table II's
//! instruction and cycle counts come from the SVE simulator's own
//! `ExecStats`.)
//!
//! * [`PerfStat`] — the `perf stat -e duration_time -e cpu-cycles`
//!   session used for every Table I cell: wraps a region of execution and
//!   reports wall duration and cycle count of the modeled run;
//! * [`class_breakdown`] — per-kernel-class calls, time and flops of one
//!   lane, for the in-text §II-E claims;
//! * [`Profiler`] — a TAU-like scoped routine profiler with
//!   inclusive/exclusive virtual times and a ParaProf-style text report
//!   ("enabled us to see which routines contributed most to the total
//!   time without the need to add additional routine calls").
//!
//! All of it is deterministic: the numbers come from [`v2d_machine`]'s
//! clocks, never from the host.

use std::collections::HashMap;
use std::fmt::Write as _;

use v2d_machine::{CostSink, KernelClass, SimDuration};

/// A `perf stat`-like measurement session over one compiler lane.
#[derive(Debug, Clone, Copy)]
pub struct PerfStat {
    start: SimDuration,
}

/// What a [`PerfStat`] session measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfReport {
    /// Elapsed simulated seconds (`-e duration_time`).
    pub duration_time: f64,
    /// Elapsed simulated cycles (`-e cpu-cycles`).
    pub cpu_cycles: u64,
}

impl PerfStat {
    /// Begin measuring on `lane`'s clock.
    pub fn start(lane: &CostSink) -> Self {
        PerfStat { start: lane.clock.now() }
    }

    /// Finish and report.
    pub fn stop(self, lane: &CostSink) -> PerfReport {
        let d = lane.clock.now() - self.start;
        PerfReport { duration_time: d.as_secs(lane.model.freq_hz), cpu_cycles: d.cycles() }
    }
}

impl std::fmt::Display for PerfReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, " Performance counter stats (simulated):")?;
        writeln!(f)?;
        writeln!(f, "  {:>20.6} sec  duration_time", self.duration_time)?;
        writeln!(f, "  {:>20}      cpu-cycles", self.cpu_cycles)
    }
}

/// Per-kernel-class breakdown of a lane's accounting — the reproduction
/// of the paper's §II-E analysis ("the majority of time was spent in the
/// matrix-vector multiplications…").
pub fn class_breakdown(lane: &CostSink) -> String {
    let freq = lane.model.freq_hz;
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
        let secs = lane.counters.cycles[i] as f64 / freq;
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
    let mpi_secs = lane.mpi_cycles as f64 / freq;
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

/// A TAU-like nesting profiler over one compiler lane's clock.
///
/// `enter`/`exit` calls must be properly nested (checked); the report is
/// a ParaProf-style table sorted by exclusive time.
#[derive(Debug, Default)]
pub struct Profiler {
    stack: Vec<Frame>,
    routines: HashMap<String, RoutineStats>,
}

#[derive(Debug)]
struct Frame {
    name: String,
    entered: SimDuration,
    child_time: SimDuration,
}

impl Profiler {
    /// An empty profiler.
    pub fn new() -> Self {
        Profiler::default()
    }

    /// Enter routine `name` at the lane's current virtual time.
    pub fn enter(&mut self, lane: &CostSink, name: &str) {
        self.stack.push(Frame {
            name: name.to_string(),
            entered: lane.clock.now(),
            child_time: SimDuration::ZERO,
        });
    }

    /// Exit routine `name`.
    ///
    /// # Panics
    /// If `name` does not match the innermost open routine.
    pub fn exit(&mut self, lane: &CostSink, name: &str) {
        let frame = self.stack.pop().expect("profiler exit without matching enter");
        assert_eq!(frame.name, name, "mismatched profiler nesting");
        let inclusive = lane.clock.now() - frame.entered;
        let exclusive = inclusive - frame.child_time.min(inclusive);
        let e = self.routines.entry(frame.name).or_default();
        e.calls += 1;
        e.inclusive += inclusive;
        e.exclusive += exclusive;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_time += inclusive;
        }
    }

    /// Statistics for one routine, if profiled.
    pub fn routine(&self, name: &str) -> Option<RoutineStats> {
        self.routines.get(name).copied()
    }

    /// ParaProf-style report, sorted by exclusive time, with percentages
    /// of the given total.
    pub fn report(&self, lane: &CostSink) -> String {
        assert!(self.stack.is_empty(), "profiler report with open routines");
        let freq = lane.model.freq_hz;
        let total = lane.clock.now().cycles().max(1) as f64;
        let mut rows: Vec<(&String, &RoutineStats)> = self.routines.iter().collect();
        // Name as the secondary key: HashMap iteration order must never
        // leak into the report (it feeds byte-exact golden outputs).
        rows.sort_by_key(|(name, st)| (std::cmp::Reverse(st.exclusive), name.as_str()));
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
                st.exclusive.as_secs(freq),
                st.inclusive.as_secs(freq),
                100.0 * st.exclusive.cycles() as f64 / total
            );
        }
        out
    }
}

/// Lets a [`v2d_machine::ExecCtx`] carry this profiler, so solvers and
/// steppers record their scopes through the execution context instead of
/// threading a separate profiler parameter down the call chain.
impl v2d_machine::ProfilerScope for Profiler {
    fn enter(&mut self, lane: &CostSink, name: &str) {
        Profiler::enter(self, lane, name);
    }

    fn exit(&mut self, lane: &CostSink, name: &str) {
        Profiler::exit(self, lane, name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use v2d_machine::{CompilerProfile, KernelShape};

    fn lane() -> CostSink {
        CostSink::new(CompilerProfile::cray_opt())
    }

    fn burn(lane: &mut CostSink, class: KernelClass, elems: usize) {
        lane.charge(&KernelShape::streaming(class, elems, 2, 2, 1, 1 << 22));
    }

    #[test]
    fn perf_stat_measures_region_only() {
        let mut l = lane();
        burn(&mut l, KernelClass::Daxpy, 1000);
        let session = PerfStat::start(&l);
        burn(&mut l, KernelClass::Daxpy, 5000);
        let rep = session.stop(&l);
        assert!(rep.cpu_cycles > 0);
        assert!((rep.duration_time - rep.cpu_cycles as f64 / 1.8e9).abs() < 1e-12);
        let text = rep.to_string();
        assert!(text.contains("duration_time") && text.contains("cpu-cycles"));
    }

    #[test]
    fn class_breakdown_lists_used_classes_only() {
        let mut l = lane();
        burn(&mut l, KernelClass::MatVec, 1000);
        burn(&mut l, KernelClass::Precond, 1000);
        let text = class_breakdown(&l);
        assert!(text.contains("MATVEC"));
        assert!(text.contains("PRECOND"));
        assert!(!text.contains("DSCAL"));
        assert!(text.contains("MPI"));
    }

    #[test]
    fn profiler_nesting_and_exclusive_times() {
        let mut l = lane();
        let mut prof = Profiler::new();
        prof.enter(&l, "solve");
        burn(&mut l, KernelClass::Daxpy, 1000); // exclusive to solve
        prof.enter(&l, "matvec");
        burn(&mut l, KernelClass::MatVec, 4000);
        prof.exit(&l, "matvec");
        prof.exit(&l, "solve");

        let solve = prof.routine("solve").unwrap();
        let matvec = prof.routine("matvec").unwrap();
        assert_eq!(solve.calls, 1);
        assert_eq!(matvec.calls, 1);
        assert!(solve.inclusive > matvec.inclusive);
        assert_eq!(solve.inclusive, solve.exclusive + matvec.inclusive);
        assert_eq!(matvec.inclusive, matvec.exclusive);

        let rep = prof.report(&l);
        assert!(rep.contains("matvec") && rep.contains("solve"));
    }

    #[test]
    fn report_is_byte_stable_across_identical_runs() {
        // Zero-cost routines tie on exclusive cycles, so the sort must
        // fall back to the name — otherwise HashMap iteration order
        // leaks into the report and the golden outputs flake.
        let build = || {
            let mut l = lane();
            let mut prof = Profiler::new();
            for name in ["zeta", "alpha", "mu", "beta", "omega", "kappa"] {
                prof.enter(&l, name);
                prof.exit(&l, name);
            }
            prof.enter(&l, "work");
            burn(&mut l, KernelClass::Daxpy, 1000);
            prof.exit(&l, "work");
            prof.report(&l)
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
    #[should_panic(expected = "mismatched profiler nesting")]
    fn profiler_rejects_bad_nesting() {
        let l = lane();
        let mut prof = Profiler::new();
        prof.enter(&l, "a");
        prof.enter(&l, "b");
        prof.exit(&l, "a");
    }

    #[test]
    fn repeated_calls_accumulate() {
        let mut l = lane();
        let mut prof = Profiler::new();
        for _ in 0..3 {
            prof.enter(&l, "kernel");
            burn(&mut l, KernelClass::Dscal, 100);
            prof.exit(&l, "kernel");
        }
        assert_eq!(prof.routine("kernel").unwrap().calls, 3);
    }
}
