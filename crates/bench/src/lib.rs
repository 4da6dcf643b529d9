//! # v2d-bench — the experiment harness
//!
//! One binary, `v2d-bench`, over one table: [`ARTIFACTS`] lists every
//! regenerable artifact by name — whether its stdout is pinned by
//! `goldens/<name>.txt`, whether it is too slow for the per-push golden
//! loop, and the function that prints it.  `v2d-bench list` prints the
//! table, `v2d-bench <name> [args]` runs one entry, and
//! `crates/bench/tests/golden.rs` checks every golden entry
//! byte-for-byte by looping over the same table.  `v2d-bench gate` is
//! the regression gate over [`report::collect`].
//!
//! The modules behind the entries:
//!
//! * [`table1`] — "Times by Compiler": the Gaussian-pulse study over the
//!   paper's twelve process topologies × four compiler models, plus the
//!   full ≤ 50-rank grid and the weak-scaling curve;
//! * [`table2`] — "Linear Algebra Routines Times": the single-processor
//!   kernel driver on the instruction-level SVE simulator;
//! * [`fig1`] — the sparsity-pattern figure;
//! * [`breakdown`] — the in-text §II-E routine/ MPI timing analysis and
//!   the profile calibration check against it;
//! * [`ablation`] — the vector-length, residency, reduction-structure,
//!   preconditioner, Krylov-algorithm and allocation ablations;
//! * [`faults`] — the fault-injection and rank-kill campaign;
//! * [`paper`] — the published reference numbers, printed side-by-side
//!   with the reproduction;
//! * [`par`] — scoped-thread fan-out used by the sweep harnesses;
//! * [`report`] — the canonical bench-report collection, the scenario
//!   table built from it, and the gate that compares it with
//!   `bench/baseline.json`.

pub mod ablation;
pub mod breakdown;
pub mod faults;
pub mod fig1;
pub mod paper;
pub mod par;
pub mod report;
pub mod table1;
pub mod table2;

/// A command line the runner cannot interpret: unknown artifact or
/// flag, a flag without its value, a count that is not a non-negative
/// integer.  `v2d-bench` answers with its one usage line and exit 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UsageError;

/// One regenerable artifact.
pub struct Artifact {
    pub name: &'static str,
    /// A debug-build run exceeds ~10 s (measured; the slowest fast
    /// entry, `table_scenarios`, takes ≈4 s and the fastest slow one,
    /// `ablation_solvers`, ≈12 s), so only the `#[ignore]`d golden test
    /// (CI's `goldens` job) regenerates it.
    pub slow: bool,
    /// Stdout is pinned byte-for-byte by `goldens/<name>.txt`.
    pub golden: bool,
    /// Print the artifact to stdout (progress to stderr), given the
    /// arguments after the name.
    pub run: fn(&[String]) -> Result<(), UsageError>,
}

/// Every artifact `v2d-bench <name>` can regenerate, paper order first.
pub const ARTIFACTS: &[Artifact] = &[
    Artifact { name: "table1", slow: true, golden: true, run: table1::print },
    Artifact { name: "table1_full", slow: true, golden: true, run: table1::print_full },
    Artifact { name: "table2", slow: false, golden: true, run: table2::print },
    Artifact { name: "fig1", slow: false, golden: true, run: fig1::print },
    Artifact { name: "breakdown", slow: true, golden: true, run: breakdown::print },
    Artifact { name: "ablation_vl", slow: false, golden: true, run: ablation::vl },
    Artifact { name: "ablation_residency", slow: false, golden: true, run: ablation::residency },
    Artifact { name: "ablation_ganged", slow: true, golden: true, run: ablation::ganged },
    Artifact { name: "ablation_precond", slow: true, golden: true, run: ablation::precond },
    Artifact { name: "ablation_solvers", slow: true, golden: true, run: ablation::solvers },
    Artifact { name: "ablation_faults", slow: false, golden: true, run: faults::print },
    Artifact { name: "table_scenarios", slow: false, golden: true, run: report::print_scenarios },
    Artifact { name: "ablation_alloc", slow: false, golden: false, run: ablation::alloc },
    Artifact { name: "calibrate", slow: true, golden: false, run: breakdown::calibrate },
];

/// Arguments of an artifact that takes none.
pub fn no_args(args: &[String]) -> Result<(), UsageError> {
    if args.is_empty() {
        Ok(())
    } else {
        Err(UsageError)
    }
}

/// Arguments of the form `[--quick]`.
pub fn quick_flag(args: &[String]) -> Result<bool, UsageError> {
    match args {
        [] => Ok(false),
        [a] if a == "--quick" => Ok(true),
        _ => Err(UsageError),
    }
}

/// Arguments of the form `[N]`: one optional non-negative integer.
pub fn count_arg(args: &[String], default: usize) -> Result<usize, UsageError> {
    match args {
        [] => Ok(default),
        [n] => n.parse().map_err(|_| UsageError),
        _ => Err(UsageError),
    }
}

/// Arguments of the form `(--flag VALUE)*`, as `(flag, value)` pairs in
/// command-line order; the caller rejects the flags it does not know.
pub fn flag_values(args: &[String]) -> Result<Vec<(&str, &str)>, UsageError> {
    let pairs = args.chunks_exact(2);
    if !pairs.remainder().is_empty() {
        return Err(UsageError);
    }
    Ok(pairs.map(|pair| (&*pair[0], &*pair[1])).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn argument_shapes_accept_their_form_and_nothing_else() {
        assert_eq!(no_args(&[]), Ok(()));
        assert_eq!(no_args(&argv(&["x"])), Err(UsageError));
        assert_eq!(quick_flag(&[]), Ok(false));
        assert_eq!(quick_flag(&argv(&["--quick"])), Ok(true));
        assert_eq!(quick_flag(&argv(&["--slow"])), Err(UsageError));
        assert_eq!(quick_flag(&argv(&["--quick", "--quick"])), Err(UsageError));
        assert_eq!(count_arg(&[], 5), Ok(5));
        assert_eq!(count_arg(&argv(&["8"]), 5), Ok(8));
        assert_eq!(count_arg(&argv(&["x"]), 5), Err(UsageError));
        assert_eq!(count_arg(&argv(&["-1"]), 5), Err(UsageError));
        assert_eq!(count_arg(&argv(&["1", "2"]), 5), Err(UsageError));
        assert_eq!(
            flag_values(&argv(&["--report", "r", "--trace", "t"])),
            Ok(vec![("--report", "r"), ("--trace", "t")])
        );
        assert_eq!(flag_values(&argv(&["--report", "r", "--trace"])), Err(UsageError));
    }
}
