//! End-to-end observability guarantees:
//!
//! * the 2-rank fault-recovery trace is **bit-identical** across
//!   replays of the same `FaultPlan` — virtual-clock spans carry no
//!   wall-clock residue, so the Chrome export and the collapsed stacks
//!   are stable byte streams;
//! * `v2d-bench gate` round-trips: a baseline compared against itself
//!   exits 0, and a single simulated cycle of injected drift exits 1
//!   (the CI red-run demonstration, executed for real).

use std::process::Command;

use v2d_bench::report;
use v2d_obs::{chrome_trace, collapsed_stacks};

#[test]
fn fault_recovery_trace_is_bit_identical_across_replays() {
    let (rr_a, tr_a) = report::fault_mini_run();
    let (rr_b, tr_b) = report::fault_mini_run();

    // The run reports agree byte-for-byte (totals, per-step series).
    assert_eq!(rr_a.to_json_string(), rr_b.to_json_string(), "RunReport drifted across replays");

    // Both ranks' traces agree byte-for-byte in both export formats.
    assert_eq!(tr_a.len(), 2);
    assert_eq!(tr_b.len(), 2);
    let refs_a: Vec<&_> = tr_a.iter().collect();
    let refs_b: Vec<&_> = tr_b.iter().collect();
    let chrome_a = chrome_trace(&refs_a);
    let chrome_b = chrome_trace(&refs_b);
    assert!(!chrome_a.is_empty());
    assert_eq!(chrome_a, chrome_b, "Chrome trace drifted across replays");
    assert_eq!(
        collapsed_stacks(&refs_a),
        collapsed_stacks(&refs_b),
        "collapsed stacks drifted across replays"
    );

    // The trace actually saw the faults: the injected events leave
    // instants behind, and recovery shows up on at least one rank.
    let names: Vec<&str> = tr_a.iter().flat_map(|t| t.events()).map(|e| e.name.as_str()).collect();
    assert!(names.contains(&"fault_field"), "no fault_field instant in the trace");
    assert!(
        names.contains(&"solver_restart") || names.contains(&"solver_fallback"),
        "no solver recovery event in the trace"
    );
}

#[test]
fn gate_round_trips_and_flags_drift() {
    let path = std::env::temp_dir().join(format!("v2d_obs_baseline_{}.json", std::process::id()));
    let path = path.to_str().expect("temp path should be UTF-8");

    let run = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_v2d-bench"))
            .arg("gate")
            .args(args)
            .env_remove("GITHUB_STEP_SUMMARY")
            .output()
            .expect("v2d-bench should launch")
    };

    assert!(run(&["--write", path]).status.success(), "gate --write failed");

    // Baseline vs itself: clean pass.  This also checks that `--write`
    // wrote what a fresh collection produces, gate by gate.
    let green = run(&["--baseline", path]);
    assert!(
        green.status.success(),
        "self-comparison failed:\n{}{}",
        String::from_utf8_lossy(&green.stdout),
        String::from_utf8_lossy(&green.stderr)
    );

    // One count of drift in the Table II family: the exact gate must
    // trip and the process must exit non-zero, naming the perturbed
    // metric.
    let red = run(&["--baseline", path, "--perturb", "table2"]);
    assert_eq!(red.status.code(), Some(1), "a one-count perturbation must fail the gate");
    let stdout = String::from_utf8_lossy(&red.stdout);
    assert!(stdout.contains("FAIL"), "no failure banner:\n{stdout}");
    assert!(stdout.contains("table2."), "delta table should name the metric:\n{stdout}");

    let _ = std::fs::remove_file(path);
}
