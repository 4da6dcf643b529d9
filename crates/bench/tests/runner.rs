//! The registry is the list: `v2d-bench`'s artifact table, the files
//! under `goldens/` and the `list` subcommand agree, and a command line
//! the runner cannot interpret is a usage error, not a panic.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::{Command, Output};

use v2d_bench::ARTIFACTS;

/// The checked-in baseline (the runner's default path is relative to the
/// repository root, not to this crate).
const BASELINE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../bench/baseline.json");

fn runner(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_v2d-bench"))
        .args(args)
        .env_remove("GITHUB_STEP_SUMMARY")
        .output()
        .expect("v2d-bench should launch")
}

#[test]
fn registry_names_are_unique_and_cover_goldens_dir_exactly() {
    let names: BTreeSet<&str> = ARTIFACTS.iter().map(|a| a.name).collect();
    assert_eq!(names.len(), ARTIFACTS.len(), "duplicate artifact name");
    assert!(!names.contains("list") && !names.contains("gate"), "subcommand shadowed");

    let mut want: BTreeSet<String> =
        ARTIFACTS.iter().filter(|a| a.golden).map(|a| format!("{}.txt", a.name)).collect();
    want.insert("fig1.pbm".to_string());
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../goldens");
    let have: BTreeSet<String> = std::fs::read_dir(&dir)
        .expect("goldens/ exists")
        .map(|e| e.expect("readable entry").file_name().into_string().expect("UTF-8 name"))
        .collect();
    assert_eq!(have, want, "goldens/ and the golden registry entries differ");
}

#[test]
fn list_prints_the_table_in_order_with_the_slow_marker() {
    let out = runner(&["list"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("UTF-8");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), ARTIFACTS.len());
    for (line, a) in lines.iter().zip(ARTIFACTS) {
        let words: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(words[0], a.name, "list order differs from table order");
        assert_eq!(words.contains(&"slow"), a.slow, "{}: slow marker", a.name);
        assert_eq!(words.contains(&"golden"), a.golden, "{}: golden marker", a.name);
    }
}

#[test]
fn bad_command_lines_print_one_usage_line_and_exit_2() {
    for args in [
        &[][..],
        &["nope"],
        &["list", "extra"],
        &["gate", "--baseline"],
        &["gate", "--perturb"],
        &["gate", "--baseline", BASELINE, "--perturb", "warp"],
        &["gate", "--perturb-cycles", "1"],
        &["gate", "--summary"],
        &["gate", "--frobnicate", "1"],
        &["table2", "--trace"],
        &["table2", "--bogus", "p"],
        &["table1", "--slow"],
        &["table_scenarios", "extra"],
        &["ablation_alloc", "many"],
        &["calibrate", "1", "2"],
        &["fig1", "a.pbm", "b.pbm"],
    ] {
        let out = runner(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: wrong exit status");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.starts_with("usage: v2d-bench"), "{args:?}: no usage line: {err}");
        assert_eq!(err.lines().count(), 1, "{args:?}: more than the usage line: {err}");
        for a in ARTIFACTS {
            assert!(err.contains(a.name), "{args:?}: usage omits {}", a.name);
        }
        assert!(out.stdout.is_empty(), "{args:?}: wrote to stdout");
    }
}
