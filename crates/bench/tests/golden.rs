//! The golden checker: every `golden` entry of the artifact registry
//! must reproduce `goldens/<name>.txt` byte-for-byte on stdout (and
//! `fig1` its bitmap, `goldens/fig1.pbm`).
//!
//! Fast entries are checked on every `cargo test`; the slow ones
//! (minutes of wall clock in total) by
//! `cargo test --release -p v2d-bench --test golden -- --include-ignored`.
//! On drift the fresh output is left in `target/golden-artifacts/` for
//! diffing or upload; the checkout itself is never written to.

use std::path::{Path, PathBuf};
use std::process::Command;

use v2d_bench::ARTIFACTS;

const BIN: &str = env!("CARGO_BIN_EXE_v2d-bench");

fn goldens_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../goldens")
}

/// `target/golden-artifacts/`, next to the profile directory the
/// runner was built into.
fn drift_dir() -> PathBuf {
    Path::new(BIN)
        .ancestors()
        .nth(2)
        .expect("the runner lives in <target>/<profile>/")
        .join("golden-artifacts")
}

/// Compare `fresh` with the golden file `file`; on drift keep `fresh`
/// under [`drift_dir`] and report the pair.
fn check(file: &str, fresh: &[u8], drift: &mut Vec<String>) {
    let golden = goldens_dir().join(file);
    let want =
        std::fs::read(&golden).unwrap_or_else(|e| panic!("cannot read {}: {e}", golden.display()));
    if fresh != want {
        let kept = drift_dir().join(file);
        std::fs::create_dir_all(drift_dir()).expect("create target/golden-artifacts");
        std::fs::write(&kept, fresh).expect("keep the drifted output");
        drift.push(format!("{} ≠ {}", kept.display(), golden.display()));
    }
}

fn check_entries(slow: bool) {
    let mut drift = Vec::new();
    for a in ARTIFACTS.iter().filter(|a| a.golden && a.slow == slow) {
        let mut cmd = Command::new(BIN);
        cmd.arg(a.name);
        // fig1 writes its bitmap where it is told: a per-process temp
        // file, compared and removed below.
        let pbm = (a.name == "fig1").then(|| {
            std::env::temp_dir().join(format!("v2d_golden_fig1_{}.pbm", std::process::id()))
        });
        cmd.args(&pbm);
        let out = cmd.output().expect("the runner should launch");
        assert!(
            out.status.success(),
            "v2d-bench {} exited with {:?}:\n{}",
            a.name,
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        check(&format!("{}.txt", a.name), &out.stdout, &mut drift);
        if let Some(pbm) = pbm {
            check("fig1.pbm", &std::fs::read(&pbm).expect("fig1 wrote its bitmap"), &mut drift);
            let _ = std::fs::remove_file(&pbm);
        }
    }
    assert!(drift.is_empty(), "golden drift:\n  {}", drift.join("\n  "));
}

#[test]
fn fast_artifacts_match_their_goldens() {
    check_entries(false);
}

#[test]
#[ignore = "table1, table1_full, breakdown and the long ablations: minutes of wall clock"]
fn slow_artifacts_match_their_goldens() {
    check_entries(true);
}
