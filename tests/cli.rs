//! End-to-end tests of the `v2d` command-line driver — parameter deck in,
//! simulation out, checkpoint on disk — and of the `v2d-serve` command line.

use std::process::Command;

fn v2d() -> Command {
    Command::new(env!("CARGO_BIN_EXE_v2d"))
}

#[test]
fn print_paper_emits_a_parseable_deck() {
    let out = v2d().arg("--print-paper").output().expect("run v2d");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf-8");
    assert!(text.contains("[grid]") && text.contains("n1 = 200"));
    // The printed deck must round-trip through the parser.
    let pf = v2d::core::config_file::ParFile::parse(&text).expect("parse");
    let (cfg, _) = pf.to_config().expect("config");
    assert_eq!(cfg.n_steps, 100);
}

#[test]
fn runs_a_small_deck_and_writes_a_checkpoint() {
    let dir = std::env::temp_dir().join(format!("v2d_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let deck = dir.join("small.par");
    std::fs::write(
        &deck,
        "[grid]\nn1 = 24\nn2 = 12\nx1 = 0.0 2.0\nx2 = 0.0 1.0\n\
         [run]\ndt = 0.01\nn_steps = 2\nnprx1 = 2\nnprx2 = 1\n\
         [radiation]\nkappa_a = 0.02 0.04\nkappa_s = 2.0 3.0\nkappa_x = 0.01\n",
    )
    .expect("write deck");

    let out = v2d().arg(&deck).current_dir(&dir).output().expect("run v2d");
    assert!(out.status.success(), "v2d failed:\n{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("solves: 6"), "unexpected output:\n{text}");
    assert!(text.contains("Cray (opt)"));
    // The routine profile times lane 0: its header names the compiler in
    // the first row of the times table.
    let mut rows = text.lines().skip_while(|l| !l.starts_with("compiler ")).skip(1);
    let first = rows.next().and_then(|l| l.get(..16)).map(str::trim).expect("a compiler row");
    let header = format!("rank-0 routine profile ({first} lane):");
    assert!(text.contains(&header), "no `{header}` in:\n{text}");

    // The checkpoint must exist and decode.
    let ck = v2d::io::File::open(dir.join("v2d_final.h5l")).expect("checkpoint readable");
    let erad = ck.dataset("radiation/erad").expect("erad present");
    assert_eq!(erad.shape(), &[2, 12, 24]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_deck_reports_error_and_nonzero_exit() {
    let dir = std::env::temp_dir().join(format!("v2d_cli_bad_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let deck = dir.join("bad.par");
    std::fs::write(&deck, "[grid]\nn1 = 24\n# n2 missing\n").expect("write");
    let out = v2d().arg(&deck).output().expect("run v2d");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("grid.n2"), "unhelpful error: {err}");
    // A topology finer than the grid is a deck error too, not a panic.
    let paper = v2d::core::config_file::PAPER_PAR;
    std::fs::write(&deck, paper.replace("nprx1 = 1", "nprx1 = 300")).expect("write");
    let out = v2d().arg(&deck).output().expect("run v2d");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {err}");
    assert!(err.contains("run.nprx1") && !err.contains("panicked"), "unhelpful error: {err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// An output path `v2d` cannot write is one `cannot write` line and exit
/// status 1, never a panic's 101.
#[test]
fn unwritable_outputs_are_clean_errors() {
    for (row, blocker, is_dir, every) in
        [("final", "v2d_final.h5l", true, 0), ("store", "v2d_ck", false, 1)]
    {
        let dir = std::env::temp_dir().join(format!("v2d_cli_{row}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let deck = dir.join("small.par");
        std::fs::write(
            &deck,
            format!(
                "[grid]\nn1 = 12\nn2 = 6\nx1 = 0.0 2.0\nx2 = 0.0 1.0\n\
                 [run]\ndt = 0.01\nn_steps = 2\ncheckpoint_every = {every}\n\
                 [radiation]\nkappa_a = 0.02 0.04\nkappa_s = 2.0 3.0\nkappa_x = 0.01\n"
            ),
        )
        .expect("write deck");
        if is_dir {
            std::fs::create_dir_all(dir.join(blocker)).expect("blocking directory");
        } else {
            std::fs::write(dir.join(blocker), "not a directory").expect("blocking file");
        }

        let out = v2d().arg(&deck).current_dir(&dir).output().expect("run v2d");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{row}: stderr: {err}");
        assert!(err.starts_with("v2d: cannot"), "{row}: unhelpful error: {err}");
        assert!(!err.contains("panicked"), "{row}: panicked: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A step whose recovery ladder runs out is one `run failed` line and
/// exit status 1 on any topology, never a panic's 101.
#[test]
fn an_unrecoverable_step_is_a_clean_error() {
    let dir = std::env::temp_dir().join(format!("v2d_cli_step_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let deck = dir.join("opaque.par");
    for nprx1 in [1, 2] {
        std::fs::write(
            &deck,
            format!(
                "[grid]\nn1 = 12\nn2 = 6\nx1 = 0.0 2.0\nx2 = 0.0 1.0\n\
                 [run]\ndt = 0.01\nn_steps = 2\nnprx1 = {nprx1}\n\
                 [radiation]\nkappa_a = 1e308 1e308\nkappa_s = 2.0 3.0\n"
            ),
        )
        .expect("write deck");
        let out = v2d().arg(&deck).current_dir(&dir).output().expect("run v2d");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "nprx1 = {nprx1}: stderr: {err}");
        assert!(err.starts_with("v2d: run failed: "), "nprx1 = {nprx1}: {err}");
        assert!(!err.contains("panicked"), "nprx1 = {nprx1}: panicked: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The deck `v2d --print-deck sedov` prints, with each `(from, to)` edit
/// applied.
fn sedov_deck(edits: &[(&str, &str)]) -> String {
    let printed = v2d().args(["--print-deck", "sedov"]).output().expect("run v2d");
    let deck = String::from_utf8(printed.stdout).expect("utf-8");
    edits.iter().fold(deck, |deck, (from, to)| {
        assert!(deck.contains(from), "{deck}");
        deck.replace(from, to)
    })
}

/// A hydro step that could never finish (`cfl = 1e-300`) is one `run
/// failed` line and exit status 1 within seconds, not a run that spins
/// forever.
#[test]
fn a_vanishing_cfl_is_a_clean_error_not_a_hang() {
    let dir = std::env::temp_dir().join(format!("v2d_cli_cfl_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    // A small grid keeps the bounded sub-steps cheap in a debug build.
    let deck = sedov_deck(&[
        ("\nn1 = 48\nn2 = 48\n", "\nn1 = 12\nn2 = 12\n"),
        ("\ncfl = 0.4\n", "\ncfl = 1e-300\n"),
    ]);
    let path = dir.join("cfl.par");
    std::fs::write(&path, deck).expect("write deck");
    let mut child = v2d()
        .arg(&path)
        .current_dir(&dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("run v2d");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while child.try_wait().expect("poll v2d").is_none() {
        if std::time::Instant::now() > deadline {
            child.kill().ok();
            child.wait().ok();
            panic!("v2d still running after 60 s");
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    let out = child.wait_with_output().expect("collect v2d");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {err}");
    assert!(err.starts_with("v2d: run failed: step 0: hydro exceeded"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// An adiabatic index `to_config` accepts but the flow cannot survive
/// ends the run in a typed step error — one `run failed` line, exit
/// status 1 — never a panic's 101: γ = 5 drives a pressure negative at
/// step 3, and γ = 1e300 gives a NaN density at once.
#[test]
fn an_unphysical_hydro_state_is_a_clean_error() {
    let dir = std::env::temp_dir().join(format!("v2d_cli_gamma_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (gamma, want) in [
        ("5", "step 3: unphysical hydro state: non-positive pressure"),
        ("1e300", "step 0: unphysical hydro state: non-positive density NaN"),
    ] {
        let path = dir.join(format!("gamma_{gamma}.par"));
        let deck = sedov_deck(&[("\ngamma = 1.4\n", &format!("\ngamma = {gamma}\n"))]);
        std::fs::write(&path, deck).expect("write deck");
        let out = v2d().arg(&path).current_dir(&dir).output().expect("run v2d");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "γ = {gamma}: stderr: {err}");
        assert!(err.starts_with(&format!("v2d: run failed: {want}")), "γ = {gamma}: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_file_is_a_clean_error() {
    let out = v2d().arg("/nonexistent/deck.par").output().expect("run v2d");
    assert!(!out.status.success());
}

fn serve(args: &[&str]) -> std::process::Output {
    // Empty stdin: a stdio session that gets as far as reading ends at once.
    Command::new(env!("CARGO_BIN_EXE_v2d-serve"))
        .args(args)
        .stdin(std::process::Stdio::null())
        .output()
        .expect("run v2d-serve")
}

/// The daemon rejects a malformed command line the way `v2d` does: one
/// usage line on stderr, exit status 2.  A socket it cannot bind is one
/// line and exit status 1.  Neither is ever a panic's 101.
#[test]
fn serve_argument_errors_print_usage_and_exit_2() {
    for (args, code, line) in [
        (&["--workers", "x"][..], 2, "usage: v2d-serve"),
        (&["--workers"], 2, "usage: v2d-serve"),
        (&["--cache", "-1"], 2, "usage: v2d-serve"),
        (&["--socket"], 2, "usage: v2d-serve"),
        (&["--frobnicate"], 2, "usage: v2d-serve"),
        (&["--socket", "/nonexistent_dir/x.sock"], 1, "v2d-serve: cannot bind /nonexistent_dir/"),
    ] {
        let out = serve(args);
        assert_eq!(out.status.code(), Some(code), "{args:?}: wrong exit status");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.starts_with(line), "{args:?}: expected `{line}…`, got: {err}");
        assert_eq!(err.lines().count(), 1, "{args:?}: more than one line: {err}");
        assert!(!err.contains("panicked"), "{args:?}: panicked: {err}");
        assert!(out.stdout.is_empty(), "{args:?}: wrote to stdout");
    }
    let ok = serve(&["--stdio", "--workers", "1", "--cache", "4"]);
    assert!(ok.status.success(), "{}", String::from_utf8_lossy(&ok.stderr));
}

/// One stdio session: `bad` as the first request line, then a `status`
/// and a `shutdown`.  The bad line costs one `error` response; the
/// requests after it on the same session are answered.  Returns the
/// `error` line.
fn serve_after_a_bad_line(bad: &[u8]) -> String {
    use std::io::Write;
    let mut child = Command::new(env!("CARGO_BIN_EXE_v2d-serve"))
        .args(["--stdio", "--workers", "1"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("run v2d-serve");
    let mut requests = bad.to_vec();
    requests.extend_from_slice(
        b"\n{\"req\":\"status\",\"id\":\"s\"}\n{\"req\":\"shutdown\",\"id\":\"q\"}\n",
    );
    child.stdin.take().expect("piped stdin").write_all(&requests).expect("write requests");
    let out = child.wait_with_output().expect("wait for v2d-serve");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {err}");
    let text = String::from_utf8(out.stdout).expect("responses are UTF-8");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "one response per request line:\n{text}\nstderr: {err}");
    assert!(lines[0].starts_with(r#"{"resp":"error","id":"","error":"#), "{}", lines[0]);
    assert!(lines[1].starts_with(r#"{"resp":"status","id":"s","#), "{}", lines[1]);
    assert_eq!(lines[2], r#"{"resp":"bye","id":"q"}"#);
    assert!(!err.contains("read failed"), "stderr: {err}");
    lines[0].to_string()
}

#[test]
fn serve_answers_a_non_utf8_line_and_keeps_the_session() {
    serve_after_a_bad_line(b"\xff\xfe bad");
}

/// A line over the daemon's 1 MiB cap is answered with an `error` that
/// names the cap, without buffering the line.
#[test]
fn serve_answers_an_over_long_line_and_keeps_the_session() {
    let error = serve_after_a_bad_line(&vec![b'x'; (1 << 20) + 4096]);
    assert!(error.contains("longer than 1048576 bytes"), "{error}");
    let at_cap = serve_after_a_bad_line(&vec![b'x'; 1 << 20]);
    assert!(!at_cap.contains("longer than"), "a line of exactly 1 MiB is read: {at_cap}");
}
