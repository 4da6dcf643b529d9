//! Launches are independent of one another and of the thread they run
//! on: several at once, one inside another, a panicking one, and one
//! that runs off the end of its rank stack.

use std::process::Command;
use std::sync::Barrier;

use v2d_comm::{ReduceOp, Spmd};

/// A launch whose answer depends on every rank and on the hand-off
/// order: a ring shift followed by a rank-ordered reduction.
fn ring_then_sum(n: usize, salt: f64) -> Vec<f64> {
    Spmd::new(n).run(move |ctx| {
        let me = ctx.rank();
        let mut acc = salt + me as f64;
        for step in 0..8 {
            ctx.comm.send(&mut ctx.sink, (me + 1) % n, step, &[acc]);
            acc += ctx.comm.recv(&mut ctx.sink, (me + n - 1) % n, step).expect("ring recv")[0];
            acc = ctx.comm.allreduce_scalar(&mut ctx.sink, ReduceOp::Sum, acc.sqrt());
        }
        acc
    })
}

#[test]
fn four_launches_run_concurrently_from_four_threads() {
    let expect: Vec<Vec<f64>> = (0..4).map(|t| ring_then_sum(12, t as f64)).collect();
    let gate = Barrier::new(4);
    let got: Vec<Vec<f64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let gate = &gate;
                scope.spawn(move || {
                    gate.wait();
                    ring_then_sum(12, t as f64)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("launch thread")).collect()
    });
    assert_eq!(got, expect);
}

#[test]
fn a_launch_nested_inside_a_rank_body_returns() {
    let alone = ring_then_sum(5, 0.5);
    let outs = Spmd::new(3).run(|ctx| {
        let before = ctx.comm.allreduce_scalar(&mut ctx.sink, ReduceOp::Sum, 1.0);
        let inner = ring_then_sum(5, 0.5);
        // The outer launch is intact after the inner one unwound.
        let me = ctx.rank() as f64;
        let after = ctx.comm.allreduce_scalar(&mut ctx.sink, ReduceOp::Sum, me);
        (before, inner, after)
    });
    for (before, inner, after) in outs {
        assert_eq!((before, after), (3.0, 3.0));
        assert_eq!(inner, alone);
    }
}

#[test]
fn a_rank_panic_propagates_lowest_rank_first() {
    let caught = std::panic::catch_unwind(|| {
        Spmd::new(8).run(|ctx| {
            // Rank 5 panics first in schedule order (rank 2 is still
            // waiting for it); the launch reports the lowest rank.
            if ctx.rank() == 5 {
                panic!("rank 5 down");
            }
            let alive = ctx.comm.try_barrier(&mut ctx.sink, 3);
            if ctx.rank() == 2 {
                panic!("rank 2 down after {alive:?}");
            }
        })
    });
    let payload = caught.expect_err("the launch must re-raise a rank panic");
    let msg = payload.downcast_ref::<String>().map(String::as_str).unwrap_or("<not a String>");
    assert!(msg.starts_with("rank 2 down"), "lowest panicking rank wins, got: {msg}");
}

/// Re-run one test of this binary in a child process.
fn child(test: &str) -> Command {
    let mut cmd = Command::new(std::env::current_exe().expect("test binary path"));
    cmd.args(["--exact", test, "--include-ignored", "--nocapture"]);
    cmd
}

#[test]
fn a_rank_panic_propagates_with_backtraces_on() {
    // The backtrace is captured and printed on the rank's own stack: the
    // walk must end at the stack's first frame, not run off the mapping.
    let out = child("a_rank_panic_propagates_lowest_rank_first")
        .env("RUST_BACKTRACE", "1")
        .output()
        .expect("spawn child");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "child failed: {stderr}");
    assert!(stderr.contains("stack backtrace:"), "no backtrace printed: {stderr}");
}

#[allow(unconditional_recursion)]
#[inline(never)]
fn recurse_forever(depth: u64) -> u64 {
    let mut pad = [depth; 64];
    std::hint::black_box(&mut pad);
    recurse_forever(depth + 1) + pad[0]
}

/// Only ever meaningful as the child of the test below, which names it
/// with `--exact`; swept up by a plain `--include-ignored` it returns.
#[test]
#[ignore = "overflows a rank stack on purpose; run by the test below"]
fn overflow_a_rank_stack() {
    if !std::env::args().any(|a| a == "--exact") {
        return;
    }
    let depth = Spmd::new(2).run(|ctx| {
        ctx.comm.barrier(&mut ctx.sink);
        recurse_forever(ctx.rank() as u64)
    });
    println!("recursion returned: {depth:?}");
}

#[cfg(unix)]
#[test]
fn running_off_a_rank_stack_kills_the_process_on_the_guard_page() {
    use std::os::unix::process::ExitStatusExt;
    let out = child("overflow_a_rank_stack").output().expect("spawn child");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("recursion returned"), "unbounded recursion returned: {stdout}");
    assert!(
        out.status.signal().is_some(),
        "expected death by signal on the guard page, got {:?}\n{stdout}",
        out.status
    );
}
