//! On x86-64 Linux a launch adds no OS thread: every rank runs on the
//! thread that called [`Spmd::run`], each on its own switched stack.
//!
//! The process's thread count is read from `/proc`, so this file holds
//! exactly ONE test — a second test in the same binary would start and
//! stop harness threads between the two readings.
#![cfg(all(target_arch = "x86_64", target_os = "linux"))]

use v2d_comm::{ReduceOp, Spmd};

fn os_threads() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status.lines().find(|l| l.starts_with("Threads:")).expect("Threads: line");
    line["Threads:".len()..].trim().parse().expect("thread count")
}

#[test]
fn every_rank_runs_on_the_launching_thread() {
    let launcher = std::thread::current().id();
    let before = os_threads();
    let outs = Spmd::new(64).run(move |ctx| {
        // Both readings sit between two hand-offs through all 64 ranks.
        let sum = ctx.comm.allreduce_scalar(&mut ctx.sink, ReduceOp::Sum, 1.0);
        let seen = (std::thread::current().id(), os_threads());
        ctx.comm.barrier(&mut ctx.sink);
        (sum, seen)
    });
    for (rank, (sum, seen)) in outs.into_iter().enumerate() {
        assert_eq!(sum, 64.0);
        assert_eq!(seen, (launcher, before), "rank {rank} ran on another OS thread");
    }
    assert_eq!(os_threads(), before);
}
