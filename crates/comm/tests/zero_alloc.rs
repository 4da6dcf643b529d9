//! A warm communication round makes no heap allocation at all, counted
//! by the allocator itself rather than by a per-type counter: a
//! four-direction halo exchange through [`CartComm`], a ganged
//! `try_allreduce` and an `allreduce_scalar`.
//!
//! The counting allocator is process-global, so this file contains
//! exactly ONE test — a second test in the same binary would allocate
//! inside the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use v2d_comm::topology::Dir;
use v2d_comm::{coll_site, CartComm, RankCtx, ReduceOp, Spmd, TileMap};

/// [`System`], counting every allocation and reallocation it serves.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` unchanged; the counter is a
// relaxed atomic that allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn warm_halo_and_collective_rounds_never_allocate() {
    // A pair, the paper's 20-rank 5×4 cell, and the `weak_256` strip.
    for (np1, np2) in [(2, 1), (5, 4), (256, 1)] {
        warm_rounds(np1, np2);
    }
}

/// 25 warm solver-shaped rounds on an `np1 × np2` topology of 8×8
/// tiles; every rank must see zero allocations across them.
fn warm_rounds(np1: usize, np2: usize) {
    let rounds = 25;
    let map = TileMap::new(8 * np1, 8 * np2, np1, np2);
    let outs = Spmd::new(np1 * np2).run(move |ctx| {
        let cart = CartComm::new(&ctx.comm, map);
        let me = ctx.rank() as f64;
        let strip = [me; 16];
        let mut ghosts: [Vec<f64>; 4] = Default::default();
        let mut gang = [0.0; 5];
        let mut round = |ctx: &mut RankCtx| {
            for dir in Dir::ALL {
                cart.post(&ctx.comm, &mut ctx.sink, dir, &strip);
            }
            for (dir, ghost) in Dir::ALL.into_iter().zip(&mut ghosts) {
                if cart.collect_into(&ctx.comm, &mut ctx.sink, dir, ghost).expect("healthy") {
                    assert_eq!(ghost[..], [cart.neighbor(dir).expect("posted") as f64; 16]);
                }
            }
            gang = [me, 1.0, 2.0, 3.0, 4.0];
            ctx.comm
                .try_allreduce(&mut ctx.sink, coll_site::SOLVER_REDUCE, ReduceOp::Sum, &mut gang)
                .expect("lockstep");
            assert_eq!(gang[1], ctx.n_ranks() as f64);
            ctx.comm.allreduce_scalar(&mut ctx.sink, ReduceOp::Max, me)
        };

        // Two warm-up rounds fill the pools, mailboxes and collective
        // buffers, as the first time step of a production run would.
        for _ in 0..2 {
            round(ctx);
        }
        // Double barrier around the snapshot: the first drains the
        // warm-up group-wide, the second keeps every rank from starting
        // a round until all snapshots are taken.
        ctx.comm.barrier(&mut ctx.sink);
        let t0 = ALLOCS.load(Ordering::Relaxed);
        ctx.comm.barrier(&mut ctx.sink);
        for _ in 0..rounds {
            round(ctx);
        }
        ctx.comm.barrier(&mut ctx.sink);
        ALLOCS.load(Ordering::Relaxed) - t0
    });
    for (rank, delta) in outs.into_iter().enumerate() {
        assert_eq!(delta, 0, "rank {rank} of {np1}×{np2}: warm rounds must not allocate");
    }
}
