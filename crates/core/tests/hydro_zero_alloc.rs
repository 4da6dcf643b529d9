//! A warm hydro step makes no heap allocation at all, counted by the
//! allocator itself: the CFL reduction, both split sweeps and their
//! halo exchanges, on one rank and on 2×1 and 2×2 tilings, with outflow
//! sides and with reflecting walls.  Each step runs as a profiled
//! routine with a nested one, so recording into a warm
//! [`v2d_perf::Profiler`] is held to the same bound.
//!
//! The counting allocator is process-global, so this file contains
//! exactly ONE test — a second test in the same binary would allocate
//! inside the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use v2d_comm::{CartComm, RankCtx, Spmd, TileMap};
use v2d_core::hydro::eos::Prim;
use v2d_core::hydro::{GammaLaw, HydroBc, HydroState, HydroStepper};
use v2d_core::{Geometry, Grid2, LocalGrid};
use v2d_machine::ExecCtx;
use v2d_perf::Profiler;

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
fn warm_hydro_steps_never_allocate() {
    for (bc, sides) in [(HydroBc::outflow(), "outflow"), (HydroBc::closed_box(), "reflecting")] {
        for (np1, np2) in [(1, 1), (2, 1), (2, 2)] {
            let deltas = warm_steps(np1, np2, bc);
            for (rank, delta) in deltas.into_iter().enumerate() {
                assert_eq!(delta, 0, "rank {rank} of {np1}×{np2} ({sides}): a warm step allocated");
            }
        }
    }
}

/// Ten warm hydro steps on an `np1 × np2` tiling of a 16×8 grid, each
/// one profiled routine around a nested CFL routine; the allocations
/// every rank sees across them.
fn warm_steps(np1: usize, np2: usize, bc: HydroBc) -> Vec<u64> {
    let (n1, n2) = (16, 8);
    let global = Grid2::new(n1, n2, (0.0, 1.0), (0.0, 0.5), Geometry::Cartesian);
    let map = TileMap::new(n1, n2, np1, np2);
    Spmd::new(np1 * np2).run(move |ctx| {
        let cart = CartComm::new(&ctx.comm, map);
        let t = cart.tile();
        let grid = LocalGrid::new(global, t);
        let eos = GammaLaw::new(1.4);
        let mut state = HydroState::from_prim(t.n1, t.n2, &eos, |i1, i2| {
            let bump = ((t.i1_start + i1 + 2 * (t.i2_start + i2)) % 5) as f64;
            Prim { rho: 1.0 + 0.1 * bump, u1: 0.2, u2: -0.1, p: 1.0 }
        });
        let stepper = HydroStepper::new(eos, 0.4).with_bc(bc);
        let mut prof = Profiler::new();
        let mut step = |ctx: &mut RankCtx| {
            let mut cx = ExecCtx::with_parts(&mut ctx.sink, Some(&mut prof), None, None);
            cx.routine("hydro", |cx| {
                let dt = cx.routine("cfl", |cx| stepper.max_dt(&ctx.comm, cx, &grid, &state));
                let dt = dt.expect("healthy comm");
                stepper
                    .step(&ctx.comm, cx, &cart, &grid, &mut state, dt.min(1e-3))
                    .expect("physical");
            });
        };

        // Three warm-up steps fill the halo and line scratch, the
        // message pools and the collective buffers.
        for _ in 0..3 {
            step(ctx);
        }
        // Double barrier around the snapshot: the first drains the
        // warm-up group-wide, the second keeps every rank from starting
        // a step until all snapshots are taken.
        ctx.comm.barrier(&mut ctx.sink);
        let t0 = ALLOCS.load(Ordering::Relaxed);
        ctx.comm.barrier(&mut ctx.sink);
        for _ in 0..10 {
            step(ctx);
        }
        ctx.comm.barrier(&mut ctx.sink);
        let delta = ALLOCS.load(Ordering::Relaxed) - t0;
        for name in ["hydro", "cfl"] {
            assert_eq!(prof.routine(name).map(|r| r.calls), Some(13), "{name} calls");
        }
        delta
    })
}
