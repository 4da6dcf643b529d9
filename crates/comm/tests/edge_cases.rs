//! Edge cases of the communicator and topology: single-rank worlds,
//! degenerate topologies, misuse detection, and MPI-contract violations
//! that must fail loudly rather than deadlock silently.

use v2d_comm::topology::Dir;
use v2d_comm::{coll_site, CartComm, CommError, ReduceOp, Spmd, TileMap};
use v2d_machine::CompilerProfile;

fn one_profile() -> Vec<CompilerProfile> {
    vec![CompilerProfile::cray_opt()]
}

#[test]
fn single_rank_world_has_no_neighbors() {
    Spmd::new(1).with_profiles(one_profile()).run(|ctx| {
        let cart = CartComm::new(&ctx.comm, TileMap::new(8, 8, 1, 1));
        for dir in Dir::ALL {
            assert!(cart.neighbor(dir).is_none());
            assert!(!cart.post(&ctx.comm, &mut ctx.sink, dir, &[1.0]));
            assert!(!cart.collect_into(&ctx.comm, &mut ctx.sink, dir, &mut Vec::new()).unwrap());
        }
        // Collectives are identity and free.
        let before = ctx.sink.lanes[0].clock.now();
        let v = ctx.comm.allreduce_scalar(&mut ctx.sink, ReduceOp::Sum, 5.0);
        assert_eq!(v, 5.0);
        assert_eq!(ctx.sink.lanes[0].clock.now(), before);
    });
}

#[test]
fn degenerate_strip_topologies() {
    // 1×N and N×1 interior ranks have exactly two neighbors.
    for (np1, np2) in [(6usize, 1usize), (1, 6)] {
        let map = TileMap::new(12, 12, np1, np2);
        let counts = Spmd::new(6).with_profiles(one_profile()).run(move |ctx| {
            let cart = CartComm::new(&ctx.comm, map);
            Dir::ALL.iter().filter(|&&d| cart.neighbor(d).is_some()).count()
        });
        assert_eq!(counts[0], 1, "corner rank");
        assert_eq!(counts[5], 1, "corner rank");
        for &c in &counts[1..5] {
            assert_eq!(c, 2, "interior strip rank");
        }
    }
}

#[test]
fn collect_into_on_strip_topologies_clears_on_receipt_and_skips_boundaries() {
    // 1×N and N×1 tilings are the degenerate halo patterns: two of the
    // four directions are *always* domain boundaries.  `collect_into`
    // must leave `out` untouched on `Ok(false)` and replace (not append
    // to) its contents on `Ok(true)`.
    for (np1, np2) in [(4usize, 1usize), (1, 4)] {
        let map = TileMap::new(12, 12, np1, np2);
        Spmd::new(4).with_profiles(one_profile()).run(move |ctx| {
            let cart = CartComm::new(&ctx.comm, map);
            let me = ctx.comm.rank() as f64;
            // Post toward every direction that has a neighbor.
            for dir in Dir::ALL {
                cart.post(&ctx.comm, &mut ctx.sink, dir, &[me, me + 0.5]);
            }
            for dir in Dir::ALL {
                // Stale garbage of the wrong length: receipt must clear it.
                let mut out = vec![-7.0; 5];
                let got = cart
                    .collect_into(&ctx.comm, &mut ctx.sink, dir, &mut out)
                    .expect("strip collect never errors without faults");
                match cart.neighbor(dir) {
                    Some(partner) => {
                        assert!(got, "neighbor present but collect_into said boundary");
                        let p = partner as f64;
                        assert_eq!(out, vec![p, p + 0.5], "dir {dir:?}: wrong strip");
                    }
                    None => {
                        assert!(!got, "boundary dir {dir:?} produced a strip");
                        assert_eq!(out, vec![-7.0; 5], "boundary must leave out untouched");
                    }
                }
            }
        });
    }
}

#[test]
fn empty_and_large_payload_reductions() {
    Spmd::new(3).with_profiles(one_profile()).run(|ctx| {
        // Zero-length allreduce == barrier.
        let mut empty: [f64; 0] = [];
        ctx.comm.allreduce(&mut ctx.sink, ReduceOp::Sum, &mut empty);
        // A large ganged payload survives intact.
        let mut big: Vec<f64> = (0..10_000).map(|i| (ctx.rank() * 10_000 + i) as f64).collect();
        ctx.comm.allreduce(&mut ctx.sink, ReduceOp::Max, &mut big);
        for (i, v) in big.iter().enumerate() {
            assert_eq!(*v, (2 * 10_000 + i) as f64);
        }
    });
}

#[test]
fn broadcast_from_every_root() {
    for root in 0..4 {
        let outs = Spmd::new(4).with_profiles(one_profile()).run(move |ctx| {
            let data = if ctx.rank() == root { vec![root as f64; 3] } else { vec![] };
            ctx.comm.try_broadcast(&mut ctx.sink, coll_site::TEST_BASE, root, &data).unwrap()
        });
        for o in outs {
            assert_eq!(o, vec![root as f64; 3]);
        }
    }
}

#[test]
fn p2p_interleaved_tags_stay_ordered_per_source() {
    // Two sources send interleaved streams to one sink; per-source
    // ordering must hold even though global arrival order is arbitrary.
    let outs = Spmd::new(3).with_profiles(one_profile()).run(|ctx| match ctx.rank() {
        0 => {
            let mut got = Vec::new();
            for k in 0..20u32 {
                got.push(ctx.comm.recv(&mut ctx.sink, 1 + (k % 2) as usize, k / 2).unwrap()[0]);
            }
            got
        }
        r => {
            for k in 0..10u32 {
                ctx.comm.send(&mut ctx.sink, 0, k, &[(r as u32 * 100 + k) as f64]);
            }
            Vec::new()
        }
    });
    let got = &outs[0];
    // Streams interleave as 1,2,1,2,… with ascending per-source payloads.
    for k in 0..10 {
        assert_eq!(got[2 * k], (100 + k) as f64);
        assert_eq!(got[2 * k + 1], (200 + k) as f64);
    }
}

#[test]
fn wrong_tag_is_a_typed_error() {
    // A desynchronized tag stream must surface as CommError::TagMismatch
    // naming both tags — not a panic, not a silent hang.
    Spmd::new(2).with_profiles(one_profile()).run(|ctx| {
        if ctx.rank() == 0 {
            ctx.comm.send(&mut ctx.sink, 1, 7, &[1.0]);
        } else {
            let err = ctx.comm.recv(&mut ctx.sink, 0, 8).unwrap_err();
            assert!(
                matches!(err, CommError::TagMismatch { expected: 8, got: 7, .. }),
                "unexpected error: {err}"
            );
        }
    });
}

#[test]
#[should_panic]
fn topology_size_mismatch_is_detected() {
    Spmd::new(2).with_profiles(one_profile()).run(|ctx| {
        // 2 ranks, 3-rank topology: must panic, not hang.
        let _ = CartComm::new(&ctx.comm, TileMap::new(9, 9, 3, 1));
    });
}

#[test]
fn remainder_tiles_go_to_low_ranks() {
    let map = TileMap::new(10, 7, 3, 2);
    // x1: 10 over 3 → 4,3,3; x2: 7 over 2 → 4,3.
    assert_eq!(map.tile(0).n1, 4);
    assert_eq!(map.tile(1).n1, 3);
    assert_eq!(map.tile(0).n2, 4);
    assert_eq!(map.tile(map.rank_of(0, 1)).n2, 3);
}
