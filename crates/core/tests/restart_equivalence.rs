//! Restart equivalence: a run cut short after a rolling checkpoint and
//! resumed from that checkpoint on disk finishes bit-identical to the
//! straight run — in every field [`V2dSim::fields`] lists and in the
//! simulated time.
//!
//! The cut run is the same deck stopped at step `k + 1`, its rank loop
//! ([`V2dSim::run_checkpointed`]) saving a checkpoint every `k` steps
//! into a [`CheckpointStore`]; the store then holds step `k` alone.
//! [`CheckpointStore::load_latest`] reads it back from disk,
//! [`restore_checkpoint`] loads it into a fresh, uninitialised sim, and
//! the loop finishes the run.  A field that evolves but is left out of
//! `fields` restarts from its constructor value and fails here.
//!
//! The smoke band takes one seeded `k` per family and tiling (1×1, 2×1,
//! and 2×2 where the minimum-tile rule allows); the `#[ignore]`d deep
//! band (nightly CI) takes every `k` in `1..steps` on every tiling up to
//! 2×2.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use v2d_comm::{RankCtx, Spmd, TileMap};
use v2d_core::checkpoint::{restore_checkpoint, CheckpointStore};
use v2d_core::problems::{Family, FAMILIES};
use v2d_core::sim::{V2dConfig, V2dSim};
use v2d_machine::fault::SplitMix64;
use v2d_machine::CompilerProfile;

/// One rank's final state: each `fields()` entry's interior bits by
/// name, then the bits of `time()`.
#[derive(Debug, PartialEq)]
struct RankState {
    fields: Vec<(&'static str, Vec<u64>)>,
    time: u64,
}

fn state(sim: &V2dSim) -> RankState {
    let fields = sim
        .fields()
        .into_iter()
        .map(|(name, f)| (name, f.interior_to_vec().iter().map(|v| v.to_bits()).collect()))
        .collect();
    RankState { fields, time: sim.time().to_bits() }
}

/// Run `body` on `np.0 × np.1` ranks with one (Cray-opt) cost lane.
fn launch<T: Send>(np: (usize, usize), body: impl Fn(&mut RankCtx) -> T + Send + Sync) -> Vec<T> {
    Spmd::new(np.0 * np.1).with_profiles(vec![CompilerProfile::cray_opt()]).run(body)
}

/// `family`'s configuration at its smoke resolution.
fn smoke_config(family: Family) -> V2dConfig {
    let (n1, n2, steps) = family.scenario().smoke();
    family.scenario().config(n1, n2, steps)
}

/// The `candidates` that the minimum-tile rule admits on `cfg`'s grid.
fn tilings(cfg: &V2dConfig, candidates: &[(usize, usize)]) -> Vec<(usize, usize)> {
    let fits = |&(np1, np2): &(usize, usize)| {
        np1 <= cfg.max_ranks_along(cfg.grid.n1) && np2 <= cfg.max_ranks_along(cfg.grid.n2)
    };
    candidates.iter().copied().filter(fits).collect()
}

/// The straight run, through the rank loop with no checkpoints.
fn straight(family: Family, cfg: V2dConfig, np: (usize, usize)) -> Vec<RankState> {
    launch(np, |ctx| {
        let mut sim =
            V2dSim::new(cfg, &ctx.comm, TileMap::new(cfg.grid.n1, cfg.grid.n2, np.0, np.1));
        family.scenario().init(&mut sim);
        let end = sim.run_checkpointed(&ctx.comm, &mut ctx.sink, 0, None);
        assert!(end.error.is_none(), "{family} {np:?}: straight run failed: {:?}", end.error);
        state(&sim)
    })
}

/// The run cut at step `k + 1` with a checkpoint every `k` steps, then
/// resumed from the store on disk in a fresh launch.
fn resumed(family: Family, cfg: V2dConfig, np: (usize, usize), k: usize) -> Vec<RankState> {
    let map = TileMap::new(cfg.grid.n1, cfg.grid.n2, np.0, np.1);
    // The two bands may run at once in one process: each call gets its
    // own directory.
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    let dir: PathBuf =
        std::env::temp_dir().join(format!("v2d_restart_{family}_{}_{call}", std::process::id()));
    let mut store = CheckpointStore::new(&dir, 2).expect("checkpoint store");
    store.clear();
    let cut = V2dConfig { n_steps: k + 1, ..cfg };
    let lend = std::sync::Mutex::new(Some(&mut store));
    launch(np, |ctx| {
        let mut sim = V2dSim::new(cut, &ctx.comm, map);
        family.scenario().init(&mut sim);
        let store = (ctx.rank() == 0).then(|| lend.lock().unwrap().take()).flatten();
        let end = sim.run_checkpointed(&ctx.comm, &mut ctx.sink, k, store);
        assert!(end.error.is_none(), "{family} {np:?} k={k}: cut run failed: {:?}", end.error);
        assert!(end.save_error.is_none(), "{family} {np:?} k={k}: {:?}", end.save_error);
    });
    let (file, path, skipped) = store.load_latest().expect("the cut run saved a checkpoint");
    assert!(skipped.is_empty(), "{family} {np:?} k={k}: skipped {skipped:?}");
    assert!(path.ends_with(format!("ck_{k:08}.h5l")), "{family} {np:?} k={k}: newest is {path:?}");
    let out = launch(np, |ctx| {
        let mut sim = V2dSim::new(cfg, &ctx.comm, map);
        restore_checkpoint(&mut sim, &file).expect("restore");
        assert_eq!(sim.istep(), k);
        let end = sim.run_checkpointed(&ctx.comm, &mut ctx.sink, 0, None);
        assert!(end.error.is_none(), "{family} {np:?} k={k}: resumed run failed: {:?}", end.error);
        state(&sim)
    });
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Bit equality, rank by rank and field by field, with the first
/// differing zone named.
fn assert_same(
    family: Family,
    np: (usize, usize),
    k: usize,
    want: &[RankState],
    got: &[RankState],
) {
    for (rank, (w, g)) in want.iter().zip(got).enumerate() {
        let names = |s: &RankState| s.fields.iter().map(|f| f.0).collect::<Vec<_>>();
        assert_eq!(names(w), names(g), "{family} {np:?} k={k} rank {rank}: field lists differ");
        for ((name, a), (_, b)) in w.fields.iter().zip(&g.fields) {
            if let Some(i) = a.iter().zip(b).position(|(x, y)| x != y) {
                panic!(
                    "{family} {np:?} k={k} rank {rank}: {name}[{i}] straight {} vs resumed {}",
                    f64::from_bits(a[i]),
                    f64::from_bits(b[i])
                );
            }
        }
        assert_eq!(w.time, g.time, "{family} {np:?} k={k} rank {rank}: time differs");
    }
}

/// Check every family, each on its own thread: they are independent,
/// so the band takes as long as its slowest family.
fn for_each_family(check: impl Fn(Family) + Sync) {
    let check = &check;
    std::thread::scope(|s| {
        for family in FAMILIES {
            s.spawn(move || check(family));
        }
    });
}

#[test]
fn every_family_resumes_bit_identically_from_a_seeded_checkpoint() {
    for_each_family(|family| {
        let cfg = smoke_config(family);
        let mut rng = SplitMix64::new(0x5EED_0E2E ^ family as u64);
        for np in tilings(&cfg, &[(1, 1), (2, 1), (2, 2)]) {
            let k = 1 + (rng.next_u64() % (cfg.n_steps as u64 - 1)) as usize;
            let want = straight(family, cfg, np);
            assert_same(family, np, k, &want, &resumed(family, cfg, np, k));
        }
    });
}

#[test]
#[ignore = "deep band: every k on every tiling up to 2×2 (nightly CI)"]
fn every_family_resumes_bit_identically_from_every_checkpoint() {
    for_each_family(|family| {
        let cfg = smoke_config(family);
        for np in tilings(&cfg, &[(1, 1), (2, 1), (1, 2), (2, 2)]) {
            let want = straight(family, cfg, np);
            for k in 1..cfg.n_steps {
                assert_same(family, np, k, &want, &resumed(family, cfg, np, k));
            }
        }
    });
}
