//! Corrupt-checkpoint round trips: the rotating [`CheckpointStore`]
//! must skip truncated, bit-flipped, and wrong-version files and fall
//! back to the newest checkpoint that still decodes — and restoring
//! from it must resume the simulation.

use v2d_comm::{Spmd, TileMap};
use v2d_core::checkpoint::{
    restore_checkpoint, write_checkpoint, CheckpointError, CheckpointStore,
};
use v2d_core::problems::{GaussianPulse, Scenario};
use v2d_core::sim::V2dSim;
use v2d_machine::CompilerProfile;

fn profiles() -> Vec<CompilerProfile> {
    vec![CompilerProfile::cray_opt()]
}

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("v2d_ck_recovery_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Write three checkpoints (after steps 1, 2, 3) of a small Gaussian
/// run and return (store, final-step erad snapshot per saved step).
fn seed_store(dir: &std::path::Path) -> CheckpointStore {
    let (n1, n2) = (12, 8);
    let cfg = GaussianPulse::linear_config(n1, n2, 4);
    Spmd::new(1).with_profiles(profiles()).run(|ctx| {
        let mut store = CheckpointStore::new(dir, 8).expect("store dir");
        let map = TileMap::new(n1, n2, 1, 1);
        let mut sim = V2dSim::new(cfg, &ctx.comm, map);
        GaussianPulse::standard().init(&mut sim);
        for _ in 0..3 {
            sim.step(&ctx.comm, &mut ctx.sink);
            let f = write_checkpoint(&ctx.comm, &mut ctx.sink, &sim).expect("checkpoint gather");
            store.save(&f, sim.istep()).expect("save checkpoint");
        }
    });
    CheckpointStore::new(dir, 8).expect("store dir")
}

fn newest(store: &CheckpointStore) -> std::path::PathBuf {
    let (_, path, _) = store.load_latest().expect("a checkpoint should load");
    path
}

#[test]
fn truncated_newest_falls_back_to_previous() {
    let dir = fresh_dir("trunc");
    let store = seed_store(&dir);
    let latest = newest(&store);
    assert!(latest.ends_with("ck_00000003.h5l"));
    // Truncate the newest file to half its size (a crash mid-write on a
    // filesystem without atomic rename would look like this).
    let bytes = std::fs::read(&latest).expect("read checkpoint");
    std::fs::write(&latest, &bytes[..bytes.len() / 2]).expect("truncate");

    let (file, path, skipped) = store.load_latest().expect("fallback should succeed");
    assert!(path.ends_with("ck_00000002.h5l"), "fell back to {path:?}");
    assert_eq!(skipped.len(), 1, "one skip note expected: {skipped:?}");
    assert!(skipped[0].starts_with("ck_00000003.h5l:"), "{skipped:?}");
    // The fallback file is fully usable.
    assert!(file.dataset("radiation/erad").is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flipped_byte_is_caught_by_checksum_and_skipped() {
    let dir = fresh_dir("flip");
    let store = seed_store(&dir);
    let latest = newest(&store);
    let mut bytes = std::fs::read(&latest).expect("read checkpoint");
    // Flip one payload byte in the middle of the file; the checksum
    // chain (whole-payload FNV + per-dataset CRC-32) must reject it.
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&latest, &bytes).expect("re-write corrupted");

    let (_, path, skipped) = store.load_latest().expect("fallback should succeed");
    assert!(path.ends_with("ck_00000002.h5l"), "fell back to {path:?}");
    assert_eq!(skipped.len(), 1, "{skipped:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wrong_version_is_skipped() {
    let dir = fresh_dir("vers");
    let store = seed_store(&dir);
    let latest = newest(&store);
    let mut bytes = std::fs::read(&latest).expect("read checkpoint");
    // Bytes 4..6 hold the little-endian format version.
    bytes[4] = 0xEE;
    bytes[5] = 0xEE;
    std::fs::write(&latest, &bytes).expect("re-write wrong version");

    let (_, path, skipped) = store.load_latest().expect("fallback should succeed");
    assert!(path.ends_with("ck_00000002.h5l"), "fell back to {path:?}");
    assert_eq!(skipped.len(), 1, "{skipped:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn all_corrupt_reports_every_candidate() {
    let dir = fresh_dir("all");
    let store = seed_store(&dir);
    for path in std::fs::read_dir(&dir).expect("read dir").flatten() {
        let p = path.path();
        let bytes = std::fs::read(&p).expect("read");
        std::fs::write(&p, &bytes[..4]).expect("destroy");
    }
    match store.load_latest() {
        Err(CheckpointError::NoUsableCheckpoint { tried, .. }) => assert_eq!(tried, 3),
        other => panic!("expected NoUsableCheckpoint, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mixed_corruption_dir_walks_newest_first_to_the_newest_valid_file() {
    // Five checkpoints; the newest three each die a *different* death
    // (truncation, bit flip, wrong version) and two stray non-checkpoint
    // files sit in the directory.  The walk must visit candidates
    // newest-first, report one note per corpse in that order, ignore the
    // strays, and restore the newest file that still decodes.
    let dir = fresh_dir("mixed");
    let (n1, n2) = (12, 8);
    let cfg = GaussianPulse::linear_config(n1, n2, 6);
    Spmd::new(1).with_profiles(profiles()).run(|ctx| {
        let mut store = CheckpointStore::new(&dir, 8).expect("store dir");
        let map = TileMap::new(n1, n2, 1, 1);
        let mut sim = V2dSim::new(cfg, &ctx.comm, map);
        GaussianPulse::standard().init(&mut sim);
        for _ in 0..5 {
            sim.step(&ctx.comm, &mut ctx.sink);
            let f = write_checkpoint(&ctx.comm, &mut ctx.sink, &sim).expect("checkpoint gather");
            store.save(&f, sim.istep()).expect("save checkpoint");
        }
    });
    let store = CheckpointStore::new(&dir, 8).expect("store dir");

    let ck = |step: usize| dir.join(format!("ck_{step:08}.h5l"));
    let bytes = std::fs::read(ck(5)).expect("read ck5");
    std::fs::write(ck(5), &bytes[..bytes.len() / 2]).expect("truncate ck5");
    let mut bytes = std::fs::read(ck(4)).expect("read ck4");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(ck(4), &bytes).expect("bit-flip ck4");
    let mut bytes = std::fs::read(ck(3)).expect("read ck3");
    bytes[4] = 0xEE;
    bytes[5] = 0xEE;
    std::fs::write(ck(3), &bytes).expect("wrong-version ck3");
    // Strays that must not even be candidates.
    std::fs::write(dir.join("notes.txt"), b"not a checkpoint").expect("stray");
    std::fs::write(dir.join("ck_tmp.partial"), b"\0\0\0\0").expect("stray");

    let (file, path, skipped) = store.load_latest().expect("ck2 should survive");
    assert!(path.ends_with("ck_00000002.h5l"), "newest valid is ck2, got {path:?}");
    assert_eq!(skipped.len(), 3, "three corpses, three notes: {skipped:?}");
    // Newest-first walk order, one distinct cause per corpse.
    assert!(skipped[0].starts_with("ck_00000005.h5l:"), "{skipped:?}");
    assert!(skipped[1].starts_with("ck_00000004.h5l:"), "{skipped:?}");
    assert!(skipped[2].starts_with("ck_00000003.h5l:"), "{skipped:?}");
    assert!(file.dataset("radiation/erad").is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fallback_checkpoint_resumes_the_run() {
    // Corrupt the newest checkpoint, restore from the automatic
    // fallback, and continue: the resumed run must land on the same
    // field as an uninterrupted one.
    let dir = fresh_dir("resume");
    let (n1, n2) = (12, 8);
    let cfg = GaussianPulse::linear_config(n1, n2, 4);
    Spmd::new(1).with_profiles(profiles()).run(|ctx| {
        let map = TileMap::new(n1, n2, 1, 1);
        let mut store = CheckpointStore::new(&dir, 8).expect("store dir");

        // Reference run: 4 steps straight through, checkpointing as it
        // goes.
        let mut sim = V2dSim::new(cfg, &ctx.comm, map);
        GaussianPulse::standard().init(&mut sim);
        for _ in 0..3 {
            sim.step(&ctx.comm, &mut ctx.sink);
            let f = write_checkpoint(&ctx.comm, &mut ctx.sink, &sim).expect("checkpoint gather");
            store.save(&f, sim.istep()).expect("save checkpoint");
        }
        sim.step(&ctx.comm, &mut ctx.sink);
        let reference = sim.erad().interior_to_vec();

        // Kill the newest checkpoint; the store must fall back to the
        // step-2 file.
        let (_, newest, _) = store.load_latest().expect("latest");
        let bytes = std::fs::read(&newest).expect("read");
        std::fs::write(&newest, &bytes[..bytes.len() / 3]).expect("truncate");
        let (file, path, skipped) = store.load_latest().expect("fallback");
        assert!(path.ends_with("ck_00000002.h5l"));
        assert_eq!(skipped.len(), 1);

        // Resume from step 2 and take the remaining two steps.
        let mut resumed = V2dSim::new(cfg, &ctx.comm, map);
        GaussianPulse::standard().init(&mut resumed);
        restore_checkpoint(&mut resumed, &file).expect("restore");
        assert_eq!(resumed.istep(), 2);
        for _ in 0..2 {
            resumed.step(&ctx.comm, &mut ctx.sink);
        }
        let resumed_field = resumed.erad().interior_to_vec();
        assert_eq!(reference.len(), resumed_field.len());
        for (i, (a, b)) in reference.iter().zip(&resumed_field).enumerate() {
            assert!(
                (a - b).abs() <= 1e-12 * (1.0 + a.abs()),
                "resumed run diverged at {i}: {a} vs {b}"
            );
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
}
