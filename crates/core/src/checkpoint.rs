//! Checkpoint / restart through the h5lite substrate.
//!
//! V2D writes HDF5 checkpoints through MPI-IO; here each rank
//! contributes its tile through an `allgatherv` (so every rank holds the
//! assembled file — rank 0 is the one that typically persists it) and
//! the global datasets are assembled with `v2d_io::gather_global`.  The
//! file layout:
//!
//! ```text
//! /              @time, @istep, @n1, @n2
//! /radiation/erad          f64 [2, n2, n1]
//! /hydro/{rho,m1,m2,etot}  f64 [n2, n1]   (when hydro is enabled)
//! /coupling/temperature    f64 [n2, n1]   (when matter coupling is enabled)
//! ```
//!
//! The datasets are exactly `V2dSim::fields`, in that order: writing
//! and restoring walk the same list, so a field the simulation evolves
//! cannot be left out of one side.

use std::path::{Path, PathBuf};

use v2d_comm::{coll_site, Comm, CommError};
use v2d_io::parallel::TileData;
use v2d_io::{Dataset, File, H5Error, Value};
use v2d_linalg::TileVec;
use v2d_machine::{KernelClass, KernelShape, MultiCostSink};

use crate::sim::V2dSim;

/// Why a checkpoint could not be restored (or persisted).
#[derive(Debug)]
pub enum CheckpointError {
    /// A required attribute is absent.
    MissingAttr { name: String },
    /// An attribute exists with the wrong type.
    BadAttr { name: String, expected: &'static str },
    /// A required dataset is absent.
    MissingDataset { name: String },
    /// A dataset exists with the wrong element type.
    BadDataset { name: String, expected: &'static str },
    /// The checkpoint was written for a different global grid.
    GridMismatch { file: (usize, usize), sim: (usize, usize) },
    /// The container layer rejected the file (I/O, corruption, version).
    Io(H5Error),
    /// No file in the store's directory decoded cleanly.
    NoUsableCheckpoint { dir: String, tried: usize },
    /// The checkpoint allgather failed (lockstep mismatch, timeout,
    /// peer death) — no assembled file exists on any rank.
    Comm(CommError),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::MissingAttr { name } => {
                write!(f, "checkpoint missing attribute `{name}`")
            }
            CheckpointError::BadAttr { name, expected } => {
                write!(f, "checkpoint attribute `{name}` is not {expected}")
            }
            CheckpointError::MissingDataset { name } => {
                write!(f, "checkpoint missing dataset `{name}`")
            }
            CheckpointError::BadDataset { name, expected } => {
                write!(f, "checkpoint dataset `{name}` is not {expected}")
            }
            CheckpointError::GridMismatch { file, sim } => write!(
                f,
                "checkpoint grid {}x{} does not match simulation grid {}x{}",
                file.0, file.1, sim.0, sim.1
            ),
            CheckpointError::Io(e) => write!(f, "checkpoint container error: {e}"),
            CheckpointError::NoUsableCheckpoint { dir, tried } => {
                write!(f, "no usable checkpoint in {dir} ({tried} file(s) tried)")
            }
            CheckpointError::Comm(e) => write!(f, "checkpoint gather failed: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<H5Error> for CheckpointError {
    fn from(e: H5Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<CommError> for CheckpointError {
    fn from(e: CommError) -> Self {
        CheckpointError::Comm(e)
    }
}

pub(crate) fn attr_i64(file: &File, name: &str) -> Result<i64, CheckpointError> {
    match file.attr(name) {
        Ok(Value::I64(v)) => Ok(*v),
        Ok(_) => Err(CheckpointError::BadAttr { name: name.into(), expected: "an integer" }),
        Err(_) => Err(CheckpointError::MissingAttr { name: name.into() }),
    }
}

fn attr_f64(file: &File, name: &str) -> Result<f64, CheckpointError> {
    match file.attr(name) {
        Ok(Value::F64(v)) => Ok(*v),
        Ok(_) => Err(CheckpointError::BadAttr { name: name.into(), expected: "a float" }),
        Err(_) => Err(CheckpointError::MissingAttr { name: name.into() }),
    }
}

fn dataset_f64<'f>(file: &'f File, name: &str) -> Result<&'f [f64], CheckpointError> {
    match file.dataset(name) {
        Ok(ds) => {
            ds.as_f64().ok_or(CheckpointError::BadDataset { name: name.into(), expected: "f64" })
        }
        Err(_) => Err(CheckpointError::MissingDataset { name: name.into() }),
    }
}

/// Gather one distributed field into a global array on every rank:
/// plane-major, then row-major over the full grid.
fn gather_field(
    comm: &Comm,
    sink: &mut MultiCostSink,
    sim: &V2dSim,
    field: &TileVec,
) -> Result<Vec<f64>, CommError> {
    let g = sim.grid();
    let planes = field.planes();
    let values = field.interior_to_vec();
    // Header: tile extents, then payload.
    let mut msg = vec![g.i1_start as f64, g.n1 as f64, g.i2_start as f64, g.n2 as f64];
    sink.charge(&KernelShape::streaming(KernelClass::Pack, values.len(), 0, 1, 1, 0));
    msg.extend_from_slice(&values);
    let all = comm.try_allgatherv(sink, coll_site::CHECKPOINT_GATHER, &msg)?;

    // Decode rank contributions in order.
    let mut tiles = Vec::with_capacity(comm.n_ranks());
    let mut at = 0;
    while at < all.len() {
        let i1_start = all[at] as usize;
        let n1 = all[at + 1] as usize;
        let i2_start = all[at + 2] as usize;
        let n2 = all[at + 3] as usize;
        let len = planes * n1 * n2;
        tiles.push(TileData {
            i1_start,
            n1,
            i2_start,
            n2,
            data: all[at + 4..at + 4 + len].to_vec(),
        });
        at += 4 + len;
    }
    Ok(v2d_io::gather_global(g.global.n1, g.global.n2, planes, &tiles))
}

/// The dataset shape of a `planes`-plane field on a `gn1 × gn2` grid:
/// `[planes, n2, n1]`, or `[n2, n1]` for a scalar field.
fn dataset_shape(planes: usize, gn1: usize, gn2: usize) -> Vec<usize> {
    if planes == 1 {
        vec![gn2, gn1]
    } else {
        vec![planes, gn2, gn1]
    }
}

/// Assemble a checkpoint of `sim` (every rank returns the identical
/// file; persist it from rank 0 with [`v2d_io::File::save`]).  Every
/// field of `V2dSim::fields` is gathered, in that order.
///
/// Fails with [`CheckpointError::Comm`] if the gather collective fails
/// (lockstep mismatch, deadline expiry under fault injection); no file
/// is produced on any rank in that case.
pub fn write_checkpoint(
    comm: &Comm,
    sink: &mut MultiCostSink,
    sim: &V2dSim,
) -> Result<File, CheckpointError> {
    Ok(gather_checkpoint(comm, sink, sim)?)
}

/// [`write_checkpoint`] failing with the gather's own error, the only
/// way it can fail.
pub(crate) fn gather_checkpoint(
    comm: &Comm,
    sink: &mut MultiCostSink,
    sim: &V2dSim,
) -> Result<File, CommError> {
    let g = sim.grid();
    let (gn1, gn2) = (g.global.n1, g.global.n2);
    let mut f = File::new();
    f.set_attr("time", Value::F64(sim.time()));
    f.set_attr("istep", Value::I64(sim.istep() as i64));
    f.set_attr("n1", Value::I64(gn1 as i64));
    f.set_attr("n2", Value::I64(gn2 as i64));
    f.set_attr("code", Value::Str("V2D-rust".into()));

    for (name, field) in sim.fields() {
        let global = gather_field(comm, sink, sim, field)?;
        f.write_dataset(name, Dataset::f64(dataset_shape(field.planes(), gn1, gn2), global));
    }
    Ok(f)
}

/// Restore `sim`'s rank-local state from a checkpoint file: every field
/// of `V2dSim::fields`.
///
/// Every defect — missing or mistyped attribute/dataset, grid mismatch —
/// is a typed [`CheckpointError`] naming the offending member, and the
/// simulation is left untouched on any error (all validation happens
/// before the first field write).
pub fn restore_checkpoint(sim: &mut V2dSim, file: &File) -> Result<(), CheckpointError> {
    let g = *sim.grid();
    let (gn1, gn2) = (g.global.n1, g.global.n2);
    let n1_ck = attr_i64(file, "n1")? as usize;
    let n2_ck = attr_i64(file, "n2")? as usize;
    if (n1_ck, n2_ck) != (gn1, gn2) {
        return Err(CheckpointError::GridMismatch { file: (n1_ck, n2_ck), sim: (gn1, gn2) });
    }

    let time = attr_f64(file, "time")?;
    let istep = attr_i64(file, "istep")? as usize;

    // Validate every dataset (presence, type, length) before mutating
    // anything, so a half-valid file cannot leave a half-restored sim.
    let mut datasets = Vec::new();
    for (name, field) in sim.fields() {
        let data = dataset_f64(file, name)?;
        if data.len() != field.planes() * gn1 * gn2 {
            let expected =
                if field.planes() == 1 { "an n2 * n1 array" } else { "an nspec * n2 * n1 array" };
            return Err(CheckpointError::BadDataset { name: name.into(), expected });
        }
        datasets.push(data);
    }

    sim.set_time(time, istep);
    let (i1s, i2s) = (g.i1_start, g.i2_start);
    for ((_, field), data) in sim.fields_mut().into_iter().zip(datasets) {
        field.fill_with(|s, i1, i2| data[s * gn1 * gn2 + (i2s + i2) * gn1 + (i1s + i1)]);
    }
    Ok(())
}

/// A rotating on-disk checkpoint store with crash-safe writes and
/// corruption-tolerant restore.
///
/// `save` writes `ck_<istep>.h5l` atomically (tmp + rename, via
/// [`File::save`]) and prunes the oldest files beyond `keep`;
/// `load_latest` walks the directory newest-first and returns the first
/// checkpoint that decodes cleanly, skipping truncated, corrupt, or
/// wrong-version files and reporting each skip.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    keep: usize,
}

impl CheckpointStore {
    /// A store rooted at `dir` (created on demand), keeping at most
    /// `keep` checkpoints on disk (clamped to ≥ 1).  Pruning runs after
    /// each successful [`CheckpointStore::save`] and never deletes the
    /// newest file.
    pub fn new(dir: impl Into<PathBuf>, keep: usize) -> Result<Self, CheckpointError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| CheckpointError::Io(H5Error::Io(e)))?;
        Ok(CheckpointStore { dir, keep: keep.max(1) })
    }

    /// The directory this store writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The current retention bound.
    pub fn keep(&self) -> usize {
        self.keep
    }

    /// Delete every checkpoint file in the store's directory (e.g. when
    /// a supervised run starts fresh and stale checkpoints from an
    /// earlier run must not be rolled back into).  Best-effort.
    pub fn clear(&mut self) {
        for path in self.checkpoint_files() {
            let _ = std::fs::remove_file(path);
        }
    }

    fn checkpoint_files(&self) -> Vec<PathBuf> {
        let mut files: Vec<PathBuf> = match std::fs::read_dir(&self.dir) {
            Ok(rd) => rd
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| {
                    p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("ck_") && n.ends_with(".h5l"))
                })
                .collect(),
            Err(_) => Vec::new(),
        };
        // Zero-padded step numbers make lexicographic == chronological.
        files.sort();
        files
    }

    /// Persist `file` as the checkpoint for step `istep`, then prune.
    pub fn save(&mut self, file: &File, istep: usize) -> Result<PathBuf, CheckpointError> {
        let path = self.dir.join(format!("ck_{istep:08}.h5l"));
        file.save(&path)?;
        let files = self.checkpoint_files();
        if files.len() > self.keep {
            for old in &files[..files.len() - self.keep] {
                // Pruning is best-effort: a stuck old file must not fail
                // the save that just succeeded.
                let _ = std::fs::remove_file(old);
            }
        }
        Ok(path)
    }

    /// Load the newest checkpoint that decodes cleanly.  Returns the
    /// file, its path, and one note per skipped (corrupt, truncated, or
    /// wrong-version) candidate, newest first.
    pub fn load_latest(&self) -> Result<(File, PathBuf, Vec<String>), CheckpointError> {
        let files = self.checkpoint_files();
        let mut skipped = Vec::new();
        for path in files.iter().rev() {
            match File::open(path) {
                Ok(f) => return Ok((f, path.clone(), skipped)),
                Err(e) => {
                    let name = path
                        .file_name()
                        .and_then(|n| n.to_str())
                        .unwrap_or("<non-utf8>")
                        .to_string();
                    skipped.push(format!("{name}: {}", e.root_cause()));
                }
            }
        }
        Err(CheckpointError::NoUsableCheckpoint {
            dir: self.dir.display().to_string(),
            tried: skipped.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems::{GaussianPulse, Scenario};
    use crate::sim::V2dSim;
    use v2d_comm::{Spmd, TileMap};
    use v2d_machine::CompilerProfile;

    fn profiles() -> Vec<CompilerProfile> {
        vec![CompilerProfile::cray_opt()]
    }

    #[test]
    fn checkpoint_roundtrip_restores_exact_state() {
        let (n1, n2) = (16, 12);
        let cfg = GaussianPulse::linear_config(n1, n2, 10);
        Spmd::new(1).with_profiles(profiles()).run(|ctx| {
            let map = TileMap::new(n1, n2, 1, 1);
            let mut sim = V2dSim::new(cfg, &ctx.comm, map);
            GaussianPulse::standard().init(&mut sim);
            for _ in 0..2 {
                sim.step(&ctx.comm, &mut ctx.sink);
            }
            let ck = write_checkpoint(&ctx.comm, &mut ctx.sink, &sim).expect("checkpoint gather");
            // Continue the original.
            for _ in 0..2 {
                sim.step(&ctx.comm, &mut ctx.sink);
            }
            let reference = sim.erad().interior_to_vec();

            // Restore into a fresh sim and continue identically.
            let mut sim2 = V2dSim::new(cfg, &ctx.comm, map);
            restore_checkpoint(&mut sim2, &ck).expect("valid checkpoint");
            assert_eq!(sim2.istep(), 2);
            for _ in 0..2 {
                sim2.step(&ctx.comm, &mut ctx.sink);
            }
            let restored = sim2.erad().interior_to_vec();
            assert_eq!(reference, restored, "restart diverged from original run");
        });
    }

    #[test]
    fn checkpoint_survives_disk_and_is_topology_independent() {
        let (n1, n2) = (12, 8);
        let cfg = GaussianPulse::linear_config(n1, n2, 10);
        let make = |np1: usize, np2: usize| {
            Spmd::new(np1 * np2).with_profiles(profiles()).run(|ctx| {
                let map = TileMap::new(n1, n2, np1, np2);
                let mut sim = V2dSim::new(cfg, &ctx.comm, map);
                GaussianPulse::standard().init(&mut sim);
                sim.step(&ctx.comm, &mut ctx.sink);
                write_checkpoint(&ctx.comm, &mut ctx.sink, &sim).expect("checkpoint gather")
            })
        };
        let single = make(1, 1);
        let multi = make(2, 2);
        // Every rank assembled the same file.
        for f in &multi {
            assert_eq!(f.attr("istep").unwrap(), single[0].attr("istep").unwrap());
            let a = f.dataset("radiation/erad").unwrap().as_f64().unwrap();
            let b = single[0].dataset("radiation/erad").unwrap().as_f64().unwrap();
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                assert!(
                    (x - y).abs() < 1e-9,
                    "decomposed checkpoint differs from single-rank: {x} vs {y}"
                );
            }
        }
        // Disk roundtrip through the h5lite container.
        let dir = std::env::temp_dir().join("v2d_ck_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ck.h5l");
        single[0].save(&path).unwrap();
        let loaded = v2d_io::File::open(&path).unwrap();
        assert_eq!(&loaded, &single[0]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn store_retention_keeps_last_k_and_clear_empties() {
        let (n1, n2) = (8, 6);
        let cfg = GaussianPulse::linear_config(n1, n2, 10);
        let ck = Spmd::new(1).with_profiles(profiles()).run(|ctx| {
            let map = TileMap::new(n1, n2, 1, 1);
            let mut sim = V2dSim::new(cfg, &ctx.comm, map);
            GaussianPulse::standard().init(&mut sim);
            sim.step(&ctx.comm, &mut ctx.sink);
            write_checkpoint(&ctx.comm, &mut ctx.sink, &sim).expect("checkpoint gather")
        });
        let dir = std::env::temp_dir().join(format!("v2d_ck_retention_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(CheckpointStore::new(&dir, 0).unwrap().keep(), 1, "keep clamps to ≥ 1");
        let mut store = CheckpointStore::new(&dir, 3).unwrap();
        assert_eq!(store.keep(), 3);
        for istep in 1..=6 {
            store.save(&ck[0], istep).unwrap();
        }
        let left: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        let mut left_sorted = left.clone();
        left_sorted.sort();
        assert_eq!(
            left_sorted,
            vec!["ck_00000004.h5l", "ck_00000005.h5l", "ck_00000006.h5l"],
            "retention must keep exactly the newest 3"
        );
        let (_, newest, _) = store.load_latest().unwrap();
        assert!(newest.ends_with("ck_00000006.h5l"));
        store.clear();
        assert!(store.load_latest().is_err(), "cleared store has nothing to load");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
