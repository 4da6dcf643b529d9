//! # v2d — a Rust reconstruction of the V2D radiation-hydrodynamics code
//! and its A64FX/SVE performance study
//!
//! This crate is the facade over the workspace reproducing
//! *"Performance of an Astrophysical Radiation Hydrodynamics Code under
//! Scalable Vector Extension Optimization"* (Smolarski, Swesty & Calder,
//! IEEE CLUSTER 2022).  It re-exports every subsystem:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `v2d-core` | the V2D application: grid/geometry, flux-limited diffusion radiation transport, Eulerian hydro, test problems, checkpointing |
//! | [`linalg`] | `v2d-linalg` | tile vectors, matrix-free stencil operator, BiCGSTAB (classic + ganged), CG, preconditioners (Jacobi/block/SPAI) |
//! | [`comm`] | `v2d-comm` | SPMD message-passing substrate with virtual-time accounting (the MPI stand-in) |
//! | [`machine`] | `v2d-machine` | A64FX machine model, the four compiler profiles of Table I, roofline costing |
//! | [`sve`] | `v2d-sve` | instruction-level simulated SVE + scalar ISAs with a pipeline cost model (the Table II driver substrate) |
//! | [`perf`] | `v2d-perf` | TAU-style routine profiler and kernel-class breakdown over the simulated clocks |
//! | [`io`] | `v2d-io` | "h5lite" hierarchical checkpoint format (the HDF5 stand-in) |
//!
//! ## Quickstart
//!
//! ```
//! use v2d::comm::{Spmd, TileMap};
//! use v2d::core::problems::{GaussianPulse, Scenario};
//! use v2d::core::sim::V2dSim;
//!
//! // A small version of the paper's radiation test problem on 2 ranks.
//! let cfg = GaussianPulse::scaled_config(40, 20, 2);
//! let energies = Spmd::new(2).run(|ctx| {
//!     let map = TileMap::new(40, 20, 2, 1);
//!     let mut sim = V2dSim::new(cfg, &ctx.comm, map);
//!     GaussianPulse::standard().init(&mut sim);
//!     sim.run(&ctx.comm, &mut ctx.sink);
//!     sim.total_radiation_energy(&ctx.comm, &mut ctx.sink)
//! });
//! assert!((energies[0] - energies[1]).abs() < 1e-12);
//! ```
//!
//! The benchmark harness regenerating every table and figure of the
//! paper lives in the `v2d-bench` crate: one runner over one artifact
//! table (`cargo run -p v2d-bench --release -- list`, then
//! `-- table1|table2|fig1|breakdown|…`; `-- gate` is the regression
//! gate), each golden artifact pinned by `goldens/<name>.txt`.

pub use v2d_comm as comm;
pub use v2d_core as core;
pub use v2d_io as io;
pub use v2d_linalg as linalg;
pub use v2d_machine as machine;
pub use v2d_perf as perf;
pub use v2d_sve as sve;
