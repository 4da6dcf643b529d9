//! # v2d-machine — A64FX machine model, compiler profiles, and simulated time
//!
//! The CLUSTER 2022 study this repository reproduces measured the V2D
//! radiation-hydrodynamics code on *Ookami*, an HPE Apollo 80 built from
//! Fujitsu A64FX processors.  That hardware (and the Cray/Fujitsu compiler
//! toolchains used on it) is not available here, so this crate provides the
//! synthetic equivalent: a model of an A64FX-like core and its memory
//! hierarchy, a set of *compiler profiles* standing in for the four
//! toolchain configurations of the paper (GNU, Fujitsu, Cray with and
//! without `-O3`/SVE), and a per-rank virtual clock.
//!
//! Everything downstream runs its numerics **natively** — real `f64`
//! arithmetic, real convergence behaviour — and only *time* is simulated:
//! kernels report their shape ([`KernelShape`]) to a [`CostSink`], which
//! converts flops and streamed bytes into cycles on a [`SimClock`] using a
//! roofline-style cost model.  Communication substrates charge their own
//! latency/bandwidth costs through [`MpiCostModel`].
//!
//! The calibration constants in [`profile`] are chosen so that the *shape*
//! of the paper's Table I (who wins at which scale, where the
//! Cray-vs-Fujitsu crossover falls, how much the no-SVE build loses) is
//! reproduced; see `EXPERIMENTS.md` at the repository root for the
//! paper-vs-measured comparison.

// Library code must not panic on a `None`/`Err` it could report: every
// rank of a launch charges through this crate.  Tests and binaries
// (separate crates) are exempt.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod clock;
pub mod cost;
pub mod exec;
pub mod fault;
pub mod model;
pub mod profile;
pub mod trace;

pub use clock::{SimClock, SimDuration};
pub use cost::{CostSink, KernelClass, KernelShape, MultiCostSink};
pub use exec::{CostLanes, ExecCtx, ProfilerScope};
pub use fault::{
    FaultEvent, FaultInjector, FaultKind, FaultPlan, FaultRecord, FieldFault, SendFault,
};
pub use model::{MemLevel, FREQ_HZ, N_MEM_LEVELS};
pub use profile::{CompilerId, CompilerProfile, MpiCostModel, ALL_COMPILERS};
pub use trace::{AttrVal, Attrs, TraceSink};
