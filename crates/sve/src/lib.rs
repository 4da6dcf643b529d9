//! # v2d-sve — an instruction-level simulated Scalable Vector Extension
//!
//! The paper's Table II isolates the five sparse linear-algebra routines of
//! V2D's BiCGSTAB solver in a driver program and times them with and
//! without SVE code generation on the A64FX.  Rust cannot emit SVE today
//! (the intrinsics are unstable and we have no A64FX to run on), so this
//! crate builds the substitute: a small, fully tested **simulated
//! instruction set** containing the scalar AArch64 subset and the SVE
//! subset those kernels compile to, an **assembler** for writing kernels
//! against it, an **interpreter** that executes programs against a
//! simulated byte-addressed memory, and a **dataflow pipeline model**
//! (in-order fetch, dependency-resolved issue, per-unit throughput,
//! per-level load latency) that converts the executed instruction stream
//! into A64FX-like cycle counts.
//!
//! The SVE model is *vector-length-agnostic*, exactly like the
//! architecture: the same kernel program runs at any vector length from
//! 128 to 2048 bits (the A64FX implements 512), which powers the
//! vector-length ablation bench.
//!
//! The five paper kernels (MATVEC, DPROD, DAXPY, DSCAL, DDAXPY) are
//! provided in both scalar and SVE form in [`kernels`]; their numerical
//! results are checked against native Rust oracles in the test suite, and
//! their cycle counts regenerate Table II.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod asm;
pub mod cache;
pub mod decode;
pub mod disasm;
pub mod exec;
pub mod fuse;
pub mod isa;
pub mod kernels;
pub mod mem;
pub mod reg;
pub mod sched;
pub(crate) mod thread;

pub use asm::{Asm, Label};
pub use decode::DecodedProgram;
pub use disasm::{disassemble, mnemonic};
pub use exec::{ExecConfig, ExecStats, Executor};
pub use isa::{Instr, D, P, X, Z};
pub use mem::SimMem;
pub use reg::RegFile;
pub use sched::{SchedModel, Unit};
