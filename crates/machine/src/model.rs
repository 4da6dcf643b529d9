//! The A64FX-like machine model.
//!
//! The Fujitsu A64FX in Ookami runs at 1.8 GHz, implements the Armv8.2-A
//! Scalable Vector Extension with a 512-bit vector unit (the architecture
//! allows 128–2048 bits, which the simulated ISA in `v2d-sve` exploits for
//! vector-length-agnostic experiments), and organizes its 48 compute cores
//! into four core-memory groups (CMGs) of 12 cores, each CMG with 8 MB of
//! shared L2 and its own HBM2 stack.  Each core has a 64 KB L1D cache.
//!
//! What matters for the reproduced experiments is the *memory hierarchy*:
//! the paper's central observation is that SVE vectorization speeds up
//! cache-resident kernels (the Table II driver, whose 1000-equation vectors
//! fit in L1) dramatically, while the full V2D solve (whose working set
//! spills to L2/HBM and is interleaved with scalar multi-physics code)
//! gains far less.  The [`residency`] classification and the
//! per-level bandwidths here are what make that mechanism emerge from the
//! cost model instead of being hard-coded.
//!
//! The paper measures one machine, so its parameters are constants.

/// Which level of the memory hierarchy a kernel's working set resides in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemLevel {
    /// Fits in the per-core 64 KB L1D: streaming is essentially free
    /// relative to arithmetic; kernels are compute-bound.
    L1,
    /// Fits in the CMG-shared 8 MB L2.
    L2,
    /// Spills to HBM2 main memory: kernels are bandwidth-bound.
    Hbm,
}

/// Number of [`MemLevel`] variants (for dense per-level arrays).
pub const N_MEM_LEVELS: usize = 3;

impl MemLevel {
    /// Dense index for per-level accounting arrays.
    pub fn index(self) -> usize {
        match self {
            MemLevel::L1 => 0,
            MemLevel::L2 => 1,
            MemLevel::Hbm => 2,
        }
    }

    /// All levels, in dense-index order.
    pub fn all() -> [MemLevel; N_MEM_LEVELS] {
        [MemLevel::L1, MemLevel::L2, MemLevel::Hbm]
    }

    /// Stable lower-case label (used as a metric-name component).
    pub fn name(self) -> &'static str {
        match self {
            MemLevel::L1 => "l1",
            MemLevel::L2 => "l2",
            MemLevel::Hbm => "hbm",
        }
    }
}

// The modeled processor, one constant per parameter.  All bandwidths are
// *per core* sustained streaming rates in bytes per cycle; they fold in
// the effects the paper could not separate (hardware prefetch quality,
// write-allocate traffic, sector-cache behaviour), which is why they are
// lower than the headline numbers on the A64FX datasheet.  Per-compiler
// *fractions* of these rates live in [`crate::profile::CompilerProfile`].

/// Core clock frequency in Hz (1.8 GHz on Ookami's A64FX): the one rate
/// at which every simulated cycle count becomes seconds.
pub const FREQ_HZ: f64 = 1.8e9;
/// Per-core L1D capacity in bytes (64 KB).
pub(crate) const L1_BYTES: usize = 64 * 1024;
/// Per-CMG shared L2 capacity in bytes (8 MB).
pub(crate) const L2_BYTES: usize = 8 * 1024 * 1024;
/// Sustained L1 streaming bandwidth, bytes/cycle/core.  L1 on A64FX can
/// move two 512-bit vectors per cycle in the best case (128 B), but
/// sustained stream-through with stores lands near half that.
pub(crate) const L1_BYTES_PER_CYCLE: f64 = 64.0;
/// Sustained L2 streaming bandwidth, bytes/cycle/core.
pub(crate) const L2_BYTES_PER_CYCLE: f64 = 16.0;
/// Sustained HBM streaming bandwidth, bytes/cycle/core.  A lone core
/// cannot saturate the CMG's HBM stack: single-core streaming on A64FX
/// measures around 20 GB/s for scalar-ish access patterns, and
/// 20e9 / 1.8e9 ≈ 11 B/cyc.
pub(crate) const HBM_BYTES_PER_CYCLE: f64 = 11.0;
/// Peak double-precision FLOP/cycle/core with full SVE issue
/// (2 pipes × 8 lanes × 2 flops/FMA).
pub(crate) const SVE_FLOPS_PER_CYCLE: f64 = 32.0;
/// Peak double-precision FLOP/cycle/core for purely scalar code
/// (2 pipes × 2 flops/FMA in theory; in-order issue makes sustained
/// scalar throughput far lower — that penalty is part of the compiler
/// profile, not the machine).
pub(crate) const SCALAR_FLOPS_PER_CYCLE: f64 = 4.0;

/// Classify a working set of `bytes` into the cache level it is
/// (re-)streamed from on repeated traversals.
///
/// The boundary uses a 0.75 occupancy factor: a working set that
/// *exactly* fills a cache still conflict-misses in practice.
pub fn residency(bytes: usize) -> MemLevel {
    if (bytes as f64) <= 0.75 * L1_BYTES as f64 {
        MemLevel::L1
    } else if (bytes as f64) <= 0.75 * L2_BYTES as f64 {
        MemLevel::L2
    } else {
        MemLevel::Hbm
    }
}

/// Sustained streaming bandwidth (bytes/cycle/core) at a given level.
pub fn bytes_per_cycle(level: MemLevel) -> f64 {
    match level {
        MemLevel::L1 => L1_BYTES_PER_CYCLE,
        MemLevel::L2 => L2_BYTES_PER_CYCLE,
        MemLevel::Hbm => HBM_BYTES_PER_CYCLE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residency_boundaries() {
        // The Table II driver: 1000 equations ≈ 8 KB/vector → L1-resident.
        assert_eq!(residency(3 * 8 * 1000), MemLevel::L1);
        // A single 200×100×2 V2D column vector = 320 KB → L2.
        assert_eq!(residency(200 * 100 * 2 * 8), MemLevel::L2);
        // The full BiCGSTAB working set (~10 such vectors + coefficients)
        // at 200×100×2 is ~4 MB → still L2 for a single rank...
        assert_eq!(residency(4 * 1024 * 1024), MemLevel::L2);
        // ...but the whole V2D state with physics fields spills to HBM.
        assert_eq!(residency(16 * 1024 * 1024), MemLevel::Hbm);
    }

    #[test]
    fn residency_is_monotone_in_size() {
        let mut last = MemLevel::L1;
        for bytes in [0usize, 1 << 10, 1 << 14, 1 << 16, 1 << 20, 1 << 23, 1 << 26] {
            let lvl = residency(bytes);
            assert!(lvl >= last, "residency went backwards at {bytes} bytes");
            last = lvl;
        }
    }

    #[test]
    fn bandwidth_decreases_down_the_hierarchy() {
        assert!(bytes_per_cycle(MemLevel::L1) > bytes_per_cycle(MemLevel::L2));
        assert!(bytes_per_cycle(MemLevel::L2) > bytes_per_cycle(MemLevel::Hbm));
    }
}
