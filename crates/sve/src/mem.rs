//! Simulated byte-addressed memory.
//!
//! Kernels operate on `f64` arrays laid out in a flat address space.  The
//! [`SimMem`] API offers bump allocation of aligned f64 arrays plus the
//! load/store primitives the interpreter needs.  Out-of-bounds or
//! misaligned accesses panic — in a simulator, crashing loudly on a bad
//! address is a feature.

/// Flat simulated memory.
#[derive(Debug, Clone, PartialEq)]
pub struct SimMem {
    bytes: Vec<u8>,
    /// Next free offset for [`SimMem::alloc_f64`].
    brk: usize,
}

impl SimMem {
    /// A memory of `capacity` bytes, zero-initialized.
    pub fn new(capacity: usize) -> Self {
        SimMem { bytes: vec![0; capacity], brk: 0 }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.bytes.len()
    }

    /// Bump-allocate an 8-byte-aligned region for `len` f64 values,
    /// initialized from `init`; returns its base address.
    ///
    /// # Panics
    /// If capacity is exhausted.
    pub fn alloc_f64(&mut self, init: &[f64]) -> usize {
        let base = (self.brk + 7) & !7;
        let end = base + 8 * init.len();
        assert!(
            end <= self.bytes.len(),
            "simulated memory exhausted: need {end} of {}",
            self.bytes.len()
        );
        self.brk = end;
        for (i, &v) in init.iter().enumerate() {
            self.store_f64(base + 8 * i, v);
        }
        base
    }

    /// Bump-allocate a zeroed region for `len` f64 values.
    pub fn alloc_f64_zeroed(&mut self, len: usize) -> usize {
        let base = (self.brk + 7) & !7;
        let end = base + 8 * len;
        assert!(
            end <= self.bytes.len(),
            "simulated memory exhausted: need {end} of {}",
            self.bytes.len()
        );
        self.brk = end;
        self.bytes[base..end].fill(0);
        base
    }

    /// Load an f64 from `addr`.
    ///
    /// # Panics
    /// On out-of-bounds or unaligned access.
    #[inline]
    pub fn load_f64(&self, addr: usize) -> f64 {
        assert!(addr.is_multiple_of(8), "unaligned f64 load at {addr:#x}");
        let Some(&b) = self.bytes.get(addr..).and_then(<[u8]>::first_chunk) else {
            panic!("f64 load out of bounds at {addr:#x}");
        };
        f64::from_le_bytes(b)
    }

    /// Store an f64 to `addr`.
    ///
    /// # Panics
    /// On out-of-bounds or unaligned access.
    #[inline]
    pub fn store_f64(&mut self, addr: usize, v: f64) {
        assert!(addr.is_multiple_of(8), "unaligned f64 store at {addr:#x}");
        assert!(addr + 8 <= self.bytes.len(), "f64 store out of bounds at {addr:#x}");
        self.bytes[addr..addr + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Read back `len` f64 values starting at `addr` (for checking kernel
    /// results against oracles).
    pub fn read_f64_slice(&self, addr: usize, len: usize) -> Vec<f64> {
        (0..len).map(|i| self.load_f64(addr + 8 * i)).collect()
    }

    /// Load `out.len()` contiguous f64 values starting at `addr` — the
    /// full-predicate fast path of `ld1d`.  Value-identical to
    /// `out[i] = load_f64(addr + 8·i)` lane by lane; one alignment/bounds
    /// check covers the whole stream.
    ///
    /// # Panics
    /// On out-of-bounds or unaligned access.
    #[inline]
    pub fn load_f64_stream(&self, addr: usize, out: &mut [f64]) {
        assert!(addr.is_multiple_of(8), "unaligned f64 load at {addr:#x}");
        let end = addr + 8 * out.len();
        assert!(end <= self.bytes.len(), "f64 load out of bounds at {addr:#x}");
        for (o, chunk) in out.iter_mut().zip(self.bytes[addr..end].chunks_exact(8)) {
            *o = f64::from_le_bytes(std::array::from_fn(|k| chunk[k]));
        }
    }

    /// Store `vals` contiguously starting at `addr` — the full-predicate
    /// fast path of `st1d`.  Value-identical to per-lane `store_f64`.
    ///
    /// # Panics
    /// On out-of-bounds or unaligned access.
    #[inline]
    pub fn store_f64_stream(&mut self, addr: usize, vals: &[f64]) {
        assert!(addr.is_multiple_of(8), "unaligned f64 store at {addr:#x}");
        let end = addr + 8 * vals.len();
        assert!(end <= self.bytes.len(), "f64 store out of bounds at {addr:#x}");
        for (chunk, v) in self.bytes[addr..end].chunks_exact_mut(8).zip(vals) {
            chunk.copy_from_slice(&v.to_le_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_roundtrip() {
        let mut m = SimMem::new(1024);
        let a = m.alloc_f64(&[1.0, 2.5, -3.0]);
        assert_eq!(a % 8, 0);
        assert_eq!(m.read_f64_slice(a, 3), vec![1.0, 2.5, -3.0]);
        m.store_f64(a + 8, 7.0);
        assert_eq!(m.load_f64(a + 8), 7.0);
    }

    #[test]
    fn allocations_do_not_overlap() {
        let mut m = SimMem::new(1024);
        let a = m.alloc_f64(&[1.0; 4]);
        let b = m.alloc_f64(&[2.0; 4]);
        assert!(b >= a + 32);
        assert_eq!(m.read_f64_slice(a, 4), vec![1.0; 4]);
        assert_eq!(m.read_f64_slice(b, 4), vec![2.0; 4]);
    }

    #[test]
    fn zeroed_alloc_is_zero() {
        let mut m = SimMem::new(256);
        let a = m.alloc_f64_zeroed(8);
        assert_eq!(m.read_f64_slice(a, 8), vec![0.0; 8]);
    }

    #[test]
    fn stream_load_store_match_per_lane() {
        let mut m = SimMem::new(1024);
        let a = m.alloc_f64(&[1.0, -2.5, 3.25, 4.0, 5.5]);
        let b = m.alloc_f64_zeroed(5);
        let mut lanes = [0.0f64; 5];
        m.load_f64_stream(a, &mut lanes);
        assert_eq!(lanes.to_vec(), m.read_f64_slice(a, 5));
        m.store_f64_stream(b, &lanes);
        assert_eq!(m.read_f64_slice(b, 5), m.read_f64_slice(a, 5));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn stream_oob_panics() {
        let m = SimMem::new(32);
        let mut out = [0.0f64; 5];
        m.load_f64_stream(0, &mut out);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_load_panics() {
        let m = SimMem::new(64);
        let _ = m.load_f64(4);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_store_panics() {
        let mut m = SimMem::new(8);
        m.store_f64(8, 1.0);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn exhaustion_panics() {
        let mut m = SimMem::new(16);
        let _ = m.alloc_f64(&[0.0; 3]);
    }
}
