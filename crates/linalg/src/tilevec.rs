//! Rank-local field storage: the Rust analogue of V2D's Fortran column
//! vectors "defined with the same spatial shape as the 2D grid".
//!
//! A [`TileVec`] holds [`crate::NSPEC`] species planes over the local
//! `n1 × n2` tile, each padded by a one-zone ghost frame.  Storage is
//! species-major, then x2-major, with x1 fastest — V2D's dictionary
//! ordering — so kernel inner loops run over contiguous rows and the
//! compiler can vectorize them (the whole point of the paper's study).
//!
//! Ghost zones hold either halo data received from a neighboring rank or
//! zeros at the physical domain boundary (the radiation test problem's
//! Dirichlet condition); they are never owned data.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::NSPEC;
use v2d_comm::topology::Dir;

/// Process-wide count of `TileVec` heap allocations (`new` + `clone`).
/// The solver layer is supposed to be allocation-free after its
/// [`crate::workspace::SolverWorkspace`] warms up; the
/// `ablation_alloc` bench and the workspace tests read this counter to
/// prove it.
static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);

/// Number of `TileVec` allocations since process start.  Monotonic;
/// diff two readings to count the allocations of a code region.
pub fn tilevec_alloc_count() -> u64 {
    ALLOC_COUNT.load(Ordering::Relaxed)
}

/// A two-species field on the local tile with a one-zone ghost frame.
#[derive(Debug, PartialEq)]
pub struct TileVec {
    n1: usize,
    n2: usize,
    /// `(n1+2) × (n2+2) × NSPEC` values; see module docs for ordering.
    data: Vec<f64>,
}

impl Clone for TileVec {
    fn clone(&self) -> Self {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        TileVec { n1: self.n1, n2: self.n2, data: self.data.clone() }
    }
}

impl TileVec {
    /// A zeroed field over an `n1 × n2` tile.
    pub fn new(n1: usize, n2: usize) -> Self {
        assert!(n1 >= 1 && n2 >= 1, "tile must be at least 1×1");
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        TileVec { n1, n2, data: vec![0.0; NSPEC * (n1 + 2) * (n2 + 2)] }
    }

    /// Tile extent in x1.
    pub fn n1(&self) -> usize {
        self.n1
    }

    /// Tile extent in x2.
    pub fn n2(&self) -> usize {
        self.n2
    }

    /// Number of owned (interior) values = `n1 · n2 · NSPEC`.
    pub fn n_owned(&self) -> usize {
        NSPEC * self.n1 * self.n2
    }

    /// Bytes of one full species-padded field (ghosts included) — used as
    /// a working-set contribution for the cost model.
    pub fn bytes(&self) -> usize {
        8 * self.data.len()
    }

    #[inline]
    fn plane(&self) -> usize {
        (self.n1 + 2) * (self.n2 + 2)
    }

    /// Flat index of `(s, i1, i2)`; ghost zones are reached with −1 or
    /// `n1`/`n2`.
    #[inline]
    pub fn idx(&self, s: usize, i1: isize, i2: isize) -> usize {
        debug_assert!(s < NSPEC);
        debug_assert!((-1..=self.n1 as isize).contains(&i1), "i1 {i1} out of range");
        debug_assert!((-1..=self.n2 as isize).contains(&i2), "i2 {i2} out of range");
        s * self.plane() + (i2 + 1) as usize * (self.n1 + 2) + (i1 + 1) as usize
    }

    /// Value at `(s, i1, i2)` (ghosts allowed).
    #[inline]
    pub fn get(&self, s: usize, i1: isize, i2: isize) -> f64 {
        self.data[self.idx(s, i1, i2)]
    }

    /// Set value at `(s, i1, i2)` (ghosts allowed).
    #[inline]
    pub fn set(&mut self, s: usize, i1: isize, i2: isize, v: f64) {
        let i = self.idx(s, i1, i2);
        self.data[i] = v;
    }

    /// Interior row `(s, i2)` as a contiguous slice of `n1` values.
    #[inline]
    pub fn row(&self, s: usize, i2: usize) -> &[f64] {
        debug_assert!(i2 < self.n2);
        let start = self.idx(s, 0, i2 as isize);
        &self.data[start..start + self.n1]
    }

    /// Mutable interior row `(s, i2)`.
    #[inline]
    pub fn row_mut(&mut self, s: usize, i2: usize) -> &mut [f64] {
        debug_assert!(i2 < self.n2);
        let start = self.idx(s, 0, i2 as isize);
        &mut self.data[start..start + self.n1]
    }

    /// Padded row `(s, i2)` including the two x1 ghosts (length `n1+2`),
    /// with `i2` in `-1..=n2` — what the stencil kernels stream.
    #[inline]
    pub fn padded_row(&self, s: usize, i2: isize) -> &[f64] {
        let start = self.idx(s, -1, i2);
        &self.data[start..start + self.n1 + 2]
    }

    /// Fill the interior from a closure over `(s, i1, i2)` (local
    /// indices); ghosts are left untouched.
    pub fn fill_with(&mut self, mut f: impl FnMut(usize, usize, usize) -> f64) {
        for s in 0..NSPEC {
            for i2 in 0..self.n2 {
                for i1 in 0..self.n1 {
                    let v = f(s, i1, i2);
                    self.set(s, i1 as isize, i2 as isize, v);
                }
            }
        }
    }

    /// Set every interior value to `v`.
    pub fn fill_interior(&mut self, v: f64) {
        self.fill_with(|_, _, _| v);
    }

    /// Zero everything, ghosts included.
    pub fn zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Copy the interior (and ghosts) from another field of identical
    /// shape.
    pub fn copy_from(&mut self, other: &TileVec) {
        assert_eq!((self.n1, self.n2), (other.n1, other.n2), "shape mismatch");
        self.data.copy_from_slice(&other.data);
    }

    /// Owned interior values flattened in `(s, i2, i1)` order.
    pub fn interior_to_vec(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.n_owned());
        for s in 0..NSPEC {
            for i2 in 0..self.n2 {
                out.extend_from_slice(self.row(s, i2));
            }
        }
        out
    }

    /// Number of values in one edge strip (`NSPEC ·` edge length).
    pub fn edge_len(&self, dir: Dir) -> usize {
        NSPEC
            * match dir {
                Dir::West | Dir::East => self.n2,
                Dir::South | Dir::North => self.n1,
            }
    }

    /// Pack the owned boundary strip facing `dir` into `buf`
    /// (species-major, then along the edge).  `buf` is resized to fit.
    pub fn pack_edge(&self, dir: Dir, buf: &mut Vec<f64>) {
        buf.clear();
        buf.reserve(self.edge_len(dir));
        match dir {
            Dir::West => {
                for s in 0..NSPEC {
                    for i2 in 0..self.n2 {
                        buf.push(self.get(s, 0, i2 as isize));
                    }
                }
            }
            Dir::East => {
                for s in 0..NSPEC {
                    for i2 in 0..self.n2 {
                        buf.push(self.get(s, self.n1 as isize - 1, i2 as isize));
                    }
                }
            }
            Dir::South => {
                for s in 0..NSPEC {
                    buf.extend_from_slice(self.row(s, 0));
                }
            }
            Dir::North => {
                for s in 0..NSPEC {
                    buf.extend_from_slice(self.row(s, self.n2 - 1));
                }
            }
        }
    }

    /// Unpack a strip received from the neighbor in `dir` into the ghost
    /// layer on that side.
    pub fn unpack_ghost(&mut self, dir: Dir, strip: &[f64]) {
        assert_eq!(strip.len(), self.edge_len(dir), "halo strip length mismatch");
        let mut k = 0;
        match dir {
            Dir::West => {
                for s in 0..NSPEC {
                    for i2 in 0..self.n2 {
                        self.set(s, -1, i2 as isize, strip[k]);
                        k += 1;
                    }
                }
            }
            Dir::East => {
                for s in 0..NSPEC {
                    for i2 in 0..self.n2 {
                        self.set(s, self.n1 as isize, i2 as isize, strip[k]);
                        k += 1;
                    }
                }
            }
            Dir::South => {
                for s in 0..NSPEC {
                    for i1 in 0..self.n1 {
                        self.set(s, i1 as isize, -1, strip[k]);
                        k += 1;
                    }
                }
            }
            Dir::North => {
                for s in 0..NSPEC {
                    for i1 in 0..self.n1 {
                        self.set(s, i1 as isize, self.n2 as isize, strip[k]);
                        k += 1;
                    }
                }
            }
        }
    }

    /// Zero the ghost layer on the `dir` side (physical boundary:
    /// homogeneous Dirichlet, as in the radiation test problem).
    pub fn zero_ghost(&mut self, dir: Dir) {
        let (w, rows) = (self.n1 + 2, self.n2 + 2);
        for plane in self.data.chunks_exact_mut(w * rows) {
            match dir {
                Dir::West => plane.iter_mut().step_by(w).for_each(|v| *v = 0.0),
                Dir::East => plane[w - 1..].iter_mut().step_by(w).for_each(|v| *v = 0.0),
                Dir::South => plane[..w].fill(0.0),
                Dir::North => plane[(rows - 1) * w..].fill(0.0),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_contiguous_and_disjoint() {
        let mut v = TileVec::new(4, 3);
        v.fill_with(|s, i1, i2| (s * 100 + i2 * 10 + i1) as f64);
        assert_eq!(v.row(0, 1), &[10.0, 11.0, 12.0, 13.0]);
        assert_eq!(v.row(1, 2), &[120.0, 121.0, 122.0, 123.0]);
        assert_eq!(v.n_owned(), 24);
    }

    #[test]
    fn padded_row_includes_ghosts() {
        let mut v = TileVec::new(3, 2);
        v.fill_interior(5.0);
        v.set(0, -1, 0, 7.0);
        v.set(0, 3, 0, 9.0);
        assert_eq!(v.padded_row(0, 0), &[7.0, 5.0, 5.0, 5.0, 9.0]);
    }

    #[test]
    fn pack_unpack_roundtrip_all_directions() {
        let mut a = TileVec::new(5, 4);
        a.fill_with(|s, i1, i2| (s * 1000 + i2 * 10 + i1) as f64);
        let mut b = TileVec::new(5, 4);
        let mut buf = Vec::new();
        for dir in Dir::ALL {
            a.pack_edge(dir, &mut buf);
            assert_eq!(buf.len(), a.edge_len(dir));
            b.unpack_ghost(dir, &buf);
        }
        // b's west ghost column must equal a's west owned column, etc.
        for s in 0..NSPEC {
            for i2 in 0..4isize {
                assert_eq!(b.get(s, -1, i2), a.get(s, 0, i2));
                assert_eq!(b.get(s, 5, i2), a.get(s, 4, i2));
            }
            for i1 in 0..5isize {
                assert_eq!(b.get(s, i1, -1), a.get(s, i1, 0));
                assert_eq!(b.get(s, i1, 4), a.get(s, i1, 3));
            }
        }
    }

    #[test]
    fn zero_ghost_clears_only_ghosts() {
        let mut v = TileVec::new(3, 3);
        v.fill_interior(1.0);
        for s in 0..NSPEC {
            for i in -1..=3isize {
                v.set(s, -1, i, 9.0);
                v.set(s, 3, i, 9.0);
                v.set(s, i, -1, 9.0);
                v.set(s, i, 3, 9.0);
            }
        }
        for dir in Dir::ALL {
            v.zero_ghost(dir);
        }
        for s in 0..NSPEC {
            for i2 in 0..3 {
                assert_eq!(v.row(s, i2), &[1.0, 1.0, 1.0]);
            }
            for i in -1..=3isize {
                assert_eq!(v.get(s, -1, i), 0.0);
                assert_eq!(v.get(s, 3, i), 0.0);
            }
        }
    }

    #[test]
    fn interior_to_vec_is_dictionary_ordered() {
        let mut v = TileVec::new(2, 2);
        v.fill_with(|s, i1, i2| (s * 100 + i2 * 10 + i1) as f64);
        assert_eq!(v.interior_to_vec(), vec![0.0, 1.0, 10.0, 11.0, 100.0, 101.0, 110.0, 111.0]);
    }

    #[test]
    fn alloc_counter_counts_new_and_clone() {
        // Other tests allocate concurrently (the counter is process
        // wide), so only a lower bound is exact here; the single-test
        // `workspace_alloc` integration binary asserts equality.
        let before = tilevec_alloc_count();
        let v = TileVec::new(3, 3);
        let _w = v.clone();
        let mut u = TileVec::new(3, 3);
        u.copy_from(&v); // copies reuse storage: not an allocation
        assert!(tilevec_alloc_count() - before >= 3);
    }

    #[test]
    #[should_panic(expected = "at least 1×1")]
    fn zero_size_tile_rejected() {
        let _ = TileVec::new(0, 3);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_strip_length_rejected() {
        let mut v = TileVec::new(3, 3);
        v.unpack_ghost(Dir::West, &[1.0, 2.0]);
    }
}
