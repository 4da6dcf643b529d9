//! Rank-local field storage: the Rust analogue of V2D's Fortran column
//! vectors "defined with the same spatial shape as the 2D grid".
//!
//! A [`TileVec`] holds a fixed number of planes over the local `n1 × n2`
//! tile, each padded by a ghost frame of fixed depth; both are set at
//! construction.  Radiation unknowns are [`crate::NSPEC`] species planes
//! with a one-zone frame ([`TileVec::new`]), the 5-point stencil's
//! reach; the hydro fields are single planes with a two-zone frame, the
//! MUSCL reconstruction's reach.  Storage is plane-major, then
//! x2-major, with x1 fastest — V2D's dictionary ordering — so kernel
//! inner loops run over contiguous rows and the compiler can vectorize
//! them (the whole point of the paper's study).
//!
//! Ghost zones hold either halo data received from a neighboring rank or
//! a physical boundary value; they are never owned data.  A halo strip
//! is packed plane-major, then by ghost layer (in increasing coordinate
//! order), then along the edge, and unpacked in the same order.

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

/// A multi-plane field on the local tile with a ghost frame.
#[derive(Debug, PartialEq)]
pub struct TileVec {
    n1: usize,
    n2: usize,
    planes: usize,
    depth: usize,
    /// `planes × (n2+2·depth) × stride` values; see module docs for
    /// ordering.
    data: Vec<f64>,
}

impl Clone for TileVec {
    fn clone(&self) -> Self {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        TileVec { data: self.data.clone(), ..*self }
    }
}

impl TileVec {
    /// A zeroed radiation field over an `n1 × n2` tile: [`NSPEC`]
    /// species planes with a one-zone ghost frame.
    pub fn new(n1: usize, n2: usize) -> Self {
        Self::with_shape(n1, n2, NSPEC, 1)
    }

    /// A zeroed field of `planes` planes over an `n1 × n2` tile, each
    /// padded by a `depth`-zone ghost frame.
    pub fn with_shape(n1: usize, n2: usize, planes: usize, depth: usize) -> Self {
        assert!(n1 >= 1 && n2 >= 1, "tile must be at least 1×1");
        assert!(planes >= 1 && depth >= 1, "a field needs a plane and a ghost frame");
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        let stride = n1 + 2 * depth;
        let data = vec![0.0; planes * stride * (n2 + 2 * depth)];
        TileVec { n1, n2, planes, depth, data }
    }

    /// Tile extent in x1.
    pub fn n1(&self) -> usize {
        self.n1
    }

    /// Tile extent in x2.
    pub fn n2(&self) -> usize {
        self.n2
    }

    /// Number of planes (radiation species, or 1 for a scalar field).
    pub fn planes(&self) -> usize {
        self.planes
    }

    /// Ghost-frame depth in zones.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of owned (interior) values = `n1 · n2 · planes`.
    pub fn n_owned(&self) -> usize {
        self.planes * self.n1 * self.n2
    }

    /// Bytes of the whole field (ghosts included) — used as a
    /// working-set contribution for the cost model.
    pub fn bytes(&self) -> usize {
        8 * self.data.len()
    }

    /// Length of one padded row.
    #[inline]
    fn stride(&self) -> usize {
        self.n1 + 2 * self.depth
    }

    #[inline]
    fn plane(&self) -> usize {
        self.stride() * (self.n2 + 2 * self.depth)
    }

    /// Flat index of `(s, i1, i2)`; ghost zones are reached with
    /// `−depth..0` and `n1..n1+depth` (likewise in x2).
    #[inline]
    pub fn idx(&self, s: usize, i1: isize, i2: isize) -> usize {
        let d = self.depth as isize;
        debug_assert!(s < self.planes);
        debug_assert!((-d..self.n1 as isize + d).contains(&i1), "i1 {i1} out of range");
        debug_assert!((-d..self.n2 as isize + d).contains(&i2), "i2 {i2} out of range");
        let d = self.depth as isize;
        s * self.plane() + (i2 + d) as usize * self.stride() + (i1 + d) as usize
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

    /// Padded row `(s, i2)` including the x1 ghosts (length
    /// `n1+2·depth`), with `i2` reaching into the ghost rows — what the
    /// stencil kernels stream.
    #[inline]
    pub fn padded_row(&self, s: usize, i2: isize) -> &[f64] {
        let start = self.idx(s, -(self.depth as isize), i2);
        &self.data[start..start + self.stride()]
    }

    /// Fill the interior from a closure over `(s, i1, i2)` (local
    /// indices); ghosts are left untouched.
    pub fn fill_with(&mut self, mut f: impl FnMut(usize, usize, usize) -> f64) {
        for s in 0..self.planes {
            for i2 in 0..self.n2 {
                for (i1, v) in self.row_mut(s, i2).iter_mut().enumerate() {
                    *v = f(s, i1, i2);
                }
            }
        }
    }

    /// Set every interior value to `v`.
    pub fn fill_interior(&mut self, v: f64) {
        self.fill_with(|_, _, _| v);
    }

    /// Every value, ghosts included, in storage order:
    /// `values()[idx(s, i1, i2)]` is `get(s, i1, i2)`.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.data
    }

    /// Mutable [`TileVec::values`].
    #[inline]
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Zero everything, ghosts included.
    pub fn zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Copy the interior (and ghosts) from another field of identical
    /// shape.
    pub fn copy_from(&mut self, other: &TileVec) {
        assert_eq!(
            (self.n1, self.n2, self.planes, self.depth),
            (other.n1, other.n2, other.planes, other.depth),
            "shape mismatch"
        );
        self.data.copy_from_slice(&other.data);
    }

    /// Owned interior values flattened in `(s, i2, i1)` order.
    pub fn interior_to_vec(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.n_owned());
        for s in 0..self.planes {
            for i2 in 0..self.n2 {
                out.extend_from_slice(self.row(s, i2));
            }
        }
        out
    }

    /// Number of values in one edge strip (`planes · depth ·` edge
    /// length).
    pub fn edge_len(&self, dir: Dir) -> usize {
        self.planes * self.depth * self.along(dir)
    }

    /// Zones along the edge facing `dir`.
    fn along(&self, dir: Dir) -> usize {
        match dir {
            Dir::West | Dir::East => self.n2,
            Dir::South | Dir::North => self.n1,
        }
    }

    /// Append the owned boundary strip facing `dir` — the `depth`
    /// columns or rows a neighbor needs as its ghosts — to `buf`, in
    /// the module's pack order.
    pub fn pack_edge(&self, dir: Dir, buf: &mut Vec<f64>) {
        let d = self.depth as isize;
        let first = match dir {
            Dir::West | Dir::South => 0,
            Dir::East => self.n1 as isize - d,
            Dir::North => self.n2 as isize - d,
        };
        for s in 0..self.planes {
            for k in first..first + d {
                match dir {
                    Dir::West | Dir::East => {
                        buf.extend((0..self.n2 as isize).map(|i2| self.get(s, k, i2)))
                    }
                    Dir::South | Dir::North => buf.extend_from_slice(self.row(s, k as usize)),
                }
            }
        }
    }

    /// Unpack a strip received from the neighbor in `dir` into the ghost
    /// layers on that side (the inverse of [`TileVec::pack_edge`]).
    pub fn unpack_ghost(&mut self, dir: Dir, strip: &[f64]) {
        assert_eq!(strip.len(), self.edge_len(dir), "halo strip length mismatch");
        let d = self.depth;
        let first = match dir {
            Dir::West | Dir::South => -(d as isize),
            Dir::East => self.n1 as isize,
            Dir::North => self.n2 as isize,
        };
        for (line, vals) in strip.chunks_exact(self.along(dir)).enumerate() {
            let (s, k) = (line / d, first + (line % d) as isize);
            match dir {
                Dir::West | Dir::East => {
                    for (i2, &v) in vals.iter().enumerate() {
                        self.set(s, k, i2 as isize, v);
                    }
                }
                Dir::South | Dir::North => {
                    let start = self.idx(s, 0, k);
                    self.data[start..start + self.n1].copy_from_slice(vals);
                }
            }
        }
    }

    /// Fill every ghost layer on the `dir` side, corners included, from
    /// the interior, times `sign`: the edge zone copied outward (zero
    /// gradient), or with `mirror` the zones mirrored about the edge (a
    /// reflecting wall).  Reads interior zones only.
    pub fn fill_ghost_from_interior(&mut self, dir: Dir, mirror: bool, sign: f64) {
        let (w, d, n1, n2) = (self.stride(), self.depth, self.n1, self.n2);
        let rows = n2 + 2 * d;
        // Padded offsets of ghost layer `g` (1 = next to the edge) and of
        // its source zone, on the low or the high side of an axis of `n`.
        let layer = |g: usize, n: usize, low: bool| {
            let k = if mirror { g - 1 } else { 0 };
            if low {
                (d - g, d + k)
            } else {
                (d + n - 1 + g, d + n - 1 - k)
            }
        };
        for plane in self.data.chunks_exact_mut(w * rows) {
            for g in 1..=d {
                match dir {
                    Dir::West | Dir::East => {
                        let (dst, src) = layer(g, n1, dir == Dir::West);
                        for r in 0..rows {
                            let from = r.clamp(d, d + n2 - 1) * w + src;
                            plane[r * w + dst] = sign * plane[from];
                        }
                    }
                    Dir::South | Dir::North => {
                        let (dst, src) = layer(g, n2, dir == Dir::South);
                        for c in 0..w {
                            let from = src * w + c.clamp(d, d + n1 - 1);
                            plane[dst * w + c] = sign * plane[from];
                        }
                    }
                }
            }
        }
    }

    /// Zero the ghost layers on the `dir` side (physical boundary:
    /// homogeneous Dirichlet, as in the radiation test problem).
    pub fn zero_ghost(&mut self, dir: Dir) {
        let (w, d) = (self.stride(), self.depth);
        let rows = self.n2 + 2 * d;
        for plane in self.data.chunks_exact_mut(w * rows) {
            // One strided pass per ghost column: a `fill` of each row's
            // `d` ghosts would be a `memset` call per row.
            match dir {
                Dir::West | Dir::East => {
                    let first = if dir == Dir::West { 0 } else { w - d };
                    for k in first..first + d {
                        plane[k..].iter_mut().step_by(w).for_each(|v| *v = 0.0);
                    }
                }
                Dir::South => plane[..d * w].fill(0.0),
                Dir::North => plane[(rows - d) * w..].fill(0.0),
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
            buf.clear();
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
    fn deep_frames_move_whole_strips_in_coordinate_order() {
        // A one-plane field with a two-zone frame, the hydro shape.
        let mut a = TileVec::with_shape(5, 4, 1, 2);
        a.fill_with(|_, i1, i2| (i2 * 100 + i1) as f64);
        let mut buf = Vec::new();
        a.pack_edge(Dir::East, &mut buf);
        assert_eq!(buf, [3.0, 103.0, 203.0, 303.0, 4.0, 104.0, 204.0, 304.0]);
        let mut b = TileVec::with_shape(5, 4, 1, 2);
        for dir in Dir::ALL {
            buf.clear();
            a.pack_edge(dir, &mut buf);
            b.unpack_ghost(dir, &buf);
        }
        for i2 in 0..4isize {
            assert_eq!((b.get(0, -2, i2), b.get(0, -1, i2)), (a.get(0, 0, i2), a.get(0, 1, i2)));
            assert_eq!((b.get(0, 5, i2), b.get(0, 6, i2)), (a.get(0, 3, i2), a.get(0, 4, i2)));
        }
        for i1 in 0..5isize {
            assert_eq!((b.get(0, i1, -2), b.get(0, i1, -1)), (a.get(0, i1, 0), a.get(0, i1, 1)));
            assert_eq!((b.get(0, i1, 4), b.get(0, i1, 5)), (a.get(0, i1, 2), a.get(0, i1, 3)));
        }
        // Corners are never part of a strip.
        assert_eq!(b.get(0, -1, -1), 0.0);
        assert_eq!(b.padded_row(0, 0).len(), 9);
    }

    #[test]
    fn interior_fills_copy_or_mirror_the_edge_zones() {
        let mut f = TileVec::with_shape(3, 3, 1, 2);
        f.fill_with(|_, i1, i2| (1 + i1 + 10 * i2) as f64);
        for dir in Dir::ALL {
            f.fill_ghost_from_interior(dir, false, 1.0);
        }
        assert_eq!((f.get(0, -1, 1), f.get(0, -2, 1)), (f.get(0, 0, 1), f.get(0, 0, 1)));
        assert_eq!(f.get(0, 3, 0), f.get(0, 2, 0));
        assert_eq!(f.get(0, 1, -2), f.get(0, 1, 0));
        // Corners take the clamped edge zone.
        assert_eq!(f.get(0, -1, -1), f.get(0, 0, 0));

        let mut f = TileVec::with_shape(4, 2, 1, 2);
        f.fill_with(|_, i1, _| i1 as f64 + 1.0);
        f.fill_ghost_from_interior(Dir::West, true, -1.0);
        assert_eq!((f.get(0, -1, 0), f.get(0, -2, 0)), (-1.0, -2.0));
        f.fill_ghost_from_interior(Dir::East, true, 1.0);
        assert_eq!((f.get(0, 4, 1), f.get(0, 5, 1)), (4.0, 3.0));
    }

    #[test]
    fn zero_ghost_clears_every_layer_of_a_deep_frame() {
        let mut v = TileVec::with_shape(3, 3, 1, 2);
        v.fill_interior(1.0);
        v.set(0, -2, 1, 9.0);
        v.set(0, 4, 0, 9.0);
        v.set(0, 1, -2, 9.0);
        v.set(0, 2, 4, 9.0);
        for dir in Dir::ALL {
            v.zero_ghost(dir);
        }
        assert_eq!([v.get(0, -2, 1), v.get(0, 4, 0), v.get(0, 1, -2), v.get(0, 2, 4)], [0.0; 4]);
        assert_eq!(v.interior_to_vec(), vec![1.0; 9]);
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
