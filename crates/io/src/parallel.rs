//! Assembly of domain-decomposed fields into global datasets.
//!
//! On a real cluster HDF5/MPI-IO writes each rank's tile into the right
//! hyperslab of one file.  Here the communication substrate gathers the
//! tiles (see `v2d-comm`'s `try_allgatherv`), and this module does the
//! hyperslab arithmetic: scattering `(tile extents, tile data)` pairs
//! into a row-major global array.  It is deliberately free of any
//! dependency on the communicator so it can be tested exhaustively in
//! isolation.

/// One rank's contribution: tile extents within the global grid plus the
/// tile's values for each of `nspec` species, species-major, x1 fastest.
#[derive(Debug, Clone, PartialEq)]
pub struct TileData {
    /// First owned global zone in x1 and extent.
    pub i1_start: usize,
    pub n1: usize,
    /// First owned global zone in x2 and extent.
    pub i2_start: usize,
    pub n2: usize,
    /// `nspec · n2 · n1` values.
    pub data: Vec<f64>,
}

/// Scatter per-rank tiles into a global `nspec × gn2 × gn1` row-major
/// array (x1 fastest — V2D's dictionary ordering).
///
/// # Panics
/// If tiles overlap, fall outside the grid, carry the wrong amount of
/// data, or fail to cover the grid exactly.
pub fn gather_global(gn1: usize, gn2: usize, nspec: usize, tiles: &[TileData]) -> Vec<f64> {
    let mut out = vec![f64::NAN; nspec * gn1 * gn2];
    let mut covered = 0usize;
    for t in tiles {
        assert_eq!(
            t.data.len(),
            nspec * t.n1 * t.n2,
            "tile at ({},{}) has {} values, expected {}",
            t.i1_start,
            t.i2_start,
            t.data.len(),
            nspec * t.n1 * t.n2
        );
        assert!(
            t.i1_start + t.n1 <= gn1 && t.i2_start + t.n2 <= gn2,
            "tile at ({},{}) size {}×{} exceeds grid {gn1}×{gn2}",
            t.i1_start,
            t.i2_start,
            t.n1,
            t.n2
        );
        let mut k = 0;
        for s in 0..nspec {
            for i2 in 0..t.n2 {
                for i1 in 0..t.n1 {
                    let g = s * gn1 * gn2 + (t.i2_start + i2) * gn1 + (t.i1_start + i1);
                    assert!(
                        out[g].is_nan(),
                        "overlapping tiles at global zone ({}, {})",
                        t.i1_start + i1,
                        t.i2_start + i2
                    );
                    out[g] = t.data[k];
                    k += 1;
                }
            }
        }
        covered += t.n1 * t.n2;
    }
    assert_eq!(covered, gn1 * gn2, "tiles do not cover the grid exactly");
    debug_assert!(out.iter().all(|v| !v.is_nan()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tile(i1: usize, n1: usize, i2: usize, n2: usize, gn1: usize, nspec: usize) -> TileData {
        let mut data = Vec::new();
        for s in 0..nspec {
            for b in 0..n2 {
                for a in 0..n1 {
                    data.push((s * 10_000 + (i2 + b) * 100 + (i1 + a)) as f64);
                }
            }
        }
        let _ = gn1;
        TileData { i1_start: i1, n1, i2_start: i2, n2, data }
    }

    #[test]
    fn four_tiles_assemble_in_global_order() {
        let tiles = vec![
            tile(0, 2, 0, 2, 4, 2),
            tile(2, 2, 0, 2, 4, 2),
            tile(0, 2, 2, 2, 4, 2),
            tile(2, 2, 2, 2, 4, 2),
        ];
        let g = gather_global(4, 4, 2, &tiles);
        for s in 0..2 {
            for i2 in 0..4 {
                for i1 in 0..4 {
                    assert_eq!(g[s * 16 + i2 * 4 + i1], (s * 10_000 + i2 * 100 + i1) as f64);
                }
            }
        }
    }

    #[test]
    fn uneven_tiles_work() {
        let tiles = vec![tile(0, 3, 0, 5, 5, 1), tile(3, 2, 0, 5, 5, 1)];
        let g = gather_global(5, 5, 1, &tiles);
        assert_eq!(g[4], 4.0);
        assert_eq!(g[5], 100.0);
    }

    #[test]
    #[should_panic(expected = "overlapping tiles")]
    fn overlap_rejected() {
        let tiles = vec![tile(0, 2, 0, 2, 2, 1), tile(1, 1, 0, 2, 2, 1)];
        let _ = gather_global(2, 2, 1, &tiles);
    }

    #[test]
    #[should_panic(expected = "do not cover")]
    fn gap_rejected() {
        let tiles = vec![tile(0, 1, 0, 2, 2, 1)];
        let _ = gather_global(2, 2, 1, &tiles);
    }

    #[test]
    #[should_panic(expected = "exceeds grid")]
    fn out_of_bounds_rejected() {
        let tiles = vec![tile(1, 2, 0, 2, 2, 1)];
        let _ = gather_global(2, 2, 1, &tiles);
    }

    #[test]
    #[should_panic(expected = "expected")]
    fn wrong_data_length_rejected() {
        let mut t = tile(0, 2, 0, 2, 2, 1);
        t.data.pop();
        let _ = gather_global(2, 2, 1, &[t]);
    }
}
