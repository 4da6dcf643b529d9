//! Fig. 1 — the sparsity pattern of the V2D system matrix.
//!
//! "The figure only depicts the upper left 400 × 400 block of the
//! complete 40,000 × 40,000 matrix.  On either side of the diagonal are
//! two adjacent diagonals with two outlying diagonals spaced farther
//! from the diagonal.  The x1 parameter indicates the distance of the
//! two outlying diagonals from the center diagonal."  (§II-A)

use v2d_linalg::sparsity;

/// Paper grid parameters.
pub const N1: usize = 200;
pub const N2: usize = 100;
pub const NSPEC: usize = 2;
/// The plotted window.
pub const WINDOW: usize = 400;

/// The figure as a PBM bitmap string.
pub fn pbm() -> String {
    sparsity::window_to_pbm(N1, N2, NSPEC, 0..WINDOW, 0..WINDOW)
}

/// The figure as terminal ASCII art (`side` characters square).
pub fn ascii(side: usize) -> String {
    sparsity::window_to_ascii(N1, N2, NSPEC, 0..WINDOW, 0..WINDOW, side)
}

/// Everything the Fig. 1 harness emits, computed in one pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Artifacts {
    pub stats: String,
    pub ascii: String,
    pub pbm: String,
}

/// Compute the three Fig. 1 artifacts, fanning the independent renders
/// out over scoped worker threads.  Each render is a pure function of
/// the grid parameters, so the result is identical to calling
/// [`stats`]/[`ascii`]/[`pbm`] serially.
pub fn artifacts(ascii_side: usize) -> Artifacts {
    std::thread::scope(|scope| {
        let pbm_t = scope.spawn(pbm);
        let ascii_t = scope.spawn(move || ascii(ascii_side));
        let stats = stats();
        Artifacts {
            stats,
            ascii: ascii_t.join().expect("ascii render panicked"),
            pbm: pbm_t.join().expect("pbm render panicked"),
        }
    })
}

/// Descriptive statistics printed alongside the figure.
pub fn stats() -> String {
    let dim = sparsity::dimension(N1, N2, NSPEC);
    let nnz = sparsity::nnz(N1, N2, NSPEC);
    let window_nnz = sparsity::nonzeros_in_window(N1, N2, NSPEC, 0..WINDOW, 0..WINDOW).len();
    format!(
        "matrix: {dim} × {dim} ({nnz} nonzeros, {:.4}% dense)\n\
         window: upper-left {WINDOW} × {WINDOW} block, {window_nnz} nonzeros\n\
         bands: diagonal, ±1 (x1 neighbors), ±{N1} (x2 neighbors at distance x1),\n\
         \x20       ±{} (species coupling; outside this window)\n",
        100.0 * nnz as f64 / (dim as f64 * dim as f64),
        N1 * N2,
    )
}

/// `v2d-bench fig1 [PATH]` — write the bitmap (one pixel per matrix
/// entry of the upper-left 400×400 block) to PATH, default
/// `fig1_sparsity.pbm`, and print the statistics and an ASCII
/// rendering.  The path echo goes to stderr: it is machine-specific.
pub fn print(args: &[String]) -> Result<(), crate::UsageError> {
    let out = match args {
        [] => "fig1_sparsity.pbm",
        [path] => path,
        _ => return Err(crate::UsageError),
    };
    let art = artifacts(100);
    std::fs::write(out, &art.pbm).expect("write PBM");
    println!("{}", art.stats);
    println!("{}", art.ascii);
    eprintln!("bitmap written to {out}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_matches_paper_dimensions() {
        assert_eq!(sparsity::dimension(N1, N2, NSPEC), 40_000);
        let p = pbm();
        assert!(p.starts_with("P1\n400 400\n"));
    }

    #[test]
    fn window_shows_five_band_structure() {
        let nz = sparsity::nonzeros_in_window(N1, N2, NSPEC, 0..WINDOW, 0..WINDOW);
        let offsets: std::collections::BTreeSet<isize> =
            nz.iter().map(|&(r, c)| c as isize - r as isize).collect();
        // Exactly the five bands (±1 interrupted at grid-row ends, but
        // present), nothing else.
        assert_eq!(
            offsets,
            [-200isize, -1, 0, 1, 200].into_iter().collect(),
            "unexpected band set {offsets:?}"
        );
    }

    #[test]
    fn ascii_art_shows_diagonals() {
        let art = ascii(80);
        assert!(art.lines().count() <= 80);
        assert!(art.contains('#'));
    }
}
