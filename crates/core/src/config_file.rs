//! Runtime parameter files.
//!
//! V2D, like most production simulation codes, is driven by a runtime
//! parameter file rather than recompilation — the paper's NPRX1/NPRX2
//! process-topology knobs are exactly such parameters.  This module
//! implements the reader: a strict `key = value` format with `#`
//! comments and `[section]` headers, parsed without any external
//! dependency, plus the mapping onto [`V2dConfig`].
//!
//! A parse scans borrowed lines, sorts them once by lower-cased key and
//! keeps the canonical rendering plus an index into it — no allocation
//! per line.  The canonical text is a compatibility contract: the
//! `v2d-serve` result cache keys on its FNV-64, so the test module keeps
//! the original map-per-entry parser as an oracle and checks the two
//! agree on generated decks, errors included.
//!
//! Each enumerated key reads one [`Spellings`] table, which also writes
//! decks and lists the canonical spellings in the error for a word it
//! does not know.  Canonical first, `|` before an alias, `*` the default:
//!
//! ```text
//! grid.geometry                     cartesian*, cylindrical | rz, spherical | rtheta
//! radiation.limiter                 none, levermore-pomraning | lp*, wilson
//! radiation.precond                 none, jacobi, block-jacobi | spai0*, spai | spai1
//! radiation.bicgstab                ganged*, classic
//! hydro.bc_{west,east,south,north}  outflow*, reflecting | wall
//! hydro.enabled, coupling.enabled   true | yes | 1, false | no | 0*
//! problem.family                    gaussian | pulse, multigroup, radshock | radiative-shock,
//!                                   relax | relaxation, marshak, sod | shock-tube,
//!                                   sedov | sedov-taylor, kelvin-helmholtz | kh
//! ```
//!
//! ```text
//! # v2d.par — the paper's radiation benchmark
//! [grid]
//! n1 = 200
//! n2 = 100
//! x1 = 0.0 2.0
//! x2 = 0.0 1.0
//! geometry = cartesian
//!
//! [run]
//! dt = 0.0075
//! n_steps = 100
//! nprx1 = 5
//! nprx2 = 4
//!
//! [radiation]
//! limiter = levermore-pomraning
//! kappa_a = 0.02 0.04
//! kappa_s = 2.0 3.0
//! kappa_x = 0.01
//! precond = block-jacobi
//! tol = 1e-9
//! ```

use std::fmt;
use std::ops::Range;

use v2d_linalg::{BicgVariant, SolveOpts};

use crate::grid::{Geometry, Grid2};
use crate::hydro::{BcKind, MAX_CFL};
use crate::limiter::Limiter;
use crate::opacity::OpacityModel;
use crate::problems::Family;
use crate::sim::{HydroConfig, PrecondKind, V2dConfig};

/// Parameter-file errors, with the line number where applicable.
#[derive(Debug, PartialEq, Eq)]
pub enum ParError {
    Syntax { line: usize, msg: String },
    Missing(String),
    Invalid { key: String, msg: String },
    Io { path: String, msg: String },
}

impl fmt::Display for ParError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParError::Syntax { line, msg } => write!(f, "line {line}: {msg}"),
            ParError::Missing(k) => write!(f, "missing required parameter `{k}`"),
            ParError::Invalid { key, msg } => write!(f, "parameter `{key}`: {msg}"),
            ParError::Io { path, msg } => write!(f, "{path}: {msg}"),
        }
    }
}

impl std::error::Error for ParError {}

/// The words a deck may spell one enum's values with: one row per
/// value, its canonical spelling first and its aliases after.  One table
/// parses a deck, writes one (the canonical spelling) and lists the
/// valid words in the error for an unknown one, so the three cannot
/// drift apart.
#[derive(Debug)]
pub struct Spellings<T: 'static> {
    /// What the values are, as an error names them.
    what: &'static str,
    table: &'static [(T, &'static [&'static str])],
}

impl<T: Copy + PartialEq> Spellings<T> {
    /// The value `word` spells, if any.
    pub fn parse(&self, word: &str) -> Option<T> {
        self.table.iter().find(|(_, words)| words.contains(&word)).map(|&(v, _)| v)
    }

    /// The canonical spelling of `value` (empty for a value the table
    /// lacks; the deck round-trip tests hold every table total).
    pub fn name(&self, value: T) -> &'static str {
        let row = self.table.iter().find(|&&(v, _)| v == value);
        row.and_then(|(_, words)| words.first()).copied().unwrap_or_default()
    }

    /// The canonical spellings, comma-separated, in table order.
    pub fn valid(&self) -> String {
        let canonical: Vec<&str> =
            self.table.iter().filter_map(|(_, w)| w.first().copied()).collect();
        canonical.join(", ")
    }

    /// The message for a word that spells no value.
    pub fn unknown(&self, word: &str) -> String {
        format!("unknown {} `{word}` (valid: {})", self.what, self.valid())
    }
}

pub const GEOMETRY: Spellings<Geometry> = Spellings {
    what: "geometry",
    table: &[
        (Geometry::Cartesian, &["cartesian"]),
        (Geometry::CylindricalRZ, &["cylindrical", "rz"]),
        (Geometry::SphericalRTheta, &["spherical", "rtheta"]),
    ],
};

pub const LIMITER: Spellings<Limiter> = Spellings {
    what: "limiter",
    table: &[
        (Limiter::None, &["none"]),
        (Limiter::LevermorePomraning, &["levermore-pomraning", "lp"]),
        (Limiter::Wilson, &["wilson"]),
    ],
};

pub const PRECOND: Spellings<PrecondKind> = Spellings {
    what: "preconditioner",
    table: &[
        (PrecondKind::None, &["none"]),
        (PrecondKind::Jacobi, &["jacobi"]),
        (PrecondKind::BlockJacobi, &["block-jacobi", "spai0"]),
        (PrecondKind::Spai, &["spai", "spai1"]),
    ],
};

pub const BICGSTAB: Spellings<BicgVariant> = Spellings {
    what: "bicgstab variant",
    table: &[(BicgVariant::Ganged, &["ganged"]), (BicgVariant::Classic, &["classic"])],
};

pub const BOUNDARY: Spellings<BcKind> = Spellings {
    what: "boundary",
    table: &[(BcKind::Outflow, &["outflow"]), (BcKind::Reflecting, &["reflecting", "wall"])],
};

/// `hydro.enabled` and `coupling.enabled`.
pub const SWITCH: Spellings<bool> = Spellings {
    what: "boolean",
    table: &[(true, &["true", "yes", "1"]), (false, &["false", "no", "0"])],
};

/// `problem.family`, in registry order ([`crate::problems::FAMILIES`]).
pub const FAMILY: Spellings<Family> = Spellings {
    what: "problem family",
    table: &[
        (Family::Gaussian, &["gaussian", "pulse"]),
        (Family::Multigroup, &["multigroup"]),
        (Family::RadShock, &["radshock", "radiative-shock"]),
        (Family::Relax, &["relax", "relaxation"]),
        (Family::Marshak, &["marshak"]),
        (Family::Sod, &["sod", "shock-tube"]),
        (Family::Sedov, &["sedov", "sedov-taylor"]),
        (Family::KelvinHelmholtz, &["kelvin-helmholtz", "kh"]),
    ],
};

/// A parsed parameter file: `section.key → value` (keys outside any
/// section live under the empty section name).
///
/// Stored as its [`ParFile::canonical`] text plus a key-sorted index
/// into it, so a parse costs a handful of allocations however long the
/// deck, and lookups are a binary search over borrowed slices.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParFile {
    /// One `section.key = value\n` line per entry, sorted by key.
    text: String,
    /// One span per line of `text`, in the same order.
    index: Vec<Span>,
}

/// Where one entry sits in [`ParFile::text`]: its key is
/// `text[start..eq]`, its value `text[eq + 3..end]` (past the ` = `).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Span {
    start: usize,
    eq: usize,
    end: usize,
}

impl ParFile {
    /// Parse the text of a parameter file.
    ///
    /// Section and key names are lower-cased; values keep their case.
    /// Errors come in line order: the first line that is malformed or
    /// repeats an earlier key is the one reported.
    pub fn parse(text: &str) -> Result<Self, ParError> {
        // Every line's lower-cased full key, back to back.
        let mut keys = String::with_capacity(text.len());
        let mut section = String::new();
        // (key range in `keys`, value, 1-based line number)
        let mut lines: Vec<(Range<usize>, &str, usize)> =
            Vec::with_capacity(text.bytes().filter(|&b| b == b'=').count());
        let mut malformed = None;
        for (ln, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[') {
                let Some(name) = name.strip_suffix(']') else {
                    malformed = Some(ParError::Syntax {
                        line: ln + 1,
                        msg: "unterminated section header".into(),
                    });
                    break;
                };
                section.clear();
                section.push_str(name.trim());
                section.make_ascii_lowercase();
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                malformed = Some(ParError::Syntax {
                    line: ln + 1,
                    msg: format!("expected `key = value`, got `{line}`"),
                });
                break;
            };
            let key = key.trim();
            if key.is_empty() {
                malformed = Some(ParError::Syntax { line: ln + 1, msg: "empty key".into() });
                break;
            }
            let start = keys.len();
            if !section.is_empty() {
                keys.push_str(&section);
                keys.push('.');
            }
            let lower = keys.len();
            keys.push_str(key);
            keys[lower..].make_ascii_lowercase();
            lines.push((start..keys.len(), value.trim(), ln + 1));
        }
        let key = |r: &Range<usize>| &keys[r.clone()];
        lines.sort_unstable_by(|a, b| key(&a.0).cmp(key(&b.0)).then(a.2.cmp(&b.2)));
        // A repeat is any entry sorting right after one with its key; the
        // earliest such line is where a top-to-bottom read would stop,
        // and every line scanned precedes a malformed one.
        let repeat =
            lines.windows(2).filter(|w| key(&w[0].0) == key(&w[1].0)).min_by_key(|w| w[1].2);
        if let Some(w) = repeat {
            return Err(ParError::Syntax {
                line: w[1].2,
                msg: format!("duplicate parameter `{}`", key(&w[1].0)),
            });
        }
        if let Some(e) = malformed {
            return Err(e);
        }
        Ok(Self::from_sorted(lines.iter().map(|(k, v, _)| (key(k), *v))))
    }

    /// Build from `(key, value)` pairs already sorted by unique key.
    fn from_sorted<'a, I>(pairs: I) -> Self
    where
        I: Iterator<Item = (&'a str, &'a str)> + Clone,
    {
        let len = pairs.clone().map(|(k, v)| k.len() + v.len() + 4).sum();
        let mut text = String::with_capacity(len);
        let mut index = Vec::with_capacity(pairs.size_hint().0);
        for (k, v) in pairs {
            let start = text.len();
            text.push_str(k);
            let eq = text.len();
            text.push_str(" = ");
            text.push_str(v);
            index.push(Span { start, eq, end: text.len() });
            text.push('\n');
        }
        ParFile { text, index }
    }

    /// Read a parameter file from disk.  I/O failures name the path.
    pub fn open(path: impl AsRef<std::path::Path>) -> Result<Self, ParError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| ParError::Io { path: path.display().to_string(), msg: e.to_string() })?;
        Self::parse(&text)
    }

    /// Raw string value of `key` (fully qualified: `section.key`).
    pub fn get(&self, key: &str) -> Option<&str> {
        let i = self.index.binary_search_by(|s| self.text[s.start..s.eq].cmp(key)).ok()?;
        let s = self.index[i];
        Some(&self.text[s.eq + 3..s.end])
    }

    /// The canonical one-line-per-entry rendering of the deck: sorted
    /// `section.key = value` pairs, independent of comment placement,
    /// section ordering, and whitespace.  Two decks with equal canonical
    /// forms configure bit-identical runs, which is what makes
    /// content-hash keyed result memoization (the serve layer's dedupe
    /// and result cache) sound.
    pub fn canonical(&self) -> String {
        self.text.clone()
    }

    fn req(&self, key: &str) -> Result<&str, ParError> {
        self.get(key).ok_or_else(|| ParError::Missing(key.to_string()))
    }

    fn parse_val<T: std::str::FromStr>(&self, key: &str, v: &str) -> Result<T, ParError> {
        v.parse().map_err(|_| ParError::Invalid {
            key: key.to_string(),
            msg: format!("cannot parse `{v}`"),
        })
    }

    /// Required scalar.
    pub fn scalar<T: std::str::FromStr>(&self, key: &str) -> Result<T, ParError> {
        let v = self.req(key)?;
        self.parse_val(key, v)
    }

    /// Optional scalar with default.
    pub fn scalar_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ParError> {
        match self.get(key) {
            Some(v) => self.parse_val(key, v),
            None => Ok(default),
        }
    }

    /// Required whitespace-separated pair.
    pub fn pair(&self, key: &str) -> Result<(f64, f64), ParError> {
        let v = self.req(key)?;
        let mut it = v.split_whitespace();
        let a = it.next().ok_or_else(|| ParError::Invalid {
            key: key.to_string(),
            msg: "expected two values".into(),
        })?;
        let b = it.next().ok_or_else(|| ParError::Invalid {
            key: key.to_string(),
            msg: "expected two values".into(),
        })?;
        if it.next().is_some() {
            return Err(ParError::Invalid {
                key: key.to_string(),
                msg: "expected exactly two values".into(),
            });
        }
        Ok((self.parse_val(key, a)?, self.parse_val(key, b)?))
    }

    /// Build the full [`V2dConfig`] plus the process topology
    /// `(NPRX1, NPRX2)` from this file.
    pub fn to_config(&self) -> Result<(V2dConfig, (usize, usize)), ParError> {
        fn check(key: &str, ok: bool, msg: impl fmt::Display) -> Result<(), ParError> {
            if ok {
                Ok(())
            } else {
                Err(ParError::Invalid { key: key.to_string(), msg: msg.to_string() })
            }
        }
        let n1: usize = self.scalar("grid.n1")?;
        let n2: usize = self.scalar("grid.n2")?;
        check("grid.n1", n1 >= 1, "grid must have at least one zone")?;
        check("grid.n2", n2 >= 1, "grid must have at least one zone")?;
        let x1 = self.pair("grid.x1")?;
        let x2 = self.pair("grid.x2")?;
        // Every float range check also rejects `inf` and `nan`.
        let finite = |p: (f64, f64)| p.0.is_finite() && p.1.is_finite();
        let positive = |x: f64| x.is_finite() && x > 0.0;
        check("grid.x1", finite(x1) && x1.1 > x1.0, "upper bound must exceed lower bound")?;
        check("grid.x2", finite(x2) && x2.1 > x2.0, "upper bound must exceed lower bound")?;
        let geometry = self.choice("grid.geometry", &GEOMETRY)?.unwrap_or(Geometry::Cartesian);
        let radial_ok = geometry == Geometry::Cartesian || x1.0 >= 0.0;
        check("grid.x1", radial_ok, "radial coordinate cannot be negative")?;
        let grid = Grid2::new(n1, n2, x1, x2, geometry);

        let limiter =
            self.choice("radiation.limiter", &LIMITER)?.unwrap_or(Limiter::LevermorePomraning);
        let ka = self.pair("radiation.kappa_a")?;
        let ks = self.pair("radiation.kappa_s")?;
        let kx: f64 = self.scalar_or("radiation.kappa_x", 0.0)?;
        let opacities = "opacities must be >= 0";
        check("radiation.kappa_a", finite(ka) && ka.0 >= 0.0 && ka.1 >= 0.0, opacities)?;
        check("radiation.kappa_s", finite(ks) && ks.0 >= 0.0 && ks.1 >= 0.0, opacities)?;
        check("radiation.kappa_x", kx.is_finite() && kx >= 0.0, opacities)?;
        let opacity = OpacityModel { kappa_a: [ka.0, ka.1], kappa_s: [ks.0, ks.1], kappa_x: kx };
        let precond =
            self.choice("radiation.precond", &PRECOND)?.unwrap_or(PrecondKind::BlockJacobi);
        let variant = self.choice("radiation.bicgstab", &BICGSTAB)?.unwrap_or(BicgVariant::Ganged);
        let solve = SolveOpts {
            tol: self.scalar_or("radiation.tol", 1e-9)?,
            max_iters: self.scalar_or("radiation.max_iters", 10_000)?,
            variant,
        };
        check("radiation.tol", positive(solve.tol), "must be > 0")?;
        check("radiation.max_iters", solve.max_iters >= 1, "must be >= 1")?;

        let hydro = if self.choice("hydro.enabled", &SWITCH)?.unwrap_or(false) {
            let bc_of = |key: &str| -> Result<BcKind, ParError> {
                Ok(self.choice(key, &BOUNDARY)?.unwrap_or(BcKind::Outflow))
            };
            let gamma: f64 = self.scalar_or("hydro.gamma", 5.0 / 3.0)?;
            let cfl = self.scalar_or("hydro.cfl", 0.4)?;
            check("hydro.gamma", gamma.is_finite() && gamma > 1.0, "adiabatic index must be > 1")?;
            let cfl_ok = cfl > 0.0 && cfl <= MAX_CFL;
            check("hydro.cfl", cfl_ok, format_args!("must be in (0, {MAX_CFL}]"))?;
            Some(HydroConfig {
                gamma,
                cfl,
                bc: crate::hydro::HydroBc {
                    west: bc_of("hydro.bc_west")?,
                    east: bc_of("hydro.bc_east")?,
                    south: bc_of("hydro.bc_south")?,
                    north: bc_of("hydro.bc_north")?,
                },
            })
        } else {
            None
        };

        let coupling = if self.choice("coupling.enabled", &SWITCH)?.unwrap_or(false) {
            let cv: f64 = self.scalar_or("coupling.cv", 1.0)?;
            let a_rad: f64 = self.scalar_or("coupling.a_rad", 1.0)?;
            let split = match self.get("coupling.split") {
                Some(_) => self.pair("coupling.split")?,
                None => (0.5, 0.5),
            };
            check("coupling.cv", positive(cv), "heat capacity must be > 0")?;
            check("coupling.a_rad", positive(a_rad), "radiation constant must be > 0")?;
            check(
                "coupling.split",
                split.0 >= 0.0 && split.1 >= 0.0 && (split.0 + split.1 - 1.0).abs() < 1e-12,
                "emission split must be a partition of unity",
            )?;
            Some(crate::rad::coupling::MatterCoupling::new(cv, a_rad, [split.0, split.1]))
        } else {
            None
        };
        check(
            "coupling.enabled",
            !(hydro.is_some() && coupling.is_some()),
            "hydro and matter coupling are mutually exclusive",
        )?;

        let c_light = self.scalar_or("radiation.c_light", 1.0)?;
        let dt = self.scalar("run.dt")?;
        let n_steps = self.scalar("run.n_steps")?;
        check("radiation.c_light", positive(c_light), "must be > 0")?;
        check("run.dt", positive(dt), "timestep must be > 0")?;
        check("run.n_steps", n_steps >= 1, "must run at least one step")?;
        let cfg = V2dConfig {
            grid,
            limiter,
            opacity,
            c_light,
            dt,
            n_steps,
            precond,
            solve,
            hydro,
            coupling,
        };
        let nprx1: usize = self.scalar_or("run.nprx1", 1)?;
        let nprx2: usize = self.scalar_or("run.nprx2", 1)?;
        check("run.nprx1", nprx1 >= 1, "process topology must be >= 1")?;
        check("run.nprx2", nprx2 >= 1, "process topology must be >= 1")?;
        // Every rank must own enough zones per direction to fill its
        // neighbors' ghost frames.
        let fits = |key: &str, np: usize, axis: &str, zones: usize| {
            let why = if cfg.hydro.is_some() { " with hydro ghost frames" } else { "" };
            check(
                key,
                np <= cfg.max_ranks_along(zones),
                format_args!("{np} ranks cannot tile {axis} = {zones}{why}"),
            )
        };
        fits("run.nprx1", nprx1, "grid.n1", n1)?;
        fits("run.nprx2", nprx2, "grid.n2", n2)?;
        Ok((cfg, (nprx1, nprx2)))
    }

    /// The checkpoint cadence knobs of the `[run]` section:
    /// `(checkpoint_every, checkpoint_keep)`.  `checkpoint_every = 0`
    /// (the default) disables periodic checkpointing entirely — the
    /// paper decks carry no knob and their runs stay byte-identical;
    /// `checkpoint_keep` bounds the on-disk rotation
    /// ([`crate::checkpoint::CheckpointStore::new`]'s `keep`, default 4).
    pub fn checkpoint_policy(&self) -> Result<(usize, usize), ParError> {
        let every: usize = self.scalar_or("run.checkpoint_every", 0)?;
        let keep: usize = self.scalar_or("run.checkpoint_keep", 4)?;
        if keep < 1 {
            return Err(ParError::Invalid {
                key: "run.checkpoint_keep".into(),
                msg: "must keep at least one checkpoint".into(),
            });
        }
        Ok((every, keep))
    }

    /// The `[problem]` section's scenario selection.  `Ok(None)` when
    /// the deck names no family (legacy decks run the standard Gaussian
    /// pulse); a typed [`ParError::Invalid`] listing every valid family
    /// when the name is not in the registry — never a panic on the
    /// deck-parsing path.
    pub fn problem(&self) -> Result<Option<Family>, ParError> {
        self.choice("problem.family", &FAMILY)
    }

    /// An enumerated key: `None` when absent, else the value its word
    /// spells — a word that spells none is an error listing the valid
    /// ones.
    fn choice<T: Copy + PartialEq>(
        &self,
        key: &str,
        spellings: &Spellings<T>,
    ) -> Result<Option<T>, ParError> {
        let Some(word) = self.get(key) else { return Ok(None) };
        match spellings.parse(word) {
            Some(v) => Ok(Some(v)),
            None => Err(ParError::Invalid { key: key.to_string(), msg: spellings.unknown(word) }),
        }
    }
}

/// The parameter file reproducing the paper's benchmark configuration.
pub const PAPER_PAR: &str = r#"# The CLUSTER 2022 radiation benchmark: 2-D Gaussian pulse,
# 200 x 100 zones x 2 species, 100 timesteps (300 BiCGSTAB solves).
[grid]
n1 = 200
n2 = 100
x1 = 0.0 2.0
x2 = 0.0 1.0
geometry = cartesian

[run]
# ~400x the explicit diffusion-stability limit, as in
# problems::gaussian::scaled_config — the stiffness regime that gives
# the study its ~128 BiCGSTAB iterations per solve.
dt = 0.06
n_steps = 100
nprx1 = 1
nprx2 = 1

[radiation]
limiter = levermore-pomraning
kappa_a = 0.02 0.04
kappa_s = 2.0 3.0
kappa_x = 0.01
precond = block-jacobi
tol = 1e-9
"#;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_par_parses_to_the_study_config() {
        let pf = ParFile::parse(PAPER_PAR).expect("parse");
        let (cfg, (np1, np2)) = pf.to_config().expect("config");
        assert_eq!((cfg.grid.n1, cfg.grid.n2), (200, 100));
        assert_eq!(cfg.n_steps, 100);
        assert_eq!(cfg.precond, PrecondKind::BlockJacobi);
        assert_eq!(cfg.limiter, Limiter::LevermorePomraning);
        assert_eq!((np1, np2), (1, 1));
        assert!(cfg.hydro.is_none());
        // The deck must stay in sync with the programmatic config.
        let reference = crate::problems::GaussianPulse::paper_config();
        assert!(
            ((cfg.dt - reference.dt) / reference.dt).abs() < 1e-12,
            "deck dt {} diverged from paper_config dt {}",
            cfg.dt,
            reference.dt
        );
    }

    #[test]
    fn comments_sections_and_whitespace() {
        let pf = ParFile::parse(
            "# header\n a = 1 # trailing\n[Sec]\n b = 2\n\n[other]\nc = hello world\n",
        )
        .unwrap();
        assert_eq!(pf.get("a"), Some("1"));
        assert_eq!(pf.get("sec.b"), Some("2"));
        assert_eq!(pf.get("other.c"), Some("hello world"));
    }

    #[test]
    fn syntax_errors_carry_line_numbers() {
        match ParFile::parse("ok = 1\nbroken line\n") {
            Err(ParError::Syntax { line: 2, .. }) => {}
            other => panic!("expected syntax error on line 2, got {other:?}"),
        }
        match ParFile::parse("[unterminated\n") {
            Err(ParError::Syntax { line: 1, .. }) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn duplicates_rejected() {
        assert!(matches!(ParFile::parse("a = 1\na = 2\n"), Err(ParError::Syntax { line: 2, .. })));
    }

    #[test]
    fn missing_required_keys_are_reported() {
        let pf = ParFile::parse("[grid]\nn1 = 4\n").unwrap();
        match pf.to_config() {
            Err(ParError::Missing(k)) => assert_eq!(k, "grid.n2"),
            other => panic!("{other:?}"),
        }
    }

    /// A valid deck that sets no enumerated key, so a test can set one
    /// fully qualified above the first section.
    const PLAIN: &str = "[grid]\nn1 = 4\nn2 = 4\nx1 = 0 1\nx2 = 0 1\n[run]\ndt = 0.1\n\
                         n_steps = 1\n[radiation]\nkappa_a = 0 0\nkappa_s = 1 1\n";

    /// An unknown word for any enumerated key is an `Invalid` naming the
    /// key and every canonical spelling of its table, in table order.
    #[test]
    fn invalid_enumerations_are_reported() {
        let hydro = "hydro.enabled = true\n";
        let walls = "boundary `Warp` (valid: outflow, reflecting)";
        for (key, before, want) in [
            ("grid.geometry", "", "geometry `Warp` (valid: cartesian, cylindrical, spherical)"),
            ("radiation.limiter", "", "limiter `Warp` (valid: none, levermore-pomraning, wilson)"),
            (
                "radiation.precond",
                "",
                "preconditioner `Warp` (valid: none, jacobi, block-jacobi, spai)",
            ),
            ("radiation.bicgstab", "", "bicgstab variant `Warp` (valid: ganged, classic)"),
            ("hydro.enabled", "", "boolean `Warp` (valid: true, false)"),
            ("hydro.bc_west", hydro, walls),
            ("hydro.bc_east", hydro, walls),
            ("hydro.bc_south", hydro, walls),
            ("hydro.bc_north", hydro, walls),
            ("coupling.enabled", "", "boolean `Warp` (valid: true, false)"),
            (
                "problem.family",
                "",
                "problem family `Warp` (valid: gaussian, multigroup, radshock, relax, \
                 marshak, sod, sedov, kelvin-helmholtz)",
            ),
        ] {
            let pf = ParFile::parse(&format!("{key} = Warp\n{before}{PLAIN}")).unwrap();
            let got = match key {
                "problem.family" => pf.problem().map(|_| ()),
                _ => pf.to_config().map(|_| ()),
            };
            let want = ParError::Invalid { key: key.into(), msg: format!("unknown {want}") };
            assert_eq!(got, Err(want));
        }
    }

    /// Every spelling in every table, read through each key it serves,
    /// builds its value; the tables hold exactly the accepted words.
    #[test]
    fn every_spelling_parses_to_its_value() {
        fn spelled<T: Copy>(s: &Spellings<T>) -> Vec<(&'static str, T)> {
            s.table.iter().flat_map(|&(v, words)| words.iter().map(move |&w| (w, v))).collect()
        }
        fn words<T: Copy>(s: &Spellings<T>) -> Vec<&'static str> {
            spelled(s).into_iter().map(|(w, _)| w).collect()
        }
        assert_eq!(words(&GEOMETRY), ["cartesian", "cylindrical", "rz", "spherical", "rtheta"]);
        assert_eq!(words(&LIMITER), ["none", "levermore-pomraning", "lp", "wilson"]);
        assert_eq!(words(&PRECOND), ["none", "jacobi", "block-jacobi", "spai0", "spai", "spai1"]);
        assert_eq!(words(&BICGSTAB), ["ganged", "classic"]);
        assert_eq!(words(&BOUNDARY), ["outflow", "reflecting", "wall"]);
        assert_eq!(words(&SWITCH), ["true", "yes", "1", "false", "no", "0"]);
        assert_eq!(
            words(&FAMILY),
            [
                "gaussian",
                "pulse",
                "multigroup",
                "radshock",
                "radiative-shock",
                "relax",
                "relaxation",
                "marshak",
                "sod",
                "shock-tube",
                "sedov",
                "sedov-taylor",
                "kelvin-helmholtz",
                "kh"
            ]
        );
        let cfg = |lines: String| ParFile::parse(&(lines + PLAIN)).unwrap().to_config().unwrap().0;
        for (w, v) in spelled(&GEOMETRY) {
            assert_eq!(cfg(format!("grid.geometry = {w}\n")).grid.geometry, v, "{w}");
        }
        for (w, v) in spelled(&LIMITER) {
            assert_eq!(cfg(format!("radiation.limiter = {w}\n")).limiter, v, "{w}");
        }
        for (w, v) in spelled(&PRECOND) {
            assert_eq!(cfg(format!("radiation.precond = {w}\n")).precond, v, "{w}");
        }
        for (w, v) in spelled(&BICGSTAB) {
            assert_eq!(cfg(format!("radiation.bicgstab = {w}\n")).solve.variant, v, "{w}");
        }
        for (w, v) in spelled(&BOUNDARY) {
            let walls = ["west", "east", "south", "north"].map(|s| format!("hydro.bc_{s} = {w}\n"));
            let bc = cfg(format!("hydro.enabled = true\n{}", walls.concat())).hydro.unwrap().bc;
            assert_eq!([bc.west, bc.east, bc.south, bc.north], [v; 4], "{w}");
        }
        for (w, v) in spelled(&SWITCH) {
            assert_eq!(cfg(format!("hydro.enabled = {w}\n")).hydro.is_some(), v, "{w}");
            assert_eq!(cfg(format!("coupling.enabled = {w}\n")).coupling.is_some(), v, "{w}");
        }
        for (w, v) in spelled(&FAMILY) {
            let pf = ParFile::parse(&format!("problem.family = {w}\n")).unwrap();
            assert_eq!(pf.problem(), Ok(Some(v)), "{w}");
        }
    }

    #[test]
    fn hydro_section_enables_the_flow_solver() {
        let text = format!("{PAPER_PAR}\n[hydro]\nenabled = true\ngamma = 1.4\n");
        let pf = ParFile::parse(&text).unwrap();
        let (cfg, _) = pf.to_config().unwrap();
        let h = cfg.hydro.expect("hydro enabled");
        assert!((h.gamma - 1.4).abs() < 1e-12);
    }

    #[test]
    fn hydro_tiles_narrower_than_the_ghost_depth_are_rejected() {
        use crate::problems::Family;
        // Sod with 8 ranks over n1 = 8, Kelvin–Helmholtz with 8 ranks
        // over n2 = 8: one-zone tiles cannot fill a neighbor's two-deep
        // ghosts.  Half as many ranks fit.
        for (family, (n1, n2), narrow, fitting, key) in [
            (Family::Sod, (8, 4), (8, 1), (4, 1), "run.nprx1"),
            (Family::KelvinHelmholtz, (16, 8), (1, 8), (1, 4), "run.nprx2"),
        ] {
            let deck = |(np1, np2)| family.scenario().deck(n1, n2, 2, np1, np2);
            let narrow = ParFile::parse(&deck(narrow)).unwrap().to_config();
            match narrow {
                Err(ParError::Invalid { key: k, msg }) => {
                    assert_eq!(k, key, "{family}");
                    assert!(msg.contains("hydro ghost frames"), "{family}: {msg}");
                }
                other => panic!("{family}: a one-zone hydro tile was accepted: {other:?}"),
            }
            let (_, np) = ParFile::parse(&deck(fitting)).unwrap().to_config().unwrap();
            assert_eq!(np, fitting, "{family}");
        }
    }

    #[test]
    fn out_of_range_values_are_reported() {
        for (from, to, key) in [
            ("dt = 0.06", "dt = -0.5", "run.dt"),
            ("n_steps = 100", "n_steps = 0", "run.n_steps"),
            ("tol = 1e-9", "tol = 0.0", "radiation.tol"),
            ("kappa_s = 2.0 3.0", "kappa_s = -2.0 3.0", "radiation.kappa_s"),
            ("n1 = 200", "n1 = 0", "grid.n1"),
            ("nprx1 = 1", "nprx1 = 300", "run.nprx1"),
            ("x1 = 0.0 2.0", "x1 = 0.0 inf", "grid.x1"),
            ("kappa_s = 2.0 3.0", "kappa_s = inf 3.0", "radiation.kappa_s"),
            ("tol = 1e-9", "tol = 1e-9\nc_light = inf", "radiation.c_light"),
            ("tol = 1e-9", "tol = 1e-9\n[hydro]\nenabled = true\ncfl = 0.95", "hydro.cfl"),
            (
                "x1 = 0.0 2.0\nx2 = 0.0 1.0\ngeometry = cartesian",
                "x1 = -1 2\nx2 = 0 1\ngeometry = rz",
                "grid.x1",
            ),
        ] {
            let text = PAPER_PAR.replace(from, to);
            let pf = ParFile::parse(&text).unwrap();
            match pf.to_config() {
                Err(ParError::Invalid { key: k, .. }) => assert_eq!(k, key),
                other => panic!("`{to}` accepted: {other:?}"),
            }
        }
    }

    #[test]
    fn checkpoint_policy_defaults_off_and_validates() {
        let pf = ParFile::parse(PAPER_PAR).unwrap();
        assert_eq!(pf.checkpoint_policy().unwrap(), (0, 4), "paper deck: no checkpointing");
        let pf = ParFile::parse(
            "[run]\ndt = 0.1\nn_steps = 1\ncheckpoint_every = 5\ncheckpoint_keep = 2\n",
        )
        .unwrap();
        assert_eq!(pf.checkpoint_policy().unwrap(), (5, 2));
        let pf = ParFile::parse("[run]\ndt = 0.1\nn_steps = 1\ncheckpoint_keep = 0\n").unwrap();
        assert!(matches!(
            pf.checkpoint_policy(),
            Err(ParError::Invalid { key, .. }) if key == "run.checkpoint_keep"
        ));
    }

    #[test]
    fn problem_family_defaults_to_none_and_parses() {
        let pf = ParFile::parse(PAPER_PAR).unwrap();
        assert_eq!(pf.problem().unwrap(), None, "legacy decks name no family");
        let pf = ParFile::parse("[problem]\nfamily = sedov\n").unwrap();
        assert_eq!(pf.problem().unwrap(), Some(crate::problems::Family::Sedov));
    }

    #[test]
    fn unknown_problem_family_is_a_typed_error_listing_the_registry() {
        let pf = ParFile::parse("[problem]\nfamily = warp-drive\n").unwrap();
        match pf.problem() {
            Err(ParError::Invalid { key, msg }) => {
                assert_eq!(key, "problem.family");
                assert!(msg.contains("warp-drive"), "names the offender: {msg}");
                for family in crate::problems::FAMILIES {
                    assert!(msg.contains(family.name()), "missing `{}` in: {msg}", family.name());
                }
            }
            other => panic!("expected a typed Invalid error, got {other:?}"),
        }
    }

    #[test]
    fn coupling_section_builds_the_closure_and_excludes_hydro() {
        let text = format!("{PAPER_PAR}\n[coupling]\nenabled = true\ncv = 2.0\nsplit = 0.7 0.3\n");
        let pf = ParFile::parse(&text).unwrap();
        let (cfg, _) = pf.to_config().unwrap();
        let cp = cfg.coupling.expect("coupling enabled");
        assert!((cp.cv - 2.0).abs() < 1e-12);
        assert_eq!(cp.split, [0.7, 0.3]);
        // Bad split is a typed error, not an assert inside MatterCoupling.
        let text = format!("{PAPER_PAR}\n[coupling]\nenabled = true\nsplit = 0.7 0.7\n");
        let pf = ParFile::parse(&text).unwrap();
        assert!(matches!(
            pf.to_config(),
            Err(ParError::Invalid { key, .. }) if key == "coupling.split"
        ));
        // Hydro and coupling together are rejected.
        let text = format!(
            "{PAPER_PAR}\n[hydro]\nenabled = true\ngamma = 1.4\n[coupling]\nenabled = true\n"
        );
        let pf = ParFile::parse(&text).unwrap();
        assert!(matches!(
            pf.to_config(),
            Err(ParError::Invalid { key, .. }) if key == "coupling.enabled"
        ));
    }

    #[test]
    fn open_failure_names_the_path() {
        match ParFile::open("/nonexistent/v2d.par") {
            Err(ParError::Io { path, .. }) => assert_eq!(path, "/nonexistent/v2d.par"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn pair_rejects_wrong_arity() {
        let pf = ParFile::parse("x = 1.0\ny = 1 2 3\n").unwrap();
        assert!(pf.pair("x").is_err());
        assert!(pf.pair("y").is_err());
    }

    /// The parser `ParFile::parse` replaced — one `BTreeMap` insert, with
    /// its lower-casing, `format!` and copies, per line — kept as the
    /// oracle for keys, values, canonical text and every error.
    fn oracle(text: &str) -> Result<std::collections::BTreeMap<String, String>, ParError> {
        let mut entries = std::collections::BTreeMap::new();
        let mut section = String::new();
        for (ln, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[') {
                let name = name.strip_suffix(']').ok_or_else(|| ParError::Syntax {
                    line: ln + 1,
                    msg: "unterminated section header".into(),
                })?;
                section = name.trim().to_ascii_lowercase();
                continue;
            }
            let (key, value) = line.split_once('=').ok_or_else(|| ParError::Syntax {
                line: ln + 1,
                msg: format!("expected `key = value`, got `{line}`"),
            })?;
            let key = key.trim().to_ascii_lowercase();
            if key.is_empty() {
                return Err(ParError::Syntax { line: ln + 1, msg: "empty key".into() });
            }
            let full = if section.is_empty() { key } else { format!("{section}.{key}") };
            if entries.insert(full.clone(), value.trim().to_string()).is_some() {
                return Err(ParError::Syntax {
                    line: ln + 1,
                    msg: format!("duplicate parameter `{full}`"),
                });
            }
        }
        Ok(entries)
    }

    /// A valid 16×8 hydro deck, one `(section, key, value)` per entry.
    const BASE: [(&str, &str, &str); 17] = [
        ("grid", "n1", "16"),
        ("grid", "n2", "8"),
        ("grid", "x1", "0.0 2.0"),
        ("grid", "x2", "0.0 1.0"),
        ("grid", "geometry", "cartesian"),
        ("run", "dt", "0.01"),
        ("run", "n_steps", "3"),
        ("run", "nprx1", "2"),
        ("run", "nprx2", "1"),
        ("run", "checkpoint_every", "0"),
        ("radiation", "limiter", "none"),
        ("radiation", "kappa_a", "0.0 0.0"),
        ("radiation", "kappa_s", "2.0 2.0"),
        ("radiation", "precond", "jacobi"),
        ("radiation", "tol", "1e-8"),
        ("hydro", "enabled", "true"),
        ("hydro", "gamma", "1.4"),
    ];

    /// `name` as written, upper-cased, or capitalised.
    fn spell(name: &str, how: u8) -> String {
        match how % 3 {
            0 => name.to_string(),
            1 => name.to_ascii_uppercase(),
            _ => name[..1].to_ascii_uppercase() + &name[1..],
        }
    }

    /// Append `BASE[i]` in spelling `how`: bits 0–1 case the section,
    /// bits 2–3 the key, bit 4 writes it fully qualified outside any
    /// section, bit 5 pads it and adds a trailing comment.  `current` is
    /// the lower-cased section in force.
    fn write_entry(out: &mut String, current: &mut String, i: usize, how: u8) {
        let (sec, key, val) = BASE[i];
        let key = if how & 16 != 0 {
            if !current.is_empty() {
                out.push_str("[]\n");
                current.clear();
            }
            format!("{}.{}", spell(sec, how), spell(key, how >> 2))
        } else {
            if current != sec {
                out.push_str(&format!("[{}]\n", spell(sec, how)));
                *current = sec.to_string();
            }
            spell(key, how >> 2)
        };
        if how & 32 != 0 {
            out.push_str(&format!("  {key}  =\t{val}   # trailing = comment\n"));
        } else {
            out.push_str(&format!("{key}={val}\n"));
        }
    }

    /// Every `BASE` entry once, ordered by `order` and spelled by
    /// `spelling`, with each `(kind, r)` of `noise` spliced in before
    /// entry `r % 18`.  Kinds 8–11 make the deck an error: a repeated
    /// entry, an empty key, an unterminated header, a line without `=`.
    fn generated_deck(order: &[u64], spelling: &[u8], noise: &[(u8, u64)]) -> String {
        let mut idx: Vec<usize> = (0..BASE.len()).collect();
        idx.sort_by_key(|&i| order[i]);
        let (mut out, mut current) = (String::new(), String::new());
        for slot in 0..=BASE.len() {
            for &(kind, r) in noise.iter().filter(|(_, r)| *r as usize % (BASE.len() + 1) == slot) {
                match kind {
                    0..=3 => out.push_str(&format!("# note {r} = [x]\n")),
                    4 => out.push('\n'),
                    5 => out.push_str("  \t \n"),
                    // `=` inside a value; two of these with one `r % 3`
                    // in one section are a second duplicate group.
                    6 => out.push_str(&format!("Extra{} = a = {}\n", r % 3, r % 5)),
                    7 => {
                        out.push_str("[ Misc ] # a section of its own\n");
                        current.clear();
                        current.push_str("misc");
                    }
                    8 => {
                        write_entry(&mut out, &mut current, r as usize % BASE.len(), (r >> 8) as u8)
                    }
                    9 => out.push_str(" = 3\n"),
                    10 => out.push_str("[grid\n"),
                    11 => out.push_str("broken line\n"),
                    _ => {
                        out.push_str("[]\n");
                        current.clear();
                    }
                }
            }
            if let Some(&i) = idx.get(slot) {
                write_entry(&mut out, &mut current, i, spelling[i]);
            }
        }
        out
    }

    #[test]
    fn parse_agrees_with_the_map_oracle_on_generated_decks() {
        use proptest::collection::vec;
        use proptest::prelude::*;
        let n = BASE.len();
        let decks = (
            vec(any::<u64>(), n..n + 1),
            vec(0u8..64, n..n + 1),
            vec((0u8..16, any::<u64>()), 0..5),
        );
        let mut rng = proptest::test_runner::TestRng::for_test(concat!(module_path!(), "::oracle"));
        let mut probes: Vec<String> = BASE.iter().map(|(s, k, _)| format!("{s}.{k}")).collect();
        probes.extend(
            ["extra0", "misc.extra1", "grid.extra2", "GRID.N1", "n1", ""].map(String::from),
        );
        // Decks whose config built, duplicate errors, other syntax errors.
        let mut seen = [0usize; 3];
        for _ in 0..600 {
            let (order, spelling, noise) = decks.generate(&mut rng);
            let text = generated_deck(&order, &spelling, &noise);
            match (ParFile::parse(&text), oracle(&text)) {
                (Ok(pf), Ok(map)) => {
                    let canonical: String =
                        map.iter().map(|(k, v)| format!("{k} = {v}\n")).collect();
                    assert_eq!(pf.canonical(), canonical, "deck:\n{text}");
                    for key in map.keys().chain(&probes) {
                        assert_eq!(
                            pf.get(key),
                            map.get(key).map(String::as_str),
                            "`{key}` in:\n{text}"
                        );
                    }
                    let reference =
                        ParFile::from_sorted(map.iter().map(|(k, v)| (k.as_str(), v.as_str())));
                    assert_eq!(pf, reference, "deck:\n{text}");
                    let cfg = pf.to_config();
                    assert_eq!(cfg, reference.to_config(), "deck:\n{text}");
                    seen[0] += usize::from(cfg.is_ok());
                }
                (Err(new), Err(old)) => {
                    assert_eq!(new, old, "deck:\n{text}");
                    let duplicate = |msg: &str| msg.starts_with("duplicate");
                    let repeat = matches!(&new, ParError::Syntax { msg, .. } if duplicate(msg));
                    seen[if repeat { 1 } else { 2 }] += 1;
                }
                (new, old) => panic!("parse gave {new:?}, the oracle {old:?}, on:\n{text}"),
            }
        }
        assert!(seen.iter().all(|&k| k >= 50), "generator coverage {seen:?}");
    }
}
