//! Deck generation: every input the programs under test see is made
//! here, from the workload definition and the seed.

use v2d_core::problems::{deck_from_config, Family, GaussianPulse};
use v2d_machine::fault::SplitMix64;

/// The seeded stream behind request order, noise and novelty digits.
#[derive(Debug, Clone)]
pub struct Rng(SplitMix64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(SplitMix64::new(seed))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// Replace the value of the first `key = …` line of a deck.
///
/// # Panics
/// If the deck has no such line: the decks are generated, so a missing
/// key is a harness bug.
pub fn set_param(deck: &str, key: &str, value: &str) -> String {
    let mut done = false;
    let mut out = String::with_capacity(deck.len() + value.len());
    for line in deck.lines() {
        let is_key =
            !done && line.split_once('=').is_some_and(|(k, _)| k.trim().eq_ignore_ascii_case(key));
        if is_key {
            out.push_str(&format!("{key} = {value}"));
            done = true;
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    assert!(done, "deck has no `{key}` line");
    out
}

fn get_param<'a>(deck: &'a str, key: &str) -> &'a str {
    deck.lines()
        .find_map(|l| {
            let (k, v) = l.split_once('=')?;
            k.trim().eq_ignore_ascii_case(key).then(|| v.trim())
        })
        .unwrap_or_else(|| panic!("deck has no `{key}` line"))
}

/// The paper deck (as `v2d --print-paper` printed it) at another step
/// count and topology, stamped with the seed in a comment: the physics
/// of these workloads is the paper's and does not vary.
pub fn paper_variant(paper: &str, n_steps: usize, np1: usize, np2: usize, seed: u64) -> String {
    let d = set_param(paper, "n_steps", &n_steps.to_string());
    let d = set_param(&d, "nprx1", &np1.to_string());
    let d = set_param(&d, "nprx2", &np2.to_string());
    format!("# bench/e2e seed {seed}\n{d}")
}

/// The weak-scaling deck: `ranks` strip ranks of 8×8 zones, one step.
pub fn weak_deck(ranks: usize, seed: u64) -> String {
    let cfg = GaussianPulse::scaled_config(8 * ranks, 8, 1);
    format!("# bench/e2e seed {seed}\n{}", deck_from_config(Family::Gaussian, &cfg, ranks, 1))
}

/// A registry family's deck at refinement `level` of its convergence
/// study, on one rank.
pub fn family_deck(family: Family, level: u32) -> String {
    let sc = family.scenario();
    let (n1, n2, steps) = sc.convergence().level(level);
    sc.deck(n1, n2, steps, 1, 1)
}

/// A registry family's smoke deck (what `v2d --print-deck` prints).
pub fn smoke_deck(family: Family) -> String {
    let sc = family.scenario();
    let (n1, n2, steps) = sc.smoke();
    sc.deck(n1, n2, steps, 1, 1)
}

/// The rank-loss deck: 2×1 ranks, a checkpoint after every step.  The
/// request kills rank 0 at step 2, so the supervisor rolls back and
/// shrinks onto the survivor.
pub fn kill_deck() -> String {
    let cfg = GaussianPulse::linear_config(16, 8, 4);
    let d = deck_from_config(Family::Gaussian, &cfg, 2, 1);
    // `checkpoint_every` belongs to `[run]`; put it right after `dt`.
    let dt = get_param(&d, "dt").to_string();
    set_param(&d, "dt", &format!("{dt}\ncheckpoint_every = 1"))
}

/// Make a deck *novel* to a content-hashed cache: scale `dt` by
/// `1 + novelty·1e-9`, a change in the ninth significant digit of a
/// parameter every family really uses.  The run is physically the same
/// and grades the same; its canonical text, and so its hash, is new.
pub fn novel(deck: &str, novelty: u64) -> String {
    let dt: f64 = get_param(deck, "dt").parse().expect("generated decks carry a numeric dt");
    set_param(deck, "dt", &format!("{}", dt * (1.0 + novelty as f64 * 1e-9)))
}

/// The same experiment spelled noisily: comments, blank lines, padding
/// around `=`.  Canonicalisation must see through all of it.
pub fn noisy(deck: &str, rng: &mut Rng) -> String {
    let mut out = String::from("# resubmitted by a client that reformats its decks\n\n");
    for line in deck.lines() {
        match line.split_once('=') {
            Some((k, v)) if !line.trim_start().starts_with('#') => {
                let pad = " ".repeat(1 + rng.below(3));
                out.push_str(&format!("  {}{pad}={pad}{}   # {}\n", k.trim(), v.trim(), k.trim()));
            }
            _ => {
                out.push_str(line);
                out.push('\n');
            }
        }
        if rng.below(4) == 0 {
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use v2d_comm::{Spmd, TileMap};
    use v2d_core::config_file::ParFile;
    use v2d_core::problems::FAMILIES;
    use v2d_core::sim::V2dSim;
    use v2d_serve::fnv64;

    fn hash(deck: &str) -> u64 {
        fnv64(ParFile::parse(deck).expect("deck parses").canonical().as_bytes())
    }

    fn verdict(deck: &str) -> bool {
        let par = ParFile::parse(deck).expect("deck parses");
        let (cfg, (np1, np2)) = par.to_config().expect("deck configures");
        let family = par.problem().expect("family parses").unwrap_or(Family::Gaussian);
        let map = TileMap::new(cfg.grid.n1, cfg.grid.n2, np1, np2);
        Spmd::new(np1 * np2).run(move |ctx| {
            let mut sim = V2dSim::new(cfg, &ctx.comm, map);
            family.scenario().init(&mut sim);
            sim.run(&ctx.comm, &mut ctx.sink);
            family.scenario().validate(&sim, &ctx.comm, &mut ctx.sink).pass
        })[0]
    }

    #[test]
    fn novelty_changes_the_hash_and_keeps_the_validation_verdict() {
        for family in FAMILIES {
            let base = smoke_deck(family);
            let a = novel(&base, 1);
            let b = novel(&base, 2);
            assert_ne!(hash(&base), hash(&a), "{family}");
            assert_ne!(hash(&a), hash(&b), "{family}");
            assert_eq!(verdict(&base), verdict(&a), "{family}: novelty changed the grade");
        }
    }

    #[test]
    fn noisy_spelling_keeps_the_hash() {
        let mut rng = Rng::new(7);
        for family in FAMILIES {
            let base = smoke_deck(family);
            let spelled = noisy(&base, &mut rng);
            assert_ne!(base, spelled);
            assert_eq!(hash(&base), hash(&spelled), "{family}");
        }
    }

    #[test]
    fn paper_variant_rewrites_steps_and_topology_only() {
        let paper = v2d_core::config_file::PAPER_PAR;
        let d = paper_variant(paper, 10, 5, 4, 3);
        let (cfg, np) = ParFile::parse(&d).unwrap().to_config().unwrap();
        let (base, _) = ParFile::parse(paper).unwrap().to_config().unwrap();
        assert_eq!((cfg.n_steps, np), (10, (5, 4)));
        assert_eq!((cfg.grid.n1, cfg.grid.n2, cfg.dt), (base.grid.n1, base.grid.n2, base.dt));
    }

    #[test]
    fn kill_deck_checkpoints_every_step_on_two_ranks() {
        let par = ParFile::parse(&kill_deck()).unwrap();
        assert_eq!(par.checkpoint_policy().unwrap().0, 1);
        assert_eq!(par.to_config().unwrap().1, (2, 1));
    }

    #[test]
    fn the_stream_is_a_function_of_the_seed() {
        let draw = |s| (0..4).map(|_| Rng::new(s).next_u64()).collect::<Vec<_>>();
        assert_eq!(draw(1), draw(1));
        assert_ne!(Rng::new(1).next_u64(), Rng::new(2).next_u64());
    }
}
