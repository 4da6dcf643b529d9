//! The gamma-law equation of state.

/// Primitive variables at one zone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prim {
    pub rho: f64,
    pub u1: f64,
    pub u2: f64,
    pub p: f64,
}

impl Prim {
    /// Positive density and pressure (false for NaN).
    pub(crate) fn is_physical(&self) -> bool {
        self.rho > 0.0 && self.p > 0.0
    }
}

/// Conserved variables at one zone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cons {
    pub rho: f64,
    pub m1: f64,
    pub m2: f64,
    pub etot: f64,
}

/// A conserved state with no primitive form: the density, or the
/// pressure it implies, is not positive (or is NaN).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Unphysical {
    Density { rho: f64 },
    Pressure { p: f64, etot: f64, rho: f64 },
}

impl std::fmt::Display for Unphysical {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Unphysical::Density { rho } => write!(f, "non-positive density {rho}"),
            Unphysical::Pressure { p, etot, rho } => {
                write!(f, "non-positive pressure {p} (etot {etot}, rho {rho})")
            }
        }
    }
}

impl std::error::Error for Unphysical {}

/// `p = (γ − 1) ρ e_int`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GammaLaw {
    pub gamma: f64,
}

impl GammaLaw {
    /// A new EOS; γ must exceed 1.
    pub fn new(gamma: f64) -> Self {
        assert!(gamma > 1.0, "gamma-law EOS needs γ > 1, got {gamma}");
        GammaLaw { gamma }
    }

    /// Convert conserved → primitive, or say why a blown-up state has
    /// no primitive form.
    pub fn to_prim(&self, c: Cons) -> Result<Prim, Unphysical> {
        if c.rho <= 0.0 || c.rho.is_nan() {
            return Err(Unphysical::Density { rho: c.rho });
        }
        let w = self.prim_unchecked(c);
        if !w.is_physical() {
            return Err(Unphysical::Pressure { p: w.p, etot: c.etot, rho: c.rho });
        }
        Ok(w)
    }

    /// [`Self::to_prim`]'s arithmetic without its checks, for loops that
    /// convert a batch and check it after: `to_prim` fails exactly where
    /// the result is not [`Prim::is_physical`].
    pub(crate) fn prim_unchecked(&self, c: Cons) -> Prim {
        let u1 = c.m1 / c.rho;
        let u2 = c.m2 / c.rho;
        let eint = c.etot - 0.5 * c.rho * (u1 * u1 + u2 * u2);
        Prim { rho: c.rho, u1, u2, p: (self.gamma - 1.0) * eint }
    }

    /// Convert primitive → conserved.
    pub fn to_cons(&self, w: Prim) -> Cons {
        let eint = w.p / (self.gamma - 1.0);
        Cons {
            rho: w.rho,
            m1: w.rho * w.u1,
            m2: w.rho * w.u2,
            etot: eint + 0.5 * w.rho * (w.u1 * w.u1 + w.u2 * w.u2),
        }
    }

    /// Adiabatic sound speed.
    pub fn sound_speed(&self, w: &Prim) -> f64 {
        (self.gamma * w.p / w.rho).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cons_prim_roundtrip() {
        let eos = GammaLaw::new(1.4);
        let w = Prim { rho: 1.3, u1: 0.4, u2: -0.7, p: 2.1 };
        let got = eos.to_prim(eos.to_cons(w)).expect("physical");
        assert!((got.rho - w.rho).abs() < 1e-14);
        assert!((got.u1 - w.u1).abs() < 1e-14);
        assert!((got.u2 - w.u2).abs() < 1e-14);
        assert!((got.p - w.p).abs() < 1e-14);
    }

    #[test]
    fn sound_speed_formula() {
        let eos = GammaLaw::new(1.4);
        let w = Prim { rho: 1.0, u1: 0.0, u2: 0.0, p: 1.0 };
        assert!((eos.sound_speed(&w) - 1.4f64.sqrt()).abs() < 1e-14);
    }

    #[test]
    fn unphysical_states_are_typed_errors() {
        let eos = GammaLaw::new(1.4);
        let fast = eos.to_prim(Cons { rho: 1.0, m1: 10.0, m2: 0.0, etot: 1.0 });
        assert!(matches!(fast, Err(Unphysical::Pressure { p, .. }) if p < 0.0), "{fast:?}");
        let nan = eos.to_prim(Cons { rho: f64::NAN, m1: 0.0, m2: 0.0, etot: 1.0 });
        assert!(matches!(nan, Err(Unphysical::Density { rho }) if rho.is_nan()), "{nan:?}");
        let nan_p = eos.to_prim(Cons { rho: 1.0, m1: 0.0, m2: 0.0, etot: f64::NAN });
        assert!(matches!(nan_p, Err(Unphysical::Pressure { .. })), "{nan_p:?}");
    }

    #[test]
    #[should_panic(expected = "γ > 1")]
    fn bad_gamma_rejected() {
        let _ = GammaLaw::new(1.0);
    }
}
