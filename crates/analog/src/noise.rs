//! Seeded noise sources for the switched-capacitor circuit models.
//!
//! Every stochastic impairment in the readout chain draws from a
//! [`NoiseSource`] seeded explicitly, so each experiment in the repository
//! is bit-reproducible. The physical anchors are the classic
//! switched-capacitor relations:
//!
//! * sampled thermal noise on a capacitor: `v_rms = sqrt(kT / C)`;
//! * aperture jitter on a sampled waveform: `v_err ≈ slope · t_jitter`.

/// Boltzmann constant in J/K.
pub const BOLTZMANN: f64 = 1.380_649e-23;

/// Default junction temperature for noise budgets, in kelvin (body-contact
/// operation sits near 310 K, but electrical characterization is at room
/// temperature).
pub const ROOM_TEMPERATURE_K: f64 = 300.0;

/// RMS voltage of kT/C sampling noise for a capacitance in farads at a
/// temperature in kelvin.
///
/// # Panics
///
/// Panics if `capacitance` or `temperature` is not positive (a static
/// sizing error in circuit construction).
pub fn ktc_noise_rms(capacitance: f64, temperature: f64) -> f64 {
    assert!(
        capacitance > 0.0 && temperature > 0.0,
        "kT/C noise needs positive C and T"
    );
    (BOLTZMANN * temperature / capacitance).sqrt()
}

/// Number of ziggurat layers (a power of two so the layer index is a
/// mask of the entropy word).
const ZIGGURAT_LAYERS: usize = 128;
/// Right edge of the base layer for the 128-layer standard-normal
/// ziggurat (Marsaglia & Tsang).
const ZIGGURAT_R: f64 = 3.442_619_855_899;
/// Area of each layer (including the base layer's tail).
const ZIGGURAT_V: f64 = 9.912_563_035_262_17e-3;

/// `x` and `y = exp(-x²/2)` at the layer boundaries. `x[0]` is the base
/// layer's *virtual* width `V / f(R)` (> R, so the base rectangle has the
/// same area as every other layer once the tail is folded in);
/// `x[LAYERS] = 0`, `y[LAYERS] = 1`.
fn ziggurat_tables() -> &'static ([f64; ZIGGURAT_LAYERS + 1], [f64; ZIGGURAT_LAYERS + 1]) {
    use std::sync::OnceLock;
    static TABLES: OnceLock<([f64; ZIGGURAT_LAYERS + 1], [f64; ZIGGURAT_LAYERS + 1])> =
        OnceLock::new();
    TABLES.get_or_init(|| {
        let f = |x: f64| (-0.5 * x * x).exp();
        let mut x = [0.0; ZIGGURAT_LAYERS + 1];
        let mut y = [0.0; ZIGGURAT_LAYERS + 1];
        x[0] = ZIGGURAT_V / f(ZIGGURAT_R);
        x[1] = ZIGGURAT_R;
        for i in 2..ZIGGURAT_LAYERS {
            // Each layer has area V: f(x[i]) = f(x[i-1]) + V / x[i-1].
            x[i] = (-2.0 * (f(x[i - 1]) + ZIGGURAT_V / x[i - 1]).ln()).sqrt();
        }
        x[ZIGGURAT_LAYERS] = 0.0;
        for i in 0..=ZIGGURAT_LAYERS {
            y[i] = f(x[i]);
        }
        (x, y)
    })
}

/// xoshiro256++ (Blackman & Vigna, public domain): the entropy engine
/// behind every noise draw in the signal chain.
///
/// Chosen over a cryptographic generator because the modulator draws
/// several 64-bit words *per clock* — at 128 kHz the generator is a
/// first-order term in the conversion budget, and
/// xoshiro256++ costs a handful of ALU ops per word (~4× cheaper than
/// the ChaCha-class generator it replaced; see `BENCH_hotpath.json`).
/// Statistical quality (passes BigCrush) is far beyond what a noise
/// model needs, and streams stay fully determined by their seed.
#[derive(Debug, Clone, Copy)]
struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Seeds the four state words through SplitMix64 — the reference
    /// seeding procedure, which also guarantees a non-zero state.
    fn from_seed(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Xoshiro256 {
            s: [next(), next(), next(), next()],
        }
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

/// The `x` boundary table alone — the only table the speculative
/// accept needs.
pub(crate) fn ziggurat_xs() -> &'static [f64; ZIGGURAT_LAYERS + 1] {
    &ziggurat_tables().0
}

/// Applies the ziggurat sign bit (bit 7 of the entropy word) to a
/// non-negative sample by OR-ing it into the IEEE sign position —
/// bit-identical to multiplying by ±1.0, with no branch.
#[inline]
fn apply_sign(bits: u64, x: f64) -> f64 {
    f64::from_bits(x.to_bits() | ((bits & ZIGGURAT_LAYERS as u64) << 56))
}

/// Speculative ziggurat accept for one entropy word — the layer
/// lookup, single multiply, and branchless sign of
/// [`NoiseSource::standard`]'s hot path. Returns the signed candidate
/// and whether it is accepted without a density evaluation.
#[inline(always)]
fn speculate(bits: u64, xs: &[f64; ZIGGURAT_LAYERS + 1]) -> (f64, bool) {
    let i = (bits & (ZIGGURAT_LAYERS as u64 - 1)) as usize;
    let u = (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    let x = u * xs[i];
    (apply_sign(bits, x), x < xs[i + 1])
}

/// A deterministic Gaussian noise stream.
#[derive(Debug, Clone)]
pub struct NoiseSource {
    rng: Xoshiro256,
}

impl NoiseSource {
    /// Creates a source from an explicit seed.
    pub fn from_seed(seed: u64) -> Self {
        NoiseSource {
            rng: Xoshiro256::from_seed(seed),
        }
    }

    /// Uniform in `(0, 1]` — safe as a logarithm argument.
    #[inline]
    fn unit_open(&mut self) -> f64 {
        ((self.rng.next_u64() >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Draws a standard-normal sample.
    ///
    /// Uses a 128-layer ziggurat (an *exact* sampler, not an
    /// approximation): ~98 % of draws cost one 64-bit word and one
    /// multiply; the rest fall through to the layer-edge rejection test
    /// or the Marsaglia tail. The noise-path share of a ΣΔ modulator
    /// clock dropped ~3× when this replaced the Box–Muller transform —
    /// see `BENCH_hotpath.json`.
    pub fn standard(&mut self) -> f64 {
        let bits = self.rng.next_u64();
        self.finish_standard(ziggurat_tables(), bits)
    }

    /// Completes a ziggurat draw whose first entropy word has already
    /// been consumed from this stream — the continuation shared by the
    /// per-draw path and the block stepper's rejection handling.
    /// Word-for-word identical to the historical single-loop sampler.
    #[inline]
    fn finish_standard(
        &mut self,
        (xs, ys): &([f64; ZIGGURAT_LAYERS + 1], [f64; ZIGGURAT_LAYERS + 1]),
        mut bits: u64,
    ) -> f64 {
        loop {
            let i = (bits & (ZIGGURAT_LAYERS as u64 - 1)) as usize;
            let u = (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            let x = u * xs[i];
            if x < xs[i + 1] {
                // Strictly inside the next layer's rectangle: accept
                // without evaluating the density (the hot path).
                return apply_sign(bits, x);
            }
            if i == 0 {
                // Base layer overflow: sample the tail beyond R.
                return apply_sign(bits, self.tail_beyond_r());
            }
            // Layer edge: accept with probability proportional to the
            // density between the layer's bounding heights.
            let y = ys[i] + (ys[i + 1] - ys[i]) * self.unit_open();
            if y < (-0.5 * x * x).exp() {
                return apply_sign(bits, x);
            }
            bits = self.rng.next_u64();
        }
    }

    /// Marsaglia tail sample beyond the base-layer edge `R` (the rare
    /// fallback of every draw).
    #[cold]
    fn tail_beyond_r(&mut self) -> f64 {
        loop {
            let e1 = -self.unit_open().ln() / ZIGGURAT_R;
            let e2 = -self.unit_open().ln();
            if e2 + e2 > e1 * e1 {
                return ZIGGURAT_R + e1;
            }
        }
    }

    /// Draws a zero-mean Gaussian sample with the given standard
    /// deviation. A sigma of exactly zero short-circuits to 0.0 without
    /// consuming randomness, so disabling a noise source does not shift
    /// the sequence of the others.
    #[inline]
    pub fn gaussian(&mut self, sigma: f64) -> f64 {
        if sigma == 0.0 {
            return 0.0;
        }
        self.standard() * sigma
    }

    /// [`NoiseSource::gaussian`] for fused block kernels that hold the
    /// stream in a local: the ziggurat boundary table comes pre-resolved
    /// ([`ziggurat_xs`], once per block), the accept-without-density hot
    /// path is inlined, and the rare layer-edge / tail continuation
    /// stays out of line ([`finish_cold`]) and passes the generator by
    /// value, so the caller's copy never escapes its registers. The
    /// draws are word-for-word those of [`NoiseSource::gaussian`].
    #[inline(always)]
    pub(crate) fn gaussian_inline(&mut self, xs: &[f64; ZIGGURAT_LAYERS + 1], sigma: f64) -> f64 {
        if sigma == 0.0 {
            return 0.0;
        }
        let bits = self.rng.next_u64();
        let (z, accepted) = speculate(bits, xs);
        let z = if accepted {
            z
        } else {
            let (rng, z) = finish_cold(self.rng, bits);
            self.rng = rng;
            z
        };
        z * sigma
    }

    /// Derives an independent child source (a modulator splits one per
    /// noise stream from its seeded root).
    pub fn split(&mut self) -> NoiseSource {
        NoiseSource::from_seed(self.rng.next_u64())
    }
}

/// The rejection continuation of [`NoiseSource::gaussian_inline`]: a
/// draw whose first word missed the speculative accept, finished through
/// the exact per-draw path on a by-value generator.
#[cold]
#[inline(never)]
fn finish_cold(rng: Xoshiro256, bits: u64) -> (Xoshiro256, f64) {
    let mut src = NoiseSource { rng };
    let z = src.finish_standard(ziggurat_tables(), bits);
    (src.rng, z)
}

/// The noise kernel every build runs: the scalar per-stream ziggurat.
/// Only `e2ebench` reads it, for its run-context line; the next change
/// to the benchmark deletes both.
pub fn kernel_name() -> &'static str {
    "scalar"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ktc_matches_hand_calculation() {
        // 1 pF at 300 K: sqrt(1.38e-23 * 300 / 1e-12) ≈ 64.4 µV.
        let v = ktc_noise_rms(1e-12, 300.0);
        assert!((v - 64.4e-6).abs() < 1e-6, "{v}");
        // Bigger cap, less noise.
        assert!(ktc_noise_rms(4e-12, 300.0) < v);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn ktc_rejects_zero_cap() {
        let _ = ktc_noise_rms(0.0, 300.0);
    }

    #[test]
    fn seeded_streams_are_reproducible() {
        let mut a = NoiseSource::from_seed(11);
        let mut b = NoiseSource::from_seed(11);
        for _ in 0..100 {
            assert_eq!(a.standard(), b.standard());
        }
        let mut c = NoiseSource::from_seed(12);
        assert_ne!(a.standard(), c.standard());
    }

    #[test]
    fn gaussian_statistics_are_plausible() {
        let mut src = NoiseSource::from_seed(5);
        let n = 100_000;
        let sigma = 2.5;
        let samples: Vec<f64> = (0..n).map(|_| src.gaussian(sigma)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var.sqrt() - sigma).abs() < 0.03, "std {}", var.sqrt());
    }

    #[test]
    fn zero_sigma_consumes_no_randomness() {
        let mut a = NoiseSource::from_seed(77);
        let mut b = NoiseSource::from_seed(77);
        let _ = a.gaussian(0.0);
        let _ = a.gaussian(0.0);
        // b never drew; subsequent samples must still match.
        assert_eq!(a.standard(), b.standard());
    }

    #[test]
    fn split_streams_are_independent_but_deterministic() {
        let mut parent_a = NoiseSource::from_seed(3);
        let mut parent_b = NoiseSource::from_seed(3);
        let mut child_a = parent_a.split();
        let mut child_b = parent_b.split();
        for _ in 0..10 {
            assert_eq!(child_a.standard(), child_b.standard());
        }
        // Child differs from parent's continued stream.
        assert_ne!(child_a.standard(), parent_a.standard());
    }
}
