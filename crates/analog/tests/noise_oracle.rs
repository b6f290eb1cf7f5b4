//! The per-stream scalar draw is the **bit-exact oracle** for the
//! lockstep noise fill: every lane of a [`LockstepFill`] tile — whether
//! produced by the portable rows or the explicit-SIMD kernel runtime
//! dispatch picked — must hold exactly
//! `standard() * sigma` (or `bias + standard() * sigma + 0.0`) draw for
//! draw, across random K (spanning the 4- and 8-lane vector-width
//! boundaries, including partial tails), random seeds, zero and nonzero
//! sigmas, and multi-block fills whose carried generator state
//! straddles rejection events. CI reruns it with `TONOS_FORCE_KERNEL`
//! pinning which body the dispatched path takes.

use proptest::prelude::*;
use tonos_analog::noise::{kernel_name, LockstepFill, NoiseSource};

/// Per-lane scalar reference: the draw sequence and scale expression
/// stated exactly as the fill paths state them.
struct Oracle {
    streams: Vec<NoiseSource>,
    biases: Vec<f64>,
    sigmas: Vec<f64>,
}

impl Oracle {
    fn new(seeds: &[u64], biased: bool) -> Self {
        // Deterministic sigma/bias mix: zero sigmas interleaved with
        // nonzero ones, so disabled lanes ride in the same tile as
        // drawing lanes (every lane still consumes its draw — the
        // zero-sigma short-circuit lives above this layer).
        let sigmas: Vec<f64> = seeds
            .iter()
            .enumerate()
            .map(|(j, &s)| {
                if j % 3 == 2 {
                    0.0
                } else {
                    1e-4 + (s % 1000) as f64 * 1e-3
                }
            })
            .collect();
        let biases: Vec<f64> = if biased {
            seeds
                .iter()
                .enumerate()
                .map(|(j, &s)| (s % 97) as f64 * 0.01 - 0.48 + j as f64 * 1e-3)
                .collect()
        } else {
            vec![0.0; seeds.len()]
        };
        Oracle {
            streams: seeds.iter().map(|&s| NoiseSource::from_seed(s)).collect(),
            biases,
            sigmas,
        }
    }

    /// One clock-major reference tile, drawn per stream with scalar
    /// `standard()` calls — the most primitive formulation.
    fn tile(&mut self, biased: bool, clocks: usize) -> Vec<f64> {
        let k = self.streams.len();
        let mut out = vec![0.0; clocks * k];
        for n in 0..clocks {
            for j in 0..k {
                let z = self.streams[j].standard();
                out[n * k + j] = if biased {
                    self.biases[j] + z * self.sigmas[j] + 0.0
                } else {
                    z * self.sigmas[j]
                };
            }
        }
        out
    }
}

/// Asserts two tiles are bit-for-bit identical (sign of zero included —
/// a zero-sigma lane must keep the draw's sign exactly like the scalar
/// expression does).
fn assert_tiles_identical(got: &[f64], want: &[f64], k: usize, what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: tile sizes");
    for (idx, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: clock {} lane {} of {k}: {g:e} vs {w:e}",
            idx / k,
            idx % k,
        );
    }
}

/// Drives the dispatched fill, the portable-pinned fill, and the
/// per-stream scalar oracle through the same block sequence and demands
/// three-way bit identity, then checks the carried generator state by
/// storing the lockstep slots back into fresh sources and drawing on.
fn check_fill(seeds: &[u64], blocks: &[usize], biased: bool) {
    let k = seeds.len();
    let mut oracle = Oracle::new(seeds, biased);
    let sources: Vec<NoiseSource> = seeds.iter().map(|&s| NoiseSource::from_seed(s)).collect();

    let mut dispatched = LockstepFill::new();
    dispatched.begin(k);
    let mut portable = LockstepFill::new();
    portable.begin(k);
    for src in &sources {
        dispatched.load(src);
        portable.load(src);
    }

    for (bi, &clocks) in blocks.iter().enumerate() {
        let want = oracle.tile(biased, clocks);
        let mut got_d = vec![0.0; clocks * k];
        let mut got_p = vec![0.0; clocks * k];
        if biased {
            dispatched.fill_biased(&oracle.biases, &oracle.sigmas, clocks, &mut got_d);
            portable.fill_biased_portable(&oracle.biases, &oracle.sigmas, clocks, &mut got_p);
        } else {
            dispatched.fill_scaled(&oracle.sigmas, clocks, &mut got_d);
            portable.fill_scaled_portable(&oracle.sigmas, clocks, &mut got_p);
        }
        assert_tiles_identical(&got_d, &want, k, &format!("dispatched block {bi}"));
        assert_tiles_identical(&got_p, &want, k, &format!("portable block {bi}"));
    }

    // The advanced generator state must match the oracle streams
    // word-for-word: a stored-back source continues the exact sequence.
    for (j, oracle_src) in oracle.streams.iter_mut().enumerate() {
        let mut resumed = NoiseSource::from_seed(0);
        dispatched.store(j, &mut resumed);
        for d in 0..8 {
            let a = resumed.standard();
            let b = oracle_src.standard();
            assert_eq!(a.to_bits(), b.to_bits(), "lane {j} post-fill draw {d}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Bit identity of the dispatched fill (wide kernel when the build
    /// and CPU provide one) and the portable rows against per-stream
    /// scalar draws, across K spanning vector-width boundaries (1..=40
    /// crosses the 4- and 8-lane group sizes with every partial-tail
    /// remainder), random seeds, zero/nonzero sigma mixes, and
    /// multi-block fills with carried state.
    #[test]
    fn lockstep_fill_is_bit_identical_to_scalar_streams(
        seeds in prop::collection::vec(any::<u64>(), 1..=40),
        blocks in prop::collection::vec(1usize..96, 1..=4),
        biased in any::<bool>(),
    ) {
        check_fill(&seeds, &blocks, biased);
    }
}

/// Long fills certainly straddle ziggurat rejection events (the
/// accept-without-density region covers ~98.5 % of draws, so 12k draws
/// reject ~180 times): the lane-mask replay path must keep every stream
/// aligned within the block and across block boundaries.
#[test]
fn rejection_straddling_blocks_stay_bit_identical() {
    for &k in &[1usize, 3, 4, 5, 8, 11, 16, 23] {
        let seeds: Vec<u64> = (0..k as u64)
            .map(|i| 0x5EED_0000_0000_0000 ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        // 12k+ draws per lane set, deliberately odd block lengths so
        // rejection events land mid-block and at block edges.
        check_fill(&seeds, &[513, 127, 640, 1], false);
        check_fill(&seeds, &[255, 500, 257], true);
    }
}

/// Every vector-width remainder 0..=8 as an explicit partial tail, with
/// a single-clock block (the smallest tile the kernel sees).
#[test]
fn partial_tail_lane_counts_stay_bit_identical() {
    for k in 1usize..=17 {
        let seeds: Vec<u64> = (0..k as u64).map(|i| 7 + i * 31).collect();
        check_fill(&seeds, &[1, 64, 3], true);
    }
}

/// The reported noise kernel is one of the documented names, and wide
/// names only appear on x86-64, where runtime dispatch can pick them.
#[test]
fn noise_kernel_name_is_documented() {
    let name = kernel_name();
    assert!(
        ["scalar-lockstep", "wide-avx2", "wide-avx512f"].contains(&name),
        "unknown noise kernel {name:?}"
    );
    if cfg!(not(target_arch = "x86_64")) {
        assert_eq!(name, "scalar-lockstep");
    }
}
