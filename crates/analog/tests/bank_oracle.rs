//! The scalar ΣΔ modulator is the **bit-exact oracle** for the SoA lane
//! bank: every lane of [`SigmaDelta2Bank`] must produce the same
//! bitstream, the same counters, and the same carried state as a scalar
//! [`SigmaDelta2`] with the same seed fed the same inputs — across
//! random lane counts, seeds, block boundaries, and mid-run lane
//! perturbations (reset / retire / late join).

use proptest::prelude::*;
use tonos_analog::bank::{LaneInput, SigmaDelta2Bank};
use tonos_analog::modulator::{DeltaSigmaModulator, SigmaDelta2};
use tonos_analog::nonideal::NonIdealities;
use tonos_dsp::bits::PackedBits;

/// A scalar reference lane: the oracle modulator plus its accumulated
/// bitstream.
struct Oracle {
    dsm: SigmaDelta2,
    bits: Vec<i8>,
}

impl Oracle {
    fn new(dsm: SigmaDelta2) -> Self {
        Oracle {
            dsm,
            bits: Vec::new(),
        }
    }

    /// Steps the scalar oracle per sample (the reference path — *not*
    /// `step_block`, so the bank is checked against the most primitive
    /// formulation).
    fn feed(&mut self, samples: &[f64]) {
        for &x in samples {
            self.bits.push(self.dsm.step(x));
        }
    }

    fn packed(&self) -> PackedBits {
        PackedBits::from_bitstream(&self.bits)
    }
}

/// Builds one modulator per seed; even lanes get the full `typical()`
/// impairment set, odd lanes run ideal (every noise sigma zero), so both
/// the drawing and the `+ 0.0` zero-sigma tile paths are exercised in
/// the same bank.
fn build_lanes(seeds: &[u64]) -> Vec<SigmaDelta2> {
    seeds
        .iter()
        .enumerate()
        .map(|(i, &seed)| {
            let cfg = if i % 2 == 0 {
                NonIdealities::typical().with_seed(seed)
            } else {
                NonIdealities::ideal().with_seed(seed)
            };
            SigmaDelta2::new(cfg).unwrap()
        })
        .collect()
}

/// The per-lane input for one block: constant lanes exercise the bank's
/// pre-fill fast path, sampled lanes the general path (with a varying
/// waveform so the slew-jitter draw actually fires).
fn block_samples(lane: usize, block: usize, base: f64, clocks: usize) -> Option<Vec<f64>> {
    if (lane + block).is_multiple_of(2) {
        None // constant input
    } else {
        Some(
            (0..clocks)
                .map(|n| base + 0.1 * ((n + lane) as f64 * 0.37).sin())
                .collect(),
        )
    }
}

/// Drives the bank and its scalar oracles through one mixed
/// constant/sampled block (the same input-shape mix as
/// [`block_samples`]), keeping both sides step-for-step aligned.
fn drive(
    bank: &mut SigmaDelta2Bank,
    oracles: &mut [Oracle],
    bits: &mut [PackedBits],
    block: usize,
    base: f64,
    clocks: usize,
) {
    let k = oracles.len();
    let sampled: Vec<Option<Vec<f64>>> = (0..k)
        .map(|lane| block_samples(lane, block, base, clocks))
        .collect();
    let inputs: Vec<LaneInput> = sampled
        .iter()
        .map(|s| match s {
            Some(xs) => LaneInput::Samples(xs),
            None => LaneInput::Constant(base),
        })
        .collect();
    bank.step_block(clocks, &inputs, bits);
    for (lane, oracle) in oracles.iter_mut().enumerate() {
        match &sampled[lane] {
            Some(xs) => oracle.feed(xs),
            None => oracle.feed(&vec![base; clocks]),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Lane-for-lane bit identity with the scalar path across random K,
    /// seeds, block lengths, and block boundaries (including blocks that
    /// are not multiples of the 64-bit packing word).
    #[test]
    fn bank_is_bit_identical_to_scalar_lanes(
        seeds in prop::collection::vec(any::<u64>(), 1..=9),
        lens in prop::collection::vec(1usize..200, 1..=4),
        base in -0.6_f64..0.6,
    ) {
        let k = seeds.len();
        let mods = build_lanes(&seeds);
        let mut oracles: Vec<Oracle> =
            mods.iter().cloned().map(Oracle::new).collect();
        let mut bank = SigmaDelta2Bank::from_modulators(mods);
        let mut bank_bits = vec![PackedBits::new(); k];

        for (block, &clocks) in lens.iter().enumerate() {
            let sampled: Vec<Option<Vec<f64>>> = (0..k)
                .map(|lane| block_samples(lane, block, base, clocks))
                .collect();
            let inputs: Vec<LaneInput> = sampled
                .iter()
                .map(|s| match s {
                    Some(xs) => LaneInput::Samples(xs),
                    None => LaneInput::Constant(base),
                })
                .collect();
            bank.step_block(clocks, &inputs, &mut bank_bits);
            for (lane, oracle) in oracles.iter_mut().enumerate() {
                match &sampled[lane] {
                    Some(xs) => oracle.feed(xs),
                    None => oracle.feed(&vec![base; clocks]),
                }
            }
        }

        for (lane, oracle) in oracles.iter().enumerate() {
            prop_assert_eq!(&bank_bits[lane], &oracle.packed(), "lane {} bits", lane);
            prop_assert_eq!(bank.steps(lane), oracle.dsm.steps(), "lane {} steps", lane);
            prop_assert_eq!(
                bank.saturation_events(lane),
                oracle.dsm.saturation_events(),
                "lane {} saturations",
                lane
            );
        }

        // Retiring a lane must hand back the scalar modulator with its
        // exact state (loop filter, histories, noise positions): the
        // retired modulator and the oracle must agree on a further run.
        let tail: Vec<f64> = (0..96).map(|n| base + 0.05 * (n as f64 * 0.21).cos()).collect();
        for lane in (0..k).rev() {
            let mut retired = bank.retire_lane(lane);
            let mut oracle = oracles.remove(lane);
            for &x in &tail {
                prop_assert_eq!(retired.step(x), oracle.dsm.step(x), "retired lane {}", lane);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Absorbing a session into a partially-full tail tile and then
    /// retiring one from the middle of the bank leaves every
    /// neighbour's bitstream — and the noise-stream position it depends
    /// on — bit-identical to the scalar oracle. Lane counts span the
    /// 8-lane tile boundaries (1..=20 crosses one, two, and three
    /// tiles), so the join lands in a partially-full tile whenever
    /// `k % 8 != 0` and the retire compacts across tile edges.
    #[test]
    fn join_into_partial_tile_then_middle_retire_is_bit_identical(
        k in 1usize..=20,
        seed0 in any::<u64>(),
        pre in 1usize..160,
        mid in 1usize..160,
        post in 1usize..160,
        base in -0.5_f64..0.5,
    ) {
        let seeds: Vec<u64> = (0..k as u64)
            .map(|i| seed0 ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let mods = build_lanes(&seeds);
        let mut oracles: Vec<Oracle> = mods.iter().cloned().map(Oracle::new).collect();
        let mut bank = SigmaDelta2Bank::from_modulators(mods);
        let mut bits = vec![PackedBits::new(); k];

        // Phase 1: run the initial lane set up to an arbitrary clock
        // (deliberately not 64-aligned) so the join happens mid-word.
        drive(&mut bank, &mut oracles, &mut bits, 0, base, pre);

        // Phase 2: a session joins into the (usually partially-full)
        // tail tile, mid-run.
        let joiner =
            SigmaDelta2::new(NonIdealities::typical().with_seed(seed0 ^ 0xDEAD_BEEF)).unwrap();
        oracles.push(Oracle::new(joiner.clone()));
        prop_assert_eq!(bank.push_lane(joiner), k);
        bits.push(PackedBits::new());
        drive(&mut bank, &mut oracles, &mut bits, 1, base, mid);

        // Phase 3: retire a lane from the middle. The handed-back
        // scalar modulator must carry its exact state — loop filter,
        // comparator history, and noise-stream position — so it keeps
        // agreeing with its oracle bit for bit.
        let victim = k / 2;
        let mut retired = bank.retire_lane(victim);
        let mut gone = oracles.remove(victim);
        bits.remove(victim);
        for n in 0..96 {
            let x = base + 0.04 * (n as f64 * 0.31).sin();
            prop_assert_eq!(retired.step(x), gone.dsm.step(x), "retired lane at clock {}", n);
        }

        // Phase 4: the survivors (including the joiner, now shifted
        // down) keep converting in their compacted slots.
        drive(&mut bank, &mut oracles, &mut bits, 2, base, post);

        for (lane, oracle) in oracles.iter().enumerate() {
            prop_assert_eq!(&bits[lane], &oracle.packed(), "survivor slot {} bits", lane);
            prop_assert_eq!(bank.steps(lane), oracle.dsm.steps(), "survivor slot {} steps", lane);
            prop_assert_eq!(
                bank.saturation_events(lane),
                oracle.dsm.saturation_events(),
                "survivor slot {} saturations",
                lane
            );
        }
        // The joiner only saw the clocks since it joined; the victim
        // (k/2 < k) sat ahead of it, so it now sits one slot lower.
        prop_assert_eq!(bank.steps(k - 1), (mid + post) as u64);
    }
}

#[test]
fn resetting_one_lane_leaves_the_others_bit_identical() {
    let seeds = [11u64, 22, 33, 44];
    let mods = build_lanes(&seeds);
    let mut oracles: Vec<Oracle> = mods.iter().cloned().map(Oracle::new).collect();
    let mut bank = SigmaDelta2Bank::from_modulators(mods);
    let mut bits = vec![PackedBits::new(); 4];
    let inputs = vec![LaneInput::Constant(0.3); 4];

    bank.step_block(150, &inputs, &mut bits);
    for o in &mut oracles {
        o.feed(&[0.3; 150]);
    }

    // Mid-run reset of lane 2, mirrored on its scalar reference.
    bank.reset_lane(2);
    oracles[2].dsm.reset();

    bank.step_block(130, &inputs, &mut bits);
    for o in &mut oracles {
        o.feed(&[0.3; 130]);
    }

    for (lane, o) in oracles.iter().enumerate() {
        assert_eq!(bits[lane], o.packed(), "lane {lane}");
    }
    // The reset lane's counters restarted, like the scalar path.
    assert_eq!(bank.steps(2), 130);
    assert_eq!(bank.steps(0), 280);
}

#[test]
fn retiring_a_finished_lane_leaves_survivors_bit_identical() {
    let seeds = [5u64, 6, 7, 8, 9];
    let mods = build_lanes(&seeds);
    let mut oracles: Vec<Oracle> = mods.iter().cloned().map(Oracle::new).collect();
    let mut bank = SigmaDelta2Bank::from_modulators(mods);
    let mut bits = vec![PackedBits::new(); 5];

    bank.step_block(99, &[LaneInput::Constant(0.2); 5], &mut bits);
    for o in &mut oracles {
        o.feed(&[0.2; 99]);
    }

    // Lane 1 finishes early and is retired; it must continue exactly
    // like its scalar reference.
    let mut done = bank.retire_lane(1);
    let mut done_oracle = oracles.remove(1);
    for _ in 0..64 {
        assert_eq!(done.step(0.1), done_oracle.dsm.step(0.1));
    }
    bits.remove(1);

    // Survivors keep converting, still bit-identical.
    bank.step_block(77, &[LaneInput::Constant(0.2); 4], &mut bits);
    for o in &mut oracles {
        o.feed(&[0.2; 77]);
    }
    for (lane, o) in oracles.iter().enumerate() {
        assert_eq!(bits[lane], o.packed(), "survivor slot {lane}");
    }
}

#[test]
fn late_joining_lane_is_bit_identical_from_its_join_point() {
    let seeds = [101u64, 102, 103];
    let mods = build_lanes(&seeds);
    let mut oracles: Vec<Oracle> = mods.iter().cloned().map(Oracle::new).collect();
    let mut bank = SigmaDelta2Bank::from_modulators(mods);
    let mut bits = vec![PackedBits::new(); 3];

    bank.step_block(120, &[LaneInput::Constant(-0.25); 3], &mut bits);
    for o in &mut oracles {
        o.feed(&[-0.25; 120]);
    }

    // A fourth session joins mid-run.
    let joiner = SigmaDelta2::new(NonIdealities::typical().with_seed(0xBEEF)).unwrap();
    oracles.push(Oracle::new(joiner.clone()));
    let lane = bank.push_lane(joiner);
    assert_eq!(lane, 3);
    bits.push(PackedBits::new());

    bank.step_block(130, &[LaneInput::Constant(-0.25); 4], &mut bits);
    for o in &mut oracles {
        o.feed(&[-0.25; 130]);
    }

    for (lane, o) in oracles.iter().enumerate() {
        assert_eq!(bits[lane], o.packed(), "lane {lane}");
    }
    assert_eq!(bank.steps(3), 130, "joiner only saw its own clocks");
}

#[test]
fn constant_block_path_is_bit_identical_to_scalar() {
    // `step_block_constant` (the allocation-free settled-frame path)
    // must match the scalar oracle exactly, like the general path.
    let seeds = [71u64, 72, 73, 74, 75, 76];
    let mods = build_lanes(&seeds);
    let mut oracles: Vec<Oracle> = mods.iter().cloned().map(Oracle::new).collect();
    let mut bank = SigmaDelta2Bank::from_modulators(mods);
    let mut bits = vec![PackedBits::new(); 6];
    let levels = [0.1, -0.3, 0.45, 0.0, -0.52, 0.27];

    for block in 0..3 {
        let clocks = [128usize, 77, 200][block];
        bank.step_block_constant(clocks, &levels, &mut bits);
        for (o, &x) in oracles.iter_mut().zip(&levels) {
            o.feed(&vec![x; clocks]);
        }
    }
    for (lane, o) in oracles.iter().enumerate() {
        assert_eq!(bits[lane], o.packed(), "lane {lane}");
        assert_eq!(bank.steps(lane), o.dsm.steps());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The settled-frame path with every lane noisy — the production
    /// case, where every noise kind and the input streams advance in
    /// lockstep and are carried across 64-clock chunks — matches the
    /// scalar oracle for K across tile boundaries and blocks shorter
    /// and longer than a chunk.
    #[test]
    fn all_noisy_constant_blocks_are_bit_identical(
        seeds in prop::collection::vec(any::<u64>(), 1..=20),
        lens in prop::collection::vec(1usize..300, 1..=4),
        base in -0.9_f64..0.9,
    ) {
        let k = seeds.len();
        let mods: Vec<SigmaDelta2> = seeds
            .iter()
            .map(|&seed| SigmaDelta2::new(NonIdealities::typical().with_seed(seed)).unwrap())
            .collect();
        let mut oracles: Vec<Oracle> = mods.iter().cloned().map(Oracle::new).collect();
        let mut bank = SigmaDelta2Bank::from_modulators(mods);
        let mut bits = vec![PackedBits::new(); k];
        for (block, &clocks) in lens.iter().enumerate() {
            let levels: Vec<f64> = (0..k)
                .map(|lane| base + 0.05 * ((lane + 3 * block) as f64).sin())
                .collect();
            bank.step_block_constant(clocks, &levels, &mut bits);
            for (o, &x) in oracles.iter_mut().zip(&levels) {
                o.feed(&vec![x; clocks]);
            }
        }
        for (lane, oracle) in oracles.iter_mut().enumerate() {
            prop_assert_eq!(&bits[lane], &oracle.packed(), "lane {} bits", lane);
            prop_assert_eq!(bank.steps(lane), oracle.dsm.steps());
            prop_assert_eq!(bank.saturation_events(lane), oracle.dsm.saturation_events());
        }
        // Carried stream positions: retired lanes keep agreeing.
        for lane in (0..k).rev() {
            let mut retired = bank.retire_lane(lane);
            let mut oracle = oracles.remove(lane);
            for n in 0..80 {
                let x = base + 0.03 * (n as f64 * 0.7).cos();
                prop_assert_eq!(retired.step(x), oracle.dsm.step(x), "retired lane {}", lane);
            }
        }
    }
}

#[test]
fn saturating_input_counts_overloads_like_scalar() {
    // Inputs outside the stable range overload the loop; the bank must
    // count saturation events exactly like the scalar modulator.
    let m = SigmaDelta2::new(NonIdealities::typical().with_seed(404)).unwrap();
    let mut oracle = Oracle::new(m.clone());
    let mut bank = SigmaDelta2Bank::from_modulators([m]);
    let mut bits = vec![PackedBits::new()];
    bank.step_block(400, &[LaneInput::Constant(1.6)], &mut bits);
    oracle.feed(&[1.6; 400]);
    assert_eq!(bits[0], oracle.packed());
    assert!(oracle.dsm.saturation_events() > 0, "stimulus must overload");
    assert_eq!(bank.saturation_events(0), oracle.dsm.saturation_events());
}
