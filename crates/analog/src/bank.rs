//! Tiled structure-of-arrays **lane bank** for the 2nd-order ΣΔ
//! modulator: K independent converter sessions stepped per clock in
//! lockstep.
//!
//! Array-scale CMOS readout gets its throughput from running many
//! identical channels in parallel; the software analogue is data-level
//! parallelism. [`SigmaDelta2Bank`] holds the loop-filter state of K
//! independent [`SigmaDelta2`] instances as fixed-width **lane tiles**
//! — cache-line-aligned rows of [`TILE`] f64 lanes (see
//! [`crate::tile`]) — and converts blocks in 64-clock **chunks**. Each
//! chunk first draws its own input and noise rows (K lanes × ≤ 64
//! clocks, a few KiB that stay in L1 whatever the block length), then
//! runs the loop filter tile-outer/clock-inner, so each tile's
//! integrator states, coefficient rows, and ±1 histories stay in
//! registers for 64 consecutive clocks instead of streaming through
//! memory once per clock.
//!
//! The 1-bit side is **bit-sliced**: comparator decisions and
//! feedback-DAC selects live as packed lane masks (a `u8` per tile in
//! flight, one `u64` word per 64 lanes at rest in the bank), and each
//! clock of a chunk deposits its per-lane comparator bits into one
//! `u64` *lane word* — quantize/feedback is word-parallel mask
//! arithmetic, the same trick [`PackedBits`]' `push_word` plays for
//! the CIC. At the chunk boundary a 64×64 bit transpose
//! ([`tonos_dsp::bits::transpose64`]) pivots the per-clock lane words
//! into per-lane time words, which flush straight into each lane's
//! [`PackedBits`].
//!
//! Full tiles step through one chunk kernel, eight `step_lane` clocks
//! per tile clock, compiled for AVX-512F or AVX2 when runtime CPU
//! detection finds one (x86-64), where it vectorizes into one tile per
//! register, and for the baseline ISA otherwise or under
//! `TONOS_FORCE_KERNEL=scalar-tile` (see [`kernel_name`]). The final
//! partial tile (K mod [`TILE`] lanes) steps lane by lane through the
//! same clock, so padding lanes never execute.
//!
//! ## Scalar path as the oracle
//!
//! The bank is an *execution strategy*, never a different model: every
//! lane's bitstream, loop-filter state, and noise-stream positions are
//! **bit-identical** to a scalar [`SigmaDelta2`] with the same seed fed
//! the same inputs (property-tested across random K, seeds, and block
//! boundaries, under every dispatched kernel). This holds because every
//! noise consumer owns an independent split stream, so drawing a
//! chunk's rows ahead of its clocks (batched ziggurat draws, lockstep
//! across lanes via [`LockstepFill`] or per lane via
//! [`NoiseSource::fill_standard`]) consumes each stream in exactly the
//! per-sample order of the scalar path, and the per-clock arithmetic
//! reproduces the scalar expressions association-for-association.
//!
//! Lanes are absorbed from and released back to scalar modulators
//! ([`SigmaDelta2Bank::push_lane`] / [`SigmaDelta2Bank::retire_lane`]),
//! so sessions can join late, finish early, or be reset mid-run without
//! disturbing the neighbours' streams.

use tonos_dsp::bits::{transpose64, PackedBits};

use crate::dac::FeedbackDac;
use crate::integrator::ScIntegrator;
use crate::modulator::{Coefficients, SigmaDelta2};
use crate::noise::{LockstepFill, NoiseSource};
use crate::nonideal::NonIdealities;
use crate::quantizer::Comparator;
use crate::tile::{
    step_lane, step_tile, BitRow, Consts, F64Tile, Rows, TileConsts, TileRow, TileRows, TILE,
};

/// Clocks per chunk: one packed word per lane, and the span whose input
/// and noise rows are drawn at a time.
const CHUNK: usize = 64;

/// Index of the input-noise stream in [`LaneCold::streams`]; indices
/// `0..4` are the per-clock z streams in [`BankScratch::z_rows`] order
/// (first integrator, second integrator, comparator, DAC reference).
const INPUT: usize = 4;

/// One lane's input for a block conversion.
///
/// The settled readout mux holds a constant modulator input for a whole
/// output frame — the common case, and the one the bank's lockstep input
/// draw exploits (jitter vanishes after the first clock because the
/// per-sample slew is zero). A still-settling mux produces a per-clock
/// transient, supplied as explicit samples.
#[derive(Debug, Clone, Copy)]
pub enum LaneInput<'a> {
    /// The input is held at this value for every clock of the block.
    Constant(f64),
    /// One explicit input sample per clock (length must equal the block
    /// size).
    Samples(&'a [f64]),
}

/// A block's inputs: per-lane [`LaneInput`]s, or every lane held
/// constant.
#[derive(Clone, Copy)]
enum BlockInputs<'a> {
    Lanes(&'a [LaneInput<'a>]),
    Constant(&'a [f64]),
}

/// Per-lane cold state: the split noise streams and configuration that
/// the per-clock loop does not touch.
#[derive(Debug, Clone)]
struct LaneCold {
    /// First integrator, second integrator, comparator, DAC reference,
    /// and input noise, in that order.
    streams: [NoiseSource; 5],
    coeffs: Coefficients,
    nonideal: NonIdealities,
}

/// How one per-clock noise stream kind is drawn for the current lane
/// layout.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
enum Draw {
    /// Every lane's sigma is zero: nothing is drawn, and the loop filter
    /// reads a shared zero row instead of the kind's rows.
    #[default]
    Silent,
    /// Every lane draws: all K streams advance side by side.
    Lockstep,
    /// Some lanes draw: lane-at-a-time rows, zeros elsewhere.
    Mixed,
}

/// Reusable block scratch for a [`SigmaDelta2Bank`]: one chunk's
/// clock-major input and noise rows, the per-chunk lane-word buffer,
/// and the lockstep ziggurat fill state.
///
/// The scratch is allocation-free once warm, and it is *detachable*:
/// [`SigmaDelta2Bank::take_scratch`] /
/// [`SigmaDelta2Bank::adopt_scratch`] move it between banks so a fleet
/// worker can reuse the grown buffers across every batch it runs,
/// instead of re-growing per session group.
#[derive(Debug, Clone, Default)]
pub struct BankScratch {
    /// Noisy modulator inputs `u[n]` per lane for the current chunk
    /// (clock-major: `n*K + lane`).
    u_rows: Vec<f64>,
    /// Pre-multiplied per-clock noise (`standard * sigma`) for the
    /// current chunk, one clock-major row set per z stream kind.
    z_rows: [Vec<f64>; 4],
    /// Contiguous per-lane draw scratch.
    row: Vec<f64>,
    /// Per-chunk lane words: for each 64-lane group, 64 words — word
    /// `r` holds every lane's comparator bit for clock `r` of the
    /// chunk. Transposed in place to per-lane time words at the chunk
    /// boundary.
    clock_rows: Vec<u64>,
    /// One k-length row of exact 0.0 standing in for a silent kind.
    zero_row: Vec<f64>,
    /// Lockstep multi-stream ziggurat state per stream kind (indexed
    /// like [`LaneCold::streams`]): loaded once per block for every
    /// kind whose lanes all draw, carried across the block's chunks,
    /// and stored back at its end (see [`LockstepFill`]).
    fills: [LockstepFill; 5],
}

/// Strided reader over a chunk's clock-major rows: row `n` starts at
/// `n * stride`. A silent kind aliases the shared zero row with stride
/// 0, so it costs one cache line.
#[derive(Clone, Copy)]
struct RowSrc<'a> {
    data: &'a [f64],
    stride: usize,
}

impl<'a> RowSrc<'a> {
    fn new(rows: &'a [f64], zero_row: &'a [f64], silent: bool, stride: usize) -> Self {
        if silent {
            RowSrc {
                data: zero_row,
                stride: 0,
            }
        } else {
            RowSrc { data: rows, stride }
        }
    }

    /// The aligned copy of lanes `lane0..lane0+TILE` at clock `n`.
    #[inline(always)]
    fn tile(&self, n: usize, lane0: usize) -> F64Tile {
        let base = n * self.stride + lane0;
        F64Tile::from_row(self.data[base..base + TILE].try_into().expect("full tile"))
    }

    /// One lane's value at clock `n`.
    #[inline(always)]
    fn at(&self, n: usize, lane: usize) -> f64 {
        self.data[n * self.stride + lane]
    }
}

/// The row sources shared by every tile of a chunk.
#[derive(Clone, Copy)]
struct ChunkSrc<'a> {
    u: RowSrc<'a>,
    z: [RowSrc<'a>; 4],
}

impl ChunkSrc<'_> {
    /// Tile `lane0..lane0+TILE`'s rows at clock `n`.
    #[inline(always)]
    fn tile(&self, n: usize, lane0: usize) -> TileRows {
        let [z1, z2, zc, zr] = self.z;
        Rows {
            u: self.u.tile(n, lane0),
            z1: z1.tile(n, lane0),
            z2: z2.tile(n, lane0),
            zc: zc.tile(n, lane0),
            zr: zr.tile(n, lane0),
        }
    }

    /// One lane's values at clock `n`.
    #[inline(always)]
    fn lane(&self, n: usize, lane: usize) -> Rows<f64> {
        let [z1, z2, zc, zr] = self.z;
        Rows {
            u: self.u.at(n, lane),
            z1: z1.at(n, lane),
            z2: z2.at(n, lane),
            zc: zc.at(n, lane),
            zr: zr.at(n, lane),
        }
    }
}

/// One full tile through one ≤64-clock chunk: state stays in the caller
/// provided locals (registers), each clock's comparator byte lands in
/// the chunk's per-clock lane word at `shift`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tile_chunk_body(
    x1: &mut F64Tile,
    x2: &mut F64Tile,
    cl: &mut u8,
    dl: &mut u8,
    sat: &mut [u64; TILE],
    consts: &TileConsts,
    src: &ChunkSrc,
    lane0: usize,
    shift: u32,
    out: &mut [u64],
) {
    for (n, out_word) in out.iter_mut().enumerate() {
        let (vpos8, sat8) = step_tile(x1, x2, consts, &src.tile(n, lane0), *cl, *dl);
        *cl = vpos8;
        *dl = vpos8;
        *out_word |= u64::from(vpos8) << shift;
        for (i, acc) in sat.iter_mut().enumerate() {
            *acc += u64::from(sat8 >> i & 1);
        }
    }
}

/// AVX2 instantiation of the chunk kernel: the same Rust body
/// recompiled with 256-bit vector codegen, the tile's eight lanes in
/// two registers and every select a lane-mask blend. The body is plain
/// IEEE adds/muls/compares/selects and Rust never contracts them into
/// FMAs, so wider registers change scheduling only, never values.
///
/// # Safety
///
/// Caller must have verified AVX2 support (the [`Isa`] dispatch does).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn tile_chunk_avx2(
    x1: &mut F64Tile,
    x2: &mut F64Tile,
    cl: &mut u8,
    dl: &mut u8,
    sat: &mut [u64; TILE],
    consts: &TileConsts,
    src: &ChunkSrc,
    lane0: usize,
    shift: u32,
    out: &mut [u64],
) {
    tile_chunk_body(x1, x2, cl, dl, sat, consts, src, lane0, shift, out);
}

/// AVX-512F instantiation: one 8-lane tile per zmm register.
///
/// # Safety
///
/// Caller must have verified AVX-512F support (the [`Isa`] dispatch
/// does).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn tile_chunk_avx512(
    x1: &mut F64Tile,
    x2: &mut F64Tile,
    cl: &mut u8,
    dl: &mut u8,
    sat: &mut [u64; TILE],
    consts: &TileConsts,
    src: &ChunkSrc,
    lane0: usize,
    shift: u32,
    out: &mut [u64],
) {
    tile_chunk_body(x1, x2, cl, dl, sat, consts, src, lane0, shift, out);
}

/// Which chunk kernel this process runs, resolved once per block from
/// runtime CPU detection on x86-64 (AVX-512F over AVX2, pinned by
/// `TONOS_FORCE_KERNEL`) and fixed to the portable body elsewhere.
#[derive(Clone, Copy, Debug)]
enum Isa {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Isa {
    fn detect() -> Isa {
        #[cfg(target_arch = "x86_64")]
        {
            use crate::kernel::ForcedKernel;
            let avx2 = std::arch::is_x86_feature_detected!("avx2");
            let avx512 = std::arch::is_x86_feature_detected!("avx512f");
            // `TONOS_FORCE_KERNEL` pins the choice; forcing an ISA the
            // CPU lacks falls back to the normal probe (never unsound).
            match crate::kernel::forced_kernel() {
                Some(ForcedKernel::Scalar) => return Isa::Portable,
                Some(ForcedKernel::Avx2) if avx2 => return Isa::Avx2,
                Some(ForcedKernel::Avx512) if avx512 => return Isa::Avx512,
                _ => {}
            }
            if avx512 {
                return Isa::Avx512;
            }
            if avx2 {
                return Isa::Avx2;
            }
        }
        Isa::Portable
    }

    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn run_tile_chunk(
        self,
        x1: &mut F64Tile,
        x2: &mut F64Tile,
        cl: &mut u8,
        dl: &mut u8,
        sat: &mut [u64; TILE],
        consts: &TileConsts,
        src: &ChunkSrc,
        lane0: usize,
        shift: u32,
        out: &mut [u64],
    ) {
        match self {
            Isa::Portable => {
                tile_chunk_body(x1, x2, cl, dl, sat, consts, src, lane0, shift, out);
            }
            // SAFETY: the variant only exists when `detect` confirmed
            // the feature on this CPU.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => unsafe {
                tile_chunk_avx2(x1, x2, cl, dl, sat, consts, src, lane0, shift, out);
            },
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => unsafe {
                tile_chunk_avx512(x1, x2, cl, dl, sat, consts, src, lane0, shift, out);
            },
        }
    }
}

/// The tile kernel this host actually steps full tiles with —
/// benchmarks record it next to their numbers: `"wide-avx512f"` /
/// `"wide-avx2"` by runtime CPU detection on x86-64, `"scalar-tile"`
/// for the portable body (other targets, CPUs without AVX2, or
/// `TONOS_FORCE_KERNEL=scalar-tile`).
pub fn kernel_name() -> &'static str {
    match Isa::detect() {
        Isa::Portable => "scalar-tile",
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => "wide-avx2",
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => "wide-avx512f",
    }
}

/// K second-order ΣΔ modulators in tiled structure-of-arrays form,
/// stepped in lockstep one clock at a time.
#[derive(Debug, Clone, Default)]
pub struct SigmaDelta2Bank {
    // --- Hot per-lane state the per-clock kernel touches, stored as
    // --- aligned 8-lane tiles. ---
    /// First integrator state.
    x1: TileRow,
    /// Second integrator state.
    x2: TileRow,
    /// Integrator pole `p = A/(A+1)` (shared by both stages).
    leak: TileRow,
    /// Integrator output clamp.
    sat: TileRow,
    comp_offset: TileRow,
    comp_hyst: TileRow,
    dac_mismatch: TileRow,
    dac_isi: TileRow,
    b1: TileRow,
    a1: TileRow,
    c1: TileRow,
    a2: TileRow,
    /// Previous comparator decisions, bit-sliced: bit set ⇔ last was
    /// +1.
    comp_last: BitRow,
    /// Previous DAC bits, bit-sliced likewise.
    dac_last: BitRow,
    // --- Per-lane state the draw passes touch (flat rows). ---
    /// Per-clock noise sigmas, indexed like [`BankScratch::z_rows`].
    z_sigma: [Vec<f64>; 4],
    prev_input: Vec<f64>,
    input_sigma: Vec<f64>,
    jitter_gain: Vec<f64>,
    steps: Vec<u64>,
    saturation_events: Vec<u64>,
    // --- Cold per-lane state. ---
    cold: Vec<LaneCold>,
    /// How each z stream kind is drawn for the current lane layout.
    draws: [Draw; 4],
    /// Detachable block scratch (see [`BankScratch`]).
    scratch: BankScratch,
}

impl SigmaDelta2Bank {
    /// An empty bank; add lanes with [`SigmaDelta2Bank::push_lane`].
    pub fn new() -> Self {
        SigmaDelta2Bank::default()
    }

    /// Builds a bank by absorbing a set of scalar modulators, one lane
    /// each (lane index = position in `mods`).
    pub fn from_modulators(mods: impl IntoIterator<Item = SigmaDelta2>) -> Self {
        let mut bank = SigmaDelta2Bank::new();
        for m in mods {
            bank.push_lane(m);
        }
        bank
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.prev_input.len()
    }

    /// True when the bank holds no lanes.
    pub fn is_empty(&self) -> bool {
        self.prev_input.is_empty()
    }

    /// Hands this bank a pre-grown scratch (typically taken from a
    /// retired bank on the same worker), replacing its own. The
    /// scratch carries no lane state: every chunk rewrites the rows it
    /// reads.
    pub fn adopt_scratch(&mut self, scratch: BankScratch) {
        self.scratch = scratch;
    }

    /// Detaches the bank's block scratch for reuse elsewhere, leaving a
    /// fresh (empty) one behind.
    pub fn take_scratch(&mut self) -> BankScratch {
        std::mem::take(&mut self.scratch)
    }

    /// Absorbs a scalar modulator as a new lane (appended last) and
    /// returns its lane index. The modulator's exact state — loop
    /// filter, histories, counters, and the positions of all five split
    /// noise streams — carries over, so a lane behaves as if the scalar
    /// modulator had simply kept stepping.
    pub fn push_lane(&mut self, m: SigmaDelta2) -> usize {
        let lane = self.lanes();
        self.x1.push(m.int1.state);
        self.x2.push(m.int2.state);
        self.leak.push(m.int1.leak);
        self.sat.push(m.int1.saturation);
        self.comp_offset.push(m.comparator.offset);
        self.comp_hyst.push(m.comparator.hysteresis);
        self.comp_last.push(m.comparator.last > 0);
        self.dac_mismatch.push(m.dac.level_mismatch);
        self.dac_isi.push(m.dac.isi);
        self.dac_last.push(m.dac.last_bit > 0);
        self.b1.push(m.coeffs.b1);
        self.a1.push(m.coeffs.a1);
        self.c1.push(m.coeffs.c1);
        self.a2.push(m.coeffs.a2);
        let sigmas = [
            m.int1.noise_sigma,
            m.int2.noise_sigma,
            m.comparator.noise_sigma,
            m.dac.reference_noise_sigma,
        ];
        for (row, sigma) in self.z_sigma.iter_mut().zip(sigmas) {
            row.push(sigma);
        }
        self.prev_input.push(m.prev_input);
        self.input_sigma.push(m.nonideal.input_noise_sigma);
        self.jitter_gain.push(m.nonideal.jitter_slew_gain);
        self.steps.push(m.steps);
        self.saturation_events.push(m.saturation_events);
        self.cold.push(LaneCold {
            streams: [
                m.int1.noise,
                m.int2.noise,
                m.comparator.noise,
                m.dac.noise,
                m.input_noise,
            ],
            coeffs: m.coeffs,
            nonideal: m.nonideal,
        });
        self.refresh_draws();
        lane
    }

    /// Removes a lane and reconstitutes it as a scalar modulator with
    /// the lane's exact state, including noise-stream positions. Lanes
    /// after `lane` shift down by one — across tile and word boundaries
    /// — and their streams are untouched, so surviving lanes stay
    /// bit-identical to their scalar references.
    ///
    /// # Panics
    ///
    /// Panics when `lane` is out of range.
    pub fn retire_lane(&mut self, lane: usize) -> SigmaDelta2 {
        assert!(lane < self.lanes(), "lane {lane} out of range");
        let cold = self.cold.remove(lane);
        let [n1, n2, nc, nd, input_noise] = cold.streams;
        let [s1, s2, sc, sd] = self.z_sigma.each_mut().map(|row| row.remove(lane));
        // The comparator decision doubles as the modulator's last output
        // bit (scalar `step` sets both from the same `v`).
        let comp_last = if self.comp_last.remove(lane) { 1 } else { -1 };
        let m = SigmaDelta2 {
            coeffs: cold.coeffs,
            int1: ScIntegrator {
                state: self.x1.remove(lane),
                leak: self.leak.get(lane),
                saturation: self.sat.get(lane),
                noise_sigma: s1,
                noise: n1,
                saturated: false,
            },
            int2: ScIntegrator {
                state: self.x2.remove(lane),
                leak: self.leak.remove(lane),
                saturation: self.sat.remove(lane),
                noise_sigma: s2,
                noise: n2,
                saturated: false,
            },
            comparator: Comparator {
                offset: self.comp_offset.remove(lane),
                hysteresis: self.comp_hyst.remove(lane),
                noise_sigma: sc,
                noise: nc,
                last: comp_last,
            },
            dac: FeedbackDac {
                level_mismatch: self.dac_mismatch.remove(lane),
                isi: self.dac_isi.remove(lane),
                reference_noise_sigma: sd,
                noise: nd,
                last_bit: if self.dac_last.remove(lane) { 1 } else { -1 },
            },
            input_noise,
            nonideal: cold.nonideal,
            prev_input: self.prev_input.remove(lane),
            last_bit: comp_last,
            saturation_events: self.saturation_events.remove(lane),
            steps: self.steps.remove(lane),
        };
        self.b1.remove(lane);
        self.a1.remove(lane);
        self.c1.remove(lane);
        self.a2.remove(lane);
        self.input_sigma.remove(lane);
        self.jitter_gain.remove(lane);
        self.refresh_draws();
        m
    }

    /// Reclassifies each z stream kind for the current lane layout.
    fn refresh_draws(&mut self) {
        self.draws = self.z_sigma.each_ref().map(|sigmas| {
            if sigmas.iter().all(|&s| s == 0.0) {
                Draw::Silent
            } else if sigmas.iter().all(|&s| s != 0.0) {
                Draw::Lockstep
            } else {
                Draw::Mixed
            }
        });
    }

    /// Resets one lane's loop state exactly like
    /// [`crate::modulator::DeltaSigmaModulator::reset`] on the scalar
    /// modulator: integrators and histories clear, counters zero, noise
    /// stream positions are *kept*.
    ///
    /// # Panics
    ///
    /// Panics when `lane` is out of range.
    pub fn reset_lane(&mut self, lane: usize) {
        assert!(lane < self.lanes(), "lane {lane} out of range");
        self.x1.set(lane, 0.0);
        self.x2.set(lane, 0.0);
        self.comp_last.set(lane, true);
        self.dac_last.set(lane, true);
        self.prev_input[lane] = 0.0;
        self.steps[lane] = 0;
        self.saturation_events[lane] = 0;
    }

    /// Total converted clocks on a lane since construction/reset.
    pub fn steps(&self, lane: usize) -> u64 {
        self.steps[lane]
    }

    /// Integrator saturation events on a lane since construction/reset.
    pub fn saturation_events(&self, lane: usize) -> u64 {
        self.saturation_events[lane]
    }

    /// Converts `clocks` modulator cycles on every lane in lockstep,
    /// appending each lane's packed bitstream to the matching entry of
    /// `bits` (not cleared first).
    ///
    /// Per lane, the produced bits and the post-block state are
    /// bit-identical to the scalar path. Allocation-free once the
    /// scratch has grown to the lane count (it is reused across calls).
    ///
    /// # Panics
    ///
    /// Panics when `inputs` or `bits` length differs from the lane
    /// count, or a [`LaneInput::Samples`] length differs from `clocks`.
    pub fn step_block(&mut self, clocks: usize, inputs: &[LaneInput], bits: &mut [PackedBits]) {
        assert_eq!(inputs.len(), self.lanes(), "one input per lane");
        for input in inputs {
            if let LaneInput::Samples(xs) = input {
                assert_eq!(xs.len(), clocks, "one sample per clock");
            }
        }
        self.convert(clocks, BlockInputs::Lanes(inputs), bits);
    }

    /// Converts `clocks` modulator cycles on every lane in lockstep with
    /// every lane held at a constant input for the whole block — the
    /// settled-mux frame case. Semantically identical to
    /// [`SigmaDelta2Bank::step_block`] with all-[`LaneInput::Constant`]
    /// inputs, but takes a plain `&[f64]` so callers converting settled
    /// frames need no per-frame `LaneInput` buffer at all, and when
    /// every lane has input noise the input streams advance in lockstep.
    ///
    /// # Panics
    ///
    /// Panics when `inputs` or `bits` length differs from the lane count.
    pub fn step_block_constant(&mut self, clocks: usize, inputs: &[f64], bits: &mut [PackedBits]) {
        assert_eq!(inputs.len(), self.lanes(), "one input per lane");
        self.convert(clocks, BlockInputs::Constant(inputs), bits);
    }

    /// Converts one block: per 64-clock chunk, draw the chunk's input and
    /// noise rows, then run the tiled loop filter over them. Lockstep
    /// fill groups are loaded once per block and carried across chunks.
    fn convert(&mut self, clocks: usize, inputs: BlockInputs, bits: &mut [PackedBits]) {
        let k = self.lanes();
        assert_eq!(bits.len(), k, "one bit sink per lane");
        if clocks == 0 || k == 0 {
            return;
        }
        self.grow_scratch();
        let lockstep_input = matches!(inputs, BlockInputs::Constant(_))
            && clocks > 1
            && self.input_sigma.iter().all(|&s| s != 0.0);
        for t in 0..4 {
            if self.draws[t] == Draw::Lockstep {
                let fill = &mut self.scratch.fills[t];
                fill.begin(k);
                for c in &self.cold {
                    fill.load(&c.streams[t]);
                }
            }
        }
        let isa = Isa::detect();
        let mut start = 0;
        while start < clocks {
            let nb = (clocks - start).min(CHUNK);
            self.draw_inputs(start, nb, inputs, lockstep_input);
            self.draw_noise(nb);
            self.filter_chunk(isa, nb, bits);
            start += nb;
        }
        for t in 0..5 {
            let lockstep = if t == INPUT {
                lockstep_input
            } else {
                self.draws[t] == Draw::Lockstep
            };
            if lockstep {
                for (j, c) in self.cold.iter_mut().enumerate() {
                    self.scratch.fills[t].store(j, &mut c.streams[t]);
                }
            }
        }
        for s in &mut self.steps {
            *s += clocks as u64;
        }
    }

    /// Grows the chunk scratch to the lane count (no-op once warm).
    fn grow_scratch(&mut self) {
        let k = self.lanes();
        let s = &mut self.scratch;
        let rows = CHUNK * k;
        for r in std::iter::once(&mut s.u_rows).chain(&mut s.z_rows) {
            if r.len() < rows {
                r.resize(rows, 0.0);
            }
        }
        if s.row.len() < CHUNK {
            s.row.resize(CHUNK, 0.0);
        }
        let words = k.div_ceil(64) * 64;
        if s.clock_rows.len() < words {
            s.clock_rows.resize(words, 0);
        }
        if s.zero_row.len() < k {
            s.zero_row.resize(k, 0.0);
        }
    }

    /// A lane's first clock of a block: the slew since the previous
    /// block's last input drives the jitter draw (scalar semantics,
    /// including its conditional draw).
    fn first_clock(&mut self, lane: usize, x: f64) -> f64 {
        let src = &mut self.cold[lane].streams[INPUT];
        let jitter = self.jitter_gain[lane] * (x - self.prev_input[lane]);
        self.prev_input[lane] = x;
        x + src.gaussian(self.input_sigma[lane]) + src.gaussian(jitter.abs())
    }

    /// Draws the chunk's clock-major input rows for clocks
    /// `start..start + nb` of the block — the same draws, in the same
    /// order, as the scalar path's input impairments.
    fn draw_inputs(&mut self, start: usize, nb: usize, inputs: BlockInputs, lockstep: bool) {
        let k = self.lanes();
        match inputs {
            BlockInputs::Constant(xs) if lockstep => {
                // Clock 0 is per-lane scalar (the frame-boundary slew);
                // every later clock advances all K input streams side by
                // side through one biased fill.
                let mut first = 0;
                if start == 0 {
                    for (lane, &x) in xs.iter().enumerate() {
                        self.scratch.u_rows[lane] = self.first_clock(lane, x);
                    }
                    let fill = &mut self.scratch.fills[INPUT];
                    fill.begin(k);
                    for c in &self.cold {
                        fill.load(&c.streams[INPUT]);
                    }
                    first = 1;
                }
                let s = &mut self.scratch;
                s.fills[INPUT].fill_biased(
                    xs,
                    &self.input_sigma,
                    nb - first,
                    &mut s.u_rows[first * k..nb * k],
                );
            }
            BlockInputs::Constant(xs) => {
                for (lane, &x) in xs.iter().enumerate() {
                    self.draw_lane_constant(lane, start, nb, x);
                }
            }
            BlockInputs::Lanes(lanes) => {
                for (lane, input) in lanes.iter().enumerate() {
                    match *input {
                        LaneInput::Constant(x) => self.draw_lane_constant(lane, start, nb, x),
                        LaneInput::Samples(xs) => {
                            self.draw_lane_samples(lane, &xs[start..start + nb]);
                        }
                    }
                }
            }
        }
    }

    /// One lane's input column for a constant-input chunk. Every clock
    /// after the block's first has zero slew, so the jitter term is
    /// exactly `+ 0.0` and consumes nothing.
    fn draw_lane_constant(&mut self, lane: usize, start: usize, nb: usize, x: f64) {
        let k = self.lanes();
        let mut first = 0;
        if start == 0 {
            self.scratch.u_rows[lane] = self.first_clock(lane, x);
            first = 1;
        }
        let sigma = self.input_sigma[lane];
        let s = &mut self.scratch;
        if sigma != 0.0 {
            let row = &mut s.row[first..nb];
            self.cold[lane].streams[INPUT].fill_standard(row);
            for (n, &z) in (first..nb).zip(row.iter()) {
                s.u_rows[n * k + lane] = x + z * sigma + 0.0;
            }
        } else {
            for n in first..nb {
                s.u_rows[n * k + lane] = x + 0.0 + 0.0;
            }
        }
    }

    /// One lane's input column from explicit per-clock samples (the
    /// still-settling mux transient).
    fn draw_lane_samples(&mut self, lane: usize, xs: &[f64]) {
        let k = self.lanes();
        let sigma = self.input_sigma[lane];
        let gain = self.jitter_gain[lane];
        let src = &mut self.cold[lane].streams[INPUT];
        for (n, &x) in xs.iter().enumerate() {
            let jitter = gain * (x - self.prev_input[lane]);
            self.prev_input[lane] = x;
            self.scratch.u_rows[n * k + lane] =
                x + src.gaussian(sigma) + src.gaussian(jitter.abs());
        }
    }

    /// Draws the chunk's pre-multiplied noise rows for every z stream
    /// kind: a silent kind draws nothing (the loop filter reads the
    /// zero row, matching the scalar `gaussian(0.0)` short-circuit), a
    /// lockstep kind advances every stream side by side, and a mixed
    /// kind draws lane-at-a-time rows with zeros in its silent lanes.
    fn draw_noise(&mut self, nb: usize) {
        let k = self.lanes();
        let BankScratch {
            z_rows, row, fills, ..
        } = &mut self.scratch;
        for (t, rows) in z_rows.iter_mut().enumerate() {
            let sigmas = &self.z_sigma[t];
            let rows = &mut rows[..nb * k];
            match self.draws[t] {
                Draw::Silent => {}
                Draw::Lockstep => fills[t].fill_scaled(sigmas, nb, rows),
                Draw::Mixed => {
                    for (lane, c) in self.cold.iter_mut().enumerate() {
                        let sigma = sigmas[lane];
                        let r = &mut row[..nb];
                        if sigma == 0.0 {
                            // A silent lane reads exact zeros.
                            r.fill(0.0);
                        } else {
                            c.streams[t].fill_standard(r);
                        }
                        for (n, &z) in r.iter().enumerate() {
                            rows[n * k + lane] = z * sigma;
                        }
                    }
                }
            }
        }
    }

    /// The tiled lockstep loop filter over one chunk of `nb` ≤ 64
    /// clocks.
    ///
    /// The loop runs **tile-outer, clock-inner**: each full tile's
    /// integrator states, coefficients, and packed ±1 history bytes are
    /// pulled into locals once and stepped through the chunk kernel for
    /// the whole chunk — 64 clocks of register-resident state per
    /// memory round trip. Each clock deposits its comparator byte into
    /// the chunk's per-clock `u64` lane word; at the chunk boundary
    /// [`transpose64`] pivots each 64-lane group's words into per-lane
    /// time words, which flush into the lanes' [`PackedBits`]. Chunk
    /// boundaries land exactly on the 64-clock flush points of the
    /// per-clock formulation, so packed output is bit-identical.
    ///
    /// Lanes past the last full tile (K mod [`TILE`]) step one at a
    /// time through `step_lane` with the same chunk structure, so
    /// padding lanes never execute.
    fn filter_chunk(&mut self, isa: Isa, nb: usize, bits: &mut [PackedBits]) {
        let k = self.lanes();
        let groups = k.div_ceil(64);
        let full_tiles = k / TILE;
        let tail = full_tiles * TILE;
        let SigmaDelta2Bank {
            x1,
            x2,
            leak,
            sat,
            comp_offset,
            comp_hyst,
            dac_mismatch,
            dac_isi,
            b1,
            a1,
            c1,
            a2,
            comp_last,
            dac_last,
            saturation_events,
            draws,
            scratch,
            ..
        } = self;
        let BankScratch {
            u_rows,
            z_rows,
            clock_rows,
            zero_row,
            ..
        } = scratch;
        let zero_row = &zero_row[..k];
        let z =
            std::array::from_fn(|t| RowSrc::new(&z_rows[t], zero_row, draws[t] == Draw::Silent, k));
        let src = ChunkSrc {
            u: RowSrc {
                data: u_rows,
                stride: k,
            },
            z,
        };
        let clock_rows = &mut clock_rows[..groups * 64];
        clock_rows.fill(0);
        // Full tiles: state stays in registers for the whole chunk.
        for t in 0..full_tiles {
            let lane0 = t * TILE;
            let consts = TileConsts {
                leak: *leak.tile(t),
                sat: *sat.tile(t),
                off: *comp_offset.tile(t),
                hyst: *comp_hyst.tile(t),
                mis: *dac_mismatch.tile(t),
                isi: *dac_isi.tile(t),
                b1: *b1.tile(t),
                a1: *a1.tile(t),
                c1: *c1.tile(t),
                a2: *a2.tile(t),
            };
            let mut x1t = *x1.tile(t);
            let mut x2t = *x2.tile(t);
            let mut cl = comp_last.byte(t);
            let mut dl = dac_last.byte(t);
            let mut sat8_acc = [0u64; TILE];
            let shift = 8 * (t % 8) as u32;
            let rows_out = &mut clock_rows[(lane0 / 64) * 64..(lane0 / 64) * 64 + nb];
            isa.run_tile_chunk(
                &mut x1t,
                &mut x2t,
                &mut cl,
                &mut dl,
                &mut sat8_acc,
                &consts,
                &src,
                lane0,
                shift,
                rows_out,
            );
            x1.set_tile(t, x1t);
            x2.set_tile(t, x2t);
            comp_last.set_byte(t, cl);
            dac_last.set_byte(t, dl);
            for (i, &acc) in sat8_acc.iter().enumerate() {
                saturation_events[lane0 + i] += acc;
            }
        }
        // Tail lanes (< TILE of them): the shared scalar lane clock.
        for lane in tail..k {
            let consts = Consts {
                leak: leak.get(lane),
                sat: sat.get(lane),
                off: comp_offset.get(lane),
                hyst: comp_hyst.get(lane),
                mis: dac_mismatch.get(lane),
                isi: dac_isi.get(lane),
                b1: b1.get(lane),
                a1: a1.get(lane),
                c1: c1.get(lane),
                a2: a2.get(lane),
            };
            let mut x1s = x1.get(lane);
            let mut x2s = x2.get(lane);
            let mut cl = comp_last.get(lane);
            let mut dl = dac_last.get(lane);
            let mut sat_acc = 0u64;
            let bit = lane % 64;
            let rows_out = &mut clock_rows[(lane / 64) * 64..(lane / 64) * 64 + nb];
            for (n, out_word) in rows_out.iter_mut().enumerate() {
                let (margin, sat1, sat2) =
                    step_lane(&mut x1s, &mut x2s, &consts, &src.lane(n, lane), cl, dl);
                let vpos = margin >= 0.0;
                cl = vpos;
                dl = vpos;
                *out_word |= u64::from(vpos) << bit;
                sat_acc += u64::from(sat1 || sat2);
            }
            x1.set(lane, x1s);
            x2.set(lane, x2s);
            comp_last.set(lane, cl);
            dac_last.set(lane, dl);
            saturation_events[lane] += sat_acc;
        }
        // Pivot per-clock lane words into per-lane time words and
        // flush — same boundaries as a per-clock `n & 63 == 63`
        // flush, so the packed streams are bit-identical.
        for g in 0..groups {
            let block: &mut [u64; 64] = (&mut clock_rows[g * 64..(g + 1) * 64])
                .try_into()
                .expect("64-word group block");
            transpose64(block);
            let lanes_here = (k - g * 64).min(64);
            for (l, word) in block[..lanes_here].iter().enumerate() {
                bits[g * 64 + l].push_bits(*word, nb);
            }
        }
    }
}
