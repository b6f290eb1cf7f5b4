//! Fixed-width lane **tiles**: the data layout and the per-clock kernel
//! behind the bank's tiled execution (see [`crate::bank`]).
//!
//! A tile is [`TILE`] (= 8) f64 lanes in one cache-line-aligned row
//! ([`F64Tile`]). The bank stores every kernel-touched state and
//! coefficient row as a sequence of tiles and steps full tiles with
//! `step_tile`: eight independent `step_lane` clocks in lane order,
//! with the comparator and DAC histories carried as packed `u8` lane
//! masks.
//!
//! `step_lane` is the one statement of the loop-filter clock: the
//! scalar modulator's block stepper, the bank's tail lanes, and every
//! tile kernel run it. Its decision only selects among candidates
//! computed for every outcome, so the eight-lane loop has no
//! data-dependent control flow and vectorizes: the bank's runtime
//! dispatched AVX2 / AVX-512F kernels are this same source compiled for
//! those instruction sets, where each select becomes a lane-mask blend.
//! The baseline-ISA build of it is the portable body — the one other
//! targets run and `TONOS_FORCE_KERNEL=scalar-tile` pins. Every build
//! evaluates every floating-point expression with the exact association
//! of the scalar `SigmaDelta2::step` (Rust never contracts to FMA), so
//! each is bit-identical to the scalar modulator — the property
//! `tests/bank_oracle.rs` proves under every dispatched kernel.

use std::hint::select_unpredictable;

/// Lanes per tile: one 64-byte cache line of f64s, and one AVX-512
/// register.
pub const TILE: usize = 8;

/// One cache-line-aligned row of [`TILE`] f64 lanes — the unit the
/// tiled bank stores state and coefficient rows in.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
#[repr(align(64))]
pub struct F64Tile(pub [f64; TILE]);

impl F64Tile {
    /// All lanes exactly `0.0`.
    pub const ZERO: F64Tile = F64Tile([0.0; TILE]);

    /// Copies a possibly-unaligned row into an aligned tile.
    #[inline(always)]
    #[must_use]
    pub fn from_row(row: &[f64; TILE]) -> Self {
        F64Tile(*row)
    }
}

/// The loop-filter constants of one lane (`T = f64`) or one tile of
/// lanes (`T = F64Tile`), hoisted out of the clock loop.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Consts<T> {
    pub leak: T,
    pub sat: T,
    pub off: T,
    pub hyst: T,
    pub mis: T,
    pub isi: T,
    pub b1: T,
    pub a1: T,
    pub c1: T,
    pub a2: T,
}

/// The per-clock values one clock step consumes: the impaired input and
/// the four pre-multiplied noise draws, for one lane or one tile.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Rows<T> {
    pub u: T,
    pub z1: T,
    pub z2: T,
    pub zc: T,
    pub zr: T,
}

/// Per-tile constants.
pub(crate) type TileConsts = Consts<F64Tile>;
/// Per-tile clock rows.
pub(crate) type TileRows = Rows<F64Tile>;

impl TileConsts {
    /// Lane `i`'s constants.
    #[inline(always)]
    fn lane(&self, i: usize) -> Consts<f64> {
        Consts {
            leak: self.leak.0[i],
            sat: self.sat.0[i],
            off: self.off.0[i],
            hyst: self.hyst.0[i],
            mis: self.mis.0[i],
            isi: self.isi.0[i],
            b1: self.b1.0[i],
            a1: self.a1.0[i],
            c1: self.c1.0[i],
            a2: self.a2.0[i],
        }
    }
}

impl TileRows {
    /// Lane `i`'s clock values.
    #[inline(always)]
    fn lane(&self, i: usize) -> Rows<f64> {
        Rows {
            u: self.u.0[i],
            z1: self.z1.0[i],
            z2: self.z2.0[i],
            zc: self.zc.0[i],
            zr: self.zr.0[i],
        }
    }
}

/// One integrator update's clamp, exactly as `ScIntegrator::update`:
/// the clamped state and whether it saturated.
#[inline(always)]
fn clamp_sat(next: f64, sat: f64) -> (f64, bool) {
    let hi = next > sat;
    let lo = next < -sat;
    let x = select_unpredictable(hi, sat, select_unpredictable(lo, -sat, next));
    (x, hi || lo)
}

/// One scalar lane through one modulator clock — the exact expression
/// tree of `SigmaDelta2::step`, and the one loop-filter clock the scalar
/// block stepper, the bank's tail lanes, and every tile kernel run.
/// Returns `(margin, int1_saturated, int2_saturated)`: the decision is
/// `margin >= 0.0`.
///
/// The decision does not gate any arithmetic: the DAC feedback and both
/// integrator updates are computed for both outcomes before it
/// resolves, and then it only selects. Each candidate is the IEEE
/// expression the branchy form evaluates for its outcome, and clamping
/// commutes with the selection, so the results are bit-identical.
///
/// The comparator's `x2 >= threshold` is returned as the margin
/// `x2 - threshold`, whose sign is the same decision for every `x2`,
/// infinite or NaN included: the threshold is finite (validated offset
/// and hysteresis, finite noise), and a difference of distinct doubles
/// never rounds to zero. A caller can then key the next clock's
/// history on a float compare, which compiles to a mask blend where a
/// `bool` history becomes a branch.
// The `* -1.0` factors spell out `step`'s `hyst * last` and
// `level * (1 + zr)` for the negative history and decision.
#[allow(clippy::neg_multiply)]
#[inline(always)]
pub(crate) fn step_lane(
    x1: &mut f64,
    x2: &mut f64,
    c: &Consts<f64>,
    r: &Rows<f64>,
    comp_last_pos: bool,
    dac_last_pos: bool,
) -> (f64, bool, bool) {
    // Comparator (delaying loop): x2 against offset − h·last + noise,
    // with last = ±1.0 the previous decision.
    let margin = select_unpredictable(
        comp_last_pos,
        *x2 - (c.off - c.hyst * 1.0 + r.zc),
        *x2 - (c.off - c.hyst * -1.0 + r.zc),
    );
    let vpos = margin >= 0.0;
    // 1-bit DAC for either outcome: positive-level mismatch, rising-edge
    // ISI, multiplicative reference noise.
    let level_pos = select_unpredictable(dac_last_pos, 1.0 + c.mis, (1.0 + c.mis) * (1.0 - c.isi));
    let vf_pos = level_pos * (1.0 + r.zr);
    let vf_neg = -1.0 * (1.0 + r.zr);
    // Both integrators for either outcome (the second takes the old
    // x1), selected, then clamped like ScIntegrator::update.
    let x1_old = *x1;
    let x2_old = *x2;
    let next = |vf: f64| {
        (
            c.leak * x1_old + (c.b1 * r.u - c.a1 * vf) + r.z1,
            c.leak * x2_old + (c.c1 * x1_old - c.a2 * vf) + r.z2,
        )
    };
    let (x1_pos, x2_pos) = next(vf_pos);
    let (x1_neg, x2_neg) = next(vf_neg);
    let (x1_next, sat1) = clamp_sat(select_unpredictable(vpos, x1_pos, x1_neg), c.sat);
    let (x2_next, sat2) = clamp_sat(select_unpredictable(vpos, x2_pos, x2_neg), c.sat);
    *x1 = x1_next;
    *x2 = x2_next;
    (margin, sat1, sat2)
}

/// One full tile through one clock: [`TILE`] lanes through
/// `step_lane` in lane order, returning the comparator and saturation
/// lane masks. Always inlined, so each dispatched chunk kernel compiles
/// (and vectorizes) it for its own instruction set.
#[inline(always)]
pub(crate) fn step_tile(
    x1: &mut F64Tile,
    x2: &mut F64Tile,
    c: &TileConsts,
    rows: &TileRows,
    comp_last: u8,
    dac_last: u8,
) -> (u8, u8) {
    let mut vpos8 = 0u8;
    let mut sat8 = 0u8;
    for i in 0..TILE {
        let (margin, sat1, sat2) = step_lane(
            &mut x1.0[i],
            &mut x2.0[i],
            &c.lane(i),
            &rows.lane(i),
            comp_last >> i & 1 == 1,
            dac_last >> i & 1 == 1,
        );
        vpos8 |= u8::from(margin >= 0.0) << i;
        sat8 |= u8::from(sat1 || sat2) << i;
    }
    (vpos8, sat8)
}

/// One hot state or coefficient row stored as aligned tiles. Logical
/// length is the bank's lane count; the slack lanes of a partial final
/// tile hold `0.0` and are never stepped (the loop filter handles them
/// with scalar `step_lane` calls on the real lanes only).
#[derive(Debug, Clone, Default)]
pub(crate) struct TileRow {
    tiles: Vec<F64Tile>,
    len: usize,
}

impl TileRow {
    pub fn get(&self, i: usize) -> f64 {
        assert!(i < self.len, "lane {i} out of range ({} lanes)", self.len);
        self.tiles[i / TILE].0[i % TILE]
    }

    pub fn set(&mut self, i: usize, v: f64) {
        assert!(i < self.len, "lane {i} out of range ({} lanes)", self.len);
        self.tiles[i / TILE].0[i % TILE] = v;
    }

    pub fn push(&mut self, v: f64) {
        if self.len.is_multiple_of(TILE) {
            self.tiles.push(F64Tile::ZERO);
        }
        self.tiles[self.len / TILE].0[self.len % TILE] = v;
        self.len += 1;
    }

    /// Removes lane `i`, shifting every later lane down by one (exactly
    /// `Vec::remove` on the flattened row) and re-padding the vacated
    /// slot with `0.0`.
    pub fn remove(&mut self, i: usize) -> f64 {
        let out = self.get(i);
        for j in i..self.len - 1 {
            let next = self.tiles[(j + 1) / TILE].0[(j + 1) % TILE];
            self.tiles[j / TILE].0[j % TILE] = next;
        }
        self.len -= 1;
        if self.len.is_multiple_of(TILE) {
            self.tiles.pop();
        } else {
            self.tiles[self.len / TILE].0[self.len % TILE] = 0.0;
        }
        out
    }

    /// Tile `t` (lanes `t*TILE .. (t+1)*TILE`).
    #[inline(always)]
    pub fn tile(&self, t: usize) -> &F64Tile {
        &self.tiles[t]
    }

    /// Stores a whole tile back (the chunk loop's register write-back).
    #[inline(always)]
    pub fn set_tile(&mut self, t: usize, v: F64Tile) {
        self.tiles[t] = v;
    }
}

/// One bit-sliced ±1 history row: bit `lane % 64` of word `lane / 64`
/// is set when that lane's last value was +1. Bits at or above the
/// logical length are always zero.
#[derive(Debug, Clone, Default)]
pub(crate) struct BitRow {
    words: Vec<u64>,
    len: usize,
}

impl BitRow {
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "lane {i} out of range ({} lanes)", self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    pub fn set(&mut self, i: usize, v: bool) {
        assert!(i < self.len, "lane {i} out of range ({} lanes)", self.len);
        let bit = 1u64 << (i % 64);
        if v {
            self.words[i / 64] |= bit;
        } else {
            self.words[i / 64] &= !bit;
        }
    }

    pub fn push(&mut self, v: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        if v {
            self.words[self.len / 64] |= 1 << (self.len % 64);
        }
        self.len += 1;
    }

    /// Removes lane `i`: every higher lane's bit shifts down one
    /// position, across word boundaries.
    pub fn remove(&mut self, i: usize) -> bool {
        let out = self.get(i);
        let w = i / 64;
        let b = i % 64;
        let low = self.words[w] & ((1u64 << b) - 1);
        let high = if b < 63 {
            (self.words[w] >> (b + 1)) << b
        } else {
            0
        };
        self.words[w] = low | high;
        for j in w + 1..self.words.len() {
            self.words[j - 1] |= (self.words[j] & 1) << 63;
            self.words[j] >>= 1;
        }
        self.len -= 1;
        if self.words.len() > self.len.div_ceil(64) {
            self.words.pop();
        }
        out
    }

    /// The 8-lane mask byte of tile `t` (only meaningful for full
    /// tiles).
    #[inline(always)]
    pub fn byte(&self, t: usize) -> u8 {
        (self.words[t / 8] >> (8 * (t % 8))) as u8
    }

    /// Stores tile `t`'s 8-lane mask byte (full tiles only: all eight
    /// bits must be real lanes, or zero bits above the length would be
    /// clobbered).
    #[inline(always)]
    pub fn set_byte(&mut self, t: usize, v: u8) {
        let w = t / 8;
        let shift = 8 * (t % 8);
        self.words[w] = self.words[w] & !(0xffu64 << shift) | (u64::from(v) << shift);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_row_push_remove_matches_vec_semantics() {
        let mut row = TileRow::default();
        let mut model: Vec<f64> = Vec::new();
        for i in 0..23 {
            row.push(i as f64);
            model.push(i as f64);
        }
        for &at in &[22usize, 0, 7, 8, 10, 3] {
            assert_eq!(row.remove(at), model.remove(at));
            for (i, &v) in model.iter().enumerate() {
                assert_eq!(row.get(i), v, "lane {i} after removing {at}");
            }
        }
        // Slack lanes of the final partial tile stay zero-padded.
        let tiles = model.len().div_ceil(TILE);
        for slack in model.len()..tiles * TILE {
            assert_eq!(row.tile(slack / TILE).0[slack % TILE], 0.0);
        }
    }

    #[test]
    fn bit_row_remove_shifts_across_word_boundaries() {
        let mut row = BitRow::default();
        let mut model: Vec<bool> = Vec::new();
        for i in 0..150 {
            let v = i % 3 == 0 || i % 7 == 0;
            row.push(v);
            model.push(v);
        }
        for &at in &[149usize, 0, 63, 64, 65, 100, 1] {
            assert_eq!(row.remove(at), model.remove(at));
            for (i, &v) in model.iter().enumerate() {
                assert_eq!(row.get(i), v, "lane {i} after removing {at}");
            }
        }
        // The invariant the loop filter relies on: bits above the
        // logical length are zero, so tile byte extraction needs no
        // masking.
        for (w, &word) in row.words.iter().enumerate() {
            let valid = model.len().saturating_sub(w * 64).min(64);
            if valid < 64 {
                assert_eq!(word >> valid, 0, "stray bits above the length");
            }
        }
    }
}
