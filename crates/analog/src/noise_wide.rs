//! The **wide noise plane**: explicit-SIMD lockstep ziggurat fill for
//! the lane bank (x86-64, picked by runtime CPU detection).
//!
//! The portable [`LockstepFill`](crate::noise::LockstepFill) rows are
//! already structure-of-arrays — K xoshiro256++ streams side by side —
//! but they lean on autovectorization, and the ziggurat accept
//! (layer-table lookup, compare, sign OR) never vectorizes on its own.
//! This module states the whole draw explicitly, one vector register
//! at a time:
//!
//! * **4 (AVX2) or 8 (AVX-512F) generator streams per register.** A
//!   group's four state words live in four vector registers for the
//!   *entire block* — the only per-clock memory traffic is the two
//!   layer-table gathers and the tile-row store.
//! * **Speculative accept in-register.** Layer index = `bits & 127`
//!   feeds a `vgatherqpd` into the boundary table `xs` (and `xs[i+1]`),
//!   the uniform mantissa converts exactly via the split-word
//!   magic-number trick (`bits >> 11` is 53 bits — one `u32` half plus
//!   a 21-bit high part, both exact), one multiply forms the
//!   candidate, and the sign is OR-ed into the IEEE sign bit — the
//!   same branchless expressions as the scalar
//!   [`speculate`](crate::noise::speculate), evaluated lane-parallel.
//! * **Rejections are a lane mask.** The `x < xs[i+1]` compare yields
//!   a mask; a zero mask (≈ 92 % of clock-rows at 8 lanes) costs one
//!   test-and-branch. A nonzero mask spills the group's state words,
//!   replays exactly the masked lanes through the shared scalar
//!   [`replay_slot`](crate::noise::replay_slot) — consuming precisely
//!   the words `NoiseSource::standard` would — and reloads.
//! * **The per-lane scale is fused.** The `bias + z * sigma` epilogue
//!   happens in the same registers and stores straight into the
//!   clock-major noise tile the loop filter reads, so the draw never
//!   round-trips through an unscaled buffer.
//!
//! Every floating-point expression matches the scalar path
//! operation-for-operation (no FMA contraction — intrinsics pin the
//! instruction selection), so each stream's draw sequence is
//! **bit-identical** to per-stream `standard()` calls — the property
//! `tests/noise_oracle.rs` proves across vector-width boundaries,
//! partial tails, and rejection replay, and the reason the portable
//! rows can stay the always-compiled oracle (ARCHITECTURE §4's
//! scalar-as-oracle rule).
//!
//! Dispatch mirrors the tile kernels in [`crate::bank`]: runtime CPUID
//! probe, AVX-512F preferred over AVX2, overridable via
//! `TONOS_FORCE_KERNEL` (see [`crate::kernel`]). The kernels handle
//! the leading full vector groups; the caller runs partial-tail lanes
//! through the portable rows.

use std::arch::x86_64::*;

use crate::kernel::{forced_kernel, ForcedKernel};
use crate::noise::{replay_slot, ziggurat_xs, Epilogue, ZIGGURAT_LAYERS};

/// Which explicit-SIMD fill kernel dispatch resolved to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum WideIsa {
    /// 4 streams per 256-bit register.
    Avx2,
    /// 8 streams per 512-bit register.
    Avx512,
}

/// The wide kernel this process runs, if any: runtime CPUID probe
/// (AVX-512F over AVX2), capped/pinned by `TONOS_FORCE_KERNEL`. `None`
/// means every lane takes the portable lockstep rows.
pub(crate) fn active() -> Option<WideIsa> {
    let avx2 = std::arch::is_x86_feature_detected!("avx2");
    let avx512 = std::arch::is_x86_feature_detected!("avx512f");
    match forced_kernel() {
        Some(ForcedKernel::Scalar) => None,
        Some(ForcedKernel::Avx2) if avx2 => Some(WideIsa::Avx2),
        Some(ForcedKernel::Avx512) if avx512 => Some(WideIsa::Avx512),
        // An unsupported forced wide kernel falls back to the probe —
        // the override can never select an ISA this CPU lacks.
        _ => {
            if avx512 {
                Some(WideIsa::Avx512)
            } else if avx2 {
                Some(WideIsa::Avx2)
            } else {
                None
            }
        }
    }
}

/// Fills the leading full vector groups of a clock-major `clocks × k`
/// tile with scaled standard-normal draws, advancing the lockstep
/// state words in place. Returns the number of lanes handled (a
/// multiple of the vector width — possibly 0); the caller owes the
/// remaining tail lanes to the portable rows.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fill(
    isa: WideIsa,
    s0: &mut [u64],
    s1: &mut [u64],
    s2: &mut [u64],
    s3: &mut [u64],
    ep: Epilogue<'_>,
    clocks: usize,
    k: usize,
    out: &mut [f64],
) -> usize {
    assert!(
        s0.len() >= k && s1.len() >= k && s2.len() >= k && s3.len() >= k,
        "state rows must cover all {k} lanes"
    );
    assert!(out.len() >= clocks * k, "tile must cover clocks x lanes");
    let (biases, sigmas) = match ep {
        Epilogue::Scaled { sigmas } => (&[][..], sigmas),
        Epilogue::Biased { biases, sigmas } => (biases, sigmas),
    };
    assert!(sigmas.len() >= k, "one sigma per lane");
    let biased = matches!(ep, Epilogue::Biased { .. });
    if biased {
        assert!(biases.len() >= k, "one bias per lane");
    }
    match (isa, biased) {
        // SAFETY: `active()` (the only producer of `WideIsa`) confirmed
        // the matching CPU feature at runtime.
        (WideIsa::Avx2, false) => unsafe {
            fill_avx2::<false>(s0, s1, s2, s3, biases, sigmas, clocks, k, out)
        },
        (WideIsa::Avx2, true) => unsafe {
            fill_avx2::<true>(s0, s1, s2, s3, biases, sigmas, clocks, k, out)
        },
        (WideIsa::Avx512, false) => unsafe {
            fill_avx512::<false>(s0, s1, s2, s3, biases, sigmas, clocks, k, out)
        },
        (WideIsa::Avx512, true) => unsafe {
            fill_avx512::<true>(s0, s1, s2, s3, biases, sigmas, clocks, k, out)
        },
    }
}

/// `2^84 + 2^52` — the folding constant of the split-word u64→f64
/// conversion (both powers and their sum are exactly representable).
const HI_FOLD: f64 = ((1u128 << 84) as f64) + ((1u64 << 52) as f64);

/// The scalar epilogue for a replayed lane — must match
/// [`Epilogue::apply`] expression-for-expression.
#[inline(always)]
fn apply_replayed<const BIASED: bool>(biases: &[f64], sigmas: &[f64], lane: usize, z: f64) -> f64 {
    if BIASED {
        biases[lane] + z * sigmas[lane] + 0.0
    } else {
        z * sigmas[lane]
    }
}

/// AVX-512F fill: 8 streams per 512-bit register, mask-register accept.
///
/// One [`fill_avx512_group`] call per 8-lane group: the whole block's
/// clock loop runs with that group's state words pinned in registers.
/// (Interleaving two groups' chains in one clock loop was tried and
/// measured slightly slower — out-of-order execution already overlaps
/// consecutive clocks' gathers, so the extra live state buys nothing.)
///
/// # Safety
///
/// Caller must have verified AVX-512F support ([`active`] does) and
/// that `s0..s3`/`sigmas` (and `biases` when `BIASED`) cover `k` lanes
/// and `out` covers `clocks * k` entries ([`fill`] asserts both).
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn fill_avx512<const BIASED: bool>(
    s0: &mut [u64],
    s1: &mut [u64],
    s2: &mut [u64],
    s3: &mut [u64],
    biases: &[f64],
    sigmas: &[f64],
    clocks: usize,
    k: usize,
    out: &mut [f64],
) -> usize {
    const W: usize = 8;
    let groups = k / W;
    for g in 0..groups {
        // SAFETY: forwarding the caller's contract; lanes
        // `g*W .. (g+1)*W` are within `..k`.
        unsafe {
            fill_avx512_group::<BIASED>(s0, s1, s2, s3, biases, sigmas, clocks, k, out, g * W);
        }
    }
    groups * W
}

/// The AVX-512F clock loop for one 8-lane group starting at `lane0`.
///
/// # Safety
///
/// As [`fill_avx512`], plus `lane0 + 8 <= k`.
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn fill_avx512_group<const BIASED: bool>(
    s0: &mut [u64],
    s1: &mut [u64],
    s2: &mut [u64],
    s3: &mut [u64],
    biases: &[f64],
    sigmas: &[f64],
    clocks: usize,
    k: usize,
    out: &mut [f64],
    lane0: usize,
) {
    const W: usize = 8;
    let xs = ziggurat_xs();
    let xs_ptr: *const f64 = xs.as_ptr();
    let m_layer = _mm512_set1_epi64(ZIGGURAT_LAYERS as i64 - 1);
    let m_sign = _mm512_set1_epi64(ZIGGURAT_LAYERS as i64);
    let m_lo32 = _mm512_set1_epi64(0xFFFF_FFFF);
    let exp52 = _mm512_set1_epi64(0x4330_0000_0000_0000_u64 as i64);
    let exp84 = _mm512_set1_epi64(0x4530_0000_0000_0000_u64 as i64);
    let hi_fold = _mm512_set1_pd(HI_FOLD);
    let scale53 = _mm512_set1_pd(1.0 / (1u64 << 53) as f64);
    let zero = _mm512_setzero_pd();
    let mut rbuf = [0u64; W];
    // SAFETY: lane0 + W <= k and every row covers k lanes.
    let mut v0 = unsafe { _mm512_loadu_epi64(s0.as_ptr().add(lane0).cast()) };
    let mut v1 = unsafe { _mm512_loadu_epi64(s1.as_ptr().add(lane0).cast()) };
    let mut v2 = unsafe { _mm512_loadu_epi64(s2.as_ptr().add(lane0).cast()) };
    let mut v3 = unsafe { _mm512_loadu_epi64(s3.as_ptr().add(lane0).cast()) };
    // SAFETY: sigmas (and biases when BIASED) cover k lanes.
    let sig = unsafe { _mm512_loadu_pd(sigmas.as_ptr().add(lane0)) };
    let bias = if BIASED {
        unsafe { _mm512_loadu_pd(biases.as_ptr().add(lane0)) }
    } else {
        zero
    };
    for n in 0..clocks {
        // xoshiro256++: result = rotl(s0 + s3, 23) + s0, then the
        // state permutation -- all 8 streams per operation.
        let r = _mm512_add_epi64(_mm512_rol_epi64::<23>(_mm512_add_epi64(v0, v3)), v0);
        let t = _mm512_slli_epi64::<17>(v1);
        v2 = _mm512_xor_epi64(v2, v0);
        v3 = _mm512_xor_epi64(v3, v1);
        v1 = _mm512_xor_epi64(v1, v2);
        v0 = _mm512_xor_epi64(v0, v3);
        v2 = _mm512_xor_epi64(v2, t);
        v3 = _mm512_rol_epi64::<45>(v3);
        // Layer lookup: i = bits & 127 indexes the 129-entry boundary
        // table, so both gathers stay in bounds.
        let i = _mm512_and_epi64(r, m_layer);
        // SAFETY: every index is masked to 0..=127, inside the static
        // 129-entry `xs` table; the `xi1` gather reads the same indices
        // off a one-entry-shifted base (i.e. `xs[i + 1]`, at most entry
        // 128).
        let xi = unsafe { _mm512_i64gather_pd::<8>(i, xs_ptr) };
        let xi1 = unsafe { _mm512_i64gather_pd::<8>(i, xs_ptr.add(1)) };
        // u = (bits >> 11) as f64 * 2^-53, conversion exact via the
        // split-word trick: lo 32 bits and hi 21 bits each convert
        // exactly, and their recombination is exact because the sum
        // (< 2^53) is representable.
        let mant = _mm512_srli_epi64::<11>(r);
        let lo = _mm512_and_epi64(mant, m_lo32);
        let hi = _mm512_srli_epi64::<32>(mant);
        let lo_d = _mm512_castsi512_pd(_mm512_or_epi64(lo, exp52));
        let hi_d = _mm512_sub_pd(_mm512_castsi512_pd(_mm512_or_epi64(hi, exp84)), hi_fold);
        let u = _mm512_mul_pd(_mm512_add_pd(hi_d, lo_d), scale53);
        // Candidate, accept mask, branchless sign -- `speculate`
        // lane-parallel.
        let x = _mm512_mul_pd(u, xi);
        let accept = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(x, xi1);
        let sign = _mm512_slli_epi64::<56>(_mm512_and_epi64(r, m_sign));
        let z = _mm512_castsi512_pd(_mm512_or_epi64(_mm512_castpd_si512(x), sign));
        // Fused per-lane scale, stored straight into the tile row.
        let v = if BIASED {
            _mm512_add_pd(_mm512_add_pd(bias, _mm512_mul_pd(z, sig)), zero)
        } else {
            _mm512_mul_pd(z, sig)
        };
        // SAFETY: n < clocks and lane0 + W <= k, so the store ends at
        // or before clocks * k <= out.len().
        unsafe { _mm512_storeu_pd(out.as_mut_ptr().add(n * k + lane0), v) };
        let mut reject = !accept;
        if reject != 0 {
            // Spill the group state, replay exactly the masked lanes
            // through the shared scalar path, reload.
            // SAFETY: same bounds as the loads above.
            unsafe {
                _mm512_storeu_epi64(s0.as_mut_ptr().add(lane0).cast(), v0);
                _mm512_storeu_epi64(s1.as_mut_ptr().add(lane0).cast(), v1);
                _mm512_storeu_epi64(s2.as_mut_ptr().add(lane0).cast(), v2);
                _mm512_storeu_epi64(s3.as_mut_ptr().add(lane0).cast(), v3);
                _mm512_storeu_epi64(rbuf.as_mut_ptr().cast(), r);
            }
            while reject != 0 {
                let j = reject.trailing_zeros() as usize;
                reject &= reject - 1;
                let lane = lane0 + j;
                let zr = replay_slot(
                    &mut s0[lane],
                    &mut s1[lane],
                    &mut s2[lane],
                    &mut s3[lane],
                    rbuf[j],
                );
                out[n * k + lane] = apply_replayed::<BIASED>(biases, sigmas, lane, zr);
            }
            // SAFETY: same bounds as the loads above.
            v0 = unsafe { _mm512_loadu_epi64(s0.as_ptr().add(lane0).cast()) };
            v1 = unsafe { _mm512_loadu_epi64(s1.as_ptr().add(lane0).cast()) };
            v2 = unsafe { _mm512_loadu_epi64(s2.as_ptr().add(lane0).cast()) };
            v3 = unsafe { _mm512_loadu_epi64(s3.as_ptr().add(lane0).cast()) };
        }
    }
    // SAFETY: same bounds as the loads above.
    unsafe {
        _mm512_storeu_epi64(s0.as_mut_ptr().add(lane0).cast(), v0);
        _mm512_storeu_epi64(s1.as_mut_ptr().add(lane0).cast(), v1);
        _mm512_storeu_epi64(s2.as_mut_ptr().add(lane0).cast(), v2);
        _mm512_storeu_epi64(s3.as_mut_ptr().add(lane0).cast(), v3);
    }
}

/// AVX2 fill: 4 streams per 256-bit register, `movemask` accept.
///
/// # Safety
///
/// Caller must have verified AVX2 support ([`active`] does) and the
/// same slice bounds as [`fill_avx512`].
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn fill_avx2<const BIASED: bool>(
    s0: &mut [u64],
    s1: &mut [u64],
    s2: &mut [u64],
    s3: &mut [u64],
    biases: &[f64],
    sigmas: &[f64],
    clocks: usize,
    k: usize,
    out: &mut [f64],
) -> usize {
    const W: usize = 4;
    let xs = ziggurat_xs();
    let groups = k / W;
    let m_layer = _mm256_set1_epi64x(ZIGGURAT_LAYERS as i64 - 1);
    let m_sign = _mm256_set1_epi64x(ZIGGURAT_LAYERS as i64);
    let m_lo32 = _mm256_set1_epi64x(0xFFFF_FFFF);
    let exp52 = _mm256_set1_epi64x(0x4330_0000_0000_0000_u64 as i64);
    let exp84 = _mm256_set1_epi64x(0x4530_0000_0000_0000_u64 as i64);
    let hi_fold = _mm256_set1_pd(HI_FOLD);
    let scale53 = _mm256_set1_pd(1.0 / (1u64 << 53) as f64);
    let zero = _mm256_setzero_pd();
    // AVX2 has no vector rotate: rotl(x, N) = (x << N) | (x >> 64-N).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn rotl<const N: i32, const INV: i32>(x: __m256i) -> __m256i {
        _mm256_or_si256(_mm256_slli_epi64::<N>(x), _mm256_srli_epi64::<INV>(x))
    }
    let mut rbuf = [0u64; W];
    for g in 0..groups {
        let lane0 = g * W;
        // SAFETY: lane0 + W <= k and every row covers k lanes.
        let mut v0 = unsafe { _mm256_loadu_si256(s0.as_ptr().add(lane0).cast()) };
        let mut v1 = unsafe { _mm256_loadu_si256(s1.as_ptr().add(lane0).cast()) };
        let mut v2 = unsafe { _mm256_loadu_si256(s2.as_ptr().add(lane0).cast()) };
        let mut v3 = unsafe { _mm256_loadu_si256(s3.as_ptr().add(lane0).cast()) };
        // SAFETY: sigmas (and biases when BIASED) cover k lanes.
        let sig = unsafe { _mm256_loadu_pd(sigmas.as_ptr().add(lane0)) };
        let bias = if BIASED {
            unsafe { _mm256_loadu_pd(biases.as_ptr().add(lane0)) }
        } else {
            zero
        };
        for n in 0..clocks {
            let r = _mm256_add_epi64(rotl::<23, 41>(_mm256_add_epi64(v0, v3)), v0);
            let t = _mm256_slli_epi64::<17>(v1);
            v2 = _mm256_xor_si256(v2, v0);
            v3 = _mm256_xor_si256(v3, v1);
            v1 = _mm256_xor_si256(v1, v2);
            v0 = _mm256_xor_si256(v0, v3);
            v2 = _mm256_xor_si256(v2, t);
            v3 = rotl::<45, 19>(v3);
            let i = _mm256_and_si256(r, m_layer);
            // SAFETY: every index is masked to 0..=127, inside the
            // static 129-entry `xs` table; the `xi1` gather reads the
            // same indices off a one-entry-shifted base (`xs[i + 1]`,
            // at most entry 128).
            let xi = unsafe { _mm256_i64gather_pd::<8>(xs.as_ptr(), i) };
            let xi1 = unsafe { _mm256_i64gather_pd::<8>(xs.as_ptr().add(1), i) };
            let mant = _mm256_srli_epi64::<11>(r);
            let lo = _mm256_and_si256(mant, m_lo32);
            let hi = _mm256_srli_epi64::<32>(mant);
            let lo_d = _mm256_castsi256_pd(_mm256_or_si256(lo, exp52));
            let hi_d = _mm256_sub_pd(_mm256_castsi256_pd(_mm256_or_si256(hi, exp84)), hi_fold);
            let u = _mm256_mul_pd(_mm256_add_pd(hi_d, lo_d), scale53);
            let x = _mm256_mul_pd(u, xi);
            let accept = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LT_OQ>(x, xi1)) as u32;
            let sign = _mm256_slli_epi64::<56>(_mm256_and_si256(r, m_sign));
            let z = _mm256_castsi256_pd(_mm256_or_si256(_mm256_castpd_si256(x), sign));
            let v = if BIASED {
                _mm256_add_pd(_mm256_add_pd(bias, _mm256_mul_pd(z, sig)), zero)
            } else {
                _mm256_mul_pd(z, sig)
            };
            // SAFETY: n < clocks and lane0 + W <= k, so the store ends
            // at or before clocks * k <= out.len().
            unsafe { _mm256_storeu_pd(out.as_mut_ptr().add(n * k + lane0), v) };
            let mut reject = !accept & 0xF;
            if reject != 0 {
                // SAFETY: same bounds as the loads above.
                unsafe {
                    _mm256_storeu_si256(s0.as_mut_ptr().add(lane0).cast(), v0);
                    _mm256_storeu_si256(s1.as_mut_ptr().add(lane0).cast(), v1);
                    _mm256_storeu_si256(s2.as_mut_ptr().add(lane0).cast(), v2);
                    _mm256_storeu_si256(s3.as_mut_ptr().add(lane0).cast(), v3);
                    _mm256_storeu_si256(rbuf.as_mut_ptr().cast(), r);
                }
                while reject != 0 {
                    let j = reject.trailing_zeros() as usize;
                    reject &= reject - 1;
                    let lane = lane0 + j;
                    let zr = replay_slot(
                        &mut s0[lane],
                        &mut s1[lane],
                        &mut s2[lane],
                        &mut s3[lane],
                        rbuf[j],
                    );
                    out[n * k + lane] = apply_replayed::<BIASED>(biases, sigmas, lane, zr);
                }
                // SAFETY: same bounds as the loads above.
                v0 = unsafe { _mm256_loadu_si256(s0.as_ptr().add(lane0).cast()) };
                v1 = unsafe { _mm256_loadu_si256(s1.as_ptr().add(lane0).cast()) };
                v2 = unsafe { _mm256_loadu_si256(s2.as_ptr().add(lane0).cast()) };
                v3 = unsafe { _mm256_loadu_si256(s3.as_ptr().add(lane0).cast()) };
            }
        }
        // SAFETY: same bounds as the loads above.
        unsafe {
            _mm256_storeu_si256(s0.as_mut_ptr().add(lane0).cast(), v0);
            _mm256_storeu_si256(s1.as_mut_ptr().add(lane0).cast(), v1);
            _mm256_storeu_si256(s2.as_mut_ptr().add(lane0).cast(), v2);
            _mm256_storeu_si256(s3.as_mut_ptr().add(lane0).cast(), v3);
        }
    }
    groups * W
}
