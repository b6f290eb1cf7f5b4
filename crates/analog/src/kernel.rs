//! Process-wide kernel-selection override shared by the tiled loop
//! filter ([`crate::bank`]) and the wide noise fill (`noise_wide`).
//!
//! CI (and anyone debugging a dispatch-dependent difference) can pin
//! the runtime kernel choice with the `TONOS_FORCE_KERNEL` environment
//! variable so the portable oracle bodies and the explicit-SIMD bodies
//! are both exercised regardless of what the host CPU advertises:
//!
//! | value | effect |
//! |---|---|
//! | `scalar-tile` | portable scalar bodies everywhere (tile loop *and* lockstep noise rows) |
//! | `wide-avx2` | pin dispatch to the AVX2 kernels (requires a CPU with AVX2) |
//! | `wide-avx512f` | pin dispatch to the AVX-512F kernels (requires a CPU with AVX-512F) |
//!
//! Forcing a wide kernel the CPU cannot run falls back to the normal
//! runtime probe — the override can never select an unsupported
//! instruction set, so it is never unsound. The resolved choice is
//! visible through [`crate::bank::kernel_name`] and
//! [`crate::noise::kernel_name`]. The variable is read once per process
//! and cached. Off x86-64 there are only the portable bodies, and this
//! module is not compiled.

use std::sync::OnceLock;

/// Parsed value of `TONOS_FORCE_KERNEL`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ForcedKernel {
    /// Portable scalar bodies everywhere.
    Scalar,
    /// Pin dispatch to the AVX2 kernels.
    Avx2,
    /// Pin dispatch to the AVX-512F kernels.
    Avx512,
}

/// The cached `TONOS_FORCE_KERNEL` override, if set.
///
/// # Panics
///
/// Panics (once, on first dispatch) when the variable is set to an
/// unknown kernel name — a forced-selection typo must fail loudly, not
/// silently benchmark or test the wrong body.
pub(crate) fn forced_kernel() -> Option<ForcedKernel> {
    static FORCED: OnceLock<Option<ForcedKernel>> = OnceLock::new();
    *FORCED.get_or_init(|| match std::env::var("TONOS_FORCE_KERNEL") {
        Err(_) => None,
        Ok(v) => match v.as_str() {
            "" => None,
            "scalar-tile" | "scalar-lockstep" | "scalar" => Some(ForcedKernel::Scalar),
            "wide-avx2" => Some(ForcedKernel::Avx2),
            "wide-avx512f" => Some(ForcedKernel::Avx512),
            other => panic!(
                "TONOS_FORCE_KERNEL={other:?} names no kernel; use \
                 scalar-tile, wide-avx2, or wide-avx512f"
            ),
        },
    })
}
