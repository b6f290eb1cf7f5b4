//! # tonos-dsp — decimation filters and spectral analysis substrate
//!
//! Digital back end of the DATE'05 tactile blood-pressure sensor: the
//! external FPGA decimation filter and the spectral toolchain used to
//! characterize the ΣΔ-ADC (paper §2.2 and §3.1).
//!
//! The paper specifies the decimation chain exactly:
//!
//! > "The decimation filter was implemented as a two stage filter
//! >  architecture, comprising a 3rd order SINC-filter as first stage and a
//! >  32 tap FIR-filter as second stage. The cutoff frequency of the filter
//! >  is 500 Hz and the output resolution is 12 bit."
//!
//! with the modulator running at 128 kHz and an oversampling ratio of 128,
//! so the output rate is 1 kS/s.
//!
//! Modules:
//!
//! * [`fft`] — from-scratch radix-2 complex FFT (no external DSP crates)
//! * [`window`] — analysis windows and coherent-sampling helpers
//! * [`spectrum`] — periodograms in dBFS (the plot of paper Fig. 7)
//! * [`metrics`] — SNR / SNDR / THD / SFDR / ENOB extraction
//! * [`bits`] — packed single-bit ΣΔ streams (`u64` words, bit-exact
//!   against the ±1.0 `f64` representation)
//! * [`cic`] — SINC^N (CIC) decimators, float and bit-exact integer
//! * [`fir`] — windowed-sinc FIR design and streaming decimation
//! * [`decimator`] — the paper's two-stage chain with 12-bit output
//! * [`fixed`] — Q-format fixed-point helpers (FPGA word-length modeling)
//! * [`fpga`] — fully integer, bit-exact model of the FPGA datapath
//! * [`welch`] — Welch-averaged PSD estimation for noise-floor work
//! * [`goertzel`] — O(1)-memory single-bin tone detection
//! * [`iir`] — RBJ biquad sections for host-side post-processing
//! * [`signal`] — deterministic test-signal generation
//!
//! ## Example: measure the SNR of a quantized sine
//!
//! ```
//! use tonos_dsp::metrics::DynamicMetrics;
//! use tonos_dsp::signal::sine_wave;
//! use tonos_dsp::spectrum::Spectrum;
//! use tonos_dsp::window::Window;
//!
//! # fn main() -> Result<(), tonos_dsp::DspError> {
//! let fs = 1000.0;
//! let n = 4096;
//! let f = Window::coherent_frequency(fs, n, 15.625);
//! let x = sine_wave(fs, f, 0.9, 0.0, n);
//! let spectrum = Spectrum::from_signal(&x, fs, Window::Hann)?;
//! let m = DynamicMetrics::from_spectrum(&spectrum)?;
//! assert!(m.snr_db > 100.0, "a clean f64 sine is nearly noiseless");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod bits;
pub mod cic;
pub mod decimator;
pub mod fft;
pub mod fir;
pub mod fixed;
pub mod fpga;
pub mod frame;
pub mod goertzel;
pub mod iir;
pub mod metrics;
pub mod signal;
pub mod spectrum;
pub mod welch;
pub mod window;

mod error;

pub use error::DspError;
