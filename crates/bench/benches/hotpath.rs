//! Criterion bench: per-stage costs of the 128 kS/s hot path.
//!
//! One real-time second of the paper's signal chain is 128 000 modulator
//! clocks, 4 000 CIC outputs, and 1 000 delivered samples. This bench
//! isolates each stage — modulator clocking (scalar vs block), the CIC
//! first stage (scalar per-bit vs word-parallel kernel), the FIR second
//! stage, and the assembled per-frame readout — so a regression in any
//! one of them is attributable. The headline numbers live in
//! `BENCH_hotpath.json` (emitted by the `hotpath_throughput` binary).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use tonos_analog::modulator::{DeltaSigmaModulator, SigmaDelta2};
use tonos_analog::nonideal::NonIdealities;
use tonos_core::readout::ReadoutSystem;
use tonos_dsp::bits::PackedBits;
use tonos_dsp::cic::CicDecimator;
use tonos_dsp::decimator::{DecimatorConfig, CIC_INPUT_FRAC_BITS};
use tonos_dsp::fir::FirDecimator;
use tonos_dsp::signal::sine_wave;
use tonos_mems::units::{MillimetersHg, Pascals};

/// One real-time second of modulator clocks.
const CLOCKS: usize = 128_000;

fn bench_modulator_block(c: &mut Criterion) {
    let stim = sine_wave(128_000.0, 100.0, 0.5, 0.0, CLOCKS);
    let mut group = c.benchmark_group("hotpath/modulator");
    group.throughput(Throughput::Elements(CLOCKS as u64));

    group.bench_function(BenchmarkId::new("typical", "per_sample"), |b| {
        let mut dsm = SigmaDelta2::new(NonIdealities::typical()).unwrap();
        let mut bits = PackedBits::with_capacity(CLOCKS);
        b.iter(|| {
            bits.clear();
            for &x in &stim {
                bits.push(dsm.step(black_box(x)) > 0);
            }
            black_box(bits.len())
        });
    });
    group.bench_function(BenchmarkId::new("typical", "step_block"), |b| {
        let mut dsm = SigmaDelta2::new(NonIdealities::typical()).unwrap();
        let mut bits = PackedBits::with_capacity(CLOCKS);
        b.iter(|| {
            bits.clear();
            dsm.step_block(black_box(&stim), &mut bits);
            black_box(bits.len())
        });
    });
    group.finish();
}

fn bench_cic_kernel(c: &mut Criterion) {
    let bits: PackedBits = (0..CLOCKS).map(|i| i % 3 == 0).collect();
    let scale = 1_i64 << CIC_INPUT_FRAC_BITS;
    let mut group = c.benchmark_group("hotpath/cic");
    group.throughput(Throughput::Elements(CLOCKS as u64));

    group.bench_function(BenchmarkId::new("order3_r32", "per_bit"), |b| {
        let mut cic = CicDecimator::new(3, 32).unwrap();
        b.iter(|| {
            let mut acc = 0i64;
            for bit in bits.iter() {
                if let Some(v) = cic.push(if bit { scale } else { -scale }) {
                    acc = acc.wrapping_add(v);
                }
            }
            black_box(acc)
        });
    });
    group.bench_function(BenchmarkId::new("order3_r32", "word_parallel"), |b| {
        let mut cic = CicDecimator::new(3, 32).unwrap();
        let mut out = Vec::with_capacity(CLOCKS / 32 + 1);
        b.iter(|| {
            out.clear();
            cic.process_packed_into(black_box(&bits), scale, &mut out);
            black_box(out.len())
        });
    });
    group.finish();
}

fn bench_fir(c: &mut Criterion) {
    // The FIR sees the CIC's 4 kS/s intermediate rate.
    let n = CLOCKS / 32;
    let xs = sine_wave(4_000.0, 100.0, 0.5, 0.0, n);
    let mut group = c.benchmark_group("hotpath/fir");
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function(BenchmarkId::new("hamming32_r4", "push"), |b| {
        let mut fir = FirDecimator::paper_default();
        b.iter(|| {
            let mut acc = 0.0;
            for &x in &xs {
                if let Some(y) = fir.push(black_box(x)) {
                    acc += y;
                }
            }
            black_box(acc)
        });
    });
    group.finish();
}

fn bench_frame(c: &mut Criterion) {
    // The assembled readout: one pressure frame → one output sample,
    // after the mux has settled and the scratch has grown (the
    // steady-state cost of every frame in a session).
    let mut sys = ReadoutSystem::paper_default().unwrap();
    let frame = vec![Pascals::from_mmhg(MillimetersHg(100.0)); 4];
    for _ in 0..16 {
        sys.push_frame(&frame).unwrap();
    }
    let osr = sys.osr() as u64;
    let mut group = c.benchmark_group("hotpath/frame");
    group.throughput(Throughput::Elements(osr));
    group.bench_function(BenchmarkId::new("readout", "settled_push_frame"), |b| {
        b.iter(|| black_box(sys.push_frame(black_box(&frame)).unwrap()))
    });
    // Full decimator over one second of packed bits — the chain the
    // packed-throughput headline measures.
    let bits: PackedBits = (0..CLOCKS).map(|i| i % 3 == 0).collect();
    let mut dec = DecimatorConfig::paper_default().build().unwrap();
    let mut out = Vec::with_capacity(CLOCKS / 128 + 1);
    group.throughput(Throughput::Elements(CLOCKS as u64));
    group.bench_function(BenchmarkId::new("decimator", "packed_into"), |b| {
        b.iter(|| {
            out.clear();
            dec.process_packed_into(black_box(&bits), &mut out);
            black_box(out.len())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_modulator_block,
    bench_cic_kernel,
    bench_fir,
    bench_frame
);
criterion_main!(benches);
