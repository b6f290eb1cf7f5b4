//! Lane-banked readout: K complete readout systems converting frames in
//! lockstep through one shared SoA modulator bank.
//!
//! [`ReadoutBank`] borrows K [`ReadoutSystem`]s, lifts their modulators
//! into a [`SigmaDelta2Bank`] (`tonos-analog`), and converts one frame
//! per lane per call: the per-lane input is computed by each lane's own
//! chip (mux, front end, capacitance LUTs — exactly the scalar path),
//! the K modulators then step **per clock in lockstep** through the
//! bank's flat lanes, and each lane's packed bitstream runs through its
//! own decimation chain. One [`ConversionScratch`] is loaned across all
//! lanes for the decimated output, so the settled frame path stays
//! allocation-free for any K.
//!
//! The scalar [`ReadoutSystem::push_frame`] stays the bit-exact oracle:
//! a banked lane produces the same outputs, counters, and telemetry as
//! the same system run alone (see `tests/bank_readout.rs`).

use tonos_analog::bank::{BankScratch, LaneInput, SigmaDelta2Bank};
use tonos_dsp::bits::PackedBits;
use tonos_mems::units::Pascals;

use crate::readout::ReadoutSystem;
use crate::scratch::ConversionScratch;
use crate::SystemError;

/// K readout systems converting in lockstep on a shared modulator bank.
///
/// Constructed over mutable borrows of the scalar systems; dropping the
/// bank (or calling [`ReadoutBank::release`]) hands each modulator back
/// with its exact state, so the systems continue scalar operation
/// bit-identically afterwards.
#[derive(Debug)]
pub struct ReadoutBank<'a> {
    lanes: Vec<&'a mut ReadoutSystem>,
    modulators: SigmaDelta2Bank,
    /// Per-lane packed bitstream for the current frame.
    bits: Vec<PackedBits>,
    /// Per-lane settling-transient input scratch (empty while settled).
    samples: Vec<Vec<f64>>,
    /// Per-lane constant input for the settled fast path.
    const_in: Vec<f64>,
    /// Per-lane settled flag for the current frame.
    settled: Vec<bool>,
    /// One decimation output buffer loaned across all lanes.
    scratch: ConversionScratch,
    osr: usize,
    /// True once a modulator has been taken back out (release ran).
    released: bool,
}

impl<'a> ReadoutBank<'a> {
    /// Banks the given systems, lifting each chip's modulator into the
    /// shared SoA bank (lane index = position in `lanes`).
    ///
    /// While banked, the borrowed systems must convert only through the
    /// bank — their own `push_frame` would run a placeholder modulator.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::Config`] when `lanes` is empty or the
    /// systems disagree on the oversampling ratio (lockstep conversion
    /// needs one block size).
    pub fn new(mut lanes: Vec<&'a mut ReadoutSystem>) -> Result<Self, SystemError> {
        if lanes.is_empty() {
            return Err(SystemError::Config("a readout bank needs lanes".into()));
        }
        let osr = lanes[0].osr();
        if let Some(bad) = lanes.iter().find(|s| s.osr() != osr) {
            return Err(SystemError::Config(format!(
                "lockstep lanes need one OSR: {} vs {}",
                osr,
                bad.osr()
            )));
        }
        let k = lanes.len();
        let mut modulators = SigmaDelta2Bank::new();
        for sys in &mut lanes {
            modulators.push_lane(sys.chip_mut().extract_modulator()?);
        }
        Ok(ReadoutBank {
            lanes,
            modulators,
            bits: vec![PackedBits::with_capacity(osr); k],
            samples: vec![Vec::new(); k],
            const_in: vec![0.0; k],
            settled: vec![false; k],
            scratch: ConversionScratch::with_frame_capacity(osr),
            osr,
            released: false,
        })
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Hands a pre-grown block scratch to the underlying modulator bank
    /// (see [`BankScratch`]); a fleet worker reuses one scratch across
    /// every batch it runs so the chunk rows stay grown.
    pub fn adopt_scratch(&mut self, scratch: BankScratch) {
        self.modulators.adopt_scratch(scratch);
    }

    /// Detaches the modulator bank's block scratch for reuse elsewhere.
    pub fn take_scratch(&mut self) -> BankScratch {
        self.modulators.take_scratch()
    }

    /// Modulator clocks per output sample (uniform across lanes).
    pub fn osr(&self) -> usize {
        self.osr
    }

    /// Immutable access to one lane's readout system.
    pub fn lane(&self, lane: usize) -> &ReadoutSystem {
        self.lanes[lane]
    }

    /// Selects an array element on one lane (scan-controller step);
    /// returns the lane's settling discard count. Other lanes are
    /// untouched — their noise streams and mux state do not move.
    ///
    /// # Errors
    ///
    /// Propagates channel-range and capacitance failures.
    pub fn select_element(
        &mut self,
        lane: usize,
        row: usize,
        col: usize,
        pressures: &[Pascals],
    ) -> Result<usize, SystemError> {
        self.lanes[lane].select_element(row, col, pressures)
    }

    /// Converts one pressure frame per lane in lockstep, writing one
    /// output sample per lane into `out`.
    ///
    /// Settled lanes contribute a constant modulator input (computed by
    /// their own mux/front end) and the whole bank steps through the
    /// allocation-free constant path; while any lane's mux is still
    /// settling, that lane feeds an explicit per-clock transient.
    /// Each lane is bit-identical to its scalar
    /// [`ReadoutSystem::push_frame`].
    ///
    /// # Errors
    ///
    /// Propagates conversion failures.
    ///
    /// # Panics
    ///
    /// Panics when `frames` or `out` length differs from the lane count.
    pub fn push_frames<F: AsRef<[Pascals]>>(
        &mut self,
        frames: &[F],
        out: &mut [f64],
    ) -> Result<(), SystemError> {
        let k = self.lanes();
        assert_eq!(frames.len(), k, "one frame per lane");
        assert_eq!(out.len(), k, "one output slot per lane");
        let osr = self.osr;

        // Pass 1: per-lane frame input through each lane's own chip.
        let mut all_settled = true;
        for (lane, frame) in frames.iter().enumerate() {
            match self.lanes[lane].chip_mut().fill_frame_input(
                frame.as_ref(),
                osr,
                &mut self.samples[lane],
            )? {
                Some(u) => {
                    self.settled[lane] = true;
                    self.const_in[lane] = u;
                }
                None => {
                    self.settled[lane] = false;
                    all_settled = false;
                }
            }
        }

        // Pass 2: all K modulators, per clock in lockstep.
        for b in &mut self.bits {
            b.clear();
        }
        if all_settled {
            // The hot path: no per-frame buffer of lane inputs at all.
            self.modulators
                .step_block_constant(osr, &self.const_in, &mut self.bits);
        } else {
            // Mixed settled/settling lanes (scan transients): build the
            // borrowed input list per call. Allocates, but only while
            // some mux is settling.
            let inputs: Vec<LaneInput> = (0..k)
                .map(|lane| {
                    if self.settled[lane] {
                        LaneInput::Constant(self.const_in[lane])
                    } else {
                        LaneInput::Samples(&self.samples[lane])
                    }
                })
                .collect();
            self.modulators.step_block(osr, &inputs, &mut self.bits);
        }

        // Pass 3: per-lane decimation through the shared scratch, plus
        // the per-frame accounting the scalar push_frame does.
        for (lane, sys) in self.lanes.iter_mut().enumerate() {
            self.scratch.out.clear();
            sys.decimator_mut()
                .process_packed_into(&self.bits[lane], &mut self.scratch.out);
            let y = match self.scratch.out[..] {
                [y] => y,
                _ => {
                    return Err(SystemError::Config(
                        "decimator phase misaligned with frame size".into(),
                    ))
                }
            };
            sys.note_banked_frame(
                self.modulators.steps(lane),
                self.modulators.saturation_events(lane),
            );
            out[lane] = y;
        }
        Ok(())
    }

    /// Hands every modulator back to its system (exact state, including
    /// noise-stream positions) and ends banked operation. Called by
    /// `Drop` as well; use the explicit form when the borrowed systems
    /// are needed again immediately.
    pub fn release(mut self) {
        self.release_in_place();
    }

    fn release_in_place(&mut self) {
        if self.released {
            return;
        }
        self.released = true;
        for sys in &mut self.lanes {
            let m = self.modulators.retire_lane(0);
            sys.chip_mut().restore_modulator(m);
        }
    }
}

impl Drop for ReadoutBank<'_> {
    fn drop(&mut self) {
        self.release_in_place();
    }
}
