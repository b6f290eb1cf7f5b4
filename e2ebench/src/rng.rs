//! The benchmark's seeded source of choices (SplitMix64). Every input
//! the system receives is derived from the workload seed through it.

use tonos_physio::patient::PatientProfile;

/// SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(mix(seed ^ 0x7E57_0E2E))
    }

    /// An independent stream for sub-task `stream` (a thread, a
    /// session) — the same `(seed, stream)` always gives the same one.
    pub fn fork(&self, stream: u64) -> Rng {
        Rng(mix(self.0 ^ mix(stream.wrapping_add(0x9E37_79B9_7F4A_7C15))))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n ≥ 1`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// A patient drawn from the seeded mix of every stock profile.
    pub fn patient(&mut self) -> PatientProfile {
        let all = PatientProfile::all();
        let pick = all[self.below(all.len() as u64) as usize];
        pick.with_seed(self.next_u64())
    }
}
