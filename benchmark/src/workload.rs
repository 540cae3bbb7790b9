//! The four workloads: what each one feeds the system.  Why each exists is
//! recorded in `BENCHMARK.json` and the README; one line of it is repeated
//! above each entry below.
//!
//! Every workload drives the same pipeline — train a detector, detect
//! offline (dense and 1-bit), serve it under open- and closed-loop load,
//! stream labelled events through the adaptive and durable lanes, recover —
//! so every end-to-end metric is measured on every workload.  A workload
//! fixes the detector (data, encoder, dimension, training schedule), the
//! traffic, and where the run's time goes.

use cyberhd::{DetectorBuilder, EncoderKind};
use nids_data::datasets::language_id;
use nids_data::synth::{self, SyntheticConfig};
use nids_data::{DataError, Dataset, DatasetKind, DriftPhase, DriftStream};

use crate::loadgen::zipf_schedule;

/// Tenants the serving phases spread flows over, and the skew of the spread.
pub const TENANTS: usize = 64;
pub const ZIPF_EXPONENT: f64 = 1.1;

/// Events per explicit lane flush in the streaming section.
pub const STREAM_BATCH: usize = 64;

/// `checkpoint_every` of the durable lane, and the post-checkpoint tail every
/// recovery replays (event counts are `768 + rounds × 1024`).
pub const CHECKPOINT_EVERY: u64 = 1024;
pub const RECOVERY_TAIL: usize = 768;

/// Rounds of a full-scale run (a smoke run takes two).
const ROUNDS: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    /// Every section and every correctness check at a fraction of the size;
    /// results are marked and refused by `compare`.
    Smoke,
}

impl Scale {
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DataKind {
    /// NSL-KDD-shaped synthetic flows (41 raw features, 5 classes).
    Nids { difficulty: f64 },
    /// Eight Markov languages, 64-character records.
    Language,
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub data: DataKind,
    pub dim: usize,
    pub epochs: usize,
    pub regeneration: f32,
    pub open_set: Option<f64>,
    pub train_rows: usize,
    pub test_rows: usize,
    /// Open-loop rates, flows/s.
    pub light_rate: f64,
    pub loaded_rate: f64,
    /// Closed-loop cap on flows in flight.
    pub outstanding: usize,
    /// Rounds the run is cut into.  Every round runs one window of every
    /// section, so each metric's samples span the whole run.
    pub rounds: usize,
    /// Whether the stream's second half must trip the drift monitor.
    pub expect_trip: bool,
    /// Shares of `--seconds` given to the sections whose length is a choice
    /// (the rest — the fits, the lanes, the recoveries — is fixed work).
    pub detect_share: f64,
    pub light_share: f64,
    pub loaded_share: f64,
    pub peak_share: f64,
}

pub const WORKLOADS: [Spec; 4] = [
    // The paper's Fig. 4 path: RBF encode dominates, trainer + regeneration at scale.
    Spec {
        name: "nids_offline",
        data: DataKind::Nids { difficulty: 2.4 },
        dim: 512,
        epochs: 20,
        regeneration: 0.2,
        open_set: None,
        train_rows: 6_000,
        test_rows: 80_000,
        light_rate: 10_000.0,
        loaded_rate: 25_000.0,
        outstanding: 2_048,
        rounds: ROUNDS,
        expect_trip: false,
        detect_share: 0.225,
        light_share: 0.125,
        loaded_share: 0.125,
        peak_share: 0.15,
    },
    // The same layers used differently: symbolic n-gram encode dominates, regeneration off.
    Spec {
        name: "zoo_language_id",
        data: DataKind::Language,
        dim: 2048,
        epochs: 3,
        regeneration: 0.0,
        open_set: None,
        train_rows: 10_000,
        test_rows: 8_000,
        light_rate: 4_000.0,
        loaded_rate: 8_000.0,
        outstanding: 2_048,
        rounds: ROUNDS,
        expect_trip: false,
        detect_share: 0.30,
        light_share: 0.125,
        loaded_share: 0.125,
        peak_share: 0.15,
    },
    // Sized around serving: queue wait, deadline wheel, flush orchestration, admission.
    Spec {
        name: "serve_open_loop",
        data: DataKind::Nids { difficulty: 2.4 },
        dim: 2048,
        epochs: 5,
        regeneration: 0.0,
        open_set: None,
        train_rows: 6_000,
        test_rows: 20_000,
        light_rate: 10_000.0,
        loaded_rate: 25_000.0,
        outstanding: 2_048,
        rounds: ROUNDS,
        expect_trip: false,
        detect_share: 0.15,
        light_share: 0.22,
        loaded_share: 0.22,
        peak_share: 0.11,
    },
    // Sized around the write side: test-then-train, drift trip -> publish, WAL, recovery.
    Spec {
        name: "adaptive_stream",
        data: DataKind::Nids { difficulty: 2.4 },
        dim: 2048,
        epochs: 5,
        regeneration: 0.1,
        open_set: Some(0.05),
        train_rows: 6_000,
        test_rows: 20_000,
        light_rate: 10_000.0,
        loaded_rate: 25_000.0,
        outstanding: 2_048,
        rounds: ROUNDS,
        expect_trip: true,
        detect_share: 0.15,
        light_share: 0.10,
        loaded_share: 0.10,
        peak_share: 0.10,
    },
];

pub fn find(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|spec| spec.name == name)
}

impl Spec {
    /// The spec at `scale`: smoke divides every size, keeping the shapes the
    /// checks rely on (a checkpoint plus a replay tail, whole stream batches).
    pub fn at(mut self, scale: Scale) -> Spec {
        if scale == Scale::Smoke {
            self.train_rows /= 8;
            self.test_rows = (self.test_rows / 20).max(2_000);
            self.rounds = 2;
            self.outstanding = 512;
            self.light_rate /= 2.0;
            self.loaded_rate /= 2.0;
        }
        self
    }

    /// Labelled events every lane consumes: an untimed lead of
    /// [`RECOVERY_TAIL`], then one checkpoint period per round.
    pub fn stream_events(&self) -> usize {
        RECOVERY_TAIL + self.rounds * CHECKPOINT_EVERY as usize
    }

    /// The detector every section of this workload uses.
    pub fn builder(&self, seed: u64) -> DetectorBuilder {
        let builder = cyberhd::Detector::builder()
            .dimension(self.dim)
            .retrain_epochs(self.epochs)
            .regeneration_rate(self.regeneration)
            .seed(seed);
        match self.data {
            DataKind::Nids { .. } => builder,
            DataKind::Language => builder.encoder(EncoderKind::NGram).ngram_order(3),
        }
    }
}

/// Everything a run feeds the system, generated from the seed alone.
#[derive(Debug)]
pub struct Inputs {
    pub train: Dataset,
    pub test: Dataset,
    /// Labelled events: a stationary first half, then an abrupt shift.
    pub stream: Dataset,
    /// Tenant of every serving flow, cycled by the phases.
    pub schedule: Vec<u16>,
}

/// SplitMix64 step: decorrelated sub-seeds from the one `--seed`.
fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Flows in the tenant schedule; phases that need more cycle it.
const SCHEDULE_LEN: usize = 1 << 18;

pub fn generate_inputs(spec: &Spec, seed: u64) -> Result<Inputs, DataError> {
    let events = spec.stream_events();
    let half = events / 2;
    let (train, test, stream) = match spec.data {
        DataKind::Nids { difficulty } => {
            let kind = DatasetKind::NslKdd;
            let (schema, profiles) = (kind.schema(), kind.profiles());
            let config = |rows, stream| {
                SyntheticConfig::new(rows, sub_seed(seed, stream)).difficulty(difficulty)
            };
            let classes = profiles.len();
            // The shift: the last attack class erupts, benign traffic
            // collapses, and everything gets noisier — strong enough that
            // the default drift monitor trips at least three times on each
            // of seeds 1..=24 at D=2048 (a milder shift left some seeds
            // without a trip).
            let phases = [
                DriftPhase::stationary(half, classes).difficulty(difficulty),
                DriftPhase::stationary(events - half, classes)
                    .scale_class(classes - 1, 40.0)
                    .scale_class(0, 0.2)
                    .difficulty(difficulty * 2.2),
            ];
            (
                synth::generate(&schema, &profiles, &config(spec.train_rows, 1))?,
                synth::generate(&schema, &profiles, &config(spec.test_rows, 2))?,
                DriftStream::generate(&schema, &profiles, &phases, sub_seed(seed, 3))?
                    .dataset()
                    .clone(),
            )
        }
        DataKind::Language => {
            let phases = [
                language_id::generate(half, sub_seed(seed, 3))?,
                language_id::generate_shifted(events - half, 0.6, sub_seed(seed, 4))?,
            ];
            (
                language_id::generate(spec.train_rows, sub_seed(seed, 1))?,
                language_id::generate(spec.test_rows, sub_seed(seed, 2))?,
                DriftStream::from_phase_datasets(&phases)?.dataset().clone(),
            )
        }
    };
    let schedule = zipf_schedule(TENANTS, ZIPF_EXPONENT, SCHEDULE_LEN, sub_seed(seed, 5));
    Ok(Inputs { train, test, stream, schedule })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_lengths_leave_a_checkpoint_and_a_replay_tail() {
        for scale in [Scale::Full, Scale::Smoke] {
            for spec in WORKLOADS.map(|spec| spec.at(scale)) {
                assert_eq!(spec.stream_events() % STREAM_BATCH, 0, "{}", spec.name);
                assert_eq!(RECOVERY_TAIL % STREAM_BATCH, 0);
                assert_eq!(
                    spec.stream_events() as u64 % CHECKPOINT_EVERY,
                    RECOVERY_TAIL as u64,
                    "{}",
                    spec.name
                );
                let shares =
                    spec.detect_share + spec.light_share + spec.loaded_share + spec.peak_share;
                assert!(shares < 1.0, "{} leaves no time for the fixed work", spec.name);
            }
        }
    }

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        let spec = WORKLOADS[3].at(Scale::Smoke);
        let a = generate_inputs(&spec, 11).unwrap();
        let b = generate_inputs(&spec, 11).unwrap();
        assert_eq!(a.train, b.train);
        assert_eq!(a.stream, b.stream);
        assert_eq!(a.schedule, b.schedule);
        let c = generate_inputs(&spec, 12).unwrap();
        assert_ne!(a.test, c.test);
    }
}
