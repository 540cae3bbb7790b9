//! Golden model bits: committed CRC-32s of the sealed bytes of four small
//! fixed-seed runs.
//!
//! Every kernel is bit-exact on every dispatch path (see `hdc::kernel`), so
//! a model is the same bytes whichever instruction set trained it.  This
//! suite turns that into a checked contract: CI runs it natively and under
//! `CYBERHD_FORCE_SCALAR=1`, and both must reproduce the constants below.
//!
//! A change that moves model bits on purpose updates the constant it moves
//! in the same diff and says why.  A change that moves them by accident —
//! a reassociated sum, a fused multiply-add, a reordered RNG draw — fails
//! here on every host.

use cyberhd_suite::prelude::*;
use std::path::PathBuf;

/// RBF dense `fit` with regeneration.
const RBF_DENSE: u32 = 0x2286_cfbf;
/// The same fit, sealed as a 1-bit deployment.
const RBF_B1: u32 = 0x2673_b6f0;
/// An open-set adaptive lane after a drift trip and recalibration: its
/// sealed snapshot followed by its recalibrated thresholds.
const ADAPTIVE_AFTER_TRIP: u32 = 0x9f0a_82a7;
/// A durable lane recovered from a torn WAL tail.
const DURABLE_TORN_TAIL: u32 = 0xa3e7_1120;
/// An n-gram (language-ID) detector.
const NGRAM: u32 = 0x9fd8_8f87;

/// A sealed frame without its CRC-32 trailer.  (The CRC of a whole frame is
/// the same constant for every frame, so the golden CRCs cover the bytes the
/// trailer covers.)
fn unsealed(frame: &[u8]) -> &[u8] {
    &frame[..frame.len() - 4]
}

fn assert_golden(what: &str, bytes: &[u8], expected: u32) {
    let actual = hdc::codec::crc32(bytes);
    assert_eq!(
        actual,
        expected,
        "{what}: sealed bytes CRC {actual:#010x}, golden {expected:#010x} (kernel path {})",
        hdc::kernel::active().isa()
    );
}

fn flows(samples: usize, seed: u64) -> Dataset {
    DatasetKind::NslKdd
        .generate(&SyntheticConfig::new(samples, seed).difficulty(1.2))
        .expect("synthetic generation")
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cyberhd_golden_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A drift monitor that trips within a few hundred flows.
fn touchy_monitor() -> DriftMonitorConfig {
    DriftMonitorConfig {
        window: 16,
        min_observations: 8,
        error_delta: 0.25,
        unknown_surge: 2.0,
        cooldown: 8,
    }
}

#[test]
fn rbf_fit_with_regeneration_dense_and_one_bit() {
    let data = flows(400, 0x601D);
    let builder =
        Detector::builder().dimension(256).retrain_epochs(4).regeneration_rate(0.2).seed(0x601D);
    let dense = builder.clone().train(&data).unwrap();
    let report = dense.model().expect("a dense detector keeps its model").report();
    assert!(report.regeneration.total_regenerated > 0, "the fit must regenerate");
    assert_golden("RBF dense", unsealed(&dense.to_bytes()), RBF_DENSE);
    let one_bit = builder.quantize(BitWidth::B1).train(&data).unwrap();
    assert_golden("RBF 1-bit", unsealed(&one_bit.to_bytes()), RBF_B1);
}

#[test]
fn adaptive_lane_after_a_drift_trip_and_recalibration() {
    let data = flows(600, 67);
    let v1 = Detector::builder()
        .dimension(128)
        .retrain_epochs(2)
        .regeneration_rate(0.1)
        .open_set(0.05)
        .seed(7)
        .train(&data)
        .unwrap();
    let config =
        AdaptiveConfig { monitor: touchy_monitor(), max_batch: 8, ..AdaptiveConfig::default() };
    let lane = AdaptiveLane::new("edge", v1, config).unwrap();
    // Calm traffic, then rotated labels: the error surge trips the monitor,
    // and the open-set adaptation recalibrates its thresholds.
    for (record, &label) in data.records().iter().zip(data.labels()).take(40) {
        lane.submit_labelled(record, label).unwrap();
    }
    lane.flush().unwrap();
    let classes = data.num_classes();
    for (record, &label) in data.records().iter().zip(data.labels()).skip(40).take(120) {
        lane.submit_labelled(record, (label + 1) % classes).unwrap();
    }
    lane.flush().unwrap();
    let stats = lane.stats();
    assert!(stats.monitor_trips >= 1 && stats.recalibrations >= 1, "{stats}");

    let mut bytes = unsealed(&lane.seal_snapshot().to_bytes()).to_vec();
    for threshold in lane.thresholds_snapshot().expect("the lane stays open-set") {
        bytes.extend_from_slice(&threshold.to_le_bytes());
    }
    assert_golden("adaptive lane", &bytes, ADAPTIVE_AFTER_TRIP);
}

#[test]
fn durable_lane_recovered_from_a_torn_wal_tail() {
    let data = flows(300, 61);
    let detector =
        Detector::builder().dimension(128).retrain_epochs(1).seed(3).train(&data).unwrap();
    let dir = temp_dir("torn");
    let config = DurableConfig {
        adaptive: AdaptiveConfig { max_batch: 8, retention: 32, ..AdaptiveConfig::default() },
        checkpoint_every: 64,
        keep_checkpoints: 2,
    };
    let lane = DurableLane::create(&dir, "t0", detector, config, None).unwrap();
    for (record, &label) in data.records().iter().zip(data.labels()).take(100) {
        lane.submit_labelled(record, label).unwrap();
    }
    lane.flush().unwrap();
    drop(lane);

    // Tear the log mid-record, as a crash during a write would.
    let wal = dir.join("wal.log");
    let bytes = std::fs::read(&wal).expect("the lane keeps its WAL in wal.log");
    std::fs::write(&wal, &bytes[..bytes.len() - 7]).unwrap();

    let (recovered, report) = DurableLane::recover(&dir, None).unwrap();
    assert!(report.truncated_bytes > 0 && report.events_replayed > 0, "{report:?}");
    let sealed = recovered.seal_snapshot().to_bytes();
    drop(recovered);
    std::fs::remove_dir_all(&dir).ok();
    assert_golden("durable lane", unsealed(&sealed), DURABLE_TORN_TAIL);
}

#[test]
fn ngram_detector() {
    let train = language_id::generate(400, 11).unwrap();
    let detector = Detector::builder()
        .encoder(EncoderKind::NGram)
        .ngram_order(3)
        .dimension(512)
        .retrain_epochs(2)
        .regeneration_rate(0.0)
        .seed(0xB00C)
        .train(&train)
        .unwrap();
    assert_golden("n-gram", unsealed(&detector.to_bytes()), NGRAM);
}
