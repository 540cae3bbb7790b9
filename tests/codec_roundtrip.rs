//! Property-style fuzz of the `hdc::codec` persistence layer.
//!
//! The codec is the trust boundary of every deployed artifact: bytes
//! arrive over the wire (`DetectorRegistry::swap_from_bytes`) or from
//! disk, and a malformed stream must **fail with an error — never panic,
//! never allocate unboundedly, never mis-decode** into a silently wrong
//! model.  This suite pins that contract three ways:
//!
//! 1. **Round trips** — every persistable struct (detector artifacts of
//!    all artifact shapes, schemas, preprocessors, encoders, class
//!    memories, quantized hypervectors) re-serializes to the exact same
//!    bytes across randomized shapes, and the reloaded artifact reproduces
//!    verdicts bit for bit.
//! 2. **Targeted corruption** — truncations at every prefix length,
//!    flipped magic/version bytes and corrupted length fields all return
//!    errors.
//! 3. **Random corruption / random input** — seeded storage faults from
//!    [`fault_inject::disk::DiskFaultInjector`] (byte flips, truncations,
//!    torn writes) and arbitrary byte soup through the `Reader`
//!    primitives never panic (a panic fails the test by construction).

use cyberhd::model::AnyEncoder;
use cyberhd_suite::prelude::*;
use hdc::codec::{Reader, Writer};
use hdc::rng::HdcRng;
use hdc::QuantizedHypervector;

fn dataset(kind: DatasetKind, samples: usize, seed: u64) -> Dataset {
    kind.generate(&SyntheticConfig::new(samples, seed).difficulty(1.2))
        .expect("synthetic generation")
}

/// One detector per artifact shape at a randomized dimension.
fn shaped_detectors(rng: &mut HdcRng) -> Vec<(String, Detector, Dataset)> {
    let mut artifacts = Vec::new();
    for (i, kind) in DatasetKind::ALL.into_iter().enumerate() {
        let data = dataset(kind, 250, 100 + i as u64);
        let dim = 48 + 16 * rng.index(6); // 48..=128
        let builder = Detector::builder().dimension(dim).retrain_epochs(1).seed(7 + i as u64);
        let shapes: Vec<(String, Detector)> = match i % 4 {
            0 => vec![
                ("dense".into(), builder.clone().train(&data).unwrap()),
                ("open_set".into(), builder.clone().open_set(0.05).train(&data).unwrap()),
            ],
            1 => vec![("b1".into(), builder.clone().quantize(BitWidth::B1).train(&data).unwrap())],
            2 => vec![("b2".into(), builder.clone().quantize(BitWidth::B2).train(&data).unwrap())],
            _ => vec![("online".into(), builder.clone().online().train(&data).unwrap())],
        };
        for (shape, detector) in shapes {
            artifacts.push((format!("{kind:?}/{shape}/dim{dim}"), detector, data.clone()));
        }
    }
    artifacts
}

#[test]
fn detector_artifacts_reserialize_identically_and_reproduce_verdicts() {
    let mut rng = HdcRng::seed_from(0xC0DEC);
    for (label, detector, data) in shaped_detectors(&mut rng) {
        let bytes = detector.to_bytes();
        let loaded = Detector::from_bytes(&bytes).unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(loaded.to_bytes(), bytes, "{label}: reserialization must be byte-identical");
        assert_eq!(loaded.info(), detector.info(), "{label}");
        for record in data.records().iter().take(20) {
            let original = detector.detect(record).unwrap();
            let replayed = loaded.detect(record).unwrap();
            assert_eq!(replayed.class, original.class, "{label}");
            assert_eq!(
                replayed.similarity.to_bits(),
                original.similarity.to_bits(),
                "{label}: loaded artifacts must reproduce similarities bit for bit"
            );
            assert_eq!(replayed.novel, original.novel, "{label}");
        }
    }
}

/// Re-seals the CRC-32 trailer of an edited artifact, so the edit reaches
/// the parser instead of failing the checksum.
fn reseal(bytes: &mut [u8]) {
    let at = bytes.len() - 4;
    let crc = hdc::codec::crc32(&bytes[..at]);
    bytes[at..].copy_from_slice(&crc.to_le_bytes());
}

/// Swaps the "no thresholds" flag that ends a closed-set artifact's payload
/// for a threshold trailer carrying `thresholds`, and re-seals the result.
fn with_threshold_trailer(closed_set: &[u8], thresholds: &[f32]) -> Vec<u8> {
    let flag_at = closed_set.len() - 5;
    assert_eq!(closed_set[flag_at], 0, "a closed-set payload ends with a false threshold flag");
    let mut w = Writer::new();
    w.bytes(&closed_set[..flag_at]);
    w.bool(true);
    w.f32_slice(thresholds);
    w.u32(0);
    let mut bytes = w.into_bytes();
    reseal(&mut bytes);
    bytes
}

#[test]
fn stitched_artifacts_are_rejected_past_the_checksum() {
    let data = dataset(DatasetKind::NslKdd, 200, 11);
    let builder = Detector::builder().dimension(48).retrain_epochs(1).seed(5);
    let dense = builder.clone().train(&data).unwrap();
    let b1 = builder.quantize(BitWidth::B1).train(&data).unwrap();
    let (dense_bytes, b1_bytes) = (dense.to_bytes(), b1.to_bytes());
    let classes = dense.num_classes();
    let rejects = |bytes: &[u8], expected: &str| match Detector::from_bytes(bytes) {
        Ok(_) => panic!("a stitched artifact loaded; expected {expected:?}"),
        Err(err) => assert!(err.to_string().contains(expected), "expected {expected:?}, got {err}"),
    };

    // Control: a well-formed trailer stitched on by the helper loads as the
    // open-set artifact `with_thresholds` seals.
    let thresholds = vec![0.25; classes];
    let stitched = with_threshold_trailer(&dense_bytes, &thresholds);
    let open = Detector::from_bytes(&stitched).unwrap();
    assert_eq!(stitched, dense.with_thresholds(thresholds.clone()).unwrap().to_bytes());
    assert_eq!(open.thresholds(), Some(thresholds.as_slice()));

    rejects(&with_threshold_trailer(&b1_bytes, &thresholds), "thresholds on a quantized engine");
    rejects(
        &with_threshold_trailer(&dense_bytes, &thresholds[1..]),
        &format!("{} thresholds for {classes} classes", classes - 1),
    );
    let mut nan = thresholds.clone();
    nan[classes - 1] = f32::NAN;
    rejects(&with_threshold_trailer(&dense_bytes, &nan), "not a finite similarity");

    // Both artifacts carry the same preprocessor and config, so the first
    // byte where they differ is the engine tag.
    let tag_at = dense_bytes.iter().zip(&b1_bytes).position(|(a, b)| a != b).unwrap();
    assert_eq!((dense_bytes[tag_at], b1_bytes[tag_at]), (0, 1));
    let mut unknown = dense_bytes.clone();
    unknown[tag_at] = 2;
    reseal(&mut unknown);
    rejects(&unknown, "engine tag 2");
}

#[test]
fn every_truncation_errors_and_magic_version_flips_are_rejected() {
    let data = dataset(DatasetKind::NslKdd, 200, 3);
    let detector = Detector::builder().dimension(48).retrain_epochs(1).train(&data).unwrap();
    let bytes = detector.to_bytes();

    // Every strict prefix must fail: either the parse hits EOF, or a
    // "complete" parse would have consumed bytes the prefix does not hold.
    for n in 0..bytes.len() {
        assert!(
            Detector::from_bytes(&bytes[..n]).is_err(),
            "truncation to {n}/{} bytes must not decode",
            bytes.len()
        );
    }

    // Any single-byte change to the magic tag or the format version must
    // be rejected (bytes 0..4 magic, 4..8 version).
    for index in 0..8 {
        for flip in [0x01u8, 0x80, 0xFF] {
            let mut corrupt = bytes.clone();
            corrupt[index] ^= flip;
            assert!(
                Detector::from_bytes(&corrupt).is_err(),
                "flipping byte {index} with {flip:#x} must be rejected"
            );
        }
    }

    // Trailing garbage is rejected too (the reader demands exhaustion).
    let mut trailing = bytes.clone();
    trailing.extend_from_slice(&[0, 1, 2]);
    assert!(Detector::from_bytes(&trailing).is_err());
}

#[test]
fn corrupted_length_fields_fail_before_allocating() {
    let data = dataset(DatasetKind::UnswNb15, 200, 5);
    let detector = Detector::builder().dimension(48).retrain_epochs(1).train(&data).unwrap();
    let mut bytes = detector.to_bytes();
    // The first length field is the schema-name prefix at offset 8 (magic
    // + version).  A huge declared length must fail the up-front size
    // guard instead of allocating; re-sealing the checksum is what lets the
    // bytes get past the CRC check to that guard.
    for b in &mut bytes[8..16] {
        *b = 0xFF;
    }
    reseal(&mut bytes);
    let err = Detector::from_bytes(&bytes).unwrap_err().to_string();
    assert!(err.contains(&format!("needed {} bytes", u64::MAX)), "{err}");

    // The same guard at the primitive level: a vector whose declared
    // element count cannot fit the remaining bytes fails before any
    // element is read.
    let mut w = Writer::new();
    w.usize(usize::MAX / 16);
    w.bytes(&[0u8; 64]);
    let soup = w.into_bytes();
    assert!(Reader::new(&soup).f32_vec().is_err());
    assert!(Reader::new(&soup).f64_vec().is_err());
    assert!(Reader::new(&soup).i32_vec().is_err());
    assert!(Reader::new(&soup).str().is_err());
}

#[test]
fn random_single_byte_corruption_never_panics() {
    let data = dataset(DatasetKind::CicIds2017, 200, 7);
    let detector = Detector::builder().dimension(48).retrain_epochs(1).train(&data).unwrap();
    let bytes = detector.to_bytes();
    let mut faults = DiskFaultInjector::new(0xF1177);
    let mut decoded_ok = 0usize;
    for _ in 0..400 {
        let mut corrupt = bytes.clone();
        faults.flip_byte(&mut corrupt).expect("artifact is non-empty");
        // The v2 CRC trailer catches every single-bit flip over the
        // checksummed span; only flips landing in the trailer itself can
        // fail differently (a checksum mismatch either way).  No panic,
        // and nothing corrupted may silently decode.
        if Detector::from_bytes(&corrupt).is_ok() {
            decoded_ok += 1;
        }
    }
    assert_eq!(decoded_ok, 0, "the artifact checksum must reject every single-bit corruption");
}

#[test]
fn random_storage_faults_never_panic_and_never_silently_decode() {
    let data = dataset(DatasetKind::CicIds2018, 200, 9);
    let detector = Detector::builder().dimension(48).retrain_epochs(1).train(&data).unwrap();
    let bytes = detector.to_bytes();
    let mut faults = DiskFaultInjector::new(0xD15C);
    for trial in 0..200 {
        let mut corrupt = bytes.clone();
        match faults.corrupt(&mut corrupt) {
            DiskFault::None => unreachable!("artifact is non-empty"),
            // Truncation removes at least a byte; flips are caught by the
            // CRC trailer.  Both must yield a defined error.
            DiskFault::Truncated(_) | DiskFault::FlippedByte(_) => {
                assert!(
                    Detector::from_bytes(&corrupt).is_err(),
                    "trial {trial}: a storage fault decoded as a valid artifact"
                );
            }
        }
        // A torn re-write (old artifact + partial new artifact) is what a
        // crashed save-over looks like; it must be rejected too.
        let mut torn = bytes.clone();
        faults.torn_write(&mut torn, &bytes);
        if torn.len() != bytes.len() {
            assert!(
                Detector::from_bytes(&torn).is_err(),
                "trial {trial}: a torn append decoded as a valid artifact"
            );
        }
    }
}

#[test]
fn reader_primitives_never_panic_on_arbitrary_byte_soup() {
    let mut rng = HdcRng::seed_from(0x50E9);
    for trial in 0..200 {
        let len = rng.index(257);
        let soup: Vec<u8> = (0..len).map(|_| rng.index(256) as u8).collect();
        let mut r = Reader::new(&soup);
        // A random op sequence over random bytes: every outcome is Ok or
        // Err, never a panic, and `remaining` stays consistent.
        for _ in 0..64 {
            let before = r.remaining();
            match rng.index(11) {
                0 => drop(r.u8()),
                1 => drop(r.u32()),
                2 => drop(r.u64()),
                3 => drop(r.usize()),
                4 => drop(r.i32()),
                5 => drop(r.f32()),
                6 => drop(r.f64()),
                7 => drop(r.bool()),
                8 => drop(r.str()),
                9 => drop(r.f32_vec()),
                _ => drop(r.take(rng.index(before + 2))),
            }
            assert!(r.remaining() <= before, "trial {trial}: reader went backwards");
        }
    }
}

#[test]
fn persistable_components_round_trip_with_randomized_shapes() {
    let mut rng = HdcRng::seed_from(0x511A9E5);
    for trial in 0..8u64 {
        // Class memories with random shapes and random contents.
        let classes = 2 + rng.index(5);
        let dim = 8 + rng.index(120);
        let memory = AssociativeMemory::from_class_hypervectors(
            (0..classes)
                .map(|_| {
                    Hypervector::from_vec((0..dim).map(|_| rng.normal(0.0, 1.0) as f32).collect())
                })
                .collect(),
        )
        .unwrap();
        let mut w = Writer::new();
        memory.write_to(&mut w);
        let bytes = w.into_bytes();
        let loaded = AssociativeMemory::read_from(&mut Reader::new(&bytes)).unwrap();
        let mut again = Writer::new();
        loaded.write_to(&mut again);
        assert_eq!(again.into_bytes(), bytes, "memory trial {trial}");
        assert!(Reader::new(&bytes[..bytes.len() - 1]).remaining() < bytes.len());
        assert!(AssociativeMemory::read_from(&mut Reader::new(&bytes[..bytes.len() / 2])).is_err());

        // Quantized hypervectors at every bitwidth.
        for width in BitWidth::ALL {
            let hv = Hypervector::from_vec((0..dim).map(|_| rng.normal(0.0, 2.0) as f32).collect());
            let quantized = QuantizedHypervector::quantize(&hv, width);
            let mut w = Writer::new();
            quantized.write_to(&mut w);
            let bytes = w.into_bytes();
            let loaded = QuantizedHypervector::read_from(&mut Reader::new(&bytes)).unwrap();
            assert_eq!(loaded.levels(), quantized.levels(), "{width} trial {trial}");
            assert_eq!(loaded.scale().to_bits(), quantized.scale().to_bits());
            let mut again = Writer::new();
            loaded.write_to(&mut again);
            assert_eq!(again.into_bytes(), bytes);
            assert!(QuantizedHypervector::read_from(&mut Reader::new(&bytes[..bytes.len() - 1]))
                .is_err());
        }

        // Schemas + fitted preprocessors over every dataset kind, and the
        // encoder family dispatcher.
        let kind = DatasetKind::ALL[rng.index(4)];
        let data = dataset(kind, 120, 40 + trial);
        let normalization =
            if rng.bernoulli(0.5) { Normalization::MinMax } else { Normalization::ZScore };
        let preprocessor = Preprocessor::fit(&data, normalization).unwrap();
        let mut w = Writer::new();
        preprocessor.write_to(&mut w);
        let bytes = w.into_bytes();
        let loaded = Preprocessor::read_from(&mut Reader::new(&bytes)).unwrap();
        let mut again = Writer::new();
        loaded.write_to(&mut again);
        assert_eq!(again.into_bytes(), bytes, "preprocessor {kind:?} trial {trial}");
        let record = data.records()[0].as_slice();
        assert_eq!(
            loaded.transform_record(record).unwrap(),
            preprocessor.transform_record(record).unwrap(),
            "reloaded preprocessors must transform bit-identically"
        );
        assert!(Preprocessor::read_from(&mut Reader::new(&bytes[..bytes.len() / 3])).is_err());

        let mut configs: Vec<CyberHdConfig> =
            [EncoderKind::Rbf, EncoderKind::IdLevel, EncoderKind::Record]
                .into_iter()
                .map(|encoder_kind| {
                    CyberHdConfig::builder(preprocessor.output_width(), data.num_classes())
                        .dimension(64)
                        .encoder(encoder_kind)
                        .regeneration_rate(0.0) // static encoders cannot regenerate
                        .seed(trial)
                        .build()
                        .unwrap()
                })
                .collect();
        // The symbolic family rides through the same tagged dispatcher,
        // with its extra config fields (order, alphabets) in the stream.
        configs.push(
            CyberHdConfig::builder(4 + rng.index(20), 2 + rng.index(6))
                .dimension(64)
                .encoder(EncoderKind::NGram)
                .ngram_order(1 + rng.index(3))
                .symbol_alphabets(vec![2 + rng.index(30)])
                .regeneration_rate(0.0)
                .seed(trial)
                .build()
                .unwrap(),
        );
        let columns = 2 + rng.index(6);
        let alphabets: Vec<usize> =
            (0..columns).map(|_| if rng.bernoulli(0.4) { 0 } else { 2 + rng.index(9) }).collect();
        configs.push(
            CyberHdConfig::builder(columns, 2 + rng.index(6))
                .dimension(64)
                .encoder(EncoderKind::SymbolRecord)
                .symbol_alphabets(alphabets)
                .id_level_levels(4 + rng.index(12))
                .regeneration_rate(0.0)
                .seed(trial)
                .build()
                .unwrap(),
        );
        for config in configs {
            let encoder_kind = config.encoder;
            let encoder = AnyEncoder::from_config(&config).unwrap();
            let mut w = Writer::new();
            encoder.write_to(&mut w);
            let bytes = w.into_bytes();
            let loaded = AnyEncoder::read_from(&mut Reader::new(&bytes)).unwrap();
            let mut again = Writer::new();
            loaded.write_to(&mut again);
            assert_eq!(again.into_bytes(), bytes, "{encoder_kind:?} trial {trial}");
            assert!(AnyEncoder::read_from(&mut Reader::new(&bytes[..bytes.len() - 2])).is_err());
        }
    }
}

#[test]
fn symbolic_components_round_trip_and_survive_corruption_without_panicking() {
    let mut rng = HdcRng::seed_from(0x5E9_B01);
    let mut faults = DiskFaultInjector::new(0x5E9_FA17);
    for trial in 0..6u64 {
        let dim = 32 + 8 * rng.index(12);
        let alphabet = 2 + rng.index(30);
        let order = 1 + rng.index(3);
        let sequence_len = order + rng.index(20);
        let columns = 1 + rng.index(6);
        let alphabets: Vec<usize> =
            (0..columns).map(|_| if rng.bernoulli(0.4) { 0 } else { 2 + rng.index(9) }).collect();

        // Each symbolic component: serialize → reload → re-serialize must
        // be byte-identical, every strict truncation must error, and 200
        // seeded storage faults per component must never panic — if a
        // flip happens to decode at this CRC-less layer, the decoded
        // value must still re-serialize without panicking.
        let items = ItemMemory::new(alphabet, dim, 0x11 + trial).unwrap();
        let ngram = NGramEncoder::new(sequence_len, alphabet, order, dim, 0x22 + trial).unwrap();
        let record =
            SymbolRecordEncoder::new(&alphabets, dim, 4 + rng.index(12), 0x33 + trial).unwrap();

        let cases: Vec<(&str, Vec<u8>)> = vec![
            ("item_memory", {
                let mut w = Writer::new();
                items.write_to(&mut w);
                w.into_bytes()
            }),
            ("ngram", {
                let mut w = Writer::new();
                ngram.write_to(&mut w);
                w.into_bytes()
            }),
            ("symbol_record", {
                let mut w = Writer::new();
                record.write_to(&mut w);
                w.into_bytes()
            }),
        ];
        for (label, bytes) in &cases {
            let reload = |buf: &[u8]| -> Result<Vec<u8>, hdc::codec::CodecError> {
                let mut r = Reader::new(buf);
                let mut again = Writer::new();
                match *label {
                    "item_memory" => ItemMemory::read_from(&mut r)?.write_to(&mut again),
                    "ngram" => NGramEncoder::read_from(&mut r)?.write_to(&mut again),
                    _ => SymbolRecordEncoder::read_from(&mut r)?.write_to(&mut again),
                }
                Ok(again.into_bytes())
            };
            let roundtripped = reload(bytes).unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(&roundtripped, bytes, "{label} trial {trial}: must be byte-identical");
            for n in 0..bytes.len() {
                assert!(
                    reload(&bytes[..n]).is_err(),
                    "{label} trial {trial}: truncation to {n} bytes must not decode"
                );
            }
            for _ in 0..200 {
                let mut corrupt = bytes.clone();
                match faults.corrupt(&mut corrupt) {
                    DiskFault::None => unreachable!("component streams are non-empty"),
                    DiskFault::Truncated(_) | DiskFault::FlippedByte(_) => {
                        let _ = reload(&corrupt); // must not panic
                    }
                }
            }
        }
    }
}
