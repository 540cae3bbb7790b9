//! Every metric the benchmark reports, by name, with its unit.
//! `BENCHMARK.json` lists the same names in the driver's schema, with each
//! metric's direction and bound and each workload's reason; a test keeps the
//! two in step.

/// A catalogued metric.  For a per-layer metric the layer (a module of the
/// repo, or the benchmark's own load generator) is the name's prefix.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn metric(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

const fn busy(name: &'static str) -> Metric {
    metric(name, "s")
}

const fn count(name: &'static str) -> Metric {
    metric(name, "count")
}

/// What a user of the system would see; measured by untraced runs.
pub const END_TO_END: [Metric; 15] = [
    metric("setup_s", "s"),
    metric("train_samples_per_s", "samples/s"),
    metric("detect_flows_per_s", "flows/s"),
    metric("detect_b1_flows_per_s", "flows/s"),
    metric("accuracy", "fraction"),
    metric("accuracy_b1", "fraction"),
    metric("serve_p50_ms", "ms"),
    metric("serve_p99_ms", "ms"),
    metric("serve_loaded_p90_ms", "ms"),
    metric("serve_peak_flows_per_s", "flows/s"),
    metric("adaptive_events_per_s", "events/s"),
    metric("adaptive_batched_events_per_s", "events/s"),
    metric("durable_events_per_s", "events/s"),
    metric("recover_ms", "ms"),
    metric("stream_accuracy", "fraction"),
];

/// Single layers, from the traced run.
pub const PER_LAYER: [Metric; 72] = [
    busy("nids_data.preprocess.busy_s"),
    count("nids_data.preprocess.rows"),
    busy("hdc.encoder.encode_batch.busy_s"),
    count("hdc.encoder.encode_batch.rows"),
    busy("hdc.encoder.encode_signs.busy_s"),
    busy("hdc.memory.similarities_batch.busy_s"),
    busy("hdc.binary.hamming.busy_s"),
    busy("cyberhd.trainer.fit.busy_s"),
    busy("cyberhd.trainer.encode.busy_s"),
    busy("cyberhd.trainer.update.busy_s"),
    count("cyberhd.trainer.epochs"),
    busy("cyberhd.regeneration.busy_s"),
    busy("cyberhd.regeneration.analyze.busy_s"),
    count("cyberhd.regeneration.dims_regenerated"),
    busy("cyberhd.regeneration.monitor.busy_s"),
    busy("cyberhd.detector.detect_batch.unattributed_s"),
    busy("cyberhd.detector.detect_b1.unattributed_s"),
    busy("cyberhd.detector.preprocess_fit.busy_s"),
    busy("cyberhd.detector.codec.to_bytes_s"),
    busy("cyberhd.detector.codec.from_bytes_s"),
    metric("cyberhd.detector.codec.artifact_bytes", "bytes"),
    metric("loadgen.light.late_p99_ms", "ms"),
    metric("loadgen.light.late_max_ms", "ms"),
    metric("loadgen.loaded.late_p99_ms", "ms"),
    metric("loadgen.loaded.late_max_ms", "ms"),
    busy("cyberhd.serve.shard.submit.busy_s"),
    count("cyberhd.serve.shard.submit.calls"),
    metric("cyberhd.serve.shard.submit.p99_us", "us"),
    busy("cyberhd.serve.shard.try_take.busy_s"),
    count("cyberhd.serve.shard.try_take.calls"),
    metric("cyberhd.serve.shard.try_take.hit_ratio", "ratio"),
    count("cyberhd.serve.batches"),
    metric("cyberhd.serve.mean_batch", "flows"),
    metric("cyberhd.serve.full_batch_ratio", "ratio"),
    metric("cyberhd.serve.engine_p50_ms", "ms"),
    metric("cyberhd.serve.engine_p99_ms", "ms"),
    count("cyberhd.serve.rejected"),
    metric("cyberhd.serve.collect_gap_p50_ms", "ms"),
    metric("cyberhd.serve.flush.overhead_ratio", "ratio"),
    metric("cyberhd.serve.loaded_p99_ms", "ms"),
    metric("cyberhd.serve.slo_rate_per_s", "flows/s"),
    metric("cyberhd.serve.timer.overshoot_p50_ms", "ms"),
    metric("cyberhd.serve.timer.overshoot_p99_ms", "ms"),
    busy("cyberhd.serve.admission.admit.busy_s"),
    count("cyberhd.serve.admission.admit.calls"),
    count("cyberhd.serve.admission.shed"),
    busy("cyberhd.online.predict.busy_s"),
    busy("cyberhd.online.observe.busy_s"),
    busy("cyberhd.online.update.busy_s"),
    count("cyberhd.online.events"),
    busy("cyberhd.serve.adaptive.submit.busy_s"),
    busy("cyberhd.serve.adaptive.flush.busy_s"),
    busy("cyberhd.serve.adaptive.lane_overhead_s"),
    count("cyberhd.serve.adaptive.trips"),
    count("cyberhd.serve.adaptive.adaptations"),
    count("cyberhd.serve.adaptive.regenerated_dims"),
    count("cyberhd.serve.adaptive.recalibrations"),
    count("cyberhd.serve.adaptive.publishes"),
    metric("cyberhd.serve.adaptive.publish_p50_ms", "ms"),
    busy("hdc.wal.append.busy_s"),
    busy("hdc.wal.flush.busy_s"),
    count("hdc.wal.frames"),
    count("hdc.wal.fsyncs"),
    metric("hdc.wal.bytes", "bytes"),
    busy("cyberhd.durable.overhead_s"),
    count("cyberhd.durable.checkpoints"),
    metric("cyberhd.durable.checkpoint_bytes", "bytes"),
    busy("cyberhd.durable.recover.scan_s"),
    busy("cyberhd.durable.recover.replay_s"),
    count("cyberhd.durable.recover.events_replayed"),
    metric("benchmark.trace_overhead_ratio", "ratio"),
    metric("benchmark.measured_s", "s"),
];

/// The unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name).map(|m| m.unit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use crate::workload::WORKLOADS;

    fn name_is_valid(name: &str) -> bool {
        name.len() <= 64
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_is_valid(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_used_once() {
        let mut seen = std::collections::BTreeSet::new();
        let all = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| (m.name, m.unit))
            .chain(WORKLOADS.iter().map(|w| (w.name, "count")));
        for (name, unit) in all {
            assert!(name_is_valid(name), "{name}");
            assert!(unit_is_valid(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} is used twice");
        }
    }

    /// `BENCHMARK.json` is written by hand in the driver's schema; this keeps
    /// it within the driver's limits and equal to what the program reports.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        let text_of = |entry: &Value, key: &str| {
            entry.get(key).and_then(Value::as_str).map(str::to_string).unwrap_or_default()
        };

        let workloads = doc.get("workloads").unwrap().as_arr().unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (entry, spec) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(entry.as_obj().unwrap().len(), 2, "{}", spec.name);
            assert_eq!(text_of(entry, "name"), spec.name);
            let why = text_of(entry, "why");
            assert!(!why.is_empty() && why.chars().count() <= 200 && !why.contains('\n'));
        }

        let end_to_end = doc.get("end_to_end").unwrap().as_arr().unwrap();
        assert_eq!(end_to_end.len(), END_TO_END.len());
        let mut bounds = Vec::new();
        for (entry, metric) in end_to_end.iter().zip(END_TO_END) {
            assert_eq!(entry.as_obj().unwrap().len(), 4, "{}", metric.name);
            assert_eq!(text_of(entry, "name"), metric.name);
            assert_eq!(text_of(entry, "unit"), metric.unit);
            assert!(matches!(text_of(entry, "better").as_str(), "higher" | "lower"));
            let bound = entry.get("bound").and_then(Value::as_f64).expect("a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", metric.name);
            bounds.push(bound);
        }
        // The set-up time is required, lower is better, and its bound is the largest.
        let setup = &end_to_end[0];
        assert_eq!(text_of(setup, "name"), "setup_s");
        assert_eq!(
            (text_of(setup, "unit"), text_of(setup, "better")),
            ("s".into(), "lower".into())
        );
        assert!(bounds.iter().all(|&b| b <= bounds[0]));

        let per_layer = doc.get("per_layer").unwrap().as_arr().unwrap();
        assert_eq!(per_layer.len(), PER_LAYER.len());
        assert!(per_layer.len() <= 128);
        for (entry, metric) in per_layer.iter().zip(PER_LAYER) {
            assert_eq!(entry.as_obj().unwrap().len(), 3, "{}", metric.name);
            assert_eq!(text_of(entry, "name"), metric.name);
            assert_eq!(text_of(entry, "unit"), metric.unit);
            assert!(matches!(text_of(entry, "better").as_str(), "higher" | "lower"));
        }

        let paths: Vec<&str> =
            doc.get("paths").unwrap().as_arr().unwrap().iter().filter_map(Value::as_str).collect();
        assert_eq!(paths, ["benchmark"]);
        let seconds = doc.get("run_seconds").and_then(Value::as_u64).unwrap();
        assert!((1..=60).contains(&seconds));
        assert_eq!(seconds as f64, crate::DEFAULT_SECONDS);
    }
}
