//! Streaming section: the same labelled event list through the serial
//! adaptive lane, the batched-feedback lane and the durable lane.  Every
//! round feeds each lane one window of events (one checkpoint period), then
//! kills the durable lane — dropped, no flush — and recovers it, so the lane
//! that finishes the run has crashed once per round and must still equal the
//! lane that never did.  A serial `OnlineDetector` replay is the reference
//! for the serial rule; traced runs also feed a standalone WAL writer and
//! drift monitor the same traffic.

use crate::stats::lower_half_mean;
use crate::trace::{traced_and_untraced, LayerTotals, Tracer};
use crate::workload::{Inputs, Spec, CHECKPOINT_EVERY, RECOVERY_TAIL, STREAM_BATCH};
use crate::{Checks, Metrics};
use cyberhd::serve::{DetectorRegistry, ServeResult, Ticket};
use cyberhd::{
    AdaptiveConfig, AdaptiveLane, Detector, DriftMonitor, DurableConfig, DurableLane,
    OnlineDetector, Verdict,
};
use hdc::rng::HdcRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TENANT: &str = "edge-stream";

/// Events per window: one checkpoint period of the durable lane, so every
/// window pays for exactly one checkpoint.
pub const WINDOW: usize = CHECKPOINT_EVERY as usize;

/// The lanes flush when the driver says so: watermarks sit at the queue
/// bound, and the driver flushes every [`STREAM_BATCH`] events, so submit
/// time and flush time separate cleanly.
fn lane_config(batched_feedback: bool) -> AdaptiveConfig {
    let defaults = AdaptiveConfig::default();
    AdaptiveConfig { max_batch: defaults.queue_capacity, batched_feedback, ..defaults }
}

fn registry() -> Arc<DetectorRegistry> {
    Arc::new(DetectorRegistry::new())
}

/// The three lanes reduced to what the driver loop calls.
trait Lane {
    fn submit_labelled(&self, record: &[f32], label: usize) -> ServeResult<Ticket>;
    fn flush(&self) -> ServeResult<usize>;
    fn take(&self, ticket: &Ticket) -> ServeResult<Verdict>;
}

impl Lane for AdaptiveLane {
    fn submit_labelled(&self, record: &[f32], label: usize) -> ServeResult<Ticket> {
        AdaptiveLane::submit_labelled(self, record, label)
    }
    fn flush(&self) -> ServeResult<usize> {
        AdaptiveLane::flush(self)
    }
    fn take(&self, ticket: &Ticket) -> ServeResult<Verdict> {
        AdaptiveLane::take(self, ticket)
    }
}

impl Lane for DurableLane {
    fn submit_labelled(&self, record: &[f32], label: usize) -> ServeResult<Ticket> {
        DurableLane::submit_labelled(self, record, label)
    }
    fn flush(&self) -> ServeResult<usize> {
        DurableLane::flush(self)
    }
    fn take(&self, ticket: &Ticket) -> ServeResult<Verdict> {
        DurableLane::take(self, ticket)
    }
}

/// What one lane produced so far.
#[derive(Default)]
struct LaneLog {
    /// Seconds per window, split by whether the tracer was recording.
    window_s: [Vec<f64>; 2],
    verdicts: Vec<Verdict>,
    failed: u64,
}

impl LaneLog {
    fn events_per_s(&self) -> f64 {
        WINDOW as f64 / lower_half_mean(&self.window_s.concat())
    }
}

/// submit_labelled × 64 → flush → take × 64 over `events`; returns the wall.
fn drive(
    lane: &impl Lane,
    inputs: &Inputs,
    events: std::ops::Range<usize>,
    log: &mut LaneLog,
    tracer: &mut Tracer,
) -> f64 {
    let records = &inputs.stream.records()[events.clone()];
    let labels = &inputs.stream.labels()[events.clone()];
    let mut tickets = Vec::with_capacity(STREAM_BATCH);
    let start = Instant::now();
    for (batch, (rows, truth)) in
        records.chunks(STREAM_BATCH).zip(labels.chunks(STREAM_BATCH)).enumerate()
    {
        let id = (events.start / STREAM_BATCH + batch) as u64;
        tracer.time("cyberhd.serve.adaptive.submit", id, || {
            for (record, label) in rows.iter().zip(truth) {
                match lane.submit_labelled(record, *label) {
                    Ok(ticket) => tickets.push(ticket),
                    Err(_) => log.failed += 1,
                }
            }
        });
        tracer.time("cyberhd.serve.adaptive.flush", id, || {
            log.failed += u64::from(lane.flush().is_err());
        });
        for ticket in tickets.drain(..) {
            match lane.take(&ticket) {
                Ok(verdict) => log.verdicts.push(verdict),
                Err(_) => log.failed += 1,
            }
        }
    }
    start.elapsed().as_secs_f64()
}

/// The adaptive lane's policy replayed serially on a plain `OnlineDetector`,
/// written out independently (monitor, reservoir sampling, post-trip
/// regeneration and recalibration at the lane's default constants) — the
/// reference computation for the serial rule.
struct SerialReplay {
    online: OnlineDetector,
    config: AdaptiveConfig,
    thresholds: Option<Vec<f32>>,
    monitor: DriftMonitor,
    reservoir: Vec<(Vec<f32>, usize)>,
    candidates: u64,
    /// `(correct, novel)` of every event, for the monitor probe.
    outcomes: Vec<(bool, bool)>,
}

impl SerialReplay {
    fn new(detector: Detector, config: AdaptiveConfig) -> Self {
        let thresholds = detector.thresholds().map(<[f32]>::to_vec);
        Self {
            online: detector.into_online().expect("dense artifact"),
            config,
            thresholds,
            monitor: DriftMonitor::new(config.monitor).expect("default monitor"),
            reservoir: Vec::new(),
            candidates: 0,
            outcomes: Vec::new(),
        }
    }

    fn step(&mut self, record: &[f32], label: usize, tracer: &mut Tracer) -> Verdict {
        if tracer.enabled() {
            // Pure: leaves the model as it was.
            tracer.time("cyberhd.online.predict", self.candidates, || {
                black_box(self.online.predict_scored(record).expect("valid event"));
            });
        }
        let (class, similarity) = tracer.time("cyberhd.online.observe", self.candidates, || {
            self.online.observe_scored(record, label).expect("valid event")
        });
        let novel = self.thresholds.as_ref().is_some_and(|t| similarity < t[class]);
        self.outcomes.push((class == label, novel));
        let tripped = self.monitor.record_labelled(class == label, novel);
        self.reservoir_note(record, label);
        if tripped
            && self.online.regenerate().is_ok()
            && self.thresholds.is_some()
            && !self.reservoir.is_empty()
        {
            let (records, labels): (Vec<Vec<f32>>, Vec<usize>) =
                self.reservoir.iter().cloned().unzip();
            self.thresholds = Some(
                self.online
                    .recalibrate_thresholds(&records, &labels, self.config.recalibration_quantile)
                    .expect("reservoir entries are valid records"),
            );
        }
        Verdict { class, similarity, novel }
    }

    /// Algorithm R with a per-candidate seeded draw.
    fn reservoir_note(&mut self, record: &[f32], label: usize) {
        let candidate = self.candidates;
        self.candidates += 1;
        if self.reservoir.len() < self.config.reservoir_capacity {
            self.reservoir.push((record.to_vec(), label));
            return;
        }
        let mut rng = HdcRng::seed_from(
            self.config.reservoir_seed ^ candidate.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let slot = rng.index(candidate as usize + 1);
        if slot < self.config.reservoir_capacity {
            self.reservoir[slot] = (record.to_vec(), label);
        }
    }
}

/// The streaming section's state across the run's rounds.
pub struct Stream<'a> {
    spec: &'a Spec,
    inputs: &'a Inputs,
    detector: Detector,
    dir: PathBuf,
    serial_lane: AdaptiveLane,
    batched_lane: AdaptiveLane,
    /// `None` only between a kill and a recovery that failed.
    durable_lane: Option<DurableLane>,
    serial: LaneLog,
    batched: LaneLog,
    durable: LaneLog,
    recover_s: Vec<f64>,
    recovered_wrong: u64,
    last_replayed: u64,
    /// Events every lane has consumed.
    consumed: usize,
    /// Lane construction, seconds — product set-up charged to `setup_s`.
    pub setup_s: f64,
    pub measured: Duration,
}

impl<'a> Stream<'a> {
    /// Builds the three lanes and feeds each the first [`RECOVERY_TAIL`]
    /// events untimed, so that after every later window the durable lane's
    /// last checkpoint is exactly that many events behind.
    pub fn start(
        spec: &'a Spec,
        inputs: &'a Inputs,
        detector: &Detector,
        wal_root: &Path,
        tracer: &mut Tracer,
    ) -> Self {
        let dir = wal_root.join("lane");
        let built = Instant::now();
        let lane = |batched| {
            AdaptiveLane::with_registry(TENANT, detector.clone(), lane_config(batched), registry())
                .expect("valid lane")
        };
        let (serial_lane, batched_lane) = (lane(false), lane(true));
        let durable_lane = DurableLane::create(
            &dir,
            TENANT,
            detector.clone(),
            DurableConfig {
                adaptive: lane_config(false),
                checkpoint_every: CHECKPOINT_EVERY,
                keep_checkpoints: 2,
            },
            Some(registry()),
        )
        .expect("fresh lane directory");
        let setup_s = built.elapsed().as_secs_f64();
        let mut stream = Self {
            spec,
            inputs,
            detector: detector.clone(),
            dir,
            serial_lane,
            batched_lane,
            durable_lane: Some(durable_lane),
            serial: LaneLog::default(),
            batched: LaneLog::default(),
            durable: LaneLog::default(),
            recover_s: Vec::new(),
            recovered_wrong: 0,
            last_replayed: 0,
            consumed: 0,
            setup_s,
            measured: Duration::ZERO,
        };
        let recording = tracer.enabled();
        tracer.set_enabled(false);
        stream.feed(RECOVERY_TAIL, tracer);
        tracer.set_enabled(recording);
        stream
    }

    /// Feeds the next `events` events to every lane; returns each lane's wall
    /// (zero for a durable lane that an earlier recovery failed to bring back).
    fn feed(&mut self, events: usize, tracer: &mut Tracer) -> [f64; 3] {
        let range = self.consumed..self.consumed + events;
        self.consumed = range.end;
        // Lane-side spans are recorded for the serial lane only.
        let serial = drive(&self.serial_lane, self.inputs, range.clone(), &mut self.serial, tracer);
        let recording = tracer.enabled();
        tracer.set_enabled(false);
        let batched =
            drive(&self.batched_lane, self.inputs, range.clone(), &mut self.batched, tracer);
        let durable = match &self.durable_lane {
            Some(lane) => drive(lane, self.inputs, range, &mut self.durable, tracer),
            None => {
                self.durable.failed += events as u64;
                0.0
            }
        };
        tracer.set_enabled(recording);
        [serial, batched, durable]
    }

    /// One round: a window through each lane, then kill and recover the
    /// durable one.
    pub fn step(&mut self, round: usize, tracer: &mut Tracer) {
        let span = tracer.begin("stream.round", round as u64);
        let traced = usize::from(tracer.enabled());
        let [serial, batched, durable] = self.feed(WINDOW, tracer);
        self.serial.window_s[traced].push(serial);
        self.batched.window_s[traced].push(batched);
        self.durable.window_s[traced].push(durable);
        self.measured += Duration::from_secs_f64(serial + batched + durable);

        // The process "dies" here: no flush, no shutdown hook.
        let sealed = self.durable_lane.take().map(|lane| lane.seal_snapshot().to_bytes());
        let recover = tracer.begin("cyberhd.durable.recover", round as u64);
        let start = Instant::now();
        let recovered = DurableLane::recover(&self.dir, Some(registry()));
        let took = start.elapsed();
        tracer.end(recover);
        self.recover_s.push(took.as_secs_f64());
        self.measured += took;
        match recovered {
            Ok((lane, report)) => {
                self.last_replayed = report.events_replayed;
                let same = Some(lane.seal_snapshot().to_bytes()) == sealed
                    && report.events_replayed == RECOVERY_TAIL as u64;
                self.recovered_wrong += u64::from(!same);
                self.durable_lane = Some(lane);
            }
            Err(_) => self.recovered_wrong += 1,
        }
        tracer.end(span);
    }

    /// Seconds one serial-lane window takes (recording on, recording off),
    /// for the trace-overhead ratio; equal when the run never recorded.
    pub fn serial_window_s(&self) -> (f64, f64) {
        traced_and_untraced(&self.serial.window_s)
    }

    pub fn finish(&mut self, tracer: &mut Tracer, metrics: &mut Metrics, checks: &mut Checks) {
        let events = self.consumed;
        let stats = self.serial_lane.stats();
        metrics.set("adaptive_events_per_s", self.serial.events_per_s());
        metrics.set("adaptive_batched_events_per_s", self.batched.events_per_s());
        metrics.set("durable_events_per_s", self.durable.events_per_s());
        metrics.set("recover_ms", lower_half_mean(&self.recover_s) * 1e3);
        metrics.set("stream_accuracy", stats.prequential_accuracy);
        // Lane-side submit/flush totals, before the replay adds its own spans.
        let lane_totals = tracer.totals();

        // The reference: a serial replay of the same events.
        let mut replay = SerialReplay::new(self.detector.clone(), lane_config(false));
        let replay_start = Instant::now();
        let mut verdict_mismatches = 0u64;
        let stream = &self.inputs.stream;
        for (i, (record, label)) in
            stream.records()[..events].iter().zip(stream.labels()).enumerate()
        {
            let want = replay.step(record, *label, tracer);
            verdict_mismatches += u64::from(self.serial.verdicts.get(i) != Some(&want));
        }
        let replay_wall = replay_start.elapsed().as_secs_f64();
        let replay_sealed = replay.online.seal_snapshot().to_bytes();
        let serial_sealed = self.serial_lane.seal_snapshot().to_bytes();
        let durable_sealed = self.durable_lane.as_ref().map(|l| l.seal_snapshot().to_bytes());

        checks.attempted += 3 * events as u64 + self.recover_s.len() as u64;
        checks.record("stream.serial_lane_events_failed", self.serial.failed);
        checks.record("stream.batched_lane_events_failed", self.batched.failed);
        checks.record("stream.durable_lane_events_failed", self.durable.failed);
        checks.record("stream.serial_verdicts_equal_serial_replay", verdict_mismatches);
        checks.record(
            "stream.serial_model_equals_serial_replay",
            u64::from(serial_sealed != replay_sealed),
        );
        checks.record(
            "stream.crashed_durable_model_equals_serial_lane",
            u64::from(durable_sealed.as_ref() != Some(&serial_sealed)),
        );
        checks.record("stream.recovered_model_equals_killed_lane", self.recovered_wrong);
        if self.spec.expect_trip {
            checks.record(
                "stream.shift_trips_and_publishes",
                u64::from(stats.monitor_trips == 0 || stats.publishes == 0),
            );
        }
        if !tracer.enabled() {
            return;
        }

        let lane = |name: &str| lane_totals.get(name).map_or(0.0, |t: &LayerTotals| t.self_s);
        metrics.set("cyberhd.serve.adaptive.submit.busy_s", lane("cyberhd.serve.adaptive.submit"));
        metrics.set("cyberhd.serve.adaptive.flush.busy_s", lane("cyberhd.serve.adaptive.flush"));
        metrics.set("cyberhd.serve.adaptive.trips", stats.monitor_trips as f64);
        metrics.set("cyberhd.serve.adaptive.adaptations", stats.adaptations as f64);
        metrics.set("cyberhd.serve.adaptive.regenerated_dims", stats.regenerated_dimensions as f64);
        metrics.set("cyberhd.serve.adaptive.recalibrations", stats.recalibrations as f64);
        metrics.set("cyberhd.serve.adaptive.publishes", stats.publishes as f64);
        metrics.set(
            "cyberhd.serve.adaptive.publish_p50_ms",
            stats.p50_publish_latency.as_secs_f64() * 1e3,
        );
        self.probes(&replay, replay_wall, tracer, metrics);
    }

    /// Traced runs only: the layers under the lanes, each on its own.
    fn probes(
        &self,
        replay: &SerialReplay,
        replay_wall: f64,
        tracer: &mut Tracer,
        metrics: &mut Metrics,
    ) {
        let events = self.consumed;

        // The drift monitor alone, over the stream's outcome sequence.
        let mut monitor =
            DriftMonitor::new(AdaptiveConfig::default().monitor).expect("default monitor");
        tracer.time("cyberhd.regeneration.monitor", 0, || {
            for &(correct, novel) in &replay.outcomes {
                black_box(monitor.record_labelled(correct, novel));
            }
        });

        // A standalone WAL writer fed the durable run's frame sizes at its
        // flush cadence: tag + event index + sequence number + label + record.
        let width = self.inputs.stream.records()[0].len();
        let frame = vec![0xA5u8; 1 + 8 + 8 + 8 + 8 + 4 * width];
        let mut writer =
            hdc::wal::Writer::create(self.dir.join("probe.wal")).expect("fresh probe log");
        let batches = events / STREAM_BATCH;
        let span = tracer.begin("hdc.wal.probe", 0);
        for batch in 0..batches {
            tracer.time("hdc.wal.append", batch as u64, || {
                for _ in 0..STREAM_BATCH {
                    writer.append(&frame).expect("append to probe log");
                }
            });
            tracer.time("hdc.wal.flush", batch as u64, || writer.flush().expect("sync probe log"));
        }
        tracer.end(span);
        let wal_bytes = writer.durable_len();
        drop(writer);

        // Recovery split: the log scan alone, against the whole recover call.
        let scan_start = Instant::now();
        black_box(hdc::wal::read_file(self.dir.join("wal.log")).is_ok());
        let scan_s = scan_start.elapsed().as_secs_f64();
        let checkpoint_bytes = newest_checkpoint_bytes(&self.dir);

        let totals: BTreeMap<&'static str, LayerTotals> = tracer.totals();
        let layer = |name: &str| totals.get(name).map_or(0.0, |t| t.self_s);
        // The per-event floor: the serial rule with no lane around it.  The
        // replay's wall includes the traced extra predict, so the floor is
        // the replay minus that.
        let (predict, observe) = (layer("cyberhd.online.predict"), layer("cyberhd.online.observe"));
        let serial_s: f64 = self.serial.window_s.concat().iter().sum();
        let durable_s: f64 = self.durable.window_s.concat().iter().sum();
        let timed_share = (events - RECOVERY_TAIL) as f64 / events as f64;
        metrics.set("cyberhd.online.predict.busy_s", predict);
        metrics.set("cyberhd.online.observe.busy_s", observe);
        metrics.set("cyberhd.online.update.busy_s", observe - predict);
        metrics.set("cyberhd.online.events", events as f64);
        metrics.set(
            "cyberhd.serve.adaptive.lane_overhead_s",
            serial_s - (replay_wall - predict) * timed_share,
        );
        metrics.set("cyberhd.regeneration.monitor.busy_s", layer("cyberhd.regeneration.monitor"));
        metrics.set("hdc.wal.append.busy_s", layer("hdc.wal.append"));
        metrics.set("hdc.wal.flush.busy_s", layer("hdc.wal.flush"));
        metrics.set("hdc.wal.frames", (batches * STREAM_BATCH) as f64);
        metrics.set("hdc.wal.fsyncs", batches as f64);
        metrics.set("hdc.wal.bytes", wal_bytes as f64);
        metrics.set("cyberhd.durable.overhead_s", durable_s - serial_s);
        metrics.set("cyberhd.durable.checkpoints", (1 + events as u64 / CHECKPOINT_EVERY) as f64);
        metrics.set("cyberhd.durable.checkpoint_bytes", checkpoint_bytes as f64);
        metrics.set("cyberhd.durable.recover.scan_s", scan_s);
        metrics.set("cyberhd.durable.recover.replay_s", lower_half_mean(&self.recover_s) - scan_s);
        metrics.set("cyberhd.durable.recover.events_replayed", self.last_replayed as f64);
    }
}

fn newest_checkpoint_bytes(dir: &Path) -> u64 {
    let mut checkpoints: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|ext| ext == "ckpt"))
                .collect()
        })
        .unwrap_or_default();
    checkpoints.sort();
    checkpoints.last().and_then(|p| std::fs::metadata(p).ok()).map_or(0, |m| m.len())
}
