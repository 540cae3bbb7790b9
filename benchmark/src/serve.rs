//! Serving section: the workload's sealed detector registered for 64 tenants
//! behind a `ShardedServeEngine`, driven by the load generator.  Every round
//! runs one window of each phase — two open-loop rates and the closed loop —
//! on a fresh engine; traced runs add the layer probes (timer, admission,
//! flush overhead, a third open-loop rate).
//!
//! The open-loop windows run the engine with its background flushers: the
//! deadline wheel and the flusher's wake-up are what their latencies measure.
//! The closed-loop window runs it caller-driven (`background_flush: false`,
//! the generator calls `poll()` when it has nothing to collect), so the peak
//! is the flows one thread pushes through submit → admission → lane → flush →
//! ticket → `try_take`.  With flushers the same window keeps two threads
//! busy, and what it then measures on the 2-vCPU bench host is how much of a
//! second core the host is handing out: 23k-37k flows/s from one minute to the
//! next on `zoo_language_id`, against 24k-25k caller-driven.

use crate::loadgen::{self, sorted_ns_percentile_ms, Mode, PhaseResult, SubmitFailure, Target};
use crate::stats::{highest_supported_percentile, lower_half_mean, median, percentile};
use crate::trace::{traced_and_untraced, Tracer};
use crate::workload::{Inputs, Spec, TENANTS};
use crate::{Checks, Metrics};
use cyberhd::serve::{DetectorRegistry, ServeConfig, ServeEngine, ServeError, ServeStats, Ticket};
use cyberhd::{
    AdmissionConfig, AdmissionController, Detector, ShardConfig, ShardedServeEngine, Verdict,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The serve bench's reference watermarks.
const SERVE: ServeConfig =
    ServeConfig { max_batch: 32, max_delay: Duration::from_millis(2), queue_capacity: 4096 };

/// A phase whose generator ran later than this at p99 measured the generator.
const GENERATOR_LATE_MS: f64 = 1.0;

/// Latency limit of the informative rate sweep.
const SLO_P99_MS: f64 = 10.0;

/// Flusher threads: one core stays with the generator, so the benchmark
/// never runs more busy threads than the machine has cores.
pub fn shard_count() -> usize {
    hdc::parallel::available_cores().saturating_sub(1).max(1)
}

/// A fresh engine over a fresh registry; `background_flush: false` leaves
/// deadline flushes to the caller's `poll()`.
fn fresh_engine(
    detector: &Detector,
    names: &[String],
    background_flush: bool,
) -> ShardedServeEngine {
    let registry = Arc::new(DetectorRegistry::new());
    for name in names {
        registry.register(name, detector.clone()).expect("fresh registry");
    }
    let config = ShardConfig {
        shards: shard_count(),
        serve: SERVE,
        admission: Some(AdmissionConfig::default()),
        background_flush,
        ..ShardConfig::default()
    };
    ShardedServeEngine::new(registry, config).expect("valid shard config")
}

/// The engine as the load generator sees it.  Tenant `t`'s `k`-th flow is
/// test record `(t × stride + k) mod n`, so tenants walk different parts of
/// the held-out set and every verdict has a known reference.
struct EngineTarget<'a> {
    engine: &'a ShardedServeEngine,
    names: &'a [String],
    records: &'a [Vec<f32>],
    reference: &'a [Verdict],
}

impl EngineTarget<'_> {
    fn row(&self, tenant: usize, record: usize) -> usize {
        (tenant * (self.records.len() / TENANTS) + record) % self.records.len()
    }
}

impl Target for EngineTarget<'_> {
    type Ticket = Ticket;

    fn submit(&self, tenant: usize, record: usize) -> Result<Ticket, SubmitFailure> {
        self.engine.submit(&self.names[tenant], &self.records[self.row(tenant, record)]).map_err(
            |e| match e {
                ServeError::Shed { .. } => SubmitFailure::Shed,
                ServeError::Backpressure { .. } => SubmitFailure::Backpressure,
                _ => SubmitFailure::Error,
            },
        )
    }

    fn try_take(&self, ticket: &Ticket) -> Result<Option<Verdict>, String> {
        self.engine.try_take(ticket).map_err(|e| e.to_string())
    }

    fn verify(&self, tenant: usize, record: usize, verdict: &Verdict) -> bool {
        self.reference[self.row(tenant, record)] == *verdict
    }

    fn idle(&self) -> bool {
        !self.engine.background_flush_active() && self.engine.poll() > 0
    }
}

/// One phase's windows, accumulated over the rounds.
#[derive(Default)]
struct Phase {
    /// Per-window latency percentiles, ms.
    p50_ms: Vec<f64>,
    p90_ms: Vec<f64>,
    p99_ms: Vec<f64>,
    /// Per-window seconds per collected flow in the closed loop's steady
    /// part, split by whether the tracer was recording.
    flow_s: [Vec<f64>; 2],
    /// Samples in the smallest window (what the percentiles rest on).
    min_samples: usize,
    /// How late the generator submitted: per-window p99, and the worst case.
    late_p99_ms: Vec<f64>,
    late_max_ms: f64,
    /// `submit` wall times and `try_take` hits of the recorded windows.
    submit_ns: Vec<u64>,
    recorded_hits: u64,
    attempted: u64,
    mismatched: u64,
    refused_or_lost: u64,
    stats: Option<ServeStats>,
    shed: u64,
    generator_stalls: u64,
    /// Whether every window held its rate (see [`sustained`]).
    sustained: bool,
}

impl Phase {
    fn new() -> Self {
        Self { min_samples: usize::MAX, sustained: true, ..Self::default() }
    }

    fn add(&mut self, result: PhaseResult, engine: &ShardedServeEngine, traced: bool) {
        let mut sorted = result.latency_ns.clone();
        sorted.sort_unstable();
        let latency_ms = |p| sorted_ns_percentile_ms(&sorted, p);
        let p99_ms = latency_ms(0.99);
        self.p50_ms.push(latency_ms(0.50));
        self.p90_ms.push(latency_ms(0.90));
        self.p99_ms.push(p99_ms);
        if result.collected_steady > 0 {
            self.flow_s[usize::from(traced)].push(result.steady_s / result.collected_steady as f64);
        }
        self.min_samples = self.min_samples.min(result.latency_ns.len());
        self.sustained &= sustained(&result, p99_ms);
        if traced {
            self.recorded_hits += result.try_take_hits;
        }
        self.attempted += result.attempted();
        self.mismatched += result.mismatched;
        self.refused_or_lost += result.failed() - result.mismatched;
        self.late_p99_ms.push(loadgen::ns_percentile_ms(&result.late_ns, 0.99));
        let late_max_ns = result.late_ns.iter().max().copied().unwrap_or(0);
        self.late_max_ms = self.late_max_ms.max(late_max_ns as f64 / 1e6);
        self.submit_ns.extend_from_slice(&result.submit_ns);
        if let Some(stats) = engine.fleet_stats() {
            match &mut self.stats {
                Some(total) => total.merge(&stats),
                None => self.stats = Some(stats),
            }
        }
        self.shed += engine.admission_stats().shed_total();
        self.generator_stalls += result.stalls;
    }

    /// The generator's p99 lateness, reduced over the windows like every
    /// other timing.
    fn late_p99_ms(&self) -> f64 {
        lower_half_mean(&self.late_p99_ms)
    }
}

/// Whether an open-loop window held its rate: p99 within the limit and the
/// last quarter's median latency not drifting away from the first's.
fn sustained(result: &PhaseResult, p99_ms: f64) -> bool {
    let n = result.latency_ns.len();
    if n < 8 || result.failed() > 0 {
        return false;
    }
    let quarter = n / 4;
    let first = loadgen::ns_percentile_ms(&result.latency_ns[..quarter], 0.5);
    let last = loadgen::ns_percentile_ms(&result.latency_ns[n - quarter..], 0.5);
    p99_ms <= SLO_P99_MS && last <= 2.0 * first + 1.0
}

/// The three phases every round runs a window of.
const LIGHT: usize = 0;
const LOADED: usize = 1;
const PEAK: usize = 2;

/// The serving section's state across the run's rounds.
pub struct Serve<'a> {
    spec: &'a Spec,
    inputs: &'a Inputs,
    names: Vec<String>,
    /// Every tenant's next record index: one deterministic flow sequence per
    /// tenant across all windows.
    cursors: Vec<usize>,
    /// Indexed by [`LIGHT`], [`LOADED`], [`PEAK`].
    phases: [Phase; 3],
    /// Engine construction per round, seconds — product set-up the timed
    /// windows leave out, charged to `setup_s`.
    pub setup_s: Vec<f64>,
    pub measured: Duration,
}

impl<'a> Serve<'a> {
    pub fn start(spec: &'a Spec, inputs: &'a Inputs) -> Self {
        Self {
            spec,
            inputs,
            names: (0..TENANTS).map(|t| format!("edge-{t:04}")).collect(),
            cursors: vec![0; TENANTS],
            phases: [Phase::new(), Phase::new(), Phase::new()],
            setup_s: Vec::new(),
            measured: Duration::ZERO,
        }
    }

    /// One window of `mode` on a fresh engine: what the generator measured,
    /// the engine (for its own statistics) and its construction time.
    fn window(
        &mut self,
        mode: Mode,
        duration: Duration,
        detector: &Detector,
        reference: &[Verdict],
        tracer: &mut Tracer,
    ) -> (PhaseResult, ShardedServeEngine, f64) {
        let built = Instant::now();
        let engine = fresh_engine(detector, &self.names, matches!(mode, Mode::Open { .. }));
        let construction_s = built.elapsed().as_secs_f64();
        let target = EngineTarget {
            engine: &engine,
            names: &self.names,
            records: self.inputs.test.records(),
            reference,
        };
        let result = loadgen::run_phase(
            &target,
            &self.inputs.schedule,
            &mut self.cursors,
            mode,
            duration,
            tracer,
        );
        (result, engine, construction_s)
    }

    /// One round: a window of each phase.  `round_s` is the round's share of
    /// `--seconds`; each phase takes its own share of that.
    pub fn step(
        &mut self,
        round: usize,
        round_s: f64,
        detector: &Detector,
        reference: &[Verdict],
        tracer: &mut Tracer,
    ) {
        let spec = self.spec;
        let span = tracer.begin("serve.round", round as u64);
        let mut construction = 0.0;
        for (phase, mode, share) in [
            (LIGHT, Mode::Open { rate_per_s: spec.light_rate }, spec.light_share),
            (LOADED, Mode::Open { rate_per_s: spec.loaded_rate }, spec.loaded_share),
            (PEAK, Mode::Closed { outstanding: spec.outstanding }, spec.peak_share),
        ] {
            let duration = Duration::from_secs_f64(round_s * share);
            self.measured += duration;
            let (result, engine, built_s) =
                self.window(mode, duration, detector, reference, tracer);
            self.phases[phase].add(result, &engine, tracer.enabled());
            construction += built_s;
        }
        self.setup_s.push(construction);
        tracer.end(span);
    }

    /// Seconds per flow at the closed loop's peak (recording on, recording
    /// off), for the trace-overhead ratio; equal when the run never recorded.
    pub fn peak_flow_s(&self) -> (f64, f64) {
        traced_and_untraced(&self.phases[PEAK].flow_s)
    }

    /// What a reader of the numbers should know: a generator that ran late,
    /// or windows too small to support the percentile they report.
    pub fn flags(&self) -> Vec<String> {
        let mut flags = Vec::new();
        for (name, phase) in [("light", &self.phases[LIGHT]), ("loaded", &self.phases[LOADED])] {
            let late_p99 = phase.late_p99_ms();
            if late_p99 > GENERATOR_LATE_MS {
                flags.push(format!("generator_late:{name}:p99={late_p99:.3}ms"));
            }
            if phase.generator_stalls > 0 {
                flags.push(format!("generator_stalled:{name}:{}", phase.generator_stalls));
            }
        }
        for (name, phase, p) in [
            ("serve_p99_ms", &self.phases[LIGHT], 0.99),
            ("serve_loaded_p90_ms", &self.phases[LOADED], 0.90),
        ] {
            // Report a percentile only from windows with ten samples beyond it.
            let supported = highest_supported_percentile(phase.min_samples).unwrap_or(0.0);
            if supported < p {
                flags.push(format!(
                    "thin_tail:{name}:window_samples={}:supports=p{}",
                    phase.min_samples,
                    supported * 100.0
                ));
            }
        }
        flags
    }

    pub fn finish(
        &mut self,
        round_s: f64,
        detector: &Detector,
        reference: &[Verdict],
        tracer: &mut Tracer,
        metrics: &mut Metrics,
        checks: &mut Checks,
    ) {
        metrics.set("serve_p50_ms", lower_half_mean(&self.phases[LIGHT].p50_ms));
        metrics.set("serve_p99_ms", lower_half_mean(&self.phases[LIGHT].p99_ms));
        metrics.set("serve_loaded_p90_ms", lower_half_mean(&self.phases[LOADED].p90_ms));
        let peak_flow_s: Vec<f64> = self.phases[PEAK].flow_s.concat();
        metrics.set("serve_peak_flows_per_s", 1.0 / lower_half_mean(&peak_flow_s));
        for (name, phase) in [
            ("light", &self.phases[LIGHT]),
            ("loaded", &self.phases[LOADED]),
            ("peak", &self.phases[PEAK]),
        ] {
            checks.attempted += phase.attempted;
            checks.record(format!("serve.{name}.verdicts_equal_detect_batch"), phase.mismatched);
            checks
                .record(format!("serve.{name}.flows_shed_refused_or_lost"), phase.refused_or_lost);
        }
        if !tracer.enabled() {
            return;
        }

        // Generator-side totals of the recorded windows, before the extra
        // phase and the probes add spans of the same names.
        let totals = tracer.totals();
        let layer = |name: &str| totals.get(name).copied().unwrap_or_default();
        let (submit, take) = (layer(loadgen::SUBMIT_SPAN), layer(loadgen::TRY_TAKE_SPAN));
        let phases = [&self.phases[LIGHT], &self.phases[LOADED], &self.phases[PEAK]];
        let submit_ns: Vec<u64> = phases.iter().flat_map(|p| p.submit_ns.iter().copied()).collect();
        let hits: u64 = phases.iter().map(|p| p.recorded_hits).sum();
        metrics.set("cyberhd.serve.shard.submit.busy_s", submit.self_s);
        metrics.set("cyberhd.serve.shard.submit.calls", submit.calls as f64);
        metrics.set(
            "cyberhd.serve.shard.submit.p99_us",
            loadgen::ns_percentile_ms(&submit_ns, 0.99) * 1e3,
        );
        metrics.set("cyberhd.serve.shard.try_take.busy_s", take.self_s);
        metrics.set("cyberhd.serve.shard.try_take.calls", take.calls as f64);
        metrics
            .set("cyberhd.serve.shard.try_take.hit_ratio", hits as f64 / take.calls.max(1) as f64);

        metrics.set("loadgen.light.late_p99_ms", self.phases[LIGHT].late_p99_ms());
        metrics.set("loadgen.light.late_max_ms", self.phases[LIGHT].late_max_ms);
        metrics.set("loadgen.loaded.late_p99_ms", self.phases[LOADED].late_p99_ms());
        metrics.set("loadgen.loaded.late_max_ms", self.phases[LOADED].late_max_ms);

        // The engine's own view: batches over the three phases, latency from
        // the light phase (the one `serve_p50_ms` comes from).
        let light_stats = self.phases[LIGHT].stats.clone().expect("light phase served flows");
        let mut fleet = light_stats.clone();
        for phase in [&self.phases[LOADED], &self.phases[PEAK]] {
            fleet.merge(phase.stats.as_ref().expect("phase served flows"));
        }
        let full = fleet
            .batch_size_histogram
            .iter()
            .find(|(size, _)| *size == SERVE.max_batch)
            .map_or(0, |(_, count)| *count);
        let engine_p50_ms = light_stats.p50_latency.as_secs_f64() * 1e3;
        metrics.set("cyberhd.serve.batches", fleet.batches as f64);
        metrics.set("cyberhd.serve.mean_batch", fleet.mean_batch_size());
        metrics.set("cyberhd.serve.full_batch_ratio", full as f64 / fleet.batches.max(1) as f64);
        metrics.set("cyberhd.serve.engine_p50_ms", engine_p50_ms);
        metrics.set("cyberhd.serve.engine_p99_ms", light_stats.p99_latency.as_secs_f64() * 1e3);
        metrics.set("cyberhd.serve.rejected", fleet.rejected as f64);
        metrics.set(
            "cyberhd.serve.collect_gap_p50_ms",
            lower_half_mean(&self.phases[LIGHT].p50_ms) - engine_p50_ms,
        );
        metrics.set("cyberhd.serve.loaded_p99_ms", lower_half_mean(&self.phases[LOADED].p99_ms));
        metrics.set(
            "cyberhd.serve.admission.shed",
            (self.phases[LIGHT].shed + self.phases[LOADED].shed + self.phases[PEAK].shed) as f64,
        );

        // A third open-loop rate above `loaded`, for the informative sweep:
        // one window twice as long as a round's `loaded` window.
        let over_rate = self.spec.loaded_rate * 1.6;
        let mut over = Phase::new();
        let span = tracer.begin("serve.over", 0);
        let duration = Duration::from_secs_f64(round_s * self.spec.loaded_share * 2.0);
        let (result, engine, _) = self.window(
            Mode::Open { rate_per_s: over_rate },
            duration,
            detector,
            reference,
            tracer,
        );
        over.add(result, &engine, true);
        tracer.end(span);
        checks.attempted += over.attempted;
        let slo_rate = [
            (over_rate, over.sustained),
            (self.spec.loaded_rate, self.phases[LOADED].sustained),
            (self.spec.light_rate, self.phases[LIGHT].sustained),
        ]
        .into_iter()
        .find(|(_, held)| *held)
        .map_or(0.0, |(rate, _)| rate);
        metrics.set("cyberhd.serve.slo_rate_per_s", slo_rate);

        self.probe_flush_overhead(detector, tracer, metrics);
        self.probe_timer(detector, tracer, metrics);
        self.probe_admission(tracer, metrics);
    }

    /// `cyberhd.serve.flush.overhead_ratio`: the synchronous single-shard
    /// engine (32 submits, one flush, 32 takes) against `detect_batch` on the
    /// same rows.
    fn probe_flush_overhead(
        &self,
        detector: &Detector,
        tracer: &mut Tracer,
        metrics: &mut Metrics,
    ) {
        const REPS: usize = 200;
        let rows = &self.inputs.test.records()[..SERVE.max_batch];
        let registry = Arc::new(DetectorRegistry::new());
        registry.register("probe", detector.clone()).expect("fresh registry");
        // max_batch above the probe's 32 rows, so the flush is the explicit one.
        let config = ServeConfig { max_batch: 2 * SERVE.max_batch, ..SERVE };
        let engine = ServeEngine::new(registry, config).expect("valid config");
        let span = tracer.begin("serve.probe.flush_overhead", 0);
        let (mut served, mut batched) = (Vec::with_capacity(REPS), Vec::with_capacity(REPS));
        for _ in 0..REPS {
            let start = Instant::now();
            let tickets: Vec<Ticket> =
                rows.iter().map(|row| engine.submit("probe", row).expect("probe submit")).collect();
            engine.flush("probe").expect("probe flush");
            for ticket in &tickets {
                black_box(engine.take(ticket).expect("flushed"));
            }
            served.push(start.elapsed().as_secs_f64());
            let start = Instant::now();
            black_box(detector.detect_batch(rows).expect("valid rows"));
            batched.push(start.elapsed().as_secs_f64());
        }
        tracer.end(span);
        metrics.set("cyberhd.serve.flush.overhead_ratio", median(&served) / median(&batched));
    }

    /// `cyberhd.serve.timer.overshoot_*`: a lone flow on an idle engine waits
    /// for its deadline; what it waits beyond `max_delay` plus a batch-of-one
    /// flush is the wheel's granularity and the flusher's wake-up.
    fn probe_timer(&self, detector: &Detector, tracer: &mut Tracer, metrics: &mut Metrics) {
        const PROBES: usize = 150;
        let records = self.inputs.test.records();
        let single: Vec<f64> = (0..32)
            .map(|i| {
                let start = Instant::now();
                black_box(detector.detect_batch(&records[i..=i]).expect("valid row"));
                start.elapsed().as_secs_f64()
            })
            .collect();
        let flush_one_ms = median(&single) * 1e3;
        let engine = fresh_engine(detector, &self.names, true);
        let span = tracer.begin("serve.probe.timer", 0);
        let mut overshoot_ms = Vec::with_capacity(PROBES);
        for (i, record) in records.iter().enumerate().take(PROBES) {
            let start = Instant::now();
            let tenant = &self.names[i % self.names.len()];
            let ticket = engine.submit(tenant, record).expect("idle engine");
            let verdict = loop {
                match engine.try_take(&ticket).expect("live ticket") {
                    Some(verdict) => break verdict,
                    None => std::hint::spin_loop(),
                }
            };
            black_box(verdict);
            let latency_ms = start.elapsed().as_secs_f64() * 1e3;
            overshoot_ms.push(latency_ms - SERVE.max_delay.as_secs_f64() * 1e3 - flush_one_ms);
        }
        tracer.end(span);
        overshoot_ms.sort_by(f64::total_cmp);
        metrics.set("cyberhd.serve.timer.overshoot_p50_ms", percentile(&overshoot_ms, 0.50));
        metrics.set("cyberhd.serve.timer.overshoot_p99_ms", percentile(&overshoot_ms, 0.99));
    }

    /// `cyberhd.serve.admission.admit.*`: the admit decision called directly.
    fn probe_admission(&self, tracer: &mut Tracer, metrics: &mut Metrics) {
        const CALLS: usize = 200_000;
        let controller =
            AdmissionController::new(AdmissionConfig::default()).expect("default policy");
        let start = Instant::now();
        for i in 0..CALLS {
            black_box(controller.admit(&self.names[i % self.names.len()], 0, start))
                .expect("idle shard admits");
        }
        let end = Instant::now();
        tracer.leaf("cyberhd.serve.admission.admit", 0, start, end, CALLS as u32);
        metrics.set("cyberhd.serve.admission.admit.busy_s", (end - start).as_secs_f64());
        metrics.set("cyberhd.serve.admission.admit.calls", CALLS as f64);
    }
}
