//! The load generator: a seeded Zipf tenant schedule, an open loop that
//! sends on its schedule whatever the system does, and a closed loop that
//! keeps a fixed number of flows outstanding.
//!
//! One generator thread does everything: it submits every flow that is due,
//! harvests verdicts with `try_take`, round-robin over per-tenant FIFO queues
//! of outstanding tickets, and **sleeps** until the next flow is due or the
//! next poll.  Latency is timed from a flow's **due** time to the `try_take`
//! that returned its verdict, so a stall — the generator's own late wake-up
//! included — is charged to every flow it delays.
//!
//! It sleeps rather than spins because a spinning generator is a second busy
//! thread: on the 2-vCPU bench host that alone moved the open-loop p99 from
//! 3.4 ms to 5-11 ms for minutes at a time, whenever the host gave the two
//! vCPUs less than two cores.  A sleep returns 50-100 us late, which the
//! `loadgen.*.late_*` metrics report.

use crate::stats::percentile;
use crate::trace::Tracer;
use cyberhd::Verdict;
use hdc::rng::HdcRng;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Span names of the two calls the generator makes into the serving layer.
pub const SUBMIT_SPAN: &str = "cyberhd.serve.shard.submit";
pub const TRY_TAKE_SPAN: &str = "cyberhd.serve.shard.try_take";

/// How long after a phase's last submission an uncollected verdict counts as
/// failed.
const DRAIN_LIMIT: Duration = Duration::from_secs(5);

/// Pause after a whole round of `try_take` misses.  Polling takes each lane's
/// lock, the lock its flusher needs; without the pause the generator makes
/// millions of calls a second and measures its own contention.  The pause
/// (plus the sleep's overshoot) bounds what polling adds to a latency at
/// about a tenth of the 2 ms deadline.
const POLL_PAUSE_NS: u64 = 100_000;

/// A generator held up for longer than this (ten deadlines) was frozen by
/// the host, the system with it.  The open loop then resumes its schedule
/// from where it is instead of firing the backlog as one burst — which the
/// admission watermark would shed, failing operations for the host's hiccup —
/// and counts the stall.  Shorter delays, a blocking `submit` included, stay
/// on the books: flows are sent late and their latency runs from the due
/// time.
const STALL_NS: u64 = 20_000_000;

/// A seeded Zipf tenant schedule: rank `k` is drawn with probability
/// proportional to `1 / (k + 1)^exponent`.  The CDF is evaluated once in a
/// fixed order and sampled through the repo's deterministic [`HdcRng`], so a
/// seed always regenerates the same schedule bit for bit.
pub fn zipf_schedule(tenants: usize, exponent: f64, len: usize, seed: u64) -> Vec<u16> {
    assert!(tenants > 0 && tenants <= usize::from(u16::MAX), "tenant count out of range");
    let weights: Vec<f64> = (0..tenants).map(|k| 1.0 / ((k + 1) as f64).powf(exponent)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect();
    // Guard the top against accumulated rounding.
    *cdf.last_mut().expect("at least one tenant") = 1.0;
    let mut rng = HdcRng::seed_from(seed);
    (0..len)
        .map(|_| {
            let u = rng.uniform(0.0, 1.0);
            cdf.partition_point(|&c| c <= u).min(tenants - 1) as u16
        })
        .collect()
}

/// Due time of the `index`-th flow of an open loop at `rate_per_s`,
/// nanoseconds after the phase start.  A pure function of the index: the
/// schedule never slows when the system does.
pub fn due_ns(index: usize, rate_per_s: f64) -> u64 {
    (index as f64 * 1e9 / rate_per_s) as u64
}

/// Why a submission did not enter the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitFailure {
    Shed,
    Backpressure,
    Error,
}

/// The system under load, reduced to the two calls the generator makes.
pub trait Target {
    type Ticket;
    /// Submits the `record`-th flow of `tenant`'s sequence.
    fn submit(&self, tenant: usize, record: usize) -> Result<Self::Ticket, SubmitFailure>;
    /// Non-blocking collect.
    fn try_take(&self, ticket: &Self::Ticket) -> Result<Option<Verdict>, String>;
    /// Called when the generator has nothing to send or collect: a system
    /// that relies on its caller to flush expired batches does so here.
    /// Returns whether any verdict may have become available.
    fn idle(&self) -> bool {
        false
    }
    /// Whether `verdict` is the right answer for `(tenant, record)`.
    fn verify(&self, tenant: usize, record: usize, verdict: &Verdict) -> bool;
}

#[derive(Debug, Clone, Copy)]
pub enum Mode {
    /// Send flow `i` at `due_ns(i, rate)` for `duration`, then drain.
    Open { rate_per_s: f64 },
    /// Keep up to `outstanding` flows in flight for `duration`, then drain.
    Closed { outstanding: usize },
}

/// What one phase measured.
#[derive(Debug, Clone, Default)]
pub struct PhaseResult {
    pub submitted: u64,
    pub shed: u64,
    pub backpressure: u64,
    pub errors: u64,
    /// Verdicts collected (all of them, drain included).
    pub collected: u64,
    /// Verdicts collected in the last three quarters of the phase's
    /// `duration`: the closed loop's steady state, past the ramp in which
    /// the flows in flight build up to the cap.
    pub collected_steady: u64,
    /// Length of that steady part, seconds.
    pub steady_s: f64,
    /// Verdicts that differed from the reference.
    pub mismatched: u64,
    /// Flows still uncollected when the drain limit expired.
    pub lost: u64,
    /// Due → verdict latency of every collected flow, in collection order.
    pub latency_ns: Vec<u64>,
    /// How late each submission started relative to its due time (open loop).
    pub late_ns: Vec<u64>,
    /// Wall time of each `submit` call (traced runs only).
    pub submit_ns: Vec<u64>,
    pub try_take_hits: u64,
    /// Times the generator itself stalled past [`STALL_NS`] (open loop).
    pub stalls: u64,
    /// Nanoseconds after the phase start at which each flow was due (open
    /// loop; kept so tests can pin that completions never move the schedule).
    #[cfg(test)]
    pub due_trace_ns: Vec<u64>,
}

impl PhaseResult {
    pub fn attempted(&self) -> u64 {
        self.submitted + self.shed + self.backpressure + self.errors
    }

    pub fn failed(&self) -> u64 {
        self.shed + self.backpressure + self.errors + self.lost + self.mismatched
    }
}

/// Nearest-rank percentile of nanosecond samples, in milliseconds (0 for an
/// empty sample).
pub fn ns_percentile_ms(samples: &[u64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    sorted_ns_percentile_ms(&sorted, p)
}

/// [`ns_percentile_ms`] of samples already sorted ascending.
pub fn sorted_ns_percentile_ms(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    percentile(sorted, p) as f64 / 1e6
}

struct Pending<T> {
    ticket: T,
    due_ns: u64,
    record: usize,
    flow: u64,
}

/// Runs one phase against `target`.  `schedule` is cycled if the phase needs
/// more flows than it holds; `cursors[t]` is tenant `t`'s next record index
/// and carries across phases so every tenant's flow sequence is one
/// deterministic stream.
pub fn run_phase<T: Target>(
    target: &T,
    schedule: &[u16],
    cursors: &mut [usize],
    mode: Mode,
    duration: Duration,
    tracer: &mut Tracer,
) -> PhaseResult {
    let tenants = cursors.len();
    let mut queues: Vec<VecDeque<Pending<T::Ticket>>> =
        (0..tenants).map(|_| VecDeque::new()).collect();
    let mut result = PhaseResult::default();
    let window_ns = duration.as_nanos() as u64;
    let warm_ns = window_ns / 4;
    result.steady_s = (window_ns - warm_ns).max(1) as f64 / 1e9;
    let traced = tracer.enabled();
    let mut outstanding = 0usize;
    let mut next = 0usize;
    let mut cursor = 0usize;
    // Misses since the last hit or submission, and tenants with flows in
    // flight: a miss for each of them is one fruitless round.
    let mut misses = 0usize;
    let mut waiting_tenants = 0usize;
    let mut paused_until_ns = 0u64;
    // Consecutive try_take misses folded into one span.
    let mut miss_run: Option<(Instant, u32)> = None;
    let start = Instant::now();
    let mut drain_deadline: Option<u64> = None;
    // Open loop: how far the schedule was pushed back by generator stalls.
    let mut stalled_ns = 0u64;

    loop {
        let now = Instant::now();
        let now_ns = (now - start).as_nanos() as u64;
        let in_window = now_ns < window_ns;

        let due = match mode {
            Mode::Open { rate_per_s } => {
                let mut due = due_ns(next, rate_per_s) + stalled_ns;
                if due < window_ns && now_ns > due + STALL_NS {
                    stalled_ns += now_ns - due;
                    result.stalls += 1;
                    due = now_ns;
                }
                (due < window_ns && due <= now_ns).then_some(due)
            }
            Mode::Closed { outstanding: cap } => (in_window && outstanding < cap).then_some(now_ns),
        };
        if let Some(due) = due {
            let tenant = usize::from(schedule[next % schedule.len()]);
            let record = cursors[tenant];
            cursors[tenant] += 1;
            let flow = next as u64;
            next += 1;
            if matches!(mode, Mode::Open { .. }) {
                result.late_ns.push(now_ns - due);
                #[cfg(test)]
                result.due_trace_ns.push(due);
            }
            let outcome = target.submit(tenant, record);
            if traced {
                let done = Instant::now();
                result.submit_ns.push((done - now).as_nanos() as u64);
                tracer.leaf(SUBMIT_SPAN, flow, now, done, 1);
            }
            match outcome {
                Ok(ticket) => {
                    result.submitted += 1;
                    outstanding += 1;
                    waiting_tenants += usize::from(queues[tenant].is_empty());
                    queues[tenant].push_back(Pending { ticket, due_ns: due, record, flow });
                    // The submission may have filled and flushed a batch.
                    misses = 0;
                    paused_until_ns = 0;
                }
                Err(SubmitFailure::Shed) => result.shed += 1,
                Err(SubmitFailure::Backpressure) => result.backpressure += 1,
                Err(SubmitFailure::Error) => result.errors += 1,
            }
            continue;
        }

        let sending_done = match mode {
            Mode::Open { rate_per_s } => due_ns(next, rate_per_s) + stalled_ns >= window_ns,
            Mode::Closed { .. } => !in_window,
        };
        if sending_done {
            if outstanding == 0 {
                break;
            }
            let deadline = *drain_deadline.get_or_insert(now_ns + DRAIN_LIMIT.as_nanos() as u64);
            if now_ns > deadline {
                result.lost = outstanding as u64;
                break;
            }
        }
        if outstanding == 0 || now_ns < paused_until_ns {
            // Nothing to send, nothing to collect.  A system that leaves
            // expired batches to its caller gets the call here; otherwise
            // sleep until the next flow is due or the poll pause is over.
            if outstanding > 0 && target.idle() {
                paused_until_ns = 0;
                continue;
            }
            let next_due_ns = match mode {
                Mode::Open { rate_per_s } if !sending_done => due_ns(next, rate_per_s) + stalled_ns,
                _ => u64::MAX,
            };
            let next_poll_ns = if outstanding > 0 { paused_until_ns } else { u64::MAX };
            let wake_ns = next_due_ns.min(next_poll_ns).min(now_ns + STALL_NS);
            std::thread::sleep(Duration::from_nanos(wake_ns.saturating_sub(now_ns)));
            continue;
        }

        // One harvest step: poll the front ticket of the next tenant that
        // has flows outstanding.  A hit stays on the tenant (its batch
        // completed together); a miss moves on.
        while queues[cursor].is_empty() {
            cursor = (cursor + 1) % tenants;
        }
        let front = queues[cursor].front().expect("non-empty queue");
        match target.try_take(&front.ticket) {
            Ok(Some(verdict)) => {
                let done = Instant::now();
                let done_ns = (done - start).as_nanos() as u64;
                if traced {
                    if let Some((miss_start, misses)) = miss_run.take() {
                        tracer.leaf(TRY_TAKE_SPAN, u64::MAX, miss_start, now, misses);
                    }
                    tracer.leaf(TRY_TAKE_SPAN, front.flow, now, done, 1);
                }
                result.try_take_hits += 1;
                result.collected += 1;
                result.collected_steady += u64::from(done_ns > warm_ns && done_ns <= window_ns);
                result.latency_ns.push(done_ns.saturating_sub(front.due_ns));
                if !target.verify(cursor, front.record, &verdict) {
                    result.mismatched += 1;
                }
                queues[cursor].pop_front();
                outstanding -= 1;
                waiting_tenants -= usize::from(queues[cursor].is_empty());
                misses = 0;
            }
            Ok(None) => {
                if traced {
                    let run = miss_run.get_or_insert((now, 0));
                    run.1 += 1;
                }
                cursor = (cursor + 1) % tenants;
                misses += 1;
                if misses >= waiting_tenants {
                    misses = 0;
                    paused_until_ns = now_ns + POLL_PAUSE_NS;
                    // The pause is the generator's time, not the layer's.
                    if let Some((miss_start, run)) = miss_run.take() {
                        tracer.leaf(TRY_TAKE_SPAN, u64::MAX, miss_start, Instant::now(), run);
                    }
                }
            }
            Err(_) => {
                // The ticket is gone for good: count the flow as failed.
                result.errors += 1;
                queues[cursor].pop_front();
                outstanding -= 1;
                waiting_tenants -= usize::from(queues[cursor].is_empty());
            }
        }
    }
    if let Some((miss_start, misses)) = miss_run {
        tracer.leaf(TRY_TAKE_SPAN, u64::MAX, miss_start, Instant::now(), misses);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn zipf_schedule_regenerates_bit_for_bit_from_its_seed() {
        let a = zipf_schedule(64, 1.1, 20_000, 91);
        assert_eq!(a, zipf_schedule(64, 1.1, 20_000, 91));
        assert_ne!(a, zipf_schedule(64, 1.1, 20_000, 92));
        assert!(a.iter().all(|&t| t < 64));
        // Heavy head: rank 0 carries about a fifth of Zipf(1.1) over 64 ranks.
        let head = a.iter().filter(|&&t| t == 0).count() as f64 / a.len() as f64;
        assert!((0.17..0.27).contains(&head), "rank-0 share {head}");
        let tail = a.iter().filter(|&&t| t == 63).count();
        assert!(tail > 0 && tail < a.len() / 50);
    }

    /// A fake system whose verdicts become available `delay` after submit.
    struct Delayed {
        delay: Duration,
        submitted: RefCell<Vec<(usize, usize)>>,
    }

    impl Target for Delayed {
        type Ticket = Instant;
        fn submit(&self, tenant: usize, record: usize) -> Result<Instant, SubmitFailure> {
            self.submitted.borrow_mut().push((tenant, record));
            Ok(Instant::now())
        }
        fn try_take(&self, ticket: &Instant) -> Result<Option<Verdict>, String> {
            Ok((ticket.elapsed() >= self.delay).then_some(Verdict {
                class: 0,
                similarity: 1.0,
                novel: false,
            }))
        }
        fn verify(&self, _: usize, _: usize, verdict: &Verdict) -> bool {
            verdict.class == 0
        }
    }

    #[test]
    fn open_loop_due_times_are_independent_of_completion_times() {
        let schedule = zipf_schedule(4, 1.1, 64, 3);
        let rate = 2_000.0;
        let run = |delay_us: u64| {
            let target = Delayed {
                delay: Duration::from_micros(delay_us),
                submitted: RefCell::new(Vec::new()),
            };
            let mut cursors = vec![0usize; 4];
            let result = run_phase(
                &target,
                &schedule,
                &mut cursors,
                Mode::Open { rate_per_s: rate },
                Duration::from_millis(20),
                &mut Tracer::new(false),
            );
            (result, target.submitted.into_inner())
        };
        let (fast, fast_flows) = run(0);
        let (slow, slow_flows) = run(4_000);
        let expected: Vec<u64> = (0..40).map(|i| due_ns(i, rate)).collect();
        assert_eq!(fast.due_trace_ns, expected);
        assert_eq!(slow.due_trace_ns, expected, "a slow system must not slow the schedule");
        assert_eq!(fast_flows, slow_flows, "the same flows in the same order");
        assert_eq!(slow.collected, 40);
        assert_eq!(slow.failed(), 0);
        // Latency is charged from the due time, so the slow system reads slow.
        let p50_ms = |result: &PhaseResult| ns_percentile_ms(&result.latency_ns, 0.5);
        assert!(p50_ms(&slow) >= 4.0, "p50 {}", p50_ms(&slow));
        assert!(p50_ms(&fast) < p50_ms(&slow));
    }

    #[test]
    fn a_stalled_generator_resumes_its_schedule_instead_of_bursting() {
        /// Freezes the caller once, for longer than the stall limit.
        struct Freezing {
            frozen: RefCell<bool>,
        }
        impl Target for Freezing {
            type Ticket = ();
            fn submit(&self, _: usize, record: usize) -> Result<(), SubmitFailure> {
                if record == 3 && !self.frozen.replace(true) {
                    std::thread::sleep(Duration::from_nanos(STALL_NS + STALL_NS / 2));
                }
                Ok(())
            }
            fn try_take(&self, _: &()) -> Result<Option<Verdict>, String> {
                Ok(Some(Verdict { class: 0, similarity: 1.0, novel: false }))
            }
            fn verify(&self, _: usize, _: usize, _: &Verdict) -> bool {
                true
            }
        }
        let target = Freezing { frozen: RefCell::new(false) };
        let rate = 2_000.0;
        let result = run_phase(
            &target,
            &[0],
            &mut [0],
            Mode::Open { rate_per_s: rate },
            Duration::from_millis(80),
            &mut Tracer::new(false),
        );
        assert_eq!(result.stalls, 1);
        assert_eq!(result.failed(), 0);
        // The 30 ms freeze is taken out of the schedule: 60 of the 160 flows
        // it covered are never sent, and the flow after the freeze is sent on
        // time rather than 30 ms late with 59 more on its heels.
        let sent = result.submitted as usize;
        assert!((85..=105).contains(&sent), "{sent} flows sent");
        let late_after = result.late_ns[5..].iter().max().copied().unwrap_or(0);
        assert!(late_after < STALL_NS / 2, "late by {late_after} ns after the stall");
        let gaps = result.due_trace_ns.windows(2).filter(|w| w[1] - w[0] > STALL_NS).count();
        assert_eq!(gaps, 1, "one gap in the due times, where the generator froze");
    }

    #[test]
    fn an_idle_generator_lets_a_caller_driven_system_flush() {
        /// Verdicts become available only when the generator calls `idle`.
        #[derive(Default)]
        struct CallerDriven {
            pending: RefCell<usize>,
            ready: RefCell<usize>,
            flushes: RefCell<u32>,
        }
        impl Target for CallerDriven {
            type Ticket = ();
            fn submit(&self, _: usize, _: usize) -> Result<(), SubmitFailure> {
                *self.pending.borrow_mut() += 1;
                Ok(())
            }
            fn try_take(&self, _: &()) -> Result<Option<Verdict>, String> {
                let mut ready = self.ready.borrow_mut();
                Ok((*ready > 0).then(|| {
                    *ready -= 1;
                    Verdict { class: 0, similarity: 1.0, novel: false }
                }))
            }
            fn verify(&self, _: usize, _: usize, _: &Verdict) -> bool {
                true
            }
            fn idle(&self) -> bool {
                let flushed = self.pending.replace(0);
                *self.ready.borrow_mut() += flushed;
                *self.flushes.borrow_mut() += 1;
                flushed > 0
            }
        }
        let target = CallerDriven::default();
        let result = run_phase(
            &target,
            &zipf_schedule(4, 1.1, 64, 9),
            &mut [0; 4],
            Mode::Closed { outstanding: 8 },
            Duration::from_millis(5),
            &mut Tracer::new(false),
        );
        assert!(result.submitted > 8, "the loop went round: {} flows", result.submitted);
        assert_eq!(result.collected, result.submitted);
        assert_eq!(result.failed(), 0);
        assert!(*target.flushes.borrow() > 0);
    }

    #[test]
    fn closed_loop_never_exceeds_its_outstanding_cap() {
        struct Capped {
            in_flight: RefCell<usize>,
            peak: RefCell<usize>,
        }
        impl Target for Capped {
            type Ticket = ();
            fn submit(&self, _: usize, _: usize) -> Result<(), SubmitFailure> {
                *self.in_flight.borrow_mut() += 1;
                let now = *self.in_flight.borrow();
                let mut peak = self.peak.borrow_mut();
                *peak = (*peak).max(now);
                Ok(())
            }
            fn try_take(&self, _: &()) -> Result<Option<Verdict>, String> {
                *self.in_flight.borrow_mut() -= 1;
                Ok(Some(Verdict { class: 0, similarity: 1.0, novel: false }))
            }
            fn verify(&self, _: usize, _: usize, _: &Verdict) -> bool {
                true
            }
        }
        let target = Capped { in_flight: RefCell::new(0), peak: RefCell::new(0) };
        let schedule = zipf_schedule(8, 1.1, 128, 5);
        let mut cursors = vec![0usize; 8];
        let result = run_phase(
            &target,
            &schedule,
            &mut cursors,
            Mode::Closed { outstanding: 16 },
            Duration::from_millis(5),
            &mut Tracer::new(false),
        );
        assert_eq!(*target.peak.borrow(), 16);
        assert_eq!(result.collected, result.submitted);
        assert_eq!(result.failed(), 0);
        assert_eq!(cursors.iter().sum::<usize>() as u64, result.submitted);
    }
}
