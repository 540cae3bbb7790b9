//! `cyberhd::serve::timer` — a hashed timing wheel over batch deadlines.
//!
//! The single-shard [`crate::serve::ServeEngine`] leaves deadline
//! enforcement to the caller: somebody has to remember to call
//! [`crate::serve::ServeEngine::poll`], and every poll scans the whole
//! lane map even when nothing is due.  The sharded engine replaces that
//! with a [`DeadlineWheel`]: when a submission takes a lane from empty to
//! non-empty it schedules one entry at `now + max_delay`, and the flusher
//! threads pop **only the entries whose deadline has passed** — O(due)
//! per tick instead of O(lanes).
//!
//! The wheel is *hashed*: an entry lands in slot `tick % slots`, where a
//! tick is one `granularity` of time since the wheel was built.  Entries
//! whose deadline is more than one wheel revolution away simply stay in
//! their slot until their tick comes round (each sweep compares absolute
//! deadlines, not slot membership).
//!
//! Firing is **at-least-as-late**: an entry never pops before its
//! deadline, and pops at the first sweep after it.  Duplicate or stale
//! entries are harmless by design — the consumer (the sharded engine,
//! through the crate-internal `ServeEngine::poll_tenant`) re-checks the
//! lane's actual oldest-pending age and just reports idle/due when the
//! wheel fired spuriously — so the wheel can stay lock-light instead of
//! supporting cancellation.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One scheduled item: its absolute deadline in wheel ticks.
#[derive(Debug)]
struct Entry<T> {
    deadline_tick: u64,
    item: T,
}

/// A hashed timing wheel (see the [module docs](self)).
///
/// All methods take `&self`; slots are individually mutexed so schedulers
/// on different slots never contend, and sweeps serialize on a dedicated
/// sweep lock without blocking schedulers.
#[derive(Debug)]
pub struct DeadlineWheel<T> {
    slots: Vec<Mutex<Vec<Entry<T>>>>,
    granularity: Duration,
    epoch: Instant,
    /// The next tick [`DeadlineWheel::collect_expired`] will sweep (every
    /// lower tick has been swept).  Read by schedulers to clamp deadlines
    /// that already passed into the upcoming sweep instead of a full
    /// revolution away.
    cursor: AtomicU64,
    /// Serializes sweeps so two flusher threads cannot double-pop.
    sweep: Mutex<()>,
    /// Entries currently scheduled (observability and tests).
    len: AtomicUsize,
}

impl<T> DeadlineWheel<T> {
    /// Creates a wheel of `slots` buckets, each `granularity` of time
    /// wide, with its epoch at "now".
    ///
    /// `granularity` is the firing resolution: entries pop at most one
    /// granularity after their deadline (plus however long the caller
    /// waits between sweeps).  `slots × granularity` is the wheel period;
    /// longer deadlines still work, they just share slots with earlier
    /// revolutions.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero or `granularity` is zero.
    pub fn new(granularity: Duration, slots: usize) -> Self {
        assert!(slots > 0, "a wheel needs at least one slot");
        assert!(granularity > Duration::ZERO, "granularity must be non-zero");
        Self {
            slots: (0..slots).map(|_| Mutex::new(Vec::new())).collect(),
            granularity,
            epoch: Instant::now(),
            cursor: AtomicU64::new(0),
            sweep: Mutex::new(()),
            len: AtomicUsize::new(0),
        }
    }

    /// The wheel's firing resolution.
    pub fn granularity(&self) -> Duration {
        self.granularity
    }

    /// Number of slots.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Entries currently scheduled.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Whether no entries are scheduled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The tick containing `instant` (ticks before the epoch clamp to 0).
    fn tick_of(&self, instant: Instant) -> u64 {
        let elapsed = instant.saturating_duration_since(self.epoch);
        (elapsed.as_nanos() / self.granularity.as_nanos()) as u64
    }

    /// Schedules `item` to pop at the first sweep at or after `deadline`.
    pub fn schedule(&self, deadline: Instant, item: T) {
        // Round *up*: firing at tick t means `epoch + t·granularity` has
        // passed, so an entry stored at the ceiling tick never pops early.
        let elapsed = deadline.saturating_duration_since(self.epoch).as_nanos();
        let gran = self.granularity.as_nanos();
        let mut tick = elapsed.div_ceil(gran) as u64;
        // A deadline that already slipped behind the sweep cursor would
        // otherwise wait a full revolution for its slot to come round
        // again; clamp it onto the next sweep instead.
        tick = tick.max(self.cursor.load(Ordering::Acquire));
        let slot = (tick % self.slots.len() as u64) as usize;
        self.slots[slot].lock().expect("wheel slot lock").push(Entry { deadline_tick: tick, item });
        self.len.fetch_add(1, Ordering::Relaxed);
    }

    /// Pops every entry whose deadline tick has been reached by `now`,
    /// in an unspecified order.  Entries scheduled for later revolutions
    /// of the same slots stay put.
    ///
    /// Sweeps serialize (a second concurrent caller pops nothing the
    /// first would); schedulers are only blocked per-slot.
    pub fn collect_expired(&self, now: Instant) -> Vec<T> {
        let _sweep = self.sweep.lock().expect("wheel sweep lock");
        let now_tick = self.tick_of(now);
        let from = self.cursor.load(Ordering::Acquire);
        if now_tick < from {
            return Vec::new();
        }
        let slots = self.slots.len() as u64;
        // Visit each slot at most once even when the sweep spans more
        // than one revolution (entries are filtered by absolute tick, so
        // one visit per slot covers every revolution at once).
        let span = (now_tick - from + 1).min(slots);
        let mut due = Vec::new();
        for offset in 0..span {
            let slot = ((from + offset) % slots) as usize;
            let mut entries = self.slots[slot].lock().expect("wheel slot lock");
            let mut i = 0;
            while i < entries.len() {
                if entries[i].deadline_tick <= now_tick {
                    due.push(entries.swap_remove(i).item);
                } else {
                    i += 1;
                }
            }
        }
        self.len.fetch_sub(due.len(), Ordering::Relaxed);
        // Publish before releasing the sweep lock so schedulers clamp
        // against the ticks this sweep already covered.
        self.cursor.store(now_tick + 1, Ordering::Release);
        due
    }

    /// How long until the next scheduled entry could fire, or `None` when
    /// the wheel is empty — a sleep hint for the sweeping thread.  The
    /// hint is conservative (never longer than the true next deadline
    /// plus one granularity).
    pub fn next_due_in(&self, now: Instant) -> Option<Duration> {
        if self.is_empty() {
            return None;
        }
        let now_tick = self.tick_of(now);
        let mut earliest: Option<u64> = None;
        for slot in &self.slots {
            for entry in slot.lock().expect("wheel slot lock").iter() {
                earliest =
                    Some(earliest.map_or(entry.deadline_tick, |e| e.min(entry.deadline_tick)));
            }
        }
        let tick = earliest?;
        if tick <= now_tick {
            return Some(Duration::ZERO);
        }
        let nanos = self.granularity.as_nanos().saturating_mul((tick - now_tick) as u128);
        Some(Duration::from_nanos(u64::try_from(nanos).unwrap_or(u64::MAX)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_fire_after_their_deadline_and_not_before() {
        let wheel = DeadlineWheel::new(Duration::from_millis(1), 16);
        let now = Instant::now();
        wheel.schedule(now + Duration::from_millis(5), "late");
        wheel.schedule(now, "immediate");
        assert_eq!(wheel.len(), 2);

        // Nothing due "now" except the immediate entry (its ceiling tick
        // is at most one granularity away; sweep one granularity later).
        let soon = now + Duration::from_millis(1);
        let popped = wheel.collect_expired(soon);
        assert_eq!(popped, vec!["immediate"]);
        assert_eq!(wheel.len(), 1);

        // The 5 ms entry survives sweeps before its deadline…
        assert!(wheel.collect_expired(now + Duration::from_millis(3)).is_empty());
        // …and pops once the deadline passes.
        let popped = wheel.collect_expired(now + Duration::from_millis(7));
        assert_eq!(popped, vec!["late"]);
        assert!(wheel.is_empty());
    }

    #[test]
    fn entries_beyond_one_revolution_wait_for_their_tick() {
        // 4 slots × 1 ms: a 10 ms deadline shares a slot with tick ~2 but
        // must not pop until 10 ms have passed.
        let wheel = DeadlineWheel::new(Duration::from_millis(1), 4);
        let now = Instant::now();
        wheel.schedule(now + Duration::from_millis(10), "far");
        wheel.schedule(now + Duration::from_millis(2), "near");
        let popped = wheel.collect_expired(now + Duration::from_millis(3));
        assert_eq!(popped, vec!["near"]);
        assert!(wheel.collect_expired(now + Duration::from_millis(8)).is_empty());
        assert_eq!(wheel.collect_expired(now + Duration::from_millis(11)), vec!["far"]);
    }

    #[test]
    fn one_sweep_covers_multiple_revolutions() {
        let wheel = DeadlineWheel::new(Duration::from_millis(1), 4);
        let now = Instant::now();
        for ms in [1u64, 3, 6, 9, 12] {
            wheel.schedule(now + Duration::from_millis(ms), ms);
        }
        // A single late sweep (several revolutions after the last
        // deadline) pops everything exactly once.
        let mut popped = wheel.collect_expired(now + Duration::from_millis(40));
        popped.sort_unstable();
        assert_eq!(popped, vec![1, 3, 6, 9, 12]);
        assert!(wheel.collect_expired(now + Duration::from_millis(41)).is_empty());
    }

    #[test]
    fn deadlines_behind_the_cursor_pop_on_the_next_sweep() {
        let wheel = DeadlineWheel::new(Duration::from_millis(1), 8);
        let now = Instant::now();
        // Advance the cursor well past tick 2.
        wheel.collect_expired(now + Duration::from_millis(6));
        // Scheduling "in the past" clamps onto the upcoming sweep instead
        // of waiting a full revolution.
        wheel.schedule(now + Duration::from_millis(2), "stale");
        assert_eq!(wheel.collect_expired(now + Duration::from_millis(7)), vec!["stale"]);
    }

    #[test]
    fn next_due_in_is_a_sane_sleep_hint() {
        let wheel: DeadlineWheel<u32> = DeadlineWheel::new(Duration::from_millis(1), 16);
        let now = Instant::now();
        assert_eq!(wheel.next_due_in(now), None);
        wheel.schedule(now + Duration::from_millis(5), 1);
        let hint = wheel.next_due_in(now).unwrap();
        assert!(hint >= Duration::from_millis(4) && hint <= Duration::from_millis(7), "{hint:?}");
        wheel.schedule(now, 2);
        let hint = wheel.next_due_in(now + Duration::from_millis(2)).unwrap();
        assert_eq!(hint, Duration::ZERO);
    }

    #[test]
    fn sweeps_are_exclusive_and_schedulers_parallel() {
        // Concurrency smoke: N threads scheduling + sweeping concurrently
        // neither lose nor duplicate entries.
        let wheel: std::sync::Arc<DeadlineWheel<usize>> =
            std::sync::Arc::new(DeadlineWheel::new(Duration::from_micros(100), 32));
        let now = Instant::now();
        let popped = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for t in 0..4 {
                let wheel = std::sync::Arc::clone(&wheel);
                scope.spawn(move || {
                    for i in 0..250 {
                        wheel.schedule(now, t * 1000 + i);
                    }
                });
            }
            for _ in 0..2 {
                let wheel = std::sync::Arc::clone(&wheel);
                let popped = &popped;
                scope.spawn(move || {
                    for _ in 0..50 {
                        let due = wheel.collect_expired(Instant::now());
                        popped.lock().unwrap().extend(due);
                        std::thread::yield_now();
                    }
                });
            }
        });
        let mut all = popped.into_inner().unwrap();
        all.extend(wheel.collect_expired(Instant::now() + Duration::from_secs(1)));
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 1000, "every entry pops exactly once");
        assert!(wheel.is_empty());
    }
}
