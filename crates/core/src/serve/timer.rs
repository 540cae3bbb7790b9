//! `cyberhd::serve::timer` — a sorted queue of batch deadlines a flusher
//! thread can sleep on.
//!
//! The single-shard [`crate::serve::ServeEngine`] leaves deadline
//! enforcement to the caller: somebody has to remember to call
//! [`crate::serve::ServeEngine::poll`], and every poll scans the whole
//! lane map even when nothing is due.  The sharded engine gives every
//! shard one `DeadlineQueue` instead: the submission that takes a lane
//! from empty to non-empty arms one entry at `now + max_delay`, and the
//! shard's flusher thread **parks until the head entry's deadline** —
//! no polling cadence, so a due batch waits for a thread wake-up and
//! nothing else.
//!
//! Every lane of a sharded engine shares one `max_delay`, so deadlines
//! arrive in (almost) non-decreasing order and the queue is a plain
//! `VecDeque` kept sorted by inserting from the back: O(1) for in-order
//! input, and an entry a racing submitter delivers slightly out of order
//! is simply walked to its place.
//!
//! Firing is **never early**: an entry pops only once its deadline has
//! passed.  There is no cancellation — an entry whose batch was already
//! flushed inline stays queued until its deadline and is then found stale
//! by the consumer (the crate-internal `ServeEngine::poll_tenant`
//! re-checks the lane's actual oldest-pending age), which keeps the
//! submit-side cost at one short critical section.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

#[derive(Debug)]
struct State<T> {
    /// `(deadline, item)`, earliest deadline at the front.
    entries: VecDeque<(Instant, T)>,
    /// Entries ever armed (observability).
    armed: u64,
    closed: bool,
}

impl<T> State<T> {
    /// How long until the head entry is due — the consumer's sleep hint
    /// (`None` when nothing is armed, zero when the head is overdue).
    fn next_due_in(&self, now: Instant) -> Option<Duration> {
        self.entries.front().map(|(deadline, _)| deadline.saturating_duration_since(now))
    }
}

/// A deadline-ordered queue with a parking consumer (see the
/// [module docs](self)).  Any number of threads may arm; one thread is
/// expected to pop and wait.
#[derive(Debug)]
pub(crate) struct DeadlineQueue<T> {
    state: Mutex<State<T>>,
    wake: Condvar,
}

impl<T> DeadlineQueue<T> {
    pub(crate) fn new() -> Self {
        Self {
            state: Mutex::new(State { entries: VecDeque::new(), armed: 0, closed: false }),
            wake: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().expect("deadline queue lock")
    }

    /// Queues `item` to pop once `deadline` has passed, waking the
    /// consumer only if the entry became the new head (otherwise it is
    /// already sleeping towards an earlier deadline).
    pub(crate) fn arm(&self, deadline: Instant, item: T) {
        let mut state = self.lock();
        let at = state.entries.iter().rposition(|(d, _)| *d <= deadline).map_or(0, |i| i + 1);
        state.entries.insert(at, (deadline, item));
        state.armed += 1;
        drop(state);
        if at == 0 {
            self.wake.notify_one();
        }
    }

    /// Pops the head entry if its deadline is at or before `now`
    /// (nothing pops from a closed queue: the consumer is shutting down).
    pub(crate) fn pop_due(&self, now: Instant) -> Option<(Instant, T)> {
        let mut state = self.lock();
        let due = !state.closed && state.next_due_in(now) == Some(Duration::ZERO);
        if due {
            state.entries.pop_front()
        } else {
            None
        }
    }

    /// Parks the caller until the head entry's deadline or `until`,
    /// whichever is first, or until a new head is armed or the queue is
    /// closed.  May also return spuriously — callers loop.  Returns
    /// `false` once the queue is closed.
    pub(crate) fn wait(&self, until: Instant) -> bool {
        let state = self.lock();
        if state.closed {
            return false;
        }
        let now = Instant::now();
        let cap = until.saturating_duration_since(now);
        let timeout = state.next_due_in(now).map_or(cap, |due| due.min(cap));
        let (state, _) = self.wake.wait_timeout(state, timeout).expect("deadline queue lock");
        !state.closed
    }

    /// Closes the queue and wakes the consumer.  The flag is set under
    /// the mutex `wait` checks it under, so the wake-up cannot be lost.
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.wake.notify_all();
    }

    /// Entries ever armed.
    pub(crate) fn armed(&self) -> u64 {
        self.lock().armed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    const MS: Duration = Duration::from_millis(1);

    fn drain<T>(queue: &DeadlineQueue<T>, now: Instant) -> Vec<T> {
        std::iter::from_fn(|| queue.pop_due(now)).map(|(_, item)| item).collect()
    }

    #[test]
    fn entries_fire_after_their_deadline_and_not_before() {
        let queue = DeadlineQueue::new();
        let now = Instant::now();
        queue.arm(now, "immediate");
        queue.arm(now + 5 * MS, "late");
        assert_eq!(queue.armed(), 2);

        // An entry is due at its deadline exactly, not a nanosecond sooner.
        assert_eq!(drain(&queue, now), vec!["immediate"]);
        assert!(drain(&queue, now + 5 * MS - Duration::from_nanos(1)).is_empty());
        assert_eq!(queue.pop_due(now + 5 * MS), Some((now + 5 * MS, "late")));
        assert_eq!(queue.pop_due(now + 9 * MS), None);
    }

    #[test]
    fn entries_beyond_one_revolution_wait_for_their_tick() {
        // A far deadline armed *before* a near one waits its turn: the
        // late-arriving near entry is placed ahead of it.
        let queue = DeadlineQueue::new();
        let now = Instant::now();
        queue.arm(now + 10 * MS, "far");
        queue.arm(now + 2 * MS, "near");
        assert_eq!(drain(&queue, now + 3 * MS), vec!["near"]);
        assert!(drain(&queue, now + 8 * MS).is_empty());
        assert_eq!(drain(&queue, now + 11 * MS), vec!["far"]);
    }

    #[test]
    fn one_sweep_covers_multiple_revolutions() {
        let queue = DeadlineQueue::new();
        let now = Instant::now();
        for ms in [3u32, 1, 12, 6, 9, 6] {
            queue.arm(now + ms * MS, ms);
        }
        // One late drain pops everything due exactly once, in deadline
        // order (equal deadlines in arming order).
        assert_eq!(drain(&queue, now + 40 * MS), vec![1, 3, 6, 6, 9, 12]);
        assert!(drain(&queue, now + 41 * MS).is_empty());
    }

    #[test]
    fn deadlines_behind_the_cursor_pop_on_the_next_sweep() {
        let queue = DeadlineQueue::new();
        let now = Instant::now();
        queue.arm(now + 6 * MS, "on time");
        assert_eq!(drain(&queue, now + 6 * MS), vec!["on time"]);
        // A deadline already in the past when it is armed pops on the
        // very next pop_due — ahead of everything still in the future.
        queue.arm(now + 20 * MS, "future");
        queue.arm(now + 2 * MS, "overdue");
        assert_eq!(drain(&queue, now + 7 * MS), vec!["overdue"]);
    }

    #[test]
    fn next_due_in_is_a_sane_sleep_hint() {
        let queue: DeadlineQueue<u32> = DeadlineQueue::new();
        let hint = |now| queue.lock().next_due_in(now);
        let now = Instant::now();
        assert_eq!(hint(now), None);
        queue.arm(now + 5 * MS, 1);
        assert_eq!(hint(now), Some(5 * MS), "the hint is head − now");
        queue.arm(now + MS, 2);
        assert_eq!(hint(now), Some(MS), "an earlier entry becomes the head");
        assert_eq!(hint(now + 2 * MS), Some(Duration::ZERO), "an overdue head is due now");
    }

    #[test]
    fn sweeps_are_exclusive_and_schedulers_parallel() {
        // Concurrency smoke: 4 threads arming while 2 pop neither lose
        // nor duplicate entries.
        let queue: DeadlineQueue<usize> = DeadlineQueue::new();
        let now = Instant::now();
        let popped = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for t in 0..4 {
                let queue = &queue;
                scope.spawn(move || {
                    for i in 0..250 {
                        queue.arm(now, t * 1000 + i);
                    }
                });
            }
            for _ in 0..2 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        popped.lock().unwrap().extend(drain(&queue, Instant::now()));
                        std::thread::yield_now();
                    }
                });
            }
        });
        let mut all = popped.into_inner().unwrap();
        all.extend(drain(&queue, Instant::now()));
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 1000, "every entry pops exactly once");
        assert_eq!(queue.armed(), 1000);
    }

    #[test]
    fn wait_parks_until_the_head_deadline_a_new_head_or_close() {
        let queue: Arc<DeadlineQueue<u32>> = Arc::new(DeadlineQueue::new());
        let far = Instant::now() + Duration::from_secs(30);

        // The head's deadline ends the wait long before `until`, and not
        // before the deadline itself.
        let deadline = Instant::now() + 20 * MS;
        queue.arm(deadline, 1);
        while queue.pop_due(Instant::now()).is_none() {
            assert!(queue.wait(far));
        }
        assert!(Instant::now() >= deadline);
        assert!(
            Instant::now() < deadline + Duration::from_secs(5),
            "woke for the head, not `until`"
        );

        // A waiter parked on an empty queue is woken by the entry that
        // becomes the head, and by close(); the channel makes sure the
        // waiter is (about to be) parked before either happens.
        let (parked, is_parked) = std::sync::mpsc::channel();
        let waiter = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                parked.send(()).unwrap();
                while queue.pop_due(Instant::now()).is_none() {
                    assert!(queue.wait(far), "not closed yet");
                }
                parked.send(()).unwrap();
                while queue.wait(far) {}
            })
        };
        is_parked.recv().unwrap();
        queue.arm(Instant::now(), 2);
        is_parked.recv().unwrap();
        queue.close();
        waiter.join().unwrap();
        assert!(!queue.wait(far), "a closed queue never parks");
        queue.arm(Instant::now(), 3);
        assert_eq!(queue.pop_due(Instant::now()), None, "and never pops");
    }
}
