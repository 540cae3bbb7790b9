//! The ticket desk every lane embeds: sequence allocation, ticket
//! minting, the completed-verdict map, the bounded-queue check and the
//! shared serving counters (see the [`crate::serve`] module docs).
//!
//! Sequence numbers are gap-free and lanes serve their flows FIFO, so the
//! desk needs no per-ticket bookkeeping for queued flows: a flow is still
//! queued exactly when `served_up_to <= seq < next_seq`.

use super::{ServeError, ServeResult, Ticket};
use crate::detector::Verdict;
use eval::timing::LatencyHistogram;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Source of **process-unique** lane ids, shared by every desk: a ticket
/// stamped by one lane can never collect from any other lane — not a
/// recreated lane of the same tenant, not another engine's lane, and not
/// an adaptive lane serving the same tenant id.
static LANE_IDS: AtomicU64 = AtomicU64::new(0);

/// One lane's ticket state and shared counters.
#[derive(Debug)]
pub(crate) struct TicketDesk {
    /// Process-unique lane id stamped into every ticket.  Sequence numbers
    /// restart when a lane is recreated, so the lane identity is what stops
    /// a stale ticket from collecting a recycled sequence number's verdict.
    id: u64,
    /// Shared into every ticket (a refcount bump, not an allocation).
    tenant: Arc<str>,
    /// Bound on queued work plus uncollected verdicts.
    capacity: usize,
    /// The lane's `max_delay` — the retry hint of a backpressure error.
    retry_hint: Duration,
    next_seq: u64,
    /// Every flow below this sequence number has been served.
    served_up_to: u64,
    completed: HashMap<u64, Verdict>,
    /// Flows accepted.
    pub(crate) flows_submitted: u64,
    /// Flows whose verdicts have been filed.
    pub(crate) flows_served: u64,
    /// Submissions refused by [`TicketDesk::admit`].
    pub(crate) rejected: u64,
    /// Non-empty flushes.
    pub(crate) batches: u64,
    /// Submit→verdict latency of served flows.
    pub(crate) latency: LatencyHistogram,
}

impl TicketDesk {
    /// A desk for a new lane of `tenant`.
    pub(crate) fn new(tenant: Arc<str>, capacity: usize, retry_hint: Duration) -> Self {
        Self {
            id: LANE_IDS.fetch_add(1, Ordering::Relaxed) + 1,
            tenant,
            capacity,
            retry_hint,
            next_seq: 0,
            served_up_to: 0,
            completed: HashMap::new(),
            flows_submitted: 0,
            flows_served: 0,
            rejected: 0,
            batches: 0,
            latency: LatencyHistogram::new(),
        }
    }

    /// The sequence number the next issued ticket will carry.
    pub(crate) fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Continues an idle lane's numbering at `next_seq` (a lane restored
    /// from a checkpoint: nothing queued, nothing to collect).
    pub(crate) fn resume_at(&mut self, next_seq: u64) {
        debug_assert!(self.served_up_to == self.next_seq && self.completed.is_empty());
        self.next_seq = next_seq;
        self.served_up_to = next_seq;
    }

    /// Completed verdicts not yet collected.
    pub(crate) fn uncollected(&self) -> usize {
        self.completed.len()
    }

    /// The bounded-queue check, run before anything is enqueued: `queued`
    /// is the lane's pending work, to which the uncollected verdicts add.
    ///
    /// # Errors
    ///
    /// [`ServeError::Backpressure`] (counted in `rejected`) at capacity.
    pub(crate) fn admit(&mut self, queued: usize) -> ServeResult<()> {
        let depth = queued + self.completed.len();
        if depth < self.capacity {
            return Ok(());
        }
        self.rejected += 1;
        Err(ServeError::Backpressure {
            tenant: self.tenant.as_ref().into(),
            capacity: self.capacity,
            depth,
            retry_hint: self.retry_hint,
        })
    }

    /// Allocates the next sequence number and mints its ticket.
    pub(crate) fn issue(&mut self) -> Ticket {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.flows_submitted += 1;
        self.ticket(seq)
    }

    /// A ticket of this lane for `seq` (recovery re-mints handles for
    /// flows whose original tickets died with the process).
    pub(crate) fn ticket(&self, seq: u64) -> Ticket {
        Ticket { tenant: Arc::clone(&self.tenant), lane: self.id, seq }
    }

    /// Whether this lane issued `ticket`.
    pub(crate) fn owns(&self, ticket: &Ticket) -> bool {
        ticket.lane == self.id && *ticket.tenant == *self.tenant
    }

    /// Files the verdict of the oldest queued flow, which waited `waited`.
    pub(crate) fn file(&mut self, verdict: Verdict, waited: Duration) {
        debug_assert!(self.served_up_to < self.next_seq, "no queued flow to serve");
        self.completed.insert(self.served_up_to, verdict);
        self.served_up_to += 1;
        self.flows_served += 1;
        self.latency.record(waited);
    }

    /// Hands out `ticket`'s verdict if its flow was served, `None` while
    /// the flow is still queued behind the lane's next flush; each lane's
    /// `take` is this, a flush on `None`, and this again.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTicket`] for a foreign, forged or
    /// already-collected ticket.
    pub(crate) fn collect(&mut self, ticket: &Ticket) -> ServeResult<Option<Verdict>> {
        if !self.owns(ticket) {
            return Err(ServeError::UnknownTicket);
        }
        match self.completed.remove(&ticket.seq) {
            None if !(self.served_up_to..self.next_seq).contains(&ticket.seq) => {
                Err(ServeError::UnknownTicket)
            }
            verdict => Ok(verdict),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verdict(class: usize) -> Verdict {
        Verdict { class, similarity: 0.5, novel: false }
    }

    #[test]
    fn collect_walks_pending_ready_unknown_without_scanning_a_queue() {
        let mut desk = TicketDesk::new("t0".into(), 4, Duration::from_millis(2));
        let (a, b) = (desk.issue(), desk.issue());
        assert_eq!((a.seq(), b.seq(), desk.next_seq()), (0, 1, 2));
        assert_eq!(desk.collect(&a).unwrap(), None, "still queued");
        // Flows are served FIFO: the first filed verdict is ticket a's.
        desk.file(verdict(3), Duration::ZERO);
        assert_eq!(desk.uncollected(), 1);
        // Another lane's ticket for the same sequence number must not
        // consume the verdict.
        let other = TicketDesk::new("t0".into(), 4, Duration::ZERO);
        assert!(!desk.owns(&other.ticket(0)));
        assert!(matches!(desk.collect(&other.ticket(0)), Err(ServeError::UnknownTicket)));
        assert_eq!(desk.collect(&a).unwrap(), Some(verdict(3)));
        assert!(desk.collect(&a).is_err(), "a verdict is handed out once");
        assert_eq!(desk.collect(&b).unwrap(), None);
        assert!(desk.collect(&desk.ticket(2)).is_err(), "never issued");
        assert_eq!((desk.flows_submitted, desk.flows_served), (2, 1));
    }

    #[test]
    fn admit_counts_queued_and_uncollected_work_against_the_capacity() {
        let mut desk = TicketDesk::new("t0".into(), 2, Duration::from_millis(3));
        desk.resume_at(7);
        assert_eq!(desk.issue().seq(), 7, "a resumed desk continues its numbering");
        desk.file(verdict(0), Duration::ZERO);
        assert!(desk.admit(0).is_ok());
        match desk.admit(1) {
            Err(ServeError::Backpressure { tenant, capacity, depth, retry_hint }) => {
                assert_eq!((tenant.as_str(), capacity, depth), ("t0", 2, 2));
                assert_eq!(retry_hint, Duration::from_millis(3));
            }
            other => panic!("expected backpressure, got {other:?}"),
        }
        assert_eq!(desk.rejected, 1);
    }
}
