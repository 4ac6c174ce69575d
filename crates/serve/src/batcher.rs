//! The front-end micro-batcher: a bounded admission queue whose
//! contents flush as a batch when either the size trigger
//! (`batch_max` queued) or the deadline trigger (an external flush
//! tick) fires — whichever comes first.
//!
//! [`BatcherCore`] is the pure decision state machine (admit/shed,
//! ready/flush/close). The virtual-time serving engine drives it
//! directly, which keeps every admission and batch-composition
//! decision a function of the arrival trace alone.

use crate::ShedReason;
use std::collections::VecDeque;

/// Outcome of offering one item to the batcher.
#[derive(Debug, PartialEq, Eq)]
pub enum Offer<T> {
    /// Queued; `ready` says a batch can be taken right now (the size
    /// trigger fired).
    Admitted {
        /// A full batch is now available.
        ready: bool,
    },
    /// Refused; the item comes back to the caller with the reason.
    Shed {
        /// Why admission refused it.
        reason: ShedReason,
        /// The refused item.
        item: T,
    },
}

/// The pure micro-batching state machine. Not thread-safe — the engine
/// owns one outright.
pub struct BatcherCore<T> {
    pending: VecDeque<T>,
    batch_max: usize,
    queue_cap: usize,
    flush_requested: bool,
    closed: bool,
}

impl<T> BatcherCore<T> {
    /// A batcher flushing at `batch_max` items, shedding beyond
    /// `queue_cap` queued.
    pub fn new(batch_max: usize, queue_cap: usize) -> Self {
        assert!(batch_max >= 1, "batches need at least one request");
        assert!(
            queue_cap >= batch_max,
            "admission queue must hold at least one full batch"
        );
        BatcherCore {
            pending: VecDeque::new(),
            batch_max,
            queue_cap,
            flush_requested: false,
            closed: false,
        }
    }

    /// Queued items not yet taken.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// The oldest queued item (the one whose age drives the deadline
    /// trigger).
    pub fn front(&self) -> Option<&T> {
        self.pending.front()
    }

    /// Whether [`Self::close`] was called.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Offers one item: shed when closed or full, queued otherwise.
    pub fn offer(&mut self, item: T) -> Offer<T> {
        if self.closed {
            return Offer::Shed {
                reason: ShedReason::Closed,
                item,
            };
        }
        if self.pending.len() >= self.queue_cap {
            return Offer::Shed {
                reason: ShedReason::QueueFull,
                item,
            };
        }
        self.pending.push_back(item);
        Offer::Admitted {
            ready: self.batch_ready(),
        }
    }

    /// The deadline trigger: marks queued items flushable even below
    /// `batch_max`. Returns whether anything is there to flush (a tick
    /// against an empty queue is a no-op, not a pending obligation —
    /// otherwise an old tick would spuriously flush a future batch).
    pub fn request_flush(&mut self) -> bool {
        if self.pending.is_empty() {
            return false;
        }
        self.flush_requested = true;
        true
    }

    /// Stops admission. Already-queued items stay takeable — shutdown
    /// drains, it never drops.
    pub fn close(&mut self) {
        self.closed = true;
    }

    /// Whether a batch can be taken right now: size trigger, pending
    /// flush tick, or close-time drain.
    pub fn batch_ready(&self) -> bool {
        self.pending.len() >= self.batch_max
            || (!self.pending.is_empty() && (self.flush_requested || self.closed))
    }

    /// Takes up to `batch_max` items when a trigger fired, oldest
    /// first; `None` when no trigger is pending.
    pub fn take_ready_batch(&mut self) -> Option<Vec<T>> {
        if !self.batch_ready() {
            return None;
        }
        let k = self.pending.len().min(self.batch_max);
        let batch: Vec<T> = self.pending.drain(..k).collect();
        if self.pending.is_empty() {
            self.flush_requested = false;
        }
        Some(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_trigger_flushes_exactly_batch_max() {
        let mut core = BatcherCore::new(3, 8);
        for i in 0..4 {
            assert!(matches!(core.offer(i), Offer::Admitted { .. }));
        }
        assert!(core.batch_ready());
        assert_eq!(core.take_ready_batch(), Some(vec![0, 1, 2]));
        // One left — below batch_max and no flush tick: not ready.
        assert_eq!(core.take_ready_batch(), None);
        assert_eq!(core.len(), 1);
    }

    #[test]
    fn deadline_trigger_flushes_partial_batches() {
        let mut core = BatcherCore::new(4, 8);
        core.offer(10);
        assert_eq!(core.take_ready_batch(), None);
        assert!(core.request_flush());
        assert_eq!(core.take_ready_batch(), Some(vec![10]));
        // The tick was consumed with the drain: no stale re-trigger.
        core.offer(11);
        assert_eq!(core.take_ready_batch(), None);
    }

    #[test]
    fn flush_tick_on_empty_queue_is_inert() {
        let mut core: BatcherCore<u32> = BatcherCore::new(2, 4);
        assert!(!core.request_flush());
        core.offer(1);
        assert_eq!(core.take_ready_batch(), None, "no trigger fired yet");
    }

    #[test]
    fn overflow_sheds_with_queue_full() {
        let mut core = BatcherCore::new(2, 2);
        core.offer(1);
        core.offer(2);
        match core.offer(3) {
            Offer::Shed {
                reason: ShedReason::QueueFull,
                item,
            } => assert_eq!(item, 3),
            other => panic!("expected QueueFull shed, got {other:?}"),
        }
    }

    #[test]
    fn close_drains_then_sheds_new_arrivals() {
        let mut core = BatcherCore::new(4, 8);
        core.offer(1);
        core.offer(2);
        core.close();
        assert!(matches!(
            core.offer(3),
            Offer::Shed {
                reason: ShedReason::Closed,
                ..
            }
        ));
        assert_eq!(core.take_ready_batch(), Some(vec![1, 2]));
        assert_eq!(core.take_ready_batch(), None);
    }
}
