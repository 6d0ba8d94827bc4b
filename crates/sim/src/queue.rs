use std::collections::VecDeque;

use shmt_trace::TraceSink;

use crate::time::SimTime;

/// The pair of queues SHMT's kernel driver maintains per device: "one
/// serves as the incoming queue and the other as the completion queue"
/// (paper §3.3). The incoming side holds dispatched-but-unstarted work;
/// the completion side holds finished work awaiting aggregation. Both
/// keep occupancy statistics so imbalance ("the incoming queue of a
/// hardware device has more pending items than others", §3.4) is
/// observable.
#[derive(Debug, Clone)]
pub struct QueuePair<T> {
    incoming: VecDeque<(SimTime, T)>,
    completed: VecDeque<(SimTime, T)>,
    stolen_away: usize,
    max_depth: usize,
}

impl<T> QueuePair<T> {
    /// Creates an empty pair.
    pub fn new() -> Self {
        QueuePair {
            incoming: VecDeque::new(),
            completed: VecDeque::new(),
            stolen_away: 0,
            max_depth: 0,
        }
    }

    /// Clears all queue state for re-use while keeping both deques'
    /// capacity — the runtime pools whole queue pairs across runs so a
    /// warm run's enqueues never allocate.
    pub fn reset(&mut self) {
        self.incoming.clear();
        self.completed.clear();
        self.stolen_away = 0;
        self.max_depth = 0;
    }

    /// Enqueues work on the incoming side at virtual time `at`, sampling
    /// the resulting incoming-queue depth into `sink` as the gauge series
    /// `gauge_name` — the paper's §3.4 imbalance signal over virtual time.
    pub fn enqueue_traced(
        &mut self,
        at: SimTime,
        item: T,
        gauge_name: &str,
        sink: &mut dyn TraceSink,
    ) {
        self.incoming.push_back((at, item));
        self.max_depth = self.max_depth.max(self.incoming.len());
        if sink.enabled() {
            sink.gauge(gauge_name, at.as_secs(), self.incoming.len() as f64);
        }
    }

    /// Takes the next item from the front of the incoming queue.
    pub fn pop_front(&mut self) -> Option<T> {
        self.incoming.pop_front().map(|(_, item)| item)
    }

    /// Withdraws the most recently enqueued pending item (the victim side
    /// of a steal).
    pub fn steal_back(&mut self) -> Option<T> {
        let taken = self.incoming.pop_back().map(|(_, item)| item);
        if taken.is_some() {
            self.stolen_away += 1;
        }
        taken
    }

    /// Moves a finished item to the completion queue at time `at`.
    pub fn complete(&mut self, at: SimTime, item: T) {
        self.completed.push_back((at, item));
    }

    /// Drains the completion queue in completion order.
    pub fn drain_completed(&mut self) -> impl Iterator<Item = (SimTime, T)> + '_ {
        self.completed.drain(..)
    }

    /// Pending items on the incoming side.
    pub fn pending(&self) -> usize {
        self.incoming.len()
    }

    /// `true` when no work is pending.
    pub fn is_idle(&self) -> bool {
        self.incoming.is_empty()
    }

    /// Iterates over pending items front to back.
    pub fn iter_pending(&self) -> impl Iterator<Item = &T> {
        self.incoming.iter().map(|(_, item)| item)
    }

    /// Peeks at the item a steal would take.
    pub fn peek_back(&self) -> Option<&T> {
        self.incoming.back().map(|(_, item)| item)
    }

    /// Peeks at the item a pop would take.
    pub fn peek_front(&self) -> Option<&T> {
        self.incoming.front().map(|(_, item)| item)
    }

    /// Items withdrawn by other devices' steals.
    pub fn total_stolen_away(&self) -> usize {
        self.stolen_away
    }

    /// Deepest the incoming queue ever got.
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }
}

impl<T> Default for QueuePair<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmt_trace::NullSink;

    fn enqueue<T>(q: &mut QueuePair<T>, item: T) {
        q.enqueue_traced(SimTime::ZERO, item, "queue", &mut NullSink);
    }

    #[test]
    fn fifo_order_on_incoming() {
        let mut q = QueuePair::new();
        enqueue(&mut q, 1);
        enqueue(&mut q, 2);
        enqueue(&mut q, 3);
        assert_eq!(q.pop_front(), Some(1));
        assert_eq!(q.peek_front(), Some(&2));
        assert_eq!(q.peek_back(), Some(&3));
        assert_eq!(q.pending(), 2);
    }

    #[test]
    fn steals_come_from_the_back() {
        let mut q = QueuePair::new();
        for i in 0..4 {
            enqueue(&mut q, i);
        }
        assert_eq!(q.steal_back(), Some(3));
        assert_eq!(q.steal_back(), Some(2));
        assert_eq!(q.total_stolen_away(), 2);
        assert_eq!(q.pop_front(), Some(0));
    }

    #[test]
    fn completion_queue_preserves_order_and_times() {
        let mut q: QueuePair<&str> = QueuePair::new();
        q.complete(SimTime::from_secs(2.0), "b");
        q.complete(SimTime::from_secs(3.0), "c");
        let drained: Vec<_> = q.drain_completed().collect();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0], (SimTime::from_secs(2.0), "b"));
        assert!(q.drain_completed().next().is_none());
    }

    #[test]
    fn stats_track_depth_and_volume() {
        let mut q = QueuePair::new();
        for i in 0..5 {
            enqueue(&mut q, i);
        }
        q.pop_front();
        enqueue(&mut q, 9);
        assert_eq!(q.max_depth(), 5);
        assert!(!q.is_idle());
        assert_eq!(q.iter_pending().count(), 5);
    }
}
