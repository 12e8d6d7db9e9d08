//! Receiver-side deduplication via idempotency keys.
//!
//! §3.2: "a unique ID (e.g., in the form of an idempotency key) is
//! traditionally leveraged to prevent the execution of non-idempotent
//! operations for incoming duplicated messages … uniqueness ID guarantee
//! and subsequent detection of duplicated messages are still the
//! responsibility of applications." This store is that responsibility,
//! packaged: it remembers which (sender, key) pairs were executed and
//! caches their replies so duplicates are answered without re-execution.

use tca_sim::{Payload, ProcessId, RecentWindow};

/// Verdict for an incoming request.
pub enum Dedup {
    /// First sighting: execute, then call [`IdempotencyStore::record`].
    Fresh,
    /// Duplicate: resend this cached reply, do NOT re-execute.
    Duplicate(Option<Payload>),
}

/// Bounded store of executed idempotency keys and their replies.
///
/// Entries are evicted FIFO once `capacity` is exceeded — a deliberate
/// model of the real-world TTL on idempotency windows, and the reason
/// exactly-once is only exactly-once *within the window*.
pub struct IdempotencyStore {
    seen: RecentWindow<(ProcessId, u64), Option<Payload>>,
    hits: u64,
}

impl IdempotencyStore {
    /// Store remembering up to `capacity` keys.
    pub fn new(capacity: usize) -> Self {
        IdempotencyStore {
            seen: RecentWindow::new(capacity),
            hits: 0,
        }
    }

    /// Classify an incoming request by `(sender, key)`.
    pub fn check(&mut self, sender: ProcessId, key: u64) -> Dedup {
        match self.seen.get(&(sender, key)) {
            Some(reply) => {
                self.hits += 1;
                Dedup::Duplicate(reply.clone())
            }
            None => Dedup::Fresh,
        }
    }

    /// Record that `(sender, key)` was executed, with the reply to replay
    /// for future duplicates.
    pub fn record(&mut self, sender: ProcessId, key: u64, reply: Option<Payload>) {
        self.seen.insert((sender, key), reply);
    }

    /// Whether `(sender, key)` is remembered, *without* counting a
    /// duplicate hit — for observers that track duplicates but still
    /// execute them (e.g. at-least-once duplicate accounting).
    pub fn contains(&self, sender: ProcessId, key: u64) -> bool {
        self.seen.contains(&(sender, key))
    }

    /// Number of duplicate detections so far.
    pub fn duplicate_hits(&self) -> u64 {
        self.hits
    }

    /// Number of keys currently remembered.
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// True when nothing is remembered.
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P1: ProcessId = ProcessId(1);
    const P2: ProcessId = ProcessId(2);

    #[test]
    fn fresh_then_duplicate() {
        let mut store = IdempotencyStore::new(10);
        assert!(matches!(store.check(P1, 1), Dedup::Fresh));
        store.record(P1, 1, Some(Payload::new(42u64)));
        match store.check(P1, 1) {
            Dedup::Duplicate(Some(reply)) => assert_eq!(*reply.expect::<u64>(), 42),
            _ => panic!("expected cached duplicate"),
        }
        assert_eq!(store.duplicate_hits(), 1);
    }

    #[test]
    fn keys_are_scoped_per_sender() {
        let mut store = IdempotencyStore::new(10);
        store.record(P1, 1, None);
        assert!(matches!(store.check(P2, 1), Dedup::Fresh));
        assert!(matches!(store.check(P1, 1), Dedup::Duplicate(None)));
    }

    #[test]
    fn capacity_evicts_oldest_reopening_the_window() {
        let mut store = IdempotencyStore::new(2);
        store.record(P1, 1, None);
        store.record(P1, 2, None);
        store.record(P1, 3, None);
        assert_eq!(store.len(), 2);
        // Key 1 fell out of the window: a late duplicate executes again —
        // the fundamental limit of windowed dedup.
        assert!(matches!(store.check(P1, 1), Dedup::Fresh));
        assert!(matches!(store.check(P1, 3), Dedup::Duplicate(_)));
    }

    #[test]
    fn re_recording_same_key_does_not_duplicate_order() {
        let mut store = IdempotencyStore::new(2);
        store.record(P1, 1, None);
        store.record(P1, 1, Some(Payload::new(1u8)));
        store.record(P1, 2, None);
        assert_eq!(store.len(), 2);
        assert!(matches!(store.check(P1, 1), Dedup::Duplicate(Some(_))));
    }
}
