//! Write-ahead logging and durable objects.
//!
//! Durability in the simulation is modelled by *objects that survive node
//! crashes*: a [`DurableLog`] or [`DurableCell`] handle is stored once in
//! the process's [`tca_sim::Disk`]; appends become durable when the handler
//! that performed them returns (the kernel guarantees crashes only occur
//! between handlers), which models fsync-per-commit. Fsync *latency* is
//! charged separately by the database server when it delays its replies.
//!
//! The same rule makes an in-place update of a [`DurableCell`] atomic: a
//! crash sees it whole or not at all. Durable state is therefore never
//! copied out and stored back — readers borrow it
//! ([`DurableLog::with_tail`], [`DurableCell::with`]) and the owner
//! patches it where it lies ([`DurableCell::update`]), so the cost of
//! keeping it is the size of the change, not of the state.

use std::cell::RefCell;
use std::rc::Rc;

use crate::types::{Key, Timestamp, TxId, Value};

/// One redo record: everything needed to replay a committed transaction.
#[derive(Debug, Clone)]
pub struct WalRecord {
    /// The committing transaction.
    pub tx: TxId,
    /// Its commit timestamp.
    pub commit_ts: Timestamp,
    /// The write set: key → new value (`None` = delete).
    pub writes: Vec<(Key, Option<Value>)>,
}

/// An append-only durable log of `T` records.
///
/// Cloning the handle shares the underlying log (like two file descriptors
/// on one file). `truncate_to` discards a prefix after a checkpoint.
#[derive(Debug)]
pub struct DurableLog<T> {
    inner: Rc<RefCell<LogInner<T>>>,
}

#[derive(Debug)]
struct LogInner<T> {
    /// Logical sequence number of the first retained record.
    base_lsn: u64,
    records: Vec<T>,
}

impl<T> Clone for DurableLog<T> {
    fn clone(&self) -> Self {
        DurableLog {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<T> Default for DurableLog<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> DurableLog<T> {
    /// A fresh empty log.
    pub fn new() -> Self {
        DurableLog {
            inner: Rc::new(RefCell::new(LogInner {
                base_lsn: 0,
                records: Vec::new(),
            })),
        }
    }
}

impl<T> DurableLog<T> {
    /// Append a record; returns its logical sequence number.
    pub fn append(&self, record: T) -> u64 {
        let mut inner = self.inner.borrow_mut();
        let lsn = inner.base_lsn + inner.records.len() as u64;
        inner.records.push(record);
        lsn
    }

    /// LSN the next append will receive.
    pub fn next_lsn(&self) -> u64 {
        let inner = self.inner.borrow();
        inner.base_lsn + inner.records.len() as u64
    }

    /// LSN of the oldest retained record (`next_lsn` when none is): every
    /// record below it has been truncated away. A lookup of one LSN checks
    /// this first — [`DurableLog::with_tail`] clamps a `from` below it up
    /// to it, and so answers with a *later* record.
    pub fn first_lsn(&self) -> u64 {
        self.inner.borrow().base_lsn
    }

    /// Borrow the retained records with LSN ≥ `from` (recovery replay,
    /// checkpoint fold). `f` must not touch this log again: the borrow is
    /// held while it runs.
    pub fn with_tail<R>(&self, from: u64, f: impl FnOnce(&[T]) -> R) -> R {
        let inner = self.inner.borrow();
        let skip = (from.saturating_sub(inner.base_lsn) as usize).min(inner.records.len());
        f(&inner.records[skip..])
    }

    /// Discard records below `lsn` (safe once a checkpoint covers them).
    pub fn truncate_to(&self, lsn: u64) {
        let mut inner = self.inner.borrow_mut();
        let drop_n = lsn.saturating_sub(inner.base_lsn) as usize;
        let drop_n = drop_n.min(inner.records.len());
        inner.records.drain(..drop_n);
        inner.base_lsn += drop_n as u64;
    }

    /// Number of records currently retained.
    pub fn len(&self) -> usize {
        self.inner.borrow().records.len()
    }

    /// True when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A single durable slot of `T` (checkpoint images, manifests).
#[derive(Debug)]
pub struct DurableCell<T> {
    inner: Rc<RefCell<Option<T>>>,
}

impl<T> Clone for DurableCell<T> {
    fn clone(&self) -> Self {
        DurableCell {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<T> Default for DurableCell<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> DurableCell<T> {
    /// An empty cell.
    pub fn new() -> Self {
        DurableCell {
            inner: Rc::new(RefCell::new(None)),
        }
    }
}

impl<T> DurableCell<T> {
    /// Patch the stored value in place, starting an empty cell from
    /// `T::default()`. The patch is atomic with respect to crashes because
    /// the kernel only crashes a node between handlers — the same rule that
    /// makes an append durable.
    pub fn update(&self, f: impl FnOnce(&mut T))
    where
        T: Default,
    {
        f(self.inner.borrow_mut().get_or_insert_with(T::default));
    }

    /// Borrow the stored value, if any.
    pub fn with<R>(&self, f: impl FnOnce(Option<&T>) -> R) -> R {
        f(self.inner.borrow().as_ref())
    }

    /// True when a value is present.
    pub fn is_set(&self) -> bool {
        self.inner.borrow().is_some()
    }
}

/// A checkpoint image: materialized state plus the log position it covers.
#[derive(Debug, Clone, Default)]
pub struct Checkpoint<S> {
    /// The materialized state at the checkpoint.
    pub state: S,
    /// All log records below this LSN are reflected in `state`.
    pub covered_lsn: u64,
    /// Engine logical clock at checkpoint time.
    pub ts: Timestamp,
    /// The engine's next transaction id at checkpoint time: the folded
    /// records no longer tell recovery which ids were used.
    pub next_tx: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tail<T: Clone>(log: &DurableLog<T>, from: u64) -> Vec<T> {
        log.with_tail(from, <[T]>::to_vec)
    }

    #[test]
    fn append_assigns_sequential_lsns() {
        let log = DurableLog::new();
        assert_eq!(log.append(1u32), 0);
        assert_eq!(log.append(2), 1);
        assert_eq!(log.append(3), 2);
        assert_eq!(log.next_lsn(), 3);
        assert_eq!(tail(&log, 1), vec![2, 3]);
        assert_eq!(tail(&log, 5), Vec::<u32>::new());
    }

    #[test]
    fn truncate_preserves_lsn_space() {
        let log = DurableLog::new();
        for i in 0..10u32 {
            log.append(i);
        }
        log.truncate_to(4);
        assert_eq!(log.len(), 6);
        assert_eq!(tail(&log, 4), (4..10).collect::<Vec<u32>>());
        // LSNs keep counting from where they were.
        assert_eq!(log.append(10), 10);
        assert_eq!(tail(&log, 9), vec![9, 10]);
        // Truncating below the base is a no-op.
        log.truncate_to(2);
        assert_eq!(tail(&log, 4)[0], 4);
    }

    #[test]
    fn lookups_below_the_floor_find_nothing() {
        let log = DurableLog::new();
        assert_eq!(log.first_lsn(), 0);
        for i in 0..10u32 {
            log.append(i);
        }
        log.truncate_to(4);
        assert_eq!(log.first_lsn(), 4);
        // A tail asked from below the floor starts *at* the floor: its
        // first record is LSN 4, not the LSN asked for. Whoever wants
        // "record 2 or nothing" has to compare with `first_lsn`.
        assert_eq!(tail(&log, 2), tail(&log, 4));
        assert_eq!(tail(&log, 2)[0], 4);
        log.truncate_to(100);
        assert_eq!(log.first_lsn(), log.next_lsn());
        assert_eq!(log.first_lsn(), 10);
    }

    #[test]
    fn truncate_beyond_end_clears() {
        let log = DurableLog::new();
        log.append(1u8);
        log.truncate_to(100);
        assert!(log.is_empty());
        assert_eq!(log.append(2), 1, "base advanced only past real records");
    }

    #[test]
    fn handles_share_state() {
        let a: DurableLog<u8> = DurableLog::new();
        let b = a.clone();
        a.append(7);
        assert_eq!(tail(&b, 0), vec![7]);
    }

    #[test]
    fn durable_cell_roundtrip() {
        let c: DurableCell<String> = DurableCell::new();
        assert!(!c.is_set());
        assert_eq!(c.with(|v| v.cloned()), None);
        c.update(|v| v.push_str("snap"));
        assert_eq!(c.with(|v| v.cloned()).as_deref(), Some("snap"));
        let d = c.clone();
        d.update(|v| v.push('2'));
        assert_eq!(c.with(|v| v.cloned()).as_deref(), Some("snap2"));
    }
}
