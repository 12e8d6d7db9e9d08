//! A strict two-phase-locking lock table with deadlock detection.
//!
//! Shared/exclusive locks with FIFO waiter queues. Deadlocks are detected
//! at request time by a depth-first search over the waits-for graph; the
//! requester is chosen as the victim (simple, deterministic). Releases
//! promote compatible waiters and report them so the engine can resume
//! their parked operations.
//!
//! Keys are borrowed: a request copies its key only when it creates the
//! lock entry, first adds the key to the transaction's held set, or parks
//! as a waiter. The held set stays a `DetHashSet` filled in grant order:
//! [`LockTable::release_all`] promotes waiters in that set's iteration
//! order, which is the order parked operations resume and reply in — a
//! sorted `Vec` would be cheaper and would reorder every run.

use std::collections::VecDeque;
use tca_sim::{DetHashMap as HashMap, DetHashSet as HashSet};

use crate::types::{Key, TxId};

/// Lock strength.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Shared (read) lock; compatible with other shared locks.
    Shared,
    /// Exclusive (write) lock; compatible with nothing.
    Exclusive,
}

/// Outcome of a lock request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Acquire {
    /// The lock is held; proceed.
    Granted,
    /// Conflict: the transaction is enqueued and must park.
    Waiting,
    /// Granting would deadlock; the requester should abort.
    Deadlock,
}

#[derive(Debug, Default)]
struct LockState {
    holders: HashMap<TxId, LockMode>,
    waiters: VecDeque<(TxId, LockMode)>,
}

impl LockState {
    /// Whether `tx` may take `mode` given current holders (ignoring `tx`'s
    /// own holdings, which enables upgrades).
    fn compatible(&self, tx: TxId, mode: LockMode) -> bool {
        self.holders.iter().all(|(&holder, &held)| {
            holder == tx || (mode == LockMode::Shared && held == LockMode::Shared)
        })
    }
}

/// The lock manager for one database engine.
#[derive(Debug, Default)]
pub struct LockTable {
    locks: HashMap<Key, LockState>,
    held: HashMap<TxId, HashSet<Key>>,
    waiting_on: HashMap<TxId, Key>,
}

/// Add `key` to a transaction's held set, copying it only if it is new
/// (an upgrade re-grants a key the set already has).
fn hold(held: &mut HashSet<Key>, key: &str) {
    if !held.contains(key) {
        held.insert(key.to_owned());
    }
}

impl LockTable {
    /// Empty table.
    pub fn new() -> Self {
        LockTable::default()
    }

    /// Request `mode` on `key` for `tx`.
    pub fn acquire(&mut self, tx: TxId, key: &str, mode: LockMode) -> Acquire {
        let state = match self.locks.get_mut(key) {
            Some(state) => state,
            None => self.locks.entry(key.to_owned()).or_default(),
        };
        // Re-entrant / upgrade-free cases.
        if let Some(&held) = state.holders.get(&tx) {
            if held == LockMode::Exclusive || mode == LockMode::Shared {
                return Acquire::Granted;
            }
        }
        let no_earlier_waiters = state.waiters.iter().all(|&(w, _)| w == tx);
        if state.compatible(tx, mode) && no_earlier_waiters {
            state.holders.insert(tx, mode);
            hold(self.held.entry(tx).or_default(), key);
            return Acquire::Granted;
        }
        // Conflict: enqueue (once) and test for a deadlock cycle.
        if !state.waiters.iter().any(|&(w, _)| w == tx) {
            state.waiters.push_back((tx, mode));
        } else if let Some(entry) = state.waiters.iter_mut().find(|(w, _)| *w == tx) {
            // A repeated request on the same key can only strengthen.
            if mode == LockMode::Exclusive {
                entry.1 = LockMode::Exclusive;
            }
        }
        self.waiting_on.insert(tx, key.to_owned());
        if self.cycle_from(tx) {
            self.remove_waiter(tx, key);
            self.waiting_on.remove(&tx);
            return Acquire::Deadlock;
        }
        Acquire::Waiting
    }

    /// Release everything `tx` holds or waits for. Returns the transactions
    /// whose queued request became granted, in grant order.
    pub fn release_all(&mut self, tx: TxId) -> Vec<TxId> {
        let held = self.held.remove(&tx).unwrap_or_default();
        for key in &held {
            if let Some(state) = self.locks.get_mut(key) {
                state.holders.remove(&tx);
            }
        }
        if let Some(key) = self.waiting_on.remove(&tx) {
            self.remove_waiter(tx, &key);
        }
        let mut granted = Vec::new();
        for key in &held {
            self.promote(key, &mut granted);
            if let Some(state) = self.locks.get(key) {
                if state.holders.is_empty() && state.waiters.is_empty() {
                    self.locks.remove(key);
                }
            }
        }
        granted
    }

    /// Locks currently held by `tx`.
    pub fn held_by(&self, tx: TxId) -> impl Iterator<Item = &Key> {
        self.held.get(&tx).into_iter().flatten()
    }

    /// Whether `tx` currently waits for a lock.
    pub fn is_waiting(&self, tx: TxId) -> bool {
        self.waiting_on.contains_key(&tx)
    }

    /// Number of keys with active lock state (for tests/metrics).
    pub fn active_keys(&self) -> usize {
        self.locks.len()
    }

    fn remove_waiter(&mut self, tx: TxId, key: &str) {
        if let Some(state) = self.locks.get_mut(key) {
            state.waiters.retain(|&(w, _)| w != tx);
        }
    }

    /// Promote front waiters on `key` while they are compatible.
    fn promote(&mut self, key: &str, granted: &mut Vec<TxId>) {
        let Some(state) = self.locks.get_mut(key) else {
            return;
        };
        while let Some(&(tx, mode)) = state.waiters.front() {
            if !state.compatible(tx, mode) {
                break;
            }
            state.waiters.pop_front();
            state.holders.insert(tx, mode);
            hold(self.held.entry(tx).or_default(), key);
            self.waiting_on.remove(&tx);
            granted.push(tx);
            // A granted exclusive blocks everyone behind it.
            if mode == LockMode::Exclusive {
                break;
            }
        }
    }

    /// DFS over the waits-for graph starting at `from`.
    ///
    /// Edges: a waiting transaction waits for every incompatible holder of
    /// the key it queues on, and for every waiter ahead of it in the queue.
    fn cycle_from(&self, from: TxId) -> bool {
        let mut stack = vec![from];
        let mut seen = HashSet::default();
        while let Some(tx) = stack.pop() {
            let Some(key) = self.waiting_on.get(&tx) else {
                continue;
            };
            let Some(state) = self.locks.get(key) else {
                continue;
            };
            let my_mode = state
                .waiters
                .iter()
                .find(|&&(w, _)| w == tx)
                .map(|&(_, m)| m)
                .unwrap_or(LockMode::Exclusive);
            let mut blockers: Vec<TxId> = state
                .holders
                .iter()
                .filter(|(&h, &held)| {
                    h != tx && !(my_mode == LockMode::Shared && held == LockMode::Shared)
                })
                .map(|(&h, _)| h)
                .collect();
            for &(w, _) in &state.waiters {
                if w == tx {
                    break;
                }
                blockers.push(w);
            }
            for b in blockers {
                if b == from {
                    return true;
                }
                if seen.insert(b) {
                    stack.push(b);
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(s: &str) -> Key {
        s.to_owned()
    }

    #[test]
    fn shared_locks_coexist() {
        let mut t = LockTable::new();
        assert_eq!(
            t.acquire(TxId(1), &k("a"), LockMode::Shared),
            Acquire::Granted
        );
        assert_eq!(
            t.acquire(TxId(2), &k("a"), LockMode::Shared),
            Acquire::Granted
        );
    }

    #[test]
    fn exclusive_conflicts_with_everything() {
        let mut t = LockTable::new();
        assert_eq!(
            t.acquire(TxId(1), &k("a"), LockMode::Exclusive),
            Acquire::Granted
        );
        assert_eq!(
            t.acquire(TxId(2), &k("a"), LockMode::Shared),
            Acquire::Waiting
        );
        assert_eq!(
            t.acquire(TxId(3), &k("a"), LockMode::Exclusive),
            Acquire::Waiting
        );
    }

    #[test]
    fn reentrant_and_upgrade() {
        let mut t = LockTable::new();
        assert_eq!(
            t.acquire(TxId(1), &k("a"), LockMode::Shared),
            Acquire::Granted
        );
        assert_eq!(
            t.acquire(TxId(1), &k("a"), LockMode::Shared),
            Acquire::Granted
        );
        // Sole-holder upgrade succeeds immediately.
        assert_eq!(
            t.acquire(TxId(1), &k("a"), LockMode::Exclusive),
            Acquire::Granted
        );
        // Downgrade request after X is a no-op grant.
        assert_eq!(
            t.acquire(TxId(1), &k("a"), LockMode::Shared),
            Acquire::Granted
        );
    }

    #[test]
    fn release_promotes_fifo() {
        let mut t = LockTable::new();
        t.acquire(TxId(1), &k("a"), LockMode::Exclusive);
        t.acquire(TxId(2), &k("a"), LockMode::Exclusive);
        t.acquire(TxId(3), &k("a"), LockMode::Shared);
        let granted = t.release_all(TxId(1));
        assert_eq!(granted, vec![TxId(2)], "FIFO: tx2 first, tx3 still blocked");
        let granted = t.release_all(TxId(2));
        assert_eq!(granted, vec![TxId(3)]);
    }

    #[test]
    fn release_grants_multiple_readers() {
        let mut t = LockTable::new();
        t.acquire(TxId(1), &k("a"), LockMode::Exclusive);
        t.acquire(TxId(2), &k("a"), LockMode::Shared);
        t.acquire(TxId(3), &k("a"), LockMode::Shared);
        let granted = t.release_all(TxId(1));
        assert_eq!(granted, vec![TxId(2), TxId(3)]);
    }

    #[test]
    fn simple_deadlock_detected() {
        let mut t = LockTable::new();
        t.acquire(TxId(1), &k("a"), LockMode::Exclusive);
        t.acquire(TxId(2), &k("b"), LockMode::Exclusive);
        assert_eq!(
            t.acquire(TxId(1), &k("b"), LockMode::Exclusive),
            Acquire::Waiting
        );
        assert_eq!(
            t.acquire(TxId(2), &k("a"), LockMode::Exclusive),
            Acquire::Deadlock
        );
    }

    #[test]
    fn three_way_deadlock_detected() {
        let mut t = LockTable::new();
        t.acquire(TxId(1), &k("a"), LockMode::Exclusive);
        t.acquire(TxId(2), &k("b"), LockMode::Exclusive);
        t.acquire(TxId(3), &k("c"), LockMode::Exclusive);
        assert_eq!(
            t.acquire(TxId(1), &k("b"), LockMode::Exclusive),
            Acquire::Waiting
        );
        assert_eq!(
            t.acquire(TxId(2), &k("c"), LockMode::Exclusive),
            Acquire::Waiting
        );
        assert_eq!(
            t.acquire(TxId(3), &k("a"), LockMode::Exclusive),
            Acquire::Deadlock
        );
    }

    #[test]
    fn upgrade_deadlock_between_two_readers() {
        // Both hold S, both want X: classic upgrade deadlock.
        let mut t = LockTable::new();
        t.acquire(TxId(1), &k("a"), LockMode::Shared);
        t.acquire(TxId(2), &k("a"), LockMode::Shared);
        assert_eq!(
            t.acquire(TxId(1), &k("a"), LockMode::Exclusive),
            Acquire::Waiting
        );
        assert_eq!(
            t.acquire(TxId(2), &k("a"), LockMode::Exclusive),
            Acquire::Deadlock
        );
    }

    #[test]
    fn victim_release_unblocks_other() {
        let mut t = LockTable::new();
        t.acquire(TxId(1), &k("a"), LockMode::Exclusive);
        t.acquire(TxId(2), &k("b"), LockMode::Exclusive);
        t.acquire(TxId(1), &k("b"), LockMode::Exclusive);
        assert_eq!(
            t.acquire(TxId(2), &k("a"), LockMode::Exclusive),
            Acquire::Deadlock
        );
        // tx2 aborts, releasing b; tx1's queued request gets granted.
        let granted = t.release_all(TxId(2));
        assert_eq!(granted, vec![TxId(1)]);
        assert!(!t.is_waiting(TxId(1)));
    }

    #[test]
    fn table_cleans_up_after_release() {
        let mut t = LockTable::new();
        t.acquire(TxId(1), &k("a"), LockMode::Exclusive);
        t.acquire(TxId(1), &k("b"), LockMode::Shared);
        assert_eq!(t.active_keys(), 2);
        t.release_all(TxId(1));
        assert_eq!(t.active_keys(), 0);
        assert_eq!(t.held_by(TxId(1)).count(), 0);
    }

    #[test]
    fn waiter_cannot_jump_queue() {
        // tx2 waits for X; a later shared request must not overtake it
        // (prevents writer starvation).
        let mut t = LockTable::new();
        t.acquire(TxId(1), &k("a"), LockMode::Shared);
        assert_eq!(
            t.acquire(TxId(2), &k("a"), LockMode::Exclusive),
            Acquire::Waiting
        );
        assert_eq!(
            t.acquire(TxId(3), &k("a"), LockMode::Shared),
            Acquire::Waiting
        );
        let granted = t.release_all(TxId(1));
        assert_eq!(granted, vec![TxId(2)]);
    }
}
