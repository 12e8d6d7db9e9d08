//! The single-node transactional storage engine.
//!
//! Combines [`MvccStore`], [`LockTable`], and the WAL into a non-blocking
//! engine suitable for event-driven servers: operations that must wait for
//! a lock return [`OpResult::Blocked`] and are retried automatically when
//! the blocking transaction finishes — the engine reports *resumptions* so
//! the caller (e.g. [`crate::server::DbServer`]) can answer parked clients.
//!
//! Isolation levels (§4.2 of the paper):
//! - **Read committed**: MVCC reads of the latest committed version at
//!   statement time; writes are buffered and applied blindly at commit
//!   (last-writer-wins). Exhibits non-repeatable reads and lost updates —
//!   deliberately, since this is the level many microservice deployments
//!   run at.
//! - **Snapshot isolation**: reads at the begin-time snapshot; the first
//!   committer wins on write-write conflicts. Exhibits write skew.
//! - **Serializable**: strict two-phase locking with deadlock detection.
//!
//! Durability costs what was written. A commit appends one redo record;
//! every `checkpoint_every` commits (read-only ones count: the cadence
//! fixes the clock a restart resumes from) the retained WAL — which *is*
//! the dirty set — is folded into the checkpoint image held in place in
//! its [`DurableCell`], and the WAL is truncated. Nothing on this path
//! copies or walks the whole keyspace.
//!
//! A committed key keeps one version. Only a snapshot-isolation
//! transaction reads below a key's latest version; every other read,
//! and SI's write validation, reads the latest. So the GC horizon is the
//! oldest open SI snapshot, or the clock when none is open, and a commit
//! compacts each chain it writes against it as it installs
//! ([`MvccStore::install_and_compact`]): with no snapshot open, a written
//! key is left with its new version alone, in place of the old one. A
//! key an SI snapshot still pins goes on a deferred set, and the fold
//! revisits only that set, so it costs the keys snapshots held back, not
//! the keys the WAL names. Recovery replays the tail through the same
//! install.
//!
//! A loaded keyspace is held once, and densely. The first bulk load into
//! an empty engine becomes a [`Base`]: the load's own [`Pairs`] batch (one
//! key arena, no `String` per key) under a read-only hash index, never
//! mutated, shared by `Rc` between the
//! version store (which lays its chains over it) and the checkpoint
//! image, an [`EngineImage`] of that base plus a delta of what was folded
//! since. A later load goes into the delta and the chains. Because
//! neither side ever writes the base, sharing it between volatile state
//! and a durable handle is sound: a crash cannot tear it, and
//! [`Engine::recover`] takes the image's base by reference, installs the
//! delta and replays the tail, at the cost of what was written.
//!
//! Keys come in as `&str` and are copied where they are first stored: a
//! lock entry, a transaction's first write to the key, a parked
//! operation. History is a switch ([`Engine::record_footprints`]): a
//! commit leaves a [`TxFootprint`] for the serializability checker only
//! while it is on, and the read log and the copy of the written keys that
//! go into one are not built while it is off. A bare engine keeps it on —
//! its users are tests, audits and checker cells that drain
//! [`Engine::take_footprints`] — and the long-lived owners that never
//! drain ([`crate::server::DbServer`], the 2PC participant) build theirs
//! with [`Engine::boot`], which turns it off.
//!
//! A transaction that runs alone takes no locks. `begin_alone_if_idle` is
//! for a caller that begins, runs and ends a transaction inside one call
//! — a stored procedure ([`crate::proc::run_proc`]). If no other
//! transaction is open when it begins, none can begin before it ends, so
//! every lock it asked for would be granted and every release would wake
//! no one: it skips the lock table on read, write, commit and abort. The
//! result is exact, not approximate — the same values, the same WAL
//! records, the same footprints. Anything that keeps a transaction open
//! across calls (interactive sessions, the 2PC execute phase) begins with
//! [`Engine::begin`] and keeps full two-phase locking.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::rc::Rc;
use tca_sim::{DetHashMap as HashMap, DetHashSet as HashSet, Disk};

use crate::locks::{Acquire, LockMode, LockTable};
use crate::mvcc::{Base, MvccStore, VersionRef};
use crate::types::{AbortReason, IsolationLevel, Key, Pairs, Timestamp, TxId, Value};
use crate::wal::{Checkpoint, DurableCell, DurableLog, WalRecord};

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Take a checkpoint (fold and truncate the WAL, compact the versions
    /// it wrote) every this many commits, read-only ones included.
    pub checkpoint_every: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            checkpoint_every: 1024,
        }
    }
}

/// The engine's checkpoint image: the base of its first bulk load, shared
/// with the version store, and the committed state folded over it since.
#[derive(Debug, Clone, Default)]
pub struct EngineImage {
    /// The first bulk load into the empty engine (empty if none), never
    /// mutated.
    base: Rc<Base>,
    /// Folded writes: a value per written key, or a tombstone for a
    /// deleted base key (a deleted key with no base version is absent).
    delta: BTreeMap<Key, Option<Value>>,
}

impl EngineImage {
    /// The first bulk load into the empty engine (empty if none).
    pub fn base(&self) -> &Rc<Base> {
        &self.base
    }

    /// What was folded over the base: a value per written key, or a
    /// tombstone for a deleted base key.
    pub fn delta(&self) -> &BTreeMap<Key, Option<Value>> {
        &self.delta
    }

    /// Fold one committed write (`None` = delete) into the delta.
    fn fold(&mut self, key: &str, value: Option<&Value>) {
        if value.is_none() && !self.base.contains_key(key) {
            self.delta.remove(key);
        } else if let Some(slot) = self.delta.get_mut(key) {
            *slot = value.cloned();
        } else {
            self.delta.insert(key.to_owned(), value.cloned());
        }
    }

    /// The committed state the image holds, base and delta merged (audits
    /// and tests; it copies the whole keyspace).
    pub fn materialize(&self) -> BTreeMap<Key, Value> {
        let base = self
            .base
            .iter()
            .filter(|(k, _)| !self.delta.contains_key(*k));
        let delta = self
            .delta
            .iter()
            .filter_map(|(k, v)| Some((k.as_str(), Cow::Borrowed(v.as_ref()?))));
        base.chain(delta)
            .map(|(k, v)| (k.to_owned(), v.into_owned()))
            .collect()
    }
}

/// Result of a read or write request.
#[derive(Debug, Clone, PartialEq)]
pub enum OpResult {
    /// Read produced this value (`None` = key absent).
    Read(Option<Value>),
    /// Write buffered successfully.
    Written,
    /// The operation must wait for a lock; the engine parked it.
    Blocked,
    /// The transaction was aborted by the engine.
    Aborted(AbortReason),
}

/// Result of a commit request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommitResult {
    /// Durable at this timestamp.
    Committed(Timestamp),
    /// Validation or deadlock forced an abort.
    Aborted(AbortReason),
}

/// A parked operation resumed by someone else's commit/abort.
#[derive(Debug, Clone, PartialEq)]
pub struct Resumption {
    /// The transaction whose operation resumed.
    pub tx: TxId,
    /// Its (now completed) result.
    pub result: OpResult,
}

/// What a transaction read and wrote — input to the serializability checker.
#[derive(Debug, Clone)]
pub struct TxFootprint {
    /// Transaction id.
    pub tx: TxId,
    /// Commit timestamp.
    pub commit_ts: Timestamp,
    /// Isolation level it ran at.
    pub iso: IsolationLevel,
    /// Keys read, with the commit timestamp of the version observed
    /// (0 = observed absence).
    pub reads: Vec<(Key, Timestamp)>,
    /// Keys written.
    pub writes: Vec<Key>,
}

#[derive(Debug)]
enum PendingOp {
    Read(Key),
    Write(Key, Option<Value>),
}

#[derive(Debug)]
struct ActiveTx {
    iso: IsolationLevel,
    begin_ts: Timestamp,
    writes: BTreeMap<Key, Option<Value>>,
    reads: Vec<(Key, Timestamp)>,
    pending: Option<PendingOp>,
    /// Begun by `begin_alone_if_idle` with no other transaction open: it
    /// takes and releases no locks.
    alone: bool,
}

/// The transactional engine.
pub struct Engine {
    config: EngineConfig,
    mvcc: MvccStore,
    locks: LockTable,
    wal: DurableLog<WalRecord>,
    checkpoint: DurableCell<Checkpoint<EngineImage>>,
    clock: Timestamp,
    next_tx: u64,
    active: HashMap<TxId, ActiveTx>,
    commits_since_checkpoint: u64,
    /// Open snapshot-isolation transactions: while there are none, the
    /// GC horizon is the clock and finding it scans nothing.
    snapshots_open: usize,
    /// Keys an install or a fold could not settle (versions an open
    /// snapshot pins, a tombstone newer than the horizon, a load over
    /// existing history): the next checkpoint compacts them again.
    gc_deferred: HashSet<Key>,
    /// Whether commits record a [`TxFootprint`]
    /// ([`Engine::record_footprints`]).
    recording: bool,
    footprints: Vec<TxFootprint>,
    aborts: HashMap<AbortReason, u64>,
    commit_count: u64,
}

/// What a read of `version` observes: the value, and for the checker the
/// commit timestamp that wrote it (0 = observed absence).
fn observed(version: Option<VersionRef<'_>>) -> (Option<Value>, Timestamp) {
    match version {
        Some(VersionRef {
            ts,
            value: Some(value),
        }) => (Some(value.into_owned()), ts),
        _ => (None, 0),
    }
}

impl Engine {
    /// Fresh engine writing to the given durable log and checkpoint cell.
    pub fn new(
        config: EngineConfig,
        wal: DurableLog<WalRecord>,
        checkpoint: DurableCell<Checkpoint<EngineImage>>,
    ) -> Self {
        Engine {
            config,
            mvcc: MvccStore::new(),
            locks: LockTable::new(),
            wal,
            checkpoint,
            clock: 0,
            next_tx: 0,
            active: HashMap::default(),
            commits_since_checkpoint: 0,
            snapshots_open: 0,
            gc_deferred: HashSet::default(),
            recording: true,
            footprints: Vec::new(),
            aborts: HashMap::default(),
            commit_count: 0,
        }
    }

    /// Rebuild an engine from its durable state: share the checkpoint
    /// image's base, install its delta, then replay every WAL record after
    /// it (redo-only, ARIES-lite) through the commit path's install, all
    /// by reference — the cost is the delta and the tail, not the
    /// keyspace, and with no transaction open each replayed key keeps one
    /// version. Transactions active at the crash never reached the WAL
    /// and are thus implicitly aborted — atomicity by construction. Transaction ids resume above every id the image or
    /// the tail records, so they keep increasing across a fold.
    pub fn recover(
        config: EngineConfig,
        wal: DurableLog<WalRecord>,
        checkpoint: DurableCell<Checkpoint<EngineImage>>,
    ) -> Self {
        let mut engine = Engine::new(config, wal, checkpoint);
        let replay_from = engine.checkpoint.with(|image| {
            image.map_or(0, |image| {
                let (base, delta) = (Rc::clone(&image.state.base), &image.state.delta);
                engine.mvcc = MvccStore::from_image(base, delta, image.ts);
                engine.clock = image.ts;
                engine.next_tx = image.next_tx;
                image.covered_lsn
            })
        });
        let wal = engine.wal.clone();
        wal.with_tail(replay_from, |tail| {
            for record in tail {
                engine.clock = engine.clock.max(record.commit_ts);
                engine.next_tx = engine.next_tx.max(record.tx.0 + 1);
                let horizon = engine.gc_horizon();
                for (key, value) in &record.writes {
                    engine.install(key, record.commit_ts, value.clone(), horizon);
                }
            }
        });
        engine
    }

    /// The engine a long-lived server process boots with: recovered, under
    /// the default config, from `disk`'s `"wal"` and `"checkpoint"` handles
    /// (a fresh engine on first boot, when both are empty), with footprint
    /// recording off — nothing drains a server's footprints, so left on
    /// they grow with every commit for as long as the server lives.
    pub fn boot(disk: &mut Disk) -> Self {
        let wal = disk.durable("wal");
        let checkpoint = disk.durable("checkpoint");
        let mut engine = Engine::recover(EngineConfig::default(), wal, checkpoint);
        engine.record_footprints(false);
        engine
    }

    /// Start a transaction at the given isolation level.
    pub fn begin(&mut self, iso: IsolationLevel) -> TxId {
        self.start(iso, false)
    }

    /// Start a serializable transaction that the caller commits or aborts
    /// before it returns, with no other call on this engine in between.
    /// When no other transaction is open, it runs alone and takes no
    /// locks (see the module docs).
    pub(crate) fn begin_alone_if_idle(&mut self) -> TxId {
        let alone = self.active.is_empty();
        self.start(IsolationLevel::Serializable, alone)
    }

    fn start(&mut self, iso: IsolationLevel, alone: bool) -> TxId {
        let tx = TxId(self.next_tx);
        self.next_tx += 1;
        if iso == IsolationLevel::SnapshotIsolation {
            self.snapshots_open += 1;
        }
        self.active.insert(
            tx,
            ActiveTx {
                iso,
                begin_ts: self.clock,
                writes: BTreeMap::new(),
                reads: Vec::new(),
                pending: None,
                alone,
            },
        );
        tx
    }

    /// Turn footprint recording on or off (on in a fresh engine; see the
    /// module docs for who turns it off and what that saves).
    pub fn record_footprints(&mut self, on: bool) {
        self.recording = on;
    }

    /// Read `key` in transaction `tx`.
    pub fn read(&mut self, tx: TxId, key: &str) -> (OpResult, Vec<Resumption>) {
        if !self.active.contains_key(&tx) {
            return (OpResult::Aborted(AbortReason::Requested), Vec::new());
        }
        self.do_read(tx, key)
    }

    /// Write `value` to `key` in transaction `tx` (`None` = delete).
    pub fn write(
        &mut self,
        tx: TxId,
        key: &str,
        value: Option<Value>,
    ) -> (OpResult, Vec<Resumption>) {
        if !self.active.contains_key(&tx) {
            return (OpResult::Aborted(AbortReason::Requested), Vec::new());
        }
        self.do_write(tx, key, value)
    }

    fn do_read(&mut self, tx: TxId, key: &str) -> (OpResult, Vec<Resumption>) {
        let state = self.active.get(&tx).expect("active");
        // Read-your-own-writes at every level.
        if let Some(buffered) = state.writes.get(key) {
            return (OpResult::Read(buffered.clone()), Vec::new());
        }
        let (value, ts) = match state.iso {
            IsolationLevel::ReadCommitted => self.observe_latest(key),
            IsolationLevel::SnapshotIsolation => {
                observed(self.mvcc.version_at(key, state.begin_ts))
            }
            IsolationLevel::Serializable if state.alone => self.observe_latest(key),
            IsolationLevel::Serializable => match self.locks.acquire(tx, key, LockMode::Shared) {
                Acquire::Granted => self.observe_latest(key),
                Acquire::Waiting => {
                    self.active.get_mut(&tx).expect("active").pending =
                        Some(PendingOp::Read(key.to_owned()));
                    return (OpResult::Blocked, Vec::new());
                }
                Acquire::Deadlock => {
                    let resumed = self.internal_abort(tx, AbortReason::Deadlock);
                    return (OpResult::Aborted(AbortReason::Deadlock), resumed);
                }
            },
        };
        if self.recording {
            let state = self.active.get_mut(&tx).expect("active");
            state.reads.push((key.to_owned(), ts));
        }
        (OpResult::Read(value), Vec::new())
    }

    fn do_write(
        &mut self,
        tx: TxId,
        key: &str,
        value: Option<Value>,
    ) -> (OpResult, Vec<Resumption>) {
        let state = self.active.get(&tx).expect("active");
        if state.iso == IsolationLevel::Serializable && !state.alone {
            match self.locks.acquire(tx, key, LockMode::Exclusive) {
                Acquire::Granted => {}
                Acquire::Waiting => {
                    self.active.get_mut(&tx).expect("active").pending =
                        Some(PendingOp::Write(key.to_owned(), value));
                    return (OpResult::Blocked, Vec::new());
                }
                Acquire::Deadlock => {
                    let resumed = self.internal_abort(tx, AbortReason::Deadlock);
                    return (OpResult::Aborted(AbortReason::Deadlock), resumed);
                }
            }
        }
        // The key is copied the first time the transaction writes it.
        let writes = &mut self.active.get_mut(&tx).expect("active").writes;
        match writes.get_mut(key) {
            Some(slot) => *slot = value,
            None => {
                writes.insert(key.to_owned(), value);
            }
        }
        (OpResult::Written, Vec::new())
    }

    /// Commit `tx`. On success the writes are in the WAL (durable) and
    /// visible to subsequent reads.
    pub fn commit(&mut self, tx: TxId) -> (CommitResult, Vec<Resumption>) {
        let Some(state) = self.active.get(&tx) else {
            return (CommitResult::Aborted(AbortReason::Requested), Vec::new());
        };
        // Snapshot-isolation first-committer-wins validation.
        if state.iso == IsolationLevel::SnapshotIsolation {
            let begin_ts = state.begin_ts;
            let conflict = state
                .writes
                .keys()
                .any(|k| self.mvcc.latest_ts(k).is_some_and(|ts| ts > begin_ts));
            if conflict {
                let resumed = self.internal_abort(tx, AbortReason::WriteConflict);
                return (CommitResult::Aborted(AbortReason::WriteConflict), resumed);
            }
        }
        let mut state = self.end(tx).expect("active");
        self.clock += 1;
        let commit_ts = self.clock;
        if self.recording {
            self.footprints.push(TxFootprint {
                tx,
                commit_ts,
                iso: state.iso,
                reads: std::mem::take(&mut state.reads),
                writes: state.writes.keys().cloned().collect(),
            });
        }
        if !state.writes.is_empty() {
            let horizon = self.gc_horizon();
            let mut writes = Vec::with_capacity(state.writes.len());
            for (key, value) in state.writes {
                self.install(&key, commit_ts, value.clone(), horizon);
                writes.push((key, value));
            }
            self.wal.append(WalRecord {
                tx,
                commit_ts,
                writes,
            });
        }
        self.commit_count += 1;
        self.commits_since_checkpoint += 1;
        if self.commits_since_checkpoint >= self.config.checkpoint_every {
            self.take_checkpoint();
        }
        if state.alone {
            return (CommitResult::Committed(commit_ts), Vec::new());
        }
        let granted = self.locks.release_all(tx);
        let resumed = self.resume(granted);
        (CommitResult::Committed(commit_ts), resumed)
    }

    /// Abort `tx`, dropping its buffered writes and releasing its locks.
    pub fn abort(&mut self, tx: TxId) -> Vec<Resumption> {
        if self.active.contains_key(&tx) {
            self.internal_abort(tx, AbortReason::Requested)
        } else {
            Vec::new()
        }
    }

    fn internal_abort(&mut self, tx: TxId, reason: AbortReason) -> Vec<Resumption> {
        let alone = self.end(tx).is_some_and(|state| state.alone);
        *self.aborts.entry(reason).or_insert(0) += 1;
        if alone {
            return Vec::new();
        }
        let granted = self.locks.release_all(tx);
        self.resume(granted)
    }

    /// Take `tx` out of the open transactions.
    fn end(&mut self, tx: TxId) -> Option<ActiveTx> {
        let state = self.active.remove(&tx)?;
        if state.iso == IsolationLevel::SnapshotIsolation {
            self.snapshots_open -= 1;
        }
        Some(state)
    }

    /// Install one committed write, compacting its key against
    /// `horizon`; a key a snapshot still pins is deferred to the next
    /// checkpoint.
    fn install(&mut self, key: &str, ts: Timestamp, value: Option<Value>, horizon: Timestamp) {
        let settled = self.mvcc.install_and_compact(key, ts, value, horizon);
        if !settled && !self.gc_deferred.contains(key) {
            self.gc_deferred.insert(key.to_owned());
        }
    }

    /// Retry the parked operation of every newly granted transaction.
    fn resume(&mut self, granted: Vec<TxId>) -> Vec<Resumption> {
        let mut out = Vec::new();
        for tx in granted {
            let Some(state) = self.active.get_mut(&tx) else {
                continue;
            };
            let Some(op) = state.pending.take() else {
                continue;
            };
            let (result, mut nested) = match op {
                PendingOp::Read(key) => self.do_read(tx, &key),
                PendingOp::Write(key, value) => self.do_write(tx, &key, value),
            };
            out.push(Resumption { tx, result });
            out.append(&mut nested);
        }
        out
    }

    /// Take a checkpoint now: fold the retained WAL into the image,
    /// truncate it, and compact the keys snapshots held back.
    pub fn take_checkpoint(&mut self) {
        self.fold_wal();
        self.commits_since_checkpoint = 0;
    }

    /// The retained WAL is the dirty set: patch the checkpoint image in
    /// place with every record it does not cover yet, then truncate.
    /// Costs what was written since the last fold — O(1) after a
    /// read-only interval — and is atomic because a node only crashes
    /// between handlers. The keys written since were compacted as they
    /// were installed; only the deferred ones are compacted again.
    fn fold_wal(&mut self) {
        let horizon = self.gc_horizon();
        let (clock, next_tx, lsn) = (self.clock, self.next_tx, self.wal.next_lsn());
        let mvcc = &mut self.mvcc;
        self.gc_deferred.retain(|key| !mvcc.gc_key(key, horizon));
        self.checkpoint.update(|image| {
            self.wal.with_tail(image.covered_lsn, |tail| {
                for (key, value) in tail.iter().flat_map(|record| &record.writes) {
                    image.state.fold(key, value.as_ref());
                }
            });
            image.covered_lsn = lsn;
            image.ts = clock;
            image.next_tx = next_tx;
        });
        self.wal.truncate_to(lsn);
    }

    fn observe_latest(&self, key: &str) -> (Option<Value>, Timestamp) {
        observed(self.mvcc.latest(key))
    }

    // ----- introspection --------------------------------------------------

    /// Engine logical clock (last commit timestamp).
    pub fn clock(&self) -> Timestamp {
        self.clock
    }

    /// Latest committed value of `key` (non-transactional peek, for tests
    /// and audits).
    pub fn peek(&self, key: &str) -> Option<Value> {
        self.mvcc.read_latest(key).map(Cow::into_owned)
    }

    /// Non-transactional scan of latest values under a prefix.
    pub fn peek_prefix(&self, prefix: &str) -> Vec<(Key, Value)> {
        self.mvcc
            .scan_latest(prefix)
            .map(|(k, v)| (k.to_owned(), v.into_owned()))
            .collect()
    }

    /// The oldest snapshot an SI transaction reads at (the clock when
    /// none is open): versions below the newest one at or under it are
    /// garbage. Read-committed and serializable transactions read only
    /// latest versions, so they pin nothing.
    pub fn gc_horizon(&self) -> Timestamp {
        if self.snapshots_open == 0 {
            return self.clock;
        }
        self.active
            .values()
            .filter(|t| t.iso == IsolationLevel::SnapshotIsolation)
            .map(|t| t.begin_ts)
            .min()
            .unwrap_or(self.clock)
    }

    /// The version store (read-only; audits and tests).
    pub fn store(&self) -> &MvccStore {
        &self.mvcc
    }

    /// Bulk-load one pair outside any transaction (setup only).
    pub fn load(&mut self, key: &Key, value: Value) {
        let mut pairs = Pairs::with_capacity(1, key.len());
        pairs.push(key, value);
        self.load_batch(pairs);
    }

    /// Bulk-load initial data outside any transaction (setup only). The
    /// batch is not WAL records but part of the checkpoint image — durable
    /// when the handler returns, like an append. Into an empty engine it
    /// is the base: the batch itself, its key arena and value column as
    /// they arrived (8 bytes a value while all are `Int`s), under a
    /// read-only index that the version store and the image share. Into a
    /// non-empty one, each key gets a chain, and a
    /// `String`, of its own in the version store and a copy in the image's
    /// delta. Pair `i` gets timestamp `clock + 1 + i`.
    pub fn load_batch(&mut self, pairs: Pairs) {
        // The image must cover every record older than what it is about to
        // hold, or replay would put an older write over a loaded key.
        if !self.wal.is_empty() {
            self.fold_wal();
        }
        let first_ts = self.clock + 1;
        self.clock += pairs.len() as u64;
        let (clock, next_tx) = (self.clock, self.next_tx);
        let mut overwritten = Vec::new();
        self.checkpoint.update(|image| {
            if self.mvcc.is_empty() {
                // An empty store means an empty image: both get the batch
                // as their one shared base.
                let base = self.mvcc.load_base(pairs, first_ts);
                image.state = EngineImage {
                    base,
                    delta: BTreeMap::new(),
                };
            } else {
                for (key, value) in pairs.iter() {
                    image.state.fold(key, Some(&value));
                }
                overwritten = self.mvcc.load(pairs, first_ts);
            }
            image.ts = clock;
            image.next_tx = next_tx;
        });
        self.gc_deferred.extend(overwritten);
    }

    /// Number of committed transactions.
    pub fn commit_count(&self) -> u64 {
        self.commit_count
    }

    /// Abort counts by reason.
    pub fn abort_count(&self, reason: AbortReason) -> u64 {
        self.aborts.get(&reason).copied().unwrap_or(0)
    }

    /// Number of currently active transactions.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// Drain the recorded transaction footprints (checker input).
    pub fn take_footprints(&mut self) -> Vec<TxFootprint> {
        std::mem::take(&mut self.footprints)
    }

    /// The WAL handle (e.g. to hand to a recovery test).
    pub fn wal(&self) -> &DurableLog<WalRecord> {
        &self.wal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> Engine {
        Engine::new(
            EngineConfig::default(),
            DurableLog::new(),
            DurableCell::new(),
        )
    }

    fn k(s: &str) -> Key {
        s.to_owned()
    }

    #[test]
    fn simple_commit_visible() {
        let mut e = engine();
        let tx = e.begin(IsolationLevel::Serializable);
        assert_eq!(
            e.write(tx, &k("a"), Some(Value::Int(1))).0,
            OpResult::Written
        );
        let (r, _) = e.commit(tx);
        assert!(matches!(r, CommitResult::Committed(_)));
        assert_eq!(e.peek("a"), Some(Value::Int(1)));
    }

    #[test]
    fn read_your_own_writes() {
        for iso in [
            IsolationLevel::ReadCommitted,
            IsolationLevel::SnapshotIsolation,
            IsolationLevel::Serializable,
        ] {
            let mut e = engine();
            let tx = e.begin(iso);
            let _ = e.write(tx, &k("a"), Some(Value::Int(7)));
            let (r, _) = e.read(tx, &k("a"));
            assert_eq!(r, OpResult::Read(Some(Value::Int(7))), "{iso}");
        }
    }

    #[test]
    fn abort_discards_writes() {
        let mut e = engine();
        let tx = e.begin(IsolationLevel::Serializable);
        e.write(tx, &k("a"), Some(Value::Int(1)));
        e.abort(tx);
        assert_eq!(e.peek("a"), None);
        assert_eq!(e.abort_count(AbortReason::Requested), 1);
    }

    #[test]
    fn snapshot_isolation_sees_begin_snapshot() {
        let mut e = engine();
        e.load(&k("a"), Value::Int(1));
        let t1 = e.begin(IsolationLevel::SnapshotIsolation);
        // Another transaction commits a change after t1 began.
        let t2 = e.begin(IsolationLevel::SnapshotIsolation);
        e.write(t2, &k("a"), Some(Value::Int(2)));
        assert!(matches!(e.commit(t2).0, CommitResult::Committed(_)));
        // t1 still sees the old value.
        assert_eq!(e.read(t1, &k("a")).0, OpResult::Read(Some(Value::Int(1))));
    }

    #[test]
    fn read_committed_sees_latest_each_statement() {
        let mut e = engine();
        e.load(&k("a"), Value::Int(1));
        let t1 = e.begin(IsolationLevel::ReadCommitted);
        assert_eq!(e.read(t1, &k("a")).0, OpResult::Read(Some(Value::Int(1))));
        let t2 = e.begin(IsolationLevel::ReadCommitted);
        e.write(t2, &k("a"), Some(Value::Int(2)));
        e.commit(t2);
        // Non-repeatable read at RC.
        assert_eq!(e.read(t1, &k("a")).0, OpResult::Read(Some(Value::Int(2))));
    }

    #[test]
    fn si_first_committer_wins() {
        let mut e = engine();
        e.load(&k("a"), Value::Int(0));
        let t1 = e.begin(IsolationLevel::SnapshotIsolation);
        let t2 = e.begin(IsolationLevel::SnapshotIsolation);
        e.write(t1, &k("a"), Some(Value::Int(1)));
        e.write(t2, &k("a"), Some(Value::Int(2)));
        assert!(matches!(e.commit(t1).0, CommitResult::Committed(_)));
        let (r, _) = e.commit(t2);
        assert_eq!(r, CommitResult::Aborted(AbortReason::WriteConflict));
        assert_eq!(e.peek("a"), Some(Value::Int(1)));
    }

    #[test]
    fn serializable_write_blocks_and_resumes() {
        let mut e = engine();
        e.load(&k("a"), Value::Int(0));
        let t1 = e.begin(IsolationLevel::Serializable);
        let t2 = e.begin(IsolationLevel::Serializable);
        assert_eq!(
            e.write(t1, &k("a"), Some(Value::Int(1))).0,
            OpResult::Written
        );
        assert_eq!(
            e.write(t2, &k("a"), Some(Value::Int(2))).0,
            OpResult::Blocked
        );
        let (r, resumed) = e.commit(t1);
        assert!(matches!(r, CommitResult::Committed(_)));
        assert_eq!(resumed.len(), 1);
        assert_eq!(resumed[0].tx, t2);
        assert_eq!(resumed[0].result, OpResult::Written);
        assert!(matches!(e.commit(t2).0, CommitResult::Committed(_)));
        assert_eq!(e.peek("a"), Some(Value::Int(2)));
    }

    #[test]
    fn serializable_deadlock_aborts_requester() {
        let mut e = engine();
        e.load(&k("a"), Value::Int(0));
        e.load(&k("b"), Value::Int(0));
        let t1 = e.begin(IsolationLevel::Serializable);
        let t2 = e.begin(IsolationLevel::Serializable);
        e.write(t1, &k("a"), Some(Value::Int(1)));
        e.write(t2, &k("b"), Some(Value::Int(1)));
        assert_eq!(
            e.write(t1, &k("b"), Some(Value::Int(1))).0,
            OpResult::Blocked
        );
        let (r, resumed) = e.write(t2, &k("a"), Some(Value::Int(1)));
        assert_eq!(r, OpResult::Aborted(AbortReason::Deadlock));
        // t2's abort released b, resuming t1's parked write.
        assert_eq!(resumed.len(), 1);
        assert_eq!(resumed[0].result, OpResult::Written);
        assert!(matches!(e.commit(t1).0, CommitResult::Committed(_)));
    }

    #[test]
    fn serializable_prevents_lost_update() {
        // Two increments at Serializable always sum; at RC one is lost.
        let run = |iso: IsolationLevel| -> i64 {
            let mut e = engine();
            e.load(&k("c"), Value::Int(0));
            let t1 = e.begin(iso);
            let t2 = e.begin(iso);
            // Both read 0.
            let v1 = match e.read(t1, &k("c")).0 {
                OpResult::Read(Some(v)) => v.as_int(),
                other => panic!("{other:?}"),
            };
            // t2's read blocks at Serializable (t1 holds S... actually S+S
            // coexist; the write upgrade is where they collide).
            let v2 = match e.read(t2, &k("c")).0 {
                OpResult::Read(Some(v)) => v.as_int(),
                OpResult::Blocked => 0,
                other => panic!("{other:?}"),
            };
            e.write(t1, &k("c"), Some(Value::Int(v1 + 1)));
            let w2 = e.write(t2, &k("c"), Some(Value::Int(v2 + 1))).0;
            let c1 = e.commit(t1).0;
            if matches!(c1, CommitResult::Aborted(_)) {
                // t1 was the deadlock victim — retry serially.
                let t3 = e.begin(iso);
                let v = e.peek("c").unwrap().as_int();
                e.write(t3, &k("c"), Some(Value::Int(v + 1)));
                e.commit(t3);
            }
            if !matches!(w2, OpResult::Aborted(_)) {
                let c2 = e.commit(t2).0;
                if matches!(c2, CommitResult::Aborted(_)) {
                    let t3 = e.begin(iso);
                    let v = e.peek("c").unwrap().as_int();
                    e.write(t3, &k("c"), Some(Value::Int(v + 1)));
                    e.commit(t3);
                }
            } else {
                let t3 = e.begin(iso);
                let v = e.peek("c").unwrap().as_int();
                e.write(t3, &k("c"), Some(Value::Int(v + 1)));
                e.commit(t3);
            }
            e.peek("c").unwrap().as_int()
        };
        assert_eq!(run(IsolationLevel::ReadCommitted), 1, "RC loses an update");
        assert_eq!(run(IsolationLevel::Serializable), 2, "2PL keeps both");
    }

    #[test]
    fn recovery_replays_wal() {
        let wal = DurableLog::new();
        let cp = DurableCell::new();
        {
            let mut e = Engine::new(EngineConfig::default(), wal.clone(), cp.clone());
            let t = e.begin(IsolationLevel::Serializable);
            e.write(t, &k("a"), Some(Value::Int(42)));
            e.commit(t);
            // Active (uncommitted) transaction at crash time.
            let t2 = e.begin(IsolationLevel::Serializable);
            e.write(t2, &k("b"), Some(Value::Int(99)));
            // crash: e dropped without commit
        }
        let recovered = Engine::recover(EngineConfig::default(), wal, cp);
        assert_eq!(recovered.peek("a"), Some(Value::Int(42)));
        assert_eq!(recovered.peek("b"), None, "uncommitted writes lost");
    }

    #[test]
    fn recover_over_empty_handles_is_a_fresh_engine() {
        // No image, so replay starts at LSN 0 — of an empty tail. This is
        // what lets a server open its engine one way on every boot.
        let fresh = engine();
        let recovered = Engine::recover(
            EngineConfig::default(),
            DurableLog::new(),
            DurableCell::new(),
        );
        for e in [&fresh, &recovered] {
            assert_eq!(e.clock(), 0);
            assert_eq!(e.next_tx, 0);
            assert_eq!(e.store().version_count(), 0);
            assert_eq!(e.wal().len(), 0);
            assert!(!e.checkpoint.is_set());
        }
    }

    #[test]
    fn recovery_uses_checkpoint_and_tail() {
        let wal = DurableLog::new();
        let cp = DurableCell::new();
        {
            let mut e = Engine::new(
                EngineConfig {
                    checkpoint_every: 2,
                },
                wal.clone(),
                cp.clone(),
            );
            for i in 0..5 {
                let t = e.begin(IsolationLevel::Serializable);
                e.write(t, &k(&format!("k{i}")), Some(Value::Int(i)));
                e.commit(t);
            }
        }
        assert!(cp.is_set(), "checkpoint taken");
        assert!(wal.len() < 5, "wal truncated at checkpoints");
        let recovered = Engine::recover(EngineConfig::default(), wal, cp);
        for i in 0..5 {
            assert_eq!(recovered.peek(&format!("k{i}")), Some(Value::Int(i)));
        }
    }

    #[test]
    fn recovery_shares_the_loaded_base() {
        let (wal, cp) = (DurableLog::new(), DurableCell::new());
        let mut e = Engine::new(EngineConfig::default(), wal.clone(), cp.clone());
        e.load_batch(
            vec![
                (k("a"), Value::Int(1)),
                (k("b"), Value::Int(2)),
                (k("z"), Value::Int(0)),
            ]
            .into(),
        );
        let base = cp.with(|image| Rc::clone(image.expect("loaded").state.base()));
        assert!(Rc::ptr_eq(e.store().base(), &base), "one base, not two");
        let t = e.begin(IsolationLevel::Serializable);
        e.write(t, "a", Some(Value::Int(3)));
        e.write(t, "b", None);
        e.commit(t);
        e.take_checkpoint();
        // A later load goes over the base, not into it.
        e.load(&k("c"), Value::Int(4));
        let mut recovered = Engine::recover(EngineConfig::default(), wal, cp.clone());
        assert!(Rc::ptr_eq(recovered.store().base(), &base));
        cp.with(|image| {
            let image = image.expect("loaded");
            assert!(Rc::ptr_eq(image.state.base(), &base));
            assert_eq!(image.state.delta().len(), 3, "a, b's tombstone and c");
        });
        assert_eq!(
            base.get("a").unwrap().value,
            Some(Cow::Owned(Value::Int(1))),
            "the base is never written"
        );
        assert_eq!(base.len(), 3);
        assert_eq!(recovered.peek_prefix(""), e.peek_prefix(""));
        assert_eq!(recovered.peek("b"), None);
        // An untouched base key reads at the image's timestamp, as every
        // recovered version does.
        let t = recovered.begin(IsolationLevel::SnapshotIsolation);
        recovered.read(t, "z");
        recovered.commit(t);
        let reads = &recovered.take_footprints()[0].reads;
        assert_eq!(reads, &vec![(k("z"), e.clock())]);
    }

    #[test]
    fn transaction_ids_keep_increasing_across_a_fold() {
        let wal = DurableLog::new();
        let cp = DurableCell::new();
        {
            let mut e = Engine::new(
                EngineConfig {
                    checkpoint_every: 2,
                },
                wal.clone(),
                cp.clone(),
            );
            for i in 0..2 {
                let t = e.begin(IsolationLevel::Serializable);
                e.write(t, &k(&format!("k{i}")), Some(Value::Int(i)));
                e.commit(t);
            }
        }
        // The second commit folded the WAL: no tail record names an id.
        assert_eq!(wal.len(), 0);
        let mut recovered = Engine::recover(EngineConfig::default(), wal, cp);
        let tx = recovered.begin(IsolationLevel::Serializable);
        assert!(tx.0 >= 2, "id {} reused after recovery", tx.0);
    }

    #[test]
    fn footprints_capture_reads_and_writes() {
        let mut e = engine();
        e.load(&k("a"), Value::Int(1));
        let t = e.begin(IsolationLevel::Serializable);
        e.read(t, &k("a"));
        e.write(t, &k("b"), Some(Value::Int(2)));
        e.commit(t);
        let fp = e.take_footprints();
        assert_eq!(fp.len(), 1);
        assert_eq!(fp[0].reads.len(), 1);
        assert_eq!(fp[0].writes, vec![k("b")]);
        assert!(e.take_footprints().is_empty(), "drained");
    }

    /// One script through every isolation level: buffered and committed
    /// reads, an absent key, an overwrite, a delete, a read-only commit
    /// and an abort.
    fn history_script(e: &mut Engine) -> Vec<OpResult> {
        e.load_batch(vec![(k("a"), Value::Int(1)), (k("b"), Value::Int(2))].into());
        let mut seen = Vec::new();
        for iso in [
            IsolationLevel::ReadCommitted,
            IsolationLevel::SnapshotIsolation,
            IsolationLevel::Serializable,
        ] {
            let t = e.begin(iso);
            seen.push(e.read(t, "a").0);
            seen.push(e.read(t, "missing").0);
            seen.push(e.write(t, "b", Some(Value::Int(7))).0);
            seen.push(e.write(t, "b", Some(Value::Int(8))).0);
            seen.push(e.read(t, "b").0);
            seen.push(e.write(t, "a", None).0);
            e.commit(t);
            let t = e.begin(iso);
            seen.push(e.read(t, "b").0);
            e.commit(t);
            let t = e.begin(iso);
            seen.push(e.read(t, "b").0);
            e.abort(t);
            e.load(&k("a"), Value::Int(1));
        }
        seen
    }

    /// The rendering was taken from the commit before recording became a
    /// switch: a buffered read is not logged, an absent key reads as 0.
    #[test]
    fn recorded_footprints_are_what_they_were_before_the_switch() {
        let mut e = engine();
        history_script(&mut e);
        let rendered: Vec<String> = e
            .take_footprints()
            .iter()
            .map(|f| format!("{f:?}"))
            .collect();
        let expected = [
            r#"TxFootprint { tx: TxId(0), commit_ts: 3, iso: ReadCommitted, reads: [("a", 1), ("missing", 0)], writes: ["a", "b"] }"#,
            r#"TxFootprint { tx: TxId(1), commit_ts: 4, iso: ReadCommitted, reads: [("b", 3)], writes: [] }"#,
            r#"TxFootprint { tx: TxId(3), commit_ts: 6, iso: SnapshotIsolation, reads: [("a", 5), ("missing", 0)], writes: ["a", "b"] }"#,
            r#"TxFootprint { tx: TxId(4), commit_ts: 7, iso: SnapshotIsolation, reads: [("b", 6)], writes: [] }"#,
            r#"TxFootprint { tx: TxId(6), commit_ts: 9, iso: Serializable, reads: [("a", 8), ("missing", 0)], writes: ["a", "b"] }"#,
            r#"TxFootprint { tx: TxId(7), commit_ts: 10, iso: Serializable, reads: [("b", 9)], writes: [] }"#,
        ];
        assert_eq!(rendered, expected);
    }

    #[test]
    fn recording_off_keeps_no_history_and_changes_nothing_else() {
        let (mut on, mut off) = (engine(), engine());
        off.record_footprints(false);
        assert_eq!(history_script(&mut on), history_script(&mut off));
        assert_eq!(on.clock(), off.clock());
        assert_eq!(on.commit_count(), off.commit_count());
        assert_eq!(on.peek_prefix(""), off.peek_prefix(""));
        assert_eq!(on.wal().len(), off.wal().len());
        assert_eq!(on.take_footprints().len(), 6);
        assert!(off.take_footprints().is_empty());
        // Back on, the next commit is recorded.
        off.record_footprints(true);
        let t = off.begin(IsolationLevel::Serializable);
        off.read(t, "b");
        off.commit(t);
        assert_eq!(off.take_footprints().len(), 1);
    }

    #[test]
    fn delete_via_none() {
        let mut e = engine();
        e.load(&k("a"), Value::Int(1));
        let t = e.begin(IsolationLevel::Serializable);
        e.write(t, &k("a"), None);
        e.commit(t);
        assert_eq!(e.peek("a"), None);
    }

    /// Commit `value` to `key` in one transaction at `iso`.
    fn put(e: &mut Engine, iso: IsolationLevel, key: &str, value: Option<Value>) {
        let t = e.begin(iso);
        assert_eq!(e.write(t, key, value).0, OpResult::Written);
        assert!(matches!(e.commit(t).0, CommitResult::Committed(_)));
    }

    #[test]
    fn only_snapshots_pin_history() {
        let (wal, cp) = (DurableLog::new(), DurableCell::new());
        let mut e = Engine::new(EngineConfig::default(), wal.clone(), cp.clone());
        // Open, and holding a lock no commit below asks for.
        let held = e.begin(IsolationLevel::Serializable);
        e.read(held, "elsewhere");
        for i in 0..320 {
            let iso = [IsolationLevel::Serializable, IsolationLevel::ReadCommitted][i % 2];
            put(
                &mut e,
                iso,
                &format!("k{}", i % 64),
                Some(Value::Int(i as i64)),
            );
        }
        assert_eq!(e.wal().len(), 320, "mid-cycle: nothing folded yet");
        assert_eq!(e.store().version_count(), 64, "one version a key");
        assert_eq!(e.gc_horizon(), e.clock());
        assert!(e.gc_deferred.is_empty());
        // Replay leaves the same: one version a key.
        let recovered = Engine::recover(EngineConfig::default(), wal, cp);
        assert_eq!(recovered.store().version_count(), 64);
        assert_eq!(recovered.peek("k63"), Some(Value::Int(319)));
    }

    #[test]
    fn a_snapshot_keeps_its_version_until_the_fold_after_it_ends() {
        let mut e = engine();
        let ser = IsolationLevel::Serializable;
        put(&mut e, ser, "a", Some(Value::Int(1)));
        put(&mut e, ser, "a", Some(Value::Int(2)));
        let snapshot = e.begin(IsolationLevel::SnapshotIsolation);
        assert_eq!(e.gc_horizon(), e.clock());
        for i in 3..=10 {
            put(&mut e, ser, "a", Some(Value::Int(i)));
        }
        // Version 1 went when 2 was installed; 2 is what the snapshot
        // reads, and 3..=10 are newer than it.
        assert_eq!(e.store().version_count(), 9);
        assert_eq!(e.read(snapshot, "a").0, OpResult::Read(Some(Value::Int(2))));
        assert!(e.gc_deferred.contains("a"));
        e.commit(snapshot);
        assert_eq!(e.gc_horizon(), e.clock());
        assert_eq!(e.store().version_count(), 9, "nothing installed since");
        e.take_checkpoint();
        assert_eq!(e.store().version_count(), 1, "the fold after it ends");
        assert!(e.gc_deferred.is_empty());
        assert_eq!(e.peek("a"), Some(Value::Int(10)));
    }

    #[test]
    fn a_delete_with_nothing_under_it_leaves_no_history() {
        let mut e = engine();
        e.load(&k("based"), Value::Int(0));
        let ser = IsolationLevel::Serializable;
        put(&mut e, ser, "a", Some(Value::Int(1)));
        put(&mut e, ser, "a", None);
        assert!(!e.store().has_history("a"));
        // A tombstone over a base key is history: it hides the base.
        put(&mut e, ser, "based", None);
        assert!(e.store().has_history("based"));
        assert_eq!(e.peek("based"), None);
        assert_eq!(e.store().version_count(), 1);
    }

    #[test]
    fn commit_on_unknown_tx_rejected() {
        let mut e = engine();
        let (r, _) = e.commit(TxId(999));
        assert_eq!(r, CommitResult::Aborted(AbortReason::Requested));
    }
}
