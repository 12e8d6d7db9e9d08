//! Epoch-batched parallel deterministic transactional dataflow — the
//! Styx-scale engine (§4.2, and the Delft dissertation "Democratizing
//! Scalable Cloud Applications" in `PAPERS.md`).
//!
//! [`crate::deterministic`] defines the transaction contract (declared
//! key sets, pure procedure bodies); this module is the one engine that
//! runs it — the pipeline the dissertation describes:
//!
//! 1. **Epoch batching.** The [`DfSequencer`] buffers submitted
//!    transactions and closes an *epoch* on a timer, assigning every
//!    transaction a position in one global order. Each closed epoch is
//!    durably journaled before it is announced, then broadcast to all
//!    shards and re-offered to a shard whose acknowledgements stall.
//! 2. **Conflict detection.** At epoch close, the sequencer layers the
//!    batch into *waves* by read/write-key analysis: a transaction's wave
//!    is one past the deepest earlier transaction it shares a key with,
//!    so transactions inside one wave are pairwise conflict-free and the
//!    wave count equals the batch's longest dependency chain.
//! 3. **Parallel apply.** Each [`DfShard`] owns a consistent-hash arc of
//!    the keyspace ([`ShardMap::ring`], the same placement discipline as
//!    the storage router). Within a wave every hosted transaction
//!    executes concurrently in virtual time (the wave costs
//!    `exec_cost × ceil(txns/workers)` instead of the serial sum); shards
//!    advance wave by wave, exchanging *read shares* for cross-shard
//!    transactions. The pull is loss recovery: armed per stalled wave,
//!    cancelled on execute, so a share request goes out only once a wave
//!    has really waited `RESEND_INTERVAL`. No locks, no aborts —
//!    serializability is the order itself.
//! 4. **Exactly-once output.** A shard buffers client outcomes while an
//!    epoch is in flight and emits them exactly when the epoch completes:
//!    the same handler atomically journals the epoch's inputs — which is
//!    what advances the durable `applied` mark, the journal's next LSN —
//!    and sends the replies. Epochs at or below `applied` are ignored on
//!    receipt and never re-emitted, and the sequencer's *watermark* — the
//!    minimum acknowledged epoch across the fleet, monotone by
//!    construction — bounds how much share/journal history anyone must
//!    retain.
//! 5. **Checkpoint/recovery.** The durable snapshot is an *in-place
//!    mirror* of the shard's state (an `Rc` cell taken from the disk at
//!    boot, the idiom of `twopc`'s and `workflow`'s durable logs). Every
//!    `checkpoint_every` epochs the shard patches it with the keys the
//!    epochs since the last checkpoint touched — the cost of a checkpoint
//!    is what those epochs wrote, not the size of the state. The input
//!    journal — a `DurableLog`, like the sequencer's log of closed epochs
//!    and the storage engine's WAL — is truncated up to `min(watermark,
//!    snapshot)`: local replay needs every epoch after the snapshot,
//!    peers' share pulls every epoch after the watermark. A crashed shard
//!    reboots from the mirror, locally re-executes the journaled epochs
//!    (their full read sets were persisted, so replay needs no network),
//!    re-acknowledges its durable position, and the sequencer streams it
//!    every later epoch. Peers stuck waiting on the crashed shard's
//!    shares pull them once the replayer catches up.
//!
//! **One batch, shared.** A closed epoch is allocated once (a `Batch`
//! behind an `Rc`): the sequencer's durable log, every announcement on the
//! wire, each shard's in-flight run and each shard's durable journal hold
//! the same allocation and refer to a transaction by its index in it. A
//! finished run's per-transaction read sets *move* into the journal entry;
//! nothing an epoch carries is copied per shard, and no handler reads
//! durable state back: the logs and the mirror are handles taken at boot
//! and updated in place.
//!
//! Everything here is opt-in and draw-free: deploying the engine adds
//! processes but consumes no simulation randomness, so existing
//! experiment streams are unaffected.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use tca_sim::DetHashMap as HashMap;

use tca_messaging::rpc::{reply_call, RpcRequest};
use tca_sim::{Boot, Ctx, Payload, Process, ProcessId, ShardMap, SimDuration, TimerId};
use tca_storage::wal::DurableLog;
use tca_storage::Value;

use crate::deterministic::{DetRegistry, SubmitTxn, TxnOutcome};

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Parallel workers per shard: a wave of `n` hosted transactions costs
/// `exec_cost × ceil(n / WORKERS)` of virtual time.
const WORKERS: u64 = 8;
/// Loss-recovery period. Both retries fire only for work still owed: the
/// sequencer's sweep re-offers the next epoch to a lagging shard whose
/// ack has not moved since the previous sweep, and a shard pulls the
/// shares of a wave that has waited this long — the pull timer is armed
/// when the wave starts waiting and cancelled when it executes. On a
/// loss-free network neither sends anything.
const RESEND_INTERVAL: SimDuration = SimDuration::from_millis(20);

/// Tuning for the epoch-batched dataflow engine.
#[derive(Debug, Clone)]
pub struct DataflowConfig {
    /// Epoch (batch) close interval at the sequencer.
    pub epoch_interval: SimDuration,
    /// Virtual execution cost of one transaction on one worker core.
    pub exec_cost: SimDuration,
    /// Durable state snapshot cadence (epochs between checkpoints); the
    /// input journal is garbage-collected up to the older of the snapshot
    /// and the fleet watermark.
    pub checkpoint_every: u64,
}

impl Default for DataflowConfig {
    fn default() -> Self {
        DataflowConfig {
            epoch_interval: SimDuration::from_micros(500),
            exec_cost: SimDuration::from_micros(50),
            checkpoint_every: 4,
        }
    }
}

// ---------------------------------------------------------------------------
// Durable layout
// ---------------------------------------------------------------------------

/// Both journals here are [`DurableLog`]s that hold one entry per epoch,
/// and epochs are dense and 1-based: epoch `e` lives at LSN `e − 1`. The
/// next LSN is therefore the last epoch journaled, the log's first LSN the
/// last epoch collected, and collecting up to epoch `e` is
/// `truncate_to(e)`.
///
/// The entry of `epoch`, while it is retained. A collected epoch finds
/// nothing: `with_tail` alone would clamp the lookup up to the oldest
/// retained entry and answer with another epoch's.
fn journaled<T>(log: &DurableLog<Rc<T>>, epoch: u64) -> Option<Rc<T>> {
    let lsn = epoch.checked_sub(1).filter(|&lsn| lsn >= log.first_lsn())?;
    log.with_tail(lsn, |tail| tail.first().cloned())
}

// ---------------------------------------------------------------------------
// Wire messages
// ---------------------------------------------------------------------------

/// One globally ordered transaction inside an epoch.
#[derive(Debug, Clone)]
pub struct DfTxn {
    /// Global sequence number (dense, 1-based, across epochs).
    pub id: u64,
    /// Registered procedure name.
    pub proc: String,
    /// Procedure arguments.
    pub args: Vec<Value>,
    /// Declared read set; writes must stay within it.
    pub read_keys: Vec<String>,
    /// Submitting client (outcome receiver).
    pub client: ProcessId,
    /// Client correlation id (stable across client retries).
    pub call_id: u64,
}

/// A closed epoch: the ordered batch and its wave layering. Allocated
/// once at close; the sequencer's durable log, every [`EpochBatch`] and
/// each shard's run and journal share it.
#[derive(Debug)]
struct Batch {
    epoch: u64,
    /// Ascending by id.
    txns: Vec<DfTxn>,
    /// `waves[i]` is the conflict wave of `txns[i]` (0-based).
    waves: Vec<u32>,
}

/// Sequencer → shard: a closed epoch and the fleet watermark.
#[derive(Debug)]
struct EpochBatch {
    /// Minimum epoch acknowledged by every shard (monotone).
    watermark: u64,
    batch: Rc<Batch>,
}

/// Shard → sequencer: "epoch `epoch` is durably applied here".
#[derive(Debug)]
struct EpochAck {
    shard: u32,
    epoch: u64,
}

/// Shard → shard: the sender's owned reads for one transaction, each as
/// (index into the transaction's `read_keys`, value).
#[derive(Debug)]
struct WaveShare {
    epoch: u64,
    txn_id: u64,
    pairs: Vec<(u32, Value)>,
}

/// Shard → shard: "resend your shares for these transactions" (the pull
/// path that recovers shares lost to drops, partitions, or a receiver
/// that was down when they were pushed).
#[derive(Debug)]
struct ShareReq {
    epoch: u64,
    txn_ids: Vec<u64>,
}

// ---------------------------------------------------------------------------
// Sequencer
// ---------------------------------------------------------------------------

const EPOCH_TAG: u64 = 0xdf_0001;
const RESEND_TAG: u64 = 0xdf_0002;

/// The epoch-batching global sequencer.
///
/// Closes an epoch when the buffer is non-empty and the epoch timer
/// fires; appends it to its durable log before broadcasting, so a closed
/// epoch can always be replayed to a recovering shard; tracks per-shard
/// acknowledgements and, every `RESEND_INTERVAL`, re-offers the next
/// needed epoch to each lagging shard whose acknowledgement has not moved
/// since the previous sweep.
pub struct DfSequencer {
    config: DataflowConfig,
    shards: Rc<RefCell<Vec<ProcessId>>>,
    buffer: Vec<DfTxn>,
    /// Last id handed out (the durable `next_id` cell).
    next_id: Rc<Cell<u64>>,
    /// The durable `epochs` log: every closed epoch above the fleet
    /// watermark (see [`journaled`] for the numbering). Its next LSN is the
    /// last epoch closed.
    log: DurableLog<Rc<Batch>>,
    /// Highest epoch durably applied by each shard.
    acked: Vec<u64>,
    /// `acked` as of the previous resend sweep: a lagging shard is
    /// re-offered an epoch only once its entry here equals its ack.
    swept: Vec<u64>,
    epoch_timer_armed: bool,
    resend_timer_armed: bool,
}

impl DfSequencer {
    fn boot(config: DataflowConfig, shards: Rc<RefCell<Vec<ProcessId>>>, boot: &mut Boot) -> Self {
        let n = shards.borrow().len().max(1);
        DfSequencer {
            config,
            shards,
            buffer: Vec::new(),
            next_id: boot.disk.durable("next_id"),
            log: boot.disk.durable("epochs"),
            acked: vec![0; n],
            // Equal to `acked`: a restarted sequencer re-offers on its
            // first sweep to every shard that has not acked since.
            swept: vec![0; n],
            epoch_timer_armed: false,
            resend_timer_armed: false,
        }
    }

    fn watermark(&self) -> u64 {
        self.acked.iter().copied().min().unwrap_or(0)
    }

    /// Highest epoch closed (and durably journaled) so far.
    #[must_use]
    pub fn last_epoch(&self) -> u64 {
        self.log.next_lsn()
    }

    /// Minimum epoch acknowledged by every shard: nothing at or below
    /// this is ever retransmitted or re-requested.
    #[must_use]
    pub fn fleet_watermark(&self) -> u64 {
        self.watermark()
    }

    /// Layer the batch into conflict-free waves: a transaction's wave is
    /// one past the deepest earlier transaction sharing any key with it,
    /// so same-wave transactions are pairwise disjoint and the number of
    /// waves equals the batch's longest key-dependency chain.
    fn layer_waves(txns: &[DfTxn]) -> Vec<u32> {
        let mut deepest: HashMap<&str, u32> = HashMap::default();
        let mut waves = Vec::with_capacity(txns.len());
        for txn in txns {
            let wave = txn
                .read_keys
                .iter()
                .filter_map(|k| deepest.get(k.as_str()).map(|w| w + 1))
                .max()
                .unwrap_or(0);
            for k in &txn.read_keys {
                deepest.insert(k.as_str(), wave);
            }
            waves.push(wave);
        }
        waves
    }

    /// The announcement of `epoch`, if it is still in the log.
    fn batch_for(&self, epoch: u64) -> Option<Payload> {
        let batch = journaled(&self.log, epoch)?;
        Some(Payload::new(EpochBatch {
            watermark: self.watermark(),
            batch,
        }))
    }

    /// Send `shard` the next epoch it needs, if one is closed and not yet
    /// collected.
    fn offer_next(&self, ctx: &mut Ctx, shard: usize) {
        if let Some(batch) = self.batch_for(self.acked[shard] + 1) {
            ctx.send(self.shards.borrow()[shard], batch);
        }
    }

    fn arm_resend(&mut self, ctx: &mut Ctx) {
        if !self.resend_timer_armed && self.watermark() < self.last_epoch() {
            self.resend_timer_armed = true;
            ctx.set_timer(RESEND_INTERVAL, RESEND_TAG);
        }
    }
}

impl Process for DfSequencer {
    fn on_start(&mut self, ctx: &mut Ctx) {
        // After a restart, closed-but-unacked epochs must flow again.
        self.arm_resend(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx, from: ProcessId, payload: Payload) {
        if let Some(request) = payload.downcast_ref::<RpcRequest>() {
            let Some(submit) = request.body.downcast_ref::<SubmitTxn>() else {
                return;
            };
            let id = self.next_id.get() + 1;
            self.next_id.set(id);
            self.buffer.push(DfTxn {
                id,
                proc: submit.proc.clone(),
                args: submit.args.clone(),
                read_keys: submit.read_keys.clone(),
                client: from,
                call_id: request.call_id,
            });
            ctx.metrics().incr("df.submitted", 1);
            if !self.epoch_timer_armed {
                self.epoch_timer_armed = true;
                ctx.set_timer(self.config.epoch_interval, EPOCH_TAG);
            }
        } else if let Some(ack) = payload.downcast_ref::<EpochAck>() {
            let shard = ack.shard as usize;
            if shard >= self.acked.len() {
                return;
            }
            if ack.epoch > self.acked[shard] {
                self.acked[shard] = ack.epoch;
            }
            // History at or below the fleet watermark can never be
            // requested again: every shard has durably applied it.
            self.log.truncate_to(self.watermark());
            // Ack-driven catch-up: stream the next epoch immediately so a
            // recovering shard advances one epoch per round trip instead
            // of one per resend sweep.
            self.offer_next(ctx, shard);
            self.arm_resend(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx, tag: u64) {
        match tag {
            EPOCH_TAG => {
                self.epoch_timer_armed = false;
                if self.buffer.is_empty() {
                    return;
                }
                let epoch = self.last_epoch() + 1;
                let txns = std::mem::take(&mut self.buffer);
                let waves = Self::layer_waves(&txns);
                let n_waves = u64::from(waves.iter().copied().max().unwrap_or(0)) + 1;
                // Journal before announcing: once any shard has seen the
                // epoch, the sequencer must be able to replay it forever
                // (until the watermark passes it).
                self.log.append(Rc::new(Batch { epoch, txns, waves }));
                ctx.metrics().incr("df.epochs", 1);
                ctx.metrics().incr("df.waves", n_waves);
                let announce = self.batch_for(epoch).expect("just journaled");
                for &shard in self.shards.borrow().iter() {
                    ctx.send(shard, announce.clone());
                }
                self.arm_resend(ctx);
                if !self.buffer.is_empty() {
                    self.epoch_timer_armed = true;
                    ctx.set_timer(self.config.epoch_interval, EPOCH_TAG);
                }
            }
            RESEND_TAG => {
                self.resend_timer_armed = false;
                let last_epoch = self.last_epoch();
                for shard in 0..self.acked.len() {
                    // A shard whose ack moved since the last sweep is
                    // applying epochs, and each one it needs next went out
                    // with its ack or its broadcast: only a stalled shard
                    // may have lost one.
                    let acked = self.acked[shard];
                    let stalled = self.swept[shard] == acked;
                    self.swept[shard] = acked;
                    if stalled && acked < last_epoch {
                        ctx.metrics().incr("df.resends", 1);
                        self.offer_next(ctx, shard);
                    }
                }
                if self.watermark() >= last_epoch {
                    return; // fully acknowledged: go quiet
                }
                self.resend_timer_armed = true;
                ctx.set_timer(RESEND_INTERVAL, RESEND_TAG);
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Shard
// ---------------------------------------------------------------------------

const WAVE_TAG: u64 = 0xdf_0003;
const STUCK_TAG: u64 = 0xdf_0004;

/// The durable state mirror (`snap`): the shard's state as of `epoch`.
/// Lives in an `Rc<RefCell<_>>` on the disk and is patched in place at
/// each checkpoint; only a rebooting shard reads it.
#[derive(Default)]
struct Snapshot {
    epoch: u64,
    /// Sorted by key. This is the state's second copy, so it is kept
    /// compact: no hash table, and capacity grown a few entries at a time
    /// (an insert shifts the tail anyway, so an exact regrow adds no more
    /// than a constant factor).
    state: Vec<(String, Value)>,
}

impl Snapshot {
    /// Overwrite `key`, or insert it (a shift of the tail — paid once per
    /// key, when a checkpoint first sees it).
    fn put(&mut self, key: &str, value: &Value) {
        match self.state.binary_search_by(|(k, _)| k.as_str().cmp(key)) {
            Ok(at) => self.state[at].1 = value.clone(),
            Err(at) => {
                if self.state.len() == self.state.capacity() {
                    self.state.reserve_exact(8);
                }
                self.state.insert(at, (key.to_owned(), value.clone()));
            }
        }
    }
}

/// One hosted transaction: in flight inside an [`EpochRun`], then — moved,
/// not copied — part of the epoch's durable journal entry.
struct HostedTxn {
    /// Index into the batch.
    at: u32,
    /// Ring owners of the read set (ascending, deduped).
    participants: Vec<usize>,
    /// The read set gathered so far: this shard's keys on entering the
    /// wave, the rest from the other participants' shares. Journaled
    /// complete, so recovery re-executes without any network exchange.
    reads: HashMap<String, Value>,
    /// Distinct declared keys not yet in `reads`.
    missing: u32,
    /// This shard's [`WaveShare`] as pushed to the other participants on
    /// entering the wave; re-sent as is to answer a pull.
    share: Option<Payload>,
}

impl HostedTxn {
    fn new(at: usize, txn: &DfTxn, participants: Vec<usize>) -> Self {
        let keys = &txn.read_keys;
        let distinct = (0..keys.len()).filter(|&i| !keys[..i].contains(&keys[i]));
        HostedTxn {
            at: at as u32,
            participants,
            reads: HashMap::default(),
            missing: distinct.count() as u32,
            share: None,
        }
    }

    /// Record the value read for a declared key. Every copy of a share
    /// carries the same values, so the first one to arrive is kept.
    fn read(&mut self, key: &str, value: &Value) {
        if !self.reads.contains_key(key) {
            self.reads.insert(key.to_owned(), value.clone());
            self.missing -= 1;
        }
    }
}

/// Durable journal entry for one applied epoch: the batch and this
/// shard's hosted transactions in execution order — by wave, then by
/// position in the batch.
struct ShardJournalEntry {
    batch: Rc<Batch>,
    hosted: Vec<HostedTxn>,
}

impl ShardJournalEntry {
    fn txn(&self, hosted: &HostedTxn) -> &DfTxn {
        &self.batch.txns[hosted.at as usize]
    }

    fn wave(&self, hosted: &HostedTxn) -> u32 {
        self.batch.waves[hosted.at as usize]
    }

    /// Position in `hosted` of transaction `txn_id`, if hosted here.
    fn position(&self, txn_id: u64) -> Option<usize> {
        let at = self
            .batch
            .txns
            .binary_search_by_key(&txn_id, |t| t.id)
            .ok()?;
        let order = (self.batch.waves[at], at as u32);
        self.hosted
            .binary_search_by_key(&order, |h| (self.wave(h), h.at))
            .ok()
    }
}

/// The in-flight epoch on a shard.
struct EpochRun {
    /// What becomes the epoch's journal entry on completion.
    entry: ShardJournalEntry,
    /// Waves of the *whole* epoch (cross-shard wave indices must align),
    /// processed in ascending order.
    wave: u32,
    max_wave: u32,
    /// `entry.hosted[current]` is the current wave.
    current: std::ops::Range<usize>,
    /// Transactions of the current wave still missing reads.
    waiting: usize,
    /// Outcomes owed to clients, emitted all at once on completion.
    outcomes: Vec<(ProcessId, u64, TxnOutcome)>,
    /// Set when a wave has been executed and its cost timer is pending.
    cost_timer_pending: bool,
    /// The share pull-retry of the current wave: armed when it starts
    /// waiting, cancelled when it executes.
    stuck_timer: Option<TimerId>,
}

impl EpochRun {
    fn epoch(&self) -> u64 {
        self.entry.batch.epoch
    }

    /// Fold a peer's share into its transaction's read set. False if the
    /// transaction is not hosted here.
    fn absorb(&mut self, share: &WaveShare) -> bool {
        let Some(at) = self.entry.position(share.txn_id) else {
            return false;
        };
        let hosted = &mut self.entry.hosted[at];
        let keys = &self.entry.batch.txns[hosted.at as usize].read_keys;
        let was_missing = hosted.missing > 0;
        for (k, value) in &share.pairs {
            if let Some(key) = keys.get(*k as usize) {
                hosted.read(key, value);
            }
        }
        if was_missing && hosted.missing == 0 && self.current.contains(&at) {
            self.waiting -= 1;
        }
        true
    }
}

/// One shard of the epoch-batched dataflow engine. See the module docs
/// for the pipeline; see [`deploy_dataflow`] for construction.
pub struct DfShard {
    registry: Rc<DetRegistry>,
    map: Rc<ShardMap>,
    shards: Rc<RefCell<Vec<ProcessId>>>,
    sequencer: Rc<Cell<ProcessId>>,
    index: usize,
    config: DataflowConfig,
    state: HashMap<String, Value>,
    /// The durable `snap` cell: `state` as of the last checkpoint.
    snap: Rc<RefCell<Snapshot>>,
    /// Epochs received but not yet runnable (gap or one already running).
    buffered: HashMap<u64, Rc<Batch>>,
    run: Option<EpochRun>,
    /// [`WaveShare`]s received ahead of their epoch, folded in when it
    /// starts. Volatile: a share lost with a crash is pulled again.
    early_shares: HashMap<u64, Vec<Payload>>,
    /// The durable `journal` log: one entry per applied epoch (see
    /// [`journaled`] for the numbering), so its next LSN is the highest
    /// epoch durably applied. The retained entries replay a rebooted shard
    /// forward from the snapshot, feed the next checkpoint its dirty keys
    /// and answer peers' share pulls (a peer still pulling has not acked
    /// the epoch, so the watermark — and with it journal GC — cannot have
    /// passed it).
    journal: DurableLog<Rc<ShardJournalEntry>>,
}

impl DfShard {
    fn boot(
        registry: Rc<DetRegistry>,
        map: Rc<ShardMap>,
        shards: Rc<RefCell<Vec<ProcessId>>>,
        sequencer: Rc<Cell<ProcessId>>,
        index: usize,
        config: DataflowConfig,
        boot: &mut Boot,
    ) -> Self {
        let snap: Rc<RefCell<Snapshot>> = boot.disk.durable("snap");
        let journal: DurableLog<Rc<ShardJournalEntry>> = boot.disk.durable("journal");
        let snap_epoch = snap.borrow().epoch;
        let state = snap.borrow().state.iter().cloned().collect();
        let mut shard = DfShard {
            registry,
            map,
            shards,
            sequencer,
            index,
            config,
            state,
            snap,
            buffered: HashMap::default(),
            run: None,
            early_shares: HashMap::default(),
            journal: journal.clone(),
        };
        // Recovery: re-execute the journaled epochs between the snapshot
        // and the durable applied mark. Inputs (including remote reads)
        // were persisted with each epoch, so this is pure local compute;
        // outputs were already emitted by the pre-crash incarnation, so
        // nothing is sent.
        journal.with_tail(snap_epoch, |replay| {
            for entry in replay {
                for hosted in &entry.hosted {
                    let _ = shard.execute(entry.txn(hosted), &hosted.reads);
                }
            }
        });
        shard
    }

    /// Run `txn` over its complete read set and apply the writes this
    /// shard owns; returns the size of the whole write set. Writes
    /// outside the declared set are a contract violation and are dropped:
    /// the wave layering and the checkpoint's dirty set both assume
    /// a transaction touches only what it declared.
    fn execute(&mut self, txn: &DfTxn, reads: &HashMap<String, Value>) -> Result<usize, String> {
        let Some(f) = self.registry.procs.get(&txn.proc) else {
            return Err(format!("unknown procedure `{}`", txn.proc));
        };
        let writes = f(&txn.args, reads)?;
        let n = writes.len();
        for (key, value) in writes {
            let declared = txn.read_keys.contains(&key);
            debug_assert!(declared, "write outside declared set: {key}");
            if declared && self.map.owner(&key) == self.index {
                self.state.insert(key, value);
            }
        }
        Ok(n)
    }

    fn participants_of(&self, txn: &DfTxn) -> Vec<usize> {
        let mut p: Vec<usize> = txn.read_keys.iter().map(|k| self.map.owner(k)).collect();
        p.sort_unstable();
        p.dedup();
        p
    }

    /// The shard that replies to the client: ring owner of the first
    /// declared read key (all shards compute the same answer).
    fn reply_owner(&self, txn: &DfTxn) -> usize {
        txn.read_keys.first().map_or(0, |k| self.map.owner(k))
    }

    fn ack(&self, ctx: &mut Ctx) {
        ctx.send(
            self.sequencer.get(),
            Payload::new(EpochAck {
                shard: self.index as u32,
                epoch: self.applied_epoch(),
            }),
        );
    }

    fn gc_below(&mut self, watermark: u64) {
        if watermark == 0 {
            return;
        }
        self.early_shares.retain(|&epoch, _| epoch > watermark);
        // Journal entries serve two masters: local replay needs
        // everything after the snapshot, peers' share pulls need
        // everything after the watermark. Drop what neither can ask for.
        let bound = watermark.min(self.snap.borrow().epoch);
        self.journal.truncate_to(bound);
    }

    /// Bring the durable mirror up to `epoch`. What changed since the
    /// last checkpoint lies within the declared keys of the transactions
    /// journaled since (see [`Self::execute`]), and those entries are
    /// still retained — journal GC never passes the snapshot.
    fn checkpoint(&mut self, epoch: u64) {
        let mut snap = self.snap.borrow_mut();
        self.journal.with_tail(snap.epoch, |since| {
            for entry in since {
                for hosted in &entry.hosted {
                    for key in &entry.txn(hosted).read_keys {
                        // Only owned, written keys are in `state`.
                        if let Some(value) = self.state.get(key) {
                            snap.put(key, value);
                        }
                    }
                }
            }
        });
        snap.epoch = epoch;
    }

    /// Start the next buffered epoch if none is running and it is the
    /// successor of the durable applied mark, then pump its first wave.
    fn try_start(&mut self, ctx: &mut Ctx) {
        while self.run.is_none() {
            let next = self.applied_epoch() + 1;
            let Some(batch) = self.buffered.remove(&next) else {
                return;
            };
            let mut hosted = Vec::new();
            for (at, txn) in batch.txns.iter().enumerate() {
                if txn
                    .read_keys
                    .iter()
                    .any(|k| self.map.owner(k) == self.index)
                {
                    hosted.push(HostedTxn::new(at, txn, self.participants_of(txn)));
                }
            }
            // Stable: a wave keeps the batch's global order.
            hosted.sort_by_key(|h| batch.waves[h.at as usize]);
            let mut run = EpochRun {
                max_wave: batch.waves.iter().copied().max().unwrap_or(0),
                entry: ShardJournalEntry { batch, hosted },
                wave: 0,
                current: 0..0,
                waiting: 0,
                outcomes: Vec::new(),
                cost_timer_pending: false,
                stuck_timer: None,
            };
            for early in self.early_shares.remove(&next).unwrap_or_default() {
                run.absorb(early.expect::<WaveShare>());
            }
            self.run = Some(run);
            self.enter_wave(ctx);
            self.pump(ctx);
            // `pump` may have completed the epoch inline (no hosted
            // transactions, zero exec cost): loop to start the successor.
        }
    }

    /// Push this shard's read shares for every hosted transaction of the
    /// wave being entered.
    fn enter_wave(&mut self, ctx: &mut Ctx) {
        let Some(run) = self.run.as_mut() else {
            return;
        };
        let epoch = run.epoch();
        let me = self.index;
        let peers = self.shards.borrow();
        let ShardJournalEntry { batch, hosted: all } = &mut run.entry;
        let start = run.current.end;
        let len = all[start..]
            .iter()
            .take_while(|h| batch.waves[h.at as usize] == run.wave)
            .count();
        run.current = start..start + len;
        run.waiting = 0;
        for hosted in &mut all[run.current.clone()] {
            let txn = &batch.txns[hosted.at as usize];
            let shared = hosted.participants.len() > 1;
            let mut pairs = Vec::new();
            for (k, key) in txn.read_keys.iter().enumerate() {
                if self.map.owner(key) == me {
                    let value = self.state.get(key).cloned().unwrap_or(Value::Null);
                    hosted.read(key, &value);
                    if shared {
                        pairs.push((k as u32, value));
                    }
                }
            }
            if shared {
                let share = Payload::new(WaveShare {
                    epoch,
                    txn_id: txn.id,
                    pairs,
                });
                for &p in &hosted.participants {
                    if p != me {
                        ctx.send(peers[p], share.clone());
                    }
                }
                hosted.share = Some(share);
            }
            if hosted.missing > 0 {
                run.waiting += 1;
            }
        }
    }

    /// Execute the current wave if every hosted transaction in it has a
    /// complete read set; otherwise arm the share pull-retry timer, once
    /// per waiting wave.
    fn pump(&mut self, ctx: &mut Ctx) {
        {
            let Some(run) = self.run.as_mut() else { return };
            if run.cost_timer_pending {
                return; // wave already executed, waiting out its cost
            }
            if run.waiting > 0 {
                if run.stuck_timer.is_none() {
                    run.stuck_timer = Some(ctx.set_timer(RESEND_INTERVAL, STUCK_TAG));
                }
                return;
            }
            // The wave has every read it needs: nothing is owed to it.
            if let Some(id) = run.stuck_timer.take() {
                ctx.cancel_timer(id);
            }
        }
        // Execute every hosted transaction of the wave "at once": apply
        // owned writes now, buffer outcomes, then pay one parallel cost.
        let mut run = self.run.take().expect("running");
        for hosted in &run.entry.hosted[run.current.clone()] {
            let txn = run.entry.txn(hosted);
            let result = self.execute(txn, &hosted.reads);
            let verdict = match &result {
                Ok(_) => "df.applied",
                Err(_) => "df.logic_failures",
            };
            ctx.metrics().incr(verdict, 1);
            if self.reply_owner(txn) == self.index {
                run.outcomes.push((
                    txn.client,
                    txn.call_id,
                    TxnOutcome {
                        result: result.map(|writes| vec![Value::Int(writes as i64)]),
                    },
                ));
            }
        }
        // One wave of n transactions on w workers costs ceil(n/w) serial
        // execution slots — the parallel-apply model.
        let executed = run.current.len() as u64;
        let slots = executed.div_ceil(WORKERS);
        let cost = SimDuration::from_nanos(self.config.exec_cost.as_nanos() * slots);
        if cost > SimDuration::ZERO {
            run.cost_timer_pending = true;
            self.run = Some(run);
            ctx.set_timer(cost, WAVE_TAG);
        } else {
            self.run = Some(run);
            self.advance_wave(ctx);
        }
    }

    /// Move past an executed wave: next wave, or complete the epoch.
    fn advance_wave(&mut self, ctx: &mut Ctx) {
        let next_wave = {
            let Some(run) = self.run.as_mut() else { return };
            run.cost_timer_pending = false;
            if run.wave < run.max_wave {
                run.wave += 1;
                true
            } else {
                false
            }
        };
        if next_wave {
            self.enter_wave(ctx);
            self.pump(ctx);
            return;
        }
        // Epoch complete. One handler atomically journals the inputs —
        // the append *is* the advance of the durable applied mark —
        // checkpoints when due, emits the buffered outcomes, and
        // acknowledges: the exactly-once boundary (crashes cannot land
        // between these steps).
        let run = self.run.take().expect("completing");
        let epoch = run.epoch();
        let lsn = self.journal.append(Rc::new(run.entry));
        debug_assert_eq!(lsn + 1, epoch, "epochs are journaled densely, in order");
        if epoch.is_multiple_of(self.config.checkpoint_every) {
            self.checkpoint(epoch);
            ctx.metrics().incr("df.checkpoints", 1);
            // Journal entries at or below the snapshot are no longer
            // needed for replay, but peers may still pull shares from
            // them — gc_below removes them once the watermark agrees.
        }
        for (client, call_id, outcome) in run.outcomes {
            let verdict = match outcome.result {
                Ok(_) => "df.ok",
                Err(_) => "df.err",
            };
            reply_call(ctx, client, call_id, Payload::new(outcome));
            ctx.metrics().incr("df.completed", 1);
            ctx.metrics().incr(verdict, 1);
        }
        ctx.metrics().incr("df.epochs_applied", 1);
        self.ack(ctx);
        // A successor epoch may already be buffered (the sequencer
        // broadcasts each epoch as it closes): start it immediately
        // rather than waiting for the ack-driven re-offer.
        self.try_start(ctx);
    }

    // ----- inspection ------------------------------------------------------

    /// Non-transactional read of this shard's committed state, for test
    /// and audit assertions only.
    #[must_use]
    pub fn peek(&self, key: &str) -> Option<&Value> {
        self.state.get(key)
    }

    /// Highest epoch durably applied by this shard.
    #[must_use]
    pub fn applied_epoch(&self) -> u64 {
        self.journal.next_lsn()
    }

    /// True when no epoch is in flight on this shard (all received work
    /// durably applied).
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.run.is_none() && self.buffered.is_empty()
    }
}

impl Process for DfShard {
    fn on_start(&mut self, ctx: &mut Ctx) {
        // (Re)announce the durable position: after a crash this tells the
        // sequencer where to resume streaming; on first boot it is the
        // zero ack that opens the pipeline.
        self.ack(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx, from: ProcessId, payload: Payload) {
        if let Some(announce) = payload.downcast_ref::<EpochBatch>() {
            let epoch = announce.batch.epoch;
            self.gc_below(announce.watermark);
            if epoch <= self.applied_epoch() {
                // Duplicate of an applied epoch: the ack may have been
                // lost, so re-acknowledge, but never re-run or re-emit.
                self.ack(ctx);
                return;
            }
            let running = self.run.as_ref().is_some_and(|r| r.epoch() == epoch);
            if !running {
                self.buffered
                    .entry(epoch)
                    .or_insert_with(|| Rc::clone(&announce.batch));
            }
            self.try_start(ctx);
        } else if let Some(share) = payload.downcast_ref::<WaveShare>() {
            if share.epoch <= self.applied_epoch() {
                return;
            }
            match self.run.as_mut() {
                Some(run) if run.epoch() == share.epoch => {
                    if run.absorb(share) {
                        self.pump(ctx);
                    }
                }
                _ => self
                    .early_shares
                    .entry(share.epoch)
                    .or_default()
                    .push(payload.clone()),
            }
        } else if let Some(req) = payload.downcast_ref::<ShareReq>() {
            // Pull path: re-send the shares this shard pushed. A share
            // exists once the transaction's wave has been entered; it
            // stays with the run and then with the epoch's journal entry,
            // which is durable — a crashed-and-recovered shard still
            // feeds its peers.
            let applied = journaled(&self.journal, req.epoch);
            let entry = match (&self.run, &applied) {
                (Some(run), _) if run.epoch() == req.epoch => &run.entry,
                (_, Some(entry)) => &**entry,
                _ => return,
            };
            for &txn_id in &req.txn_ids {
                let share = entry
                    .position(txn_id)
                    .and_then(|at| entry.hosted[at].share.as_ref());
                if let Some(share) = share {
                    ctx.metrics().incr("df.share_replies", 1);
                    ctx.send(from, share.clone());
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx, tag: u64) {
        match tag {
            WAVE_TAG => self.advance_wave(ctx),
            STUCK_TAG => {
                // Armed only while a wave waits, cancelled when it
                // executes: this wave has waited `RESEND_INTERVAL` for
                // remote shares. Pull them from every other participant
                // of each incomplete transaction.
                let Some(run) = self.run.as_mut() else { return };
                debug_assert!(run.waiting > 0, "a pull timer outlived its wave");
                let peers = self.shards.borrow();
                let mut owed: Vec<Vec<u64>> = vec![Vec::new(); peers.len()];
                for hosted in &run.entry.hosted[run.current.clone()] {
                    if hosted.missing > 0 {
                        for &p in &hosted.participants {
                            if p != self.index {
                                owed[p].push(run.entry.txn(hosted).id);
                            }
                        }
                    }
                }
                let epoch = run.epoch();
                for (p, txn_ids) in owed.into_iter().enumerate() {
                    if !txn_ids.is_empty() {
                        ctx.metrics().incr("df.share_reqs", 1);
                        ctx.send(peers[p], Payload::new(ShareReq { epoch, txn_ids }));
                    }
                }
                run.stuck_timer = Some(ctx.set_timer(RESEND_INTERVAL, STUCK_TAG));
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Deployment
// ---------------------------------------------------------------------------

/// Deploy the epoch-batched dataflow engine: one durable [`DfSequencer`]
/// on `seq_node` plus `n` [`DfShard`]s round-robin over `shard_nodes`,
/// partitioned by a consistent-hash ring ([`ShardMap::ring`]).
/// Returns `(sequencer, shards)`.
///
/// Clients submit [`SubmitTxn`] values wrapped in
/// [`tca_messaging::rpc::RpcClient`] calls to the sequencer and receive a
/// [`TxnOutcome`] reply from the shard owning the transaction's first
/// read key.
///
/// # Panics
///
/// Panics if `n` is zero or `shard_nodes` is empty.
///
/// ```rust
/// use tca_sim::{Payload, RpcRequest, Sim, SimDuration};
/// use tca_storage::Value;
/// use tca_txn::dataflow::{deploy_dataflow, DataflowConfig, DfShard};
/// use tca_txn::deterministic::{transfer_registry, SubmitTxn};
///
/// let mut sim = Sim::with_seed(9);
/// let seq_node = sim.add_node();
/// let shard_nodes = sim.add_nodes(2);
/// let (sequencer, shards) = deploy_dataflow(
///     &mut sim,
///     seq_node,
///     &shard_nodes,
///     &transfer_registry(),
///     2,
///     DataflowConfig::default(),
/// );
///
/// let transfer = SubmitTxn {
///     proc: "transfer".into(),
///     args: vec![Value::Str("a".into()), Value::Str("b".into()), Value::Int(10)],
///     read_keys: vec!["a".into(), "b".into()],
/// };
/// sim.inject(sequencer, Payload::new(RpcRequest { call_id: 1, body: Payload::new(transfer) }));
/// sim.run_for(SimDuration::from_millis(30));
///
/// // Each key is visible on its ring owner; accounts start at 100.
/// let peek = |sim: &Sim, key: &str| {
///     shards
///         .iter()
///         .find_map(|&pid| sim.inspect::<DfShard>(pid).and_then(|s| s.peek(key)).cloned())
/// };
/// assert_eq!(peek(&sim, "a"), Some(Value::Int(90)));
/// assert_eq!(peek(&sim, "b"), Some(Value::Int(110)));
/// assert_eq!(sim.metrics().counter("df.completed"), 1); // exactly-once outcome
/// ```
pub fn deploy_dataflow(
    sim: &mut tca_sim::Sim,
    seq_node: tca_sim::NodeId,
    shard_nodes: &[tca_sim::NodeId],
    registry: &DetRegistry,
    n: usize,
    config: DataflowConfig,
) -> (ProcessId, Vec<ProcessId>) {
    assert!(n >= 1, "dataflow needs at least one shard");
    assert!(!shard_nodes.is_empty(), "dataflow needs shard nodes");
    let shared: Rc<std::cell::RefCell<Vec<ProcessId>>> =
        Rc::new(std::cell::RefCell::new(Vec::new()));
    let seq_cell: Rc<std::cell::Cell<ProcessId>> =
        Rc::new(std::cell::Cell::new(ProcessId::EXTERNAL));
    let registry = Rc::new(registry.clone());
    let map = Rc::new(ShardMap::ring(n));
    let mut shard_pids = Vec::new();
    for i in 0..n {
        let node = shard_nodes[i % shard_nodes.len()];
        let registry = Rc::clone(&registry);
        let map = Rc::clone(&map);
        let shards = Rc::clone(&shared);
        let seq = Rc::clone(&seq_cell);
        let config = config.clone();
        let pid = sim.spawn(node, format!("df-shard-{i}"), move |boot: &mut Boot| {
            Box::new(DfShard::boot(
                Rc::clone(&registry),
                Rc::clone(&map),
                Rc::clone(&shards),
                Rc::clone(&seq),
                i,
                config.clone(),
                boot,
            ))
        });
        shard_pids.push(pid);
    }
    *shared.borrow_mut() = shard_pids.clone();
    let seq_shards = Rc::clone(&shared);
    let seq_config = config;
    let sequencer = sim.spawn(seq_node, "df-sequencer", move |boot| {
        Box::new(DfSequencer::boot(
            seq_config.clone(),
            Rc::clone(&seq_shards),
            boot,
        ))
    });
    seq_cell.set(sequencer);
    (sequencer, shard_pids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deterministic::transfer_registry;
    use tca_messaging::rpc::{RetryPolicy, RpcClient, RpcEvent};
    use tca_sim::{ScriptedFate, Sim, SimTime};

    /// Harness → [`Client`]: submit `plan[i]` now (paced clients only).
    struct Go(usize);

    struct Client {
        sequencer: ProcessId,
        plan: Vec<SubmitTxn>,
        /// Submit on [`Go`] instead of everything at start.
        paced: bool,
        rpc: RpcClient,
        /// Raw reply call_ids, checked *before* the RpcClient dedups.
        seen: Vec<u64>,
        /// `(plan index, result)` of every reply, in arrival order.
        outcomes: Vec<(u64, Result<Vec<Value>, String>)>,
    }
    impl Client {
        fn submit(&mut self, ctx: &mut Ctx, i: usize) {
            self.rpc.call(
                ctx,
                self.sequencer,
                Payload::new(self.plan[i].clone()),
                RetryPolicy::at_most_once(SimDuration::from_secs(30)),
                i as u64,
            );
        }
    }
    impl Process for Client {
        fn on_start(&mut self, ctx: &mut Ctx) {
            if !self.paced {
                for i in 0..self.plan.len() {
                    self.submit(ctx, i);
                }
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx, _from: ProcessId, payload: Payload) {
            if let Some(&Go(i)) = payload.downcast_ref::<Go>() {
                self.submit(ctx, i);
                return;
            }
            if let Some(reply) = payload.downcast_ref::<tca_sim::RpcReply>() {
                // The RpcClient swallows duplicate replies, so audit the
                // wire-level call_ids here: exactly-once means no repeats.
                if self.seen.contains(&reply.call_id) {
                    ctx.metrics().incr("client.dup", 1);
                } else {
                    self.seen.push(reply.call_id);
                }
            }
            if let Some(RpcEvent::Reply { user_tag, body, .. }) = self.rpc.on_message(ctx, &payload)
            {
                let outcome = body.expect::<TxnOutcome>();
                let metric = match &outcome.result {
                    Ok(_) => "client.ok",
                    Err(_) => "client.err",
                };
                ctx.metrics().incr(metric, 1);
                self.outcomes.push((user_tag, outcome.result.clone()));
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx, tag: u64) {
            let _ = self.rpc.on_timer(ctx, tag);
        }
    }

    fn transfer(from: &str, to: &str, amount: i64) -> SubmitTxn {
        SubmitTxn {
            proc: "transfer".into(),
            args: vec![Value::from(from), Value::from(to), Value::Int(amount)],
            read_keys: vec![from.to_owned(), to.to_owned()],
        }
    }

    /// A deployed engine plus its one client process.
    struct Fleet {
        sim: Sim,
        sequencer: ProcessId,
        shards: Vec<ProcessId>,
        client: ProcessId,
    }

    impl Fleet {
        /// Have the (paced) client submit `plan[i]` at `at`.
        fn go_at(&mut self, at: SimTime, i: usize) {
            self.sim.inject_at(at, self.client, Payload::new(Go(i)));
        }

        fn shard(&self, i: usize) -> &DfShard {
            self.sim.inspect::<DfShard>(self.shards[i]).expect("shard")
        }

        fn peek(&self, key: &str) -> Option<Value> {
            (0..self.shards.len()).find_map(|i| self.shard(i).peek(key).cloned())
        }

        fn counter(&self, name: &str) -> u64 {
            self.sim.metrics().counter(name)
        }
    }

    fn deploy(plan: Vec<SubmitTxn>, shards: usize, config: DataflowConfig, paced: bool) -> Fleet {
        let mut sim = Sim::with_seed(77);
        let seq_node = sim.add_node();
        let shard_nodes = sim.add_nodes(shards);
        let (sequencer, pids) = deploy_dataflow(
            &mut sim,
            seq_node,
            &shard_nodes,
            &transfer_registry(),
            shards,
            config,
        );
        let nc = sim.add_node();
        let client = sim.spawn(nc, "client", move |_| {
            Box::new(Client {
                sequencer,
                plan: plan.clone(),
                paced,
                rpc: RpcClient::new(),
                seen: Vec::new(),
                outcomes: Vec::new(),
            })
        });
        Fleet {
            sim,
            sequencer,
            shards: pids,
            client,
        }
    }

    fn build(plan: Vec<SubmitTxn>, shards: usize, config: DataflowConfig) -> (Sim, Vec<ProcessId>) {
        let fleet = deploy(plan, shards, config, false);
        (fleet.sim, fleet.shards)
    }

    fn run(plan: Vec<SubmitTxn>, shards: usize) -> Sim {
        let (mut sim, _) = build(plan, shards, DataflowConfig::default());
        sim.run_for(SimDuration::from_millis(500));
        sim
    }

    #[test]
    fn single_shard_transfer_completes() {
        let sim = run(vec![transfer("a", "b", 30)], 1);
        assert_eq!(sim.metrics().counter("client.ok"), 1);
        assert_eq!(sim.metrics().counter("client.dup"), 0);
    }

    #[test]
    fn cross_shard_transfers_complete_exactly_once() {
        let plan: Vec<SubmitTxn> = (0..40)
            .map(|i| transfer(&format!("acct{i}"), &format!("acct{}", i + 1), 1))
            .collect();
        let sim = run(plan, 4);
        assert_eq!(sim.metrics().counter("client.ok"), 40);
        assert_eq!(sim.metrics().counter("client.dup"), 0);
    }

    #[test]
    fn contended_batch_layers_into_waves_and_conserves() {
        // 50 transfers over the same two keys: the batch is one long
        // dependency chain, so waves = chain length, yet every transfer
        // commits in order and money is conserved.
        let plan: Vec<SubmitTxn> = (0..50).map(|_| transfer("a", "b", 2)).collect();
        let sim = run(plan, 3);
        assert_eq!(sim.metrics().counter("client.ok"), 50);
        assert_eq!(sim.metrics().counter("df.logic_failures"), 0);
        assert_eq!(sim.metrics().counter("client.dup"), 0);
    }

    #[test]
    fn disjoint_batch_is_one_wave() {
        // 16 pairwise-disjoint transfers submitted together: conflict
        // analysis must put them all in wave 0 of their epoch(s).
        let plan: Vec<SubmitTxn> = (0..16)
            .map(|i| transfer(&format!("x{i}"), &format!("y{i}"), 1))
            .collect();
        let sim = run(plan, 4);
        assert_eq!(sim.metrics().counter("client.ok"), 16);
        let epochs = sim.metrics().counter("df.epochs");
        let waves = sim.metrics().counter("df.waves");
        assert_eq!(
            waves, epochs,
            "disjoint transactions must need exactly one wave per epoch"
        );
    }

    #[test]
    fn overdraft_fails_deterministically() {
        let plan = vec![transfer("a", "b", 60), transfer("a", "b", 60)];
        let sim = run(plan, 3);
        assert_eq!(sim.metrics().counter("client.ok"), 1);
        assert_eq!(sim.metrics().counter("client.err"), 1);
    }

    #[test]
    fn self_transfer_moves_nothing() {
        // `from == to` puts the debit and the credit on one key; applied
        // in order, the credit won and the account gained `amount`.
        let plan = vec![transfer("a", "a", 10), transfer("a", "a", 500)];
        let mut fleet = deploy(plan, 2, DataflowConfig::default(), false);
        fleet.sim.run_for(SimDuration::from_millis(500));
        assert_eq!(fleet.counter("client.ok"), 1);
        assert_eq!(fleet.counter("client.err"), 1, "the funds check still runs");
        assert_eq!(fleet.peek("a").map_or(100, |v| v.as_int()), 100);
    }

    #[test]
    fn outcomes_and_ledger_do_not_depend_on_the_shard_count() {
        // One stream, injected at the same instants into a 1-shard and a
        // 3-shard fleet: six accounts (hot enough to layer waves) and
        // amounts large enough that some transfers overdraw, so which
        // ones fail is part of what must agree. Submissions are 400µs
        // apart — more than the network's 300µs of jitter, so they reach
        // the sequencer in plan order — and epochs 2 ms, five to a batch.
        const N: usize = 60;
        let config = DataflowConfig {
            epoch_interval: SimDuration::from_millis(2),
            ..DataflowConfig::default()
        };
        let key = |i: usize| format!("acct{}", i % 6);
        let plan: Vec<SubmitTxn> = (0..N)
            .map(|i| {
                transfer(
                    &key(i * 5),
                    &key(i * 5 + 1 + i % 5),
                    20 + 15 * (i % 4) as i64,
                )
            })
            .collect();
        let run = |shards: usize| {
            let mut fleet = deploy(plan.clone(), shards, config.clone(), true);
            for i in 0..N {
                fleet.go_at(SimTime::from_nanos(1_000_000 + 400_000 * i as u64), i);
            }
            assert!(fleet.sim.try_run_to_quiescence(1_000_000));
            assert!(fleet.counter("df.waves") > fleet.counter("df.epochs"));
            let client = fleet.sim.inspect::<Client>(fleet.client).expect("client");
            let mut outcomes = client.outcomes.clone();
            outcomes.sort_by_key(|(i, _)| *i);
            let ledger: Vec<Option<Value>> = (0..6).map(|i| fleet.peek(&key(i))).collect();
            (outcomes, ledger)
        };
        let (outcomes, ledger) = run(1);
        assert_eq!(outcomes.len(), N);
        let failed = outcomes.iter().filter(|(_, r)| r.is_err()).count();
        assert!(0 < failed && failed < N / 2, "{failed} of {N} overdrew");
        assert_eq!(run(3), (outcomes, ledger));
    }

    #[test]
    fn wave_layering_is_longest_chain() {
        let mk = |keys: &[&str]| DfTxn {
            id: 0,
            proc: String::new(),
            args: vec![],
            read_keys: keys.iter().map(|s| s.to_string()).collect(),
            client: ProcessId::EXTERNAL,
            call_id: 0,
        };
        // a-b | b-c | x-y | a-y: the last conflicts only with the two
        // wave-0 transactions, so it lands in wave 1 alongside b-c.
        let txns = vec![
            mk(&["a", "b"]),
            mk(&["b", "c"]),
            mk(&["x", "y"]),
            mk(&["a", "y"]),
        ];
        assert_eq!(DfSequencer::layer_waves(&txns), vec![0, 1, 0, 1]);
        // A write in wave w pushes later readers of the key past w: c-d
        // then b-c then a-b chains 0, 1, 2 even though a-b and c-d are
        // disjoint from each other.
        let txns = vec![mk(&["c", "d"]), mk(&["b", "c"]), mk(&["a", "b"])];
        assert_eq!(DfSequencer::layer_waves(&txns), vec![0, 1, 2]);
        // Disjoint batch: all wave 0.
        let txns = vec![mk(&["a"]), mk(&["b"]), mk(&["c"])];
        assert_eq!(DfSequencer::layer_waves(&txns), vec![0, 0, 0]);
        // Pure chain: 0,1,2.
        let txns = vec![mk(&["a", "b"]), mk(&["b", "c"]), mk(&["c", "d"])];
        assert_eq!(DfSequencer::layer_waves(&txns), vec![0, 1, 2]);
    }

    #[test]
    fn shard_crash_mid_epoch_recovers_from_checkpoint_and_replay() {
        // Submit two batches separated in time; crash one shard after the
        // first epoch closes, restart it, and require every transfer to
        // complete exactly once with conserved balances.
        let plan: Vec<SubmitTxn> = (0..12)
            .map(|i| transfer(&format!("acct{i}"), &format!("acct{}", i + 1), 1))
            .collect();
        let (mut sim, shard_pids) = build(plan, 3, DataflowConfig::default());
        let victim_node = sim.node_of(shard_pids[1]);
        // First epoch closes at ~500µs (interval) after the first submit;
        // crash inside the execution window, restart shortly after.
        sim.schedule_crash(SimTime::from_nanos(650_000), victim_node);
        sim.schedule_restart(SimTime::from_nanos(5_000_000), victim_node);
        sim.run_for(SimDuration::from_secs(2));
        assert_eq!(
            sim.metrics().counter("client.ok"),
            12,
            "every transfer must complete despite the mid-epoch crash"
        );
        assert_eq!(
            sim.metrics().counter("client.dup"),
            0,
            "exactly-once output"
        );
        // All shards converge to the same applied epoch.
        let applied: Vec<u64> = shard_pids
            .iter()
            .map(|&p| sim.inspect::<DfShard>(p).expect("shard").applied_epoch())
            .collect();
        assert!(
            applied.windows(2).all(|w| w[0] == w[1]),
            "applied diverged: {applied:?}"
        );
        // Conservation: each account started at (default) 100.
        let total: i64 = (0..13)
            .map(|i| {
                let key = format!("acct{i}");
                shard_pids
                    .iter()
                    .find_map(|&p| {
                        let shard = sim.inspect::<DfShard>(p).expect("shard");
                        shard.peek(&key).map(|v| v.as_int())
                    })
                    .unwrap_or(100)
            })
            .sum();
        assert_eq!(total, 13 * 100, "money must be conserved through recovery");
    }

    #[test]
    fn checkpoint_truncates_journal_and_still_recovers() {
        // Aggressive checkpointing (every epoch) plus a crash: recovery
        // must come from the snapshot alone.
        let config = DataflowConfig {
            checkpoint_every: 1,
            ..DataflowConfig::default()
        };
        let plan: Vec<SubmitTxn> = (0..10).map(|_| transfer("a", "b", 1)).collect();
        let (mut sim, shard_pids) = build(plan, 2, config);
        let victim = sim.node_of(shard_pids[0]);
        sim.schedule_crash(SimTime::from_nanos(700_000), victim);
        sim.schedule_restart(SimTime::from_nanos(4_000_000), victim);
        sim.run_for(SimDuration::from_secs(2));
        assert_eq!(sim.metrics().counter("client.ok"), 10);
        assert_eq!(sim.metrics().counter("client.dup"), 0);
        assert!(sim.metrics().counter("df.checkpoints") > 0);
    }

    #[test]
    fn quiesces_when_all_epochs_acknowledged() {
        // After the workload drains, no timer may keep re-arming: the
        // sequencer goes quiet once the watermark reaches the last epoch.
        let (mut sim, _) = build(vec![transfer("a", "b", 1)], 2, DataflowConfig::default());
        assert!(
            sim.try_run_to_quiescence(200_000),
            "dataflow engine must quiesce after the workload drains"
        );
        assert_eq!(sim.metrics().counter("client.ok"), 1);
    }
    /// An open-loop stream of `n` transfers over 64 accounts (hot enough
    /// to layer waves), one every 100µs, on `shards` shards.
    fn steady_fleet(n: usize, shards: usize, config: DataflowConfig) -> Fleet {
        let plan: Vec<SubmitTxn> = (0..n)
            .map(|i| {
                let from = (i * 7) % 64;
                let to = (from + 1 + (i * 13) % 63) % 64;
                transfer(&format!("acct{from:02}"), &format!("acct{to:02}"), 1)
            })
            .collect();
        let mut fleet = deploy(plan, shards, config, true);
        for i in 0..n {
            fleet.go_at(SimTime::from_nanos(1_000_000 + 100_000 * i as u64), i);
        }
        fleet
    }

    #[test]
    fn steady_run_schedule_is_pinned() {
        // Host-side optimisations must not move one simulated event. The
        // run is loss-free, so neither retry sends anything.
        let mut fleet = steady_fleet(2_000, 8, DataflowConfig::default());
        assert!(fleet.sim.try_run_to_quiescence(1_000_000));
        assert_eq!(fleet.sim.events_processed(), 35_553);
        assert_eq!(fleet.sim.now().as_nanos(), 30_200_900_000);
        let pinned = [
            ("net.sent", 26_683),
            ("df.submitted", 2_000),
            ("df.epochs", 347),
            ("df.waves", 466),
            ("df.applied", 3_758),
            ("df.logic_failures", 0),
            ("df.checkpoints", 688),
            ("df.completed", 2_000),
            ("df.ok", 2_000),
            ("df.err", 0),
            ("df.epochs_applied", 2_776),
            ("df.resends", 0),
            ("df.share_reqs", 0),
            ("df.share_replies", 0),
            ("client.ok", 2_000),
            ("client.dup", 0),
        ];
        for (name, value) in pinned {
            assert_eq!(fleet.counter(name), value, "{name}");
        }
    }

    #[test]
    fn a_loss_free_run_sends_no_recovery_traffic() {
        // Pulls and re-offers are loss recovery: with every message
        // delivered, no wave waits `RESEND_INTERVAL` and no shard's ack
        // stalls across a sweep, whatever the fleet size and epoch.
        const N: usize = 400;
        for shards in [1, 2, 8, 16] {
            for epoch_us in [500, 2_000] {
                let config = DataflowConfig {
                    epoch_interval: SimDuration::from_micros(epoch_us),
                    ..DataflowConfig::default()
                };
                let mut fleet = steady_fleet(N, shards, config);
                assert!(fleet.sim.try_run_to_quiescence(1_000_000));
                let at = format!("{shards} shards, {epoch_us}µs epochs");
                assert_eq!(fleet.counter("client.ok"), N as u64, "{at}");
                assert_eq!(fleet.counter("df.share_reqs"), 0, "{at}");
                assert_eq!(fleet.counter("df.resends"), 0, "{at}");
            }
        }
    }

    /// One cross-shard transfer of 10 from shard 0's `a` to shard 1's `b`
    /// per entry of `at_ms`, submitted at those instants, on two shards.
    fn two_shard_transfers(at_ms: &[u64]) -> (Fleet, [String; 2]) {
        let map = ShardMap::ring(2);
        let keys = [owned_key(&map, 0, "a", 0), owned_key(&map, 1, "b", 0)];
        let plan = at_ms.iter().map(|_| transfer(&keys[0], &keys[1], 10));
        let mut fleet = deploy(plan.collect(), 2, DataflowConfig::default(), true);
        for (i, &ms) in at_ms.iter().enumerate() {
            fleet.go_at(SimTime::from_nanos(ms * 1_000_000), i);
        }
        (fleet, keys)
    }

    /// Every transfer answered once, each shard at `epoch`, and the money
    /// of `keys` (100 each at start) conserved.
    fn assert_settled(fleet: &Fleet, keys: &[String; 2], transfers: u64, epoch: u64) {
        assert_eq!(fleet.counter("client.ok"), transfers);
        assert_eq!(fleet.counter("client.dup"), 0, "exactly-once output");
        assert_eq!(
            fleet.counter("df.applied"),
            2 * transfers,
            "run once per shard"
        );
        for i in 0..2 {
            assert_eq!(fleet.shard(i).applied_epoch(), epoch, "shard {i}");
        }
        let money: i64 = keys
            .iter()
            .map(|k| fleet.peek(k).expect("written").as_int())
            .sum();
        assert_eq!(money, 200);
    }

    #[test]
    fn a_lost_share_is_pulled_after_the_wave_has_waited() {
        // Drop shard 0's one push to shard 1: shard 0 completes the epoch
        // on shard 1's share, while shard 1 waits until its pull timer
        // fires and shard 0 answers from its journal.
        let (mut fleet, keys) = two_shard_transfers(&[1]);
        let [s0, s1] = [0, 1].map(|i| fleet.sim.node_of(fleet.shards[i]));
        fleet
            .sim
            .network_mut()
            .script_fate(s0, s1, 0, ScriptedFate::Drop);
        // The wave starts waiting after the epoch closes, well after the
        // submit: one interval past the submit, nothing is pulled yet.
        fleet
            .sim
            .run_until(SimTime::from_nanos(1_000_000) + RESEND_INTERVAL);
        assert_eq!(fleet.counter("df.share_reqs"), 0);
        assert_eq!(fleet.shard(0).applied_epoch(), 1);
        assert_eq!(fleet.shard(1).applied_epoch(), 0, "the share is still owed");
        fleet.sim.run_for(RESEND_INTERVAL * 5);
        assert_eq!(fleet.counter("df.share_reqs"), 1, "one pull recovers it");
        assert_eq!(fleet.counter("df.share_replies"), 1);
        assert_settled(&fleet, &keys, 1, 1);
    }

    #[test]
    fn a_lost_batch_is_re_offered_within_two_sweeps() {
        // Two epochs; the sequencer's broadcast of the second to shard 1
        // is lost, and shard 0 waits on shard 1's share of it. Both acks
        // moved (to epoch 1) before the first sweep after the loss, so
        // that sweep re-offers nothing; the next one finds both stalled
        // and re-offers epoch 2 to each.
        let (mut fleet, keys) = two_shard_transfers(&[1, 5]);
        let seq = fleet.sim.node_of(fleet.sequencer);
        let s1 = fleet.sim.node_of(fleet.shards[1]);
        fleet
            .sim
            .network_mut()
            .script_fate(seq, s1, 1, ScriptedFate::Drop);
        // Epoch 2 closes one interval after its submit reaches the
        // sequencer: by 6 ms.
        let lost = SimTime::from_nanos(6_000_000);
        fleet
            .sim
            .run_until(lost + RESEND_INTERVAL + SimDuration::from_millis(1));
        assert_eq!(
            fleet.counter("df.resends"),
            0,
            "the first sweep saw acks move"
        );
        assert_eq!(fleet.shard(1).applied_epoch(), 1);
        fleet
            .sim
            .run_until(lost + RESEND_INTERVAL * 2 + SimDuration::from_millis(2));
        assert_eq!(
            fleet.counter("df.resends"),
            2,
            "one re-offer per stalled shard"
        );
        assert_settled(&fleet, &keys, 2, 2);
    }

    #[test]
    fn restart_cost_is_bounded_by_retained_history() {
        // One single-transfer epoch per millisecond until ≥ 500 epochs
        // are closed, applied and garbage-collected; then restart a shard
        // and the sequencer and run eight more epochs. What both hold
        // durably — and so what they come back to and replay — is the
        // retained window, the epochs above the snapshot / watermark, not
        // the history behind it.
        const HISTORY: usize = 520;
        const AFTER: usize = 8;
        let plan: Vec<SubmitTxn> = (0..HISTORY + AFTER)
            .map(|i| {
                transfer(
                    &format!("acct{}", i % 16),
                    &format!("acct{}", (i + 1) % 16),
                    1,
                )
            })
            .collect();
        let config = DataflowConfig::default();
        let window = (config.checkpoint_every as usize) + AFTER;
        let mut fleet = deploy(plan, 3, config, true);
        let tick = |i: usize| SimTime::from_nanos(1_000_000 * (i as u64 + 1));
        for i in 0..HISTORY {
            fleet.go_at(tick(i), i);
        }
        fleet.sim.run_until(tick(HISTORY + 5));
        let last_epoch = |fleet: &Fleet| {
            let seq = fleet.sim.inspect::<DfSequencer>(fleet.sequencer);
            seq.expect("sequencer").last_epoch()
        };
        let history = last_epoch(&fleet);
        assert!(history >= 500, "only {history} epochs of history");

        let assert_bounded = |fleet: &Fleet, when: &str| {
            let seq = fleet.sim.inspect::<DfSequencer>(fleet.sequencer);
            let retained = [
                ("sequencer's log", seq.expect("sequencer").log.len()),
                ("shard's journal", fleet.shard(0).journal.len()),
            ];
            for (name, len) in retained {
                assert!(
                    len <= window,
                    "{when} the restart the {name} retains {len} entries of {} epochs",
                    last_epoch(fleet)
                );
            }
        };
        assert_bounded(&fleet, "before");
        for pid in [fleet.sequencer, fleet.shards[0]] {
            let node = fleet.sim.node_of(pid);
            fleet.sim.crash_node(node);
            fleet.sim.restart_node(node);
        }
        assert_eq!(last_epoch(&fleet), history, "the log came back");
        assert_eq!(fleet.shard(0).applied_epoch(), history);
        assert_bounded(&fleet, "right after");
        for i in HISTORY..HISTORY + AFTER {
            fleet.go_at(tick(i + 5), i);
        }
        fleet.sim.run_until(tick(HISTORY + AFTER + 50));
        assert_eq!(last_epoch(&fleet), history + AFTER as u64);
        assert_eq!(fleet.counter("client.ok"), (HISTORY + AFTER) as u64);
        assert_eq!(fleet.counter("client.dup"), 0);
        assert_bounded(&fleet, "after");
    }

    #[test]
    fn a_collected_epoch_is_neither_re_offered_nor_served_to_a_pull() {
        // Every transfer crosses shards 0 and 1; shard 2 hosts nothing but
        // acks every epoch. 24 epochs with everyone up (the watermark
        // follows, both journals are collected behind it), then shard 2
        // goes down for 8 more: the watermark stops, so the sequencer's
        // log and the live shards' journals retain a tail with collected
        // history below it.
        const BEFORE: usize = 24;
        const AFTER: usize = 8;
        let map = ShardMap::ring(3);
        let plan: Vec<SubmitTxn> = (0..BEFORE + AFTER)
            .map(|i| {
                transfer(
                    &owned_key(&map, 0, "a", i % 4),
                    &owned_key(&map, 1, "b", i % 4),
                    1,
                )
            })
            .collect();
        let mut fleet = deploy(plan, 3, DataflowConfig::default(), true);
        let tick = |i: usize| SimTime::from_nanos(1_000_000 * (i as u64 + 1));
        for i in 0..BEFORE + AFTER {
            fleet.go_at(tick(i), i);
        }
        fleet.sim.run_until(tick(BEFORE));
        let lagging = fleet.sim.node_of(fleet.shards[2]);
        fleet.sim.crash_node(lagging);
        fleet.sim.run_until(tick(BEFORE + AFTER + 5));
        assert_eq!(fleet.counter("client.ok"), (BEFORE + AFTER) as u64);

        // Shard 0: a pull for the newest collected epoch that names the
        // transactions of the oldest retained one finds nothing, although
        // the same pull for the retained epoch is served.
        let journal = &fleet.shard(0).journal;
        let collected = journal.first_lsn();
        assert!(0 < collected && collected < journal.next_lsn());
        assert!(journaled(journal, collected).is_none());
        let oldest = journaled(journal, collected + 1).expect("retained");
        assert_eq!(oldest.batch.epoch, collected + 1);
        let txn_ids: Vec<u64> = oldest.hosted.iter().map(|h| oldest.txn(h).id).collect();
        assert!(!txn_ids.is_empty());
        let served = fleet.counter("df.share_replies");
        for (epoch, replies) in [(collected, 0), (collected + 1, txn_ids.len() as u64)] {
            let txn_ids = txn_ids.clone();
            fleet
                .sim
                .inject(fleet.shards[0], Payload::new(ShareReq { epoch, txn_ids }));
            fleet.sim.run_for(SimDuration::from_millis(1));
            assert_eq!(fleet.counter("df.share_replies"), served + replies);
        }

        // The sequencer: restarted, it has forgotten every ack, so each
        // sweep wants to offer each shard epoch 1 — long collected. It
        // must send nothing (not the oldest epoch it still has) and wait
        // for the shards to say where they are.
        let seq_node = fleet.sim.node_of(fleet.sequencer);
        fleet.sim.crash_node(seq_node);
        fleet.sim.restart_node(seq_node);
        let seq = fleet.sim.inspect::<DfSequencer>(fleet.sequencer);
        let log = &seq.expect("sequencer").log;
        assert!(0 < log.first_lsn() && log.first_lsn() < log.next_lsn());
        let (sent, sweeps) = (fleet.counter("net.sent"), fleet.counter("df.resends"));
        fleet.sim.run_for(RESEND_INTERVAL * 3);
        assert!(fleet.counter("df.resends") >= sweeps + 6);
        assert_eq!(fleet.counter("net.sent"), sent);
    }

    /// The `i`-th key (of the family `{prefix}{n}`) that `shard` owns.
    fn owned_key(map: &ShardMap, shard: usize, prefix: &str, i: usize) -> String {
        (0..)
            .map(|n| format!("{prefix}{n}"))
            .filter(|key| map.owner(key) == shard)
            .nth(i)
            .expect("unbounded")
    }

    /// One world of the recovery differential: three shards, one epoch
    /// per 3 ms tick (epoch `t + 1` carries tick `t`), checkpoints at
    /// epochs 4, 8 and 12. Shard 1 owns a key written only in epoch 1
    /// (it reaches the mirror at the first checkpoint and is never
    /// patched again), a key rewritten by every epoch, and a key first
    /// created in epoch 13 (after the last checkpoint, so only the
    /// journal has it). With `crash`, shard 1 dies in the middle of epoch
    /// 15 and restarts 3 ms later; without, the durable mirror is compared
    /// with the live state at every checkpoint.
    fn recovery_twin(crash: bool) -> (Fleet, [String; 4]) {
        const TICKS: usize = 24;
        const VICTIM: usize = 1;
        let config = DataflowConfig::default();
        let every = config.checkpoint_every;
        let map = ShardMap::ring(3);
        let early = owned_key(&map, VICTIM, "early", 0);
        let hot = owned_key(&map, VICTIM, "hot", 0);
        let late = owned_key(&map, VICTIM, "late", 0);
        let far = owned_key(&map, 2, "far", 0);
        let mut plan = vec![(0, transfer(&early, &far, 7))];
        plan.extend((0..TICKS).map(|t| (t, transfer(&hot, &far, 1))));
        plan.push((12, transfer(&far, &late, 5)));
        let (ticks, submits): (Vec<usize>, Vec<SubmitTxn>) = plan.into_iter().unzip();

        let mut fleet = deploy(submits, 3, config, true);
        let tick = |t: usize| SimTime::from_nanos(3_000_000 * (t as u64 + 1));
        for (i, &t) in ticks.iter().enumerate() {
            fleet.go_at(tick(t), i);
        }
        if crash {
            while !(fleet.shard(VICTIM).applied_epoch() == 14 && fleet.shard(VICTIM).run.is_some())
            {
                assert!(fleet.sim.step());
            }
            assert_eq!(fleet.counter("df.checkpoints"), 3 * 3);
            let node = fleet.sim.node_of(fleet.shards[VICTIM]);
            fleet.sim.crash_node(node);
            fleet.sim.run_for(SimDuration::from_millis(3));
            fleet.sim.restart_node(node);
        } else {
            let mut applied = [0; 3];
            let mut compared = [0; 3];
            while fleet.sim.now() < tick(TICKS + 2) {
                assert!(fleet.sim.step());
                for i in 0..3 {
                    let shard = fleet.shard(i);
                    if shard.applied_epoch() == applied[i] {
                        continue;
                    }
                    applied[i] = shard.applied_epoch();
                    if !applied[i].is_multiple_of(every) {
                        continue;
                    }
                    // Ticks are far enough apart that no successor epoch
                    // has touched the state yet.
                    assert!(shard.is_idle());
                    let mut live: Vec<(String, Value)> = shard
                        .state
                        .iter()
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect();
                    live.sort_by(|a, b| a.0.cmp(&b.0));
                    let snap = shard.snap.borrow();
                    assert_eq!(snap.epoch, applied[i]);
                    assert_eq!(snap.state, live, "shard {i} at {}", applied[i]);
                    compared[i] += 1;
                }
            }
            assert_eq!(compared, [TICKS as u64 / every; 3]);
        }
        fleet.sim.run_for(SimDuration::from_secs(1));
        assert_eq!(fleet.counter("client.ok"), ticks.len() as u64);
        assert_eq!(fleet.counter("client.dup"), 0, "exactly-once output");
        (fleet, [early, hot, late, far])
    }

    #[test]
    fn recovery_from_the_incremental_checkpoint_matches_the_uncrashed_twin() {
        let (crashed, keys) = recovery_twin(true);
        let (twin, _) = recovery_twin(false);
        for key in &keys {
            assert!(twin.peek(key).is_some(), "{key} was never written");
            assert_eq!(crashed.peek(key), twin.peek(key), "{key}");
        }
        let money: i64 = keys
            .iter()
            .map(|key| crashed.peek(key).expect("written").as_int())
            .sum();
        assert_eq!(money, 4 * 100, "money must be conserved through recovery");
        for i in 0..3 {
            assert_eq!(
                crashed.shard(i).applied_epoch(),
                twin.shard(i).applied_epoch()
            );
            assert!(crashed.shard(i).is_idle());
        }
    }
}
