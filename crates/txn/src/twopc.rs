//! Two-phase commit across service databases (§4.2, the protocol
//! microservices avoid — implemented here so its costs are measurable).
//!
//! Participants execute their local work in an open serializable
//! transaction (locks held), vote in the prepare phase, and apply the
//! coordinator's decision. The coordinator journals its commit decision
//! durably *before* releasing it (presumed abort). The blocking behaviour
//! the paper highlights is real here: a participant that voted YES holds
//! its locks until the coordinator — and only the coordinator — decides.
//! Crash the coordinator after prepare and watch everything queue behind
//! those locks (experiment E3).
//!
//! Host cost: a message body is an immutable `Rc` ([`Payload`]), so the
//! path holds handles instead of copies. The coordinator never copies the
//! client's [`StartDtx`]: each [`ExecuteReq`] carries the body's handle
//! and a branch index, the participant runs the procedure straight out of
//! it, and the transaction keeps only its participant set — built once,
//! in the one insertion order that fixes the order prepares and decisions
//! are sent in (see `Dtx::participants`). Participants format their
//! counter names once per factory and keep no engine history
//! ([`Engine::record_footprints`]).

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use tca_sim::{DetHashMap as HashMap, DetHashSet as HashSet};

use tca_messaging::rpc::{reply_call, reply_to, RpcRequest};
use tca_sim::{
    Boot, Ctx, Fnv64, Payload, Process, ProcessId, RecentWindow, SimDuration, SpanId, SpanKind,
};
use tca_storage::{
    proc::run_proc_open, Engine, EngineConfig, ProcOutcome, ProcRegistry, TxId, Value,
};

// ---------------------------------------------------------------------------
// Wire messages
// ---------------------------------------------------------------------------

/// Execute phase: run one branch's procedure locally under txid, hold
/// locks. The procedure and its arguments are not copied into the
/// message: it holds the client's [`StartDtx`] body and says which branch.
#[derive(Clone)]
pub struct ExecuteReq {
    /// Global transaction id.
    pub txid: u64,
    /// Branch index within the transaction.
    pub branch: u32,
    start: Payload,
}

impl ExecuteReq {
    /// The request to execute branch `branch` of the [`StartDtx`] that
    /// `start` holds.
    ///
    /// # Panics
    ///
    /// Panics if `start` is not a [`StartDtx`] or has no such branch.
    pub fn new(txid: u64, start: Payload, branch: u32) -> Self {
        let branches = start.expect::<StartDtx>().branches.len();
        assert!((branch as usize) < branches, "no branch {branch}");
        ExecuteReq {
            txid,
            branch,
            start,
        }
    }

    /// The local stored procedure and its arguments.
    pub fn call(&self) -> (&str, &[Value]) {
        let (_, proc, args) = &self.start.expect::<StartDtx>().branches[self.branch as usize];
        (proc, args)
    }
}

/// Renders as the message reads, not as it is stored: the model checker
/// fingerprints messages by this text.
impl fmt::Debug for ExecuteReq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (proc, args) = self.call();
        f.debug_struct("ExecuteReq")
            .field("txid", &self.txid)
            .field("branch", &self.branch)
            .field("proc", &proc)
            .field("args", &args)
            .finish()
    }
}

/// Execute result.
#[derive(Debug, Clone)]
pub struct ExecuteResp {
    /// Global transaction id.
    pub txid: u64,
    /// Branch index within the transaction.
    pub branch: u32,
    /// Procedure results or the local failure.
    pub result: Result<Vec<Value>, String>,
}

/// Prepare phase request.
#[derive(Debug, Clone)]
pub struct PrepareReq {
    /// Global transaction id.
    pub txid: u64,
}

/// The participant's vote.
#[derive(Debug, Clone)]
pub struct Vote {
    /// Global transaction id.
    pub txid: u64,
    /// True = prepared (YES).
    pub yes: bool,
}

/// Decision phase: commit or abort.
#[derive(Debug, Clone)]
pub struct DecisionReq {
    /// Global transaction id.
    pub txid: u64,
    /// The decision.
    pub commit: bool,
}

/// Decision acknowledged.
#[derive(Debug, Clone)]
pub struct DecisionAck {
    /// Global transaction id.
    pub txid: u64,
}

/// Participant → coordinator: "I am prepared for `txid` and have heard no
/// decision — what happened?" The termination protocol that unblocks
/// prepared branches once the coordinator is reachable again: the
/// coordinator answers with a [`DecisionReq`] — the journaled/in-progress
/// decision if it knows the transaction, otherwise abort (presumed abort:
/// an unjournaled, unknown txid cannot have committed).
#[derive(Debug, Clone)]
pub struct DecisionInquiry {
    /// Global transaction id.
    pub txid: u64,
}

/// Client request (inside an [`RpcRequest`]): run a distributed
/// transaction over `(participant, proc, args)` branches.
#[derive(Debug, Clone)]
pub struct StartDtx {
    /// The transaction branches, at most [`MAX_BRANCHES`].
    pub branches: Vec<(ProcessId, String, Vec<Value>)>,
}

/// Most branches one transaction may have (the coordinator tracks the
/// ones still executing in one word); a larger [`StartDtx`] is refused.
pub const MAX_BRANCHES: usize = 64;

/// Distributed transaction outcome (inside an `RpcReply`).
#[derive(Debug, Clone)]
pub struct DtxOutcome {
    /// Committed?
    pub committed: bool,
    /// First error encountered, if aborted.
    pub error: Option<String>,
}

// ---------------------------------------------------------------------------
// Participant
// ---------------------------------------------------------------------------

/// Abort an executed-but-unprepared transaction after this long (the
/// coordinator presumably died before prepare). Also the participant's
/// sweep period.
const EXECUTE_TIMEOUT: SimDuration = SimDuration::from_millis(100);
/// Commit/abort apply latency (fsync).
const DECIDE_LATENCY: SimDuration = SimDuration::from_micros(100);

/// Participant configuration.
#[derive(Debug, Clone)]
pub struct ParticipantConfig {
    /// Ask the coordinator for the outcome of a branch that has been
    /// prepared this long without hearing a decision (checked on the
    /// sweep timer, so the effective delay is rounded up to a sweep
    /// tick). Prepared branches still *block* — only an answer from the
    /// coordinator releases them — but inquiring is what makes recovery
    /// eventual instead of hoping a decision retry gets through.
    pub decision_inquiry_after: SimDuration,
    /// Mutation knob for the model-checker's self-test: when set, a late
    /// `ExecuteReq` for an already-decided txid is *executed* instead of
    /// rejected, reintroducing the lock-leak bug the late-execute guard
    /// fixed. Never enable outside tests.
    pub accept_late_execute: bool,
}

impl Default for ParticipantConfig {
    fn default() -> Self {
        ParticipantConfig {
            decision_inquiry_after: SimDuration::from_millis(150),
            accept_late_execute: false,
        }
    }
}

const SWEEP_TAG: u64 = 0x2bc0_0001;

/// How many recently decided txids a participant remembers (bounded FIFO)
/// to reject ExecuteReqs that arrive after their transaction was decided.
const RECENTLY_DECIDED_CAP: usize = 4096;

#[derive(Debug, Clone, Copy, PartialEq)]
enum BranchState {
    Executed,
    Prepared,
}

struct Branch {
    /// Open engine transactions of this global txn (a coordinator may
    /// route several branches of one transaction to the same
    /// participant).
    txs: Vec<TxId>,
    state: BranchState,
    executed_at: tca_sim::SimTime,
    /// When the branch entered the prepared state (meaningless before).
    prepared_at: tca_sim::SimTime,
    /// Who to ask for the decision (the coordinator that drove execute).
    coordinator: ProcessId,
}

/// A 2PC participant: local engine + protocol state machine.
pub struct TwoPcParticipant {
    counters: Rc<CounterNames>,
    config: ParticipantConfig,
    engine: Engine,
    registry: Rc<ProcRegistry>,
    branches: HashMap<u64, Branch>,
    /// Durable set of prepared txids (survives participant crash; on
    /// recovery these remain in doubt — simplified: we only journal,
    /// full prepared-state recovery is out of scope).
    prepared_log: Rc<RefCell<HashSet<u64>>>,
    /// Recently decided txids (bounded FIFO). An ExecuteReq for one of
    /// these is *late* — the decision overtook it in the network — and
    /// must be rejected instead of acquiring locks nobody will release.
    recently_decided: RecentWindow<u64, ()>,
}

/// The participant's per-instance counter names (`"<name>.commits"`
/// etc.), formatted once per factory instead of once per message.
struct CounterNames {
    late_execute_aborts: String,
    executes: String,
    votes: String,
    commits: String,
    rollbacks: String,
    timeout_aborts: String,
    inquiries: String,
    in_doubt_gauge: String,
    in_doubt_ticks: String,
}

impl CounterNames {
    fn new(name: &str) -> Self {
        let of = |counter: &str| format!("{name}.{counter}");
        CounterNames {
            late_execute_aborts: of("late_execute_aborts"),
            executes: of("executes"),
            votes: of("votes"),
            commits: of("commits"),
            rollbacks: of("rollbacks"),
            timeout_aborts: of("timeout_aborts"),
            inquiries: of("inquiries"),
            in_doubt_gauge: of("in_doubt_gauge"),
            in_doubt_ticks: of("in_doubt_ticks"),
        }
    }
}

impl TwoPcParticipant {
    /// Process factory.
    pub fn factory(
        name: impl Into<String>,
        config: ParticipantConfig,
        registry: ProcRegistry,
    ) -> impl FnMut(&mut Boot) -> Box<dyn Process> {
        Self::factory_seeded(name, config, registry, Vec::new())
    }

    /// Like [`TwoPcParticipant::factory`], with initial data loaded on
    /// first boot (recovery reads it back from the checkpoint image).
    pub fn factory_seeded(
        name: impl Into<String>,
        config: ParticipantConfig,
        registry: ProcRegistry,
        seed: Vec<(tca_storage::Key, Value)>,
    ) -> impl FnMut(&mut Boot) -> Box<dyn Process> {
        let counters = Rc::new(CounterNames::new(&name.into()));
        let registry = Rc::new(registry);
        let seed = Rc::new(seed);
        move |boot| {
            let wal = boot.disk.durable("wal");
            let checkpoint = boot.disk.durable("checkpoint");
            let prepared_log: Rc<RefCell<HashSet<u64>>> = boot.disk.durable("prepared");
            // On first boot the handles are empty, and recovering from
            // nothing is a fresh engine.
            let mut engine = Engine::recover(EngineConfig::default(), wal, checkpoint);
            if !boot.restart {
                engine.load_batch(seed.to_vec());
            }
            // Nothing drains a participant's footprints; left on they grow
            // with every commit for as long as the participant lives.
            engine.record_footprints(false);
            Box::new(TwoPcParticipant {
                counters: Rc::clone(&counters),
                config: config.clone(),
                engine,
                registry: Rc::clone(&registry),
                branches: HashMap::default(),
                prepared_log,
                recently_decided: RecentWindow::new(RECENTLY_DECIDED_CAP),
            })
        }
    }

    /// Number of branches currently blocked in the prepared state.
    pub fn in_doubt(&self) -> usize {
        self.branches
            .values()
            .filter(|b| b.state == BranchState::Prepared)
            .count()
    }

    /// Safety invariant for the model checker: branches still open for a
    /// txid the participant already saw decided. Such "zombie" branches
    /// hold engine locks that nothing will ever release (the decision
    /// already came and went), so this must always be zero.
    pub fn zombie_branches(&self) -> usize {
        self.branches
            .keys()
            .filter(|txid| self.recently_decided.contains(txid))
            .count()
    }

    /// Order-insensitive digest of the participant's protocol state
    /// (branches, decided set, prepared log, open engine transactions) for
    /// model-checker state fingerprints. Balances are not included — the
    /// checking scenario peeks those separately.
    pub fn state_digest(&self) -> u64 {
        let mut h = Fnv64::new();
        let mut mix = |v: u64| h = h.u64(v);
        let mut branches: Vec<(u64, u64, u64)> = self
            .branches
            .iter()
            .map(|(&txid, b)| (txid, b.state as u64, b.txs.len() as u64))
            .collect();
        branches.sort_unstable();
        mix(branches.len() as u64);
        for (txid, state, ntxs) in branches {
            mix(txid);
            mix(state);
            mix(ntxs);
        }
        let mut decided: Vec<u64> = self.recently_decided.keys().copied().collect();
        decided.sort_unstable();
        mix(decided.len() as u64);
        for txid in decided {
            mix(txid);
        }
        let mut prepared: Vec<u64> = self.prepared_log.borrow().iter().copied().collect();
        prepared.sort_unstable();
        mix(prepared.len() as u64);
        for txid in prepared {
            mix(txid);
        }
        mix(self.engine.active_count() as u64);
        h.finish()
    }

    /// Direct engine peek for tests.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }
}

impl Process for TwoPcParticipant {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(EXECUTE_TIMEOUT, SWEEP_TAG);
    }

    fn on_message(&mut self, ctx: &mut Ctx, from: ProcessId, payload: Payload) {
        if let Some(req) = payload.downcast_ref::<ExecuteReq>() {
            // A decision (typically an abort racing ahead on an
            // independent network path) may overtake the ExecuteReq that
            // started the branch. Executing now would acquire locks for a
            // transaction that is already over — nobody would ever
            // release them.
            if !self.config.accept_late_execute && self.recently_decided.contains(&req.txid) {
                ctx.metrics().incr(&self.counters.late_execute_aborts, 1);
                ctx.send(
                    from,
                    Payload::new(ExecuteResp {
                        txid: req.txid,
                        branch: req.branch,
                        result: Err("txid already decided".into()),
                    }),
                );
                return;
            }
            let (proc, args) = req.call();
            let result = match run_proc_open(&mut self.engine, &self.registry, proc, args) {
                Ok((tx, values)) => {
                    let now = ctx.now();
                    self.branches
                        .entry(req.txid)
                        .or_insert_with(|| Branch {
                            txs: Vec::new(),
                            state: BranchState::Executed,
                            executed_at: now,
                            prepared_at: now,
                            coordinator: from,
                        })
                        .txs
                        .push(tx);
                    Ok(values)
                }
                Err(ProcOutcome::Retry) => Err("lock conflict".into()),
                Err(ProcOutcome::Failed(e)) => Err(e),
                Err(other) => Err(format!("{other:?}")),
            };
            ctx.metrics().incr(&self.counters.executes, 1);
            ctx.send(
                from,
                Payload::new(ExecuteResp {
                    txid: req.txid,
                    branch: req.branch,
                    result,
                }),
            );
        } else if let Some(req) = payload.downcast_ref::<PrepareReq>() {
            let yes = match self.branches.get_mut(&req.txid) {
                Some(branch) => {
                    if branch.state != BranchState::Prepared {
                        branch.prepared_at = ctx.now();
                    }
                    branch.state = BranchState::Prepared;
                    branch.coordinator = from;
                    self.prepared_log.borrow_mut().insert(req.txid);
                    true
                }
                None => false, // timed out / unknown: vote NO
            };
            ctx.metrics().incr(&self.counters.votes, 1);
            ctx.send(
                from,
                Payload::new(Vote {
                    txid: req.txid,
                    yes,
                }),
            );
        } else if let Some(req) = payload.downcast_ref::<DecisionReq>() {
            self.recently_decided.insert(req.txid, ());
            if let Some(branch) = self.branches.remove(&req.txid) {
                for tx in branch.txs {
                    if req.commit {
                        self.engine.commit(tx);
                        ctx.metrics().incr(&self.counters.commits, 1);
                    } else {
                        self.engine.abort(tx);
                        ctx.metrics().incr(&self.counters.rollbacks, 1);
                    }
                }
            }
            self.prepared_log.borrow_mut().remove(&req.txid);
            ctx.send_after(
                from,
                Payload::new(DecisionAck { txid: req.txid }),
                DECIDE_LATENCY,
            );
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx, tag: u64) {
        if tag != SWEEP_TAG {
            return;
        }
        // Unilaterally abort executed-but-unprepared branches that have
        // outlived the timeout. Prepared branches MUST keep blocking.
        let now = ctx.now();
        let expired: Vec<u64> = self
            .branches
            .iter()
            .filter(|(_, b)| {
                b.state == BranchState::Executed && now.since(b.executed_at) > EXECUTE_TIMEOUT
            })
            .map(|(&txid, _)| txid)
            .collect();
        for txid in expired {
            if let Some(branch) = self.branches.remove(&txid) {
                for tx in branch.txs {
                    self.engine.abort(tx);
                }
                ctx.metrics().incr(&self.counters.timeout_aborts, 1);
            }
        }
        // Termination protocol: prepared branches that have blocked past
        // the inquiry threshold ask their coordinator what the decision
        // was. The inquiry is idempotent (the answer is a DecisionReq, and
        // decisions are idempotent), so re-asking every sweep is safe.
        let inquiry_after = self.config.decision_inquiry_after;
        let mut inquiries = 0u64;
        for (&txid, branch) in &self.branches {
            if branch.state == BranchState::Prepared
                && now.since(branch.prepared_at) > inquiry_after
            {
                ctx.send(branch.coordinator, Payload::new(DecisionInquiry { txid }));
                inquiries += 1;
            }
        }
        if inquiries > 0 {
            ctx.metrics().incr(&self.counters.inquiries, inquiries);
        }
        ctx.metrics().incr(&self.counters.in_doubt_gauge, 0);
        let in_doubt = self.in_doubt() as u64;
        if in_doubt > 0 {
            ctx.metrics().incr(&self.counters.in_doubt_ticks, in_doubt);
        }
        ctx.set_timer(EXECUTE_TIMEOUT, SWEEP_TAG);
    }
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum DtxPhase {
    Executing,
    Preparing,
    Deciding,
}

/// Coordinator configuration: retry cadence and phase deadlines.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Sweep interval: unacked PrepareReq/DecisionReq messages are resent
    /// each tick, and phase deadlines are checked.
    pub retry_interval: SimDuration,
    /// Abort a transaction whose execute phase outlives this (a lost
    /// ExecuteReq/ExecuteResp; re-executing is not idempotent, so the
    /// coordinator aborts rather than retries).
    pub execute_deadline: SimDuration,
    /// Abort a transaction whose prepare phase outlives this even with
    /// retries (a participant is down or unreachable; aborting is always
    /// safe before the decision).
    pub prepare_deadline: SimDuration,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            retry_interval: SimDuration::from_millis(20),
            execute_deadline: SimDuration::from_millis(80),
            prepare_deadline: SimDuration::from_millis(80),
        }
    }
}

const COORD_SWEEP_TAG: u64 = 0x2bc0_0002;

struct Dtx {
    /// Every participant once, built by one pass over the branches and
    /// never changed. Prepares and decisions go out in this set's
    /// iteration order, and the network draws from the RNG per send, so
    /// `pending` is refilled from it with `clone_from`, which copies the
    /// table as laid out; a rebuilt or sorted set would iterate otherwise.
    participants: HashSet<ProcessId>,
    phase: DtxPhase,
    /// Participants the current phase still waits for.
    pending: HashSet<ProcessId>,
    /// Bit `i` is set while branch `i` has not reported its execute.
    pending_branches: u64,
    commit: bool,
    error: Option<String>,
    caller: Option<(ProcessId, u64)>,
    started: tca_sim::SimTime,
    /// When the current phase was entered (drives deadlines).
    phase_since: tca_sim::SimTime,
    /// Trace span covering the whole transaction.
    span: Option<SpanId>,
    /// Trace span of the current phase (execute/prepare/decide), a child
    /// of `span`; sweeps re-enter it so retries attach to their phase.
    phase_span: Option<SpanId>,
}

/// The durable decision journal: txid → (commit?, participants).
///
/// Presumed abort means only COMMIT entries are written; journaling the
/// participant list alongside the decision is what lets a *restarted*
/// coordinator resend an undelivered commit instead of leaving prepared
/// participants blocked forever.
type DecisionJournal = Rc<RefCell<HashMap<u64, (bool, Vec<ProcessId>)>>>;

/// The 2PC coordinator process.
pub struct TwoPcCoordinator {
    config: CoordinatorConfig,
    txns: HashMap<u64, Dtx>,
    next_txid: u64,
    decisions: DecisionJournal,
    /// Durable high-water mark of allocated txids. The epoch formula
    /// alone (`boot.now << 8`) reuses txids when the coordinator crashes
    /// and restarts within the same virtual nanosecond: the second
    /// incarnation re-issues a txid whose branches may still be open on
    /// participants, which then *merge* two distinct transactions into
    /// one branch entry and commit/abort them together. Persisting the
    /// floor makes txids unique across same-instant incarnations.
    txid_floor: Rc<RefCell<u64>>,
}

impl TwoPcCoordinator {
    /// Process factory with default timeouts; the decision journal
    /// survives coordinator crashes.
    pub fn factory() -> impl FnMut(&mut Boot) -> Box<dyn Process> {
        Self::factory_with(CoordinatorConfig::default())
    }

    /// Process factory with explicit timeouts.
    pub fn factory_with(config: CoordinatorConfig) -> impl FnMut(&mut Boot) -> Box<dyn Process> {
        move |boot| {
            let decisions: DecisionJournal = boot.disk.durable("decisions");
            // A restarted coordinator has lost its volatile transaction
            // table. Journaled (= committed, undelivered) transactions are
            // rebuilt in the Deciding phase from the journal's participant
            // lists and their decisions resent from on_start; everything
            // else is presumed aborted — unprepared branches die by
            // participant execute-timeout, prepared ones by the decision
            // inquiry (answered "abort" for unknown txids).
            let mut txns: HashMap<u64, Dtx> = HashMap::default();
            for (&txid, (commit, participants)) in decisions.borrow().iter() {
                let participants: HashSet<ProcessId> = participants.iter().copied().collect();
                txns.insert(
                    txid,
                    Dtx {
                        pending: participants.clone(),
                        participants,
                        phase: DtxPhase::Deciding,
                        pending_branches: 0,
                        commit: *commit,
                        error: None,
                        caller: None,
                        started: boot.now,
                        phase_since: boot.now,
                        span: None,
                        phase_span: None,
                    },
                );
            }
            let txid_floor: Rc<RefCell<u64>> = boot.disk.durable("txid_floor");
            let floor = *txid_floor.borrow();
            Box::new(TwoPcCoordinator {
                config: config.clone(),
                txns,
                next_txid: (boot.now.as_nanos() << 8).max(1).max(floor),
                decisions,
                txid_floor,
            })
        }
    }

    /// Transactions the coordinator still considers open (audit hook).
    pub fn open_dtxs(&self) -> usize {
        self.txns.len()
    }

    /// Order-insensitive digest of the coordinator's protocol state
    /// (open transactions with phase/pending sets, decision journal,
    /// txid cursor) for model-checker state fingerprints.
    pub fn state_digest(&self) -> u64 {
        let mut h = Fnv64::new();
        let mut mix = |v: u64| h = h.u64(v);
        mix(self.next_txid);
        let mut txns: Vec<(u64, u64)> = self
            .txns
            .iter()
            .map(|(&txid, dtx)| {
                let mut pending: Vec<u32> = dtx.pending.iter().map(|p| p.0).collect();
                pending.sort_unstable();
                let t = Fnv64::new()
                    .u64(dtx.phase as u64)
                    .u64(dtx.commit as u64)
                    .u64(dtx.pending_branches.count_ones() as u64);
                let t = pending.into_iter().fold(t, |t, p| t.u64(p as u64));
                (txid, t.finish())
            })
            .collect();
        txns.sort_unstable();
        mix(txns.len() as u64);
        for (txid, t) in txns {
            mix(txid);
            mix(t);
        }
        let decisions = self.decisions.borrow();
        let mut journal: Vec<(u64, u64)> = decisions
            .iter()
            .map(|(&txid, (commit, parts))| (txid, (*commit as u64) << 32 | parts.len() as u64))
            .collect();
        journal.sort_unstable();
        mix(journal.len() as u64);
        for (txid, d) in journal {
            mix(txid);
            mix(d);
        }
        h.finish()
    }

    fn decide(&mut self, ctx: &mut Ctx, txid: u64, commit: bool, error: Option<String>) {
        let Some(dtx) = self.txns.get_mut(&txid) else {
            return;
        };
        dtx.phase = DtxPhase::Deciding;
        dtx.phase_since = ctx.now();
        dtx.commit = commit;
        if error.is_some() {
            dtx.error = error;
        }
        ctx.trace_span_end(dtx.phase_span);
        ctx.trace_enter(dtx.span);
        dtx.phase_span = ctx.trace_span(SpanKind::TxnDecide, || format!("decide {txid}"));
        ctx.trace_exit(dtx.span);
        // Presumed abort: only COMMIT decisions must be durable before
        // release — journaled with the participant list so a restarted
        // coordinator can finish delivery.
        if commit {
            let mut list: Vec<ProcessId> = dtx.participants.iter().copied().collect();
            list.sort();
            self.decisions.borrow_mut().insert(txid, (true, list));
        }
        dtx.pending.clone_from(&dtx.participants);
        ctx.trace_enter(dtx.phase_span);
        for &participant in &dtx.participants {
            ctx.send(participant, Payload::new(DecisionReq { txid, commit }));
        }
        ctx.trace_exit(dtx.phase_span);
    }

    fn finish(&mut self, ctx: &mut Ctx, txid: u64) {
        let Some(dtx) = self.txns.remove(&txid) else {
            return;
        };
        self.decisions.borrow_mut().remove(&txid);
        let metric = if dtx.commit {
            "dtx.committed"
        } else {
            "dtx.aborted"
        };
        ctx.metrics().incr(metric, 1);
        let elapsed = ctx.now().since(dtx.started);
        ctx.metrics().record("dtx.latency", elapsed);
        ctx.trace_enter(dtx.span);
        if let Some((client, call_id)) = dtx.caller {
            reply_call(
                ctx,
                client,
                call_id,
                Payload::new(DtxOutcome {
                    committed: dtx.commit,
                    error: dtx.error,
                }),
            );
        }
        ctx.trace_exit(dtx.span);
        ctx.trace_span_end(dtx.phase_span);
        ctx.trace_span_end(dtx.span);
    }
}

impl Process for TwoPcCoordinator {
    fn on_start(&mut self, ctx: &mut Ctx) {
        // Resend journaled decisions rebuilt by the factory (first boot
        // has none). Retries continue from the sweep timer until acked.
        for (&txid, dtx) in &self.txns {
            if dtx.phase == DtxPhase::Deciding {
                for &participant in &dtx.pending {
                    ctx.metrics().incr("dtx.decision_resends", 1);
                    ctx.send(
                        participant,
                        Payload::new(DecisionReq {
                            txid,
                            commit: dtx.commit,
                        }),
                    );
                }
            }
        }
        ctx.set_timer(self.config.retry_interval, COORD_SWEEP_TAG);
    }

    fn on_message(&mut self, ctx: &mut Ctx, from: ProcessId, payload: Payload) {
        if let Some(request) = payload.downcast_ref::<RpcRequest>() {
            let Some(start) = request.body.downcast_ref::<StartDtx>() else {
                return;
            };
            if ctx.deadline_expired() {
                // The caller's budget is already gone; starting a
                // distributed transaction now only produces work whose
                // result nobody will wait for. Reject up front.
                ctx.metrics().incr("dtx.deadline_rejected", 1);
                reply_to(
                    ctx,
                    from,
                    request,
                    Payload::new(DtxOutcome {
                        committed: false,
                        error: Some("deadline expired before start".into()),
                    }),
                );
                return;
            }
            if start.branches.len() > MAX_BRANCHES {
                reply_to(
                    ctx,
                    from,
                    request,
                    Payload::new(DtxOutcome {
                        committed: false,
                        error: Some(format!("more than {MAX_BRANCHES} branches")),
                    }),
                );
                return;
            }
            self.next_txid += 1;
            let txid = self.next_txid;
            *self.txid_floor.borrow_mut() = txid;
            let participants: HashSet<ProcessId> =
                start.branches.iter().map(|(p, _, _)| *p).collect();
            let span = ctx.trace_span(SpanKind::Txn, || format!("dtx {txid}"));
            ctx.trace_enter(span);
            let phase_span = ctx.trace_span(SpanKind::TxnExecute, || format!("execute {txid}"));
            ctx.trace_exit(span);
            let dtx = Dtx {
                pending: participants.clone(),
                participants,
                phase: DtxPhase::Executing,
                // One bit per branch; `checked_shl` is `None` at exactly 64.
                pending_branches: 1u64
                    .checked_shl(start.branches.len() as u32)
                    .map_or(u64::MAX, |bit| bit - 1),
                commit: false,
                error: None,
                caller: Some((from, request.call_id)),
                started: ctx.now(),
                phase_since: ctx.now(),
                span,
                phase_span,
            };
            ctx.trace_enter(phase_span);
            for (branch, (participant, _, _)) in start.branches.iter().enumerate() {
                let execute = ExecuteReq::new(txid, request.body.clone(), branch as u32);
                ctx.send(*participant, Payload::new(execute));
            }
            ctx.trace_exit(phase_span);
            self.txns.insert(txid, dtx);
            ctx.metrics().incr("dtx.started", 1);
        } else if let Some(resp) = payload.downcast_ref::<ExecuteResp>() {
            let txid = resp.txid;
            let Some(dtx) = self.txns.get_mut(&txid) else {
                return;
            };
            if dtx.phase != DtxPhase::Executing {
                return;
            }
            match &resp.result {
                Ok(_) => {
                    dtx.pending_branches &= !1u64.checked_shl(resp.branch).unwrap_or(0);
                    if dtx.pending_branches == 0 {
                        // Phase 2: prepare everywhere.
                        dtx.phase = DtxPhase::Preparing;
                        dtx.phase_since = ctx.now();
                        ctx.trace_span_end(dtx.phase_span);
                        ctx.trace_enter(dtx.span);
                        dtx.phase_span =
                            ctx.trace_span(SpanKind::TxnPrepare, || format!("prepare {txid}"));
                        ctx.trace_exit(dtx.span);
                        dtx.pending.clone_from(&dtx.participants);
                        ctx.trace_enter(dtx.phase_span);
                        for &participant in &dtx.participants {
                            ctx.send(participant, Payload::new(PrepareReq { txid }));
                        }
                        ctx.trace_exit(dtx.phase_span);
                    }
                }
                Err(e) => {
                    let e = e.clone();
                    self.decide(ctx, txid, false, Some(e));
                }
            }
        } else if let Some(vote) = payload.downcast_ref::<Vote>() {
            let txid = vote.txid;
            let Some(dtx) = self.txns.get_mut(&txid) else {
                return;
            };
            if dtx.phase != DtxPhase::Preparing {
                return;
            }
            if vote.yes {
                dtx.pending.remove(&from);
                if dtx.pending.is_empty() {
                    self.decide(ctx, txid, true, None);
                }
            } else {
                self.decide(ctx, txid, false, Some("vote no".into()));
            }
        } else if let Some(ack) = payload.downcast_ref::<DecisionAck>() {
            let txid = ack.txid;
            let Some(dtx) = self.txns.get_mut(&txid) else {
                return;
            };
            dtx.pending.remove(&from);
            if dtx.pending.is_empty() {
                self.finish(ctx, txid);
            }
        } else if let Some(inquiry) = payload.downcast_ref::<DecisionInquiry>() {
            let txid = inquiry.txid;
            match self.txns.get(&txid) {
                // Decided: answer with the decision (the ack path then
                // clears this participant from pending as usual).
                Some(dtx) if dtx.phase == DtxPhase::Deciding => {
                    let commit = dtx.commit;
                    ctx.send(from, Payload::new(DecisionReq { txid, commit }));
                }
                // Still executing/preparing: stay silent — the retry sweep
                // is driving this transaction forward, and presuming abort
                // here could contradict the commit it is about to reach.
                Some(_) => {}
                None => {
                    // Not in the volatile table. If the journal has it the
                    // decision was COMMIT (transient window before the
                    // factory rebuild — answer truthfully); otherwise
                    // presumed abort: no journal entry means no commit.
                    let journaled = self.decisions.borrow().get(&txid).map(|(c, _)| *c);
                    let commit = journaled.unwrap_or(false);
                    if !commit {
                        ctx.metrics().incr("dtx.presumed_aborts", 1);
                    }
                    ctx.send(from, Payload::new(DecisionReq { txid, commit }));
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx, tag: u64) {
        if tag != COORD_SWEEP_TAG {
            return;
        }
        let now = ctx.now();
        // Resend what is unacked; collect transactions past their phase
        // deadline for abort (decide() needs &mut self, so after the scan).
        let mut expired: Vec<(u64, &'static str)> = Vec::new();
        for (&txid, dtx) in &self.txns {
            match dtx.phase {
                DtxPhase::Executing => {
                    // ExecuteReqs are not idempotent (re-running the
                    // procedure would double-apply or self-conflict), so
                    // a stalled execute phase is aborted, not retried.
                    if now.since(dtx.phase_since) > self.config.execute_deadline {
                        expired.push((txid, "execute deadline"));
                    }
                }
                DtxPhase::Preparing => {
                    if now.since(dtx.phase_since) > self.config.prepare_deadline {
                        expired.push((txid, "prepare deadline"));
                    } else {
                        ctx.trace_enter(dtx.phase_span);
                        for &participant in &dtx.pending {
                            ctx.metrics().incr("dtx.prepare_resends", 1);
                            ctx.send(participant, Payload::new(PrepareReq { txid }));
                        }
                        ctx.trace_exit(dtx.phase_span);
                    }
                }
                DtxPhase::Deciding => {
                    // Decisions retry forever: they are idempotent and the
                    // transaction cannot finish until every ack arrives.
                    ctx.trace_enter(dtx.phase_span);
                    for &participant in &dtx.pending {
                        ctx.metrics().incr("dtx.decision_resends", 1);
                        ctx.send(
                            participant,
                            Payload::new(DecisionReq {
                                txid,
                                commit: dtx.commit,
                            }),
                        );
                    }
                    ctx.trace_exit(dtx.phase_span);
                }
            }
        }
        for (txid, why) in expired {
            ctx.metrics().incr("dtx.deadline_aborts", 1);
            self.decide(ctx, txid, false, Some(why.into()));
        }
        ctx.set_timer(self.config.retry_interval, COORD_SWEEP_TAG);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tca_messaging::rpc::{RetryPolicy, RpcClient, RpcEvent};
    use tca_sim::Sim;

    struct Client {
        coordinator: ProcessId,
        plan: Vec<StartDtx>,
        rpc: RpcClient,
    }
    impl Process for Client {
        fn on_start(&mut self, ctx: &mut Ctx) {
            for (i, start) in self.plan.clone().into_iter().enumerate() {
                self.rpc.call(
                    ctx,
                    self.coordinator,
                    Payload::new(start),
                    RetryPolicy::at_most_once(SimDuration::from_secs(10)),
                    i as u64,
                );
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx, _from: ProcessId, payload: Payload) {
            if let Some(RpcEvent::Reply { body, .. }) = self.rpc.on_message(ctx, &payload) {
                let outcome = body.expect::<DtxOutcome>();
                let metric = if outcome.committed {
                    "client.committed"
                } else {
                    "client.aborted"
                };
                ctx.metrics().incr(metric, 1);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx, tag: u64) {
            let _ = self.rpc.on_timer(ctx, tag);
        }
    }

    fn world() -> (Sim, ProcessId, ProcessId, ProcessId) {
        let mut sim = Sim::with_seed(111);
        let n1 = sim.add_node();
        let n2 = sim.add_node();
        let n3 = sim.add_node();
        let bank = |name: &'static str, account: &str| {
            TwoPcParticipant::factory_seeded(
                name,
                ParticipantConfig::default(),
                crate::worlds::bank_registry(),
                vec![(account.to_string(), Value::Int(100))],
            )
        };
        let p1 = sim.spawn(n1, "bank-a", bank("pa", "alice"));
        let p2 = sim.spawn(n2, "bank-b", bank("pb", "bob"));
        let coordinator = sim.spawn(n3, "coordinator", TwoPcCoordinator::factory());
        (sim, coordinator, p1, p2)
    }

    fn transfer_args(account: &str, amount: i64) -> Vec<Value> {
        vec![Value::from(account), Value::Int(amount)]
    }

    fn transfer(p1: ProcessId, p2: ProcessId, amount: i64) -> StartDtx {
        StartDtx {
            branches: vec![
                (p1, "debit".into(), transfer_args("alice", amount)),
                (p2, "credit".into(), transfer_args("bob", amount)),
            ],
        }
    }

    /// `mc_scenarios::twopc_payload_fp` fingerprints messages by their
    /// debug text, so this is what every pinned state count rests on: the
    /// rendering `#[derive(Debug)]` gave the message when it owned `proc`
    /// and `args`.
    #[test]
    fn execute_req_renders_as_the_message_it_carries() {
        let start = Payload::new(transfer(ProcessId(0), ProcessId(1), 30));
        let execute = ExecuteReq::new(7, start, 1);
        assert_eq!(execute.call(), ("credit", &transfer_args("bob", 30)[..]));
        assert_eq!(
            format!("{execute:?}"),
            r#"ExecuteReq { txid: 7, branch: 1, proc: "credit", args: [Str("bob"), Int(30)] }"#
        );
        assert_eq!(
            format!("{execute:#?}"),
            "ExecuteReq {\n    txid: 7,\n    branch: 1,\n    proc: \"credit\",\n    \
             args: [\n        Str(\n            \"bob\",\n        ),\n        \
             Int(\n            30,\n        ),\n    ],\n}"
        );
    }

    #[test]
    #[should_panic(expected = "no branch 2")]
    fn execute_req_names_a_branch_the_transaction_has() {
        let start = Payload::new(transfer(ProcessId(0), ProcessId(1), 30));
        let _ = ExecuteReq::new(7, start, 2);
    }

    #[test]
    fn more_branches_than_the_coordinator_tracks_are_refused() {
        let (mut sim, coordinator, p1, _) = world();
        let nc = sim.add_node();
        let with_branches = move |n: usize| StartDtx {
            branches: (0..n)
                .map(|i| (p1, "credit".into(), transfer_args(&format!("k{i}"), 1)))
                .collect(),
        };
        sim.spawn(nc, "client", move |_| {
            Box::new(Client {
                coordinator,
                plan: vec![with_branches(MAX_BRANCHES), with_branches(MAX_BRANCHES + 1)],
                rpc: RpcClient::new(),
            })
        });
        sim.run_for(SimDuration::from_millis(200));
        assert_eq!(sim.metrics().counter("client.committed"), 1);
        assert_eq!(sim.metrics().counter("client.aborted"), 1);
        assert_eq!(sim.metrics().counter("dtx.started"), 1);
        assert_eq!(sim.metrics().counter("pa.commits"), MAX_BRANCHES as u64);
    }

    #[test]
    fn distributed_commit_succeeds() {
        let (mut sim, coordinator, p1, p2) = world();
        let nc = sim.add_node();
        sim.spawn(nc, "client", move |_| {
            Box::new(Client {
                coordinator,
                plan: vec![transfer(p1, p2, 30)],
                rpc: RpcClient::new(),
            })
        });
        sim.run_for(SimDuration::from_millis(200));
        assert_eq!(sim.metrics().counter("client.committed"), 1);
        assert_eq!(sim.metrics().counter("pa.commits"), 1);
        assert_eq!(sim.metrics().counter("pb.commits"), 1);
    }

    #[test]
    fn branch_failure_aborts_everywhere() {
        let (mut sim, coordinator, p1, p2) = world();
        let nc = sim.add_node();
        // Debit 1000 > alice's balance 100: bank-a votes fail at execute.
        sim.spawn(nc, "client", move |_| {
            Box::new(Client {
                coordinator,
                plan: vec![transfer(p1, p2, 1000)],
                rpc: RpcClient::new(),
            })
        });
        sim.run_for(SimDuration::from_millis(300));
        assert_eq!(sim.metrics().counter("client.aborted"), 1);
        assert_eq!(sim.metrics().counter("pa.commits"), 0);
        assert_eq!(sim.metrics().counter("pb.commits"), 0);
        // The successful branch (credit) was rolled back or timed out.
        let undone =
            sim.metrics().counter("pb.rollbacks") + sim.metrics().counter("pb.timeout_aborts");
        assert!(undone >= 1, "credit branch undone");
    }

    #[test]
    fn coordinator_crash_after_prepare_blocks_participants() {
        let (mut sim, coordinator, p1, p2) = world();
        let nc = sim.add_node();
        sim.spawn(nc, "client", move |_| {
            Box::new(Client {
                coordinator,
                plan: vec![transfer(p1, p2, 30)],
                rpc: RpcClient::new(),
            })
        });
        // Crash the coordinator in the middle of the protocol (after
        // execute+prepare start, before decisions land) and never restart.
        let coord_node = sim.node_of(coordinator);
        sim.schedule_crash(tca_sim::SimTime::from_nanos(1_700_000), coord_node);
        sim.run_for(SimDuration::from_secs(2));
        // No commit or rollback decision ever arrives; prepared branches
        // sit in-doubt, holding locks (observable via in_doubt ticks).
        let commits = sim.metrics().counter("pa.commits") + sim.metrics().counter("pb.commits");
        let in_doubt =
            sim.metrics().counter("pa.in_doubt_ticks") + sim.metrics().counter("pb.in_doubt_ticks");
        assert_eq!(commits, 0, "no decision without the coordinator");
        assert!(
            in_doubt > 0,
            "prepared branches blocked in-doubt: {in_doubt}"
        );
    }
}
