//! Exactly-once transactional workflows: intent logs, idempotence tables,
//! and tail-call retry orchestration (Beldi / Reliable Actors style).
//!
//! The paper's core unsolved pain is fault-tolerant function composition:
//! developers hand-roll retries and dedup, and a crash *between* steps
//! silently double-applies effects. This module is the missing layer — a
//! workflow runtime over the existing substrates with three guarantees:
//!
//! 1. **Exactly-once step application.** Before a
//!    [`WorkflowWorker`] invokes the data tier it writes a durable
//!    *intent record* `(workflow id, step seq, args)` to its disk, and it
//!    answers duplicates from a durable
//!    [`tca_storage::IdempotenceTable`] keyed by the same pair. The
//!    effects themselves are fenced *in the data tier*: every step runs
//!    as one 2PC transaction whose first branch is a `wf_guard`
//!    procedure that atomically claims the step's marker key — a retry of
//!    an already-committed step aborts on the guard (error `wfdup:…`)
//!    instead of re-applying, closing the window where the worker crashed
//!    after commit but before recording the reply.
//! 2. **Atomic multi-entity steps.** A step's operations are partition
//!    keyed and routed through [`crate::sharding::route_branches`] onto
//!    the 2PC participant fleet, so a step touching several entities
//!    commits or aborts as a unit.
//! 3. **Tail-call retry orchestration.** Callers do not block on a chain:
//!    the [`WorkflowOrchestrator`] records each continuation durably
//!    (journal entry + completed-step cursor) and *drives* the chain
//!    itself — step completion tail-calls the next step, a sweep timer
//!    re-drives anything in limbo, and a restarted orchestrator resumes
//!    every unfinished workflow from its journal. A crashed caller can
//!    neither strand nor duplicate a chain. Client-side
//!    [`RetryPolicy`]/[`RetryBudget`]/circuit-breakers (PR 4) ride
//!    underneath every hop.
//!
//! Idempotence entries are garbage-collected behind a completed-workflow
//! watermark (the dataflow engine's monotone-watermark pattern): once
//! every workflow below id `W` is terminal, the orchestrator broadcasts
//! [`GcWatermark`] and workers drop the covered entries. A duplicate
//! arriving *after* collection is rejected with a clear error — the
//! watermark proves its effect is already applied.
//!
//! Everything here is opt-in and RNG-neutral: no code path draws from the
//! simulation RNG (wire ids are FNV hashes of journaled step identities
//! via [`RpcClient::call_with_id`]), so enabling the runtime leaves every
//! existing experiment's random streams byte-identical.

use std::cell::RefCell;
use std::rc::Rc;

use tca_messaging::rpc::{
    reply_call, reply_to, BreakerConfig, RetryBudget, RetryPolicy, RpcClient, RpcEvent, RpcReply,
    RpcRequest,
};
use tca_sim::{
    Boot, Ctx, DetHashMap, DetHashSet, Fnv64, NodeId, Payload, Process, ProcessId, ShardMap, Sim,
    SimDuration, SimTime,
};
use tca_storage::{IdemCheck, Pairs, ProcRegistry, SharedIdempotence, StepReply, Value};

use crate::chain_journal::{ChainJournal, Verdict};
use crate::sharding::{route_branches, ShardOp};
use crate::twopc::{DtxOutcome, ParticipantConfig, StartDtx, TwoPcCoordinator, TwoPcParticipant};

/// Orchestrator sweep-timer tag ("WF" namespace, clear of the RPC base).
const ORCH_SWEEP_TAG: u64 = 0x5746_0000_0000_0001;

// ---------------------------------------------------------------------------
// Wire protocol
// ---------------------------------------------------------------------------

/// Client request (inside an [`RpcRequest`] to the orchestrator): start a
/// workflow instance. The orchestrator assigns the workflow id from a
/// durable floor and replies with a [`WorkflowOutcome`] when the chain
/// reaches a terminal state. Re-sent starts (same caller and call id) are
/// deduplicated against the journal.
#[derive(Debug, Clone)]
pub struct StartWorkflow {
    /// Registered [`WorkflowDef`] name.
    pub workflow: String,
    /// Input bound to every step's op builder.
    pub args: Vec<Value>,
}

/// Terminal reply for a workflow instance (inside an [`RpcReply`]).
#[derive(Debug, Clone)]
pub struct WorkflowOutcome {
    /// The id the orchestrator assigned.
    pub wf_id: u64,
    /// Every step committed?
    pub committed: bool,
    /// The business error that stopped the chain, if any.
    pub error: Option<String>,
}

/// Orchestrator → worker (inside an [`RpcRequest`]): execute one step.
#[derive(Debug, Clone)]
pub struct StepReq {
    /// Workflow definition name.
    pub workflow: String,
    /// Workflow instance id.
    pub wf_id: u64,
    /// Step sequence number (0-based).
    pub seq: u32,
    /// The workflow's input args.
    pub args: Vec<Value>,
}

/// Worker → orchestrator step result (inside an [`RpcReply`]).
#[derive(Debug, Clone)]
pub struct StepOutcome {
    /// Workflow instance id (stale-reply guard).
    pub wf_id: u64,
    /// Step sequence number.
    pub seq: u32,
    /// The step's effects are durably applied.
    pub committed: bool,
    /// The commit was discovered rather than performed now: the reply
    /// came from the idempotence table or the `wf_guard` fence.
    pub already_applied: bool,
    /// On failure: worth re-driving (timeouts, lock conflicts, crashed
    /// coordinator) vs a terminal business error.
    pub transient: bool,
    /// Failure detail.
    pub error: Option<String>,
}

/// Orchestrator → workers broadcast: every workflow with id below `below`
/// is terminal; idempotence entries and leftover intents it covers may be
/// collected.
#[derive(Debug, Clone)]
pub struct GcWatermark {
    /// Exclusive upper bound of collected workflow ids.
    pub below: u64,
}

// ---------------------------------------------------------------------------
// Workflow definitions
// ---------------------------------------------------------------------------

/// Builds a step's partition-keyed operations from the workflow args.
pub type StepOps = Rc<dyn Fn(&[Value]) -> Vec<ShardOp>>;

/// One step of a workflow: a named bundle of single-shard operations that
/// must apply atomically (they become branches of one 2PC transaction).
#[derive(Clone)]
pub struct WorkflowStep {
    /// Step name (diagnostics only).
    pub name: String,
    /// Op builder: workflow args → partition-keyed operations.
    pub ops: StepOps,
}

/// A named chain of steps, executed strictly in sequence with
/// exactly-once semantics per step.
#[derive(Clone)]
pub struct WorkflowDef {
    /// Name clients use in [`StartWorkflow`].
    pub name: String,
    /// The chain, in execution order.
    pub steps: Vec<WorkflowStep>,
}

/// An `steps`-hop transfer chain: step `s` moves `args[1]` units from
/// `acct{args[0] + s}` to `acct{args[0] + s + 1}`. The workhorse
/// definition for torture sweeps, model checking, and benchmarks —
/// conservation across the accounts is the audit invariant.
pub fn transfer_chain_def(name: &str, steps: u32) -> WorkflowDef {
    WorkflowDef {
        name: name.into(),
        steps: (0..steps)
            .map(|s| WorkflowStep {
                name: format!("hop{s}"),
                ops: Rc::new(move |args: &[Value]| {
                    let base = args[0].as_int();
                    let amount = args[1].as_int();
                    let from = format!("acct{}", base + s as i64);
                    let to = format!("acct{}", base + s as i64 + 1);
                    vec![
                        (
                            from.clone(),
                            "debit".into(),
                            vec![Value::Str(from.clone()), Value::Int(amount)],
                        ),
                        (
                            to.clone(),
                            "credit".into(),
                            vec![Value::Str(to.clone()), Value::Int(amount)],
                        ),
                    ]
                }),
            })
            .collect(),
    }
}

/// The marker key fencing step `(wf_id, seq)` in the data tier.
pub fn step_marker_key(wf_id: u64, seq: u32) -> String {
    format!("wfstep:{wf_id}:{seq}")
}

/// Add the workflow fence procedures to a registry:
///
/// - `wf_guard(key)` — claim `key` or fail with `wfdup:key` if it is
///   already claimed. Rides as the first branch of every exactly-once
///   step so a duplicate execution aborts atomically instead of
///   re-applying.
/// - `wf_count(key)` — increment `key` unconditionally. The *naive*
///   baseline uses this instead, which makes every double-application
///   countable: a marker value above 1 is a double-applied step.
pub fn with_workflow_markers(registry: ProcRegistry) -> ProcRegistry {
    registry
        .with("wf_guard", |tx, args| {
            let key = args[0].as_str().to_owned();
            if tx.get(&key).is_some() {
                return Err(format!("wfdup:{key}"));
            }
            tx.put(&key, Value::Int(1));
            Ok(vec![])
        })
        .with("wf_count", |tx, args| {
            let key = args[0].as_str().to_owned();
            let n = tx.get(&key).map(|v| v.as_int()).unwrap_or(0);
            tx.put(&key, Value::Int(n + 1));
            Ok(vec![])
        })
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// What deploy sites vary for orchestrator and workers.
#[derive(Debug, Clone)]
pub struct WorkflowConfig {
    /// `false` switches workers to the *naive retry baseline*: no intent
    /// log, no idempotence table, no `wf_guard` fence — retries re-apply.
    /// The E21 experiment measures exactly what that costs.
    pub exactly_once: bool,
}

impl Default for WorkflowConfig {
    fn default() -> Self {
        WorkflowConfig { exactly_once: true }
    }
}

/// Orchestrator re-drive cadence for workflows in limbo (lost reply,
/// transient abort, exhausted call).
const SWEEP_INTERVAL: SimDuration = SimDuration::from_millis(25);
/// Hold-down after a transient step failure before that workflow is
/// re-driven. Must exceed the lock-release tail of an aborted step
/// transaction (abort decisions propagate on 20 ms retry sweeps):
/// re-driving sooner spawns a sibling that collides with its dying
/// predecessor's still-held marker lock, aborts, and refuels the
/// cycle — a deterministic livelock storm.
const TRANSIENT_COOLDOWN: SimDuration = SimDuration::from_millis(150);
/// Orchestrator → worker step-call policy. Step retries re-send the SAME
/// wire id: the worker coalesces them against the in-flight intent or
/// answers from the idempotence table, so they are pure polls — flat
/// backoff, patient timeout (a step in flight is a full 2PC round).
const STEP_POLICY: RetryPolicy = RetryPolicy {
    max_attempts: 5,
    timeout: SimDuration::from_millis(100),
    backoff: 1.0,
    jitter: 0.0,
};
/// Worker → 2PC-coordinator transaction policy. The 2PC coordinator does
/// NOT dedup `StartDtx` by wire id, so a dtx retry can fork a concurrent
/// *sibling* transaction for the same step. That is safe — the step's
/// `wf_guard` branch lets exactly one sibling commit and the others abort
/// `wfdup:` (reported as already-applied) — but it makes tight
/// exponential retries counterproductive: siblings briefly contend on the
/// marker lock. A flat, moderately patient cadence recovers lost messages
/// quickly while keeping the sibling window to one extra transaction.
const DTX_POLICY: RetryPolicy = RetryPolicy {
    max_attempts: 3,
    timeout: SimDuration::from_millis(120),
    backoff: 1.0,
    jitter: 0.0,
};
/// Error prefixes classified as *business* failures (terminal; the
/// workflow fails). Everything else is transient and re-driven.
const PERMANENT_ERRORS: [&str; 3] = ["insufficient", "out of stock", "unknown"];

fn is_permanent(error: &str) -> bool {
    PERMANENT_ERRORS
        .iter()
        .any(|prefix| error.starts_with(prefix))
}

// ---------------------------------------------------------------------------
// Orchestrator
// ---------------------------------------------------------------------------

/// One workflow instance's journaled record: args and the continuation
/// cursor (`completed_seq`); caller and verdict sit beside it in its
/// `ChainEntry`.
struct WfRecord {
    workflow: String,
    args: Vec<Value>,
    /// Steps `0..completed_seq` are durably applied; the continuation is
    /// step `completed_seq`.
    completed_seq: u32,
    started: SimTime,
}

/// Drives workflow chains to termination from a durable journal.
///
/// Owns the tail-call contract: the client hands the chain over once and
/// the orchestrator retries, resumes, and completes it regardless of
/// crashes on any side. The journal (with its workflow-id floor, so a
/// same-instant restart reuses no id whose steps may still be in flight)
/// and the completed watermark live on disk; everything else is rebuilt
/// on boot.
pub struct WorkflowOrchestrator {
    defs: Rc<DetHashMap<String, WorkflowDef>>,
    workers: Vec<ProcessId>,
    journal: ChainJournal<WfRecord>,
    /// Durable: every workflow with id below this is terminal.
    done_below: Rc<RefCell<u64>>,
    rpc: RpcClient,
    /// wf_id → seq currently in flight (volatile; the sweep re-drives).
    in_flight: DetHashMap<u64, u32>,
    /// wf_id → earliest re-drive time after a transient failure
    /// (volatile; see `TRANSIENT_COOLDOWN`).
    cooldown: DetHashMap<u64, SimTime>,
    /// Volatile wire-id disambiguator across re-drives.
    attempts: u64,
    is_restart: bool,
}

impl WorkflowOrchestrator {
    /// Process factory. `workers` execute steps (step `(wf, seq)` is
    /// pinned to `workers[(wf + seq) % len]` so its idempotence entry is
    /// always consulted); the journal and watermark survive crashes.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is empty.
    pub fn factory(
        defs: Vec<WorkflowDef>,
        workers: Vec<ProcessId>,
    ) -> impl FnMut(&mut Boot) -> Box<dyn Process> {
        assert!(!workers.is_empty(), "workflow runtime needs >= 1 worker");
        let def_map: DetHashMap<String, WorkflowDef> = defs
            .into_iter()
            .map(|def| (def.name.clone(), def))
            .collect();
        let defs = Rc::new(def_map);
        move |boot| {
            let journal = ChainJournal::open(boot.disk, "wf_journal", "wf_floor");
            let done_below: Rc<RefCell<u64>> = boot.disk.durable("wf_done_below");
            // Workflow ids start at 1, and so does the watermark.
            done_below.replace_with(|&mut below| below.max(1));
            // Retry token bucket and per-destination circuit breaker on
            // the orchestrator's client (PR 4).
            let rpc = RpcClient::new()
                .with_budget(RetryBudget::new(1.0, 100.0))
                .with_breaker(BreakerConfig::default());
            Box::new(WorkflowOrchestrator {
                defs: defs.clone(),
                workers: workers.clone(),
                journal,
                done_below,
                rpc,
                in_flight: DetHashMap::default(),
                cooldown: DetHashMap::default(),
                attempts: 0,
                is_restart: boot.restart,
            })
        }
    }

    /// Workflows not yet terminal (the "stranded" audit: must be 0 once
    /// the cluster heals and the grace period passes).
    pub fn open_workflows(&self) -> usize {
        self.journal.unfinished().len()
    }

    /// The completed watermark: every id below it is terminal.
    pub fn watermark(&self) -> u64 {
        *self.done_below.borrow()
    }

    /// `(wf_id, completed_seq, in_flight)` for every non-terminal
    /// workflow, sorted — torture audits print this on a stranding.
    pub fn open_workflow_states(&self) -> Vec<(u64, u32, bool)> {
        let entries = self.journal.entries();
        self.journal
            .unfinished()
            .into_iter()
            .map(|wf| {
                let seq = entries[&wf].record.completed_seq;
                (wf, seq, self.in_flight.contains_key(&wf))
            })
            .collect()
    }

    /// Order-insensitive digest of journal, cursors, floor, watermark,
    /// and in-flight set, for model-checker state fingerprints.
    pub fn state_digest(&self) -> u64 {
        let mut h = Fnv64::new();
        let mut mix = |v: u64| h = h.u64(v);
        mix(self.journal.floor());
        mix(*self.done_below.borrow());
        let mut entries: Vec<u64> = self
            .journal
            .entries()
            .iter()
            .map(|(&wf, entry)| {
                let verdict = entry.verdict.as_ref();
                let error = verdict
                    .and_then(|v| v.error.as_ref())
                    .map_or(0, |e| Fnv64::seeded(1).bytes(e.as_bytes()).finish());
                Fnv64::new()
                    .u64(wf)
                    .u64(entry.record.completed_seq as u64)
                    .u64(verdict.is_some() as u64)
                    .u64(verdict.is_some_and(|v| v.committed) as u64)
                    .u64(error)
                    .finish()
            })
            .collect();
        entries.sort_unstable();
        mix(entries.len() as u64);
        for e in entries {
            mix(e);
        }
        let mut flights: Vec<u64> = self
            .in_flight
            .iter()
            .map(|(&wf, &seq)| (wf << 32) | seq as u64)
            .collect();
        flights.sort_unstable();
        for f in flights {
            mix(f);
        }
        h.finish()
    }

    fn worker_for(&self, wf: u64, seq: u32) -> ProcessId {
        self.workers[(wf as usize + seq as usize) % self.workers.len()]
    }

    /// Send the continuation of `wf` to its worker (tail-call): a no-op
    /// when the workflow is terminal or a step call is already in flight.
    fn drive(&mut self, ctx: &mut Ctx, wf: u64) {
        if self.in_flight.contains_key(&wf) {
            return;
        }
        let (workflow, args, seq) = {
            let entries = self.journal.entries();
            let Some(entry) = entries.get(&wf).filter(|e| e.verdict.is_none()) else {
                return;
            };
            let rec = &entry.record;
            (rec.workflow.clone(), rec.args.clone(), rec.completed_seq)
        };
        let total_steps = match self.defs.get(&workflow) {
            Some(def) => def.steps.len(),
            None => {
                self.complete(ctx, wf, false, Some(format!("unknown workflow {workflow}")));
                return;
            }
        };
        if seq as usize >= total_steps {
            self.complete(ctx, wf, true, None);
            return;
        }
        self.attempts += 1;
        let worker = self.worker_for(wf, seq);
        // Deterministic wire id from the journaled step identity — no RNG
        // draw, and dedup-friendly across orchestrator incarnations.
        let wire = Fnv64::new()
            .u64(0x57f0)
            .u64(wf)
            .u64(seq as u64)
            .u64(self.attempts)
            .finish();
        self.rpc.call_with_id(
            ctx,
            worker,
            Payload::new(StepReq {
                workflow,
                wf_id: wf,
                seq,
                args,
            }),
            STEP_POLICY,
            wf,
            wire,
        );
        self.in_flight.insert(wf, seq);
        ctx.metrics().incr("workflow.step_calls", 1);
    }

    fn complete(&mut self, ctx: &mut Ctx, wf: u64, committed: bool, error: Option<String>) {
        let verdict = Verdict {
            committed,
            error: error.clone(),
        };
        let Some(((client, call_id), started)) = self
            .journal
            .finish(wf, verdict)
            .map(|entry| (entry.caller, entry.record.started))
        else {
            return;
        };
        self.in_flight.remove(&wf);
        let metric = if committed {
            "workflow.completed"
        } else {
            "workflow.failed"
        };
        ctx.metrics().incr(metric, 1);
        let latency = ctx.now().since(started);
        ctx.metrics().record("workflow.latency", latency);
        let outcome = WorkflowOutcome {
            wf_id: wf,
            committed,
            error,
        };
        reply_call(ctx, client, call_id, Payload::new(outcome));
        // Advance the completed watermark and let workers collect the
        // idempotence entries it covers.
        let old = *self.done_below.borrow();
        let mut below = old;
        while self.journal.is_finished(below) {
            below += 1;
        }
        if below > old {
            *self.done_below.borrow_mut() = below;
            self.gossip_watermark(ctx);
        }
    }

    /// Send the completed watermark to every worker.
    fn gossip_watermark(&self, ctx: &mut Ctx) {
        let below = *self.done_below.borrow();
        for &worker in &self.workers {
            ctx.send(worker, Payload::new(GcWatermark { below }));
        }
    }

    fn on_rpc_event(&mut self, ctx: &mut Ctx, event: RpcEvent) {
        match event {
            RpcEvent::Reply {
                user_tag: wf, body, ..
            } => {
                let Some(outcome) = body.downcast_ref::<StepOutcome>() else {
                    return;
                };
                let Some(&seq) = self.in_flight.get(&wf) else {
                    return;
                };
                if outcome.wf_id != wf || outcome.seq != seq {
                    return; // stale
                }
                self.in_flight.remove(&wf);
                if outcome.committed {
                    if let Some(mut rec) = self.journal.get_mut(wf) {
                        rec.completed_seq = rec.completed_seq.max(seq + 1);
                    }
                    // Tail-call the continuation immediately.
                    self.drive(ctx, wf);
                } else if outcome.transient {
                    // A lock-conflict abort means somebody's locks are
                    // still held — re-driving instantly spawns a sibling
                    // that collides with its dying predecessor and
                    // refuels the conflict (a deterministic livelock
                    // storm), so hold the workflow down first. Deadline
                    // aborts release their locks when the abort is
                    // decided; those re-drive on the next sweep tick.
                    let conflicted = outcome
                        .error
                        .as_deref()
                        .is_some_and(|e| e.contains("lock conflict"));
                    if conflicted {
                        self.cooldown.insert(wf, ctx.now() + TRANSIENT_COOLDOWN);
                    }
                    ctx.metrics().incr("workflow.step_retries", 1);
                } else {
                    self.complete(ctx, wf, false, outcome.error.clone());
                }
            }
            RpcEvent::Failed { user_tag: wf, .. } => {
                self.in_flight.remove(&wf);
                ctx.metrics().incr("workflow.step_call_failures", 1);
            }
        }
    }
}

impl Process for WorkflowOrchestrator {
    fn on_start(&mut self, ctx: &mut Ctx) {
        if self.is_restart {
            // Resume every unfinished chain from its journaled
            // continuation; workers answer re-driven completed steps from
            // their idempotence tables.
            for wf in self.journal.unfinished() {
                ctx.metrics().incr("workflow.replays", 1);
                self.drive(ctx, wf);
            }
            if *self.done_below.borrow() > 1 {
                self.gossip_watermark(ctx);
            }
        }
        ctx.set_timer(SWEEP_INTERVAL, ORCH_SWEEP_TAG);
    }

    fn on_message(&mut self, ctx: &mut Ctx, from: ProcessId, payload: Payload) {
        if let Some(event) = self.rpc.on_message(ctx, &payload) {
            self.on_rpc_event(ctx, event);
            return;
        }
        let Some(request) = payload.downcast_ref::<RpcRequest>() else {
            return;
        };
        let Some(start) = request.body.downcast_ref::<StartWorkflow>() else {
            return;
        };
        // A re-sent start must not fork a second instance.
        let caller = (from, request.call_id);
        if let Some((wf, verdict)) = self.journal.started(caller) {
            if let Some(Verdict { committed, error }) = verdict {
                reply_to(
                    ctx,
                    from,
                    request,
                    Payload::new(WorkflowOutcome {
                        wf_id: wf,
                        committed,
                        error,
                    }),
                );
            }
            return;
        }
        let record = WfRecord {
            workflow: start.workflow.clone(),
            args: start.args.clone(),
            completed_seq: 0,
            started: ctx.now(),
        };
        let wf = self.journal.start(caller, record);
        ctx.metrics().incr("workflow.started", 1);
        self.drive(ctx, wf);
    }

    fn on_timer(&mut self, ctx: &mut Ctx, tag: u64) {
        if let Some(event) = self.rpc.on_timer(ctx, tag) {
            if let Some(event) = event {
                self.on_rpc_event(ctx, event);
            }
            return;
        }
        if tag == ORCH_SWEEP_TAG {
            let now = ctx.now();
            self.cooldown.retain(|_, &mut until| until > now);
            let mut limbo = self.journal.unfinished();
            limbo.retain(|wf| !self.in_flight.contains_key(wf) && !self.cooldown.contains_key(wf));
            for wf in limbo {
                self.drive(ctx, wf);
            }
            // Re-gossip the completed watermark: the advancement-time
            // broadcast is fire-and-forget, so a lossy network could
            // otherwise leave a worker's idempotence table uncollected
            // forever. Idempotent at the receiver (watermarks are
            // monotone).
            if *self.done_below.borrow() > 1 {
                self.gossip_watermark(ctx);
            }
            ctx.set_timer(SWEEP_INTERVAL, ORCH_SWEEP_TAG);
        }
    }
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

/// A durable intent record: written *before* the downstream invocation so
/// a restarted worker knows exactly which steps may be half-done.
#[derive(Debug, Clone)]
struct IntentRec {
    workflow: String,
    args: Vec<Value>,
    caller: Option<(ProcessId, u64)>,
}

type IntentLog = Rc<RefCell<DetHashMap<(u64, u32), IntentRec>>>;

/// Executes workflow steps exactly once against the 2PC data tier.
///
/// Protocol per fresh step: durable intent → `StartDtx` whose first
/// branch is the `wf_guard` fence → on outcome, record the reply in the
/// durable idempotence table, clear the intent, answer the orchestrator.
/// Duplicates are answered from the table; a replayed intent whose
/// transaction already committed aborts on the fence (`wfdup:…`) and is
/// reported as `already_applied`. In naive mode (the baseline the E21
/// experiment measures) all three shields are off.
pub struct WorkflowWorker {
    config: WorkflowConfig,
    defs: Rc<DetHashMap<String, WorkflowDef>>,
    coordinator: ProcessId,
    participants: Vec<ProcessId>,
    map: ShardMap,
    idem: SharedIdempotence,
    intents: IntentLog,
    rpc: RpcClient,
    /// dtx call tag → step (volatile).
    pending: DetHashMap<u64, (u64, u32)>,
    /// Steps with a transaction currently in flight (volatile).
    executing: DetHashSet<(u64, u32)>,
    /// Latest caller per step (volatile; falls back to the intent's).
    callers: DetHashMap<(u64, u32), (ProcessId, u64)>,
    next_tag: u64,
    attempts: u64,
    is_restart: bool,
}

impl WorkflowWorker {
    /// Process factory. `participants[i]` fronts shard `i` of the ring
    /// over `participants.len()` shards (must match the deployment the
    /// orchestrator routes to). Idempotence table and intent log live on
    /// the worker's disk.
    ///
    /// # Panics
    ///
    /// Panics if `participants` is empty.
    pub fn factory(
        defs: Vec<WorkflowDef>,
        coordinator: ProcessId,
        participants: Vec<ProcessId>,
        config: WorkflowConfig,
    ) -> impl FnMut(&mut Boot) -> Box<dyn Process> {
        assert!(!participants.is_empty(), "workers need a data tier");
        let def_map: DetHashMap<String, WorkflowDef> = defs
            .into_iter()
            .map(|def| (def.name.clone(), def))
            .collect();
        let defs = Rc::new(def_map);
        let map = ShardMap::ring(participants.len());
        move |boot| {
            let idem: SharedIdempotence = boot.disk.durable("wf_idem");
            let intents: IntentLog = boot.disk.durable("wf_intents");
            Box::new(WorkflowWorker {
                config: config.clone(),
                defs: defs.clone(),
                coordinator,
                participants: participants.clone(),
                map: map.clone(),
                idem,
                intents,
                rpc: RpcClient::new(),
                pending: DetHashMap::default(),
                executing: DetHashSet::default(),
                callers: DetHashMap::default(),
                next_tag: 0,
                attempts: 0,
                is_restart: boot.restart,
            })
        }
    }

    /// Intent records not yet resolved (the crash-recovery audit: must be
    /// 0 once the cluster heals and every chain terminates).
    pub fn pending_intents(&self) -> usize {
        self.intents.borrow().len()
    }

    /// Live idempotence entries (drops to 0 as the watermark passes).
    pub fn idem_entries(&self) -> usize {
        self.idem.borrow().len()
    }

    /// The worker's idempotence GC watermark.
    pub fn watermark(&self) -> u64 {
        self.idem.borrow().watermark()
    }

    /// Order-insensitive digest of idempotence table, intent log, and
    /// in-flight set, for model-checker state fingerprints.
    pub fn state_digest(&self) -> u64 {
        let mut h = Fnv64::seeded(self.idem.borrow().digest());
        let mut mix = |v: u64| h = h.u64(v);
        let mut intents: Vec<u64> = self
            .intents
            .borrow()
            .keys()
            .map(|&(wf, seq)| (wf << 32) | seq as u64)
            .collect();
        intents.sort_unstable();
        mix(intents.len() as u64);
        for i in intents {
            mix(i);
        }
        let mut executing: Vec<u64> = self
            .executing
            .iter()
            .map(|&(wf, seq)| (wf << 32) | seq as u64)
            .collect();
        executing.sort_unstable();
        mix(executing.len() as u64);
        for e in executing {
            mix(e);
        }
        h.finish()
    }

    /// Answer step `(wf, seq)`'s latest caller: committed when `result`
    /// is `Ok`, else failed with its error, `transient` or terminal.
    fn reply_step(
        &mut self,
        ctx: &mut Ctx,
        (wf, seq): (u64, u32),
        result: Result<(), String>,
        already_applied: bool,
        transient: bool,
    ) {
        let outcome = StepOutcome {
            wf_id: wf,
            seq,
            committed: result.is_ok(),
            already_applied,
            transient,
            error: result.err(),
        };
        let caller = self.callers.remove(&(wf, seq)).or_else(|| {
            self.intents
                .borrow()
                .get(&(wf, seq))
                .and_then(|rec| rec.caller)
        });
        if let Some((pid, call_id)) = caller {
            ctx.send(
                pid,
                Payload::new(RpcReply {
                    call_id,
                    body: Payload::new(outcome),
                }),
            );
        }
    }

    fn handle_step(&mut self, ctx: &mut Ctx, from: ProcessId, call_id: u64, step: &StepReq) {
        let key = (step.wf_id, step.seq);
        if self.config.exactly_once {
            let check = self.idem.borrow().check(step.wf_id, step.seq);
            match check {
                IdemCheck::Duplicate(reply) => {
                    ctx.metrics().incr("workflow.steps_deduped", 1);
                    self.callers.insert(key, (from, call_id));
                    self.reply_step(ctx, key, reply.map(|_| ()), true, false);
                    return;
                }
                IdemCheck::BelowWatermark(watermark) => {
                    ctx.metrics().incr("workflow.below_watermark", 1);
                    self.callers.insert(key, (from, call_id));
                    let error = format!(
                        "duplicate step {}:{} below idempotence GC watermark {}: \
                         rejected, not re-executed",
                        step.wf_id, step.seq, watermark
                    );
                    self.reply_step(ctx, key, Err(error), false, false);
                    return;
                }
                IdemCheck::Fresh => {}
            }
            self.callers.insert(key, (from, call_id));
            let fresh_intent = {
                let mut intents = self.intents.borrow_mut();
                match intents.get_mut(&key) {
                    Some(rec) => {
                        // Concurrent duplicate: refresh the reply address,
                        // the in-flight transaction will answer.
                        rec.caller = Some((from, call_id));
                        false
                    }
                    None => {
                        intents.insert(
                            key,
                            IntentRec {
                                workflow: step.workflow.clone(),
                                args: step.args.clone(),
                                caller: Some((from, call_id)),
                            },
                        );
                        true
                    }
                }
            };
            if fresh_intent {
                ctx.metrics().incr("workflow.intent_writes", 1);
            } else if self.executing.contains(&key) {
                ctx.metrics().incr("workflow.steps_coalesced", 1);
                return;
            }
        } else {
            self.callers.insert(key, (from, call_id));
        }
        self.execute(ctx, step.wf_id, step.seq, &step.workflow, &step.args);
    }

    /// Fire the step's 2PC transaction (fence branch first in
    /// exactly-once mode, unfenced `wf_count` in naive mode).
    fn execute(&mut self, ctx: &mut Ctx, wf: u64, seq: u32, workflow: &str, args: &[Value]) {
        let key = (wf, seq);
        if self.executing.contains(&key) {
            return;
        }
        let step_def = self
            .defs
            .get(workflow)
            .and_then(|def| def.steps.get(seq as usize))
            .cloned();
        let Some(step_def) = step_def else {
            let error = format!("unknown step {workflow}[{seq}]");
            if self.config.exactly_once {
                self.idem.borrow_mut().record(wf, seq, Err(error.clone()));
                self.intents.borrow_mut().remove(&key);
            }
            self.reply_step(ctx, key, Err(error), false, false);
            return;
        };
        let marker = step_marker_key(wf, seq);
        let fence = if self.config.exactly_once {
            "wf_guard"
        } else {
            "wf_count"
        };
        let mut ops: Vec<ShardOp> = vec![(
            marker.clone(),
            fence.into(),
            vec![Value::Str(marker.clone())],
        )];
        ops.extend((step_def.ops)(args));
        let branches = route_branches(&self.map, &self.participants, &ops);
        self.next_tag += 1;
        self.attempts += 1;
        let tag = self.next_tag;
        self.pending.insert(tag, key);
        self.executing.insert(key);
        let wire = Fnv64::new()
            .u64(0x57f1)
            .u64(ctx.me().0 as u64)
            .u64(wf)
            .u64(seq as u64)
            .u64(self.attempts)
            .finish();
        self.rpc.call_with_id(
            ctx,
            self.coordinator,
            Payload::new(StartDtx { branches }),
            DTX_POLICY,
            tag,
            wire,
        );
        ctx.metrics().incr("workflow.dtx_calls", 1);
    }

    fn finish_step(&mut self, ctx: &mut Ctx, wf: u64, seq: u32, reply: StepReply, found: bool) {
        if self.config.exactly_once {
            self.idem.borrow_mut().record(wf, seq, reply.clone());
            ctx.metrics().incr("workflow.idem_writes", 1);
            self.intents.borrow_mut().remove(&(wf, seq));
        }
        if reply.is_ok() {
            ctx.metrics().incr("workflow.steps_applied", 1);
        }
        let found = found && reply.is_ok();
        self.reply_step(ctx, (wf, seq), reply.map(|_| ()), found, false);
    }

    fn on_dtx_event(&mut self, ctx: &mut Ctx, event: RpcEvent) {
        match event {
            RpcEvent::Reply {
                user_tag: tag,
                body,
                ..
            } => {
                let Some(&(wf, seq)) = self.pending.get(&tag) else {
                    return;
                };
                self.pending.remove(&tag);
                self.executing.remove(&(wf, seq));
                let Some(outcome) = body.downcast_ref::<DtxOutcome>() else {
                    return;
                };
                if outcome.committed {
                    self.finish_step(ctx, wf, seq, Ok(vec![]), false);
                    return;
                }
                let error = outcome.error.clone().unwrap_or_else(|| "aborted".into());
                if error.starts_with("wfdup:") {
                    // The fence proves a previous attempt (possibly from a
                    // crashed incarnation) already committed this step.
                    ctx.metrics().incr("workflow.guard_recoveries", 1);
                    self.finish_step(ctx, wf, seq, Ok(vec![]), true);
                } else if is_permanent(&error) {
                    self.finish_step(ctx, wf, seq, Err(error), false);
                } else {
                    ctx.metrics().incr("workflow.step_transient_aborts", 1);
                    self.reply_step(ctx, (wf, seq), Err(error), false, true);
                }
            }
            RpcEvent::Failed { user_tag: tag, .. } => {
                let Some(&(wf, seq)) = self.pending.get(&tag) else {
                    return;
                };
                self.pending.remove(&tag);
                self.executing.remove(&(wf, seq));
                ctx.metrics().incr("workflow.dtx_call_failures", 1);
                let error = "coordinator unreachable".to_owned();
                self.reply_step(ctx, (wf, seq), Err(error), false, true);
            }
        }
    }
}

impl Process for WorkflowWorker {
    fn on_start(&mut self, ctx: &mut Ctx) {
        if !self.is_restart {
            return;
        }
        // Crash recovery: every durable intent is a step that may be
        // half-done — re-drive it. Committed ones abort on the fence and
        // resolve as already-applied; unstarted ones simply run.
        let mut replay: Vec<((u64, u32), IntentRec)> = self
            .intents
            .borrow()
            .iter()
            .map(|(&key, rec)| (key, rec.clone()))
            .collect();
        replay.sort_unstable_by_key(|(key, _)| *key);
        for ((wf, seq), rec) in replay {
            ctx.metrics().incr("workflow.replays", 1);
            if let Some(caller) = rec.caller {
                self.callers.insert((wf, seq), caller);
            }
            self.execute(ctx, wf, seq, &rec.workflow, &rec.args);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx, from: ProcessId, payload: Payload) {
        if let Some(event) = self.rpc.on_message(ctx, &payload) {
            self.on_dtx_event(ctx, event);
            return;
        }
        if let Some(gc) = payload.downcast_ref::<GcWatermark>() {
            let removed = self.idem.borrow_mut().gc_below(gc.below);
            if removed > 0 {
                ctx.metrics().incr("workflow.idem_gc", removed as u64);
            }
            self.intents
                .borrow_mut()
                .retain(|&(wf, _), _| wf >= gc.below);
            return;
        }
        let Some(request) = payload.downcast_ref::<RpcRequest>() else {
            return;
        };
        let Some(step) = request.body.downcast_ref::<StepReq>() else {
            return;
        };
        let step = step.clone();
        self.handle_step(ctx, from, request.call_id, &step);
    }

    fn on_timer(&mut self, ctx: &mut Ctx, tag: u64) {
        if let Some(Some(event)) = self.rpc.on_timer(ctx, tag) {
            self.on_dtx_event(ctx, event);
        }
    }
}

// ---------------------------------------------------------------------------
// Deployment
// ---------------------------------------------------------------------------

/// Everything [`deploy_workflow`] spawned.
pub struct WorkflowDeployment {
    /// The tail-call orchestrator (send [`StartWorkflow`] here).
    pub orchestrator: ProcessId,
    /// Step executors.
    pub workers: Vec<ProcessId>,
    /// The 2PC coordinator fronting the data tier.
    pub coordinator: ProcessId,
    /// One participant per storage shard (ring order).
    pub participants: Vec<ProcessId>,
    /// The placement map shared by workers and audits.
    pub map: ShardMap,
}

/// Spawn a full workflow stack: a sharded 2PC data tier (`registry` plus
/// the fence procedures, seeded with `seeds` routed by ring ownership),
/// a coordinator, one [`WorkflowWorker`] per worker node, and the
/// [`WorkflowOrchestrator`].
///
/// # Panics
///
/// Panics if `worker_nodes` or `shard_nodes` is empty.
#[allow(clippy::too_many_arguments)]
pub fn deploy_workflow(
    sim: &mut Sim,
    orch_node: NodeId,
    worker_nodes: &[NodeId],
    coord_node: NodeId,
    shard_nodes: &[NodeId],
    registry: &ProcRegistry,
    seeds: &[(String, Value)],
    defs: &[WorkflowDef],
    config: WorkflowConfig,
) -> WorkflowDeployment {
    assert!(!worker_nodes.is_empty(), "need at least one worker node");
    assert!(!shard_nodes.is_empty(), "need at least one shard node");
    let map = ShardMap::ring(shard_nodes.len());
    let registry = with_workflow_markers(registry.clone());
    let participants: Vec<ProcessId> = shard_nodes
        .iter()
        .enumerate()
        .map(|(i, &node)| {
            let shard_seeds: Pairs = seeds
                .iter()
                .filter(|(key, _)| map.owner(key) == i)
                .map(|(key, value)| (key, value.clone()))
                .collect();
            sim.spawn(
                node,
                format!("wf-shard{i}"),
                TwoPcParticipant::factory_seeded(
                    format!("wfp{i}"),
                    ParticipantConfig::default(),
                    registry.clone(),
                    shard_seeds,
                ),
            )
        })
        .collect();
    let coordinator = sim.spawn(coord_node, "wf-coordinator", TwoPcCoordinator::factory());
    let workers: Vec<ProcessId> = worker_nodes
        .iter()
        .enumerate()
        .map(|(i, &node)| {
            sim.spawn(
                node,
                format!("wf-worker{i}"),
                WorkflowWorker::factory(
                    defs.to_vec(),
                    coordinator,
                    participants.clone(),
                    config.clone(),
                ),
            )
        })
        .collect();
    let orchestrator = sim.spawn(
        orch_node,
        "wf-orchestrator",
        WorkflowOrchestrator::factory(defs.to_vec(), workers.clone()),
    );
    WorkflowDeployment {
        orchestrator,
        workers,
        coordinator,
        participants,
        map,
    }
}

/// Peek a key's integer value wherever the ring places it (audit helper:
/// exactly-once checks read marker keys and balances through this).
pub fn peek_sharded(
    sim: &Sim,
    participants: &[ProcessId],
    map: &ShardMap,
    key: &str,
) -> Option<i64> {
    let owner = participants[map.owner(key)];
    sim.inspect::<TwoPcParticipant>(owner)
        .and_then(|p| p.engine().peek(key))
        .map(|v| v.as_int())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tca_messaging::rpc::RpcRequest;
    use tca_sim::{Sim, SimTime};

    fn seeds(accounts: i64, balance: i64) -> Vec<(String, Value)> {
        (0..accounts)
            .map(|i| (format!("acct{i}"), Value::Int(balance)))
            .collect()
    }

    fn start(i: u64, base: i64, amount: i64) -> Payload {
        Payload::new(RpcRequest::new(
            i,
            Payload::new(StartWorkflow {
                workflow: "chain".into(),
                args: vec![Value::Int(base), Value::Int(amount)],
            }),
        ))
    }

    fn build(workers: usize, config: WorkflowConfig) -> (Sim, WorkflowDeployment) {
        let mut sim = Sim::with_seed(11);
        let n_orch = sim.add_node();
        let worker_nodes: Vec<_> = (0..workers).map(|_| sim.add_node()).collect();
        let n_coord = sim.add_node();
        let shard_nodes: Vec<_> = (0..3).map(|_| sim.add_node()).collect();
        let deploy = deploy_workflow(
            &mut sim,
            n_orch,
            &worker_nodes,
            n_coord,
            &shard_nodes,
            &crate::worlds::bank_registry(),
            &seeds(8, 100),
            &[transfer_chain_def("chain", 3)],
            config,
        );
        (sim, deploy)
    }

    #[test]
    fn chains_complete_exactly_once_on_the_happy_path() {
        let (mut sim, deploy) = build(2, WorkflowConfig::default());
        sim.inject(deploy.orchestrator, start(1, 0, 10));
        sim.inject(deploy.orchestrator, start(2, 3, 10));
        sim.run_for(SimDuration::from_millis(400));
        assert_eq!(sim.metrics().counter("workflow.completed"), 2);
        assert_eq!(sim.metrics().counter("workflow.failed"), 0);
        // Each marker applied exactly once.
        for wf in 1..=2u64 {
            for seq in 0..3u32 {
                let marker = peek_sharded(
                    &sim,
                    &deploy.participants,
                    &deploy.map,
                    &step_marker_key(wf, seq),
                );
                assert_eq!(marker, Some(1), "marker {wf}:{seq}");
            }
        }
        // Conservation: chains move money along accounts, never create it.
        let total: i64 = (0..8)
            .map(|i| {
                peek_sharded(&sim, &deploy.participants, &deploy.map, &format!("acct{i}"))
                    .unwrap_or(100)
            })
            .sum();
        assert_eq!(total, 800);
        // The completed watermark passed both workflows, so every
        // idempotence entry is collected.
        let orch = sim
            .inspect::<WorkflowOrchestrator>(deploy.orchestrator)
            .unwrap();
        assert_eq!(orch.watermark(), 3);
        assert_eq!(orch.open_workflows(), 0);
        for &worker in &deploy.workers {
            let w = sim.inspect::<WorkflowWorker>(worker).unwrap();
            assert_eq!(w.idem_entries(), 0, "watermark GC collects entries");
            assert_eq!(w.pending_intents(), 0);
        }
    }

    #[test]
    fn business_failure_terminates_the_chain_without_leaking() {
        // Base account 5 holds 100; a 70-unit chain drains it at hop 2
        // (acct7 = seed 100, but acct5 loses 70 then acct6 pays 70 on —
        // the third hop debits acct7 which still has 100+0: use a larger
        // amount so hop 1 already fails).
        let (mut sim, deploy) = build(1, WorkflowConfig::default());
        sim.inject(deploy.orchestrator, start(1, 5, 150));
        sim.run_for(SimDuration::from_millis(400));
        assert_eq!(sim.metrics().counter("workflow.completed"), 0);
        assert_eq!(sim.metrics().counter("workflow.failed"), 1);
        let orch = sim
            .inspect::<WorkflowOrchestrator>(deploy.orchestrator)
            .unwrap();
        assert_eq!(orch.open_workflows(), 0, "failed chain is terminal");
        // The failing step aborted atomically: no account moved.
        for i in 0..8 {
            let balance =
                peek_sharded(&sim, &deploy.participants, &deploy.map, &format!("acct{i}"));
            assert_eq!(balance, Some(100), "acct{i} untouched");
        }
    }

    #[test]
    fn worker_crash_mid_chain_replays_without_double_apply() {
        let (mut sim, deploy) = build(1, WorkflowConfig::default());
        let worker_node = sim.node_of(deploy.workers[0]);
        sim.inject(deploy.orchestrator, start(1, 0, 10));
        // Crash the worker early enough to catch the chain mid-flight,
        // restart shortly after.
        sim.schedule_crash(SimTime::from_nanos(2_500_000), worker_node);
        sim.schedule_restart(SimTime::from_nanos(12_000_000), worker_node);
        sim.run_for(SimDuration::from_millis(600));
        assert_eq!(sim.metrics().counter("workflow.completed"), 1);
        for seq in 0..3u32 {
            let marker = peek_sharded(
                &sim,
                &deploy.participants,
                &deploy.map,
                &step_marker_key(1, seq),
            );
            assert_eq!(marker, Some(1), "marker 1:{seq} exactly once");
        }
        let total: i64 = (0..8)
            .map(|i| {
                peek_sharded(&sim, &deploy.participants, &deploy.map, &format!("acct{i}"))
                    .unwrap_or(100)
            })
            .sum();
        assert_eq!(total, 800, "conservation across the crash");
    }

    #[test]
    fn orchestrator_crash_resumes_the_chain_from_the_journal() {
        let (mut sim, deploy) = build(2, WorkflowConfig::default());
        let orch_node = sim.node_of(deploy.orchestrator);
        sim.inject(deploy.orchestrator, start(1, 0, 10));
        sim.schedule_crash(SimTime::from_nanos(3_000_000), orch_node);
        sim.schedule_restart(SimTime::from_nanos(15_000_000), orch_node);
        sim.run_for(SimDuration::from_millis(600));
        assert_eq!(sim.metrics().counter("workflow.completed"), 1);
        assert!(
            sim.metrics().counter("workflow.replays") >= 1,
            "restart must re-drive from the journal"
        );
        for seq in 0..3u32 {
            let marker = peek_sharded(
                &sim,
                &deploy.participants,
                &deploy.map,
                &step_marker_key(1, seq),
            );
            assert_eq!(marker, Some(1), "marker 1:{seq} exactly once");
        }
    }

    /// A probe that fires one crafted duplicate [`StepReq`] for an
    /// already-collected workflow and records the rejection.
    struct LateDuplicateProbe {
        worker: ProcessId,
        rpc: RpcClient,
    }
    impl Process for LateDuplicateProbe {
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.set_timer(SimDuration::from_millis(300), 1);
        }
        fn on_message(&mut self, ctx: &mut Ctx, _from: ProcessId, payload: Payload) {
            if let Some(RpcEvent::Reply { body, .. }) = self.rpc.on_message(ctx, &payload) {
                let outcome = body.expect::<StepOutcome>();
                assert!(!outcome.committed);
                let error = outcome.error.as_deref().unwrap_or("");
                assert!(
                    error.contains("below idempotence GC watermark"),
                    "late duplicate must be rejected with a clear error, got: {error}"
                );
                ctx.metrics().incr("probe.rejected", 1);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx, tag: u64) {
            if self.rpc.on_timer(ctx, tag).is_some() {
                return;
            }
            self.rpc.call_with_id(
                ctx,
                self.worker,
                Payload::new(StepReq {
                    workflow: "chain".into(),
                    wf_id: 1,
                    seq: 0,
                    args: vec![Value::Int(0), Value::Int(10)],
                }),
                RetryPolicy::at_most_once(SimDuration::from_millis(50)),
                0,
                0x1a7e_d0b1,
            );
        }
    }

    #[test]
    fn post_gc_duplicate_step_is_rejected_not_reexecuted() {
        // Pinned GC semantics end to end: run workflow 1 to completion
        // (watermark passes it, entries collected), then replay its first
        // step. The worker must reject — never re-execute — and say why.
        let (mut sim, deploy) = build(1, WorkflowConfig::default());
        let probe_node = sim.add_node();
        let worker = deploy.workers[0];
        sim.spawn(probe_node, "late-dup-probe", move |_| {
            Box::new(LateDuplicateProbe {
                worker,
                rpc: RpcClient::new(),
            })
        });
        sim.inject(deploy.orchestrator, start(1, 0, 10));
        sim.run_for(SimDuration::from_millis(500));
        assert_eq!(sim.metrics().counter("workflow.completed"), 1);
        assert_eq!(
            sim.metrics().counter("probe.rejected"),
            1,
            "the post-GC duplicate must be answered with a rejection"
        );
        assert_eq!(sim.metrics().counter("workflow.below_watermark"), 1);
        // And crucially it was NOT re-applied: the marker still reads 1.
        assert_eq!(
            peek_sharded(
                &sim,
                &deploy.participants,
                &deploy.map,
                &step_marker_key(1, 0)
            ),
            Some(1)
        );
    }

    #[test]
    fn naive_mode_skips_every_shield() {
        let (mut sim, deploy) = build(
            1,
            WorkflowConfig {
                exactly_once: false,
            },
        );
        sim.inject(deploy.orchestrator, start(1, 0, 10));
        sim.run_for(SimDuration::from_millis(400));
        assert_eq!(sim.metrics().counter("workflow.completed"), 1);
        assert_eq!(sim.metrics().counter("workflow.intent_writes"), 0);
        assert_eq!(sim.metrics().counter("workflow.idem_writes"), 0);
        let w = sim.inspect::<WorkflowWorker>(deploy.workers[0]).unwrap();
        assert_eq!(w.idem_entries(), 0);
        assert_eq!(w.pending_intents(), 0);
    }
}
