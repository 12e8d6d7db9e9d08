//! Stateful functions & durable orchestrations (§3.1 "Cloud Functions",
//! §4.2 "Cloud Functions"; Azure Durable Functions / Flink Statefun
//! analogue).
//!
//! An **orchestration** is a deterministic function that is *re-executed
//! from scratch* on every event, reading the results of completed actions
//! from its event-sourced history and suspending at the first action not
//! yet in the history — the Durable Functions replay model \[15\]. History
//! appends are atomic with action effects (the crash model only permits
//! crashes between handlers), which yields exactly-once action semantics
//! and therefore atomic function composition.
//!
//! **Entities** are keyed state objects whose individual operations are
//! atomic and exactly-once (cross-shard ops are deduplicated by
//! `(instance, seq)`), but — exactly as the paper notes — there is **no
//! transactional isolation across entities** unless the orchestration
//! explicitly acquires locks ([`OrchestrationCtx::acquire_locks`], the
//! critical-section API). Locks are acquired in sorted entity order to
//! avoid deadlock, as in Durable Functions.
//!
//! **Durable state is held once.** A shard's journal, a durable handle on
//! its disk, is the only copy of what survives a crash: each instance's
//! orchestrator, input, history and result, each entity's state and lock
//! holder, and the `(instance, seq)` op-dedup table. Handlers change its
//! records in place. Side tables hold only what dies with the process —
//! an instance's waiting caller and lock acquisition, an entity's waiting
//! requests — and are keyed in the journal's order at boot, because the
//! loops over them decide send order. A lock granted before the entity's
//! shard restarted is checked with its holder's shard, since a release
//! sent while that shard was down is lost.

use std::any::Any;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;
use tca_sim::DetHashMap as HashMap;

use tca_messaging::rpc::{reply_call, reply_to, RpcRequest};
use tca_sim::{key_shard, Boot, Ctx, Payload, Process, ProcessId};
use tca_storage::Value;

/// A keyed entity identity.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EntityId {
    /// Entity type (selects the op handler).
    pub type_name: String,
    /// Instance key.
    pub key: String,
}

impl EntityId {
    /// Convenience constructor.
    pub fn new(type_name: &str, key: impl Into<String>) -> Self {
        EntityId {
            type_name: type_name.to_owned(),
            key: key.into(),
        }
    }
}

impl fmt::Display for EntityId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.type_name, self.key)
    }
}

/// What an activity, an entity op or a whole orchestration returns.
pub(crate) type Outcome = Result<Vec<Value>, String>;

/// One recorded step of an orchestration's history.
#[derive(Debug, Clone)]
pub enum HistoryEvent {
    /// An activity completed.
    Activity {
        /// Action sequence number.
        seq: u64,
        /// Its result.
        result: Outcome,
    },
    /// An entity operation completed.
    EntityOp {
        /// Action sequence number.
        seq: u64,
        /// Its result.
        result: Outcome,
    },
    /// A lock set was fully acquired.
    Locks {
        /// Action sequence number.
        seq: u64,
    },
}

/// Action the orchestrator wants performed next (first un-replayed step).
#[derive(Debug, Clone)]
enum PendingAction {
    Activity {
        name: String,
        args: Vec<Value>,
    },
    EntityOp {
        entity: EntityId,
        op: String,
        args: Vec<Value>,
    },
    AcquireLocks {
        entities: Vec<EntityId>,
    },
}

/// Replay-context handed to orchestrator functions.
///
/// All three `call_*` methods return `None` when the action's result is
/// not yet in the history — the orchestrator must then return `None`
/// itself ("suspend"), which the `?` operator does naturally.
pub struct OrchestrationCtx<'a> {
    input: &'a [Value],
    history: &'a [HistoryEvent],
    cursor: usize,
    pending: Option<PendingAction>,
}

impl<'a> OrchestrationCtx<'a> {
    /// The orchestration's input arguments.
    pub fn input(&self) -> &[Value] {
        self.input
    }

    /// Call an activity (a registered local function).
    pub fn call_activity(&mut self, name: &str, args: Vec<Value>) -> Option<Outcome> {
        if self.pending.is_some() {
            return None;
        }
        if let Some(HistoryEvent::Activity { result, .. }) = self.history.get(self.cursor) {
            self.cursor += 1;
            return Some(result.clone());
        }
        self.pending = Some(PendingAction::Activity {
            name: name.to_owned(),
            args,
        });
        None
    }

    /// Invoke an operation on an entity (exactly-once, atomic per op).
    pub fn call_entity(&mut self, entity: EntityId, op: &str, args: Vec<Value>) -> Option<Outcome> {
        if self.pending.is_some() {
            return None;
        }
        if let Some(HistoryEvent::EntityOp { result, .. }) = self.history.get(self.cursor) {
            self.cursor += 1;
            return Some(result.clone());
        }
        self.pending = Some(PendingAction::EntityOp {
            entity,
            op: op.to_owned(),
            args,
        });
        None
    }

    /// Enter a critical section over `entities` (sorted internally to
    /// avoid deadlock). Locks release automatically when the
    /// orchestration completes.
    pub fn acquire_locks(&mut self, mut entities: Vec<EntityId>) -> Option<()> {
        if self.pending.is_some() {
            return None;
        }
        if let Some(HistoryEvent::Locks { .. }) = self.history.get(self.cursor) {
            self.cursor += 1;
            return Some(());
        }
        entities.sort();
        entities.dedup();
        self.pending = Some(PendingAction::AcquireLocks { entities });
        None
    }
}

/// An orchestrator function: deterministic, replayed on every event.
/// Returns `None` while suspended, `Some(result)` when complete.
pub type OrchestratorFn = Rc<dyn Fn(&mut OrchestrationCtx) -> Option<Outcome>>;

/// An activity: a plain (possibly side-effect-free) local function.
pub type ActivityFn = Rc<dyn Fn(&[Value]) -> Outcome>;

/// An entity op handler for one entity type: `(state, op, args) → result`.
pub type EntityOpFn = Rc<dyn Fn(&mut Value, &str, &[Value]) -> Outcome>;

/// Initialiser producing the starting state for a fresh entity key.
pub type EntityInitFn = Rc<dyn Fn(&str) -> Value>;

/// Application registration: orchestrators, activities, entity types.
#[derive(Clone, Default)]
pub struct StatefunApp {
    orchestrators: HashMap<String, OrchestratorFn>,
    activities: HashMap<String, ActivityFn>,
    entity_types: HashMap<String, (EntityOpFn, EntityInitFn)>,
}

impl StatefunApp {
    /// Empty app.
    pub fn new() -> Self {
        StatefunApp::default()
    }

    /// Register an orchestrator.
    pub fn orchestrator(
        mut self,
        name: &str,
        f: impl Fn(&mut OrchestrationCtx) -> Option<Outcome> + 'static,
    ) -> Self {
        self.orchestrators.insert(name.to_owned(), Rc::new(f));
        self
    }

    /// Register an activity.
    pub fn activity(mut self, name: &str, f: impl Fn(&[Value]) -> Outcome + 'static) -> Self {
        self.activities.insert(name.to_owned(), Rc::new(f));
        self
    }

    /// Register an entity type with its op handler and initial state.
    pub fn entity(
        mut self,
        type_name: &str,
        ops: impl Fn(&mut Value, &str, &[Value]) -> Outcome + 'static,
        initial: impl Fn(&str) -> Value + 'static,
    ) -> Self {
        self.entity_types
            .insert(type_name.to_owned(), (Rc::new(ops), Rc::new(initial)));
        self
    }
}

// ---------------------------------------------------------------------------
// Wire messages
// ---------------------------------------------------------------------------

/// Start an orchestration (inside an [`RpcRequest`]); reply is an
/// [`OrchestrationResult`] when it completes.
#[derive(Debug, Clone)]
pub struct StartOrchestration {
    /// Registered orchestrator name.
    pub name: String,
    /// Unique instance key (also the idempotency key for starts).
    pub instance: String,
    /// Input arguments.
    pub input: Vec<Value>,
}

impl StartOrchestration {
    /// Where a client sends this start — the shard of `shards` (as
    /// returned by [`spawn_shards`]) that owns the instance key — and the
    /// request body to send there.
    pub fn route(self, shards: &[ProcessId]) -> (ProcessId, Payload) {
        let shard = shards[key_shard(&self.instance, shards.len())];
        (shard, Payload::new(self))
    }
}

/// Orchestration completion (inside an `RpcReply`).
#[derive(Debug, Clone)]
pub struct OrchestrationResult {
    /// Instance key.
    pub instance: String,
    /// The orchestrator's final result.
    pub result: Outcome,
}

/// Cross-shard entity operation request.
#[derive(Debug, Clone)]
struct EntityOpReq {
    instance: String,
    seq: u64,
    entity: EntityId,
    op: String,
    args: Vec<Value>,
}

/// Cross-shard entity operation response.
#[derive(Debug, Clone)]
struct EntityOpResp {
    instance: String,
    seq: u64,
    result: Outcome,
}

/// Cross-shard lock request (one entity at a time, sorted order).
#[derive(Debug, Clone)]
struct LockReq {
    instance: String,
    seq: u64,
    entity: EntityId,
}

/// Lock granted notification.
#[derive(Debug, Clone)]
struct LockGranted {
    instance: String,
    seq: u64,
    entity: EntityId,
}

/// Release all locks `instance` holds on this shard's entities.
#[derive(Debug, Clone)]
struct ReleaseLocks {
    instance: String,
}

/// To the shard running `instance`: does it still hold its lock on
/// `entity`? Sent by the entity's shard for a lock granted before that
/// shard restarted, when a request waits behind it.
#[derive(Debug, Clone)]
struct LockCheck {
    instance: String,
    entity: EntityId,
}

/// The answer to a [`LockCheck`] when `instance` does not hold the lock.
#[derive(Debug, Clone)]
struct StaleLock {
    instance: String,
    entity: EntityId,
}

// ---------------------------------------------------------------------------
// Shard
// ---------------------------------------------------------------------------

/// One orchestration as the journal holds it. It is finished once
/// `result` is set.
struct JournaledInstance {
    name: String,
    input: Vec<Value>,
    history: Vec<HistoryEvent>,
    result: Option<Outcome>,
}

impl JournaledInstance {
    /// Whether it has acquired its locks.
    fn locked(&self) -> bool {
        self.history
            .iter()
            .any(|e| matches!(e, HistoryEvent::Locks { .. }))
    }
}

/// The shard's durable journal, changed in place by the handlers.
#[derive(Default)]
struct Journal {
    instances: HashMap<String, JournaledInstance>,
    /// Entity states; an entity enters when its first op applies.
    entities: HashMap<EntityId, Value>,
    /// (instance, seq) → result, for cross-shard exactly-once.
    op_dedup: HashMap<(String, u64), Outcome>,
    /// entity → the instance holding its lock.
    locks: HashMap<EntityId, String>,
}

/// What an instance keeps in memory only; a crash forgets it.
#[derive(Default)]
struct InstanceSide {
    /// The client awaiting the result; a retried start re-attaches it.
    caller: Option<(ProcessId, u64)>,
    /// Set while the instance acquires its locks.
    acquiring: bool,
    /// Remaining entities to lock (front = next) while acquiring.
    lock_queue: VecDeque<EntityId>,
}

/// What an entity keeps in memory only; a crash forgets it.
#[derive(Default)]
struct EntitySide {
    /// Ops (and lock requests) waiting for the lock to free up.
    waiting: VecDeque<Waiting>,
    /// Its lock was granted before this process started. The holder may
    /// have finished, or restarted its acquisition, while this shard was
    /// down and its release was lost, so the lock is checked with the
    /// holder's shard at start and whenever a request waits behind it.
    inherited: bool,
}

enum Waiting {
    Op {
        from_shard: ProcessId,
        req: EntityOpReq,
    },
    Lock {
        from_shard: ProcessId,
        req: LockReq,
    },
}

impl Waiting {
    /// The entity, and what makes two requests the same: an op's
    /// (instance, seq), a lock request's instance.
    fn key(&self) -> (&EntityId, &str, Option<u64>) {
        match self {
            Waiting::Op { req, .. } => (&req.entity, &req.instance, Some(req.seq)),
            Waiting::Lock { req, .. } => (&req.entity, &req.instance, None),
        }
    }
}

/// One statefun runtime shard.
pub struct StatefunShard {
    app: Rc<StatefunApp>,
    /// All shard process ids in shard order, self included; late-bound,
    /// filled in by [`spawn_shards`] once every shard exists.
    shards: Rc<RefCell<Vec<ProcessId>>>,
    journal: Rc<RefCell<Journal>>,
    /// One entry per journaled instance, finished ones included. Loops
    /// over instances iterate this table: its key sequence is part of
    /// the schedule.
    instances: HashMap<String, InstanceSide>,
    /// One entry per entity this process has locked or run an op on.
    entities: HashMap<EntityId, EntitySide>,
}

impl StatefunShard {
    /// Process factory. The shard's journal (histories, entity states and
    /// lock holders, dedup table) lives in its disk and survives crashes.
    pub fn factory(
        app: StatefunApp,
        shards: Rc<RefCell<Vec<ProcessId>>>,
    ) -> impl FnMut(&mut Boot) -> Box<dyn Process> {
        let app = Rc::new(app);
        move |boot| {
            let journal: Rc<RefCell<Journal>> = boot.disk.durable("journal");
            // One insert per journal key, in the journal's order: a side
            // table's layout is the order the loops over it send in
            // (DESIGN.md "Two ordering hazards").
            let mut instances = HashMap::default();
            let mut entities = HashMap::default();
            for key in journal.borrow().instances.keys() {
                instances.insert(key.clone(), InstanceSide::default());
            }
            for id in journal.borrow().entities.keys() {
                entities.insert(id.clone(), EntitySide::default());
            }
            for id in journal.borrow().locks.keys() {
                entities.entry(id.clone()).or_default().inherited = true;
            }
            Box::new(StatefunShard {
                app: Rc::clone(&app),
                shards: Rc::clone(&shards),
                journal,
                instances,
                entities,
            })
        }
    }

    fn shard_of(&self, key: &str) -> ProcessId {
        let shards = self.shards.borrow();
        shards[key_shard(key, shards.len())]
    }

    /// Hand `msg` to `handle` when `to` is this shard; send it otherwise.
    fn send_or_run<M: Any>(
        &mut self,
        ctx: &mut Ctx,
        to: ProcessId,
        msg: M,
        handle: fn(&mut Self, &mut Ctx, ProcessId, M),
    ) {
        if to == ctx.me() {
            handle(self, ctx, to, msg);
        } else {
            ctx.send(to, Payload::new(msg));
        }
    }

    /// Replay the orchestrator against its history, executing actions as
    /// they surface, until the instance suspends on a remote op or
    /// completes.
    fn drive(&mut self, ctx: &mut Ctx, key: &str) {
        loop {
            let (outcome, pending, seq) = {
                let journal = self.journal.borrow();
                let Some(record) = journal.instances.get(key) else {
                    return;
                };
                if record.result.is_some() || self.instances[key].acquiring {
                    return;
                }
                let Some(orchestrator) = self.app.orchestrators.get(&record.name) else {
                    let unknown = Err(format!("unknown orchestrator `{}`", record.name));
                    drop(journal);
                    self.finish(ctx, key, unknown);
                    return;
                };
                let mut octx = OrchestrationCtx {
                    input: &record.input,
                    history: &record.history,
                    cursor: 0,
                    pending: None,
                };
                let outcome = orchestrator(&mut octx);
                (outcome, octx.pending, record.history.len() as u64)
            };
            let action = match (outcome, pending) {
                (Some(result), _) => {
                    self.finish(ctx, key, result);
                    return;
                }
                (None, Some(action)) => action,
                // Suspended without an action: waiting on an in-flight
                // cross-shard op; nothing to do.
                (None, None) => return,
            };
            match action {
                PendingAction::Activity { name, args } => {
                    let result = match self.app.activities.get(&name) {
                        Some(f) => f(&args),
                        None => Err(format!("unknown activity `{name}`")),
                    };
                    ctx.metrics().incr("statefun.activities", 1);
                    self.push_history(key, HistoryEvent::Activity { seq, result });
                    // Loop: replay again with the longer history.
                }
                PendingAction::EntityOp { entity, op, args } => {
                    let target = self.shard_of(&entity.to_string());
                    let req = EntityOpReq {
                        instance: key.to_owned(),
                        seq,
                        entity,
                        op,
                        args,
                    };
                    self.send_or_run(ctx, target, req, Self::apply_entity_op);
                    return; // suspended until the response event
                }
                PendingAction::AcquireLocks { entities } => {
                    let side = self.instances.get_mut(key).expect("instance");
                    side.acquiring = true;
                    side.lock_queue = entities.into();
                    // A resumed instance may still hold locks from before
                    // its crash; release everything first (idempotent) so
                    // the sorted acquisition order is re-established from
                    // scratch — otherwise it can deadlock the ring.
                    self.release_everywhere(ctx, key);
                    self.pump_locks(ctx, key, seq);
                    return;
                }
            }
        }
    }

    fn push_history(&self, key: &str, event: HistoryEvent) {
        let mut journal = self.journal.borrow_mut();
        let record = journal.instances.get_mut(key).expect("instance");
        record.history.push(event);
    }

    fn pump_locks(&mut self, ctx: &mut Ctx, key: &str, seq: u64) {
        let side = self.instances.get_mut(key).expect("instance");
        match side.lock_queue.front().cloned() {
            Some(entity) => {
                let target = self.shard_of(&entity.to_string());
                let req = LockReq {
                    instance: key.to_owned(),
                    seq,
                    entity,
                };
                self.send_or_run(ctx, target, req, Self::apply_lock);
            }
            None => {
                // All locks held: record and resume.
                side.acquiring = false;
                self.push_history(key, HistoryEvent::Locks { seq });
                self.drive(ctx, key);
            }
        }
    }

    fn ensure_entity(&mut self, id: &EntityId) -> bool {
        if self.entities.contains_key(id) {
            return true;
        }
        if !self.app.entity_types.contains_key(&id.type_name) {
            return false;
        }
        self.entities.insert(id.clone(), EntitySide::default());
        true
    }

    /// Execute an entity op on this shard (possibly queueing behind a lock).
    fn apply_entity_op(&mut self, ctx: &mut Ctx, from_shard: ProcessId, req: EntityOpReq) {
        // Exactly-once: replay the recorded result for duplicates.
        let cached = {
            let journal = self.journal.borrow();
            journal
                .op_dedup
                .get(&(req.instance.clone(), req.seq))
                .cloned()
        };
        if let Some(result) = cached {
            self.send_op_resp(ctx, from_shard, &req, result);
            return;
        }
        if !self.ensure_entity(&req.entity) {
            let result = Err(format!("unknown entity type `{}`", req.entity.type_name));
            self.send_op_resp(ctx, from_shard, &req, result);
            return;
        }
        if let Some(holder) = self.other_holder(&req.entity, &req.instance) {
            ctx.metrics().incr("statefun.op_blocked_on_lock", 1);
            self.park(ctx, holder, Waiting::Op { from_shard, req });
            return;
        }
        let (ops, initial) = &self.app.entity_types[&req.entity.type_name];
        let result = {
            let mut journal = self.journal.borrow_mut();
            let journal = &mut *journal;
            let state = journal
                .entities
                .entry(req.entity.clone())
                .or_insert_with(|| initial(&req.entity.key));
            let result = ops(state, &req.op, &req.args);
            journal
                .op_dedup
                .insert((req.instance.clone(), req.seq), result.clone());
            result
        };
        ctx.metrics().incr("statefun.entity_ops", 1);
        self.send_op_resp(ctx, from_shard, &req, result);
    }

    fn send_op_resp(&mut self, ctx: &mut Ctx, to: ProcessId, req: &EntityOpReq, result: Outcome) {
        let resp = EntityOpResp {
            instance: req.instance.clone(),
            seq: req.seq,
            result,
        };
        self.send_or_run(ctx, to, resp, Self::handle_op_resp);
    }

    fn handle_op_resp(&mut self, ctx: &mut Ctx, _from: ProcessId, resp: EntityOpResp) {
        {
            let mut journal = self.journal.borrow_mut();
            let Some(record) = journal.instances.get_mut(&resp.instance) else {
                return;
            };
            if record.history.len() as u64 != resp.seq {
                return; // stale duplicate
            }
            record.history.push(HistoryEvent::EntityOp {
                seq: resp.seq,
                result: resp.result,
            });
        }
        self.drive(ctx, &resp.instance);
    }

    fn apply_lock(&mut self, ctx: &mut Ctx, from_shard: ProcessId, req: LockReq) {
        if !self.ensure_entity(&req.entity) {
            return;
        }
        if let Some(holder) = self.other_holder(&req.entity, &req.instance) {
            self.park(ctx, holder, Waiting::Lock { from_shard, req });
            return;
        }
        // Free, or asked again by its holder, which confirms it.
        self.journal
            .borrow_mut()
            .locks
            .insert(req.entity.clone(), req.instance.clone());
        self.entities
            .get_mut(&req.entity)
            .expect("entity")
            .inherited = false;
        self.grant(ctx, from_shard, req);
    }

    /// The instance holding `id`'s lock, unless it is free or `instance`'s.
    fn other_holder(&self, id: &EntityId, instance: &str) -> Option<String> {
        let journal = self.journal.borrow();
        journal.locks.get(id).filter(|h| *h != instance).cloned()
    }

    /// Queue `waiting` (once) behind `holder`'s lock on its entity. An
    /// inherited lock is checked with the shard running its holder.
    fn park(&mut self, ctx: &mut Ctx, holder: String, waiting: Waiting) {
        let id = waiting.key().0.clone();
        let entity = self.entities.get_mut(&id).expect("entity");
        if !entity.waiting.iter().any(|w| w.key() == waiting.key()) {
            entity.waiting.push_back(waiting);
        }
        if entity.inherited {
            self.check_lock(ctx, holder, id);
        }
    }

    /// Ask the shard running `holder` whether it still holds `entity`.
    fn check_lock(&mut self, ctx: &mut Ctx, holder: String, entity: EntityId) {
        let owner = self.shard_of(&holder);
        let check = LockCheck {
            instance: holder,
            entity,
        };
        self.send_or_run(ctx, owner, check, Self::handle_lock_check);
    }

    /// Answer a [`LockCheck`]: the lock is stale unless the instance is
    /// unfinished and holds it — it has acquired all its locks, or is
    /// acquiring and got this one since it last started over.
    fn handle_lock_check(&mut self, ctx: &mut Ctx, from_shard: ProcessId, check: LockCheck) {
        let holds = self.instances.get(&check.instance).is_some_and(|side| {
            let journal = self.journal.borrow();
            let record = &journal.instances[&check.instance];
            record.result.is_none()
                && if side.acquiring {
                    !side.lock_queue.contains(&check.entity)
                } else {
                    record.locked()
                }
        });
        if !holds {
            let stale = StaleLock {
                instance: check.instance,
                entity: check.entity,
            };
            self.send_or_run(ctx, from_shard, stale, Self::handle_stale_lock);
        }
    }

    /// Free a lock its holder's shard found stale, unless it has been
    /// confirmed or has changed hands since the check went out.
    fn handle_stale_lock(&mut self, ctx: &mut Ctx, _from: ProcessId, stale: StaleLock) {
        let still_inherited = self
            .entities
            .get(&stale.entity)
            .is_some_and(|e| e.inherited)
            && self.journal.borrow().locks.get(&stale.entity) == Some(&stale.instance);
        if still_inherited {
            self.unlock(ctx, vec![stale.entity]);
        }
    }

    /// Tell the requester of `req` that it holds the lock.
    fn grant(&mut self, ctx: &mut Ctx, to: ProcessId, req: LockReq) {
        let grant = LockGranted {
            instance: req.instance,
            seq: req.seq,
            entity: req.entity,
        };
        self.send_or_run(ctx, to, grant, Self::handle_lock_granted);
    }

    fn handle_lock_granted(&mut self, ctx: &mut Ctx, _from: ProcessId, grant: LockGranted) {
        let Some(side) = self.instances.get_mut(&grant.instance) else {
            return;
        };
        if side.lock_queue.front() != Some(&grant.entity) {
            return; // duplicate grant
        }
        side.lock_queue.pop_front();
        self.pump_locks(ctx, &grant.instance, grant.seq);
    }

    /// Release `key`'s locks on every shard (idempotent where it holds
    /// none).
    fn release_everywhere(&mut self, ctx: &mut Ctx, key: &str) {
        let shards: Vec<ProcessId> = self.shards.borrow().clone();
        for shard in shards {
            let release = ReleaseLocks {
                instance: key.to_owned(),
            };
            self.send_or_run(ctx, shard, release, Self::handle_release);
        }
    }

    /// Orchestration complete: journal the result, reply to the caller,
    /// release locks.
    fn finish(&mut self, ctx: &mut Ctx, key: &str, result: Outcome) {
        let had_locks = {
            let mut journal = self.journal.borrow_mut();
            let record = journal.instances.get_mut(key).expect("instance");
            record.result = Some(result.clone());
            record.locked()
        };
        ctx.metrics().incr("statefun.completed", 1);
        let caller = self.instances.get_mut(key).expect("instance").caller.take();
        // The history's Locks event is the durable truth of what this
        // instance locked, so broadcast the (idempotent) release to every
        // shard.
        if had_locks {
            self.release_everywhere(ctx, key);
        }
        if let Some((client, call_id)) = caller {
            reply_call(
                ctx,
                client,
                call_id,
                Payload::new(OrchestrationResult {
                    instance: key.to_owned(),
                    result,
                }),
            );
        }
    }

    /// Peek an entity's current state (harness audits via `Sim::inspect`):
    /// `None` until an op has run on it.
    pub fn entity_state(&self, id: &EntityId) -> Option<Value> {
        self.journal.borrow().entities.get(id).cloned()
    }

    fn handle_release(&mut self, ctx: &mut Ctx, _from: ProcessId, release: ReleaseLocks) {
        let held: Vec<EntityId> = {
            let journal = self.journal.borrow();
            let locks = journal.locks.iter();
            let mine: Vec<&EntityId> = locks
                .filter(|(_, holder)| **holder == release.instance)
                .map(|(id, _)| id)
                .collect();
            // In side-table order: the order the waiters wake and send in.
            self.entities
                .keys()
                .filter(|id| mine.contains(id))
                .cloned()
                .collect()
        };
        self.unlock(ctx, held);
    }

    /// Free the locks on `ids` and wake their waiters: ops run until the
    /// next lock request, which takes the lock.
    fn unlock(&mut self, ctx: &mut Ctx, ids: Vec<EntityId>) {
        let mut to_run: Vec<(ProcessId, EntityOpReq)> = Vec::new();
        let mut to_grant: Vec<(ProcessId, LockReq)> = Vec::new();
        let mut journal = self.journal.borrow_mut();
        for id in ids {
            journal.locks.remove(&id);
            let entity = self.entities.get_mut(&id).expect("entity");
            entity.inherited = false;
            while let Some(waiting) = entity.waiting.pop_front() {
                match waiting {
                    Waiting::Op { from_shard, req } => to_run.push((from_shard, req)),
                    Waiting::Lock { from_shard, req } => {
                        journal.locks.insert(id, req.instance.clone());
                        to_grant.push((from_shard, req));
                        break;
                    }
                }
            }
        }
        drop(journal);
        for (from_shard, req) in to_run {
            self.apply_entity_op(ctx, from_shard, req);
        }
        for (from_shard, req) in to_grant {
            self.grant(ctx, from_shard, req);
        }
    }

    /// Unfinished instances, in side-table order.
    fn unfinished_keys(&self) -> Vec<String> {
        let journal = self.journal.borrow();
        // The re-drive sweep runs for as long as the shard lives, mostly
        // with nothing open: a scan says so without hashing every key.
        if journal.instances.values().all(|r| r.result.is_some()) {
            return Vec::new();
        }
        self.instances
            .keys()
            .filter(|k| journal.instances[*k].result.is_none())
            .cloned()
            .collect()
    }
}

const REDRIVE_TAG: u64 = 0x5f_0001;

impl Process for StatefunShard {
    fn on_start(&mut self, ctx: &mut Ctx) {
        // Every journaled lock was granted before this start, and a
        // release sent while this shard was down is lost: each is checked
        // with its holder's shard once the instances here have resumed.
        let inherited: Vec<(EntityId, String)> =
            self.journal.borrow().locks.clone().into_iter().collect();
        // Resume every unfinished instance (recovery: deterministic replay
        // against the journaled history re-issues the first missing
        // action; dedup makes re-issue safe).
        for key in self.unfinished_keys() {
            ctx.metrics().incr("statefun.resumed", 1);
            self.drive(ctx, &key);
        }
        for (entity, holder) in inherited {
            self.check_lock(ctx, holder, entity);
        }
        ctx.set_timer(tca_sim::SimDuration::from_millis(25), REDRIVE_TAG);
    }

    fn on_timer(&mut self, ctx: &mut Ctx, tag: u64) {
        if tag != REDRIVE_TAG {
            return;
        }
        // Requests parked at a shard that crashed die with its volatile
        // waiting queues; periodically re-issue every instance's current
        // action. Duplicate ops are absorbed by the (instance, seq) dedup
        // table and the history sequence check; duplicate lock requests
        // by the waiting-queue dedup. One instance's turn can finish a
        // later one's acquisition, so each turn reads `acquiring` afresh.
        for key in self.unfinished_keys() {
            if self.instances[&key].acquiring {
                let seq = self.journal.borrow().instances[&key].history.len() as u64;
                self.pump_locks(ctx, &key, seq);
            } else {
                self.drive(ctx, &key);
            }
        }
        ctx.set_timer(tca_sim::SimDuration::from_millis(25), REDRIVE_TAG);
    }

    fn on_message(&mut self, ctx: &mut Ctx, from: ProcessId, payload: Payload) {
        if let Some(request) = payload.downcast_ref::<RpcRequest>() {
            if let Some(start) = request.body.downcast_ref::<StartOrchestration>() {
                let key = start.instance.clone();
                if let Some(side) = self.instances.get_mut(&key) {
                    // Duplicate start (client retry): attach caller; if
                    // already done, answer immediately.
                    side.caller = Some((from, request.call_id));
                    let result = self.journal.borrow().instances[&key].result.clone();
                    if let Some(result) = result {
                        reply_to(
                            ctx,
                            from,
                            request,
                            Payload::new(OrchestrationResult {
                                instance: key,
                                result,
                            }),
                        );
                    }
                    return;
                }
                self.instances.insert(
                    key.clone(),
                    InstanceSide {
                        caller: Some((from, request.call_id)),
                        ..InstanceSide::default()
                    },
                );
                self.journal.borrow_mut().instances.insert(
                    key.clone(),
                    JournaledInstance {
                        name: start.name.clone(),
                        input: start.input.clone(),
                        history: Vec::new(),
                        result: None,
                    },
                );
                ctx.metrics().incr("statefun.started", 1);
                self.drive(ctx, &key);
            }
            return;
        }
        if let Some(req) = payload.downcast_ref::<EntityOpReq>() {
            self.apply_entity_op(ctx, from, req.clone());
        } else if let Some(resp) = payload.downcast_ref::<EntityOpResp>() {
            self.handle_op_resp(ctx, from, resp.clone());
        } else if let Some(req) = payload.downcast_ref::<LockReq>() {
            self.apply_lock(ctx, from, req.clone());
        } else if let Some(grant) = payload.downcast_ref::<LockGranted>() {
            self.handle_lock_granted(ctx, from, grant.clone());
        } else if let Some(release) = payload.downcast_ref::<ReleaseLocks>() {
            self.handle_release(ctx, from, release.clone());
        } else if let Some(check) = payload.downcast_ref::<LockCheck>() {
            self.handle_lock_check(ctx, from, check.clone());
        } else if let Some(stale) = payload.downcast_ref::<StaleLock>() {
            self.handle_stale_lock(ctx, from, stale.clone());
        }
    }
}

/// Spawn `n` statefun shards across the given nodes (round-robin) and
/// return their process ids. All shards share the app definition.
pub fn spawn_shards(
    sim: &mut tca_sim::Sim,
    nodes: &[tca_sim::NodeId],
    app: &StatefunApp,
    n: usize,
) -> Vec<ProcessId> {
    assert!(n >= 1 && !nodes.is_empty());
    // Shards need each other's ids before any event runs, but ids are
    // only known as we spawn. Late-bind through a shared cell that is
    // filled in before the simulation starts executing events.
    let shared: Rc<RefCell<Vec<ProcessId>>> = Rc::new(RefCell::new(Vec::new()));
    let mut ids = Vec::new();
    for i in 0..n {
        let factory = StatefunShard::factory(app.clone(), Rc::clone(&shared));
        ids.push(sim.spawn(
            nodes[i % nodes.len()],
            format!("statefun-shard-{i}"),
            factory,
        ));
    }
    *shared.borrow_mut() = ids.clone();
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use tca_messaging::rpc::{RetryPolicy, RpcClient, RpcEvent};
    use tca_sim::{Sim, SimDuration};

    fn bank_app() -> StatefunApp {
        StatefunApp::new()
            .entity(
                "account",
                |state, op, args| {
                    let balance = state.as_int();
                    match op {
                        "credit" => {
                            *state = Value::Int(balance + args[0].as_int());
                            Ok(vec![state.clone()])
                        }
                        "debit" => {
                            let amount = args[0].as_int();
                            if balance < amount {
                                Err("insufficient".into())
                            } else {
                                *state = Value::Int(balance - amount);
                                Ok(vec![state.clone()])
                            }
                        }
                        "read" => Ok(vec![state.clone()]),
                        _ => Err(format!("unknown op {op}")),
                    }
                },
                |_| Value::Int(100),
            )
            .activity("fee", |args| Ok(vec![Value::Int(args[0].as_int() / 10)]))
            .orchestrator("transfer", |ctx| {
                let from = ctx.input()[0].as_str().to_owned();
                let to = ctx.input()[1].as_str().to_owned();
                let amount = ctx.input()[2].as_int();
                let fee = ctx.call_activity("fee", vec![Value::Int(amount)])?;
                let fee = fee.expect("fee cannot fail")[0].as_int();
                let debit = ctx.call_entity(
                    EntityId::new("account", from),
                    "debit",
                    vec![Value::Int(amount + fee)],
                )?;
                if let Err(e) = debit {
                    return Some(Err(e));
                }
                let credit = ctx.call_entity(
                    EntityId::new("account", to),
                    "credit",
                    vec![Value::Int(amount)],
                )?;
                Some(credit)
            })
            .orchestrator("locked_transfer", |ctx| {
                let from = ctx.input()[0].as_str().to_owned();
                let to = ctx.input()[1].as_str().to_owned();
                let amount = ctx.input()[2].as_int();
                let a = EntityId::new("account", from);
                let b = EntityId::new("account", to.clone());
                ctx.acquire_locks(vec![a.clone(), b.clone()])?;
                let balance = ctx.call_entity(a.clone(), "read", vec![])?;
                let balance = balance.expect("read ok")[0].as_int();
                if balance < amount {
                    return Some(Err("insufficient".into()));
                }
                ctx.call_entity(a, "debit", vec![Value::Int(amount)])?
                    .expect("checked");
                let credit = ctx.call_entity(b, "credit", vec![Value::Int(amount)])?;
                Some(credit)
            })
    }

    /// A client that starts orchestrations, counts completions and keeps
    /// every answer it gets.
    struct Starter {
        shards: Vec<ProcessId>,
        rpc: RpcClient,
        plan: Vec<StartOrchestration>,
        answers: Rc<RefCell<Vec<OrchestrationResult>>>,
    }
    impl Process for Starter {
        fn on_start(&mut self, ctx: &mut Ctx) {
            for (i, start) in self.plan.clone().into_iter().enumerate() {
                let (shard, body) = start.route(&self.shards);
                self.rpc.call(
                    ctx,
                    shard,
                    body,
                    RetryPolicy::retrying(10, SimDuration::from_millis(20)),
                    i as u64,
                );
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx, _from: ProcessId, payload: Payload) {
            if let Some(RpcEvent::Reply { body, .. }) = self.rpc.on_message(ctx, &payload) {
                let result = body.expect::<OrchestrationResult>();
                match &result.result {
                    Ok(_) => ctx.metrics().incr("starter.ok", 1),
                    Err(_) => ctx.metrics().incr("starter.err", 1),
                }
                self.answers.borrow_mut().push(result.clone());
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx, tag: u64) {
            let _ = self.rpc.on_timer(ctx, tag);
        }
    }

    /// `bank_app` on `shard_count` shards (shard `i` on node `i`) and a
    /// starter on a node of its own.
    struct World {
        sim: Sim,
        nodes: Vec<tca_sim::NodeId>,
        shards: Vec<ProcessId>,
        answers: Rc<RefCell<Vec<OrchestrationResult>>>,
    }

    impl World {
        fn new(shard_count: usize, plan: Vec<StartOrchestration>) -> World {
            let mut sim = Sim::with_seed(81);
            let nodes = sim.add_nodes(shard_count.max(1));
            let shards = spawn_shards(&mut sim, &nodes, &bank_app(), shard_count);
            let answers = Rc::new(RefCell::new(Vec::new()));
            let nc = sim.add_node();
            let (to, kept) = (shards.clone(), Rc::clone(&answers));
            sim.spawn(nc, "starter", move |_| {
                Box::new(Starter {
                    shards: to.clone(),
                    rpc: RpcClient::new(),
                    plan: plan.clone(),
                    answers: Rc::clone(&kept),
                })
            });
            World {
                sim,
                nodes,
                shards,
                answers,
            }
        }

        /// An account's balance, read from the shard that owns it (an
        /// account no op has touched holds its initial 100).
        fn balance(&self, account: &str) -> i64 {
            let id = EntityId::new("account", account);
            self.shards
                .iter()
                .find_map(|&s| self.sim.inspect::<StatefunShard>(s)?.entity_state(&id))
                .map_or(100, |v| v.as_int())
        }

        /// Every entity lock still held, as (entity, holder).
        fn held_locks(&self) -> Vec<(EntityId, String)> {
            let mut held = Vec::new();
            for &s in &self.shards {
                let shard = self.sim.inspect::<StatefunShard>(s).expect("shard up");
                for (id, holder) in &shard.journal.borrow().locks {
                    held.push((id.clone(), holder.clone()));
                }
            }
            held
        }
    }

    fn run_world(
        shard_count: usize,
        plan: Vec<StartOrchestration>,
        crash_restart: Option<(u64, u64)>,
    ) -> World {
        let mut world = World::new(shard_count, plan);
        if let Some((crash_ns, restart_ns)) = crash_restart {
            let node = world.nodes[0];
            world
                .sim
                .schedule_crash(tca_sim::SimTime::from_nanos(crash_ns), node);
            world
                .sim
                .schedule_restart(tca_sim::SimTime::from_nanos(restart_ns), node);
        }
        world.sim.run_for(SimDuration::from_millis(500));
        world
    }

    #[test]
    fn orchestration_with_activity_and_entities() {
        let world = run_world(
            2,
            vec![StartOrchestration {
                name: "transfer".into(),
                instance: "t1".into(),
                input: vec![Value::from("a"), Value::from("b"), Value::Int(50)],
            }],
            None,
        );
        assert_eq!(world.sim.metrics().counter("starter.ok"), 1);
        assert_eq!(world.sim.metrics().counter("statefun.activities"), 1);
        // debit(55) + credit(50) = 2 entity ops.
        assert_eq!(world.sim.metrics().counter("statefun.entity_ops"), 2);
    }

    #[test]
    fn orchestration_failure_propagates() {
        let world = run_world(
            2,
            vec![StartOrchestration {
                name: "transfer".into(),
                instance: "t1".into(),
                input: vec![Value::from("a"), Value::from("b"), Value::Int(1000)],
            }],
            None,
        );
        assert_eq!(world.sim.metrics().counter("starter.err"), 1);
    }

    #[test]
    fn crash_recovery_resumes_with_exactly_once_ops() {
        // Crash shard-0's node mid-orchestration; replay resumes it and
        // dedup keeps each entity op applied once.
        let plan: Vec<StartOrchestration> = (0..10)
            .map(|i| StartOrchestration {
                name: "transfer".into(),
                instance: format!("t{i}"),
                input: vec![Value::from("a"), Value::from("b"), Value::Int(1)],
            })
            .collect();
        let world = run_world(2, plan, Some((1_200_000, 30_000_000)));
        // All orchestrations eventually complete (client retries + resume).
        let ok = world.sim.metrics().counter("starter.ok");
        assert_eq!(ok, 10, "all transfers complete after crash");
        // Each transfer debits 1 (the fee on 1 is 0) and credits 1, once.
        assert_eq!(world.balance("a"), 90);
        assert_eq!(world.balance("b"), 110);
    }

    #[test]
    fn locked_transfer_prevents_interleaving() {
        // Two locked transfers on the same accounts serialize; both see
        // consistent balances (100 each initially).
        let world = run_world(
            2,
            vec![
                StartOrchestration {
                    name: "locked_transfer".into(),
                    instance: "x1".into(),
                    input: vec![Value::from("a"), Value::from("b"), Value::Int(60)],
                },
                StartOrchestration {
                    name: "locked_transfer".into(),
                    instance: "x2".into(),
                    input: vec![Value::from("a"), Value::from("b"), Value::Int(60)],
                },
            ],
            None,
        );
        // a starts at 100: exactly one of the two 60-transfers succeeds.
        assert_eq!(world.sim.metrics().counter("starter.ok"), 1);
        assert_eq!(world.sim.metrics().counter("starter.err"), 1);
    }

    #[test]
    fn every_crash_point_of_shard_zero_keeps_transfers_exactly_once() {
        // Four locked transfers race over two accounts. For every event
        // boundary of the crash-free run, crash shard 0's node there,
        // bring it back 5 ms later and run on for 500 ms: each transfer
        // still completes once, the ledger moves by exactly the transfers
        // answered `Ok`, and no lock is left behind.
        let transfers = [
            ("a", "b", 30),
            ("b", "a", 50),
            ("a", "b", 80),
            ("b", "a", 40),
        ];
        let plan = || -> Vec<StartOrchestration> {
            transfers
                .iter()
                .enumerate()
                .map(|(i, &(from, to, amount))| StartOrchestration {
                    name: "locked_transfer".into(),
                    instance: format!("x{i}"),
                    input: vec![Value::from(from), Value::from(to), Value::Int(amount)],
                })
                .collect()
        };
        let end = tca_sim::SimTime::from_nanos(500_000_000);
        let events = {
            let mut world = World::new(2, plan());
            world.sim.run_until(end);
            world.sim.events_processed()
        };
        for k in 0..=events {
            let mut world = World::new(2, plan());
            for _ in 0..k {
                world.sim.step();
            }
            let node = world.nodes[0];
            world.sim.crash_node(node);
            let back = world.sim.now() + SimDuration::from_millis(5);
            world.sim.schedule_restart(back, node);
            world.sim.run_until(back + SimDuration::from_millis(500));

            let completed = world.sim.metrics().counter("statefun.completed");
            assert_eq!(completed, 4, "crash after event {k}: completions");
            let mut answered: Vec<String> = world
                .answers
                .borrow()
                .iter()
                .map(|a| a.instance.clone())
                .collect();
            answered.sort();
            assert_eq!(answered, ["x0", "x1", "x2", "x3"], "crash after event {k}");
            // Every transfer runs between "a" and "b": track a's side.
            let mut a = 100;
            for answer in world.answers.borrow().iter().filter(|a| a.result.is_ok()) {
                let i: usize = answer.instance[1..].parse().expect("instance index");
                let (from, _, amount) = transfers[i];
                a += if from == "a" { -amount } else { amount };
            }
            let balances = (world.balance("a"), world.balance("b"));
            assert_eq!(balances, (a, 200 - a), "crash after event {k}: balances");
            assert_eq!(world.held_locks(), [], "crash after event {k}: locks held");
        }
    }
}
