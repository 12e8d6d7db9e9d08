//! Virtual actors (§3.1 "The Actor Model", Orleans-style).
//!
//! Actors are single-threaded state machines addressed by `(type, key)`
//! with *location transparency*: callers never know (or choose) which
//! silo hosts an activation. A [`Directory`] process assigns placements
//! among live silos (tracked by heartbeats) and re-places actors of
//! crashed silos on the next lookup — Orleans' failure transparency
//! (§4.1). Actor state is either volatile (lost on crash: the paper's
//! "weak message delivery semantics … can leave actor states
//! inconsistent") or persisted to an external database after every
//! invocation (§3.3: "developers checkpoint actor states to an external
//! DBMS").
//!
//! Calls are at-least-once by default ([`tca_messaging::rpc`] retries), so
//! non-idempotent actor methods can observe duplicates — deliberately, as
//! that is the status quo the paper critiques. Cross-actor transactional
//! isolation is *not* provided here; `tca-txn::actor_txn` adds it.

use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;
use tca_sim::DetHashMap as HashMap;

use tca_messaging::rpc::{reply_call, reply_to, RetryPolicy, RpcClient, RpcEvent, RpcRequest};
use tca_sim::{
    Boot, Ctx, Payload, Process, ProcessId, RecentWindow, SimDuration, SimTime, SpanId, SpanKind,
};
use tca_storage::{DbMsg, DbReply, DbResponse, ProcRegistry, Value};

/// An actor's logical identity: type plus key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ActorId {
    /// The actor type (behaviour), e.g. `"account"`.
    pub type_name: String,
    /// The instance key, e.g. `"alice"`.
    pub key: String,
}

impl ActorId {
    /// Convenience constructor.
    pub fn new(type_name: &str, key: impl Into<String>) -> Self {
        ActorId {
            type_name: type_name.to_owned(),
            key: key.into(),
        }
    }
}

impl fmt::Display for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.type_name, self.key)
    }
}

/// What an actor handler wants to do next.
pub enum ActorStep {
    /// Finish the invocation with this result.
    Done(Result<Vec<Value>, String>),
    /// Call another actor; the runtime will deliver the result to
    /// [`ActorLogic::resume`].
    Call {
        /// Callee.
        target: ActorId,
        /// Method on the callee.
        method: String,
        /// Arguments.
        args: Vec<Value>,
    },
}

/// An actor behaviour: a state machine over invocations.
///
/// One logic instance exists per activation; it may keep continuation
/// state between `invoke` and `resume` (the runtime guarantees no other
/// invocation interleaves — actors are non-reentrant).
pub trait ActorLogic {
    /// Handle a new invocation against the actor's durable `state`.
    fn invoke(&mut self, state: &mut Value, method: &str, args: &[Value]) -> ActorStep;

    /// Continue after an [`ActorStep::Call`] completed.
    fn resume(&mut self, _state: &mut Value, _result: Result<Vec<Value>, String>) -> ActorStep {
        ActorStep::Done(Err("actor resumed without continuation".into()))
    }
}

/// Per-type registration: how to build logic and initial state.
#[derive(Clone)]
pub struct ActorType {
    new_logic: Rc<dyn Fn() -> Box<dyn ActorLogic>>,
    initial_state: Rc<dyn Fn(&str) -> Value>,
}

/// Registry of actor types, shared by all silos of an application.
#[derive(Clone, Default)]
pub struct ActorRegistry {
    types: HashMap<String, ActorType>,
}

impl ActorRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        ActorRegistry::default()
    }

    /// Register an actor type (builder style).
    pub fn with(
        mut self,
        type_name: &str,
        new_logic: impl Fn() -> Box<dyn ActorLogic> + 'static,
        initial_state: impl Fn(&str) -> Value + 'static,
    ) -> Self {
        self.types.insert(
            type_name.to_owned(),
            ActorType {
                new_logic: Rc::new(new_logic),
                initial_state: Rc::new(initial_state),
            },
        );
        self
    }

    fn get(&self, type_name: &str) -> Option<&ActorType> {
        self.types.get(type_name)
    }
}

// ---------------------------------------------------------------------------
// Wire messages
// ---------------------------------------------------------------------------

/// Invocation request (carried inside an [`RpcRequest`]).
#[derive(Debug, Clone)]
pub struct ActorInvoke {
    /// Target actor.
    pub id: ActorId,
    /// Method name.
    pub method: String,
    /// Arguments.
    pub args: Vec<Value>,
}

/// Invocation result (carried inside an `RpcReply`).
#[derive(Debug, Clone)]
pub struct ActorOutcome {
    /// The actor method's result.
    pub result: Result<Vec<Value>, String>,
}

/// Directory lookup request.
#[derive(Debug, Clone)]
struct DirLookup {
    id: ActorId,
    token: u64,
}

/// Directory lookup answer.
#[derive(Debug, Clone)]
struct DirLocation {
    id: ActorId,
    silo: Option<ProcessId>,
    token: u64,
}

/// Silo registration / heartbeat.
#[derive(Debug, Clone)]
struct SiloHeartbeat;

// ---------------------------------------------------------------------------
// Directory
// ---------------------------------------------------------------------------

/// Heartbeat period: every silo reports to the directory this often, and
/// the directory's failure timeout is a multiple of it.
const HEARTBEAT_INTERVAL: SimDuration = SimDuration::from_millis(5);
/// A silo missing heartbeats for this long (four periods) is declared dead
/// and its placements are cleared (enabling migration).
const FAILURE_TIMEOUT: SimDuration = SimDuration::from_nanos(4 * HEARTBEAT_INTERVAL.as_nanos());

const DIR_SWEEP_TAG: u64 = 0xd1c0_0001;

/// The placement directory (the Orleans membership oracle, simplified to
/// a single process).
pub struct Directory {
    placements: HashMap<ActorId, ProcessId>,
    silos: Vec<(ProcessId, SimTime, bool)>,
    round_robin: usize,
}

impl Directory {
    /// Process factory.
    pub fn factory() -> impl FnMut(&mut Boot) -> Box<dyn Process> {
        |_| {
            Box::new(Directory {
                placements: HashMap::default(),
                silos: Vec::new(),
                round_robin: 0,
            })
        }
    }

    fn place(&mut self, id: &ActorId) -> Option<ProcessId> {
        if let Some(&silo) = self.placements.get(id) {
            if self.silos.iter().any(|&(s, _, alive)| s == silo && alive) {
                return Some(silo);
            }
        }
        let alive: Vec<ProcessId> = self
            .silos
            .iter()
            .filter(|&&(_, _, alive)| alive)
            .map(|&(s, _, _)| s)
            .collect();
        if alive.is_empty() {
            return None;
        }
        self.round_robin = (self.round_robin + 1) % alive.len();
        let silo = alive[self.round_robin];
        self.placements.insert(id.clone(), silo);
        Some(silo)
    }
}

impl Process for Directory {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(FAILURE_TIMEOUT, DIR_SWEEP_TAG);
    }

    fn on_message(&mut self, ctx: &mut Ctx, from: ProcessId, payload: Payload) {
        if payload.is::<SiloHeartbeat>() {
            match self.silos.iter_mut().find(|(s, _, _)| *s == from) {
                Some(entry) => {
                    entry.1 = ctx.now();
                    if !entry.2 {
                        entry.2 = true;
                        ctx.metrics().incr("dir.silo_rejoined", 1);
                    }
                }
                None => self.silos.push((from, ctx.now(), true)),
            }
        } else if let Some(lookup) = payload.downcast_ref::<DirLookup>() {
            let silo = self.place(&lookup.id);
            ctx.send(
                from,
                Payload::new(DirLocation {
                    id: lookup.id.clone(),
                    silo,
                    token: lookup.token,
                }),
            );
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx, tag: u64) {
        if tag != DIR_SWEEP_TAG {
            return;
        }
        let now = ctx.now();
        let mut died = Vec::new();
        for (silo, last, alive) in &mut self.silos {
            if *alive && now.since(*last) > FAILURE_TIMEOUT {
                *alive = false;
                died.push(*silo);
                ctx.metrics().incr("dir.silo_declared_dead", 1);
            }
        }
        if !died.is_empty() {
            self.placements.retain(|_, silo| !died.contains(silo));
        }
        ctx.set_timer(FAILURE_TIMEOUT, DIR_SWEEP_TAG);
    }
}

// ---------------------------------------------------------------------------
// Router (client- and silo-side actor invocation machinery)
// ---------------------------------------------------------------------------

/// Completion of an invocation issued through an [`ActorRouter`].
#[derive(Debug)]
pub struct ActorCompletion {
    /// Host-chosen tag.
    pub user_tag: u64,
    /// The result (Err includes transport failures after all retries).
    pub result: Result<Vec<Value>, String>,
}

struct RoutePending {
    id: ActorId,
    method: String,
    args: Vec<Value>,
    user_tag: u64,
    attempts: u32,
    /// The wire id of the invocation's first call, which every reroute
    /// reuses: a silo that applied an earlier attempt answers a later one
    /// from its dedup window instead of running the method again.
    wire_id: Option<u64>,
}

/// Timer tag for retrying lookups that found no live silo (startup races,
/// transient total outages).
const ROUTE_RETRY_TAG: u64 = 0xa700_0000_0000_0001;

/// Routes actor invocations: directory lookup + rpc with retry, with
/// cache invalidation and re-lookup on failure (the migration path).
pub struct ActorRouter {
    directory: ProcessId,
    rpc: RpcClient,
    cache: HashMap<ActorId, ProcessId>,
    /// Lookups in flight: token → queued invocations for that actor.
    lookups: HashMap<u64, Vec<RoutePending>>,
    next_lookup: u64,
    /// rpc user_tag (call seq) → in-flight invocation (for retry-on-move).
    in_flight: HashMap<u64, RoutePending>,
    next_call: u64,
    policy: RetryPolicy,
    /// How many directory round trips a call may trigger before failing.
    max_moves: u32,
    /// Invocations parked until the next lookup-retry timer.
    retry_parked: Vec<RoutePending>,
    retry_timer_armed: bool,
    /// Failures to surface on the next timer tick.
    failed: Vec<ActorCompletion>,
}

impl ActorRouter {
    /// A router talking to the given directory.
    pub fn new(directory: ProcessId) -> Self {
        ActorRouter {
            directory,
            rpc: RpcClient::new(),
            cache: HashMap::default(),
            lookups: HashMap::default(),
            next_lookup: 0,
            in_flight: HashMap::default(),
            next_call: 0,
            policy: RetryPolicy::retrying(4, SimDuration::from_millis(8)),
            max_moves: 8,
            retry_parked: Vec::new(),
            retry_timer_armed: false,
            failed: Vec::new(),
        }
    }

    /// Invoke `method` on actor `id`. The completion arrives later via
    /// [`ActorRouter::on_message`]/[`ActorRouter::on_timer`].
    pub fn invoke(
        &mut self,
        ctx: &mut Ctx,
        id: ActorId,
        method: impl Into<String>,
        args: Vec<Value>,
        user_tag: u64,
    ) {
        let pending = RoutePending {
            id,
            method: method.into(),
            args,
            user_tag,
            attempts: 0,
            wire_id: None,
        };
        self.dispatch(ctx, pending);
    }

    fn dispatch(&mut self, ctx: &mut Ctx, mut pending: RoutePending) {
        if pending.attempts >= self.max_moves {
            ctx.metrics().incr("actor.route_gave_up", 1);
            self.failed.push(ActorCompletion {
                user_tag: pending.user_tag,
                result: Err("actor unreachable after retries".into()),
            });
            self.arm_retry_timer(ctx);
            return;
        }
        if let Some(&silo) = self.cache.get(&pending.id) {
            self.next_call += 1;
            let call_tag = self.next_call;
            let body = Payload::new(ActorInvoke {
                id: pending.id.clone(),
                method: pending.method.clone(),
                args: pending.args.clone(),
            });
            let call = match pending.wire_id {
                Some(wire_id) => {
                    (self.rpc).call_with_id(ctx, silo, body, self.policy, call_tag, wire_id)
                }
                None => self.rpc.call(ctx, silo, body, self.policy, call_tag),
            };
            pending.wire_id = Some(call.0);
            self.in_flight.insert(call_tag, pending);
        } else {
            self.next_lookup += 1;
            let token = self.next_lookup;
            ctx.send(
                self.directory,
                Payload::new(DirLookup {
                    id: pending.id.clone(),
                    token,
                }),
            );
            self.lookups.insert(token, vec![pending]);
            self.arm_retry_timer(ctx);
        }
    }

    /// True when no invocation is pending: none in flight, looking up,
    /// parked for a retry or failed and not yet surfaced. An idle router
    /// produces no completion until the next [`ActorRouter::invoke`].
    pub fn is_idle(&self) -> bool {
        self.in_flight.is_empty()
            && self.lookups.is_empty()
            && self.retry_parked.is_empty()
            && self.failed.is_empty()
    }

    /// Offer an incoming message; returns completions ready for the host.
    pub fn on_message(&mut self, ctx: &mut Ctx, payload: &Payload) -> Vec<ActorCompletion> {
        if let Some(location) = payload.downcast_ref::<DirLocation>() {
            let Some(queued) = self.lookups.remove(&location.token) else {
                return Vec::new();
            };
            match location.silo {
                Some(silo) => {
                    self.cache.insert(location.id.clone(), silo);
                    for pending in queued {
                        self.dispatch(ctx, pending);
                    }
                }
                None => {
                    // No live silo right now (startup race or outage):
                    // park and retry shortly rather than failing fast.
                    for mut pending in queued {
                        pending.attempts += 1;
                        if pending.attempts >= self.max_moves {
                            self.failed.push(ActorCompletion {
                                user_tag: pending.user_tag,
                                result: Err("no silo available".into()),
                            });
                        } else {
                            self.retry_parked.push(pending);
                        }
                    }
                    self.arm_retry_timer(ctx);
                }
            }
            Vec::new()
        } else if let Some(event) = self.rpc.on_message(ctx, payload) {
            self.handle_rpc_event(ctx, event)
        } else {
            Vec::new()
        }
    }

    fn arm_retry_timer(&mut self, ctx: &mut Ctx) {
        if !self.retry_timer_armed
            && (!self.retry_parked.is_empty()
                || !self.failed.is_empty()
                || !self.lookups.is_empty())
        {
            ctx.set_timer(SimDuration::from_millis(10), ROUTE_RETRY_TAG);
            self.retry_timer_armed = true;
        }
    }

    /// Offer a timer; `None` means the timer was not ours.
    pub fn on_timer(&mut self, ctx: &mut Ctx, tag: u64) -> Option<Vec<ActorCompletion>> {
        if tag == ROUTE_RETRY_TAG {
            self.retry_timer_armed = false;
            // Directory lookups ride plain messages, so a lost request or
            // reply would otherwise strand every invocation queued on the
            // token. Re-send outstanding lookups (the directory answers a
            // duplicate token again; a stale reply finds no entry and is
            // ignored), charging each queued invocation one attempt so an
            // unreachable directory fails the call instead of looping.
            let mut expired = Vec::new();
            for (&token, queued) in self.lookups.iter_mut() {
                for pending in queued.iter_mut() {
                    pending.attempts += 1;
                }
                if queued.iter().all(|p| p.attempts >= self.max_moves) {
                    expired.push(token);
                } else if let Some(first) = queued.first() {
                    ctx.metrics().incr("actor.lookup_retries", 1);
                    ctx.send(
                        self.directory,
                        Payload::new(DirLookup {
                            id: first.id.clone(),
                            token,
                        }),
                    );
                }
            }
            for token in expired {
                let Some(queued) = self.lookups.remove(&token) else {
                    continue;
                };
                for pending in queued {
                    ctx.metrics().incr("actor.route_gave_up", 1);
                    self.failed.push(ActorCompletion {
                        user_tag: pending.user_tag,
                        result: Err("directory unreachable".into()),
                    });
                }
            }
            let parked: Vec<RoutePending> = self.retry_parked.drain(..).collect();
            for pending in parked {
                self.dispatch(ctx, pending);
            }
            let completions = std::mem::take(&mut self.failed);
            self.arm_retry_timer(ctx);
            return Some(completions);
        }
        let inner = self.rpc.on_timer(ctx, tag)?;
        Some(match inner {
            Some(event) => self.handle_rpc_event(ctx, event),
            None => Vec::new(),
        })
    }

    fn handle_rpc_event(&mut self, ctx: &mut Ctx, event: RpcEvent) -> Vec<ActorCompletion> {
        match event {
            RpcEvent::Reply { user_tag, body, .. } => {
                let Some(pending) = self.in_flight.remove(&user_tag) else {
                    return Vec::new();
                };
                let outcome = body.expect::<ActorOutcome>();
                vec![ActorCompletion {
                    user_tag: pending.user_tag,
                    result: outcome.result.clone(),
                }]
            }
            RpcEvent::Failed { user_tag, .. } => {
                let Some(mut pending) = self.in_flight.remove(&user_tag) else {
                    return Vec::new();
                };
                // The silo is unreachable: invalidate and re-lookup (the
                // actor may have migrated).
                self.cache.remove(&pending.id);
                pending.attempts += 1;
                if pending.attempts >= self.max_moves {
                    ctx.metrics().incr("actor.route_gave_up", 1);
                    return vec![ActorCompletion {
                        user_tag: pending.user_tag,
                        result: Err("actor unreachable".into()),
                    }];
                }
                ctx.metrics().incr("actor.rerouted", 1);
                self.dispatch(ctx, pending);
                Vec::new()
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Silo
// ---------------------------------------------------------------------------

/// Silo configuration.
#[derive(Clone)]
pub struct SiloConfig {
    /// The placement directory.
    directory: ProcessId,
    /// External database for actor state; `None` = volatile actors.
    state_db: Option<ProcessId>,
}

impl SiloConfig {
    /// Volatile-actor silo (state dies with the node).
    pub fn volatile(directory: ProcessId) -> Self {
        SiloConfig {
            directory,
            state_db: None,
        }
    }

    /// Persistent-actor silo writing state through to `db`.
    pub fn persistent(directory: ProcessId, db: ProcessId) -> Self {
        SiloConfig {
            directory,
            state_db: Some(db),
        }
    }
}

/// Stored procedures the silo needs on its state database.
pub fn actor_state_registry() -> ProcRegistry {
    ProcRegistry::new()
        .with("actor_get", |tx, args| {
            let key = args[0].as_str();
            Ok(vec![tx.get(key).unwrap_or(Value::Null)])
        })
        .with("actor_put", |tx, args| {
            tx.put(args[0].as_str(), args[1].clone());
            Ok(vec![])
        })
}

const HEARTBEAT_TAG: u64 = 0x51_0001;

struct QueuedInvoke {
    method: String,
    args: Vec<Value>,
    caller: ProcessId,
    rpc_call_id: u64,
    /// Trace span from admission to reply — queue wait, execution, nested
    /// calls, and state persistence all nest underneath.
    span: Option<SpanId>,
}

enum Phase {
    /// Waiting for state to load from the database.
    Loading,
    /// Ready for the next invocation.
    Idle,
    /// An invocation is running (awaiting a nested call or persistence).
    Busy,
}

struct Activation {
    logic: Box<dyn ActorLogic>,
    state: Value,
    phase: Phase,
    queue: VecDeque<QueuedInvoke>,
    current: Option<QueuedInvoke>,
}

/// Tag kinds for silo-internal async completions.
const KIND_NESTED: u64 = 0;
const KIND_LOAD: u64 = 1;
const KIND_SAVE: u64 = 2;

/// How many invocation outcomes a silo remembers for duplicate replay.
const RECENT_INVOKES: usize = 4096;

/// A finished invocation's result, cached for duplicate replay.
type InvokeOutcome = Result<Vec<Value>, String>;

/// The actor host process.
pub struct ActorSilo {
    config: SiloConfig,
    registry: Rc<ActorRegistry>,
    activations: HashMap<ActorId, Activation>,
    router: ActorRouter,
    /// Outstanding db operations: tag → actor.
    db_ops: HashMap<u64, ActorId>,
    next_op: u64,
    db_rpc: RpcClient,
    /// Recently admitted invocations, keyed by (caller, wire call id):
    /// `None` while queued or running, `Some(outcome)` once replied. An
    /// rpc retry after a lost reply re-delivers the same wire id; without
    /// this cache the silo would re-execute a non-idempotent method
    /// (double-applying a credit, say) instead of replaying the reply.
    /// Wire ids are nonce-based per client incarnation, so entries never
    /// collide across caller restarts.
    recent_invokes: RecentWindow<(ProcessId, u64), Option<InvokeOutcome>>,
}

impl ActorSilo {
    /// Process factory for a silo.
    pub fn factory(
        registry: ActorRegistry,
        config: SiloConfig,
    ) -> impl FnMut(&mut Boot) -> Box<dyn Process> {
        let registry = Rc::new(registry);
        move |_| {
            Box::new(ActorSilo {
                config: config.clone(),
                registry: Rc::clone(&registry),
                activations: HashMap::default(),
                router: ActorRouter::new(config.directory),
                db_ops: HashMap::default(),
                next_op: 0,
                db_rpc: RpcClient::new(),
                recent_invokes: RecentWindow::new(RECENT_INVOKES),
            })
        }
    }

    /// The state-database row a persistent silo writes `id`'s state to.
    pub fn state_key(id: &ActorId) -> String {
        format!("actor/{}/{}", id.type_name, id.key)
    }

    fn ensure_activation(&mut self, ctx: &mut Ctx, id: &ActorId) -> bool {
        if self.activations.contains_key(id) {
            return true;
        }
        let Some(actor_type) = self.registry.get(&id.type_name) else {
            return false;
        };
        let logic = (actor_type.new_logic)();
        let initial = (actor_type.initial_state)(&id.key);
        let phase = if self.config.state_db.is_some() {
            Phase::Loading
        } else {
            Phase::Idle
        };
        self.activations.insert(
            id.clone(),
            Activation {
                logic,
                state: initial,
                phase,
                queue: VecDeque::new(),
                current: None,
            },
        );
        ctx.metrics().incr("actor.activations", 1);
        if let Some(db) = self.config.state_db {
            self.next_op += 1;
            let tag = (self.next_op << 2) | KIND_LOAD;
            self.db_ops.insert(tag, id.clone());
            self.db_rpc.call(
                ctx,
                db,
                Payload::new(DbMsg::call(
                    "actor_get",
                    vec![Value::Str(Self::state_key(id))],
                )),
                RetryPolicy::retrying(6, SimDuration::from_millis(5)),
                tag,
            );
        }
        true
    }

    /// Drive an activation's current step chain as far as possible.
    fn run_step(&mut self, ctx: &mut Ctx, id: &ActorId, mut step: ActorStep) {
        loop {
            let Some(activation) = self.activations.get_mut(id) else {
                return;
            };
            match step {
                ActorStep::Done(result) => {
                    if let (Some(db), Ok(_)) = (self.config.state_db, &result) {
                        // Persist, then reply (write-ahead of the reply).
                        self.next_op += 1;
                        let tag = (self.next_op << 2) | KIND_SAVE;
                        self.db_ops.insert(tag, id.clone());
                        let state = activation.state.clone();
                        // Stash the result on the activation for delivery
                        // after the save completes.
                        if let Some(job) = &mut activation.current {
                            job.args = match &result {
                                Ok(values) => values.clone(),
                                Err(_) => vec![],
                            };
                            job.method = match result {
                                Ok(_) => "__ok".into(),
                                Err(e) => format!("__err:{e}"),
                            };
                        }
                        self.db_rpc.call(
                            ctx,
                            db,
                            Payload::new(DbMsg::call(
                                "actor_put",
                                vec![Value::Str(Self::state_key(id)), state],
                            )),
                            RetryPolicy::retrying(6, SimDuration::from_millis(5)),
                            tag,
                        );
                        return;
                    }
                    self.finish_job(ctx, id, result);
                    return;
                }
                ActorStep::Call {
                    target,
                    method,
                    args,
                } => {
                    if target == *id {
                        // Self-call would deadlock a non-reentrant actor;
                        // execute inline instead.
                        let next = activation
                            .logic
                            .invoke(&mut activation.state, &method, &args);
                        // Feed the (synchronous) result back via resume.
                        match next {
                            ActorStep::Done(r) => {
                                step = activation.logic.resume(&mut activation.state, r);
                                continue;
                            }
                            ActorStep::Call { .. } => {
                                step = activation.logic.resume(
                                    &mut activation.state,
                                    Err("nested self-call chain unsupported".into()),
                                );
                                continue;
                            }
                        }
                    }
                    self.next_op += 1;
                    let tag = (self.next_op << 2) | KIND_NESTED;
                    self.db_ops.insert(tag, id.clone());
                    self.router.invoke(ctx, target, method, args, tag);
                    return;
                }
            }
        }
    }

    fn finish_job(&mut self, ctx: &mut Ctx, id: &ActorId, result: Result<Vec<Value>, String>) {
        let Some(activation) = self.activations.get_mut(id) else {
            return;
        };
        let job = activation.current.take();
        activation.phase = Phase::Idle;
        if let Some(job) = job {
            // Record the outcome before replying so a duplicate of this
            // request replays the reply rather than re-executing.
            self.recent_invokes
                .set(&(job.caller, job.rpc_call_id), Some(result.clone()));
            ctx.trace_enter(job.span);
            reply_call(
                ctx,
                job.caller,
                job.rpc_call_id,
                Payload::new(ActorOutcome { result }),
            );
            ctx.trace_exit(job.span);
            ctx.trace_span_end(job.span);
        }
        ctx.metrics().incr("actor.invocations", 1);
        self.pump(ctx, id);
    }

    /// Start the next queued invocation if the activation is idle.
    fn pump(&mut self, ctx: &mut Ctx, id: &ActorId) {
        let Some(activation) = self.activations.get_mut(id) else {
            return;
        };
        if !matches!(activation.phase, Phase::Idle) {
            return;
        }
        let Some(job) = activation.queue.pop_front() else {
            return;
        };
        activation.phase = Phase::Busy;
        let step = activation
            .logic
            .invoke(&mut activation.state, &job.method, &job.args);
        let span = job.span;
        activation.current = Some(job);
        // Sends issued by the step chain (nested calls, state persistence)
        // should parent under the invocation span.
        ctx.trace_enter(span);
        self.run_step(ctx, id, step);
        ctx.trace_exit(span);
    }

    fn handle_db_completion(&mut self, ctx: &mut Ctx, tag: u64, body: Option<Payload>) {
        let Some(id) = self.db_ops.remove(&tag) else {
            return;
        };
        let kind = tag & 0b11;
        match kind {
            KIND_LOAD => {
                let Some(activation) = self.activations.get_mut(&id) else {
                    return;
                };
                if let Some(body) = body {
                    if let Some(reply) = body.downcast_ref::<DbReply>() {
                        if let DbResponse::CallOk { results } = &reply.resp {
                            match results.first() {
                                Some(Value::Null) | None => {}
                                Some(stored) => activation.state = stored.clone(),
                            }
                        }
                    }
                }
                activation.phase = Phase::Idle;
                self.pump(ctx, &id);
            }
            KIND_SAVE => {
                // Retrieve the stashed result and reply.
                let result = {
                    let Some(activation) = self.activations.get_mut(&id) else {
                        return;
                    };
                    match &activation.current {
                        Some(job) if job.method == "__ok" => Ok(job.args.clone()),
                        Some(job) if job.method.starts_with("__err:") => {
                            Err(job.method["__err:".len()..].to_owned())
                        }
                        _ => Err("lost job".into()),
                    }
                };
                let result = if body.is_some() {
                    result
                } else {
                    Err("state persistence failed".into())
                };
                self.finish_job(ctx, &id, result);
            }
            _ => {}
        }
    }

    fn handle_nested_completions(&mut self, ctx: &mut Ctx, completions: Vec<ActorCompletion>) {
        for completion in completions {
            let Some(id) = self.db_ops.remove(&completion.user_tag) else {
                continue;
            };
            let (step, span) = {
                let Some(activation) = self.activations.get_mut(&id) else {
                    continue;
                };
                let span = activation.current.as_ref().and_then(|job| job.span);
                (
                    activation
                        .logic
                        .resume(&mut activation.state, completion.result),
                    span,
                )
            };
            ctx.trace_enter(span);
            self.run_step(ctx, &id, step);
            ctx.trace_exit(span);
        }
    }
}

impl Process for ActorSilo {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.send(self.config.directory, Payload::new(SiloHeartbeat));
        ctx.set_timer(HEARTBEAT_INTERVAL, HEARTBEAT_TAG);
    }

    fn on_message(&mut self, ctx: &mut Ctx, from: ProcessId, payload: Payload) {
        // Nested-call completions (router) and db completions first.
        let completions = self.router.on_message(ctx, &payload);
        if !completions.is_empty() {
            self.handle_nested_completions(ctx, completions);
            return;
        }
        if let Some(event) = self.db_rpc.on_message(ctx, &payload) {
            match event {
                RpcEvent::Reply { user_tag, body, .. } => {
                    self.handle_db_completion(ctx, user_tag, Some(body))
                }
                RpcEvent::Failed { user_tag, .. } => self.handle_db_completion(ctx, user_tag, None),
            }
            return;
        }
        // New invocation.
        let Some(request) = payload.downcast_ref::<RpcRequest>() else {
            return;
        };
        let Some(invoke) = request.body.downcast_ref::<ActorInvoke>() else {
            return;
        };
        // At-most-once execution: a retried request (lost reply) must not
        // re-run the method.
        let dedup_key = (from, request.call_id);
        match self.recent_invokes.get(&dedup_key) {
            Some(Some(result)) => {
                ctx.metrics().incr("actor.invoke_dedup", 1);
                reply_to(
                    ctx,
                    from,
                    request,
                    Payload::new(ActorOutcome {
                        result: result.clone(),
                    }),
                );
                return;
            }
            Some(None) => {
                // First copy is still queued or running; its eventual
                // reply carries the same wire id and will match.
                ctx.metrics().incr("actor.invoke_dedup", 1);
                return;
            }
            None => {}
        }
        if !self.ensure_activation(ctx, &invoke.id) {
            reply_to(
                ctx,
                from,
                request,
                Payload::new(ActorOutcome {
                    result: Err(format!("unknown actor type `{}`", invoke.id.type_name)),
                }),
            );
            return;
        }
        self.recent_invokes.insert(dedup_key, None);
        let span = ctx.trace_span(SpanKind::ActorInvoke, || {
            format!("{}::{}", invoke.id.type_name, invoke.method)
        });
        let activation = self.activations.get_mut(&invoke.id).expect("activated");
        activation.queue.push_back(QueuedInvoke {
            method: invoke.method.clone(),
            args: invoke.args.clone(),
            caller: from,
            rpc_call_id: request.call_id,
            span,
        });
        self.pump(ctx, &invoke.id.clone());
    }

    fn on_timer(&mut self, ctx: &mut Ctx, tag: u64) {
        if tag == HEARTBEAT_TAG {
            ctx.send(self.config.directory, Payload::new(SiloHeartbeat));
            ctx.set_timer(HEARTBEAT_INTERVAL, HEARTBEAT_TAG);
            return;
        }
        if let Some(completions) = self.router.on_timer(ctx, tag) {
            self.handle_nested_completions(ctx, completions);
            return;
        }
        if let Some(Some(event)) = self.db_rpc.on_timer(ctx, tag) {
            match event {
                RpcEvent::Reply { user_tag, body, .. } => {
                    self.handle_db_completion(ctx, user_tag, Some(body))
                }
                RpcEvent::Failed { user_tag, .. } => self.handle_db_completion(ctx, user_tag, None),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tca_sim::{ScriptedFate, Sim};
    use tca_storage::{DbServer, DbServerConfig};

    /// A bank-account actor: state = Int balance.
    struct Account;
    impl ActorLogic for Account {
        fn invoke(&mut self, state: &mut Value, method: &str, args: &[Value]) -> ActorStep {
            let balance = state.as_int();
            match method {
                "deposit" => {
                    *state = Value::Int(balance + args[0].as_int());
                    ActorStep::Done(Ok(vec![state.clone()]))
                }
                "withdraw" => {
                    let amount = args[0].as_int();
                    if balance < amount {
                        ActorStep::Done(Err("insufficient".into()))
                    } else {
                        *state = Value::Int(balance - amount);
                        ActorStep::Done(Ok(vec![state.clone()]))
                    }
                }
                "balance" => ActorStep::Done(Ok(vec![state.clone()])),
                _ => ActorStep::Done(Err(format!("unknown method {method}"))),
            }
        }
    }

    /// A transfer actor that orchestrates withdraw→deposit across two
    /// account actors (no isolation — the paper's point).
    #[derive(Default)]
    struct Transfer {
        stage: u8,
        to: Option<ActorId>,
        amount: i64,
    }
    impl ActorLogic for Transfer {
        fn invoke(&mut self, _state: &mut Value, method: &str, args: &[Value]) -> ActorStep {
            assert_eq!(method, "transfer");
            let from = ActorId::new("account", args[0].as_str());
            self.to = Some(ActorId::new("account", args[1].as_str()));
            self.amount = args[2].as_int();
            self.stage = 1;
            ActorStep::Call {
                target: from,
                method: "withdraw".into(),
                args: vec![Value::Int(self.amount)],
            }
        }
        fn resume(&mut self, _state: &mut Value, result: Result<Vec<Value>, String>) -> ActorStep {
            match self.stage {
                1 => match result {
                    Ok(_) => {
                        self.stage = 2;
                        ActorStep::Call {
                            target: self.to.clone().expect("set"),
                            method: "deposit".into(),
                            args: vec![Value::Int(self.amount)],
                        }
                    }
                    Err(e) => ActorStep::Done(Err(e)),
                },
                2 => ActorStep::Done(result),
                _ => ActorStep::Done(Err("bad stage".into())),
            }
        }
    }

    fn registry() -> ActorRegistry {
        ActorRegistry::new()
            .with("account", || Box::new(Account), |_| Value::Int(100))
            .with("transfer", || Box::<Transfer>::default(), |_| Value::Null)
    }

    /// Driver that sends a scripted list of invocations sequentially.
    struct Driver {
        router: ActorRouter,
        plan: Vec<(ActorId, String, Vec<Value>)>,
        at: usize,
    }
    impl Driver {
        fn next(&mut self, ctx: &mut Ctx) {
            if self.at < self.plan.len() {
                let (id, method, args) = self.plan[self.at].clone();
                self.at += 1;
                self.router.invoke(ctx, id, method, args, self.at as u64);
            }
        }
        fn absorb(&mut self, ctx: &mut Ctx, completions: Vec<ActorCompletion>) {
            for completion in completions {
                match completion.result {
                    Ok(values) => {
                        ctx.metrics().incr("driver.ok", 1);
                        if let Some(Value::Int(v)) = values.first() {
                            ctx.metrics().incr("driver.last_value", 0);
                            // store last value crudely via counter reset
                            let _ = v;
                        }
                    }
                    Err(_) => {
                        ctx.metrics().incr("driver.err", 1);
                    }
                }
                self.next(ctx);
            }
        }
    }
    impl Process for Driver {
        fn on_start(&mut self, ctx: &mut Ctx) {
            self.next(ctx);
        }
        fn on_message(&mut self, ctx: &mut Ctx, _from: ProcessId, payload: Payload) {
            let completions = self.router.on_message(ctx, &payload);
            self.absorb(ctx, completions);
        }
        fn on_timer(&mut self, ctx: &mut Ctx, tag: u64) {
            if let Some(completions) = self.router.on_timer(ctx, tag) {
                self.absorb(ctx, completions);
            }
        }
    }

    fn spawn_driver(
        sim: &mut Sim,
        node: tca_sim::NodeId,
        directory: ProcessId,
        plan: Vec<(ActorId, String, Vec<Value>)>,
    ) {
        sim.spawn(node, "driver", move |_| {
            Box::new(Driver {
                router: ActorRouter::new(directory),
                plan: plan.clone(),
                at: 0,
            })
        });
    }

    #[test]
    fn single_actor_invocations() {
        let mut sim = Sim::with_seed(71);
        let nd = sim.add_node();
        let ns = sim.add_node();
        let nc = sim.add_node();
        let directory = sim.spawn(nd, "dir", Directory::factory());
        sim.spawn(
            ns,
            "silo",
            ActorSilo::factory(registry(), SiloConfig::volatile(directory)),
        );
        spawn_driver(
            &mut sim,
            nc,
            directory,
            vec![
                (
                    ActorId::new("account", "a"),
                    "deposit".into(),
                    vec![Value::Int(50)],
                ),
                (
                    ActorId::new("account", "a"),
                    "withdraw".into(),
                    vec![Value::Int(30)],
                ),
                (
                    ActorId::new("account", "a"),
                    "withdraw".into(),
                    vec![Value::Int(1000)],
                ),
            ],
        );
        sim.run_for(SimDuration::from_millis(100));
        assert_eq!(sim.metrics().counter("driver.ok"), 2);
        assert_eq!(sim.metrics().counter("driver.err"), 1);
        assert_eq!(sim.metrics().counter("actor.activations"), 1);
    }

    #[test]
    fn cross_actor_orchestration() {
        let mut sim = Sim::with_seed(72);
        let nd = sim.add_node();
        let ns1 = sim.add_node();
        let ns2 = sim.add_node();
        let nc = sim.add_node();
        let directory = sim.spawn(nd, "dir", Directory::factory());
        sim.spawn(
            ns1,
            "silo1",
            ActorSilo::factory(registry(), SiloConfig::volatile(directory)),
        );
        sim.spawn(
            ns2,
            "silo2",
            ActorSilo::factory(registry(), SiloConfig::volatile(directory)),
        );
        spawn_driver(
            &mut sim,
            nc,
            directory,
            vec![(
                ActorId::new("transfer", "t1"),
                "transfer".into(),
                vec![Value::from("a"), Value::from("b"), Value::Int(40)],
            )],
        );
        sim.run_for(SimDuration::from_millis(200));
        assert_eq!(sim.metrics().counter("driver.ok"), 1);
        // account/a (100-40) and account/b (100+40) plus transfer actor.
        assert_eq!(sim.metrics().counter("actor.activations"), 3);
    }

    #[test]
    fn a_rerouted_invocation_keeps_its_wire_id() {
        let mut sim = Sim::with_seed(76);
        let nd = sim.add_node();
        let ns = sim.add_node();
        let nc = sim.add_node();
        let directory = sim.spawn(nd, "dir", Directory::factory());
        sim.spawn(
            ns,
            "silo",
            ActorSilo::factory(registry(), SiloConfig::volatile(directory)),
        );
        // The silo stays up, but its answers to the deposit's four
        // attempts are lost: the router's call fails, and the router
        // looks the actor up again and re-sends the deposit to the same
        // silo. Sent under the first call's wire id, it is answered from
        // the silo's dedup window; under a fresh one, it would run again
        // and leave 200, enough for the withdrawal.
        for nth in 0..4 {
            sim.network_mut()
                .script_fate(ns, nc, nth, ScriptedFate::Drop);
        }
        spawn_driver(
            &mut sim,
            nc,
            directory,
            vec![
                (
                    ActorId::new("account", "a"),
                    "deposit".into(),
                    vec![Value::Int(50)],
                ),
                (
                    ActorId::new("account", "a"),
                    "withdraw".into(),
                    vec![Value::Int(160)],
                ),
            ],
        );
        sim.run_for(SimDuration::from_millis(500));
        assert_eq!(sim.metrics().counter("actor.rerouted"), 1);
        assert_eq!(sim.metrics().counter("actor.route_gave_up"), 0);
        assert_eq!(
            sim.metrics().counter("driver.err"),
            1,
            "the deposit ran once: 150 does not cover 160"
        );
        assert_eq!(sim.metrics().counter("driver.ok"), 1, "the deposit");
    }

    #[test]
    fn volatile_actor_loses_state_on_crash() {
        let mut sim = Sim::with_seed(73);
        let nd = sim.add_node();
        let ns = sim.add_node();
        let nc = sim.add_node();
        let directory = sim.spawn(nd, "dir", Directory::factory());
        sim.spawn(
            ns,
            "silo",
            ActorSilo::factory(registry(), SiloConfig::volatile(directory)),
        );
        // Deposit 50 (balance 150), crash, then withdraw 120: with volatile
        // state the balance reset to 100, so the withdraw fails.
        spawn_driver(
            &mut sim,
            nc,
            directory,
            vec![(
                ActorId::new("account", "a"),
                "deposit".into(),
                vec![Value::Int(50)],
            )],
        );
        sim.run_for(SimDuration::from_millis(50));
        sim.crash_node(ns);
        sim.run_for(SimDuration::from_millis(50));
        sim.restart_node(ns);
        sim.run_for(SimDuration::from_millis(50));
        spawn_driver(
            &mut sim,
            nc,
            directory,
            vec![(
                ActorId::new("account", "a"),
                "withdraw".into(),
                vec![Value::Int(120)],
            )],
        );
        sim.run_for(SimDuration::from_millis(100));
        assert_eq!(sim.metrics().counter("driver.err"), 1, "state was lost");
    }

    #[test]
    fn persistent_actor_survives_crash() {
        let mut sim = Sim::with_seed(74);
        let nd = sim.add_node();
        let ns = sim.add_node();
        let ndb = sim.add_node();
        let nc = sim.add_node();
        let directory = sim.spawn(nd, "dir", Directory::factory());
        let db = sim.spawn(
            ndb,
            "state-db",
            DbServer::factory("statedb", DbServerConfig::default(), actor_state_registry()),
        );
        sim.spawn(
            ns,
            "silo",
            ActorSilo::factory(registry(), SiloConfig::persistent(directory, db)),
        );
        spawn_driver(
            &mut sim,
            nc,
            directory,
            vec![(
                ActorId::new("account", "a"),
                "deposit".into(),
                vec![Value::Int(50)],
            )],
        );
        sim.run_for(SimDuration::from_millis(50));
        sim.crash_node(ns);
        sim.run_for(SimDuration::from_millis(50));
        sim.restart_node(ns);
        sim.run_for(SimDuration::from_millis(50));
        // Balance should be 150 now: withdraw 120 succeeds.
        spawn_driver(
            &mut sim,
            nc,
            directory,
            vec![(
                ActorId::new("account", "a"),
                "withdraw".into(),
                vec![Value::Int(120)],
            )],
        );
        sim.run_for(SimDuration::from_millis(100));
        assert_eq!(sim.metrics().counter("driver.ok"), 2);
        assert_eq!(sim.metrics().counter("driver.err"), 0);
    }

    #[test]
    fn actor_migrates_to_surviving_silo() {
        let mut sim = Sim::with_seed(75);
        let nd = sim.add_node();
        let ns1 = sim.add_node();
        let ns2 = sim.add_node();
        let ndb = sim.add_node();
        let nc = sim.add_node();
        let directory = sim.spawn(nd, "dir", Directory::factory());
        let db = sim.spawn(
            ndb,
            "state-db",
            DbServer::factory("statedb", DbServerConfig::default(), actor_state_registry()),
        );
        sim.spawn(
            ns1,
            "silo1",
            ActorSilo::factory(registry(), SiloConfig::persistent(directory, db)),
        );
        sim.spawn(
            ns2,
            "silo2",
            ActorSilo::factory(registry(), SiloConfig::persistent(directory, db)),
        );
        // First call lands somewhere; crash BOTH silos' candidate by
        // crashing whichever got the placement — simpler: crash silo 1
        // and 2 alternately is overkill; crash ns1 (50% chance it hosted
        // the actor; the directory reassigns in either case).
        spawn_driver(
            &mut sim,
            nc,
            directory,
            vec![(
                ActorId::new("account", "m"),
                "deposit".into(),
                vec![Value::Int(10)],
            )],
        );
        sim.run_for(SimDuration::from_millis(50));
        sim.crash_node(ns1);
        // Give the directory time to declare the silo dead.
        sim.run_for(SimDuration::from_millis(100));
        spawn_driver(
            &mut sim,
            nc,
            directory,
            vec![(
                ActorId::new("account", "m"),
                "deposit".into(),
                vec![Value::Int(10)],
            )],
        );
        sim.run_for(SimDuration::from_millis(300));
        // Both deposits applied exactly once each despite the crash.
        assert_eq!(sim.metrics().counter("driver.ok"), 2);
        spawn_driver(
            &mut sim,
            nc,
            directory,
            vec![(
                ActorId::new("account", "m"),
                "withdraw".into(),
                vec![Value::Int(120)],
            )],
        );
        sim.run_for(SimDuration::from_millis(200));
        assert_eq!(
            sim.metrics().counter("driver.ok"),
            3,
            "balance 100+10+10 covers 120: state migrated with the actor"
        );
    }
}
