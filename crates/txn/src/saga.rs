//! Orchestrated sagas (Garcia-Molina & Salem \[28\]; §4.2 "Microservices").
//!
//! A saga splits a cross-service transaction into a sequence of local
//! transactions, each with a registered *compensation*. The orchestrator
//! runs steps forward; on any failure it runs the compensations of the
//! completed steps in reverse. The result is atomicity-by-compensation
//! with **no isolation**: other requests can observe the intermediate
//! states between steps — the fundamental trade the BASE world makes, and
//! what experiment E3 compares against 2PC.
//!
//! The orchestrator journals progress durably; after a crash it resumes
//! in-flight sagas from the journal. Step execution on resume is
//! at-least-once (as in most production saga frameworks), so step
//! procedures should be idempotent or tolerate re-execution.

use std::cell::RefCell;
use std::rc::Rc;
use tca_sim::DetHashMap as HashMap;

use tca_messaging::rpc::{reply_call, reply_to, RetryPolicy, RpcClient, RpcEvent, RpcRequest};
use tca_models::microservice::Vars;
use tca_sim::{Boot, Ctx, Payload, Process, ProcessId, SimDuration, SpanId, SpanKind};
use tca_storage::{DbMsg, DbReply, DbResponse, Value};

/// Argument builder over the saga's variable context.
pub type ArgsFn = Rc<dyn Fn(&Vars) -> Vec<Value>>;

/// One saga step: a stored-procedure call plus its compensation.
#[derive(Clone)]
pub struct SagaStep {
    /// Step name (for audits).
    pub name: &'static str,
    /// The service database the step's procedure runs on.
    pub db: ProcessId,
    /// Forward procedure.
    pub proc: String,
    /// Forward arguments.
    pub args: ArgsFn,
    /// Bind `result\[0\]` to this variable on success.
    pub bind: Option<&'static str>,
    /// Compensating procedure and arguments (None = step needs no undo).
    pub compensation: Option<(String, ArgsFn)>,
}

impl SagaStep {
    /// Convenience constructor.
    pub fn new(
        name: &'static str,
        db: ProcessId,
        proc: &str,
        args: impl Fn(&Vars) -> Vec<Value> + 'static,
    ) -> Self {
        SagaStep {
            name,
            db,
            proc: proc.to_owned(),
            args: Rc::new(args),
            bind: None,
            compensation: None,
        }
    }

    /// Bind the step result to a variable.
    pub fn bind(mut self, var: &'static str) -> Self {
        self.bind = Some(var);
        self
    }

    /// Attach a compensation.
    pub fn compensate(mut self, proc: &str, args: impl Fn(&Vars) -> Vec<Value> + 'static) -> Self {
        self.compensation = Some((proc.to_owned(), Rc::new(args)));
        self
    }
}

/// A named saga definition.
#[derive(Clone)]
pub struct SagaDef {
    /// Saga name.
    pub name: String,
    /// Ordered steps.
    pub steps: Vec<SagaStep>,
}

/// Client request: start a saga (inside an [`RpcRequest`]).
#[derive(Debug, Clone)]
pub struct StartSaga {
    /// Registered saga name.
    pub saga: String,
    /// Input arguments (`$0`, `$1`, … in step args).
    pub args: Vec<Value>,
}

/// Saga outcome (inside an `RpcReply`).
#[derive(Debug, Clone)]
pub struct SagaOutcome {
    /// True when all steps committed; false when compensated.
    pub committed: bool,
    /// The error that triggered compensation, if any.
    pub error: Option<String>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Forward,
    Compensating,
}

/// Durable journal entry for one saga instance.
#[derive(Clone)]
struct JournalEntry {
    saga: String,
    vars: Vars,
    cursor: usize,
    phase: Phase,
    comp_cursor: usize,
    failure: Option<String>,
}

#[derive(Clone, Default)]
struct SagaJournal {
    inner: Rc<RefCell<HashMap<u64, JournalEntry>>>,
}

struct Instance {
    entry: JournalEntry,
    caller: Option<(ProcessId, u64)>,
    /// Trace span covering the whole saga (fresh starts only; resumed
    /// instances have lost their pre-crash tree and run untraced).
    span: Option<SpanId>,
    /// Trace span of the step or compensation currently in flight.
    step_span: Option<SpanId>,
}

/// The saga orchestrator process.
pub struct SagaOrchestrator {
    defs: Rc<HashMap<String, SagaDef>>,
    rpc: RpcClient,
    journal: SagaJournal,
    instances: HashMap<u64, Instance>,
    next_instance: u64,
    /// Durable high-water mark of allocated instance ids. The journal
    /// alone cannot provide this: finished sagas are *erased* from it, so
    /// an orchestrator that crashes and restarts within the same virtual
    /// nanosecond (same boot epoch) would re-allocate a finished saga's
    /// id — and since step idempotency keys derive from the id, the
    /// databases would replay the dead saga's cached replies instead of
    /// executing the new one.
    last_id: Rc<RefCell<u64>>,
    retry: RetryPolicy,
}

impl SagaOrchestrator {
    /// Process factory; the journal survives crashes in the node disk.
    pub fn factory(defs: Vec<SagaDef>) -> impl FnMut(&mut Boot) -> Box<dyn Process> {
        Self::factory_with_retry(defs, RetryPolicy::retrying(6, SimDuration::from_millis(10)))
    }

    /// Like [`SagaOrchestrator::factory`] but with an explicit step retry
    /// policy. Torture runs use a generous budget so a partition window
    /// longer than the default 60 ms of retries does not masquerade as a
    /// logical step failure (which would trigger spurious compensation).
    pub fn factory_with_retry(
        defs: Vec<SagaDef>,
        retry: RetryPolicy,
    ) -> impl FnMut(&mut Boot) -> Box<dyn Process> {
        let defs: Rc<HashMap<String, SagaDef>> =
            Rc::new(defs.into_iter().map(|d| (d.name.clone(), d)).collect());
        move |boot| {
            let journal: SagaJournal = boot.disk.durable("saga_journal");
            // Resume in-flight instances (no caller to answer anymore —
            // clients retry with a new request; dedup is their concern).
            let mut instances = HashMap::default();
            let mut max_id = 0;
            for (&id, entry) in journal.inner.borrow().iter() {
                max_id = max_id.max(id);
                instances.insert(
                    id,
                    Instance {
                        entry: entry.clone(),
                        caller: None,
                        span: None,
                        step_span: None,
                    },
                );
            }
            // Instance ids must be unique across restarts, not just within
            // one incarnation: step idempotency keys are derived from the
            // instance id, so a restarted orchestrator that reused the id
            // of a saga that finished (and was erased) before the crash
            // would collide with its keys — and the databases would replay
            // the dead saga's cached step replies instead of executing.
            // Epoch the counter on boot time, like the 2PC coordinator.
            // The epoch is not enough on its own: a crash + restart within
            // one virtual nanosecond recomputes the same epoch, and erased
            // (finished) instances no longer bump `max_id` — so the floor
            // of every id ever allocated is kept durably too.
            let epoch = boot.now.as_nanos() << 8;
            let last_id: Rc<RefCell<u64>> = boot.disk.durable("saga_last_id");
            let floor = *last_id.borrow();
            Box::new(SagaOrchestrator {
                defs: Rc::clone(&defs),
                rpc: RpcClient::new(),
                journal,
                instances,
                next_instance: max_id.max(epoch).max(floor) + 1,
                last_id,
                retry,
            })
        }
    }

    /// Number of saga instances not yet terminal — the no-stuck audit:
    /// after faults heal and the system quiesces, this must be zero.
    pub fn open_instances(&self) -> usize {
        self.instances.len()
    }

    fn persist(&self, id: u64) {
        if let Some(instance) = self.instances.get(&id) {
            self.journal
                .inner
                .borrow_mut()
                .insert(id, instance.entry.clone());
        }
    }

    fn erase(&self, id: u64) {
        self.journal.inner.borrow_mut().remove(&id);
    }

    /// Issue the current step (forward) or compensation (backward).
    fn advance(&mut self, ctx: &mut Ctx, id: u64) {
        {
            let (db, proc, args) = {
                let Some(instance) = self.instances.get_mut(&id) else {
                    return;
                };
                // A journaled instance can name a saga this incarnation no
                // longer defines (e.g. a deployment shrank the def set
                // before recovery). The orchestrator must degrade, not
                // panic: fail the instance back to its caller and count it.
                let def = match self.defs.get(&instance.entry.saga) {
                    Some(def) => def.clone(),
                    None => {
                        ctx.metrics().incr("saga.def_missing", 1);
                        instance.entry.failure = Some(format!(
                            "unknown saga `{}` at recovery",
                            instance.entry.saga
                        ));
                        self.finish(ctx, id, false);
                        return;
                    }
                };
                match instance.entry.phase {
                    Phase::Forward => {
                        if instance.entry.cursor >= def.steps.len() {
                            self.finish(ctx, id, true);
                            return;
                        }
                        let step = &def.steps[instance.entry.cursor];
                        (
                            step.db,
                            step.proc.clone(),
                            (step.args)(&instance.entry.vars),
                        )
                    }
                    Phase::Compensating => {
                        // Walk backward to the next step with a compensation.
                        loop {
                            if instance.entry.comp_cursor == 0 {
                                self.finish(ctx, id, false);
                                return;
                            }
                            instance.entry.comp_cursor -= 1;
                            let step = &def.steps[instance.entry.comp_cursor];
                            if let Some((proc, args)) = &step.compensation {
                                break (step.db, proc.clone(), args(&instance.entry.vars));
                            }
                        }
                    }
                }
            };
            self.persist(id);
            // Deterministic idempotency key per (instance, phase, step):
            // a resumed orchestrator re-issues the same wire id, so the
            // database's dedup cache replays the result instead of
            // re-executing the step (exactly-once steps across crashes).
            let (phase_tag, step_index, instance_span) = {
                let instance = self.instances.get(&id).expect("present");
                match instance.entry.phase {
                    Phase::Forward => (1u64, instance.entry.cursor as u64, instance.span),
                    Phase::Compensating => (2u64, instance.entry.comp_cursor as u64, instance.span),
                }
            };
            let wire_id = 0x5a6a_0000u64
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(id)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add((phase_tag << 32) | step_index);
            // Step spans are children of the saga span; the RPC (with its
            // retries) nests inside the step.
            let kind = if phase_tag == 1 {
                SpanKind::SagaStep
            } else {
                SpanKind::SagaCompensation
            };
            ctx.trace_enter(instance_span);
            let step_span = ctx.trace_span(kind, || proc.clone());
            ctx.trace_exit(instance_span);
            ctx.trace_enter(step_span);
            self.rpc.call_with_id(
                ctx,
                db,
                Payload::new(DbMsg::call(proc, args)),
                self.retry,
                id,
                wire_id,
            );
            ctx.trace_exit(step_span);
            if let Some(instance) = self.instances.get_mut(&id) {
                instance.step_span = step_span;
            }
        }
    }

    fn on_step_result(&mut self, ctx: &mut Ctx, id: u64, result: Result<Vec<Value>, String>) {
        let phase = {
            let Some(instance) = self.instances.get_mut(&id) else {
                return;
            };
            ctx.trace_span_end(instance.step_span.take());
            instance.entry.phase
        };
        match phase {
            Phase::Forward => match result {
                Ok(values) => {
                    let instance = self.instances.get_mut(&id).expect("present");
                    let def = self.defs.get(&instance.entry.saga).expect("def");
                    if let Some(bind) = def.steps[instance.entry.cursor].bind {
                        instance
                            .entry
                            .vars
                            .set(bind, values.first().cloned().unwrap_or(Value::Null));
                    }
                    instance.entry.cursor += 1;
                    ctx.metrics().incr("saga.steps", 1);
                    self.persist(id);
                    self.advance(ctx, id);
                }
                Err(error) => {
                    let instance = self.instances.get_mut(&id).expect("present");
                    instance.entry.phase = Phase::Compensating;
                    instance.entry.comp_cursor = instance.entry.cursor;
                    instance.entry.failure = Some(error);
                    self.persist(id);
                    self.advance(ctx, id);
                }
            },
            Phase::Compensating => {
                // Compensations must not fail logically; a transport
                // failure is retried by rpc. A CallFailed here indicates a
                // non-idempotent compensation — count it loudly.
                if result.is_err() {
                    ctx.metrics().incr("saga.compensation_failures", 1);
                } else {
                    ctx.metrics().incr("saga.compensations", 1);
                }
                self.advance(ctx, id);
            }
        }
    }

    fn finish(&mut self, ctx: &mut Ctx, id: u64, committed: bool) {
        let Some(instance) = self.instances.remove(&id) else {
            return;
        };
        self.erase(id);
        let metric = if committed {
            "saga.committed"
        } else {
            "saga.compensated"
        };
        ctx.metrics().incr(metric, 1);
        if let Some((client, call_id)) = instance.caller {
            // The reply hop is part of the saga span; end the span once the
            // outcome has been handed to the network.
            ctx.trace_enter(instance.span);
            reply_call(
                ctx,
                client,
                call_id,
                Payload::new(SagaOutcome {
                    committed,
                    error: instance.entry.failure,
                }),
            );
            ctx.trace_exit(instance.span);
        }
        ctx.trace_span_end(instance.span);
    }

    fn handle_db_event(&mut self, ctx: &mut Ctx, event: RpcEvent) {
        match event {
            RpcEvent::Reply { user_tag, body, .. } => {
                let result = match &body.expect::<DbReply>().resp {
                    DbResponse::CallOk { results } => Ok(results.clone()),
                    DbResponse::CallFailed { error } => Err(error.clone()),
                    DbResponse::Aborted { reason } => Err(format!("db abort: {reason}")),
                    other => Err(format!("unexpected response {other:?}")),
                };
                self.on_step_result(ctx, user_tag, result);
            }
            RpcEvent::Failed { user_tag, .. } => {
                self.on_step_result(ctx, user_tag, Err("service unreachable".into()));
            }
        }
    }
}

impl Process for SagaOrchestrator {
    fn on_start(&mut self, ctx: &mut Ctx) {
        // Resume journaled instances.
        let ids: Vec<u64> = self.instances.keys().copied().collect();
        for id in ids {
            ctx.metrics().incr("saga.resumed", 1);
            self.advance(ctx, id);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx, from: ProcessId, payload: Payload) {
        if let Some(event) = self.rpc.on_message(ctx, &payload) {
            self.handle_db_event(ctx, event);
            return;
        }
        let Some(request) = payload.downcast_ref::<RpcRequest>() else {
            return;
        };
        let Some(start) = request.body.downcast_ref::<StartSaga>() else {
            return;
        };
        if ctx.deadline_expired() {
            // Starting a saga after the caller's deadline has lapsed
            // burns forward steps that will immediately need
            // compensation. Refuse before touching any participant.
            ctx.metrics().incr("saga.deadline_rejected", 1);
            reply_to(
                ctx,
                from,
                request,
                Payload::new(SagaOutcome {
                    committed: false,
                    error: Some("deadline expired before start".into()),
                }),
            );
            return;
        }
        if !self.defs.contains_key(&start.saga) {
            reply_to(
                ctx,
                from,
                request,
                Payload::new(SagaOutcome {
                    committed: false,
                    error: Some(format!("unknown saga `{}`", start.saga)),
                }),
            );
            return;
        }
        let id = self.next_instance;
        self.next_instance += 1;
        *self.last_id.borrow_mut() = id;
        let span = ctx.trace_span(SpanKind::Saga, || format!("saga {}", start.saga));
        self.instances.insert(
            id,
            Instance {
                entry: JournalEntry {
                    saga: start.saga.clone(),
                    vars: Vars::from_args(&start.args),
                    cursor: 0,
                    phase: Phase::Forward,
                    comp_cursor: 0,
                    failure: None,
                },
                caller: Some((from, request.call_id)),
                span,
                step_span: None,
            },
        );
        ctx.metrics().incr("saga.started", 1);
        self.persist(id);
        self.advance(ctx, id);
    }

    fn on_timer(&mut self, ctx: &mut Ctx, tag: u64) {
        if let Some(Some(event)) = self.rpc.on_timer(ctx, tag) {
            self.handle_db_event(ctx, event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worlds::{checkout_saga, payment_registry, stock_registry};
    use tca_sim::Sim;
    use tca_storage::{DbRequest, DbServer, DbServerConfig};

    /// Scripted saga client.
    struct Client {
        orchestrator: ProcessId,
        plan: Vec<StartSaga>,
        rpc: RpcClient,
    }
    impl Process for Client {
        fn on_start(&mut self, ctx: &mut Ctx) {
            for (i, start) in self.plan.clone().into_iter().enumerate() {
                self.rpc.call(
                    ctx,
                    self.orchestrator,
                    Payload::new(start),
                    RetryPolicy::retrying(5, SimDuration::from_millis(50)),
                    i as u64,
                );
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx, _from: ProcessId, payload: Payload) {
            if let Some(RpcEvent::Reply { body, .. }) = self.rpc.on_message(ctx, &payload) {
                let outcome = body.expect::<SagaOutcome>();
                let metric = if outcome.committed {
                    "client.committed"
                } else {
                    "client.compensated"
                };
                ctx.metrics().incr(metric, 1);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx, tag: u64) {
            let _ = self.rpc.on_timer(ctx, tag);
        }
    }

    fn world(stock_qty: i64, balance: i64) -> (Sim, ProcessId, ProcessId, ProcessId) {
        let mut sim = Sim::with_seed(101);
        let n1 = sim.add_node();
        let n2 = sim.add_node();
        let n3 = sim.add_node();
        let stock_db = sim.spawn(
            n1,
            "stock-db",
            DbServer::factory("stock", DbServerConfig::default(), stock_registry()),
        );
        let pay_db = sim.spawn(
            n2,
            "pay-db",
            DbServer::factory("pay", DbServerConfig::default(), payment_registry()),
        );
        sim.inject(
            stock_db,
            Payload::new(DbMsg::call(
                "seed",
                vec![Value::from("item1"), Value::Int(stock_qty)],
            )),
        );
        sim.inject(
            pay_db,
            Payload::new(DbMsg::call(
                "seed",
                vec![Value::from("alice"), Value::Int(balance)],
            )),
        );
        let orchestrator = sim.spawn(
            n3,
            "saga",
            SagaOrchestrator::factory(vec![checkout_saga(stock_db, pay_db)]),
        );
        (sim, orchestrator, stock_db, pay_db)
    }

    fn checkout(args: (&str, &str, i64)) -> StartSaga {
        StartSaga {
            saga: "checkout".into(),
            args: vec![Value::from(args.0), Value::from(args.1), Value::Int(args.2)],
        }
    }

    #[test]
    fn saga_commits_when_all_steps_succeed() {
        let (mut sim, orchestrator, _, _) = world(5, 100);
        let nc = sim.add_node();
        sim.spawn(nc, "client", move |_| {
            Box::new(Client {
                orchestrator,
                plan: vec![checkout(("item1", "alice", 30))],
                rpc: RpcClient::new(),
            })
        });
        sim.run_for(SimDuration::from_millis(200));
        assert_eq!(sim.metrics().counter("client.committed"), 1);
        assert_eq!(sim.metrics().counter("saga.compensations"), 0);
    }

    #[test]
    fn failed_step_triggers_compensation_of_completed_steps() {
        // Balance 10 < price 30: charge fails, reserve is compensated.
        let (mut sim, orchestrator, stock_db, _) = world(5, 10);
        let nc = sim.add_node();
        sim.spawn(nc, "client", move |_| {
            Box::new(Client {
                orchestrator,
                plan: vec![checkout(("item1", "alice", 30))],
                rpc: RpcClient::new(),
            })
        });
        sim.run_for(SimDuration::from_millis(200));
        assert_eq!(sim.metrics().counter("client.compensated"), 1);
        assert_eq!(sim.metrics().counter("saga.compensations"), 1);
        // Stock restored to 5.
        struct Peek {
            db: ProcessId,
        }
        impl Process for Peek {
            fn on_start(&mut self, ctx: &mut Ctx) {
                ctx.send(
                    self.db,
                    Payload::new(DbMsg {
                        token: 9,
                        req: DbRequest::Peek {
                            key: "item1".into(),
                        },
                    }),
                );
            }
            fn on_message(&mut self, ctx: &mut Ctx, _f: ProcessId, payload: Payload) {
                if let DbResponse::PeekOk {
                    value: Some(Value::Int(v)),
                } = &payload.expect::<DbReply>().resp
                {
                    ctx.metrics().incr("peek.stock", *v as u64);
                }
            }
        }
        let np = sim.add_node();
        sim.spawn(np, "peek", move |_| Box::new(Peek { db: stock_db }));
        sim.run_for(SimDuration::from_millis(50));
        assert_eq!(sim.metrics().counter("peek.stock"), 5);
    }

    #[test]
    fn first_step_failure_needs_no_compensation() {
        let (mut sim, orchestrator, _, _) = world(0, 100); // no stock
        let nc = sim.add_node();
        sim.spawn(nc, "client", move |_| {
            Box::new(Client {
                orchestrator,
                plan: vec![checkout(("item1", "alice", 30))],
                rpc: RpcClient::new(),
            })
        });
        sim.run_for(SimDuration::from_millis(200));
        assert_eq!(sim.metrics().counter("client.compensated"), 1);
        assert_eq!(sim.metrics().counter("saga.compensations"), 0);
    }

    #[test]
    fn missing_def_after_recovery_fails_instance_instead_of_panicking() {
        // The orchestrator restarts with a SHRUNK def set (a deployment
        // removed the saga between crash and recovery). Journaled
        // instances of the missing saga must fail gracefully — counted,
        // terminal, no panic.
        let mut sim = Sim::with_seed(101);
        let n1 = sim.add_node();
        let n2 = sim.add_node();
        let n3 = sim.add_node();
        let stock_db = sim.spawn(
            n1,
            "stock-db",
            DbServer::factory("stock", DbServerConfig::default(), stock_registry()),
        );
        let pay_db = sim.spawn(
            n2,
            "pay-db",
            DbServer::factory("pay", DbServerConfig::default(), payment_registry()),
        );
        sim.inject(
            stock_db,
            Payload::new(DbMsg::call(
                "seed",
                vec![Value::from("item1"), Value::Int(50)],
            )),
        );
        sim.inject(
            pay_db,
            Payload::new(DbMsg::call(
                "seed",
                vec![Value::from("alice"), Value::Int(1000)],
            )),
        );
        let mut full = SagaOrchestrator::factory(vec![checkout_saga(stock_db, pay_db)]);
        let mut empty = SagaOrchestrator::factory(vec![]);
        let orchestrator = sim.spawn(n3, "saga", move |boot| {
            if boot.restart {
                empty(boot)
            } else {
                full(boot)
            }
        });
        let nc = sim.add_node();
        sim.spawn(nc, "client", move |_| {
            Box::new(Client {
                orchestrator,
                plan: (0..5).map(|_| checkout(("item1", "alice", 10))).collect(),
                rpc: RpcClient::new(),
            })
        });
        sim.schedule_crash(tca_sim::SimTime::from_nanos(1_000_000), n3);
        sim.schedule_restart(tca_sim::SimTime::from_nanos(10_000_000), n3);
        sim.run_for(SimDuration::from_millis(500));
        assert!(
            sim.metrics().counter("saga.def_missing") >= 1,
            "resumed instances of the removed saga fail gracefully"
        );
        let orch = sim
            .inspect::<SagaOrchestrator>(orchestrator)
            .expect("orchestrator alive");
        assert_eq!(orch.open_instances(), 0, "no instance left stuck");
    }

    #[test]
    fn orchestrator_crash_resumes_saga_from_journal() {
        let (mut sim, orchestrator, _, _) = world(5, 100);
        let nc = sim.add_node();
        sim.spawn(nc, "client", move |_| {
            Box::new(Client {
                orchestrator,
                plan: (0..5).map(|_| checkout(("item1", "alice", 10))).collect(),
                rpc: RpcClient::new(),
            })
        });
        let orch_node = sim.node_of(orchestrator);
        sim.schedule_crash(tca_sim::SimTime::from_nanos(1_500_000), orch_node);
        sim.schedule_restart(tca_sim::SimTime::from_nanos(10_000_000), orch_node);
        sim.run_for(SimDuration::from_millis(500));
        // All five sagas reach a terminal state: committed (possibly via
        // resume) — none stuck.
        let done =
            sim.metrics().counter("saga.committed") + sim.metrics().counter("saga.compensated");
        assert!(done >= 5, "all sagas terminal, got {done}");
    }
}
