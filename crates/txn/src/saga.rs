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
//! The orchestrator's instance table is a durable `ChainJournal`: every
//! handler changes the journaled entry in place, and after a crash the
//! orchestrator resumes the unfinished sagas from it, oldest first, each
//! answering its journaled caller when it finishes. A re-sent
//! [`StartSaga`] (same caller and call id) never starts a second saga: it
//! is answered with the recorded outcome once the saga has finished and
//! ignored while it runs. Step execution on resume is at-least-once (as
//! in most production saga frameworks), so step procedures should be
//! idempotent or tolerate re-execution.

use std::rc::Rc;
use tca_sim::DetHashMap as HashMap;

use tca_messaging::rpc::{reply_call, reply_to, RetryPolicy, RpcClient, RpcEvent, RpcRequest};
use tca_models::microservice::Vars;
use tca_sim::{Boot, Ctx, Payload, Process, ProcessId, SimDuration, SpanId, SpanKind};
use tca_storage::{DbMsg, DbReply, DbResponse, Value};

use crate::chain_journal::{ChainJournal, Verdict};

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

/// A saga instance's journaled progress.
struct SagaRecord {
    saga: String,
    vars: Vars,
    /// Forward steps `0..cursor` have committed.
    cursor: usize,
    phase: Phase,
    /// Steps `0..comp_cursor` may still need their undo.
    comp_cursor: usize,
    /// Why the saga compensates; moved into its verdict when it finishes.
    failure: Option<String>,
}

impl SagaRecord {
    /// The next call of the saga `def`: database, procedure, arguments and
    /// `(phase tag << 32) | step index`, moving the compensation cursor
    /// past steps with nothing to undo. `None` once the saga is over. The
    /// cursors count only answered calls: a resumed saga re-sends the call
    /// that was in flight, under the same wire id.
    fn next_call(&mut self, def: &SagaDef) -> Option<(ProcessId, String, Vec<Value>, u64)> {
        match self.phase {
            Phase::Forward => {
                let step = def.steps.get(self.cursor)?;
                let args = (step.args)(&self.vars);
                Some((
                    step.db,
                    step.proc.clone(),
                    args,
                    (1 << 32) | self.cursor as u64,
                ))
            }
            Phase::Compensating => {
                while self.comp_cursor > 0 && def.steps[self.comp_cursor - 1].compensation.is_none()
                {
                    self.comp_cursor -= 1;
                }
                let index = self.comp_cursor.checked_sub(1)?;
                let step = &def.steps[index];
                let (proc, args) = step.compensation.as_ref()?;
                let tag = (2 << 32) | index as u64;
                Some((step.db, proc.clone(), args(&self.vars), tag))
            }
        }
    }
}

/// Trace spans of a running instance. A resumed instance has lost its
/// pre-crash tree and runs without a saga span.
#[derive(Default)]
struct Spans {
    /// Covers the whole saga (fresh starts only).
    saga: Option<SpanId>,
    /// The step or compensation currently in flight.
    step: Option<SpanId>,
}

/// The saga orchestrator process.
pub struct SagaOrchestrator {
    defs: Rc<HashMap<String, SagaDef>>,
    rpc: RpcClient,
    journal: ChainJournal<SagaRecord>,
    spans: HashMap<u64, Spans>,
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
            Box::new(SagaOrchestrator {
                defs: Rc::clone(&defs),
                rpc: RpcClient::new(),
                journal: ChainJournal::open(boot.disk, "saga_journal", "saga_floor"),
                spans: HashMap::default(),
                retry,
            })
        }
    }

    /// The ids of the saga instances not yet terminal, ascending — the
    /// no-stuck audit: after faults heal and the system quiesces, there
    /// must be none.
    pub fn open_instances(&self) -> Vec<u64> {
        self.journal.unfinished()
    }

    /// Issue the current step (forward) or compensation (backward), or
    /// finish the saga when none is left.
    fn advance(&mut self, ctx: &mut Ctx, id: u64) {
        let call = {
            let Some(mut record) = self.journal.get_mut(id) else {
                return;
            };
            match self.defs.get(&record.saga) {
                // A journaled instance can name a saga this incarnation
                // no longer defines (e.g. a deployment shrank the def set
                // before recovery). The orchestrator must degrade, not
                // panic: fail the instance back to its caller and count it.
                None => {
                    ctx.metrics().incr("saga.def_missing", 1);
                    record.failure = Some(format!("unknown saga `{}` at recovery", record.saga));
                    Err(false)
                }
                Some(def) => record.next_call(def).ok_or(record.phase == Phase::Forward),
            }
        };
        let (db, proc, args, tag) = match call {
            Ok(call) => call,
            Err(committed) => return self.finish(ctx, id, committed),
        };
        // Deterministic idempotency key per (instance, phase, step): a
        // resumed orchestrator re-issues the same wire id, so the
        // database's dedup cache replays the result instead of
        // re-executing the step (exactly-once steps across crashes).
        let wire_id = 0x5a6a_0000u64
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(id)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(tag);
        // Step spans are children of the saga span; the RPC (with its
        // retries) nests inside the step.
        let kind = if tag >> 32 == 1 {
            SpanKind::SagaStep
        } else {
            SpanKind::SagaCompensation
        };
        let spans = self.spans.entry(id).or_default();
        ctx.trace_enter(spans.saga);
        spans.step = ctx.trace_span(kind, || proc.clone());
        ctx.trace_exit(spans.saga);
        let step_span = spans.step;
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
    }

    fn on_step_result(&mut self, ctx: &mut Ctx, id: u64, result: Result<Vec<Value>, String>) {
        {
            let Some(mut record) = self.journal.get_mut(id) else {
                return;
            };
            if let Some(spans) = self.spans.get_mut(&id) {
                ctx.trace_span_end(spans.step.take());
            }
            match (record.phase, result) {
                (Phase::Forward, Ok(values)) => {
                    let def = self.defs.get(&record.saga).expect("advance found the def");
                    if let Some(bind) = def.steps[record.cursor].bind {
                        let value = values.first().cloned().unwrap_or(Value::Null);
                        record.vars.set(bind, value);
                    }
                    record.cursor += 1;
                    ctx.metrics().incr("saga.steps", 1);
                }
                (Phase::Forward, Err(error)) => {
                    record.phase = Phase::Compensating;
                    record.comp_cursor = record.cursor;
                    record.failure = Some(error);
                }
                // Compensations must not fail logically; a transport
                // failure is retried by rpc. A CallFailed here indicates
                // a non-idempotent compensation — count it loudly.
                (Phase::Compensating, result) => {
                    record.comp_cursor -= 1;
                    let metric = if result.is_err() {
                        "saga.compensation_failures"
                    } else {
                        "saga.compensations"
                    };
                    ctx.metrics().incr(metric, 1);
                }
            }
        }
        self.advance(ctx, id);
    }

    fn finish(&mut self, ctx: &mut Ctx, id: u64, committed: bool) {
        let Some(error) = self.journal.get_mut(id).map(|mut r| r.failure.take()) else {
            return;
        };
        let verdict = Verdict {
            committed,
            error: error.clone(),
        };
        let Some((client, call_id)) = self.journal.finish(id, verdict).map(|entry| entry.caller)
        else {
            return;
        };
        let spans = self.spans.remove(&id).unwrap_or_default();
        let metric = if committed {
            "saga.committed"
        } else {
            "saga.compensated"
        };
        ctx.metrics().incr(metric, 1);
        // The reply hop is part of the saga span; end the span once the
        // outcome has been handed to the network.
        ctx.trace_enter(spans.saga);
        let outcome = Payload::new(SagaOutcome { committed, error });
        reply_call(ctx, client, call_id, outcome);
        ctx.trace_exit(spans.saga);
        ctx.trace_span_end(spans.saga);
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
        // Resume the journaled instances, oldest first.
        for id in self.journal.unfinished() {
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
        // A re-sent start is answered once its saga has finished, and
        // ignored while it runs: it never starts a second saga.
        let caller = (from, request.call_id);
        if let Some((_, verdict)) = self.journal.started(caller) {
            if let Some(Verdict { committed, error }) = verdict {
                reply_to(
                    ctx,
                    from,
                    request,
                    Payload::new(SagaOutcome { committed, error }),
                );
            }
            return;
        }
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
        let record = SagaRecord {
            saga: start.saga.clone(),
            vars: Vars::from_args(&start.args),
            cursor: 0,
            phase: Phase::Forward,
            comp_cursor: 0,
            failure: None,
        };
        let id = self.journal.start(caller, record);
        let saga = ctx.trace_span(SpanKind::Saga, || format!("saga {}", start.saga));
        self.spans.insert(id, Spans { saga, step: None });
        ctx.metrics().incr("saga.started", 1);
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
        assert_eq!(orch.open_instances(), [], "no instance left stuck");
    }

    /// A client's `StartSaga` times out while the orchestrator is down and
    /// is re-sent under the same call id just after the orchestrator
    /// restarts and resumes the journaled saga. The re-sent start must not
    /// fork a second saga: stock moves once and the client hears one
    /// outcome.
    #[test]
    fn a_resent_start_after_a_restart_runs_one_saga() {
        let (mut sim, orchestrator, stock_db, _) = world(5, 100);
        let nc = sim.add_node();
        sim.spawn(nc, "client", move |_| {
            Box::new(Client {
                orchestrator,
                plan: vec![checkout(("item1", "alice", 10))],
                rpc: RpcClient::new(),
            })
        });
        let orch_node = sim.node_of(orchestrator);
        // Down mid-saga, back up just before the client's first retry
        // (its timeout is 50 ms), so the retry lands while the resumed
        // saga runs.
        sim.schedule_crash(tca_sim::SimTime::from_nanos(1_500_000), orch_node);
        sim.schedule_restart(tca_sim::SimTime::from_nanos(49_500_000), orch_node);
        sim.run_for(SimDuration::from_millis(300));
        let counter = |name| sim.metrics().counter(name);
        assert_eq!(counter("saga.resumed"), 1, "crashed mid-saga");
        assert!(counter("rpc.retries") >= 1, "the client re-sent its start");
        assert_eq!(counter("saga.started"), 1, "one saga started");
        assert_eq!(counter("saga.committed"), 1);
        let stock = sim
            .inspect::<DbServer>(stock_db)
            .and_then(|db| db.engine().peek("item1"));
        assert_eq!(stock, Some(Value::Int(4)), "stock moved once");
        let outcomes = counter("client.committed") + counter("client.compensated");
        assert_eq!(outcomes, 1, "the client heard one outcome");
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
