//! Lock-based interactive actor transactions (§4.2 "Actors": the Orleans
//! Transactions API \[46\] analogue).
//!
//! A transactional actor wraps its operations with a lock + write-buffer
//! protocol: a coordinator actor acquires locks on every participant (in
//! sorted order), executes buffered operations, then commits — classic
//! 2PL + 2PC-over-actors. The extra round trips and lock windows are the
//! "significant performance penalty" \[38, 43\] that experiment E1
//! measures against plain (non-transactional) actor calls.
//!
//! Everything here is app-level code over the unmodified actor runtime —
//! exactly how such libraries layer on Orleans.

use std::rc::Rc;

use tca_models::actor::{ActorId, ActorLogic, ActorRegistry, ActorStep};
use tca_storage::Value;

/// Application operation applied to a transactional actor's state.
pub type ApplyFn = Rc<dyn Fn(&mut Value, &str, &[Value]) -> Result<Vec<Value>, String>>;

/// Wraps an op handler into a transactional actor behaviour.
///
/// Method protocol (all app-level):
/// - `t_lock [txid]` — take the lock (Err("busy") if held by another txn).
/// - `t_exec [txid, op, args…]` — apply `op` to the *buffered* state.
/// - `t_commit [txid]` — install the buffer, release the lock.
/// - `t_abort [txid]` — discard the buffer, release the lock.
/// - any other method — non-transactional direct access to committed
///   state (no isolation against running transactions, like reading an
///   actor outside the Transactions API).
pub struct TransactionalActor {
    apply: ApplyFn,
    lock: Option<String>,
    buffer: Option<Value>,
}

impl TransactionalActor {
    /// Wrap an op handler.
    pub fn new(
        apply: impl Fn(&mut Value, &str, &[Value]) -> Result<Vec<Value>, String> + 'static,
    ) -> Self {
        TransactionalActor {
            apply: Rc::new(apply),
            lock: None,
            buffer: None,
        }
    }
}

impl ActorLogic for TransactionalActor {
    fn invoke(&mut self, state: &mut Value, method: &str, args: &[Value]) -> ActorStep {
        match method {
            "t_lock" => {
                let txid = args[0].as_str().to_owned();
                match &self.lock {
                    None => {
                        self.lock = Some(txid);
                        self.buffer = Some(state.clone());
                        ActorStep::Done(Ok(vec![]))
                    }
                    Some(holder) if *holder == txid => ActorStep::Done(Ok(vec![])),
                    Some(_) => ActorStep::Done(Err("busy".into())),
                }
            }
            "t_exec" => {
                let txid = args[0].as_str();
                if self.lock.as_deref() != Some(txid) {
                    return ActorStep::Done(Err("not lock holder".into()));
                }
                let op = args[1].as_str().to_owned();
                let op_args = &args[2..];
                let buffer = self.buffer.as_mut().expect("locked implies buffered");
                ActorStep::Done((self.apply)(buffer, &op, op_args))
            }
            "t_commit" => {
                let txid = args[0].as_str();
                if self.lock.as_deref() != Some(txid) {
                    return ActorStep::Done(Err("not lock holder".into()));
                }
                *state = self.buffer.take().expect("buffered");
                self.lock = None;
                ActorStep::Done(Ok(vec![]))
            }
            "t_abort" => {
                let txid = args[0].as_str();
                if self.lock.as_deref() == Some(txid) {
                    self.buffer = None;
                    self.lock = None;
                }
                ActorStep::Done(Ok(vec![]))
            }
            // Non-transactional direct access (committed state).
            other => ActorStep::Done((self.apply)(state, other, args)),
        }
    }
}

/// A transaction plan: ordered operations over transactional actors.
#[derive(Debug, Clone)]
pub struct TxnOp {
    /// Participant actor.
    pub actor: ActorId,
    /// Operation name (passed to the participant's `ApplyFn`).
    pub op: String,
    /// Operation arguments.
    pub args: Vec<Value>,
}

/// Coordinator actor driving lock → execute → commit over a plan.
///
/// Invoke with method `"run"`; the plan is decoded from args as triples
/// flattened by [`encode_plan`]. On lock conflict it retries a bounded
/// number of times, then aborts (Err("busy")).
pub struct TxnCoordinator {
    stage: Stage,
    participants: Vec<ActorId>,
    ops: Vec<TxnOp>,
    txid: String,
    cursor: usize,
    results: Vec<Value>,
    lock_retries: u32,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Stage {
    Idle,
    Locking,
    Executing,
    Committing,
    Aborting,
}

impl Default for TxnCoordinator {
    fn default() -> Self {
        TxnCoordinator {
            stage: Stage::Idle,
            participants: Vec::new(),
            ops: Vec::new(),
            txid: String::new(),
            cursor: 0,
            results: Vec::new(),
            lock_retries: 0,
        }
    }
}

/// Flatten a plan into argument values for the coordinator's `run`.
pub fn encode_plan(txid: &str, ops: &[TxnOp]) -> Vec<Value> {
    let mut args = vec![Value::from(txid), Value::Int(ops.len() as i64)];
    for op in ops {
        args.push(Value::from(op.actor.type_name.as_str()));
        args.push(Value::from(op.actor.key.as_str()));
        args.push(Value::from(op.op.as_str()));
        args.push(Value::Int(op.args.len() as i64));
        args.extend(op.args.iter().cloned());
    }
    args
}

fn decode_plan(args: &[Value]) -> (String, Vec<TxnOp>) {
    let txid = args[0].as_str().to_owned();
    let n = args[1].as_int() as usize;
    let mut ops = Vec::with_capacity(n);
    let mut i = 2;
    for _ in 0..n {
        let type_name = args[i].as_str().to_owned();
        let key = args[i + 1].as_str().to_owned();
        let op = args[i + 2].as_str().to_owned();
        let argc = args[i + 3].as_int() as usize;
        let op_args = args[i + 4..i + 4 + argc].to_vec();
        i += 4 + argc;
        ops.push(TxnOp {
            actor: ActorId { type_name, key },
            op,
            args: op_args,
        });
    }
    (txid, ops)
}

const MAX_LOCK_RETRIES: u32 = 16;

impl TxnCoordinator {
    fn next_step(&mut self) -> ActorStep {
        match self.stage {
            Stage::Locking => {
                if self.cursor < self.participants.len() {
                    let target = self.participants[self.cursor].clone();
                    ActorStep::Call {
                        target,
                        method: "t_lock".into(),
                        args: vec![Value::from(self.txid.as_str())],
                    }
                } else {
                    self.stage = Stage::Executing;
                    self.cursor = 0;
                    self.next_step()
                }
            }
            Stage::Executing => {
                if self.cursor < self.ops.len() {
                    let op = self.ops[self.cursor].clone();
                    let mut args =
                        vec![Value::from(self.txid.as_str()), Value::from(op.op.as_str())];
                    args.extend(op.args);
                    ActorStep::Call {
                        target: op.actor,
                        method: "t_exec".into(),
                        args,
                    }
                } else {
                    self.stage = Stage::Committing;
                    self.cursor = 0;
                    self.next_step()
                }
            }
            Stage::Committing => {
                if self.cursor < self.participants.len() {
                    let target = self.participants[self.cursor].clone();
                    ActorStep::Call {
                        target,
                        method: "t_commit".into(),
                        args: vec![Value::from(self.txid.as_str())],
                    }
                } else {
                    self.stage = Stage::Idle;
                    ActorStep::Done(Ok(self.results.clone()))
                }
            }
            Stage::Aborting => {
                if self.cursor < self.participants.len() {
                    let target = self.participants[self.cursor].clone();
                    ActorStep::Call {
                        target,
                        method: "t_abort".into(),
                        args: vec![Value::from(self.txid.as_str())],
                    }
                } else {
                    self.stage = Stage::Idle;
                    ActorStep::Done(Err("transaction aborted".into()))
                }
            }
            Stage::Idle => ActorStep::Done(Err("no transaction running".into())),
        }
    }
}

impl ActorLogic for TxnCoordinator {
    fn invoke(&mut self, _state: &mut Value, method: &str, args: &[Value]) -> ActorStep {
        if method != "run" {
            return ActorStep::Done(Err(format!("unknown method {method}")));
        }
        let (txid, ops) = decode_plan(args);
        let mut participants: Vec<ActorId> = ops.iter().map(|o| o.actor.clone()).collect();
        participants.sort_by(|a, b| {
            (a.type_name.as_str(), a.key.as_str()).cmp(&(b.type_name.as_str(), b.key.as_str()))
        });
        participants.dedup();
        self.txid = txid;
        self.ops = ops;
        self.participants = participants;
        self.stage = Stage::Locking;
        self.cursor = 0;
        self.results.clear();
        self.lock_retries = 0;
        self.next_step()
    }

    fn resume(&mut self, _state: &mut Value, result: Result<Vec<Value>, String>) -> ActorStep {
        match self.stage {
            Stage::Locking => match result {
                Ok(_) => {
                    self.cursor += 1;
                    self.next_step()
                }
                Err(e) if e == "busy" && self.lock_retries < MAX_LOCK_RETRIES => {
                    self.lock_retries += 1;
                    // Retry the same lock immediately (the extra hop is
                    // itself backoff in a distributed setting).
                    self.next_step()
                }
                Err(_) => {
                    // Release everything acquired so far.
                    self.participants.truncate(self.cursor);
                    self.stage = Stage::Aborting;
                    self.cursor = 0;
                    if self.participants.is_empty() {
                        self.stage = Stage::Idle;
                        return ActorStep::Done(Err("transaction aborted".into()));
                    }
                    self.next_step()
                }
            },
            Stage::Executing => match result {
                Ok(values) => {
                    self.results.extend(values);
                    self.cursor += 1;
                    self.next_step()
                }
                Err(_) => {
                    self.stage = Stage::Aborting;
                    self.cursor = 0;
                    self.next_step()
                }
            },
            Stage::Committing | Stage::Aborting => {
                // Commit/abort acks; failures here are counted but the
                // protocol marches on (participants self-heal via t_abort
                // idempotency).
                self.cursor += 1;
                self.next_step()
            }
            Stage::Idle => ActorStep::Done(Err("unexpected resume".into())),
        }
    }
}

/// The standard transactional-bank registry: `account` actors wrapping a
/// balance with debit/credit/read ops, plus `txncoord` coordinators.
/// Non-transactional direct ops remain available for the E1 baseline.
pub fn transactional_bank_registry(initial_balance: i64) -> ActorRegistry {
    let ops = move |state: &mut Value, op: &str, args: &[Value]| -> Result<Vec<Value>, String> {
        let balance = state.as_int();
        match op {
            "debit" => {
                let amount = args[0].as_int();
                if balance < amount {
                    return Err("insufficient".into());
                }
                *state = Value::Int(balance - amount);
                Ok(vec![state.clone()])
            }
            "credit" => {
                *state = Value::Int(balance + args[0].as_int());
                Ok(vec![state.clone()])
            }
            "read" => Ok(vec![state.clone()]),
            other => Err(format!("unknown op {other}")),
        }
    };
    ActorRegistry::new()
        .with(
            "account",
            move || Box::new(TransactionalActor::new(ops)),
            move |_| Value::Int(initial_balance),
        )
        .with(
            "txncoord",
            || Box::<TxnCoordinator>::default(),
            |_| Value::Null,
        )
}

/// Build the `run` invocation for a transfer transaction.
pub fn transfer_plan(txid: &str, from: &str, to: &str, amount: i64) -> Vec<Value> {
    encode_plan(
        txid,
        &[
            TxnOp {
                actor: ActorId::new("account", from),
                op: "debit".into(),
                args: vec![Value::Int(amount)],
            },
            TxnOp {
                actor: ActorId::new("account", to),
                op: "credit".into(),
                args: vec![Value::Int(amount)],
            },
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tca_models::actor::{ActorCompletion, ActorRouter, ActorSilo, Directory, SiloConfig};
    use tca_sim::{Ctx, Payload, Process, ProcessId, Sim, SimDuration};

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
                    Ok(_) => ctx.metrics().incr("driver.ok", 1),
                    Err(_) => ctx.metrics().incr("driver.err", 1),
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

    fn world(plan: Vec<(ActorId, String, Vec<Value>)>) -> Sim {
        let mut sim = Sim::with_seed(131);
        let nd = sim.add_node();
        let ns1 = sim.add_node();
        let ns2 = sim.add_node();
        let nc = sim.add_node();
        let directory = sim.spawn(nd, "dir", Directory::factory());
        for (i, node) in [ns1, ns2].into_iter().enumerate() {
            sim.spawn(
                node,
                format!("silo{i}"),
                ActorSilo::factory(
                    transactional_bank_registry(100),
                    SiloConfig::volatile(directory),
                ),
            );
        }
        sim.spawn(nc, "driver", move |_| {
            Box::new(Driver {
                router: ActorRouter::new(directory),
                plan: plan.clone(),
                at: 0,
            })
        });
        sim
    }

    fn run_txn(txid: &str, from: &str, to: &str, amount: i64) -> (ActorId, String, Vec<Value>) {
        (
            ActorId::new("txncoord", txid),
            "run".into(),
            transfer_plan(txid, from, to, amount),
        )
    }

    #[test]
    fn transactional_transfer_commits() {
        let mut sim = world(vec![
            run_txn("t1", "a", "b", 40),
            // Direct read of a afterwards: 60.
            (ActorId::new("account", "a"), "read".into(), vec![]),
        ]);
        sim.run_for(SimDuration::from_millis(300));
        assert_eq!(sim.metrics().counter("driver.ok"), 2);
        assert_eq!(sim.metrics().counter("driver.err"), 0);
    }

    #[test]
    fn overdraft_aborts_atomically() {
        // a = 100: transfer 150 fails at t_exec(debit); abort discards
        // the buffered changes, so a later transfer of 100 still works.
        let mut sim = world(vec![
            run_txn("t1", "a", "b", 150),
            run_txn("t2", "a", "b", 100),
        ]);
        sim.run_for(SimDuration::from_millis(400));
        assert_eq!(sim.metrics().counter("driver.err"), 1);
        assert_eq!(sim.metrics().counter("driver.ok"), 1);
    }

    #[test]
    fn sequential_contending_transactions_serialize() {
        // Driver runs txns one at a time, so each sees the prior state:
        // 100 → four transfers of 25 drain a exactly.
        let plan: Vec<_> = (0..4)
            .map(|i| run_txn(&format!("t{i}"), "a", "b", 25))
            .collect();
        let mut sim = world(plan);
        sim.run_for(SimDuration::from_millis(600));
        assert_eq!(sim.metrics().counter("driver.ok"), 4);
        // Fifth would fail:
        let mut sim2 = world(
            (0..5)
                .map(|i| run_txn(&format!("t{i}"), "a", "b", 25))
                .collect(),
        );
        sim2.run_for(SimDuration::from_millis(800));
        assert_eq!(sim2.metrics().counter("driver.err"), 1);
    }

    #[test]
    fn plan_encoding_roundtrip() {
        let ops = vec![
            TxnOp {
                actor: ActorId::new("account", "x"),
                op: "debit".into(),
                args: vec![Value::Int(5)],
            },
            TxnOp {
                actor: ActorId::new("account", "y"),
                op: "credit".into(),
                args: vec![Value::Int(5)],
            },
        ];
        let encoded = encode_plan("tx9", &ops);
        let (txid, decoded) = decode_plan(&encoded);
        assert_eq!(txid, "tx9");
        assert_eq!(decoded.len(), 2);
        assert_eq!(decoded[0].actor, ActorId::new("account", "x"));
        assert_eq!(decoded[1].op, "credit");
        assert_eq!(decoded[1].args, vec![Value::Int(5)]);
    }
}
