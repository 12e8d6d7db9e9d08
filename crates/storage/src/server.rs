//! The database server process: the "data tier" on a simulated node.
//!
//! Clients send [`DbMsg`] requests carrying a correlation token; the server
//! answers with [`DbReply`]. Interactive transactions use `Begin` / `Read`
//! / `Write` / `Commit` / `Abort`; stored procedures run in one round trip
//! via `Call`. Interactive operations blocked on a lock park at the server
//! and the client's reply is delayed until the blocker finishes — the
//! realistic shape of a lock wait. A `Call` that meets such a lock is
//! answered `Aborted` at once.
//!
//! Durability: the WAL and checkpoint cell live in the node's durable
//! [`tca_sim::Disk`]; the factory opens the engine via
//! [`Engine::recover`] on every boot (the first recovers from empty
//! handles). Fsync and read service times are charged on the reply path.

use std::rc::Rc;
use tca_sim::DetHashMap as HashMap;

use tca_sim::wire::{RpcReply, RpcRequest};
use tca_sim::{
    Boot, Ctx, Payload, Process, ProcessId, RecentWindow, SimDuration, SpanId, SpanKind,
};

use crate::engine::{CommitResult, Engine, EngineConfig, OpResult};
use crate::proc::{run_proc, ProcOutcome, ProcRegistry};
use crate::types::{AbortReason, IsolationLevel, Key, Timestamp, TxId, Value};
use crate::wal::{DurableCell, DurableLog};

/// A client request to the database server.
#[derive(Debug, Clone)]
pub enum DbRequest {
    /// Start a transaction.
    Begin {
        /// Isolation level for the new transaction.
        iso: IsolationLevel,
    },
    /// Transactional read.
    Read {
        /// Transaction handle from `Began`.
        tx: TxId,
        /// Key to read.
        key: Key,
    },
    /// Transactional write (`None` deletes).
    Write {
        /// Transaction handle.
        tx: TxId,
        /// Key to write.
        key: Key,
        /// New value, `None` to delete.
        value: Option<Value>,
    },
    /// Commit the transaction.
    Commit {
        /// Transaction handle.
        tx: TxId,
    },
    /// Abort the transaction.
    Abort {
        /// Transaction handle.
        tx: TxId,
    },
    /// Invoke a stored procedure in its own serializable transaction.
    Call {
        /// Registered procedure name.
        proc: String,
        /// Arguments.
        args: Vec<Value>,
    },
    /// Non-transactional read of the latest committed value (audits).
    Peek {
        /// Key to peek.
        key: Key,
    },
    /// Non-transactional prefix scan of latest committed values
    /// (outbox relays, audits).
    Scan {
        /// Key prefix to scan.
        prefix: String,
    },
    /// Bulk-load initial data (setup only).
    Load {
        /// Key/value pairs to install.
        pairs: Vec<(Key, Value)>,
    },
}

/// Envelope: request plus client-chosen correlation token.
#[derive(Debug, Clone)]
pub struct DbMsg {
    /// Echoed back in the reply so clients can match responses.
    pub token: u64,
    /// The request.
    pub req: DbRequest,
}

impl DbMsg {
    /// A [`DbRequest::Load`] of `pairs` under token 0: the envelope
    /// harnesses inject to seed a database.
    pub fn load(pairs: Vec<(Key, Value)>) -> Self {
        DbMsg {
            token: 0,
            req: DbRequest::Load { pairs },
        }
    }

    /// A [`DbRequest::Call`] of stored procedure `proc` under token 0:
    /// the envelope of every caller that matches replies by rpc call id
    /// rather than by token.
    pub fn call(proc: impl Into<String>, args: Vec<Value>) -> Self {
        DbMsg {
            token: 0,
            req: DbRequest::Call {
                proc: proc.into(),
                args,
            },
        }
    }
}

/// Server response body.
#[derive(Debug, Clone, PartialEq)]
pub enum DbResponse {
    /// Transaction started.
    Began {
        /// The new transaction's handle.
        tx: TxId,
    },
    /// Read result (`None` = absent).
    ReadOk {
        /// The value read.
        value: Option<Value>,
    },
    /// Write buffered.
    WriteOk,
    /// Commit succeeded at this timestamp.
    Committed {
        /// Commit timestamp.
        ts: Timestamp,
    },
    /// The transaction aborted.
    Aborted {
        /// Why.
        reason: AbortReason,
    },
    /// Stored procedure committed with these results.
    CallOk {
        /// Procedure results.
        results: Vec<Value>,
    },
    /// Stored procedure failed its own logic and rolled back.
    CallFailed {
        /// The procedure's error message.
        error: String,
    },
    /// Non-transactional peek result.
    PeekOk {
        /// The latest committed value.
        value: Option<Value>,
    },
    /// Prefix scan result.
    ScanOk {
        /// Matching key/value pairs in key order.
        pairs: Vec<(Key, Value)>,
    },
    /// Bulk load complete.
    Loaded,
    /// Admission control rejected the request: the server's queue was too
    /// deep (or the request could no longer make its deadline). Sent
    /// immediately, bypassing the service queue — shedding must be cheap.
    Overloaded,
}

/// Envelope: response plus the request's correlation token.
#[derive(Debug, Clone)]
pub struct DbReply {
    /// The request's token.
    pub token: u64,
    /// The response body.
    pub resp: DbResponse,
}

/// Service-time model for the server: what deploy sites vary.
#[derive(Debug, Clone)]
pub struct DbServerConfig {
    /// Latency charged on commit replies (fsync of the WAL record).
    pub commit_latency: SimDuration,
    /// Admission control: reject new requests whose expected queue wait
    /// (time until the server frees up) exceeds this bound, answering
    /// [`DbResponse::Overloaded`] immediately instead of queueing.
    /// `None` (the default) admits everything — the legacy behaviour.
    /// Independently of this knob, requests arriving with an already
    /// expired deadline, or a deadline the expected wait makes unmeetable,
    /// are dropped/shed: serving them is guaranteed-wasted capacity.
    pub max_queue_wait: Option<SimDuration>,
}

impl Default for DbServerConfig {
    fn default() -> Self {
        DbServerConfig {
            commit_latency: SimDuration::from_micros(100),
            max_queue_wait: None,
        }
    }
}

/// Latency charged on read replies (and on every reply that made nothing
/// durable: `Began`, aborts, failed calls, peeks, scans).
const READ_LATENCY: SimDuration = SimDuration::from_micros(20);
/// Latency charged on write replies (buffering only).
const WRITE_LATENCY: SimDuration = SimDuration::from_micros(20);

/// A [`DbReply`] addressed the way its request arrived: bare, or wrapped
/// in an [`RpcReply`] when the request came through the RPC layer.
pub(crate) fn reply_payload(token: u64, rpc_call: Option<u64>, resp: DbResponse) -> Payload {
    let reply = Payload::new(DbReply { token, resp });
    match rpc_call {
        Some(call_id) => Payload::new(RpcReply {
            call_id,
            body: reply,
        }),
        None => reply,
    }
}

/// Where (and how) to send a reply: bare [`DbReply`] or wrapped in an
/// [`RpcReply`] when the request arrived through the RPC layer.
#[derive(Debug, Clone, Copy)]
struct ReturnAddr {
    client: ProcessId,
    token: u64,
    rpc_call: Option<u64>,
    /// Lock-wait span opened when the request parked; the reply path
    /// closes it and parents the response hop under it.
    span: Option<SpanId>,
}

/// The database server process.
pub struct DbServer {
    config: DbServerConfig,
    engine: Engine,
    registry: Rc<ProcRegistry>,
    /// Who waits for each parked (lock-blocked) interactive operation.
    parked: HashMap<TxId, ReturnAddr>,
    /// Dedup cache for RPC-enveloped requests: retried calls must not
    /// re-execute (`None` = executing, reply not yet produced).
    dedup: RecentWindow<(ProcessId, u64), Option<DbResponse>>,
    /// Single-server queueing model: the instant the server frees up.
    /// Each reply occupies the server for its service time, so offered
    /// load beyond capacity queues — making saturation observable.
    busy_until: tca_sim::SimTime,
    counters: Rc<CounterNames>,
}

/// The server's per-instance counter names (`"<name>.commits"` etc.),
/// formatted once per factory instead of once per request.
struct CounterNames {
    calls_ok: String,
    calls_failed: String,
    commits: String,
    aborts: String,
    lock_waits: String,
    deduped: String,
    expired: String,
    shed: String,
}

impl CounterNames {
    fn new(name: &str) -> Self {
        let of = |counter: &str| format!("{name}.{counter}");
        CounterNames {
            calls_ok: of("calls_ok"),
            calls_failed: of("calls_failed"),
            commits: of("commits"),
            aborts: of("aborts"),
            lock_waits: of("lock_waits"),
            deduped: of("deduped"),
            expired: of("expired"),
            shed: of("shed"),
        }
    }
}

const DEDUP_WINDOW: usize = 65_536;

impl DbServer {
    /// Build a process factory for spawning this server on a node.
    ///
    /// `name` prefixes the server's metrics (`"<name>.commits"` etc.).
    pub fn factory(
        name: impl Into<String>,
        config: DbServerConfig,
        registry: ProcRegistry,
    ) -> impl FnMut(&mut Boot) -> Box<dyn Process> {
        let counters = Rc::new(CounterNames::new(&name.into()));
        let registry = Rc::new(registry);
        move |boot| {
            let wal: DurableLog<crate::wal::WalRecord> = boot.disk.durable("wal");
            let checkpoint: DurableCell<
                crate::wal::Checkpoint<std::collections::BTreeMap<Key, Value>>,
            > = boot.disk.durable("checkpoint");
            // On first boot the handles are empty, and recovering from
            // nothing is a fresh engine.
            let mut engine = Engine::recover(EngineConfig::default(), wal, checkpoint);
            // Nothing drains a server's footprints; left on they grow
            // with every commit for as long as the server lives.
            engine.record_footprints(false);
            Box::new(DbServer {
                config: config.clone(),
                engine,
                registry: Rc::clone(&registry),
                parked: HashMap::default(),
                dedup: RecentWindow::new(DEDUP_WINDOW),
                busy_until: tca_sim::SimTime::ZERO,
                counters: Rc::clone(&counters),
            })
        }
    }

    fn reply(&mut self, ctx: &mut Ctx, addr: ReturnAddr, resp: DbResponse, lat: SimDuration) {
        // M/D/1-style service: this request occupies the server for `lat`
        // starting when the server frees up.
        let start = self.busy_until.max(ctx.now());
        let depart = start + lat;
        self.busy_until = depart;
        let lat = depart.since(ctx.now());
        // Attribute the reply (and any queueing) to the request's lock-wait
        // span when it parked; otherwise to the current handler span.
        ctx.trace_enter(addr.span);
        if start > ctx.now() {
            ctx.trace_interval(SpanKind::QueueWait, start, || "queued".into());
        }
        let reply = self.answer(addr, resp);
        ctx.send_after(addr.client, reply, lat);
        ctx.trace_exit(addr.span);
        ctx.trace_span_end(addr.span);
    }

    /// Answer `Overloaded` immediately, bypassing the service queue:
    /// rejections must cost ~nothing or shedding cannot relieve overload.
    /// (The cached rejection overwrites the just-inserted `None` dedup
    /// entry, so duplicate retries replay it instead of waiting forever.)
    fn shed_reply(&mut self, ctx: &mut Ctx, addr: ReturnAddr) {
        let reply = self.answer(addr, DbResponse::Overloaded);
        ctx.send(addr.client, reply);
    }

    /// The reply to `addr` as a payload. An enveloped call's response is
    /// cached first: duplicate retries of the same logical call are
    /// answered from the cache instead of re-executing.
    fn answer(&mut self, addr: ReturnAddr, resp: DbResponse) -> Payload {
        if let Some(call_id) = addr.rpc_call {
            self.dedup.set(&(addr.client, call_id), Some(resp.clone()));
        }
        reply_payload(addr.token, addr.rpc_call, resp)
    }

    /// Admission control. Returns `true` when the request was shed (or
    /// silently dropped) and must not execute.
    fn admission_shed(&mut self, ctx: &mut Ctx, addr: ReturnAddr) -> bool {
        let wait = self.busy_until.since(ctx.now());
        // Already-expired work is dropped without even a rejection: the
        // requester's deadline has passed, so any reply is wasted wire.
        if ctx.deadline_expired() {
            ctx.metrics().incr("server.expired", 1);
            ctx.metrics().incr(&self.counters.expired, 1);
            ctx.trace_event(|| "dropped: deadline expired on arrival".into());
            // Leave no executing marker behind; a duplicate should be
            // re-evaluated (the queue may have drained by then).
            if let Some(call_id) = addr.rpc_call {
                self.dedup.remove(&(addr.client, call_id));
            }
            return true;
        }
        // Expected-wait shedding: against the configured queue bound, and
        // against the request's own deadline when it carries one.
        let over_queue = self.config.max_queue_wait.is_some_and(|max| wait > max);
        let misses_deadline = ctx
            .deadline_remaining()
            .is_some_and(|remaining| wait > remaining);
        if over_queue || misses_deadline {
            ctx.metrics().incr("server.shed", 1);
            ctx.metrics().incr(&self.counters.shed, 1);
            ctx.trace_event(|| format!("shed: expected wait {}ns", wait.as_nanos()));
            self.shed_reply(ctx, addr);
            return true;
        }
        false
    }

    fn deliver_resumptions(&mut self, ctx: &mut Ctx, resumed: Vec<crate::engine::Resumption>) {
        for r in resumed {
            let Some(addr) = self.parked.remove(&r.tx) else {
                continue;
            };
            let resp = match r.result {
                OpResult::Read(value) => DbResponse::ReadOk { value },
                OpResult::Written => DbResponse::WriteOk,
                OpResult::Aborted(reason) => DbResponse::Aborted { reason },
                OpResult::Blocked => {
                    // Still blocked (re-parked); keep waiting.
                    self.parked.insert(r.tx, addr);
                    continue;
                }
            };
            self.reply(ctx, addr, resp, READ_LATENCY);
        }
    }

    /// Run stored procedure `proc` once and answer it. A procedure runs
    /// inside one handler, so it conflicts only with an interactive
    /// transaction holding a lock across handlers; that call is answered
    /// `Aborted` at once, and the caller decides whether to send it again.
    fn handle_call(&mut self, ctx: &mut Ctx, addr: ReturnAddr, proc: &str, args: &[Value]) {
        match run_proc(&mut self.engine, &self.registry, proc, args) {
            ProcOutcome::Done(results) => {
                ctx.metrics().incr(&self.counters.calls_ok, 1);
                self.reply(
                    ctx,
                    addr,
                    DbResponse::CallOk { results },
                    self.config.commit_latency,
                );
            }
            ProcOutcome::Failed(error) => {
                ctx.metrics().incr(&self.counters.calls_failed, 1);
                self.reply(ctx, addr, DbResponse::CallFailed { error }, READ_LATENCY);
            }
            ProcOutcome::Retry => {
                self.reply(
                    ctx,
                    addr,
                    DbResponse::Aborted {
                        reason: AbortReason::Deadlock,
                    },
                    READ_LATENCY,
                );
            }
            ProcOutcome::Aborted(reason) => {
                self.reply(ctx, addr, DbResponse::Aborted { reason }, READ_LATENCY);
            }
        }
    }

    /// Shared engine access for harness-side audits (via `Sim::inspect`).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }
}

impl Process for DbServer {
    fn on_message(&mut self, ctx: &mut Ctx, from: ProcessId, payload: Payload) {
        // Accept both bare DbMsg and RPC-enveloped DbMsg. Enveloped
        // requests carry an idempotency key (the call id): duplicates are
        // answered from cache rather than re-executed.
        let (msg, rpc_call) = if let Some(req) = payload.downcast_ref::<RpcRequest>() {
            (req.body.expect::<DbMsg>(), Some(req.call_id))
        } else {
            (payload.expect::<DbMsg>(), None)
        };
        if let Some(call_id) = rpc_call {
            match self.dedup.get(&(from, call_id)) {
                Some(Some(cached)) => {
                    ctx.metrics().incr(&self.counters.deduped, 1);
                    let resp = cached.clone();
                    let addr = ReturnAddr {
                        client: from,
                        token: msg.token,
                        rpc_call,
                        span: None,
                    };
                    self.reply(ctx, addr, resp, READ_LATENCY);
                    return;
                }
                Some(None) => {
                    // Original still executing (e.g. parked on a lock);
                    // drop the duplicate — the eventual reply covers it.
                    ctx.metrics().incr(&self.counters.deduped, 1);
                    return;
                }
                None => {
                    self.dedup.insert((from, call_id), None);
                }
            }
        }
        let addr = ReturnAddr {
            client: from,
            token: msg.token,
            rpc_call,
            span: None,
        };
        if self.admission_shed(ctx, addr) {
            return;
        }
        match &msg.req {
            &DbRequest::Begin { iso } => {
                let tx = self.engine.begin(iso);
                self.reply(ctx, addr, DbResponse::Began { tx }, READ_LATENCY);
            }
            &DbRequest::Read { tx, ref key } => {
                let (result, resumed) = self.engine.read(tx, key);
                match result {
                    OpResult::Read(value) => {
                        self.reply(ctx, addr, DbResponse::ReadOk { value }, READ_LATENCY);
                    }
                    OpResult::Blocked => {
                        ctx.metrics().incr(&self.counters.lock_waits, 1);
                        let span = ctx.trace_span(SpanKind::LockWait, || format!("lock {key}"));
                        self.parked.insert(tx, ReturnAddr { span, ..addr });
                    }
                    OpResult::Aborted(reason) => {
                        self.reply(ctx, addr, DbResponse::Aborted { reason }, READ_LATENCY);
                    }
                    OpResult::Written => unreachable!(),
                }
                self.deliver_resumptions(ctx, resumed);
            }
            &DbRequest::Write {
                tx,
                ref key,
                ref value,
            } => {
                let (result, resumed) = self.engine.write(tx, key, value.clone());
                match result {
                    OpResult::Written => {
                        self.reply(ctx, addr, DbResponse::WriteOk, WRITE_LATENCY);
                    }
                    OpResult::Blocked => {
                        ctx.metrics().incr(&self.counters.lock_waits, 1);
                        let span = ctx.trace_span(SpanKind::LockWait, || format!("lock {key}"));
                        self.parked.insert(tx, ReturnAddr { span, ..addr });
                    }
                    OpResult::Aborted(reason) => {
                        self.reply(ctx, addr, DbResponse::Aborted { reason }, READ_LATENCY);
                    }
                    OpResult::Read(_) => unreachable!(),
                }
                self.deliver_resumptions(ctx, resumed);
            }
            &DbRequest::Commit { tx } => {
                let (result, resumed) = self.engine.commit(tx);
                let resp = match result {
                    CommitResult::Committed(ts) => {
                        ctx.metrics().incr(&self.counters.commits, 1);
                        DbResponse::Committed { ts }
                    }
                    CommitResult::Aborted(reason) => {
                        ctx.metrics().incr(&self.counters.aborts, 1);
                        DbResponse::Aborted { reason }
                    }
                };
                self.reply(ctx, addr, resp, self.config.commit_latency);
                self.deliver_resumptions(ctx, resumed);
            }
            &DbRequest::Abort { tx } => {
                let resumed = self.engine.abort(tx);
                ctx.metrics().incr(&self.counters.aborts, 1);
                self.reply(
                    ctx,
                    addr,
                    DbResponse::Aborted {
                        reason: AbortReason::Requested,
                    },
                    WRITE_LATENCY,
                );
                self.deliver_resumptions(ctx, resumed);
            }
            DbRequest::Call { proc, args } => self.handle_call(ctx, addr, proc, args),
            DbRequest::Peek { key } => {
                let value = self.engine.peek(key);
                self.reply(ctx, addr, DbResponse::PeekOk { value }, READ_LATENCY);
            }
            DbRequest::Scan { prefix } => {
                let pairs = self.engine.peek_prefix(prefix);
                self.reply(ctx, addr, DbResponse::ScanOk { pairs }, READ_LATENCY);
            }
            DbRequest::Load { pairs } => {
                self.engine.load_batch(pairs.clone());
                self.reply(ctx, addr, DbResponse::Loaded, WRITE_LATENCY);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tca_sim::Sim;

    /// A scripted client driving one request and recording the reply.
    struct OneShot {
        db: ProcessId,
        req: Option<DbRequest>,
    }
    impl Process for OneShot {
        fn on_start(&mut self, ctx: &mut Ctx) {
            if let Some(req) = self.req.take() {
                ctx.send(self.db, Payload::new(DbMsg { token: 1, req }));
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx, _from: ProcessId, payload: Payload) {
            let reply = payload.expect::<DbReply>();
            match &reply.resp {
                DbResponse::CallOk { .. } => ctx.metrics().incr("client.call_ok", 1),
                DbResponse::CallFailed { .. } => ctx.metrics().incr("client.call_failed", 1),
                DbResponse::Overloaded => ctx.metrics().incr("client.overloaded", 1),
                DbResponse::Aborted { .. } => ctx.metrics().incr("client.aborted", 1),
                DbResponse::Loaded => ctx.metrics().incr("client.loaded", 1),
                DbResponse::PeekOk {
                    value: Some(Value::Int(v)),
                } => ctx.metrics().incr("client.peek", *v as u64),
                _ => {}
            }
        }
    }

    fn bump_registry() -> ProcRegistry {
        ProcRegistry::new().with("bump", |tx, args| {
            let key = args[0].as_str().to_owned();
            let v = tx.get(&key).map(|v| v.as_int()).unwrap_or(0);
            tx.put(&key, Value::Int(v + 1));
            Ok(vec![Value::Int(v + 1)])
        })
    }

    #[test]
    fn call_roundtrip_over_network() {
        let mut sim = Sim::with_seed(1);
        let n0 = sim.add_node();
        let n1 = sim.add_node();
        let db = sim.spawn(
            n0,
            "db",
            DbServer::factory("db", DbServerConfig::default(), bump_registry()),
        );
        sim.spawn(n1, "client", move |_| {
            Box::new(OneShot {
                db,
                req: Some(DbRequest::Call {
                    proc: "bump".into(),
                    args: vec![Value::from("x")],
                }),
            })
        });
        sim.run_for(SimDuration::from_millis(10));
        assert_eq!(sim.metrics().counter("client.call_ok"), 1);
        assert_eq!(sim.metrics().counter("db.calls_ok"), 1);
    }

    #[test]
    fn queue_bound_sheds_excess_load_immediately() {
        let mut sim = Sim::with_seed(21);
        let n0 = sim.add_node();
        let n1 = sim.add_node();
        let config = DbServerConfig {
            // Admit at most two service times of queue (100µs commits).
            max_queue_wait: Some(SimDuration::from_micros(200)),
            ..DbServerConfig::default()
        };
        let _ = n1;
        let db = sim.spawn(n0, "db", DbServer::factory("db", config, bump_registry()));
        // A burst of 10 simultaneous calls: waits 0,100,…,900µs. Only the
        // first three (wait ≤ 200µs) are admitted; the rest shed at once.
        for _ in 0..10 {
            sim.inject(
                db,
                Payload::new(DbMsg {
                    token: 1,
                    req: DbRequest::Call {
                        proc: "bump".into(),
                        args: vec![Value::from("x")],
                    },
                }),
            );
        }
        sim.run_for(SimDuration::from_millis(10));
        assert_eq!(sim.metrics().counter("server.shed"), 7);
        assert_eq!(
            sim.metrics().counter("db.calls_ok"),
            3,
            "shed work never ran"
        );
    }

    #[test]
    fn conflicted_call_aborts_at_once_and_runs_once_the_lock_is_free() {
        let mut sim = Sim::with_seed(5);
        let n0 = sim.add_node();
        let n1 = sim.add_node();
        let db = sim.spawn(
            n0,
            "db",
            DbServer::factory("db", DbServerConfig::default(), bump_registry()),
        );
        let bare = |req| Payload::new(DbMsg { token: 0, req });
        let bump = || DbRequest::Call {
            proc: "bump".into(),
            args: vec![Value::from("x")],
        };
        // An interactive transaction takes the X lock on `x`...
        sim.inject(
            db,
            bare(DbRequest::Begin {
                iso: IsolationLevel::Serializable,
            }),
        );
        sim.inject(
            db,
            bare(DbRequest::Write {
                tx: TxId(0),
                key: "x".into(),
                value: Some(Value::Int(10)),
            }),
        );
        // ...so the call conflicts and is answered `Aborted` at once.
        sim.spawn(n1, "first", move |_| {
            Box::new(OneShot {
                db,
                req: Some(bump()),
            })
        });
        sim.run_for(SimDuration::from_millis(1));
        assert_eq!(sim.metrics().counter("client.aborted"), 1);
        assert_eq!(sim.metrics().counter("db.calls_ok"), 0);
        // Sent again after the interactive commit, the same call runs.
        sim.inject(db, bare(DbRequest::Commit { tx: TxId(0) }));
        sim.run_for(SimDuration::from_millis(1));
        sim.spawn(n1, "again", move |_| {
            Box::new(OneShot {
                db,
                req: Some(bump()),
            })
        });
        sim.run_for(SimDuration::from_millis(1));
        assert_eq!(sim.metrics().counter("client.call_ok"), 1);
        let server = sim.inspect::<DbServer>(db).expect("db");
        assert_eq!(server.engine().peek("x"), Some(Value::Int(11)));
    }

    /// Sends enveloped requests on a script, one timer tick per step, so
    /// their arrival order at the server is fixed.
    struct Scripted {
        db: ProcessId,
        /// Per step: the call ids to send, and whether they go out with a
        /// deadline that passes in flight. Id 7 bumps `x`, others peek.
        steps: Vec<(std::ops::Range<u64>, bool)>,
        gap: SimDuration,
    }
    impl Scripted {
        fn step(&mut self, ctx: &mut Ctx) {
            if self.steps.is_empty() {
                return;
            }
            let (call_ids, expired) = self.steps.remove(0);
            if expired {
                ctx.set_deadline_after(SimDuration::from_nanos(1));
            }
            for call_id in call_ids {
                let req = if call_id == 7 {
                    DbRequest::Call {
                        proc: "bump".into(),
                        args: vec![Value::from("x")],
                    }
                } else {
                    DbRequest::Peek { key: "x".into() }
                };
                let body = Payload::new(DbMsg {
                    token: call_id,
                    req,
                });
                ctx.send(self.db, Payload::new(RpcRequest { call_id, body }));
            }
            ctx.set_deadline(None);
            ctx.set_timer(self.gap, 0);
        }
    }
    impl Process for Scripted {
        fn on_start(&mut self, ctx: &mut Ctx) {
            self.step(ctx);
        }
        fn on_message(&mut self, _ctx: &mut Ctx, _from: ProcessId, _payload: Payload) {}
        fn on_timer(&mut self, ctx: &mut Ctx, _tag: u64) {
            self.step(ctx);
        }
    }

    #[test]
    fn call_dropped_as_expired_ages_from_its_resend() {
        let mut sim = Sim::with_seed(3);
        let n0 = sim.add_node();
        let n1 = sim.add_node();
        let db = sim.spawn(
            n0,
            "db",
            DbServer::factory("db", DbServerConfig::default(), bump_registry()),
        );
        let fillers = DEDUP_WINDOW as u64 - 1;
        sim.spawn(n1, "client", move |_| {
            Box::new(Scripted {
                db,
                steps: vec![
                    (7..8, true),  // dropped on arrival: deadline expired
                    (8..9, false), // an older call, first out of the window
                    (7..8, false), // the re-send executes
                    (100..100 + fillers, false),
                    (7..8, false), // its duplicate: still inside the window
                ],
                // Longer than serving every filler takes.
                gap: SimDuration::from_secs(2),
            })
        });
        sim.run_for(SimDuration::from_secs(10));
        assert_eq!(sim.metrics().counter("db.expired"), 1);
        assert_eq!(
            sim.metrics().counter("db.deduped"),
            1,
            "duplicate of the re-sent call answered from cache"
        );
        assert_eq!(sim.metrics().counter("db.calls_ok"), 1, "bump ran once");
        let server = sim.inspect::<DbServer>(db).expect("db");
        assert_eq!(server.engine().peek("x"), Some(Value::Int(1)));
    }

    #[test]
    fn state_survives_crash_restart() {
        let mut sim = Sim::with_seed(2);
        let n0 = sim.add_node();
        let n1 = sim.add_node();
        let db = sim.spawn(
            n0,
            "db",
            DbServer::factory("db", DbServerConfig::default(), bump_registry()),
        );
        // Bump twice.
        for _ in 0..2 {
            sim.inject(
                db,
                Payload::new(DbMsg {
                    token: 0,
                    req: DbRequest::Call {
                        proc: "bump".into(),
                        args: vec![Value::from("x")],
                    },
                }),
            );
        }
        sim.run_for(SimDuration::from_millis(5));
        sim.crash_node(n0);
        sim.run_for(SimDuration::from_millis(5));
        sim.restart_node(n0);
        sim.run_for(SimDuration::from_millis(5));
        // Peek after recovery: the two committed bumps survived.
        sim.spawn(n1, "peeker", move |_| {
            Box::new(OneShot {
                db,
                req: Some(DbRequest::Peek { key: "x".into() }),
            })
        });
        sim.run_for(SimDuration::from_millis(5));
        assert_eq!(sim.metrics().counter("client.peek"), 2);
    }
}
