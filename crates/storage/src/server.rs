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
//! A bulk `Load` hands its pairs to [`Engine::load_batch`] by move when
//! the server holds the only handle to the message, as it does for a
//! router's per-shard group. A body anyone else could still read — a
//! network duplicate, a client's retry buffer — is copied instead
//! ([`tca_sim::Payload::get_mut`]). The first load a fresh server takes
//! becomes its engine's base, held once for the version store and the
//! checkpoint image, and a restart reads it back by reference.
//!
//! Exactly-once for RPC-enveloped requests lives here. The server
//! deduplicates a call under `(client, call_id)`, the identity the
//! client gave it, and records the `RpcReply` it sent, by handle: until
//! the client settles the call, a duplicate gets that very payload back,
//! and nothing is cloned. Each enveloped request carries its client's
//! settled claim ([`RpcRequest::settled`]), the ids it no longer awaits;
//! the server then drops each covered record from its dedup window and
//! keeps only the call id, in its client incarnation's ascending list of
//! settled ids, so the reply is freed. A later duplicate of a settled
//! call is still not run again: it is answered [`DbResponse::Settled`],
//! which its client discards. A shard router
//! relays an enveloped request to its shard with the client's id beside
//! it, so a routed call is deduplicated and settled here too, under the
//! same key, and its reply goes back through the router to the client
//! unchanged. The router itself remembers nothing about the call.
//!
//! Durability: the WAL and checkpoint cell live in the node's durable
//! [`tca_sim::Disk`]; the factory opens the engine via
//! [`Engine::recover`] on every boot (the first recovers from empty
//! handles). Fsync and read service times are charged on the reply path.

use std::collections::VecDeque;
use std::ops::Range;
use std::rc::Rc;
use tca_sim::DetHashMap as HashMap;

use tca_sim::wire::{RpcReply, RpcRequest};
use tca_sim::{
    Boot, Ctx, Payload, Process, ProcessId, RecentWindow, SimDuration, SpanId, SpanKind,
};

use crate::engine::{CommitResult, Engine, OpResult};
use crate::proc::{run_proc, ProcOutcome, ProcRegistry};
use crate::types::{AbortReason, IsolationLevel, Key, Pairs, Timestamp, TxId, Value};

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
        pairs: Pairs,
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
    pub fn load(pairs: impl Into<Pairs>) -> Self {
        DbMsg {
            token: 0,
            req: DbRequest::Load {
                pairs: pairs.into(),
            },
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
    /// The call was answered before, and its client has since settled
    /// it: the recorded reply is gone, and the call is not run again.
    /// Only a duplicate the client no longer awaits gets this.
    Settled,
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

/// The pairs of the `Load` in `payload`, a bare or RPC-enveloped
/// [`DbMsg`]: moved out when the caller holds the only handle to the
/// message, copied when anyone else could still read it.
///
/// # Panics
/// When `payload` does not hold a `Load`.
pub(crate) fn load_pairs(payload: &mut Payload) -> Pairs {
    let owned = if payload.is::<RpcRequest>() {
        payload
            .get_mut::<RpcRequest>()
            .and_then(|req| req.body.get_mut::<DbMsg>())
    } else {
        payload.get_mut::<DbMsg>()
    };
    if let Some(DbMsg {
        req: DbRequest::Load { pairs },
        ..
    }) = owned
    {
        return std::mem::take(pairs);
    }
    let msg = match payload.downcast_ref::<RpcRequest>() {
        Some(req) => req.body.expect::<DbMsg>(),
        None => payload.expect::<DbMsg>(),
    };
    match &msg.req {
        DbRequest::Load { pairs } => pairs.clone(),
        other => panic!("load_pairs: not a Load: {other:?}"),
    }
}

/// A client's [`RpcRequest`] that a shard router relays to its owning
/// shard: the shard serves it as `client`'s own call, and answers the
/// router with a [`Relayed`].
pub(crate) struct Relay {
    /// Who sent the call to the router.
    pub(crate) client: ProcessId,
    /// The client's `RpcRequest`, or one of a fan-out's groups under the
    /// client's call id.
    pub(crate) request: Payload,
    /// One shard's share of a fan-out: the router merges its answer and
    /// never passes it on to the client as it is.
    pub(crate) group: bool,
}

/// A shard's answer to a [`Relay`]: `reply` is the [`RpcReply`] for
/// `client`, by handle.
pub(crate) struct Relayed {
    /// Where `reply` goes.
    pub(crate) client: ProcessId,
    /// The reply, as the shard recorded it for the call.
    pub(crate) reply: Payload,
    /// Echoed from the [`Relay`].
    pub(crate) group: bool,
}

/// The router a relayed request came through.
#[derive(Debug, Clone, Copy)]
struct Via {
    router: ProcessId,
    group: bool,
}

/// What the server keeps of one client incarnation's calls once they
/// are answered. An incarnation is the start of its settled claim:
/// `nonce + 1` for an `RpcClient`, `0` for a client that claims nothing.
#[derive(Debug, Default)]
struct Incarnation {
    start: u64,
    /// Ids whose recorded reply is not settled yet, in record order.
    unsettled: VecDeque<u64>,
    /// Ids settled, ascending: their records have left the window, and a
    /// duplicate is answered [`DbResponse::Settled`].
    settled: VecDeque<u64>,
    /// When `settled` last went from empty to holding an id, in the
    /// server's settle order: the bound takes from the lowest first.
    since: u64,
}

impl Incarnation {
    /// Whether `call_id` is settled: O(1) for an id above the last one,
    /// as a fresh call's is, and a binary search otherwise.
    fn has_settled(&self, call_id: u64) -> bool {
        match (self.settled.front(), self.settled.back()) {
            (Some(&first), Some(&last)) if (first..=last).contains(&call_id) => {
                self.settled.binary_search(&call_id).is_ok()
            }
            _ => false,
        }
    }

    /// Add `call_id` to `settled` at its sorted place, almost always the
    /// back; `false` when it is there already.
    fn settle(&mut self, call_id: u64) -> bool {
        if self.settled.back().is_some_and(|&last| last >= call_id) {
            match self.settled.binary_search(&call_id) {
                Ok(_) => return false,
                Err(at) => self.settled.insert(at, call_id),
            }
        } else {
            self.settled.push_back(call_id);
        }
        true
    }
}

/// Where (and how) to send a reply: bare [`DbReply`] or wrapped in an
/// [`RpcReply`] when the request arrived through the RPC layer.
#[derive(Debug, Clone, Copy)]
struct ReturnAddr {
    client: ProcessId,
    token: u64,
    rpc_call: Option<u64>,
    /// The client incarnation that sent an enveloped request: the start
    /// of its settled claim, `nonce + 1` for an `RpcClient`'s calls. `0`
    /// when the request claims nothing or is bare.
    incarnation: u64,
    /// Set when a router relayed the request: the reply goes back
    /// through it.
    via: Option<Via>,
    /// Lock-wait span opened when the request parked; the reply path
    /// closes it and parents the response hop under it.
    span: Option<SpanId>,
}

/// `reply` on its way to `addr`'s client: straight there, or back to the
/// router that relayed the request.
fn addressed(addr: ReturnAddr, reply: Payload) -> (ProcessId, Payload) {
    match addr.via {
        None => (addr.client, reply),
        Some(Via { router, group }) => (
            router,
            Payload::new(Relayed {
                client: addr.client,
                reply,
                group,
            }),
        ),
    }
}

/// The database server process.
pub struct DbServer {
    config: DbServerConfig,
    engine: Engine,
    registry: Rc<ProcRegistry>,
    /// Who waits for each parked (lock-blocked) interactive operation.
    parked: HashMap<TxId, ReturnAddr>,
    /// Dedup cache for RPC-enveloped requests, by `(client, call_id)`:
    /// retried calls must not re-execute. It holds the `RpcReply` sent
    /// (`None` = executing, reply not yet produced) until the client
    /// settles the call.
    dedup: RecentWindow<(ProcessId, u64), Option<Payload>>,
    /// Per client, its incarnations in order of first record. A
    /// restarted client, or a second client in one process, claims under
    /// its own incarnation, so ids it will never settle do not stand in
    /// front of its own. At most [`DEDUP_WINDOW`] unsettled ids per
    /// client, and settled ids in all.
    calls: HashMap<ProcessId, Vec<Incarnation>>,
    /// Settled ids held, over every incarnation.
    settled: usize,
    /// Incarnations that came to hold settled ids, so far.
    settle_order: u64,
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
            Box::new(DbServer {
                config: config.clone(),
                engine: Engine::boot(boot.disk),
                registry: Rc::clone(&registry),
                parked: HashMap::default(),
                dedup: RecentWindow::new(DEDUP_WINDOW),
                calls: HashMap::default(),
                settled: 0,
                settle_order: 0,
                busy_until: tca_sim::SimTime::ZERO,
                counters: Rc::clone(&counters),
            })
        }
    }

    fn reply(&mut self, ctx: &mut Ctx, addr: ReturnAddr, resp: DbResponse, lat: SimDuration) {
        let reply = self.answer(addr, resp);
        self.serve(ctx, addr, reply, lat);
    }

    /// Send `reply`, addressed by [`addressed`], after `lat` of service.
    fn serve(
        &mut self,
        ctx: &mut Ctx,
        addr: ReturnAddr,
        (to, reply): (ProcessId, Payload),
        lat: SimDuration,
    ) {
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
        ctx.send_after(to, reply, lat);
        ctx.trace_exit(addr.span);
        ctx.trace_span_end(addr.span);
    }

    /// Answer `Overloaded` immediately, bypassing the service queue:
    /// rejections must cost ~nothing or shedding cannot relieve overload.
    /// (The cached rejection overwrites the just-inserted `None` dedup
    /// entry, so duplicate retries replay it instead of waiting forever.)
    fn shed_reply(&mut self, ctx: &mut Ctx, addr: ReturnAddr) {
        let (to, reply) = self.answer(addr, DbResponse::Overloaded);
        ctx.send(to, reply);
    }

    /// The reply to `addr` and where it goes. An enveloped call's reply
    /// is recorded by handle first: duplicate retries of the same logical
    /// call get this payload instead of re-executing.
    fn answer(&mut self, addr: ReturnAddr, resp: DbResponse) -> (ProcessId, Payload) {
        let reply = reply_payload(addr.token, addr.rpc_call, resp);
        if let Some(call_id) = addr.rpc_call {
            if self.dedup.set(&(addr.client, call_id), Some(reply.clone())) {
                let incs = self
                    .calls
                    .entry(addr.client)
                    .or_insert_with(|| Vec::with_capacity(1));
                let unsettled: usize = incs.iter().map(|inc| inc.unsettled.len()).sum();
                if unsettled == DEDUP_WINDOW {
                    // The oldest incarnation gives up its oldest id, and
                    // incarnations left with no ids are forgotten.
                    incs.retain(|inc| !inc.unsettled.is_empty() || !inc.settled.is_empty());
                    if let Some(oldest) = incs.iter_mut().find(|inc| !inc.unsettled.is_empty()) {
                        oldest.unsettled.pop_front();
                    }
                }
                let at = match incs.iter().position(|inc| inc.start == addr.incarnation) {
                    Some(at) => at,
                    None => {
                        incs.push(Incarnation {
                            start: addr.incarnation,
                            ..Incarnation::default()
                        });
                        incs.len() - 1
                    }
                };
                incs[at].unsettled.push_back(call_id);
            }
        }
        addressed(addr, reply)
    }

    /// Settle each of the oldest unsettled calls of `client`'s
    /// incarnation `claim.start` that its claim covers: a recorded call
    /// leaves the window, its reply freed, and its id joins the
    /// incarnation's settled ids. A record whose call is executing again
    /// is left as it is.
    fn settle(&mut self, client: ProcessId, claim: &Range<u64>) {
        if claim.is_empty() {
            return;
        }
        let Some(inc) = self
            .calls
            .get_mut(&client)
            .and_then(|incs| incs.iter_mut().find(|inc| inc.start == claim.start))
        else {
            return;
        };
        while let Some(&call_id) = inc.unsettled.front() {
            if !claim.contains(&call_id) {
                break;
            }
            inc.unsettled.pop_front();
            if !matches!(self.dedup.get(&(client, call_id)), Some(Some(_))) {
                continue;
            }
            self.dedup.remove(&(client, call_id));
            if inc.settled.is_empty() {
                inc.since = self.settle_order;
                self.settle_order += 1;
            }
            self.settled += usize::from(inc.settle(call_id));
        }
        while self.settled > DEDUP_WINDOW {
            // The incarnation that has held settled ids the longest
            // forgets its lowest.
            let oldest = (self.calls.values_mut().flatten())
                .filter(|inc| !inc.settled.is_empty())
                .min_by_key(|inc| inc.since)
                .expect("settled ids held");
            oldest.settled.pop_front();
            self.settled -= 1;
        }
    }

    /// Whether `client` has settled `call_id`, under any incarnation.
    fn has_settled(&self, client: ProcessId, call_id: u64) -> bool {
        self.calls
            .get(&client)
            .is_some_and(|incs| incs.iter().any(|inc| inc.has_settled(call_id)))
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
    fn on_message(&mut self, ctx: &mut Ctx, from: ProcessId, mut payload: Payload) {
        // A router relays a client's enveloped request: serve it as the
        // client's own call, and answer through the router. The relay is
        // dropped here, so a group the router alone held can still be
        // moved into the engine.
        let (mut client, mut via) = (from, None);
        if let Some(relay) = payload.downcast_ref::<Relay>() {
            (client, via) = (
                relay.client,
                Some(Via {
                    router: from,
                    group: relay.group,
                }),
            );
            payload = relay.request.clone();
        }
        // Accept both bare DbMsg and RPC-enveloped DbMsg. Enveloped
        // requests carry an idempotency key (the call id): duplicates are
        // answered from cache rather than re-executed.
        let (msg, rpc_call, incarnation) = if let Some(req) = payload.downcast_ref::<RpcRequest>() {
            self.settle(client, &req.settled);
            (
                req.body.expect::<DbMsg>(),
                Some(req.call_id),
                req.settled.start,
            )
        } else {
            (payload.expect::<DbMsg>(), None, 0)
        };
        let addr = ReturnAddr {
            client,
            token: msg.token,
            rpc_call,
            incarnation,
            via,
            span: None,
        };
        if let Some(call_id) = rpc_call {
            let recorded = match self.dedup.get(&(client, call_id)) {
                Some(Some(recorded)) => Some(recorded.clone()),
                Some(None) => {
                    // Original still executing (e.g. parked on a lock);
                    // drop the duplicate — the eventual reply covers it.
                    ctx.metrics().incr(&self.counters.deduped, 1);
                    return;
                }
                None if self.has_settled(client, call_id) => {
                    Some(reply_payload(addr.token, rpc_call, DbResponse::Settled))
                }
                None => None,
            };
            if let Some(recorded) = recorded {
                ctx.metrics().incr(&self.counters.deduped, 1);
                let reply = addressed(addr, recorded);
                self.serve(ctx, addr, reply, READ_LATENCY);
                return;
            }
            self.dedup.insert((client, call_id), None);
        }
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
            DbRequest::Load { .. } => {
                self.engine.load_batch(load_pairs(&mut payload));
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
                ctx.send(self.db, Payload::new(RpcRequest::new(call_id, body)));
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

    /// Sends call 7 (a bump of `x`) on start and again on its timer, and
    /// keeps each reply.
    struct Repeater {
        db: ProcessId,
        replies: Vec<(u64, u64, DbResponse)>,
    }
    impl Repeater {
        fn send(&self, ctx: &mut Ctx, token: u64) {
            let body = Payload::new(DbMsg {
                token,
                req: DbRequest::Call {
                    proc: "bump".into(),
                    args: vec![Value::from("x")],
                },
            });
            ctx.send(self.db, Payload::new(RpcRequest::new(7, body)));
        }
    }
    impl Process for Repeater {
        fn on_start(&mut self, ctx: &mut Ctx) {
            self.send(ctx, 1);
            ctx.set_timer(SimDuration::from_millis(1), 0);
        }
        fn on_message(&mut self, _ctx: &mut Ctx, _from: ProcessId, payload: Payload) {
            let reply = payload.expect::<RpcReply>();
            let inner = reply.body.expect::<DbReply>();
            let record = (reply.call_id, inner.token, inner.resp.clone());
            self.replies.push(record);
        }
        fn on_timer(&mut self, ctx: &mut Ctx, _tag: u64) {
            self.send(ctx, 2);
        }
    }

    /// A duplicate of an answered call is not run again: it gets the
    /// reply the server recorded for the call, the original's token
    /// included.
    #[test]
    fn a_duplicate_gets_the_recorded_reply() {
        let mut sim = Sim::with_seed(4);
        let n0 = sim.add_node();
        let n1 = sim.add_node();
        let db = sim.spawn(
            n0,
            "db",
            DbServer::factory("db", DbServerConfig::default(), bump_registry()),
        );
        let client = sim.spawn(n1, "client", move |_| {
            Box::new(Repeater {
                db,
                replies: Vec::new(),
            })
        });
        sim.run_for(SimDuration::from_millis(5));
        let recorded = (
            7,
            1,
            DbResponse::CallOk {
                results: vec![Value::Int(1)],
            },
        );
        let replies = &sim.inspect::<Repeater>(client).expect("client").replies;
        assert_eq!(replies, &[recorded.clone(), recorded]);
        assert_eq!(sim.metrics().counter("db.deduped"), 1);
        assert_eq!(sim.metrics().counter("db.calls_ok"), 1, "bump ran once");
    }

    /// Sends its script one enveloped request per 2 ms tick, each under
    /// its call id as token and with the settled claim the script gives,
    /// and keeps every reply with the time it arrived.
    struct Settler {
        db: ProcessId,
        script: Vec<(u64, Range<u64>, DbRequest)>,
        replies: Vec<(tca_sim::SimTime, u64, DbResponse)>,
    }
    impl Settler {
        fn step(&mut self, ctx: &mut Ctx) {
            if self.script.is_empty() {
                return;
            }
            let (call_id, settled, req) = self.script.remove(0);
            let body = Payload::new(DbMsg {
                token: call_id,
                req,
            });
            let mut request = RpcRequest::new(call_id, body);
            request.settled = settled;
            ctx.send(self.db, Payload::new(request));
            ctx.set_timer(SimDuration::from_millis(2), 0);
        }
    }
    impl Process for Settler {
        fn on_start(&mut self, ctx: &mut Ctx) {
            self.step(ctx);
        }
        fn on_message(&mut self, ctx: &mut Ctx, _from: ProcessId, payload: Payload) {
            let reply = payload.expect::<RpcReply>();
            let resp = reply.body.expect::<DbReply>().resp.clone();
            self.replies.push((ctx.now(), reply.call_id, resp));
        }
        fn on_timer(&mut self, ctx: &mut Ctx, _tag: u64) {
            self.step(ctx);
        }
    }

    fn bump_x() -> DbRequest {
        DbRequest::Call {
            proc: "bump".into(),
            args: vec![Value::from("x")],
        }
    }

    fn peek(key: &str) -> DbRequest {
        DbRequest::Peek { key: key.into() }
    }

    /// A server and a [`Settler`] running `script`: the sim, the server
    /// and the client.
    fn settler_world(script: Vec<(u64, Range<u64>, DbRequest)>) -> (Sim, ProcessId, ProcessId) {
        let mut sim = Sim::with_seed(6);
        let n0 = sim.add_node();
        let n1 = sim.add_node();
        let db = sim.spawn(
            n0,
            "db",
            DbServer::factory("db", DbServerConfig::default(), bump_registry()),
        );
        let client = sim.spawn(n1, "client", move |_| {
            Box::new(Settler {
                db,
                script: script.clone(),
                replies: Vec::new(),
            })
        });
        (sim, db, client)
    }

    fn replies(sim: &Sim, client: ProcessId) -> &[(tca_sim::SimTime, u64, DbResponse)] {
        &sim.inspect::<Settler>(client).expect("client").replies
    }

    /// A duplicate of a call its client has settled is answered
    /// `Settled`, when and as often as the recorded reply would have
    /// been; one the claim stops short of still gets the recorded reply.
    #[test]
    fn a_duplicate_of_a_settled_call_is_answered_settled_on_time() {
        let run = |claim: Range<u64>| {
            let script = vec![
                (7, 7..7, bump_x()),
                (8, claim, peek("x")),
                (7, 7..7, bump_x()),
            ];
            let (mut sim, _, client) = settler_world(script);
            sim.run_for(SimDuration::from_millis(10));
            assert_eq!(sim.metrics().counter("db.deduped"), 1);
            assert_eq!(sim.metrics().counter("db.calls_ok"), 1, "bump ran once");
            replies(&sim, client).to_vec()
        };
        let settled = run(7..8);
        let unsettled = run(7..7);
        let ok = DbResponse::CallOk {
            results: vec![Value::Int(1)],
        };
        assert_eq!(settled[2].1, 7);
        assert_eq!(settled[2].2, DbResponse::Settled);
        assert_eq!(unsettled[2].2, ok, "the recorded reply");
        assert_eq!(settled[2].0, unsettled[2].0, "the same service time");
        assert_eq!(settled[..2], unsettled[..2]);
    }

    /// A call still executing when its client claims it settled (say, it
    /// gave up waiting) keeps its executing record: it is answered once
    /// it runs, and settled by a later claim.
    #[test]
    fn an_executing_record_survives_a_covering_claim() {
        let write = DbRequest::Write {
            tx: TxId(1),
            key: "x".into(),
            value: Some(Value::Int(2)),
        };
        let script = vec![
            (
                5,
                1..1,
                DbRequest::Begin {
                    iso: IsolationLevel::Serializable,
                },
            ),
            (7, 1..1, write), // parks behind tx 0's lock
            (8, 1..8, peek("y")),
            (9, 1..9, peek("y")),
            (7, 1..1, peek("y")),
        ];
        let (mut sim, db, client) = settler_world(script);
        let bare = |req| Payload::new(DbMsg { token: 0, req });
        sim.inject(
            db,
            bare(DbRequest::Begin {
                iso: IsolationLevel::Serializable,
            }),
        );
        let locked = DbRequest::Write {
            tx: TxId(0),
            key: "x".into(),
            value: Some(Value::Int(1)),
        };
        sim.inject(db, bare(locked));
        sim.run_for(SimDuration::from_millis(5));
        let key = (client, 7);
        let server = sim.inspect::<DbServer>(db).expect("db");
        assert!(matches!(server.dedup.get(&key), Some(None)), "executing");
        assert!(
            !server.dedup.contains(&(client, 5)),
            "settled: out of the window"
        );
        assert_eq!(settled_records(server, client), [5]);
        sim.inject(db, bare(DbRequest::Commit { tx: TxId(0) }));
        sim.run_for(SimDuration::from_millis(10));
        let answered: Vec<_> = replies(&sim, client)
            .iter()
            .map(|(_, call_id, resp)| (*call_id, resp.clone()))
            .collect();
        let peeked = DbResponse::PeekOk { value: None };
        assert_eq!(
            answered,
            [
                (5, DbResponse::Began { tx: TxId(1) }),
                (8, peeked.clone()),
                (7, DbResponse::WriteOk),
                (9, peeked),
                (7, DbResponse::Settled),
            ]
        );
    }

    /// The ids `client` has settled, over its incarnations, ascending.
    fn settled_records(server: &DbServer, client: ProcessId) -> Vec<u64> {
        let incs = server.calls.get(&client).map_or(&[][..], Vec::as_slice);
        let mut ids: Vec<u64> = incs
            .iter()
            .flat_map(|inc| inc.settled.iter().copied())
            .collect();
        ids.sort_unstable();
        ids
    }

    /// A restarted client claims under its new incarnation: the ids of
    /// its predecessor, which nothing will settle, do not stand in front
    /// of its own.
    #[test]
    fn a_restarted_clients_claim_frees_its_own_replies() {
        let script = vec![
            (1, 1..1, peek("x")),
            (2, 1..2, peek("x")),
            (1001, 1001..1001, peek("x")),
            (1002, 1001..1002, peek("x")),
        ];
        let (mut sim, db, client) = settler_world(script);
        sim.run_for(SimDuration::from_millis(10));
        let server = sim.inspect::<DbServer>(db).expect("db");
        assert_eq!(settled_records(server, client), [1, 1001]);
    }

    /// Sends each step's calls at once, one step per millisecond: peeks
    /// under the step's ids, each with the step's settled claim, whose
    /// start is the calls' incarnation. Keeps every reply.
    struct Batches {
        db: ProcessId,
        steps: Vec<(Range<u64>, Range<u64>)>,
        replies: Vec<(u64, DbResponse)>,
    }
    impl Batches {
        fn step(&mut self, ctx: &mut Ctx) {
            if self.steps.is_empty() {
                return;
            }
            let (ids, claim) = self.steps.remove(0);
            for call_id in ids {
                let mut request = RpcRequest::new(call_id, with_token(call_id, peek("x")));
                request.settled = claim.clone();
                ctx.send(self.db, Payload::new(request));
            }
            ctx.set_timer(SimDuration::from_millis(1), 0);
        }
    }
    impl Process for Batches {
        fn on_start(&mut self, ctx: &mut Ctx) {
            self.step(ctx);
        }
        fn on_message(&mut self, _ctx: &mut Ctx, _from: ProcessId, payload: Payload) {
            let reply = payload.expect::<RpcReply>();
            let resp = reply.body.expect::<DbReply>().resp.clone();
            self.replies.push((reply.call_id, resp));
        }
        fn on_timer(&mut self, ctx: &mut Ctx, _tag: u64) {
            self.step(ctx);
        }
    }

    /// `req` under token `call_id`.
    fn with_token(call_id: u64, req: DbRequest) -> Payload {
        Payload::new(DbMsg {
            token: call_id,
            req,
        })
    }

    /// A server and a [`Batches`] client running `steps`, run for 5 s.
    fn batches_world(steps: Vec<(Range<u64>, Range<u64>)>) -> (Sim, ProcessId, ProcessId) {
        let mut sim = Sim::with_seed(9);
        let n0 = sim.add_node();
        let n1 = sim.add_node();
        let db = sim.spawn(
            n0,
            "db",
            DbServer::factory("db", DbServerConfig::default(), bump_registry()),
        );
        let client = sim.spawn(n1, "client", move |_| {
            Box::new(Batches {
                db,
                steps: steps.clone(),
                replies: Vec::new(),
            })
        });
        sim.run_for(SimDuration::from_secs(5));
        (sim, db, client)
    }

    /// A client restarted again and again leaves ids behind under each
    /// incarnation it ran as; together they stay within the window, the
    /// oldest incarnation's ids giving way first.
    #[test]
    fn a_restarted_clients_bookkeeping_stays_bounded() {
        let each = DEDUP_WINDOW as u64 / 4 + 1;
        let starts = [1, 1_000_001, 2_000_001, 3_000_001];
        let (sim, db, client) =
            batches_world(starts.iter().map(|&s| (s..s + each, s..s)).collect());
        let server = sim.inspect::<DbServer>(db).expect("db");
        let queues: Vec<(u64, usize)> = server.calls[&client]
            .iter()
            .map(|inc| (inc.start, inc.unsettled.len()))
            .collect();
        let each = each as usize;
        assert_eq!(
            queues,
            [
                (starts[0], each - 4),
                (starts[1], each),
                (starts[2], each),
                (starts[3], each)
            ]
        );
    }

    /// A client that never claims anything settles nothing, and what the
    /// server keeps for it stays within the window.
    #[test]
    fn a_claimless_clients_bookkeeping_stays_bounded() {
        let mut sim = Sim::with_seed(8);
        let n0 = sim.add_node();
        let n1 = sim.add_node();
        let db = sim.spawn(
            n0,
            "db",
            DbServer::factory("db", DbServerConfig::default(), bump_registry()),
        );
        let calls = DEDUP_WINDOW as u64 + 8;
        let client = sim.spawn(n1, "client", move |_| {
            Box::new(Scripted {
                db,
                steps: vec![(100..100 + calls, false)],
                gap: SimDuration::from_secs(1),
            })
        });
        sim.run_for(SimDuration::from_secs(5));
        let server = sim.inspect::<DbServer>(db).expect("db");
        assert_eq!(server.calls[&client][0].unsettled.len(), DEDUP_WINDOW);
        assert_eq!(server.dedup.len(), DEDUP_WINDOW);
    }

    /// Past [`DEDUP_WINDOW`] settled ids the server forgets the lowest
    /// ones: a late duplicate of one runs again, and every other settled
    /// call is still answered `Settled`.
    #[test]
    fn settled_ids_past_the_bound_forget_the_lowest() {
        const K: u64 = 3;
        let total = DEDUP_WINDOW as u64 + K;
        // Ids 1..=total in batches, each claiming every earlier batch;
        // then one call that claims them all, and late duplicates.
        let mut steps: Vec<_> = (1..=total)
            .step_by(4_096)
            .map(|start| (start..(start + 4_096).min(total + 1), 1..start))
            .collect();
        steps.push((total + 1..total + 2, 1..total + 1));
        steps.push((1..K + 3, 1..total + 1));
        let (sim, db, client) = batches_world(steps);
        let server = sim.inspect::<DbServer>(db).expect("db");
        let settled = settled_records(server, client);
        assert_eq!(settled.len(), DEDUP_WINDOW);
        assert_eq!(settled[0], K + 1, "the lowest {K} forgotten");
        assert_eq!(server.settled, DEDUP_WINDOW);
        let replies = &sim.inspect::<Batches>(client).expect("client").replies;
        let peeked = DbResponse::PeekOk { value: None };
        for id in 1..K + 3 {
            let answers: Vec<_> = (replies.iter())
                .filter(|&&(call_id, _)| call_id == id)
                .map(|(_, resp)| resp.clone())
                .collect();
            let late = if id <= K {
                peeked.clone()
            } else {
                DbResponse::Settled
            };
            assert_eq!(answers, [peeked.clone(), late], "call {id}");
        }
        assert_eq!(sim.metrics().counter("db.deduped"), 2);
    }

    /// The harness's hand: a [`Puppet`] sends it on to the server.
    struct Forward(Payload);

    /// Sends on each request the harness hands it, and keeps each reply.
    struct Puppet {
        db: ProcessId,
        replies: Vec<(u64, DbResponse)>,
    }
    impl Process for Puppet {
        fn on_message(&mut self, ctx: &mut Ctx, _from: ProcessId, payload: Payload) {
            if let Some(Forward(request)) = payload.downcast_ref::<Forward>() {
                ctx.send(self.db, request.clone());
                return;
            }
            let reply = payload.expect::<RpcReply>();
            let resp = reply.body.expect::<DbReply>().resp.clone();
            self.replies.push((reply.call_id, resp));
        }
    }

    /// What the reference model knows of one call.
    #[derive(Debug, Clone)]
    enum Known {
        Executing,
        Recorded(DbResponse),
        Settled,
    }

    /// The server's dedup rules, inside its bounds, written plainly: a
    /// call executes once; a duplicate gets the recorded reply, or
    /// `Settled` once a claim of its incarnation reached it in record
    /// order, and is dropped while the call executes.
    #[derive(Default)]
    struct Model {
        calls: std::collections::BTreeMap<(usize, u64), Known>,
        /// Per client, `(incarnation, unsettled ids in record order)`.
        unsettled: [Vec<(u64, VecDeque<u64>)>; 2],
        /// Per client, the replies it should get, in order.
        expected: [Vec<(u64, DbResponse)>; 2],
    }
    impl Model {
        fn record(&mut self, client: usize, incarnation: u64, call_id: u64, resp: DbResponse) {
            self.calls
                .insert((client, call_id), Known::Recorded(resp.clone()));
            let queues = &mut self.unsettled[client];
            match queues.iter_mut().find(|(inc, _)| *inc == incarnation) {
                Some((_, ids)) => ids.push_back(call_id),
                None => queues.push((incarnation, VecDeque::from([call_id]))),
            }
            self.expected[client].push((call_id, resp));
        }

        /// A request for `call_id` under `claim`; `fresh` is its reply
        /// when it runs, `None` when it parks.
        fn request(
            &mut self,
            client: usize,
            call_id: u64,
            claim: Range<u64>,
            fresh: Option<DbResponse>,
        ) {
            let queue = self.unsettled[client]
                .iter_mut()
                .find(|(inc, _)| *inc == claim.start);
            if let Some((_, ids)) = queue {
                while let Some(&id) = ids.front().filter(|id| claim.contains(id)) {
                    ids.pop_front();
                    if let Some(known @ Known::Recorded(_)) = self.calls.get_mut(&(client, id)) {
                        *known = Known::Settled;
                    }
                }
            }
            match self.calls.get(&(client, call_id)).cloned() {
                Some(Known::Recorded(resp)) => self.expected[client].push((call_id, resp)),
                Some(Known::Settled) => self.expected[client].push((call_id, DbResponse::Settled)),
                Some(Known::Executing) => {}
                None => match fresh {
                    Some(resp) => self.record(client, claim.start, call_id, resp),
                    None => {
                        self.calls.insert((client, call_id), Known::Executing);
                    }
                },
            }
        }
    }

    /// Random scripts from two clients, the second restarting (its
    /// predecessor's duplicates still arriving), with covering and
    /// short claims, duplicates, and a call parked on a lock that is
    /// answered after later calls: every answer is the model's.
    #[test]
    fn every_answer_is_the_reference_models() {
        use tca_sim::check::{check, tuple3, u64_in, vec_of};
        // Per send op: (client, incarnation).
        const SENDERS: [(usize, u64); 4] = [(0, 1_000), (1, 5_000), (1, 9_000), (0, 1_000)];
        const PARKED: u64 = 1_006;
        let op = tuple3(u64_in(0, 6), u64_in(0, 6), u64_in(0, 8));
        check("dedup answers", &vec_of(op, 1, 40), |script| {
            let mut sim = Sim::with_seed(12);
            let n0 = sim.add_node();
            let n1 = sim.add_node();
            let db = sim.spawn(
                n0,
                "db",
                DbServer::factory("db", DbServerConfig::default(), bump_registry()),
            );
            let puppet = move |_: &mut Boot| -> Box<dyn Process> {
                Box::new(Puppet {
                    db,
                    replies: Vec::new(),
                })
            };
            let clients = [sim.spawn(n1, "a", puppet), sim.spawn(n1, "b", puppet)];
            // Tx 0 holds `x`'s lock; tx 1 parks behind it.
            let bare = |req| Payload::new(DbMsg { token: 0, req });
            let begin = || {
                bare(DbRequest::Begin {
                    iso: IsolationLevel::Serializable,
                })
            };
            sim.inject(db, begin());
            let locked = DbRequest::Write {
                tx: TxId(0),
                key: "x".into(),
                value: Some(Value::Int(1)),
            };
            sim.inject(db, bare(locked));
            sim.inject(db, begin());
            let send = |sim: &mut Sim, client: usize, call_id: u64, claim: Range<u64>, req| {
                let mut request = RpcRequest::new(call_id, with_token(call_id, req));
                request.settled = claim;
                sim.inject(
                    clients[client],
                    Payload::new(Forward(Payload::new(request))),
                );
            };
            let mut model = Model::default();
            let (mut parked, mut released) = (None, false);
            for &(kind, id, claimed) in script {
                match kind {
                    0..=3 => {
                        let (client, incarnation) = SENDERS[kind as usize];
                        let call_id = incarnation + id;
                        let claim = incarnation..incarnation + claimed;
                        let bump = DbRequest::Call {
                            proc: "bump".into(),
                            args: vec![Value::from(format!("c{call_id}"))],
                        };
                        send(&mut sim, client, call_id, claim.clone(), bump);
                        let ran = DbResponse::CallOk {
                            results: vec![Value::Int(1)],
                        };
                        model.request(client, call_id, claim, Some(ran));
                    }
                    4 => {
                        let claim = 1_000..1_000 + claimed;
                        let write = DbRequest::Write {
                            tx: TxId(1),
                            key: "x".into(),
                            value: Some(Value::Int(2)),
                        };
                        send(&mut sim, 0, PARKED, claim.clone(), write);
                        model.request(0, PARKED, claim.clone(), None);
                        parked.get_or_insert(claim.start);
                    }
                    _ => {
                        if let (Some(incarnation), false) = (parked, released) {
                            released = true;
                            sim.inject(db, bare(DbRequest::Commit { tx: TxId(0) }));
                            model.record(0, incarnation, PARKED, DbResponse::WriteOk);
                        }
                    }
                }
                sim.run_for(SimDuration::from_millis(2));
            }
            for (client, &pid) in clients.iter().enumerate() {
                let replies = &sim.inspect::<Puppet>(pid).expect("client").replies;
                assert_eq!(replies, &model.expected[client], "client {client}");
            }
        });
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
