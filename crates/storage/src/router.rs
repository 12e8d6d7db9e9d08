//! The shard router: one process fronting a fleet of [`DbServer`] shards.
//!
//! Clients keep speaking the single-server protocol ([`DbMsg`] bare or
//! RPC-enveloped); the router owns a [`ShardMap`] (consistent-hash ring by
//! default) and forwards each request to the shard owning its partition
//! key, then relays the shard's reply back to the original client. The
//! partition key is:
//!
//! - `Call` — the first argument, which must be a [`Value::Str`] holding
//!   the key the procedure touches (the single-partition convention);
//! - `Peek` — the peeked key;
//! - `Scan` / `Load` — fan-out: `Scan` queries every shard and merges,
//!   `Load` splits its pairs by owner and waits for every shard's ack.
//!
//! Interactive transactions (`Begin`/`Read`/`Write`/`Commit`/`Abort`) are
//! rejected: a transaction handle is shard-local state, so cross-shard
//! writes must go through a transactional protocol (2PC via
//! `tca-txn::twopc` with one participant per touched shard, or the
//! deterministic dataflow) rather than an interactive session pinned to
//! one server.
//!
//! Retried RPC calls are forwarded with a *stable* internal call id, so
//! the owning shard's dedup cache replays instead of re-executing — the
//! router adds a hop without weakening exactly-once semantics. An
//! enveloped `Load` keeps that id too, and each shard receives its group
//! enveloped under it. A retry that arrives while the load is under way
//! sends again the groups whose shards have not answered — recovering a
//! lost group, a lost ack or a group dropped past its deadline — and the
//! shards' dedup applies each group once; each shard's answer counts
//! once. After every shard has applied its group, late retries are
//! answered `Loaded` by the router itself until the call leaves the dedup
//! window, so a retried `Load` is never applied again over later writes.
//! A shard that sheds its group answers `Overloaded`, and so does the
//! fan-out, as a shed single does. A `Scan` is read-only: every request,
//! retried or not, scans again.
//!
//! The router moves what it alone holds. A `Load` whose message has no
//! other handle gives its pairs up to the split rather than being copied
//! ([`Payload::get_mut`]), and the shard moves each group into its engine
//! the same way.

use std::rc::Rc;
use tca_sim::DetHashMap as HashMap;

use tca_sim::wire::{RpcReply, RpcRequest};
use tca_sim::{Boot, Ctx, NodeId, Payload, Process, ProcessId, RecentWindow, ShardMap, Sim};

use crate::proc::ProcRegistry;
use crate::server::{
    load_pairs, reply_payload, DbMsg, DbReply, DbRequest, DbResponse, DbServer, DbServerConfig,
};
use crate::types::{Key, Value};

/// Ask the router for its shard topology (reply: [`Topology`]).
#[derive(Debug, Clone, Copy)]
pub struct GetTopology;

/// The router's shard topology, for clients that want to talk to shards
/// directly (e.g. a 2PC coordinator enlisting participants).
#[derive(Debug, Clone)]
pub struct Topology {
    /// Shard process ids, indexed by shard number.
    pub shards: Vec<ProcessId>,
}

/// Where a forwarded request's reply must go.
#[derive(Debug, Clone)]
enum Pending {
    /// Single-shard forward: relay the one reply.
    Single {
        client: ProcessId,
        token: u64,
        rpc_call: Option<u64>,
    },
    /// Fan-out (`Load`/`Scan`), boxed: an enveloped single's entry stays
    /// for the whole dedup window, so every entry is kept small.
    Fanout(Box<Fanout>),
    /// An enveloped `Load` that every shard has applied: late retries of
    /// the call are answered `Loaded` until `by_call` evicts it.
    Loaded,
}

/// A fan-out under way: collect one answer from each shard in `awaiting`,
/// then answer the client once. `scan` accumulates merged scan results;
/// `failed` keeps the first share that went wrong.
#[derive(Debug, Clone)]
struct Fanout {
    client: ProcessId,
    token: u64,
    rpc_call: Option<u64>,
    awaiting: Vec<ProcessId>,
    scan: Option<Vec<(Key, Value)>>,
    failed: Option<DbResponse>,
}

const ROUTER_DEDUP_WINDOW: usize = 65_536;

/// The router's per-instance counter names (`"<name>.forwarded"` etc.),
/// formatted once per factory instead of once per request.
struct CounterNames {
    forwarded: String,
    replies: String,
    fanout: String,
    rejected: String,
}

/// The shard-routing process.
pub struct ShardRouter {
    counters: Rc<CounterNames>,
    map: ShardMap,
    shards: Vec<ProcessId>,
    next_internal: u64,
    /// Internal correlation id → where the reply goes. An enveloped
    /// single's entry, and an applied enveloped load's `Loaded` marker,
    /// stay until evicted so late client retries replay: the single's
    /// through the shard's dedup cache, the load's from the marker.
    pending: HashMap<u64, Pending>,
    /// (client, client call id) → internal id: keeps the internal id
    /// stable across client retries of the same logical call.
    by_call: RecentWindow<(ProcessId, u64), u64>,
}

impl ShardRouter {
    /// Build a process factory. `shards` must be indexed consistently
    /// with `map` (shard `i`'s data lives at `shards[i]`).
    pub fn factory(
        name: impl Into<String>,
        map: ShardMap,
        shards: Vec<ProcessId>,
    ) -> impl FnMut(&mut Boot) -> Box<dyn Process> {
        assert_eq!(map.shards(), shards.len(), "map/fleet size mismatch");
        let name = name.into();
        let counters = Rc::new(CounterNames {
            forwarded: format!("{name}.forwarded"),
            replies: format!("{name}.replies"),
            fanout: format!("{name}.fanout"),
            rejected: format!("{name}.rejected"),
        });
        move |_| {
            Box::new(ShardRouter {
                counters: Rc::clone(&counters),
                map: map.clone(),
                shards: shards.clone(),
                next_internal: 0,
                pending: HashMap::default(),
                by_call: RecentWindow::new(ROUTER_DEDUP_WINDOW),
            })
        }
    }

    /// The shard fleet (inspect support).
    pub fn shards(&self) -> &[ProcessId] {
        &self.shards
    }

    /// The placement map (inspect support).
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    fn alloc_internal(&mut self) -> u64 {
        self.next_internal += 1;
        self.next_internal
    }

    /// The internal id of `client`'s request: an enveloped call keeps one
    /// id across its retries, a bare request always gets a new one.
    fn internal_id(&mut self, client: ProcessId, rpc_call: Option<u64>) -> u64 {
        let Some(call_id) = rpc_call else {
            return self.alloc_internal();
        };
        if let Some(&internal) = self.by_call.get(&(client, call_id)) {
            return internal;
        }
        let internal = self.alloc_internal();
        if let Some((_, old)) = self.by_call.insert((client, call_id), internal) {
            self.pending.remove(&old);
        }
        internal
    }

    /// Answer the client directly (reject / synthesized replies).
    fn respond(
        &self,
        ctx: &mut Ctx,
        client: ProcessId,
        token: u64,
        rpc_call: Option<u64>,
        resp: DbResponse,
    ) {
        ctx.send(client, reply_payload(token, rpc_call, resp));
    }

    /// Forward a single-shard request (`body` holds the client's
    /// [`DbMsg`]), recording where the reply goes.
    fn forward(
        &mut self,
        ctx: &mut Ctx,
        client: ProcessId,
        body: &Payload,
        rpc_call: Option<u64>,
        shard: usize,
    ) {
        let msg = body.expect::<DbMsg>();
        let internal = self.internal_id(client, rpc_call);
        self.pending.entry(internal).or_insert(Pending::Single {
            client,
            token: msg.token,
            rpc_call,
        });
        ctx.metrics().incr(&self.counters.forwarded, 1);
        let target = self.shards[shard];
        match rpc_call {
            // The shard echoes the client's token, so the client's body
            // goes on as it is: a reference count, not a copy.
            Some(_) => ctx.send(
                target,
                Payload::new(RpcRequest {
                    call_id: internal,
                    body: body.clone(),
                }),
            ),
            None => ctx.send(
                target,
                Payload::new(DbMsg {
                    token: internal,
                    req: msg.req.clone(),
                }),
            ),
        }
    }

    /// Route the client's [`DbMsg`], bare or RPC-enveloped in `payload`.
    fn handle_request(&mut self, ctx: &mut Ctx, client: ProcessId, payload: &mut Payload) {
        let (body, rpc_call) = match payload.downcast_ref::<RpcRequest>() {
            Some(req) => (&req.body, Some(req.call_id)),
            None => (&*payload, None),
        };
        let msg = body.expect::<DbMsg>();
        match &msg.req {
            DbRequest::Call { args, .. } => match args.first() {
                Some(Value::Str(key)) => {
                    let shard = self.map.owner(key);
                    self.forward(ctx, client, body, rpc_call, shard);
                }
                _ => {
                    ctx.metrics().incr(&self.counters.rejected, 1);
                    self.respond(
                        ctx,
                        client,
                        msg.token,
                        rpc_call,
                        DbResponse::CallFailed {
                            error: "router: first Call argument must be the \
                                    partition key (a string)"
                                .into(),
                        },
                    );
                }
            },
            DbRequest::Peek { key } => {
                let shard = self.map.owner(key);
                self.forward(ctx, client, body, rpc_call, shard);
            }
            DbRequest::Scan { prefix } => {
                let internal = self.alloc_internal();
                self.pending.insert(
                    internal,
                    Pending::Fanout(Box::new(Fanout {
                        client,
                        token: msg.token,
                        rpc_call,
                        awaiting: self.shards.clone(),
                        scan: Some(Vec::new()),
                        failed: None,
                    })),
                );
                ctx.metrics().incr(&self.counters.fanout, 1);
                for &shard in &self.shards {
                    ctx.send(
                        shard,
                        Payload::new(DbMsg {
                            token: internal,
                            req: DbRequest::Scan {
                                prefix: prefix.clone(),
                            },
                        }),
                    );
                }
            }
            DbRequest::Load { .. } => {
                let token = msg.token;
                let internal = self.internal_id(client, rpc_call);
                if let Some(Pending::Loaded) = self.pending.get(&internal) {
                    self.respond(ctx, client, token, rpc_call, DbResponse::Loaded);
                    return;
                }
                let pairs = load_pairs(payload);
                self.load(ctx, internal, client, token, rpc_call, pairs);
            }
            DbRequest::Begin { .. }
            | DbRequest::Read { .. }
            | DbRequest::Write { .. }
            | DbRequest::Commit { .. }
            | DbRequest::Abort { .. } => {
                ctx.metrics().incr(&self.counters.rejected, 1);
                self.respond(
                    ctx,
                    client,
                    msg.token,
                    rpc_call,
                    DbResponse::CallFailed {
                        error: "router: interactive transactions are shard-local; \
                                use 2PC (one participant per shard) for cross-shard \
                                writes"
                            .into(),
                    },
                );
            }
        }
    }

    /// Split `pairs` by owner and send each shard its group by move; the
    /// client is answered once every shard has answered. A retry of an
    /// enveloped load still under way sends again only the groups whose
    /// shards have not answered.
    fn load(
        &mut self,
        ctx: &mut Ctx,
        internal: u64,
        client: ProcessId,
        token: u64,
        rpc_call: Option<u64>,
        pairs: Vec<(Key, Value)>,
    ) {
        let groups = self.map.split_by_owner(pairs, |(k, _)| k.as_str());
        let targets: Vec<(ProcessId, Vec<(Key, Value)>)> = groups
            .into_iter()
            .enumerate()
            .filter(|(_, group)| !group.is_empty())
            .map(|(shard, group)| (self.shards[shard], group))
            .collect();
        // A group goes bare, or enveloped under the call's stable id, so
        // that the shard's dedup applies a group sent again only once.
        let group_msg = |group| {
            let msg = Payload::new(DbMsg {
                token: internal,
                req: DbRequest::Load { pairs: group },
            });
            match rpc_call {
                Some(_) => Payload::new(RpcRequest {
                    call_id: internal,
                    body: msg,
                }),
                None => msg,
            }
        };
        if let Some(Pending::Fanout(fanout)) = self.pending.get(&internal) {
            let awaiting = &fanout.awaiting;
            ctx.trace_event(|| format!("resending fan-out {internal} to {awaiting:?}"));
            for (target, group) in targets {
                if awaiting.contains(&target) {
                    ctx.send(target, group_msg(group));
                }
            }
            return;
        }
        if targets.is_empty() {
            // Empty load: nothing to distribute, ack immediately.
            self.respond(ctx, client, token, rpc_call, DbResponse::Loaded);
            return;
        }
        self.pending.insert(
            internal,
            Pending::Fanout(Box::new(Fanout {
                client,
                token,
                rpc_call,
                awaiting: targets.iter().map(|&(target, _)| target).collect(),
                scan: None,
                failed: None,
            })),
        );
        ctx.metrics().incr(&self.counters.fanout, 1);
        for (target, group) in targets {
            ctx.send(target, group_msg(group));
        }
    }

    /// Shard `from`'s answer to a single, or its share of a fan-out.
    fn handle_reply(&mut self, ctx: &mut Ctx, from: ProcessId, internal: u64, resp: DbResponse) {
        let (client, token, rpc_call, resp) = match self.pending.get_mut(&internal) {
            // Evicted entry, or a straggler of a finished fan-out.
            None | Some(Pending::Loaded) => return,
            Some(&mut Pending::Single {
                client,
                token,
                rpc_call,
            }) => {
                // A bare single is never retried through the router; an
                // enveloped one keeps its entry for its retries.
                if rpc_call.is_none() {
                    self.pending.remove(&internal);
                }
                (client, token, rpc_call, resp)
            }
            Some(Pending::Fanout(fanout)) => {
                let Fanout {
                    client,
                    token,
                    rpc_call,
                    awaiting,
                    scan,
                    failed,
                } = &mut **fanout;
                // A shard answers a group sent again, or a network
                // duplicate, once more: only its first answer counts.
                let Some(at) = awaiting.iter().position(|&shard| shard == from) else {
                    return;
                };
                awaiting.swap_remove(at);
                match (scan.as_mut(), resp) {
                    (Some(merged), DbResponse::ScanOk { pairs }) => merged.extend(pairs),
                    (None, DbResponse::Loaded) => {}
                    (_, other) => {
                        failed.get_or_insert(other);
                    }
                }
                if !awaiting.is_empty() {
                    return;
                }
                let resp = match (failed.take(), scan.take()) {
                    (Some(failure), _) => failure,
                    (None, Some(mut merged)) => {
                        merged.sort_by(|a, b| a.0.cmp(&b.0));
                        DbResponse::ScanOk { pairs: merged }
                    }
                    (None, None) => DbResponse::Loaded,
                };
                let (client, token, rpc_call) = (*client, *token, *rpc_call);
                // An applied enveloped load stays answered for its late
                // retries. Any other fan-out is forgotten: a retry of a
                // failed load asks the shards again, and they replay.
                if rpc_call.is_some() && resp == DbResponse::Loaded {
                    self.pending.insert(internal, Pending::Loaded);
                } else {
                    self.pending.remove(&internal);
                }
                (client, token, rpc_call, resp)
            }
        };
        ctx.metrics().incr(&self.counters.replies, 1);
        self.respond(ctx, client, token, rpc_call, resp);
    }
}

impl Process for ShardRouter {
    fn on_message(&mut self, ctx: &mut Ctx, from: ProcessId, mut payload: Payload) {
        // Shard replies (either shape) come back correlated by the
        // internal id the router assigned on the way out. One whose entry
        // is gone — evicted, or lost with a restart — is a straggler.
        if let Some(reply) = payload.downcast_ref::<RpcReply>() {
            let call_id = reply.call_id;
            if !self.pending.contains_key(&call_id) {
                ctx.trace_event(|| format!("dropped: reply to unknown call {call_id}"));
                return;
            }
            let resp = reply.body.expect::<DbReply>().resp.clone();
            self.handle_reply(ctx, from, call_id, resp);
            return;
        }
        if let Some(reply) = payload.downcast_ref::<DbReply>() {
            let (token, resp) = (reply.token, reply.resp.clone());
            self.handle_reply(ctx, from, token, resp);
            return;
        }
        if payload.downcast_ref::<GetTopology>().is_some() {
            ctx.send(
                from,
                Payload::new(Topology {
                    shards: self.shards.clone(),
                }),
            );
            return;
        }
        // Client requests: bare DbMsg or RPC-enveloped DbMsg.
        self.handle_request(ctx, from, &mut payload);
    }
}

/// Deploy a sharded database: `n` [`DbServer`] shards named
/// `{name}-s{i}` placed round-robin over `nodes`, fronted by a
/// [`ShardRouter`] (consistent-hash ring placement) on the *last* node.
/// Returns `(router, shards)`.
///
/// ```rust
/// use tca_sim::{Payload, Sim};
/// use tca_storage::{
///     deploy_sharded_db, DbMsg, DbRequest, DbServer, DbServerConfig, ProcRegistry, Value,
/// };
///
/// let mut sim = Sim::with_seed(7);
/// let nodes = sim.add_nodes(2);
/// let registry = || {
///     ProcRegistry::new().with("bump", |tx, args| {
///         let key = args[0].as_str().to_owned();
///         let v = tx.get(&key).map(|v| v.as_int()).unwrap_or(0);
///         tx.put(&key, Value::Int(v + 1));
///         Ok(vec![Value::Int(v + 1)])
///     })
/// };
/// let (router, shards) =
///     deploy_sharded_db(&mut sim, &nodes, "kv", DbServerConfig::default(), registry, 4);
///
/// // The router forwards each call to the ring owner of its first argument.
/// for i in 0..16u64 {
///     let req = DbRequest::Call {
///         proc: "bump".into(),
///         args: vec![Value::Str(format!("user{i:03}"))],
///     };
///     sim.inject(router, Payload::new(DbMsg { token: i, req }));
/// }
/// sim.run_to_quiescence(100_000);
///
/// // Every key landed on exactly one shard; together they hold all 16.
/// let held: usize = shards
///     .iter()
///     .filter_map(|&pid| sim.inspect::<DbServer>(pid))
///     .map(|s| (0..16).filter(|i| s.engine().peek(&format!("user{i:03}")).is_some()).count())
///     .sum();
/// assert_eq!(held, 16);
/// ```
pub fn deploy_sharded_db(
    sim: &mut Sim,
    nodes: &[NodeId],
    name: &str,
    config: DbServerConfig,
    registry: impl Fn() -> ProcRegistry,
    n: usize,
) -> (ProcessId, Vec<ProcessId>) {
    assert!(n >= 1 && !nodes.is_empty());
    let mut shards = Vec::with_capacity(n);
    for i in 0..n {
        let node = nodes[i % nodes.len()];
        shards.push(sim.spawn(
            node,
            format!("{name}-s{i}"),
            DbServer::factory(format!("{name}-s{i}"), config.clone(), registry()),
        ));
    }
    let router = sim.spawn(
        *nodes.last().expect("nodes"),
        format!("{name}-router"),
        ShardRouter::factory(format!("{name}-router"), ShardMap::ring(n), shards.clone()),
    );
    (router, shards)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tca_sim::{ScriptedFate, SimDuration};

    fn kv_registry() -> ProcRegistry {
        ProcRegistry::new()
            .with("kv_rmw", |tx, args| {
                let key = args[0].as_str().to_owned();
                let v = tx.get(&key).map(|v| v.as_int()).unwrap_or(0);
                tx.put(&key, Value::Int(v + 1));
                Ok(vec![Value::Int(v + 1)])
            })
            .with("kv_get", |tx, args| {
                Ok(vec![tx.get(args[0].as_str()).unwrap_or(Value::Null)])
            })
    }

    /// Scripted client: sends requests (bare), records responses.
    struct Script {
        router: ProcessId,
        reqs: Vec<DbRequest>,
        scanned: usize,
    }
    impl Process for Script {
        fn on_start(&mut self, ctx: &mut Ctx) {
            for (i, req) in self.reqs.drain(..).enumerate() {
                ctx.send(
                    self.router,
                    Payload::new(DbMsg {
                        token: i as u64,
                        req,
                    }),
                );
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx, _from: ProcessId, payload: Payload) {
            let reply = payload.expect::<DbReply>();
            match &reply.resp {
                DbResponse::CallOk { .. } => ctx.metrics().incr("client.call_ok", 1),
                DbResponse::CallFailed { .. } => ctx.metrics().incr("client.call_failed", 1),
                DbResponse::Loaded => ctx.metrics().incr("client.loaded", 1),
                DbResponse::PeekOk {
                    value: Some(Value::Int(v)),
                } => ctx.metrics().incr("client.peek", *v as u64),
                DbResponse::ScanOk { pairs } => self.scanned = pairs.len(),
                _ => {}
            }
        }
    }

    fn world(n: usize) -> (Sim, ProcessId, Vec<ProcessId>) {
        world_with(n, DbServerConfig::default())
    }

    fn world_with(n: usize, config: DbServerConfig) -> (Sim, ProcessId, Vec<ProcessId>) {
        let mut sim = Sim::with_seed(77);
        let nodes: Vec<NodeId> = (0..4).map(|_| sim.add_node()).collect();
        let (router, shards) = deploy_sharded_db(&mut sim, &nodes, "db", config, kv_registry, n);
        (sim, router, shards)
    }

    #[test]
    fn routes_calls_to_owning_shard_and_relays_replies() {
        let (mut sim, router, shards) = world(4);
        let nc = sim.add_node();
        let reqs: Vec<DbRequest> = (0..40)
            .map(|i| DbRequest::Call {
                proc: "kv_rmw".into(),
                args: vec![Value::Str(format!("user{i:08}"))],
            })
            .collect();
        sim.spawn(nc, "client", move |_| {
            Box::new(Script {
                router,
                reqs: reqs.clone(),
                scanned: 0,
            })
        });
        sim.run_for(SimDuration::from_millis(50));
        assert_eq!(sim.metrics().counter("client.call_ok"), 40);
        // Every key landed on the shard the ring says owns it.
        let map = ShardMap::ring(4);
        for i in 0..40 {
            let key = format!("user{i:08}");
            let owner = map.owner(&key);
            for (s, &pid) in shards.iter().enumerate() {
                let held = sim
                    .inspect::<DbServer>(pid)
                    .and_then(|db| db.engine().peek(&key));
                if s == owner {
                    assert_eq!(held, Some(Value::Int(1)), "{key} on shard {s}");
                } else {
                    assert_eq!(held, None, "{key} duplicated on shard {s}");
                }
            }
        }
        // With 40 keys over 4 ring shards, more than one shard has data.
        let busy = shards
            .iter()
            .filter(|&&pid| {
                sim.inspect::<DbServer>(pid)
                    .is_some_and(|db| !db.engine().peek_prefix("user").is_empty())
            })
            .count();
        assert!(busy > 1, "keys spread over {busy} shards");
    }

    #[test]
    fn load_splits_by_owner_and_scan_merges() {
        let (mut sim, router, _shards) = world(4);
        let nc = sim.add_node();
        let pairs: Vec<(Key, Value)> = (0..30)
            .map(|i| (format!("user{i:08}"), Value::Int(i)))
            .collect();
        sim.spawn(nc, "client", move |_| {
            Box::new(Script {
                router,
                reqs: vec![
                    DbRequest::Load {
                        pairs: pairs.clone(),
                    },
                    DbRequest::Scan {
                        prefix: "user".into(),
                    },
                ],
                scanned: 0,
            })
        });
        sim.run_for(SimDuration::from_millis(50));
        assert_eq!(sim.metrics().counter("client.loaded"), 1);
        // The scan raced the load (both issued at once) so just re-scan.
        let nc2 = sim.add_node();
        let p2 = sim.spawn(nc2, "client2", move |_| {
            Box::new(Script {
                router,
                reqs: vec![DbRequest::Scan {
                    prefix: "user".into(),
                }],
                scanned: 0,
            })
        });
        sim.run_for(SimDuration::from_millis(50));
        let scanned = sim.inspect::<Script>(p2).map(|s| s.scanned);
        assert_eq!(scanned, Some(30), "fan-out scan sees every shard's keys");
    }

    #[test]
    fn rejects_interactive_and_unkeyed_requests() {
        let (mut sim, router, _shards) = world(2);
        let nc = sim.add_node();
        sim.spawn(nc, "client", move |_| {
            Box::new(Script {
                router,
                reqs: vec![
                    DbRequest::Begin {
                        iso: crate::types::IsolationLevel::Serializable,
                    },
                    DbRequest::Call {
                        proc: "kv_rmw".into(),
                        args: vec![Value::Int(7)],
                    },
                ],
                scanned: 0,
            })
        });
        sim.run_for(SimDuration::from_millis(20));
        assert_eq!(sim.metrics().counter("client.call_failed"), 2);
        assert_eq!(sim.metrics().counter("db-router.rejected"), 2);
    }

    /// Enveloped client that retries: the router must keep the internal
    /// call id stable so the shard's dedup replays rather than re-runs.
    struct Enveloped {
        router: ProcessId,
    }
    impl Process for Enveloped {
        fn on_start(&mut self, ctx: &mut Ctx) {
            let msg = || {
                Payload::new(RpcRequest {
                    call_id: 9,
                    body: Payload::new(DbMsg {
                        token: 5,
                        req: DbRequest::Call {
                            proc: "kv_rmw".into(),
                            args: vec![Value::Str("hotkey".into())],
                        },
                    }),
                })
            };
            // Duplicate send at t=0 (a client retry racing the original).
            ctx.send(self.router, msg());
            ctx.send(self.router, msg());
        }
        fn on_message(&mut self, ctx: &mut Ctx, _from: ProcessId, payload: Payload) {
            if let Some(reply) = payload.downcast_ref::<RpcReply>() {
                assert_eq!(reply.call_id, 9, "reply carries the client's call id");
                let inner = reply.body.expect::<DbReply>();
                assert_eq!(inner.token, 5);
                if let DbResponse::CallOk { results } = &inner.resp {
                    ctx.metrics().incr("client.ok", 1);
                    // Both replies must see the SAME result: executed once.
                    assert_eq!(results[0].as_int(), 1, "deduped, not re-executed");
                }
            }
        }
    }

    #[test]
    fn retries_dedup_through_the_router() {
        let (mut sim, router, _) = world(3);
        let nc = sim.add_node();
        sim.spawn(nc, "client", move |_| Box::new(Enveloped { router }));
        sim.run_for(SimDuration::from_millis(20));
        assert_eq!(
            sim.metrics().counter("client.ok"),
            2,
            "both replies relayed"
        );
    }

    /// A shard's reply that reaches a restarted router, whose pending map
    /// was lost with the crash, is dropped as a straggler.
    #[test]
    fn a_reply_to_a_lost_call_is_dropped() {
        let (mut sim, router, shards) = world(4);
        let router_node = sim.node_of(router);
        let map = ShardMap::ring(4);
        let key = (0..)
            .map(|i| format!("user{i:08}"))
            .find(|key| sim.node_of(shards[map.owner(key)]) != router_node)
            .expect("a key owned off the router's node");
        sim.inject(
            router,
            Payload::new(RpcRequest {
                call_id: 1,
                body: Payload::new(DbMsg::call("kv_rmw", vec![Value::Str(key)])),
            }),
        );
        while sim.metrics().counter("db-router.forwarded") < 1 {
            assert!(sim.step(), "the call is forwarded");
        }
        sim.crash_node(router_node);
        sim.restart_node(router_node);
        sim.run_for(SimDuration::from_millis(10));
        assert_eq!(sim.metrics().counter("db-router.replies"), 0);
    }

    /// A shard's contents, clock and version count.
    type ShardState = (Vec<(Key, Value)>, crate::Timestamp, usize);

    /// Each shard's state once `load` has reached the router of a fresh
    /// 4-shard world and settled.
    fn loaded_shards(load: Payload) -> Vec<ShardState> {
        let (mut sim, router, shards) = world(4);
        sim.inject(router, load);
        sim.run_to_quiescence(100_000);
        assert_eq!(sim.metrics().counter("db-router.replies"), 1, "load acked");
        shards
            .iter()
            .map(|&pid| {
                let engine = sim.inspect::<DbServer>(pid).expect("shard").engine();
                let contents = engine.peek_prefix("");
                (contents, engine.clock(), engine.store().version_count())
            })
            .collect()
    }

    #[test]
    fn a_load_is_the_same_moved_or_copied() {
        let pairs = || -> Vec<(Key, Value)> {
            (0..2_000)
                .map(|i| (format!("user{i:08}"), Value::Int(i)))
                .collect()
        };
        let moved = loaded_shards(Payload::new(DbMsg::load(pairs())));
        // A handle the test keeps forces the router to copy.
        let held = Payload::new(DbMsg::load(pairs()));
        let copied = loaded_shards(held.clone());
        let kept = match &held.expect::<DbMsg>().req {
            DbRequest::Load { pairs } => pairs.len(),
            other => panic!("{other:?}"),
        };
        assert_eq!(kept, 2_000, "a shared body is never taken from");
        let enveloped = loaded_shards(Payload::new(RpcRequest {
            call_id: 1,
            body: Payload::new(DbMsg::load(pairs())),
        }));
        assert_eq!(moved, copied);
        assert_eq!(moved, enveloped);
        let held: usize = moved.iter().map(|(contents, ..)| contents.len()).sum();
        assert_eq!(held, 2_000);
        assert!(moved.iter().all(|(contents, ..)| !contents.is_empty()));
    }

    /// Sends every injected message on to the router as its own request,
    /// and counts the `Loaded` and `Overloaded` answers that come back
    /// enveloped.
    struct Proxy {
        router: ProcessId,
    }
    impl Process for Proxy {
        fn on_message(&mut self, ctx: &mut Ctx, from: ProcessId, payload: Payload) {
            if from == ProcessId::EXTERNAL {
                ctx.send(self.router, payload);
            } else if let Some(reply) = payload.downcast_ref::<RpcReply>() {
                match reply.body.expect::<DbReply>().resp {
                    DbResponse::Loaded => ctx.metrics().incr("client.loaded", 1),
                    DbResponse::Overloaded => ctx.metrics().incr("client.overloaded", 1),
                    _ => {}
                }
            }
        }
    }

    /// A world of four shards with a [`Proxy`] on the router's node, where
    /// two sends in a row arrive in order.
    fn proxied(config: DbServerConfig) -> (Sim, ProcessId, ProcessId, Vec<ProcessId>) {
        let (mut sim, router, shards) = world_with(4, config);
        let node = sim.node_of(router);
        let proxy = sim.spawn(node, "client", move |_| Box::new(Proxy { router }));
        (sim, router, proxy, shards)
    }

    fn enveloped_load(call_id: u64, key: &str) -> Payload {
        Payload::new(RpcRequest {
            call_id,
            body: Payload::new(DbMsg::load(vec![(key.into(), Value::Int(0))])),
        })
    }

    /// A key whose shard lives off the router's node, and that shard.
    fn off_node_key(sim: &Sim, router: ProcessId, shards: &[ProcessId]) -> (Key, ProcessId) {
        let map = ShardMap::ring(shards.len());
        (0..)
            .map(|i| format!("user{i:08}"))
            .map(|key| {
                let owner = shards[map.owner(&key)];
                (key, owner)
            })
            .find(|&(_, owner)| sim.node_of(owner) != sim.node_of(router))
            .expect("a key owned off the router's node")
    }

    /// Applied again, a retried `Load` would put the loaded value back
    /// over a committed write.
    #[test]
    fn a_retried_load_is_answered_not_reapplied() {
        let (mut sim, _, proxy, shards) = proxied(DbServerConfig::default());
        let load = enveloped_load(77, "k");
        // A retry racing the original reaches the shard under the same
        // id: the shard's dedup replays, and one answer goes back.
        sim.inject(proxy, load.clone());
        sim.inject(proxy, load.clone());
        sim.run_to_quiescence(10_000);
        assert_eq!(sim.metrics().counter("client.loaded"), 1);
        let bump = DbMsg::call("kv_rmw", vec![Value::Str("k".into())]);
        sim.inject(proxy, Payload::new(bump));
        sim.run_to_quiescence(10_000);
        // A late retry is answered again, not fanned out again.
        sim.inject(proxy, load);
        sim.run_to_quiescence(10_000);
        assert_eq!(sim.metrics().counter("client.loaded"), 2);
        assert_eq!(sim.metrics().counter("db-router.fanout"), 1);
        let owner = shards[ShardMap::ring(4).owner("k")];
        let db = sim.inspect::<DbServer>(owner).expect("shard");
        assert_eq!(
            db.engine().peek("k"),
            Some(Value::Int(1)),
            "the bump survives"
        );
    }

    /// The router has no timer: a load whose group or ack was lost
    /// finishes when the client retries, and each shard applies its group
    /// once.
    #[test]
    fn a_retry_recovers_a_lost_group_or_ack() {
        for lost_ack in [false, true] {
            let (mut sim, router, proxy, shards) = proxied(DbServerConfig::default());
            let (key, owner) = off_node_key(&sim, router, &shards);
            let (src, dst) = match lost_ack {
                false => (sim.node_of(router), sim.node_of(owner)),
                true => (sim.node_of(owner), sim.node_of(router)),
            };
            let nth = sim.network_mut().link_count(src, dst);
            sim.network_mut()
                .script_fate(src, dst, nth, ScriptedFate::Drop);
            let load = enveloped_load(77, &key);
            sim.inject(proxy, load.clone());
            sim.run_to_quiescence(10_000);
            assert_eq!(sim.metrics().counter("client.loaded"), 0, "lost");
            sim.inject(proxy, load);
            sim.run_to_quiescence(10_000);
            assert_eq!(sim.metrics().counter("client.loaded"), 1, "recovered");
            let engine = sim.inspect::<DbServer>(owner).expect("shard").engine();
            assert_eq!(engine.peek(&key), Some(Value::Int(0)));
            assert_eq!(engine.store().version_count(), 1, "applied once");
        }
    }

    /// A shard that sheds its group has not applied it: the load answers
    /// `Overloaded`, never `Loaded`, and so do its retries, as a shed
    /// single's do.
    #[test]
    fn a_shed_group_fails_the_load() {
        // Any wait at all sheds: a second group behind the first is shed.
        let config = DbServerConfig {
            max_queue_wait: Some(SimDuration::ZERO),
            ..DbServerConfig::default()
        };
        let (mut sim, router, proxy, shards) = proxied(config);
        // A key on the router's node, so both groups arrive in order.
        let key = (0..)
            .map(|i| format!("user{i:08}"))
            .find(|key| sim.node_of(shards[ShardMap::ring(4).owner(key)]) == sim.node_of(router))
            .expect("a key owned on the router's node");
        let owner = shards[ShardMap::ring(4).owner(&key)];
        let first = DbMsg::load(vec![(key.clone(), Value::Int(1))]);
        sim.inject(router, Payload::new(first));
        let load = enveloped_load(77, &key);
        sim.inject(proxy, load.clone());
        sim.run_to_quiescence(10_000);
        sim.inject(proxy, load);
        sim.run_to_quiescence(10_000);
        assert_eq!(sim.metrics().counter("client.overloaded"), 2);
        assert_eq!(sim.metrics().counter("client.loaded"), 0);
        let db = sim.inspect::<DbServer>(owner).expect("shard");
        assert_eq!(db.engine().peek(&key), Some(Value::Int(1)));
    }

    #[test]
    fn topology_is_exposed() {
        let (mut sim, router, shards) = world(5);
        struct Asker {
            router: ProcessId,
            expect: Vec<ProcessId>,
        }
        impl Process for Asker {
            fn on_start(&mut self, ctx: &mut Ctx) {
                ctx.send(self.router, Payload::new(GetTopology));
            }
            fn on_message(&mut self, ctx: &mut Ctx, _from: ProcessId, payload: Payload) {
                let topo = payload.expect::<Topology>();
                assert_eq!(topo.shards, self.expect);
                ctx.metrics().incr("client.topo", 1);
            }
        }
        let nc = sim.add_node();
        let expect = shards.clone();
        sim.spawn(nc, "asker", move |_| {
            Box::new(Asker {
                router,
                expect: expect.clone(),
            })
        });
        sim.run_for(SimDuration::from_millis(20));
        assert_eq!(sim.metrics().counter("client.topo"), 1);
        // Inspect-side topology agrees too.
        let seen = sim
            .inspect::<ShardRouter>(router)
            .map(|r| r.shards().to_vec());
        assert_eq!(seen, Some(shards));
    }
}
