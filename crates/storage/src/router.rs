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
//! An enveloped request is relayed, not remembered. The router hands the
//! client's `RpcRequest` to the owning shard as it is, with the client's
//! id beside it. The shard deduplicates the call under the client's own
//! call id, exactly as if the client had sent it direct, and its reply
//! goes back through the router to the client unchanged. A retry, however
//! late, is relayed again and answered from the shard's dedup window, so
//! the router adds a hop without weakening exactly-once semantics, and
//! keeps nothing once a call is answered. The request keeps the client's
//! settled claim, so the shard frees what the client no longer awaits. A
//! crash of the router loses no enveloped call: a reply that crosses a
//! restart still reaches its client.
//!
//! An enveloped fan-out sends each shard its group under the client's
//! call id too, with the client's settled claim, and waits, keyed by that
//! call, until every shard has answered once. A retry while it is under
//! way sends again the groups whose shards have not answered, which
//! recovers a lost group, a lost ack or a group dropped past its
//! deadline. A retry after it finished fans out again, and every shard
//! replays its recorded answer — or answers `Settled` once the client has
//! settled the call — so a retried `Load` is never applied again over
//! later writes. A shard that sheds its group answers `Overloaded`, and
//! so does the fan-out, as a shed single does; a `Settled` share fails
//! the fan-out the same way, and the client discards that answer.
//!
//! Only a bare request, which carries no call id, is correlated by the
//! router, under an internal id it allocates. Each incarnation of the
//! router starts its ids at its boot time in nanoseconds, so a reply sent
//! to an earlier incarnation does not answer a later request.
//!
//! The router moves what it alone holds. A `Load` whose message has no
//! other handle gives its pairs up to the split rather than being copied
//! ([`Payload::get_mut`]), and the shard moves each group into its engine
//! the same way. The split itself ([`split_load`]) gives the batch back
//! chunk by chunk while it builds the groups, so a pair is held once on
//! its way from the client's batch to its shard's base, bar one chunk of
//! the batch (an eighth) and that chunk's owners in flight. The batch is
//! one key arena ([`Pairs`]) from the generator to the base: a group is
//! cut from it by copying key bytes, never by allocating a key.

use std::collections::hash_map::Entry;
use std::ops::Range;
use std::rc::Rc;
use tca_sim::DetHashMap as HashMap;

use tca_sim::wire::{RpcReply, RpcRequest};
use tca_sim::{Boot, Ctx, NodeId, Payload, Process, ProcessId, ShardMap, Sim};

use crate::proc::ProcRegistry;
use crate::server::{
    load_pairs, reply_payload, DbMsg, DbReply, DbRequest, DbResponse, DbServer, DbServerConfig,
    Relay, Relayed,
};
use crate::types::{Key, Pairs, Value};

/// How many chunks [`split_load`] takes a batch apart in: beside the
/// batch, it holds one chunk's pieces and owners, an eighth of the batch.
const LOAD_CHUNKS: usize = 8;

/// Split a `Load`'s batch into one group per shard of `map`, each in input
/// order and at exact capacity; the groups of shards that own no pair are
/// empty.
///
/// A shard keeps its group as its base for as long as it lives, so the
/// batch is never held beside all of the groups. An eighth of it at a
/// time, from the tail, moves into pieces of exact size, one per shard,
/// and the batch shrinks to what is left. Only that chunk's owners are
/// computed, 4 bytes a pair of the chunk. Then each shard's pieces are
/// joined front to back into a group allocated at its exact size. Beyond
/// the pairs themselves, one chunk's pieces and owners are live at the
/// peak, and later one group beside the pieces it takes in.
pub fn split_load(map: &ShardMap, mut batch: Pairs) -> Vec<Pairs> {
    let n = batch.len();
    // `pieces[c][shard]`: chunk `c`, counted from the tail.
    let mut pieces: Vec<Vec<Pairs>> = Vec::with_capacity(LOAD_CHUNKS);
    for c in (0..LOAD_CHUNKS).rev() {
        let start = n * c / LOAD_CHUNKS;
        let owners: Vec<u32> = (start..batch.len())
            .map(|i| map.owner(batch.key(i)) as u32)
            .collect();
        // Each shard's pairs and key bytes in this chunk.
        let mut sizes = vec![(0, 0); map.shards()];
        for (i, &shard) in (start..).zip(&owners) {
            let (pairs, bytes) = &mut sizes[shard as usize];
            *pairs += 1;
            *bytes += batch.key(i).len();
        }
        let mut chunk: Vec<Pairs> = (sizes.into_iter())
            .map(|(pairs, bytes)| Pairs::with_capacity(pairs, bytes))
            .collect();
        let mut owners = owners.into_iter();
        batch.drain_from(start, |key, value| {
            let shard = owners.next().expect("an owner per pair");
            chunk[shard as usize].push(key, value);
        });
        batch.shrink_to_fit();
        pieces.push(chunk);
    }
    (0..map.shards())
        .map(|shard| {
            let parts = pieces.iter().map(|chunk| &chunk[shard]);
            let len = parts.clone().map(Pairs::len).sum();
            let key_bytes = parts.map(Pairs::key_bytes).sum();
            let mut group = Pairs::with_capacity(len, key_bytes);
            for chunk in pieces.iter_mut().rev() {
                group.append(std::mem::take(&mut chunk[shard]));
            }
            group
        })
        .collect()
}

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

/// A request whose answer the router waits on: a bare one under the
/// internal id it went out with, an enveloped fan-out under its client's
/// own call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Waiting {
    Bare(u64),
    Call(ProcessId, u64),
}

/// What the router does with a shard's answer.
#[derive(Debug)]
enum Pending {
    /// A bare single: pass the one reply on under the client's token.
    Single { client: ProcessId, token: u64 },
    /// A fan-out (`Load`/`Scan`) under way.
    Fanout(Fanout),
}

/// A fan-out under way: collect one answer from each shard in `awaiting`,
/// then answer the client once. `scan` accumulates merged scan results;
/// `failed` keeps the first share that went wrong.
#[derive(Debug)]
struct Fanout {
    client: ProcessId,
    token: u64,
    rpc_call: Option<u64>,
    awaiting: Vec<ProcessId>,
    scan: Option<Vec<(Key, Value)>>,
    failed: Option<DbResponse>,
}

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
    /// The last internal id given to a bare request. An incarnation
    /// starts from its boot time in nanoseconds, above the ids of every
    /// earlier one that sent fewer than one request per nanosecond.
    next_internal: u64,
    /// Bare requests and enveloped fan-outs under way. An enveloped
    /// single leaves nothing here.
    pending: HashMap<Waiting, Pending>,
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
        move |boot| {
            Box::new(ShardRouter {
                counters: Rc::clone(&counters),
                map: map.clone(),
                shards: shards.clone(),
                next_internal: boot.now.as_nanos(),
                pending: HashMap::default(),
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

    /// Answer the client at once with `CallFailed`.
    fn reject(
        &self,
        ctx: &mut Ctx,
        client: ProcessId,
        token: u64,
        rpc_call: Option<u64>,
        error: &str,
    ) {
        ctx.metrics().incr(&self.counters.rejected, 1);
        let resp = DbResponse::CallFailed {
            error: error.into(),
        };
        ctx.send(client, reply_payload(token, rpc_call, resp));
    }

    /// Route the client's [`DbMsg`], bare or RPC-enveloped in `payload`.
    fn handle_request(&mut self, ctx: &mut Ctx, client: ProcessId, payload: &mut Payload) {
        let (body, call) = match payload.downcast_ref::<RpcRequest>() {
            Some(req) => (&req.body, Some((req.call_id, req.settled.clone()))),
            None => (&*payload, None),
        };
        let rpc_call = call.as_ref().map(|&(call_id, _)| call_id);
        let msg = body.expect::<DbMsg>();
        let token = msg.token;
        let key = match &msg.req {
            DbRequest::Call { args, .. } => match args.first() {
                Some(Value::Str(key)) => key,
                _ => {
                    let error = "router: first Call argument must be the partition key (a string)";
                    return self.reject(ctx, client, token, rpc_call, error);
                }
            },
            DbRequest::Peek { key } => key,
            DbRequest::Scan { prefix } => {
                let scan = |&shard| {
                    (
                        shard,
                        DbRequest::Scan {
                            prefix: prefix.clone(),
                        },
                    )
                };
                let groups = self.shards.iter().map(scan).collect();
                return self.fan_out(ctx, client, token, call, groups, true);
            }
            DbRequest::Load { .. } => {
                let split = split_load(&self.map, load_pairs(payload));
                let groups = (self.shards.iter().zip(split))
                    .filter(|(_, pairs)| !pairs.is_empty())
                    .map(|(&shard, pairs)| (shard, DbRequest::Load { pairs }))
                    .collect();
                return self.fan_out(ctx, client, token, call, groups, false);
            }
            DbRequest::Begin { .. }
            | DbRequest::Read { .. }
            | DbRequest::Write { .. }
            | DbRequest::Commit { .. }
            | DbRequest::Abort { .. } => {
                let error = "router: interactive transactions are shard-local; use 2PC \
                             (one participant per shard) for cross-shard writes";
                return self.reject(ctx, client, token, rpc_call, error);
            }
        };
        let target = self.shards[self.map.owner(key)];
        ctx.metrics().incr(&self.counters.forwarded, 1);
        let forward = match rpc_call {
            // The shard answers the client's call itself, through us.
            Some(_) => Payload::new(Relay {
                client,
                request: payload.clone(),
                group: false,
            }),
            None => {
                let req = msg.req.clone();
                let internal = self.alloc_internal();
                let single = Pending::Single { client, token };
                self.pending.insert(Waiting::Bare(internal), single);
                Payload::new(DbMsg {
                    token: internal,
                    req,
                })
            }
        };
        ctx.send(target, forward);
    }

    /// Send each shard in `groups` its share of the client's request, and
    /// answer the client once every one has answered. A bare fan-out goes
    /// out under a new internal id. An enveloped one, `call` = its id and
    /// settled claim, is relayed under the client's call id with the
    /// claim, so each shard dedups its group and frees what the client
    /// settled; a retry while it is under way sends again only the groups
    /// not yet answered.
    fn fan_out(
        &mut self,
        ctx: &mut Ctx,
        client: ProcessId,
        token: u64,
        call: Option<(u64, Range<u64>)>,
        groups: Vec<(ProcessId, DbRequest)>,
        scan: bool,
    ) {
        let (rpc_call, settled) = match call {
            Some((call_id, settled)) => (Some(call_id), settled),
            None => (None, 0..0),
        };
        let waiting = match rpc_call {
            Some(call_id) => Waiting::Call(client, call_id),
            None => Waiting::Bare(self.alloc_internal()),
        };
        let group_msg = |req| match waiting {
            Waiting::Bare(internal) => Payload::new(DbMsg {
                token: internal,
                req,
            }),
            Waiting::Call(client, call_id) => {
                let mut request = RpcRequest::new(call_id, Payload::new(DbMsg { token, req }));
                request.settled = settled.clone();
                Payload::new(Relay {
                    client,
                    request: Payload::new(request),
                    group: true,
                })
            }
        };
        if let Some(Pending::Fanout(fanout)) = self.pending.get(&waiting) {
            let awaiting = &fanout.awaiting;
            ctx.trace_event(|| format!("resending fan-out {waiting:?} to {awaiting:?}"));
            for (target, req) in groups {
                if awaiting.contains(&target) {
                    ctx.send(target, group_msg(req));
                }
            }
            return;
        }
        if groups.is_empty() {
            // Empty load: nothing to distribute, ack immediately.
            ctx.send(client, reply_payload(token, rpc_call, DbResponse::Loaded));
            return;
        }
        let fanout = Fanout {
            client,
            token,
            rpc_call,
            awaiting: groups.iter().map(|&(target, _)| target).collect(),
            scan: scan.then(Vec::new),
            failed: None,
        };
        self.pending.insert(waiting, Pending::Fanout(fanout));
        ctx.metrics().incr(&self.counters.fanout, 1);
        for (target, req) in groups {
            ctx.send(target, group_msg(req));
        }
    }

    /// Shard `from`'s answer to a bare single, or its share of a fan-out.
    fn handle_reply(&mut self, ctx: &mut Ctx, from: ProcessId, waiting: Waiting, resp: DbResponse) {
        // No entry: a straggler of a finished fan-out, or the answer to a
        // request an earlier incarnation sent.
        let Entry::Occupied(mut entry) = self.pending.entry(waiting) else {
            return;
        };
        let resp = match entry.get_mut() {
            Pending::Single { .. } => resp,
            Pending::Fanout(Fanout {
                awaiting,
                scan,
                failed,
                ..
            }) => {
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
                match (failed.take(), scan.take()) {
                    (Some(failure), _) => failure,
                    (None, Some(mut merged)) => {
                        merged.sort_by(|a, b| a.0.cmp(&b.0));
                        DbResponse::ScanOk { pairs: merged }
                    }
                    (None, None) => DbResponse::Loaded,
                }
            }
        };
        let (client, token, rpc_call) = match entry.remove() {
            Pending::Single { client, token } => (client, token, None),
            Pending::Fanout(fanout) => (fanout.client, fanout.token, fanout.rpc_call),
        };
        ctx.metrics().incr(&self.counters.replies, 1);
        ctx.send(client, reply_payload(token, rpc_call, resp));
    }
}

impl Process for ShardRouter {
    fn on_message(&mut self, ctx: &mut Ctx, from: ProcessId, mut payload: Payload) {
        if let Some(relayed) = payload.downcast_ref::<Relayed>() {
            let reply = relayed.reply.expect::<RpcReply>();
            if relayed.group {
                let waiting = Waiting::Call(relayed.client, reply.call_id);
                let resp = reply.body.expect::<DbReply>().resp.clone();
                self.handle_reply(ctx, from, waiting, resp);
            } else {
                // A single's reply, as the shard addressed it.
                ctx.metrics().incr(&self.counters.replies, 1);
                ctx.send(relayed.client, relayed.reply.clone());
            }
            return;
        }
        if let Some(reply) = payload.downcast_ref::<DbReply>() {
            let (waiting, resp) = (Waiting::Bare(reply.token), reply.resp.clone());
            self.handle_reply(ctx, from, waiting, resp);
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
        let pairs: Pairs = (0..30)
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
                Payload::new(RpcRequest::new(
                    9,
                    Payload::new(DbMsg {
                        token: 5,
                        req: DbRequest::Call {
                            proc: "kv_rmw".into(),
                            args: vec![Value::Str("hotkey".into())],
                        },
                    }),
                ))
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

    /// The split as one pass over the batch: each pair pushed onto its
    /// owner's group.
    fn split_in_one_pass(map: &ShardMap, batch: &Pairs) -> Vec<Pairs> {
        let mut groups = vec![Pairs::new(); map.shards()];
        for (key, value) in batch.iter() {
            groups[map.owner(key)].push(key, value.into_owned());
        }
        groups
    }

    #[test]
    fn split_load_preserves_order_and_ownership() {
        let keys = |n: i64, distinct: i64| -> Pairs {
            (0..n)
                .map(|i| (format!("user{:08}", i % distinct), Value::Int(i)))
                .collect()
        };
        let mut spare = Pairs::with_capacity(137, 37 * 12 + 100);
        spare.append(keys(37, 37));
        assert_ne!(spare.spare_capacity(), [0, 0, 0]);
        let mut mixed = keys(300, 300);
        mixed.push("user00000007", Value::from("seven"));
        let cases = [
            ("empty", 4, Pairs::new()),
            ("one shard", 1, keys(50, 50)),
            ("more shards than items", 16, keys(5, 5)),
            ("fewer items than chunks", 3, keys(7, 7)),
            ("repeated keys", 4, keys(300, 40)),
            ("spare capacity", 4, spare),
            ("a value that is not an Int", 4, mixed),
            ("many", 16, keys(10_001, 10_001)),
        ];
        for (case, shards, batch) in cases {
            let map = ShardMap::ring(shards);
            let expected = split_in_one_pass(&map, &batch);
            let groups = split_load(&map, batch);
            assert_eq!(groups, expected, "{case}");
            for (group, expected) in groups.iter().zip(&expected) {
                assert_eq!(group.spare_capacity(), [0, 0, 0], "{case}: spare capacity");
                assert_eq!(group.ints(), expected.ints(), "{case}: value column");
            }
        }
    }

    #[test]
    fn a_load_is_the_same_moved_or_copied() {
        let pairs = || -> Pairs {
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
        let enveloped = loaded_shards(Payload::new(RpcRequest::new(
            1,
            Payload::new(DbMsg::load(pairs())),
        )));
        assert_eq!(moved, copied);
        assert_eq!(moved, enveloped);
        let held: usize = moved.iter().map(|(contents, ..)| contents.len()).sum();
        assert_eq!(held, 2_000);
        assert!(moved.iter().all(|(contents, ..)| !contents.is_empty()));
    }

    /// Sends every injected message on to the router as its own request,
    /// and keeps every answer that comes back, bare or enveloped. It also
    /// counts the `Loaded` and `Overloaded` ones.
    struct Proxy {
        router: ProcessId,
        answers: Vec<DbResponse>,
    }
    impl Process for Proxy {
        fn on_message(&mut self, ctx: &mut Ctx, from: ProcessId, payload: Payload) {
            if from == ProcessId::EXTERNAL {
                ctx.send(self.router, payload);
                return;
            }
            let reply = match payload.downcast_ref::<RpcReply>() {
                Some(reply) => reply.body.expect::<DbReply>(),
                None => payload.expect::<DbReply>(),
            };
            match reply.resp {
                DbResponse::Loaded => ctx.metrics().incr("client.loaded", 1),
                DbResponse::Overloaded => ctx.metrics().incr("client.overloaded", 1),
                _ => {}
            }
            self.answers.push(reply.resp.clone());
        }
    }

    fn spawn_proxy(sim: &mut Sim, node: NodeId, router: ProcessId) -> ProcessId {
        sim.spawn(node, "client", move |_| {
            Box::new(Proxy {
                router,
                answers: Vec::new(),
            })
        })
    }

    fn answers(sim: &Sim, proxy: ProcessId) -> &[DbResponse] {
        &sim.inspect::<Proxy>(proxy).expect("proxy").answers
    }

    /// A world of four shards with a [`Proxy`] on the router's node, where
    /// two sends in a row arrive in order.
    fn proxied(config: DbServerConfig) -> (Sim, ProcessId, ProcessId, Vec<ProcessId>) {
        let (mut sim, router, shards) = world_with(4, config);
        let node = sim.node_of(router);
        let proxy = spawn_proxy(&mut sim, node, router);
        (sim, router, proxy, shards)
    }

    fn enveloped(call_id: u64, msg: DbMsg) -> Payload {
        Payload::new(RpcRequest::new(call_id, Payload::new(msg)))
    }

    fn enveloped_load(call_id: u64, key: &str) -> Payload {
        enveloped(call_id, DbMsg::load(vec![(key.into(), Value::Int(0))]))
    }

    fn bump(key: &str) -> DbMsg {
        DbMsg::call("kv_rmw", vec![Value::Str(key.into())])
    }

    fn token_0(req: DbRequest) -> DbMsg {
        DbMsg { token: 0, req }
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

    /// Crash and restart the router's node once the router has forwarded
    /// its first request, with the reply still to come.
    fn restart_router_in_flight(sim: &mut Sim, router: ProcessId) {
        while sim.metrics().counter("db-router.forwarded") < 1 {
            assert!(sim.step(), "the call is forwarded");
        }
        let node = sim.node_of(router);
        sim.crash_node(node);
        sim.restart_node(node);
    }

    /// The router holds nothing a relayed reply needs, so a reply that
    /// reaches a restarted router still goes on to its client, once.
    #[test]
    fn a_reply_crossing_a_router_restart_reaches_its_client() {
        let (mut sim, router, shards) = world(4);
        let (key, _) = off_node_key(&sim, router, &shards);
        let node = sim.add_node();
        let proxy = spawn_proxy(&mut sim, node, router);
        sim.inject(proxy, enveloped(1, bump(&key)));
        restart_router_in_flight(&mut sim, router);
        sim.run_to_quiescence(10_000);
        let ok = DbResponse::CallOk {
            results: vec![Value::Int(1)],
        };
        assert_eq!(answers(&sim, proxy), [ok]);
        assert_eq!(sim.metrics().counter("db-router.replies"), 1);
    }

    /// A bare request is answered under an internal id. A restarted
    /// router starts its ids at its boot time, so the reply to a request
    /// of the crashed incarnation does not answer a new one that reuses
    /// the client's token.
    #[test]
    fn a_bare_reply_crossing_a_restart_answers_no_new_call() {
        let (mut sim, router, shards) = world(4);
        let (key, _) = off_node_key(&sim, router, &shards);
        let node = sim.add_node();
        let proxy = spawn_proxy(&mut sim, node, router);
        sim.inject(proxy, Payload::new(bump(&key)));
        restart_router_in_flight(&mut sim, router);
        sim.inject(proxy, Payload::new(token_0(DbRequest::Peek { key })));
        sim.run_to_quiescence(10_000);
        let peeked = DbResponse::PeekOk {
            value: Some(Value::Int(1)),
        };
        assert_eq!(answers(&sim, proxy), [peeked]);
    }

    /// A retry sent after its reply was relayed reaches the shard again
    /// and is answered from the shard's dedup window, not run again.
    #[test]
    fn a_late_retry_is_replayed_not_rerun() {
        let (mut sim, _, proxy, shards) = proxied(DbServerConfig::default());
        let call = enveloped(9, bump("k"));
        sim.inject(proxy, call.clone());
        sim.run_to_quiescence(10_000);
        sim.inject(proxy, call);
        sim.run_to_quiescence(10_000);
        let owner = ShardMap::ring(4).owner("k");
        let engine = sim
            .inspect::<DbServer>(shards[owner])
            .expect("shard")
            .engine();
        // A commit leaves one version of a key however often it ran, so
        // the value and the commit count show the bump ran once.
        assert_eq!(engine.peek("k"), Some(Value::Int(1)), "bumped once");
        assert_eq!(engine.commit_count(), 1, "one commit");
        assert_eq!(sim.metrics().counter(&format!("db-s{owner}.deduped")), 1);
        let ok = DbResponse::CallOk {
            results: vec![Value::Int(1)],
        };
        assert_eq!(answers(&sim, proxy), [ok.clone(), ok]);
    }

    /// Enveloped singles and fan-outs, each with a retry racing it and a
    /// late one, all answered: the router has no entry left for any.
    #[test]
    fn a_router_keeps_nothing_once_calls_are_answered() {
        let (mut sim, router, proxy, _) = proxied(DbServerConfig::default());
        let pairs = (0..20).map(|i| (format!("user{i:08}"), Value::Int(i)));
        let msgs = [
            DbMsg::load(pairs.collect::<Pairs>()),
            bump("user00000003"),
            token_0(DbRequest::Peek {
                key: "user00000004".into(),
            }),
            token_0(DbRequest::Scan {
                prefix: "user".into(),
            }),
        ];
        for (call_id, msg) in (1..).zip(msgs) {
            let call = enveloped(call_id, msg);
            sim.inject(proxy, call.clone());
            sim.inject(proxy, call.clone());
            sim.run_to_quiescence(10_000);
            sim.inject(proxy, call);
            sim.run_to_quiescence(10_000);
        }
        // A fan-out answers a racing retry once; a single answers each.
        assert_eq!(answers(&sim, proxy).len(), 2 + 3 + 3 + 2);
        let left = &sim.inspect::<ShardRouter>(router).expect("router").pending;
        assert!(left.is_empty(), "{left:?}");
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
        sim.inject(proxy, Payload::new(bump("k")));
        sim.run_to_quiescence(10_000);
        // A late retry fans out again, and the shard replays `Loaded`.
        sim.inject(proxy, load);
        sim.run_to_quiescence(10_000);
        assert_eq!(sim.metrics().counter("client.loaded"), 2);
        let owner = ShardMap::ring(4).owner("k");
        assert_eq!(
            sim.metrics().counter(&format!("db-s{owner}.deduped")),
            2,
            "the racing and the late retry are replayed"
        );
        let db = sim.inspect::<DbServer>(shards[owner]).expect("shard");
        assert_eq!(
            db.engine().peek("k"),
            Some(Value::Int(1)),
            "the bump survives"
        );
    }

    /// A late retry of an enveloped `Scan` its client has since settled
    /// fans out again; every shard answers `Settled`, and the router
    /// merges those shares into one answer, as it merges any failure.
    #[test]
    fn a_late_retry_of_a_settled_scan_is_answered_once() {
        let (mut sim, router, proxy, _) = proxied(DbServerConfig::default());
        let scan = || {
            token_0(DbRequest::Scan {
                prefix: "user".into(),
            })
        };
        // A client whose nonce is 8: its claims start at 9.
        let mut first = RpcRequest::new(9, Payload::new(scan()));
        first.settled = 9..9;
        let late = Payload::new(first);
        sim.inject(proxy, late.clone());
        sim.run_to_quiescence(10_000);
        // The client's next call settles call 9 on every shard.
        let mut next = RpcRequest::new(10, Payload::new(scan()));
        next.settled = 9..10;
        sim.inject(proxy, Payload::new(next));
        sim.run_to_quiescence(10_000);
        sim.inject(proxy, late);
        sim.run_to_quiescence(10_000);
        let scanned = DbResponse::ScanOk { pairs: Vec::new() };
        let answered = [scanned.clone(), scanned, DbResponse::Settled];
        assert_eq!(answers(&sim, proxy), answered);
        for shard in 0..4 {
            let deduped = sim.metrics().counter(&format!("db-s{shard}.deduped"));
            assert_eq!(
                deduped, 1,
                "shard {shard} answers the retry from its window"
            );
        }
        let left = &sim.inspect::<ShardRouter>(router).expect("router").pending;
        assert!(left.is_empty(), "{left:?}");
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
