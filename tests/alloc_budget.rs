//! What a committed 2PC transfer, a stored-procedure read, a loaded pair
//! and a model-checked state cost the host's allocator, that a transfer
//! leaves nothing behind, that a settled call leaves only its id, that a
//! loaded pair is held once, in its shard's key arena and int column (at
//! most 35 B live a pair), that a loaded integer is read without an
//! allocation, and that a committed key keeps one version
//! while no snapshot reads it (at most 64 B of growth per key over a
//! checkpoint cycle of commits).
//!
//! Two bank participants and a coordinator serve one client that commits
//! transfers back to back over a fixed set of accounts, so every bounded
//! structure (lock table, version chains, WAL between checkpoints, the
//! recently-decided window) reaches its steady size and anything that
//! still grows is history nobody reads. A single `DbServer` serves YCSB
//! reads to one client the same way, and a sharded database takes one
//! bulk load. A bare `Engine` takes a bulk load and reads it back, and
//! one commits round-robin over a few keys with a
//! serializable transaction held open, which pins no history. The model
//! checker explores E18's 2PC×1 configuration, where the visited set is
//! most of what it holds. The allocator below
//! counts for the calling thread only: each test measures its own
//! simulation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::borrow::Cow;
use std::cell::Cell;

use tca::messaging::{RetryPolicy, RpcClient, RpcEvent};
use tca::sim::mc::{explore, McConfig};
use tca::sim::{Ctx, NodeId, Payload, Process, ProcessId, Sim, SimDuration};
use tca::storage::{
    deploy_sharded_db, CommitResult, DbMsg, DbReply, DbResponse, DbServer, DbServerConfig,
    DurableCell, DurableLog, Engine, EngineConfig, IsolationLevel, OpResult, Value,
};
use tca::txn::mc_scenarios::twopc_mc_scenario;
use tca::txn::worlds::bank_registry_from;
use tca::txn::{DtxOutcome, ParticipantConfig, StartDtx, TwoPcCoordinator, TwoPcParticipant};
use tca::workloads::ycsb::{self, YcsbScale};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    /// The highest `LIVE_BYTES` since the last [`reset_peak`].
    static PEAK_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// Count one allocation or resize that leaves `live` bytes changed by
/// `delta`.
fn counted(allocations: u64, delta: i64) {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + allocations));
    let _ = LIVE_BYTES.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK_BYTES.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

/// Restart peak tracking from the current live size.
fn reset_peak() {
    PEAK_BYTES.set(LIVE_BYTES.get());
}

struct Counting;

// SAFETY: every request goes to `System` unchanged; the counters are
// const-initialised thread-locals without destructors, so touching them
// neither allocates nor outlives the thread.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        counted(1, layout.size() as i64);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        counted(0, -(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
    // A resize counts once, as the benchmark's allocator counts it, and
    // gives its old bytes back before it takes the new ones.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        counted(0, -(layout.size() as i64));
        counted(1, new_size as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Accounts per bank: transfer `i` moves 1 from `a{i % ACCOUNTS}` to
/// `b{i % ACCOUNTS}`.
const ACCOUNTS: u64 = 32;

/// One transfer at a time, the next as soon as the last one's outcome is in.
struct Teller {
    coordinator: ProcessId,
    banks: [ProcessId; 2],
    sent: u64,
    rpc: RpcClient,
}

impl Teller {
    fn transfer(&mut self, ctx: &mut Ctx) {
        let account = self.sent % ACCOUNTS;
        let branch = |bank: ProcessId, proc: &str, side: char| {
            let args = vec![Value::Str(format!("{side}{account}")), Value::Int(1)];
            (bank, proc.to_owned(), args)
        };
        let start = StartDtx {
            branches: vec![
                branch(self.banks[0], "debit", 'a'),
                branch(self.banks[1], "credit", 'b'),
            ],
        };
        let policy = RetryPolicy::at_most_once(SimDuration::from_secs(10));
        self.rpc.call(
            ctx,
            self.coordinator,
            Payload::new(start),
            policy,
            self.sent,
        );
        self.sent += 1;
    }
}

impl Process for Teller {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.transfer(ctx);
    }
    fn on_message(&mut self, ctx: &mut Ctx, _from: ProcessId, payload: Payload) {
        if let Some(RpcEvent::Reply { body, .. }) = self.rpc.on_message(ctx, &payload) {
            assert!(body.expect::<DtxOutcome>().committed, "nothing contends");
            ctx.metrics().incr("teller.committed", 1);
            self.transfer(ctx);
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx, tag: u64) {
        let _ = self.rpc.on_timer(ctx, tag);
    }
}

fn bank_world() -> Sim {
    let mut sim = Sim::with_seed(21);
    let nodes = sim.add_nodes(4);
    let bank = |name: &'static str| {
        let registry = bank_registry_from(1 << 40);
        TwoPcParticipant::factory(name, ParticipantConfig::default(), registry)
    };
    let banks = [
        sim.spawn(nodes[0], "bank-a", bank("pa")),
        sim.spawn(nodes[1], "bank-b", bank("pb")),
    ];
    let coordinator = sim.spawn(nodes[2], "coordinator", TwoPcCoordinator::factory());
    sim.spawn(nodes[3], "teller", move |_| {
        Box::new(Teller {
            coordinator,
            banks,
            sent: 0,
            rpc: RpcClient::new(),
        })
    });
    sim
}

/// Step `sim` until its client's `counter` reaches `n`.
fn run_to(sim: &mut Sim, counter: &str, n: u64) {
    while sim.metrics().counter(counter) < n {
        assert!(sim.step(), "the client never stops");
    }
}

/// The engines checkpoint every 1024 commits (and each bank commits one
/// branch per transfer), so measuring at multiples of it compares WALs at
/// the same point of their cycle.
const CHECKPOINT: u64 = 1024;

#[test]
fn a_committed_transfer_stays_within_its_allocation_budget() {
    // Client, kernel and network included. Measured 46; copying the
    // request body at every layer and formatting a counter name per
    // message made it 93, and copying each installed key and collecting
    // the released keys into a `Vec` made it 50.
    const BUDGET: u64 = 60;
    let mut sim = bank_world();
    run_to(&mut sim, "teller.committed", CHECKPOINT);
    let before = ALLOCATIONS.get();
    run_to(&mut sim, "teller.committed", 2 * CHECKPOINT);
    let per_transfer = (ALLOCATIONS.get() - before) / CHECKPOINT;
    assert!(
        per_transfer <= BUDGET,
        "{per_transfer} allocations per committed transfer, budget {BUDGET}"
    );
}

#[test]
fn retained_heap_does_not_grow_with_commits() {
    // Both readings come after the recently-decided windows (4096 txids)
    // have filled, so what is left to differ is a request in flight.
    // Measured 0 B; footprints kept per commit are some 430 B a transfer,
    // 4.2 MiB over this run.
    const SLACK: i64 = 64 * 1024;
    let mut sim = bank_world();
    run_to(&mut sim, "teller.committed", 5 * CHECKPOINT);
    let before = LIVE_BYTES.get();
    run_to(&mut sim, "teller.committed", 15 * CHECKPOINT);
    let grown = LIVE_BYTES.get() - before;
    assert!(
        grown <= SLACK,
        "{grown} B retained by 10 × {CHECKPOINT} more commits, slack {SLACK}"
    );
}

/// Keys the reader cycles through: `user{i % RECORDS}`.
const RECORDS: usize = 64;

/// One `ycsb_read` call at a time, the next as soon as the last replies.
struct Reader {
    server: ProcessId,
    sent: u64,
    rpc: RpcClient,
    /// How long a call waits for its reply; its timer stays queued that
    /// long after the reply.
    timeout: SimDuration,
}

impl Reader {
    fn new(server: ProcessId, timeout: SimDuration) -> Self {
        Reader {
            server,
            sent: 0,
            rpc: RpcClient::new(),
            timeout,
        }
    }

    fn call(&mut self, ctx: &mut Ctx, msg: DbMsg) {
        let policy = RetryPolicy::at_most_once(self.timeout);
        self.rpc
            .call(ctx, self.server, Payload::new(msg), policy, self.sent);
        self.sent += 1;
    }

    fn read(&mut self, ctx: &mut Ctx) {
        let key = format!("user{:08}", self.sent as usize % RECORDS);
        self.call(ctx, DbMsg::call("ycsb_read", vec![Value::Str(key)]));
    }
}

impl Process for Reader {
    fn on_start(&mut self, ctx: &mut Ctx) {
        let scale = YcsbScale {
            records: RECORDS,
            theta: 0.0,
        };
        self.call(ctx, DbMsg::load(ycsb::seed(&scale)));
    }
    fn on_message(&mut self, ctx: &mut Ctx, _from: ProcessId, payload: Payload) {
        if let Some(RpcEvent::Reply { body, .. }) = self.rpc.on_message(ctx, &payload) {
            match &body.expect::<DbReply>().resp {
                DbResponse::Loaded => {}
                DbResponse::CallOk { results } => {
                    assert!(matches!(results[0], Value::Int(_)), "every key is loaded");
                    ctx.metrics().incr("reader.read", 1);
                }
                other => panic!("{other:?}"),
            }
            self.read(ctx);
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx, tag: u64) {
        let _ = self.rpc.on_timer(ctx, tag);
    }
}

/// Allocations per `ycsb_read` call of a [`Reader`] spawned on `node`
/// against `server`, once the first `CHECKPOINT` calls are done.
fn allocations_per_read(mut sim: Sim, node: NodeId, server: ProcessId) -> u64 {
    sim.spawn(node, "reader", move |_| {
        Box::new(Reader::new(server, SimDuration::from_secs(10)))
    });
    run_to(&mut sim, "reader.read", CHECKPOINT);
    let before = ALLOCATIONS.get();
    run_to(&mut sim, "reader.read", 2 * CHECKPOINT);
    (ALLOCATIONS.get() - before) / CHECKPOINT
}

#[test]
fn a_read_call_stays_within_its_allocation_budget() {
    // Client, kernel and network included. Measured 9: the procedure
    // runs alone and takes no locks, and the server records its reply
    // by handle. Through the lock table it was 14, and a copy of the
    // response kept for duplicates made it 10.
    const BUDGET: u64 = 12;
    let mut sim = Sim::with_seed(21);
    let nodes = sim.add_nodes(2);
    let server = sim.spawn(
        nodes[0],
        "db",
        DbServer::factory("db", DbServerConfig::default(), ycsb::registry()),
    );
    let per_read = allocations_per_read(sim, nodes[1], server);
    assert!(
        per_read <= BUDGET,
        "{per_read} allocations per read call, budget {BUDGET}"
    );
}

#[test]
fn a_routed_read_call_stays_within_its_budget() {
    // The same reads through a router in front of four shards. Measured
    // 11: the router relays the client's request by handle in one
    // message and the shard's reply in another, and remembers nothing.
    // Keeping each call in the router's own tables and building the
    // reply again there made it 14.
    const BUDGET: u64 = 12;
    let mut sim = Sim::with_seed(21);
    let nodes = sim.add_nodes(3);
    let config = DbServerConfig::default();
    let (router, _) = deploy_sharded_db(&mut sim, &nodes[..2], "ycsb", config, ycsb::registry, 4);
    let per_read = allocations_per_read(sim, nodes[2], router);
    assert!(
        per_read <= BUDGET,
        "{per_read} allocations per routed read call, budget {BUDGET}"
    );
}

#[test]
fn a_settled_call_keeps_only_its_key() {
    // Live bytes a served call leaves at its server once its client has
    // settled it, kernel and network included: its 8-byte id in its
    // client incarnation's ascending list, which here has just doubled to
    // twice the ids it holds. Measured 15.5 B. Keeping the settled key in
    // the dedup window, with its share of the window's table and order
    // queue, made it 91.9 B; keeping the reply of every call until the
    // window evicted it, 259.9 B.
    const CALLS: u64 = 16_384;
    const BUDGET: f64 = 16.0;
    let mut sim = Sim::with_seed(21);
    let nodes = sim.add_nodes(2);
    let server = sim.spawn(
        nodes[0],
        "db",
        DbServer::factory("db", DbServerConfig::default(), ycsb::registry()),
    );
    // A round trip takes at most 1.02 ms here: with a 5 ms timeout only
    // a handful of stale timers are queued at any time.
    sim.spawn(nodes[1], "reader", move |_| {
        Box::new(Reader::new(server, SimDuration::from_millis(5)))
    });
    run_to(&mut sim, "reader.read", CHECKPOINT);
    let before = LIVE_BYTES.get();
    run_to(&mut sim, "reader.read", CHECKPOINT + CALLS);
    let per_call = (LIVE_BYTES.get() - before) as f64 / CALLS as f64;
    assert!(
        per_call <= BUDGET,
        "{per_call:.1} B live per settled call, budget {BUDGET}"
    );
}

#[test]
fn a_bulk_load_moves_its_pairs() {
    // From building the batch to the last shard's ack, kernel and
    // network included. Measured 0.029 per pair: no pair allocates, so
    // this is the batch's three buffers, the router's chunk pieces and
    // groups, the shards' base indexes and the tables, shared over 20 000
    // pairs. A `String` per key made it 1.01; a one-version chain per key,
    // beside a checkpoint image holding its own copy of every key, 3.10;
    // copying the batch at the router and each group at its shard, 6.11.
    const PAIRS: usize = 20_000;
    const BUDGET: f64 = 0.05;
    // What the load leaves live, per pair. Measured 33.3 B:
    //   12  the key's bytes in its group's arena, which the shard keeps
    //       as its base;
    //    4  the key's end offset;
    //    8  the value, a bare `i64` in the batch's int column;
    //  9.1  its share of the base's index of 8-byte slots, 7/8 full;
    //  0.1  the shards' tables and acks.
    // A column of 32-byte `Value`s made it 57.3; a `String` per key (24 B
    // of header and a 12-byte allocation) in a `(Key, Value)` vector,
    // 77.3; that index rounded up to a power of two, 81.2; a map of one
    // version per key, 118.6; a chain per key beside the image's copy,
    // 203.3.
    const LIVE_BUDGET: f64 = 35.0;
    // The most the load holds at once, per pair. Measured 33.3 B: the end
    // state. The router's split holds the batch's 24 B a pair beside one
    // chunk's pieces (3 B) and owners (0.5 B), and a shard's index comes
    // only after its group, so no transient reaches the end state. A
    // column of `Value`s made it 57.3; a `String` batch, split beside an
    // owner list of the whole batch, 79.0; splitting the whole batch into
    // groups while holding it, 128.0: every pair twice.
    const PEAK_BUDGET: f64 = 36.0;
    let mut sim = Sim::with_seed(21);
    let nodes = sim.add_nodes(8);
    let config = DbServerConfig::default();
    let (router, _) = deploy_sharded_db(&mut sim, &nodes, "ycsb", config, ycsb::registry, 16);
    let (before, live_before) = (ALLOCATIONS.get(), LIVE_BYTES.get());
    reset_peak();
    let scale = YcsbScale {
        records: PAIRS,
        theta: 0.0,
    };
    sim.inject(router, Payload::new(DbMsg::load(ycsb::seed(&scale))));
    sim.run_to_quiescence(1_000_000);
    let per_pair = (ALLOCATIONS.get() - before) as f64 / PAIRS as f64;
    let live_per_pair = (LIVE_BYTES.get() - live_before) as f64 / PAIRS as f64;
    let peak_per_pair = (PEAK_BYTES.get() - live_before) as f64 / PAIRS as f64;
    assert_eq!(
        sim.metrics().counter("ycsb-router.replies"),
        1,
        "load acked"
    );
    assert!(
        per_pair <= BUDGET,
        "{per_pair:.2} allocations per loaded pair, budget {BUDGET}"
    );
    assert!(
        live_per_pair <= LIVE_BUDGET,
        "{live_per_pair:.1} B live per loaded pair, budget {LIVE_BUDGET}"
    );
    assert!(
        peak_per_pair <= PEAK_BUDGET,
        "{peak_per_pair:.1} B peak per loaded pair, budget {PEAK_BUDGET}"
    );
}

#[test]
fn a_loaded_int_is_held_in_8_bytes_and_read_without_allocating() {
    // What a bulk load into a bare engine leaves live, per pair. Measured
    // 33.1 B: 12 key bytes, a 4-byte end offset, the 8-byte integer and
    // 9.1 B of index. A column of `Value`s made it 57.1.
    const PAIRS: usize = 4_096;
    const LIVE_BUDGET: f64 = 35.0;
    let mut engine = Engine::new(
        EngineConfig::default(),
        DurableLog::new(),
        DurableCell::new(),
    );
    engine.record_footprints(false);
    let live_before = LIVE_BYTES.get();
    let scale = YcsbScale {
        records: PAIRS,
        theta: 0.0,
    };
    engine.load_batch(ycsb::seed(&scale));
    let live_per_pair = (LIVE_BYTES.get() - live_before) as f64 / PAIRS as f64;
    assert!(
        live_per_pair <= LIVE_BUDGET,
        "{live_per_pair:.1} B live per loaded pair, budget {LIVE_BUDGET}"
    );
    // A read hands out the integer as an owned `Value::Int`: no
    // allocation, where a `Str` read clones its string.
    let keys: Vec<String> = (0..PAIRS).map(ycsb::user_key).collect();
    let tx = engine.begin(IsolationLevel::ReadCommitted);
    let before = ALLOCATIONS.get();
    for (i, key) in keys.iter().enumerate() {
        let (read, _) = engine.read(tx, key);
        assert_eq!(read, OpResult::Read(Some(Value::Int(i as i64))));
        assert_eq!(engine.peek(key), Some(Value::Int(i as i64)));
        let stored = engine.store().read_latest(key);
        assert!(
            matches!(stored, Some(Cow::Owned(Value::Int(_)))),
            "{stored:?}"
        );
    }
    let allocations = ALLOCATIONS.get() - before;
    assert_eq!(
        allocations, 0,
        "allocations over {PAIRS} reads of loaded Ints"
    );
    let mut strings = Engine::new(
        EngineConfig::default(),
        DurableLog::new(),
        DurableCell::new(),
    );
    strings.load_batch(vec![("s".to_owned(), Value::from("text"))].into());
    let text = Some(Value::from("text"));
    let before = ALLOCATIONS.get();
    assert_eq!(strings.peek("s"), text);
    assert_eq!(
        ALLOCATIONS.get() - before,
        1,
        "a Str read clones its string"
    );
}

#[test]
fn a_committed_key_keeps_one_version() {
    // Live bytes a checkpoint cycle of commits leaves, per key written.
    // Measured 0 B: each commit replaces its key's lone version in place.
    // Compacting only at the fold, against the oldest open transaction of
    // any level, made it 1 626 B: 2 048 versions, none of which a
    // serializable reader can see.
    const KEYS: u64 = 64;
    const BUDGET: i64 = 64;
    let mut engine = Engine::new(
        EngineConfig::default(),
        DurableLog::new(),
        DurableCell::new(),
    );
    engine.record_footprints(false);
    let commit = |engine: &mut Engine, key: &str, value: i64| {
        let tx = engine.begin(IsolationLevel::Serializable);
        engine.write(tx, key, Some(Value::Int(value)));
        assert!(matches!(engine.commit(tx).0, CommitResult::Committed(_)));
    };
    let held = engine.begin(IsolationLevel::Serializable);
    for i in 0..KEYS {
        commit(&mut engine, &format!("k{i}"), 0);
    }
    // The rest of a checkpoint cycle, so that the WAL's vector has
    // reached its full length before the first reading.
    for i in KEYS..CHECKPOINT {
        commit(&mut engine, "warm", i as i64);
    }
    let before = LIVE_BYTES.get();
    for i in 0..CHECKPOINT {
        commit(&mut engine, &format!("k{}", i % KEYS), i as i64);
    }
    let per_key = (LIVE_BYTES.get() - before) / KEYS as i64;
    assert_eq!(engine.active_count(), 1, "{held:?} is still open");
    assert!(
        per_key <= BUDGET,
        "{per_key} B live per key after {CHECKPOINT} commits, budget {BUDGET}"
    );
}

#[test]
fn an_explored_state_stays_within_its_heap_budget() {
    // The most an exploration holds at once, per explored state, worlds
    // and rewinds included. Measured 35.8 B: the visited set's 8 807
    // fingerprints in a map of 16-byte slots, at most 7/8 full, and its
    // arena of 23 455 words — a header per stored sleep set and 8 bytes a
    // class — in a vector that doubles as it grows. A vector of sleep
    // sets per fingerprint, each set a vector of its own, made it 82.5.
    const BUDGET: f64 = 40.0;
    let scenario = twopc_mc_scenario(1);
    let config = McConfig {
        max_depth: 12,
        max_states: 5_000_000,
        max_crashes: 2,
        max_drops: 1,
        crashable: vec![NodeId(2)],
        ..McConfig::default()
    };
    let live_before = LIVE_BYTES.get();
    reset_peak();
    let report = explore(&scenario, &config);
    let peak_per_state = (PEAK_BYTES.get() - live_before) as f64 / report.states as f64;
    assert!(report.verified() && !report.truncated, "{report:?}");
    assert_eq!(report.states, 19_449, "E18's 2PC×1 configuration");
    assert!(
        peak_per_state <= BUDGET,
        "{peak_per_state:.1} B peak per explored state, budget {BUDGET}"
    );
}
