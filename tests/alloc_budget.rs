//! What a committed 2PC transfer costs the host's allocator, and that it
//! leaves nothing behind.
//!
//! Two bank participants and a coordinator serve one client that commits
//! transfers back to back over a fixed set of accounts, so every bounded
//! structure (lock table, version chains, WAL between checkpoints, the
//! recently-decided window) reaches its steady size and anything that
//! still grows is history nobody reads. The allocator below counts for
//! the calling thread only: each test measures its own simulation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tca::messaging::{RetryPolicy, RpcClient, RpcEvent};
use tca::sim::{Ctx, Payload, Process, ProcessId, Sim, SimDuration};
use tca::storage::Value;
use tca::txn::worlds::bank_registry_from;
use tca::txn::{DtxOutcome, ParticipantConfig, StartDtx, TwoPcCoordinator, TwoPcParticipant};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every request goes to `System` unchanged; the counters are
// const-initialised thread-locals without destructors, so touching them
// neither allocates nor outlives the thread.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + layout.size() as i64));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE_BYTES.try_with(|n| n.set(n.get() - layout.size() as i64));
        System.dealloc(ptr, layout)
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

/// Step `sim` until the teller has seen `commits` transfers commit.
fn run_to(sim: &mut Sim, commits: u64) {
    while sim.metrics().counter("teller.committed") < commits {
        assert!(sim.step(), "the teller never stops");
    }
}

/// The engines checkpoint every 1024 commits (and each bank commits one
/// branch per transfer), so measuring at multiples of it compares WALs at
/// the same point of their cycle.
const CHECKPOINT: u64 = 1024;

#[test]
fn a_committed_transfer_stays_within_its_allocation_budget() {
    // Client, kernel and network included. Measured 50; copying the
    // request body at every layer and formatting a counter name per
    // message made it 93.
    const BUDGET: u64 = 60;
    let mut sim = bank_world();
    run_to(&mut sim, CHECKPOINT);
    let before = ALLOCATIONS.get();
    run_to(&mut sim, 2 * CHECKPOINT);
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
    run_to(&mut sim, 5 * CHECKPOINT);
    let before = LIVE_BYTES.get();
    run_to(&mut sim, 15 * CHECKPOINT);
    let grown = LIVE_BYTES.get() - before;
    assert!(
        grown <= SLACK,
        "{grown} B retained by 10 × {CHECKPOINT} more commits, slack {SLACK}"
    );
}
