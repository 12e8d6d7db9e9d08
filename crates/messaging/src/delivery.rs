//! One-way command delivery with selectable guarantees.
//!
//! §3.2 "Relation of Messaging & State": a state mutation depends causally
//! on a message's arrival, and the guarantee trio is
//!
//! - **at-most-once** — fire and forget; loss loses updates,
//! - **at-least-once** — retry until acknowledged; retries duplicate
//!   updates whenever only the ack was lost,
//! - **exactly-once** — at-least-once *plus* receiver-side deduplication:
//!   "the sender should be able to re-send messages … and, if a message is
//!   received multiple times, the receiver should be able to deduplicate
//!   them."
//!
//! [`ReliableSender`] implements the sender half, [`DedupReceiver`] the
//! receiver half. Experiment E2 measures their cost and correctness.

use tca_sim::{Ctx, Payload, ProcessId, SimDuration};

use crate::idempotency::{Dedup, IdempotencyStore};
use crate::rpc::{reply_call, RetryPolicy, RpcClient, RpcEvent, RpcReply, RpcRequest};

/// The delivery guarantee a sender/receiver pair provides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryGuarantee {
    /// Fire and forget.
    AtMostOnce,
    /// Retry until acknowledged; duplicates possible at the receiver.
    AtLeastOnce,
    /// Retry until acknowledged; receiver deduplicates.
    ExactlyOnce,
}

impl std::fmt::Display for DeliveryGuarantee {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DeliveryGuarantee::AtMostOnce => "at-most-once",
            DeliveryGuarantee::AtLeastOnce => "at-least-once",
            DeliveryGuarantee::ExactlyOnce => "exactly-once",
        };
        f.write_str(s)
    }
}

/// Sender half: embed in a process, forward `on_message`/`on_timer`.
///
/// A command is an [`RpcClient`] call under a fixed policy — every attempt
/// waits the same `retry_delay`, no backoff, no jitter — whose wire id is
/// the per-sender sequence number (which doubles as the idempotency key);
/// the receiver's ack is the call's reply. The sender therefore owns its
/// host's RPC timer namespace: a host must not hold an `RpcClient` of its
/// own beside it. (None does: E2/E13's `CounterProducer`,
/// `messaging::torture` and `tests/chaos.rs` are the three hosts.)
pub struct ReliableSender {
    /// `None` for at-most-once: one bare send, nothing awaited.
    policy: Option<RetryPolicy>,
    rpc: RpcClient,
    next_seq: u64,
    given_up: u64,
}

impl ReliableSender {
    /// Create a sender with the given guarantee and retry parameters.
    /// (`retry_delay`/`max_attempts` are ignored for at-most-once.)
    pub fn new(guarantee: DeliveryGuarantee, retry_delay: SimDuration, max_attempts: u32) -> Self {
        assert!(max_attempts >= 1);
        let acked = guarantee != DeliveryGuarantee::AtMostOnce;
        ReliableSender {
            policy: acked.then_some(RetryPolicy {
                max_attempts,
                timeout: retry_delay,
                backoff: 1.0,
                jitter: 0.0,
            }),
            rpc: RpcClient::new(),
            next_seq: 0,
            given_up: 0,
        }
    }

    /// Send a command to `dest`; returns its sequence number.
    pub fn send(&mut self, ctx: &mut Ctx, dest: ProcessId, body: Payload) -> u64 {
        self.next_seq += 1;
        let seq = self.next_seq;
        match self.policy {
            // `call_with_id`, not `call`: the id is ours, and drawing a
            // nonce would spend simulation randomness.
            Some(policy) => {
                self.rpc.call_with_id(ctx, dest, body, policy, 0, seq);
            }
            None => ctx.send(dest, Payload::new(RpcRequest { call_id: seq, body })),
        }
        seq
    }

    /// Offer an incoming message; returns `true` if it was an ack for us.
    pub fn on_message(&mut self, ctx: &mut Ctx, payload: &Payload) -> bool {
        if !payload.is::<RpcReply>() {
            return false;
        }
        // A duplicate or late ack completes nothing; it is still ours.
        self.rpc.on_message(ctx, payload);
        true
    }

    /// Offer a timer; returns `true` if it was a retry timer of ours.
    pub fn on_timer(&mut self, ctx: &mut Ctx, tag: u64) -> bool {
        let Some(event) = self.rpc.on_timer(ctx, tag) else {
            return false;
        };
        if let Some(RpcEvent::Failed { .. }) = event {
            self.given_up += 1;
        }
        true
    }

    /// Commands not yet acknowledged.
    pub fn unacked(&self) -> usize {
        self.rpc.in_flight()
    }

    /// Commands abandoned after exhausting retries.
    pub fn given_up(&self) -> u64 {
        self.given_up
    }
}

/// Receiver half: acks every command, tells the host whether to execute.
pub struct DedupReceiver {
    guarantee: DeliveryGuarantee,
    store: IdempotencyStore,
    duplicates_executed: u64,
}

impl DedupReceiver {
    /// Create a receiver matching the sender's guarantee. `window` bounds
    /// the dedup memory for exactly-once.
    pub fn new(guarantee: DeliveryGuarantee, window: usize) -> Self {
        DedupReceiver {
            guarantee,
            store: IdempotencyStore::new(window.max(1)),
            duplicates_executed: 0,
        }
    }

    /// Offer an incoming message. Returns `Some(body)` when the host
    /// should execute the command's effect — acks are sent automatically.
    pub fn accept(&mut self, ctx: &mut Ctx, from: ProcessId, payload: &Payload) -> Option<Payload> {
        let command = payload.downcast_ref::<RpcRequest>()?;
        let seq = command.call_id;
        reply_call(ctx, from, seq, Payload::new(()));
        match self.guarantee {
            DeliveryGuarantee::ExactlyOnce => match self.store.check(from, seq) {
                Dedup::Fresh => {
                    self.store.record(from, seq, None);
                    Some(command.body.clone())
                }
                Dedup::Duplicate(_) => {
                    ctx.metrics().incr("recv.deduped", 1);
                    None
                }
            },
            DeliveryGuarantee::AtLeastOnce | DeliveryGuarantee::AtMostOnce => {
                // No dedup: duplicates execute. But only *actual*
                // duplicates (a seq seen before) count as such — the store
                // tracks seen seqs here purely for accounting, without
                // bumping its duplicate-hit counter (`contains`, not
                // `check`: nothing was filtered).
                if self.store.contains(from, seq) {
                    self.duplicates_executed += 1;
                    ctx.metrics().incr("recv.dup_executed", 1);
                } else {
                    self.store.record(from, seq, None);
                }
                Some(command.body.clone())
            }
        }
    }

    /// Duplicate commands filtered out so far (exactly-once only).
    pub fn deduped(&self) -> u64 {
        self.store.duplicate_hits()
    }

    /// Duplicate commands that were *executed* (at-most/at-least-once:
    /// no filtering, so a re-delivered seq re-applies its effect).
    pub fn duplicates_executed(&self) -> u64 {
        self.duplicates_executed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tca_sim::{NetworkConfig, Process, Sim, SimConfig};

    /// Applies received increments to a counter; the ground truth of how
    /// many commands were *sent* lets tests assert loss/duplication.
    struct CounterApp {
        receiver: DedupReceiver,
        count: u64,
    }
    impl Process for CounterApp {
        fn on_message(&mut self, ctx: &mut Ctx, from: ProcessId, payload: Payload) {
            if let Some(_body) = self.receiver.accept(ctx, from, &payload) {
                self.count += 1;
                ctx.metrics().incr("counter.applied", 1);
            }
        }
    }

    struct Producer {
        dest: ProcessId,
        sender: ReliableSender,
        remaining: u32,
    }
    impl Process for Producer {
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.set_timer(SimDuration::from_micros(500), 1);
        }
        fn on_message(&mut self, ctx: &mut Ctx, _from: ProcessId, payload: Payload) {
            self.sender.on_message(ctx, &payload);
        }
        fn on_timer(&mut self, ctx: &mut Ctx, tag: u64) {
            if self.sender.on_timer(ctx, tag) {
                return;
            }
            if self.remaining > 0 {
                self.remaining -= 1;
                self.sender.send(ctx, self.dest, Payload::new(1u64));
                ctx.metrics().incr("producer.sent", 1);
                ctx.set_timer(SimDuration::from_micros(500), 1);
            }
        }
    }

    fn run(guarantee: DeliveryGuarantee, net: NetworkConfig, n: u32) -> (u64, u64) {
        let (sent, applied, _) = run_inspect(guarantee, net, n);
        (sent, applied)
    }

    fn run_inspect(guarantee: DeliveryGuarantee, net: NetworkConfig, n: u32) -> (u64, u64, u64) {
        let mut sim = Sim::new(SimConfig {
            seed: 21,
            network: net,
        });
        let n0 = sim.add_node();
        let n1 = sim.add_node();
        let app = sim.spawn(n1, "counter", move |_| {
            Box::new(CounterApp {
                receiver: DedupReceiver::new(guarantee, 4096),
                count: 0,
            })
        });
        sim.spawn(n0, "producer", move |_| {
            Box::new(Producer {
                dest: app,
                sender: ReliableSender::new(guarantee, SimDuration::from_millis(2), 20),
                remaining: n,
            })
        });
        sim.run_for(SimDuration::from_secs(5));
        let dup_executed = sim
            .inspect::<CounterApp>(app)
            .expect("app alive")
            .receiver
            .duplicates_executed();
        (
            sim.metrics().counter("producer.sent"),
            sim.metrics().counter("counter.applied"),
            dup_executed,
        )
    }

    #[test]
    fn clean_network_all_guarantees_apply_exactly_n() {
        for g in [
            DeliveryGuarantee::AtMostOnce,
            DeliveryGuarantee::AtLeastOnce,
            DeliveryGuarantee::ExactlyOnce,
        ] {
            let (sent, applied) = run(g, NetworkConfig::default(), 50);
            assert_eq!(sent, 50);
            assert_eq!(applied, 50, "{g}");
        }
    }

    #[test]
    fn at_most_once_loses_updates_under_loss() {
        let (sent, applied) = run(
            DeliveryGuarantee::AtMostOnce,
            NetworkConfig::lossy(0.3, 0.0),
            100,
        );
        assert_eq!(sent, 100);
        assert!(applied < 100, "loss must lose updates: applied={applied}");
    }

    #[test]
    fn at_least_once_duplicates_under_loss() {
        // With ack loss, retries re-execute: applied > sent.
        let (sent, applied) = run(
            DeliveryGuarantee::AtLeastOnce,
            NetworkConfig::lossy(0.25, 0.0),
            100,
        );
        assert_eq!(sent, 100);
        assert!(
            applied > sent,
            "retries should duplicate effects: applied={applied}"
        );
    }

    /// Regression (seed 21, clean network): `duplicates_executed` used to
    /// increment on *every* applied command under at-most/at-least-once,
    /// reporting 50 "duplicates" for 50 unique deliveries. Only actual
    /// re-deliveries of a seen seq may count.
    #[test]
    fn regression_duplicates_executed_counts_only_real_duplicates() {
        for g in [
            DeliveryGuarantee::AtMostOnce,
            DeliveryGuarantee::AtLeastOnce,
        ] {
            let (sent, applied, dup_executed) = run_inspect(g, NetworkConfig::default(), 50);
            assert_eq!((sent, applied), (50, 50));
            assert_eq!(dup_executed, 0, "{g}: no duplicates on a clean network");
        }
    }

    /// With every cross-node message duplicated (seed 21, dup_prob = 1.0)
    /// and no loss (so no retries), each of the 50 commands is applied
    /// twice: 50 of the 100 applications are duplicates — exactly.
    #[test]
    fn duplicates_executed_matches_kernel_duplication() {
        let (sent, applied, dup_executed) = run_inspect(
            DeliveryGuarantee::AtLeastOnce,
            NetworkConfig::lossy(0.0, 1.0),
            50,
        );
        assert_eq!(sent, 50);
        assert_eq!(applied, 100, "every command applied twice");
        assert_eq!(dup_executed, 50, "half the applications are duplicates");
    }

    #[test]
    fn exactly_once_is_exact_under_loss_and_duplication() {
        let (sent, applied) = run(
            DeliveryGuarantee::ExactlyOnce,
            NetworkConfig::lossy(0.25, 0.1),
            100,
        );
        assert_eq!(sent, 100);
        assert_eq!(applied, 100, "dedup + retries = exactly once");
    }
}
