//! Reliable-delivery torture scenario (see `tca_sim::faults`).
//!
//! A [`ReliableSender`] streams commands to a [`DedupReceiver`] across a
//! network the fault plan degrades with loss, duplication, and partition
//! windows. Endpoints do not crash: sender sequence state and receiver
//! dedup windows are volatile, so a crash legitimately resets the
//! exactly-once guarantee — that failure mode belongs to the journal-based
//! protocols, not this layer.
//!
//! Audited after heal + grace: every command applied exactly once, the
//! sender's unacked buffer drained, and nothing given up.

use crate::delivery::{DedupReceiver, DeliveryGuarantee, ReliableSender};
use tca_sim::{Ctx, FaultPlan, Payload, Process, ProcessId, Sim, SimDuration, SimTime};

const COMMANDS: u64 = 40;
const SEND_GAP: SimDuration = SimDuration::from_millis(2);
const RETRY: SimDuration = SimDuration::from_millis(5);
const MAX_ATTEMPTS: u32 = 200;
const GRACE: SimDuration = SimDuration::from_millis(600);

struct Producer {
    dest: ProcessId,
    sender: ReliableSender,
    remaining: u64,
}

impl Process for Producer {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(SimDuration::from_micros(300), 1);
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
            ctx.metrics().incr("torture.sent", 1);
            ctx.set_timer(SEND_GAP, 1);
        }
    }
}

struct Applier {
    receiver: DedupReceiver,
}

impl Process for Applier {
    fn on_message(&mut self, ctx: &mut Ctx, from: ProcessId, payload: Payload) {
        if self.receiver.accept(ctx, from, &payload).is_some() {
            ctx.metrics().incr("torture.applied", 1);
        }
    }
}

/// Exactly-once delivery under a fault plan: loss, duplication, and
/// partition windows (no endpoint crashes). After heal + grace every
/// command is applied exactly once and the sender has fully drained.
pub fn delivery_torture_scenario(seed: u64, plan: &FaultPlan) -> Result<(), String> {
    let mut sim = Sim::with_seed(seed);
    let n0 = sim.add_node();
    let n1 = sim.add_node();
    let applier = sim.spawn(n1, "applier", |_| {
        Box::new(Applier {
            receiver: DedupReceiver::new(DeliveryGuarantee::ExactlyOnce, 1 << 16),
        })
    });
    let producer = sim.spawn(n0, "producer", move |_| {
        Box::new(Producer {
            dest: applier,
            sender: ReliableSender::new(DeliveryGuarantee::ExactlyOnce, RETRY, MAX_ATTEMPTS),
            remaining: COMMANDS,
        })
    });
    plan.apply(&mut sim, &[], &[n0, n1]);
    sim.run_until(SimTime::ZERO + plan.horizon + GRACE);

    let sent = sim.metrics().counter("torture.sent");
    let applied = sim.metrics().counter("torture.applied");
    if sent != COMMANDS {
        return Err(format!("producer stalled: sent {sent}/{COMMANDS}"));
    }
    if applied != COMMANDS {
        return Err(format!(
            "exactly-once violated: {applied} applied of {COMMANDS} sent"
        ));
    }
    let p = sim
        .inspect::<Producer>(producer)
        .ok_or("cannot inspect producer")?;
    if p.sender.given_up() != 0 {
        return Err(format!(
            "sender gave up on {} commands (retry budget exhausted)",
            p.sender.given_up()
        ));
    }
    if p.sender.unacked() != 0 {
        return Err(format!(
            "sender still holds {} unacked commands after heal + grace",
            p.sender.unacked()
        ));
    }
    let a = sim
        .inspect::<Applier>(applier)
        .ok_or("cannot inspect applier")?;
    if a.receiver.duplicates_executed() != 0 {
        return Err(format!(
            "exactly-once receiver executed {} duplicates",
            a.receiver.duplicates_executed()
        ));
    }
    Ok(())
}
