//! The transactional outbox pattern.
//!
//! §5.2: services must publish events *atomically* with their state
//! changes, but the database and the broker are different systems. The
//! outbox pattern solves this without a distributed commit: the service's
//! transaction writes the event into an `outbox/…` key in its own
//! database; a relay process scans the outbox, publishes each entry to the
//! broker, and deletes it afterwards. A relay crash between publish and
//! delete republished the entry — the outbox gives *at-least-once*
//! publication, with consumer-side dedup closing the loop to exactly-once.

use tca_sim::DetHashMap as HashMap;

use tca_sim::{Boot, Ctx, Payload, Process, ProcessId, SimDuration};
use tca_storage::{DbMsg, DbReply, DbRequest, DbResponse, ProcRegistry, TxHandle, Value};

use crate::broker::{BrokerMsg, BrokerReply, BrokerRequest, BrokerResponse};

const POLL_TAG: u64 = 0x0b0c_0001;

/// Key prefix under which outbox entries live in the service database.
pub const OUTBOX_PREFIX: &str = "outbox/";

/// Write an event into the outbox *inside* the caller's transaction.
///
/// `seq` must be unique per service (a per-transaction counter works);
/// consumers use it as the dedup key.
pub fn outbox_put(tx: &mut TxHandle, seq: u64, event: Value) {
    tx.put(&format!("{OUTBOX_PREFIX}{seq:020}"), event);
}

/// Register the stored procedures the relay needs on the service database.
pub fn register_outbox_procs(registry: &mut ProcRegistry) {
    registry.register("outbox_remove", |tx, args| {
        tx.delete(args[0].as_str());
        Ok(vec![])
    });
}

/// Configuration for an [`OutboxRelay`].
#[derive(Debug, Clone)]
pub struct OutboxRelayConfig {
    /// The service database to scan.
    pub db: ProcessId,
    /// The broker to publish to.
    pub broker: ProcessId,
    /// Topic receiving the events.
    pub topic: String,
    /// Scan interval.
    pub poll_interval: SimDuration,
}

/// The relay process: scan → publish → delete.
pub struct OutboxRelay {
    config: OutboxRelayConfig,
    /// token → outbox key for in-flight publishes.
    pending: HashMap<u64, String>,
    next_token: u64,
}

impl OutboxRelay {
    /// Process factory.
    pub fn factory(config: OutboxRelayConfig) -> impl FnMut(&mut Boot) -> Box<dyn Process> {
        move |_| {
            Box::new(OutboxRelay {
                config: config.clone(),
                pending: HashMap::default(),
                next_token: 0,
            })
        }
    }
}

impl Process for OutboxRelay {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(self.config.poll_interval, POLL_TAG);
    }

    fn on_message(&mut self, ctx: &mut Ctx, _from: ProcessId, payload: Payload) {
        if let Some(reply) = payload.downcast_ref::<DbReply>() {
            match &reply.resp {
                DbResponse::ScanOk { pairs } => {
                    for (key, value) in pairs {
                        if self.pending.values().any(|k| k == key) {
                            continue; // already publishing this entry
                        }
                        self.next_token += 1;
                        self.pending.insert(self.next_token, key.clone());
                        ctx.send(
                            self.config.broker,
                            Payload::new(BrokerMsg {
                                token: self.next_token,
                                req: BrokerRequest::Publish {
                                    topic: self.config.topic.clone(),
                                    key: Some(key.clone()),
                                    body: Payload::new(value.clone()),
                                },
                            }),
                        );
                    }
                }
                DbResponse::CallOk { .. } => {
                    ctx.metrics().incr("outbox.deleted", 1);
                }
                _ => {}
            }
        } else if let Some(reply) = payload.downcast_ref::<BrokerReply>() {
            if let BrokerResponse::Published { .. } = reply.resp {
                if let Some(key) = self.pending.remove(&reply.token) {
                    ctx.metrics().incr("outbox.published", 1);
                    ctx.send(
                        self.config.db,
                        Payload::new(DbMsg::call("outbox_remove", vec![Value::Str(key)])),
                    );
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx, tag: u64) {
        if tag != POLL_TAG {
            return;
        }
        ctx.send(
            self.config.db,
            Payload::new(DbMsg {
                token: 0,
                req: DbRequest::Scan {
                    prefix: OUTBOX_PREFIX.into(),
                },
            }),
        );
        ctx.set_timer(self.config.poll_interval, POLL_TAG);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::{Broker, BrokerConfig};
    use tca_sim::Sim;
    use tca_storage::{DbServer, DbServerConfig};

    /// Service that updates state and emits an outbox event in ONE
    /// transaction via a stored procedure.
    fn service_registry() -> ProcRegistry {
        let mut reg = ProcRegistry::new().with("place_order", |tx, args| {
            let id = args[0].as_int();
            tx.put(&format!("order/{id}"), Value::Str("placed".into()));
            outbox_put(tx, id as u64, Value::Str(format!("order-placed:{id}")));
            Ok(vec![])
        });
        register_outbox_procs(&mut reg);
        reg
    }

    struct Driver {
        db: ProcessId,
        n: i64,
    }
    impl Process for Driver {
        fn on_start(&mut self, ctx: &mut Ctx) {
            for i in 0..self.n {
                ctx.send(
                    self.db,
                    Payload::new(DbMsg::call("place_order", vec![Value::Int(i)])),
                );
            }
        }
        fn on_message(&mut self, _: &mut Ctx, _: ProcessId, _: Payload) {}
    }

    #[test]
    fn outbox_entries_reach_broker_and_are_deleted() {
        let mut sim = Sim::with_seed(51);
        let ndb = sim.add_node();
        let nbk = sim.add_node();
        let nrl = sim.add_node();
        let db = sim.spawn(
            ndb,
            "db",
            DbServer::factory("db", DbServerConfig::default(), service_registry()),
        );
        let broker = sim.spawn(nbk, "broker", Broker::factory(BrokerConfig::default()));
        // Create the topic.
        sim.inject(
            broker,
            Payload::new(BrokerMsg {
                token: 0,
                req: BrokerRequest::CreateTopic {
                    topic: "orders".into(),
                    partitions: 1,
                },
            }),
        );
        sim.spawn(
            nrl,
            "relay",
            OutboxRelay::factory(OutboxRelayConfig {
                db,
                broker,
                topic: "orders".into(),
                poll_interval: SimDuration::from_millis(5),
            }),
        );
        sim.spawn(nrl, "driver", move |_| Box::new(Driver { db, n: 8 }));
        sim.run_for(SimDuration::from_millis(200));
        assert_eq!(sim.metrics().counter("outbox.published"), 8);
        assert_eq!(sim.metrics().counter("outbox.deleted"), 8);
        assert_eq!(sim.metrics().counter("broker.published"), 8);
    }

    #[test]
    fn relay_crash_republishes_at_least_once() {
        let mut sim = Sim::with_seed(52);
        let ndb = sim.add_node();
        let nbk = sim.add_node();
        let nrl = sim.add_node();
        let db = sim.spawn(
            ndb,
            "db",
            DbServer::factory("db", DbServerConfig::default(), service_registry()),
        );
        let broker = sim.spawn(nbk, "broker", Broker::factory(BrokerConfig::default()));
        sim.inject(
            broker,
            Payload::new(BrokerMsg {
                token: 0,
                req: BrokerRequest::CreateTopic {
                    topic: "orders".into(),
                    partitions: 1,
                },
            }),
        );
        sim.spawn(
            nrl,
            "relay",
            OutboxRelay::factory(OutboxRelayConfig {
                db,
                broker,
                topic: "orders".into(),
                poll_interval: SimDuration::from_millis(5),
            }),
        );
        sim.spawn(nrl, "driver", move |_| Box::new(Driver { db, n: 8 }));
        // Crash the relay mid-drain, restart later.
        sim.schedule_crash(tca_sim::SimTime::from_nanos(6_000_000), nrl);
        sim.schedule_restart(tca_sim::SimTime::from_nanos(20_000_000), nrl);
        sim.run_for(SimDuration::from_millis(300));
        let published = sim.metrics().counter("broker.published");
        assert!(
            published >= 8,
            "every event reaches the broker at least once: {published}"
        );
        // All outbox entries eventually drained.
        assert!(sim.metrics().counter("outbox.deleted") >= 8);
    }
}
