//! The message broker process (Kafka-style partitioned log service).
//!
//! Publishers append; consumer groups pull from their committed offset and
//! commit after processing. Because the commit is a separate step, a
//! consumer that crashes mid-batch re-reads the batch on restart —
//! *at-least-once* consumption, with deduplication left to the consumer
//! (§3.2: "a challenging task for many developers").

use tca_sim::{Boot, Ctx, Payload, Process, ProcessId, SimDuration};

use crate::log::{Record, TopicStore};

/// A request to the broker.
#[derive(Debug, Clone)]
pub enum BrokerRequest {
    /// Create a topic (idempotent).
    CreateTopic {
        /// Topic name.
        topic: String,
        /// Number of partitions.
        partitions: u32,
    },
    /// Append a record.
    Publish {
        /// Topic name.
        topic: String,
        /// Optional partitioning key (per-key ordering).
        key: Option<String>,
        /// Message body.
        body: Payload,
    },
    /// Pull records for a consumer group.
    Fetch {
        /// Topic name.
        topic: String,
        /// Partition to read.
        partition: u32,
        /// Consumer group (position defaults to its committed offset).
        group: String,
        /// Explicit start offset; `None` = the group's committed offset.
        from: Option<u64>,
        /// Maximum records to return.
        max: usize,
    },
    /// Advance a group's committed offset (only moves forward).
    CommitOffset {
        /// Topic name.
        topic: String,
        /// Partition.
        partition: u32,
        /// Consumer group.
        group: String,
        /// Everything below this offset is processed.
        offset: u64,
    },
}

/// Request envelope with correlation token.
#[derive(Debug, Clone)]
pub struct BrokerMsg {
    /// Echoed in the reply.
    pub token: u64,
    /// The request.
    pub req: BrokerRequest,
}

/// Broker response body.
#[derive(Debug, Clone)]
pub enum BrokerResponse {
    /// Topic exists now.
    TopicCreated,
    /// Record appended at (partition, offset).
    Published {
        /// Partition chosen.
        partition: u32,
        /// Offset within it.
        offset: u64,
    },
    /// The publish failed (unknown topic).
    PublishFailed,
    /// The publish was refused because the topic's unconsumed backlog is
    /// at the broker's configured bound — publish-side backpressure.
    Backpressure,
    /// Fetched records (possibly empty).
    Records {
        /// Topic fetched.
        topic: String,
        /// Partition fetched.
        partition: u32,
        /// The records, in offset order.
        records: Vec<Record>,
        /// Offset to fetch from next.
        next: u64,
    },
    /// Offset committed.
    OffsetCommitted,
}

/// Reply envelope.
#[derive(Debug, Clone)]
pub struct BrokerReply {
    /// The request's token.
    pub token: u64,
    /// Response body.
    pub resp: BrokerResponse,
}

/// Latency charged on publish replies (append + fsync) and on every
/// other reply that makes something durable.
const PUBLISH_LATENCY: SimDuration = SimDuration::from_micros(80);
/// Latency charged on fetch replies.
const FETCH_LATENCY: SimDuration = SimDuration::from_micros(40);

/// Broker settings.
#[derive(Debug, Clone, Default)]
pub struct BrokerConfig {
    /// Refuse publishes once a topic's deepest unconsumed backlog (see
    /// [`TopicStore::backlog`]) reaches this many records, answering
    /// [`BrokerResponse::Backpressure`]. `None` (the default) keeps the
    /// historical accept-everything behaviour.
    pub max_backlog: Option<u64>,
}

/// The broker process.
pub struct Broker {
    store: TopicStore,
    config: BrokerConfig,
}

impl Broker {
    /// Process factory; the topic store persists in the node's disk so the
    /// log and committed offsets survive broker crashes.
    pub fn factory(config: BrokerConfig) -> impl FnMut(&mut Boot) -> Box<dyn Process> {
        move |boot| {
            let store: TopicStore = boot.disk.durable("topics");
            Box::new(Broker {
                store,
                config: config.clone(),
            })
        }
    }

    fn reply(
        &self,
        ctx: &mut Ctx,
        to: ProcessId,
        token: u64,
        resp: BrokerResponse,
        lat: SimDuration,
    ) {
        ctx.send_after(to, Payload::new(BrokerReply { token, resp }), lat);
    }
}

impl Process for Broker {
    fn on_message(&mut self, ctx: &mut Ctx, from: ProcessId, payload: Payload) {
        let msg = payload.expect::<BrokerMsg>();
        let token = msg.token;
        match msg.req.clone() {
            BrokerRequest::CreateTopic { topic, partitions } => {
                self.store.create_topic(&topic, partitions);
                self.reply(
                    ctx,
                    from,
                    token,
                    BrokerResponse::TopicCreated,
                    PUBLISH_LATENCY,
                );
            }
            BrokerRequest::Publish { topic, key, body } => {
                if let Some(limit) = self.config.max_backlog {
                    if self.store.backlog(&topic) >= limit {
                        ctx.metrics().incr("broker.backpressure", 1);
                        self.reply(
                            ctx,
                            from,
                            token,
                            BrokerResponse::Backpressure,
                            PUBLISH_LATENCY,
                        );
                        return;
                    }
                }
                ctx.metrics().incr("broker.published", 1);
                let resp = match self.store.append(&topic, key, body) {
                    Some((partition, offset)) => BrokerResponse::Published { partition, offset },
                    None => BrokerResponse::PublishFailed,
                };
                self.reply(ctx, from, token, resp, PUBLISH_LATENCY);
            }
            BrokerRequest::Fetch {
                topic,
                partition,
                group,
                from: explicit,
                max,
            } => {
                let start = explicit
                    .unwrap_or_else(|| self.store.committed_offset(&group, &topic, partition));
                let records = self.store.fetch(&topic, partition, start, max);
                let next = records.last().map_or(start, |r| r.offset + 1);
                ctx.metrics().incr("broker.fetched", records.len() as u64);
                self.reply(
                    ctx,
                    from,
                    token,
                    BrokerResponse::Records {
                        topic,
                        partition,
                        records,
                        next,
                    },
                    FETCH_LATENCY,
                );
            }
            BrokerRequest::CommitOffset {
                topic,
                partition,
                group,
                offset,
            } => {
                self.store.commit_offset(&group, &topic, partition, offset);
                self.reply(
                    ctx,
                    from,
                    token,
                    BrokerResponse::OffsetCommitted,
                    PUBLISH_LATENCY,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tca_sim::Sim;

    /// Publishes `n` records once the topic-creation ack arrives (a
    /// publish sent immediately could overtake `CreateTopic` on the
    /// network and be rejected).
    struct Publisher {
        broker: ProcessId,
        n: u32,
    }
    impl Process for Publisher {
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.send(
                self.broker,
                Payload::new(BrokerMsg {
                    token: 0,
                    req: BrokerRequest::CreateTopic {
                        topic: "t".into(),
                        partitions: 1,
                    },
                }),
            );
        }
        fn on_message(&mut self, ctx: &mut Ctx, _from: ProcessId, payload: Payload) {
            let reply = payload.expect::<BrokerReply>();
            if matches!(reply.resp, BrokerResponse::TopicCreated) {
                for i in 0..self.n {
                    ctx.send(
                        self.broker,
                        Payload::new(BrokerMsg {
                            token: 1,
                            req: BrokerRequest::Publish {
                                topic: "t".into(),
                                key: None,
                                body: Payload::new(u64::from(i)),
                            },
                        }),
                    );
                }
            }
        }
    }

    /// Pull-loop consumer committing after processing each batch.
    struct Consumer {
        broker: ProcessId,
        commit_before_processing: bool,
        processed: u64,
    }
    impl Consumer {
        fn fetch(&self, ctx: &mut Ctx) {
            ctx.send(
                self.broker,
                Payload::new(BrokerMsg {
                    token: 2,
                    req: BrokerRequest::Fetch {
                        topic: "t".into(),
                        partition: 0,
                        group: "g".into(),
                        from: None,
                        max: 10,
                    },
                }),
            );
        }
    }
    impl Process for Consumer {
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.set_timer(SimDuration::from_millis(1), 1);
        }
        fn on_message(&mut self, ctx: &mut Ctx, _from: ProcessId, payload: Payload) {
            let reply = payload.expect::<BrokerReply>();
            if let BrokerResponse::Records { records, next, .. } = &reply.resp {
                if self.commit_before_processing && !records.is_empty() {
                    ctx.send(
                        self.broker,
                        Payload::new(BrokerMsg {
                            token: 3,
                            req: BrokerRequest::CommitOffset {
                                topic: "t".into(),
                                partition: 0,
                                group: "g".into(),
                                offset: *next,
                            },
                        }),
                    );
                }
                for _ in records {
                    self.processed += 1;
                    ctx.metrics().incr("consumer.processed", 1);
                }
                if !self.commit_before_processing && !records.is_empty() {
                    ctx.send(
                        self.broker,
                        Payload::new(BrokerMsg {
                            token: 3,
                            req: BrokerRequest::CommitOffset {
                                topic: "t".into(),
                                partition: 0,
                                group: "g".into(),
                                offset: *next,
                            },
                        }),
                    );
                }
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx, _tag: u64) {
            self.fetch(ctx);
            ctx.set_timer(SimDuration::from_millis(1), 1);
        }
    }

    #[test]
    fn publish_fetch_commit_roundtrip() {
        let mut sim = Sim::with_seed(31);
        let nb = sim.add_node();
        let nc = sim.add_node();
        let broker = sim.spawn(nb, "broker", Broker::factory(BrokerConfig::default()));
        sim.spawn(nc, "pub", move |_| Box::new(Publisher { broker, n: 25 }));
        sim.spawn(nc, "consumer", move |_| {
            Box::new(Consumer {
                broker,
                commit_before_processing: false,
                processed: 0,
            })
        });
        sim.run_for(SimDuration::from_millis(100));
        assert_eq!(sim.metrics().counter("consumer.processed"), 25);
        assert_eq!(sim.metrics().counter("broker.published"), 25);
    }

    #[test]
    fn consumer_crash_replays_uncommitted_records() {
        // Consumer processes but its commit is in flight when it crashes:
        // after restart it re-fetches from the committed offset, so some
        // records are processed twice (at-least-once).
        let mut sim = Sim::with_seed(32);
        let nb = sim.add_node();
        let nc = sim.add_node();
        let broker = sim.spawn(nb, "broker", Broker::factory(BrokerConfig::default()));
        sim.spawn(nc, "pub", move |_| Box::new(Publisher { broker, n: 20 }));
        sim.spawn(nc, "consumer", move |_| {
            Box::new(Consumer {
                broker,
                commit_before_processing: false,
                processed: 0,
            })
        });
        // Crash the consumer node shortly after it starts processing,
        // then restart it.
        sim.schedule_crash(tca_sim::SimTime::from_nanos(1_600_000), nc);
        sim.schedule_restart(tca_sim::SimTime::from_nanos(5_000_000), nc);
        sim.run_for(SimDuration::from_millis(100));
        let processed = sim.metrics().counter("consumer.processed");
        assert!(
            processed >= 20,
            "all records eventually processed: {processed}"
        );
    }

    #[test]
    fn backlog_bound_refuses_publishes_until_consumers_catch_up() {
        // No consumer is running, so every accepted record stays in the
        // backlog: with a bound of 10 the broker takes exactly 10 of the
        // 25 publishes and refuses the rest.
        let mut sim = Sim::with_seed(34);
        let nb = sim.add_node();
        let nc = sim.add_node();
        let broker = sim.spawn(
            nb,
            "broker",
            Broker::factory(BrokerConfig {
                max_backlog: Some(10),
            }),
        );
        sim.spawn(nc, "pub", move |_| Box::new(Publisher { broker, n: 25 }));
        sim.run_for(SimDuration::from_millis(50));
        assert_eq!(sim.metrics().counter("broker.published"), 10);
        assert_eq!(sim.metrics().counter("broker.backpressure"), 15);

        // A consumer draining and committing frees backlog budget again.
        sim.spawn(nc, "consumer", move |_| {
            Box::new(Consumer {
                broker,
                commit_before_processing: false,
                processed: 0,
            })
        });
        sim.run_for(SimDuration::from_millis(50));
        sim.spawn(nc, "pub2", move |_| Box::new(Publisher { broker, n: 5 }));
        sim.run_for(SimDuration::from_millis(50));
        assert_eq!(
            sim.metrics().counter("broker.published"),
            15,
            "publishes are admitted again once the backlog drains"
        );
    }

    #[test]
    fn broker_crash_preserves_log_and_offsets() {
        let mut sim = Sim::with_seed(33);
        let nb = sim.add_node();
        let nc = sim.add_node();
        let broker = sim.spawn(nb, "broker", Broker::factory(BrokerConfig::default()));
        sim.spawn(nc, "pub", move |_| Box::new(Publisher { broker, n: 10 }));
        sim.run_for(SimDuration::from_millis(10));
        sim.crash_node(nb);
        sim.run_for(SimDuration::from_millis(5));
        sim.restart_node(nb);
        sim.spawn(nc, "consumer", move |_| {
            Box::new(Consumer {
                broker,
                commit_before_processing: false,
                processed: 0,
            })
        });
        sim.run_for(SimDuration::from_millis(100));
        assert_eq!(
            sim.metrics().counter("consumer.processed"),
            10,
            "records published before the broker crash survive it"
        );
    }
}
