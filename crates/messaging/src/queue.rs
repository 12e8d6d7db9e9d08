//! A lease-based work queue (RabbitMQ/SQS-style).
//!
//! The second messaging shape from §3.2: point-to-point queues where each
//! message is *leased* to one consumer and must be acknowledged; if the
//! ack does not arrive within the visibility timeout the message is
//! redelivered (with an incremented attempt counter). This is where the
//! "coordinate processing and acknowledgment to prevent non-idempotent
//! re-execution" burden comes from.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use tca_sim::DetHashMap as HashMap;

use tca_sim::{Boot, Ctx, Payload, Process, ProcessId, SimDuration, SimTime};

const SWEEP_TAG: u64 = 0x5153_0001;

/// A message leased to a consumer.
#[derive(Debug, Clone)]
pub struct Leased {
    /// Queue-assigned message id (ack with this).
    pub id: u64,
    /// Delivery attempt, starting at 1.
    pub attempt: u32,
    /// The message body.
    pub body: Payload,
}

#[derive(Debug)]
struct QueueInner {
    next_id: u64,
    ready: VecDeque<(u64, u32, Payload)>,
    in_flight: HashMap<u64, (u32, Payload, SimTime)>,
    dead: Vec<(u64, Payload)>,
}

#[derive(Debug, Default)]
struct StoreInner {
    queues: HashMap<String, QueueInner>,
}

/// Durable queue storage (survives queue-server crashes via the disk).
#[derive(Debug, Clone, Default)]
pub struct QueueStore {
    inner: Rc<RefCell<StoreInner>>,
}

/// Requests to the queue server.
#[derive(Debug, Clone)]
pub enum QueueRequest {
    /// Add a message to `queue`.
    Enqueue {
        /// Queue name (created on first use).
        queue: String,
        /// Message body.
        body: Payload,
    },
    /// Lease the next available message.
    Dequeue {
        /// Queue name.
        queue: String,
    },
    /// Acknowledge (delete) a leased message.
    Ack {
        /// Queue name.
        queue: String,
        /// Message id from [`Leased`].
        id: u64,
    },
}

/// Envelope with correlation token.
#[derive(Debug, Clone)]
pub struct QueueMsg {
    /// Echoed in the reply.
    pub token: u64,
    /// The request.
    pub req: QueueRequest,
}

/// Queue server responses.
#[derive(Debug, Clone)]
pub enum QueueResponse {
    /// Message accepted with this id.
    Enqueued {
        /// Assigned id.
        id: u64,
    },
    /// A message was leased to you.
    Message(Leased),
    /// Queue empty (or all messages currently leased).
    Empty,
    /// Ack accepted (false if the lease had already expired).
    Acked {
        /// Whether the ack deleted a live lease.
        accepted: bool,
    },
}

/// Reply envelope.
#[derive(Debug, Clone)]
pub struct QueueReply {
    /// The request's token.
    pub token: u64,
    /// Response body.
    pub resp: QueueResponse,
}

/// Queue server configuration.
#[derive(Debug, Clone)]
pub struct QueueConfig {
    /// How long a lease lasts before redelivery.
    pub visibility_timeout: SimDuration,
    /// After this many failed attempts a message moves to the dead-letter
    /// list instead of redelivering.
    pub max_attempts: u32,
    /// Service latency for queue operations.
    pub op_latency: SimDuration,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig {
            visibility_timeout: SimDuration::from_millis(50),
            max_attempts: 16,
            op_latency: SimDuration::from_micros(50),
        }
    }
}

/// The queue server process.
pub struct QueueServer {
    store: QueueStore,
    config: QueueConfig,
}

impl QueueServer {
    /// Process factory with durable queue storage.
    pub fn factory(config: QueueConfig) -> impl FnMut(&mut Boot) -> Box<dyn Process> {
        move |boot| {
            let store: QueueStore = boot.disk.durable("queues");
            Box::new(QueueServer {
                store,
                config: config.clone(),
            })
        }
    }
}

impl QueueStore {
    /// Empty store.
    pub fn new() -> Self {
        QueueStore::default()
    }

    fn with_queue<R>(&self, name: &str, f: impl FnOnce(&mut QueueInner) -> R) -> R {
        let mut inner = self.inner.borrow_mut();
        let q = inner
            .queues
            .entry(name.to_owned())
            .or_insert_with(|| QueueInner {
                next_id: 0,
                ready: VecDeque::new(),
                in_flight: HashMap::default(),
                dead: Vec::new(),
            });
        f(q)
    }

    /// Messages ready for delivery in `queue`.
    pub fn ready_len(&self, queue: &str) -> usize {
        self.inner
            .borrow()
            .queues
            .get(queue)
            .map_or(0, |q| q.ready.len())
    }

    /// Messages currently leased in `queue`.
    pub fn in_flight_len(&self, queue: &str) -> usize {
        self.inner
            .borrow()
            .queues
            .get(queue)
            .map_or(0, |q| q.in_flight.len())
    }

    /// Dead-lettered messages in `queue`.
    pub fn dead_len(&self, queue: &str) -> usize {
        self.inner
            .borrow()
            .queues
            .get(queue)
            .map_or(0, |q| q.dead.len())
    }
}

impl Process for QueueServer {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(self.config.visibility_timeout, SWEEP_TAG);
    }

    fn on_message(&mut self, ctx: &mut Ctx, from: ProcessId, payload: Payload) {
        let msg = payload.expect::<QueueMsg>();
        let token = msg.token;
        let lat = self.config.op_latency;
        let resp = match msg.req.clone() {
            QueueRequest::Enqueue { queue, body } => self.store.with_queue(&queue, |q| {
                q.next_id += 1;
                let id = q.next_id;
                q.ready.push_back((id, 0, body));
                QueueResponse::Enqueued { id }
            }),
            QueueRequest::Dequeue { queue } => {
                let now = ctx.now();
                let timeout = self.config.visibility_timeout;
                self.store
                    .with_queue(&queue, |q| match q.ready.pop_front() {
                        Some((id, attempts, body)) => {
                            let attempt = attempts + 1;
                            q.in_flight
                                .insert(id, (attempt, body.clone(), now + timeout));
                            QueueResponse::Message(Leased { id, attempt, body })
                        }
                        None => QueueResponse::Empty,
                    })
            }
            QueueRequest::Ack { queue, id } => {
                self.store.with_queue(&queue, |q| QueueResponse::Acked {
                    accepted: q.in_flight.remove(&id).is_some(),
                })
            }
        };
        ctx.send_after(from, Payload::new(QueueReply { token, resp }), lat);
    }

    fn on_timer(&mut self, ctx: &mut Ctx, tag: u64) {
        if tag != SWEEP_TAG {
            return;
        }
        // Sweep expired leases back to ready (or dead-letter them).
        let now = ctx.now();
        let max_attempts = self.config.max_attempts;
        let mut redelivered = 0u64;
        {
            let mut inner = self.store.inner.borrow_mut();
            for q in inner.queues.values_mut() {
                let expired: Vec<u64> = q
                    .in_flight
                    .iter()
                    .filter(|(_, (_, _, deadline))| *deadline <= now)
                    .map(|(&id, _)| id)
                    .collect();
                for id in expired {
                    let (attempts, body, _) = q.in_flight.remove(&id).expect("present");
                    if attempts >= max_attempts {
                        q.dead.push((id, body));
                    } else {
                        q.ready.push_back((id, attempts, body));
                        redelivered += 1;
                    }
                }
            }
        }
        if redelivered > 0 {
            ctx.metrics().incr("queue.redelivered", redelivered);
        }
        ctx.set_timer(self.config.visibility_timeout, SWEEP_TAG);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tca_sim::Sim;

    struct Producer {
        queue_server: ProcessId,
        n: u32,
    }
    impl Process for Producer {
        fn on_start(&mut self, ctx: &mut Ctx) {
            for i in 0..self.n {
                ctx.send(
                    self.queue_server,
                    Payload::new(QueueMsg {
                        token: 0,
                        req: QueueRequest::Enqueue {
                            queue: "work".into(),
                            body: Payload::new(u64::from(i)),
                        },
                    }),
                );
            }
        }
        fn on_message(&mut self, _: &mut Ctx, _: ProcessId, _: Payload) {}
    }

    /// Worker that leases, processes, and acks — unless `ack` is false,
    /// in which case messages time out and get redelivered.
    struct Worker {
        queue_server: ProcessId,
        ack: bool,
    }
    impl Process for Worker {
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.set_timer(SimDuration::from_millis(1), 1);
        }
        fn on_message(&mut self, ctx: &mut Ctx, _from: ProcessId, payload: Payload) {
            let reply = payload.expect::<QueueReply>();
            if let QueueResponse::Message(leased) = &reply.resp {
                ctx.metrics().incr("worker.processed", 1);
                if leased.attempt > 1 {
                    ctx.metrics().incr("worker.redelivery_seen", 1);
                }
                if self.ack {
                    ctx.send(
                        self.queue_server,
                        Payload::new(QueueMsg {
                            token: 1,
                            req: QueueRequest::Ack {
                                queue: "work".into(),
                                id: leased.id,
                            },
                        }),
                    );
                }
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx, _tag: u64) {
            ctx.send(
                self.queue_server,
                Payload::new(QueueMsg {
                    token: 2,
                    req: QueueRequest::Dequeue {
                        queue: "work".into(),
                    },
                }),
            );
            ctx.set_timer(SimDuration::from_millis(1), 1);
        }
    }

    fn world(ack: bool, config: QueueConfig) -> Sim {
        let mut sim = Sim::with_seed(41);
        let nq = sim.add_node();
        let nw = sim.add_node();
        let qs = sim.spawn(nq, "queue", QueueServer::factory(config));
        sim.spawn(nw, "producer", move |_| {
            Box::new(Producer {
                queue_server: qs,
                n: 10,
            })
        });
        sim.spawn(nw, "worker", move |_| {
            Box::new(Worker {
                queue_server: qs,
                ack,
            })
        });
        sim
    }

    #[test]
    fn acked_messages_processed_once() {
        let mut sim = world(true, QueueConfig::default());
        sim.run_for(SimDuration::from_millis(500));
        assert_eq!(sim.metrics().counter("worker.processed"), 10);
        assert_eq!(sim.metrics().counter("worker.redelivery_seen"), 0);
        assert_eq!(sim.metrics().counter("queue.redelivered"), 0);
    }

    #[test]
    fn unacked_messages_redeliver_until_dead_letter() {
        let config = QueueConfig {
            visibility_timeout: SimDuration::from_millis(10),
            max_attempts: 3,
            ..QueueConfig::default()
        };
        let mut sim = world(false, config);
        sim.run_for(SimDuration::from_millis(500));
        let processed = sim.metrics().counter("worker.processed");
        assert!(
            processed > 10,
            "redeliveries re-execute the handler: {processed}"
        );
        assert!(sim.metrics().counter("worker.redelivery_seen") > 0);
        // Eventually all 10 exhaust their 3 attempts and die.
        assert_eq!(processed, 30, "3 attempts x 10 messages");
    }
}
