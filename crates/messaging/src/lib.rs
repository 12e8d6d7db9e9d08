//! # `tca-messaging` — the messaging layer
//!
//! Everything §3.2 of the paper covers, built on the simulation substrate:
//!
//! - [`rpc`] — request/response with correlation ids, timeouts, retries
//!   (REST/gRPC analogue; delivery guarantees are the application's job).
//! - [`delivery`] — one-way commands under at-most-once / at-least-once /
//!   exactly-once, the exactly-once variant composing retries with
//!   receiver-side [`idempotency`] deduplication.
//! - [`log`] + [`broker`] — a Kafka-style partitioned durable log with
//!   consumer groups and committed offsets (at-least-once consumption).
//! - [`outbox`] — the transactional outbox pattern bridging the database
//!   and the broker without a distributed commit.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod broker;
pub mod delivery;
pub mod idempotency;
pub mod log;
pub mod outbox;
pub mod rpc;
pub mod torture;

pub use broker::{Broker, BrokerConfig, BrokerMsg, BrokerReply, BrokerRequest, BrokerResponse};
pub use delivery::{DedupReceiver, DeliveryGuarantee, ReliableSender};
pub use idempotency::{Dedup, IdempotencyStore};
pub use log::{Record, TopicStore};
pub use outbox::{
    outbox_put, register_outbox_procs, OutboxRelay, OutboxRelayConfig, OUTBOX_PREFIX,
};
pub use rpc::{
    reply_call, reply_to, BreakerConfig, CallId, RetryBudget, RetryPolicy, RpcClient, RpcEvent,
    RpcReply, RpcRequest,
};
pub use torture::delivery_torture_scenario;
