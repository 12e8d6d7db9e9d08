//! Shared RPC wire envelopes.
//!
//! These two structs are the on-the-wire shape of every request/response
//! interaction. They live in `tca-sim` (rather than the messaging crate)
//! so that low-level servers — the database, the broker — can accept both
//! bare requests and RPC-enveloped requests without a dependency cycle.
//! The client-side retry machinery lives in `tca-messaging::rpc`.
//!
//! A request also carries its sender's *settled claim*: the wire ids it
//! issued earlier and no longer awaits, so a receiver that records
//! replies for duplicates may free theirs (after RIFL's client-acknowledged
//! completion records). An empty claim releases nothing.

use std::ops::Range;

use crate::payload::Payload;

/// A request envelope carrying a correlation id.
///
/// The `call_id` is unique per *logical* call and identical across
/// retries, so it doubles as an idempotency key for receivers.
#[derive(Debug, Clone)]
pub struct RpcRequest {
    /// Correlation id (stable across retries).
    pub call_id: u64,
    /// Application payload.
    pub body: Payload,
    /// Wire ids the sender issued and no longer awaits: a reply it gets
    /// for one of them is discarded, so the receiver need not keep it.
    /// Never covers `call_id`, nor any other call still awaited.
    pub settled: Range<u64>,
}

impl RpcRequest {
    /// A request for `call_id` that claims nothing settled.
    pub fn new(call_id: u64, body: Payload) -> Self {
        RpcRequest {
            call_id,
            body,
            settled: 0..0,
        }
    }
}

/// The matching reply envelope.
#[derive(Debug, Clone)]
pub struct RpcReply {
    /// The request's correlation id.
    pub call_id: u64,
    /// Application payload.
    pub body: Payload,
}
