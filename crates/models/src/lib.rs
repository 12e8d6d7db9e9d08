//! # `tca-models` — the four programming models (§3.1)
//!
//! Each module implements one of the paper's cloud programming models on
//! the shared simulation, storage, and messaging substrates:
//!
//! - [`microservice`] — stateless services + external database, REST-style
//!   calls, retries; no cross-step transactions (the BASE status quo).
//! - [`actor`] — virtual actors: location transparency via a directory,
//!   heartbeat failure detection, migration, optional write-through state
//!   persistence (Orleans analogue).
//! - [`statefun`] — stateful functions / durable orchestrations:
//!   event-sourced replay, exactly-once activities and entity ops,
//!   explicit critical sections (Azure Durable Functions analogue).
//! - [`dataflow`] — stateful streaming dataflows: partitioned keyed state,
//!   aligned-barrier checkpoints, global rollback recovery, at-least-once
//!   vs exactly-once sinks (Flink analogue).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod actor;
pub mod dataflow;
pub mod microservice;
pub mod statefun;
