//! # `tca-storage` — the data tier
//!
//! The database substrate the paper's cloud applications delegate state to:
//! an MVCC key-value engine with write-ahead logging, checkpoints,
//! ARIES-lite recovery, strict 2PL with deadlock detection, snapshot
//! isolation with first-committer-wins, read committed, stored procedures
//! and a TTL/LRU cache.
//!
//! Two layers:
//! - Pure, synchronous data structures ([`mvcc`], [`locks`], [`wal`],
//!   [`engine`], [`cache`]) — heavily unit- and property-tested.
//! - The event-driven [`server::DbServer`] process that exposes the engine
//!   over the simulated network with realistic service times and lock-wait
//!   parking.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cache;
pub mod engine;
pub mod idempotence;
pub mod locks;
pub mod mvcc;
pub mod proc;
pub mod router;
pub mod server;
pub mod types;
pub mod wal;

pub use cache::{CacheConfig, TtlCache};
pub use engine::{CommitResult, Engine, EngineConfig, OpResult, Resumption, TxFootprint};
pub use idempotence::{IdemCheck, IdempotenceTable, SharedIdempotence, StepReply};
pub use locks::{Acquire, LockMode, LockTable};
pub use mvcc::MvccStore;
pub use proc::{run_proc, ProcOutcome, ProcRegistry, TxHandle};
pub use router::{deploy_sharded_db, GetTopology, ShardRouter, Topology};
pub use server::{DbMsg, DbReply, DbRequest, DbResponse, DbServer, DbServerConfig};
pub use types::{AbortReason, IsolationLevel, Key, Timestamp, TxId, Value};
pub use wal::{Checkpoint, DurableCell, DurableLog, WalRecord};
