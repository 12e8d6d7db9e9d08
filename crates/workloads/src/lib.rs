//! # `tca-workloads` — benchmark workloads and load generation (§5.3)
//!
//! The workloads the paper's community uses to evaluate cloud
//! application runtimes, plus the load-generation machinery:
//!
//! - [`tpcc`] — TPC-C lite (NewOrder/Payment) with consistency checks.
//! - [`marketplace`] — the Online Marketplace multi-service workload.
//! - [`hotel`] — DeathStarBench-style hotel reservation mix.
//! - [`ycsb`] — YCSB A–F with Zipfian skew.
//! - [`chain`] — disjoint transfer chains for the exactly-once workflow
//!   runtime, with marker-based double-apply audits (experiment E21).
//! - [`rmw`] — interactive read-modify-write clients exposing isolation
//!   anomalies (over-selling).
//! - [`loadgen`] — the closed loops (over RPC, fixed or per-request
//!   target; over the actor runtime), the reply classifiers and the
//!   result summary every experiment reads.
//! - [`overload`] — the open loop: Poisson arrivals on a phased rate
//!   schedule with deadlines, retry budgets, and circuit breakers
//!   (experiments E10 and E17).
//!
//! A load loop is written in [`loadgen`] or [`overload`] and nowhere
//! else: the function that stamps results is private to `loadgen`, so a
//! new client protocol is a new loop there, and a new experiment is a
//! deployment plus a request closure for one of the existing loops.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod chain;
pub mod hotel;
pub mod loadgen;
pub mod marketplace;
pub mod overload;
pub mod rmw;
pub mod tpcc;
pub mod ycsb;

pub use chain::ChainWorkload;
pub use loadgen::{
    db_classifier, ActorClosedLoop, ClosedLoopConfig, ClosedLoopGen, KeyChooser, LoadSummary,
    PairChooser, RequestFactory, RequestRouter, ResponseClassifier,
};
pub use overload::{OverloadConfig, OverloadGen, OverloadPhase};
pub use rmw::{RmwClient, RmwConfig};
