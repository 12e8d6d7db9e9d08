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
//! - [`loadgen`] — closed-loop vs. open-loop (Poisson) generators.
//! - [`overload`] — phased open-loop overload driver with deadlines,
//!   retry budgets, and circuit breakers (experiment E17).

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
    db_classifier, record_completion, ClosedLoopConfig, ClosedLoopGen, KeyChooser, LoadSummary,
    OpenLoopConfig, OpenLoopGen, PairChooser, RequestFactory, ResponseClassifier,
};
pub use overload::{OverloadConfig, OverloadGen, OverloadPhase};
pub use rmw::{RmwClient, RmwConfig};
