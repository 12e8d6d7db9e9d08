//! Whole-stack benchmark of the `tca` workspace.
//!
//! Drives the workspace's public APIs only, from one process and one
//! thread. Two kinds of number are kept apart everywhere: **simulated**
//! metrics (what the modelled cloud application delivers; exact for a
//! seed) and **host** metrics (what the person running the simulator waits
//! for; noisy). See `README.md` in this directory.

#![deny(missing_docs)]

pub mod alloc;
pub mod cells;
pub mod client;
pub mod json;
pub mod report;
pub mod runner;
pub mod spans;
pub mod stats;
pub mod workloads;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;
