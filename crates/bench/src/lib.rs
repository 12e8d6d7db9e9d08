//! # `tca-bench` — experiment harness
//!
//! One function per experiment in `DESIGN.md` (F1, E1–E21), each
//! deterministic given a seed, the `experiments` binary that prints
//! them, and the kernel-only simulations (`kernel_bench`) that the
//! whole-stack benchmark in `benchmark/` times.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod experiments;
pub mod kernel_bench;

pub use experiments::{print_table, Row};
