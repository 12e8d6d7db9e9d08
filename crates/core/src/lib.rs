//! # `tca-core` — the unified runtime facade
//!
//! Makes the paper's taxonomy (Figure 1) *executable*: [`taxonomy`]
//! encodes the models × state-management × guarantees matrix as data, and
//! [`cell`] deploys and drives each supported {programming model ×
//! transaction mechanism} combination with a common money-transfer
//! micro-workload, returning comparable reports.
//!
//! ```
//! use tca_core::{cell::{run_cell, CellParams}, taxonomy::{ProgrammingModel, TxnMechanism}};
//!
//! let report = run_cell(
//!     ProgrammingModel::Microservices,
//!     TxnMechanism::Saga,
//!     &CellParams { transfers: 20, ..CellParams::default() },
//! );
//! assert!(report.committed > 0);
//! assert!(report.conserved);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cell;
pub mod taxonomy;

pub use cell::{run_cell, CellParams, CellReport};
pub use taxonomy::{
    profile, render_matrix, ModelProfile, ProgrammingModel, StatePlacement, StateScope,
    TxnMechanism,
};
