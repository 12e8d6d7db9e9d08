//! # `tca-txn` — cross-component transactions and correctness checkers
//!
//! The consistency mechanisms of §4.2 and §5.2, each implemented over the
//! substrates so their costs and failure modes are directly comparable:
//!
//! - [`saga`] — orchestrated sagas with compensations and a durable
//!   journal (atomicity without isolation; the BASE status quo).
//! - [`twopc`] — two-phase commit with presumed abort, participant
//!   execute-timeouts, and the blocking in-doubt window on coordinator
//!   failure.
//! - [`actor_txn`] — Orleans-style lock-based actor transactions layered
//!   on the unmodified actor runtime.
//! - [`dataflow`] — the deterministic engine (Calvin/Styx-style:
//!   serializable without locks or aborts): epoch batching,
//!   conflict-wave parallelism over consistent-hash shards, durable
//!   checkpoint/replay recovery, exactly-once output.
//! - [`deterministic`] — the transaction contract that engine runs:
//!   declared key sets, pure procedure bodies, the transfer procedure.
//! - [`sharding`] — cross-shard transaction construction: partition-keyed
//!   operations become 2PC branches via the shared placement map.
//! - [`workflow`] — Beldi-style exactly-once workflows: durable intent
//!   logs, idempotence tables with watermark GC, and tail-call retry
//!   orchestration that survives caller crashes.
//! - [`checker`] — serializability (DSG cycle detection), exactly-once,
//!   and atomicity audits over what the system *actually did*.
//! - [`causal`] — vector clocks and causal delivery (Antipode direction).
//! - [`worlds`] — the checking world of each mechanism, defined once as
//!   deploy / submit / audit; [`torture`] drives them under seeded fault
//!   plans and [`mc_scenarios`] under the exhaustive schedule checker.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
// Public functions that can panic must say so: a `# Panics` section is
// part of the contract for everything this crate exports.
#![warn(clippy::missing_panics_doc)]

pub mod actor_txn;
pub mod causal;
mod chain_journal;
pub mod checker;
pub mod dataflow;
pub mod deterministic;
pub mod mc_scenarios;
pub mod saga;
pub mod sharding;
pub mod torture;
pub mod twopc;
pub mod workflow;
pub mod worlds;

pub use actor_txn::{
    encode_plan, transactional_bank_registry, transfer_plan, TransactionalActor, TxnCoordinator,
    TxnOp,
};
pub use causal::{CausalMailbox, CausalMessage, VectorClock};
pub use checker::{check_serializability, AtomicityAudit, EffectAudit, SerializabilityVerdict};
pub use dataflow::{deploy_dataflow, DataflowConfig, DfSequencer, DfShard, DfTxn};
pub use deterministic::{transfer_registry, DetRegistry, SubmitTxn, TxnOutcome};
pub use mc_scenarios::{sharded_twopc_mc_scenario, workflow_mc_scenario};
pub use saga::{SagaDef, SagaOrchestrator, SagaOutcome, SagaStep, StartSaga};
pub use sharding::{route_branches, touched_shards, ShardOp};
pub use torture::{
    actor_torture_scenario, dataflow_torture_scenario, saga_torture_scenario, stage_world,
    torture_world, twopc_torture_scenario, workflow_torture_scenario,
};
pub use twopc::{
    CoordinatorConfig, DtxOutcome, ParticipantConfig, StartDtx, TwoPcCoordinator, TwoPcParticipant,
};
pub use workflow::{
    deploy_workflow, peek_sharded, step_marker_key, transfer_chain_def, with_workflow_markers,
    GcWatermark, StartWorkflow, StepOutcome, StepReq, WorkflowConfig, WorkflowDef,
    WorkflowDeployment, WorkflowOrchestrator, WorkflowOutcome, WorkflowStep, WorkflowWorker,
};
pub use worlds::{bank_registry, bank_registry_from, transfer_saga, World};
