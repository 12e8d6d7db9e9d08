//! The paper's taxonomy (Figure 1) as data.
//!
//! Figure 1 organizes transactional cloud applications along three
//! building blocks — programming model, messaging, state management —
//! and three requirements — fault tolerance, consistency, lifecycle.
//! This module encodes that taxonomy so it can be printed (regenerating
//! the figure as a matrix), queried, and — via [`crate::cell`] —
//! *executed*: every claimed combination but dataflow without a
//! mechanism is backed by a runnable deployment.

use std::fmt;

pub use tca_messaging::DeliveryGuarantee;

/// The four programming models of §3.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProgrammingModel {
    /// Microservice frameworks (Spring/Flask/Dapr analogue).
    Microservices,
    /// Virtual actors (Orleans/Dapr analogue).
    VirtualActors,
    /// Stateful functions / durable orchestrations (Statefun/ADF).
    StatefulFunctions,
    /// Stateful streaming dataflows (Flink analogue).
    StatefulDataflow,
}

impl ProgrammingModel {
    /// All models, in presentation order.
    pub const ALL: [ProgrammingModel; 4] = [
        ProgrammingModel::Microservices,
        ProgrammingModel::VirtualActors,
        ProgrammingModel::StatefulFunctions,
        ProgrammingModel::StatefulDataflow,
    ];
}

impl fmt::Display for ProgrammingModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ProgrammingModel::Microservices => "microservices",
            ProgrammingModel::VirtualActors => "virtual-actors",
            ProgrammingModel::StatefulFunctions => "stateful-functions",
            ProgrammingModel::StatefulDataflow => "stateful-dataflow",
        };
        f.write_str(s)
    }
}

/// Where state lives (§3.3): inside the runtime or in an external system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatePlacement {
    /// State resides within the application runtime (dataflow operators,
    /// volatile actors).
    Embedded,
    /// State is delegated to an external database / store.
    External,
}

/// Whether state management is one system or per-component (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateScope {
    /// One system manages the whole state (shared database).
    Centralized,
    /// Every component manages its state independently.
    Decentralized,
}

/// The cross-component consistency mechanisms (§4.2, §5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxnMechanism {
    /// No cross-component guarantee (BASE / eventual).
    None,
    /// Orchestrated sagas with compensation.
    Saga,
    /// Two-phase commit.
    TwoPhaseCommit,
    /// Lock-based actor transactions (Orleans Transactions analogue).
    ActorTransactions,
    /// Explicit entity locks / critical sections (Durable Functions).
    EntityLocks,
    /// Deterministic global ordering (Calvin/Styx).
    DeterministicOrdering,
}

impl fmt::Display for TxnMechanism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TxnMechanism::None => "none",
            TxnMechanism::Saga => "saga",
            TxnMechanism::TwoPhaseCommit => "2pc",
            TxnMechanism::ActorTransactions => "actor-txn",
            TxnMechanism::EntityLocks => "entity-locks",
            TxnMechanism::DeterministicOrdering => "deterministic",
        };
        f.write_str(s)
    }
}

/// One model's profile: the defaults and possibilities Figure 1 assigns.
#[derive(Debug, Clone)]
pub struct ModelProfile {
    /// The model described.
    pub model: ProgrammingModel,
    /// Typical state placement.
    pub placement: StatePlacement,
    /// Typical state scope.
    pub scope: StateScope,
    /// Default message-delivery guarantee of the ecosystem.
    pub default_delivery: DeliveryGuarantee,
    /// Cross-component mechanisms available on this model. Each is a
    /// runnable [`crate::cell`] except `(StatefulDataflow, None)`: the
    /// one transactional dataflow engine here, `txn::dataflow`, always
    /// orders deterministically.
    pub mechanisms: Vec<TxnMechanism>,
    /// The model's fault-tolerance story, in one sentence.
    pub fault_tolerance: &'static str,
}

/// The profile of each model — the rows of Figure 1.
pub fn profile(model: ProgrammingModel) -> ModelProfile {
    match model {
        ProgrammingModel::Microservices => ModelProfile {
            model,
            placement: StatePlacement::External,
            scope: StateScope::Decentralized,
            default_delivery: DeliveryGuarantee::AtLeastOnce,
            mechanisms: vec![
                TxnMechanism::None,
                TxnMechanism::Saga,
                TxnMechanism::TwoPhaseCommit,
            ],
            fault_tolerance: "stateless restart; state safety delegated to the database",
        },
        ProgrammingModel::VirtualActors => ModelProfile {
            model,
            placement: StatePlacement::External,
            scope: StateScope::Decentralized,
            default_delivery: DeliveryGuarantee::AtMostOnce,
            mechanisms: vec![TxnMechanism::None, TxnMechanism::ActorTransactions],
            fault_tolerance: "directory-driven migration; checkpoint state to external DBMS",
        },
        ProgrammingModel::StatefulFunctions => ModelProfile {
            model,
            placement: StatePlacement::External,
            scope: StateScope::Centralized,
            default_delivery: DeliveryGuarantee::ExactlyOnce,
            mechanisms: vec![TxnMechanism::None, TxnMechanism::EntityLocks],
            fault_tolerance: "event-sourced replay; atomic exactly-once steps",
        },
        ProgrammingModel::StatefulDataflow => ModelProfile {
            model,
            placement: StatePlacement::Embedded,
            scope: StateScope::Decentralized,
            default_delivery: DeliveryGuarantee::ExactlyOnce,
            mechanisms: vec![TxnMechanism::None, TxnMechanism::DeterministicOrdering],
            fault_tolerance: "aligned-barrier checkpoints; global rollback recovery",
        },
    }
}

/// Render the taxonomy as a text table (the Figure 1 regeneration).
pub fn render_matrix() -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<20} {:<10} {:<14} {:<14} {:<28} fault tolerance\n",
        "model", "state", "scope", "delivery", "txn mechanisms"
    ));
    for model in ProgrammingModel::ALL {
        let p = profile(model);
        let mechanisms = p
            .mechanisms
            .iter()
            .map(|m| m.to_string())
            .collect::<Vec<_>>()
            .join(",");
        out.push_str(&format!(
            "{:<20} {:<10} {:<14} {:<14} {:<28} {}\n",
            p.model.to_string(),
            match p.placement {
                StatePlacement::Embedded => "embedded",
                StatePlacement::External => "external",
            },
            match p.scope {
                StateScope::Centralized => "centralized",
                StateScope::Decentralized => "decentralized",
            },
            p.default_delivery.to_string(),
            mechanisms,
            p.fault_tolerance,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_model_has_a_profile() {
        for model in ProgrammingModel::ALL {
            let p = profile(model);
            assert_eq!(p.model, model);
            assert!(!p.mechanisms.is_empty());
        }
    }

    #[test]
    fn dataflow_is_the_embedded_one() {
        for model in ProgrammingModel::ALL {
            let p = profile(model);
            let embedded = p.placement == StatePlacement::Embedded;
            assert_eq!(embedded, model == ProgrammingModel::StatefulDataflow);
        }
    }

    #[test]
    fn matrix_renders_all_rows() {
        let matrix = render_matrix();
        for model in ProgrammingModel::ALL {
            assert!(matrix.contains(&model.to_string()), "{model} missing");
        }
        assert!(matrix.contains("deterministic"));
    }

    #[test]
    fn exactly_once_models_match_paper() {
        // §4.2: statefun and dataflow provide exactly-once by design.
        assert_eq!(
            profile(ProgrammingModel::StatefulFunctions).default_delivery,
            DeliveryGuarantee::ExactlyOnce
        );
        assert_eq!(
            profile(ProgrammingModel::StatefulDataflow).default_delivery,
            DeliveryGuarantee::ExactlyOnce
        );
        assert_eq!(
            profile(ProgrammingModel::VirtualActors).default_delivery,
            DeliveryGuarantee::AtMostOnce
        );
    }
}
