//! Transfer-chain workload for the exactly-once workflow runtime (E21).
//!
//! Each chain is one workflow instance: `steps` sequential hops moving
//! `amount` from `acct{base+s}` to `acct{base+s+1}`, with every chain on
//! its own disjoint account range so chains never conflict on locks —
//! the workload isolates the *exactly-once* axis (double-applies under
//! retries and crashes), not lock contention.
//!
//! The module supplies everything an experiment or test needs to drive
//! [`tca_txn::workflow`] against this workload and audit it afterwards:
//! account seeds, workflow definitions, the start-request stream, and
//! marker-based audits. The audits read the per-step marker keys that
//! [`tca_txn::with_workflow_markers`] maintains: in exactly-once mode the
//! `wf_guard` fence pins every marker at 1; in the naive baseline the
//! `wf_count` probe counts every application, so `marker − 1` is the
//! number of *double-applies* that step accrued.

use tca_sim::{ProcessId, ShardMap, Sim};
use tca_storage::Value;
use tca_txn::workflow::{
    peek_sharded, step_marker_key, transfer_chain_def, StartWorkflow, WorkflowDef,
};

/// A fleet of disjoint transfer chains.
#[derive(Debug, Clone)]
pub struct ChainWorkload {
    /// Number of chains (= workflow instances).
    pub chains: u64,
    /// Hops per chain.
    pub steps: u32,
    /// Amount moved per hop.
    pub amount: i64,
    /// Starting balance seeded into every account.
    pub start_balance: i64,
}

impl ChainWorkload {
    /// A workload of `chains` disjoint chains of `steps` hops each, with
    /// the default per-hop amount (10) and starting balance (1000).
    pub fn new(chains: u64, steps: u32) -> Self {
        ChainWorkload {
            chains,
            steps,
            amount: 10,
            start_balance: 1_000,
        }
    }

    /// Accounts each chain spans (its `steps` hops touch `steps + 1`
    /// consecutive accounts).
    pub fn span(&self) -> u64 {
        self.steps as u64 + 1
    }

    /// Total accounts across all chains.
    pub fn accounts(&self) -> u64 {
        self.chains * self.span()
    }

    /// Account seeds for [`tca_txn::deploy_workflow`].
    pub fn seeds(&self) -> Vec<(String, Value)> {
        (0..self.accounts())
            .map(|i| (format!("acct{i}"), Value::Int(self.start_balance)))
            .collect()
    }

    /// The single workflow definition this workload runs.
    pub fn defs(&self) -> Vec<WorkflowDef> {
        vec![transfer_chain_def("chain", self.steps)]
    }

    /// The start request for chain `i` (0-based): distinct `call_id`s so
    /// the orchestrator admits every chain exactly once.
    pub fn start_request(&self, i: u64) -> (u64, StartWorkflow) {
        (
            i,
            StartWorkflow {
                workflow: "chain".into(),
                args: vec![
                    Value::Int((i * self.span()) as i64),
                    Value::Int(self.amount),
                ],
            },
        )
    }

    /// Sum of every step marker's application count across the admitted
    /// workflows (ids `1..=admitted`, in admission order): the total
    /// number of times any step body was committed. Equal to
    /// `admitted × steps` iff every step applied exactly once.
    pub fn applied_steps(
        &self,
        sim: &Sim,
        participants: &[ProcessId],
        map: &ShardMap,
        admitted: u64,
    ) -> u64 {
        self.marker_sum(sim, participants, map, admitted, |n| n)
    }

    /// Total double-applies: for every step marker, the applications
    /// beyond the first. Zero iff exactly-once held; the naive retry
    /// baseline accrues these under loss and crashes.
    pub fn double_applies(
        &self,
        sim: &Sim,
        participants: &[ProcessId],
        map: &ShardMap,
        admitted: u64,
    ) -> u64 {
        self.marker_sum(sim, participants, map, admitted, |n| n.saturating_sub(1))
    }

    fn marker_sum(
        &self,
        sim: &Sim,
        participants: &[ProcessId],
        map: &ShardMap,
        admitted: u64,
        weigh: impl Fn(u64) -> u64,
    ) -> u64 {
        let mut sum = 0;
        for wf in 1..=admitted {
            for seq in 0..self.steps {
                let key = step_marker_key(wf, seq);
                if let Some(n) = peek_sharded(sim, participants, map, &key) {
                    sum += weigh(n.max(0) as u64);
                }
            }
        }
        sum
    }

    /// Fleet-wide conservation check: chains only move money between
    /// their own accounts, so the total balance never changes regardless
    /// of how many chains committed. Returns the observed total alongside
    /// the expected one.
    pub fn conservation(
        &self,
        sim: &Sim,
        participants: &[ProcessId],
        map: &ShardMap,
    ) -> (i64, i64) {
        let total: i64 = (0..self.accounts())
            .map(|i| {
                peek_sharded(sim, participants, map, &format!("acct{i}"))
                    .unwrap_or(self.start_balance)
            })
            .sum();
        (total, self.accounts() as i64 * self.start_balance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tca_messaging::rpc::RpcRequest;
    use tca_sim::{Payload, SimDuration};
    use tca_txn::bank_registry;
    use tca_txn::workflow::{deploy_workflow, WorkflowConfig};

    #[test]
    fn chain_workload_drives_the_workflow_stack_and_audits_clean() {
        let workload = ChainWorkload::new(3, 2);
        let mut sim = Sim::with_seed(5);
        let n_orch = sim.add_node();
        let n_worker = sim.add_node();
        let n_coord = sim.add_node();
        let n_shards: Vec<_> = (0..2).map(|_| sim.add_node()).collect();
        let deploy = deploy_workflow(
            &mut sim,
            n_orch,
            &[n_worker],
            n_coord,
            &n_shards,
            &bank_registry(),
            &workload.seeds(),
            &workload.defs(),
            WorkflowConfig::default(),
        );
        for i in 0..workload.chains {
            let (call_id, start) = workload.start_request(i);
            sim.inject(
                deploy.orchestrator,
                Payload::new(RpcRequest {
                    call_id,
                    body: Payload::new(start),
                }),
            );
        }
        sim.run_for(SimDuration::from_millis(500));
        let admitted = sim.metrics().counter("workflow.started");
        assert_eq!(admitted, workload.chains);
        assert_eq!(sim.metrics().counter("workflow.completed"), admitted);
        assert_eq!(
            workload.applied_steps(&sim, &deploy.participants, &deploy.map, admitted),
            admitted * workload.steps as u64
        );
        assert_eq!(
            workload.double_applies(&sim, &deploy.participants, &deploy.map, admitted),
            0
        );
        let (total, expected) = workload.conservation(&sim, &deploy.participants, &deploy.map);
        assert_eq!(total, expected);
    }
}
