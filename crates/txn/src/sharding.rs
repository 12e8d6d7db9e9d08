//! Cross-shard transaction construction over the shared placement map.
//!
//! A sharded deployment runs one [`crate::twopc::TwoPcParticipant`] per
//! storage shard. The coordinator protocol is unchanged — it already
//! accepts any branch list (of up to [`crate::twopc::MAX_BRANCHES`]) —
//! so making a transaction
//! "cross-shard" is purely a matter of *addressing*: each single-shard
//! operation becomes a branch sent to the participant fronting the shard
//! that owns the operation's partition key. [`route_branches`] does that
//! lookup through the same [`ShardMap`] the storage router uses, so the
//! transactional tier and the routing tier always agree on ownership.

use tca_sim::{ProcessId, ShardMap};
use tca_storage::Value;

/// One single-shard operation: `(partition key, procedure, args)`.
pub type ShardOp = (String, String, Vec<Value>);

/// Turn partition-keyed operations into 2PC branches, one per operation,
/// each addressed to the participant fronting the owning shard
/// (`participants[i]` fronts shard `i` of `map`).
///
/// The result feeds straight into
/// [`crate::twopc::StartDtx`]`::branches`; the coordinator then runs
/// prepare/commit across exactly the set of shards the transaction
/// touches.
///
/// # Panics
///
/// Panics unless `participants` has exactly one entry per shard of
/// `map` — a mismatch would silently address branches to the wrong
/// fleet.
pub fn route_branches(
    map: &ShardMap,
    participants: &[ProcessId],
    ops: &[ShardOp],
) -> Vec<(ProcessId, String, Vec<Value>)> {
    assert_eq!(
        map.shards(),
        participants.len(),
        "one participant per shard"
    );
    ops.iter()
        .map(|(key, proc, args)| (participants[map.owner(key)], proc.clone(), args.clone()))
        .collect()
}

/// The distinct shards `ops` touch, in ascending order — the
/// transaction's participant set size (1 = single-shard fast path
/// territory, >1 = a true distributed transaction).
pub fn touched_shards(map: &ShardMap, ops: &[ShardOp]) -> Vec<usize> {
    let mut shards: Vec<usize> = ops.iter().map(|(key, _, _)| map.owner(key)).collect();
    shards.sort_unstable();
    shards.dedup();
    shards
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(key: &str) -> ShardOp {
        (
            key.to_owned(),
            "credit".to_owned(),
            vec![Value::from(key), Value::Int(1)],
        )
    }

    #[test]
    fn branches_follow_ring_ownership() {
        let map = ShardMap::ring(4);
        let participants: Vec<ProcessId> = (0..4u32).map(ProcessId).collect();
        let ops: Vec<ShardOp> = (0..50).map(|i| op(&format!("acct{i}"))).collect();
        let branches = route_branches(&map, &participants, &ops);
        assert_eq!(branches.len(), ops.len());
        for ((key, proc, args), (pid, b_proc, b_args)) in ops.iter().zip(&branches) {
            assert_eq!(*pid, participants[map.owner(key)]);
            assert_eq!(proc, b_proc);
            assert_eq!(args, b_args);
        }
    }

    #[test]
    fn touched_shards_deduplicates() {
        let map = ShardMap::ring(3);
        let ops = vec![op("a"), op("a"), op("b"), op("acct42")];
        let shards = touched_shards(&map, &ops);
        assert!(!shards.is_empty() && shards.len() <= 3);
        let mut sorted = shards.clone();
        sorted.dedup();
        assert_eq!(sorted, shards, "sorted and distinct");
    }

    #[test]
    fn single_key_transactions_touch_one_shard() {
        let map = ShardMap::ring(8);
        for i in 0..20 {
            let ops = vec![op(&format!("user{i:08}"))];
            assert_eq!(touched_shards(&map, &ops).len(), 1);
        }
    }
}
