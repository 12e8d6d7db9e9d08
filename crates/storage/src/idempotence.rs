//! Per-entity idempotence table for exactly-once workflow steps.
//!
//! Beldi-style receive-side dedup: every workflow step is identified by
//! `(workflow id, step seq)`, and the worker that executes a step records
//! its reply here **before** answering. A re-delivered or re-driven step
//! (duplicate message, retry after a lost reply, replay after a crash)
//! finds the recorded entry and returns the cached reply instead of
//! re-applying effects.
//!
//! Entries cannot live forever, so the table carries a *watermark*: the
//! workflow orchestrator advances it once every workflow below it has
//! reached a terminal state, and [`IdempotenceTable::gc_below`] drops the
//! entries it covers (the same monotone-watermark pattern the dataflow
//! engine uses for exactly-once output). A duplicate that arrives *after*
//! its entry was collected is [`IdemCheck::BelowWatermark`] — the caller
//! must reject it outright, never re-execute: the watermark proves the
//! workflow already finished, so the effect is already applied.
//!
//! The table is a plain synchronous structure; the workflow worker keeps
//! it on its simulated disk (`Rc<RefCell<_>>`, the same idiom as the 2PC
//! decision journal) so it survives crashes.

use std::cell::RefCell;
use std::rc::Rc;

use tca_sim::{DetHashMap, Fnv64};

use crate::types::Value;

/// A step reply as recorded in the table: the procedure results on
/// success, the business error on failure (both are replayed verbatim).
pub type StepReply = Result<Vec<Value>, String>;

/// Outcome of consulting the table for `(workflow, seq)`.
#[derive(Debug, Clone, PartialEq)]
pub enum IdemCheck {
    /// Never seen: execute the step, then [`IdempotenceTable::record`].
    Fresh,
    /// Already executed: return the cached reply, do NOT re-apply.
    Duplicate(StepReply),
    /// The workflow finished and its entries were collected; the inner
    /// value is the current watermark. Reject — the effect is already
    /// applied and the reply is gone.
    BelowWatermark(u64),
}

/// Durable `(workflow id, step seq) → reply` dedup table with watermark GC.
#[derive(Debug, Default)]
pub struct IdempotenceTable {
    entries: DetHashMap<(u64, u32), StepReply>,
    /// Entries for workflow ids `< watermark` have been collected.
    watermark: u64,
}

/// The shared-on-disk handle workflow workers keep (survives crashes).
pub type SharedIdempotence = Rc<RefCell<IdempotenceTable>>;

impl IdempotenceTable {
    /// An empty table with watermark 0 (nothing collected).
    pub fn new() -> Self {
        IdempotenceTable::default()
    }

    /// Consult the table for a step about to execute.
    pub fn check(&self, workflow: u64, seq: u32) -> IdemCheck {
        if workflow < self.watermark {
            return IdemCheck::BelowWatermark(self.watermark);
        }
        match self.entries.get(&(workflow, seq)) {
            Some(reply) => IdemCheck::Duplicate(reply.clone()),
            None => IdemCheck::Fresh,
        }
    }

    /// Record a step's reply. Recording below the watermark is a protocol
    /// error upstream (the caller should have rejected); the entry is
    /// dropped so the table stays consistent with its watermark.
    pub fn record(&mut self, workflow: u64, seq: u32, reply: StepReply) {
        if workflow >= self.watermark {
            self.entries.insert((workflow, seq), reply);
        }
    }

    /// Advance the watermark and drop every entry it covers. Watermarks
    /// are monotone: a stale (smaller) value is ignored. Returns the
    /// number of entries collected.
    pub fn gc_below(&mut self, watermark: u64) -> usize {
        if watermark <= self.watermark {
            return 0;
        }
        self.watermark = watermark;
        let before = self.entries.len();
        self.entries.retain(|&(wf, _), _| wf >= watermark);
        before - self.entries.len()
    }

    /// The current GC watermark (workflow ids below it are collected).
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Order-insensitive FNV digest of the retained entries and the
    /// watermark, for model-checker state fingerprints.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        let mut mix = |v: u64| h = h.u64(v);
        mix(self.watermark);
        let mut keys: Vec<(u64, u32, u64)> = self
            .entries
            .iter()
            .map(|(&(wf, seq), reply)| {
                let tag = match reply {
                    Ok(values) => values.len() as u64 + 1,
                    Err(e) => 0x8000_0000_0000_0000 | e.len() as u64,
                };
                (wf, seq, tag)
            })
            .collect();
        keys.sort_unstable();
        mix(keys.len() as u64);
        for (wf, seq, tag) in keys {
            mix(wf);
            mix(seq as u64);
            mix(tag);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_then_duplicate_roundtrip() {
        let mut table = IdempotenceTable::new();
        assert_eq!(table.check(7, 0), IdemCheck::Fresh);
        table.record(7, 0, Ok(vec![Value::Int(42)]));
        assert_eq!(
            table.check(7, 0),
            IdemCheck::Duplicate(Ok(vec![Value::Int(42)]))
        );
        // A different seq of the same workflow is independent.
        assert_eq!(table.check(7, 1), IdemCheck::Fresh);
        table.record(7, 1, Err("insufficient".into()));
        assert_eq!(
            table.check(7, 1),
            IdemCheck::Duplicate(Err("insufficient".into()))
        );
    }

    #[test]
    fn entries_are_retained_until_the_watermark_passes() {
        // Pinned GC semantics: completing workflow 1 must NOT collect
        // workflow 2's entries; only a watermark strictly above an id
        // collects it.
        let mut table = IdempotenceTable::new();
        table.record(1, 0, Ok(vec![]));
        table.record(2, 0, Ok(vec![]));
        assert_eq!(table.gc_below(2), 1, "collects exactly workflow 1");
        assert_eq!(
            table.check(2, 0),
            IdemCheck::Duplicate(Ok(vec![])),
            "workflow 2 is still deduplicable until the watermark passes it"
        );
        assert_eq!(table.gc_below(3), 1);
        assert!(table.is_empty());
    }

    #[test]
    fn post_gc_duplicate_is_rejected_not_reexecuted() {
        let mut table = IdempotenceTable::new();
        table.record(1, 0, Ok(vec![]));
        table.gc_below(2);
        // The late duplicate must come back BelowWatermark — the caller
        // turns this into a hard rejection, never a re-execution.
        assert_eq!(table.check(1, 0), IdemCheck::BelowWatermark(2));
        // And recording below the watermark is inert.
        table.record(1, 0, Ok(vec![Value::Int(1)]));
        assert_eq!(table.check(1, 0), IdemCheck::BelowWatermark(2));
        assert!(table.is_empty());
    }

    #[test]
    fn watermark_is_monotone() {
        let mut table = IdempotenceTable::new();
        table.record(5, 0, Ok(vec![]));
        assert_eq!(table.gc_below(4), 0);
        assert_eq!(table.gc_below(4), 0, "stale watermark is ignored");
        assert_eq!(table.watermark(), 4);
        assert_eq!(table.check(5, 0), IdemCheck::Duplicate(Ok(vec![])));
    }

    #[test]
    fn digest_tracks_content_not_insertion_order() {
        let mut a = IdempotenceTable::new();
        a.record(1, 0, Ok(vec![]));
        a.record(2, 0, Ok(vec![]));
        let mut b = IdempotenceTable::new();
        b.record(2, 0, Ok(vec![]));
        b.record(1, 0, Ok(vec![]));
        assert_eq!(a.digest(), b.digest());
        b.gc_below(2);
        assert_ne!(a.digest(), b.digest());
    }
}
