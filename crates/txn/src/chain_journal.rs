//! The durable journal of chain instances shared by the saga and workflow
//! orchestrators. Its map *is* the instance table: handlers change records
//! in place, and side tables hold only volatile state. Ids are `floor + 1`
//! (a durable floor, not boot time, since step idempotency keys derive
//! from them). Finished entries keep their verdict, so a re-sent start is
//! answered, not forked; a restart resumes [`ChainJournal::unfinished`]
//! oldest first (DESIGN.md "Two ordering hazards").

use std::cell::{Ref, RefCell, RefMut};
use std::collections::BTreeSet;
use std::rc::Rc;

use tca_sim::{DetHashMap, Disk, ProcessId};

/// Who started an instance: the client's pid and its call id.
pub(crate) type Caller = (ProcessId, u64);

/// How a finished instance ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Verdict {
    /// Every step committed.
    pub committed: bool,
    /// The error that stopped the chain, if any.
    pub error: Option<String>,
}

/// One journaled instance: who to answer, how it ended (`None` while it
/// runs), and the protocol's own record.
pub(crate) struct ChainEntry<R> {
    pub caller: Caller,
    pub verdict: Option<Verdict>,
    pub record: R,
}

type Entries<R> = Rc<RefCell<DetHashMap<u64, ChainEntry<R>>>>;

/// Durable entries and id floor, and the start index and unfinished set
/// rebuilt from them on boot.
pub(crate) struct ChainJournal<R> {
    entries: Entries<R>,
    floor: Rc<RefCell<u64>>,
    started: DetHashMap<Caller, u64>,
    open: BTreeSet<u64>,
}

impl<R: 'static> ChainJournal<R> {
    /// The journal stored on `disk` under `entries_key` and `floor_key`
    /// (empty on first boot).
    pub(crate) fn open(disk: &mut Disk, entries_key: &str, floor_key: &str) -> Self {
        let entries: Entries<R> = disk.durable(entries_key);
        let started = entries
            .borrow()
            .iter()
            .map(|(&id, entry)| (entry.caller, id))
            .collect();
        let open = entries
            .borrow()
            .iter()
            .filter(|(_, entry)| entry.verdict.is_none())
            .map(|(&id, _)| id)
            .collect();
        ChainJournal {
            entries,
            floor: disk.durable(floor_key),
            started,
            open,
        }
    }

    /// The highest id ever handed out (0 before the first).
    pub(crate) fn floor(&self) -> u64 {
        *self.floor.borrow()
    }

    /// The instance an earlier start by `caller` opened, with its verdict
    /// if it has finished; `None` for a start not seen before.
    pub(crate) fn started(&self, caller: Caller) -> Option<(u64, Option<Verdict>)> {
        let &id = self.started.get(&caller)?;
        let verdict = self.entries.borrow().get(&id)?.verdict.clone();
        Some((id, verdict))
    }

    /// Journal a new instance under the next id above the floor.
    pub(crate) fn start(&mut self, caller: Caller, record: R) -> u64 {
        let id = {
            let mut floor = self.floor.borrow_mut();
            *floor += 1;
            *floor
        };
        self.started.insert(caller, id);
        self.open.insert(id);
        self.entries.borrow_mut().insert(
            id,
            ChainEntry {
                caller,
                verdict: None,
                record,
            },
        );
        id
    }

    /// The ids of every entry without a verdict, ascending.
    pub(crate) fn unfinished(&self) -> Vec<u64> {
        self.open.iter().copied().collect()
    }

    /// `id` is journaled and has a verdict.
    pub(crate) fn is_finished(&self, id: u64) -> bool {
        !self.open.contains(&id) && self.entries.borrow().contains_key(&id)
    }

    /// Every entry, finished ones included.
    pub(crate) fn entries(&self) -> Ref<'_, DetHashMap<u64, ChainEntry<R>>> {
        self.entries.borrow()
    }

    /// The record of unfinished instance `id`, to change in place; the
    /// change is durable at once.
    pub(crate) fn get_mut(&self, id: u64) -> Option<RefMut<'_, R>> {
        if !self.open.contains(&id) {
            return None;
        }
        RefMut::filter_map(self.entries.borrow_mut(), |entries| {
            entries.get_mut(&id).map(|entry| &mut entry.record)
        })
        .ok()
    }

    /// Record unfinished instance `id`'s verdict and hand back its entry.
    pub(crate) fn finish(
        &mut self,
        id: u64,
        verdict: Verdict,
    ) -> Option<RefMut<'_, ChainEntry<R>>> {
        if !self.open.remove(&id) {
            return None;
        }
        RefMut::filter_map(self.entries.borrow_mut(), |entries| {
            let entry = entries.get_mut(&id)?;
            entry.verdict = Some(verdict);
            Some(entry)
        })
        .ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ENTRIES: &str = "test_journal";
    const FLOOR: &str = "test_floor";

    fn caller(pid: u32, call: u64) -> Caller {
        (ProcessId(pid), call)
    }

    fn done(committed: bool) -> Verdict {
        Verdict {
            committed,
            error: None,
        }
    }

    #[test]
    fn a_resent_start_finds_the_first_id() {
        let mut disk = Disk::new();
        let mut journal = ChainJournal::<&str>::open(&mut disk, ENTRIES, FLOOR);
        let id = journal.start(caller(7, 1), "a");
        assert_eq!(journal.started((ProcessId(7), 1)), Some((id, None)));
        assert_eq!(journal.started((ProcessId(8), 1)), None, "another client");
        assert_eq!(journal.started((ProcessId(7), 2)), None, "another call");
        journal.finish(id, done(true));
        assert_eq!(
            journal.started((ProcessId(7), 1)),
            Some((id, Some(done(true)))),
            "a finished start answers with its verdict"
        );
        assert!(journal.finish(id, done(false)).is_none(), "finished once");
    }

    #[test]
    fn a_reboot_keeps_the_floor_and_rebuilds_the_start_index() {
        // Two boots share one disk and, in a simulation, may share one
        // virtual instant: only the durable floor keeps ids apart.
        let mut disk = Disk::new();
        let mut first = ChainJournal::<&str>::open(&mut disk, ENTRIES, FLOOR);
        let a = first.start(caller(7, 1), "a");
        first.finish(a, done(true));
        let b = first.start(caller(8, 1), "b");
        drop(first);
        let mut second = ChainJournal::<&str>::open(&mut disk, ENTRIES, FLOOR);
        assert_eq!(second.floor(), b);
        assert_eq!(
            second.started((ProcessId(7), 1)),
            Some((a, Some(done(true))))
        );
        let c = second.start(caller(7, 2), "c");
        assert!(c > b, "a fresh id after the reboot, got {c} after {b}");
        assert_eq!(second.entries().len(), 3, "finished entries are kept");
    }

    #[test]
    fn unfinished_is_ascending_and_skips_finished_entries() {
        let mut disk = Disk::new();
        let mut journal = ChainJournal::<u32>::open(&mut disk, ENTRIES, FLOOR);
        let ids: Vec<u64> = (0..40)
            .map(|i| journal.start(caller(1, i), i as u32))
            .collect();
        for &id in ids.iter().step_by(3) {
            journal.finish(id, done(id % 2 == 0));
        }
        let open = journal.unfinished();
        let want: Vec<u64> = ids.iter().copied().filter(|id| (id - 1) % 3 != 0).collect();
        assert_eq!(open, want);
        assert!(journal.is_finished(ids[0]) && !journal.is_finished(ids[1]));
        assert!(open.windows(2).all(|w| w[0] < w[1]));
        if let Some(mut record) = journal.get_mut(ids[1]) {
            *record = 99;
        }
        assert_eq!(journal.entries()[&ids[1]].record, 99, "changed in place");
        assert!(journal.get_mut(ids[0]).is_none(), "finished: not to change");
    }
}
