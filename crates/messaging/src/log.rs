//! Partitioned append-only log storage (the broker's data plane).
//!
//! The Kafka-style model from §3.2: topics split into partitions, each an
//! append-only sequence of records addressed by offset; consumer *groups*
//! track a committed offset per partition. Producers and consumers are
//! decoupled in time — the log retains records regardless of consumption.

use std::cell::RefCell;
use std::rc::Rc;
use tca_sim::DetHashMap as HashMap;

use tca_sim::{key_shard, Payload};

/// One record in a partition.
#[derive(Debug, Clone)]
pub struct Record {
    /// Position within the partition.
    pub offset: u64,
    /// Optional partitioning/compaction key.
    pub key: Option<String>,
    /// The message body.
    pub body: Payload,
}

#[derive(Debug, Default)]
struct Partition {
    records: Vec<Record>,
}

#[derive(Debug)]
struct Topic {
    partitions: Vec<Partition>,
    round_robin: usize,
}

#[derive(Debug, Default)]
struct StoreInner {
    topics: HashMap<String, Topic>,
    /// Committed consumer offsets: (group, topic, partition) → next offset.
    committed: HashMap<(String, String, u32), u64>,
}

/// Durable topic/offset storage shared between broker incarnations.
///
/// Like [`tca_storage::DurableLog`], cloning the handle shares the store;
/// the broker keeps one handle in its [`tca_sim::Disk`] so published
/// records and committed offsets survive broker crashes.
#[derive(Debug, Clone, Default)]
pub struct TopicStore {
    inner: Rc<RefCell<StoreInner>>,
}

impl TopicStore {
    /// Empty store.
    pub fn new() -> Self {
        TopicStore::default()
    }

    /// Create a topic with `partitions` partitions. Idempotent; the
    /// partition count of an existing topic is not changed.
    pub fn create_topic(&self, topic: &str, partitions: u32) {
        assert!(partitions > 0);
        let mut inner = self.inner.borrow_mut();
        inner
            .topics
            .entry(topic.to_owned())
            .or_insert_with(|| Topic {
                partitions: (0..partitions).map(|_| Partition::default()).collect(),
                round_robin: 0,
            });
    }

    /// Number of partitions of `topic`, if it exists.
    pub fn partition_count(&self, topic: &str) -> Option<u32> {
        self.inner
            .borrow()
            .topics
            .get(topic)
            .map(|t| t.partitions.len() as u32)
    }

    /// Append a record. Keyed records hash to a stable partition (ordering
    /// per key); unkeyed records round-robin. Returns (partition, offset).
    pub fn append(&self, topic: &str, key: Option<String>, body: Payload) -> Option<(u32, u64)> {
        let mut inner = self.inner.borrow_mut();
        let t = inner.topics.get_mut(topic)?;
        let n = t.partitions.len();
        let p = match &key {
            Some(k) => key_shard(k, n),
            None => {
                t.round_robin = (t.round_robin + 1) % n;
                t.round_robin
            }
        };
        let partition = &mut t.partitions[p];
        let offset = partition.records.len() as u64;
        partition.records.push(Record { offset, key, body });
        Some((p as u32, offset))
    }

    /// Read up to `max` records of `topic`/`partition` starting at `from`.
    pub fn fetch(&self, topic: &str, partition: u32, from: u64, max: usize) -> Vec<Record> {
        let inner = self.inner.borrow();
        let Some(t) = inner.topics.get(topic) else {
            return Vec::new();
        };
        let Some(p) = t.partitions.get(partition as usize) else {
            return Vec::new();
        };
        p.records
            .iter()
            .skip(from as usize)
            .take(max)
            .cloned()
            .collect()
    }

    /// End offset (next to be written) of a partition.
    pub fn end_offset(&self, topic: &str, partition: u32) -> u64 {
        let inner = self.inner.borrow();
        inner
            .topics
            .get(topic)
            .and_then(|t| t.partitions.get(partition as usize))
            .map_or(0, |p| p.records.len() as u64)
    }

    /// Record that `group` has processed everything below `offset`.
    /// Offsets only move forward.
    pub fn commit_offset(&self, group: &str, topic: &str, partition: u32, offset: u64) {
        let mut inner = self.inner.borrow_mut();
        let entry = inner
            .committed
            .entry((group.to_owned(), topic.to_owned(), partition))
            .or_insert(0);
        *entry = (*entry).max(offset);
    }

    /// The committed offset of a group on a partition (0 if never set).
    pub fn committed_offset(&self, group: &str, topic: &str, partition: u32) -> u64 {
        self.inner
            .borrow()
            .committed
            .get(&(group.to_owned(), topic.to_owned(), partition))
            .copied()
            .unwrap_or(0)
    }

    /// Consumer lag of a group on a partition.
    pub fn lag(&self, group: &str, topic: &str, partition: u32) -> u64 {
        self.end_offset(topic, partition) - self.committed_offset(group, topic, partition)
    }

    /// Deepest unconsumed backlog across the topic's partitions: records
    /// above the *slowest* group's committed offset. A topic nobody has
    /// committed on counts every record as backlog — that is exactly the
    /// queue a broker must bound to avoid unbounded growth under overload.
    pub fn backlog(&self, topic: &str) -> u64 {
        let inner = self.inner.borrow();
        let Some(t) = inner.topics.get(topic) else {
            return 0;
        };
        let mut worst = 0u64;
        for (p, partition) in t.partitions.iter().enumerate() {
            let end = partition.records.len() as u64;
            let min_committed = inner
                .committed
                .iter()
                .filter(|((_, tp, part), _)| tp == topic && *part == p as u32)
                .map(|(_, &off)| off)
                .min()
                .unwrap_or(0);
            worst = worst.max(end.saturating_sub(min_committed));
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tca_sim::DetHashSet as HashSet;

    fn body(v: u64) -> Payload {
        Payload::new(v)
    }

    #[test]
    fn append_and_fetch_roundtrip() {
        let store = TopicStore::new();
        store.create_topic("orders", 1);
        let (p0, o0) = store.append("orders", None, body(1)).unwrap();
        let (_, o1) = store.append("orders", None, body(2)).unwrap();
        assert_eq!((p0, o0, o1), (0, 0, 1));
        let records = store.fetch("orders", 0, 0, 10);
        assert_eq!(records.len(), 2);
        assert_eq!(*records[0].body.expect::<u64>(), 1);
        assert_eq!(records[1].offset, 1);
    }

    #[test]
    fn keyed_records_stick_to_one_partition() {
        let store = TopicStore::new();
        store.create_topic("t", 4);
        let mut partitions = HashSet::default();
        for i in 0..10 {
            let (p, _) = store.append("t", Some("same-key".into()), body(i)).unwrap();
            partitions.insert(p);
        }
        assert_eq!(
            partitions.len(),
            1,
            "per-key ordering requires one partition"
        );
    }

    #[test]
    fn unkeyed_records_round_robin() {
        let store = TopicStore::new();
        store.create_topic("t", 3);
        let mut partitions = HashSet::default();
        for i in 0..9 {
            let (p, _) = store.append("t", None, body(i)).unwrap();
            partitions.insert(p);
        }
        assert_eq!(partitions.len(), 3);
    }

    #[test]
    fn fetch_respects_from_and_max() {
        let store = TopicStore::new();
        store.create_topic("t", 1);
        for i in 0..10 {
            store.append("t", None, body(i));
        }
        let records = store.fetch("t", 0, 4, 3);
        let offsets: Vec<u64> = records.iter().map(|r| r.offset).collect();
        assert_eq!(offsets, vec![4, 5, 6]);
        assert!(store.fetch("t", 0, 100, 5).is_empty());
        assert!(store.fetch("missing", 0, 0, 5).is_empty());
    }

    #[test]
    fn committed_offsets_monotone() {
        let store = TopicStore::new();
        store.create_topic("t", 1);
        store.commit_offset("g", "t", 0, 5);
        store.commit_offset("g", "t", 0, 3);
        assert_eq!(store.committed_offset("g", "t", 0), 5);
        assert_eq!(store.committed_offset("other", "t", 0), 0);
    }

    #[test]
    fn lag_tracks_unconsumed() {
        let store = TopicStore::new();
        store.create_topic("t", 1);
        for i in 0..7 {
            store.append("t", None, body(i));
        }
        store.commit_offset("g", "t", 0, 4);
        assert_eq!(store.lag("g", "t", 0), 3);
    }

    #[test]
    fn create_topic_idempotent() {
        let store = TopicStore::new();
        store.create_topic("t", 2);
        store.append("t", None, body(0));
        store.create_topic("t", 8);
        assert_eq!(store.partition_count("t"), Some(2));
        assert_eq!(store.end_offset("t", 0) + store.end_offset("t", 1), 1);
    }

    #[test]
    fn handles_share_state() {
        let a = TopicStore::new();
        let b = a.clone();
        a.create_topic("t", 1);
        b.append("t", None, body(9));
        assert_eq!(a.end_offset("t", 0), 1);
    }
}
