//! Core data types shared across the storage engine.

use std::borrow::Cow;
use std::fmt;

/// A database key. Applications build composite keys by convention, e.g.
/// `"stock/3/17"` for warehouse 3, item 17.
pub type Key = String;

/// A dynamically typed database value.
///
/// A small closed set of variants keeps values comparable and hashable,
/// which the transaction checkers rely on.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Signed integer (counters, quantities, money in cents).
    Int(i64),
    /// UTF-8 text.
    Str(String),
    /// Boolean flag.
    Bool(bool),
    /// A list of values (order lines, history records).
    List(Vec<Value>),
    /// Explicit absence distinct from "key not present".
    Null,
}

impl Value {
    /// The integer inside, panicking on other variants.
    pub fn as_int(&self) -> i64 {
        match self {
            Value::Int(v) => *v,
            other => panic!("expected Int, got {other:?}"),
        }
    }

    /// The string inside, panicking on other variants.
    pub fn as_str(&self) -> &str {
        match self {
            Value::Str(v) => v,
            other => panic!("expected Str, got {other:?}"),
        }
    }

    /// The bool inside, panicking on other variants.
    pub fn as_bool(&self) -> bool {
        match self {
            Value::Bool(v) => *v,
            other => panic!("expected Bool, got {other:?}"),
        }
    }

    /// The list inside, panicking on other variants.
    pub fn as_list(&self) -> &[Value] {
        match self {
            Value::List(v) => v,
            other => panic!("expected List, got {other:?}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// A batch of key/value pairs, as a bulk load carries it from its
/// generator to a shard's base: the keys laid end to end in one arena, the
/// end offset of each key, and the values in one column. A key costs its
/// bytes and a 4-byte offset, not a `String` of its own. The column holds
/// bare `i64`s, 8 bytes a value, for as long as every value pushed or
/// appended is an `Int`. The first value that is not one turns it, once,
/// into a column of `Value`s at 32 bytes each, at the capacity it had. A
/// read hands out a `Cow`: an owned `Value::Int` from the int column,
/// which allocates nothing, and a borrow from the other. A generator that
/// knows its batch's size builds it at exact capacity, and a conversion
/// or a collect is exact too: a shard keeps its batch as its base, spare
/// capacity and all.
///
/// Its `Debug` output is that of the `Vec<(Key, Value)>` it holds, so a
/// message that carries one prints as it did when it carried the vector.
/// Two batches are equal when they hold the same pairs, whichever column
/// holds their values.
#[derive(Clone, Default)]
pub struct Pairs {
    /// Every key, end to end.
    keys: String,
    /// Where each key ends in `keys`; key `i` starts where key `i - 1`
    /// ends.
    ends: Vec<u32>,
    values: Column,
}

/// A batch's values: bare integers until the first value that is not one.
#[derive(Clone)]
enum Column {
    Ints(Vec<i64>),
    Values(Vec<Value>),
}

impl Default for Column {
    fn default() -> Self {
        Column::Ints(Vec::new())
    }
}

impl Column {
    fn get(&self, i: usize) -> Cow<'_, Value> {
        match self {
            Column::Ints(ints) => Cow::Owned(Value::Int(ints[i])),
            Column::Values(values) => Cow::Borrowed(&values[i]),
        }
    }

    /// The column as `Value`s: an int column is turned into one first, at
    /// the capacity it had.
    fn values(&mut self) -> &mut Vec<Value> {
        if let Column::Ints(ints) = self {
            let mut values = Vec::with_capacity(ints.capacity());
            values.extend(ints.iter().map(|&int| Value::Int(int)));
            *self = Column::Values(values);
        }
        match self {
            Column::Values(values) => values,
            Column::Ints(_) => unreachable!("an int column was turned into values"),
        }
    }

    fn push(&mut self, value: Value) {
        match (self, value) {
            (Column::Ints(ints), Value::Int(int)) => ints.push(int),
            (column, value) => column.values().push(value),
        }
    }

    fn append(&mut self, other: Column) {
        match (self, other) {
            (Column::Ints(ints), Column::Ints(mut more)) => {
                ints.reserve_exact(more.len());
                ints.append(&mut more);
            }
            (column, Column::Ints(more)) => {
                let values = column.values();
                values.reserve_exact(more.len());
                values.extend(more.into_iter().map(Value::Int));
            }
            (column, Column::Values(mut more)) => {
                let values = column.values();
                values.reserve_exact(more.len());
                values.append(&mut more);
            }
        }
    }

    fn shrink_to_fit(&mut self) {
        match self {
            Column::Ints(ints) => ints.shrink_to_fit(),
            Column::Values(values) => values.shrink_to_fit(),
        }
    }

    fn spare_capacity(&self) -> usize {
        match self {
            Column::Ints(ints) => ints.capacity() - ints.len(),
            Column::Values(values) => values.capacity() - values.len(),
        }
    }
}

impl Pairs {
    /// An empty batch.
    pub fn new() -> Self {
        Pairs::default()
    }

    /// An empty batch with room for `pairs` pairs whose keys take
    /// `key_bytes` bytes together: filled with exactly that, it holds no
    /// spare capacity.
    pub fn with_capacity(pairs: usize, key_bytes: usize) -> Self {
        Pairs {
            keys: String::with_capacity(key_bytes),
            ends: Vec::with_capacity(pairs),
            values: Column::Ints(Vec::with_capacity(pairs)),
        }
    }

    /// Add a pair at the end.
    pub fn push(&mut self, key: &str, value: Value) {
        self.keys.push_str(key);
        self.end_key(value);
    }

    /// Add a pair at the end whose key is `key` formatted straight into
    /// the arena, with no `String` of its own.
    pub fn push_fmt(&mut self, key: fmt::Arguments<'_>, value: Value) {
        fmt::Write::write_fmt(&mut self.keys, key).expect("a String takes any text");
        self.end_key(value);
    }

    /// Close the key the arena ends with, under `value`.
    fn end_key(&mut self, value: Value) {
        let end = u32::try_from(self.keys.len()).expect("a batch's keys fit u32 offsets");
        self.ends.push(end);
        self.values.push(value);
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the batch holds no pair.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Where key `i` starts in the arena.
    fn start(&self, i: usize) -> usize {
        match i {
            0 => 0,
            _ => self.ends[i - 1] as usize,
        }
    }

    /// Pair `i`'s key.
    pub fn key(&self, i: usize) -> &str {
        &self.keys[self.start(i)..self.ends[i] as usize]
    }

    /// Pair `i`'s value: owned from the int column, borrowed otherwise.
    pub fn value(&self, i: usize) -> Cow<'_, Value> {
        self.values.get(i)
    }

    /// Every pair, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&str, Cow<'_, Value>)> + '_ {
        (0..self.len()).map(|i| (self.key(i), self.values.get(i)))
    }

    /// The values as bare integers, if the batch holds them in its int
    /// column: every value it was given was an `Int`.
    pub fn ints(&self) -> Option<&[i64]> {
        match &self.values {
            Column::Ints(ints) => Some(ints),
            Column::Values(_) => None,
        }
    }

    /// Bytes the keys take together.
    pub fn key_bytes(&self) -> usize {
        self.keys.len()
    }

    /// Move every pair of `other` to the end, in order, growing the batch
    /// by exactly that.
    pub fn append(&mut self, other: Pairs) {
        let offset = u32::try_from(self.keys.len()).expect("a batch's keys fit u32 offsets");
        self.keys.reserve_exact(other.keys.len());
        self.ends.reserve_exact(other.len());
        self.keys.push_str(&other.keys);
        for &end in &other.ends {
            let end = end.checked_add(offset);
            self.ends.push(end.expect("a batch's keys fit u32 offsets"));
        }
        self.values.append(other.values);
    }

    /// Hand every pair from position `at` on to `each`, in order, and
    /// truncate the batch to the pairs before it. The capacity stays.
    pub fn drain_from(&mut self, at: usize, mut each: impl FnMut(&str, Value)) {
        let from = self.start(at);
        let Pairs { keys, ends, values } = self;
        let mut start = from;
        let mut each = |end: &u32, value| {
            each(&keys[start..*end as usize], value);
            start = *end as usize;
        };
        match values {
            Column::Ints(ints) => (ends[at..].iter())
                .zip(ints.drain(at..))
                .for_each(|(end, int)| each(end, Value::Int(int))),
            Column::Values(values) => (ends[at..].iter())
                .zip(values.drain(at..))
                .for_each(|(end, value)| each(end, value)),
        }
        keys.truncate(from);
        ends.truncate(at);
    }

    /// Give back every byte of spare capacity.
    pub fn shrink_to_fit(&mut self) {
        self.keys.shrink_to_fit();
        self.ends.shrink_to_fit();
        self.values.shrink_to_fit();
    }

    /// The spare capacity of the key arena (in bytes), of the end offsets
    /// and of the value column: all zero when the batch is held exactly.
    pub fn spare_capacity(&self) -> [usize; 3] {
        [
            self.keys.capacity() - self.keys.len(),
            self.ends.capacity() - self.ends.len(),
            self.values.spare_capacity(),
        ]
    }
}

impl PartialEq for Pairs {
    fn eq(&self, other: &Self) -> bool {
        // Equal ends are equally many pairs.
        self.keys == other.keys
            && self.ends == other.ends
            && match (&self.values, &other.values) {
                (Column::Ints(a), Column::Ints(b)) => a == b,
                (Column::Values(a), Column::Values(b)) => a == b,
                (a, b) => (0..self.len()).all(|i| a.get(i) == b.get(i)),
            }
    }
}

impl fmt::Debug for Pairs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<K: AsRef<str>> FromIterator<(K, Value)> for Pairs {
    /// The pairs in order, at exact capacity.
    fn from_iter<I: IntoIterator<Item = (K, Value)>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut pairs = Pairs::with_capacity(iter.size_hint().0, 0);
        for (key, value) in iter {
            pairs.push(key.as_ref(), value);
        }
        pairs.shrink_to_fit();
        pairs
    }
}

impl From<Vec<(Key, Value)>> for Pairs {
    /// The pairs in order, at exact capacity: one copy of every key.
    fn from(pairs: Vec<(Key, Value)>) -> Self {
        let key_bytes = pairs.iter().map(|(key, _)| key.len()).sum();
        let mut batch = Pairs::with_capacity(pairs.len(), key_bytes);
        for (key, value) in pairs {
            batch.push(&key, value);
        }
        batch
    }
}

/// Identifies a transaction within one database engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxId(pub u64);

impl fmt::Display for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tx{}", self.0)
    }
}

/// A commit timestamp; also the engine's logical clock.
pub type Timestamp = u64;

/// The isolation levels the engine supports (§4.2 of the paper: the
/// developer-facing consistency knob of the data tier).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IsolationLevel {
    /// MVCC read committed: each read sees the latest committed version at
    /// statement time. Permits non-repeatable reads, lost updates via
    /// read-modify-write, and write skew.
    ReadCommitted,
    /// Snapshot isolation: reads from a begin-time snapshot, and the first
    /// committer wins on write-write conflicts. Permits write skew.
    SnapshotIsolation,
    /// Strict two-phase locking: shared/exclusive locks held to commit.
    /// Serializable; subject to deadlocks (resolved by aborting a waiter).
    Serializable,
}

impl fmt::Display for IsolationLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            IsolationLevel::ReadCommitted => "read-committed",
            IsolationLevel::SnapshotIsolation => "snapshot-isolation",
            IsolationLevel::Serializable => "serializable",
        };
        f.write_str(s)
    }
}

/// Why a transaction was aborted by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbortReason {
    /// Deadlock detected; this transaction was chosen as the victim.
    Deadlock,
    /// Snapshot-isolation first-committer-wins conflict.
    WriteConflict,
    /// The application requested the abort.
    Requested,
    /// A stored procedure signalled a logic failure (e.g. constraint).
    LogicFailure,
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AbortReason::Deadlock => "deadlock",
            AbortReason::WriteConflict => "write-conflict",
            AbortReason::Requested => "requested",
            AbortReason::LogicFailure => "logic-failure",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_accessors() {
        assert_eq!(Value::Int(5).as_int(), 5);
        assert_eq!(Value::from("x").as_str(), "x");
        assert!(Value::Bool(true).as_bool());
        assert_eq!(Value::List(vec![Value::Int(1)]).as_list(), &[Value::Int(1)]);
    }

    #[test]
    #[should_panic(expected = "expected Int")]
    fn wrong_accessor_panics() {
        Value::Str("no".into()).as_int();
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(String::from("s")), Value::Str("s".into()));
    }

    #[test]
    fn pairs_keep_their_keys_end_to_end() {
        let mut pairs = Pairs::with_capacity(3, 8);
        pairs.push("ab", Value::Int(1));
        pairs.push("", Value::Int(2));
        pairs.push_fmt(format_args!("c/{}", 42), Value::Int(3));
        assert_eq!(pairs.len(), 3);
        assert_eq!(pairs.key_bytes(), 6);
        assert_eq!(pairs.spare_capacity(), [2, 0, 0]);
        assert_eq!(
            (pairs.key(1), pairs.value(1)),
            ("", Cow::Owned(Value::Int(2)))
        );
        assert_eq!(
            format!("{pairs:?}"),
            r#"[("ab", Int(1)), ("", Int(2)), ("c/42", Int(3))]"#
        );
        let mut tail = Vec::new();
        pairs.drain_from(1, |key, value| tail.push((key.to_owned(), value)));
        assert_eq!(
            tail,
            [("".into(), Value::Int(2)), ("c/42".into(), Value::Int(3))]
        );
        assert_eq!(
            pairs.iter().collect::<Vec<_>>(),
            [("ab", Cow::Owned(Value::Int(1)))]
        );
        pairs.append(Pairs::from(tail));
        pairs.shrink_to_fit();
        assert_eq!(pairs.spare_capacity(), [0, 0, 0]);
        assert_eq!(pairs.key(2), "c/42");
        assert_eq!(pairs.ints(), Some(&[1, 2, 3][..]));
    }

    #[test]
    fn displays() {
        assert_eq!(TxId(3).to_string(), "tx3");
        assert_eq!(IsolationLevel::Serializable.to_string(), "serializable");
        assert_eq!(AbortReason::Deadlock.to_string(), "deadlock");
    }
}
