//! The deterministic transaction *contract* (Calvin/Styx-style \[52\],
//! §3.1, §4.2: "another category … provides transactional serializability
//! on computations cutting across functions").
//!
//! A deterministic transaction declares its key set up front
//! ([`SubmitTxn::read_keys`]) and its body is a pure function from the
//! values under those keys to a write set ([`DetProcFn`]). That is all an
//! engine needs to order transactions once, globally, and have every
//! partition evaluate the same function over the same reads — no locks,
//! no aborts, serializability from the order itself. The engine that runs
//! this contract is [`crate::dataflow`]; clients submit a [`SubmitTxn`]
//! to its sequencer and receive a [`TxnOutcome`].
//!
//! Restrictions (as in Calvin): read and write sets must be declared
//! up-front (`read_keys`), and writes may only target declared keys.

use std::rc::Rc;
use tca_sim::DetHashMap as HashMap;

use tca_storage::Value;

/// A deterministic transaction body: `(args, full read set) → write set`.
/// Must be a pure function — every shard evaluates it identically.
pub type DetProcFn =
    Rc<dyn Fn(&[Value], &HashMap<String, Value>) -> Result<Vec<(String, Value)>, String>>;

/// Registry of deterministic procedures (shared by all shards).
#[derive(Clone, Default)]
pub struct DetRegistry {
    pub(crate) procs: HashMap<String, DetProcFn>,
}

impl DetRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        DetRegistry::default()
    }

    /// Register a procedure (builder style).
    pub fn with(
        mut self,
        name: &str,
        f: impl Fn(&[Value], &HashMap<String, Value>) -> Result<Vec<(String, Value)>, String> + 'static,
    ) -> Self {
        self.procs.insert(name.to_owned(), Rc::new(f));
        self
    }
}

/// Client request (inside a [`tca_messaging::rpc::RpcRequest`]) to the
/// sequencer.
#[derive(Debug, Clone)]
pub struct SubmitTxn {
    /// Registered procedure.
    pub proc: String,
    /// Arguments.
    pub args: Vec<Value>,
    /// Declared read set (writes must stay within it).
    pub read_keys: Vec<String>,
}

/// Transaction outcome (inside an `RpcReply`, sent by the owner shard).
#[derive(Debug, Clone)]
pub struct TxnOutcome {
    /// Ok = committed with these results (the write set size);
    /// Err = deterministic logic failure (all shards agree).
    pub result: Result<Vec<Value>, String>,
}

/// The standard transfer procedure for benchmarks: read two balances,
/// move `amount` if funds allow. A transfer to oneself moves nothing.
/// Accounts start with 100.
pub fn transfer_registry() -> DetRegistry {
    transfer_registry_from(100)
}

/// [`transfer_registry`] over accounts that start with `initial`: the
/// engine has no load phase, so a key never written reads as that.
pub fn transfer_registry_from(initial: i64) -> DetRegistry {
    DetRegistry::new().with("transfer", move |args, reads| {
        let from = args[0].as_str();
        let to = args[1].as_str();
        let amount = args[2].as_int();
        let read_int = |k: &str| -> i64 {
            match reads.get(k) {
                Some(Value::Int(v)) => *v,
                _ => initial,
            }
        };
        let from_balance = read_int(from);
        if from_balance < amount {
            return Err("insufficient".into());
        }
        if from == to {
            // Both writes would land on one key, the credit last: money
            // from nowhere.
            return Ok(vec![]);
        }
        Ok(vec![
            (from.to_owned(), Value::Int(from_balance - amount)),
            (to.to_owned(), Value::Int(read_int(to) + amount)),
        ])
    })
}
