//! Stored procedures: named transactional closures executed at the server.
//!
//! Co-locating logic with state is the classic cure for chatty interactive
//! transactions — and is exactly what stateful-function platforms do
//! (§3.1). A procedure runs inside one engine transaction; it either
//! commits, aborts with a logic failure, or reports a lock conflict
//! ([`ProcOutcome::Retry`]): another open transaction holds a lock it
//! needs. Nothing waits on that lock. The run is rolled back, and its
//! caller answers at once: a `DbServer` replies `Aborted`, and a 2PC
//! participant fails the branch.

use std::rc::Rc;
use tca_sim::DetHashMap as HashMap;

use crate::engine::{CommitResult, Engine, OpResult};
use crate::types::{AbortReason, IsolationLevel, TxId, Value};

/// Handle a procedure uses to access the database transactionally.
pub struct TxHandle<'a> {
    engine: &'a mut Engine,
    tx: TxId,
    blocked: bool,
}

impl<'a> TxHandle<'a> {
    /// Read a key. Returns `None` both for absent keys and when the
    /// transaction got blocked (check [`TxHandle::is_blocked`]).
    pub fn get(&mut self, key: &str) -> Option<Value> {
        if self.blocked {
            return None;
        }
        let (result, _) = self.engine.read(self.tx, key);
        match result {
            OpResult::Read(v) => v,
            OpResult::Blocked | OpResult::Aborted(_) => {
                self.blocked = true;
                None
            }
            OpResult::Written => unreachable!("read returned Written"),
        }
    }

    /// Write a key.
    pub fn put(&mut self, key: &str, value: Value) {
        if self.blocked {
            return;
        }
        let (result, _) = self.engine.write(self.tx, key, Some(value));
        if !matches!(result, OpResult::Written) {
            self.blocked = true;
        }
    }

    /// Delete a key.
    pub fn delete(&mut self, key: &str) {
        if self.blocked {
            return;
        }
        let (result, _) = self.engine.write(self.tx, key, None);
        if !matches!(result, OpResult::Written) {
            self.blocked = true;
        }
    }

    /// True once any operation failed to acquire its lock immediately;
    /// the procedure run will be aborted and retried.
    pub fn is_blocked(&self) -> bool {
        self.blocked
    }
}

/// The outcome of one procedure invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum ProcOutcome {
    /// Committed; these are the procedure's results.
    Done(Vec<Value>),
    /// The procedure's logic rejected the request (constraint violation,
    /// insufficient stock, …). The transaction was rolled back.
    Failed(String),
    /// A lock another open transaction holds: an interactive one at a
    /// `DbServer`, a prepared branch at a 2PC participant. The run was
    /// rolled back; sending it again is the client's choice.
    Retry,
    /// The engine aborted the transaction (deadlock / write conflict).
    Aborted(AbortReason),
}

/// A stored procedure: pure function of transaction handle and arguments.
pub type ProcFn = Rc<dyn Fn(&mut TxHandle, &[Value]) -> Result<Vec<Value>, String>>;

/// Named registry of stored procedures, shared by server incarnations.
#[derive(Clone, Default)]
pub struct ProcRegistry {
    procs: HashMap<String, ProcFn>,
}

impl ProcRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        ProcRegistry::default()
    }

    /// Register `f` under `name` (builder style).
    pub fn with(
        mut self,
        name: &str,
        f: impl Fn(&mut TxHandle, &[Value]) -> Result<Vec<Value>, String> + 'static,
    ) -> Self {
        self.procs.insert(name.to_owned(), Rc::new(f));
        self
    }

    /// Register `f` under `name`.
    pub fn register(
        &mut self,
        name: &str,
        f: impl Fn(&mut TxHandle, &[Value]) -> Result<Vec<Value>, String> + 'static,
    ) {
        self.procs.insert(name.to_owned(), Rc::new(f));
    }

    /// Look up a procedure.
    pub fn get(&self, name: &str) -> Option<ProcFn> {
        self.procs.get(name).cloned()
    }

    /// Registered procedure names (sorted, for diagnostics).
    pub fn names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.procs.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }
}

/// Run a registered procedure inside one serializable transaction and,
/// on success, leave that transaction **open** with its locks held; the
/// caller must later `engine.commit(tx)` or `engine.abort(tx)`. This is
/// the execute phase of two-phase commit: the participant runs the local
/// work but defers the commit decision to the coordinator. A blocked or
/// failed run is rolled back here.
pub fn run_proc_open(
    engine: &mut Engine,
    registry: &ProcRegistry,
    name: &str,
    args: &[Value],
) -> Result<(TxId, Vec<Value>), ProcOutcome> {
    let Some(proc) = registry.get(name) else {
        return Err(ProcOutcome::Failed(format!("unknown procedure `{name}`")));
    };
    let tx = engine.begin(IsolationLevel::Serializable);
    let (result, blocked) = {
        let mut handle = TxHandle {
            engine,
            tx,
            blocked: false,
        };
        let result = proc(&mut handle, args);
        (result, handle.blocked)
    };
    if blocked {
        engine.abort(tx);
        return Err(ProcOutcome::Retry);
    }
    match result {
        Ok(values) => Ok((tx, values)),
        Err(msg) => {
            engine.abort(tx);
            Err(ProcOutcome::Failed(msg))
        }
    }
}

/// Execute a registered procedure inside one serializable transaction:
/// [`run_proc_open`], then commit.
pub fn run_proc(
    engine: &mut Engine,
    registry: &ProcRegistry,
    name: &str,
    args: &[Value],
) -> ProcOutcome {
    match run_proc_open(engine, registry, name, args) {
        Ok((tx, values)) => match engine.commit(tx).0 {
            CommitResult::Committed(_) => ProcOutcome::Done(values),
            CommitResult::Aborted(reason) => ProcOutcome::Aborted(reason),
        },
        Err(outcome) => outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::wal::{DurableCell, DurableLog};

    fn engine() -> Engine {
        Engine::new(
            EngineConfig::default(),
            DurableLog::new(),
            DurableCell::new(),
        )
    }

    fn transfer_registry() -> ProcRegistry {
        ProcRegistry::new().with("transfer", |tx, args| {
            let from = args[0].as_str().to_owned();
            let to = args[1].as_str().to_owned();
            let amount = args[2].as_int();
            let balance = tx.get(&from).map(|v| v.as_int()).unwrap_or(0);
            if balance < amount {
                return Err("insufficient funds".into());
            }
            let dest = tx.get(&to).map(|v| v.as_int()).unwrap_or(0);
            tx.put(&from, Value::Int(balance - amount));
            tx.put(&to, Value::Int(dest + amount));
            Ok(vec![Value::Int(balance - amount)])
        })
    }

    #[test]
    fn proc_commits_on_success() {
        let mut e = engine();
        e.load(&"acct/a".to_owned(), Value::Int(100));
        e.load(&"acct/b".to_owned(), Value::Int(0));
        let reg = transfer_registry();
        let out = run_proc(
            &mut e,
            &reg,
            "transfer",
            &[Value::from("acct/a"), Value::from("acct/b"), Value::Int(30)],
        );
        assert_eq!(out, ProcOutcome::Done(vec![Value::Int(70)]));
        assert_eq!(e.peek("acct/a"), Some(Value::Int(70)));
        assert_eq!(e.peek("acct/b"), Some(Value::Int(30)));
    }

    #[test]
    fn proc_rolls_back_on_logic_failure() {
        let mut e = engine();
        e.load(&"acct/a".to_owned(), Value::Int(10));
        let reg = transfer_registry();
        let out = run_proc(
            &mut e,
            &reg,
            "transfer",
            &[Value::from("acct/a"), Value::from("acct/b"), Value::Int(30)],
        );
        assert_eq!(out, ProcOutcome::Failed("insufficient funds".into()));
        assert_eq!(e.peek("acct/a"), Some(Value::Int(10)), "unchanged");
        assert_eq!(e.peek("acct/b"), None);
    }

    #[test]
    fn unknown_proc_fails() {
        let mut e = engine();
        let reg = ProcRegistry::new();
        assert!(matches!(
            run_proc(&mut e, &reg, "nope", &[]),
            ProcOutcome::Failed(_)
        ));
    }

    #[test]
    fn proc_retries_when_interactive_tx_holds_lock() {
        let mut e = engine();
        e.load(&"k".to_owned(), Value::Int(1));
        // An interactive serializable transaction holds the X lock.
        let t = e.begin(IsolationLevel::Serializable);
        e.write(t, "k", Some(Value::Int(2)));
        let reg = ProcRegistry::new().with("bump", |tx, _| {
            let v = tx.get("k").map(|v| v.as_int()).unwrap_or(0);
            tx.put("k", Value::Int(v + 1));
            Ok(vec![])
        });
        assert_eq!(run_proc(&mut e, &reg, "bump", &[]), ProcOutcome::Retry);
        // After the interactive txn commits, the proc goes through.
        e.commit(t);
        assert_eq!(
            run_proc(&mut e, &reg, "bump", &[]),
            ProcOutcome::Done(vec![])
        );
        assert_eq!(e.peek("k"), Some(Value::Int(3)));
    }

    #[test]
    fn registry_names_sorted() {
        let reg = ProcRegistry::new()
            .with("b", |_, _| Ok(vec![]))
            .with("a", |_, _| Ok(vec![]));
        assert_eq!(reg.names(), vec!["a", "b"]);
    }
}
