//! The microservice framework (§3.1 "Microservice Frameworks").
//!
//! A [`Microservice`] is a *stateless* process exposing named endpoints;
//! all state lives in an external database (§3.3, §4.1: "fault tolerance
//! in microservices is achieved by making the application logic stateless
//! and leaving state handling to an external database"). An endpoint is a
//! list of [`Step`]s — database stored-procedure calls, calls to other
//! services, or local computation over a variable context — executed as an
//! interruption-free state machine per request. The service charges no
//! compute time of its own: a request's latency is that of its downstream
//! calls, each retried under one fixed policy. Crash a service node and
//! restart it: in-flight requests die (clients retry), but no state is
//! lost because the service had none.
//!
//! There is **no transactional guarantee across steps**: a request that
//! fails at step 3 leaves steps 1–2 committed. That gap is precisely what
//! the saga/2PC machinery in `tca-txn` exists to close, and what
//! experiment E8 measures.

use std::rc::Rc;
use tca_sim::DetHashMap as HashMap;

use tca_sim::{Boot, Ctx, Payload, Process, ProcessId, SimDuration};
use tca_storage::{DbMsg, DbReply, DbResponse, Value};

use tca_messaging::rpc::{reply_to, RetryPolicy, RpcClient, RpcEvent, RpcRequest};

/// A call to a service endpoint (the body of an [`RpcRequest`]).
#[derive(Debug, Clone)]
pub struct ServiceCall {
    /// Endpoint name.
    pub endpoint: String,
    /// Arguments.
    pub args: Vec<Value>,
}

/// A service's answer (the body of an `RpcReply`).
#[derive(Debug, Clone)]
pub struct ServiceReply {
    /// Endpoint results, or the error that stopped the workflow.
    pub result: Result<Vec<Value>, String>,
}

/// Variable context threaded through a request's steps.
#[derive(Debug, Default, Clone)]
pub struct Vars {
    map: HashMap<String, Value>,
}

impl Vars {
    /// Create a context binding `args` to `$0`, `$1`, ….
    pub fn from_args(args: &[Value]) -> Self {
        let mut vars = Vars::default();
        for (i, arg) in args.iter().enumerate() {
            vars.map.insert(format!("${i}"), arg.clone());
        }
        vars
    }

    /// Bind a variable.
    pub fn set(&mut self, name: &str, value: Value) {
        self.map.insert(name.to_owned(), value);
    }

    /// Read a variable; panics if unbound (a workflow authoring error).
    pub fn get(&self, name: &str) -> &Value {
        self.map
            .get(name)
            .unwrap_or_else(|| panic!("unbound workflow variable `{name}`"))
    }

    /// Read a variable if bound.
    pub fn try_get(&self, name: &str) -> Option<&Value> {
        self.map.get(name)
    }
}

/// Argument builder: computes a step's arguments from the context.
pub type ArgsFn = Rc<dyn Fn(&Vars) -> Vec<Value>>;

/// Local computation over the context; `Err` fails the request.
pub type ComputeFn = Rc<dyn Fn(&mut Vars) -> Result<(), String>>;

/// One step of an endpoint workflow.
#[derive(Clone)]
pub enum Step {
    /// Invoke a stored procedure on a database server.
    Db {
        /// The database process.
        db: ProcessId,
        /// Stored procedure name.
        proc: String,
        /// Argument builder.
        args: ArgsFn,
        /// Bind `result\[0\]` to this variable on success.
        bind: Option<&'static str>,
    },
    /// Call another service's endpoint.
    Invoke {
        /// The downstream service.
        service: ProcessId,
        /// Its endpoint.
        endpoint: String,
        /// Argument builder.
        args: ArgsFn,
        /// Bind `result\[0\]` to this variable on success.
        bind: Option<&'static str>,
    },
    /// Pure local computation.
    Compute(ComputeFn),
}

impl Step {
    /// Convenience constructor for a [`Step::Db`] step.
    pub fn db(
        db: ProcessId,
        proc: &str,
        args: impl Fn(&Vars) -> Vec<Value> + 'static,
        bind: Option<&'static str>,
    ) -> Self {
        Step::Db {
            db,
            proc: proc.to_owned(),
            args: Rc::new(args),
            bind,
        }
    }

    /// Convenience constructor for a [`Step::Invoke`] step.
    pub fn invoke(
        service: ProcessId,
        endpoint: &str,
        args: impl Fn(&Vars) -> Vec<Value> + 'static,
        bind: Option<&'static str>,
    ) -> Self {
        Step::Invoke {
            service,
            endpoint: endpoint.to_owned(),
            args: Rc::new(args),
            bind,
        }
    }

    /// Convenience constructor for a [`Step::Compute`] step.
    pub fn compute(f: impl Fn(&mut Vars) -> Result<(), String> + 'static) -> Self {
        Step::Compute(Rc::new(f))
    }
}

/// An endpoint: an ordered list of steps plus the result expression.
#[derive(Clone)]
pub struct Endpoint {
    steps: Vec<Step>,
    /// Variables whose values form the reply (missing ⇒ empty reply).
    result_vars: Vec<&'static str>,
}

impl Endpoint {
    /// An endpoint running `steps` and replying with the listed variables.
    pub fn new(steps: Vec<Step>, result_vars: Vec<&'static str>) -> Self {
        Endpoint { steps, result_vars }
    }
}

/// Retry policy for downstream calls (DB and service-to-service).
const DOWNSTREAM_RETRY: RetryPolicy = RetryPolicy::retrying(5, SimDuration::from_millis(10));

struct Invocation {
    vars: Vars,
    endpoint: String,
    step: usize,
    requester: ProcessId,
    request: RpcRequest,
}

/// The microservice process.
pub struct Microservice {
    name: String,
    endpoints: Rc<HashMap<String, Endpoint>>,
    rpc: RpcClient,
    /// In-flight requests keyed by a local invocation id (= rpc user_tag).
    active: HashMap<u64, Invocation>,
    next_invocation: u64,
}

impl Microservice {
    /// Build a process factory for this service.
    pub fn factory(
        name: impl Into<String>,
        endpoints: HashMap<String, Endpoint>,
    ) -> impl FnMut(&mut Boot) -> Box<dyn Process> {
        let name = name.into();
        let endpoints = Rc::new(endpoints);
        move |_| {
            Box::new(Microservice {
                name: name.clone(),
                endpoints: Rc::clone(&endpoints),
                rpc: RpcClient::new(),
                active: HashMap::default(),
                next_invocation: 0,
            })
        }
    }

    fn finish(&mut self, ctx: &mut Ctx, inv_id: u64, result: Result<Vec<Value>, String>) {
        let Some(inv) = self.active.remove(&inv_id) else {
            return;
        };
        let ok = result.is_ok();
        let reply = Payload::new(ServiceReply { result });
        reply_to(ctx, inv.requester, &inv.request, reply);
        let metric = if ok { "ok" } else { "err" };
        ctx.metrics()
            .incr(&format!("svc.{}.{}.{metric}", self.name, inv.endpoint), 1);
    }

    /// Run steps from the invocation's cursor until parking on a
    /// downstream call or finishing.
    fn advance(&mut self, ctx: &mut Ctx, inv_id: u64) {
        loop {
            let Some(inv) = self.active.get_mut(&inv_id) else {
                return;
            };
            // An invocation can outlive its endpoint table entry only
            // through a harness bug, but a data-tier process must degrade,
            // not die: answer the caller with an error and count it.
            let Some(endpoint) = self.endpoints.get(&inv.endpoint).cloned() else {
                let name = inv.endpoint.clone();
                ctx.metrics()
                    .incr(&format!("svc.{}.endpoint_missing", self.name), 1);
                self.finish(ctx, inv_id, Err(format!("unknown endpoint `{name}`")));
                return;
            };
            if inv.step >= endpoint.steps.len() {
                let inv = self.active.get(&inv_id).expect("present");
                let results = endpoint
                    .result_vars
                    .iter()
                    .filter_map(|v| inv.vars.try_get(v).cloned())
                    .collect();
                self.finish(ctx, inv_id, Ok(results));
                return;
            }
            let step = endpoint.steps[inv.step].clone();
            inv.step += 1;
            match step {
                Step::Compute(f) => {
                    if let Err(e) = f(&mut inv.vars) {
                        self.finish(ctx, inv_id, Err(e));
                        return;
                    }
                    // fall through: loop to next step
                }
                Step::Db { db, proc, args, .. } => {
                    let body = Payload::new(DbMsg::call(proc, args(&inv.vars)));
                    self.rpc.call(ctx, db, body, DOWNSTREAM_RETRY, inv_id);
                    return; // parked until the reply
                }
                Step::Invoke {
                    service,
                    endpoint,
                    args,
                    ..
                } => {
                    let args = args(&inv.vars);
                    let body = Payload::new(ServiceCall { endpoint, args });
                    self.rpc.call(ctx, service, body, DOWNSTREAM_RETRY, inv_id);
                    return;
                }
            }
        }
    }

    fn handle_completion(&mut self, ctx: &mut Ctx, inv_id: u64, body: Option<Payload>) {
        let Some(inv) = self.active.get_mut(&inv_id) else {
            return;
        };
        let Some(body) = body else {
            self.finish(ctx, inv_id, Err("downstream call failed".into()));
            return;
        };
        // A DB reply or a nested service reply.
        let outcome = if let Some(db_reply) = body.downcast_ref::<DbReply>() {
            match &db_reply.resp {
                DbResponse::CallOk { results } => Ok(results),
                DbResponse::CallFailed { error } => Err(error.clone()),
                DbResponse::Aborted { reason } => Err(format!("db abort: {reason}")),
                other => Err(format!("unexpected db response {other:?}")),
            }
        } else if let Some(svc_reply) = body.downcast_ref::<ServiceReply>() {
            svc_reply.result.as_ref().map_err(String::clone)
        } else {
            Err("unexpected downstream payload".into())
        };
        match outcome {
            Ok(values) => {
                // One call is in flight per invocation, issued by the step
                // before the cursor: that step names the bind target.
                let issued = self
                    .endpoints
                    .get(&inv.endpoint)
                    .and_then(|endpoint| endpoint.steps.get(inv.step - 1));
                if let Some(
                    Step::Db {
                        bind: Some(bind), ..
                    }
                    | Step::Invoke {
                        bind: Some(bind), ..
                    },
                ) = issued
                {
                    let value = values.first().cloned().unwrap_or(Value::Null);
                    inv.vars.set(bind, value);
                }
                self.advance(ctx, inv_id);
            }
            Err(e) => self.finish(ctx, inv_id, Err(e)),
        }
    }
}

impl Process for Microservice {
    fn on_message(&mut self, ctx: &mut Ctx, from: ProcessId, payload: Payload) {
        // Downstream completions first.
        if let Some(event) = self.rpc.on_message(ctx, &payload) {
            match event {
                RpcEvent::Reply { user_tag, body, .. } => {
                    self.handle_completion(ctx, user_tag, Some(body));
                }
                RpcEvent::Failed { user_tag, .. } => {
                    self.handle_completion(ctx, user_tag, None);
                }
            }
            return;
        }
        // New incoming request.
        let Some(request) = payload.downcast_ref::<RpcRequest>() else {
            return;
        };
        let Some(call) = request.body.downcast_ref::<ServiceCall>() else {
            return;
        };
        if !self.endpoints.contains_key(&call.endpoint) {
            reply_to(
                ctx,
                from,
                request,
                Payload::new(ServiceReply {
                    result: Err(format!("unknown endpoint `{}`", call.endpoint)),
                }),
            );
            return;
        }
        self.next_invocation += 1;
        let inv_id = self.next_invocation;
        self.active.insert(
            inv_id,
            Invocation {
                vars: Vars::from_args(&call.args),
                endpoint: call.endpoint.clone(),
                step: 0,
                requester: from,
                request: request.clone(),
            },
        );
        self.advance(ctx, inv_id);
    }

    fn on_timer(&mut self, ctx: &mut Ctx, tag: u64) {
        if let Some(Some(event)) = self.rpc.on_timer(ctx, tag) {
            match event {
                RpcEvent::Reply { user_tag, body, .. } => {
                    self.handle_completion(ctx, user_tag, Some(body));
                }
                RpcEvent::Failed { user_tag, .. } => {
                    self.handle_completion(ctx, user_tag, None);
                }
            }
        }
    }
}

/// Client helper: a process that issues service calls and collects
/// latencies — the "edge" of the system. Used by tests and workloads.
pub struct ServiceClient {
    target: ProcessId,
    rpc: RpcClient,
    policy: RetryPolicy,
    plan: Vec<ServiceCall>,
    issued: usize,
    metric: String,
    started: HashMap<u64, tca_sim::SimTime>,
}

impl ServiceClient {
    /// A client that fires the calls in `plan` sequentially (next call
    /// issued when the previous completes), recording latencies under
    /// `<metric>.latency` and outcomes under `<metric>.ok/err`.
    pub fn sequential(
        target: ProcessId,
        plan: Vec<ServiceCall>,
        metric: impl Into<String>,
    ) -> impl FnMut(&mut Boot) -> Box<dyn Process> {
        let metric = metric.into();
        move |_| {
            Box::new(ServiceClient {
                target,
                rpc: RpcClient::new(),
                policy: RetryPolicy::retrying(8, SimDuration::from_millis(20)),
                plan: plan.clone(),
                issued: 0,
                metric: metric.clone(),
                started: HashMap::default(),
            })
        }
    }

    fn fire_next(&mut self, ctx: &mut Ctx) {
        if self.issued >= self.plan.len() {
            return;
        }
        let call = self.plan[self.issued].clone();
        self.issued += 1;
        let tag = self.issued as u64;
        self.started.insert(tag, ctx.now());
        self.rpc
            .call(ctx, self.target, Payload::new(call), self.policy, tag);
    }

    fn complete(&mut self, ctx: &mut Ctx, tag: u64, ok: bool) {
        if let Some(start) = self.started.remove(&tag) {
            let elapsed = ctx.now().since(start);
            ctx.metrics()
                .record(&format!("{}.latency", self.metric), elapsed);
        }
        let suffix = if ok { "ok" } else { "err" };
        ctx.metrics().incr(&format!("{}.{suffix}", self.metric), 1);
        self.fire_next(ctx);
    }
}

impl Process for ServiceClient {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.fire_next(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx, _from: ProcessId, payload: Payload) {
        if let Some(event) = self.rpc.on_message(ctx, &payload) {
            match event {
                RpcEvent::Reply { user_tag, body, .. } => {
                    let ok = body
                        .downcast_ref::<ServiceReply>()
                        .is_some_and(|r| r.result.is_ok());
                    self.complete(ctx, user_tag, ok);
                }
                RpcEvent::Failed { user_tag, .. } => self.complete(ctx, user_tag, false),
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx, tag: u64) {
        if let Some(Some(event)) = self.rpc.on_timer(ctx, tag) {
            match event {
                RpcEvent::Reply { user_tag, body, .. } => {
                    let ok = body
                        .downcast_ref::<ServiceReply>()
                        .is_some_and(|r| r.result.is_ok());
                    self.complete(ctx, user_tag, ok);
                }
                RpcEvent::Failed { user_tag, .. } => self.complete(ctx, user_tag, false),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tca_sim::Sim;
    use tca_storage::{DbServer, DbServerConfig, ProcRegistry};

    fn inventory_registry() -> ProcRegistry {
        ProcRegistry::new()
            .with("reserve", |tx, args| {
                let item = args[0].as_int();
                let key = format!("stock/{item}");
                let qty = tx.get(&key).map(|v| v.as_int()).unwrap_or(0);
                if qty <= 0 {
                    return Err("out of stock".into());
                }
                tx.put(&key, Value::Int(qty - 1));
                Ok(vec![Value::Int(qty - 1)])
            })
            .with("seed", |tx, args| {
                let item = args[0].as_int();
                let qty = args[1].as_int();
                tx.put(&format!("stock/{item}"), Value::Int(qty));
                Ok(vec![])
            })
    }

    /// inventory-service(reserve) ← order-service(place) topology.
    fn world() -> (Sim, ProcessId) {
        let mut sim = Sim::with_seed(61);
        let n_db = sim.add_node();
        let n_inv = sim.add_node();
        let n_ord = sim.add_node();
        let db = sim.spawn(
            n_db,
            "inventory-db",
            DbServer::factory("invdb", DbServerConfig::default(), inventory_registry()),
        );
        // Seed stock for item 1.
        sim.inject(
            db,
            Payload::new(DbMsg::call("seed", vec![Value::Int(1), Value::Int(3)])),
        );
        let mut inv_endpoints = HashMap::default();
        inv_endpoints.insert(
            "reserve".to_owned(),
            Endpoint::new(
                vec![Step::db(
                    db,
                    "reserve",
                    |v| vec![v.get("$0").clone()],
                    Some("left"),
                )],
                vec!["left"],
            ),
        );
        let inventory = sim.spawn(
            n_inv,
            "inventory",
            Microservice::factory("inventory", inv_endpoints),
        );
        let mut ord_endpoints = HashMap::default();
        ord_endpoints.insert(
            "place".to_owned(),
            Endpoint::new(
                vec![
                    Step::invoke(
                        inventory,
                        "reserve",
                        |v| vec![v.get("$0").clone()],
                        Some("left"),
                    ),
                    Step::compute(|vars| {
                        let left = vars.get("left").as_int();
                        vars.set("status", Value::Str(format!("placed, {left} left")));
                        Ok(())
                    }),
                ],
                vec!["status"],
            ),
        );
        let orders = sim.spawn(
            n_ord,
            "orders",
            Microservice::factory("orders", ord_endpoints),
        );
        (sim, orders)
    }

    #[test]
    fn cross_service_workflow_completes() {
        let (mut sim, orders) = world();
        let n_client = sim.add_node();
        sim.spawn(
            n_client,
            "client",
            ServiceClient::sequential(
                orders,
                vec![ServiceCall {
                    endpoint: "place".into(),
                    args: vec![Value::Int(1)],
                }],
                "client",
            ),
        );
        sim.run_for(SimDuration::from_millis(100));
        assert_eq!(sim.metrics().counter("client.ok"), 1);
        assert_eq!(sim.metrics().counter("svc.orders.place.ok"), 1);
        assert_eq!(sim.metrics().counter("svc.inventory.reserve.ok"), 1);
    }

    #[test]
    fn stock_exhaustion_propagates_as_error() {
        let (mut sim, orders) = world();
        let n_client = sim.add_node();
        let calls: Vec<ServiceCall> = (0..5)
            .map(|_| ServiceCall {
                endpoint: "place".into(),
                args: vec![Value::Int(1)],
            })
            .collect();
        sim.spawn(
            n_client,
            "client",
            ServiceClient::sequential(orders, calls, "client"),
        );
        sim.run_for(SimDuration::from_millis(500));
        // Seeded 3 units: 3 succeed, 2 fail.
        assert_eq!(sim.metrics().counter("client.ok"), 3);
        assert_eq!(sim.metrics().counter("client.err"), 2);
    }

    #[test]
    fn unknown_endpoint_is_an_error_not_a_hang() {
        let (mut sim, orders) = world();
        let n_client = sim.add_node();
        sim.spawn(
            n_client,
            "client",
            ServiceClient::sequential(
                orders,
                vec![ServiceCall {
                    endpoint: "nope".into(),
                    args: vec![],
                }],
                "client",
            ),
        );
        sim.run_for(SimDuration::from_millis(100));
        assert_eq!(sim.metrics().counter("client.err"), 1);
    }

    #[test]
    fn service_restart_loses_no_state_because_it_has_none() {
        let (mut sim, orders) = world();
        let n_client = sim.add_node();
        let calls: Vec<ServiceCall> = (0..3)
            .map(|_| ServiceCall {
                endpoint: "place".into(),
                args: vec![Value::Int(1)],
            })
            .collect();
        sim.spawn(
            n_client,
            "client",
            ServiceClient::sequential(orders, calls, "client"),
        );
        // Crash the order service mid-run; its statelessness + client
        // retries mean all 3 orders still complete.
        let orders_node = sim.node_of(orders);
        sim.schedule_crash(tca_sim::SimTime::from_nanos(2_000_000), orders_node);
        sim.schedule_restart(tca_sim::SimTime::from_nanos(10_000_000), orders_node);
        sim.run_for(SimDuration::from_millis(500));
        assert_eq!(sim.metrics().counter("client.ok"), 3);
    }

    /// Calls `plan` one call after the other and keeps what each returned.
    struct Caller {
        target: ProcessId,
        rpc: RpcClient,
        plan: std::vec::IntoIter<ServiceCall>,
        replies: Vec<Result<Vec<Value>, String>>,
    }

    impl Caller {
        fn fire_next(&mut self, ctx: &mut Ctx) {
            if let Some(call) = self.plan.next() {
                let policy = RetryPolicy::at_most_once(SimDuration::from_millis(50));
                self.rpc
                    .call(ctx, self.target, Payload::new(call), policy, 0);
            }
        }
    }

    impl Process for Caller {
        fn on_start(&mut self, ctx: &mut Ctx) {
            self.fire_next(ctx);
        }
        fn on_message(&mut self, ctx: &mut Ctx, _from: ProcessId, payload: Payload) {
            if let Some(RpcEvent::Reply { body, .. }) = self.rpc.on_message(ctx, &payload) {
                self.replies
                    .push(body.expect::<ServiceReply>().result.clone());
                self.fire_next(ctx);
            }
        }
    }

    #[test]
    fn interleaved_requests_bind_by_their_own_step() {
        // Two endpoints bind the same variable from a DB step, at different
        // positions, around a step that binds nothing (and whose empty
        // result would bind `Null` if it were mistaken for a binding one).
        let mut sim = Sim::with_seed(62);
        let nodes = sim.add_nodes(4);
        let registry = ProcRegistry::new()
            .with("echo", |_, args| Ok(vec![args[0].clone()]))
            .with("touch", |_, _| Ok(vec![]));
        let db = sim.spawn(
            nodes[0],
            "db",
            DbServer::factory("db", DbServerConfig::default(), registry),
        );
        let echo = move || Step::db(db, "echo", |v| vec![v.get("$0").clone()], Some("v"));
        let touch = move || Step::db(db, "touch", |_| vec![], None);
        let mut endpoints = HashMap::default();
        endpoints.insert(
            "bind-first".to_owned(),
            Endpoint::new(vec![echo(), touch()], vec!["v"]),
        );
        endpoints.insert(
            "bind-last".to_owned(),
            Endpoint::new(vec![touch(), echo()], vec!["v"]),
        );
        let service = sim.spawn(nodes[1], "svc", Microservice::factory("svc", endpoints));
        let mut caller = |node, endpoint: &str, values: [i64; 3]| {
            let plan: Vec<ServiceCall> = values
                .iter()
                .map(|&v| ServiceCall {
                    endpoint: endpoint.into(),
                    args: vec![Value::Int(v)],
                })
                .collect();
            sim.spawn(node, endpoint.to_owned(), move |_: &mut Boot| {
                Box::new(Caller {
                    target: service,
                    rpc: RpcClient::new(),
                    plan: plan.clone().into_iter(),
                    replies: Vec::new(),
                }) as Box<dyn Process>
            })
        };
        let first = caller(nodes[2], "bind-first", [1, 2, 3]);
        let last = caller(nodes[3], "bind-last", [10, 20, 30]);
        sim.run_for(SimDuration::from_millis(100));
        // Both callers started at time zero: their requests were in flight
        // at the service together, each at its own step cursor.
        let replies = |pid| sim.inspect::<Caller>(pid).expect("alive").replies.clone();
        let ints = |values: [i64; 3]| values.map(|v| Ok(vec![Value::Int(v)])).to_vec();
        assert_eq!(replies(first), ints([1, 2, 3]));
        assert_eq!(replies(last), ints([10, 20, 30]));
    }

    #[test]
    fn vars_bind_and_panic_semantics() {
        let mut vars = Vars::from_args(&[Value::Int(5)]);
        assert_eq!(vars.get("$0").as_int(), 5);
        vars.set("x", Value::Bool(true));
        assert!(vars.get("x").as_bool());
        assert!(vars.try_get("missing").is_none());
    }
}
