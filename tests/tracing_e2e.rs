//! End-to-end causal tracing: one marketplace checkout produces a span
//! tree that crosses nodes with correct parent links, the Chrome-trace
//! export is valid JSON, and tracing never perturbs the deterministic
//! schedule.

use std::rc::Rc;

use tca::sim::{Payload, Sim, SimDuration, SpanKind};
use tca::storage::{DbMsg, DbServer, DbServerConfig, Value};
use tca::txn::saga::{SagaDef, SagaOrchestrator, SagaStep, StartSaga};
use tca::workloads::loadgen::{saga_classifier, ClosedLoopConfig, ClosedLoopGen};
use tca::workloads::marketplace::{
    next_checkout, payment_registry, payment_seed, stock_registry, stock_seed, MarketScale,
};

/// Marketplace checkout world: stock DB, payment DB, saga orchestrator,
/// and load generator each on their own node.
fn build(seed: u64, checkouts: u64, trace: bool) -> Sim {
    let scale = MarketScale {
        products: 5,
        customers: 10,
        initial_stock: 100,
        initial_balance: 100_000,
    };
    let mut sim = Sim::with_seed(seed);
    sim.set_tracing(trace);
    let n1 = sim.add_node();
    let n2 = sim.add_node();
    let n3 = sim.add_node();
    let n4 = sim.add_node();
    let stock_db = sim.spawn(
        n1,
        "stock-db",
        DbServer::factory("stock", DbServerConfig::default(), stock_registry()),
    );
    let pay_db = sim.spawn(
        n2,
        "pay-db",
        DbServer::factory("pay", DbServerConfig::default(), payment_registry()),
    );
    sim.inject(stock_db, Payload::new(DbMsg::load(stock_seed(&scale))));
    sim.inject(pay_db, Payload::new(DbMsg::load(payment_seed(&scale))));
    let saga = SagaDef {
        name: "checkout".into(),
        steps: vec![
            SagaStep::new("reserve", stock_db, "stock_reserve", |v| {
                vec![v.get("$1").clone(), v.get("$2").clone()]
            })
            .compensate("stock_unreserve", |v| {
                vec![v.get("$1").clone(), v.get("$2").clone()]
            }),
            SagaStep::new("charge", pay_db, "payment_charge", |v| {
                let qty = v.get("$2").as_int();
                let price = v.get("$3").as_int();
                vec![v.get("$0").clone(), Value::Int(qty * price)]
            }),
        ],
    };
    let orchestrator = sim.spawn(n3, "saga", SagaOrchestrator::factory(vec![saga]));
    let gen_scale = scale.clone();
    sim.spawn(
        n4,
        "load",
        ClosedLoopGen::factory(
            orchestrator,
            Rc::new(move |rng| {
                Payload::new(StartSaga {
                    saga: "checkout".into(),
                    args: next_checkout(rng, &gen_scale, 0.3),
                })
            }),
            saga_classifier(),
            ClosedLoopConfig {
                clients: 1,
                limit: Some(checkouts),
                metric: "checkout".into(),
                ..ClosedLoopConfig::default()
            },
        ),
    );
    sim
}

#[test]
fn single_checkout_span_tree_crosses_nodes() {
    let mut sim = build(42, 1, true);
    sim.run_for(SimDuration::from_secs(5));
    assert_eq!(sim.metrics().counter("checkout.ok"), 1, "checkout commits");
    let tracer = sim.tracer();
    assert_eq!(tracer.dropped(), 0);

    // Every parent link resolves, and no child starts before its parent.
    for span in tracer.spans() {
        if let Some(parent) = span.parent {
            let parent = tracer
                .span(parent)
                .unwrap_or_else(|| panic!("span {:?} has dangling parent", span.id));
            assert!(
                parent.start <= span.start,
                "parent `{}` starts after child `{}`",
                parent.label,
                span.label
            );
        }
    }

    // The one saga span: walk up to its root, then collect the whole
    // request tree.
    let saga_spans: Vec<_> = tracer.spans_of_kind(SpanKind::Saga).collect();
    assert_eq!(saga_spans.len(), 1, "exactly one saga instance");
    let mut root = saga_spans[0];
    while let Some(parent) = root.parent {
        root = tracer.span(parent).expect("parent resolves");
    }
    let tree = tracer.subtree(root.id);

    // The request tree covers the client RPC, the network, the
    // orchestrator's saga with both steps, and the DB-side handlers.
    for kind in [
        SpanKind::RpcCall,
        SpanKind::NetHop,
        SpanKind::Handler,
        SpanKind::Saga,
        SpanKind::SagaStep,
    ] {
        assert!(
            tree.iter().any(|s| s.kind == kind),
            "request tree is missing a {} span",
            kind.name()
        );
    }
    assert_eq!(
        tree.iter().filter(|s| s.kind == SpanKind::SagaStep).count(),
        2,
        "checkout runs reserve + charge"
    );

    // ...and crosses at least two simulated nodes.
    let mut nodes: Vec<_> = tree.iter().map(|s| sim.node_of(s.pid)).collect();
    nodes.sort();
    nodes.dedup();
    assert!(
        nodes.len() >= 2,
        "span tree should cross ≥ 2 nodes, saw {nodes:?}"
    );

    // Completed protocol spans carry non-trivial virtual time.
    let saga = saga_spans[0];
    assert!(saga.end.is_some(), "saga span closed");
    assert!(saga.duration().as_nanos() > 0, "saga took virtual time");
}

/// Everything observable about a run: events processed, final virtual
/// time, all counters, and all histogram (count, mean) pairs.
type RunFingerprint = (u64, u64, Vec<(String, u64)>, Vec<(String, u64, u64)>);

#[test]
fn tracing_does_not_perturb_the_schedule() {
    let run = |trace: bool| -> RunFingerprint {
        let mut sim = build(7, 25, trace);
        sim.run_for(SimDuration::from_secs(10));
        let counters = sim
            .metrics()
            .counters()
            .map(|(name, v)| (name.to_owned(), v))
            .collect();
        let histograms = sim
            .metrics()
            .histograms()
            .map(|(name, h)| (name.to_owned(), h.count(), h.mean().as_nanos()))
            .collect();
        (
            sim.events_processed(),
            sim.now().as_nanos(),
            counters,
            histograms,
        )
    };
    let off = run(false);
    let on = run(true);
    assert_eq!(off, on, "tracing changed the metric stream");
}

// --- minimal JSON validator (no external deps) ------------------------------

/// Parse one JSON value starting at `i`; returns the index after it.
/// Panics on malformed input — that's the test failing.
fn parse_value(bytes: &[u8], mut i: usize) -> usize {
    i = skip_ws(bytes, i);
    match bytes[i] {
        b'{' => {
            i = skip_ws(bytes, i + 1);
            if bytes[i] == b'}' {
                return i + 1;
            }
            loop {
                i = parse_string(bytes, skip_ws(bytes, i));
                i = skip_ws(bytes, i);
                assert_eq!(bytes[i], b':', "expected `:` at {i}");
                i = parse_value(bytes, i + 1);
                i = skip_ws(bytes, i);
                match bytes[i] {
                    b',' => i += 1,
                    b'}' => return i + 1,
                    c => panic!("unexpected `{}` in object at {i}", c as char),
                }
            }
        }
        b'[' => {
            i = skip_ws(bytes, i + 1);
            if bytes[i] == b']' {
                return i + 1;
            }
            loop {
                i = parse_value(bytes, i);
                i = skip_ws(bytes, i);
                match bytes[i] {
                    b',' => i += 1,
                    b']' => return i + 1,
                    c => panic!("unexpected `{}` in array at {i}", c as char),
                }
            }
        }
        b'"' => parse_string(bytes, i),
        b't' => i + 4,
        b'f' => i + 5,
        b'n' => i + 4,
        b'-' | b'0'..=b'9' => {
            while i < bytes.len()
                && matches!(bytes[i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            {
                i += 1;
            }
            i
        }
        c => panic!("unexpected `{}` at {i}", c as char),
    }
}

fn parse_string(bytes: &[u8], i: usize) -> usize {
    assert_eq!(bytes[i], b'"', "expected string at {i}");
    let mut j = i + 1;
    loop {
        match bytes[j] {
            b'\\' => j += 2,
            b'"' => return j + 1,
            c => {
                assert!(c >= 0x20, "unescaped control char at {j}");
                j += 1;
            }
        }
    }
}

fn skip_ws(bytes: &[u8], mut i: usize) -> usize {
    while i < bytes.len() && matches!(bytes[i], b' ' | b'\t' | b'\n' | b'\r') {
        i += 1;
    }
    i
}

#[test]
fn chrome_trace_export_round_trips_as_json() {
    let mut sim = build(42, 5, true);
    sim.run_for(SimDuration::from_secs(5));
    let json = sim.chrome_trace();
    let bytes = json.as_bytes();
    let end = parse_value(bytes, 0);
    assert_eq!(skip_ws(bytes, end), bytes.len(), "trailing garbage");
    assert!(json.starts_with("{\"displayTimeUnit\":\"ms\""));
    assert!(json.contains("\"traceEvents\":["));
    // Complete spans, instant events, and process metadata all present.
    assert!(json.contains("\"ph\":\"X\""), "no complete events");
    assert!(json.contains("\"ph\":\"M\""), "no metadata events");
    assert!(json.contains("\"cat\":\"saga\""), "saga span exported");
}
