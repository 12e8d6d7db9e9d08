//! 2PC under the deterministic fault-plan torture harness, plus pinned
//! regressions for the protocol bugs the sweep flushed out.
//!
//! The sweep drives `tca::txn::twopc_torture_scenario` (two bank
//! participants, a crashable coordinator) through seed × fault-plan
//! combinations and audits atomicity, conservation, exactly-once effects,
//! and no-stuck-locks after every fault heals. Run a wider sweep with
//! `TCA_TORTURE_SEEDS=100` (or reproduce one failure with
//! `TCA_TORTURE_SEEDS=41..42`).
//!
//! Each regression below pins one bug deterministically with scripted
//! per-message fates (`Network::script_fate`) instead of re-rolling the
//! fault lottery. Link ordinals on a clean network are protocol order:
//! coordinator→participant carries ExecuteReq (0th), PrepareReq (1st),
//! DecisionReq (2nd); participant→coordinator carries ExecuteResp (0th),
//! Vote (1st), DecisionAck (2nd).

use tca::messaging::{RetryPolicy, RpcClient, RpcEvent};
use tca::sim::{
    torture, Ctx, FaultProfile, NodeId, Payload, Process, ProcessId, ScriptedFate, Sim,
    SimDuration, SimTime, TortureConfig,
};
use tca::txn::worlds::{peek, twopc_quiescent, TwoPcHandles, TwoPcWorld};
use tca::txn::{
    twopc_torture_scenario, CoordinatorConfig, DtxOutcome, ParticipantConfig, StartDtx,
    TwoPcCoordinator, TwoPcParticipant, World,
};

// ---------------------------------------------------------------------------
// The sweep
// ---------------------------------------------------------------------------

#[test]
fn twopc_torture_sweep() {
    // 8 seeds × (benign + 3 generated plans) = 32 combinations by
    // default; TCA_TORTURE_SEEDS widens or narrows the seed range.
    let config = TortureConfig::from_env(8, 3, FaultProfile::default());
    assert!(config.combinations() >= 4);
    torture("twopc", &config, twopc_torture_scenario);
}

#[test]
fn torture_failures_report_the_reproducing_seed() {
    let config = TortureConfig {
        seeds: 7..8,
        plans_per_seed: 0,
        profile: FaultProfile::default(),
    };
    let panic = std::panic::catch_unwind(|| {
        torture("doomed", &config, |_, _| Err("boom".into()));
    })
    .expect_err("failing scenario must panic");
    let message = panic
        .downcast_ref::<String>()
        .cloned()
        .expect("panic payload is a String");
    assert!(message.contains("TCA_TORTURE_SEEDS=7..8"), "{message}");
    assert!(message.contains("boom"), "{message}");
    assert!(message.contains("plan:   #0"), "{message}");
}

// ---------------------------------------------------------------------------
// Pinned regressions
// ---------------------------------------------------------------------------

struct Client {
    coordinator: ProcessId,
    start: StartDtx,
    rpc: RpcClient,
}
impl Process for Client {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.rpc.call(
            ctx,
            self.coordinator,
            Payload::new(self.start.clone()),
            RetryPolicy::at_most_once(SimDuration::from_secs(10)),
            0,
        );
    }
    fn on_message(&mut self, ctx: &mut Ctx, _from: ProcessId, payload: Payload) {
        if let Some(RpcEvent::Reply { body, .. }) = self.rpc.on_message(ctx, &payload) {
            let outcome = body.expect::<DtxOutcome>();
            let metric = if outcome.committed {
                "client.committed"
            } else {
                "client.aborted"
            };
            ctx.metrics().incr(metric, 1);
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx, tag: u64) {
        let _ = self.rpc.on_timer(ctx, tag);
    }
}

/// The 2PC world of `tca::txn::worlds` — alice and bob hold 100 each —
/// deployed on a clean default network, plus a client that submits the
/// world's one transfer of `amount` through the RPC layer and counts the
/// outcome.
struct Deployed {
    sim: Sim,
    pa: ProcessId,
    pb: ProcessId,
    coordinator: ProcessId,
    n_a: NodeId,
    n_b: NodeId,
    n_coord: NodeId,
}

fn world(
    seed: u64,
    amount: i64,
    participant: ParticipantConfig,
    coordinator_config: CoordinatorConfig,
) -> Deployed {
    let world = TwoPcWorld {
        transfers: 1,
        amount,
        alice_start: 100,
        bob_start: 100,
        shared_keys: true,
        participant,
        coordinator: coordinator_config,
    };
    let mut sim = Sim::with_seed(seed);
    let handles = world.deploy(&mut sim);
    let TwoPcHandles {
        pa,
        pb,
        coordinator,
    } = handles;
    let start = world.start_dtx(&handles, 0);
    let (n_a, n_b, n_coord) = (sim.node_of(pa), sim.node_of(pb), sim.node_of(coordinator));
    let nc = sim.add_node();
    sim.spawn(nc, "client", move |_| {
        Box::new(Client {
            coordinator,
            start: start.clone(),
            rpc: RpcClient::new(),
        })
    });
    Deployed {
        sim,
        pa,
        pb,
        coordinator,
        n_a,
        n_b,
        n_coord,
    }
}

/// A coordinator config that never retries and never gives up — the
/// pre-fix behaviour, for showing what each bug did before the fix.
fn fire_and_forget() -> CoordinatorConfig {
    CoordinatorConfig {
        retry_interval: SimDuration::from_secs(100),
        execute_deadline: SimDuration::from_secs(100),
        prepare_deadline: SimDuration::from_secs(100),
    }
}

/// Bug 1 (flushed out by the torture sweep at seed 3, plan #2 —
/// `TCA_TORTURE_SEEDS=3..4`): a lost PrepareReq permanently wedged the
/// transaction. The coordinator sent prepare exactly once; with the
/// message gone, the other participant had already voted YES and sat
/// in-doubt holding its locks forever.
#[test]
fn regression_lost_prepare_req_is_retried() {
    // Pre-fix behaviour: drop the one PrepareReq to bank-a; without
    // retries the prepared branch on bank-b blocks forever.
    let mut w = world(3, 30, ParticipantConfig::default(), fire_and_forget());
    w.sim
        .network_mut()
        .script_fate(w.n_coord, w.n_a, 1, ScriptedFate::Drop);
    w.sim.run_for(SimDuration::from_secs(1));
    assert_eq!(w.sim.metrics().counter("pb.commits"), 0);
    let stuck = w
        .sim
        .inspect::<TwoPcParticipant>(w.pb)
        .map(|p| p.in_doubt())
        .unwrap();
    assert_eq!(stuck, 1, "without retries the prepared branch is wedged");

    // Fixed behaviour: the sweep timer resends the unacked PrepareReq and
    // the transfer commits.
    let mut w = world(
        3,
        30,
        ParticipantConfig::default(),
        CoordinatorConfig::default(),
    );
    w.sim
        .network_mut()
        .script_fate(w.n_coord, w.n_a, 1, ScriptedFate::Drop);
    w.sim.run_for(SimDuration::from_secs(1));
    assert_eq!(w.sim.metrics().counter("client.committed"), 1);
    assert_eq!(w.sim.metrics().counter("pa.commits"), 1);
    assert_eq!(w.sim.metrics().counter("pb.commits"), 1);
    assert!(w.sim.metrics().counter("dtx.prepare_resends") >= 1);
    assert_eq!(peek(&w.sim, w.pa, "alice"), Some(70));
    assert_eq!(peek(&w.sim, w.pb, "bob"), Some(130));
}

/// Bug 1, decision flavour (same sweep failure class): a lost DecisionReq
/// left one participant committed and the other in-doubt. Decisions must
/// be retried until acked.
#[test]
fn regression_lost_decision_req_is_retried() {
    // Isolate the coordinator retry path from the participant inquiry
    // path with an effectively infinite inquiry threshold.
    let participant = ParticipantConfig {
        decision_inquiry_after: SimDuration::from_secs(100),
        ..ParticipantConfig::default()
    };
    let mut w = world(3, 30, participant, CoordinatorConfig::default());
    w.sim
        .network_mut()
        .script_fate(w.n_coord, w.n_a, 2, ScriptedFate::Drop);
    w.sim.run_for(SimDuration::from_secs(1));
    assert_eq!(w.sim.metrics().counter("pa.commits"), 1);
    assert_eq!(w.sim.metrics().counter("pb.commits"), 1);
    assert!(w.sim.metrics().counter("dtx.decision_resends") >= 1);
    let open = w
        .sim
        .inspect::<TwoPcCoordinator>(w.coordinator)
        .map(|c| c.open_dtxs())
        .unwrap();
    assert_eq!(open, 0, "acked decisions retire the transaction");
}

/// Bug 2 (flushed out by the torture sweep at seed 6, plan #1 —
/// `TCA_TORTURE_SEEDS=6..7`): an abort decision racing ahead of a slow
/// ExecuteReq. The participant executed the branch of an
/// already-decided transaction and acquired locks that no decision would
/// ever release (only the execute-timeout eventually mopped them up).
/// Participants must remember recently decided txids and refuse the late
/// execute.
#[test]
fn regression_late_execute_req_after_decision_is_rejected() {
    let mut w = world(
        6,
        1000,
        ParticipantConfig::default(),
        CoordinatorConfig::default(),
    );
    // Make the race deterministic: hold bank-b's ExecuteReq (message 0 on
    // coordinator→bank-b) in flight for an extra 50ms. Debit 1000 >
    // alice's 100, so bank-a's branch fails instantly, the coordinator
    // aborts, and its abort DecisionReq reaches bank-b long before the
    // delayed ExecuteReq does.
    w.sim.network_mut().script_fate(
        w.n_coord,
        w.n_b,
        0,
        ScriptedFate::Delay(SimDuration::from_millis(50)),
    );
    w.sim.run_for(SimDuration::from_secs(1));
    assert_eq!(w.sim.metrics().counter("client.aborted"), 1);
    assert!(
        w.sim.metrics().counter("pb.late_execute_aborts") >= 1,
        "the late ExecuteReq must be rejected, not executed \
         (late_execute_aborts = {})",
        w.sim.metrics().counter("pb.late_execute_aborts")
    );
    // The rejected execute never acquired locks or changed state.
    assert_eq!(w.sim.metrics().counter("pb.commits"), 0);
    assert_eq!(peek(&w.sim, w.pb, "bob"), Some(100));
    let active = w
        .sim
        .inspect::<TwoPcParticipant>(w.pb)
        .map(|p| p.engine().active_count())
        .unwrap();
    assert_eq!(active, 0, "no orphaned engine transaction");
}

/// Bug 3 (flushed out by the torture sweep at seed 5, plan #3 —
/// `TCA_TORTURE_SEEDS=5..6`): the coordinator journaled COMMIT without
/// the participant list, so after a crash-restart it knew *that* it had
/// committed but not *whom* to tell. Both decision messages lost + crash
/// = participants in-doubt forever. The journal now carries the
/// participant list and restart resends the decision.
#[test]
fn regression_journaled_commit_is_resent_after_coordinator_restart() {
    let participant = ParticipantConfig {
        decision_inquiry_after: SimDuration::from_secs(100),
        ..ParticipantConfig::default()
    };
    let mut w = world(5, 30, participant, CoordinatorConfig::default());
    // Lose both original DecisionReqs, then crash the coordinator before
    // its first retry sweep (20 ms): only the journal can finish this.
    w.sim
        .network_mut()
        .script_fate(w.n_coord, w.n_a, 2, ScriptedFate::Drop);
    w.sim
        .network_mut()
        .script_fate(w.n_coord, w.n_b, 2, ScriptedFate::Drop);
    w.sim
        .schedule_crash(SimTime::from_nanos(4_000_000), w.n_coord);
    w.sim
        .schedule_restart(SimTime::from_nanos(10_000_000), w.n_coord);
    w.sim.run_for(SimDuration::from_secs(1));
    assert!(
        w.sim.metrics().counter("dtx.decision_resends") >= 2,
        "restart resends the journaled decision"
    );
    assert_eq!(w.sim.metrics().counter("pa.commits"), 1);
    assert_eq!(w.sim.metrics().counter("pb.commits"), 1);
    assert_eq!(peek(&w.sim, w.pa, "alice"), Some(70));
    assert_eq!(peek(&w.sim, w.pb, "bob"), Some(130));
    twopc_quiescent(&w.sim, &[w.pa, w.pb], w.coordinator).expect("nothing left in doubt");
}

/// Termination-protocol regression: a coordinator that crashes *before*
/// deciding loses the transaction entirely (presumed abort journals
/// nothing). Prepared participants stay blocked until their decision
/// inquiry, which the restarted coordinator must answer "abort" for the
/// unknown txid — releasing the locks without risking atomicity.
#[test]
fn regression_inquiry_gets_presumed_abort_for_unknown_txid() {
    let mut w = world(
        9,
        30,
        ParticipantConfig::default(),
        CoordinatorConfig::default(),
    );
    // Drop both votes so the coordinator never reaches a decision, then
    // crash it mid-prepare; its volatile state (and the transaction) die.
    w.sim
        .network_mut()
        .script_fate(w.n_a, w.n_coord, 1, ScriptedFate::Drop);
    w.sim
        .network_mut()
        .script_fate(w.n_b, w.n_coord, 1, ScriptedFate::Drop);
    w.sim
        .schedule_crash(SimTime::from_nanos(5_000_000), w.n_coord);
    w.sim
        .schedule_restart(SimTime::from_nanos(15_000_000), w.n_coord);
    w.sim.run_for(SimDuration::from_secs(1));
    assert!(
        w.sim.metrics().counter("dtx.presumed_aborts") >= 1,
        "unknown txid answered with presumed abort"
    );
    assert_eq!(w.sim.metrics().counter("pa.commits"), 0);
    assert_eq!(w.sim.metrics().counter("pb.commits"), 0);
    // Both prepared branches were released by the abort answer.
    for (pid, key) in [(w.pa, "alice"), (w.pb, "bob")] {
        let p = w.sim.inspect::<TwoPcParticipant>(pid).unwrap();
        assert_eq!(p.in_doubt(), 0, "inquiry released the in-doubt branch");
        assert_eq!(p.engine().active_count(), 0);
        assert_eq!(
            peek(&w.sim, pid, key),
            Some(100),
            "state untouched by the abort"
        );
    }
}
