//! Interactive read-modify-write clients for the isolation experiments.
//!
//! The over-selling scenario from the Online Marketplace benchmark \[38\]:
//! several clients concurrently run `read stock → check → decrement →
//! write order → commit` as *interactive* transactions at a chosen
//! isolation level. At read committed the read-check-write races lose
//! updates and the store over-sells; snapshot isolation's
//! first-committer-wins turns the races into aborts; serializable 2PL
//! serializes them. Experiment E11 counts all three.

use tca_sim::{Boot, Ctx, Payload, Process, ProcessId};
use tca_storage::{DbMsg, DbReply, DbRequest, DbResponse, IsolationLevel, TxId, Value};

/// Configuration for one RMW client.
#[derive(Clone)]
pub struct RmwConfig {
    /// The database server.
    pub db: ProcessId,
    /// Isolation level for every transaction.
    pub iso: IsolationLevel,
    /// The contended stock key.
    pub key: String,
    /// Metric prefix.
    pub metric: String,
}

/// A client stops after this many committed sales, or when stock reads 0;
/// it runs its transactions back to back.
const MAX_SALES: u64 = 1000;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    Idle,
    Beginning,
    Reading,
    WritingStock,
    WritingOrder,
    Committing,
    Done,
}

/// One interactive RMW client (sell one unit per transaction).
pub struct RmwClient {
    config: RmwConfig,
    phase: Phase,
    tx: Option<TxId>,
    sales: u64,
    attempts: u64,
    seq: u64,
}

impl RmwClient {
    /// Process factory.
    pub fn factory(config: RmwConfig) -> impl FnMut(&mut Boot) -> Box<dyn Process> {
        move |_| {
            Box::new(RmwClient {
                config: config.clone(),
                phase: Phase::Idle,
                tx: None,
                sales: 0,
                attempts: 0,
                seq: 0,
            })
        }
    }

    fn send(&mut self, ctx: &mut Ctx, req: DbRequest) {
        ctx.send(self.config.db, Payload::new(DbMsg { token: 0, req }));
    }

    fn start_txn(&mut self, ctx: &mut Ctx) {
        if self.sales >= MAX_SALES || self.phase == Phase::Done {
            self.phase = Phase::Done;
            return;
        }
        self.attempts += 1;
        self.phase = Phase::Beginning;
        let iso = self.config.iso;
        self.send(ctx, DbRequest::Begin { iso });
    }

    fn finish_attempt(&mut self, ctx: &mut Ctx, committed: bool) {
        if committed {
            self.sales += 1;
            ctx.metrics()
                .incr(&format!("{}.sold", self.config.metric), 1);
        } else {
            ctx.metrics()
                .incr(&format!("{}.aborted", self.config.metric), 1);
        }
        self.tx = None;
        self.start_txn(ctx);
    }
}

impl Process for RmwClient {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.start_txn(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx, _from: ProcessId, payload: Payload) {
        let reply = payload.expect::<DbReply>();
        match (&self.phase, &reply.resp) {
            (Phase::Beginning, DbResponse::Began { tx }) => {
                self.tx = Some(*tx);
                self.phase = Phase::Reading;
                let key = self.config.key.clone();
                let tx = *tx;
                self.send(ctx, DbRequest::Read { tx, key });
            }
            (Phase::Reading, DbResponse::ReadOk { value }) => {
                let stock = value.as_ref().map(|v| v.as_int()).unwrap_or(0);
                let tx = self.tx.expect("in txn");
                if stock <= 0 {
                    // Sold out from this client's view: stop.
                    ctx.metrics()
                        .incr(&format!("{}.sold_out_seen", self.config.metric), 1);
                    self.phase = Phase::Done;
                    self.send(ctx, DbRequest::Abort { tx });
                    return;
                }
                self.phase = Phase::WritingStock;
                let key = self.config.key.clone();
                self.send(
                    ctx,
                    DbRequest::Write {
                        tx,
                        key,
                        value: Some(Value::Int(stock - 1)),
                    },
                );
            }
            (Phase::WritingStock, DbResponse::WriteOk) => {
                let tx = self.tx.expect("in txn");
                self.phase = Phase::WritingOrder;
                self.seq += 1;
                let key = format!("order/{}/{}", self.config.metric, self.seq);
                self.send(
                    ctx,
                    DbRequest::Write {
                        tx,
                        key,
                        value: Some(Value::Int(1)),
                    },
                );
            }
            (Phase::WritingOrder, DbResponse::WriteOk) => {
                let tx = self.tx.expect("in txn");
                self.phase = Phase::Committing;
                self.send(ctx, DbRequest::Commit { tx });
            }
            (Phase::Committing, DbResponse::Committed { .. }) => {
                self.finish_attempt(ctx, true);
            }
            (_, DbResponse::Aborted { .. }) if self.phase != Phase::Done => {
                self.finish_attempt(ctx, false);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tca_sim::{Sim, SimDuration};
    use tca_storage::{DbServer, DbServerConfig, ProcRegistry};

    fn world(iso: IsolationLevel, clients: usize, stock: i64) -> Sim {
        let mut sim = Sim::with_seed(151);
        let n_db = sim.add_node();
        let db = sim.spawn(
            n_db,
            "db",
            DbServer::factory("db", DbServerConfig::default(), ProcRegistry::new()),
        );
        sim.inject(
            db,
            Payload::new(DbMsg::load(vec![("stock".into(), Value::Int(stock))])),
        );
        for i in 0..clients {
            let node = sim.add_node();
            sim.spawn(
                node,
                format!("client{i}"),
                RmwClient::factory(RmwConfig {
                    db,
                    iso,
                    key: "stock".into(),
                    metric: format!("c{i}"),
                }),
            );
        }
        sim.run_for(SimDuration::from_secs(2));
        sim
    }

    fn total_sold(sim: &Sim, clients: usize) -> u64 {
        (0..clients)
            .map(|i| sim.metrics().counter(&format!("c{i}.sold")))
            .sum()
    }

    #[test]
    fn read_committed_oversells() {
        let stock = 20;
        let sim = world(IsolationLevel::ReadCommitted, 4, stock);
        let sold = total_sold(&sim, 4);
        assert!(
            sold > stock as u64,
            "RC lost updates should oversell: sold {sold} of {stock}"
        );
    }

    #[test]
    fn snapshot_isolation_never_oversells_but_aborts() {
        let stock = 20;
        let sim = world(IsolationLevel::SnapshotIsolation, 4, stock);
        let sold = total_sold(&sim, 4);
        assert_eq!(sold, stock as u64, "first-committer-wins caps sales");
        let aborts: u64 = (0..4)
            .map(|i| sim.metrics().counter(&format!("c{i}.aborted")))
            .sum();
        assert!(aborts > 0, "SI pays with aborts");
    }

    #[test]
    fn serializable_sells_exactly_stock() {
        let stock = 20;
        let sim = world(IsolationLevel::Serializable, 4, stock);
        let sold = total_sold(&sim, 4);
        assert_eq!(sold, stock as u64);
    }

    #[test]
    fn single_client_is_correct_at_any_level() {
        for iso in [
            IsolationLevel::ReadCommitted,
            IsolationLevel::SnapshotIsolation,
            IsolationLevel::Serializable,
        ] {
            let sim = world(iso, 1, 10);
            assert_eq!(total_sold(&sim, 1), 10, "{iso}");
        }
    }
}
