//! Virtual actors: a bank with persistent account actors, silo failure,
//! migration, and the cost of the actor Transactions API.
//!
//! ```text
//! cargo run --example actor_bank
//! ```

use tca::core::cell::{run_cell, CellParams};
use tca::core::taxonomy::{ProgrammingModel, TxnMechanism};

fn main() {
    let params = CellParams {
        seed: 11,
        transfers: 300,
        hot_prob: 0.0,
        ..CellParams::default()
    };

    println!("300 transfers over 64 persistent account actors, 8 concurrent clients\n");

    let plain = run_cell(ProgrammingModel::VirtualActors, TxnMechanism::None, &params);
    println!(
        "plain actor calls  : {:>5.0} transfers/s   p50 {:>7.3}ms   p99 {:>7.3}ms   ({} ok / {} failed)",
        plain.throughput, plain.p50_ms, plain.p99_ms, plain.committed, plain.failed
    );

    let txn = run_cell(
        ProgrammingModel::VirtualActors,
        TxnMechanism::ActorTransactions,
        &params,
    );
    println!(
        "actor transactions : {:>5.0} transfers/s   p50 {:>7.3}ms   p99 {:>7.3}ms   ({} ok / {} failed)",
        txn.throughput, txn.p50_ms, txn.p99_ms, txn.committed, txn.failed
    );

    println!(
        "\ntransactions cost {:.1}x throughput — the penalty the paper's §4.2 describes.",
        plain.throughput / txn.throughput.max(1e-9)
    );
    println!("(plain calls trade that cost for NO atomicity: a crash between the");
    println!(" debit and the credit loses money — see `experiments e8`.)");

    // Contention makes it worse: rerun with 90% of transfers hitting one
    // hot account.
    let hot_params = CellParams {
        hot_prob: 0.9,
        ..params
    };
    let hot_txn = run_cell(
        ProgrammingModel::VirtualActors,
        TxnMechanism::ActorTransactions,
        &hot_params,
    );
    println!(
        "\nwith 90% contention on one account, actor transactions drop to {:.0}/s ({} lock aborts)",
        hot_txn.throughput, hot_txn.failed
    );
}
