//! The paper's §5 framing: "'Multiple Worlds' could be viewed as a set of
//! competing transactions, at most one of which will take effect."
//!
//! ```sh
//! cargo run --example competing_transactions
//! ```
//!
//! Three pricing strategies race as optimistic transactions over the same
//! snapshot of a tiny page database; whichever validates first commits
//! and the others abort — then the ordinary retry loop shows the same
//! machinery handling ordinary (non-competing) concurrency.

use worlds_apps::tx::{competing_parallel, Tx, TxManager};

fn main() {
    let db = TxManager::new(256);

    // Page 0: a price; page 1: an audit note.
    {
        let mut init = db.begin();
        db.write(&mut init, 0, &100u64.to_le_bytes());
        db.commit(init).expect("initial commit");
    }
    let price =
        |m: &TxManager| u64::from_le_bytes(m.read_committed(0, 8).try_into().expect("8 bytes"));
    println!("initial price: {}", price(&db));

    // --- competing transactions: at most one takes effect ---
    println!("\nthree strategies race (each reads then rewrites the price page):");
    type Strategy = Box<dyn Fn(u64) -> u64 + Send + Sync>;
    let strategies: Vec<(&str, Strategy)> = vec![
        ("undercut", Box::new(|p| p - 7)),
        ("premium", Box::new(|p| p + 25)),
        ("round", Box::new(|p| (p / 10) * 10)),
    ];
    let names: Vec<&str> = strategies.iter().map(|(n, _)| *n).collect();
    let bodies = strategies
        .into_iter()
        .map(|(_name, f)| {
            Box::new(move |m: &TxManager, tx: &mut Tx| {
                let p = u64::from_le_bytes(m.read(tx, 0, 8).try_into().expect("8 bytes"));
                let new = f(p);
                m.write(tx, 0, &new.to_le_bytes());
                new
            }) as worlds_apps::tx::ParallelTxBody<u64>
        })
        .collect();

    let (idx, committed) = competing_parallel(&db, bodies).expect("one strategy validates first");
    println!(
        "winner: {} (committed price {committed}); database version {}",
        names[idx],
        db.version()
    );
    assert_eq!(price(&db), committed);
    assert_eq!(db.version(), 2, "exactly one of the three took effect");

    // --- the same machinery as ordinary OCC: retries instead of races ---
    println!("\nnow an ordinary optimistic update with interference and retry:");
    let mut sabotaged = false;
    let (final_price, version) = db
        .run(3, |m, tx| {
            let p = u64::from_le_bytes(m.read(tx, 0, 8).try_into().expect("8 bytes"));
            if !sabotaged {
                sabotaged = true;
                // A rival slips in a committed change, invalidating us once.
                let mut rival = m.begin();
                m.write(&mut rival, 0, &(p + 1).to_le_bytes());
                m.commit(rival).expect("rival commits");
                println!("  (rival committed price {} mid-flight)", p + 1);
            }
            let new = p * 2;
            m.write(tx, 0, &new.to_le_bytes());
            new
        })
        .expect("retry loop converges");
    println!("retried transaction committed price {final_price} at version {version}");
    assert_eq!(price(&db), final_price);
    println!(
        "\n(both patterns ran on the same COW worlds the speculation executor uses:\n\
         begin = fork, abort = drop world, commit = validated adoption)"
    );
}
