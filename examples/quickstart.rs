//! Quickstart: the database and the AISQL surface in five minutes.
//!
//! ```sh
//! cargo run --example quickstart
//! ```
//!
//! Creates tables, runs plain SQL (joins, aggregates, transactions),
//! then trains a model *inside the database* and uses it in queries —
//! the tutorial's declarative DB4AI surface.

use aimdb_db4ai::ModelRuntime;
use aimdb_engine::{Database, QueryResult, TxnHandle};

fn show(db: &Database, txn: &mut Option<TxnHandle>, sql: &str) {
    println!("sql> {sql}");
    match db.execute_session(txn, sql) {
        Ok(QueryResult::Rows { schema, rows }) => {
            let names: Vec<&str> = schema.columns().iter().map(|c| c.name.as_str()).collect();
            println!("     {}", names.join(" | "));
            for row in rows.iter().take(8) {
                println!("     {row}");
            }
            if rows.len() > 8 {
                println!("     ... ({} rows)", rows.len());
            }
        }
        Ok(QueryResult::Affected(n)) => println!("     {n} row(s) affected"),
        Ok(QueryResult::Text(t)) => println!("     {t}"),
        Err(e) => println!("     ERROR: {e}"),
    }
}

fn main() {
    let db = Database::new();
    ModelRuntime::install(&db);
    // The quickstart is one session: it owns the transaction BEGIN opens.
    let mut txn = None;
    let mut show = |sql: &str| show(&db, &mut txn, sql);

    println!("--- plain SQL ---");
    show("CREATE TABLE users (id INT NOT NULL, name TEXT, age INT)");
    show("CREATE TABLE orders (oid INT, user_id INT, amount FLOAT)");
    let users: Vec<String> = (0..200)
        .map(|i| format!("({i}, 'user{i}', {})", 18 + (i * 13) % 60))
        .collect();
    show(&format!("INSERT INTO users VALUES {}", users.join(",")));
    // spend grows with customer id, so the learned model has real signal
    let orders: Vec<String> = (0..600)
        .map(|i| {
            let user = i % 200;
            format!("({i}, {user}, {})", user as f64 * 0.3 + (i % 7) as f64)
        })
        .collect();
    show(&format!("INSERT INTO orders VALUES {}", orders.join(",")));
    show("ANALYZE");
    show(
        "SELECT u.name, COUNT(*) AS n, SUM(o.amount) AS total FROM users u \
         JOIN orders o ON u.id = o.user_id WHERE u.age > 40 \
         GROUP BY u.name ORDER BY total DESC LIMIT 5",
    );

    println!("\n--- transactions ---");
    show("BEGIN");
    show("DELETE FROM orders WHERE amount < 5");
    show("ROLLBACK");
    show("SELECT COUNT(*) FROM orders");

    println!("\n--- the optimizer at work ---");
    show("CREATE INDEX idx_user ON orders (user_id)");
    show("ANALYZE");
    show("EXPLAIN SELECT * FROM orders WHERE user_id = 7");

    println!("\n--- AISQL: models inside the database ---");
    show("CREATE MODEL spend KIND LINEAR ON orders (user_id) LABEL amount WITH (epochs = 100)");
    show("PREDICT spend GIVEN (42)");
    show("SELECT COUNT(*) AS heavy FROM orders WHERE PREDICT(spend, user_id) > 40");

    println!("\n--- live knob tuning surface ---");
    show("SET buffer_pool_pages = 64");
    let kpis = db.kpis();
    println!(
        "kpis: {} queries, buffer hit rate {:.2}, {} disk reads",
        kpis.queries_executed, kpis.buffer_hit_rate, kpis.disk_reads
    );
}
