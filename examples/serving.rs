//! Drive the TCP serving layer end-to-end through
//! public paths — server up, wire client, txn, prepared statement,
//! session SET, error frame, graceful shutdown.

use std::sync::Arc;

use aimdb_common::Value;
use aimdb_engine::Database;
use aimdb_server::{Client, Outcome, Server, ServerConfig};

fn main() {
    let db = Arc::new(Database::new());
    let server = match Server::start(Arc::clone(&db), ServerConfig::default()) {
        Ok(s) => s,
        Err(e) => {
            println!("server failed to start: {e}");
            std::process::exit(1);
        }
    };
    let addr = server.local_addr();
    println!("serving on {addr}");

    let mut c = match Client::connect(addr.to_string()) {
        Ok(c) => c,
        Err(e) => {
            println!("connect failed: {e}");
            std::process::exit(1);
        }
    };

    let steps: &[&str] = &[
        "CREATE TABLE kv (k INT, v TEXT)",
        "BEGIN",
        "INSERT INTO kv VALUES (1, 'one'), (2, 'two'), (3, 'three')",
        "COMMIT",
        "SET work_mem_kb = 2048",
        "SHOW work_mem_kb",
        "SELECT COUNT(*) FROM kv WHERE k >= 1",
    ];
    for sql in steps {
        match c.query(sql) {
            Ok(Outcome::Ok(r, _)) => println!("  ok   {sql} -> {} rows", r.rows().len()),
            Ok(Outcome::Shed(why)) => println!("  shed {sql} ({why})"),
            Err(e) => {
                println!("  ERR  {sql}: {e}");
                std::process::exit(1);
            }
        }
    }

    // Prepared statement round trip.
    if let Err(e) = c.parse("lookup", "SELECT v FROM kv WHERE k = ?") {
        println!("parse failed: {e}");
        std::process::exit(1);
    }
    match c.execute("lookup", &[Value::Int(2)]) {
        Ok(Outcome::Ok(r, _)) => println!("  prepared lookup(2) -> {} row(s)", r.rows().len()),
        other => {
            println!("prepared execute unexpected: {other:?}");
            std::process::exit(1);
        }
    }

    // Structured error frame, connection must survive it.
    match c.query("SELECT * FROM missing_table") {
        Err(e) => println!("  expected error frame: {e}"),
        ok => {
            println!("missing_table unexpectedly ok: {ok:?}");
            std::process::exit(1);
        }
    }
    match c.query("SELECT COUNT(*) FROM kv") {
        Ok(Outcome::Ok(_, _)) => println!("  session alive after error"),
        other => {
            println!("session died after error: {other:?}");
            std::process::exit(1);
        }
    }

    if let Err(e) = c.close() {
        println!("close failed: {e}");
        std::process::exit(1);
    }
    match server.shutdown() {
        Ok(()) => println!("graceful shutdown ok"),
        Err(e) => {
            println!("shutdown failed: {e}");
            std::process::exit(1);
        }
    }
    println!("serving scratch: PASS");
}
