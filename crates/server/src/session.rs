//! Per-connection session state: the connection's open transaction and
//! its named prepared statements. Nothing else is per-connection.
//!
//! A session does not classify statements. [`Session::dispatch`] hands
//! the text and the transaction slot to
//! [`Database::execute_session`], where the statement is parsed once and
//! the parse decides what it is: `BEGIN` fills the slot (`nested_txn` if
//! it is full), `COMMIT`/`ROLLBACK` empty it (`execution` if it is
//! empty; a `COMMIT` that fails has emptied it too), and every other
//! statement runs inside the slot's transaction when there is one and
//! autocommits otherwise. Transaction control is therefore observed like
//! any statement — fingerprint store, flight recorder, trace with its
//! `commit` span and `wal_fsync` wait. A `WriteConflict` inside a
//! transaction leaves it open for the client's `ROLLBACK`;
//! [`Session::close`] rolls back whatever a dropped connection left.
//!
//! `SET knob = v` and `SHOW knob` are the engine's own statements: a
//! `SET` over the wire writes the database's knobs, clamped to the knob's
//! range, exactly as `Database::execute("SET …")` and the admission
//! tuner's actuations do, and every connection's `SHOW` reads them.
//!
//! Prepared statements reuse the fingerprint machinery: `Parse` stores
//! the template and its fingerprint; `Execute` substitutes parameters
//! *as SQL literals* into the `?` holes, which the normalizer folds
//! right back to `?` — so a bound statement fingerprints identically to
//! its template and the statement store aggregates them as one shape.
//! (NULL and booleans bind as keywords, not literals, so those
//! parameters change the shape; integer, float, and text parameters —
//! the hot path — are shape-preserving.)

use std::collections::HashMap;

use aimdb_common::{AimError, Result, Value};
use aimdb_engine::{fingerprint, Database, QueryResult, TxnHandle};

use crate::protocol::value_to_sql_literal;

/// A parsed prepared statement.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// The SQL template, possibly holding `?` parameter holes.
    pub sql: String,
    /// Fingerprint of the normalized template.
    pub fingerprint: u64,
}

/// One client connection's server-side state.
pub struct Session {
    id: u64,
    txn: Option<TxnHandle>,
    prepared: HashMap<String, Prepared>,
}

impl Session {
    pub fn new(id: u64) -> Session {
        Session {
            id,
            txn: None,
            prepared: HashMap::new(),
        }
    }

    pub fn id(&self) -> u64 {
        self.id
    }

    /// Whether a transaction is open.
    pub fn in_txn(&self) -> bool {
        self.txn.is_some()
    }

    /// Execute one statement in this session's context.
    pub fn dispatch(&mut self, db: &Database, sql: &str) -> Result<QueryResult> {
        db.execute_session(&mut self.txn, sql)
    }

    /// Store a named prepared statement (Parse). Re-preparing a name
    /// replaces the previous template.
    pub fn prepare(&mut self, name: &str, sql: &str) -> Result<&Prepared> {
        if sql.trim().is_empty() {
            return Err(AimError::Parse("prepare: empty statement".into()));
        }
        let fp = fingerprint(sql);
        self.prepared.insert(
            name.to_string(),
            Prepared {
                sql: sql.to_string(),
                fingerprint: fp,
            },
        );
        Ok(&self.prepared[name])
    }

    /// Bind parameters into a prepared template and execute it (Execute).
    pub fn execute_prepared(
        &mut self,
        db: &Database,
        name: &str,
        params: &[Value],
    ) -> Result<QueryResult> {
        let template = self
            .prepared
            .get(name)
            .ok_or_else(|| AimError::NotFound(format!("prepared statement {name}")))?
            .sql
            .clone();
        let bound = bind_params(&template, params)?;
        self.dispatch(db, &bound)
    }

    /// The prepared statement registered under `name`, if any.
    pub fn prepared(&self, name: &str) -> Option<&Prepared> {
        self.prepared.get(name)
    }

    /// Roll back any open transaction — called when the connection drops,
    /// so an abandoned `BEGIN` can never pin the vacuum horizon.
    pub fn close(&mut self, db: &Database) -> Result<()> {
        if let Some(h) = self.txn.take() {
            db.rollback_txn(&h)?;
        }
        Ok(())
    }
}

/// Substitute `?` holes (outside string literals) with SQL-rendered
/// parameter values, left to right. Errors on arity mismatch.
pub fn bind_params(template: &str, params: &[Value]) -> Result<String> {
    let mut out = String::with_capacity(template.len() + params.len() * 8);
    let mut next = 0;
    let mut in_string = false;
    let mut chars = template.chars().peekable();
    while let Some(c) = chars.next() {
        if in_string {
            out.push(c);
            if c == '\'' {
                // '' is an escaped quote, stay inside the literal
                if chars.peek() == Some(&'\'') {
                    if let Some(q) = chars.next() {
                        out.push(q);
                    }
                } else {
                    in_string = false;
                }
            }
            continue;
        }
        match c {
            '\'' => {
                in_string = true;
                out.push(c);
            }
            '?' => {
                let v = params.get(next).ok_or_else(|| {
                    AimError::InvalidInput(format!(
                        "bind: template has more than {} parameter holes",
                        params.len()
                    ))
                })?;
                out.push_str(&value_to_sql_literal(v));
                next += 1;
            }
            _ => out.push(c),
        }
    }
    if next != params.len() {
        return Err(AimError::InvalidInput(format!(
            "bind: {} parameters for {next} holes",
            params.len()
        )));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db_with_kv() -> Database {
        let db = Database::new();
        db.execute("CREATE TABLE kv (k INT, v TEXT)")
            .expect("create");
        db.execute("INSERT INTO kv VALUES (1, 'one'), (2, 'two')")
            .expect("seed");
        db
    }

    #[test]
    fn begin_commit_roundtrip_and_nested_begin_rejected() {
        let db = db_with_kv();
        let mut s = Session::new(1);
        s.dispatch(&db, "BEGIN").expect("begin");
        assert!(s.in_txn());
        let e = s.dispatch(&db, "begin;").expect_err("nested");
        assert_eq!(e.category(), "nested_txn");
        s.dispatch(&db, "INSERT INTO kv VALUES (3, 'three')")
            .expect("insert");
        s.dispatch(&db, "COMMIT").expect("commit");
        assert!(!s.in_txn());
        let r = db.execute("SELECT k FROM kv WHERE k = 3").expect("select");
        assert_eq!(r.rows().len(), 1);
    }

    #[test]
    fn rollback_discards_and_close_rolls_back() {
        let db = db_with_kv();
        let mut s = Session::new(1);
        s.dispatch(&db, "BEGIN").expect("begin");
        s.dispatch(&db, "DELETE FROM kv WHERE k = 1")
            .expect("delete");
        s.dispatch(&db, "ROLLBACK").expect("rollback");
        assert_eq!(db.execute("SELECT k FROM kv").expect("q").rows().len(), 2);

        let mut s2 = Session::new(2);
        s2.dispatch(&db, "BEGIN").expect("begin");
        s2.dispatch(&db, "DELETE FROM kv").expect("delete");
        assert_eq!(db.active_txn_count(), 1);
        s2.close(&db).expect("close");
        assert_eq!(db.active_txn_count(), 0, "close released the snapshot");
        assert_eq!(db.execute("SELECT k FROM kv").expect("q").rows().len(), 2);
    }

    #[test]
    fn commit_without_txn_is_a_structured_error() {
        let db = db_with_kv();
        let mut s = Session::new(1);
        assert_eq!(
            s.dispatch(&db, "COMMIT").expect_err("commit").category(),
            "execution"
        );
        assert_eq!(
            s.dispatch(&db, "ROLLBACK")
                .expect_err("rollback")
                .category(),
            "execution"
        );
    }

    #[test]
    fn prepared_binding_preserves_the_fingerprint() {
        let db = db_with_kv();
        let mut s = Session::new(1);
        let template = "SELECT v FROM kv WHERE k = ?";
        let fp = s.prepare("get", template).expect("prepare").fingerprint;
        assert_eq!(fp, fingerprint("SELECT v FROM kv WHERE k = 42"));
        let bound = bind_params(template, &[Value::Int(2)]).expect("bind");
        assert_eq!(
            fingerprint(&bound),
            fp,
            "bound statement shares the template shape"
        );
        let r = s
            .execute_prepared(&db, "get", &[Value::Int(2)])
            .expect("execute");
        assert_eq!(r.rows().len(), 1);
        assert_eq!(r.rows()[0].values()[0], Value::Text("two".into()));
    }

    #[test]
    fn bind_respects_strings_and_arity() {
        let b = bind_params(
            "INSERT INTO kv VALUES (?, 'lit?eral'), (?, ?)",
            &[Value::Int(1), Value::Int(2), Value::Text("o'brien".into())],
        )
        .expect("bind");
        assert_eq!(b, "INSERT INTO kv VALUES (1, 'lit?eral'), (2, 'o''brien')");
        assert!(bind_params("SELECT ?", &[]).is_err(), "missing param");
        assert!(
            bind_params("SELECT 1", &[Value::Int(1)]).is_err(),
            "extra param"
        );
    }

    #[test]
    fn execute_unknown_prepared_is_not_found() {
        let db = db_with_kv();
        let mut s = Session::new(1);
        let e = s.execute_prepared(&db, "nope", &[]).expect_err("unknown");
        assert_eq!(e.category(), "not_found");
    }
}
