//! Admission-control integration suite: queue-then-shed semantics under
//! real concurrency, knob→gate actuation, and the tuner's control thread
//! wired to the knobs and the gate.
//!
//! The deterministic behavior — admit/queue/reject at exact clock values,
//! and which way the tuner moves the limit for a given window — is pinned
//! by the unit tests in `src/admission.rs` on synthetic inputs; these
//! tests exercise the same gate and loop through real sockets and
//! threads.

use std::sync::Arc;
use std::time::{Duration, Instant};

use aimdb_common::Value;
use aimdb_engine::Database;
use aimdb_server::{Client, Outcome, Server, ServerConfig, TunerStats};

fn big_db(rows: i64) -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE big (a INT, b INT)")
        .expect("create");
    let batch: Vec<Vec<Value>> = (0..rows)
        .map(|i| vec![Value::Int(i), Value::Int(i * 7 % 1000)])
        .collect();
    db.insert_rows("big", batch).expect("seed");
    db
}

const AGG: &str = "SELECT SUM(b) FROM big WHERE a >= 0";

#[test]
fn overload_sheds_statements_but_answers_are_correct() {
    let db = big_db(20_000);
    db.knobs
        .set("admission_max_statements", &Value::Int(1))
        .expect("knob");
    db.knobs
        .set("admission_queue_timeout_ms", &Value::Int(1))
        .expect("knob");
    let expected = db.execute(AGG).expect("local agg").rows()[0].values()[0].clone();

    let db = Arc::new(db);
    let server = Server::start(
        Arc::clone(&db),
        ServerConfig {
            tuner_enabled: false,
            ..ServerConfig::default()
        },
    )
    .expect("start");
    let addr = server.local_addr();

    let workers: Vec<_> = (0..6)
        .map(|_| {
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                let (mut ok, mut shed) = (0u64, 0u64);
                for _ in 0..12 {
                    match c.query(AGG).expect("query") {
                        Outcome::Ok(r, _) => {
                            assert_eq!(r.rows()[0].values()[0], expected);
                            ok += 1;
                        }
                        Outcome::Shed(_) => shed += 1,
                    }
                }
                c.close().expect("close");
                (ok, shed)
            })
        })
        .collect();
    let mut total_ok = 0;
    let mut total_shed = 0;
    for w in workers {
        let (ok, shed) = w.join().expect("worker");
        total_ok += ok;
        total_shed += shed;
    }
    assert!(total_ok > 0, "some statements must get through");
    assert!(
        total_shed > 0,
        "a 1-slot gate with a 1ms queue under 6 concurrent aggregates must shed"
    );
    let stats = server.admission_stats();
    assert_eq!(stats.rejected, total_shed);
    assert_eq!(stats.statements_inflight, 0, "all slots returned");
    server.shutdown().expect("shutdown");
}

#[test]
fn queued_statements_admit_when_slots_free_given_patience() {
    let db = big_db(20_000);
    db.knobs
        .set("admission_max_statements", &Value::Int(1))
        .expect("knob");
    db.knobs
        .set("admission_queue_timeout_ms", &Value::Int(10_000))
        .expect("knob");
    let db = Arc::new(db);
    let server = Server::start(
        Arc::clone(&db),
        ServerConfig {
            tuner_enabled: false,
            ..ServerConfig::default()
        },
    )
    .expect("start");
    let addr = server.local_addr();

    let workers: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                for _ in 0..5 {
                    match c.query(AGG).expect("query") {
                        Outcome::Ok(..) => {}
                        Outcome::Shed(r) => panic!("shed with a 10s queue timeout: {r}"),
                    }
                }
                c.close().expect("close");
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker");
    }
    let stats = server.admission_stats();
    assert_eq!(stats.admitted, 20, "every statement eventually admitted");
    assert!(
        stats.queued > 0,
        "one slot and four concurrent connections must queue"
    );
    server.shutdown().expect("shutdown");
}

#[test]
fn knob_set_folds_into_the_gate_within_a_tick() {
    let db = Arc::new(big_db(100));
    let server = Server::start(
        Arc::clone(&db),
        ServerConfig {
            control_tick_ms: 10,
            tuner_enabled: false,
            ..ServerConfig::default()
        },
    )
    .expect("start");
    db.knobs
        .set("admission_max_statements", &Value::Int(7))
        .expect("knob");
    db.knobs
        .set("max_connections", &Value::Int(11))
        .expect("knob");
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let l = server.admission_limits();
        if l.max_statements == 7 && l.max_sessions == 11 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "gate never picked up the knob change: {l:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    server.shutdown().expect("shutdown");
}

#[test]
fn session_gate_rejects_connections_over_max_connections() {
    let db = Arc::new(big_db(100));
    db.knobs
        .set("max_connections", &Value::Int(2))
        .expect("knob");
    let server = Server::start(
        Arc::clone(&db),
        ServerConfig {
            tuner_enabled: false,
            ..ServerConfig::default()
        },
    )
    .expect("start");
    let addr = server.local_addr();
    let c1 = Client::connect(addr).expect("first");
    let c2 = Client::connect(addr).expect("second");
    let e = match Client::connect(addr) {
        Ok(_) => panic!("third connection must be refused"),
        Err(e) => e,
    };
    assert!(
        e.to_string().contains("session rejected"),
        "unexpected error: {e}"
    );
    assert_eq!(server.admission_stats().sessions_rejected, 1);
    // releasing a slot re-opens the door
    c1.close().expect("close");
    let deadline = Instant::now() + Duration::from_secs(5);
    let c3 = loop {
        match Client::connect(addr) {
            Ok(c) => break c,
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(10)),
            Err(e) => panic!("slot never freed: {e}"),
        }
    };
    c3.close().expect("close");
    c2.close().expect("close");
    server.shutdown().expect("shutdown");
}

#[test]
fn tuner_actuates_the_knob_the_gate_reads_while_load_is_shed() {
    // which way the limit moves depends on the process-wide wait profile
    // other tests in this binary add to, so the direction is pinned by
    // the `control_tick` unit tests; here only the wiring: the control
    // thread actuates, and the knob it writes is the gate's limit
    let db = big_db(500);
    db.knobs
        .set("admission_max_statements", &Value::Int(2))
        .expect("knob");
    db.knobs
        .set("admission_queue_timeout_ms", &Value::Int(0))
        .expect("knob");
    let db = Arc::new(db);
    let server = Server::start(
        Arc::clone(&db),
        ServerConfig {
            control_tick_ms: 10,
            tuner_enabled: true,
            ..ServerConfig::default()
        },
    )
    .expect("start");
    let addr = server.local_addr();

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let workers: Vec<_> = (0..8)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                // ordering: Relaxed — one-way test-stop latch
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let _ = c.query("SELECT COUNT(a) FROM big WHERE b < 500");
                }
                c.close().expect("close");
            })
        })
        .collect();

    let deadline = Instant::now() + Duration::from_secs(15);
    while server.tuner_stats() == TunerStats::default() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    // ordering: Relaxed — one-way test-stop latch
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for w in workers {
        w.join().expect("worker");
    }
    let t = server.tuner_stats();
    assert!(t.shrinks + t.grows > 0, "tuner never actuated: {t:?}");
    // the gate re-reads the knob on the tick that writes it; poll past a
    // tick landing between the two reads
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let knob = db.knobs.get("admission_max_statements").expect("knob");
        let gate = server.admission_limits().max_statements as i64;
        if knob == gate {
            break;
        }
        assert!(Instant::now() < deadline, "knob {knob} != gate {gate}");
        std::thread::sleep(Duration::from_millis(5));
    }
    server.shutdown().expect("shutdown");
}
