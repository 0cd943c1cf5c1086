//! Wire-protocol conformance and fuzz suite (PR 10 satellite).
//!
//! The server must never panic, hang, or corrupt a session in the face
//! of hostile bytes: seeded random streams, truncated frames, oversized
//! declared lengths, unknown kinds, and frames split across many tiny
//! writes all end in a structured `Error` frame or a clean disconnect —
//! and the server keeps serving well-formed clients afterwards.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use aimdb_common::Value;
use aimdb_engine::Database;
use aimdb_server::protocol::{self, FrameKind};
use aimdb_server::{Client, Frame, Outcome, Server, ServerConfig, MAX_FRAME};
use rand::{Rng, SeedableRng, StdRng};

fn server_over(db: Database) -> (Server, Arc<Database>) {
    let db = Arc::new(db);
    let server = Server::start(Arc::clone(&db), ServerConfig::default()).expect("server start");
    (server, db)
}

fn kv_db() -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE kv (k INT, v TEXT)")
        .expect("create");
    db.execute("INSERT INTO kv VALUES (1, 'one'), (2, 'two'), (3, 'three')")
        .expect("seed");
    db
}

/// The server is alive iff a fresh well-formed client can run a query.
fn assert_alive(server: &Server) {
    let mut c = Client::connect(server.local_addr()).expect("connect");
    let r = c.query_ok("SELECT k FROM kv WHERE k = 1").expect("query");
    assert_eq!(r.rows().len(), 1);
    c.close().expect("close");
}

#[test]
fn handshake_query_prepared_roundtrip() {
    let (server, _db) = server_over(kv_db());
    let mut c = Client::connect(server.local_addr()).expect("connect");
    assert!(c.session_id() > 0);

    let r = c.query_ok("SELECT v FROM kv WHERE k = 2").expect("select");
    assert_eq!(r.rows()[0].values()[0], Value::Text("two".into()));

    let r = c
        .query_ok("INSERT INTO kv VALUES (4, 'four')")
        .expect("insert");
    assert!(matches!(r, aimdb_engine::QueryResult::Affected(1)));

    c.parse("get", "SELECT v FROM kv WHERE k = ?")
        .expect("parse");
    let (r, _) = c
        .execute("get", &[Value::Int(4)])
        .expect("execute")
        .expect_result()
        .expect("result");
    assert_eq!(r.rows()[0].values()[0], Value::Text("four".into()));

    // errors are structured and the connection survives them
    let e = c
        .query_ok("SELECT * FROM no_such_table")
        .expect_err("missing table");
    assert_eq!(e.category(), "not_found");
    let e = c
        .execute("unknown_stmt", &[])
        .expect_err("unknown prepared statement");
    assert_eq!(e.category(), "not_found");
    let r = c
        .query_ok("SELECT k FROM kv WHERE k = 1")
        .expect("still works");
    assert_eq!(r.rows().len(), 1);

    c.close().expect("close");
    server.shutdown().expect("shutdown");
}

#[test]
fn wire_results_are_bit_identical_to_in_process_encoding() {
    let (server, db) = server_over(kv_db());
    let statements = [
        "SELECT k, v FROM kv WHERE k >= 1",
        "SELECT v FROM kv WHERE k = 3",
        "INSERT INTO kv VALUES (10, 'ten')",
        "SELECT k FROM kv WHERE k = 10",
        "DELETE FROM kv WHERE k = 10",
    ];
    let mut c = Client::connect(server.local_addr()).expect("connect");
    // a second session running the SAME statements on an identically
    // seeded in-process DB must produce byte-identical encodings
    let shadow = kv_db();
    let mut shadow_session = aimdb_server::Session::new(999);
    for sql in statements {
        let (_r, wire_bytes) = c.query(sql).expect("wire").expect_result().expect("ok");
        let local = shadow_session.dispatch(&shadow, sql).expect("local");
        assert_eq!(
            protocol::encode_result(&local),
            wire_bytes,
            "divergence on {sql}"
        );
    }
    c.close().expect("close");
    drop(db);
    server.shutdown().expect("shutdown");
}

#[test]
fn seeded_random_byte_streams_never_kill_the_server() {
    let (server, _db) = server_over(kv_db());
    let mut rng = StdRng::seed_from_u64(0xF022);
    for round in 0..40 {
        let mut s = TcpStream::connect(server.local_addr()).expect("connect");
        s.set_read_timeout(Some(Duration::from_millis(200)))
            .expect("timeout");
        let len = rng.gen_range(1..400usize);
        let noise: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u32) as u8).collect();
        let _ = s.write_all(&noise);
        // drain whatever the server says (error frame or nothing) until
        // it disconnects or goes quiet; the content is unspecified, the
        // invariant is "no hang, no crash"
        let mut sink = [0u8; 512];
        loop {
            match s.read(&mut sink) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(_) => break, // timeout: server is waiting for more bytes
            }
        }
        drop(s);
        if round % 10 == 9 {
            assert_alive(&server);
        }
    }
    assert_alive(&server);
    server.shutdown().expect("shutdown");
}

#[test]
fn truncated_frame_yields_structured_error_or_clean_disconnect() {
    let (server, _db) = server_over(kv_db());
    // handshake properly, then send a frame whose declared length
    // exceeds the bytes provided, and half-close
    let mut s = TcpStream::connect(server.local_addr()).expect("connect");
    protocol::write_frame(
        &mut s,
        &Frame::new(FrameKind::Hello, protocol::encode_hello()),
    )
    .expect("hello");
    let ok = protocol::read_frame(&mut s)
        .expect("hello reply")
        .expect("frame");
    assert_eq!(ok.kind, FrameKind::HelloOk);

    let mut partial = vec![FrameKind::Query as u8];
    partial.extend_from_slice(&100u32.to_le_bytes());
    partial.extend_from_slice(b"SELECT"); // 6 of the promised 100 bytes
    s.write_all(&partial).expect("write partial");
    s.shutdown(std::net::Shutdown::Write).expect("half-close");

    // the server answers with an invalid_input Error frame (or just
    // closes); either way the stream ends without a hang
    s.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    match protocol::read_frame(&mut s) {
        Ok(Some(f)) => {
            assert_eq!(f.kind, FrameKind::Error);
            let e = protocol::decode_error(&f.payload).expect("decode");
            assert_eq!(e.category, "invalid_input");
        }
        Ok(None) | Err(_) => {} // clean disconnect is acceptable too
    }
    assert_alive(&server);
    server.shutdown().expect("shutdown");
}

#[test]
fn oversized_and_unknown_frames_are_rejected() {
    let (server, _db) = server_over(kv_db());

    // declared length over MAX_FRAME
    let mut s = TcpStream::connect(server.local_addr()).expect("connect");
    protocol::write_frame(
        &mut s,
        &Frame::new(FrameKind::Hello, protocol::encode_hello()),
    )
    .expect("hello");
    protocol::read_frame(&mut s).expect("reply").expect("frame");
    let mut huge = vec![FrameKind::Query as u8];
    huge.extend_from_slice(&((MAX_FRAME as u32) + 1).to_le_bytes());
    s.write_all(&huge).expect("write oversized header");
    s.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let f = protocol::read_frame(&mut s).expect("reply").expect("frame");
    assert_eq!(f.kind, FrameKind::Error);
    assert_eq!(
        protocol::decode_error(&f.payload).expect("decode").category,
        "invalid_input"
    );

    // unknown frame kind byte
    let mut s = TcpStream::connect(server.local_addr()).expect("connect");
    protocol::write_frame(
        &mut s,
        &Frame::new(FrameKind::Hello, protocol::encode_hello()),
    )
    .expect("hello");
    protocol::read_frame(&mut s).expect("reply").expect("frame");
    s.write_all(&[0x7F, 0, 0, 0, 0])
        .expect("write unknown kind");
    s.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let f = protocol::read_frame(&mut s).expect("reply").expect("frame");
    assert_eq!(f.kind, FrameKind::Error);

    assert_alive(&server);
    server.shutdown().expect("shutdown");
}

#[test]
fn frames_split_across_many_tiny_writes_still_parse() {
    let (server, _db) = server_over(kv_db());
    let mut s = TcpStream::connect(server.local_addr()).expect("connect");

    let mut handshake = Vec::new();
    protocol::write_frame(
        &mut handshake,
        &Frame::new(FrameKind::Hello, protocol::encode_hello()),
    )
    .expect("encode hello");
    let mut query = Vec::new();
    protocol::write_frame(
        &mut query,
        &Frame::new(FrameKind::Query, b"SELECT v FROM kv WHERE k = 2".to_vec()),
    )
    .expect("encode query");

    // dribble both frames one byte at a time
    for chunk in handshake.chunks(1) {
        s.write_all(chunk).expect("dribble hello");
        s.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(1));
    }
    let ok = protocol::read_frame(&mut s)
        .expect("hello reply")
        .expect("frame");
    assert_eq!(ok.kind, FrameKind::HelloOk);
    for chunk in query.chunks(1) {
        s.write_all(chunk).expect("dribble query");
        s.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(1));
    }
    let f = protocol::read_frame(&mut s)
        .expect("query reply")
        .expect("frame");
    assert_eq!(f.kind, FrameKind::Result);
    let r = protocol::decode_result(&f.payload).expect("decode");
    assert_eq!(r.rows()[0].values()[0], Value::Text("two".into()));

    server.shutdown().expect("shutdown");
}

#[test]
fn seeded_mutated_valid_frames_fuzz_the_payload_decoders() {
    let (server, _db) = server_over(kv_db());
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    for _ in 0..40 {
        let mut s = TcpStream::connect(server.local_addr()).expect("connect");
        s.set_read_timeout(Some(Duration::from_millis(300)))
            .expect("timeout");
        protocol::write_frame(
            &mut s,
            &Frame::new(FrameKind::Hello, protocol::encode_hello()),
        )
        .expect("hello");
        if protocol::read_frame(&mut s).is_err() {
            continue;
        }
        // build a valid Parse/Execute/Query frame, then corrupt bytes
        let mut frame_bytes = Vec::new();
        match rng.gen_range(0..3u32) {
            0 => protocol::write_frame(
                &mut frame_bytes,
                &Frame::new(FrameKind::Query, b"SELECT k FROM kv".to_vec()),
            ),
            1 => protocol::write_frame(
                &mut frame_bytes,
                &Frame::new(
                    FrameKind::Parse,
                    protocol::encode_parse("p", "SELECT v FROM kv WHERE k = ?"),
                ),
            ),
            _ => protocol::write_frame(
                &mut frame_bytes,
                &Frame::new(
                    FrameKind::Execute,
                    protocol::encode_execute("p", &[Value::Int(1), Value::Text("x".into())]),
                ),
            ),
        }
        .expect("encode");
        let flips = rng.gen_range(1..4usize);
        for _ in 0..flips {
            // corrupt the payload only — a corrupted length prefix is the
            // truncation case, covered separately
            if frame_bytes.len() > 5 {
                let i = rng.gen_range(5..frame_bytes.len());
                frame_bytes[i] ^= 1 << rng.gen_range(0..8u32);
            }
        }
        let _ = s.write_all(&frame_bytes);
        let mut sink = [0u8; 1024];
        loop {
            match s.read(&mut sink) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(_) => break,
            }
        }
    }
    assert_alive(&server);
    server.shutdown().expect("shutdown");
}

#[test]
fn graceful_shutdown_sends_bye_and_joins() {
    let (server, db) = server_over(kv_db());
    let mut c = Client::connect(server.local_addr()).expect("connect");
    let r = c.query("SELECT k FROM kv WHERE k = 1").expect("query");
    assert!(matches!(r, Outcome::Ok(..)));
    server.shutdown().expect("shutdown");
    // the engine is intact after the drain
    assert_eq!(
        db.execute("SELECT k FROM kv").expect("query").rows().len(),
        3
    );
    // no lock-hierarchy violations were witnessed anywhere in the run
    if parking_lot::witness::enabled() {
        let v = parking_lot::witness::take_violations();
        assert!(v.is_empty(), "lock-order violations: {v:?}");
    }
}
