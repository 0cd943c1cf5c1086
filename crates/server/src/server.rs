//! The threaded TCP server: accept loop, per-connection handler threads,
//! graceful drain, and the control thread that keeps the admission gate
//! on the knobs.
//!
//! ## Thread structure
//!
//! - **accept thread** — nonblocking `accept` poll; offers each new
//!   connection to the admission gate (`max_connections`) and spawns a
//!   handler thread for admitted ones. Rejected connections get a
//!   `Rejected` frame and a clean close.
//! - **handler threads** (one per connection) — handshake, then a frame
//!   loop. Each statement takes a slot from the statement gate
//!   (`admission_max_statements`), which may queue it up to
//!   `admission_queue_timeout_ms` and then shed it with a `Rejected`
//!   frame; the connection itself stays up. Engine errors become `Error`
//!   frames carrying the [`AimError`] category and retryability — the
//!   connection survives those too.
//! - **control thread** — every `control_tick_ms`, sleeps, then folds
//!   the knob system's `max_connections`, `admission_max_statements` and
//!   `admission_queue_timeout_ms` into the gate, so a DBA's `SET`
//!   reaches the gate within one tick.
//!
//! ## Shutdown
//!
//! [`Server::shutdown`] flips a latch. The accept thread stops taking
//! connections; each handler notices the latch at its next frame poll —
//! *between* statements, never inside one — so in-flight statements run
//! to completion and their results are delivered, then a `Bye` frame is
//! sent and the connection closes. Dropped connections roll back any
//! open transaction, so no abandoned session can pin the MVCC vacuum
//! horizon.

use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use aimdb_common::{wait, AimError, LockRank, Result, Value, WaitSet, WallClock};
use aimdb_engine::{Database, QueryResult};
use parking_lot::Mutex;

use crate::admission::{limits_from_knobs, AdmissionGate, AdmissionLimits, AdmissionStats};
use crate::protocol::{self, Frame, FrameKind, MAX_FRAME};
use crate::session::Session;

/// How often handler threads surface from a blocked read to check the
/// shutdown latch.
const READ_POLL: Duration = Duration::from_millis(25);
/// Once a frame has started arriving, how long the rest may take. A
/// client that stalls mid-frame longer than this is treated as sending
/// a truncated frame (structured error, then disconnect).
const FRAME_REST_TIMEOUT: Duration = Duration::from_secs(5);
/// Accept-poll sleep when no connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Control-loop period in milliseconds.
    pub control_tick_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            control_tick_ms: 25,
        }
    }
}

/// Always zero: the server has no admission tuner. Kept only because
/// the frozen wire benchmark reads [`Server::tuner_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TunerStats {
    pub shrinks: u64,
    pub grows: u64,
}

/// State shared by the accept, control, and handler threads.
struct Shared {
    db: Arc<Database>,
    gate: AdmissionGate,
    shutdown: AtomicBool,
    next_session: AtomicU64,
    /// Handler join handles plus the wait-profile aggregate of finished
    /// connections, under one rank-1 mutex (acquired after the gate's
    /// rank-0 mutex is *released* — neither is ever held across the
    /// other, but the ranks document the accept-path order).
    registry: Mutex<Registry>,
}

#[derive(Default)]
struct Registry {
    handles: Vec<JoinHandle<()>>,
    /// Wait events attributed to wire statements, merged per connection
    /// as handlers finish.
    wire_waits: WaitSet,
}

/// A running server. Dropping it performs a graceful shutdown.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    control: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind and start serving `db` per `config`.
    pub fn start(db: Arc<Database>, config: ServerConfig) -> Result<Server> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| AimError::Storage(format!("bind {}: {e}", config.addr)))?;
        let addr = listener
            .local_addr()
            .map_err(|e| AimError::Storage(format!("local_addr: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| AimError::Storage(format!("set_nonblocking: {e}")))?;

        let limits = limits_from_knobs(&db.knobs);
        let shared = Arc::new(Shared {
            db,
            gate: AdmissionGate::new(limits, Arc::new(WallClock::new())),
            shutdown: AtomicBool::new(false),
            next_session: AtomicU64::new(0),
            registry: Mutex::with_rank(Registry::default(), LockRank::ServerSessions),
        });

        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("aimdb-accept".into())
                .spawn(move || accept_loop(&shared, listener))
                .map_err(|e| AimError::Storage(format!("spawn accept: {e}")))?
        };
        let control = {
            let shared = Arc::clone(&shared);
            let tick = Duration::from_millis(config.control_tick_ms.max(1));
            std::thread::Builder::new()
                .name("aimdb-control".into())
                .spawn(move || control_loop(&shared, tick))
                .map_err(|e| AimError::Storage(format!("spawn control: {e}")))?
        };

        Ok(Server {
            shared,
            addr,
            accept: Some(accept),
            control: Some(control),
        })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live admission counters.
    pub fn admission_stats(&self) -> AdmissionStats {
        self.shared.gate.stats()
    }

    /// Current gate limits, as of the last knob fold.
    pub fn admission_limits(&self) -> AdmissionLimits {
        self.shared.gate.limits()
    }

    /// Always [`TunerStats::default()`]: kept only because the frozen
    /// wire benchmark reads it.
    pub fn tuner_stats(&self) -> TunerStats {
        TunerStats::default()
    }

    /// Wait profile attributed to wire statements of connections that
    /// have finished.
    pub fn wire_waits(&self) -> WaitSet {
        self.shared.registry.lock().wire_waits.clone()
    }

    /// Graceful shutdown: stop accepting, let every in-flight statement
    /// finish and its result ship, send `Bye`s, join all threads.
    pub fn shutdown(mut self) -> Result<()> {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> Result<()> {
        // ordering: SeqCst — the latch must be visible to every handler's
        // next poll; this is a one-way transition, cost is irrelevant
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            h.join()
                .map_err(|_| AimError::Execution("accept thread panicked".into()))?;
        }
        if let Some(h) = self.control.take() {
            h.join()
                .map_err(|_| AimError::Execution("control thread panicked".into()))?;
        }
        // handlers observe the latch at their next frame poll; drain them
        loop {
            let drained = {
                let mut reg = self.shared.registry.lock();
                std::mem::take(&mut reg.handles)
            };
            if drained.is_empty() {
                break;
            }
            for h in drained {
                h.join()
                    .map_err(|_| AimError::Execution("handler thread panicked".into()))?;
            }
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.shutdown_inner();
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) {
    loop {
        // ordering: Relaxed — one-way latch polled in a loop; staleness of
        // a few iterations only delays shutdown by one poll interval
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                if shared.gate.admit_session() {
                    spawn_handler(shared, stream);
                } else {
                    // refuse politely: Rejected frame, then close
                    let mut stream = stream;
                    let _ = stream.set_nodelay(true);
                    let _ = protocol::write_frame(
                        &mut stream,
                        &Frame::new(
                            FrameKind::Rejected,
                            protocol::encode_rejected(false, "max_connections reached"),
                        ),
                    );
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                // transient accept failure (e.g. aborted connection):
                // back off briefly and keep serving
                std::thread::sleep(ACCEPT_POLL);
            }
        }
    }
}

fn spawn_handler(shared: &Arc<Shared>, stream: TcpStream) {
    let shared2 = Arc::clone(shared);
    let spawned = std::thread::Builder::new()
        .name("aimdb-conn".into())
        .spawn(move || {
            handle_connection(&shared2, stream);
            shared2.gate.release_session();
        });
    match spawned {
        Ok(handle) => shared.registry.lock().handles.push(handle),
        Err(_) => {
            // could not spawn: give the slot back; the client sees EOF
            shared.gate.release_session();
        }
    }
}

/// Read one frame, polling the shutdown latch between frames. Returns
/// `Ok(None)` on clean EOF *or* shutdown — both end the frame loop.
fn poll_frame(stream: &mut TcpStream, shared: &Shared) -> Result<Option<Frame>> {
    let mut first = [0u8; 1];
    loop {
        // ordering: Relaxed — one-way latch, see accept_loop
        if shared.shutdown.load(Ordering::Relaxed) {
            return Ok(None);
        }
        match stream.read(&mut first) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(AimError::Storage(format!("wire read: {e}"))),
        }
    }
    // the frame has started: give the rest a generous fixed window
    let _ = stream.set_read_timeout(Some(FRAME_REST_TIMEOUT));
    let result = read_frame_rest(stream, first[0]);
    let _ = stream.set_read_timeout(Some(READ_POLL));
    result.map(Some)
}

/// Read the remainder of a frame whose kind byte is already in hand.
fn read_frame_rest(stream: &mut TcpStream, kind_byte: u8) -> Result<Frame> {
    let kind = FrameKind::from_u8(kind_byte).ok_or_else(|| {
        AimError::InvalidInput(format!("wire: unknown frame kind {kind_byte:#04x}"))
    })?;
    let mut len4 = [0u8; 4];
    read_exact_patient(stream, &mut len4)?;
    let len = u32::from_le_bytes(len4) as usize;
    if len > MAX_FRAME {
        return Err(AimError::InvalidInput(format!(
            "wire: frame length {len} exceeds the {MAX_FRAME}-byte cap"
        )));
    }
    let mut payload = vec![0u8; len];
    read_exact_patient(stream, &mut payload)?;
    Ok(Frame { kind, payload })
}

/// `read_exact` that retries `Interrupted` and maps everything else —
/// including a mid-frame stall past the rest-timeout — to a structured
/// error.
fn read_exact_patient(stream: &mut TcpStream, buf: &mut [u8]) -> Result<()> {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(AimError::InvalidInput(format!(
                    "wire: EOF after {filled} of {} frame bytes",
                    buf.len()
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(AimError::Storage(format!("wire read: {e}"))),
        }
    }
    Ok(())
}

fn send(stream: &mut TcpStream, kind: FrameKind, payload: Vec<u8>) -> Result<()> {
    protocol::write_frame(stream, &Frame::new(kind, payload))
}

fn send_error(stream: &mut TcpStream, e: &AimError) -> Result<()> {
    send(stream, FrameKind::Error, protocol::encode_error(e))
}

fn handle_connection(shared: &Arc<Shared>, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_POLL));

    // handshake: the first frame must be a well-formed Hello
    let sid = match poll_frame(&mut stream, shared) {
        Ok(Some(f)) if f.kind == FrameKind::Hello => {
            match protocol::decode_hello(&f.payload) {
                Ok(_version) => {
                    // ordering: Relaxed — unique-id counter, no other state
                    // is published through it
                    let sid = shared.next_session.fetch_add(1, Ordering::Relaxed) + 1;
                    if send(
                        &mut stream,
                        FrameKind::HelloOk,
                        protocol::encode_hello_ok(sid),
                    )
                    .is_err()
                    {
                        return;
                    }
                    sid
                }
                Err(e) => {
                    let _ = send_error(&mut stream, &e);
                    return;
                }
            }
        }
        Ok(Some(_)) => {
            let _ = send_error(
                &mut stream,
                &AimError::InvalidInput("wire: expected Hello as the first frame".into()),
            );
            return;
        }
        Ok(None) => return,
        Err(e) => {
            let _ = send_error(&mut stream, &e);
            return;
        }
    };

    let mut session = Session::new(sid);
    let mut conn_waits = WaitSet::default();
    // discard waits this thread accumulated before the session started
    let _ = wait::take_thread();

    loop {
        let frame = match poll_frame(&mut stream, shared) {
            Ok(Some(f)) => f,
            Ok(None) => break, // clean EOF or shutdown drain
            Err(e) => {
                // malformed framing: structured error, then disconnect —
                // resynchronizing a byte stream after a bad length
                // prefix is guesswork
                let _ = send_error(&mut stream, &e);
                break;
            }
        };
        let survive = match frame.kind {
            FrameKind::Query => match std::str::from_utf8(&frame.payload) {
                Ok(sql) => {
                    let sql = sql.to_string();
                    run_statement(shared, &mut stream, &mut session, &mut conn_waits, &sql)
                }
                Err(_) => send_error(
                    &mut stream,
                    &AimError::Parse("wire: query is not valid UTF-8".into()),
                )
                .is_ok(),
            },
            FrameKind::Parse => match protocol::decode_parse(&frame.payload) {
                Ok((name, sql)) => match session.prepare(&name, &sql) {
                    Ok(p) => {
                        let ack =
                            QueryResult::Text(format!("PARSE {name} {:#018x}", p.fingerprint));
                        send(
                            &mut stream,
                            FrameKind::Result,
                            protocol::encode_result(&ack),
                        )
                        .is_ok()
                    }
                    Err(e) => send_error(&mut stream, &e).is_ok(),
                },
                Err(e) => send_error(&mut stream, &e).is_ok(),
            },
            FrameKind::Execute => match protocol::decode_execute(&frame.payload) {
                Ok((name, params)) => run_prepared(
                    shared,
                    &mut stream,
                    &mut session,
                    &mut conn_waits,
                    &name,
                    &params,
                ),
                Err(e) => send_error(&mut stream, &e).is_ok(),
            },
            FrameKind::Close => {
                let _ = send(&mut stream, FrameKind::Bye, Vec::new());
                false
            }
            FrameKind::Hello => send_error(
                &mut stream,
                &AimError::InvalidInput("wire: duplicate Hello".into()),
            )
            .is_ok(),
            // server→client kinds arriving from a client are protocol abuse
            FrameKind::HelloOk
            | FrameKind::Result
            | FrameKind::Error
            | FrameKind::Bye
            | FrameKind::Rejected => send_error(
                &mut stream,
                &AimError::InvalidInput(format!(
                    "wire: client sent server frame kind {:#04x}",
                    frame.kind as u8
                )),
            )
            .is_ok(),
        };
        if !survive {
            break;
        }
    }

    // shutdown drain path: tell a still-connected peer we are done
    // ordering: Relaxed — one-way latch, see accept_loop
    if shared.shutdown.load(Ordering::Relaxed) {
        let _ = send(&mut stream, FrameKind::Bye, Vec::new());
    }
    // an abandoned BEGIN must not pin the vacuum horizon
    let _ = session.close(&shared.db);
    conn_waits.merge(&wait::take_thread());
    shared.registry.lock().wire_waits.merge(&conn_waits);
}

/// Gate + execute + respond for a simple query. Returns whether the
/// connection should stay up.
fn run_statement(
    shared: &Arc<Shared>,
    stream: &mut TcpStream,
    session: &mut Session,
    conn_waits: &mut WaitSet,
    sql: &str,
) -> bool {
    let Some(_permit) = shared.gate.admit_statement() else {
        return send(
            stream,
            FrameKind::Rejected,
            protocol::encode_rejected(true, "admission queue timeout"),
        )
        .is_ok();
    };
    let outcome = session.dispatch(&shared.db, sql);
    conn_waits.merge(&wait::take_thread());
    respond(stream, outcome)
}

fn run_prepared(
    shared: &Arc<Shared>,
    stream: &mut TcpStream,
    session: &mut Session,
    conn_waits: &mut WaitSet,
    name: &str,
    params: &[Value],
) -> bool {
    let Some(_permit) = shared.gate.admit_statement() else {
        return send(
            stream,
            FrameKind::Rejected,
            protocol::encode_rejected(true, "admission queue timeout"),
        )
        .is_ok();
    };
    let outcome = session.execute_prepared(&shared.db, name, params);
    conn_waits.merge(&wait::take_thread());
    respond(stream, outcome)
}

fn respond(stream: &mut TcpStream, outcome: Result<QueryResult>) -> bool {
    match outcome {
        Ok(r) => send(stream, FrameKind::Result, protocol::encode_result(&r)).is_ok(),
        Err(e) => send_error(stream, &e).is_ok(),
    }
}

fn control_loop(shared: &Arc<Shared>, tick: Duration) {
    loop {
        // ordering: Relaxed — one-way latch, see accept_loop
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        std::thread::sleep(tick);
        // fold knob state into the gate: a DBA's SET lands here
        shared.gate.set_limits(limits_from_knobs(&shared.db.knobs));
    }
}
