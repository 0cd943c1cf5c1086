//! The wire driver: set-up, two closed-loop clients, sliced measurement.
//!
//! The server runs in-process with `ServerConfig::default()` and default
//! knobs (tuner on); clients reach it over loopback TCP with
//! `aimdb_server::Client`, one connection per client thread, and send
//! the next statement only after the previous reply arrived. The client
//! count is fixed at [`CLIENTS`] and never scaled with the host.
//!
//! A run is warm-up (discarded) followed by [`SLICES`] back-to-back
//! slices on the same server. Every timing metric is later taken per
//! slice and reported as the median over slices.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use aimdb_common::{wait, WaitSet};
use aimdb_engine::exec::{OpKey, OpStats};
use aimdb_engine::{Database, QueryResult};
use aimdb_server::admission::AdmissionStats;
use aimdb_server::{protocol, Client, Outcome, Server, ServerConfig};
use aimdb_storage::{BufferStats, Disk, PageStore};

use crate::spans::{Recorder, SpanId, NO_SPAN};
use crate::store::{CountingStore, StoreCounts};
use crate::workload::{ClientState, Conn, LoadInfo, OpDone, Req, StmtError, Workload};

pub const CLIENTS: usize = 2;
pub const SLICES: usize = 5;
/// Times a shed statement is sent again before its op counts as failed
/// (each shed has already waited out the gate's 100 ms queue timeout).
const SHED_RESENDS: usize = 50;
/// Span buffer per client thread (40 bytes each, allocated up front).
const SPAN_CAP: usize = 600_000;

/// One set-up, serving.
pub struct Live {
    pub db: Arc<Database>,
    pub disk: Arc<Disk>,
    /// Present in traced runs: the database sits on it.
    pub counting: Option<Arc<CountingStore>>,
    pub server: Server,
    pub load: LoadInfo,
    pub conns: Vec<WireConn>,
}

/// A cold set-up: fresh database, DDL, seeded load, `ANALYZE`, models,
/// `Server::start`, connect, `Parse`. Returns it with its duration.
pub fn set_up(w: &dyn Workload, counted: bool, epoch: Instant) -> Result<(Live, f64), String> {
    let t0 = Instant::now();
    let disk = Arc::new(Disk::new());
    let counting = counted.then(|| Arc::new(CountingStore::new(Arc::clone(&disk))));
    let store: Arc<dyn PageStore> = match &counting {
        Some(c) => Arc::clone(c) as Arc<dyn PageStore>,
        None => Arc::clone(&disk) as Arc<dyn PageStore>,
    };
    let db = Arc::new(Database::with_store(store));
    let load = w.load(&db)?;
    let server = Server::start(Arc::clone(&db), ServerConfig::default())
        .map_err(|e| format!("server start: {e}"))?;
    let mut conns = Vec::with_capacity(CLIENTS);
    for i in 0..CLIENTS {
        let mut client =
            Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        for p in w.prepared() {
            client
                .parse(p.name, p.sql)
                .map_err(|e| format!("parse {}: {e}", p.name))?;
        }
        conns.push(WireConn::new(client, &format!("client{i}"), epoch));
    }
    let live = Live {
        db,
        disk,
        counting,
        server,
        load,
        conns,
    };
    Ok((live, t0.elapsed().as_secs_f64()))
}

/// A client connection with statement accounting and (when on) spans:
/// `op → attempt → stmt → {client.encode, client.roundtrip, client.decode}`.
pub struct WireConn {
    client: Client,
    pub rec: Recorder,
    op_id: u64,
    op_span: SpanId,
    attempt_span: SpanId,
    tally: StmtTally,
    attempt_stmts: u64,
}

/// Statement counts a client accumulates; read as per-slice deltas.
#[derive(Debug, Clone, Copy, Default)]
pub struct StmtTally {
    pub stmts: u64,
    /// Statements of attempts that did not commit.
    pub wasted_stmts: u64,
}

impl WireConn {
    fn new(client: Client, thread: &str, epoch: Instant) -> WireConn {
        WireConn {
            client,
            rec: Recorder::new(thread, epoch, SPAN_CAP),
            op_id: 0,
            op_span: NO_SPAN,
            attempt_span: NO_SPAN,
            tally: StmtTally::default(),
            attempt_stmts: 0,
        }
    }

    fn op_begin(&mut self) {
        self.op_id += 1;
        self.attempt_stmts = 0;
        self.op_span = self.rec.open("op", NO_SPAN, self.op_id);
        self.attempt_span = self.rec.open("attempt", self.op_span, self.op_id);
    }

    fn op_end(&mut self, class_name: &'static str, ok: bool) {
        if !ok {
            self.tally.wasted_stmts += self.attempt_stmts;
        }
        self.rec.close(self.attempt_span);
        self.rec.close(self.op_span);
        self.rec.rename(self.op_span, class_name);
    }

    pub fn close(self) -> Recorder {
        let _ = self.client.close();
        self.rec
    }

    /// One send and its reply.
    fn send(&mut self, req: &Req) -> aimdb_common::Result<Outcome> {
        self.tally.stmts += 1;
        self.attempt_stmts += 1;
        let send = |client: &mut Client| match req {
            Req::Query(sql) => client.query(sql),
            Req::Execute { name, params } => client.execute(name, params),
        };
        if self.rec.on {
            let stmt = self.rec.open("stmt", self.attempt_span, self.op_id);
            // `Client` does not expose its phases, so encode and decode
            // are timed by calling the same public protocol functions
            // once more beside the call; the round trip contains both.
            let id = self.rec.open("client.encode", stmt, self.op_id);
            match req {
                Req::Query(sql) => {
                    black_box(sql.as_bytes().to_vec());
                }
                Req::Execute { name, params } => {
                    black_box(protocol::encode_execute(name, params));
                }
            }
            self.rec.close(id);
            let id = self.rec.open("client.roundtrip", stmt, self.op_id);
            let outcome = send(&mut self.client);
            self.rec.close(id);
            if let Ok(Outcome::Ok(_, bytes)) = &outcome {
                let id = self.rec.open("client.decode", stmt, self.op_id);
                let _ = black_box(protocol::decode_result(bytes));
                self.rec.close(id);
            }
            self.rec.close(stmt);
            outcome
        } else {
            send(&mut self.client)
        }
    }
}

impl Conn for WireConn {
    /// A shed statement is back-pressure, not an answer: it is sent again
    /// at once, up to [`SHED_RESENDS`] times, and the wait shows in the
    /// op's latency. Shedding happens before dispatch, so resending is
    /// safe inside a transaction too.
    fn stmt(&mut self, req: &Req) -> Result<QueryResult, StmtError> {
        for _ in 0..=SHED_RESENDS {
            match self.send(req) {
                Ok(Outcome::Ok(result, _)) => return Ok(result),
                Ok(Outcome::Shed(_)) => {}
                Err(e) => return Err(StmtError::Db(e)),
            }
        }
        Err(StmtError::Shed)
    }

    fn retry(&mut self) {
        self.tally.wasted_stmts += self.attempt_stmts;
        self.attempt_stmts = 0;
        self.rec.close(self.attempt_span);
        self.attempt_span = self.rec.open("attempt", self.op_span, self.op_id);
    }
}

/// Warm-up and slice lengths, and which slices record spans and counters.
#[derive(Debug, Clone)]
pub struct Timing {
    pub warmup: Duration,
    pub slice: Duration,
    /// One flag per slice.
    pub traced: Vec<bool>,
}

impl Timing {
    /// Untraced: [`SLICES`] slices, every one feeding the end-to-end
    /// metrics.
    pub fn timed(seconds: f64) -> Timing {
        Timing {
            warmup: Duration::from_secs_f64(seconds / 10.0),
            slice: Duration::from_secs_f64(seconds / SLICES as f64),
            traced: vec![false; SLICES],
        }
    }

    /// Traced: the same window cut into an odd number of slices of about
    /// a second, untraced and traced in turn (U T U … T U). Both kinds
    /// are then centred on the same point of the run, so a drift that is
    /// linear in time cancels out of their comparison, and a stall of a
    /// second or two hits both.
    pub fn traced(seconds: f64) -> Timing {
        let n = (seconds.round() as usize).max(SLICES) | 1;
        Timing {
            warmup: Duration::from_secs_f64(seconds / 10.0),
            slice: Duration::from_secs_f64(seconds / n as f64),
            traced: (0..n).map(|i| i % 2 == 1).collect(),
        }
    }

    fn slice_at(&self, since_start: Duration) -> Phase {
        match since_start.checked_sub(self.warmup) {
            None => Phase::Warmup,
            Some(t) => {
                let i = (t.as_nanos() / self.slice.as_nanos()) as usize;
                if i < self.traced.len() {
                    Phase::Slice(i)
                } else {
                    Phase::Done
                }
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Warmup,
    Slice(usize),
    Done,
}

/// What one client saw in one slice. Ops belong to the slice they
/// complete in.
#[derive(Debug, Clone, Default)]
pub struct ClientSlice {
    /// Latency of every attempted op, by class, in nanoseconds.
    pub lat_ns: Vec<Vec<u64>>,
    pub ok: u64,
    pub failed: u64,
    pub tally: StmtTally,
}

/// Public counters of every layer, read at a slice boundary.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub waits: WaitSet,
    pub buffer: BufferStats,
    pub store: StoreCounts,
    pub wal_records: usize,
    pub wal_flushes: u64,
    pub commits: u64,
    pub rows_emitted: u64,
    pub admission: AdmissionStats,
    pub operators: Vec<(OpKey, OpStats)>,
}

impl Counters {
    pub fn read(live: &Live) -> Counters {
        let kpi = live.db.kpis();
        Counters {
            waits: wait::global_totals(),
            buffer: live.db.buffer_pool().stats(),
            store: live
                .counting
                .as_ref()
                .map(|c| c.counts())
                .unwrap_or_default(),
            wal_records: live.db.wal.len(),
            wal_flushes: live.db.wal.flush_count(),
            commits: kpi.txns_committed,
            rows_emitted: kpi.rows_emitted,
            admission: live.server.admission_stats(),
            operators: live.db.metrics.operator_stats(),
        }
    }
}

pub struct RunData {
    /// `[client][slice]`.
    pub clients: Vec<Vec<ClientSlice>>,
    /// Counters at the start and end of each slice (traced runs only;
    /// empty otherwise).
    pub counters: Vec<(Counters, Counters)>,
}

/// Warm-up plus the slices of `timing`, with both clients running.
pub fn run(
    live: &mut Live,
    w: &dyn Workload,
    states: &mut [Box<dyn ClientState>],
    timing: &Timing,
) -> Result<RunData, String> {
    let classes = w.classes();
    let start = Instant::now();
    let mut conns = std::mem::take(&mut live.conns);
    let live_ref: &Live = live;
    let counted = timing.traced.iter().any(|t| *t);

    let (clients, counters) = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(states.iter_mut())
            .map(|(conn, state)| {
                scope.spawn(move || client_loop(conn, state.as_mut(), classes, start, timing))
            })
            .collect();

        // The main thread only watches the clock: at each slice boundary
        // of a traced run it reads the counters and switches the store's
        // counting to match the slice.
        let mut counters = Vec::new();
        if counted {
            for (i, traced) in timing.traced.iter().enumerate() {
                sleep_until(start + timing.warmup + timing.slice * i as u32);
                if let Some(c) = &live_ref.counting {
                    c.set_counting(*traced);
                }
                let before = Counters::read(live_ref);
                sleep_until(start + timing.warmup + timing.slice * (i as u32 + 1));
                counters.push((before, Counters::read(live_ref)));
            }
            if let Some(c) = &live_ref.counting {
                c.set_counting(false);
            }
        }

        let clients: Result<Vec<_>, String> = handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string())?)
            .collect();
        (clients, counters)
    });
    live.conns = conns;
    Ok(RunData {
        clients: clients?,
        counters,
    })
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

fn client_loop(
    conn: &mut WireConn,
    state: &mut dyn ClientState,
    classes: &'static [&'static str],
    start: Instant,
    timing: &Timing,
) -> Result<Vec<ClientSlice>, String> {
    let mut slices: Vec<ClientSlice> = (0..timing.traced.len())
        .map(|_| ClientSlice {
            lat_ns: vec![Vec::new(); classes.len()],
            ..ClientSlice::default()
        })
        .collect();
    let mut tally_at_slice_start = conn.tally;
    let mut current = Phase::Warmup;
    loop {
        let t0 = Instant::now();
        let phase = timing.slice_at(t0 - start);
        if phase != current {
            if let Phase::Slice(i) = current {
                slices[i].tally = delta(conn.tally, tally_at_slice_start);
            }
            tally_at_slice_start = conn.tally;
            current = phase;
        }
        if phase == Phase::Done {
            break;
        }
        conn.rec.on = matches!(phase, Phase::Slice(i) if timing.traced[i]);
        conn.op_begin();
        let OpDone { class, ok } = state.next_op(conn)?;
        conn.op_end(classes[class], ok);
        let t1 = Instant::now();
        if let Phase::Slice(i) = timing.slice_at(t1 - start) {
            let s = &mut slices[i];
            s.lat_ns[class].push((t1 - t0).as_nanos() as u64);
            if ok {
                s.ok += 1;
            } else {
                s.failed += 1;
            }
        }
    }
    conn.rec.on = false;
    Ok(slices)
}

fn delta(now: StmtTally, then: StmtTally) -> StmtTally {
    StmtTally {
        stmts: now.stmts - then.stmts,
        wasted_stmts: now.wasted_stmts - then.wasted_stmts,
    }
}
