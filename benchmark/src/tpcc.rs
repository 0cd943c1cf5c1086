//! TPC-C-like tables and the two workloads that use them.
//!
//! Ported from `crates/bench/src/tpcc.rs` (not imported: that crate's
//! generators are free to change). Surrogate integer keys make every
//! lookup a single-column probe (`d_key = w·10 + d`,
//! `c_key = d_key·100 + c`, `s_key = w·1000 + i`,
//! `o_key = d_key·1e6 + o_id`); money is integer cents so the
//! conservation invariants are exact.
//!
//! - [`PointRead`]: single-row reads by key, checked row by row against
//!   the generated data.
//! - [`OltpMix`]: `new_order` / `payment` / `order_status` /
//!   `stock_level` wire transactions, checked by the TPC-C consistency
//!   conditions and by counting acknowledged commits.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use aimdb_common::Value;
use aimdb_engine::{Database, QueryResult};
use rand::{Rng, SeedableRng, StdRng};

use crate::workload::{
    cell_i64, int_rows, int_scalar, ClientState, Conn, LoadInfo, Loader, OpDone, PreparedSql, Req,
    StmtError, Workload,
};

// 4 warehouses: 1 + 40 + 4 000 + 1 000 + 4 000 + 400 + ~3 200 rows,
// 181 pages — inside the 256-page buffer pool.
const WAREHOUSES: i64 = 4;
const DISTRICTS_PER_WH: i64 = 10;
const CUSTOMERS_PER_DISTRICT: i64 = 100;
const ITEMS: i64 = 1000;
const INITIAL_ORDERS_PER_DISTRICT: i64 = 10;
const ORDER_STRIDE: i64 = 1_000_000;
const DISTRICTS: i64 = WAREHOUSES * DISTRICTS_PER_WH;

const DDL: &[&str] = &[
    "CREATE TABLE warehouse (w_id INT, w_ytd INT)",
    "CREATE TABLE district (d_key INT, d_w INT, d_id INT, d_next_o_id INT, d_ytd INT)",
    "CREATE INDEX d_key_idx ON district (d_key)",
    "CREATE TABLE customer (c_key INT, c_w INT, c_d INT, c_balance INT, \
     c_ytd_payment INT, c_payment_cnt INT, c_delivery_cnt INT)",
    "CREATE INDEX c_key_idx ON customer (c_key)",
    "CREATE TABLE item (i_id INT, i_price INT)",
    "CREATE INDEX i_id_idx ON item (i_id)",
    "CREATE TABLE stock (s_key INT, s_w INT, s_i INT, s_quantity INT, s_ytd INT, s_order_cnt INT)",
    "CREATE INDEX s_key_idx ON stock (s_key)",
    "CREATE TABLE orders (o_key INT, o_d_key INT, o_id INT, o_c_key INT, o_ol_cnt INT, o_carrier INT)",
    "CREATE INDEX o_key_idx ON orders (o_key)",
    "CREATE INDEX o_d_key_idx ON orders (o_d_key)",
    "CREATE TABLE order_line (ol_o_key INT, ol_num INT, ol_i_id INT, ol_qty INT, ol_amount INT)",
    "CREATE INDEX ol_o_key_idx ON order_line (ol_o_key)",
];

type Rows = Vec<Vec<Value>>;

/// The generated initial database; it satisfies every invariant in
/// [`check_invariants`]. Doubles as `point_read`'s shadow.
struct TpccData {
    warehouse: Rows,
    item: Rows,
    district: Rows,
    customer: Rows,
    orders: Rows,
    order_line: Rows,
    stock: Rows,
}

fn ints(vals: &[i64]) -> Vec<Value> {
    vals.iter().map(|&v| Value::Int(v)).collect()
}

impl TpccData {
    fn generate(seed: u64) -> TpccData {
        let mut rng = StdRng::seed_from_u64(seed);
        let warehouse = (0..WAREHOUSES).map(|w| ints(&[w, 0])).collect();
        let item = (0..ITEMS)
            .map(|i| ints(&[i, rng.gen_range(100i64..10_000)]))
            .collect();
        let mut district = Rows::new();
        let mut customer = Rows::new();
        for dk in 0..DISTRICTS {
            let (w, d) = (dk / DISTRICTS_PER_WH, dk % DISTRICTS_PER_WH);
            district.push(ints(&[dk, w, d, INITIAL_ORDERS_PER_DISTRICT + 1, 0]));
            for c in 0..CUSTOMERS_PER_DISTRICT {
                customer.push(ints(&[dk * CUSTOMERS_PER_DISTRICT + c, w, d, 0, 0, 0, 0]));
            }
        }
        // Initial orders, their lines, and the stock movement they imply.
        let mut stock_ytd = vec![0i64; (WAREHOUSES * ITEMS) as usize];
        let mut stock_cnt = vec![0i64; (WAREHOUSES * ITEMS) as usize];
        let mut orders = Rows::new();
        let mut order_line = Rows::new();
        for dk in 0..DISTRICTS {
            let w = dk / DISTRICTS_PER_WH;
            for o_id in 1..=INITIAL_ORDERS_PER_DISTRICT {
                let o_key = dk * ORDER_STRIDE + o_id;
                let c = rng.gen_range(0..CUSTOMERS_PER_DISTRICT);
                let ol_cnt = rng.gen_range(5i64..12);
                let carrier = rng.gen_range(1i64..10);
                orders.push(ints(&[
                    o_key,
                    dk,
                    o_id,
                    dk * CUSTOMERS_PER_DISTRICT + c,
                    ol_cnt,
                    carrier,
                ]));
                for n in 0..ol_cnt {
                    let item = rng.gen_range(0..ITEMS);
                    let qty = rng.gen_range(1i64..10);
                    let amount = qty * rng.gen_range(100i64..10_000);
                    stock_ytd[(w * ITEMS + item) as usize] += qty;
                    stock_cnt[(w * ITEMS + item) as usize] += 1;
                    order_line.push(ints(&[o_key, n, item, qty, amount]));
                }
            }
        }
        let stock = (0..WAREHOUSES * ITEMS)
            .map(|sk| {
                ints(&[
                    sk,
                    sk / ITEMS,
                    sk % ITEMS,
                    rng.gen_range(50i64..150),
                    stock_ytd[sk as usize],
                    stock_cnt[sk as usize],
                ])
            })
            .collect();
        TpccData {
            warehouse,
            item,
            district,
            customer,
            orders,
            order_line,
            stock,
        }
    }

    fn load(&self, db: &Database) -> Result<LoadInfo, String> {
        let mut loader = Loader::new(db, 2000);
        loader.ddl(DDL)?;
        loader.insert("warehouse", self.warehouse.clone())?;
        loader.insert("item", self.item.clone())?;
        loader.insert("district", self.district.clone())?;
        loader.insert("customer", self.customer.clone())?;
        loader.insert("orders", self.orders.clone())?;
        loader.insert("order_line", self.order_line.clone())?;
        loader.insert("stock", self.stock.clone())?;
        db.execute("ANALYZE").map_err(|e| format!("analyze: {e}"))?;
        Ok(LoadInfo {
            user_bytes: loader.user_bytes,
            train_ms: 0.0,
        })
    }
}

fn client_rng(seed: u64, client: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (0xA11CE + client as u64 * 0x9E37_79B9))
}

// ---------------------------------------------------------------- point_read

pub struct PointRead {
    seed: u64,
    data: Arc<TpccData>,
}

impl PointRead {
    pub fn new(seed: u64) -> PointRead {
        PointRead {
            seed,
            data: Arc::new(TpccData::generate(seed)),
        }
    }
}

const POINT_CLASSES: &[&str] = &["customer_by_key", "district_by_key", "stock_by_key"];

const POINT_SQL: [&str; 3] = [
    "SELECT c_key, c_w, c_d, c_balance, c_ytd_payment, c_payment_cnt, c_delivery_cnt \
     FROM customer WHERE c_key = ",
    "SELECT d_key, d_w, d_id, d_next_o_id, d_ytd FROM district WHERE d_key = ",
    "SELECT s_key, s_w, s_i, s_quantity, s_ytd, s_order_cnt FROM stock WHERE s_key = ",
];

const POINT_PREPARED: &[PreparedSql] = &[
    PreparedSql {
        name: "customer_by_key",
        sql: "SELECT c_key, c_w, c_d, c_balance, c_ytd_payment, c_payment_cnt, c_delivery_cnt \
              FROM customer WHERE c_key = ?",
    },
    PreparedSql {
        name: "district_by_key",
        sql: "SELECT d_key, d_w, d_id, d_next_o_id, d_ytd FROM district WHERE d_key = ?",
    },
    PreparedSql {
        name: "stock_by_key",
        sql: "SELECT s_key, s_w, s_i, s_quantity, s_ytd, s_order_cnt FROM stock WHERE s_key = ?",
    },
];

impl Workload for PointRead {
    fn name(&self) -> &'static str {
        "point_read"
    }
    fn classes(&self) -> &'static [&'static str] {
        POINT_CLASSES
    }
    fn read_only(&self) -> bool {
        true
    }
    fn prepared(&self) -> &'static [PreparedSql] {
        POINT_PREPARED
    }
    fn load(&self, db: &Database) -> Result<LoadInfo, String> {
        self.data.load(db)
    }
    fn client(&self, client: usize) -> Box<dyn ClientState> {
        Box::new(PointReadClient {
            rng: client_rng(self.seed, client),
            data: Arc::clone(&self.data),
        })
    }
}

struct PointReadClient {
    rng: StdRng,
    data: Arc<TpccData>,
}

impl ClientState for PointReadClient {
    fn next_op(&mut self, conn: &mut dyn Conn) -> Result<OpDone, String> {
        let pick = self.rng.gen_range(0u32..100);
        let (class, table) = if pick < 60 {
            (0, &self.data.customer)
        } else if pick < 85 {
            (1, &self.data.district)
        } else {
            (2, &self.data.stock)
        };
        // keys are dense, so the key is the row's index in the shadow
        let key = self.rng.gen_range(0..table.len() as i64);
        let req = if self.rng.gen_bool(0.5) {
            Req::Query(format!("{}{key}", POINT_SQL[class]))
        } else {
            Req::Execute {
                name: POINT_CLASSES[class],
                params: vec![Value::Int(key)],
            }
        };
        let result = match conn.stmt(&req) {
            Ok(r) => r,
            Err(_) => return Ok(OpDone { class, ok: false }),
        };
        let rows = result.rows();
        if rows.len() != 1 || rows[0].values() != table[key as usize].as_slice() {
            return Err(format!(
                "point_read: {} key {key} returned {:?}, loaded {:?}",
                POINT_CLASSES[class], rows, table[key as usize]
            ));
        }
        Ok(OpDone { class, ok: true })
    }
}

// ------------------------------------------------------------------ oltp_mix

/// Zipfian sampler over `0..n` with a precomputed CDF (`theta = 0` is
/// uniform; larger values concentrate on low indices).
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, theta: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        for v in &mut cdf {
            *v /= acc;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen_range(0.0f64..1.0);
        self.cdf.partition_point(|p| *p < u).min(self.cdf.len() - 1)
    }
}

/// Retries after the first attempt before an op counts as failed. The
/// policy is deliberately naive and fixed: on a retryable error send
/// `ROLLBACK` and try again at once. The budget is large because a loser
/// can spin for as long as the winner is held up (64 retries, about
/// 80 ms, were seen to run out a few times per run); it only has to end
/// a true livelock.
const MAX_RETRIES: usize = 1000;
const ZIPF_THETA: f64 = 0.4;

/// Commits the server acknowledged, across all clients and the probe.
#[derive(Default)]
struct Acked {
    payments: AtomicU64,
    new_orders: AtomicU64,
}

pub struct OltpMix {
    seed: u64,
    data: Arc<TpccData>,
    acked: Arc<Acked>,
}

impl OltpMix {
    pub fn new(seed: u64) -> OltpMix {
        OltpMix {
            seed,
            data: Arc::new(TpccData::generate(seed)),
            acked: Arc::new(Acked::default()),
        }
    }
}

const OLTP_CLASSES: &[&str] = &["new_order", "payment", "order_status", "stock_level"];

impl Workload for OltpMix {
    fn name(&self) -> &'static str {
        "oltp_mix"
    }
    fn classes(&self) -> &'static [&'static str] {
        OLTP_CLASSES
    }
    fn read_only(&self) -> bool {
        false
    }
    fn load(&self, db: &Database) -> Result<LoadInfo, String> {
        self.data.load(db)
    }
    fn client(&self, client: usize) -> Box<dyn ClientState> {
        Box::new(OltpClient {
            rng: client_rng(self.seed, client),
            zipf: Zipf::new(DISTRICTS as usize, ZIPF_THETA),
            acked: Arc::clone(&self.acked),
        })
    }

    /// The TPC-C consistency conditions, plus: every acknowledged
    /// `payment` raised one `c_payment_cnt` and every acknowledged
    /// `new_order` raised one `d_next_o_id` — no more (a phantom commit)
    /// and no fewer (a lost one).
    fn check(&self, db: &Database) -> Result<(), String> {
        check_invariants(db)?;
        // ordering: Relaxed — read after every client thread was joined
        let payments = self.acked.payments.load(Ordering::Relaxed) as i64;
        let new_orders = self.acked.new_orders.load(Ordering::Relaxed) as i64;
        let paid = int_scalar(db, "SELECT SUM(c_payment_cnt) FROM customer")?;
        if paid != payments {
            return Err(format!(
                "oltp_mix: {payments} payments acknowledged, customers record {paid}"
            ));
        }
        let next = int_scalar(db, "SELECT SUM(d_next_o_id) FROM district")?;
        let ordered = next - DISTRICTS * (INITIAL_ORDERS_PER_DISTRICT + 1);
        if ordered != new_orders {
            return Err(format!(
                "oltp_mix: {new_orders} new_orders acknowledged, districts record {ordered}"
            ));
        }
        Ok(())
    }

    fn grown_bytes(&self, db: &Database) -> Result<u64, String> {
        let orders = int_scalar(db, "SELECT COUNT(*) FROM orders")? as u64;
        let lines = int_scalar(db, "SELECT COUNT(*) FROM order_line")? as u64;
        let grown = (orders - self.data.orders.len() as u64) * 6 * 8
            + (lines - self.data.order_line.len() as u64) * 5 * 8;
        Ok(grown)
    }
}

struct OltpClient {
    rng: StdRng,
    zipf: Zipf,
    acked: Arc<Acked>,
}

/// How one attempt at a transaction body ended.
enum Attempt {
    Committed,
    /// Lost a first-updater-wins race; `open` says whether the session
    /// still holds the transaction (false when `COMMIT` itself failed).
    Conflict {
        open: bool,
    },
    /// Shed or a non-retryable error: the op fails without retry.
    Failed {
        open: bool,
    },
}

/// Why a transaction body stopped early.
enum BodyError {
    Stmt(StmtError),
    /// The database answered, wrongly: aborts the run.
    Wrong(String),
}

impl From<StmtError> for BodyError {
    fn from(e: StmtError) -> BodyError {
        BodyError::Stmt(e)
    }
}

type Body<'a> = dyn FnMut(&mut dyn Conn) -> Result<(), BodyError> + 'a;

fn q(conn: &mut dyn Conn, sql: String) -> Result<QueryResult, StmtError> {
    conn.stmt(&Req::Query(sql))
}

/// Run `body` between `BEGIN` and `COMMIT`, classifying the first error.
fn attempt(conn: &mut dyn Conn, body: &mut Body<'_>) -> Result<Attempt, String> {
    let classify = |e: StmtError, open: bool| match e {
        StmtError::Db(e) if e.is_retryable() => Attempt::Conflict { open },
        _ => Attempt::Failed { open },
    };
    if let Err(e) = q(conn, "BEGIN".into()) {
        return Ok(classify(e, false));
    }
    match body(conn) {
        Ok(()) => {}
        Err(BodyError::Wrong(wrong)) => return Err(wrong),
        Err(BodyError::Stmt(e)) => return Ok(classify(e, true)),
    }
    match q(conn, "COMMIT".into()) {
        Ok(_) => Ok(Attempt::Committed),
        Err(e) => Ok(classify(e, false)),
    }
}

/// Naive client retry loop around [`attempt`]. Returns whether the
/// transaction committed.
fn transact(conn: &mut dyn Conn, body: &mut Body<'_>) -> Result<bool, String> {
    for tries in 0..=MAX_RETRIES {
        if tries > 0 {
            conn.retry();
        }
        match attempt(conn, body)? {
            Attempt::Committed => return Ok(true),
            Attempt::Conflict { open } => {
                if open {
                    // reply ignored: the session may already be clean
                    let _ = q(conn, "ROLLBACK".into());
                }
            }
            Attempt::Failed { open } => {
                if open {
                    let _ = q(conn, "ROLLBACK".into());
                }
                return Ok(false);
            }
        }
    }
    Ok(false)
}

/// The single integer a lookup must return.
fn scalar_i64(r: &QueryResult, what: &str) -> Result<i64, BodyError> {
    r.scalar()
        .ok()
        .and_then(cell_i64)
        .ok_or_else(|| BodyError::Wrong(format!("{what}: expected one integer, got {r:?}")))
}

/// Allocate the next order id from the district (the serialization
/// point), update the stock rows the lines consume, insert the order and
/// its lines.
fn new_order_body(
    conn: &mut dyn Conn,
    w: i64,
    dk: i64,
    ck: i64,
    lines: &[(i64, i64)],
) -> Result<(), BodyError> {
    let r = q(
        conn,
        format!("SELECT d_next_o_id FROM district WHERE d_key = {dk}"),
    )?;
    let o_id = scalar_i64(&r, "new_order d_next_o_id")?;
    q(
        conn,
        format!(
            "UPDATE district SET d_next_o_id = {} WHERE d_key = {dk}",
            o_id + 1
        ),
    )?;
    let o_key = dk * ORDER_STRIDE + o_id;
    let mut line_rows = Vec::with_capacity(lines.len());
    for (n, &(item, qty)) in lines.iter().enumerate() {
        let r = q(
            conn,
            format!("SELECT i_price FROM item WHERE i_id = {item}"),
        )?;
        let price = scalar_i64(&r, "new_order i_price")?;
        q(
            conn,
            format!(
                "UPDATE stock SET s_quantity = s_quantity - {qty}, s_ytd = s_ytd + {qty}, \
                 s_order_cnt = s_order_cnt + 1 WHERE s_key = {}",
                w * ITEMS + item
            ),
        )?;
        line_rows.push(format!("({o_key}, {n}, {item}, {qty}, {})", qty * price));
    }
    q(
        conn,
        format!(
            "INSERT INTO orders VALUES ({o_key}, {dk}, {o_id}, {ck}, {}, 0)",
            lines.len()
        ),
    )?;
    q(
        conn,
        format!("INSERT INTO order_line VALUES {}", line_rows.join(",")),
    )?;
    Ok(())
}

/// Warehouse, district and customer move together, so year-to-date money
/// is conserved.
fn payment_body(
    conn: &mut dyn Conn,
    w: i64,
    dk: i64,
    ck: i64,
    amount: i64,
) -> Result<(), BodyError> {
    q(
        conn,
        format!("UPDATE warehouse SET w_ytd = w_ytd + {amount} WHERE w_id = {w}"),
    )?;
    q(
        conn,
        format!("UPDATE district SET d_ytd = d_ytd + {amount} WHERE d_key = {dk}"),
    )?;
    q(
        conn,
        format!(
            "UPDATE customer SET c_balance = c_balance - {amount}, \
             c_ytd_payment = c_ytd_payment + {amount}, \
             c_payment_cnt = c_payment_cnt + 1 WHERE c_key = {ck}"
        ),
    )?;
    Ok(())
}

/// The district's latest order and its lines under one snapshot.
fn order_status_body(conn: &mut dyn Conn, dk: i64) -> Result<(), BodyError> {
    let r = q(
        conn,
        format!("SELECT MAX(o_id) FROM orders WHERE o_d_key = {dk}"),
    )?;
    let o_id = scalar_i64(&r, "order_status MAX(o_id)")?;
    let r = q(
        conn,
        format!(
            "SELECT COUNT(*), SUM(ol_amount) FROM order_line WHERE ol_o_key = {}",
            dk * ORDER_STRIDE + o_id
        ),
    )?;
    // an order is never visible without its lines
    match r.rows().first().map(|row| cell_i64(row.get(0))) {
        Some(Some(n)) if n >= 3 => Ok(()),
        other => Err(BodyError::Wrong(format!(
            "order_status: order {o_id} of district {dk} shows line count {other:?}"
        ))),
    }
}

impl ClientState for OltpClient {
    fn next_op(&mut self, conn: &mut dyn Conn) -> Result<OpDone, String> {
        let dk = self.zipf.sample(&mut self.rng) as i64;
        let w = dk / DISTRICTS_PER_WH;
        let ck = dk * CUSTOMERS_PER_DISTRICT + self.rng.gen_range(0..CUSTOMERS_PER_DISTRICT);
        let pick = self.rng.gen_range(0u32..100);
        // parameters are drawn once per op, so retries resend the same
        // transaction and the stream depends on the seed alone
        if pick < 45 {
            let n = self.rng.gen_range(3usize..9);
            let lines: Vec<(i64, i64)> = (0..n)
                .map(|_| (self.rng.gen_range(0..ITEMS), self.rng.gen_range(1i64..10)))
                .collect();
            let ok = transact(conn, &mut |c| new_order_body(c, w, dk, ck, &lines))?;
            if ok {
                // ordering: Relaxed — a tally read only after join
                self.acked.new_orders.fetch_add(1, Ordering::Relaxed);
            }
            Ok(OpDone { class: 0, ok })
        } else if pick < 88 {
            let amount = self.rng.gen_range(1i64..5000);
            let ok = transact(conn, &mut |c| payment_body(c, w, dk, ck, amount))?;
            if ok {
                // ordering: Relaxed — a tally read only after join
                self.acked.payments.fetch_add(1, Ordering::Relaxed);
            }
            Ok(OpDone { class: 1, ok })
        } else if pick < 94 {
            let ok = transact(conn, &mut |c| order_status_body(c, dk))?;
            Ok(OpDone { class: 2, ok })
        } else {
            // single autocommit statement: its own transaction
            let threshold = self.rng.gen_range(10i64..80);
            let ok = q(
                conn,
                format!("SELECT COUNT(*) FROM stock WHERE s_w = {w} AND s_quantity < {threshold}"),
            )
            .is_ok();
            Ok(OpDone { class: 3, ok })
        }
    }

    fn aborted_op(&mut self, conn: &mut dyn Conn) -> Result<(), String> {
        let dk = self.zipf.sample(&mut self.rng) as i64;
        let ck = dk * CUSTOMERS_PER_DISTRICT + self.rng.gen_range(0..CUSTOMERS_PER_DISTRICT);
        let amount = self.rng.gen_range(1i64..5000);
        let run = |conn: &mut dyn Conn| -> Result<(), BodyError> {
            q(conn, "BEGIN".into())?;
            payment_body(conn, dk / DISTRICTS_PER_WH, dk, ck, amount)?;
            q(conn, "ROLLBACK".into())?;
            Ok(())
        };
        match run(conn) {
            Ok(()) => Ok(()),
            Err(BodyError::Wrong(wrong)) => Err(wrong),
            Err(BodyError::Stmt(e)) => Err(format!("aborted payment failed: {e:?}")),
        }
    }
}

/// TPC-C-style consistency conditions. Every transaction in the mix
/// maintains them atomically, so they hold on any committed state — live
/// or recovered.
fn check_invariants(db: &Database) -> Result<(), String> {
    // C1: per warehouse, w_ytd == Σ d_ytd of its districts.
    let w_ytd = int_rows(db, "SELECT w_id, w_ytd FROM warehouse ORDER BY w_id")?;
    let d_ytd = int_rows(
        db,
        "SELECT d_w, SUM(d_ytd) FROM district GROUP BY d_w ORDER BY d_w",
    )?;
    if w_ytd.len() != WAREHOUSES as usize || d_ytd != w_ytd {
        return Err(format!(
            "C1: warehouses {w_ytd:?} but their districts sum to {d_ytd:?}"
        ));
    }

    // C2: payments conserve money: Σ c_ytd_payment == Σ w_ytd.
    let paid = int_scalar(db, "SELECT SUM(c_ytd_payment) FROM customer")?;
    let earned = int_scalar(db, "SELECT SUM(w_ytd) FROM warehouse")?;
    if paid != earned {
        return Err(format!(
            "C2: customers paid {paid}, warehouses hold {earned}"
        ));
    }

    // C3: per district, d_next_o_id - 1 == COUNT(orders) == MAX(o_id), and
    // the district's order lines match Σ o_ol_cnt.
    for d in int_rows(db, "SELECT d_key, d_next_o_id FROM district ORDER BY d_key")? {
        let (dk, next) = (d[0], d[1]);
        let agg = int_rows(
            db,
            &format!("SELECT COUNT(*), MAX(o_id), SUM(o_ol_cnt) FROM orders WHERE o_d_key = {dk}"),
        )?;
        let (cnt, max_id, ol_sum) = match agg.first() {
            Some(r) if r.len() == 3 => (r[0], r[1], r[2]),
            _ => return Err(format!("C3: bad aggregate shape for district {dk}")),
        };
        if cnt != next - 1 || max_id != next - 1 {
            return Err(format!(
                "C3: district {dk} has d_next_o_id {next} but {cnt} orders (max o_id {max_id})"
            ));
        }
        let ol_cnt = int_scalar(
            db,
            &format!(
                "SELECT COUNT(*) FROM order_line WHERE ol_o_key >= {} AND ol_o_key < {}",
                dk * ORDER_STRIDE,
                (dk + 1) * ORDER_STRIDE
            ),
        )?;
        if ol_cnt != ol_sum {
            return Err(format!(
                "C3: district {dk} orders claim {ol_sum} lines but {ol_cnt} exist"
            ));
        }
    }

    // C4: stock movement matches ordered quantity.
    let s_ytd = int_scalar(db, "SELECT SUM(s_ytd) FROM stock")?;
    let ol_qty = int_scalar(db, "SELECT SUM(ol_qty) FROM order_line")?;
    if s_ytd != ol_qty {
        return Err(format!(
            "C4: stock s_ytd sums to {s_ytd}, order lines to {ol_qty}"
        ));
    }
    let s_cnt = int_scalar(db, "SELECT SUM(s_order_cnt) FROM stock")?;
    let ol_n = int_scalar(db, "SELECT COUNT(*) FROM order_line")?;
    if s_cnt != ol_n {
        return Err(format!(
            "C4: stock order_cnt sums to {s_cnt}, {ol_n} order lines exist"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_database_satisfies_its_own_invariants() {
        let w = OltpMix::new(42);
        let db = Database::new();
        w.load(&db).expect("load");
        w.check(&db).expect("fresh load is consistent");
        assert_eq!(w.grown_bytes(&db).expect("count"), 0);
    }

    #[test]
    fn same_seed_same_data_other_seed_other_data() {
        let a = TpccData::generate(7);
        assert_eq!(a.stock, TpccData::generate(7).stock);
        assert_ne!(a.stock, TpccData::generate(8).stock);
    }

    #[test]
    fn zipf_stays_in_range_and_prefers_low_indices() {
        let z = Zipf::new(40, 0.4);
        let mut rng = StdRng::seed_from_u64(1);
        let mut hits = [0u32; 40];
        for _ in 0..20_000 {
            hits[z.sample(&mut rng)] += 1;
        }
        assert!(hits[0] > hits[39] * 2);
        assert!(hits.iter().all(|&h| h > 0));
    }
}
