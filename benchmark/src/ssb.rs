//! `olap_ssb`: an SSB-style star schema and a 12-query family.
//!
//! Ported from `crates/bench/src/tpch.rs`. The star has a second-level
//! dimension (`nation` hangs off `cust`), so the widest query joins six
//! tables:
//!
//! ```text
//!   part ── lineorder ── supp
//!              │ │
//!         dates  cust ── nation
//! ```
//!
//! 60 000 `lineorder` rows are 1 295 pages, 5× the 256-page buffer pool:
//! the workload that does not fit the cache.
//!
//! Oracle: each result is hashed canonically (rows rendered, sorted,
//! FNV-1a) and must hash the same on every execution; for seed 42 the
//! hashes must also equal the golden file committed beside this package.

use std::sync::{Arc, Mutex};

use aimdb_common::{Row, Value};
use aimdb_engine::Database;
use rand::{Rng, SeedableRng, SliceRandom, StdRng};

use crate::workload::{ClientState, Conn, LoadInfo, Loader, OpDone, Req, Workload};

const CUSTOMERS: i64 = 1000;
const PARTS: i64 = 400;
const SUPPLIERS: i64 = 50;
const DATES: i64 = 7 * 12;
const LINEORDERS: i64 = 60_000;
const NATIONS: i64 = 24;
const REGIONS: i64 = 5;
const SEGMENTS: &[&str] = &["AUTO", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"];
const COLORS: &[&str] = &["red", "green", "blue", "ivory", "plum", "steel"];

const DDL: &[&str] = &[
    "CREATE TABLE nation (n_id INT, n_region INT, n_name TEXT)",
    "CREATE TABLE dates (d_id INT, d_year INT, d_month INT)",
    "CREATE INDEX dates_id_idx ON dates (d_id)",
    "CREATE TABLE cust (c_id INT, c_nation INT, c_segment TEXT)",
    "CREATE INDEX cust_id_idx ON cust (c_id)",
    "CREATE TABLE part (p_id INT, p_brand INT, p_category INT, p_color TEXT)",
    "CREATE INDEX part_id_idx ON part (p_id)",
    "CREATE TABLE supp (s_id INT, s_nation INT)",
    "CREATE INDEX supp_id_idx ON supp (s_id)",
    "CREATE TABLE lineorder (lo_id INT, lo_cust INT, lo_part INT, lo_supp INT, \
     lo_date INT, lo_qty INT, lo_price INT, lo_disc INT, lo_rev INT)",
];

/// Golden result hashes for seed 42, one `name hash` pair per line.
const GOLDEN_SEED: u64 = 42;
const GOLDEN: &str = include_str!("../golden/olap_ssb.seed42.txt");

/// The 12 queries: scans, filtered and grouped aggregates, 2–6-way joins,
/// sort/limit top-N. Their names are the op classes.
const QUERIES: [(&str, &str); 12] = [
    (
        "Q1_full_agg",
        "SELECT COUNT(*), SUM(lo_rev), SUM(lo_qty) FROM lineorder",
    ),
    (
        "Q2_filtered_agg",
        "SELECT SUM(lo_rev), AVG(lo_price) FROM lineorder \
         WHERE lo_disc >= 2 AND lo_disc <= 5 AND lo_qty < 25",
    ),
    (
        "Q3_groupby",
        "SELECT lo_disc, COUNT(*), SUM(lo_rev) FROM lineorder \
         GROUP BY lo_disc ORDER BY lo_disc",
    ),
    (
        "Q4_join_dates",
        "SELECT d.d_year, SUM(l.lo_rev) FROM lineorder l \
         JOIN dates d ON l.lo_date = d.d_id \
         GROUP BY d.d_year ORDER BY d.d_year",
    ),
    (
        "Q5_join_supp",
        "SELECT s.s_nation, COUNT(*) FROM lineorder l \
         JOIN supp s ON l.lo_supp = s.s_id \
         WHERE l.lo_qty > 10 GROUP BY s.s_nation ORDER BY s.s_nation",
    ),
    (
        "Q6_join3_segment_year",
        "SELECT c.c_segment, d.d_year, SUM(l.lo_rev) FROM lineorder l \
         JOIN cust c ON l.lo_cust = c.c_id \
         JOIN dates d ON l.lo_date = d.d_id \
         GROUP BY c.c_segment, d.d_year ORDER BY c.c_segment, d.d_year",
    ),
    (
        "Q7_join3_part_supp",
        "SELECT p.p_category, AVG(l.lo_price) FROM lineorder l \
         JOIN part p ON l.lo_part = p.p_id \
         JOIN supp s ON l.lo_supp = s.s_id \
         WHERE s.s_nation < 12 GROUP BY p.p_category ORDER BY p.p_category",
    ),
    (
        "Q8_join4_year",
        "SELECT d.d_year, COUNT(*), SUM(l.lo_rev) FROM lineorder l \
         JOIN cust c ON l.lo_cust = c.c_id \
         JOIN supp s ON l.lo_supp = s.s_id \
         JOIN dates d ON l.lo_date = d.d_id \
         WHERE c.c_segment = 'BUILDING' \
         GROUP BY d.d_year ORDER BY d.d_year",
    ),
    (
        "Q9_join5_brand",
        "SELECT p.p_brand, SUM(l.lo_rev) FROM lineorder l \
         JOIN cust c ON l.lo_cust = c.c_id \
         JOIN part p ON l.lo_part = p.p_id \
         JOIN supp s ON l.lo_supp = s.s_id \
         JOIN dates d ON l.lo_date = d.d_id \
         WHERE d.d_year >= 2016 AND s.s_nation < 18 \
         GROUP BY p.p_brand ORDER BY p.p_brand LIMIT 20",
    ),
    (
        "Q10_join6_star",
        "SELECT n.n_region, d.d_year, SUM(l.lo_rev) FROM lineorder l \
         JOIN cust c ON l.lo_cust = c.c_id \
         JOIN nation n ON c.c_nation = n.n_id \
         JOIN dates d ON l.lo_date = d.d_id \
         JOIN supp s ON l.lo_supp = s.s_id \
         JOIN part p ON l.lo_part = p.p_id \
         WHERE p.p_category = 3 \
         GROUP BY n.n_region, d.d_year ORDER BY n.n_region, d.d_year",
    ),
    (
        "Q11_topn",
        "SELECT lo_cust, SUM(lo_rev) AS total FROM lineorder \
         GROUP BY lo_cust ORDER BY total DESC, lo_cust LIMIT 10",
    ),
    (
        "Q12_expr_agg",
        "SELECT SUM(lo_price * lo_qty - lo_rev), MIN(lo_price), MAX(lo_rev) \
         FROM lineorder WHERE lo_part < 200",
    ),
];

const CLASSES: [&str; 12] = {
    let mut names = [""; 12];
    let mut i = 0;
    while i < 12 {
        names[i] = QUERIES[i].0;
        i += 1;
    }
    names
};

type Rows = Vec<Vec<Value>>;

struct SsbData {
    nation: Rows,
    dates: Rows,
    cust: Rows,
    part: Rows,
    supp: Rows,
    lineorder: Rows,
}

impl SsbData {
    fn generate(seed: u64) -> SsbData {
        use Value::{Int, Text};
        let mut rng = StdRng::seed_from_u64(seed);
        let nation = (0..NATIONS)
            .map(|n| vec![Int(n), Int(n % REGIONS), Text(format!("nation{n}"))])
            .collect();
        let dates = (0..DATES)
            .map(|d| vec![Int(d), Int(2015 + d / 12), Int(d % 12 + 1)])
            .collect();
        // Dimension attributes are dealt round-robin, not drawn: with 50
        // suppliers or 400 parts a random draw moves a predicate's
        // selectivity (and with it a join's cost) by a fifth from seed to
        // seed. The seed decides the facts.
        let cust = (0..CUSTOMERS)
            .map(|c| {
                vec![
                    Int(c),
                    Int(c % NATIONS),
                    Text(SEGMENTS[c as usize % SEGMENTS.len()].to_string()),
                ]
            })
            .collect();
        let part = (0..PARTS)
            .map(|p| {
                vec![
                    Int(p),
                    Int(p % 40),
                    Int(p / 40 % 8),
                    Text(COLORS[p as usize % COLORS.len()].to_string()),
                ]
            })
            .collect();
        let supp = (0..SUPPLIERS)
            .map(|s| vec![Int(s), Int(s % NATIONS)])
            .collect();
        let lineorder = (0..LINEORDERS)
            .map(|lo| {
                let qty = rng.gen_range(1i64..50);
                let price = rng.gen_range(100i64..20_000);
                let disc = rng.gen_range(0i64..11);
                vec![
                    Int(lo),
                    Int(rng.gen_range(0..CUSTOMERS)),
                    Int(rng.gen_range(0..PARTS)),
                    Int(rng.gen_range(0..SUPPLIERS)),
                    Int(rng.gen_range(0..DATES)),
                    Int(qty),
                    Int(price),
                    Int(disc),
                    Int(qty * price * (100 - disc) / 100),
                ]
            })
            .collect();
        SsbData {
            nation,
            dates,
            cust,
            part,
            supp,
            lineorder,
        }
    }
}

/// Canonical hash of a result: each row rendered with `|` between cells,
/// rows sorted (grouped queries without a total order may emit rows in
/// any order), FNV-1a over the lines.
fn result_hash(rows: &[Row]) -> u64 {
    let mut lines: Vec<String> = rows
        .iter()
        .map(|r| {
            r.values()
                .iter()
                .map(|v| match v {
                    Value::Null => "NULL".to_string(),
                    Value::Int(n) => n.to_string(),
                    Value::Float(f) => format!("{f:?}"),
                    Value::Text(s) => s.clone(),
                    Value::Bool(b) => b.to_string(),
                })
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect();
    lines.sort_unstable();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in &lines {
        for b in line.bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn golden() -> Vec<Option<u64>> {
    QUERIES
        .iter()
        .map(|(name, _)| {
            GOLDEN.lines().find_map(|line| {
                let (n, h) = line.split_once(' ')?;
                (n == *name).then(|| u64::from_str_radix(h.trim(), 16).ok())?
            })
        })
        .collect()
}

pub struct OlapSsb {
    seed: u64,
    data: Arc<SsbData>,
    /// The hash each query must keep producing: golden for seed 42,
    /// otherwise whatever the first execution returned.
    expected: Arc<Mutex<Vec<Option<u64>>>>,
}

impl OlapSsb {
    pub fn new(seed: u64) -> OlapSsb {
        let expected = if seed == GOLDEN_SEED {
            golden()
        } else {
            vec![None; QUERIES.len()]
        };
        OlapSsb {
            seed,
            data: Arc::new(SsbData::generate(seed)),
            expected: Arc::new(Mutex::new(expected)),
        }
    }

    /// `name hash` lines in golden-file format, from an in-process run of
    /// every query on this seed's data — how the golden file is made.
    pub fn golden_lines(&self) -> Result<String, String> {
        let db = Database::new();
        self.load(&db)?;
        let mut out = String::new();
        for (name, sql) in QUERIES {
            let result = db.execute(sql).map_err(|e| format!("{name}: {e}"))?;
            out.push_str(&format!("{name} {:016x}\n", result_hash(result.rows())));
        }
        Ok(out)
    }
}

impl Workload for OlapSsb {
    fn name(&self) -> &'static str {
        "olap_ssb"
    }
    fn classes(&self) -> &'static [&'static str] {
        &CLASSES
    }
    fn read_only(&self) -> bool {
        true
    }
    fn load(&self, db: &Database) -> Result<LoadInfo, String> {
        let mut loader = Loader::new(db, 4000);
        loader.ddl(DDL)?;
        loader.insert("nation", self.data.nation.clone())?;
        loader.insert("dates", self.data.dates.clone())?;
        loader.insert("cust", self.data.cust.clone())?;
        loader.insert("part", self.data.part.clone())?;
        loader.insert("supp", self.data.supp.clone())?;
        loader.insert("lineorder", self.data.lineorder.clone())?;
        db.execute("ANALYZE").map_err(|e| format!("analyze: {e}"))?;
        Ok(LoadInfo {
            user_bytes: loader.user_bytes,
            train_ms: 0.0,
        })
    }
    fn client(&self, client: usize) -> Box<dyn ClientState> {
        Box::new(SsbClient {
            rng: StdRng::seed_from_u64(self.seed ^ (0x55B + client as u64 * 0x9E37_79B9)),
            cycle: Vec::new(),
            expected: Arc::clone(&self.expected),
        })
    }
}

/// Each client runs the whole family once per cycle, in an order
/// shuffled afresh every cycle. Every query keeps the same share of the
/// samples, and the two clients cannot lock into a fixed phase: with
/// fixed orders and the gate at one statement a run settles into one
/// pairing of who waits behind whom, and which pairing differs from run
/// to run (`lat_med_ms` then reads 45 or 55 ms).
struct SsbClient {
    rng: StdRng,
    /// Queries left in this cycle.
    cycle: Vec<usize>,
    expected: Arc<Mutex<Vec<Option<u64>>>>,
}

impl ClientState for SsbClient {
    fn next_op(&mut self, conn: &mut dyn Conn) -> Result<OpDone, String> {
        if self.cycle.is_empty() {
            self.cycle = (0..QUERIES.len()).collect();
            self.cycle.shuffle(&mut self.rng);
        }
        let class = self.cycle.pop().expect("a cycle was just dealt");
        let (name, sql) = QUERIES[class];
        let result = match conn.stmt(&Req::Query(sql.to_string())) {
            Ok(r) => r,
            Err(_) => return Ok(OpDone { class, ok: false }),
        };
        let hash = result_hash(result.rows());
        let mut expected = self.expected.lock().expect("hash table lock poisoned");
        match expected[class] {
            None => expected[class] = Some(hash),
            Some(want) if want == hash => {}
            Some(want) => {
                return Err(format!(
                    "olap_ssb: {name} hashed {hash:016x}, expected {want:016x} ({} rows)",
                    result.rows().len()
                ))
            }
        }
        Ok(OpDone { class, ok: true })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_hash_ignores_row_order_but_not_content() {
        let a = Row::new(vec![Value::Int(1), Value::Text("x".into())]);
        let b = Row::new(vec![Value::Int(2), Value::Float(0.5)]);
        let c = Row::new(vec![Value::Int(2), Value::Float(0.25)]);
        assert_eq!(
            result_hash(&[a.clone(), b.clone()]),
            result_hash(&[b.clone(), a.clone()])
        );
        assert_ne!(result_hash(&[a.clone(), b]), result_hash(&[a, c]));
    }

    #[test]
    fn golden_file_names_every_query() {
        assert!(golden().iter().all(Option::is_some));
    }
}
