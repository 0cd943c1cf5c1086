//! Admission control: bounded sessions and a bounded statement slot
//! pool with queue-then-shed semantics, plus the AIMD tuner that decides
//! where the statement bound should sit.
//!
//! Split in layers so policy is testable without threads:
//!
//! - [`AdmissionCore`] is a pure state machine. Time comes in as
//!   `now_secs` arguments, so a [`ManualClock`](aimdb_common::ManualClock)
//!   unit suite can pin admit/queue/reject transitions at exact
//!   thresholds.
//! - [`AdmissionGate`] wraps the core in a rank-0 mutex
//!   ([`LockRank::ServerAdmission`] — never held across an engine call)
//!   plus a condvar, and turns `Queued` into a real blocking wait.
//! - `pressure` and `AdmissionTuner` are the actuation half of the
//!   Baihe-style closed loop (PAPERS.md §self-driving): one contention
//!   signal from the engine's KPIs and the window's wait profile, and an
//!   AIMD policy with hysteresis over it — multiplicative decrease on
//!   contention collapse, additive increase when the engine runs clean —
//!   because admission limits have the same stability shape as
//!   congestion windows: overshoot is expensive (p99 collapse),
//!   undershoot is cheap (a few rejects). Both are pure: no clock or
//!   entropy reads; the server's control thread owns the clock.
//! - `control_tick` is one control-loop iteration over snapshots the
//!   caller took: observe, then actuate.
//!
//! Limits live in the engine's knob system (`max_connections`,
//! `admission_max_statements`, `admission_queue_timeout_ms`), so both a
//! DBA's `SET` and the tuner actuate the gate through the same audited
//! path. The server refreshes the gate from the knobs on every control
//! tick.

use std::sync::Arc;

use aimdb_common::{Clock, LockRank, Value, WaitClass, WaitSet};
use aimdb_engine::{Knobs, KpiSnapshot};
use parking_lot::{Condvar, Mutex};

/// Snapshot of the gate's knob-derived limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionLimits {
    /// Concurrent sessions allowed (`max_connections`).
    pub max_sessions: usize,
    /// Statements inside the engine at once (`admission_max_statements`).
    pub max_statements: usize,
    /// How long a statement may queue before shedding
    /// (`admission_queue_timeout_ms`).
    pub queue_timeout_ms: u64,
}

impl Default for AdmissionLimits {
    fn default() -> Self {
        AdmissionLimits {
            max_sessions: 100,
            max_statements: 64,
            queue_timeout_ms: 100,
        }
    }
}

/// The gate limits the knobs currently hold.
pub(crate) fn limits_from_knobs(knobs: &Knobs) -> AdmissionLimits {
    let get = |name: &str, fallback: i64| knobs.get(name).unwrap_or(fallback);
    AdmissionLimits {
        max_sessions: get("max_connections", 100).max(1) as usize,
        max_statements: get("admission_max_statements", 64).max(1) as usize,
        queue_timeout_ms: get("admission_queue_timeout_ms", 100).max(0) as u64,
    }
}

/// Outcome of offering a statement to the core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StatementGate {
    /// A slot was free; the statement holds it until `finish_statement`.
    Admitted,
    /// All slots busy: the caller may wait until `deadline_secs`.
    Queued { deadline_secs: f64 },
    /// The queue timeout is zero: shed immediately.
    Rejected,
}

/// Outcome of re-offering a queued statement after a wakeup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Retry {
    Admitted,
    /// Still full, deadline not reached: keep waiting.
    Wait,
    /// Deadline passed while slots stayed full: shed.
    TimedOut,
}

/// Monotonic counters the bench report and control loop read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Statements that got a slot (immediately or after queuing).
    pub admitted: u64,
    /// Statements shed at the gate (timeout or zero-timeout reject).
    pub rejected: u64,
    /// Statements that had to queue before their outcome.
    pub queued: u64,
    /// Sessions refused because `max_connections` was reached.
    pub sessions_rejected: u64,
    /// Sessions currently open.
    pub sessions_open: usize,
    /// Statement slots currently held.
    pub statements_inflight: usize,
}

/// Pure admission state machine; the caller supplies time.
#[derive(Debug)]
pub struct AdmissionCore {
    limits: AdmissionLimits,
    sessions: usize,
    inflight: usize,
    stats: AdmissionStats,
}

impl AdmissionCore {
    pub fn new(limits: AdmissionLimits) -> AdmissionCore {
        AdmissionCore {
            limits,
            sessions: 0,
            inflight: 0,
            stats: AdmissionStats::default(),
        }
    }

    pub fn limits(&self) -> AdmissionLimits {
        self.limits
    }

    /// Replace the limits. Already-admitted work is never revoked; a
    /// lowered statement limit takes effect as slots drain.
    pub fn set_limits(&mut self, limits: AdmissionLimits) {
        self.limits = limits;
    }

    /// Offer a new session. `true` admits (caller must later call
    /// [`AdmissionCore::release_session`]).
    pub fn try_session(&mut self) -> bool {
        if self.sessions < self.limits.max_sessions {
            self.sessions += 1;
            true
        } else {
            self.stats.sessions_rejected += 1;
            false
        }
    }

    pub fn release_session(&mut self) {
        self.sessions = self.sessions.saturating_sub(1);
    }

    /// Offer a statement at time `now_secs`.
    pub fn try_statement(&mut self, now_secs: f64) -> StatementGate {
        if self.inflight < self.limits.max_statements {
            self.inflight += 1;
            self.stats.admitted += 1;
            return StatementGate::Admitted;
        }
        if self.limits.queue_timeout_ms == 0 {
            self.stats.rejected += 1;
            return StatementGate::Rejected;
        }
        self.stats.queued += 1;
        StatementGate::Queued {
            deadline_secs: now_secs + self.limits.queue_timeout_ms as f64 / 1000.0,
        }
    }

    /// Re-offer a queued statement after a wakeup (or timeout poll).
    pub fn retry_statement(&mut self, now_secs: f64, deadline_secs: f64) -> Retry {
        if self.inflight < self.limits.max_statements {
            self.inflight += 1;
            self.stats.admitted += 1;
            return Retry::Admitted;
        }
        if now_secs >= deadline_secs {
            self.stats.rejected += 1;
            return Retry::TimedOut;
        }
        Retry::Wait
    }

    /// Return a statement slot.
    pub fn finish_statement(&mut self) {
        self.inflight = self.inflight.saturating_sub(1);
    }

    pub fn stats(&self) -> AdmissionStats {
        AdmissionStats {
            sessions_open: self.sessions,
            statements_inflight: self.inflight,
            ..self.stats
        }
    }
}

/// Thread-safe gate: the core under a rank-0 mutex, a condvar for queued
/// statements, and a clock for deadlines.
pub struct AdmissionGate {
    core: Mutex<AdmissionCore>,
    slot_freed: Condvar,
    clock: Arc<dyn Clock>,
}

/// RAII statement slot: returned by a successful
/// [`AdmissionGate::admit_statement`], releases the slot (and wakes one
/// queued statement) on drop.
pub struct StatementPermit<'a> {
    gate: &'a AdmissionGate,
}

impl Drop for StatementPermit<'_> {
    fn drop(&mut self) {
        self.gate.core.lock().finish_statement();
        self.gate.slot_freed.notify_one();
    }
}

impl AdmissionGate {
    pub fn new(limits: AdmissionLimits, clock: Arc<dyn Clock>) -> AdmissionGate {
        AdmissionGate {
            core: Mutex::with_rank(AdmissionCore::new(limits), LockRank::ServerAdmission),
            slot_freed: Condvar::new(),
            clock,
        }
    }

    pub fn limits(&self) -> AdmissionLimits {
        self.core.lock().limits()
    }

    pub fn set_limits(&self, limits: AdmissionLimits) {
        self.core.lock().set_limits(limits);
        // a raised statement limit frees slots from the waiters' view
        self.slot_freed.notify_all();
    }

    /// Offer a new session (on accept). `true` admits.
    pub fn admit_session(&self) -> bool {
        self.core.lock().try_session()
    }

    /// Release a session slot (on disconnect).
    pub fn release_session(&self) {
        self.core.lock().release_session();
    }

    /// Offer a statement, blocking in the queue up to the configured
    /// timeout. `Some(permit)` admits — the permit's drop releases the
    /// slot. `None` means the statement was shed.
    pub fn admit_statement(&self) -> Option<StatementPermit<'_>> {
        let mut core = self.core.lock();
        let deadline = match core.try_statement(self.clock.now_secs()) {
            StatementGate::Admitted => return Some(StatementPermit { gate: self }),
            StatementGate::Rejected => return None,
            StatementGate::Queued { deadline_secs } => deadline_secs,
        };
        loop {
            let now = self.clock.now_secs();
            let remaining = deadline - now;
            if remaining > 0.0 {
                // cap each park so limit raises and clock advances are
                // observed even without a notify
                let park = remaining.min(0.01);
                self.slot_freed
                    .wait_for(&mut core, std::time::Duration::from_secs_f64(park));
            }
            match core.retry_statement(self.clock.now_secs(), deadline) {
                Retry::Admitted => return Some(StatementPermit { gate: self }),
                Retry::TimedOut => return None,
                Retry::Wait => {}
            }
        }
    }

    pub fn stats(&self) -> AdmissionStats {
        self.core.lock().stats()
    }
}

/// Pressure above this halves the limit.
const HIGH_WATER: f64 = 0.6;
/// Pressure below this (sustained) adds a slot back.
const LOW_WATER: f64 = 0.3;
/// Consecutive clean ticks required before growing (hysteresis).
const PATIENCE: u32 = 2;

/// The scalar contention pressure in [0, 1] the tuner compares against
/// its water marks: the max of
///
/// - KPI contention, `max(abort rate, lock share of lock+wal+io wait)` —
///   aborts lag the onset of a contention storm, while the wait share
///   misses first-updater-wins kills that never blocked;
/// - KPI tail, the p95 statement cost squashed as `x / (1 + x)` at
///   `x = p95 / 1000`;
/// - the lock + WAL share of all wait attributed in the window.
///
/// Any one saturating means more concurrency will only queue on shared
/// resources. `window` is a wait-set delta; zero totals read as zero.
pub(crate) fn pressure(kpis: &KpiSnapshot, window: &WaitSet) -> f64 {
    let abort_rate = share(kpis.txns_aborted, kpis.txns_committed + kpis.txns_aborted);
    let lock_share = share(
        kpis.wait_lock_ns,
        kpis.wait_lock_ns + kpis.wait_wal_ns + kpis.wait_io_ns,
    );
    let p95 = kpis.p95_cost_per_query / 1000.0;
    let tail = p95 / (1.0 + p95);
    let total = window.total_ns();
    let lock = share(window.get(WaitClass::LockAcquire).0, total);
    let wal = share(
        window.get(WaitClass::WalFsync).0 + window.get(WaitClass::GroupCommitFollower).0,
        total,
    );
    let wait = (lock + wal).clamp(0.0, 1.0);
    abort_rate
        .max(lock_share)
        .max(tail)
        .max(wait)
        .clamp(0.0, 1.0)
}

/// `part / total`, or 0 for an empty window.
fn share(part: u64, total: u64) -> f64 {
    if total > 0 {
        part as f64 / total as f64
    } else {
        0.0
    }
}

/// One control decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AdmissionAction {
    /// Contention pressure above the high water: halve the limit.
    Shrink,
    /// Clean window at the current limit: add one slot back.
    Grow,
    /// Inside the hysteresis band (or still backing off): no change.
    Hold,
}

/// AIMD tuner over the statement-gate limit.
#[derive(Debug)]
pub(crate) struct AdmissionTuner {
    min_limit: i64,
    max_limit: i64,
    limit: i64,
    clean_ticks: u32,
}

impl AdmissionTuner {
    pub(crate) fn new(min_limit: i64, max_limit: i64, start: i64) -> AdmissionTuner {
        let min_limit = min_limit.max(1);
        let max_limit = max_limit.max(min_limit);
        AdmissionTuner {
            min_limit,
            max_limit,
            limit: start.clamp(min_limit, max_limit),
            clean_ticks: 0,
        }
    }

    /// The current target limit.
    pub(crate) fn limit(&self) -> i64 {
        self.limit
    }

    /// One control tick: observe a window's [`pressure`], return the
    /// action taken. The new target is [`AdmissionTuner::limit`].
    /// `reject_rate` is the window's rejected/offered statement ratio —
    /// while load is being shed and the engine runs clean, the tuner
    /// grows back faster than patience alone would allow (the shed load
    /// is demand, not noise).
    pub(crate) fn observe(&mut self, pressure: f64, reject_rate: f64) -> AdmissionAction {
        if pressure > HIGH_WATER {
            self.clean_ticks = 0;
            let next = (self.limit / 2).max(self.min_limit);
            if next < self.limit {
                self.limit = next;
                return AdmissionAction::Shrink;
            }
            return AdmissionAction::Hold;
        }
        if pressure < LOW_WATER {
            self.clean_ticks = self.clean_ticks.saturating_add(1);
            let needed = if reject_rate > 0.0 { 1 } else { PATIENCE };
            if self.clean_ticks >= needed && self.limit < self.max_limit {
                self.clean_ticks = 0;
                self.limit += 1;
                return AdmissionAction::Grow;
            }
            return AdmissionAction::Hold;
        }
        // inside the band: neither shrink nor bank a clean tick
        self.clean_ticks = 0;
        AdmissionAction::Hold
    }
}

/// One control-loop observation over snapshots the caller took: the
/// engine's KPIs, the window's wait-set delta and the window's gate
/// counters (`admitted`/`rejected` deltas). A Shrink or Grow actuates
/// through `SET admission_max_statements` on `knobs` — observable exactly
/// like a DBA's SET — and the gate re-reads its limits from the knobs.
pub(crate) fn control_tick(
    tuner: &mut AdmissionTuner,
    knobs: &Knobs,
    gate: &AdmissionGate,
    kpis: &KpiSnapshot,
    wait_delta: &WaitSet,
    stats_delta: &AdmissionStats,
) -> AdmissionAction {
    let reject_rate = share(
        stats_delta.rejected,
        stats_delta.admitted + stats_delta.rejected,
    );
    let action = tuner.observe(pressure(kpis, wait_delta), reject_rate);
    if action != AdmissionAction::Hold {
        let _ = knobs.set("admission_max_statements", &Value::Int(tuner.limit()));
        gate.set_limits(limits_from_knobs(knobs));
    }
    action
}

#[cfg(test)]
mod tests {
    use super::*;
    use aimdb_common::ManualClock;
    use WaitClass::*;

    fn limits(sessions: usize, statements: usize, timeout_ms: u64) -> AdmissionLimits {
        AdmissionLimits {
            max_sessions: sessions,
            max_statements: statements,
            queue_timeout_ms: timeout_ms,
        }
    }

    #[test]
    fn sessions_admit_to_the_limit_then_reject() {
        let mut core = AdmissionCore::new(limits(2, 8, 100));
        assert!(core.try_session());
        assert!(core.try_session());
        assert!(!core.try_session(), "third session is over the limit");
        assert_eq!(core.stats().sessions_rejected, 1);
        core.release_session();
        assert!(core.try_session(), "released slot is reusable");
        assert_eq!(core.stats().sessions_open, 2);
    }

    #[test]
    fn statements_admit_queue_and_time_out_at_exact_thresholds() {
        let mut core = AdmissionCore::new(limits(8, 2, 100));
        assert_eq!(core.try_statement(0.0), StatementGate::Admitted);
        assert_eq!(core.try_statement(0.0), StatementGate::Admitted);
        // full: third queues with a deadline exactly timeout_ms away
        let StatementGate::Queued { deadline_secs } = core.try_statement(1.0) else {
            panic!("expected queue");
        };
        assert!((deadline_secs - 1.1).abs() < 1e-9);
        // a hair before the deadline: still waiting
        assert_eq!(core.retry_statement(1.0999, deadline_secs), Retry::Wait);
        // exactly at the deadline: shed
        assert_eq!(core.retry_statement(1.1, deadline_secs), Retry::TimedOut);
        let s = core.stats();
        assert_eq!((s.admitted, s.queued, s.rejected), (2, 1, 1));
    }

    #[test]
    fn queued_statement_admits_when_a_slot_frees() {
        let mut core = AdmissionCore::new(limits(8, 1, 100));
        assert_eq!(core.try_statement(0.0), StatementGate::Admitted);
        let StatementGate::Queued { deadline_secs } = core.try_statement(0.0) else {
            panic!("expected queue");
        };
        core.finish_statement();
        assert_eq!(core.retry_statement(0.05, deadline_secs), Retry::Admitted);
        assert_eq!(core.stats().statements_inflight, 1);
    }

    #[test]
    fn zero_timeout_sheds_immediately() {
        let mut core = AdmissionCore::new(limits(8, 1, 0));
        assert_eq!(core.try_statement(0.0), StatementGate::Admitted);
        assert_eq!(core.try_statement(0.0), StatementGate::Rejected);
        assert_eq!(core.stats().rejected, 1);
    }

    #[test]
    fn raising_the_limit_admits_previously_queued_work() {
        let mut core = AdmissionCore::new(limits(8, 1, 1000));
        assert_eq!(core.try_statement(0.0), StatementGate::Admitted);
        let StatementGate::Queued { deadline_secs } = core.try_statement(0.0) else {
            panic!("expected queue");
        };
        core.set_limits(limits(8, 2, 1000));
        assert_eq!(core.retry_statement(0.1, deadline_secs), Retry::Admitted);
    }

    #[test]
    fn lowering_the_limit_never_revokes_inflight_work() {
        let mut core = AdmissionCore::new(limits(8, 4, 100));
        for _ in 0..4 {
            assert_eq!(core.try_statement(0.0), StatementGate::Admitted);
        }
        core.set_limits(limits(8, 1, 100));
        assert_eq!(
            core.stats().statements_inflight,
            4,
            "slots drain, not revoked"
        );
        // as they drain, only one slot is refillable
        core.finish_statement();
        core.finish_statement();
        core.finish_statement();
        core.finish_statement();
        assert_eq!(core.try_statement(1.0), StatementGate::Admitted);
        assert!(matches!(
            core.try_statement(1.0),
            StatementGate::Queued { .. }
        ));
    }

    #[test]
    fn gate_permit_drop_frees_the_slot() {
        let clock = Arc::new(ManualClock::new());
        let gate = AdmissionGate::new(limits(8, 1, 0), clock);
        let permit = gate.admit_statement().expect("first admits");
        assert!(gate.admit_statement().is_none(), "zero timeout sheds");
        drop(permit);
        assert!(gate.admit_statement().is_some(), "freed slot admits");
        let s = gate.stats();
        assert_eq!((s.admitted, s.rejected), (2, 1));
    }

    #[test]
    fn gate_queue_times_out_on_the_injected_clock() {
        // a manual clock that never advances would wait forever if the
        // deadline logic consulted wall time; with remaining capped at
        // 10ms per park, advance the clock from another thread
        let clock = Arc::new(ManualClock::new());
        let gate = Arc::new(AdmissionGate::new(
            limits(8, 1, 50),
            Arc::clone(&clock) as _,
        ));
        let _held = gate.admit_statement().expect("first admits");
        let g = Arc::clone(&gate);
        let ticker = std::thread::spawn(move || {
            for _ in 0..10 {
                std::thread::sleep(std::time::Duration::from_millis(5));
                clock.advance_secs(0.01);
            }
        });
        let shed = gate.admit_statement();
        assert!(
            shed.is_none(),
            "statement shed when the manual deadline passed"
        );
        ticker.join().expect("ticker join");
        assert_eq!(g.stats().rejected, 1);
    }

    fn waits(entries: &[(WaitClass, u64, u64)]) -> WaitSet {
        let mut w = WaitSet::default();
        for &(class, ns, count) in entries {
            w.add(class, ns, count);
        }
        w
    }

    #[test]
    fn pressure_matches_the_pinned_table() {
        // expected values are the signal as it was computed before it
        // became one function (max of a 5-dim KPI vector's contention and
        // tail dims and the window's lock + wal share), evaluated on the
        // same inputs; compared exactly
        let z = KpiSnapshot::default();
        let table: Vec<(&str, KpiSnapshot, WaitSet, f64)> = vec![
            ("all zeros", z.clone(), WaitSet::default(), 0.0),
            (
                "lock-only wait",
                KpiSnapshot {
                    wait_lock_ns: 250,
                    ..z.clone()
                },
                waits(&[(LockAcquire, 250, 2)]),
                1.0,
            ),
            (
                "wal-only wait",
                KpiSnapshot {
                    wait_wal_ns: 150,
                    ..z.clone()
                },
                waits(&[(WalFsync, 100, 1), (GroupCommitFollower, 50, 3)]),
                1.0,
            ),
            (
                "io-only wait",
                KpiSnapshot {
                    wait_io_ns: 1000,
                    ..z.clone()
                },
                waits(&[(BufferMiss, 1000, 4)]),
                0.0,
            ),
            (
                "aborts, no waits",
                KpiSnapshot {
                    txns_committed: 10,
                    txns_aborted: 30,
                    ..z.clone()
                },
                WaitSet::default(),
                0.75,
            ),
            (
                "large p95",
                KpiSnapshot {
                    p95_cost_per_query: 8000.0,
                    ..z.clone()
                },
                WaitSet::default(),
                0.8888888888888888,
            ),
            (
                "moderate p95",
                KpiSnapshot {
                    p95_cost_per_query: 250.0,
                    ..z.clone()
                },
                WaitSet::default(),
                0.2,
            ),
            (
                "kpi lock share, no aborts yet",
                KpiSnapshot {
                    wait_lock_ns: 900,
                    wait_wal_ns: 80,
                    wait_io_ns: 20,
                    ..z.clone()
                },
                WaitSet::default(),
                0.9,
            ),
            (
                "window lock + io",
                z.clone(),
                waits(&[(LockAcquire, 200, 1), (BufferMiss, 800, 2)]),
                0.2,
            ),
            (
                "mixed",
                KpiSnapshot {
                    txns_committed: 90,
                    txns_aborted: 10,
                    p95_cost_per_query: 500.0,
                    wait_lock_ns: 100,
                    wait_wal_ns: 100,
                    wait_io_ns: 800,
                    avg_cost_per_query: 300.0,
                    buffer_hit_rate: 0.7,
                    disk_reads: 42,
                    ..z.clone()
                },
                waits(&[
                    (LockAcquire, 100, 1),
                    (WalFsync, 50, 1),
                    (GroupCommitFollower, 50, 1),
                    (BufferMiss, 600, 3),
                    (WriteConflictRetry, 0, 3),
                    (MorselStarvation, 200, 5),
                ]),
                0.3333333333333333,
            ),
            (
                "lock 0.6 + wal 0.3 window share",
                z.clone(),
                waits(&[
                    (LockAcquire, 600, 3),
                    (WalFsync, 200, 1),
                    (GroupCommitFollower, 100, 1),
                    (BufferMiss, 100, 2),
                    (WriteConflictRetry, 0, 7),
                ]),
                0.8999999999999999,
            ),
            (
                "lock 0.5 + wal 0.4 window share",
                z.clone(),
                waits(&[
                    (LockAcquire, 500, 1),
                    (WalFsync, 400, 1),
                    (BufferMiss, 100, 1),
                ]),
                0.9,
            ),
            (
                "hot snapshot",
                KpiSnapshot {
                    avg_cost_per_query: 500.0,
                    buffer_hit_rate: 0.4,
                    disk_reads: 5000,
                    txns_committed: 10,
                    txns_aborted: 30,
                    p95_cost_per_query: 8000.0,
                    ..z.clone()
                },
                WaitSet::default(),
                0.8888888888888888,
            ),
        ];
        for (name, kpis, window, want) in &table {
            assert_eq!(pressure(kpis, window), *want, "{name}");
        }
    }

    const CALM: f64 = 0.1;
    const STORM: f64 = 0.9;
    const MID: f64 = 0.45; // inside [LOW_WATER, HIGH_WATER]

    #[test]
    fn storm_halves_until_floor() {
        let mut t = AdmissionTuner::new(2, 64, 64);
        assert_eq!(t.observe(STORM, 0.0), AdmissionAction::Shrink);
        assert_eq!(t.limit(), 32);
        for _ in 0..10 {
            t.observe(STORM, 0.0);
        }
        assert_eq!(t.limit(), 2, "multiplicative decrease bottoms at the floor");
        // at the floor the storm holds, it cannot shrink further
        assert_eq!(t.observe(STORM, 0.0), AdmissionAction::Hold);
    }

    #[test]
    fn clean_windows_grow_additively_with_hysteresis() {
        let mut t = AdmissionTuner::new(2, 64, 8);
        // first clean tick banks, second grows (patience = 2)
        assert_eq!(t.observe(CALM, 0.0), AdmissionAction::Hold);
        assert_eq!(t.observe(CALM, 0.0), AdmissionAction::Grow);
        assert_eq!(t.limit(), 9);
        // while load is being shed, a single clean tick is enough
        assert_eq!(t.observe(CALM, 0.25), AdmissionAction::Grow);
        assert_eq!(t.limit(), 10);
    }

    #[test]
    fn wait_share_alone_triggers_shrink() {
        let mut t = AdmissionTuner::new(1, 32, 16);
        // calm KPIs; the window spent 90% of its blocked time on locks +
        // WAL
        let window = waits(&[
            (LockAcquire, 500, 1),
            (WalFsync, 400, 1),
            (BufferMiss, 100, 1),
        ]);
        let p = pressure(&KpiSnapshot::default(), &window);
        assert_eq!(t.observe(p, 0.0), AdmissionAction::Shrink);
        assert_eq!(t.limit(), 8);
    }

    #[test]
    fn band_resets_hysteresis() {
        let mut t = AdmissionTuner::new(1, 32, 16);
        assert_eq!(t.observe(CALM, 0.0), AdmissionAction::Hold);
        assert_eq!(t.observe(MID, 0.0), AdmissionAction::Hold);
        // the banked clean tick was reset by the in-band window
        assert_eq!(t.observe(CALM, 0.0), AdmissionAction::Hold);
        assert_eq!(t.limit(), 16);
    }

    #[test]
    fn limits_clamp() {
        let mut t = AdmissionTuner::new(4, 8, 100);
        assert_eq!(t.limit(), 8);
        assert_eq!(t.observe(STORM, 0.0), AdmissionAction::Shrink);
        assert_eq!(t.limit(), 4);
        assert_eq!(t.observe(CALM, 1.0), AdmissionAction::Grow);
        assert_eq!(t.limit(), 5);
    }

    fn tick_fixture(start: i64) -> (AdmissionTuner, Knobs, AdmissionGate) {
        let knobs = Knobs::new();
        knobs
            .set("admission_max_statements", &Value::Int(start))
            .expect("knob");
        let gate = AdmissionGate::new(limits_from_knobs(&knobs), Arc::new(ManualClock::new()));
        (AdmissionTuner::new(1, 4096, start), knobs, gate)
    }

    #[test]
    fn calm_engine_shedding_load_grows_the_knob_and_the_gate() {
        let (mut tuner, knobs, gate) = tick_fixture(2);
        let shedding = AdmissionStats {
            admitted: 10,
            rejected: 30,
            ..AdmissionStats::default()
        };
        // io-only wait is no contention pressure
        let window = waits(&[(BufferMiss, 1000, 4)]);
        let action = control_tick(
            &mut tuner,
            &knobs,
            &gate,
            &KpiSnapshot::default(),
            &window,
            &shedding,
        );
        assert_eq!(action, AdmissionAction::Grow);
        assert_eq!(knobs.get("admission_max_statements").expect("knob"), 3);
        assert_eq!(gate.limits().max_statements, 3);
        // without shedding a single clean window only banks a tick
        let (mut tuner, knobs, gate) = tick_fixture(2);
        let action = control_tick(
            &mut tuner,
            &knobs,
            &gate,
            &KpiSnapshot::default(),
            &window,
            &AdmissionStats::default(),
        );
        assert_eq!(action, AdmissionAction::Hold);
        assert_eq!(knobs.get("admission_max_statements").expect("knob"), 2);
        assert_eq!(gate.limits().max_statements, 2);
    }

    #[test]
    fn storm_halves_the_knob_and_the_gate() {
        let (mut tuner, knobs, gate) = tick_fixture(64);
        let storm = waits(&[(LockAcquire, 900, 9), (BufferMiss, 100, 1)]);
        let action = control_tick(
            &mut tuner,
            &knobs,
            &gate,
            &KpiSnapshot::default(),
            &storm,
            &AdmissionStats::default(),
        );
        assert_eq!(action, AdmissionAction::Shrink);
        assert_eq!(knobs.get("admission_max_statements").expect("knob"), 32);
        assert_eq!(gate.limits().max_statements, 32);
    }
}
