//! Admission control: bounded sessions and a bounded statement slot
//! pool with queue-then-shed semantics.
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
//!
//! Limits live in the engine's knob system (`max_connections`,
//! `admission_max_statements`, `admission_queue_timeout_ms`), so a DBA's
//! `SET` moves the gate through the ordinary audited path. The server
//! folds the knobs into the gate on every control tick.

use std::sync::Arc;

use aimdb_common::{Clock, LockRank};
use aimdb_engine::Knobs;
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

/// Monotonic counters the bench report reads.
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

#[cfg(test)]
mod tests {
    use super::*;
    use aimdb_common::ManualClock;

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
}
