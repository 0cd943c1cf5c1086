//! Storage fault injection for the crash-recovery harness.
//!
//! [`FaultInjector`] wraps a real [`Disk`] behind the [`PageStore`]
//! boundary and misbehaves on cue: it can kill the store after a chosen
//! number of mutating operations (simulating a process crash), tear the
//! WAL write that was in flight at the crash, or fail individual
//! operations with transient I/O errors.
//!
//! Semantics of a crash: the triggering operation and everything after it
//! return `Err`, and nothing from the triggering operation onward reaches
//! the underlying disk — except a torn WAL append, which may persist a
//! corrupt prefix of its payload (that is the point: recovery must detect
//! it via CRC). Recovery bypasses the injector entirely by reopening the
//! [`Disk`] returned from [`FaultInjector::underlying`], the way a restart
//! reopens the real device after the faulty process is gone.

use std::sync::Arc;

use parking_lot::Mutex;

use aimdb_common::{AimError, LockRank, Result};

use crate::disk::{Disk, DiskStats, PageStore};
use crate::page::{Page, PageId};

/// What happens to the WAL append that is in flight when the crash fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TornMode {
    /// The append vanishes entirely (kernel never saw the write).
    #[default]
    DropAll,
    /// A prefix (about two thirds) of the payload reaches the disk —
    /// a torn multi-sector write.
    Prefix,
    /// The whole payload lands but its last byte is flipped — bit rot
    /// or a misdirected sector tail.
    CorruptLast,
}

/// A scripted failure. Operation numbers are 1-based and count mutating
/// calls only (`allocate`, `write`, `wal_append`, `wal_drop_prefix`).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Crash on the Nth mutating operation (that operation fails and the
    /// store is dead from then on).
    pub crash_after_ops: Option<u64>,
    /// How the in-flight WAL append is mangled if the crashing operation
    /// is a `wal_append`.
    pub torn_tail: TornMode,
    /// Mutating operations that fail once with a transient I/O error but
    /// leave the store alive.
    pub io_error_at: Vec<u64>,
}

impl FaultPlan {
    pub fn crash_after(n: u64) -> Self {
        FaultPlan {
            crash_after_ops: Some(n),
            ..FaultPlan::default()
        }
    }

    pub fn with_torn_tail(mut self, mode: TornMode) -> Self {
        self.torn_tail = mode;
        self
    }

    pub fn with_io_error_at(mut self, ops: Vec<u64>) -> Self {
        self.io_error_at = ops;
        self
    }
}

struct InjectorState {
    plan: FaultPlan,
    ops: u64,
    crashed: bool,
}

/// A [`PageStore`] that injects faults per a [`FaultPlan`], forwarding
/// healthy operations to a wrapped [`Disk`].
pub struct FaultInjector {
    disk: Arc<Disk>,
    state: Mutex<InjectorState>,
    /// Invoked exactly once, when the scripted crash first fires — after
    /// the state lock is released, so the hook may take higher-ranked
    /// locks (e.g. dump a flight recorder). The caller's storage locks
    /// (WalSink, BufferPool, ...) may still be held.
    crash_hook: Mutex<Option<Arc<dyn Fn() + Send + Sync>>>,
}

enum Verdict {
    Proceed,
    Transient,
    Crash,
}

impl FaultInjector {
    pub fn new(disk: Arc<Disk>, plan: FaultPlan) -> Self {
        FaultInjector {
            disk,
            state: Mutex::with_rank(
                InjectorState {
                    plan,
                    ops: 0,
                    crashed: false,
                },
                LockRank::FaultInjector,
            ),
            crash_hook: Mutex::with_rank(None, LockRank::FaultHook),
        }
    }

    /// Install a callback fired once when the scripted crash triggers —
    /// the crash-dump hook. Harnesses use it to snapshot a flight
    /// recorder at the exact moment of the simulated failure.
    pub fn set_crash_hook(&self, hook: impl Fn() + Send + Sync + 'static) {
        *self.crash_hook.lock() = Some(Arc::new(hook));
    }

    /// The wrapped disk — what survives the crash. Recovery reopens this
    /// directly, without the injector in the path.
    pub fn underlying(&self) -> Arc<Disk> {
        Arc::clone(&self.disk)
    }

    /// Whether the scripted crash has fired.
    pub fn crashed(&self) -> bool {
        self.state.lock().crashed
    }

    /// Mutating operations observed so far.
    pub fn ops(&self) -> u64 {
        self.state.lock().ops
    }

    /// Re-script the injector with a new plan whose operation numbers are
    /// relative to *now*: `crash_after_ops = Some(n)` crashes on the nth
    /// mutating operation counted from this call, not from construction.
    /// Lets a harness run a fault-free phase (bulk load, recovery through
    /// the injector) and only then arm the crash for the measured phase.
    /// Arming does not resurrect a store that has already crashed.
    pub fn arm(&self, plan: FaultPlan) {
        let mut st = self.state.lock();
        let base = st.ops;
        st.plan = FaultPlan {
            crash_after_ops: plan.crash_after_ops.map(|n| base + n),
            torn_tail: plan.torn_tail,
            io_error_at: plan.io_error_at.iter().map(|n| base + n).collect(),
        };
    }

    /// Count a mutating operation and decide its fate. Fires the crash
    /// hook (once, outside the state lock) when the scripted crash
    /// triggers.
    fn mutating_op(&self) -> (Verdict, TornMode) {
        let (verdict, torn, first_crash) = {
            let mut st = self.state.lock();
            if st.crashed {
                (Verdict::Crash, st.plan.torn_tail, false)
            } else {
                st.ops += 1;
                let ops = st.ops;
                if st.plan.crash_after_ops == Some(ops) {
                    st.crashed = true;
                    (Verdict::Crash, st.plan.torn_tail, true)
                } else if st.plan.io_error_at.contains(&ops) {
                    (Verdict::Transient, st.plan.torn_tail, false)
                } else {
                    (Verdict::Proceed, st.plan.torn_tail, false)
                }
            }
        };
        if first_crash {
            let hook = self.crash_hook.lock().clone();
            if let Some(h) = hook {
                h();
            }
        }
        (verdict, torn)
    }

    fn check_alive(&self) -> Result<()> {
        if self.state.lock().crashed {
            Err(AimError::Storage("storage crashed (injected)".into()))
        } else {
            Ok(())
        }
    }

    /// Count a mutating operation and run it on the disk if it is to
    /// succeed; a failing one reaches the disk not at all.
    fn mutate<T>(&self, op: impl FnOnce(&Disk) -> Result<T>) -> Result<T> {
        match self.mutating_op().0 {
            Verdict::Proceed => op(&self.disk),
            Verdict::Transient => Err(AimError::Storage("transient I/O error (injected)".into())),
            Verdict::Crash => Err(AimError::Storage("storage crashed (injected)".into())),
        }
    }
}

impl PageStore for FaultInjector {
    fn allocate(&self) -> Result<PageId> {
        self.mutate(Disk::allocate)
    }

    fn read(&self, id: PageId) -> Result<Page> {
        self.check_alive()?;
        self.disk.read(id)
    }

    fn write(&self, id: PageId, page: &Page) -> Result<()> {
        self.mutate(|d| d.write(id, page))
    }

    fn num_pages(&self) -> usize {
        self.disk.num_pages()
    }

    fn stats(&self) -> DiskStats {
        self.disk.stats()
    }

    fn reset_stats(&self) {
        self.disk.reset_stats()
    }

    fn wal_append(&self, bytes: &[u8]) -> Result<()> {
        let (verdict, torn) = self.mutating_op();
        match verdict {
            Verdict::Proceed => self.disk.wal_append(bytes),
            Verdict::Transient => Err(AimError::Storage("transient I/O error (injected)".into())),
            Verdict::Crash => {
                // The write was in flight: persist whatever the torn mode
                // dictates, then report failure. Recovery's CRC check must
                // reject the damaged tail.
                match torn {
                    TornMode::DropAll => {}
                    TornMode::Prefix => {
                        let keep = bytes.len() * 2 / 3;
                        if keep > 0 {
                            self.disk.wal_append(&bytes[..keep])?;
                        }
                    }
                    TornMode::CorruptLast => {
                        if !bytes.is_empty() {
                            let mut mangled = bytes.to_vec();
                            let last = mangled.len() - 1;
                            mangled[last] ^= 0xFF;
                            self.disk.wal_append(&mangled)?;
                        }
                    }
                }
                Err(AimError::Storage("storage crashed (injected)".into()))
            }
        }
    }

    fn wal_bytes(&self) -> Result<Vec<u8>> {
        self.check_alive()?;
        self.disk.wal_bytes()
    }

    fn wal_len(&self) -> usize {
        self.disk.wal_len()
    }

    fn wal_truncate(&self, len: usize) -> Result<()> {
        self.check_alive()?;
        self.disk.wal_truncate(len)
    }

    /// The cut is atomic: a crash here leaves the log whole.
    fn wal_drop_prefix(&self, n: usize) -> Result<usize> {
        self.mutate(|d| d.wal_drop_prefix(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_kills_the_store_permanently() {
        let inj = FaultInjector::new(Arc::new(Disk::new()), FaultPlan::crash_after(2));
        let id = inj.allocate().unwrap(); // op 1
        assert!(inj.write(id, &Page::new()).is_err()); // op 2: crash
        assert!(inj.crashed());
        assert!(inj.allocate().is_err());
        assert!(inj.read(id).is_err());
        assert!(inj.wal_append(b"x").is_err());
        // the triggering write never reached the disk
        assert_eq!(inj.underlying().stats().writes, 0);
    }

    #[test]
    fn transient_error_leaves_store_alive() {
        let inj = FaultInjector::new(
            Arc::new(Disk::new()),
            FaultPlan::default().with_io_error_at(vec![2]),
        );
        let id = inj.allocate().unwrap(); // op 1
        assert!(inj.write(id, &Page::new()).is_err()); // op 2: transient
        assert!(!inj.crashed());
        inj.write(id, &Page::new()).unwrap(); // op 3: healthy again
    }

    #[test]
    fn torn_prefix_persists_partial_wal_write() {
        let inj = FaultInjector::new(
            Arc::new(Disk::new()),
            FaultPlan::crash_after(1).with_torn_tail(TornMode::Prefix),
        );
        let payload = vec![7u8; 30];
        assert!(inj.wal_append(&payload).is_err());
        let disk = inj.underlying();
        assert_eq!(disk.wal_len(), 20, "two thirds of the payload landed");
        assert_eq!(disk.wal_bytes().unwrap(), vec![7u8; 20]);
    }

    #[test]
    fn corrupt_last_flips_final_byte() {
        let inj = FaultInjector::new(
            Arc::new(Disk::new()),
            FaultPlan::crash_after(1).with_torn_tail(TornMode::CorruptLast),
        );
        assert!(inj.wal_append(&[1, 2, 3]).is_err());
        assert_eq!(inj.underlying().wal_bytes().unwrap(), vec![1, 2, 3 ^ 0xFF]);
    }

    #[test]
    fn arm_rebases_operation_numbers_to_now() {
        let inj = FaultInjector::new(Arc::new(Disk::new()), FaultPlan::default());
        let id = inj.allocate().unwrap(); // op 1
        inj.write(id, &Page::new()).unwrap(); // op 2
        inj.write(id, &Page::new()).unwrap(); // op 3
                                              // crash on the 2nd op counted from NOW, i.e. absolute op 5
        inj.arm(FaultPlan::crash_after(2));
        inj.write(id, &Page::new()).unwrap(); // op 4
        assert!(inj.write(id, &Page::new()).is_err()); // op 5: crash
        assert!(inj.crashed());
        assert_eq!(inj.ops(), 5);
    }

    #[test]
    fn arm_does_not_resurrect_a_crashed_store() {
        let inj = FaultInjector::new(Arc::new(Disk::new()), FaultPlan::crash_after(1));
        assert!(inj.allocate().is_err());
        assert!(inj.crashed());
        inj.arm(FaultPlan::default());
        assert!(inj.allocate().is_err(), "still dead after re-arming");
    }

    #[test]
    fn crash_hook_fires_exactly_once_at_first_crash() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let inj = FaultInjector::new(Arc::new(Disk::new()), FaultPlan::crash_after(2));
        let fired = Arc::new(AtomicU64::new(0));
        let fired2 = Arc::clone(&fired);
        inj.set_crash_hook(move || {
            // ordering: Relaxed — test counter, joined before the assert.
            fired2.fetch_add(1, Ordering::Relaxed);
        });
        let id = inj.allocate().unwrap(); // op 1: healthy, no hook
                                          // ordering: Relaxed — test counter.
        assert_eq!(fired.load(Ordering::Relaxed), 0);
        assert!(inj.write(id, &Page::new()).is_err()); // op 2: crash
                                                       // ordering: Relaxed — test counter.
        assert_eq!(fired.load(Ordering::Relaxed), 1, "hook fired at crash");
        assert!(inj.wal_append(b"x").is_err()); // already dead: no re-fire
                                                // ordering: Relaxed — test counter.
        assert_eq!(fired.load(Ordering::Relaxed), 1, "hook fires only once");
    }

    #[test]
    fn log_cut_is_a_mutating_op_and_a_crash_there_cuts_nothing() {
        let inj = FaultInjector::new(Arc::new(Disk::new()), FaultPlan::crash_after(3));
        inj.wal_append(b"abcdef").unwrap(); // op 1
        assert_eq!(inj.wal_drop_prefix(2).unwrap(), 2); // op 2
        assert_eq!(inj.ops(), 2);
        assert!(inj.wal_drop_prefix(2).is_err()); // op 3: crash
        assert!(inj.crashed());
        assert_eq!(inj.underlying().wal_bytes().unwrap(), b"cdef");
    }

    #[test]
    fn drop_all_persists_nothing() {
        let inj = FaultInjector::new(Arc::new(Disk::new()), FaultPlan::crash_after(1));
        assert!(inj.wal_append(&[1, 2, 3]).is_err());
        assert_eq!(inj.underlying().wal_len(), 0);
    }
}
