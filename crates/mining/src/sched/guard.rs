//! Per-run lifeguards: cooperative cancellation, wall-clock deadlines,
//! memory budgets and armed fault plans for the lattice walk.
//!
//! A [`RunGuard`] is the one per-run object: created once per guarded
//! run and checked at chunk boundaries and level merges. Checks are
//! cooperative: nothing is pre-empted, the walk simply stops spawning
//! work, and [`RunGuard::check`] returns the structured [`MineError`]
//! with the run's [`QueryProgress`] attached. `MineError` is the one
//! run-failure type: `causumx::Error` wraps it unchanged, and its code
//! and message are what the error envelope reports. The guard owns those
//! progress counters (levels absorbed, CATE evaluations), so every
//! failure reports how far the walk got, and, once armed with
//! [`RunGuard::with_faults`], the fire-once state of a [`FaultPlan`].
//! A guard only ever stops a run: no limit, counter or fault changes a
//! bit of a run that completes.
//!
//! Memory accounting reuses the `VmHWM` probe that the bench harness
//! reports ([`peak_rss_bytes`], moved here so both layers share one
//! implementation). `VmHWM` is a process-wide high-water mark, so the
//! budget is measured as growth over the baseline captured when the
//! guard was built — a lower bound on the query's own footprint, not an
//! exact attribution. Tests can swap in a synthetic probe via
//! [`RunGuard::with_memory_probe`] for deterministic trips.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use super::faults::{FaultKind, FaultPlan, FaultSite};

/// Peak resident-set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), or `None` where procfs is unavailable
/// (non-Linux hosts). This is a process-wide high-water mark: it only
/// ever grows, so per-phase deltas need a reading before and after and
/// are a lower bound, not an exact attribution.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

/// [`peak_rss_bytes`] in mebibytes, rounded to one decimal.
pub fn peak_rss_mb() -> Option<f64> {
    peak_rss_bytes().map(|b| (b as f64 / (1024.0 * 1024.0) * 10.0).round() / 10.0)
}

/// Partial-progress diagnostics attached to every guard trip: how far
/// the walk got before it was stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryProgress {
    /// Level batches absorbed across all pattern walks of the query. A
    /// walk's directions step through its levels together, so one batch
    /// is one lattice level of every direction still walking; a level
    /// without candidates ends the walk and is not counted.
    pub levels_completed: usize,
    /// CATE evaluations performed so far (candidate treatments scored),
    /// counted as `LatticeStats::evaluated` counts them: level 1 once per
    /// direction.
    pub cate_evaluations: usize,
}

/// Structured failure of one guarded run — the one run-failure type of
/// the engine, which `causumx::Error` wraps as it is. The guard-trip
/// variants carry [`QueryProgress`] so callers can report how far the
/// walk got, and their limits in the units users set them in (ms, MiB);
/// `Worker` carries which task panicked and its stringified payload.
/// Exactly one of these surfaces per failed query — sibling patterns
/// finish, and the pool stays healthy for the next call.
#[derive(Debug, Clone, PartialEq)]
pub enum MineError {
    /// The query's cancel handle was triggered (or a `Cancel` fault
    /// fired) and the walk stopped at the next checkpoint.
    Cancelled {
        /// Progress at the checkpoint that noticed the cancellation.
        progress: QueryProgress,
    },
    /// The wall-clock deadline elapsed mid-walk.
    DeadlineExceeded {
        /// The configured deadline, in whole milliseconds.
        after_ms: u64,
        /// Progress at the checkpoint that noticed the deadline.
        progress: QueryProgress,
    },
    /// Peak-RSS growth exceeded the query's memory budget.
    MemoryBudget {
        /// Allowed growth in whole mebibytes.
        budget_mb: u64,
        /// Observed growth in mebibytes, rounded up so an overshoot
        /// never reads as 0.
        observed_mb: u64,
        /// Progress at the checkpoint that noticed the overshoot.
        progress: QueryProgress,
    },
    /// A walk task panicked; the panic was caught and attributed to its
    /// owning pattern instead of poisoning the pool.
    Worker {
        /// Which task failed, e.g. `"pattern 2 level 3 chunk 1"`.
        task: String,
        /// Stringified panic payload.
        payload: String,
    },
}

impl MineError {
    /// Stable machine-readable code for this failure, the `code` of its
    /// error envelope.
    pub fn code(&self) -> &'static str {
        match self {
            MineError::Cancelled { .. } => "cancelled",
            MineError::DeadlineExceeded { .. } => "deadline_exceeded",
            MineError::MemoryBudget { .. } => "memory_budget",
            MineError::Worker { .. } => "worker_panic",
        }
    }
}

impl std::fmt::Display for MineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MineError::Cancelled { progress } => write!(
                f,
                "query cancelled after {} levels / {} CATE evaluations",
                progress.levels_completed, progress.cate_evaluations
            ),
            MineError::DeadlineExceeded { after_ms, progress } => write!(
                f,
                "deadline of {after_ms} ms exceeded after {} levels / {} CATE evaluations",
                progress.levels_completed, progress.cate_evaluations
            ),
            MineError::MemoryBudget {
                budget_mb,
                observed_mb,
                progress,
            } => write!(
                f,
                "memory budget of {budget_mb} MiB exceeded ({observed_mb} MiB observed) after {} levels / {} CATE evaluations",
                progress.levels_completed, progress.cate_evaluations
            ),
            MineError::Worker { task, payload } => {
                write!(f, "worker task '{task}' panicked: {payload}")
            }
        }
    }
}

impl std::error::Error for MineError {}

/// Cloneable, thread-safe handle that cancels its guarded run from any
/// thread. Cancellation is cooperative: the walk notices at the next
/// chunk boundary or level merge.
#[derive(Debug, Clone)]
pub struct CancelHandle {
    flag: Arc<AtomicBool>,
}

impl CancelHandle {
    /// Request cancellation. Idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

type MemProbe = dyn Fn() -> Option<u64> + Send + Sync;

/// Per-run guard: cancellation token, optional deadline, optional
/// memory budget, optional armed fault plan, and the run's progress
/// counters.
///
/// Checks are cheap when a limit is unset (one atomic load for the
/// cancel flag); the memory probe reads procfs only when a budget is
/// configured, rate-limited to one read per `PROBE_INTERVAL_MS` (the
/// first check always probes). A guard arms a fault plan for one run:
/// each fault fires at most once per guard, so re-running a query with
/// the same plan takes a fresh guard.
pub struct RunGuard {
    cancel: Arc<AtomicBool>,
    deadline: Option<(Instant, Duration)>,
    memory_budget_bytes: Option<u64>,
    baseline_bytes: u64,
    probe: Option<Arc<MemProbe>>,
    created: Instant,
    last_probe_ms: AtomicU64,
    levels: AtomicUsize,
    evaluations: AtomicUsize,
    /// The armed plan and one fire-once flag per registered fault.
    faults: Option<(FaultPlan, Box<[AtomicBool]>)>,
}

/// A procfs read costs tens of microseconds while a checkpoint costs
/// nanoseconds, so the memory probe is rate-limited: the first check
/// always probes, later checks re-probe only after this many
/// milliseconds. Detection staleness is bounded in wall-clock time
/// rather than chunk count, and steady-state checkpoints stay at
/// nanosecond cost.
const PROBE_INTERVAL_MS: u64 = 10;

/// Sentinel for "never probed" in `last_probe_ms`.
const NEVER_PROBED: u64 = u64::MAX;

/// Bytes per mebibyte, the unit budgets are set and reported in.
const MIB: u64 = 1024 * 1024;

impl std::fmt::Debug for RunGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunGuard")
            .field("cancelled", &self.cancel.load(Ordering::Relaxed))
            .field("deadline", &self.deadline)
            .field("memory_budget_bytes", &self.memory_budget_bytes)
            .field("faults", &self.faults.as_ref().map(|(plan, _)| plan))
            .field("progress", &self.progress())
            .finish()
    }
}

impl Default for RunGuard {
    fn default() -> Self {
        Self::unlimited()
    }
}

impl RunGuard {
    /// A guard with no deadline, no memory budget and no faults. It can
    /// still be cancelled through [`RunGuard::cancel_handle`], and limits
    /// are added with the `with_*` builders.
    pub fn unlimited() -> Self {
        RunGuard {
            cancel: Arc::new(AtomicBool::new(false)),
            deadline: None,
            memory_budget_bytes: None,
            baseline_bytes: 0,
            probe: None,
            created: Instant::now(),
            last_probe_ms: AtomicU64::new(NEVER_PROBED),
            levels: AtomicUsize::new(0),
            evaluations: AtomicUsize::new(0),
            faults: None,
        }
    }

    /// Set a wall-clock deadline measured from now.
    pub fn with_deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some((Instant::now() + budget, budget));
        self
    }

    /// Set a memory budget in bytes, measured as peak-RSS growth over
    /// the probe reading taken by this call.
    pub fn with_memory_budget_bytes(mut self, budget: u64) -> Self {
        self.memory_budget_bytes = Some(budget);
        self.baseline_bytes = self.probe_now().unwrap_or(0);
        self
    }

    /// [`RunGuard::with_memory_budget_bytes`] in mebibytes.
    pub fn with_memory_budget_mb(self, budget_mb: u64) -> Self {
        self.with_memory_budget_bytes(budget_mb.saturating_mul(MIB))
    }

    /// Replace the default `VmHWM` probe with a custom one (used by the
    /// chaos suite to trip the budget deterministically). Re-baselines
    /// against the new probe if a budget is already set.
    pub fn with_memory_probe(
        mut self,
        probe: impl Fn() -> Option<u64> + Send + Sync + 'static,
    ) -> Self {
        self.probe = Some(Arc::new(probe));
        if self.memory_budget_bytes.is_some() {
            self.baseline_bytes = self.probe_now().unwrap_or(0);
        }
        self
    }

    /// Arm `plan` on this guard's run: each registered fault fires the
    /// first time the walk reaches its site, and at most once. For the
    /// chaos suite and the serve layer's opt-in `X-Chaos` header; an
    /// unarmed guard costs the walk one `Option` test per chunk.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        let fired = plan.faults.iter().map(|_| AtomicBool::new(false)).collect();
        self.faults = Some((plan, fired));
        self
    }

    /// A handle that cancels this guard's run from any thread.
    pub fn cancel_handle(&self) -> CancelHandle {
        CancelHandle {
            flag: Arc::clone(&self.cancel),
        }
    }

    fn probe_now(&self) -> Option<u64> {
        match &self.probe {
            Some(p) => p(),
            None => peak_rss_bytes(),
        }
    }

    /// Check every configured limit; `Err` is the structured failure the
    /// run stops with, carrying the progress made so far. Called at chunk
    /// boundaries and level merges; allocation-free.
    pub fn check(&self) -> Result<(), MineError> {
        if self.cancel.load(Ordering::Acquire) {
            return Err(MineError::Cancelled {
                progress: self.progress(),
            });
        }
        if let Some((at, after)) = self.deadline {
            if Instant::now() >= at {
                return Err(MineError::DeadlineExceeded {
                    after_ms: after.as_millis() as u64,
                    progress: self.progress(),
                });
            }
        }
        if let Some(budget_bytes) = self.memory_budget_bytes {
            let now_ms = self.created.elapsed().as_millis() as u64;
            let last = self.last_probe_ms.load(Ordering::Relaxed);
            if last == NEVER_PROBED || now_ms.saturating_sub(last) >= PROBE_INTERVAL_MS {
                self.last_probe_ms.store(now_ms, Ordering::Relaxed);
                if let Some(now) = self.probe_now() {
                    let observed_bytes = now.saturating_sub(self.baseline_bytes);
                    if observed_bytes > budget_bytes {
                        return Err(MineError::MemoryBudget {
                            budget_mb: budget_bytes / MIB,
                            observed_mb: observed_bytes.div_ceil(MIB),
                            progress: self.progress(),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Fire the armed faults registered at `site` that have not fired
    /// yet; `wake` pokes the scheduler's condvar
    /// ([`FaultKind::SpuriousWake`]). A no-op on an unarmed guard.
    ///
    /// [`FaultKind::Panic`] panics out of this call; the walk calls it
    /// inside its unwind-isolated task bodies, so the panic is caught
    /// and attributed to the owning pattern.
    pub(crate) fn fire_faults(&self, site: FaultSite, wake: impl Fn()) {
        let Some((plan, fired)) = &self.faults else {
            return;
        };
        for ((s, kind), fired) in plan.faults.iter().zip(fired.iter()) {
            if *s != site || fired.swap(true, Ordering::AcqRel) {
                continue;
            }
            match kind {
                FaultKind::Panic => panic!(
                    "injected fault: panic at pattern {} level {} chunk {}",
                    site.pattern, site.level, site.chunk
                ),
                FaultKind::Delay(d) => std::thread::sleep(*d),
                FaultKind::SpuriousWake => wake(),
                FaultKind::Cancel => self.cancel.store(true, Ordering::Release),
            }
        }
    }

    /// Record `n` CATE evaluations.
    pub fn add_evaluations(&self, n: usize) {
        self.evaluations.fetch_add(n, Ordering::Relaxed);
    }

    /// Record one absorbed level batch.
    pub fn level_completed(&self) {
        self.levels.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the progress counters.
    pub fn progress(&self) -> QueryProgress {
        QueryProgress {
            levels_completed: self.levels.load(Ordering::Relaxed),
            cate_evaluations: self.evaluations.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_guard_never_trips() {
        let g = RunGuard::unlimited();
        assert_eq!(g.check(), Ok(()));
        g.add_evaluations(3);
        g.level_completed();
        assert_eq!(
            g.progress(),
            QueryProgress {
                levels_completed: 1,
                cate_evaluations: 3
            }
        );
    }

    #[test]
    fn cancel_handle_trips_guard() {
        let g = RunGuard::unlimited();
        let h = g.cancel_handle();
        assert!(!h.is_cancelled());
        g.add_evaluations(5);
        g.level_completed();
        h.cancel();
        assert!(h.is_cancelled());
        // The trip carries the progress made before it.
        assert_eq!(
            g.check(),
            Err(MineError::Cancelled {
                progress: QueryProgress {
                    levels_completed: 1,
                    cate_evaluations: 5
                }
            })
        );
    }

    #[test]
    fn zero_deadline_trips_immediately() {
        let g = RunGuard::unlimited().with_deadline(Duration::ZERO);
        match g.check() {
            Err(MineError::DeadlineExceeded { after_ms, progress }) => {
                assert_eq!(after_ms, 0);
                assert_eq!(progress, QueryProgress::default());
            }
            other => panic!("expected deadline trip, got {other:?}"),
        }
    }

    #[test]
    fn synthetic_probe_trips_memory_budget() {
        use std::sync::atomic::AtomicU64;
        let calls = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&calls);
        // Baseline reading 0, then 4 MiB growth per check.
        let g = RunGuard::unlimited()
            .with_memory_probe(move || Some(c.fetch_add(1, Ordering::Relaxed) * (4 << 20)))
            .with_memory_budget_bytes(1 << 20);
        match g.check() {
            Err(MineError::MemoryBudget {
                budget_mb,
                observed_mb,
                ..
            }) => {
                assert_eq!(budget_mb, 1);
                assert_eq!(observed_mb, 4, "one probe of 4 MiB growth");
            }
            other => panic!("expected memory trip, got {other:?}"),
        }
    }

    /// A trip reports whole mebibytes: the budget rounded down as set,
    /// the observed growth rounded up so an overshoot never reads as 0.
    #[test]
    fn memory_trip_rounds_observed_growth_up() {
        let first = Arc::new(AtomicBool::new(true));
        // Baseline reading 0, then 65 MiB and one byte of growth.
        let g = RunGuard::unlimited()
            .with_memory_probe(move || {
                Some(if first.swap(false, Ordering::Relaxed) {
                    0
                } else {
                    (65 << 20) + 1
                })
            })
            .with_memory_budget_mb(64);
        match g.check() {
            Err(MineError::MemoryBudget {
                budget_mb,
                observed_mb,
                ..
            }) => assert_eq!((budget_mb, observed_mb), (64, 66)),
            other => panic!("expected memory trip, got {other:?}"),
        }
    }

    #[test]
    fn vmhwm_probe_reads_on_linux() {
        if cfg!(target_os = "linux") {
            let before = peak_rss_bytes().expect("VmHWM available on Linux");
            assert!(before > 0);
            let buf = vec![1u8; 4 << 20];
            std::hint::black_box(&buf);
            let after = peak_rss_bytes().unwrap();
            assert!(after >= before, "high-water mark regressed");
            assert!(peak_rss_mb().unwrap() > 0.0);
        }
    }
}
