//! Per-query lifeguards: cooperative cancellation, wall-clock deadlines
//! and memory budgets for the lattice walk.
//!
//! A [`RunGuard`] is created once per guarded mining call and checked at
//! chunk boundaries and level merges. Checks are cooperative: nothing is
//! pre-empted, the walk simply stops spawning work and surfaces a
//! structured [`Trip`] with partial-progress diagnostics. The guard also
//! owns the query's progress counters (levels absorbed, CATE
//! evaluations) so every failure can report how far the walk got.
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

/// Why a guarded run was stopped. Converted into the mining-level error
/// (and from there into `causumx::Error`) with [`QueryProgress`]
/// attached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Trip {
    /// The query's [`CancelHandle`] was triggered.
    Cancelled,
    /// The wall-clock deadline elapsed.
    DeadlineExceeded {
        /// The configured deadline.
        budget: Duration,
    },
    /// Peak-RSS growth over the guard's baseline exceeded the budget.
    MemoryBudget {
        /// Allowed growth in bytes.
        budget_bytes: u64,
        /// Observed growth in bytes when the check fired.
        observed_bytes: u64,
    },
}

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

/// Per-query guard: cancellation token, optional deadline, optional
/// memory budget, and the query's progress counters.
///
/// Checks are cheap when a limit is unset (one relaxed atomic load for
/// the cancel flag); the memory probe reads procfs only when a budget
/// is configured, rate-limited to one read per `PROBE_INTERVAL_MS`
/// (the first check always probes).
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

impl std::fmt::Debug for RunGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunGuard")
            .field("cancelled", &self.cancel.load(Ordering::Relaxed))
            .field("deadline", &self.deadline)
            .field("memory_budget_bytes", &self.memory_budget_bytes)
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
    /// A guard with no deadline and no memory budget. It can still be
    /// cancelled through [`RunGuard::cancel_handle`], and limits are added
    /// with the `with_*` builders.
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
        self.with_memory_budget_bytes(budget_mb.saturating_mul(1024 * 1024))
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

    /// Check every configured limit; `Err` means the run must stop.
    /// Called at chunk boundaries and level merges.
    pub fn check(&self) -> Result<(), Trip> {
        if self.cancel.load(Ordering::Acquire) {
            return Err(Trip::Cancelled);
        }
        if let Some((at, budget)) = self.deadline {
            if Instant::now() >= at {
                return Err(Trip::DeadlineExceeded { budget });
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
                        return Err(Trip::MemoryBudget {
                            budget_bytes,
                            observed_bytes,
                        });
                    }
                }
            }
        }
        Ok(())
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
        h.cancel();
        assert!(h.is_cancelled());
        assert_eq!(g.check(), Err(Trip::Cancelled));
    }

    #[test]
    fn zero_deadline_trips_immediately() {
        let g = RunGuard::unlimited().with_deadline(Duration::ZERO);
        match g.check() {
            Err(Trip::DeadlineExceeded { budget }) => assert_eq!(budget, Duration::ZERO),
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
            Err(Trip::MemoryBudget {
                budget_bytes,
                observed_bytes,
            }) => {
                assert_eq!(budget_bytes, 1 << 20);
                assert!(observed_bytes > budget_bytes);
            }
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
