//! Deterministic fault injection for the chaos suite.
//!
//! A [`FaultPlan`] names (pattern, level, chunk) sites in the lattice
//! walk and the fault to fire there: a panic, an artificial delay, a
//! spurious scheduler wakeup, or a cooperative cancel. A plan is armed
//! on one run's guard ([`RunGuard::with_faults`]), never on the
//! configuration, so a cached prepared query never carries a fault and
//! an unarmed run pays one `Option` test per chunk.
//!
//! [`RunGuard::with_faults`]: super::guard::RunGuard::with_faults
//!
//! Injection is deterministic: a site either is or is not reached by
//! the walk (unreached sites are no-ops), and each registered fault
//! fires at most once per armed guard. The chaos tests build on this to
//! assert that an injected fault yields exactly one structured error
//! while sibling queries stay bit-identical.

use std::time::Duration;

/// A (pattern, level, chunk) coordinate in the lattice walk where a
/// fault fires. `pattern` indexes the query's subpopulations in input
/// order, `level` is the 1-based lattice level being evaluated, and
/// `chunk` indexes that level's evaluation chunks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultSite {
    /// Subpopulation (pattern walk) index, in input order.
    pub pattern: usize,
    /// 1-based lattice level being evaluated.
    pub level: usize,
    /// Evaluation chunk index within the level.
    pub chunk: usize,
}

/// What happens when an armed fault's site is reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic in the evaluating task (exercises unwind isolation).
    Panic,
    /// Sleep for the given duration (exercises stragglers/reordering).
    Delay(Duration),
    /// Wake every pool worker with nothing new to do (exercises the
    /// condvar loop against lost-wakeup/spurious-wakeup bugs).
    SpuriousWake,
    /// Trigger the run's own [`RunGuard`](super::guard::RunGuard) cancel
    /// flag (exercises the cooperative-cancellation path from inside the
    /// walk).
    Cancel,
}

/// An ordered set of faults to inject into one query's walk.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    pub(super) faults: Vec<(FaultSite, FaultKind)>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `kind` to fire the first time `site` is reached.
    pub fn inject(mut self, site: FaultSite, kind: FaultKind) -> Self {
        self.faults.push((site, kind));
        self
    }

    /// Number of registered faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::super::guard::{MineError, RunGuard};
    use super::*;

    const SITE: FaultSite = FaultSite {
        pattern: 0,
        level: 1,
        chunk: 0,
    };

    #[test]
    fn empty_plan_is_noop() {
        let g = RunGuard::unlimited().with_faults(FaultPlan::new());
        g.fire_faults(SITE, || {});
        assert_eq!(g.check(), Ok(()));
    }

    #[test]
    fn cancel_fault_trips_guard_once() {
        let plan = FaultPlan::new().inject(SITE, FaultKind::Cancel);
        assert_eq!(plan.len(), 1);
        assert!(!plan.is_empty());
        let g = RunGuard::unlimited().with_faults(plan);
        let other = FaultSite { pattern: 9, ..SITE };
        g.fire_faults(other, || {});
        assert_eq!(g.check(), Ok(()), "unreached site must be a no-op");
        g.fire_faults(SITE, || {});
        assert!(matches!(g.check(), Err(MineError::Cancelled { .. })));
    }

    #[test]
    fn panic_fault_panics_with_site_in_payload() {
        let plan = FaultPlan::new().inject(SITE, FaultKind::Panic);
        let g = RunGuard::unlimited().with_faults(plan.clone());
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            g.fire_faults(SITE, || {});
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("pattern 0 level 1 chunk 0"));
        // Fire-once: the same site is silent on the second visit…
        g.fire_faults(SITE, || {});
        // …while a fresh guard armed with the same plan fires again.
        let again = RunGuard::unlimited().with_faults(plan);
        let refired = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            again.fire_faults(SITE, || {});
        }));
        assert!(refired.is_err());
    }

    #[test]
    fn spurious_wake_calls_waker() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let plan = FaultPlan::new().inject(SITE, FaultKind::SpuriousWake);
        let g = RunGuard::unlimited().with_faults(plan);
        let woke = AtomicUsize::new(0);
        g.fire_faults(SITE, || {
            woke.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(woke.load(Ordering::Relaxed), 1);
        assert_eq!(g.check(), Ok(()));
    }

    #[test]
    fn delay_fault_sleeps() {
        let plan = FaultPlan::new().inject(SITE, FaultKind::Delay(Duration::from_millis(5)));
        let g = RunGuard::unlimited().with_faults(plan);
        let t0 = std::time::Instant::now();
        g.fire_faults(SITE, || {});
        assert!(t0.elapsed() >= Duration::from_millis(4));
    }
}
