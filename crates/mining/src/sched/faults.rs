//! Deterministic fault injection for the chaos suite.
//!
//! A [`FaultPlan`] names (pattern, level, chunk) sites in the lattice
//! walk and the fault to fire there: a panic, an artificial delay, a
//! spurious scheduler wakeup, or a cooperative cancel. Plans are gated
//! through `LatticeOptions::fault_plan`, so production configs carry
//! `None` and pay nothing.
//!
//! Injection is deterministic: a site either is or is not reached by
//! the walk (unreached sites are no-ops), and each registered fault
//! fires at most once per [`FaultInjector`] (one injector is armed per
//! guarded mining call). The chaos tests build on this to assert that
//! an injected fault yields exactly one structured error while sibling
//! queries stay bit-identical.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use super::guard::RunGuard;

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
    /// Trigger the query's own [`RunGuard`] cancel flag (exercises the
    /// cooperative-cancellation path from inside the walk).
    Cancel,
}

/// An ordered set of faults to inject into one query's walk.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    faults: Vec<(FaultSite, FaultKind)>,
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

/// A [`FaultPlan`] armed for one guarded mining call: tracks which
/// faults have fired so each fires at most once per call.
pub struct FaultInjector {
    plan: Arc<FaultPlan>,
    fired: Vec<AtomicBool>,
}

impl FaultInjector {
    /// Arm `plan` with fresh fire-once state.
    pub fn new(plan: Arc<FaultPlan>) -> Self {
        let fired = (0..plan.faults.len())
            .map(|_| AtomicBool::new(false))
            .collect();
        FaultInjector { plan, fired }
    }

    /// Fire any not-yet-fired faults registered at `site`. `guard` is
    /// the query's own guard (targeted by [`FaultKind::Cancel`]) and
    /// `wake` pokes the scheduler's condvar ([`FaultKind::SpuriousWake`]).
    ///
    /// [`FaultKind::Panic`] panics out of this call; callers run inside
    /// the walk's unwind-isolated task bodies, so the panic is caught
    /// and attributed to the owning pattern.
    pub fn at(&self, site: FaultSite, guard: &RunGuard, wake: impl Fn()) {
        for (i, (s, kind)) in self.plan.faults.iter().enumerate() {
            if *s != site || self.fired[i].swap(true, Ordering::AcqRel) {
                continue;
            }
            match kind {
                FaultKind::Panic => panic!(
                    "injected fault: panic at pattern {} level {} chunk {}",
                    site.pattern, site.level, site.chunk
                ),
                FaultKind::Delay(d) => std::thread::sleep(*d),
                FaultKind::SpuriousWake => wake(),
                FaultKind::Cancel => guard.cancel_handle().cancel(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SITE: FaultSite = FaultSite {
        pattern: 0,
        level: 1,
        chunk: 0,
    };

    #[test]
    fn empty_plan_is_noop() {
        let inj = FaultInjector::new(Arc::new(FaultPlan::new()));
        let g = RunGuard::unlimited();
        inj.at(SITE, &g, || {});
        assert_eq!(g.check(), Ok(()));
    }

    #[test]
    fn cancel_fault_trips_guard_once() {
        let plan = FaultPlan::new().inject(SITE, FaultKind::Cancel);
        assert_eq!(plan.len(), 1);
        assert!(!plan.is_empty());
        let inj = FaultInjector::new(Arc::new(plan));
        let g = RunGuard::unlimited();
        let other = FaultSite { pattern: 9, ..SITE };
        inj.at(other, &g, || {});
        assert_eq!(g.check(), Ok(()), "unreached site must be a no-op");
        inj.at(SITE, &g, || {});
        assert!(g.check().is_err());
    }

    #[test]
    fn panic_fault_panics_with_site_in_payload() {
        let plan = Arc::new(FaultPlan::new().inject(SITE, FaultKind::Panic));
        let inj = FaultInjector::new(Arc::clone(&plan));
        let g = RunGuard::unlimited();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            inj.at(SITE, &g, || {});
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("pattern 0 level 1 chunk 0"));
        // Fire-once: the same site is silent on the second visit.
        inj.at(SITE, &g, || {});
    }

    #[test]
    fn spurious_wake_calls_waker() {
        use std::sync::atomic::AtomicUsize;
        let plan = Arc::new(FaultPlan::new().inject(SITE, FaultKind::SpuriousWake));
        let inj = FaultInjector::new(plan);
        let g = RunGuard::unlimited();
        let woke = AtomicUsize::new(0);
        inj.at(SITE, &g, || {
            woke.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(woke.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn delay_fault_sleeps() {
        let plan =
            Arc::new(FaultPlan::new().inject(SITE, FaultKind::Delay(Duration::from_millis(5))));
        let inj = FaultInjector::new(plan);
        let g = RunGuard::unlimited();
        let t0 = std::time::Instant::now();
        inj.at(SITE, &g, || {});
        assert!(t0.elapsed() >= Duration::from_millis(4));
    }
}
