//! Configuration of the CauSumX pipeline.
//!
//! [`CausumxConfig`] is a plain parameter bag (kept `pub` for
//! compatibility); new code should go through [`ConfigBuilder`], which
//! validates every knob before the engine ever sees it:
//!
//! ```
//! use causumx::ConfigBuilder;
//! let config = ConfigBuilder::new().k(5).theta(0.75).build().unwrap();
//! assert!(ConfigBuilder::new().theta(1.5).build().is_err());
//! ```

use std::sync::Arc;
use std::time::Duration;

use causal::NumericMode;
use mining::treatment::{LatticeOptions, MAX_LEVEL};
use mining::{FaultPlan, RunGuard};

use crate::error::Error;

/// How the final explanation set is selected from the candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionMethod {
    /// LP relaxation + randomized rounding (the paper's default, §5.3).
    LpRounding,
    /// The `Greedy-Last-Step` variant (§6.1).
    Greedy,
    /// Exact branch-and-bound optimum — the selection stage of
    /// `Brute-Force`.
    Exhaustive,
}

/// Upper bound on an explicit `threads` setting — generous enough for
/// any host plus oversubscribed determinism testing, small enough to
/// reject nonsense before a thousand workers get spawned.
pub const MAX_THREADS: usize = 512;

/// End-to-end parameters. Defaults follow §6.1: `k = 5`, `θ = 0.75`,
/// Apriori threshold `τ = 0.1`.
#[derive(Debug, Clone)]
pub struct CausumxConfig {
    /// Size constraint: at most `k` explanation patterns.
    pub k: usize,
    /// Coverage constraint: at least `θ·m` groups covered.
    pub theta: f64,
    /// Apriori support threshold `τ` as a fraction of `|D|`.
    pub apriori_tau: f64,
    /// Maximum conjuncts in a grouping pattern.
    pub max_grouping_len: usize,
    /// Treatment-lattice options (Algorithm 2 + its optimizations).
    pub lattice: LatticeOptions,
    /// Worker count for the unified work-stealing mining scheduler
    /// (optimization c — and within-level fan-out, which share one
    /// pool): `0` (the default) = one worker per available core, `1` =
    /// fully serial, `n` = exactly `n` workers (may exceed the core
    /// count — useful for determinism tests; results are bit-identical
    /// at any setting).
    pub threads: usize,
    /// Rounding trials for the LP step.
    pub rounding_rounds: usize,
    /// RNG seed for the rounding step.
    pub seed: u64,
    /// Final selection method.
    pub selection: SelectionMethod,
    /// Mine both a positive and a negative treatment per grouping pattern
    /// (the paper's default pairing); when `false` only positive
    /// treatments are mined.
    pub mine_negative: bool,
    /// Wall-clock deadline per query, honored by the fallible entry
    /// points ([`crate::PreparedQuery::try_run`]): the walk checks it at
    /// chunk boundaries and level merges and surfaces
    /// [`Error::DeadlineExceeded`] with partial-progress diagnostics.
    /// `None` (default) = unlimited. The infallible `run()` ignores it.
    pub deadline: Option<Duration>,
    /// Memory budget per query in mebibytes, measured as peak-RSS
    /// (`VmHWM`) growth over the reading taken when the query's guard is
    /// built; honored by the fallible entry points, surfacing
    /// [`Error::MemoryBudget`]. `VmHWM` is process-wide, so the delta is
    /// a lower bound on the query's own footprint, not an exact
    /// attribution. `None` (default) = unlimited.
    pub memory_budget_mb: Option<u64>,
    /// Capacity of the session's prepared-statement cache (entries), used
    /// by [`crate::Session::prepare_cached`] and the serve layer: distinct
    /// normalized statements beyond this bound evict the least recently
    /// used entry. `0` disables caching entirely (every `prepare_cached`
    /// is a miss that stores nothing). Default: 64.
    pub prepared_statements: usize,
}

impl Default for CausumxConfig {
    fn default() -> Self {
        CausumxConfig {
            k: 5,
            theta: 0.75,
            apriori_tau: 0.1,
            max_grouping_len: 3,
            lattice: LatticeOptions::default(),
            threads: 0,
            rounding_rounds: 64,
            seed: 0xCA05,
            selection: SelectionMethod::LpRounding,
            mine_negative: true,
            deadline: None,
            memory_budget_mb: None,
            prepared_statements: 64,
        }
    }
}

impl CausumxConfig {
    /// Start a validating [`ConfigBuilder`] from the paper defaults.
    pub fn builder() -> ConfigBuilder {
        ConfigBuilder::new()
    }

    /// The scheduler worker count every mining call of this
    /// configuration runs with: [`CausumxConfig::threads`] (`0` = one
    /// worker per core).
    pub fn effective_threads(&self) -> usize {
        self.threads
    }

    /// Build the per-query [`RunGuard`] this configuration asks for:
    /// deadline measured from now, memory budget baselined against the
    /// current `VmHWM` reading. Called once per guarded run by
    /// [`crate::PreparedQuery::try_run`]; exposed so callers can take
    /// the guard's cancel handle before starting the query.
    pub fn run_guard(&self) -> RunGuard {
        let mut guard = RunGuard::unlimited();
        if let Some(d) = self.deadline {
            guard = guard.with_deadline(d);
        }
        if let Some(mb) = self.memory_budget_mb {
            guard = guard.with_memory_budget_mb(mb);
        }
        guard
    }

    /// Check every invariant the builder enforces. Exposed so configs
    /// assembled by direct field access (the pre-builder style) can be
    /// validated after the fact.
    pub fn validate(&self) -> Result<(), Error> {
        fn reject(param: &'static str, msg: String) -> Result<(), Error> {
            Err(Error::Config { param, msg })
        }
        if self.k == 0 {
            return reject("k", "size constraint k must be at least 1".into());
        }
        if !(0.0..=1.0).contains(&self.theta) || self.theta.is_nan() {
            return reject(
                "theta",
                format!("coverage threshold must lie in [0, 1], got {}", self.theta),
            );
        }
        if !(0.0..=1.0).contains(&self.apriori_tau) || self.apriori_tau.is_nan() {
            return reject(
                "apriori_tau",
                format!(
                    "support threshold must lie in [0, 1], got {}",
                    self.apriori_tau
                ),
            );
        }
        if self.max_grouping_len == 0 {
            return reject("max_grouping_len", "must be at least 1".into());
        }
        // 0 = auto and explicit counts may exceed the core count (for
        // determinism testing), but four-digit worker pools are a typo,
        // not a plan.
        if self.threads > MAX_THREADS {
            return reject(
                "threads",
                format!(
                    "worker count must be at most {MAX_THREADS}, got {}",
                    self.threads
                ),
            );
        }
        if self.deadline == Some(Duration::ZERO) {
            return reject(
                "deadline",
                "deadline must be positive (omit it for unlimited)".into(),
            );
        }
        if self.memory_budget_mb == Some(0) {
            return reject(
                "memory_budget_mb",
                "memory budget must be positive (omit it for unlimited)".into(),
            );
        }
        if self.lattice.max_level == 0 {
            return reject("max_level", "lattice depth must be at least 1".into());
        }
        if self.lattice.max_level > MAX_LEVEL {
            return reject(
                "max_level",
                format!(
                    "lattice depth is at most {MAX_LEVEL}, got {}",
                    self.lattice.max_level
                ),
            );
        }
        if !(self.lattice.max_p_value > 0.0 && self.lattice.max_p_value <= 1.0) {
            return reject(
                "max_p_value",
                format!(
                    "significance gate must lie in (0, 1], got {}",
                    self.lattice.max_p_value
                ),
            );
        }
        if !(self.lattice.top_frac > 0.0 && self.lattice.top_frac <= 1.0) {
            return reject(
                "top_frac",
                format!(
                    "per-level retention must lie in (0, 1], got {}",
                    self.lattice.top_frac
                ),
            );
        }
        Ok(())
    }
}

/// Validating builder for [`CausumxConfig`]. Every setter is chainable;
/// [`ConfigBuilder::build`] rejects out-of-domain values (`k = 0`,
/// `θ ∉ [0, 1]`, `τ ∉ [0, 1]`, …) with a descriptive
/// [`Error::Config`] naming the parameter.
#[derive(Debug, Clone, Default)]
pub struct ConfigBuilder {
    cfg: CausumxConfig,
}

impl ConfigBuilder {
    /// Builder initialized to the §6.1 paper defaults.
    pub fn new() -> Self {
        ConfigBuilder {
            cfg: CausumxConfig::default(),
        }
    }

    /// Size constraint: at most `k` explanation patterns.
    pub fn k(mut self, k: usize) -> Self {
        self.cfg.k = k;
        self
    }

    /// Coverage constraint θ (fraction of output groups).
    pub fn theta(mut self, theta: f64) -> Self {
        self.cfg.theta = theta;
        self
    }

    /// Apriori support threshold τ as a fraction of `|D|`.
    pub fn apriori_tau(mut self, tau: f64) -> Self {
        self.cfg.apriori_tau = tau;
        self
    }

    /// Maximum conjuncts in a grouping pattern.
    pub fn max_grouping_len(mut self, len: usize) -> Self {
        self.cfg.max_grouping_len = len;
        self
    }

    /// Replace the full treatment-lattice option block.
    pub fn lattice(mut self, lattice: LatticeOptions) -> Self {
        self.cfg.lattice = lattice;
        self
    }

    /// Lattice depth cap (convenience for `lattice.max_level`), at most
    /// [`mining::treatment::MAX_LEVEL`].
    pub fn max_level(mut self, level: usize) -> Self {
        self.cfg.lattice.max_level = level;
        self
    }

    /// Significance gate on returned treatments (convenience for
    /// `lattice.max_p_value`).
    pub fn max_p_value(mut self, p: f64) -> Self {
        self.cfg.lattice.max_p_value = p;
        self
    }

    /// CATE sampling cap — optimization (d) (convenience for
    /// `lattice.cate_opts.sample_cap`).
    pub fn sample_cap(mut self, cap: Option<usize>) -> Self {
        self.cfg.lattice.cate_opts.sample_cap = cap;
        self
    }

    /// Minimum units per treatment arm (convenience for
    /// `lattice.cate_opts.min_arm`).
    pub fn min_arm(mut self, min_arm: usize) -> Self {
        self.cfg.lattice.cate_opts.min_arm = min_arm;
        self
    }

    /// Worker count for the unified work-stealing mining scheduler: `0` =
    /// one worker per available core, `1` = fully serial, `n` = exactly
    /// `n` (validated against [`MAX_THREADS`]; counts above the core
    /// count are allowed for determinism testing). One pool serves both
    /// fan-out dimensions — across grouping patterns and within lattice
    /// levels — and results are bit-identical at every setting, so this
    /// is purely a performance/footprint knob.
    pub fn threads(mut self, threads: usize) -> Self {
        self.cfg.threads = threads;
        self
    }

    /// Numeric accumulation mode for the CATE kernels (convenience for
    /// `lattice.cate_opts.numeric_mode`; default [`NumericMode::Exact`]).
    /// `Exact` replays the serial ascending-order floating-point fold the
    /// bit-replay contract pins; [`NumericMode::FastV1`] switches the hot
    /// reduction kernels to fixed-lane partial sums folded in a pinned
    /// order — deterministic within the mode at any thread count, and
    /// agreeing with `Exact` to ~1e-9 relative tolerance. `FastV1` also
    /// derives subset candidates' treatment moments by downdating their
    /// parent's instead of re-gathering them.
    pub fn numeric_mode(mut self, mode: NumericMode) -> Self {
        self.cfg.lattice.cate_opts.numeric_mode = mode;
        self
    }

    /// Wall-clock deadline per query (must be positive), honored by the
    /// fallible entry points — see [`CausumxConfig::deadline`].
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.cfg.deadline = Some(deadline);
        self
    }

    /// Memory budget per query in mebibytes (must be positive), honored
    /// by the fallible entry points — see
    /// [`CausumxConfig::memory_budget_mb`].
    pub fn memory_budget_mb(mut self, budget_mb: u64) -> Self {
        self.cfg.memory_budget_mb = Some(budget_mb);
        self
    }

    /// Capacity of the session's prepared-statement cache — see
    /// [`CausumxConfig::prepared_statements`]. `0` disables caching.
    pub fn prepared_statements(mut self, capacity: usize) -> Self {
        self.cfg.prepared_statements = capacity;
        self
    }

    /// Deterministic fault-injection plan for the chaos suite: panics,
    /// delays, spurious wakeups or cancels fired at chosen (pattern,
    /// level, chunk) points of the lattice walk (convenience for
    /// `lattice.fault_plan`). Test-only by design — production configs
    /// leave it unset and pay nothing.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.cfg.lattice.fault_plan = Some(Arc::new(plan));
        self
    }

    /// Rounding trials for the LP selection step.
    pub fn rounding_rounds(mut self, rounds: usize) -> Self {
        self.cfg.rounding_rounds = rounds;
        self
    }

    /// RNG seed for the rounding step.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Final selection method.
    pub fn selection(mut self, method: SelectionMethod) -> Self {
        self.cfg.selection = method;
        self
    }

    /// Mine both positive and negative treatments per grouping pattern.
    pub fn mine_negative(mut self, both: bool) -> Self {
        self.cfg.mine_negative = both;
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<CausumxConfig, Error> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_section_6_1() {
        let c = CausumxConfig::default();
        assert_eq!(c.k, 5);
        assert!((c.theta - 0.75).abs() < 1e-12);
        assert!((c.apriori_tau - 0.1).abs() < 1e-12);
        assert_eq!(c.selection, SelectionMethod::LpRounding);
    }

    #[test]
    fn builder_defaults_validate() {
        let c = ConfigBuilder::new().build().unwrap();
        assert_eq!(c.k, 5);
        assert_eq!(c.threads, 0, "default = auto workers");
        assert_eq!(c.effective_threads(), 0);
        let c2 = CausumxConfig::builder()
            .k(3)
            .theta(1.0)
            .apriori_tau(0.05)
            .max_level(2)
            .threads(1)
            .build()
            .unwrap();
        assert_eq!(c2.k, 3);
        assert_eq!(c2.lattice.max_level, 2);
        assert_eq!(c2.effective_threads(), 1);
    }

    #[test]
    fn numeric_mode_knob_defaults_and_sets() {
        let c = ConfigBuilder::new().build().unwrap();
        assert_eq!(c.lattice.cate_opts.numeric_mode, NumericMode::Exact);
        let fast = ConfigBuilder::new()
            .numeric_mode(NumericMode::FastV1)
            .build()
            .unwrap();
        assert_eq!(fast.lattice.cate_opts.numeric_mode, NumericMode::FastV1);
    }

    #[test]
    fn builder_rejects_out_of_domain() {
        let param_of = |r: Result<CausumxConfig, Error>| match r {
            Err(Error::Config { param, .. }) => param,
            other => panic!("expected Config error, got {other:?}"),
        };
        assert_eq!(param_of(ConfigBuilder::new().k(0).build()), "k");
        assert_eq!(param_of(ConfigBuilder::new().theta(1.5).build()), "theta");
        assert_eq!(param_of(ConfigBuilder::new().theta(-0.1).build()), "theta");
        assert_eq!(
            param_of(ConfigBuilder::new().theta(f64::NAN).build()),
            "theta"
        );
        assert_eq!(
            param_of(ConfigBuilder::new().apriori_tau(-0.2).build()),
            "apriori_tau"
        );
        assert_eq!(
            param_of(ConfigBuilder::new().max_level(0).build()),
            "max_level"
        );
        // Deeper than the walk's inline atom sets hold: rejected, never
        // truncated.
        assert!(ConfigBuilder::new().max_level(MAX_LEVEL).build().is_ok());
        assert_eq!(
            param_of(ConfigBuilder::new().max_level(MAX_LEVEL + 1).build()),
            "max_level"
        );
        assert_eq!(
            param_of(ConfigBuilder::new().max_p_value(0.0).build()),
            "max_p_value"
        );
        assert_eq!(
            param_of(ConfigBuilder::new().threads(MAX_THREADS + 1).build()),
            "threads"
        );
        assert!(ConfigBuilder::new().threads(MAX_THREADS).build().is_ok());
        assert!(ConfigBuilder::new().threads(0).build().is_ok());
        assert_eq!(
            param_of(ConfigBuilder::new().deadline(Duration::ZERO).build()),
            "deadline"
        );
        assert_eq!(
            param_of(ConfigBuilder::new().memory_budget_mb(0).build()),
            "memory_budget_mb"
        );
    }

    #[test]
    fn guard_knobs_build_and_validate() {
        let c = ConfigBuilder::new()
            .deadline(Duration::from_millis(250))
            .memory_budget_mb(512)
            .build()
            .unwrap();
        assert_eq!(c.deadline, Some(Duration::from_millis(250)));
        assert_eq!(c.memory_budget_mb, Some(512));
        // The derived guard starts un-tripped (deadline in the future,
        // budget baselined at the current reading).
        assert!(c.run_guard().check().is_ok());
        // Default config: unlimited guard.
        assert!(CausumxConfig::default().run_guard().check().is_ok());
    }

    #[test]
    fn fault_plan_knob_reaches_lattice_options() {
        use mining::{FaultKind, FaultSite};
        let plan = FaultPlan::new().inject(
            FaultSite {
                pattern: 0,
                level: 1,
                chunk: 0,
            },
            FaultKind::Cancel,
        );
        let c = ConfigBuilder::new().fault_plan(plan).build().unwrap();
        assert_eq!(c.lattice.fault_plan.as_ref().map(|p| p.len()), Some(1));
        assert!(CausumxConfig::default().lattice.fault_plan.is_none());
    }

    #[test]
    fn validate_catches_hand_built_configs() {
        let mut c = CausumxConfig::default();
        assert!(c.validate().is_ok());
        c.apriori_tau = 2.0;
        assert!(c.validate().is_err());
    }
}
