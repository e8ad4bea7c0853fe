//! Untracked fits allocate nothing. `EstimationContext::fit_untracked` is
//! the fit every `Exact` walk candidate and every eager estimate runs:
//! it must neither allocate the `tᵀZ` vector nobody reads nor `β`, while
//! the tracked `fit` (what `FastV1`'s walk downdates from) keeps its
//! moments. This suite counts heap allocations on the calling thread
//! through a counting global allocator, so it is a test binary of its
//! own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use causal::context::{EstimationContext, SubpopPanel};
use causal::estimate::CateOptions;
use causal::NumericMode;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use table::bitset::{BitSet, Projector};
use table::{Table, TableBuilder};

/// The system allocator, counting the allocations each thread makes.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a const-initialized thread-local `Cell`, which neither
// allocates nor runs a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|a| a.set(a.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|a| a.set(a.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|a| a.set(a.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` makes on this thread, and its result.
fn allocations<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// Columns: a numeric and a categorical confounder (6 levels), a
/// treatment-correlated categorical (3 levels), and the outcome.
fn table(n: usize) -> Table {
    let mut rng = StdRng::seed_from_u64(41);
    let age: Vec<i64> = (0..n).map(|_| rng.gen_range(20..60)).collect();
    let region: Vec<String> = (0..n)
        .map(|_| format!("r{}", rng.gen_range(0..6)))
        .collect();
    let tier: Vec<String> = (0..n)
        .map(|_| format!("t{}", rng.gen_range(0..3)))
        .collect();
    let y: Vec<f64> = age
        .iter()
        .map(|&a| 2.0 * a as f64 + rng.gen_range(-5.0..5.0))
        .collect();
    TableBuilder::new()
        .int("age", age)
        .unwrap()
        .cat_owned("region", region)
        .unwrap()
        .cat_owned("tier", tier)
        .unwrap()
        .float("y", y)
        .unwrap()
        .build()
        .unwrap()
}

#[test]
fn untracked_fits_allocate_nothing() {
    let n = 3_000;
    let table = table(n);
    let subpop = BitSet::from_mask(&(0..n).map(|i| i % 4 != 3).collect::<Vec<_>>());
    let treated: Vec<BitSet> = [2, 3, 5]
        .iter()
        .map(|&k| BitSet::from_mask(&(0..n).map(|i| i % k == 0).collect::<Vec<_>>()))
        .collect();
    let local: Vec<BitSet> = treated
        .iter()
        .map(|t| Projector::new(&subpop).project(t))
        .collect();
    let mut fits = 0;
    for mode in [NumericMode::Exact, NumericMode::FastV1] {
        for cap in [None, Some(700)] {
            let opts = CateOptions {
                sample_cap: cap,
                numeric_mode: mode,
                ..CateOptions::default()
            };
            // The walk's panel-assembled contexts (level codes) and the
            // cold dense one, over q = 1 + 5 + 2 design columns.
            let contexts = [
                SubpopPanel::new(&table, Some(&subpop), 3, &opts)
                    .assemble(&table, &[0, 1, 2])
                    .unwrap(),
                EstimationContext::new(&table, Some(&subpop), 3, &[0, 1, 2], &opts).unwrap(),
            ];
            for ctx in &contexts {
                assert_eq!(ctx.num_design_cols(), 8);
                for t in &local {
                    // Rows of the sample as well as local coordinates.
                    let sampled = BitSet::from_mask(
                        &ctx.rows()
                            .iter()
                            .map(|&r| table.column(2).codes().unwrap()[r] == 0 || r % 2 == 0)
                            .collect::<Vec<_>>(),
                    );
                    for t in [t, &sampled] {
                        let (count, fit) = allocations(|| ctx.fit_untracked(t));
                        let fit = fit.expect("both arms are populated");
                        assert_eq!(
                            count, 0,
                            "{mode:?}, cap {cap:?}: an untracked fit allocated"
                        );
                        fits += 1;
                        // The tracked fit: the same bits, with its moments.
                        let (tracked, moments) = ctx.fit(t).unwrap();
                        assert_eq!(fit.cate().to_bits(), tracked.cate().to_bits());
                        assert_eq!(
                            ctx.p_value(&fit, t).to_bits(),
                            ctx.p_value(&tracked, t).to_bits()
                        );
                        assert_eq!(moments.tz.len(), 8);
                        assert_eq!(moments.n_treated, fit.n_treated());
                    }
                }
            }
        }
    }
    assert_eq!(fits, 2 * 2 * 2 * 3 * 2);
}
