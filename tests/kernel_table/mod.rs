//! The random table the kernel suites (`local_kernel.rs`,
//! `estimation_cache.rs` and `numeric_mode.rs`) draw their cases from:
//! two categorical treatment candidates (`a`, `b`), one numeric attribute
//! (`num`, a confounder of `a`), and an outcome (`y`) with real effects
//! plus data-driven noise. `confounder_panel.rs` keeps a variant of its
//! own, with more levels of `a` and zero outcomes.

use proptest::prelude::*;

use causal::Dag;
use table::{Table, TableBuilder};

/// The table of one drawn case, and its DAG: `num → a`, and
/// `a, b, num → y`.
pub fn build(cats_a: &[u8], cats_b: &[u8], nums: &[i64], noise: &[i64]) -> (Table, Dag) {
    let n = cats_a.len();
    let a: Vec<String> = cats_a.iter().map(|&v| format!("a{}", v % 3)).collect();
    let b: Vec<String> = cats_b.iter().map(|&v| format!("b{}", v % 2)).collect();
    let y: Vec<f64> = (0..n)
        .map(|i| {
            3.0 * (cats_a[i].is_multiple_of(3)) as i64 as f64
                - 2.0 * (cats_b[i] % 2 == 1) as i64 as f64
                + (nums[i] % 7) as f64 * 0.3
                + (noise[i] % 11) as f64 * 0.05
        })
        .collect();
    let table = TableBuilder::new()
        .cat_owned("a", a)
        .unwrap()
        .cat_owned("b", b)
        .unwrap()
        .int("num", nums.to_vec())
        .unwrap()
        .float("y", y)
        .unwrap()
        .build()
        .unwrap();
    let dag = Dag::new(
        &["a", "b", "num", "y"],
        &[("num", "a"), ("a", "y"), ("b", "y"), ("num", "y")],
    )
    .unwrap();
    (table, dag)
}

/// One case: the columns [`build`] reads (`a`, `b`, `num` and the noise)
/// over 60 to 159 rows, and a subpopulation mask over the same rows.
pub fn arb_rows() -> impl Strategy<Value = (Vec<u8>, Vec<u8>, Vec<i64>, Vec<i64>, Vec<bool>)> {
    (60usize..160).prop_flat_map(|n| {
        (
            prop::collection::vec(0u8..6, n),
            prop::collection::vec(0u8..6, n),
            prop::collection::vec(-20i64..20, n),
            prop::collection::vec(-100i64..100, n),
            prop::collection::vec(any::<bool>(), n),
        )
    })
}
