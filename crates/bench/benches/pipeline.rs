//! Causal-discovery benchmarks: PC and LiNGAM on 1k adult rows. The
//! pipeline's end-to-end timing lives in `causumx_bench`.

use criterion::{criterion_group, criterion_main, Criterion};

use discovery::{attr_names, lingam, numeric_columns, pc};

fn bench_discovery(c: &mut Criterion) {
    let ds = datagen::adult::generate(1_000, 1);
    let data = numeric_columns(&ds.table);
    let names = attr_names(&ds.table);
    let mut group = c.benchmark_group("discovery_adult_1k");
    group.bench_function("pc", |b| b.iter(|| pc(&data, &names, 0.01).num_edges()));
    group.bench_function("lingam", |b| b.iter(|| lingam(&data, &names).num_edges()));
    group.finish();
}

criterion_group!(
    name = pipeline;
    config = Criterion::default().sample_size(10);
    targets = bench_discovery
);
criterion_main!(pipeline);
