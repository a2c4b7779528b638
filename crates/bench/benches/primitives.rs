//! Criterion bench for the PRAM primitive substrates: scans and the
//! concurrent name table — the constant factors everything else sits on.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pdm_naming::{NamePool, NameTable};
use pdm_pram::Ctx;
use pdm_primitives::scan::{prefix_sums, scan_inclusive};

fn bench(c: &mut Criterion) {
    let n = 1 << 20;
    let data: Vec<u64> = (0..n as u64).map(|i| (i * 2654435761) % 1009).collect();

    let mut g = c.benchmark_group("scan");
    g.sample_size(10);
    g.throughput(Throughput::Elements(n as u64));
    let seq = Ctx::seq();
    let par = Ctx::par();
    g.bench_function("inclusive_sum_seq", |b| {
        b.iter(|| scan_inclusive(&seq, &data, 0u64, |a, x| a + x))
    });
    g.bench_function("inclusive_sum_par", |b| {
        b.iter(|| scan_inclusive(&par, &data, 0u64, |a, x| a + x))
    });
    g.bench_function("prefix_sums_par", |b| b.iter(|| prefix_sums(&par, &data)));
    g.finish();

    let mut g = c.benchmark_group("name_table");
    g.sample_size(10);
    let keys: Vec<(u32, u32)> = (0..1u32 << 18).map(|i| (i % 65536, i / 7)).collect();
    g.throughput(Throughput::Elements(keys.len() as u64));
    g.bench_function("insert_lookup", |b| {
        b.iter(|| {
            let pool = NamePool::dictionary();
            let t = NameTable::with_capacity(keys.len(), pool);
            let mut acc = 0u64;
            for &(a, bb) in &keys {
                acc = acc.wrapping_add(t.name(a, bb) as u64);
            }
            acc
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
