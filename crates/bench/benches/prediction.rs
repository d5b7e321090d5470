//! Criterion bench: ratio-prediction overhead vs full compression —
//! validating the "<10 % of compression time" property the overlap
//! design depends on (Jin et al. [25]).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use szlite::{compress_f32, sample_quantization_into, Config, Dims, SampleScratch};
use workloads::{nyx, NyxParams};

fn bench_prediction(c: &mut Criterion) {
    let side = 32;
    let f = nyx::single_field(NyxParams::with_side(side), "temperature");
    let dims = Dims::d3(side, side, side);
    let cfg = Config::rel(1e-3);
    let raw = (f.data.len() * 4) as u64;

    let mut g = c.benchmark_group("prediction-vs-compression");
    g.sample_size(10);
    g.throughput(Throughput::Bytes(raw));
    let mut scratch = SampleScratch::new();
    g.bench_function("sample-5pct", |b| {
        b.iter(|| sample_quantization_into(&f.data, &dims, &cfg, 0.05, &mut scratch).unwrap())
    });
    g.bench_function("full-compression", |b| {
        b.iter(|| compress_f32(&f.data, &dims, &cfg).unwrap())
    });
    g.finish();
}

criterion_group!(benches, bench_prediction);
criterion_main!(benches);
