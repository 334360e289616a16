//! Fleet inference throughput: batched forward passes vs. the naive
//! per-cell predict loop, plus the full engine pipeline.
//!
//! The headline number backing the fleet subsystem: at fleet size 10k, one
//! `predict_batch` pass must beat 10k scalar `predict` calls by ≥ 5×.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pinnsoc::{BatchScratch, PredictQuery, SocModel};
use pinnsoc_fleet::{
    testing::untrained_model, CellConfig, FleetConfig, FleetEngine, Telemetry, WorkloadQuery,
};
use std::hint::black_box;

fn queries(n: usize) -> Vec<PredictQuery> {
    (0..n)
        .map(|i| {
            let t = i as f64 / n as f64;
            PredictQuery {
                voltage_v: 3.0 + 1.1 * t,
                current_a: 5.0 * t,
                temperature_c: 15.0 + 20.0 * t,
                avg_current_a: 4.0 * t,
                avg_temperature_c: 20.0 + 10.0 * t,
                horizon_s: 30.0 + 300.0 * t,
            }
        })
        .collect()
}

fn per_cell_loop(model: &SocModel, queries: &[PredictQuery]) -> f64 {
    let mut acc = 0.0;
    for q in queries {
        acc += model.predict(
            q.voltage_v,
            q.current_a,
            q.temperature_c,
            q.avg_current_a,
            q.avg_temperature_c,
            q.horizon_s,
        );
    }
    acc
}

fn bench_fleet(c: &mut Criterion) {
    let model = untrained_model();
    let mut group = c.benchmark_group("fleet");
    group.sample_size(10);

    for &n in &[1_000usize, 10_000] {
        let qs = queries(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_function(&format!("per_cell_loop_{n}"), |b| {
            b.iter(|| black_box(per_cell_loop(&model, black_box(&qs))))
        });
        group.bench_function(&format!("batched_micro256_{n}"), |b| {
            let mut scratch = BatchScratch::default();
            let mut out = Vec::with_capacity(n);
            b.iter(|| {
                out.clear();
                for chunk in black_box(&qs).chunks(256) {
                    model.predict_batch_into(chunk, &mut scratch, &mut out);
                }
                black_box(out.last().copied())
            })
        });
    }

    // Full engine pass at 10k cells: ingest a report per cell, drain, and
    // refresh every estimate through sharded micro-batched workers.
    let n = 10_000u64;
    let mut engine = FleetEngine::new(
        untrained_model(),
        FleetConfig {
            shards: 8,
            micro_batch: 512,
            ekf_fallback: None,
            ..FleetConfig::default()
        },
    );
    for id in 0..n {
        engine.register(
            id,
            CellConfig {
                initial_soc: 0.9,
                capacity_ah: 3.0,
            },
        );
    }
    group.throughput(Throughput::Elements(n));
    let mut tick = 0.0f64;
    group.bench_function("engine_ingest_process_10k", |b| {
        b.iter(|| {
            tick += 1.0;
            for id in 0..n {
                engine.ingest(
                    id,
                    Telemetry {
                        time_s: tick,
                        voltage_v: 3.7,
                        current_a: 1.0,
                        temperature_c: 25.0,
                    },
                );
            }
            black_box(engine.process_pending())
        })
    });
    group.bench_function("engine_predict_all_10k", |b| {
        b.iter(|| {
            black_box(engine.predict_all(WorkloadQuery {
                avg_current_a: 3.0,
                avg_temperature_c: 25.0,
                horizon_s: 120.0,
            }))
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_fleet
}
criterion_main!(benches);
