//! The one bench harness behind every `*_baseline` bin and `bench_compare`:
//! the `--smoke` flag, repetition timers, order statistics, the
//! workspace-root JSON writer, and the fleet fixture the engine-level
//! baselines share. Each bin keeps its own statistic — min-of-reps for the
//! kernel microbench, the median `sorted[len / 2]` for tick times, the
//! nearest-rank percentile for per-frame latencies — so the recorded
//! `BENCH_*.json` series stay comparable across changes.

use pinnsoc::SocModel;
use pinnsoc_fleet::{CellConfig, FleetConfig, FleetEngine, SocEstimate, Telemetry};
use serde::Serialize;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Fleet shards of the serving protocol — keep stable across changes so
/// the recorded numbers stay comparable.
pub const SHARDS: usize = 8;
/// Estimate micro-batch of the serving protocol.
pub const MICRO_BATCH: usize = 512;

/// Whether the bin was started with `--smoke` (the CI-sized run: same
/// assertions, smaller inputs, no `BENCH_*.json` written).
pub fn smoke() -> bool {
    std::env::args().any(|arg| arg == "--smoke")
}

/// Times `reps` calls of `f` after one untimed warm-up call.
fn samples(reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    f();
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect()
}

/// Median seconds per call of `f` over `reps` timed repetitions (after one
/// warm-up call).
pub fn median_time(reps: usize, f: impl FnMut()) -> f64 {
    let mut samples = samples(reps, f);
    samples.sort_by(f64::total_cmp);
    median(&samples)
}

/// Minimum seconds per call of `f` over `reps` timed repetitions (after
/// one warm-up call). The minimum, not the median: shared hosts show long
/// contended stretches that shift the median run-to-run, while the fastest
/// observed run converges on the uncontended speed a kernel contract is
/// about.
pub fn min_time(reps: usize, f: impl FnMut()) -> f64 {
    samples(reps, f).into_iter().fold(f64::INFINITY, f64::min)
}

/// Median of an ascending slice: the upper middle element, `sorted[len / 2]`.
pub fn median(sorted: &[f64]) -> f64 {
    sorted[sorted.len() / 2]
}

/// Nearest-rank percentile of an ascending slice, `q` in `[0, 1]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// The workspace root, where `BENCH_*.json`, `bench_history/` and
/// `results/` live.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Writes `value` to `BENCH_<name>.json` at the workspace root; in smoke
/// mode writes nothing and says the file was left untouched.
///
/// # Panics
///
/// When the file cannot be written — a bench run that cannot record its
/// result has failed.
pub fn write_bench_json<T: Serialize>(name: &str, smoke: bool, value: &T) {
    let file = format!("BENCH_{name}.json");
    write_json_in(&workspace_root(), &file, smoke, value)
        .unwrap_or_else(|e| panic!("write {file}: {e}"));
}

/// Writes `value` as pretty JSON to `root/file` (creating missing
/// directories), or in smoke mode leaves that path untouched.
pub(crate) fn write_json_in<T: Serialize>(
    root: &Path,
    file: &str,
    smoke: bool,
    value: &T,
) -> std::io::Result<()> {
    if smoke {
        println!("\nsmoke run OK ({file} untouched)");
        return Ok(());
    }
    let path = root.join(file);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let json = serde_json::to_string_pretty(value).map_err(std::io::Error::other)?;
    std::fs::write(&path, json)?;
    println!("\nwrote {file}");
    Ok(())
}

/// The serving-protocol engine config: [`SHARDS`] shards, [`MICRO_BATCH`]
/// micro-batches, and the host's default worker count.
pub fn fleet_config() -> FleetConfig {
    FleetConfig {
        shards: SHARDS,
        micro_batch: MICRO_BATCH,
        ..FleetConfig::default()
    }
}

/// Hands cells `0..cells` to `register` with the fixture's cell config.
pub fn register_cells(cells: usize, mut register: impl FnMut(u64, CellConfig) -> bool) {
    for id in 0..cells as u64 {
        let config = CellConfig {
            initial_soc: 0.9,
            capacity_ah: 3.0,
        };
        assert!(register(id, config), "cell {id} was not registered");
    }
}

/// An engine serving `model` under `config` with cells `0..cells`
/// registered.
pub fn fleet_engine(model: &SocModel, cells: usize, config: FleetConfig) -> FleetEngine {
    let mut engine = FleetEngine::new(model.clone(), config);
    register_cells(cells, |id, cell| engine.register(id, cell));
    engine
}

/// Cell `id`'s report at `tick` in a fleet of `cells`: a voltage spread
/// across the fleet so cells do not all land on the same estimate.
pub fn telemetry(cells: usize, id: u64, tick: f64) -> Telemetry {
    Telemetry {
        time_s: tick,
        voltage_v: 3.7 - 0.2 * (id as f64 / cells as f64),
        current_a: 1.0,
        temperature_c: 25.0,
    }
}

/// One serving tick — a report per cell, then process — returning its
/// wall time in seconds.
///
/// # Panics
///
/// When the engine does not absorb and estimate every cell.
pub fn run_tick(engine: &mut FleetEngine, cells: usize, tick: f64) -> f64 {
    let start = Instant::now();
    for id in 0..cells as u64 {
        engine.ingest(id, telemetry(cells, id, tick));
    }
    let totals = black_box(engine.process_pending());
    let wall = start.elapsed().as_secs_f64();
    assert_eq!(totals, (cells, cells), "engine dropped cells");
    wall
}

/// Every cell's estimate, bit-exact (`f64::to_bits`).
pub fn estimates(engine: &FleetEngine, cells: usize) -> Vec<(u64, SocEstimate)> {
    (0..cells as u64)
        .map(|id| {
            let (soc, source) = engine.estimate(id).expect("registered cell");
            (soc.to_bits(), source)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.0), 0.0);
        assert_eq!(percentile(&sorted, 0.5), 50.0);
        assert_eq!(percentile(&sorted, 0.99), 99.0);
        assert_eq!(percentile(&sorted, 1.0), 100.0);
        // 10 samples: rank (10 - 1) * 0.99 = 8.91 rounds to index 9.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 0.99), 10.0);
        assert_eq!(percentile(&ten, 0.5), 6.0);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(percentile(&[7.0], q), 7.0);
        }
    }

    #[test]
    fn median_is_upper_middle_element() {
        let odd = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(median(&odd), 3.0);
        assert_eq!(median(&odd), odd[odd.len() / 2]);
        let even = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(median(&even), 3.0);
        assert_eq!(median(&even), even[even.len() / 2]);
        assert_eq!(median(&[9.0]), 9.0);
    }

    #[test]
    fn timers_warm_up_once_then_time_each_rep() {
        for reps in [1, 5] {
            let mut calls = 0;
            let t = median_time(reps, || calls += 1);
            assert_eq!(calls, reps + 1);
            assert!(t >= 0.0);
            let mut calls = 0;
            let t = min_time(reps, || calls += 1);
            assert_eq!(calls, reps + 1);
            assert!(t.is_finite() && t >= 0.0);
        }
    }

    #[test]
    fn json_writer_leaves_target_untouched_in_smoke_mode() {
        let root = std::env::temp_dir().join(format!("pinnsoc-harness-{}", std::process::id()));
        let file = "nested/BENCH_probe.json";
        let path = root.join(file);

        write_json_in(&root, file, true, &vec![1, 2]).expect("smoke write");
        assert!(!path.exists(), "smoke mode must not create the file");

        write_json_in(&root, file, false, &vec![1, 2]).expect("write");
        let written = std::fs::read_to_string(&path).expect("file written");
        assert_eq!(
            written,
            serde_json::to_string_pretty(&vec![1, 2]).expect("json")
        );

        write_json_in(&root, file, true, &vec![3]).expect("smoke write");
        assert_eq!(
            std::fs::read_to_string(&path).expect("file kept"),
            written,
            "smoke mode must not overwrite an existing file"
        );
        std::fs::remove_dir_all(&root).expect("cleanup");
    }
}
