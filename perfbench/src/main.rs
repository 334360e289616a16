//! End-to-end benchmark of the pinnsoc serve tier and training pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload dense-10k --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One run measures one workload for `--seconds`, checks the program's
//! outputs, and prints as its last stdout line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the run attaches the
//! flight recorder for its second half and reports the per-layer table
//! instead. Any failed correctness check exits non-zero.
//!
//! Workloads (see `BENCHMARK.json` for why each exists):
//!
//! - `dense-10k`: 10k cells at ~1M frames/s, 100 ms publish period.
//! - `sparse-500k`: 500k cells at ~50k frames/s, 400 ms period.
//! - `durable-100k`: 100k cells on durable lanes behind seeded fault
//!   channels, ~500k frames/s, 100 ms period, then a crash and recovery.
//!
//! After its window every workload also runs the same training step (see
//! `train.rs`): dataset generation, PINN-All training and held-out
//! evaluation, whose errors are end-to-end metrics and whose timings are
//! per-layer ones.

mod books;
mod host;
mod layers;
mod serve;
mod stats;
mod traffic;
mod train;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// End-to-end metrics, printed by every untraced run. Throughput, the
/// dashboard round, recovery and training times are per-layer metrics
/// instead: they are CPU-bound, and on a shared host they drift with its
/// speed by more than any bound the benchmark may set, while latency is
/// dominated by the publish schedule and the test errors are deterministic.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("test_mae_soc", "frac"),
    ("test_mae_360s", "frac"),
];

/// Per-layer metrics, printed by every traced run. A layer a workload
/// bypasses (the durable layer on plain lanes) reads 0: it did no work.
const PER_LAYER: &[(&str, &str)] = &[
    ("serve.capacity_per_s", "1/s"),
    ("serve.read.round_ms", "ms"),
    ("serve.enqueue_ns_per_frame", "ns"),
    ("serve.drain_ingest_ms", "ms"),
    ("serve.publish_ms", "ms"),
    ("serve.tick_other_ms", "ms"),
    ("serve.tick_ms_p50", "ms"),
    ("serve.tick_ms_p99", "ms"),
    ("serve.snapshot_cells", "count"),
    ("serve.read.snapshot_us", "us"),
    ("serve.read.histogram_ms", "ms"),
    ("serve.read.cells_below_ms", "ms"),
    ("serve.read.lookup_us", "us"),
    ("fleet.engine_tick_ms", "ms"),
    ("fleet.gather_ms", "ms"),
    ("fleet.gemm_ms", "ms"),
    ("fleet.scatter_ms", "ms"),
    ("fleet.estimated_per_tick", "count"),
    ("fleet.frames_per_estimate", "count"),
    ("runtime.pool_run_ms", "ms"),
    ("runtime.worker_threads", "count"),
    ("durable.wal_bytes_per_frame", "B"),
    ("durable.records_replayed", "count"),
    ("durable.replay_records_per_s", "1/s"),
    ("durable.recovery_s", "s"),
    ("data.generate_s", "s"),
    ("train.b1_epoch_ms", "ms"),
    ("train.b2_epoch_ms", "ms"),
    ("core.eval_ms", "ms"),
    ("self.serve_ms", "ms"),
    ("self.fleet_ms", "ms"),
    ("self.nn_ms", "ms"),
    ("self.runtime_ms", "ms"),
    ("gen.late_ms_p99", "ms"),
    ("host.ref_ms", "ms"),
    ("host.ref_drift_pct", "%"),
    ("host.cores", "count"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.spans_recorded", "count"),
    ("obs.spans_dropped", "count"),
];

const WORKLOADS: &[&str] = &["dense-10k", "sparse-500k", "durable-100k"];

/// Metric values by name; units come from the tables above.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64) {
        let known = END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name);
        assert!(known, "metric {name} is not declared");
        assert!(
            self.0.insert(name, value).is_none(),
            "metric {name} set twice"
        );
    }
}

/// What a workload run hands back to `main`.
pub struct Outcome {
    /// Failed correctness checks (empty when the outputs are right).
    pub errors: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// A scratch directory under the working directory, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create() -> Self {
        let dir = Path::new(".perfbench_work").join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create the benchmark's scratch directory");
        WorkDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".perfbench_work");
    }
}

/// Runs a workload's set-up repeatedly: at least `SETUP_MIN_RUNS` times
/// and until `SETUP_MIN_S` seconds have gone into it, each from scratch
/// (the previous result is dropped first). Returns the last result and
/// every set-up's wall time; `setup_s` is their median.
pub fn timed_setups<T>(mut build: impl FnMut(usize) -> T) -> (T, Vec<f64>) {
    const SETUP_MIN_RUNS: usize = 5;
    const SETUP_MAX_RUNS: usize = 100;
    const SETUP_MIN_S: f64 = 2.0;
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < SETUP_MIN_RUNS
        || (times.iter().sum::<f64>() < SETUP_MIN_S && times.len() < SETUP_MAX_RUNS)
    {
        drop(last.take());
        let start = std::time::Instant::now();
        last = Some(build(times.len()));
        times.push(start.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), times)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// A finite metric value as JSON (shortest round-trip digits).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "dense-10k" => serve::run(&serve::DENSE, args.seed, args.seconds, args.trace),
        "sparse-500k" => serve::run(&serve::SPARSE, args.seed, args.seconds, args.trace),
        "durable-100k" => serve::run(&serve::DURABLE, args.seed, args.seconds, args.trace),
        _ => unreachable!("workload validated by parse_args"),
    };

    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let metrics = outcome.metrics;
    let mut errors = outcome.errors;
    let mut fields = Vec::with_capacity(table.len());
    println!("{:<30} {:>16}  unit", "metric", "value");
    for &(name, unit) in table {
        let value = metrics.0.get(name).copied().unwrap_or_else(|| {
            errors.push(format!("metric {name} was not measured"));
            f64::NAN
        });
        if !value.is_finite() {
            errors.push(format!("metric {name} is not a finite number"));
        }
        println!("{name:<30} {value:>16.6}  {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    for e in &errors {
        eprintln!("CHECK FAILED: {e}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        errors.is_empty(),
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    );
    if errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
