//! Bench-trajectory gate: diff the workspace's current `BENCH_*.json`
//! results against the archived baselines in `bench_history/`, write
//! `BENCH_trajectory.json`, and exit non-zero when a watched metric
//! regressed beyond its noise budget (see `pinnsoc_bench::trajectory`).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p pinnsoc-bench --bin bench_compare [-- --smoke]
//! ```
//!
//! Normal mode requires `bench_history/` to exist and errors when a
//! current bench file has no archived counterpart. `--smoke` (the CI
//! gate) tolerates missing history — absent baselines report every metric
//! as `Added` and pass — so the gate degrades gracefully on a fresh
//! checkout while still failing loudly on any real regression.

use pinnsoc_bench::harness;
use pinnsoc_bench::trajectory::{
    compare_file, default_policies, FileTrajectory, MetricStatus, TrajectoryReport,
};
use serde_json::Value;
use std::path::Path;
use std::process::ExitCode;

/// Where archived baselines live, relative to the workspace root.
const HISTORY_DIR: &str = "bench_history";

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: parse error: {e:?}", path.display()))
}

fn bench_files(root: &Path) -> Vec<(String, String)> {
    let mut files: Vec<(String, String)> = std::fs::read_dir(root)
        .expect("workspace root readable")
        .filter_map(|entry| {
            let name = entry.ok()?.file_name().into_string().ok()?;
            let stem = name
                .strip_prefix("BENCH_")?
                .strip_suffix(".json")?
                .to_string();
            // The gate's own output never gates itself.
            (stem != "trajectory").then_some((name, stem))
        })
        .collect();
    files.sort();
    files
}

fn print_file(t: &FileTrajectory) {
    println!(
        "  {:<22} {} compared | {} regressed | {} improved | {} added | {} removed",
        t.file, t.compared, t.regressed, t.improved, t.added, t.removed
    );
    for delta in &t.deltas {
        let marker = match delta.status {
            MetricStatus::Regressed => "REGRESSED",
            MetricStatus::Improved => "improved",
            _ => continue,
        };
        println!(
            "    {marker:<9} {} : {:.6} -> {:.6} ({})",
            delta.path,
            delta.baseline.unwrap_or(f64::NAN),
            delta.current.unwrap_or(f64::NAN),
            delta
                .rel_change_pct
                .map_or("n/a".to_string(), |p| format!("{p:+.1}%")),
        );
    }
}

fn main() -> ExitCode {
    let smoke = harness::smoke();
    let root = harness::workspace_root();
    let history = root.join(HISTORY_DIR);
    let policies = default_policies();

    if !history.is_dir() && !smoke {
        eprintln!(
            "bench_compare: no {HISTORY_DIR}/ directory at the workspace root \
             (seed it from the committed BENCH_*.json, or pass --smoke)"
        );
        return ExitCode::FAILURE;
    }

    let mut files = Vec::new();
    let mut gated_regressions = 0usize;
    println!("bench trajectory vs {HISTORY_DIR}/:");
    for (name, stem) in bench_files(&root) {
        let current = match read_json(&root.join(&name)) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("bench_compare: {e}");
                return ExitCode::FAILURE;
            }
        };
        let baseline_path = history.join(&name);
        let baseline = if baseline_path.is_file() {
            match read_json(&baseline_path) {
                Ok(v) => v,
                Err(e) => {
                    eprintln!("bench_compare: {e}");
                    return ExitCode::FAILURE;
                }
            }
        } else if smoke {
            // No archive yet: everything is Added, nothing can regress.
            Value::Object(Vec::new())
        } else {
            eprintln!("bench_compare: {} has no baseline in {HISTORY_DIR}/", name);
            return ExitCode::FAILURE;
        };
        let t = compare_file(&name, &stem, &baseline, &current, &policies);
        print_file(&t);
        gated_regressions += t.regressed;
        files.push(t);
    }

    let report = TrajectoryReport {
        git_rev: pinnsoc_bench::git_rev(),
        files,
        gated_regressions,
    };
    // The gate's report is written in smoke mode too: CI archives it.
    harness::write_bench_json("trajectory", false, &report);
    println!("{gated_regressions} gated regression(s)");

    if report.passed() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "bench_compare: FAILED — {gated_regressions} watched metric(s) regressed beyond budget"
        );
        ExitCode::FAILURE
    }
}
