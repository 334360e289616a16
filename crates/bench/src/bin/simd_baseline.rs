//! Kernel microbench: f32 scalar vs f32 SIMD vs int8 on the 2,322-param
//! model's GEMM shapes, written to `BENCH_simd.json` at the workspace root.
//!
//! Run with `cargo run --release -p pinnsoc-bench --bin simd_baseline`.
//! Pass `--smoke` for a CI-sized run (few reps, relaxed speedup floors)
//! that sanity-checks kernel dispatch without touching `BENCH_simd.json`.
//!
//! The full run asserts the perf contract from the kernel-v2 work. Both
//! headline claims live on the per-shape microbenches, where per-call and
//! cross-layer overhead is amortized; the end-to-end forward asserts
//! conservative floors on top:
//!
//! - **f32 SIMD ≥ 2× scalar** on the serving model's GEMM shapes (best
//!   shape). The hand kernels use separate multiply + add per step (FMA
//!   would break the bit-exactness contract), so AVX2 peak throughput is
//!   exactly 2× the 128-bit mul+add peak the autovectorized scalar
//!   reference reaches — the end-to-end forward (which shares epilogue/dispatch
//!   overhead across paths and compresses any ratio toward 1) instead
//!   asserts a conservative ≥ 1.4× floor.
//! - **int8 ≥ 1.5× SIMD f32** on the serving model's GEMM shapes (best
//!   shape): one quantized layer — input quantization included — against
//!   the f32 fused GEMM on the same shape's best SIMD path. End-to-end,
//!   the quantized chain also pays the output layer's single-column
//!   epilogue that no wide kernel can amortize, so the full forward
//!   asserts a conservative ≥ 1.3× floor over best SIMD f32.
//!
//! The smoke run keeps the same direction with loose floors (shape ≥
//! 1.2×/1.0×, forward ≥ 1.0×/0.9×) so a CI host under noisy neighbours
//! does not flake, while an outright dispatch regression (SIMD slower
//! than scalar) still fails. All timings are best-of-`reps` — this host
//! class shows 2× run-to-run swings from neighbour contention, and the
//! minimum estimates uncontended speed, which is what the contract is
//! about.

use pinnsoc_bench::harness::{self, min_time, MICRO_BATCH};
use pinnsoc_bench::{host_info_with_mode, HostInfo};
use pinnsoc_nn::kernel::{self, KernelPath};
use pinnsoc_nn::{
    Activation, CalibrationStats, InferScratch, Init, Matrix, Mlp, PackedWeights, QuantScratch,
    QuantizedMlp,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::hint::black_box;

/// The serving MLP widths (both PINN branches use these hidden layers).
const WIDTHS: [usize; 5] = [3, 16, 32, 16, 1];

#[derive(Debug, Serialize)]
struct ShapeResult {
    /// Batch rows (m), GEMM depth (k), output columns (n).
    m: usize,
    k: usize,
    n: usize,
    /// Nanoseconds per fused GEMM call, per path (absent paths the host
    /// cannot run are omitted).
    ns_per_call: Vec<(String, f64)>,
    /// f32 GFLOP/s per path (2·m·k·n per call).
    gflops: Vec<(String, f64)>,
    /// Nanoseconds per int8 quantized layer forward on the best path
    /// (quantize + fused GEMM/epilogue), same shape.
    int8_ns_per_call: f64,
    /// Best f32 SIMD time over the int8 time on this shape.
    int8_speedup_vs_simd: f64,
}

#[derive(Debug, Serialize)]
struct ForwardResult {
    batch: usize,
    /// Microseconds per full fused forward pass, per f32 path.
    f32_us_per_batch: Vec<(String, f64)>,
    /// Microseconds per int8 quantized forward pass (best path).
    int8_us_per_batch: f64,
    /// Best f32 SIMD time over scalar time.
    simd_speedup_vs_scalar: f64,
    /// int8 time over best f32 SIMD time.
    int8_speedup_vs_simd: f64,
    /// Best per-shape SIMD-vs-scalar GEMM throughput ratio (the ≥ 2×
    /// kernel contract — see the module docs).
    gemm_simd_speedup_vs_scalar: f64,
    /// Best per-shape int8-vs-SIMD-f32 ratio (the ≥ 1.5× quantization
    /// contract — see the module docs).
    int8_shape_speedup_vs_simd: f64,
}

#[derive(Debug, Serialize)]
struct Baseline {
    description: String,
    model: String,
    reps: usize,
    host: HostInfo,
    paths_measured: Vec<String>,
    shapes: Vec<ShapeResult>,
    forward: ForwardResult,
}

fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols).map(|_| rng.gen_range(-2.0..2.0)).collect(),
    )
}

/// Every kernel path the host can actually execute, scalar first.
fn host_paths() -> Vec<KernelPath> {
    [KernelPath::Scalar, KernelPath::Avx2]
        .into_iter()
        .filter(|&p| p <= kernel::detect())
        .collect()
}

/// Times one fused GEMM shape (`m×k · k×n` + bias + ReLU) per f32 path,
/// plus the same shape as a single int8 quantized layer (input
/// quantization included) on the best path. The inner repeat count scales
/// with the work so tiny shapes aren't pure timer noise.
fn measure_shape(rng: &mut StdRng, reps: usize, m: usize, k: usize, n: usize) -> ShapeResult {
    let lhs = random_matrix(rng, m, k);
    let weight = random_matrix(rng, k, n);
    let packed = PackedWeights::pack(&weight);
    let bias: Vec<f32> = (0..n).map(|_| rng.gen_range(-0.5..0.5)).collect();
    let mut out = Matrix::zeros(1, 1);
    let inner = (2_000_000 / (2 * m * k * n)).clamp(1, 64);
    let mut ns_per_call = Vec::new();
    let mut gflops = Vec::new();
    for path in host_paths() {
        let s = min_time(reps, || {
            for _ in 0..inner {
                lhs.matmul_bias_act_into_with(&packed, &bias, Activation::Relu, &mut out, path);
                black_box(out.as_slice().last());
            }
        }) / inner as f64;
        ns_per_call.push((path.as_str().to_string(), s * 1e9));
        gflops.push((path.as_str().to_string(), (2 * m * k * n) as f64 / s / 1e9));
    }
    // The same layer shape quantized: one-layer network so the timing
    // includes the real serving cost (quantize the f32 input, fused int8
    // GEMM + dequant epilogue).
    let layer = Mlp::new(&[k, n], Activation::Relu, Init::HeNormal, rng);
    let mut calib = CalibrationStats::new(1);
    calib.observe(&layer, &lhs);
    let qlayer = QuantizedMlp::quantize(&layer, &calib);
    let mut qscratch = QuantScratch::default();
    let int8_s = min_time(reps, || {
        for _ in 0..inner {
            black_box(qlayer.forward_batch(&lhs, &mut qscratch)[(0, 0)]);
        }
    }) / inner as f64;
    let best_simd_ns = ns_per_call
        .iter()
        .filter(|(p, _)| p != "scalar")
        .map(|(_, ns)| *ns)
        .fold(f64::INFINITY, f64::min);
    ShapeResult {
        m,
        k,
        n,
        ns_per_call,
        gflops,
        int8_ns_per_call: int8_s * 1e9,
        int8_speedup_vs_simd: best_simd_ns / (int8_s * 1e9),
    }
}

fn main() {
    let smoke = harness::smoke();
    let reps = if smoke { 7 } else { 41 };
    let mut rng = StdRng::seed_from_u64(42);

    let mlp = Mlp::new(&WIDTHS, Activation::Relu, Init::HeNormal, &mut rng);
    let input = random_matrix(&mut rng, MICRO_BATCH, WIDTHS[0]);
    let mut calib = CalibrationStats::new(mlp.layers().len());
    calib.observe(&mlp, &input);
    let qmlp = QuantizedMlp::quantize(&mlp, &calib);

    // Per-layer GEMM shapes at the serving micro-batch.
    let shapes: Vec<ShapeResult> = WIDTHS
        .windows(2)
        .map(|w| measure_shape(&mut rng, reps, MICRO_BATCH, w[0], w[1]))
        .collect();
    for s in &shapes {
        let fmt = |v: &[(String, f64)]| {
            v.iter()
                .map(|(p, g)| format!("{p} {g:7.2}"))
                .collect::<Vec<_>>()
                .join(" | ")
        };
        println!(
            "gemm {:>4}x{:>2}x{:>2}  GFLOP/s: {} | int8 layer {:7.0}ns ({:.2}x vs simd)",
            s.m,
            s.k,
            s.n,
            fmt(&s.gflops),
            s.int8_ns_per_call,
            s.int8_speedup_vs_simd,
        );
    }

    // End-to-end fused forward per f32 path, then int8 on the best path.
    let mut scratch = InferScratch::default();
    let mut f32_us = Vec::new();
    for path in host_paths() {
        kernel::force(Some(path));
        let s = min_time(reps, || {
            for _ in 0..4 {
                black_box(mlp.forward_batch_fused(&input, &mut scratch)[(0, 0)]);
            }
        }) / 4.0;
        f32_us.push((path.as_str().to_string(), s * 1e6));
    }
    kernel::force(None);
    let mut qscratch = QuantScratch::default();
    let int8_s = min_time(reps, || {
        for _ in 0..4 {
            black_box(qmlp.forward_batch(&input, &mut qscratch)[(0, 0)]);
        }
    }) / 4.0;

    let scalar_us = f32_us[0].1;
    let best_simd_us = f32_us[1..]
        .iter()
        .map(|(_, us)| *us)
        .fold(f64::INFINITY, f64::min);
    let simd_speedup = scalar_us / best_simd_us;
    let int8_speedup = best_simd_us / (int8_s * 1e6);
    // Best per-shape SIMD-vs-scalar GEMM ratio — the home of the 2×
    // claim (see the module docs for why the end-to-end forward cannot
    // robustly reach the port-limited 2×).
    let gemm_simd_speedup = shapes
        .iter()
        .map(|s| {
            let scalar = s
                .gflops
                .iter()
                .find(|(p, _)| p == "scalar")
                .map_or(f64::INFINITY, |(_, g)| *g);
            let best = s
                .gflops
                .iter()
                .filter(|(p, _)| p != "scalar")
                .map(|(_, g)| *g)
                .fold(0.0, f64::max);
            best / scalar
        })
        .fold(0.0, f64::max);
    // Best per-shape int8-vs-SIMD ratio — the home of the 1.5× claim,
    // mirroring the f32 shape contract (the end-to-end chain pays the
    // single-column output layer and input quantization that no wide
    // kernel can amortize).
    let int8_shape_speedup = shapes
        .iter()
        .map(|s| s.int8_speedup_vs_simd)
        .fold(0.0, f64::max);
    println!(
        "forward {MICRO_BATCH}x[3-16-32-16-1]: scalar {scalar_us:.1}us | best simd {best_simd_us:.1}us ({simd_speedup:.2}x) | int8 {:.1}us ({int8_speedup:.2}x vs simd) | best shapes: f32 {gemm_simd_speedup:.2}x, int8 {int8_shape_speedup:.2}x",
        int8_s * 1e6
    );

    // The perf contract. Scalar-only hosts have no SIMD claim to check.
    if host_paths().len() > 1 {
        let (shape_floor, int8_shape_floor, fwd_floor, int8_floor) = if smoke {
            (1.2, 1.0, 1.0, 0.9)
        } else {
            (2.0, 1.5, 1.4, 1.3)
        };
        assert!(
            gemm_simd_speedup >= shape_floor,
            "SIMD f32 GEMM must be >= {shape_floor}x scalar on the best model shape (got {gemm_simd_speedup:.2}x)"
        );
        assert!(
            int8_shape_speedup >= int8_shape_floor,
            "int8 layer must be >= {int8_shape_floor}x SIMD f32 on the best model shape (got {int8_shape_speedup:.2}x)"
        );
        assert!(
            simd_speedup >= fwd_floor,
            "SIMD f32 forward must be >= {fwd_floor}x scalar (got {simd_speedup:.2}x)"
        );
        assert!(
            int8_speedup >= int8_floor,
            "int8 forward must be >= {int8_floor}x SIMD f32 (got {int8_speedup:.2}x)"
        );
    }

    let baseline = Baseline {
        description: "Fused GEMM kernel microbench on the serving MLP shapes: f32 per \
                      kernel path plus the int8 quantized forward"
            .into(),
        model: "two-branch PINN layer shapes (2,322 params), micro-batch 512".into(),
        reps,
        host: host_info_with_mode(1, "f32+int8"),
        paths_measured: host_paths()
            .iter()
            .map(|p| p.as_str().to_string())
            .collect(),
        shapes,
        forward: ForwardResult {
            batch: MICRO_BATCH,
            f32_us_per_batch: f32_us,
            int8_us_per_batch: int8_s * 1e6,
            simd_speedup_vs_scalar: simd_speedup,
            int8_speedup_vs_simd: int8_speedup,
            gemm_simd_speedup_vs_scalar: gemm_simd_speedup,
            int8_shape_speedup_vs_simd: int8_shape_speedup,
        },
    };
    harness::write_bench_json("simd", smoke, &baseline);
}
