//! The training step every workload runs after its timed window: the
//! paper's Sandia-like dataset, PINN-All models trained with the Sandia
//! configuration, and their errors on the held-out (harder C-rate) cycles.
//!
//! The dataset and the training seeds are fixed, not drawn from the
//! workload seed, so the errors are deterministic: any change to the data,
//! training or inference numerics moves them, and nothing else does. The
//! errors are the mean over several training seeds, so a change that only
//! reorders floating-point work moves them by a fraction of the seed-to-
//! seed spread instead of the full spread of one model.

use crate::stats::median;
use pinnsoc::{eval_estimation, eval_prediction, train_from_with, PinnVariant, TrainConfig};
use pinnsoc_data::{generate_sandia, SandiaConfig};
use pinnsoc_obs::{ObsHub, SampleValue};
use std::time::Instant;

/// Models trained per run, with seeds `0..MODELS`.
const MODELS: u64 = 8;
/// Dataset generations timed per run (the median is reported).
const GENERATIONS: usize = 3;
/// The paper's PINN-All physics horizons, seconds.
const HORIZONS_S: [f64; 3] = [120.0, 240.0, 360.0];
/// Prediction horizon of the second reported error (Fig. 3's longest).
const PREDICT_S: f64 = 360.0;

/// What the training step measured.
pub struct Training {
    /// Wall time of one `generate_sandia`, median, s.
    pub generate_s: f64,
    /// Mean epoch wall time of Branch 1 and Branch 2 over every model, ms.
    pub b1_epoch_ms: f64,
    pub b2_epoch_ms: f64,
    /// Wall time of one model's held-out evaluation (both errors), median, ms.
    pub eval_ms: f64,
    /// Mean held-out MAE of SoC(t) and of SoC(t + 360 s), SoC fraction.
    pub mae_soc: f64,
    pub mae_360s: f64,
    /// Parameter count of every trained model (`None` if they differ).
    pub params: Option<usize>,
}

/// Mean epoch wall time of one branch's loops recorded in `hub`, ms.
fn epoch_ms(hub: &ObsHub, branch: &str) -> f64 {
    let snapshot = hub.registry().snapshot();
    match snapshot
        .find("pinnsoc_train_epoch_seconds", &[("branch", branch)])
        .map(|m| &m.value)
    {
        Some(SampleValue::Histogram(h)) if h.count > 0 => h.mean() * 1e3,
        _ => f64::NAN,
    }
}

pub fn run() -> Training {
    let mut generate_s = Vec::with_capacity(GENERATIONS);
    let mut dataset = None;
    for _ in 0..GENERATIONS {
        drop(dataset.take());
        let start = Instant::now();
        dataset = Some(generate_sandia(&SandiaConfig::default()));
        generate_s.push(start.elapsed().as_secs_f64());
    }
    let dataset = dataset.expect("at least one generation");

    let hub = ObsHub::new();
    let mut eval_ms = Vec::with_capacity(MODELS as usize);
    let (mut mae_soc, mut mae_360s) = (0.0, 0.0);
    let mut params = Vec::with_capacity(MODELS as usize);
    for seed in 0..MODELS {
        let config = TrainConfig::sandia(PinnVariant::pinn_all(&HORIZONS_S), seed);
        let (model, _) = train_from_with(&dataset, &config, None, Some(&hub));
        let start = Instant::now();
        let soc = eval_estimation(&model, &dataset.test);
        let ahead = eval_prediction(&model, &dataset.test, PREDICT_S);
        eval_ms.push(start.elapsed().as_secs_f64() * 1e3);
        mae_soc += soc.mae / MODELS as f64;
        mae_360s += ahead.mae / MODELS as f64;
        params.push(model.param_count());
    }
    params.dedup();
    Training {
        generate_s: median(&mut generate_s),
        b1_epoch_ms: epoch_ms(&hub, "b1"),
        b2_epoch_ms: epoch_ms(&hub, "b2"),
        eval_ms: median(&mut eval_ms),
        mae_soc,
        mae_360s,
        params: (params.len() == 1).then(|| params[0]),
    }
}
