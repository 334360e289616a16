//! End-to-end telemetry-plane walkthrough: build a small serve tier,
//! attach the full observability stack (metrics hub, flight recorder,
//! SLO engine, health board), bind the HTTP plane on an ephemeral port,
//! drive a few ticks of traffic, and fetch `/metrics` + `/healthz` over
//! real TCP — exactly what a Prometheus scraper and an orchestrator
//! liveness probe would see.
//!
//! ```text
//! cargo run --release -p pinnsoc-serve --example obs_dashboard
//! ```
//!
//! CI runs this as the HTTP-plane smoke: any panic (bind failure, a
//! non-200, malformed JSON) fails the job.

use pinnsoc_fleet::testing::untrained_model;
use pinnsoc_fleet::{CellConfig, FleetConfig, Telemetry};
use pinnsoc_obs::{http_get, FlightRecorder, HealthSource, ObsHub, PlaneConfig, TelemetryPlane};
use pinnsoc_serve::{ServeConfig, ServeTier, SloConfig};
use std::sync::Arc;

const CELLS: u64 = 24;
const TICKS: u64 = 5;

fn main() {
    let mut tier = ServeTier::new(
        untrained_model(),
        ServeConfig {
            engines: 2,
            ring_capacity: 4 * CELLS as usize,
            fleet: FleetConfig {
                shards: 2,
                micro_batch: 8,
                ekf_fallback: None,
                ..FleetConfig::default()
            },
            durability: None,
        },
    )
    .expect("serve tier");
    for id in 0..CELLS {
        tier.register(
            id,
            CellConfig {
                initial_soc: 0.9,
                capacity_ah: 3.0,
            },
        );
    }

    // The full observability stack, attached exactly as a deployment
    // would: metrics, causal tracing, SLO burn rates, health.
    let hub = ObsHub::new();
    let recorder = FlightRecorder::with_default_capacity();
    tier.attach_obs(&hub);
    tier.attach_tracer(&recorder);
    tier.attach_slo(&hub, SloConfig::default());
    let board = tier.health_board();
    let plane = TelemetryPlane::bind(
        "127.0.0.1:0",
        Arc::clone(&hub),
        PlaneConfig {
            recorder: Some(Arc::clone(&recorder)),
            process_names: tier.trace_process_names(),
            health: Some(board as Arc<dyn HealthSource>),
        },
    )
    .expect("bind telemetry plane");
    println!("telemetry plane listening on http://{}", plane.addr());

    let handle = tier.handle();
    for tick in 1..=TICKS {
        for id in 0..CELLS {
            handle.ingest(
                id,
                Telemetry {
                    time_s: tick as f64 * 10.0,
                    voltage_v: 3.5 + 0.001 * (tick as f64) + 0.01 * ((id % 7) as f64),
                    current_a: 0.8,
                    temperature_c: 25.0,
                },
            );
        }
        tier.tick().expect("tick");
    }
    println!("drove {TICKS} ticks x {CELLS} cells\n");

    // What a Prometheus scrape sees (serve series only, for brevity).
    let (code, metrics) = http_get(plane.addr(), "/metrics").expect("GET /metrics");
    assert_eq!(code, 200, "/metrics must answer 200");
    let serve_lines: Vec<&str> = metrics
        .lines()
        .filter(|l| l.starts_with("pinnsoc_serve_") && !l.contains("_bucket"))
        .collect();
    assert!(!serve_lines.is_empty(), "serve series must be exported");
    println!(
        "GET /metrics -> {code} ({} bytes), serve series:",
        metrics.len()
    );
    for line in &serve_lines {
        println!("  {line}");
    }

    // What an orchestrator probe sees.
    let (code, health) = http_get(plane.addr(), "/healthz").expect("GET /healthz");
    assert_eq!(code, 200, "/healthz must answer 200 on a healthy tier");
    println!("\nGET /healthz -> {code}: {health}");

    // The flight recorder keeps capturing; one drain shows the tree size.
    let (code, trace) = http_get(plane.addr(), "/trace.json").expect("GET /trace.json");
    assert_eq!(code, 200);
    let spans = trace.matches("\"ph\":\"X\"").count();
    assert!(spans > 0, "ticks must have produced spans");
    println!("\nGET /trace.json -> {code}: {spans} spans (Perfetto-loadable)");
}
