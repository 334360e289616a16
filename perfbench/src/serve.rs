//! The three serve workloads: an open-loop stream enqueued by the serving
//! thread as each frame falls due (frames are synthesized ahead on a
//! helper thread), a `ServeTier` ticking on a fixed publish period on that
//! same thread, a dashboard reader on its own thread, and the correctness
//! gate after the window, which replays the stream from the seed into a
//! reference engine once the tier is gone.

use crate::books::{Books, ExpectedOutcomes};
use crate::host;
use crate::layers::SpanTable;
use crate::stats::{
    due_ns, frames_due_by, median, percentile, scheduled_latency_ns, LatencyHist, Stretches,
};
use crate::traffic::{mix, FaultyLinks, Traffic};
use crate::{timed_setups, train, Metrics, Outcome, WorkDir};
use pinnsoc_durable::{recover, DurableConfig};
use pinnsoc_fleet::testing::untrained_model;
use pinnsoc_fleet::{CellConfig, CellId, FleetConfig, FleetEngine, Telemetry, TelemetryStats};
use pinnsoc_obs::{FlightRecorder, TraceSink};
use pinnsoc_serve::{
    DurabilitySpec, IngestHandle, ServeConfig, ServeTier, SnapshotReader, TickReport,
};
use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const ENGINES: usize = 4;
const SHARDS: usize = 8;
const RING: usize = 1 << 17;
/// Helper threads per engine pool (the calling thread joins every pass).
const WORKERS: usize = 1;
/// Durable snapshot cadence, committed ticks.
const SNAPSHOT_EVERY: u64 = 64;
/// Recoveries timed per durable run: the tier's own plus replicas of the
/// crashed lane's directory recovered with the same function.
const RECOVERIES: usize = 5;
/// The paper's model size (Table I), which every lane serves.
const PAPER_PARAMS: usize = 2_322;
/// Point lookups per dashboard round.
const LOOKUPS: usize = 64;
/// Length of the stretches whose latency quantiles are medianed, seconds.
const STRETCH_S: u64 = 5;

/// One serve workload's shape.
pub struct ServeSpec {
    pub cells: usize,
    /// Offered frames per second (reports, before any fault channel).
    pub rate: u64,
    /// Tier publish period.
    pub period_ms: u64,
    /// Batching of the open-loop stream: frames due within one quantum are
    /// enqueued together when the last of them falls due.
    pub quantum_ms: u64,
    /// Dashboard round cadence of the reader thread (prime to the publish
    /// period, so rounds land at every phase of the tick cycle).
    pub read_period_ms: u64,
    /// Cell-time spacing of one cell's consecutive reports.
    pub step_s: f64,
    /// Durable lanes with the fault-channel transport and a crash/recover.
    pub durable: bool,
}

impl ServeSpec {
    /// A frame not published within ten publish periods of its due time
    /// has failed.
    fn latency_limit_ns(&self) -> u64 {
        10 * self.period_ms * 1_000_000
    }
}

pub const DENSE: ServeSpec = ServeSpec {
    cells: 10_000,
    rate: 1_000_000,
    period_ms: 100,
    quantum_ms: 1,
    read_period_ms: 37,
    step_s: 1.0,
    durable: false,
};

pub const SPARSE: ServeSpec = ServeSpec {
    cells: 500_000,
    rate: 50_000,
    // The publish sweep alone takes ~100 ms, and up to ~130 ms when the
    // host runs slow: at a 200 ms period that left the serving thread too
    // little slack, and late ticks cascaded into the tail.
    period_ms: 400,
    quantum_ms: 5,
    read_period_ms: 37,
    step_s: 10.0,
    durable: false,
};

pub const DURABLE: ServeSpec = ServeSpec {
    cells: 100_000,
    rate: 500_000,
    period_ms: 100,
    quantum_ms: 2,
    read_period_ms: 37,
    step_s: 10.0,
    durable: true,
};

fn fleet_config() -> FleetConfig {
    FleetConfig {
        shards: SHARDS,
        workers: WORKERS,
        ekf_fallback: None,
        ..FleetConfig::default()
    }
}

fn cell_config(seed: u64, id: CellId) -> CellConfig {
    CellConfig {
        initial_soc: 0.3 + 0.7 * (mix(seed ^ 0xC0FF ^ id) >> 11) as f64 / (1u64 << 53) as f64,
        capacity_ah: 3.0,
    }
}

/// Builds the tier, registers every cell, and runs the warm-up sweep (one
/// report per cell, one tick) so the snapshot holds every cell.
fn build_tier(spec: &ServeSpec, seed: u64, dir: &Path) -> (ServeTier, Traffic, TickReport) {
    let durability = spec.durable.then(|| DurabilitySpec {
        root: dir.to_path_buf(),
        snapshot_every_ticks: SNAPSHOT_EVERY,
    });
    let mut tier = ServeTier::new(
        untrained_model(),
        ServeConfig {
            engines: ENGINES,
            ring_capacity: RING,
            fleet: fleet_config(),
            durability,
        },
    )
    .expect("durability directory is creatable");
    for id in 0..spec.cells as CellId {
        assert!(
            tier.register(id, cell_config(seed, id)),
            "cell {id} registered twice"
        );
    }
    let mut traffic = Traffic::new(spec.cells, seed, spec.step_s);
    let handle = tier.handle();
    for _ in 0..spec.cells {
        let (id, t) = traffic.next_report();
        assert!(handle.ingest(id, t).enqueued(), "warm-up overflowed a ring");
    }
    let warm = tier.tick().expect("warm-up tick");
    (tier, traffic, warm)
}

/// Per-round timings of the dashboard reader.
#[derive(Default)]
struct ReadStats {
    round_ms: Vec<f64>,
    snapshot_us: Vec<f64>,
    histogram_ms: Vec<f64>,
    below_ms: Vec<f64>,
    lookup_us: Vec<f64>,
}

/// The dashboard: on a fixed schedule, pin the latest snapshot, take a
/// SoC histogram, scan for low cells, and look up a few seeded cells.
fn spawn_reader(
    reader: SnapshotReader,
    cells: usize,
    seed: u64,
    period: Duration,
    stop: Arc<AtomicBool>,
    recorder: Option<Arc<FlightRecorder>>,
) -> JoinHandle<ReadStats> {
    std::thread::spawn(move || {
        let mut stats = ReadStats::default();
        let mut sink = recorder.as_ref().map(|r| r.sink());
        let mut state = mix(seed ^ 0x4EAD);
        let mut next = Instant::now();
        while !stop.load(Ordering::SeqCst) {
            let t0 = Instant::now();
            let snap = reader.snapshot();
            let t1 = Instant::now();
            black_box(snap.soc_histogram(32));
            let t2 = Instant::now();
            black_box(snap.cells_below(0.2));
            let t3 = Instant::now();
            for _ in 0..LOOKUPS {
                state = mix(state);
                black_box(snap.breakdown(state % cells as u64));
            }
            let t4 = Instant::now();
            drop(snap);
            let ms = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64() * 1e3;
            stats.round_ms.push(ms(t0, t4));
            stats.snapshot_us.push(ms(t0, t1) * 1e3);
            stats.histogram_ms.push(ms(t1, t2));
            stats.below_ms.push(ms(t2, t3));
            stats.lookup_us.push(ms(t3, t4) * 1e3 / LOOKUPS as f64);
            if let (Some(sink), Some(recorder)) = (sink.as_mut(), recorder.as_ref()) {
                sink.record("read", "bench", 0, 0, 0, t0, t4);
                recorder.merge(sink);
            }
            next += period;
            let now = Instant::now();
            if next > now {
                std::thread::sleep(next - now);
            } else {
                next = now;
            }
        }
        stats
    })
}

/// What one stretch of the timed loop measured.
#[derive(Default)]
struct Window {
    ticks: Vec<f64>,
    ingest_busy: Duration,
    tick_busy: Duration,
    frames: u64,
    integrated: u64,
    estimated: u64,
}

/// Tracing state of the traced half: the recorder, the benchmark's own
/// sink, the per-layer span table, and WAL growth sampling.
struct Tracer {
    recorder: Arc<FlightRecorder>,
    sink: TraceSink,
    table: SpanTable,
    wal: WalGrowth,
}

/// WAL bytes written per drained frame, measured from outside: segment
/// sizes are sampled after every tick. A snapshot rotates the log and
/// deletes the segment it just flushed that tick's records into, inside
/// the tick, so the growth of a tick in which a sampled segment vanished
/// is never seen; that tick's frames are left out of the denominator too.
#[derive(Default)]
struct WalGrowth {
    /// Largest size seen of every segment.
    seen: HashMap<PathBuf, u64>,
    /// Segments present at the last sample.
    live: HashSet<PathBuf>,
    /// Total size at the first sample.
    base: u64,
    /// Frames drained by the ticks whose growth was seen.
    frames: u64,
}

impl WalGrowth {
    /// Starts from the segments `now` (path, size) present at attach time.
    fn start(now: Vec<(PathBuf, u64)>) -> Self {
        let mut w = WalGrowth::default();
        for (path, len) in now {
            w.base += len;
            w.live.insert(path.clone());
            w.seen.insert(path, len);
        }
        w
    }

    /// Takes the segments `now` present after a tick that drained
    /// `drained` frames.
    fn sample(&mut self, now: Vec<(PathBuf, u64)>, drained: u64) {
        let rotated = self
            .live
            .iter()
            .any(|p| !now.iter().any(|(path, _)| path == p));
        if !rotated {
            self.frames += drained;
        }
        self.live.clear();
        for (path, len) in now {
            self.live.insert(path.clone());
            let seen = self.seen.entry(path).or_insert(0);
            *seen = (*seen).max(len);
        }
    }

    fn bytes_per_frame(&self) -> f64 {
        let grown = self.seen.values().sum::<u64>().saturating_sub(self.base);
        grown as f64 / self.frames as f64
    }
}

fn wal_sizes(root: &Path) -> Vec<(PathBuf, u64)> {
    let mut out = Vec::new();
    for lane in std::fs::read_dir(root).into_iter().flatten().flatten() {
        for file in std::fs::read_dir(lane.path())
            .into_iter()
            .flatten()
            .flatten()
        {
            let path = file.path();
            let is_wal = path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-"));
            if let (true, Ok(meta)) = (is_wal, file.metadata()) {
                out.push((path, meta.len()));
            }
        }
    }
    out
}

/// Frames due in one generator quantum, released to the tier together.
struct Batch {
    /// Stream time at which the last frame of the batch falls due.
    release_ns: u64,
    frames: Vec<(CellId, Telemetry, u64)>,
}

/// The report stream and its fault transport (durable workload only),
/// owned by the frame-synthesis thread while the window runs.
struct Stream {
    traffic: Traffic,
    links: Option<FaultyLinks>,
    /// Reports drawn from `traffic` so far, warm-up round excluded.
    reports: u64,
}

/// Batches synthesized ahead of their release (bounds how far the
/// synthesis thread runs ahead of the schedule).
const AHEAD_BATCHES: usize = 64;

impl Stream {
    /// The stream after the warm-up round drawn from `traffic`.
    fn new(spec: &ServeSpec, seed: u64, traffic: Traffic) -> Self {
        Stream {
            traffic,
            links: spec.durable.then(|| FaultyLinks::new(spec.cells, seed)),
            reports: 0,
        }
    }

    /// Synthesizes, off the serving thread, every batch released before
    /// `end_ns`: report `k` falls due at `due_ns(k)`, and batch `q` holds
    /// the frames due in `((q − 1)·quantum, q·quantum]`. Telemetry values
    /// and fault-channel draws happen here so the serving thread only
    /// enqueues; what the tier must end up with is replayed after the
    /// window, from the seed.
    fn spawn(
        mut self,
        rate: u64,
        quantum_ns: u64,
        end_ns: u64,
    ) -> (Receiver<Batch>, JoinHandle<Stream>) {
        let (tx, rx) = sync_channel(AHEAD_BATCHES);
        let synth = std::thread::spawn(move || {
            let mut delivered = Vec::new();
            let mut release_ns = 0;
            while release_ns < end_ns {
                let due_by = frames_due_by(release_ns, rate);
                let mut frames = Vec::with_capacity((due_by - self.reports) as usize);
                while self.reports < due_by {
                    let due = due_ns(self.reports, rate);
                    let (id, t) = self.traffic.next_report();
                    match self.links.as_mut() {
                        None => frames.push((id, t, due)),
                        Some(links) => {
                            links.transmit(id, t, &mut delivered);
                            frames.extend(delivered.drain(..).map(|t| (id, t, due)));
                        }
                    }
                    self.reports += 1;
                }
                if tx.send(Batch { release_ns, frames }).is_err() {
                    break;
                }
                release_ns += quantum_ns;
            }
            self
        });
        (rx, synth)
    }
}

/// What the tier must hold after the run, rebuilt from the seed alone.
struct Replay {
    /// Reports the replayed window drew (must equal the timed window's).
    reports: u64,
    /// `(id, estimate bits)` of every cell of the reference engine.
    digest: Vec<(CellId, u64)>,
    /// What the engines must have booked (durable workload only).
    expected: Option<TelemetryStats>,
}

/// Regenerates every frame the tier was sent — the warm-up round, the
/// window's batches synthesized again by a fresh [`Stream`] over fresh
/// fault channels, and the reports the channels still held at the end —
/// into one plain reference engine, and runs them through the absorb-rule
/// model. Synthesis is a pure function of the seed and the schedule, not
/// of the clock, so the batches are the ones the tier got.
fn replay(spec: &ServeSpec, seed: u64, end_ns: u64) -> Replay {
    let mut reference = FleetEngine::new(untrained_model(), fleet_config());
    for id in 0..spec.cells as CellId {
        reference.register(id, cell_config(seed, id));
    }
    let mut expected = spec.durable.then(|| ExpectedOutcomes::new(spec.cells));
    let mut deliver = |id: CellId, t: Telemetry| {
        if let Some(expected) = expected.as_mut() {
            expected.deliver(id, &t);
        }
        reference.ingest(id, t);
    };
    // The warm-up round is clean: it sets each cell's latest timestamp.
    let mut traffic = Traffic::new(spec.cells, seed, spec.step_s);
    for _ in 0..spec.cells {
        let (id, t) = traffic.next_report();
        deliver(id, t);
    }
    let (batches, synth) =
        Stream::new(spec, seed, traffic).spawn(spec.rate, spec.quantum_ms * 1_000_000, end_ns);
    for batch in batches {
        for (id, t, _) in batch.frames {
            deliver(id, t);
        }
    }
    let mut stream = synth.join().expect("replay synthesis thread");
    if let Some(links) = stream.links.as_mut() {
        let mut held = Vec::new();
        links.flush(&mut held);
        for (id, t) in held {
            deliver(id, t);
        }
    }
    Replay {
        reports: stream.reports,
        digest: engine_digest(&mut reference),
        expected: expected.map(|e| e.stats),
    }
}

/// The serving thread's state between windows.
struct Driver<'a> {
    spec: &'a ServeSpec,
    tier: ServeTier,
    handle: IngestHandle,
    batches: Receiver<Batch>,
    /// The next batch, received but not yet released.
    next_batch: Option<Batch>,
    epoch: Instant,
    next_tick_ns: u64,
    pending_due: Vec<u64>,
    /// Frames of the timed stream handed to the tier so far.
    sent: u64,
    books: Books,
    last_snapshot_cells: usize,
    /// Scheduled-time latency of every published frame of the stream.
    hist: Stretches,
    /// How late each frame was enqueued after it fell due.
    late: LatencyHist,
}

impl Driver<'_> {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn book_tick(&mut self, report: &TickReport) {
        self.books.drained += report.drained as u64;
        self.books.accepted += report.telemetry.accepted;
        self.books.rejected += report.telemetry.rejected();
        self.last_snapshot_cells = report.snapshot_cells;
    }

    /// One timed tick; every frame pending since the last tick is charged
    /// from its due time to this tick's return.
    fn tick(&mut self, w: &mut Window, tracer: Option<&mut Tracer>) {
        let start = Instant::now();
        let report = self.tier.tick().expect("tick");
        let end = Instant::now();
        let published = end.duration_since(self.epoch).as_nanos() as u64;
        w.tick_busy += end - start;
        w.ticks.push((end - start).as_secs_f64() * 1e3);
        w.integrated += report.integrated as u64;
        w.estimated += report.estimated as u64;
        for due in self.pending_due.drain(..) {
            self.hist
                .record_ns(published, scheduled_latency_ns(due, published));
        }
        self.book_tick(&report);
        if let Some(t) = tracer {
            t.sink.record("tick", "bench", 0, 0, 0, start, end);
            t.recorder.merge(&mut t.sink);
            t.table.add(&t.recorder.drain());
            if let Some(durability) = &self.tier.config().durability {
                t.wal
                    .sample(wal_sizes(&durability.root), report.drained as u64);
            }
        }
    }

    /// Hands `frames` to the tier, timing only the ingest calls.
    fn enqueue(
        &mut self,
        frames: &[(CellId, Telemetry, u64)],
        w: &mut Window,
        tracer: Option<&mut Tracer>,
    ) {
        // Indices of frames a full ring refused (a failure; normally none).
        let mut refused = Vec::new();
        let start = Instant::now();
        for (i, &(id, t, _)) in frames.iter().enumerate() {
            if !self.handle.ingest(id, t).enqueued() {
                refused.push(i);
            }
        }
        let end = Instant::now();
        w.ingest_busy += end - start;
        if let Some(t) = tracer {
            t.sink.record("enqueue", "bench", 0, 0, 0, start, end);
        }
        let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
        let mut refused = refused.into_iter().peekable();
        for (i, &(_, _, due)) in frames.iter().enumerate() {
            self.late.record_ns(start_ns.saturating_sub(due));
            if refused.next_if_eq(&i).is_none() {
                self.pending_due.push(due);
            }
        }
        let n = frames.len() as u64;
        self.sent += n;
        self.books.offered += n;
        w.frames += n;
        self.books.backpressure = self.tier.backpressure_total();
    }

    /// Enqueues every batch released by `now_ns` (all remaining batches
    /// when `now_ns` is `u64::MAX`); returns the next release time.
    fn release(
        &mut self,
        now_ns: u64,
        w: &mut Window,
        mut tracer: Option<&mut Tracer>,
    ) -> Option<u64> {
        loop {
            if self.next_batch.is_none() {
                // Blocks only if synthesis fell behind the schedule; `None`
                // once the stream is exhausted.
                self.next_batch = self.batches.recv().ok();
            }
            match self.next_batch.take() {
                Some(batch) if batch.release_ns <= now_ns => {
                    self.enqueue(&batch.frames, w, tracer.as_deref_mut());
                }
                Some(batch) => {
                    let release = batch.release_ns;
                    self.next_batch = Some(batch);
                    return Some(release);
                }
                None => return None,
            }
        }
    }

    /// Runs the open loop until `until_ns` on the stream clock: ticks on
    /// the fixed period, releases each batch when its last frame is due,
    /// and sleeps in between.
    fn run(&mut self, until_ns: u64, w: &mut Window, mut tracer: Option<&mut Tracer>) {
        let period_ns = self.spec.period_ms * 1_000_000;
        loop {
            let now = self.now_ns();
            if now >= until_ns {
                break;
            }
            if now >= self.next_tick_ns {
                self.tick(w, tracer.as_deref_mut());
                self.next_tick_ns += period_ns;
                continue;
            }
            let next_release = self
                .release(now, w, tracer.as_deref_mut())
                .unwrap_or(until_ns);
            let now = self.now_ns();
            let wake = self.next_tick_ns.min(next_release).min(until_ns);
            if wake > now {
                std::thread::sleep(Duration::from_nanos(wake - now));
            }
        }
    }
}

/// Brings `engine` up to date and returns its `(id, estimate bits)`
/// digest, id-sorted.
fn engine_digest(engine: &mut FleetEngine) -> Vec<(CellId, u64)> {
    engine.process_pending();
    let mut digest = Vec::with_capacity(engine.len());
    engine.for_each_breakdown(|id, b| digest.push((id, b.best.0.to_bits())));
    digest.sort_unstable();
    digest
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// Recovery figures of the durable workload.
struct Recovery {
    seconds: Vec<f64>,
    records: u64,
}

/// Crashes lane 0 right after a committed tick, recovers replicas of its
/// directory and then the lane itself, and checks the recovered cells are
/// bit-identical to the lane before the crash.
fn crash_and_recover(
    tier: &mut ServeTier,
    work: &Path,
    tracer: Option<&mut Tracer>,
    errors: &mut Vec<String>,
) -> Recovery {
    const LANE: usize = 0;
    let before = tier.engine(LANE).expect("lane is up").export_cells();
    let stats_before = tier.engine(LANE).expect("lane is up").telemetry_stats();
    let dir = tier.crash_engine(LANE);
    let mut seconds = Vec::with_capacity(RECOVERIES);
    let mut records = 0;
    for r in 1..RECOVERIES {
        let replica = work.join(format!("replica-{r}"));
        copy_dir(&dir, &replica).expect("copy the crashed lane's directory");
        let config = DurableConfig {
            snapshot_every_ticks: SNAPSHOT_EVERY,
            ..DurableConfig::new(&replica)
        };
        let start = Instant::now();
        let (fleet, report) = recover(config, WORKERS).expect("replica recovers");
        seconds.push(start.elapsed().as_secs_f64());
        records = report.records_replayed;
        drop(fleet);
        std::fs::remove_dir_all(&replica).expect("remove replica");
    }
    let start = Instant::now();
    let report = tier.recover_engine(LANE).expect("lane recovers");
    let end = Instant::now();
    seconds.push((end - start).as_secs_f64());
    if let Some(t) = tracer {
        t.sink.record("recover", "bench", 0, 0, 0, start, end);
        t.recorder.merge(&mut t.sink);
        t.table.add(&t.recorder.drain());
    }
    if report.records_replayed != records {
        errors.push(format!(
            "replica replayed {records} records, the lane {}",
            report.records_replayed
        ));
    }
    let engine = tier.engine(LANE).expect("lane is back up");
    if engine.export_cells() != before || engine.telemetry_stats() != stats_before {
        errors.push("recovered lane differs from the lane before the crash".into());
    }
    Recovery {
        seconds,
        records: report.records_replayed,
    }
}

fn sum_stats(tier: &ServeTier) -> TelemetryStats {
    let mut total = TelemetryStats::default();
    for i in 0..ENGINES {
        let s = tier.engine(i).expect("lanes are up").telemetry_stats();
        total.accepted += s.accepted;
        total.duplicate_timestamp += s.duplicate_timestamp;
        total.rejected_non_finite += s.rejected_non_finite;
        total.rejected_time_reversed += s.rejected_time_reversed;
        total.unknown_cell += s.unknown_cell;
    }
    total
}

pub fn run(spec: &ServeSpec, seed: u64, seconds: u64, trace: bool) -> Outcome {
    let work = WorkDir::create();
    let ref_start = host::reference_loop_ms();
    let mut errors = Vec::new();

    let ((tier, traffic, warm), mut setups) =
        timed_setups(|i| build_tier(spec, seed, &work.path().join(format!("tier-{i}"))));
    let worker_threads: usize = (0..ENGINES)
        .map(|i| tier.engine(i).expect("lane is up").worker_threads())
        .sum();

    let total_ns = seconds * 1_000_000_000;
    let (batches, synth) =
        Stream::new(spec, seed, traffic).spawn(spec.rate, spec.quantum_ms * 1_000_000, total_ns);
    let mut d = Driver {
        spec,
        handle: tier.handle(),
        tier,
        batches,
        next_batch: None,
        epoch: Instant::now(),
        next_tick_ns: spec.period_ms * 1_000_000,
        pending_due: Vec::new(),
        sent: 0,
        books: Books {
            offered: spec.cells as u64,
            ..Books::default()
        },
        last_snapshot_cells: 0,
        hist: Stretches::new(STRETCH_S * 1_000_000_000, total_ns),
        late: LatencyHist::new(),
    };
    d.book_tick(&warm);
    let warm_rejected = d.books.rejected;

    let recorder = trace.then(|| FlightRecorder::new(1 << 20));
    let stop = Arc::new(AtomicBool::new(false));
    let reader = spawn_reader(
        d.tier.reader(),
        spec.cells,
        seed,
        Duration::from_millis(spec.read_period_ms),
        Arc::clone(&stop),
        recorder.clone(),
    );

    let mut untraced = Window::default();
    let mut traced = Window::default();
    let mut tracer = None;
    d.epoch = Instant::now();
    match &recorder {
        None => d.run(total_ns, &mut untraced, None),
        Some(recorder) => {
            // Untraced first half, then the recorder attached for the
            // second: the difference in tick time is the tracing overhead.
            d.run(total_ns / 2, &mut untraced, None);
            d.tier.attach_tracer(recorder);
            let wal = d
                .tier
                .config()
                .durability
                .as_ref()
                .map_or_else(WalGrowth::default, |dur| {
                    WalGrowth::start(wal_sizes(&dur.root))
                });
            let mut t = Tracer {
                recorder: Arc::clone(recorder),
                sink: recorder.sink(),
                table: SpanTable::default(),
                wal,
            };
            recorder.drain();
            d.run(total_ns, &mut traced, Some(&mut t));
            tracer = Some(t);
        }
    }
    stop.store(true, Ordering::SeqCst);
    let reads = reader.join().expect("reader thread");

    // Drain-all: batches released in the window's last instant, then the
    // reports still held for reordering, then one last tick publishes every
    // pending frame (charged to latency as usual).
    let mut tail_window = Window::default();
    d.release(u64::MAX, &mut tail_window, None);
    let mut stream = synth.join().expect("frame synthesis thread");
    let end_ns = d.now_ns();
    if let Some(links) = stream.links.as_mut() {
        let mut held = Vec::new();
        links.flush(&mut held);
        let tail: Vec<_> = held.into_iter().map(|(id, t)| (id, t, end_ns)).collect();
        d.enqueue(&tail, &mut tail_window, None);
    }
    d.tick(&mut tail_window, None);
    if let Some(recorder) = &recorder {
        recorder.drain();
    }
    // Read before any checking work allocates: the serving process's own
    // high-water mark.
    let peak_rss_mb = host::peak_rss_mb().unwrap_or(f64::NAN);

    let recovery = spec
        .durable
        .then(|| crash_and_recover(&mut d.tier, work.path(), tracer.as_mut(), &mut errors));
    if spec.durable {
        let report = d.tier.tick().expect("post-recovery tick");
        d.book_tick(&report);
    }

    // ---- correctness gate ----
    let params = untrained_model().param_count();
    if params != PAPER_PARAMS {
        errors.push(format!(
            "served model has {params} params, not {PAPER_PARAMS}"
        ));
    }
    errors.extend(d.books.violations());
    if d.books.backpressure > 0 {
        errors.push(format!(
            "{} frames refused by full rings",
            d.books.backpressure
        ));
    }
    let engine_stats = spec.durable.then(|| sum_stats(&d.tier));
    let snapshot = d.tier.reader().snapshot();
    let digest: Vec<(CellId, u64)> = snapshot
        .cells
        .iter()
        .map(|(id, b)| (*id, b.best.0.to_bits()))
        .collect();
    drop(snapshot);
    let Driver {
        tier,
        books,
        hist,
        late: gen_late,
        sent,
        last_snapshot_cells,
        ..
    } = d;
    drop(tier);
    let want = replay(spec, seed, total_ns);
    if want.reports != stream.reports {
        errors.push(format!(
            "the replay drew {} reports, the window {}",
            want.reports, stream.reports
        ));
    }
    drop(stream);
    let clean_rejects = match (engine_stats, want.expected) {
        (Some(got), Some(want)) => {
            if got != want {
                errors.push(format!("engine books {got:?} != injected faults {want:?}"));
            }
            if want.rejected_non_finite == 0
                || want.rejected_time_reversed == 0
                || want.duplicate_timestamp == 0
            {
                errors.push(format!("the fault channels injected too little: {want:?}"));
            }
            got.rejected().saturating_sub(want.rejected())
        }
        _ => books.rejected - warm_rejected,
    };
    if clean_rejects > 0 {
        errors.push(format!("{clean_rejects} clean frames rejected"));
    }
    if digest.len() != spec.cells {
        errors.push(format!(
            "snapshot holds {} of {} cells",
            digest.len(),
            spec.cells
        ));
    }
    if digest != want.digest {
        let at = digest.iter().zip(&want.digest).position(|(a, b)| a != b);
        errors.push(format!(
            "snapshot digest differs from the reference engine (first at {at:?})"
        ));
    }

    let training = train::run();
    if training.params != Some(PAPER_PARAMS) {
        errors.push(format!(
            "trained models have {:?} params, not {PAPER_PARAMS}",
            training.params
        ));
    }
    if !(training.mae_soc.is_finite() && training.mae_360s.is_finite()) {
        errors.push("a trained model's held-out error is not finite".into());
    }

    // ---- failure accounting ----
    let offered = sent;
    let published = hist.count();
    let over_limit = hist.count_above_ns(spec.latency_limit_ns());
    // Refused frames are among the never-published ones.
    let failed = over_limit + offered.saturating_sub(published) + clean_rejects;
    let ref_end = host::reference_loop_ms();
    let host_info = pinnsoc_bench::host_info(worker_threads);
    println!("{host_info:?} host.ref_ms={ref_start:.3}->{ref_end:.3}");
    let mut tick_ms: Vec<f64> = untraced
        .ticks
        .iter()
        .chain(&traced.ticks)
        .copied()
        .collect();
    eprintln!(
        "ingest {:.2} s tick {:.2} s | frames {offered} published {published} over-limit {over_limit} | ticks {} (ms p50 {:.1} p99 {:.1} max {:.1}) | p50 {:?} ms p99 {:?} ms | generator late p99 {:?} ms | read rounds {} | test MAE {:.5} / {:.5}",
        untraced.ingest_busy.as_secs_f64(),
        untraced.tick_busy.as_secs_f64(),
        tick_ms.len(),
        median(&mut tick_ms),
        percentile(&mut tick_ms, 0.99),
        percentile(&mut tick_ms, 1.0),
        hist.median_quantile_ms(0.50),
        hist.median_quantile_ms(0.99),
        gen_late.quantile_ms(0.99),
        reads.round_ms.len(),
        training.mae_soc,
        training.mae_360s,
    );

    let mut m = Metrics::default();
    if let Some(t) = &tracer {
        layer_metrics(&mut m, &untraced, &traced, t, &reads);
        m.put("serve.snapshot_cells", last_snapshot_cells as f64);
        m.put("runtime.worker_threads", worker_threads as f64);
        // Plain lanes bypass the durable layer: it reads 0 there.
        let (recovery_s, records, wal_bytes_per_frame) = match &recovery {
            Some(r) => (
                median(&mut r.seconds.clone()),
                r.records as f64,
                t.wal.bytes_per_frame(),
            ),
            None => (0.0, 0.0, 0.0),
        };
        m.put("durable.recovery_s", recovery_s);
        m.put("durable.records_replayed", records);
        m.put(
            "durable.replay_records_per_s",
            if recovery_s > 0.0 {
                records / recovery_s
            } else {
                0.0
            },
        );
        m.put("durable.wal_bytes_per_frame", wal_bytes_per_frame);
        m.put("data.generate_s", training.generate_s);
        m.put("train.b1_epoch_ms", training.b1_epoch_ms);
        m.put("train.b2_epoch_ms", training.b2_epoch_ms);
        m.put("core.eval_ms", training.eval_ms);
        m.put(
            "gen.late_ms_p99",
            gen_late.quantile_ms(0.99).unwrap_or(f64::NAN),
        );
        m.put("host.ref_ms", (ref_start + ref_end) / 2.0);
        m.put(
            "host.ref_drift_pct",
            (ref_end - ref_start) / ref_start * 100.0,
        );
        m.put("host.cores", host_info.threads as f64);
    } else {
        m.put("setup_s", median(&mut setups));
        m.put(
            "latency_p50_ms",
            hist.median_quantile_ms(0.50).unwrap_or(f64::NAN),
        );
        m.put(
            "latency_p99_ms",
            hist.median_quantile_ms(0.99).unwrap_or(f64::NAN),
        );
        m.put("peak_rss_mb", peak_rss_mb);
        m.put("test_mae_soc", training.mae_soc);
        m.put("test_mae_360s", training.mae_360s);
    }
    Outcome {
        errors,
        attempted: offered,
        failed,
        metrics: m,
    }
}

/// The traced half's per-layer numbers, per window tick.
fn layer_metrics(
    m: &mut Metrics,
    untraced: &Window,
    traced: &Window,
    t: &Tracer,
    reads: &ReadStats,
) {
    let ticks = traced.ticks.len().max(1) as f64;
    let table = &t.table;
    let per_tick = |keys: &[(&'static str, &'static str)]| table.self_ms(keys) / ticks;
    let total = |cat, name| table.row(cat, name).total_us as f64 / 1e3 / ticks;
    // Frames per second of serve-loop busy time (ingest plus tick), from
    // the untraced half so tracing does not slow it.
    let busy = (untraced.ingest_busy + untraced.tick_busy).as_secs_f64();
    m.put("serve.capacity_per_s", untraced.frames as f64 / busy);
    m.put("serve.read.round_ms", median(&mut reads.round_ms.clone()));
    m.put(
        "serve.enqueue_ns_per_frame",
        traced.ingest_busy.as_nanos() as f64 / traced.frames.max(1) as f64,
    );
    m.put("serve.drain_ingest_ms", per_tick(&[("serve", "lane")]));
    m.put("serve.publish_ms", per_tick(&[("serve", "publish")]));
    m.put("serve.tick_other_ms", per_tick(&[("serve", "tick")]));
    let mut untraced_ticks = untraced.ticks.clone();
    let tick_p50 = median(&mut untraced_ticks);
    m.put("serve.tick_ms_p50", tick_p50);
    m.put("serve.tick_ms_p99", percentile(&mut untraced_ticks, 0.99));
    let mut traced_ticks = traced.ticks.clone();
    m.put(
        "obs.trace_overhead_pct",
        (median(&mut traced_ticks) / tick_p50 - 1.0) * 100.0,
    );
    m.put("obs.spans_recorded", table.spans as f64);
    m.put("obs.spans_dropped", t.recorder.dropped_total() as f64);
    m.put(
        "serve.read.snapshot_us",
        median(&mut reads.snapshot_us.clone()),
    );
    m.put(
        "serve.read.histogram_ms",
        median(&mut reads.histogram_ms.clone()),
    );
    m.put(
        "serve.read.cells_below_ms",
        median(&mut reads.below_ms.clone()),
    );
    m.put("serve.read.lookup_us", median(&mut reads.lookup_us.clone()));
    m.put("fleet.engine_tick_ms", total("fleet", "engine_tick"));
    m.put("fleet.gather_ms", total("fleet", "gather"));
    m.put("fleet.gemm_ms", total("fleet", "gemm"));
    m.put("fleet.scatter_ms", total("fleet", "scatter"));
    m.put("fleet.estimated_per_tick", traced.estimated as f64 / ticks);
    m.put(
        "fleet.frames_per_estimate",
        traced.integrated as f64 / traced.estimated.max(1) as f64,
    );
    m.put("runtime.pool_run_ms", total("runtime", "pool_run"));
    m.put(
        "self.serve_ms",
        per_tick(&[("serve", "lane"), ("serve", "publish")]),
    );
    m.put(
        "self.fleet_ms",
        per_tick(&[
            ("fleet", "engine_tick"),
            ("fleet", "pass"),
            ("fleet", "gather"),
            ("fleet", "scatter"),
        ]),
    );
    m.put("self.nn_ms", per_tick(&[("fleet", "gemm")]));
    m.put("self.runtime_ms", per_tick(&[("runtime", "pool_run")]));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(n: u32, len: u64) -> (PathBuf, u64) {
        (PathBuf::from(format!("lane-0/wal-{n}")), len)
    }

    #[test]
    fn wal_growth_skips_the_ticks_that_rotate_the_log() {
        let mut w = WalGrowth::start(vec![seg(1, 100)]);
        w.sample(vec![seg(1, 300)], 10);
        w.sample(vec![seg(1, 500)], 10);
        // A snapshot tick: segment 1 grew unseen, then was deleted.
        w.sample(vec![seg(2, 16)], 10);
        w.sample(vec![seg(2, 216)], 10);
        assert_eq!(w.frames, 30);
        // 400 bytes on segment 1 after the start, 216 on segment 2.
        assert_eq!(w.bytes_per_frame(), 616.0 / 30.0);
    }
}
