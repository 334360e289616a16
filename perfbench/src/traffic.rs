//! Seeded telemetry: which cell reports next and what it reports, as a
//! pure function of the workload seed, so the reference replay after the
//! timed window regenerates exactly the frames the tier saw.

use pinnsoc_fleet::{CellId, Telemetry};
use pinnsoc_scenario::{FaultChannel, FaultModel};

/// SplitMix64 finaliser: a cheap, well-mixed hash of one word.
#[inline]
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform in `[0, 1)` from a hash.
#[inline]
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn permutation(n: usize, seed: u64) -> Vec<CellId> {
    let mut ids: Vec<CellId> = (0..n as CellId).collect();
    let mut state = mix(seed ^ 0x1D0_0DE5);
    for i in (1..n).rev() {
        state = mix(state);
        ids.swap(i, (state % (i as u64 + 1)) as usize);
    }
    ids
}

/// The stream of reports: cells report round-robin in a seeded order, and
/// report `r` of cell `id` is a fixed function of `(seed, id, r)` — a
/// per-cell operating point (voltage, current, temperature inside the
/// model's normalizer ranges) plus a small per-report wobble, stamped
/// `r · step_s` seconds of cell time.
#[derive(Debug, Clone)]
pub struct Traffic {
    seed: u64,
    order: Vec<CellId>,
    step_s: f64,
    /// Index of the next report in the stream.
    next: u64,
}

impl Traffic {
    pub fn new(cells: usize, seed: u64, step_s: f64) -> Self {
        Traffic {
            seed,
            order: permutation(cells, seed),
            step_s,
            next: 0,
        }
    }

    /// Report `r` of cell `id`.
    pub fn report(&self, id: CellId, r: u64) -> Telemetry {
        let cell = mix(self.seed ^ id.wrapping_mul(0x2545_F491_4F6C_DD1D));
        let wobble = mix(cell ^ r);
        let w = unit(wobble) - 0.5;
        Telemetry {
            time_s: r as f64 * self.step_s,
            voltage_v: 3.0 + 1.1 * unit(cell) + 0.02 * w,
            current_a: -1.0 + 5.0 * unit(mix(cell)) + 0.2 * w,
            temperature_c: 15.0 + 20.0 * unit(mix(cell ^ 1)) + 0.5 * w,
        }
    }

    /// The next report in the stream.
    #[inline]
    pub fn next_report(&mut self) -> (CellId, Telemetry) {
        let n = self.order.len() as u64;
        let id = self.order[(self.next % n) as usize];
        let r = self.next / n;
        self.next += 1;
        (id, self.report(id, r))
    }
}

/// The adversarial transport of the durable workload: every report passes
/// through its cell's seeded [`FaultChannel`] (sensor noise, dropouts,
/// duplicates, reordering, clock jitter, NaN fields).
pub struct FaultyLinks {
    channels: Vec<FaultChannel>,
}

impl FaultyLinks {
    pub fn model() -> FaultModel {
        FaultModel {
            dropout: 0.02,
            duplicate: 0.03,
            reorder: 0.05,
            // Under half the 10 s report spacing: jitter alone never
            // reverses two reports, only the reorder fault does.
            clock_jitter_s: 0.5,
            non_finite: 0.01,
            ..FaultModel::sensor_noise()
        }
    }

    pub fn new(cells: usize, seed: u64) -> Self {
        let model = Self::model();
        FaultyLinks {
            channels: (0..cells as u64)
                .map(|id| FaultChannel::new(model, mix(seed ^ 0xFA17) ^ id))
                .collect(),
        }
    }

    /// What reaches the tier when cell `id` sends `report`.
    #[inline]
    pub fn transmit(&mut self, id: CellId, report: Telemetry, out: &mut Vec<Telemetry>) {
        self.channels[id as usize].transmit(report, out);
    }

    /// Delivers every report still held back for reordering, cell by cell.
    pub fn flush(&mut self, out: &mut Vec<(CellId, Telemetry)>) {
        let mut held = Vec::new();
        for (id, channel) in self.channels.iter_mut().enumerate() {
            channel.flush(&mut held);
            out.extend(held.drain(..).map(|t| (id as CellId, t)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_a_seeded_bijection() {
        let p = permutation(1_000, 7);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..1_000).collect::<Vec<_>>());
        assert_eq!(p, permutation(1_000, 7));
        assert_ne!(p, permutation(1_000, 8));
    }

    #[test]
    fn stream_is_round_robin_and_reproducible() {
        let mut a = Traffic::new(5, 3, 10.0);
        let mut b = Traffic::new(5, 3, 10.0);
        let first: Vec<_> = (0..10).map(|_| a.next_report()).collect();
        let again: Vec<_> = (0..10).map(|_| b.next_report()).collect();
        for (x, y) in first.iter().zip(&again) {
            assert_eq!(x.0, y.0);
            assert_eq!(x.1.voltage_v.to_bits(), y.1.voltage_v.to_bits());
        }
        // Each cell reports once per round, timestamps advance per round.
        assert_eq!(first[0].0, first[5].0);
        assert_eq!(first[0].1.time_s, 0.0);
        assert_eq!(first[5].1.time_s, 10.0);
        for (_, t) in &first {
            assert!(t.is_finite());
            assert!((2.9..4.2).contains(&t.voltage_v));
            assert!((-1.5..4.5).contains(&t.current_a));
            assert!((14.0..36.0).contains(&t.temperature_c));
        }
    }

    #[test]
    fn links_replay_identically() {
        let run = || {
            let mut links = FaultyLinks::new(50, 11);
            let mut traffic = Traffic::new(50, 11, 10.0);
            let mut out = Vec::new();
            let mut seen = Vec::new();
            for _ in 0..2_000 {
                let (id, t) = traffic.next_report();
                links.transmit(id, t, &mut out);
                seen.extend(out.drain(..).map(|t| (id, t.time_s.to_bits())));
            }
            let mut tail = Vec::new();
            links.flush(&mut tail);
            seen.extend(tail.into_iter().map(|(id, t)| (id, t.time_s.to_bits())));
            seen
        };
        let a = run();
        assert_eq!(a, run());
        // Dropouts and duplicates change the frame count.
        assert_ne!(a.len(), 2_000);
    }
}
