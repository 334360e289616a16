//! Frame accounting: the books every serve workload must balance, and an
//! independent model of which delivered frames the engine must reject.

use pinnsoc_fleet::{Telemetry, TelemetryStats};

/// What happened to the frames of one run, from both ends of the tier.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Books {
    /// Frames handed to `IngestHandle::ingest`.
    pub offered: u64,
    /// Frames the tier's ticks drained from the rings.
    pub drained: u64,
    /// Frames refused by a full ring.
    pub backpressure: u64,
    /// Frames folded into cell state (duplicates included).
    pub accepted: u64,
    /// Frames the engines rejected, all causes.
    pub rejected: u64,
}

impl Books {
    /// Every violated identity, as a readable message (empty when the
    /// books balance): offered = drained + backpressure, and drained =
    /// accepted + rejected.
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.offered != self.drained + self.backpressure {
            out.push(format!(
                "offered {} != drained {} + backpressure {}",
                self.offered, self.drained, self.backpressure
            ));
        }
        if self.drained != self.accepted + self.rejected {
            out.push(format!(
                "drained {} != accepted {} + rejected {}",
                self.drained, self.accepted, self.rejected
            ));
        }
        out
    }
}

/// The engine's absorb rule, restated from the frames alone: a frame with
/// a non-finite field is rejected; an older timestamp than the cell's
/// latest accepted one is rejected as time-reversed; an equal timestamp is
/// an accepted duplicate. Fed every frame in delivery order, its counts
/// are what the engine's books must show.
#[derive(Debug)]
pub struct ExpectedOutcomes {
    /// Latest accepted timestamp per cell (`None` before the first).
    latest: Vec<Option<f64>>,
    pub stats: TelemetryStats,
}

impl ExpectedOutcomes {
    /// A model for cells `0..cells`.
    pub fn new(cells: usize) -> Self {
        ExpectedOutcomes {
            latest: vec![None; cells],
            stats: TelemetryStats::default(),
        }
    }

    /// Books one delivered frame for cell `id`.
    pub fn deliver(&mut self, id: u64, t: &Telemetry) {
        let latest = &mut self.latest[id as usize];
        if !t.is_finite() {
            self.stats.rejected_non_finite += 1;
            return;
        }
        match *latest {
            Some(prev) if t.time_s < prev => self.stats.rejected_time_reversed += 1,
            Some(prev) if t.time_s == prev => {
                self.stats.accepted += 1;
                self.stats.duplicate_timestamp += 1;
            }
            _ => {
                self.stats.accepted += 1;
                *latest = Some(t.time_s);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(time_s: f64) -> Telemetry {
        Telemetry {
            time_s,
            voltage_v: 3.7,
            current_a: 1.0,
            temperature_c: 25.0,
        }
    }

    #[test]
    fn balanced_books_have_no_violations() {
        let books = Books {
            offered: 10,
            drained: 8,
            backpressure: 2,
            accepted: 7,
            rejected: 1,
        };
        assert!(books.violations().is_empty());
    }

    #[test]
    fn each_broken_identity_is_reported() {
        let books = Books {
            offered: 10,
            drained: 8,
            backpressure: 1,
            accepted: 7,
            rejected: 0,
        };
        let v = books.violations();
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0].contains("backpressure"));
        assert!(v[1].contains("rejected"));
    }

    #[test]
    fn expected_outcomes_follow_the_absorb_rule() {
        let mut model = ExpectedOutcomes::new(2);
        model.deliver(0, &frame(0.0)); // first report
        model.deliver(0, &frame(10.0));
        model.deliver(0, &frame(10.0)); // duplicate
        model.deliver(0, &frame(5.0)); // reordered: older than 10
        let mut nan = frame(20.0);
        nan.current_a = f64::NAN;
        model.deliver(0, &nan); // rejected, leaves latest at 10
        model.deliver(0, &frame(15.0)); // newer than 10: accepted
        model.deliver(1, &frame(3.0)); // other cell, independent
        model.deliver(1, &frame(1.0));
        let s = model.stats;
        assert_eq!(s.accepted, 5);
        assert_eq!(s.duplicate_timestamp, 1);
        assert_eq!(s.rejected_time_reversed, 2);
        assert_eq!(s.rejected_non_finite, 1);
        assert_eq!(s.unknown_cell, 0);
    }

    #[test]
    fn a_held_report_after_a_rejected_successor_is_accepted() {
        // The reordered frame only reads as time-reversed when the frame
        // it was delayed past was accepted.
        let mut model = ExpectedOutcomes::new(1);
        model.deliver(0, &frame(0.0));
        let mut nan = frame(20.0);
        nan.voltage_v = f64::INFINITY;
        model.deliver(0, &nan);
        model.deliver(0, &frame(10.0));
        assert_eq!(model.stats.accepted, 2);
        assert_eq!(model.stats.rejected_time_reversed, 0);
        assert_eq!(model.stats.rejected_non_finite, 1);
    }
}
