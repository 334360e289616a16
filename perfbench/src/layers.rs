//! Self time per layer from flight-recorder spans.
//!
//! A span's self time is its duration minus the part of its interval its
//! child spans cover (children may overlap when shard passes run on
//! several threads, so the covered part is the union of their intervals).
//! Two links the program's spans leave implicit are restored first:
//!
//! - a shard `pass` is parented to its engine tick, next to the pool's
//!   `pool_run` span that actually ran it; it is moved under the
//!   `pool_run` sibling whose interval holds it, so the pool's own
//!   overhead is `pool_run` minus its passes;
//! - the tier's root `tick` span has no parent; it is adopted by the
//!   benchmark's own span that encloses it on the same thread, so the
//!   benchmark's call overhead is separated from the tier's work.

use pinnsoc_obs::TraceSpan;
use std::collections::{BTreeMap, HashMap};

/// Length of the union of `intervals` clipped to `[lo, hi]`.
pub fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (start, end) in intervals {
        let start = start.max(cursor);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            cursor = end;
        }
    }
    total
}

fn end(span: &TraceSpan) -> u64 {
    span.ts_us + span.dur_us
}

fn contains(outer: &TraceSpan, inner: &TraceSpan) -> bool {
    outer.ts_us <= inner.ts_us && end(inner) <= end(outer)
}

/// Each span's effective parent after restoring the implicit links.
fn parents(spans: &[TraceSpan]) -> Vec<u64> {
    let mut parent: Vec<u64> = spans.iter().map(|s| s.parent).collect();
    let mut pool_runs: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, span) in spans.iter().enumerate() {
        if span.name == "pool_run" {
            pool_runs.entry(span.parent).or_default().push(i);
        }
    }
    for (i, span) in spans.iter().enumerate() {
        if span.name == "pass" {
            if let Some(run) = pool_runs
                .get(&span.parent)
                .and_then(|runs| runs.iter().find(|&&r| contains(&spans[r], span)))
            {
                parent[i] = spans[*run].id;
            }
        } else if span.parent == 0 && span.cat != "bench" {
            let host = spans
                .iter()
                .filter(|b| b.cat == "bench" && b.worker == span.worker && contains(b, span))
                .min_by_key(|b| b.dur_us);
            if let Some(host) = host {
                parent[i] = host.id;
            }
        }
    }
    parent
}

/// Self time, µs, of every span, in input order.
pub fn self_times(spans: &[TraceSpan]) -> Vec<u64> {
    let parent = parents(spans);
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for (i, span) in spans.iter().enumerate() {
        if let Some(&p) = index.get(&parent[i]) {
            children[p].push((span.ts_us, end(span)));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, kids)| span.dur_us - covered(kids, span.ts_us, end(span)))
        .collect()
}

/// Accumulated span totals keyed by `(category, name)`: total duration,
/// total self time, and span count.
#[derive(Debug, Default)]
pub struct SpanTable {
    pub rows: BTreeMap<(&'static str, &'static str), SpanRow>,
    pub spans: u64,
}

#[derive(Debug, Default, Clone, Copy)]
pub struct SpanRow {
    pub count: u64,
    pub total_us: u64,
    pub self_us: u64,
}

impl SpanTable {
    /// Folds one drained batch of spans in. Batches must hold whole trees
    /// (drain at tick boundaries), since links do not cross batches.
    pub fn add(&mut self, spans: &[TraceSpan]) {
        for (span, self_us) in spans.iter().zip(self_times(spans)) {
            let row = self.rows.entry((span.cat, span.name)).or_default();
            row.count += 1;
            row.total_us += span.dur_us;
            row.self_us += self_us;
        }
        self.spans += spans.len() as u64;
    }

    pub fn row(&self, cat: &'static str, name: &'static str) -> SpanRow {
        self.rows.get(&(cat, name)).copied().unwrap_or_default()
    }

    /// Self time, ms, summed over the given spans.
    pub fn self_ms(&self, keys: &[(&'static str, &'static str)]) -> f64 {
        keys.iter()
            .map(|&(c, n)| self.row(c, n).self_us as f64)
            .sum::<f64>()
            / 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: u64,
        parent: u64,
        name: &'static str,
        cat: &'static str,
        ts: u64,
        dur: u64,
    ) -> TraceSpan {
        TraceSpan {
            id,
            parent,
            name,
            cat,
            pid: 0,
            tid: 0,
            worker: 1,
            ts_us: ts,
            dur_us: dur,
        }
    }

    #[test]
    fn union_of_overlapping_intervals() {
        assert_eq!(covered(vec![], 0, 10), 0);
        assert_eq!(covered(vec![(2, 5), (4, 8)], 0, 10), 6);
        assert_eq!(covered(vec![(4, 8), (2, 5), (9, 20)], 0, 10), 7);
        // Clipped to the parent's interval.
        assert_eq!(covered(vec![(0, 100)], 10, 20), 10);
        assert_eq!(covered(vec![(1, 2), (1, 2)], 0, 10), 1);
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(1, 0, "tick", "serve", 0, 100),
            span(2, 1, "lane", "serve", 0, 40),
            span(3, 1, "publish", "serve", 50, 30),
            span(4, 2, "engine_tick", "fleet", 10, 20),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 30, 20]);
    }

    #[test]
    fn passes_move_under_their_pool_run() {
        // Two passes on two threads overlap inside one pool run.
        let mut a = span(3, 1, "pass", "fleet", 12, 10);
        a.worker = 2;
        let spans = vec![
            span(1, 0, "engine_tick", "fleet", 0, 40),
            span(2, 1, "pool_run", "runtime", 10, 20),
            a,
            span(4, 1, "pass", "fleet", 15, 12),
        ];
        // engine_tick: 40 − 20; pool_run: 20 − union(12..22, 15..27) = 5.
        assert_eq!(self_times(&spans), vec![20, 5, 10, 12]);
    }

    #[test]
    fn bench_span_adopts_the_root_it_encloses() {
        let mut other_thread = span(3, 0, "tick", "serve", 20, 5);
        other_thread.worker = 9;
        let spans = vec![
            span(1, 0, "tick", "bench", 0, 50),
            span(2, 0, "tick", "serve", 1, 48),
            other_thread,
        ];
        assert_eq!(self_times(&spans), vec![2, 48, 5]);
    }

    #[test]
    fn table_accumulates_rows() {
        let mut table = SpanTable::default();
        let spans = vec![
            span(1, 0, "tick", "serve", 0, 100),
            span(2, 1, "publish", "serve", 10, 30),
        ];
        table.add(&spans);
        table.add(&spans);
        assert_eq!(table.spans, 4);
        let tick = table.row("serve", "tick");
        assert_eq!((tick.count, tick.total_us, tick.self_us), (2, 200, 140));
        assert_eq!(
            table.self_ms(&[("serve", "tick"), ("serve", "publish")]),
            0.2
        );
        assert_eq!(table.row("fleet", "gemm").count, 0);
    }
}
