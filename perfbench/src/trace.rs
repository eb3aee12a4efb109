//! In-memory spans recorded around calls into the program's layers.
//!
//! A span has a name, a start and an end (nanoseconds since the run's
//! origin), the span that caused it and the block it belongs to.  Spans
//! are only kept in memory while the benchmark measures, and written out
//! when it ends.  A layer's self time is its span's duration minus the
//! time its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Block id of spans that belong to no single block.
pub const NO_BLOCK: u64 = u64::MAX;

#[derive(Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    block: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    fn enter(&mut self, name: &'static str, block: u64) -> usize {
        let id = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            block,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    fn exit(&mut self, id: usize) {
        let end_ns = self.ns(Instant::now());
        debug_assert_eq!(self.open.last(), Some(&id), "spans must nest");
        self.open.pop();
        self.spans[id].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, block: u64, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, block);
        let out = f();
        self.exit(id);
        out
    }

    /// Records a span whose ends were taken elsewhere (for example a
    /// block's round trip, which interleaves with other blocks' calls).
    pub fn record(&mut self, name: &'static str, block: u64, start: Instant, end: Instant) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: None,
            block,
        });
    }

    /// Moves `other`'s spans into this tracer; both must share the origin.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Per span name: `(count, total µs, self µs)`.  Children of one span
    /// run one after another on its thread, so the part of the parent they
    /// cover is the sum of their durations.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut table = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let entry = table.entry(s.name).or_insert((0, 0.0, 0.0));
            entry.0 += 1;
            entry.1 += s.duration_ns() as f64 / 1e3;
            entry.2 += s.duration_ns().saturating_sub(covered) as f64 / 1e3;
        }
        table
    }

    /// Writes every span as one JSON object per line.
    fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let block = if s.block == NO_BLOCK {
                "null".to_owned()
            } else {
                s.block.to_string()
            };
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"block\": {block}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Prints count, total and self time per span name.
pub fn print_self_times(tracer: &Tracer) {
    crate::note(format!(
        "{:<24} {:>8} {:>14} {:>14}",
        "span", "count", "total_us", "self_us"
    ));
    for (name, (count, total, own)) in tracer.self_times() {
        crate::note(format!("{name:<24} {count:>8} {total:>14.1} {own:>14.1}"));
    }
}

/// Writes the spans to `<trace-out>/<workload>-seed<seed>.spans.jsonl`.
pub fn write_trace(tracer: &Tracer, workload: &str, settings: &crate::Settings) {
    if let Some(dir) = &settings.trace_out {
        let path = dir.join(format!("{workload}-seed{}.spans.jsonl", settings.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => crate::note(format!("spans written to {}", path.display())),
            Err(e) => crate::note(format!("could not write spans to {}: {e}", path.display())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now());
        let outer = t.enter("outer", 0);
        t.time("inner", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit(outer);
        let table = t.self_times();
        let (n, total, own) = table["outer"];
        let (_, inner, _) = table["inner"];
        assert_eq!(n, 1);
        assert!(inner >= 2000.0);
        assert!((total - own - inner).abs() < 1e-6);
        assert_eq!(t.spans[1].parent, Some(0));
    }
}
