//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark itself around its calls into
//! the repository's layers (never inside them): name, start, end,
//! parent span and op id. A layer's self time is its span minus the
//! time its child spans cover. Spans stay in memory and are written
//! out as JSON lines when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `ann.search`.
    pub name: &'static str,
    /// Op the span belongs to.
    pub op: u64,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch (0 while open).
    pub end_ns: u64,
    /// Enclosing span, if any.
    pub parent: Option<SpanId>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on the generator thread.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<SpanId>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u64) -> SpanId {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            start_ns,
            end_ns: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        id
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records a closed span from an interval measured elsewhere (a
    /// server-reported wait, or a request that overlapped others).
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            op,
            start_ns,
            end_ns,
            parent,
        });
        self.spans.len() - 1
    }

    /// Nanoseconds since the epoch, for [`record`](Self::record).
    pub fn clock_ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Recorded spans in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates file creation and write errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let self_ns = self.self_ns();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"self_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns, self_ns[i]
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::default();
        let op = t.begin("op", 0);
        let a = t.begin("a", 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(a);
        t.end(op);
        let self_ns = t.self_ns();
        assert_eq!(t.spans()[a].parent, Some(op));
        assert_eq!(self_ns[op] + self_ns[a], t.spans()[op].dur_ns());
        assert!(self_ns[a] >= 2_000_000);
    }
}
