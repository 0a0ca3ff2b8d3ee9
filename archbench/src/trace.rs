//! In-memory spans recorded around calls into the program's public
//! functions, plus the per-layer self-time summary of a traced run.
//!
//! Spans are recorded only when the tracer is enabled; the untraced run
//! pays one branch per call site. Nothing is written until the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use crate::stats::self_time;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// `layer.function`, e.g. `core.compile`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to (0 for set-up).
    pub op: u64,
}

/// Span recorder. `enter` and `exit` nest like a call stack.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

/// Handle returned by [`Tracer::enter`].
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the op id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(index);
        Open(Some(index))
    }

    /// Closes a span opened by [`Tracer::enter`]; spans close innermost first.
    pub fn exit(&mut self, open: Open) {
        if let Some(index) = open.0 {
            let top = self.stack.pop();
            assert_eq!(top, Some(index), "spans must close innermost first");
            self.spans[index].end = self.now();
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> Result<(), String> {
        let fail = |e: std::io::Error| format!("cannot write {}: {e}", path.display());
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(fail)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(fail)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start, s.end, s.op
            )
            .map_err(fail)?;
        }
        out.flush().map_err(fail)
    }
}

/// Per-span-name self time in nanoseconds (each span's length minus what
/// its direct children cover), summed over the spans from index `first`
/// on. Parents always precede their children.
pub fn self_times(spans: &[Span], first: usize) -> BTreeMap<&'static str, u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in &spans[first..] {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    let mut out = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&children).skip(first) {
        *out.entry(s.name).or_insert(0) += self_time(s.start, s.end, kids);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_times_sum_to_the_root_span() {
        let spans = vec![
            span("op", 0, 100, None),
            span("core.compile", 5, 40, Some(0)),
            span("core.optimize", 40, 95, Some(0)),
            span("logic.objective_encode", 45, 60, Some(2)),
            span("logic.descent", 60, 90, Some(2)),
            span("core.compile", 100, 110, None),
        ];
        let selfs = self_times(&spans, 0);
        assert_eq!(selfs["op"], 10);
        assert_eq!(selfs["core.compile"], 45);
        assert_eq!(selfs["core.optimize"], 10);
        assert_eq!(selfs["logic.objective_encode"], 15);
        assert_eq!(selfs["logic.descent"], 30);
        assert_eq!(selfs.values().sum::<u64>(), 110);
        // From the second root on, only its own spans count.
        assert_eq!(
            self_times(&spans, 5).into_iter().collect::<Vec<_>>(),
            vec![("core.compile", 10)]
        );
        assert_eq!(self_times(&spans, 2)["core.optimize"], 10);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let open = tracer.enter("core.compile");
        tracer.exit(open);
        assert_eq!(tracer.time("core.check", || 7), 7);
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_nests_and_stamps_ops() {
        let mut tracer = Tracer::new(true);
        tracer.set_op(3);
        let outer = tracer.enter("op");
        tracer.time("core.compile", || ());
        tracer.exit(outer);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 3 && s.start <= s.end));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
    }
}
