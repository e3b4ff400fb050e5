//! In-memory spans recorded by the benchmark around its calls into the
//! library, written out once the run ends.
//!
//! A span has a name, start, end, its parent span and the operation it
//! belongs to. A layer's self time is its span's duration minus the
//! part covered by its child spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    /// Closed-loop operation (or probe) the span belongs to.
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Span recorder. A disabled tracer records nothing and costs a branch.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

/// Handle returned by [`Tracer::enter`].
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Start a new operation: later top-level spans share its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            op: self.op,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// Close a span opened by [`Tracer::enter`].
    pub fn exit(&mut self, open: Open) {
        if let Some(id) = open.0 {
            self.spans[id].end_ns = self.now_ns();
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans close in LIFO order");
        }
    }

    /// Time `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Per span name: (count, total ns, self ns).
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let total = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total;
            e.2 += total.saturating_sub(child);
        }
        out
    }

    /// Spans as JSON lines, then one summary line per span name.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{id},\"name\":\"{}\",\"parent\":{parent},\"op\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        for (name, (count, total, self_ns)) in self.summary() {
            let _ = writeln!(
                out,
                "{{\"summary\":\"{name}\",\"count\":{count},\"total_ns\":{total},\"self_ns\":{self_ns}}}"
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer");
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit(outer);
        let s = t.summary();
        let (count, total, self_ns) = s["outer"];
        assert_eq!(count, 1);
        assert!(self_ns < total);
        assert_eq!(total - self_ns, s["inner"].1);
        assert_eq!(t.spans[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let o = t.enter("x");
        t.exit(o);
        assert!(t.summary().is_empty());
    }
}
