//! In-memory span recorder, written out as Chrome trace-event JSON when
//! the run ends.
//!
//! A span has a name, a start, an end, the span that caused it and the
//! op it belongs to. Counters measured at the same boundary ride along as
//! span arguments, so ratios are computed where the work happened.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Integer counters attached to a span.
pub type Args = Vec<(&'static str, u64)>;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: usize,
    pub id: u64,
    /// Id of the enclosing span; 0 for an op's root span.
    pub parent: u64,
    pub start: Duration,
    pub end: Duration,
    pub args: Args,
}

/// A span that has started but not ended.
pub struct Open {
    name: &'static str,
    op: usize,
    id: u64,
    parent: u64,
    start: Duration,
}

impl Open {
    /// The id children of this span name as their parent.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Collects spans from any thread; nothing is written until
/// [`Recorder::chrome_json`].
pub struct Recorder {
    t0: Instant,
    state: Mutex<(u64, Vec<Span>)>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            // soclint: allow(wall-clock) -- measuring wall time is this recorder's job; nothing it times reads it
            #[allow(clippy::disallowed_methods)]
            t0: Instant::now(),
            state: Mutex::new((0, Vec::new())),
        }
    }

    /// Time since the recorder started, the clock every span uses.
    pub fn now(&self) -> Duration {
        self.t0.elapsed()
    }

    fn next_id(&self) -> u64 {
        let mut state = self.state.lock().expect("span recorder poisoned");
        state.0 += 1;
        state.0
    }

    pub fn begin(&self, op: usize, parent: u64, name: &'static str) -> Open {
        Open {
            name,
            op,
            id: self.next_id(),
            parent,
            start: self.now(),
        }
    }

    pub fn end(&self, open: Open, args: Args) {
        let end = self.now();
        self.push(Span {
            name: open.name,
            op: open.op,
            id: open.id,
            parent: open.parent,
            start: open.start,
            end,
            args,
        });
    }

    /// Records a span whose interval was measured elsewhere (a fleet
    /// instance reports its latency when it finishes).
    pub fn record(
        &self,
        op: usize,
        parent: u64,
        name: &'static str,
        start: Duration,
        end: Duration,
        args: Args,
    ) {
        let id = self.next_id();
        self.push(Span {
            name,
            op,
            id,
            parent,
            start,
            end,
            args,
        });
    }

    /// Runs `work` inside a span; `work` returns its result and the
    /// counters to attach.
    pub fn span<T>(
        &self,
        op: usize,
        parent: u64,
        name: &'static str,
        work: impl FnOnce() -> (T, Args),
    ) -> T {
        let open = self.begin(op, parent, name);
        let (out, args) = work();
        self.end(open, args);
        out
    }

    fn push(&self, span: Span) {
        self.state
            .lock()
            .expect("span recorder poisoned")
            .1
            .push(span);
    }

    /// Every span in Chrome trace-event JSON (complete `X` events, times
    /// in microseconds), one thread row per op.
    pub fn chrome_json(&self) -> String {
        let mut spans = self.state.lock().expect("span recorder poisoned").1.clone();
        spans.sort_by_key(|s| (s.op, s.start, s.id));
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in spans.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let ts = s.start.as_nanos() as f64 / 1e3;
            let dur = s.end.saturating_sub(s.start).as_nanos() as f64 / 1e3;
            let _ = write!(
                out,
                "{sep}{{\"name\":\"{}\",\"cat\":\"layer\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{ts:.3},\"dur\":{dur:.3},\"args\":{{\"op\":{},\"id\":{},\"parent\":{}",
                s.name, s.op, s.op, s.id, s.parent
            );
            for (k, v) in &s.args {
                let _ = write!(out, ",\"{k}\":{v}");
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialize() {
        let rec = Recorder::new();
        let root = rec.begin(3, 0, "op");
        let v = rec.span(3, root.id(), "tdcsoc.plan", || (7, vec![("bits", 42)]));
        rec.end(root, Vec::new());
        assert_eq!(v, 7);
        let json = rec.chrome_json();
        assert!(json.contains("\"name\":\"tdcsoc.plan\""));
        assert!(json.contains("\"bits\":42"));
        assert!(json.contains("\"parent\":1"));
    }
}
