//! Benchmark-side tracing: spans recorded around calls into the
//! program's public API, kept in memory and written out at the end.
//!
//! Only the traced run installs a recorder; without one every hook is a
//! thread-local lookup and a branch. The recorder is thread-local
//! because every traced call site (the simulator, the reference tenant
//! runtimes, the load generator) runs on one thread.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use snod_engine::{DetectorEngine, EngineCtx, NodeId, Wire};
use snod_persist::{ByteReader, ByteWriter, Persist, PersistError};

/// Spans kept for the trace file; later spans still feed the totals.
const SPAN_CAP: usize = 100_000;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the enclosing span, `u32::MAX` at top level.
    parent: u32,
    /// Reading, node, wave or slice id, depending on the span.
    id: u64,
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
    parent: u32,
    /// `(name, total ns, calls)` per span name.
    totals: Vec<(&'static str, u64, u64)>,
}

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on this thread.
pub fn install() {
    REC.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
            parent: u32::MAX,
            totals: Vec::new(),
        })
    });
}

pub fn active() -> bool {
    REC.with(|r| r.borrow().is_some())
}

fn with<R>(f: impl FnOnce(&mut Recorder) -> R) -> Option<R> {
    REC.with(|r| r.borrow_mut().as_mut().map(f))
}

impl Recorder {
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn total(&mut self, name: &'static str, ns: u64) {
        match self.totals.iter_mut().find(|t| t.0 == name) {
            Some(t) => {
                t.1 += ns;
                t.2 += 1;
            }
            None => self.totals.push((name, ns, 1)),
        }
    }

    fn push(&mut self, span: Span) -> u32 {
        if self.spans.len() < SPAN_CAP {
            self.spans.push(span);
            (self.spans.len() - 1) as u32
        } else {
            self.dropped += 1;
            u32::MAX
        }
    }
}

/// Records a finished span under the current parent.
pub fn record(name: &'static str, start: Instant, end: Instant, id: u64) {
    with(|r| {
        let (s, e) = (r.ns(start), r.ns(end));
        r.total(name, e.saturating_sub(s));
        let parent = r.parent;
        r.push(Span {
            name,
            start_ns: s,
            end_ns: e,
            parent,
            id,
        });
    });
}

/// Times `f` as a span when recording; runs it bare otherwise.
pub fn time<R>(name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
    if !active() {
        return f();
    }
    let t0 = Instant::now();
    let out = f();
    record(name, t0, Instant::now(), id);
    out
}

/// Opens a parent span: spans recorded until [`Parent::close`] nest
/// under it.
pub struct Parent {
    start: Instant,
    slot: u32,
    prev: u32,
    name: &'static str,
}

pub fn open(name: &'static str, id: u64) -> Option<Parent> {
    let start = Instant::now();
    with(|r| {
        let s = r.ns(start);
        let prev = r.parent;
        let slot = r.push(Span {
            name,
            start_ns: s,
            end_ns: s,
            parent: prev,
            id,
        });
        r.parent = slot;
        Parent {
            start,
            slot,
            prev,
            name,
        }
    })
}

impl Parent {
    pub fn close(self) {
        let end = Instant::now();
        with(|r| {
            let e = r.ns(end);
            r.total(self.name, e.saturating_sub(r.ns(self.start)));
            if let Some(span) = r.spans.get_mut(self.slot as usize) {
                span.end_ns = e;
            }
            r.parent = self.prev;
        });
    }
}

/// `(total seconds, calls)` recorded under `name` so far.
pub fn total(name: &str) -> (f64, u64) {
    with(|r| {
        r.totals
            .iter()
            .find(|t| t.0 == name)
            .map_or((0.0, 0), |t| (t.1 as f64 * 1e-9, t.2))
    })
    .unwrap_or((0.0, 0))
}

/// Forgets the totals (spans stay): the next phase starts from zero.
pub fn reset_totals() {
    with(|r| r.totals.clear());
}

/// `(spans kept, spans dropped past the cap)`.
pub fn span_counts() -> (u64, u64) {
    with(|r| (r.spans.len() as u64, r.dropped)).unwrap_or((0, 0))
}

/// Writes the kept spans as a Chrome trace-event file (viewable in
/// Perfetto or `chrome://tracing`), with `stamp` as run metadata.
pub fn write(path: &Path, stamp: &str) -> std::io::Result<()> {
    let Some(body) = with(|r| {
        let mut out = String::with_capacity(r.spans.len() * 96 + 256);
        out.push_str(&format!(
            "{{\"otherData\": {stamp}, \"dropped_spans\": {}, \"traceEvents\": [\n",
            r.dropped
        ));
        for (i, s) in r.spans.iter().enumerate() {
            let sep = if i + 1 < r.spans.len() { ",\n" } else { "\n" };
            let parent = if s.parent == u32::MAX {
                -1
            } else {
                s.parent as i64
            };
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"args\": {{\"span\": {i}, \"parent\": {parent}, \"id\": {}}}}}{sep}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.id
            ));
        }
        out.push_str("]}\n");
        out
    }) else {
        return Ok(());
    };
    let mut f = std::fs::File::create(path)?;
    f.write_all(body.as_bytes())?;
    f.flush()
}

/// A detector engine whose callbacks are recorded as `engine.*` spans.
/// It only observes: the wrapped engine sees the same calls in the same
/// order, which the plain-versus-traced fingerprint check proves.
pub struct Timed<E>(pub E);

impl<P: Wire, E: DetectorEngine<P>> DetectorEngine<P> for Timed<E> {
    fn ingest(&mut self, ctx: &mut EngineCtx<'_, P>, value: &[f64]) {
        let (node, t0) = (ctx.node.0 as u64, Instant::now());
        self.0.ingest(ctx, value);
        record("engine.ingest", t0, Instant::now(), node);
    }

    fn on_message(&mut self, ctx: &mut EngineCtx<'_, P>, from: NodeId, payload: P) {
        let (node, t0) = (ctx.node.0 as u64, Instant::now());
        self.0.on_message(ctx, from, payload);
        record("engine.on_message", t0, Instant::now(), node);
    }

    fn on_timer(&mut self, ctx: &mut EngineCtx<'_, P>, timer: u64) {
        let (node, t0) = (ctx.node.0 as u64, Instant::now());
        self.0.on_timer(ctx, timer);
        record("engine.on_timer", t0, Instant::now(), node);
    }
}

impl<E: Persist> Persist for Timed<E> {
    fn save(&self, w: &mut ByteWriter) {
        self.0.save(w);
    }

    fn load(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        E::load(r).map(Timed)
    }
}
