//! The benchmark's own tracing: an in-memory span recorder and a timing
//! `SparqlEndpoint` decorator.
//!
//! Spans are opened by the benchmark around its calls into each layer
//! (snapshot load, bootstrap, synthesis, execution, refinement, preview,
//! server sessions) and by [`Timed`] around every endpoint call. A span's
//! parent is the innermost span open on the same thread, so the endpoint
//! calls a synthesis issues are its children and its self time is its
//! duration minus theirs. Recording is off unless [`set_enabled`] turned
//! it on; the untraced run does not even build the decorators.

use re2x_rdf::{Graph, TermId};
use re2x_sparql::{EndpointStats, LocalEndpoint, Query, Solutions, SparqlEndpoint, SparqlError};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    /// Dataset or tenant the span belongs to.
    pub tag: &'static str,
    pub start: Instant,
    pub end: Option<Instant>,
    pub parent: Option<usize>,
    /// Counts recorded at the boundary (rows returned, candidates, …).
    pub counts: [u64; 2],
}

impl SpanRec {
    pub fn duration(&self) -> Duration {
        self.end.map_or(Duration::ZERO, |end| end - self.start)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<SpanRec>> = Mutex::new(Vec::new());

thread_local! {
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// Turns recording on or off for spans opened from now on.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether spans opened now are recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::SeqCst)
}

fn spans() -> std::sync::MutexGuard<'static, Vec<SpanRec>> {
    SPANS.lock().expect("span recorder is not poisoned")
}

/// Removes and returns every recorded span.
pub fn take() -> Vec<SpanRec> {
    std::mem::take(&mut *spans())
}

/// Guard of one open span; closes it on drop.
pub struct Span(Option<usize>);

/// Opens a span under the innermost span open on this thread.
pub fn span(name: &'static str, tag: &'static str) -> Span {
    if !ENABLED.load(Ordering::Relaxed) {
        return Span(None);
    }
    let parent = OPEN.with(|open| open.borrow().last().copied());
    let idx = {
        let mut all = spans();
        all.push(SpanRec {
            name,
            tag,
            start: Instant::now(),
            end: None,
            parent,
            counts: [0, 0],
        });
        all.len() - 1
    };
    OPEN.with(|open| open.borrow_mut().push(idx));
    Span(Some(idx))
}

impl Span {
    /// Records counts at this boundary.
    pub fn count(&self, first: u64, second: u64) {
        if let Some(idx) = self.0 {
            spans()[idx].counts = [first, second];
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(idx) = self.0 {
            let end = Instant::now();
            OPEN.with(|open| {
                let mut open = open.borrow_mut();
                if let Some(pos) = open.iter().rposition(|&i| i == idx) {
                    open.remove(pos);
                }
            });
            if let Some(rec) = SPANS.lock().ok().as_mut().and_then(|all| all.get_mut(idx)) {
                rec.end = Some(end);
            }
        }
    }
}

/// A `SparqlEndpoint` decorator recording one span per call, named
/// `<layer>.select`, `<layer>.ask` or `<layer>.keyword`.
pub struct Timed<E> {
    inner: E,
    layer: Layer,
    tag: &'static str,
}

/// Where in a decorator stack a [`Timed`] layer sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Directly over the in-process store.
    Store,
    /// Above a query cache: every call the cache receives.
    Cache,
}

impl<E: SparqlEndpoint> Timed<E> {
    pub fn new(inner: E, layer: Layer, tag: &'static str) -> Timed<E> {
        Timed { inner, layer, tag }
    }

    fn names(&self) -> [&'static str; 3] {
        match self.layer {
            Layer::Store => ["sparql.select", "sparql.ask", "sparql.keyword"],
            Layer::Cache => ["cache.select", "cache.ask", "cache.keyword"],
        }
    }
}

impl<E: SparqlEndpoint> SparqlEndpoint for Timed<E> {
    fn select(&self, query: &Query) -> Result<Solutions, SparqlError> {
        let span = span(self.names()[0], self.tag);
        let result = self.inner.select(query);
        if let Ok(solutions) = &result {
            span.count(solutions.len() as u64, 0);
        }
        result
    }

    fn ask(&self, query: &Query) -> Result<bool, SparqlError> {
        let _span = span(self.names()[1], self.tag);
        self.inner.ask(query)
    }

    fn keyword_search(&self, keyword: &str, exact: bool) -> Vec<TermId> {
        let span = span(self.names()[2], self.tag);
        let hits = self.inner.keyword_search(keyword, exact);
        span.count(hits.len() as u64, 0);
        hits
    }

    fn graph(&self) -> &Graph {
        self.inner.graph()
    }

    fn stats(&self) -> EndpointStats {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats()
    }

    fn tracer(&self) -> Option<&re2x_obs::Tracer> {
        self.inner.tracer()
    }
}

/// The store as a workload sees it: timed in the traced run, bare in the
/// untraced one.
pub fn store(endpoint: LocalEndpoint, traced: bool, tag: &'static str) -> Box<dyn SparqlEndpoint> {
    if traced {
        Box::new(Timed::new(endpoint, Layer::Store, tag))
    } else {
        Box::new(endpoint)
    }
}

/// Totals over a set of spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub calls: u64,
    pub wall_ms: f64,
    /// Wall time minus the time of direct child spans.
    pub self_ms: f64,
    /// Direct child spans (endpoint calls, for the core and cube layers).
    pub children: u64,
    pub counts: [u64; 2],
}

impl Totals {
    pub fn mean_ms(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.wall_ms / self.calls as f64
        }
    }

    pub fn mean_self_ms(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ms / self.calls as f64
        }
    }
}

/// Recorded spans with their child time folded in.
pub struct Profile {
    spans: Vec<SpanRec>,
    child_ms: Vec<f64>,
    child_count: Vec<u64>,
}

impl Profile {
    pub fn new(spans: Vec<SpanRec>) -> Profile {
        let mut child_ms = vec![0.0; spans.len()];
        let mut child_count = vec![0u64; spans.len()];
        for span in &spans {
            if let Some(parent) = span.parent {
                child_ms[parent] += crate::stats::ms(span.duration());
                child_count[parent] += 1;
            }
        }
        Profile {
            spans,
            child_ms,
            child_count,
        }
    }

    /// Totals of the spans named `name` whose tag satisfies `tag`.
    pub fn totals(&self, name: &str, tag: impl Fn(&str) -> bool) -> Totals {
        let mut t = Totals::default();
        for (i, span) in self.spans.iter().enumerate() {
            if span.name != name || !tag(span.tag) {
                continue;
            }
            let wall = crate::stats::ms(span.duration());
            t.calls += 1;
            t.wall_ms += wall;
            t.self_ms += wall - self.child_ms[i];
            t.children += self.child_count[i];
            t.counts[0] += span.counts[0];
            t.counts[1] += span.counts[1];
        }
        t
    }

    /// Totals of every span named `name`.
    pub fn all(&self, name: &str) -> Totals {
        self.totals(name, |_| true)
    }

    /// Durations (ms) of the spans named `name`, grouped by tag.
    pub fn durations_by_tag(&self, name: &str) -> HashMap<&'static str, Vec<f64>> {
        let mut out: HashMap<&'static str, Vec<f64>> = HashMap::new();
        for span in self.spans.iter().filter(|s| s.name == name) {
            out.entry(span.tag)
                .or_default()
                .push(crate::stats::ms(span.duration()));
        }
        out
    }
}
