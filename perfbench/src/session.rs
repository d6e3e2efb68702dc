//! One Fig. 8c-shaped exploration session through `re2xolap::Session`:
//! synthesize → choose → for each ExRef operation: refinements → preview
//! → apply, then backtrack. Every call is timed; with a [`Checker`] the
//! outputs are checked as well.

use crate::check::{self, Checker};
use crate::data::Source;
use crate::trace::span;
use re2x_cube::VirtualSchemaGraph;
use re2x_sparql::{Solutions, SparqlEndpoint, Value};
use re2xolap::{OlapQuery, Re2xError, RefineOp, Session, SessionConfig, SynthesisOutcome};
use std::time::Instant;

/// One planned session: which dataset, the examples tried first, the
/// example explored and which offers to take. With `doubled`, the session
/// explores a candidate whose example tuple names two members of one level
/// (see [`binds_levels_once`]); otherwise one whose tuples bind each level
/// once.
#[derive(Debug, Clone)]
pub struct Plan {
    pub dataset: usize,
    pub tries: Vec<Vec<String>>,
    pub example: Vec<String>,
    pub pick: usize,
    pub doubled: bool,
}

/// Latencies (ms) of the interactive calls, by phase: every call, and
/// per round of the workload the geometric-mean call of each phase.
#[derive(Debug, Default)]
pub struct Phases {
    pub synth: Vec<f64>,
    pub exec: Vec<f64>,
    pub refine: Vec<f64>,
    pub preview: Vec<f64>,
    pub round_synth: Vec<f64>,
    pub round_exec: Vec<f64>,
    pub round_refine: Vec<f64>,
    pub round_preview: Vec<f64>,
    marks: [usize; 4],
}

impl Phases {
    /// Every interactive call, all phases together.
    pub fn calls(&self) -> Vec<f64> {
        let mut all = Vec::new();
        for part in [&self.synth, &self.exec, &self.refine, &self.preview] {
            all.extend_from_slice(part);
        }
        all
    }

    pub fn operations(&self) -> u64 {
        (self.synth.len() + self.exec.len() + self.refine.len() + self.preview.len()) as u64
    }

    /// Appends another recorder's samples (rounds recorded on another
    /// thread).
    pub fn absorb(&mut self, other: Phases) {
        self.synth.extend(other.synth);
        self.exec.extend(other.exec);
        self.refine.extend(other.refine);
        self.preview.extend(other.preview);
        self.round_synth.extend(other.round_synth);
        self.round_exec.extend(other.round_exec);
        self.round_refine.extend(other.round_refine);
        self.round_preview.extend(other.round_preview);
    }

    /// Marks the start of a round.
    pub fn begin(&mut self) {
        self.marks = [
            self.synth.len(),
            self.exec.len(),
            self.refine.len(),
            self.preview.len(),
        ];
    }

    /// Folds the calls since [`Phases::begin`] into per-round geometric
    /// means: a smooth summary of a round that mixes operations of very
    /// different cost, where the median call would jump between them.
    pub fn end(&mut self) {
        let [sy, e, r, p] = self.marks;
        let pairs = [
            (&self.synth[sy..], &mut self.round_synth),
            (&self.exec[e..], &mut self.round_exec),
            (&self.refine[r..], &mut self.round_refine),
            (&self.preview[p..], &mut self.round_preview),
        ];
        for (calls, means) in pairs {
            if !calls.is_empty() {
                means.push(crate::stats::geometric_mean(calls));
            }
        }
    }
}

/// What the session runs against.
pub struct Target<'a> {
    pub endpoint: &'a dyn SparqlEndpoint,
    pub schema: &'a VirtualSchemaGraph,
    pub source: &'a Source,
}

const REFINE_SPANS: [&str; 4] = [
    "core.refine.dis",
    "core.refine.topk",
    "core.refine.perc",
    "core.refine.sim",
];

/// FNV-1a over a stream of counts and result values: two runs of one plan
/// must agree.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn add(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Adds every value of every row: term ids, numbers bit for bit,
    /// booleans, strings and unbound cells.
    pub fn add_solutions(&mut self, solutions: &Solutions) {
        self.add(solutions.len() as u64);
        for row in &solutions.rows {
            for cell in row {
                match cell {
                    None => self.add(0),
                    Some(Value::Term(id)) => self.add(1 ^ (u64::from(id.0) << 8)),
                    Some(Value::Number(x)) => {
                        self.add(2);
                        self.add(x.to_bits());
                    }
                    Some(Value::Bool(b)) => self.add(3 ^ (u64::from(*b) << 8)),
                    Some(Value::Str(text)) => {
                        self.add(4);
                        for byte in text.bytes() {
                            self.add(u64::from(byte));
                        }
                    }
                }
            }
        }
    }

    /// Adds a text (a candidate's description).
    pub fn add_text(&mut self, text: &str) {
        self.add(text.len() as u64);
        for byte in text.bytes() {
            self.add(u64::from(byte));
        }
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

/// `true` when every example tuple of `query` binds each level once.
///
/// A tuple naming two members of one level (two genres of an artist on the
/// M-to-N DBpedia shape) is a valid candidate, but its result groups that
/// level in one column, so no row matches the whole tuple and the
/// Similarity refinement can drop the example's groups. That fault shows
/// on some seeds only, so the seeded sessions explore candidates that bind
/// each level once, and `explore` runs the fault on fixed inputs in every
/// round (`explore::FAULT_EXAMPLE`), counted as a failed session.
pub fn binds_levels_once(query: &OlapQuery) -> bool {
    query.example.iter().all(|tuple| {
        let mut levels: Vec<_> = tuple.iter().map(|b| b.level).collect();
        levels.sort_unstable();
        levels.dedup();
        levels.len() == tuple.len()
    })
}

/// `true` when synthesizing `example` yields a candidate that binds each
/// level once.
pub fn can_explore(
    endpoint: &dyn SparqlEndpoint,
    schema: &VirtualSchemaGraph,
    example: &[String],
) -> bool {
    let parts: Vec<&str> = example.iter().map(String::as_str).collect();
    Session::new(endpoint, schema, SessionConfig::default())
        .synthesize(&parts)
        .is_ok_and(|o| o.queries.iter().any(binds_levels_once))
}

fn timed<T>(samples: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    samples.push(crate::stats::ms(start.elapsed()));
    out
}

/// Synthesizes one example, timed; with a checker, executes every
/// candidate and checks it.
fn synthesize(
    target: &Target<'_>,
    session: &mut Session<'_>,
    example: &[String],
    phases: &mut Phases,
    check: Option<&mut Checker>,
) -> Result<SynthesisOutcome, Re2xError> {
    let parts: Vec<&str> = example.iter().map(String::as_str).collect();
    let outcome = timed(&mut phases.synth, || {
        let span = span("core.synthesize", target.source.name);
        let outcome = session.synthesize(&parts);
        if let Ok(o) = &outcome {
            span.count(o.queries.len() as u64, o.interpretations_considered as u64);
        }
        outcome
    })?;
    if outcome.queries.is_empty() {
        return Err(Re2xError::NotApplicable(format!(
            "anchored example {example:?} yields no candidate"
        )));
    }
    if let Some(c) = check {
        let graph = target.endpoint.graph();
        for query in &outcome.queries {
            let solutions = target.endpoint.select(&query.query)?;
            check::contains_example(c, graph, query, &solutions);
            if target.source.functional() {
                check::grand_totals(c, graph, target.schema, query, &solutions);
            }
        }
    }
    Ok(outcome)
}

/// Runs one session; returns a digest of its candidates and results.
pub fn explore(
    target: &Target<'_>,
    plan: &Plan,
    preview_limit: usize,
    phases: &mut Phases,
    mut check: Option<&mut Checker>,
) -> Result<u64, Re2xError> {
    let tag = target.source.name;
    let graph = target.endpoint.graph();
    let mut digest = Digest::new();
    let mut session = Session::new(target.endpoint, target.schema, SessionConfig::default());
    for example in &plan.tries {
        let outcome = synthesize(target, &mut session, example, phases, check.as_deref_mut())?;
        digest.add(outcome.queries.len() as u64);
        for query in &outcome.queries {
            digest.add_text(&query.description);
        }
    }
    let outcome = synthesize(
        target,
        &mut session,
        &plan.example,
        phases,
        check.as_deref_mut(),
    )?;
    digest.add(outcome.queries.len() as u64);
    for query in &outcome.queries {
        digest.add_text(&query.description);
    }
    let mut queries: Vec<OlapQuery> = outcome
        .queries
        .into_iter()
        .filter(|q| binds_levels_once(q) != plan.doubled)
        .collect();
    if queries.is_empty() {
        return Err(Re2xError::NotApplicable(format!(
            "example {:?} has no candidate of the planned kind",
            plan.example
        )));
    }
    let chosen = queries.swap_remove(plan.pick % queries.len());
    timed(&mut phases.exec, || {
        let _span = span("core.execute", tag);
        session.choose(chosen).map(|_| ())
    })?;
    if let Some(step) = session.current() {
        digest.add_solutions(&step.solutions);
    }

    for (op, span_name) in RefineOp::ALL.into_iter().zip(REFINE_SPANS) {
        let offers = timed(&mut phases.refine, || {
            let _span = span(span_name, tag);
            session.refinements(op)
        })?;
        digest.add(offers.len() as u64);
        for offer in &offers {
            digest.add_text(&offer.query.description);
        }
        if offers.is_empty() {
            continue;
        }
        let shown = &offers[..offers.len().min(preview_limit)];
        let previews = timed(&mut phases.preview, || {
            let _span = span("core.preview", tag);
            session.preview(shown, 0)
        })?;
        for p in &previews {
            digest.add_solutions(p);
        }
        let functional = target.source.functional();
        let parent = match (check.as_deref_mut(), session.current()) {
            (Some(c), Some(step)) => {
                for (offer, result) in shown.iter().zip(&previews) {
                    let parent = (&step.query, &step.solutions);
                    check::refinement(c, graph, parent, offer, result, functional);
                }
                Some((step.query.clone(), step.solutions.clone()))
            }
            _ => None,
        };
        let offer = offers[plan.pick % offers.len()].clone();
        timed(&mut phases.exec, || {
            let _span = span("core.execute", tag);
            session.apply(offer).map(|_| ())
        })?;
        if let Some(step) = session.current() {
            digest.add_solutions(&step.solutions);
        }
        if let (Some(c), Some((pq, ps)), Some(step)) =
            (check.as_deref_mut(), &parent, session.current())
        {
            check::refinement(
                c,
                graph,
                (pq, ps),
                &offers[plan.pick % offers.len()],
                &step.solutions,
                functional,
            );
            check::contains_example(c, graph, &step.query, &step.solutions);
        }
    }
    while session.backtrack() {}
    session.finish();
    Ok(digest.value())
}
