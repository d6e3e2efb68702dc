//! `serve-remote`: `re2x-serve` with 2 workers and 2 closed-loop client
//! threads over a Eurostat endpoint that pays a fixed round-trip plus a
//! per-row transfer cost. Three tenant stacks: `analytics` (LRU-cached),
//! `adhoc` (bare) and `audit` (enabled tracer). Round-trips, cache hits,
//! tracing and dispatch set the latency; engine CPU hardly matters.

use crate::check::Checker;
use crate::data::{Source, NAMES};
use crate::layers::{self, TENANTS};
use crate::session::Phases;
use crate::stats::{median, ms, Metrics, Outcome};
use crate::trace::{self, span, store, Layer, Profile, Timed};
use crate::Args;
use re2x_cube::VirtualSchemaGraph;
use re2x_datagen::common::{example_workload_on, rng};
use re2x_datagen::prng::StdRng;
use re2x_obs::Tracer;
use re2x_rdf::Graph;
use re2x_serve::{run_script, RoundOp, ServeError, Server, ServerBuilder, SessionScript};
use re2x_sparql::{CachingEndpoint, LocalEndpoint, SparqlEndpoint, TracingEndpoint};
use re2xolap::{RefineOp, Session, SessionConfig};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Observations of the served Eurostat cube.
pub const OBSERVATIONS: usize = 500;
/// Fixed round-trip of every endpoint call and transfer cost per returned
/// row: the remote-endpoint model of the repository's sharding experiment
/// (`crates/bench/src/sharding.rs`, its headline configuration).
pub const ROUND_TRIP: Duration = Duration::from_millis(2);
pub const PER_ROW: Duration = Duration::from_micros(5);
/// Zipf exponent of example popularity, as in the repository's serve
/// experiment (`crates/bench/src/serve.rs`).
pub const ZIPF_EXPONENT: f64 = 1.1;
/// Entries per LRU cache of the `analytics` tenant, as in that experiment.
pub const CACHE_CAPACITY: usize = 64;
/// Distinct two-keyword examples sessions draw from. Larger than that
/// experiment's 16 so that the queries of the pool's cold tail overflow
/// the cache while those of its hot head fit (see the README).
pub const POOL: usize = 64;
/// Sessions in one round.
pub const SESSIONS: usize = 128;
/// Server worker threads and closed-loop client threads.
pub const WORKERS: usize = 2;
pub const CLIENTS: usize = 2;
/// Set-ups measured per run.
pub const SETUPS: usize = 3;
/// Examples of the phase pass: the pool and more from the same draw, so
/// that its tail percentiles rest on more than the pool's few costliest
/// examples.
const PHASE_POOL: usize = 3 * POOL;
/// Sessions of the phase pass (every example twice) and per round of it.
const PHASE_SESSIONS: usize = 2 * PHASE_POOL;
const PHASE_ROUND: usize = 16;

/// The store with the remote endpoint's cost model.
fn remote(graph: Graph) -> LocalEndpoint {
    LocalEndpoint::new(graph)
        .with_latency(ROUND_TRIP)
        .with_row_latency(PER_ROW)
}

/// Starts a server whose three tenant stacks sit over `base` endpoints.
fn launch(
    graph: &Graph,
    schema: &VirtualSchemaGraph,
    traced: bool,
    base: impl Fn(Graph) -> LocalEndpoint,
) -> Server {
    let cached = CachingEndpoint::with_capacity(
        store(base(graph.clone()), traced, "analytics"),
        CACHE_CAPACITY,
    );
    let analytics: Box<dyn SparqlEndpoint> = if traced {
        Box::new(Timed::new(cached, Layer::Cache, "analytics"))
    } else {
        Box::new(cached)
    };
    let audit = TracingEndpoint::new(
        store(base(graph.clone()), traced, "audit"),
        Tracer::enabled(),
    );
    ServerBuilder::new()
        .workers(WORKERS)
        .queue_capacity(4 * CLIENTS)
        .tenant_stack("analytics", analytics)
        .tenant_stack("adhoc", store(base(graph.clone()), traced, "adhoc"))
        .tenant_stack("audit", Box::new(audit))
        .start(graph, schema)
}

/// Cumulative-weight table of Zipf(s) over ranks `1..=n`.
struct Zipf(Vec<f64>);

impl Zipf {
    fn new(n: usize, s: f64) -> Zipf {
        let mut total = 0.0;
        Zipf(
            (1..=n)
                .map(|rank| {
                    total += 1.0 / (rank as f64).powf(s);
                    total
                })
                .collect(),
        )
    }

    fn draw(&self, rng: &mut StdRng) -> usize {
        let total = self.0[self.0.len() - 1];
        let u = rng.gen_range(0.0f64..total);
        self.0.partition_point(|&c| c < u).min(self.0.len() - 1)
    }
}

/// The seeded session mix of the repository's serve experiment: a
/// synthesis round, its example drawn Zipf-hot from the pool (or, with
/// `sweep`, each pool example in turn), then 1–4 rounds, each an ExRef
/// refinement (1/2), a think time of 1–3 ms (1/4), a preview (1/8) or a
/// backtrack (1/8).
fn scripts(pool: &[Vec<String>], sessions: usize, sweep: bool, seed: u64) -> Vec<SessionScript> {
    let zipf = Zipf::new(pool.len(), ZIPF_EXPONENT);
    let mut rng = rng(seed ^ 0x5E2F);
    (0..sessions)
        .map(|i| {
            let drawn = if sweep {
                i % pool.len()
            } else {
                zipf.draw(&mut rng)
            };
            let mut rounds = vec![RoundOp::Synthesize {
                example: pool[drawn].clone(),
                pick: rng.gen_range(0usize..3),
            }];
            for _ in 0..rng.gen_range(1usize..5) {
                rounds.push(match rng.gen_range(0usize..8) {
                    0..=3 => RoundOp::Refine {
                        op: RefineOp::ALL[rng.gen_range(0usize..4)],
                        pick: rng.gen_range(0usize..4),
                    },
                    4 | 5 => RoundOp::Think {
                        millis: rng.gen_range(1u64..4),
                    },
                    6 => RoundOp::Preview {
                        op: RefineOp::ALL[rng.gen_range(0usize..4)],
                    },
                    _ => RoundOp::Backtrack,
                });
            }
            SessionScript {
                tenant: TENANTS[i % TENANTS.len()].to_owned(),
                rounds,
            }
        })
        .collect()
}

fn think_ms(scripts: &[SessionScript]) -> f64 {
    scripts
        .iter()
        .flat_map(|s| &s.rounds)
        .map(|r| match r {
            RoundOp::Think { millis } => *millis as f64,
            _ => 0.0,
        })
        .sum()
}

/// What the clients saw in one round.
#[derive(Default)]
struct Served {
    sessions_ms: Vec<f64>,
    rejected: u64,
    failed: u64,
    differing: u64,
}

/// Runs every script once through the server from `CLIENTS` closed-loop
/// client threads and compares each transcript with the serial replay.
fn round(server: &Server, scripts: &[SessionScript], oracle: &[String]) -> Served {
    let next = AtomicUsize::new(0);
    let served = Mutex::new(Served::default());
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                let mut mine = Served::default();
                loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    let Some(script) = scripts.get(i) else { break };
                    let tenant = TENANTS
                        .into_iter()
                        .find(|t| *t == script.tenant)
                        .unwrap_or("unknown");
                    let start = Instant::now();
                    let result = {
                        let _span = span("serve.run", tenant);
                        server.run(script.clone())
                    };
                    mine.sessions_ms.push(ms(start.elapsed()));
                    match result {
                        Ok(t) if t.to_text() != oracle[i] => mine.differing += 1,
                        Ok(_) => {}
                        Err(
                            ServeError::QueueFull { .. }
                            | ServeError::ShuttingDown
                            | ServeError::UnknownTenant(_),
                        ) => mine.rejected += 1,
                        Err(_) => mine.failed += 1,
                    }
                }
                let mut all = served.lock().expect("client results");
                all.sessions_ms.extend(mine.sessions_ms);
                all.rejected += mine.rejected;
                all.failed += mine.failed;
                all.differing += mine.differing;
            });
        }
    });
    served.into_inner().expect("client results")
}

/// Replays the scripts through `re2xolap::Session` with every phase timed
/// (think rounds are skipped): the per-phase latencies against the remote
/// endpoint, which the server only reports per session. A round is
/// [`PHASE_ROUND`] scripts; `CLIENTS` threads take alternate rounds.
fn phase_pass(
    endpoint: &dyn SparqlEndpoint,
    schema: &VirtualSchemaGraph,
    scripts: &[SessionScript],
) -> Result<Phases, re2xolap::Re2xError> {
    let rounds: Vec<&[SessionScript]> = scripts.chunks(PHASE_ROUND).collect();
    let results: Vec<Result<Phases, re2xolap::Re2xError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let rounds = &rounds;
                scope.spawn(move || {
                    let mut phases = Phases::default();
                    for round in rounds.iter().skip(t).step_by(CLIENTS) {
                        phases.begin();
                        for script in *round {
                            replay(endpoint, schema, script, &mut phases)?;
                        }
                        phases.end();
                    }
                    Ok(phases)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("phase pass thread"))
            .collect()
    });
    let mut all = Phases::default();
    for phases in results {
        all.absorb(phases?);
    }
    Ok(all)
}

/// One script through `Session`, every phase timed.
fn replay(
    endpoint: &dyn SparqlEndpoint,
    schema: &VirtualSchemaGraph,
    script: &SessionScript,
    phases: &mut Phases,
) -> Result<(), re2xolap::Re2xError> {
    let tag = "eurostat";
    let timed = |samples: &mut Vec<f64>, start: Instant| samples.push(ms(start.elapsed()));
    let mut session = Session::new(endpoint, schema, SessionConfig::default());
    for round in &script.rounds {
        match round {
            RoundOp::Synthesize { example, pick } => {
                let parts: Vec<&str> = example.iter().map(String::as_str).collect();
                let start = Instant::now();
                let outcome = {
                    let span = span("core.synthesize", tag);
                    let o = session.synthesize(&parts)?;
                    span.count(o.queries.len() as u64, o.interpretations_considered as u64);
                    o
                };
                timed(&mut phases.synth, start);
                let mut queries = outcome.queries;
                if !queries.is_empty() {
                    let chosen = queries.swap_remove(pick % queries.len());
                    let start = Instant::now();
                    {
                        let _span = span("core.execute", tag);
                        session.choose(chosen)?;
                    }
                    timed(&mut phases.exec, start);
                }
            }
            RoundOp::Refine { op, pick } => {
                let offers = refine(&mut session, *op, phases)?;
                if !offers.is_empty() {
                    let offer = offers[pick % offers.len()].clone();
                    let start = Instant::now();
                    {
                        let _span = span("core.execute", tag);
                        session.apply(offer)?;
                    }
                    timed(&mut phases.exec, start);
                }
            }
            RoundOp::Preview { op } => {
                let offers = refine(&mut session, *op, phases)?;
                let start = Instant::now();
                {
                    let _span = span("core.preview", tag);
                    session.preview(&offers, 0)?;
                }
                timed(&mut phases.preview, start);
            }
            RoundOp::Think { .. } => {}
            RoundOp::Backtrack => {
                session.backtrack();
            }
        }
    }
    session.finish();
    Ok(())
}

fn refine(
    session: &mut Session<'_>,
    op: RefineOp,
    phases: &mut Phases,
) -> Result<Vec<re2xolap::Refinement>, re2xolap::Re2xError> {
    let name = match op {
        RefineOp::Disaggregate => "core.refine.dis",
        RefineOp::TopK => "core.refine.topk",
        RefineOp::Percentile => "core.refine.perc",
        RefineOp::Similarity => "core.refine.sim",
    };
    let start = Instant::now();
    let offers = {
        let _span = span(name, "eurostat");
        session.refinements(op)?
    };
    phases.refine.push(ms(start.elapsed()));
    Ok(offers)
}

/// Serve-layer spans of a short in-process server run, for the traced runs
/// of the other workloads.
pub struct Probe {
    pub profile: Profile,
    pub think_ms: f64,
}

/// Serves a few seeded sessions over `endpoint`'s store with no injected
/// latency, traced.
pub fn probe(
    source: &Source,
    endpoint: &dyn SparqlEndpoint,
    schema: &VirtualSchemaGraph,
    seed: u64,
) -> Probe {
    let graph = endpoint.graph();
    let pool = example_workload_on(graph, &source.meta, 2, 16, seed ^ 0x21F);
    let scripts = scripts(&pool, 12, false, seed);
    let bare = LocalEndpoint::new(graph.clone());
    let oracle: Vec<String> = scripts
        .iter()
        .map(|s| {
            run_script(&bare, schema, s, &SessionConfig::default())
                .map(|t| t.to_text())
                .unwrap_or_default()
        })
        .collect();
    let server = launch(graph, schema, true, LocalEndpoint::new);
    trace::set_enabled(true);
    round(&server, &scripts, &oracle);
    trace::set_enabled(false);
    server.shutdown();
    Probe {
        profile: Profile::new(trace::take()),
        think_ms: think_ms(&scripts),
    }
}

pub fn run(args: &Args, dir: &Path) -> Outcome {
    let traced = args.trace;
    let source = Source::prepare(dir, NAMES[0], OBSERVATIONS, args.seed);
    // the other datasets only for the per-dataset bootstrap figures
    let others: Vec<Source> = if traced {
        NAMES[1..]
            .iter()
            .map(|&name| Source::prepare(dir, name, OBSERVATIONS, args.seed))
            .collect()
    } else {
        Vec::new()
    };

    trace::set_enabled(traced);
    let mut setups = Vec::new();
    let mut boots = Vec::new();
    let mut ready = None;
    for _ in 0..SETUPS {
        // the previous set-up's server shuts down on drop
        drop(ready.take());
        let start = Instant::now();
        let graph = source.load();
        let endpoint = store(remote(graph.clone()), traced, source.name);
        let boot = Instant::now();
        let schema = source.bootstrap(endpoint.as_ref()).schema;
        boots.push(ms(boot.elapsed()));
        let server = launch(&graph, &schema, traced, remote);
        setups.push(start.elapsed().as_secs_f64());
        ready = Some((server, graph, endpoint, schema));
    }
    let (server, graph, endpoint, schema) = ready.expect("at least one set-up");
    for _ in 0..SETUPS {
        let start = Instant::now();
        source.bootstrap(endpoint.as_ref());
        boots.push(ms(start.elapsed()));
    }
    for other in &others {
        let store = store(remote(other.load()), true, other.name);
        other.bootstrap(store.as_ref());
    }
    trace::set_enabled(false);
    let setup_profile = Profile::new(trace::take());

    let phase_pool = example_workload_on(&graph, &source.meta, 2, PHASE_POOL, args.seed ^ 0x21F);
    let pool = phase_pool[..POOL].to_vec();
    let scripts = scripts(&pool, SESSIONS, false, args.seed);
    let round_think = think_ms(&scripts);

    // the serial replay every served transcript must match
    let mut checker = Checker::default();
    let bare = LocalEndpoint::new(graph.clone());
    let oracle: Vec<String> = scripts
        .iter()
        .map(
            |s| match run_script(&bare, &schema, s, &SessionConfig::default()) {
                Ok(t) => t.to_text(),
                Err(e) => {
                    checker.fail(format!("serial replay failed: {e}"));
                    String::new()
                }
            },
        )
        .collect();

    // warm-up: fills the cache, checked like every round
    let warm = round(&server, &scripts, &oracle);
    if warm.rejected + warm.failed + warm.differing > 0 {
        checker.fail(format!(
            "warm-up: {} rejected, {} failed, {} transcripts differ from the replay",
            warm.rejected, warm.failed, warm.differing
        ));
    }

    // per-phase latencies against the bare remote stack, one session per
    // pool example
    trace::set_enabled(traced);
    let phase_store = store(remote(graph.clone()), traced, "adhoc");
    let phase_scripts = self::scripts(&phase_pool, PHASE_SESSIONS, true, args.seed ^ 0xFA5E);
    let phase_start = Instant::now();
    let phases = phase_pass(phase_store.as_ref(), &schema, &phase_scripts).unwrap_or_else(|e| {
        checker.fail(format!("phase pass failed: {e}"));
        Phases::default()
    });
    let synth_rate = phases.synth.len() as f64 / phase_start.elapsed().as_secs_f64();
    trace::set_enabled(false);
    let phase_profile = Profile::new(trace::take());

    let mut sessions = Vec::new();
    let (mut failed, mut rounds) = (0u64, 0u64);
    let (mut plain_rounds, mut traced_rounds) = (Vec::new(), Vec::new());
    let window = Duration::from_secs(args.seconds);
    let begin = Instant::now();
    while rounds < 1 + u64::from(traced) || begin.elapsed() < window {
        let on = traced && rounds % 2 == 1;
        trace::set_enabled(on);
        let round_start = Instant::now();
        let served = round(&server, &scripts, &oracle);
        trace::set_enabled(false);
        let took = ms(round_start.elapsed());
        if on {
            traced_rounds.push(took);
        } else {
            plain_rounds.push(took);
        }
        if served.rejected > 0 {
            checker.fail(format!(
                "round {rounds}: {} sessions rejected",
                served.rejected
            ));
        }
        if served.differing > 0 {
            checker.fail(format!(
                "round {rounds}: {} transcripts differ from the serial replay",
                served.differing
            ));
        }
        failed += served.failed + served.rejected;
        sessions.extend(served.sessions_ms);
        rounds += 1;
    }
    let wall = begin.elapsed().as_secs_f64();
    server.shutdown();
    eprintln!("serve-remote: {rounds} rounds in {wall:.1} s; set-ups (s) {setups:.3?}");

    let mut m = Metrics::default();
    if traced {
        let window = Profile::new(trace::take());
        layers::report(
            &mut m,
            &layers::Sources {
                setup: &setup_profile,
                setups: SETUPS,
                window: &window,
                core: &phase_profile,
                rounds: traced_rounds.len() as u64,
                datasets: &NAMES[..1],
                heap_bytes: graph.heap_bytes(),
            },
        );
        layers::serve(&mut m, &window, round_think * traced_rounds.len() as f64);
        layers::overhead(&mut m, &plain_rounds, &traced_rounds);
    } else {
        m.put("setup_s", median(&setups), "s");
        m.put("rss_peak_mb", crate::stats::rss_peak_mb(), "MB");
        m.put("bootstrap_ms", median(&boots), "ms");
        crate::report_phases(&mut m, &phases, synth_rate, &sessions, wall);
    }
    for f in &checker.failures {
        eprintln!("check failed: {f}");
    }
    Outcome {
        correct: checker.failures.is_empty(),
        attempted: (rounds * scripts.len() as u64).max(1),
        failed,
        metrics: m,
    }
}
