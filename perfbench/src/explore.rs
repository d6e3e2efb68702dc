//! `explore`: one analyst in a closed loop, in process, no injected
//! latency. Fig. 8c-shaped sessions rotate over the Eurostat, Production
//! and DBpedia cubes; star GROUP BY execution dominates.

use crate::check::Checker;
use crate::data::{Source, NAMES};
use crate::layers;
use crate::serve;
use crate::session::{self, Phases, Plan, Target};
use crate::stats::{median, ms, Metrics, Outcome};
use crate::trace::{self, Profile};
use crate::Args;
use re2x_cube::VirtualSchemaGraph;
use re2x_datagen::common::{example_workload_on, rng};
use re2x_sparql::{LocalEndpoint, SparqlEndpoint};
use std::path::Path;
use std::time::{Duration, Instant};

/// Observations per dataset, in [`NAMES`] order.
pub const OBSERVATIONS: [usize; 3] = [4_000, 3_000, 2_000];
/// Distinct rounds; a round is one session on each dataset and the fault
/// session.
pub const CHUNKS: usize = 24;
/// Examples an analyst tries before exploring one.
pub const TRIES: usize = 23;
/// Example sizes drawn for the sessions.
pub const EXAMPLE_SIZES: [usize; 2] = [1, 2];
/// Offers previewed per refinement round.
pub const PREVIEW_LIMIT: usize = 4;
/// Set-ups measured per run.
pub const SETUPS: usize = 3;
/// Bootstrap passes measured per run (set-ups included).
pub const BOOTSTRAPS: usize = 8;

/// The known M-to-N fault, on inputs that do not depend on the seed: the
/// DBpedia cube generated from this seed at the explore scale, and an
/// example naming two genres of one artist. Every round explores it once
/// with every check on; the Similarity result lacks the example's groups,
/// and the session counts as failed (see [`session::binds_levels_once`]).
pub const FAULT_SEED: u64 = 52;
pub const FAULT_EXAMPLE: [&str; 2] = ["Genre 297", "Genre 529"];
pub const FAULT_PICK: usize = 1;
/// How the check reports the fault.
const FAULT_SIGN: &str = " lacks example ";

/// The stores, endpoints and schemas a workload runs on.
pub struct Stack {
    pub endpoints: Vec<Box<dyn SparqlEndpoint>>,
    pub schemas: Vec<VirtualSchemaGraph>,
}

/// Loads every snapshot and bootstraps every schema, `times` times;
/// returns the last stack with the set-up and bootstrap-pass times.
pub fn set_up(sources: &[Source], times: usize, traced: bool) -> (Stack, Vec<f64>, Vec<f64>) {
    let mut setups = Vec::new();
    let mut boots = Vec::new();
    let mut stack = None;
    for _ in 0..times {
        drop(stack.take());
        let start = Instant::now();
        let endpoints: Vec<Box<dyn SparqlEndpoint>> = sources
            .iter()
            .map(|s| trace::store(LocalEndpoint::new(s.load()), traced, s.name))
            .collect();
        let boot = Instant::now();
        let schemas: Vec<VirtualSchemaGraph> = sources
            .iter()
            .zip(&endpoints)
            .map(|(s, e)| s.bootstrap(e.as_ref()).schema)
            .collect();
        boots.push(ms(boot.elapsed()));
        setups.push(start.elapsed().as_secs_f64());
        stack = Some(Stack { endpoints, schemas });
    }
    (stack.expect("at least one set-up"), setups, boots)
}

/// The seeded session mix: `chunks` rounds of one session per dataset.
/// Example sizes alternate, so every seed runs the same mix of sizes.
pub fn plans(sources: &[Source], stack: &Stack, chunks: usize, seed: u64) -> Vec<Vec<Plan>> {
    // with room for explored examples that have no explorable candidate
    let per_size = 2 * (chunks * (TRIES + 1)).div_ceil(EXAMPLE_SIZES.len());
    let mut pools: Vec<Vec<std::vec::IntoIter<Vec<String>>>> = sources
        .iter()
        .zip(&stack.endpoints)
        .map(|(s, e)| {
            EXAMPLE_SIZES
                .iter()
                .map(|&size| {
                    example_workload_on(e.graph(), &s.meta, size, per_size, seed ^ size as u64)
                        .into_iter()
                })
                .collect()
        })
        .collect();
    let mut rng = rng(seed ^ 0xE7);
    (0..chunks)
        .map(|c| {
            (0..sources.len())
                .map(|dataset| {
                    let tries: Vec<Vec<String>> = (0..TRIES)
                        .map(|k| {
                            let size = (c + k) % EXAMPLE_SIZES.len();
                            pools[dataset][size].next().expect("pool holds every draw")
                        })
                        .collect();
                    let size = (c + TRIES) % EXAMPLE_SIZES.len();
                    let (endpoint, schema) =
                        (stack.endpoints[dataset].as_ref(), &stack.schemas[dataset]);
                    let example = pools[dataset][size]
                        .find(|e| session::can_explore(endpoint, schema, e))
                        .expect("pool holds an explorable example");
                    Plan {
                        dataset,
                        tries,
                        example,
                        pick: rng.gen_range(0usize..8),
                        doubled: false,
                    }
                })
                .collect()
        })
        .collect()
}

/// What one round gave: the per-session digests and the check failures of
/// its fault session.
pub struct Round {
    pub digests: Vec<u64>,
    pub fault: Vec<String>,
}

/// Runs every planned session once. The fault session runs with its own
/// checker and outside the traces; its latency is left out of
/// `sessions_ms`, which would otherwise time its checks.
pub fn round(
    sources: &[Source],
    stack: &Stack,
    plans: &[Plan],
    phases: &mut Phases,
    sessions_ms: &mut Vec<f64>,
    mut check: Option<&mut Checker>,
) -> Result<Round, re2xolap::Re2xError> {
    let mut out = Round {
        digests: Vec::with_capacity(plans.len()),
        fault: Vec::new(),
    };
    phases.begin();
    for plan in plans {
        let target = Target {
            endpoint: stack.endpoints[plan.dataset].as_ref(),
            schema: &stack.schemas[plan.dataset],
            source: &sources[plan.dataset],
        };
        if plan.doubled {
            let traced = trace::enabled();
            trace::set_enabled(false);
            let mut own = Checker::default();
            let digest = session::explore(&target, plan, PREVIEW_LIMIT, phases, Some(&mut own));
            trace::set_enabled(traced);
            out.digests.push(digest?);
            out.fault = own.failures;
            continue;
        }
        let start = Instant::now();
        out.digests.push(session::explore(
            &target,
            plan,
            PREVIEW_LIMIT,
            phases,
            check.as_deref_mut(),
        )?);
        sessions_ms.push(ms(start.elapsed()));
    }
    phases.end();
    Ok(out)
}

/// `true` when the fault session failed the way the known fault does;
/// other check failures go to `checker`.
fn known_fault(fault: &[String], checker: &mut Checker) -> bool {
    if fault.iter().all(|f| f.contains(FAULT_SIGN)) {
        return !fault.is_empty();
    }
    for f in fault {
        checker.fail(format!("fault session: {f}"));
    }
    false
}

pub fn run(args: &Args, dir: &Path) -> Outcome {
    let mut sources: Vec<Source> = NAMES
        .iter()
        .zip(OBSERVATIONS)
        .map(|(&name, obs)| Source::prepare(dir, name, obs, args.seed))
        .collect();
    let traced = args.trace;
    trace::set_enabled(traced);
    let (mut stack, setups, mut boots) = set_up(&sources, SETUPS, traced);
    // more bootstrap passes over the loaded stores
    while boots.len() < BOOTSTRAPS {
        let start = Instant::now();
        for (s, e) in sources.iter().zip(&stack.endpoints) {
            s.bootstrap(e.as_ref());
        }
        boots.push(ms(start.elapsed()));
    }
    trace::set_enabled(false);
    let setup_profile = Profile::new(trace::take());
    let mut plans = plans(&sources, &stack, CHUNKS, args.seed);
    let heap_bytes = stack.endpoints.iter().map(|e| e.graph().heap_bytes()).sum();

    // the fault's fixed inputs, set up once outside the timed set-ups
    let fault = Source::prepare(dir, NAMES[2], OBSERVATIONS[2], FAULT_SEED);
    let endpoint: Box<dyn SparqlEndpoint> = Box::new(LocalEndpoint::new(fault.load()));
    stack
        .schemas
        .push(fault.bootstrap(endpoint.as_ref()).schema);
    stack.endpoints.push(endpoint);
    sources.push(fault);
    for chunk in &mut plans {
        chunk.push(Plan {
            dataset: sources.len() - 1,
            tries: Vec::new(),
            example: FAULT_EXAMPLE.map(str::to_owned).to_vec(),
            pick: FAULT_PICK,
            doubled: true,
        });
    }
    let warm_start = Instant::now();

    // warm-up: every round once, checked
    let mut checker = Checker::default();
    let mut expected = Vec::new();
    for chunk in &plans {
        let (mut phases, mut sessions) = (Phases::default(), Vec::new());
        match round(
            &sources,
            &stack,
            chunk,
            &mut phases,
            &mut sessions,
            Some(&mut checker),
        ) {
            Ok(r) => {
                known_fault(&r.fault, &mut checker);
                expected.push(r.digests);
            }
            Err(e) => {
                checker.fail(format!("warm-up round failed: {e}"));
                expected.push(Vec::new());
            }
        }
    }

    let warm_s = warm_start.elapsed().as_secs_f64();
    let mut phases = Phases::default();
    let mut sessions = Vec::new();
    let (mut failed, mut rounds) = (0u64, 0usize);
    let (mut plain_rounds, mut traced_rounds) = (Vec::new(), Vec::new());
    let window = Duration::from_secs(args.seconds);
    let start = Instant::now();
    while rounds < CHUNKS * (1 + usize::from(traced)) || start.elapsed() < window {
        let chunk = rounds % CHUNKS;
        // the traced run alternates untraced and traced passes over all rounds
        let on = traced && (rounds / CHUNKS) % 2 == 1;
        trace::set_enabled(on);
        let round_start = Instant::now();
        match round(
            &sources,
            &stack,
            &plans[chunk],
            &mut phases,
            &mut sessions,
            None,
        ) {
            Ok(r) => {
                if r.digests != expected[chunk] {
                    checker.fail(format!(
                        "round {rounds} results differ from the checked round"
                    ));
                }
                if known_fault(&r.fault, &mut checker) {
                    failed += 1;
                }
            }
            Err(e) => {
                failed += 1;
                checker.fail(format!("round {rounds}: {e}"));
            }
        }
        trace::set_enabled(false);
        let took = ms(round_start.elapsed());
        if on {
            traced_rounds.push(took);
        } else {
            plain_rounds.push(took);
        }
        rounds += 1;
    }
    let wall = start.elapsed().as_secs_f64();
    eprintln!(
        "explore: checked warm-up {warm_s:.1} s; {rounds} rounds in {wall:.1} s, the known fault in {failed}; set-ups (s) {setups:.3?}; bootstrap passes (ms) {boots:.0?}"
    );

    let mut m = Metrics::default();
    if traced {
        let window = Profile::new(trace::take());
        layers::report(
            &mut m,
            &layers::Sources {
                setup: &setup_profile,
                setups: SETUPS,
                window: &window,
                core: &window,
                rounds: traced_rounds.len() as u64,
                datasets: &NAMES,
                heap_bytes,
            },
        );
        let probe = serve::probe(
            &sources[0],
            stack.endpoints[0].as_ref(),
            &stack.schemas[0],
            args.seed,
        );
        layers::serve(&mut m, &probe.profile, probe.think_ms);
        layers::overhead(&mut m, &plain_rounds, &traced_rounds);
    } else {
        m.put("setup_s", median(&setups), "s");
        m.put("rss_peak_mb", crate::stats::rss_peak_mb(), "MB");
        m.put("bootstrap_ms", median(&boots), "ms");
        let rate = phases.synth.len() as f64 / wall;
        crate::report_phases(&mut m, &phases, rate, &sessions, wall);
    }
    for f in &checker.failures {
        eprintln!("check failed: {f}");
    }
    Outcome {
        correct: checker.failures.is_empty(),
        attempted: (rounds * plans[0].len()) as u64,
        failed,
        metrics: m,
    }
}
