//! `discover`: cold start on all three datasets. Each discovery session
//! bootstraps a dataset's Virtual Schema Graph and synthesizes a stream of
//! 1–4-keyword examples anchored at real observations, without executing
//! the candidates; it ends with a short look at its first two examples
//! (choose, each ExRef operation, preview). The bootstrap crawl, keyword
//! matching and ASK validation dominate.

use crate::check::Checker;
use crate::data::{Source, NAMES};
use crate::explore::{set_up, Stack};
use crate::layers;
use crate::serve;
use crate::session::{self, Digest, Phases, Plan, Target};
use crate::stats::{median, ms, Metrics, Outcome};
use crate::trace::{self, span, Profile};
use crate::Args;
use re2x_datagen::common::{example_workload_on, rng};
use re2xolap::{Session, SessionConfig};
use std::path::Path;
use std::time::{Duration, Instant};

/// Observations per dataset, in [`NAMES`] order.
pub const OBSERVATIONS: [usize; 3] = [2_000, 2_000, 2_000];
/// Examples synthesized per discovery session, for each size 1–4.
pub const PER_SIZE: usize = 8;
/// Examples each discovery session explores at its end.
pub const LOOKS: usize = 2;
/// Offers previewed in the closing looks.
pub const PREVIEW_LIMIT: usize = 2;
/// Set-ups measured per run.
pub const SETUPS: usize = 3;
/// Distinct rounds; a round is one discovery session per dataset.
pub const CHUNKS: usize = 12;

/// One dataset's example stream and closing looks.
struct Stream {
    examples: Vec<Vec<String>>,
    looks: Vec<Plan>,
}

/// `chunks` rounds of one example stream per dataset.
fn streams(sources: &[Source], stack: &Stack, chunks: usize, seed: u64) -> Vec<Vec<Stream>> {
    let mut rng = rng(seed ^ 0xD15C);
    let by_dataset: Vec<Vec<Vec<Vec<String>>>> = sources
        .iter()
        .zip(&stack.endpoints)
        .map(|(s, e)| {
            (1..=4)
                .map(|size| {
                    let n = PER_SIZE * chunks;
                    example_workload_on(e.graph(), &s.meta, size, n, seed ^ (size as u64 * 31))
                })
                .collect()
        })
        .collect();
    (0..chunks)
        .map(|c| {
            by_dataset
                .iter()
                .enumerate()
                .map(|(dataset, sizes)| {
                    let examples: Vec<Vec<String>> = sizes
                        .iter()
                        .flat_map(|pool| pool[c * PER_SIZE..(c + 1) * PER_SIZE].iter().cloned())
                        .collect();
                    // the stream's first two examples
                    let looks = examples[..LOOKS]
                        .iter()
                        .map(|example| Plan {
                            dataset,
                            tries: Vec::new(),
                            example: example.clone(),
                            pick: rng.gen_range(0usize..8),
                            doubled: false,
                        })
                        .collect();
                    Stream { examples, looks }
                })
                .collect()
        })
        .collect()
}

/// One discovery session; returns its digest.
fn discovery(
    source: &Source,
    stack: &Stack,
    dataset: usize,
    stream: &Stream,
    phases: &mut Phases,
    boot_ms: &mut f64,
    mut check: Option<&mut Checker>,
) -> Result<u64, re2xolap::Re2xError> {
    let endpoint = stack.endpoints[dataset].as_ref();
    let start = Instant::now();
    let schema = source.bootstrap(endpoint).schema;
    *boot_ms += ms(start.elapsed());
    let mut digest = Digest::new();
    if schema != stack.schemas[dataset] {
        return Err(re2xolap::Re2xError::NotApplicable(format!(
            "{}: bootstrap found a different schema than at set-up",
            source.name
        )));
    }
    let mut session = Session::new(endpoint, &schema, SessionConfig::default());
    for example in &stream.examples {
        let parts: Vec<&str> = example.iter().map(String::as_str).collect();
        let start = Instant::now();
        let outcome = {
            let span = span("core.synthesize", source.name);
            let outcome = session.synthesize(&parts)?;
            span.count(
                outcome.queries.len() as u64,
                outcome.interpretations_considered as u64,
            );
            outcome
        };
        phases.synth.push(ms(start.elapsed()));
        digest.add(outcome.queries.len() as u64);
        for query in &outcome.queries {
            digest.add_text(&query.description);
        }
        if let Some(c) = check.as_deref_mut() {
            if outcome.queries.is_empty() {
                c.fail(format!(
                    "{}: anchored example {example:?} yields no candidate",
                    source.name
                ));
            }
        }
    }
    session.finish();
    let target = Target {
        endpoint,
        schema: &schema,
        source,
    };
    for look in &stream.looks {
        let check = check.as_deref_mut();
        digest.add(session::explore(
            &target,
            look,
            PREVIEW_LIMIT,
            phases,
            check,
        )?);
    }
    Ok(digest.value())
}

/// The declared Table 3 shape is what the crawl finds.
fn check_shape(c: &mut Checker, source: &Source, stack: &Stack, dataset: usize) {
    let stats = stack.schemas[dataset].stats();
    let want = source.meta.expected;
    let mut found = (stats.dimensions, stats.measures, stats.levels, want.members);
    if source.covers_every_pool() {
        found.3 = stats.members;
    }
    if found != (want.dimensions, want.measures, want.levels, want.members) {
        c.fail(format!(
            "{}: bootstrap found D={} M={} L={} N={} but the generator declares {want:?}",
            source.name, stats.dimensions, stats.measures, stats.levels, stats.members
        ));
    }
}

pub fn run(args: &Args, dir: &Path) -> Outcome {
    let sources: Vec<Source> = NAMES
        .iter()
        .zip(OBSERVATIONS)
        .map(|(&name, obs)| Source::prepare(dir, name, obs, args.seed))
        .collect();
    let traced = args.trace;
    trace::set_enabled(traced);
    let (stack, setups, _) = set_up(&sources, SETUPS, traced);
    trace::set_enabled(false);
    let setup_profile = Profile::new(trace::take());
    let streams = streams(&sources, &stack, CHUNKS, args.seed);

    let mut checker = Checker::default();
    for (dataset, source) in sources.iter().enumerate() {
        check_shape(&mut checker, source, &stack, dataset);
    }
    // warm-up: every round once, checked
    let mut expected = Vec::new();
    for chunk in &streams {
        for (dataset, (source, stream)) in sources.iter().zip(chunk).enumerate() {
            let (mut phases, mut boot) = (Phases::default(), 0.0);
            let check = Some(&mut checker);
            match discovery(
                source,
                &stack,
                dataset,
                stream,
                &mut phases,
                &mut boot,
                check,
            ) {
                Ok(d) => expected.push(d),
                Err(e) => {
                    checker.fail(format!("warm-up {}: {e}", source.name));
                    expected.push(0);
                }
            }
        }
    }

    let mut phases = Phases::default();
    let (mut sessions, mut boots) = (Vec::new(), Vec::new());
    let (mut failed, mut rounds) = (0u64, 0usize);
    let (mut plain_rounds, mut traced_rounds) = (Vec::new(), Vec::new());
    let window = Duration::from_secs(args.seconds);
    let start = Instant::now();
    while rounds < CHUNKS * (1 + usize::from(traced)) || start.elapsed() < window {
        let chunk = rounds % CHUNKS;
        let on = traced && (rounds / CHUNKS) % 2 == 1;
        trace::set_enabled(on);
        let round_start = Instant::now();
        let mut boot_pass = 0.0;
        phases.begin();
        for (dataset, (source, stream)) in sources.iter().zip(&streams[chunk]).enumerate() {
            let session_start = Instant::now();
            let result = discovery(
                source,
                &stack,
                dataset,
                stream,
                &mut phases,
                &mut boot_pass,
                None,
            );
            sessions.push(ms(session_start.elapsed()));
            match result {
                Ok(d) if d != expected[chunk * sources.len() + dataset] => checker.fail(format!(
                    "round {rounds}: {} results differ from the checked round",
                    source.name
                )),
                Ok(_) => {}
                Err(e) => {
                    failed += 1;
                    checker.fail(format!("round {rounds} {}: {e}", source.name));
                }
            }
        }
        phases.end();
        trace::set_enabled(false);
        boots.push(boot_pass);
        let took = ms(round_start.elapsed());
        if on {
            traced_rounds.push(took);
        } else {
            plain_rounds.push(took);
        }
        rounds += 1;
    }
    let wall = start.elapsed().as_secs_f64();
    eprintln!("discover: {rounds} rounds in {wall:.1} s; set-ups (s) {setups:.3?}");

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
                heap_bytes: stack.endpoints.iter().map(|e| e.graph().heap_bytes()).sum(),
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
        attempted: (phases.operations() + (rounds * sources.len()) as u64).max(1),
        failed,
        metrics: m,
    }
}
