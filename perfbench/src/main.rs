//! End-to-end and per-layer benchmark of RE²xOLAP.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload explore|discover|serve-remote --seed N --seconds S --trace 0|1
//! ```
//!
//! Generates its inputs from the seed, runs one workload for the given
//! number of seconds, checks the program's outputs and prints one JSON
//! line: end-to-end metrics with `--trace 0`, per-layer metrics from a
//! traced run with `--trace 1`. Exits non-zero when a check fails.

mod check;
mod data;
mod discover;
mod explore;
mod layers;
mod serve;
mod session;
mod stats;
mod trace;

use session::Phases;
use stats::{median, quantile, Metrics};

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// The interactive-round metrics shared by every workload. The p99s are
/// over calls; the medians are over rounds of each round's geometric-mean
/// call, so that the mix of operations and datasets inside a round does
/// not decide which call is the median.
pub fn report_phases(
    m: &mut Metrics,
    phases: &Phases,
    syntheses_per_s: f64,
    sessions_ms: &[f64],
    wall_s: f64,
) {
    m.put("synth_p50_ms", median(&phases.round_synth), "ms");
    m.put("synth_p99_ms", quantile(&phases.synth, 0.99), "ms");
    m.put("syntheses_per_s", syntheses_per_s, "1/s");
    m.put("exec_p50_ms", median(&phases.round_exec), "ms");
    m.put("refine_p50_ms", median(&phases.round_refine), "ms");
    m.put("preview_p50_ms", median(&phases.round_preview), "ms");
    m.put("round_p99_ms", quantile(&phases.calls(), 0.99), "ms");
    m.put("session_p50_ms", median(sessions_ms), "ms");
    m.put("session_p90_ms", quantile(sessions_ms, 0.90), "ms");
    m.put("sessions_per_s", sessions_ms.len() as f64 / wall_s, "1/s");
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work = data::WorkDir::new();
    let outcome = match args.workload.as_str() {
        "explore" => explore::run(&args, &work.0),
        "discover" => discover::run(&args, &work.0),
        "serve-remote" => serve::run(&args, &work.0),
        other => {
            eprintln!("perfbench: unknown workload {other} (explore, discover, serve-remote)");
            std::process::exit(2);
        }
    };
    drop(work);
    println!("{}", stats::result_line(&outcome));
    if !outcome.correct {
        std::process::exit(1);
    }
}
