//! Per-layer metrics of a traced run, folded from the recorded spans.
//!
//! Counts are per round of the workload (a round is the same seeded mix
//! every time); times are means per call unless the name says otherwise.

use crate::stats::{mean, median, Metrics};
use crate::trace::Profile;

/// Where the recorded spans came from.
pub struct Sources<'a> {
    /// Set-up: snapshot loads and bootstraps.
    pub setup: &'a Profile,
    /// Set-ups recorded in `setup`.
    pub setups: usize,
    /// The traced rounds of the measured window.
    pub window: &'a Profile,
    /// Spans of the core layer (the window, unless phases were timed
    /// in a pass of their own).
    pub core: &'a Profile,
    /// Traced rounds recorded in `window`.
    pub rounds: u64,
    /// Heap of the loaded stores, in bytes.
    pub heap_bytes: usize,
    /// The datasets the workload itself bootstraps (others may appear only
    /// for their per-dataset bootstrap figures).
    pub datasets: &'a [&'static str],
}

fn per(count: f64, over: f64) -> f64 {
    if over > 0.0 {
        count / over
    } else {
        0.0
    }
}

/// Bootstrap spans of both profiles, by dataset.
fn bootstraps(s: &Sources<'_>, dataset: &str) -> Vec<f64> {
    let mut all = Vec::new();
    for profile in [s.setup, s.window] {
        if let Some(d) = profile.durations_by_tag("cube.bootstrap").remove(dataset) {
            all.extend(d);
        }
    }
    all
}

pub fn report(m: &mut Metrics, s: &Sources<'_>) {
    let rounds = s.rounds as f64;
    let own = |tag: &str| s.datasets.contains(&tag);
    let load = s.setup.totals("rdf.snapshot_load", own);
    m.put(
        "rdf.snapshot_load_ms",
        per(load.wall_ms, s.setups as f64),
        "ms",
    );
    m.put("rdf.heap_mb", s.heap_bytes as f64 / (1024.0 * 1024.0), "MB");

    let select = s.window.all("sparql.select");
    m.put(
        "sparql.select_calls",
        per(select.calls as f64, rounds),
        "count",
    );
    m.put("sparql.select_ms", select.mean_ms(), "ms");
    m.put(
        "sparql.select_rows_per_ms",
        per(select.counts[0] as f64, select.wall_ms),
        "1/ms",
    );
    let ask = s.window.all("sparql.ask");
    m.put("sparql.ask_calls", per(ask.calls as f64, rounds), "count");
    m.put("sparql.ask_ms", ask.mean_ms(), "ms");
    let keyword = s.window.all("sparql.keyword");
    m.put(
        "sparql.keyword_calls",
        per(keyword.calls as f64, rounds),
        "count",
    );
    m.put("sparql.keyword_ms", keyword.mean_ms(), "ms");

    // the cache tenant's store sees only the misses of its cache layer
    let cached = |name: &str| s.window.totals(name, |t| t == "analytics").calls as f64;
    let above: f64 = ["cache.select", "cache.ask", "cache.keyword"]
        .iter()
        .map(|n| cached(n))
        .sum();
    let below: f64 = ["sparql.select", "sparql.ask", "sparql.keyword"]
        .iter()
        .map(|n| cached(n))
        .sum();
    m.put("sparql.cache_hit_ratio", per(above - below, above), "ratio");
    m.put("sparql.cache_misses", per(below, rounds), "count");

    for dataset in crate::data::NAMES {
        let d = bootstraps(s, dataset);
        m.put(format!("cube.bootstrap_ms.{dataset}"), median(&d), "ms");
    }
    let (mut boot_self, mut boot_calls, mut boot_queries) = (0.0, 0u64, 0.0);
    for profile in [s.setup, s.window] {
        let t = profile.totals("cube.bootstrap", own);
        boot_self += t.self_ms;
        boot_calls += t.calls;
    }
    for dataset in s.datasets {
        let (mut calls, mut children) = (0u64, 0u64);
        for profile in [s.setup, s.window] {
            let t = profile.totals("cube.bootstrap", |tag| tag == *dataset);
            calls += t.calls;
            children += t.children;
        }
        boot_queries += per(children as f64, calls as f64);
    }
    m.put(
        "cube.bootstrap_self_ms",
        per(boot_self, boot_calls as f64),
        "ms",
    );
    m.put("cube.bootstrap_queries", boot_queries, "count");

    let synth = s.core.all("core.synthesize");
    m.put("core.synth_self_ms", synth.mean_self_ms(), "ms");
    m.put(
        "core.synth_queries",
        per(synth.children as f64, synth.calls as f64),
        "count",
    );
    m.put(
        "core.candidate_yield",
        per(synth.counts[0] as f64, synth.counts[1] as f64),
        "ratio",
    );
    m.put(
        "core.execute_self_ms",
        s.core.all("core.execute").mean_self_ms(),
        "ms",
    );
    for op in ["dis", "topk", "perc", "sim"] {
        let t = s.core.all(&format!("core.refine.{op}"));
        m.put(format!("core.refine_ms.{op}"), t.mean_ms(), "ms");
    }
    m.put(
        "core.preview_ms",
        s.core.all("core.preview").mean_ms(),
        "ms",
    );
}

/// Tenants of the session server, in report order.
pub const TENANTS: [&str; 3] = ["analytics", "adhoc", "audit"];

/// Serve-layer metrics from `serve.run` spans (one per session, on the
/// client thread) and the endpoint calls at the top of each tenant stack.
pub fn serve(m: &mut Metrics, profile: &Profile, think_ms: f64) {
    let runs = profile.durations_by_tag("serve.run");
    for tenant in TENANTS {
        let d = runs.get(tenant).cloned().unwrap_or_default();
        m.put(format!("serve.session_p50_ms.{tenant}"), median(&d), "ms");
    }
    let sessions = profile.all("serve.run");
    // time at the top of each stack: above the cache for `analytics`
    let mut endpoint_ms = 0.0;
    for name in ["cache.select", "cache.ask", "cache.keyword"] {
        endpoint_ms += profile.all(name).wall_ms;
    }
    for name in ["sparql.select", "sparql.ask", "sparql.keyword"] {
        endpoint_ms += profile.totals(name, |t| t != "analytics").wall_ms;
    }
    m.put(
        "serve.overhead_ms",
        per(
            sessions.wall_ms - endpoint_ms - think_ms,
            sessions.calls as f64,
        ),
        "ms",
    );
}

/// Tracing overhead: traced rounds against the untraced rounds between
/// them, in percent.
pub fn overhead(m: &mut Metrics, plain: &[f64], traced: &[f64]) {
    let base = mean(plain);
    m.put(
        "trace.overhead_pct",
        if base > 0.0 {
            (mean(traced) / base - 1.0) * 100.0
        } else {
            0.0
        },
        "%",
    );
}
