//! Output checks, computed apart from the SPARQL engine (direct scans of
//! the store) or from properties the method must have.

use re2x_cube::VirtualSchemaGraph;
use re2x_rdf::{vocab, Graph, TermId};
use re2x_sparql::{AggFunc, PatternElement, Solutions, Value};
use re2xolap::{OlapQuery, Refinement, RefinementKind};
use std::collections::HashMap;

/// Collects check failures; the run is correct when none were found.
#[derive(Default)]
pub struct Checker {
    pub failures: Vec<String>,
    pub checked: u64,
}

impl Checker {
    fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checked += 1;
        if !ok && self.failures.len() < 20 {
            self.failures.push(what());
        }
    }

    pub fn fail(&mut self, what: String) {
        self.expect(false, || what);
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

fn iri_of(graph: &Graph, value: &Option<Value>) -> Option<String> {
    match value {
        Some(Value::Term(id)) => graph.term(*id).as_iri().map(str::to_owned),
        _ => None,
    }
}

fn number(graph: &Graph, value: &Option<Value>) -> Option<f64> {
    value.as_ref().and_then(|v| v.as_number(graph))
}

/// Problem 1: the result holds, for every example tuple, rows about the
/// tuple's members. Members of distinct levels must share a row; two
/// members of one level (possible on M-to-N hierarchies) are grouped in
/// one column, so each needs a row of its own that agrees on the others.
pub fn contains_example(c: &mut Checker, graph: &Graph, query: &OlapQuery, solutions: &Solutions) {
    for tuple in &query.example {
        let columns: Option<Vec<(usize, &str)>> = tuple
            .iter()
            .map(|b| {
                let col = query.group_columns.iter().find(|g| g.level == b.level)?;
                Some((solutions.column(&col.var)?, b.member_iri.as_str()))
            })
            .collect();
        let found = columns.is_some_and(|cols| {
            // a row agrees with the tuple when each constrained column holds
            // one of the tuple's members for that column
            let agrees = |row: &[Option<Value>]| {
                cols.iter().all(|&(i, _)| {
                    let got = iri_of(graph, &row[i]);
                    cols.iter()
                        .any(|&(j, iri)| j == i && got.as_deref() == Some(iri))
                })
            };
            cols.iter().all(|&(i, iri)| {
                solutions
                    .rows
                    .iter()
                    .any(|row| agrees(row) && iri_of(graph, &row[i]).as_deref() == Some(iri))
            })
        });
        c.expect(found, || {
            format!(
                "result of `{}` lacks example {:?}",
                query.description, tuple
            )
        });
    }
}

fn unfiltered(query: &OlapQuery) -> bool {
    query.query.having.is_none()
        && !query
            .query
            .wher
            .iter()
            .any(|e| matches!(e, PatternElement::Filter(_)))
}

/// Number of walks from `node` along `path` (bag semantics of a chain of
/// triple patterns).
fn walks(graph: &Graph, node: TermId, path: &[TermId]) -> u64 {
    match path.split_first() {
        None => 1,
        Some((&p, rest)) => graph
            .objects(node, p)
            .iter()
            .map(|&next| walks(graph, next, rest))
            .sum(),
    }
}

/// Grand totals of an unfiltered star query against a direct scan of the
/// store: the SUM column summed over groups equals the measure summed
/// over every observation (weighted by its number of paths to the grouped
/// levels), the observation count recovered as SUM/AVG per group matches
/// too, and MIN/MAX agree with the scan's extremes.
pub fn grand_totals(
    c: &mut Checker,
    graph: &Graph,
    schema: &VirtualSchemaGraph,
    query: &OlapQuery,
    solutions: &Solutions,
) {
    if !unfiltered(query) {
        return;
    }
    let (Some(type_pred), Some(class)) = (
        graph.iri_id(vocab::rdf::TYPE),
        graph.iri_id(&schema.observation_class),
    ) else {
        c.fail("observation class missing from the store".to_owned());
        return;
    };
    let paths: Option<Vec<Vec<TermId>>> = query
        .group_columns
        .iter()
        .map(|g| {
            schema
                .level(g.level)
                .path
                .iter()
                .map(|p| graph.iri_id(p))
                .collect()
        })
        .collect();
    let Some(paths) = paths else {
        c.fail(format!(
            "unknown level predicate in `{}`",
            query.description
        ));
        return;
    };
    for measure in schema.measures() {
        let columns: HashMap<AggFunc, usize> = query
            .measure_columns
            .iter()
            .filter(|m| m.measure == measure.id)
            .filter_map(|m| Some((m.agg, solutions.column(&m.alias)?)))
            .collect();
        let (Some(&sum_col), Some(&avg_col)) =
            (columns.get(&AggFunc::Sum), columns.get(&AggFunc::Avg))
        else {
            continue;
        };
        let Some(mp) = graph.iri_id(&measure.predicate) else {
            continue;
        };
        let (mut sum, mut count) = (0.0f64, 0.0f64);
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        graph.for_each_matching(None, Some(type_pred), Some(class), |t| {
            let obs = t.s;
            let mult: u64 = paths.iter().map(|p| walks(graph, obs, p)).product();
            if mult == 0 {
                return;
            }
            for &v in graph.objects(obs, mp) {
                if let Some(x) = graph.numeric_value(v) {
                    sum += x * mult as f64;
                    count += mult as f64;
                    lo = lo.min(x);
                    hi = hi.max(x);
                }
            }
        });
        let (mut got_sum, mut got_count) = (0.0f64, 0.0f64);
        for row in &solutions.rows {
            let s = number(graph, &row[sum_col]).unwrap_or(0.0);
            got_sum += s;
            if let Some(avg) = number(graph, &row[avg_col]).filter(|a| *a != 0.0) {
                got_count += (s / avg).round();
            }
        }
        c.expect(close(got_sum, sum), || {
            format!(
                "SUM over groups of `{}` is {got_sum}, scan gives {sum}",
                query.description
            )
        });
        c.expect(close(got_count, count), || {
            format!(
                "observation count of `{}` is {got_count}, scan gives {count}",
                query.description
            )
        });
        let extreme = |agg: AggFunc, pick: fn(f64, f64) -> f64, init: f64| {
            columns.get(&agg).map(|&col| {
                solutions
                    .rows
                    .iter()
                    .filter_map(|row| number(graph, &row[col]))
                    .fold(init, pick)
            })
        };
        if let Some(min) = extreme(AggFunc::Min, f64::min, f64::INFINITY) {
            c.expect(count == 0.0 || close(min, lo), || {
                format!("MIN of `{}` is {min}, scan gives {lo}", query.description)
            });
        }
        if let Some(max) = extreme(AggFunc::Max, f64::max, f64::NEG_INFINITY) {
            c.expect(count == 0.0 || close(max, hi), || {
                format!("MAX of `{}` is {max}, scan gives {hi}", query.description)
            });
        }
    }
}

/// Group key of a row: the IRIs of the given columns.
fn key(graph: &Graph, row: &[Option<Value>], cols: &[usize]) -> Vec<Option<String>> {
    cols.iter().map(|&i| iri_of(graph, &row[i])).collect()
}

fn group_cols(query: &OlapQuery, solutions: &Solutions) -> Option<Vec<usize>> {
    query
        .group_columns
        .iter()
        .map(|g| solutions.column(&g.var))
        .collect()
}

/// Checks a refined result against its parent's result, according to the
/// refinement that produced it.
pub fn refinement(
    c: &mut Checker,
    graph: &Graph,
    parent: (&OlapQuery, &Solutions),
    offer: &Refinement,
    child: &Solutions,
    functional: bool,
) {
    match &offer.kind {
        RefinementKind::Disaggregate { .. } if functional && parent.0.query.having.is_none() => {
            rolls_up(c, graph, parent, &offer.query, child);
        }
        RefinementKind::TopK {
            measure_alias,
            k,
            order,
        } => {
            let desc = *order == re2x_sparql::Order::Desc;
            subset(
                c,
                graph,
                parent,
                child,
                measure_alias,
                |values| {
                    let mut sorted = values.to_vec();
                    sorted.sort_by(f64::total_cmp);
                    if desc {
                        sorted.reverse();
                    }
                    if *k == 0 || *k > sorted.len() {
                        return None;
                    }
                    // the top-k cut: everything strictly beyond the k-th value
                    // in the requested direction is out
                    let edge = sorted[*k - 1];
                    Some(Box::new(
                        move |v: f64| if desc { v >= edge } else { v <= edge },
                    ))
                },
                Some(*k),
            );
        }
        RefinementKind::Percentile {
            measure_alias,
            lower_pct,
            upper_pct,
        } => {
            let (lo_pct, hi_pct) = (*lower_pct, *upper_pct);
            subset(
                c,
                graph,
                parent,
                child,
                measure_alias,
                |values| {
                    let mut sorted = values.to_vec();
                    sorted.sort_by(f64::total_cmp);
                    let rank = |pct: u8| {
                        let r = (f64::from(pct) / 100.0 * (sorted.len() - 1) as f64).round();
                        sorted[(r as usize).min(sorted.len() - 1)]
                    };
                    let (lo, hi) = (rank(lo_pct), rank(hi_pct));
                    Some(Box::new(move |v: f64| {
                        v >= lo && if hi_pct == 100 { v <= hi } else { v < hi }
                    }))
                },
                None,
            );
        }
        _ => {}
    }
}

type Keep = Box<dyn Fn(f64) -> bool>;

/// A dice result is exactly the parent's groups whose measure lies within
/// the refinement's stated bound, with unchanged values.
fn subset(
    c: &mut Checker,
    graph: &Graph,
    (query, parent): (&OlapQuery, &Solutions),
    child: &Solutions,
    alias: &str,
    bound: impl FnOnce(&[f64]) -> Option<Keep>,
    exact_len: Option<usize>,
) {
    let (Some(pcols), Some(ccols), Some(pm), Some(cm)) = (
        group_cols(query, parent),
        group_cols(query, child),
        parent.column(alias),
        child.column(alias),
    ) else {
        c.fail(format!("dice on `{alias}` changed the result's columns"));
        return;
    };
    let values: Vec<f64> = parent
        .rows
        .iter()
        .filter_map(|row| number(graph, &row[pm]))
        .collect();
    if values.is_empty() {
        return;
    }
    let Some(keep) = bound(&values) else {
        c.fail(format!(
            "dice on `{alias}` names a bound outside the parent"
        ));
        return;
    };
    let mut expected: Vec<(Vec<Option<String>>, f64)> = parent
        .rows
        .iter()
        .filter_map(|row| Some((key(graph, row, &pcols), number(graph, &row[pm])?)))
        .filter(|(_, v)| keep(*v))
        .collect();
    let mut got: Vec<(Vec<Option<String>>, f64)> = child
        .rows
        .iter()
        .filter_map(|row| Some((key(graph, row, &ccols), number(graph, &row[cm])?)))
        .collect();
    expected.sort_by(|a, b| a.0.cmp(&b.0));
    got.sort_by(|a, b| a.0.cmp(&b.0));
    let same = expected.len() == got.len()
        && expected
            .iter()
            .zip(&got)
            .all(|(e, g)| e.0 == g.0 && close(e.1, g.1));
    c.expect(same && exact_len.is_none_or(|k| got.len() == k), || {
        format!(
            "dice on `{alias}` kept {} groups, the parent's bound admits {}",
            got.len(),
            expected.len()
        )
    });
}

/// A drill-down rolls back up to its parent: per parent group, the child
/// groups' SUMs add up to the parent's SUM, and MIN/MAX agree.
fn rolls_up(
    c: &mut Checker,
    graph: &Graph,
    (query, parent): (&OlapQuery, &Solutions),
    child_query: &OlapQuery,
    child: &Solutions,
) {
    let Some(pcols) = group_cols(query, parent) else {
        return;
    };
    // the parent's grouping columns, located in the child's result
    let ccols: Option<Vec<usize>> = query
        .group_columns
        .iter()
        .map(|g| child.column(&g.var))
        .collect();
    let Some(ccols) = ccols else {
        c.fail(format!(
            "`{}` lost a parent column",
            child_query.description
        ));
        return;
    };
    for m in &query.measure_columns {
        let (Some(pm), Some(cm)) = (parent.column(&m.alias), child.column(&m.alias)) else {
            continue;
        };
        let fold: fn(f64, f64) -> f64 = match m.agg {
            AggFunc::Sum => |a, b| a + b,
            AggFunc::Min => f64::min,
            AggFunc::Max => f64::max,
            _ => continue,
        };
        let mut rolled: HashMap<Vec<Option<String>>, f64> = HashMap::new();
        for row in &child.rows {
            if let Some(v) = number(graph, &row[cm]) {
                rolled
                    .entry(key(graph, row, &ccols))
                    .and_modify(|acc| *acc = fold(*acc, v))
                    .or_insert(v);
            }
        }
        let ok = parent.rows.len() == rolled.len()
            && parent.rows.iter().all(|row| {
                number(graph, &row[pm]).is_some_and(|v| {
                    rolled
                        .get(&key(graph, row, &pcols))
                        .is_some_and(|&r| close(r, v))
                })
            });
        c.expect(ok, || {
            format!(
                "`{}` does not roll back up to its parent on {}",
                child_query.description, m.alias
            )
        });
    }
}
