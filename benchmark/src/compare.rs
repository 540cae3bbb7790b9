//! `compare <parent.jsonl> <change.jsonl>`: one row per workload × end-to-end
//! metric with each side's median and quartiles and a verdict against the
//! bound in `BENCHMARK.json`.
//!
//! * `regressed` — the change's median is worse than the parent's by more
//!   than the bound (and the spread does not swallow the bound, or every run
//!   of the change reads worse than every run of the parent);
//! * `unresolved` — the run-to-run spread is wider than the bound, so the
//!   medians cannot say "unchanged";
//! * `improved` — the pair rule holds: the change wins at least nine tenths
//!   of the pairs (runs paired in file order, ties counting for neither) and
//!   the medians differ by more than the parent's inter-quartile distance;
//! * `unchanged` — none of the above.
//!
//! Exits non-zero on any `regressed` row or a higher `ops_failed ÷
//! ops_attempted`.  Smoke-scale and traced records are refused, and so are
//! two files whose provenance (kernel ISA, cores, threads, features, scale,
//! seconds) differs: numbers from different hosts are never compared.

use crate::json::{self, Value};
use crate::stats::{median, quartiles};
use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Unresolved,
    Regressed,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
        }
    }
}

/// Inter-quartile distance; 0 for a single run.
fn iqr(values: &[f64]) -> f64 {
    quartiles(values).map_or(0.0, |(q1, q3)| q3 - q1)
}

/// Whether reading `a` is strictly better than reading `b`.
fn beats(better: Better, a: f64, b: f64) -> bool {
    match better {
        Better::Higher => a > b,
        Better::Lower => a < b,
    }
}

/// Whether the pair rule holds for `change` over `parent`.
pub fn pair_rule(parent: &[f64], change: &[f64], better: Better) -> bool {
    let wins_over = |a, b| beats(better, a, b);
    let pairs = parent.len().min(change.len());
    let wins = (0..pairs).filter(|&i| wins_over(change[i], parent[i])).count();
    pairs > 0
        && wins * 10 >= pairs * 9
        && wins_over(median(change), median(parent))
        && (median(change) - median(parent)).abs() > iqr(parent)
}

pub fn judge(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    let (parent_median, change_median) = (median(parent), median(change));
    let scale = parent_median.abs().max(f64::MIN_POSITIVE);
    let worse_by = match better {
        Better::Higher => (parent_median - change_median) / scale,
        Better::Lower => (change_median - parent_median) / scale,
    };
    let spread = iqr(parent).max(iqr(change)) / scale;
    let wins_over = |a, b| beats(better, a, b);
    let every_run = |wins: &dyn Fn(f64, f64) -> bool| {
        change.iter().all(|&c| parent.iter().all(|&p| wins(c, p)))
    };
    if worse_by > bound {
        if spread > bound && !every_run(&|c, p| wins_over(p, c)) {
            return Verdict::Unresolved;
        }
        return Verdict::Regressed;
    }
    if pair_rule(parent, change, better) {
        return Verdict::Improved;
    }
    if spread > bound && !every_run(&wins_over) {
        return Verdict::Unresolved;
    }
    Verdict::Unchanged
}

/// The records of one results file, grouped by workload.
struct Side {
    /// workload → metric → values in file order.
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    /// workload → (ops_attempted, ops_failed) summed.
    ops: BTreeMap<String, (u64, u64)>,
    provenance: Vec<(String, String)>,
}

/// Provenance keys two files must agree on.
const COMPARABLE: [&str; 5] = ["kernel_isa", "nproc", "engine_threads", "serve_shards", "features"];

fn load(path: &str) -> Result<Side, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut side = Side { values: BTreeMap::new(), ops: BTreeMap::new(), provenance: Vec::new() };
    for (number, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let at = format!("{path}:{}", number + 1);
        let record = json::parse(line).map_err(|e| format!("{at}: {e}"))?;
        let field = |key: &str| record.get(key).ok_or_else(|| format!("{at}: no {key:?} field"));
        if field("scale")?.as_str() != Some("full") {
            return Err(format!("{at}: smoke-scale results are not comparable"));
        }
        if field("trace")?.as_bool() != Some(false) {
            return Err(format!("{at}: end-to-end metrics come from untraced runs only"));
        }
        let workload = field("workload")?.as_str().ok_or(format!("{at}: workload"))?.to_string();
        let mut fingerprint: Vec<(String, String)> = COMPARABLE
            .iter()
            .map(|key| {
                let value = field("provenance")?.get(key).map_or("missing".into(), Value::to_json);
                Ok((key.to_string(), value))
            })
            .collect::<Result<_, String>>()?;
        fingerprint.push(("seconds".into(), field("seconds")?.to_json()));
        if side.provenance.is_empty() {
            side.provenance = fingerprint;
        } else if side.provenance != fingerprint {
            return Err(format!("{at}: provenance differs within the file"));
        }
        let ops = side.ops.entry(workload.clone()).or_default();
        ops.0 += field("ops_attempted")?.as_u64().unwrap_or(0);
        ops.1 += field("ops_failed")?.as_u64().unwrap_or(0);
        let metrics = field("metrics")?.as_obj().ok_or(format!("{at}: metrics"))?;
        for (name, entry) in metrics {
            let value = entry
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{at}: metric {name} has no numeric value"))?;
            side.values
                .entry(workload.clone())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(value);
        }
    }
    if side.values.is_empty() {
        return Err(format!("{path}: no result records"));
    }
    Ok(side)
}

struct Bound {
    name: String,
    better: Better,
    bound: f64,
}

fn load_bounds(path: &str) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    doc.get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{path}: no end_to_end list"))?
        .iter()
        .map(|entry| {
            let name = entry.get("name").and_then(Value::as_str).ok_or("metric without a name")?;
            let better = match entry.get("better").and_then(Value::as_str) {
                Some("higher") => Better::Higher,
                Some("lower") => Better::Lower,
                _ => return Err(format!("{path}: {name}: better must be higher or lower")),
            };
            let bound = entry
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{path}: {name}: no bound"))?;
            Ok(Bound { name: name.to_string(), better, bound })
        })
        .collect()
}

pub fn main(args: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut claim: Option<(String, String)> = None;
    let mut bounds_path = String::from("BENCHMARK.json");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--claim" => {
                i += 1;
                let text = args.get(i).ok_or("--claim needs <workload>:<metric>")?;
                let (workload, metric) =
                    text.split_once(':').ok_or("--claim needs <workload>:<metric>")?;
                claim = Some((workload.to_string(), metric.to_string()));
            }
            "--benchmark-json" => {
                i += 1;
                bounds_path = args.get(i).ok_or("--benchmark-json needs a path")?.clone();
            }
            other => files.push(other.to_string()),
        }
        i += 1;
    }
    let [parent_path, change_path] = files.as_slice() else {
        return Err("compare needs exactly two result files".into());
    };
    let bounds = load_bounds(&bounds_path)?;
    let (parent, change) = (load(parent_path)?, load(change_path)?);
    if parent.provenance != change.provenance {
        return Err(format!(
            "the two files were measured differently and are not comparable:\n  parent {:?}\n  change {:?}",
            parent.provenance, change.provenance
        ));
    }

    let mut ok = true;
    println!(
        "{:<18} {:<30} {:>12} {:>12} {:>12}   {:>12} {:>12} {:>12}   {:>7} {:>6}  verdict",
        "workload",
        "metric",
        "parent q1",
        "median",
        "q3",
        "change q1",
        "median",
        "q3",
        "worse%",
        "bound%"
    );
    for (workload, parent_metrics) in &parent.values {
        let Some(change_metrics) = change.values.get(workload) else {
            println!("{workload:<18} missing from {change_path}");
            ok = false;
            continue;
        };
        for bound in &bounds {
            let (Some(p), Some(c)) =
                (parent_metrics.get(&bound.name), change_metrics.get(&bound.name))
            else {
                continue;
            };
            let verdict = judge(p, c, bound.better, bound.bound);
            ok &= verdict != Verdict::Regressed;
            let (pq, cq) =
                (quartiles(p).unwrap_or((p[0], p[0])), quartiles(c).unwrap_or((c[0], c[0])));
            let worse = match bound.better {
                Better::Higher => (median(p) - median(c)) / median(p).abs(),
                Better::Lower => (median(c) - median(p)) / median(p).abs(),
            };
            println!(
                "{workload:<18} {:<30} {:>12.5} {:>12.5} {:>12.5}   {:>12.5} {:>12.5} {:>12.5}   {:>7.2} {:>6.1}  {}",
                bound.name, pq.0, median(p), pq.1, cq.0, median(c), cq.1,
                worse * 100.0, bound.bound * 100.0, verdict.name()
            );
        }
        let (pa, pf) = parent.ops[workload];
        let (ca, cf) = change.ops.get(workload).copied().unwrap_or((0, 0));
        let ratio = |failed: u64, attempted: u64| failed as f64 / attempted.max(1) as f64;
        if ratio(cf, ca) > ratio(pf, pa) {
            println!("{workload:<18} ops_failed/ops_attempted rose: {pf}/{pa} -> {cf}/{ca}");
            ok = false;
        }
    }

    if let Some((workload, metric)) = claim {
        let bound = bounds
            .iter()
            .find(|b| b.name == metric)
            .ok_or_else(|| format!("--claim: {metric} is not an end-to-end metric"))?;
        let values = |side: &Side, path: &str| {
            side.values
                .get(&workload)
                .and_then(|m| m.get(&metric))
                .cloned()
                .ok_or_else(|| format!("--claim: {path} has no {workload}:{metric}"))
        };
        let (p, c) = (values(&parent, parent_path)?, values(&change, change_path)?);
        let met = pair_rule(&p, &c, bound.better);
        println!(
            "claim {workload}:{metric}: {} ({} pairs, medians {:.5} -> {:.5}, parent IQR {:.5})",
            if met { "met" } else { "not met" },
            p.len().min(c.len()),
            median(&p),
            median(&c),
            iqr(&p)
        );
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| center + (i as f64 - 4.5) * step).collect()
    }

    #[test]
    fn steady_runs_within_the_bound_are_unchanged() {
        let parent = around(100.0, 0.2);
        let change = around(99.0, 0.2);
        assert_eq!(judge(&parent, &change, Better::Higher, 0.10), Verdict::Unchanged);
    }

    #[test]
    fn a_median_worse_than_the_bound_is_regressed() {
        let parent = around(100.0, 0.2);
        let change = around(85.0, 0.2);
        assert_eq!(judge(&parent, &change, Better::Higher, 0.10), Verdict::Regressed);
        // Lower-is-better metrics regress upwards.
        assert_eq!(judge(&parent, &around(115.0, 0.2), Better::Lower, 0.10), Verdict::Regressed);
        assert_eq!(judge(&parent, &around(115.0, 0.2), Better::Higher, 0.10), Verdict::Improved);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let parent = around(100.0, 4.0);
        let change = around(98.0, 4.0);
        assert_eq!(judge(&parent, &change, Better::Higher, 0.10), Verdict::Unresolved);
        // ...unless every run of the change beats every run of the parent.
        let change = around(200.0, 4.0);
        assert_eq!(judge(&parent, &change, Better::Higher, 0.10), Verdict::Improved);
    }

    #[test]
    fn the_pair_rule_needs_nine_wins_in_ten_and_a_gap_beyond_the_parent_iqr() {
        let parent = around(100.0, 0.2);
        assert!(pair_rule(&parent, &around(103.0, 0.2), Better::Higher));
        // Medians apart by less than the parent's IQR: no claim.
        assert!(!pair_rule(&parent, &around(100.5, 0.2), Better::Higher));
        // Eight wins in ten: no claim, however large the wins.
        let mut change = around(110.0, 0.2);
        change[0] = 50.0;
        change[1] = 50.0;
        assert!(!pair_rule(&parent, &change, Better::Higher));
        // Ties count for neither side.
        assert!(!pair_rule(&parent, &parent, Better::Higher));
    }
}
