//! Compare the last two rows of `BENCH_daemon.json` — a change and the
//! parent it was measured against — under the bounds `BENCHMARK.json`
//! declares. For each workload and end-to-end metric it prints both
//! medians, the change/parent ratio and whether the ratio stays within
//! the metric's bound; when the change row records `pair_ratios` (one
//! change/parent ratio per alternating pair) it also prints their
//! minimum, median and maximum. A row's `held_out` block, when both
//! rows have one, is compared the same way.
//!
//! ```text
//! bench_diff [BENCH_daemon.json [BENCHMARK.json]]
//! ```
//!
//! It reads committed numbers only and measures nothing. It exits 1
//! when a file or row cannot be read, never on a ratio: a verdict on
//! timings belongs to the run that measured them.

use serde_json::Value;

/// One end-to-end metric as `BENCHMARK.json` declares it.
struct Metric {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn main() {
    let mut args = std::env::args().skip(1);
    let daemon = args.next().unwrap_or_else(|| "BENCH_daemon.json".into());
    let benchmark = args.next().unwrap_or_else(|| "BENCHMARK.json".into());
    let read = |path: &str| {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}")).and_then(
            |text| serde_json::from_str::<Value>(&text).map_err(|e| format!("{path}: {e}")),
        )
    };
    match read(&daemon).and_then(|d| read(&benchmark).and_then(|b| diff(&d, &b))) {
        Ok(report) => print!("{report}"),
        Err(e) => {
            eprintln!("bench_diff: {e}");
            std::process::exit(1);
        }
    }
}

/// The report comparing the last row of `daemon` with the row before it.
fn diff(daemon: &Value, benchmark: &Value) -> Result<String, String> {
    let metrics = declared_metrics(benchmark)?;
    let workloads: Vec<&str> = benchmark["workloads"]
        .as_array()
        .ok_or("BENCHMARK.json has no workloads list")?
        .iter()
        .map(|w| w["name"].as_str().ok_or("a workload has no name"))
        .collect::<Result<_, _>>()?;
    let rows = daemon["rows"].as_array().ok_or("BENCH_daemon.json has no rows list")?;
    let [.., parent, change] = rows.as_slice() else {
        return Err(format!("need two rows to compare, found {}", rows.len()));
    };
    let sha = |row: &Value| row["sha"].as_str().unwrap_or("?").to_string();
    let mut out = format!("parent: {}\nchange: {}\n", sha(parent), sha(change));
    for block in ["end_to_end", "held_out"] {
        let (p, c) = (&parent[block], &change[block]);
        if block == "held_out" && (is_null(p) || is_null(c)) {
            continue;
        }
        let seeds = c["seeds"].as_array().map(|s| {
            s.iter()
                .map(|v| format!("{}", v.as_f64().unwrap_or(f64::NAN)))
                .collect::<Vec<_>>()
                .join(",")
        });
        out += &format!("\n{block} (seeds {})\n", seeds.unwrap_or_else(|| "?".into()));
        out += &format!(
            "{:<16}{:<17}{:>11}{:>11}{:>8}{:>7}  {:<9}{}\n",
            "workload", "metric", "parent", "change", "ratio", "bound", "verdict", "pair ratios"
        );
        let (pw, cw) = (workloads_of(p, block, "parent")?, workloads_of(c, block, "change")?);
        for &w in &workloads {
            let (Some(pw), Some(cw)) = (pw.get(w), cw.get(w)) else { continue };
            for m in &metrics {
                let (pm, cm) = (&pw[m.name.as_str()], &cw[m.name.as_str()]);
                if is_null(pm) || is_null(cm) {
                    continue;
                }
                let (before, after) = (median(pm, w, &m.name)?, median(cm, w, &m.name)?);
                let ratio = after / before;
                let within =
                    if m.lower_is_better { ratio <= 1.0 + m.bound } else { ratio >= 1.0 - m.bound };
                let pairs = match pair_ratios(cm, w, &m.name)? {
                    Some(spread) => spread,
                    None => "-".into(),
                };
                out += &format!(
                    "{:<16}{:<17}{:>11.6}{:>11.6}{:>8.3}{:>7.2}  {:<9}{}\n",
                    w,
                    m.name,
                    before,
                    after,
                    ratio,
                    m.bound,
                    if within { "within" } else { "over" },
                    pairs
                );
            }
        }
    }
    Ok(out)
}

/// The end-to-end metrics `BENCHMARK.json` bounds.
fn declared_metrics(benchmark: &Value) -> Result<Vec<Metric>, String> {
    let list = benchmark["end_to_end"].as_array().ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m["name"].as_str().ok_or("an end-to-end metric has no name")?;
            let bound = m["bound"].as_f64().ok_or(format!("metric {name} has no bound"))?;
            let lower_is_better = match m["better"].as_str() {
                Some("lower") => true,
                Some("higher") => false,
                _ => return Err(format!("metric {name} says neither lower nor higher is better")),
            };
            Ok(Metric { name: name.to_string(), lower_is_better, bound })
        })
        .collect()
}

fn is_null(v: &Value) -> bool {
    matches!(v, Value::Null)
}

/// A row block's `workloads` object.
fn workloads_of<'a>(block: &'a Value, name: &str, side: &str) -> Result<&'a Value, String> {
    match &block["workloads"] {
        w @ Value::Object(_) => Ok(w),
        _ => Err(format!("the {side} row's {name} has no workloads")),
    }
}

fn median(metric: &Value, workload: &str, name: &str) -> Result<f64, String> {
    metric["median"]
        .as_f64()
        .filter(|m| *m > 0.0)
        .ok_or(format!("{workload} {name} has no positive median"))
}

/// `min/median/max` of a metric's `pair_ratios`, when it has them.
fn pair_ratios(metric: &Value, workload: &str, name: &str) -> Result<Option<String>, String> {
    let Some(list) = metric.get("pair_ratios") else { return Ok(None) };
    let bad = || format!("{workload} {name} pair_ratios is not a non-empty list of numbers");
    let mut r: Vec<f64> = list
        .as_array()
        .ok_or_else(bad)?
        .iter()
        .map(Value::as_f64)
        .collect::<Option<_>>()
        .ok_or_else(bad)?;
    if r.is_empty() {
        return Err(bad());
    }
    r.sort_by(f64::total_cmp);
    let n = r.len();
    let mid = if n % 2 == 1 { r[n / 2] } else { (r[n / 2 - 1] + r[n / 2]) / 2.0 };
    Ok(Some(format!("{:.3}/{:.3}/{:.3} over {n}", r[0], mid, r[n - 1])))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn json(text: &str) -> Value {
        serde_json::from_str(text).unwrap()
    }

    fn benchmark() -> Value {
        json(
            r#"{"workloads": [{"name": "w"}], "end_to_end": [
                {"name": "t", "better": "lower", "bound": 0.25},
                {"name": "r", "better": "higher", "bound": 0.25}]}"#,
        )
    }

    /// A row whose metric `t` has median `t` and whose metric `r` is
    /// the JSON text `r`.
    fn row(t: f64, r: &str) -> String {
        format!(
            r#"{{"sha": "x", "end_to_end": {{"seeds": [1], "workloads": {{"w": {{
                "t": {{"q1": {t}, "median": {t}, "q3": {t}}}, "r": {r}}}}}}}}}"#
        )
    }

    fn rows(parent: &str, change: &str) -> Value {
        json(&format!(r#"{{"rows": [{parent}, {change}]}}"#))
    }

    #[test]
    fn ratios_verdicts_and_pair_spreads() {
        let change = row(1.3, r#"{"median": 0.5, "pair_ratios": [0.6, 0.4, 0.5, 0.55]}"#);
        let out = diff(&rows(&row(1.0, r#"{"median": 1.0}"#), &change), &benchmark()).unwrap();
        let t = out.lines().find(|l| l.starts_with("w ") && l.contains(" t ")).unwrap();
        assert!(t.contains("1.300") && t.contains("over"), "{out}");
        let r = out.lines().find(|l| l.starts_with("w ") && l.contains(" r ")).unwrap();
        assert!(r.contains("0.500") && r.contains("over"), "{out}");
        assert!(r.contains("0.400/0.525/0.600 over 4"), "{out}");
        let out = diff(&rows(&row(1.0, "null"), &row(1.1, "null")), &benchmark()).unwrap();
        let t = out.lines().find(|l| l.starts_with("w ")).unwrap();
        assert!(t.contains("1.100") && t.contains("within") && t.ends_with('-'), "{out}");
    }

    #[test]
    fn an_unreadable_row_is_an_error() {
        let parent = row(1.0, r#"{"median": 1.0}"#);
        let one = json(&format!(r#"{{"rows": [{parent}]}}"#));
        assert!(diff(&one, &benchmark()).is_err());
        let no_median = rows(&parent, &row(1.0, r#"{"q1": 1}"#));
        assert!(diff(&no_median, &benchmark()).is_err());
        let bad_ratios = rows(&parent, &row(1.0, r#"{"median": 1.0, "pair_ratios": ["x"]}"#));
        assert!(diff(&bad_ratios, &benchmark()).is_err());
    }

    #[test]
    fn the_committed_trajectory_reads() {
        let daemon = serde_json::from_str(include_str!("../../../../BENCH_daemon.json")).unwrap();
        let benchmark = serde_json::from_str(include_str!("../../../../BENCHMARK.json")).unwrap();
        let out = diff(&daemon, &benchmark).unwrap();
        for w in ["form-hot", "reform-loop", "market-contend"] {
            assert!(out.lines().any(|l| l.starts_with(w)), "{w} missing:\n{out}");
        }
    }
}
