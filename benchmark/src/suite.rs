//! The one command: every workload, untraced then traced, each in a
//! fresh child process (so `peak_rss_mb` is per workload), every metric
//! printed by name with its unit, and the numbers written to
//! `RESULTS.json`. With `--check-repeat` the whole set runs twice and
//! the two sets must agree; single runs on a shared box can differ by
//! more than the bounds (which are about medians of ten), so a set of
//! the check takes each end-to-end metric as the median of three runs.

use crate::hist::median;
use crate::json::{self, parse_result, ResultLine};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::workloads::{Spec, WORKLOADS};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};

pub struct SuiteArgs {
    pub seed: u64,
    pub seconds: f64,
    pub dir: PathBuf,
    pub check_repeat: bool,
    /// Where `RESULTS.json` goes.
    pub results: PathBuf,
}

/// Both runs of one workload.
struct Pair {
    spec: &'static Spec,
    untraced: ResultLine,
    traced: ResultLine,
}

fn child(args: &SuiteArgs, spec: &Spec, trace: bool) -> Result<ResultLine, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", spec.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--dir")
        .arg(&args.dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", spec.name))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    let parsed = parse_result(line)
        .ok_or_else(|| format!("{} (trace {trace}): no result line, {}", spec.name, out.status))?;
    if !out.status.success() || !parsed.correct || parsed.failed > 0 {
        return Err(format!(
            "{} (trace {trace}): {} of {} operations failed, outputs {}, {}",
            spec.name,
            parsed.failed,
            parsed.attempted,
            if parsed.correct { "correct" } else { "WRONG" },
            out.status
        ));
    }
    Ok(parsed)
}

/// Untraced runs per workload in a set of `--check-repeat`.
const CHECK_RUNS: usize = 3;

/// One result whose every metric is the median over `lines`.
fn median_line(mut lines: Vec<ResultLine>) -> ResultLine {
    let mut first = lines.remove(0);
    for (i, metric) in first.metrics.iter_mut().enumerate() {
        let mut values: Vec<f64> = lines.iter().map(|l| l.metrics[i].1).collect();
        values.push(metric.1);
        metric.1 = median(&mut values);
    }
    first
}

fn run_set(args: &SuiteArgs) -> Result<Vec<Pair>, String> {
    let runs = if args.check_repeat { CHECK_RUNS } else { 1 };
    WORKLOADS
        .iter()
        .map(|spec| {
            eprintln!("running {} ...", spec.name);
            let untraced: Result<Vec<ResultLine>, String> =
                (0..runs).map(|_| child(args, spec, false)).collect();
            Ok(Pair { spec, untraced: median_line(untraced?), traced: child(args, spec, true)? })
        })
        .collect()
}

fn print_set(set: &[Pair]) {
    for pair in set {
        println!(
            "\n== {} ==  ({} calls attempted, 0 failed, outputs correct)",
            pair.spec.name, pair.untraced.attempted
        );
        println!("  -- end to end");
        for (name, value, unit) in &pair.untraced.metrics {
            println!("  {name:<28} {value:>16.4} {unit}");
        }
        println!("  -- per layer");
        for (m, (name, value, unit)) in PER_LAYER.iter().zip(&pair.traced.metrics) {
            println!("  {name:<28} {value:>16.4} {unit:<8} [{}]", m.layer);
        }
    }
}

/// Per-layer metrics that must repeat exactly: counts and count ratios
/// of the fixed counting leg on one-client workloads, and the rebuild's
/// read distribution everywhere.
fn must_repeat_exactly(spec: &Spec, name: &str) -> bool {
    let counting_leg = [
        "backend.read_calls",
        "backend.write_calls",
        "backend.read_units",
        "backend.write_units",
        "backend.flushes",
        "backend.units_per_call",
        "store.calls_per_op",
        "store.read_amp",
        "store.write_amp",
        "store.lock_contention",
        "cache.hit_ratio",
        "cache.absorbed_ratio",
        "cache.evictions",
        "cache.flushed_units",
        "scheme.table_bytes",
    ];
    name.starts_with("rebuild.") && !name.ends_with("_ms")
        || spec.clients == 1 && !spec.engine && counting_leg.contains(&name)
}

/// Compares two sets; returns the table and whether they agree.
fn compare(first: &[Pair], second: &[Pair]) -> (String, bool) {
    let mut table = String::new();
    let mut agree = true;
    for (a, b) in first.iter().zip(second) {
        let _ = writeln!(table, "\n== {} ==", a.spec.name);
        for (m, (x, y)) in END_TO_END.iter().zip(a.untraced.metrics.iter().zip(&b.untraced.metrics))
        {
            let drift = (y.1 - x.1).abs() / x.1.abs();
            let ok = drift <= m.bound;
            agree &= ok;
            let _ = writeln!(
                table,
                "  {:<28} {:>14.4} {:>14.4} {:<8} drift {:>7.4} bound {:<6} {}",
                m.name,
                x.1,
                y.1,
                m.unit,
                drift,
                m.bound,
                if ok { "ok" } else { "OUTSIDE" }
            );
        }
        for (m, (x, y)) in PER_LAYER.iter().zip(a.traced.metrics.iter().zip(&b.traced.metrics)) {
            if must_repeat_exactly(a.spec, m.name) {
                let ok = x.1 == y.1;
                agree &= ok;
                let _ = writeln!(
                    table,
                    "  {:<28} {:>14.4} {:>14.4} {:<8} exact {}",
                    m.name,
                    x.1,
                    y.1,
                    m.unit,
                    if ok { "ok" } else { "DIFFERS" }
                );
            }
        }
    }
    (table, agree)
}

fn metrics_json(line: &ResultLine) -> String {
    json::metrics(
        line.metrics.iter().map(|(name, value, unit)| (name.as_str(), *value, unit.as_str())),
    )
}

fn results_json(args: &SuiteArgs, sets: &[Vec<Pair>]) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let sets: Vec<String> = sets
        .iter()
        .map(|set| {
            let workloads: Vec<String> = set
                .iter()
                .map(|p| {
                    format!(
                        "    {}: {{\n      \"attempted\": {}, \"failed\": {}, \"correct\": {},\n      \"end_to_end\": {},\n      \"per_layer\": {}\n    }}",
                        json::string(p.spec.name),
                        p.untraced.attempted,
                        p.untraced.failed,
                        p.untraced.correct,
                        metrics_json(&p.untraced),
                        metrics_json(&p.traced)
                    )
                })
                .collect();
            format!("  {{\n{}\n  }}", workloads.join(",\n"))
        })
        .collect();
    format!(
        "{{\n\"note\": \"latest numbers of the one command on the box that committed them; no gain is claimed against any earlier number\",\n\"seed\": {}, \"seconds\": {}, \"nproc\": {}, \"dir\": {},\n\"sets\": [\n{}\n]\n}}\n",
        args.seed,
        args.seconds,
        nproc,
        json::string(&args.dir.display().to_string()),
        sets.join(",\n")
    )
}

/// Runs the suite; `Ok(false)` when `--check-repeat` found the two
/// sets apart.
pub fn run(args: &SuiteArgs) -> Result<bool, String> {
    let mut sets = vec![run_set(args)?];
    let mut agree = true;
    if args.check_repeat {
        sets.push(run_set(args)?);
        let (table, ok) = compare(&sets[0], &sets[1]);
        println!("{table}");
        println!("check-repeat: the two sets {}", if ok { "agree" } else { "DO NOT agree" });
        agree = ok;
    } else {
        print_set(&sets[0]);
    }
    std::fs::write(&args.results, results_json(args, &sets))
        .map_err(|e| format!("write {:?}: {e}", args.results))?;
    eprintln!("wrote {}", args.results.display());
    Ok(agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_check_set_takes_the_median_run_metric_by_metric() {
        let line = |a: f64, b: f64| ResultLine {
            correct: true,
            attempted: 5,
            failed: 0,
            metrics: vec![("x".into(), a, "s".into()), ("y".into(), b, "ms".into())],
        };
        let m = median_line(vec![line(3.0, 10.0), line(1.0, 30.0), line(2.0, 20.0)]);
        assert_eq!(m.metrics, line(2.0, 20.0).metrics);
        assert_eq!(median_line(vec![line(4.0, 5.0)]).metrics, line(4.0, 5.0).metrics);
    }

    #[test]
    fn exact_counts_are_compared_only_where_they_can_repeat() {
        let one_client = crate::workloads::find("hot_mixed_cached_file").unwrap();
        let two_clients = crate::workloads::find("engine_batch_file").unwrap();
        assert!(must_repeat_exactly(one_client, "cache.evictions"));
        assert!(!must_repeat_exactly(two_clients, "backend.read_calls"));
        assert!(must_repeat_exactly(two_clients, "rebuild.units_read"));
        assert!(!must_repeat_exactly(one_client, "rebuild.cycle_p50_ms"));
        assert!(!must_repeat_exactly(one_client, "backend.busy_s"));
    }
}
