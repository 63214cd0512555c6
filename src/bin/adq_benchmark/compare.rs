//! `adq_benchmark compare A.jsonl B.jsonl`: two sets of `run` summaries
//! judged metric by metric against the bounds in `BENCHMARK.json`, plus
//! the `train` results a faster Algorithm 1 must keep ([`TRAIN_GUARDS`]).

use std::process::ExitCode;

use serde_json::Value;

use crate::stats;
use crate::{Contract, MetricSpec};

/// How one metric on one workload compares between two sets of runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound.
    Agree,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// A set's own spread exceeds the bound (or has under two runs), so
    /// the sets cannot tell a regression from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Agree => "agree",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// A result of Algorithm 1 that a faster `train` must keep, read from the
/// `train` detail line. Both are higher-is-better.
pub struct Guard {
    pub name: &'static str,
    /// Largest allowed drop of B's median below A's.
    pub tolerance: Tolerance,
}

#[derive(Debug, Clone, Copy)]
pub enum Tolerance {
    Absolute(f64),
    /// As a share of A's median.
    Relative(f64),
}

impl Tolerance {
    fn label(self) -> String {
        match self {
            Tolerance::Absolute(d) => format!("-{d}"),
            Tolerance::Relative(share) => format!("-{:.0}%", 100.0 * share),
        }
    }
}

/// Final test accuracy (mean of VGG and ResNet) and final MAC reduction
/// (their geometric mean, the paper's headline).
pub const TRAIN_GUARDS: [Guard; 2] = [
    Guard {
        name: "train_final_acc",
        tolerance: Tolerance::Absolute(0.01),
    },
    Guard {
        name: "train_mac_reduction_x",
        tolerance: Tolerance::Relative(0.02),
    },
];

/// Judges B against A for one guard. A guard is a function of the code
/// and the seed (the run's outcome digest repeats exactly), so two sets
/// run over the same seeds are judged by their medians alone: their
/// spread is the seeds', not noise.
pub fn judge_guard(guard: &Guard, a: &[f64], b: &[f64]) -> Verdict {
    let (Some(ma), Some(mb)) = (stats::median(a), stats::median(b)) else {
        return Verdict::Unresolved;
    };
    let allowed = match guard.tolerance {
        Tolerance::Absolute(d) => d,
        Tolerance::Relative(share) => share * ma.abs(),
    };
    if ma - mb > allowed {
        Verdict::Regressed
    } else {
        Verdict::Agree
    }
}

/// Judges B against A for one metric.
pub fn judge(spec: &MetricSpec, a: &[f64], b: &[f64]) -> Verdict {
    let bound = spec.bound.unwrap_or(0.0);
    let (Some(spread_a), Some(spread_b)) = (stats::spread(a), stats::spread(b)) else {
        return Verdict::Unresolved;
    };
    if spread_a > bound || spread_b > bound {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (
        stats::median(a).expect("spread needs values"),
        stats::median(b).expect("spread needs values"),
    );
    let worse = if spec.higher_is_better {
        (ma - mb) / ma.abs()
    } else {
        (mb - ma) / ma.abs()
    };
    if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Agree
    }
}

/// Every value of `metric` on `workload` across a file's summaries.
fn values(runs: &[Value], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|run| {
            run.get("workloads")?
                .get(workload)?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

/// Every value of `key` in `workload`'s detail line across a file's
/// summaries.
fn detail_values(runs: &[Value], workload: &str, key: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|run| {
            run.get("workloads")?
                .get(workload)?
                .get("detail")?
                .get(key)?
                .as_f64()
        })
        .collect()
}

fn read_runs(path: &str) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    text.lines()
        .filter(|line| !line.trim().is_empty())
        .map(|line| serde_json::from_str(line).map_err(|e| format!("{path}: {e}")))
        .collect()
}

fn describe(v: &[f64]) -> String {
    match (stats::median(v), stats::quartiles(v)) {
        (Some(m), Some((q1, q3))) => format!("{m:.4} [{q1:.4}, {q3:.4}]"),
        (Some(m), None) => format!("{m:.4}"),
        _ => "-".to_string(),
    }
}

pub fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let [a_path, b_path] = args else {
        return Err("usage: adq_benchmark compare A.jsonl B.jsonl".to_string());
    };
    let contract = Contract::embedded();
    let (a, b) = (read_runs(a_path)?, read_runs(b_path)?);
    println!(
        "A = {a_path} ({} runs), B = {b_path} ({} runs); median [q1, q3]",
        a.len(),
        b.len()
    );
    println!(
        "{:<15} {:<17} {:>30} {:>30} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "spreadA", "spreadB", "bound"
    );
    let mut all_agree = true;
    let pct =
        |v: &[f64]| stats::spread(v).map_or("-".to_string(), |s| format!("{:.1}%", 100.0 * s));
    for workload in &contract.workloads {
        for spec in &contract.end_to_end {
            let (va, vb) = (
                values(&a, workload, &spec.name),
                values(&b, workload, &spec.name),
            );
            let verdict = judge(spec, &va, &vb);
            all_agree &= verdict == Verdict::Agree;
            println!(
                "{workload:<15} {:<17} {:>30} {:>30} {:>8} {:>8} {:>5.0}%  {}",
                spec.name,
                describe(&va),
                describe(&vb),
                pct(&va),
                pct(&vb),
                100.0 * spec.bound.unwrap_or(0.0),
                verdict.label()
            );
        }
    }
    for guard in &TRAIN_GUARDS {
        let (va, vb) = (
            detail_values(&a, "train", guard.name),
            detail_values(&b, "train", guard.name),
        );
        let verdict = judge_guard(guard, &va, &vb);
        all_agree &= verdict == Verdict::Agree;
        println!(
            "{:<15} {:<17} {:>30} {:>30} {:>8} {:>8} {:>6}  {} (medians)",
            "train",
            guard.name,
            describe(&va),
            describe(&vb),
            pct(&va),
            pct(&vb),
            guard.tolerance.label(),
            verdict.label()
        );
    }
    Ok(if all_agree {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(higher_is_better: bool) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: "ms".into(),
            higher_is_better,
            bound: Some(0.10),
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        let base = [10.0, 10.1, 9.9, 10.05, 9.95];
        let slower: Vec<f64> = base.iter().map(|v| v * 1.2).collect();
        let faster: Vec<f64> = base.iter().map(|v| v * 0.8).collect();
        assert_eq!(judge(&spec(false), &base, &base), Verdict::Agree);
        assert_eq!(judge(&spec(false), &base, &slower), Verdict::Regressed);
        assert_eq!(judge(&spec(false), &base, &faster), Verdict::Agree);
        assert_eq!(judge(&spec(true), &base, &faster), Verdict::Regressed);
        assert_eq!(judge(&spec(true), &base, &slower), Verdict::Agree);
        let noisy = [5.0, 15.0, 8.0, 12.0, 10.0];
        assert_eq!(judge(&spec(false), &noisy, &base), Verdict::Unresolved);
        assert_eq!(judge(&spec(false), &base[..1], &base), Verdict::Unresolved);
    }

    #[test]
    fn guards_hold_accuracy_absolutely_and_mac_reduction_relatively() {
        let [acc, mac] = &TRAIN_GUARDS;
        let a = [0.40, 0.55, 0.30, 0.62, 0.48];
        let lower = |v: &[f64], by: f64| v.iter().map(|x| x - by).collect::<Vec<_>>();
        assert_eq!(judge_guard(acc, &a, &a), Verdict::Agree);
        assert_eq!(judge_guard(acc, &a, &lower(&a, 0.009)), Verdict::Agree);
        assert_eq!(judge_guard(acc, &a, &lower(&a, 0.011)), Verdict::Regressed);
        assert_eq!(judge_guard(acc, &a, &lower(&a, -0.2)), Verdict::Agree);
        let x = [4.0, 5.0, 6.0];
        let scaled = |s: f64| x.iter().map(|v| v * s).collect::<Vec<_>>();
        assert_eq!(judge_guard(mac, &x, &scaled(0.985)), Verdict::Agree);
        assert_eq!(judge_guard(mac, &x, &scaled(0.97)), Verdict::Regressed);
        assert_eq!(judge_guard(mac, &x, &[]), Verdict::Unresolved);
    }

    #[test]
    fn values_are_read_per_workload_and_metric() {
        let run: Value = serde_json::from_str(
            r#"{"claim": null, "workloads": {"serve-c1": {"metrics": {"latency_p50_ms": {"value": 1.5, "unit": "ms"}}}, "train": {"detail": {"train_final_acc": 0.5}}}}"#,
        )
        .unwrap();
        let runs = vec![run.clone(), run];
        assert_eq!(values(&runs, "serve-c1", "latency_p50_ms"), vec![1.5, 1.5]);
        assert!(values(&runs, "train", "latency_p50_ms").is_empty());
        assert_eq!(
            detail_values(&runs, "train", "train_final_acc"),
            vec![0.5, 0.5]
        );
    }
}
