//! `compare A.json B.json`: one row per (workload, end-to-end metric) of two
//! result sets, judged by the bounds the benchmark fixed.

use crate::json::Json;
use crate::report::{digits, EndToEnd, END_TO_END, NOT_APPLICABLE, WORKLOADS};
use crate::stats::{median, spread, Better};

/// How one (workload, metric) pair of the second set stands against the
/// first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// The second set's median is worse than the first's by more than the
    /// bound.
    Regressed,
    /// Run-to-run spread of either set is wider than the bound, so "no
    /// worse" cannot be claimed either way. Never given to `setup_s`: the
    /// driver judges a set-up time on its medians alone, and so does this.
    Unresolved,
    /// The metric does not apply to the workload (constant in both sets).
    NotApplicable,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::NotApplicable => "n/a",
        }
    }
}

/// Judges the second set's values against the first's for one metric.
pub fn judge(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    if a.iter().chain(b).all(|&v| v == NOT_APPLICABLE) {
        return Verdict::NotApplicable;
    }
    let (base, new) = (median(a), median(b));
    let worse_by = match metric.better {
        Better::Lower => new / base - 1.0,
        Better::Higher => 1.0 - new / base,
    };
    if worse_by > metric.bound {
        Verdict::Regressed
    } else if metric.name != "setup_s" && spread(a).max(spread(b)) > metric.bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// The values one result set holds for (workload, metric), one per run.
fn values(set: &Json, workload: &str, metric: &str) -> Vec<f64> {
    set.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("untraced"))
        .and_then(Json::as_arr)
        .map(|runs| {
            runs.iter()
                .filter_map(|run| run.get("metrics")?.get(metric)?.get("value")?.as_f64())
                .collect()
        })
        .unwrap_or_default()
}

/// Failed operations over every run of a set, traced runs included.
fn failures(set: &Json) -> u64 {
    let mut failed = 0.0;
    if let Some(workloads) = set.get("workloads").and_then(Json::as_obj) {
        for (_, workload) in workloads {
            let traced = workload.get("traced").into_iter();
            let untraced = workload
                .get("untraced")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter();
            for run in untraced.chain(traced) {
                failed += run.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
                if run.get("correct") == Some(&Json::Bool(false)) {
                    failed += 1.0;
                }
            }
        }
    }
    failed as u64
}

/// Renders the comparison and says whether it passes: no `regressed` row and
/// no failed operation in either set.
pub fn compare(a: &Json, b: &Json) -> (String, bool) {
    let mut out = format!(
        "{:<16} {:<23} {:>14} {:>14} {:>22} {:>8} {:>8} {:>6}  {}\n",
        "workload",
        "metric",
        "A median",
        "B median",
        "B/A (base = A median)",
        "spread A",
        "spread B",
        "bound",
        "verdict"
    );
    let mut pass = true;
    for (workload, _) in WORKLOADS {
        for metric in &END_TO_END {
            let (va, vb) = (
                values(a, workload, metric.name),
                values(b, workload, metric.name),
            );
            if va.is_empty() || vb.is_empty() {
                out.push_str(&format!(
                    "{workload:<16} {:<23} missing from a result set\n",
                    metric.name
                ));
                pass = false;
                continue;
            }
            let verdict = judge(metric, &va, &vb);
            pass &= verdict != Verdict::Regressed;
            let (ma, mb) = (median(&va), median(&vb));
            out.push_str(&format!(
                "{workload:<16} {:<23} {:>14} {:>14} {:>22} {:>8.4} {:>8.4} {:>6}  {}\n",
                metric.name,
                digits(ma),
                digits(mb),
                format!("{:.4} x {} {}", mb / ma, digits(ma), metric.unit),
                spread(&va),
                spread(&vb),
                metric.bound,
                verdict.label()
            ));
        }
    }
    let (fa, fb) = (failures(a), failures(b));
    out.push_str(&format!("failed operations: A {fa}, B {fb}\n"));
    pass &= fa == 0 && fb == 0;
    out.push_str(if pass { "PASS\n" } else { "FAIL\n" });
    (out, pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &'static str, better: Better, bound: f64) -> EndToEnd {
        EndToEnd {
            name,
            unit: "us",
            better,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let p50 = metric("latency_p50_us", Better::Lower, 0.10);
        let steady = [500.0, 502.0, 498.0, 501.0, 499.0];
        assert_eq!(
            judge(&p50, &steady, &[520.0, 522.0, 518.0, 521.0, 519.0]),
            Verdict::Ok
        );
        assert_eq!(
            judge(&p50, &steady, &[560.0, 562.0, 558.0, 561.0, 559.0]),
            Verdict::Regressed
        );
        // Better by any margin is never a regression.
        assert_eq!(
            judge(&p50, &steady, &[300.0, 302.0, 298.0, 301.0, 299.0]),
            Verdict::Ok
        );
        // Wide spread and no clear regression: unresolved.
        assert_eq!(
            judge(&p50, &steady, &[400.0, 520.0, 480.0, 610.0, 505.0]),
            Verdict::Unresolved
        );
        // A set-up time is judged on its medians alone, as the driver does.
        let setup = metric("setup_s", Better::Lower, 0.10);
        let scattered = [400.0, 520.0, 480.0, 610.0, 505.0];
        assert_eq!(judge(&setup, &steady, &scattered), Verdict::Ok);
        assert_eq!(judge(&setup, &scattered, &steady), Verdict::Ok);
        assert_eq!(
            judge(&setup, &steady, &[560.0, 562.0, 558.0, 561.0, 559.0]),
            Verdict::Regressed
        );
        let rate = metric("throughput_eps", Better::Higher, 0.10);
        assert_eq!(judge(&rate, &[100.0; 5], &[80.0; 5]), Verdict::Regressed);
        assert_eq!(judge(&rate, &[100.0; 5], &[95.0; 5]), Verdict::Ok);
        assert_eq!(judge(&rate, &[1.0; 3], &[1.0; 3]), Verdict::NotApplicable);
        // An exact metric tolerates nothing visible.
        let exact = metric("headline_speedup", Better::Higher, 0.001);
        assert_eq!(judge(&exact, &[2.28; 3], &[2.27; 3]), Verdict::Regressed);
        assert_eq!(judge(&exact, &[2.28; 3], &[2.28; 3]), Verdict::Ok);
    }

    #[test]
    fn a_failed_operation_fails_the_comparison() {
        let set = |failed: u64| {
            let run = Json::obj(vec![
                ("correct", (failed == 0).into()),
                ("failed", failed.into()),
                (
                    "metrics",
                    Json::Obj(
                        END_TO_END
                            .iter()
                            .map(|m| (m.name.to_string(), Json::obj(vec![("value", 2.0.into())])))
                            .collect(),
                    ),
                ),
            ]);
            let workloads = WORKLOADS
                .iter()
                .map(|(name, _)| {
                    (
                        name.to_string(),
                        Json::obj(vec![(
                            "untraced",
                            Json::Arr(vec![run.clone(), run.clone()]),
                        )]),
                    )
                })
                .collect();
            Json::obj(vec![("workloads", Json::Obj(workloads))])
        };
        let (text, pass) = compare(&set(0), &set(0));
        assert!(pass, "{text}");
        assert_eq!(text.lines().count(), 1 + 4 * END_TO_END.len() + 2);
        assert!(!compare(&set(0), &set(3)).1);
        assert!(!compare(&set(0), &Json::obj(vec![("workloads", Json::Obj(vec![]))])).1);
    }
}
