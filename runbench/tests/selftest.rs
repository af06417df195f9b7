//! Self-tests of the benchmark at small sizes: determinism of generated
//! inputs and harness results, the correctness checks, and agreement of
//! the reported metrics with `BENCHMARK.json` and `metrics.json`.

use runbench::metrics::{MetricDef, END_TO_END, PER_LAYER};
use runbench::trace::Tracer;
use runbench::{bench, run, setup, verify, Options, RunResult, Scale, Workload};
use serde_json::Value;
use std::time::Duration;

fn results(w: Workload, seed: u64, threads: usize) -> Vec<RunResult> {
    setup(w, &Scale::SMALL, seed, &mut Tracer::new(false))
        .iter()
        .map(|i| run(i, threads))
        .collect()
}

fn digests(rs: &[RunResult]) -> Vec<u64> {
    rs.iter().map(RunResult::digest).collect()
}

#[test]
fn same_seed_same_counts_and_digest_other_seed_other_digest() {
    for w in Workload::ALL {
        let a = results(w, 7, w.threads());
        let b = results(w, 7, w.threads());
        let c = results(w, 8, w.threads());
        assert_eq!(digests(&a), digests(&b), "{} replays", w.name());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.stats(), y.stats(), "{} counts replay", w.name());
        }
        assert_ne!(digests(&a), digests(&c), "{} seeds differ", w.name());
    }
}

#[test]
fn two_threads_replay_the_one_thread_digest() {
    let w = Workload::ThetaStaticT2;
    assert_eq!(digests(&results(w, 3, 1)), digests(&results(w, 3, 2)));
}

#[test]
fn checks_pass_on_small_inputs() {
    for w in Workload::ALL {
        let instances = setup(w, &Scale::SMALL, 11, &mut Tracer::new(false));
        for instance in &instances {
            let result = run(instance, w.threads());
            let v = verify(instance, &result);
            assert!(v.attempted > 0, "{} checks something", w.name());
            assert_eq!(v.failed, 0, "{} output is correct", w.name());
            if let RunResult::Gossip(g) = &result {
                assert!(g.conserved(), "ledger conserved");
            }
        }
    }
}

fn table(v: &Value, key: &str) -> Vec<(String, String, String)> {
    let Some(Value::Array(items)) = v.get(key) else {
        panic!("BENCHMARK.json lacks {key}");
    };
    items
        .iter()
        .map(|m| {
            let s = |k: &str| match m.get(k) {
                Some(Value::Str(s)) => s.clone(),
                other => panic!("{key} entry field {k}: {other:?}"),
            };
            (s("name"), s("unit"), s("better"))
        })
        .collect()
}

fn ours(defs: &[MetricDef]) -> Vec<(String, String, String)> {
    defs.iter()
        .map(|d| (d.name.into(), d.unit.into(), d.better.into()))
        .collect()
}

#[test]
fn tables_match_benchmark_json_and_metrics_json() {
    let bench_json = serde_json::parse_value_complete(include_str!("../../BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    assert_eq!(table(&bench_json, "end_to_end"), ours(&END_TO_END));
    assert_eq!(table(&bench_json, "per_layer"), ours(&PER_LAYER));
    let Some(Value::Array(workloads)) = bench_json.get("workloads") else {
        panic!("BENCHMARK.json lacks workloads");
    };
    let names: Vec<&Value> = workloads.iter().filter_map(|w| w.get("name")).collect();
    let want: Vec<Value> = Workload::ALL
        .iter()
        .map(|w| Value::Str(w.name().into()))
        .collect();
    assert_eq!(names, want.iter().collect::<Vec<_>>());

    let doc = serde_json::parse_value_complete(include_str!("../metrics.json"))
        .expect("metrics.json parses");
    for (section, defs) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let entries = doc.get(section).and_then(Value::as_object).expect(section);
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        let want: Vec<&str> = defs.iter().map(|d| d.name).collect();
        assert_eq!(keys, want, "metrics.json {section}");
    }
    assert!(doc.get("held_out_seed").and_then(Value::as_u64).is_some());
}

#[test]
fn one_command_reports_every_metric_of_its_table() {
    for (trace, defs) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
        for w in Workload::ALL {
            let opts = Options {
                workload: w,
                seed: 5,
                budget: Duration::ZERO,
                trace,
            };
            let report = bench(&opts, &Scale::SMALL);
            assert!(report.correct, "{} trace={trace} correct", w.name());
            assert!(report.attempted > 0 && report.failed == 0);
            let names: Vec<&str> = report.metrics.iter().map(|&(n, _)| n).collect();
            let want: Vec<&str> = defs.iter().map(|d| d.name).collect();
            assert_eq!(names, want, "{} trace={trace}", w.name());
            let line = runbench::to_json(&report, defs);
            let parsed = serde_json::parse_value_complete(&line).expect("result line parses");
            assert_eq!(parsed.get("correct"), Some(&Value::Bool(true)));
            if !trace {
                for &(name, value) in &report.metrics {
                    assert!(value > 0.0, "{} {name} is never 0", w.name());
                }
            }
        }
    }
}
