//! Smoke-size runs of every workload: each declared metric is emitted,
//! finite, with the unit `BENCHMARK.json` declares, and the traced run
//! reports every per-layer metric.

use std::path::Path;

use perfbench::{ordered, result_json, run, Metric, Size, Workload, END_TO_END, PER_LAYER};

fn declared() -> String {
    std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json next to the benchmark directory")
}

#[test]
fn benchmark_json_declares_every_metric_and_workload() {
    let benchmark = declared();
    let tables: [&[Metric]; 2] = [END_TO_END, PER_LAYER];
    for metric in tables.into_iter().flatten() {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\"",
            metric.name, metric.unit
        );
        assert!(benchmark.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for workload in Workload::ALL {
        let entry = format!("{{\"name\": \"{}\", \"why\"", workload.name());
        assert!(benchmark.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}

fn check_workload(workload: Workload) {
    for trace in [false, true] {
        let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
            "{}-trace{}",
            workload.name(),
            u8::from(trace)
        ));
        let outcome = run(workload, Size::Smoke, 3, 0.0, trace, &out)
            .unwrap_or_else(|e| panic!("{} trace={trace}: {e:?}", workload.name()));
        assert!(outcome.attempted > 0);
        assert_eq!(outcome.failed, 0);
        let table = if trace { PER_LAYER } else { END_TO_END };
        assert_eq!(outcome.metrics.len(), table.len());
        for metric in table {
            let value = outcome.metrics[metric.name];
            assert!(value.is_finite(), "{} = {value}", metric.name);
            if !trace {
                assert!(value > 0.0, "end-to-end {} reads {value}", metric.name);
            }
        }
        let line = result_json(
            true,
            outcome.attempted,
            outcome.failed,
            &ordered(trace, &outcome.metrics),
        );
        for metric in table {
            let entry = format!("\"{}\": {{\"value\": ", metric.name);
            assert!(line.contains(&entry), "result lacks {entry}");
            let unit = format!("\"unit\": \"{}\"}}", metric.unit);
            assert!(line.contains(&unit));
        }
    }
}

#[test]
fn replan_emits_every_metric() {
    check_workload(Workload::Replan);
}

#[test]
fn durable_ingest_emits_every_metric() {
    check_workload(Workload::DurableIngest);
}

#[test]
fn paper_sweep_emits_every_metric() {
    check_workload(Workload::PaperSweep);
}
