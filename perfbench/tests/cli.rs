//! The command-line contract: one run of a smoke-size workload ends
//! with one JSON line carrying `correct`, `attempted`, `failed` and
//! every metric of the requested kind with its unit.

use std::process::Command;

use dms_sim::JsonValue;

fn run(workload: &str, trace: &str) -> (bool, JsonValue) {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("perfbench-cli-{workload}-{trace}"));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "1"])
        .args(["--trace", trace, "--smoke"])
        .current_dir(&dir)
        .output()
        .expect("runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("output");
    let _ = std::fs::remove_dir_all(&dir);
    (
        out.status.success(),
        JsonValue::parse(last).expect("last line is JSON"),
    )
}

fn metric_names(result: &JsonValue) -> Vec<String> {
    match result.get("metrics") {
        Some(JsonValue::Object(fields)) => fields
            .iter()
            .map(|(name, m)| {
                assert!(
                    m.get("value").and_then(JsonValue::as_f64).is_some(),
                    "{name}"
                );
                assert!(
                    m.get("unit").and_then(JsonValue::as_str).is_some(),
                    "{name}"
                );
                name.clone()
            })
            .collect(),
        _ => panic!("metrics object"),
    }
}

#[test]
fn untraced_run_reports_end_to_end_metrics() {
    let (ok, result) = run("socket-soak", "0");
    assert!(ok);
    assert!(matches!(result.get("correct"), Some(JsonValue::Bool(true))));
    assert!(
        result
            .get("attempted")
            .and_then(JsonValue::as_f64)
            .expect("attempted")
            >= 1.0
    );
    assert_eq!(result.get("failed").and_then(JsonValue::as_f64), Some(0.0));
    let names = metric_names(&result);
    assert!(
        names.contains(&"setup_s".to_string()) && names.contains(&"verdict_p50_ms".to_string())
    );
    assert!(!names.iter().any(|n| n.starts_with("serve.")));
}

#[test]
fn traced_run_reports_per_layer_metrics() {
    let (ok, result) = run("cluster8-1m", "1");
    assert!(ok);
    let names = metric_names(&result);
    assert!(names.contains(&"cluster.dispatch_s".to_string()));
    assert!(names.contains(&"trace.overhead_share".to_string()));
    assert!(!names.contains(&"setup_s".to_string()));
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "no-such-workload"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
