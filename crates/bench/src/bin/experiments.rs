//! Prints every reproduced experiment as a paper-vs-measured table.
//!
//! Run with: `cargo run --release -p dms-bench --bin experiments`
//!
//! Optional arguments are experiment ids (case-insensitive): pass
//! `E12` to build and print only that experiment — CI uses this to
//! diff a single experiment between `DMS_THREADS=1` and parallel runs.
//! Selected experiments print in suite order; an unknown id exits with
//! status 2.
//!
//! `--metrics-dir <dir>` additionally streams one chunked JSONL
//! run-log per printed experiment to `<dir>/<id>/` — `meta.json`, the
//! records as `chunk-*.jsonl`, `metrics.json`, and a `MANIFEST.json`
//! clean-close marker, written through the bounded-buffer
//! [`dms_sim::RunLogWriter`] rather than one monolithic in-memory
//! JSON string. The run-log directories are deterministic and
//! byte-identical at any `DMS_THREADS`, which CI enforces with a
//! recursive directory diff; `dms-logq` slices and summarises them.
//!
//! The output of this binary is the source of `EXPERIMENTS.md`.

use std::path::PathBuf;

fn main() {
    let mut filter: Vec<String> = Vec::new();
    let mut metrics_dir: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--metrics-dir" {
            let dir = args.next().unwrap_or_else(|| {
                eprintln!("--metrics-dir needs a directory argument");
                std::process::exit(2);
            });
            metrics_dir = Some(PathBuf::from(dir));
        } else {
            filter.push(arg);
        }
    }
    let mut picked = Vec::new();
    for id in &filter {
        let Some(index) = dms_bench::experiment_index(id) else {
            let known: Vec<&str> = dms_bench::EXPERIMENTS.iter().map(|(id, _)| *id).collect();
            eprintln!(
                "unknown experiment id {id:?}; known ids: {}",
                known.join(" ")
            );
            std::process::exit(2);
        };
        picked.push(index);
    }
    if picked.is_empty() {
        picked = (0..dms_bench::EXPERIMENTS.len()).collect();
    }
    picked.sort_unstable();
    picked.dedup();
    if let Some(dir) = &metrics_dir {
        std::fs::create_dir_all(dir).expect("create metrics dir");
    }
    println!("# dms experiment reproductions (seeded, deterministic)\n");
    for exp in dms_bench::run_experiments(&picked) {
        println!("## {} — {}\n", exp.id, exp.title);
        println!("| metric | paper | measured |");
        println!("|--------|-------|----------|");
        for row in &exp.rows {
            println!("| {} | {} | {} |", row.metric, row.paper, row.measured);
        }
        println!();
        if let Some(dir) = &metrics_dir {
            let log = dms_bench::run_log_for(&exp);
            dms_sim::stream_run_log(&log, dir.join(exp.id)).expect("stream run-log");
        }
    }
}
