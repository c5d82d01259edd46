//! Serving benchmark for the dms workspace.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Runs samples of one workload, each in a child process of its own
//! (so peak RSS belongs to one sample), until the next sample would
//! overrun `--seconds`. Prints every metric with its unit, median and
//! spread, writes the full result (fingerprint, samples, spans) under
//! `.bench_out/`, and ends with one JSON line. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` alternates untraced and traced
//! samples and reports the per-layer metrics. Exits non-zero if any
//! correctness check fails. See `README.md` for the workloads and the
//! layer-to-metric map.

mod soak;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use dms_sim::JsonValue;

use trace::Span;
use workloads::{Kind, Sample, Size};

/// End-to-end metrics, reported with `--trace 0`: `(name, unit)`. The
/// verdict tail, the SLO share, the miss rate and the failure share are
/// printed beside them (see `SetResult::notes`).
const END_TO_END: [(&str, &str); 6] = [
    ("sessions_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
    ("verdict_p50_ms", "ms"),
    ("admit_share", "share"),
    ("mean_utility", "utility"),
];

/// Per-layer metrics, reported with `--trace 1`: `(name, unit)`. A
/// layer a workload does not run reports 0.
const PER_LAYER: [(&str, &str); 30] = [
    ("serve.workload.gen_s", "s"),
    ("serve.workload.rss_mib", "MiB"),
    ("serve.engine.offer_s", "s"),
    ("serve.engine.step_s", "s"),
    ("serve.engine.step_us_p50", "us"),
    ("serve.engine.step_us_tail", "us"),
    ("serve.engine.active_p50", "count"),
    ("serve.engine.ns_per_active", "ns"),
    ("cluster.dispatch_s", "s"),
    ("cluster.dispatch.offers", "count"),
    ("cluster.dispatch.routed_share", "share"),
    ("cluster.shards_s", "s"),
    ("cluster.shards.skew", "ratio"),
    ("cluster.shards.par_efficiency", "share"),
    ("cluster.tiers.generate_s", "s"),
    ("cluster.tiers.run_s", "s"),
    ("cluster.tiers.hit_ratio", "share"),
    ("cluster.tiers.origin_fetches", "count"),
    ("cluster.tiers.origin_rejected", "count"),
    ("net.codec.encode_ns", "ns"),
    ("net.codec.decode_ns", "ns"),
    ("net.driver.on_frame_s", "s"),
    ("net.socket_s", "s"),
    ("net.frames.to_server", "count"),
    ("net.frames.to_client", "count"),
    ("net.bytes.to_server", "B"),
    ("net.bytes.to_client", "B"),
    ("loadgen.late_ms_p99", "ms"),
    ("trace.overhead_share", "share"),
    ("trace.coverage_share", "share"),
];

/// Samples a run takes however long they are.
const MIN_SAMPLES: usize = 3;
/// Wall time after which no further sample starts, whatever
/// `--seconds` says: every run must end within three minutes.
const HARD_LIMIT_S: f64 = 140.0;

#[derive(Debug)]
struct Args {
    workload: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    /// Child mode: run one sample and print it as JSON.
    sample: Option<u64>,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = 1;
        let mut seconds = 10.0;
        let mut trace = false;
        let mut smoke = false;
        let mut sample = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    workload = Some(Kind::parse(name).ok_or(format!("unknown workload {name}"))?);
                }
                "--seed" => seed = value()?.parse().map_err(|_| "bad --seed")?,
                "--seconds" => seconds = value()?.parse().map_err(|_| "bad --seconds")?,
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    }
                }
                "--sample" => sample = Some(value()?.parse().map_err(|_| "bad --sample")?),
                "--smoke" => smoke = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
            smoke,
            sample,
        })
    }

    fn size(&self) -> Size {
        if self.smoke {
            Size::Smoke
        } else {
            Size::Full
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--smoke]",
                Kind::ALL.map(Kind::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    if let Some(run_id) = args.sample {
        let s = workloads::run_sample(args.workload, args.seed, args.size(), run_id, args.trace);
        let mut json = sample_to_json(&s);
        if let JsonValue::Object(fields) = &mut json {
            fields.push(("peak_rss_mib".into(), workloads::peak_rss_mib().into()));
        }
        println!("{}", json.render_compact());
        return ExitCode::SUCCESS;
    }
    run_set(&args)
}

// ---------------------------------------------------------------------
// Parent: spawn samples, aggregate, report.
// ---------------------------------------------------------------------

/// One child's result: the sample, its process's peak RSS, and
/// whether it was traced.
struct Child {
    sample: Sample,
    peak_rss_mib: f64,
    traced: bool,
}

fn spawn_sample(args: &Args, run_id: u64, traced: bool, threads: usize) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        args.workload.name(),
        "--seed",
        &args.seed.to_string(),
        "--sample",
        &run_id.to_string(),
        "--trace",
        if traced { "1" } else { "0" },
    ]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .env("DMS_THREADS", threads.to_string())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn sample: {e}"))?;
    if !out.status.success() {
        return Err(format!("sample {run_id} exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().unwrap_or("");
    let json = JsonValue::parse(line).map_err(|e| format!("sample {run_id} output: {e}"))?;
    Ok(Child {
        sample: sample_from_json(&json).ok_or(format!("sample {run_id} output: bad fields"))?,
        peak_rss_mib: num(&json, "peak_rss_mib"),
        traced,
    })
}

fn run_set(args: &Args) -> ExitCode {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let print = fingerprint(args, nproc);
    println!("# perfbench {} {print}", args.workload.name());

    let start = Instant::now();
    let cpu_before = cpu_times();
    let mut children: Vec<Child> = Vec::new();
    let mut errors: Vec<String> = Vec::new();
    let min_samples = if args.trace { 2 } else { MIN_SAMPLES };
    for run_id in 0.. {
        // A traced set alternates untraced and traced samples, so the
        // tracing overhead is measured on the same box at the same time.
        let traced = args.trace && run_id % 2 == 1;
        match spawn_sample(args, run_id, traced, nproc) {
            Ok(child) => children.push(child),
            Err(e) => errors.push(e),
        }
        let done = (run_id + 1) as f64;
        let elapsed = start.elapsed().as_secs_f64();
        let next = elapsed + elapsed / done;
        let enough = run_id + 1 >= min_samples as u64;
        if (enough && next > args.seconds) || next > HARD_LIMIT_S {
            break;
        }
    }
    for e in &errors {
        eprintln!("perfbench: {e}");
    }

    let set = SetResult::new(&children, errors.len());
    let metrics: Vec<(&str, &str, Stat)> = if args.trace {
        per_layer(&children)
    } else {
        end_to_end(&children)
    };

    let steal = match (cpu_before, cpu_times()) {
        (Some((t0, s0)), Some((t1, s1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => f64::NAN,
    };
    println!(
        "# samples={} untraced={} traced={} threads={} wall_s={:.3} host_steal_share={steal:.4}",
        children.len(),
        children.iter().filter(|c| !c.traced).count(),
        children.iter().filter(|c| c.traced).count(),
        children.first().map_or(0, |c| c.sample.threads),
        start.elapsed().as_secs_f64()
    );
    println!(
        "# {:<32} {:>16} {:>16} {:>16} {:>8}  unit",
        "metric", "median", "q1", "q3", "spread"
    );
    for (name, unit, s) in &metrics {
        println!(
            "  {name:<32} {:>16.6} {:>16.6} {:>16.6} {:>8.4}  {unit}",
            s.median, s.q1, s.q3, s.spread
        );
    }
    for line in set.notes(&children) {
        println!("# {line}");
    }
    if args.trace {
        println!(
            "# {:<36} {:>8} {:>14} {:>14}",
            "span (traced samples, summed)", "count", "total_s", "self_s"
        );
        for (name, (count, total, own)) in span_table(&children) {
            println!("  {name:<36} {count:>8} {total:>14.6} {own:>14.6}");
        }
    }
    for (check, samples) in &set.failed_checks {
        println!("# FAILED check: {check} ({samples} samples)");
    }
    if let Err(e) = write_results(args, &print, &children, &metrics, &set) {
        eprintln!("perfbench: writing results: {e}");
    }

    let result = JsonValue::Object(vec![
        ("correct".into(), set.correct.into()),
        ("attempted".into(), JsonValue::Uint(set.attempted)),
        ("failed".into(), JsonValue::Uint(set.failed)),
        (
            "metrics".into(),
            JsonValue::Object(
                metrics
                    .iter()
                    .map(|(name, unit, s)| {
                        (
                            (*name).to_string(),
                            JsonValue::Object(vec![
                                ("value".into(), JsonValue::Float(s.median)),
                                ("unit".into(), (*unit).into()),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", result.render_compact());
    if set.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Median and quartiles of one metric over a set's samples.
#[derive(Debug, Clone, Copy)]
struct Stat {
    median: f64,
    q1: f64,
    q3: f64,
    spread: f64,
    n: usize,
}

impl Stat {
    fn of(values: &[f64]) -> Stat {
        if values.is_empty() {
            return Stat::one(0.0);
        }
        let (q1, q3) = stats::quartiles(values);
        Stat {
            median: stats::median(values),
            q1,
            q3,
            spread: stats::spread(values),
            n: values.len(),
        }
    }

    /// A value pooled over the set (a percentile of every sample's
    /// observations together) rather than a median of per-sample values.
    fn one(value: f64) -> Stat {
        Stat {
            median: value,
            q1: value,
            q3: value,
            spread: 0.0,
            n: 1,
        }
    }
}

/// Correctness and failure accounting of a set.
struct SetResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `(check, samples it failed in)`.
    failed_checks: Vec<(String, usize)>,
}

impl SetResult {
    fn new(children: &[Child], crashed: usize) -> SetResult {
        // The digest most samples agree on is the reference; a sample
        // that disagrees computed a different answer.
        let mut votes: BTreeMap<u64, usize> = BTreeMap::new();
        for c in children {
            *votes.entry(c.sample.digest).or_default() += 1;
        }
        let reference = votes.iter().max_by_key(|(_, &n)| n).map(|(&d, _)| d);
        let mut failed_checks: BTreeMap<String, usize> = BTreeMap::new();
        let mut attempted = crashed as u64;
        let mut failed = crashed as u64;
        for c in children {
            let s = &c.sample;
            let mut wrong = false;
            for (name, ok) in &s.checks {
                if !ok {
                    *failed_checks.entry(name.clone()).or_default() += 1;
                    wrong = true;
                }
            }
            if Some(s.digest) != reference {
                *failed_checks
                    .entry("report digest equal across the set".into())
                    .or_default() += 1;
                wrong = true;
            }
            attempted += s.offered.max(1);
            failed += if wrong {
                s.offered.max(1)
            } else {
                s.offered.saturating_sub(s.answered)
            };
        }
        if crashed > 0 {
            failed_checks.insert("sample process ran to completion".into(), crashed);
        }
        SetResult {
            correct: failed == 0 && failed_checks.is_empty() && !children.is_empty(),
            attempted: attempted.max(1),
            failed,
            failed_checks: failed_checks.into_iter().collect(),
        }
    }

    /// Figures printed beside the metrics: the failure share, the miss
    /// rate, the sample counts behind percentiles, the verdict tail and
    /// (paced workloads) the SLO share.
    fn notes(&self, children: &[Child]) -> Vec<String> {
        let untraced: Vec<&Sample> = children
            .iter()
            .filter(|c| !c.traced)
            .map(|c| &c.sample)
            .collect();
        let offered: u64 = untraced.iter().map(|s| s.offered).sum();
        let in_slo: u64 = untraced.iter().map(|s| s.in_slo).sum();
        let misses: u64 = untraced.iter().map(|s| s.deadline_misses).sum();
        let slots: u64 = untraced.iter().map(|s| s.session_slots).sum();
        let verdicts: u64 = untraced
            .iter()
            .flat_map(|s| s.latencies.iter().map(|&(_, c)| c))
            .sum();
        let mut notes = vec![
            format!(
                "failed_share={:.6} (failed {} of {} attempted)",
                self.failed as f64 / self.attempted as f64,
                self.failed,
                self.attempted
            ),
            format!(
                "deadline_miss_rate={:.6} ({misses} of {slots} session-slots)",
                misses as f64 / slots.max(1) as f64
            ),
            format!(
                "verdict latencies: {verdicts} over {} samples; each sample's tail is p{} (the highest with >= {} beyond it, at most p99)",
                untraced.len(),
                stats::tail_percentile(verdicts / untraced.len().max(1) as u64)
                    .map_or(50.0, |p| p.min(99.0)),
                stats::TAIL_MIN_BEYOND
            ),
        ];
        // Not gated: host stalls hit a varying share of samples and move
        // the median tail several-fold between runs; the low decile of
        // the per-sample tails is the stack's own.
        let p99: Vec<f64> = untraced.iter().map(|s| verdict_ms(s, 99.0)).collect();
        let tail = Stat::of(&p99);
        notes.push(format!(
            "verdict_p99_ms low_decile={:.6} median={:.6} q1={:.6} q3={:.6} over {} samples (per-sample tails)",
            stats::percentile(&p99, 10.0),
            tail.median,
            tail.q1,
            tail.q3,
            tail.n
        ));
        if untraced.iter().any(|s| !s.lateness_s.is_empty()) {
            notes.push(format!(
                "verdict_in_slo_share={:.6} (limit {} ms; {in_slo} of {offered} offers, a missing verdict is a miss)",
                in_slo as f64 / offered.max(1) as f64,
                soak::LATENCY_LIMIT_S * 1e3
            ));
        }
        notes
    }
}

fn end_to_end(children: &[Child]) -> Vec<(&'static str, &'static str, Stat)> {
    let untraced: Vec<&Child> = children.iter().filter(|c| !c.traced).collect();
    let per =
        |f: &dyn Fn(&Child) -> f64| Stat::of(&untraced.iter().map(|c| f(c)).collect::<Vec<_>>());
    END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let stat = match name {
                "sessions_per_s" => per(&|c| c.sample.offered as f64 / c.sample.run_s),
                "peak_rss_mib" => per(&|c| c.peak_rss_mib),
                "setup_s" => per(&|c| c.sample.setup_s),
                // Per sample, then the median over samples.
                "verdict_p50_ms" => per(&|c| verdict_ms(&c.sample, 50.0)),
                "admit_share" => {
                    per(&|c| c.sample.admitted as f64 / c.sample.offered.max(1) as f64)
                }
                "mean_utility" => per(&|c| c.sample.mean_utility),
                _ => unreachable!("every end-to-end metric has a rule"),
            };
            (name, unit, stat)
        })
        .collect()
}

/// Verdict latency percentile `p` of one sample, ms, lowered to the
/// highest percentile its observation count supports.
fn verdict_ms(s: &Sample, p: f64) -> f64 {
    let verdicts: u64 = s.latencies.iter().map(|&(_, n)| n).sum();
    let p = p.min(stats::tail_percentile(verdicts).unwrap_or(50.0));
    stats::weighted_percentile(&s.latencies, p) * 1e3
}

fn per_layer(children: &[Child]) -> Vec<(&'static str, &'static str, Stat)> {
    let traced: Vec<&Sample> = children
        .iter()
        .filter(|c| c.traced)
        .map(|c| &c.sample)
        .collect();
    let untraced_run_s = stats::median(
        &children
            .iter()
            .filter(|c| !c.traced)
            .map(|c| c.sample.run_s)
            .collect::<Vec<_>>(),
    );
    let counter =
        |s: &Sample, name: &str| s.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v);
    let lateness_ms: Vec<f64> = children
        .iter()
        .flat_map(|c| c.sample.lateness_s.iter().map(|l| l * 1e3))
        .collect();
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let stat = match name {
                "loadgen.late_ms_p99" => Stat::one(if lateness_ms.is_empty() {
                    0.0
                } else {
                    let p = stats::tail_percentile(lateness_ms.len() as u64)
                        .map_or(50.0, |p| p.min(99.0));
                    stats::percentile(&lateness_ms, p)
                }),
                "trace.overhead_share" => Stat::of(
                    &traced
                        .iter()
                        .map(|s| s.run_s / untraced_run_s - 1.0)
                        .collect::<Vec<_>>(),
                ),
                _ => Stat::of(
                    &traced
                        .iter()
                        .filter_map(|s| counter(s, name))
                        .collect::<Vec<_>>(),
                ),
            };
            (name, unit, stat)
        })
        .collect()
}

/// Per span name over every traced sample: calls, total wall time and
/// self time (total minus what its child spans cover).
fn span_table(children: &[Child]) -> BTreeMap<String, (u64, f64, f64)> {
    let mut table: BTreeMap<String, (u64, f64, f64)> = BTreeMap::new();
    for c in children.iter().filter(|c| c.traced) {
        let spans = &c.sample.spans;
        for (i, s) in spans.iter().enumerate() {
            let e = table.entry(s.name.clone()).or_default();
            e.0 += 1;
            e.1 += s.seconds();
            e.2 += trace::self_s(spans, i);
        }
    }
    table
}

// ---------------------------------------------------------------------
// Fingerprint and result file.
// ---------------------------------------------------------------------

fn fingerprint(args: &Args, nproc: usize) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = Command::new("rustc")
        .arg("--version")
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| "unknown".into());
    format!(
        "seed={} seconds={} trace={} nproc={nproc} DMS_THREADS={nproc} cpu=\"{cpu}\" rustc=\"{rustc}\" commit={}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_commit()
    )
}

/// Total and stolen CPU time of the box so far, in clock ticks (the
/// `cpu` line of `/proc/stat`). Steal is time the hypervisor ran
/// something else while a vCPU wanted to run: the host noise behind
/// a wide spread.
fn cpu_times() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((fields.iter().sum(), *fields.get(7)?))
}

/// The commit of a git checkout in the working directory, read from
/// `.git` without running git (which would search parent directories);
/// `unknown` elsewhere.
fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn write_results(
    args: &Args,
    print: &str,
    children: &[Child],
    metrics: &[(&str, &str, Stat)],
    set: &SetResult,
) -> std::io::Result<()> {
    let metric_json = metrics
        .iter()
        .map(|(name, unit, s)| {
            (
                (*name).to_string(),
                JsonValue::Object(vec![
                    ("unit".into(), (*unit).into()),
                    ("median".into(), s.median.into()),
                    ("q1".into(), s.q1.into()),
                    ("q3".into(), s.q3.into()),
                    ("spread".into(), s.spread.into()),
                    ("samples".into(), JsonValue::Uint(s.n as u64)),
                ]),
            )
        })
        .collect();
    let samples = children
        .iter()
        .map(|c| {
            let mut j = sample_to_json(&c.sample);
            if let JsonValue::Object(fields) = &mut j {
                fields.retain(|(k, _)| k != "latencies");
                fields.push(("verdict_p50_ms".into(), verdict_ms(&c.sample, 50.0).into()));
                fields.push(("verdict_p99_ms".into(), verdict_ms(&c.sample, 99.0).into()));
                fields.push(("peak_rss_mib".into(), c.peak_rss_mib.into()));
                fields.push(("traced".into(), c.traced.into()));
            }
            j
        })
        .collect();
    let doc = JsonValue::Object(vec![
        ("workload".into(), args.workload.name().into()),
        ("fingerprint".into(), print.into()),
        ("correct".into(), set.correct.into()),
        ("metrics".into(), JsonValue::Object(metric_json)),
        ("samples".into(), JsonValue::Array(samples)),
    ]);
    std::fs::create_dir_all(".bench_out")?;
    let path = format!(
        ".bench_out/{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    std::fs::write(path, doc.render())
}

// ---------------------------------------------------------------------
// Child → parent wire format.
// ---------------------------------------------------------------------

fn sample_to_json(s: &Sample) -> JsonValue {
    let pairs = |v: &[(String, f64)]| {
        JsonValue::Array(
            v.iter()
                .map(|(k, x)| JsonValue::Array(vec![k.as_str().into(), (*x).into()]))
                .collect(),
        )
    };
    JsonValue::Object(vec![
        ("setup_s".into(), s.setup_s.into()),
        ("run_s".into(), s.run_s.into()),
        ("offered".into(), JsonValue::Uint(s.offered)),
        ("answered".into(), JsonValue::Uint(s.answered)),
        ("admitted".into(), JsonValue::Uint(s.admitted)),
        ("deadline_misses".into(), JsonValue::Uint(s.deadline_misses)),
        ("session_slots".into(), JsonValue::Uint(s.session_slots)),
        ("mean_utility".into(), s.mean_utility.into()),
        ("digest".into(), format!("{:016x}", s.digest).into()),
        ("threads".into(), JsonValue::Uint(s.threads as u64)),
        ("in_slo".into(), JsonValue::Uint(s.in_slo)),
        (
            "checks".into(),
            JsonValue::Array(
                s.checks
                    .iter()
                    .map(|(k, ok)| JsonValue::Array(vec![k.as_str().into(), (*ok).into()]))
                    .collect(),
            ),
        ),
        (
            "latencies".into(),
            JsonValue::Array(
                s.latencies
                    .iter()
                    .map(|&(x, n)| JsonValue::Array(vec![x.into(), JsonValue::Uint(n)]))
                    .collect(),
            ),
        ),
        (
            "lateness_s".into(),
            JsonValue::Array(s.lateness_s.iter().map(|&x| x.into()).collect()),
        ),
        ("counters".into(), pairs(&s.counters)),
        (
            "spans".into(),
            JsonValue::Array(
                s.spans
                    .iter()
                    .map(|sp| {
                        JsonValue::Array(vec![
                            sp.name.as_str().into(),
                            JsonValue::Uint(sp.start_ns),
                            JsonValue::Uint(sp.end_ns),
                            sp.parent
                                .map_or(JsonValue::Null, |p| JsonValue::Uint(p as u64)),
                            JsonValue::Uint(sp.run),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn num(j: &JsonValue, key: &str) -> f64 {
    j.get(key).and_then(JsonValue::as_f64).unwrap_or(f64::NAN)
}

fn sample_from_json(j: &JsonValue) -> Option<Sample> {
    let uint = |key: &str| j.get(key).and_then(JsonValue::as_f64).map(|x| x as u64);
    let items = |key: &str| j.get(key).and_then(JsonValue::as_array).unwrap_or(&[]);
    let named = |item: &JsonValue| -> Option<(String, JsonValue)> {
        let a = item.as_array()?;
        Some((a.first()?.as_str()?.to_string(), a.get(1)?.clone()))
    };
    Some(Sample {
        setup_s: num(j, "setup_s"),
        run_s: num(j, "run_s"),
        offered: uint("offered")?,
        answered: uint("answered")?,
        admitted: uint("admitted")?,
        deadline_misses: uint("deadline_misses")?,
        session_slots: uint("session_slots")?,
        mean_utility: num(j, "mean_utility"),
        digest: u64::from_str_radix(j.get("digest")?.as_str()?, 16).ok()?,
        threads: uint("threads")? as usize,
        in_slo: uint("in_slo")?,
        checks: items("checks")
            .iter()
            .filter_map(named)
            .map(|(k, v)| (k, matches!(v, JsonValue::Bool(true))))
            .collect(),
        latencies: items("latencies")
            .iter()
            .filter_map(|p| {
                let a = p.as_array()?;
                Some((a.first()?.as_f64()?, a.get(1)?.as_f64()? as u64))
            })
            .collect(),
        lateness_s: items("lateness_s")
            .iter()
            .filter_map(JsonValue::as_f64)
            .collect(),
        counters: items("counters")
            .iter()
            .filter_map(named)
            .filter_map(|(k, v)| Some((k, v.as_f64()?)))
            .collect(),
        spans: items("spans")
            .iter()
            .filter_map(|p| {
                let a = p.as_array()?;
                Some(Span {
                    name: a.first()?.as_str()?.to_string(),
                    start_ns: a.get(1)?.as_f64()? as u64,
                    end_ns: a.get(2)?.as_f64()? as u64,
                    parent: a.get(3)?.as_f64().map(|p| p as usize),
                    run: a.get(4)?.as_f64()? as u64,
                })
            })
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn listed(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(JsonValue::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(JsonValue::as_str).expect(k).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    /// The metrics the benchmark prints are exactly the ones
    /// `BENCHMARK.json` declares, with the same units.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = JsonValue::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("valid JSON");
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(JsonValue::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(JsonValue::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, Kind::ALL.map(|k| k.name().to_string()).to_vec());
    }

    #[test]
    fn sample_survives_the_process_boundary() {
        let mut s = Sample {
            setup_s: 0.25,
            run_s: 1.5,
            offered: 10,
            answered: 9,
            admitted: 7,
            deadline_misses: 3,
            session_slots: 100,
            mean_utility: 0.875,
            digest: u64::MAX - 5,
            threads: 2,
            in_slo: 8,
            latencies: vec![(0.001, 4), (0.002, 5)],
            lateness_s: vec![1e-6, 2e-6],
            ..Sample::default()
        };
        s.check("ledger closes", true);
        s.count("net.frames.to_server", 12.0);
        s.spans.push(Span {
            name: "run".into(),
            start_ns: 5,
            end_ns: 9,
            parent: None,
            run: 3,
        });
        let text = sample_to_json(&s).render_compact();
        let back = sample_from_json(&JsonValue::parse(&text).expect("parses")).expect("fields");
        assert_eq!(sample_to_json(&back).render_compact(), text);
    }

    #[test]
    fn set_result_counts_failed_checks_and_digest_outliers() {
        let child = |digest, ok| Child {
            sample: Sample {
                offered: 10,
                answered: 10,
                digest,
                checks: vec![("ledger closes".into(), ok)],
                ..Sample::default()
            },
            peak_rss_mib: 1.0,
            traced: false,
        };
        let good = SetResult::new(&[child(1, true), child(1, true)], 0);
        assert!(good.correct);
        assert_eq!((good.attempted, good.failed), (20, 0));
        let bad = SetResult::new(&[child(1, true), child(1, false), child(2, true)], 1);
        assert!(!bad.correct);
        // A crashed sample, a failed check and a digest outlier.
        assert_eq!((bad.attempted, bad.failed), (31, 21));
    }
}
