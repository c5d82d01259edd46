//! The four workloads and one sample of each.
//!
//! Every input is generated here from the benchmark's `--seed`; the
//! libraries only see the generated workloads and configs. One sample
//! is: set-up (config plus input generation, repeated
//! [`SETUP_REPS`] times and reported as the median), the timed run
//! phase, then the correctness gate. In a traced sample the calls into
//! each layer are wrapped in spans, and probes that re-run a layer on
//! its own (one engine per shard, the socket frames without a socket)
//! hang under a separate `probe` root so they never count towards the
//! run phase.

use std::time::Instant;

use dms_cluster::{
    BalancerPolicy, ClassMix, ClusterConfig, ClusterSim, ContentModel, LastHopEnergy, RegionConfig,
    TieredConfig, TieredSim,
};
use dms_serve::{
    rate_for_load, AdmissionPolicy, ArrivalProcess, CapacityModel, DegradeConfig, RecoveryConfig,
    ServeMetricsSink, ServerConfig, ServerEngine, ServerReport, SessionTemplate, Workload,
};
use dms_sim::{Metric, MetricsRegistry};

use crate::soak;
use crate::stats;
use crate::trace::{Span, SpanId, Trace};

/// Set-up repetitions per sample; the sample reports their median.
pub const SETUP_REPS: usize = 3;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// E15 server arm: 10^6 sessions through one `ServerEngine`.
    Server1m,
    /// The same trace through an 8-shard admit-all JSQ `ClusterSim`.
    Cluster8,
    /// E16 tiered arm at load 1.2, scaled ×100 (fleets) and ×10 (caches).
    TieredGeo,
    /// E12 controlled-arm soak over an in-process Unix socketpair.
    SocketSoak,
}

impl Kind {
    /// Every workload, in report order.
    pub const ALL: [Kind; 4] = [
        Kind::Server1m,
        Kind::Cluster8,
        Kind::TieredGeo,
        Kind::SocketSoak,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::Server1m => "server-1m",
            Kind::Cluster8 => "cluster8-1m",
            Kind::TieredGeo => "tiered-geo",
            Kind::SocketSoak => "socket-soak",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Input size: the benchmark's, or a tiny one for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark measures.
    Full,
    /// A few thousand sessions per workload, for fast tests.
    Smoke,
}

impl Size {
    fn pick<T>(self, full: T, smoke: T) -> T {
        match self {
            Size::Full => full,
            Size::Smoke => smoke,
        }
    }
}

/// What one sample measured. Times are wall seconds.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    /// Median set-up time (config plus input generation).
    pub setup_s: f64,
    /// Wall time of the run phase.
    pub run_s: f64,
    /// Sessions offered in the run phase.
    pub offered: u64,
    /// Offers that got a verdict.
    pub answered: u64,
    /// Offers admitted.
    pub admitted: u64,
    /// Deadline-miss session-slots.
    pub deadline_misses: u64,
    /// Active session-slots served.
    pub session_slots: u64,
    /// Mean delivered utility per session-slot.
    pub mean_utility: f64,
    /// Digest of the deterministic report; equal across a set's runs.
    pub digest: u64,
    /// Worker threads the run phase may use.
    pub threads: usize,
    /// Correctness gate: `(check, passed)`.
    pub checks: Vec<(String, bool)>,
    /// Verdict latencies from the due time: `(seconds, offers)`.
    pub latencies: Vec<(f64, u64)>,
    /// Offers whose verdict arrived within the latency limit.
    pub in_slo: u64,
    /// Generator lateness per paced slot, seconds.
    pub lateness_s: Vec<f64>,
    /// Per-layer counts and derived values of a traced sample.
    pub counters: Vec<(String, f64)>,
    /// Spans of a traced sample.
    pub spans: Vec<Span>,
}

impl Sample {
    pub(crate) fn check(&mut self, name: &str, ok: bool) {
        self.checks.push((name.to_string(), ok));
    }

    pub(crate) fn count(&mut self, name: &str, value: f64) {
        self.counters.push((name.to_string(), value));
    }

    /// Offers admitted, rejected, missed, delivered bits and utility
    /// bits, hashed (FNV-1a) into one word.
    pub(crate) fn digest_of(words: &[u64]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for w in words {
            for b in w.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }
}

/// Runs one sample of `kind`.
#[must_use]
pub fn run_sample(kind: Kind, seed: u64, size: Size, run_id: u64, traced: bool) -> Sample {
    let mut trace = Trace::new(run_id, traced);
    let mut sample = match kind {
        Kind::Server1m => server_1m(seed, size, &mut trace),
        Kind::Cluster8 => cluster8(seed, size, &mut trace),
        Kind::TieredGeo => tiered_geo(seed, size, &mut trace),
        Kind::SocketSoak => soak::socket_soak(seed, size, &mut trace),
    };
    let spans = trace.into_spans();
    if traced {
        span_counters(&mut sample, &spans);
    }
    sample.spans = spans;
    sample
}

/// Per-layer times read off the spans every workload shares: the
/// set-up generators (median over the set-up repetitions) and the
/// run-phase calls (summed).
fn span_counters(sample: &mut Sample, spans: &[Span]) {
    use crate::trace::{children_s, durations_s, total_s};
    let median_of = |name: &str| {
        let d = durations_s(spans, name);
        if d.is_empty() {
            0.0
        } else {
            stats::median(&d)
        }
    };
    sample.count("serve.workload.gen_s", median_of("serve.workload.generate"));
    sample.count(
        "cluster.tiers.generate_s",
        median_of("cluster.tiers.generate"),
    );
    sample.count("cluster.dispatch_s", total_s(spans, "cluster.dispatch"));
    sample.count("cluster.shards_s", total_s(spans, "cluster.shards"));
    sample.count("cluster.tiers.run_s", total_s(spans, "cluster.tiers.run"));
    // How much of the run phase the top-level layer calls account for,
    // within the same sample: host noise between samples is larger
    // than the 5% this is meant to resolve.
    sample.count(
        "trace.coverage_share",
        children_s(spans, "run") / total_s(spans, "run"),
    );
}

/// Runs `make` [`SETUP_REPS`] times; returns the median wall time and
/// the last result.
pub(crate) fn timed_setup<T>(
    trace: &mut Trace,
    name: &str,
    mut make: impl FnMut(&mut Trace, SpanId) -> T,
) -> (f64, T) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let id = trace.begin(name, None);
        let start = Instant::now();
        last = Some(make(trace, id));
        times.push(start.elapsed().as_secs_f64());
        trace.end(id);
    }
    (stats::median(&times), last.expect("SETUP_REPS > 0"))
}

/// Peak resident set of this process so far, MiB (`VmHWM`; 0 where
/// procfs is absent). Monotone over the process, which is why every
/// sample runs in a process of its own.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

// ---------------------------------------------------------------------
// server-1m and cluster8-1m: the E15 mega-scale trace.
// ---------------------------------------------------------------------

/// E15 horizon, slots.
const E15_SLOTS: u64 = 500;
/// E15 mean session duration, slots.
const E15_DURATION_SLOTS: f64 = 125.0;
/// E15 offered load, ×link capacity.
const E15_LOAD: f64 = 1.0;
/// Shards of the cluster arm.
const E15_SHARDS: usize = 8;

fn e15_template() -> SessionTemplate {
    let mut template = SessionTemplate::streaming_default().expect("preset valid");
    template.mean_duration_slots = E15_DURATION_SLOTS;
    template
}

/// Link bits that make `sessions` over the horizon exactly
/// [`E15_LOAD`]× the link.
fn e15_link_bits(sessions: u64, template: &SessionTemplate) -> u64 {
    let concurrent = sessions as f64 * E15_DURATION_SLOTS / E15_SLOTS as f64 / E15_LOAD;
    concurrent.round() as u64 * template.full_bits()
}

fn e15_server(link_bits: u64, policy: AdmissionPolicy) -> ServerConfig {
    ServerConfig {
        capacity: CapacityModel {
            link_bits_per_slot: link_bits,
            queue_frames: 64,
            occupancy_bound: 8.0,
        },
        policy,
        degrade: None,
        buffer_slots: 4,
        miss_slots: 2,
    }
}

/// The E15 trace: Poisson arrivals at load 1.0 over 500 slots.
fn e15_setup(sessions: u64, seed: u64, trace: &mut Trace, parent: SpanId) -> (u64, Workload) {
    let template = e15_template();
    let link_bits = e15_link_bits(sessions, &template);
    let rate = rate_for_load(E15_LOAD, &template, link_bits);
    let workload = trace.time("serve.workload.generate", parent, || {
        Workload::generate(ArrivalProcess::Poisson { rate }, template, E15_SLOTS, seed)
            .expect("valid E15 workload")
    });
    (link_bits, workload)
}

/// One engine run with a span per call. `lockstep: false` offers the
/// whole trace and then steps, exactly as `ServerSim::run` does;
/// `lockstep: true` offers each slot's sessions just before stepping
/// it, the order `dms-net`'s driver feeds the engine in.
pub(crate) struct EngineRun {
    pub report: ServerReport,
    /// Wall seconds from `clock` to the end of each slot step, with
    /// the verdicts that step decided.
    pub step_done: Vec<(f64, u64)>,
    /// Bounded per-slot sink (traced runs only).
    pub sink: Option<ServeMetricsSink>,
}

pub(crate) fn run_engine(
    config: &ServerConfig,
    workload: &Workload,
    trace: &mut Trace,
    parent: SpanId,
    clock: Instant,
    lockstep: bool,
) -> EngineRun {
    let mut sink = trace.enabled().then(ServeMetricsSink::bounded);
    let mut engine = trace.time("serve.engine.new", parent, || {
        ServerEngine::new(config, workload.template, workload.slots).expect("valid engine config")
    });
    engine.reserve(workload.sessions.len());
    let mut pending = workload.sessions.as_slice();
    let mut step_done = Vec::with_capacity(workload.slots as usize);
    while engine.slot() < engine.horizon() {
        // `Workload::generate` emits sessions in arrival-slot order.
        let due = if lockstep {
            pending.partition_point(|r| r.arrival_slot <= engine.slot())
        } else {
            pending.len()
        };
        if due > 0 {
            trace.time("serve.engine.offer", parent, || {
                for &req in &pending[..due] {
                    engine.offer(req);
                }
            });
            pending = &pending[due..];
        }
        let decided = engine.admitted() + engine.rejected();
        let id = trace.begin("serve.engine.step", parent);
        engine.step_slot(sink.as_mut());
        trace.end(id);
        let now = clock.elapsed().as_secs_f64();
        step_done.push((now, engine.admitted() + engine.rejected() - decided));
    }
    let report = trace
        .time("serve.engine.finish", parent, || engine.finish())
        .base;
    EngineRun {
        report,
        step_done,
        sink,
    }
}

/// The report fields the digest covers.
pub(crate) fn report_digest(r: &ServerReport) -> u64 {
    Sample::digest_of(&[
        r.admitted,
        r.rejected,
        r.deadline_misses,
        r.delivered_bits,
        r.utility_sum.to_bits(),
    ])
}

/// Per-layer engine numbers from the `serve.engine.*` spans of a
/// traced sample and the sinks of the engines they timed.
pub(crate) fn engine_counters(
    sample: &mut Sample,
    spans: &[Span],
    sinks: &[ServeMetricsSink],
    session_slots: u64,
) {
    let steps = crate::trace::durations_s(spans, "serve.engine.step");
    let step_s: f64 = steps.iter().sum();
    let us: Vec<f64> = steps.iter().map(|s| s * 1e6).collect();
    let tail = stats::tail_percentile(us.len() as u64).unwrap_or(50.0);
    sample.count(
        "serve.engine.offer_s",
        crate::trace::total_s(spans, "serve.engine.offer"),
    );
    sample.count("serve.engine.step_s", step_s);
    sample.count("serve.engine.step_us_p50", stats::percentile(&us, 50.0));
    sample.count("serve.engine.step_us_tail", stats::percentile(&us, tail));
    sample.count("serve.engine.step_tail_pct", tail);
    sample.count("serve.engine.steps", us.len() as f64);
    sample.count(
        "serve.engine.ns_per_active",
        step_s * 1e9 / session_slots.max(1) as f64,
    );
    let mut registry = MetricsRegistry::new();
    for sink in sinks {
        sink.export(&mut registry, "engine");
    }
    if let Some(Metric::Sketch(active)) = registry.get("engine/active") {
        sample.count(
            "serve.engine.active_p50",
            active.quantile(0.5).unwrap_or(0.0),
        );
    }
}

fn server_1m(seed: u64, size: Size, trace: &mut Trace) -> Sample {
    let sessions = size.pick(1_000_000, 10_000);
    let (setup_s, (link_bits, workload)) =
        timed_setup(trace, "setup", |t, id| e15_setup(sessions, seed, t, id));
    let rss_after_setup = peak_rss_mib();
    let config = e15_server(link_bits, AdmissionPolicy::QueuePredictor);

    let run = trace.begin("run", None);
    let clock = Instant::now();
    let engine = run_engine(&config, &workload, trace, run, clock, false);
    let run_s = clock.elapsed().as_secs_f64();
    trace.end(run);

    let r = engine.report;
    let mut sample = Sample {
        setup_s,
        run_s,
        offered: workload.sessions.len() as u64,
        answered: r.admitted + r.rejected,
        admitted: r.admitted,
        deadline_misses: r.deadline_misses,
        session_slots: r.session_slots,
        mean_utility: r.mean_utility(),
        digest: report_digest(&r),
        threads: 1,
        latencies: engine.step_done.clone(),
        ..Sample::default()
    };
    sample.check(
        "admitted + rejected == offered",
        r.admitted + r.rejected == r.offered && r.offered == sample.offered,
    );
    sample.check("every slot stepped", r.slots == E15_SLOTS);
    if trace.enabled() {
        sample.count("serve.workload.rss_mib", rss_after_setup);
        let sinks: Vec<ServeMetricsSink> = engine.sink.into_iter().collect();
        engine_counters(&mut sample, trace.spans(), &sinks, r.session_slots);
    }
    sample
}

fn cluster8(seed: u64, size: Size, trace: &mut Trace) -> Sample {
    let sessions = size.pick(1_000_000, 10_000);
    let (setup_s, (sim, workload)) = timed_setup(trace, "setup", |t, id| {
        let (link_bits, workload) = e15_setup(sessions, seed, t, id);
        let shard = e15_server(link_bits / E15_SHARDS as u64, AdmissionPolicy::AdmitAll);
        let sim = ClusterSim::new(ClusterConfig {
            shards: vec![shard; E15_SHARDS],
            balancer: BalancerPolicy::JoinShortestQueue,
            recovery: RecoveryConfig::default(),
            seed: seed.wrapping_add(1),
        })
        .expect("valid cluster config");
        (sim, workload)
    });
    let rss_after_setup = peak_rss_mib();
    let threads = dms_sim::ParRunner::new().threads();

    let run = trace.begin("run", None);
    let clock = Instant::now();
    let (shard_workloads, dispatch) = trace.time("cluster.dispatch", run, || {
        sim.dispatch(&workload, &[]).expect("dispatch runs")
    });
    let report = trace.time("cluster.shards", run, || {
        sim.run_dispatched(shard_workloads, dispatch, &[], None)
            .expect("shards run")
    });
    let run_s = clock.elapsed().as_secs_f64();
    trace.end(run);

    let d = &report.dispatch;
    let offered = workload.sessions.len() as u64;
    let mut sample = Sample {
        setup_s,
        run_s,
        offered,
        answered: report.admitted() + report.rejected(),
        admitted: report.admitted(),
        deadline_misses: report.deadline_misses(),
        session_slots: report.session_slots(),
        mean_utility: report.mean_utility(),
        digest: Sample::digest_of(&[
            report.admitted(),
            report.rejected(),
            report.deadline_misses(),
            report.delivered_bits(),
            report.utility_sum().to_bits(),
        ]),
        threads,
        // A batch hands every offer over at once and returns every
        // verdict with the report.
        latencies: vec![(run_s, offered)],
        ..Sample::default()
    };
    sample.check(
        "dispatched + balancer_rejected == offered + rerouted",
        d.dispatched + d.balancer_rejected == d.offered + d.rerouted && d.offered == offered,
    );
    sample.check(
        "admitted + rejected == offered",
        report.admitted() + report.rejected() == offered,
    );
    sample.check(
        "shards were offered exactly the dispatched sessions",
        report.shards.iter().map(|s| s.base.offered).sum::<u64>() == d.dispatched,
    );

    if trace.enabled() {
        // The probe dispatches again (dispatch is deterministic) rather
        // than keep a copy of the shard workloads inside the run phase.
        let (shard_workloads, _) = sim.dispatch(&workload, &[]).expect("dispatch runs");
        sample.count("serve.workload.rss_mib", rss_after_setup);
        sample.count("cluster.dispatch.offers", d.offered as f64);
        sample.count(
            "cluster.dispatch.routed_share",
            d.dispatched as f64 / d.offered.max(1) as f64,
        );
        let probe = trace.begin("probe", None);
        let mut shard_s = Vec::with_capacity(E15_SHARDS);
        let mut sinks = Vec::with_capacity(E15_SHARDS);
        let mut probe_equal = true;
        for (i, shard_workload) in shard_workloads.iter().enumerate() {
            let start = Instant::now();
            let id = trace.begin("probe.shard", probe);
            let engine = run_engine(
                &sim.config().shards[i],
                shard_workload,
                trace,
                id,
                start,
                false,
            );
            trace.end(id);
            shard_s.push(start.elapsed().as_secs_f64());
            probe_equal &= engine.report == report.shards[i].base;
            sinks.extend(engine.sink);
        }
        trace.end(probe);
        sample.check("each shard alone equals its cluster report", probe_equal);
        let mean = shard_s.iter().sum::<f64>() / shard_s.len() as f64;
        let max = shard_s.iter().copied().fold(0.0, f64::max);
        let shards_s = crate::trace::total_s(trace.spans(), "cluster.shards");
        sample.count("cluster.shards.skew", max / mean);
        sample.count(
            "cluster.shards.par_efficiency",
            shard_s.iter().sum::<f64>() / (threads as f64 * shards_s),
        );
        engine_counters(&mut sample, trace.spans(), &sinks, report.session_slots());
    }
    sample
}

// ---------------------------------------------------------------------
// tiered-geo: the E16 tiered arm at load 1.2, scaled up.
// ---------------------------------------------------------------------

const E16_SLOTS: u64 = 600;
const E16_DURATION_SLOTS: f64 = 120.0;
const E16_REGIONS: usize = 3;
const E16_SHARDS_PER_REGION: usize = 2;
const E16_LOAD: f64 = 1.2;

/// The E16 tiered config at `scale`× fleet/origin capacity and
/// `cache_scale`× catalogue and caches, all seeds from `seed`.
fn tiered_config(seed: u64, scale: u64, cache_scale: u64) -> TieredConfig {
    let mut template = SessionTemplate::streaming_default().expect("preset valid");
    template.mean_duration_slots = E16_DURATION_SLOTS;
    let shard_sessions = 110 * scale;
    let shard = ServerConfig {
        capacity: CapacityModel {
            link_bits_per_slot: shard_sessions * template.full_bits(),
            queue_frames: 64,
            occupancy_bound: 8.0,
        },
        policy: AdmissionPolicy::QueuePredictor,
        degrade: Some(DegradeConfig::default()),
        buffer_slots: 8,
        miss_slots: 4,
    };
    let total_bits =
        (E16_REGIONS * E16_SHARDS_PER_REGION) as u64 * shard.capacity.link_bits_per_slot;
    let rate = rate_for_load(E16_LOAD, &template, total_bits) / E16_REGIONS as f64;
    let regions = (0..E16_REGIONS)
        .map(|r| RegionConfig {
            fleet: ClusterConfig {
                shards: vec![shard; E16_SHARDS_PER_REGION],
                balancer: BalancerPolicy::JoinShortestQueue,
                recovery: RecoveryConfig::default(),
                seed: seed.wrapping_add(10 + r as u64),
            },
            arrivals: ArrivalProcess::FlashCrowd {
                rate,
                hurst: 0.8,
                burstiness: 0.6,
                diurnal_depth: 0.4,
                diurnal_period_slots: E16_SLOTS,
                diurnal_phase_slots: r as u64 * (E16_SLOTS / E16_REGIONS as u64),
                spike_factor: 2.5,
                spike_period_slots: 300,
                spike_slots: 30,
            },
            cache_items: 256 * cache_scale as usize,
            proximate: true,
        })
        .collect();
    TieredConfig {
        regions,
        template,
        slots: E16_SLOTS,
        content: ContentModel {
            catalog_size: 2_000 * cache_scale,
            zipf_exponent: 1.1,
            churn_period_slots: 150,
            churn_stride: 211,
        },
        origin: CapacityModel {
            link_bits_per_slot: 300 * scale * template.full_bits(),
            queue_frames: 64,
            occupancy_bound: 8.0,
        },
        classes: ClassMix::streaming_default(&template),
        energy: LastHopEnergy::derive(seed).expect("derivable energy tables"),
        seed,
    }
}

fn tiered_geo(seed: u64, size: Size, trace: &mut Trace) -> Sample {
    let (scale, cache_scale) = size.pick((100, 10), (1, 1));
    let (setup_s, (sim, workloads, draws)) = timed_setup(trace, "setup", |t, id| {
        let config = t.time("cluster.tiers.config", id, || {
            tiered_config(seed, scale, cache_scale)
        });
        let sim = TieredSim::new(config).expect("valid tiered config");
        let (workloads, draws) = t.time("cluster.tiers.generate", id, || {
            sim.generate().expect("tiered workloads generate")
        });
        (sim, workloads, draws)
    });
    let rss_after_setup = peak_rss_mib();
    let threads = dms_sim::ParRunner::new().threads();

    let run = trace.begin("run", None);
    let clock = Instant::now();
    let report = trace.time("cluster.tiers.run", run, || {
        sim.run_on(&workloads, &draws).expect("tiered run")
    });
    let run_s = clock.elapsed().as_secs_f64();
    trace.end(run);

    let offered: u64 = workloads.iter().map(|w| w.sessions.len() as u64).sum();
    let admitted: u64 = report.regions.iter().map(|r| r.fleet.admitted()).sum();
    let rejected: u64 = report
        .regions
        .iter()
        .map(|r| r.origin_rejected + r.fleet.rejected())
        .sum();
    let misses: u64 = report
        .regions
        .iter()
        .map(|r| r.fleet.deadline_misses())
        .sum();
    let session_slots: u64 = report.regions.iter().map(|r| r.fleet.session_slots()).sum();
    let mut sample = Sample {
        setup_s,
        run_s,
        offered,
        answered: admitted + rejected,
        admitted,
        deadline_misses: misses,
        session_slots,
        mean_utility: report.mean_utility(),
        digest: Sample::digest_of(&[
            admitted,
            rejected,
            misses,
            report.delivered_bits(),
            report.delivered_utility().to_bits(),
        ]),
        threads,
        latencies: vec![(run_s, offered)],
        ..Sample::default()
    };
    sample.check(
        "RegionReport::conserved() per region",
        report.regions.iter().all(|r| r.conserved()),
    );
    sample.check(
        "region fleet ledgers close",
        report.regions.iter().all(|r| {
            let d = &r.fleet.dispatch;
            d.dispatched + d.balancer_rejected == d.offered + d.rerouted
                && d.offered == r.edge_hits + r.origin_fetches
                && r.fleet.admitted() + r.fleet.rejected() == d.offered
        }),
    );
    sample.check(
        "regions offered the whole trace",
        report.offered() == offered,
    );
    if trace.enabled() {
        sample.count("serve.workload.rss_mib", rss_after_setup);
        sample.count("cluster.tiers.hit_ratio", report.hit_ratio());
        sample.count(
            "cluster.tiers.origin_fetches",
            report.origin_fetches() as f64,
        );
        sample.count(
            "cluster.tiers.origin_rejected",
            report.origin_rejected() as f64,
        );
    }
    sample
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload passes its correctness gate at smoke size, a
    /// traced sample reports the same answer as an untraced one, and
    /// the answer depends on the seed.
    #[test]
    fn smoke_samples_pass_the_gate_and_repeat() {
        for kind in Kind::ALL {
            let plain = run_sample(kind, 7, Size::Smoke, 0, false);
            let traced = run_sample(kind, 7, Size::Smoke, 1, true);
            let other_seed = run_sample(kind, 8, Size::Smoke, 2, false);
            for s in [&plain, &traced, &other_seed] {
                for (check, ok) in &s.checks {
                    assert!(ok, "{}: {check}", kind.name());
                }
                assert!(s.offered > 0 && s.answered == s.offered, "{}", kind.name());
                assert!(s.run_s > 0.0 && s.setup_s > 0.0, "{}", kind.name());
            }
            assert_eq!(plain.digest, traced.digest, "{}", kind.name());
            assert_ne!(plain.digest, other_seed.digest, "{}", kind.name());
            assert!(plain.spans.is_empty() && plain.counters.is_empty());
            assert!(!traced.spans.is_empty() && !traced.counters.is_empty());
        }
    }

    #[test]
    fn traced_batch_spans_cover_the_run_phase() {
        for kind in [Kind::Server1m, Kind::Cluster8, Kind::TieredGeo] {
            let s = run_sample(kind, 7, Size::Smoke, 1, true);
            let (_, cover) = s
                .counters
                .iter()
                .find(|(n, _)| n == "trace.coverage_share")
                .expect("coverage");
            assert!(*cover <= 1.0 && *cover > 0.95, "{}: {cover}", kind.name());
        }
    }

    #[test]
    fn digest_depends_on_every_word_and_its_order() {
        let d = Sample::digest_of(&[1, 2, 3]);
        assert_eq!(d, Sample::digest_of(&[1, 2, 3]));
        assert_ne!(d, Sample::digest_of(&[1, 3, 2]));
        assert_ne!(d, Sample::digest_of(&[1, 2, 4]));
    }
}
