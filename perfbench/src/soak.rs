//! socket-soak: the E12 controlled-arm soak over an in-process Unix
//! socketpair.
//!
//! `serve_connection` runs on one thread; the benchmark's own client
//! runs on the calling thread and both writes the offers and reads the
//! verdicts, so the load comes from two threads in all. The client
//! sends each slot as its offers followed by a heartbeat carrying the
//! next slot, which closes the slot: the server steps it and answers at
//! once. Two phases replay the same trace, each on a fresh connection
//! and driver:
//!
//! * phase A, an open loop paced at [`SLOT_S`] per slot, which times
//!   every verdict from when its slot was due;
//! * phase B, unpaced, whose wall time gives the throughput.
//!
//! Each phase's server run-log must equal `drive_direct`'s on the same
//! trace; that check runs outside the timed window.

use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

use dms_net::{
    drive_direct, serve_connection, DriverConfig, Frame, FrameCodec, NetConnection, NetError,
    SessionDriver, PROTOCOL_VERSION,
};
use dms_serve::{
    rate_for_load, AdmissionPolicy, ArrivalProcess, CapacityModel, DegradeConfig, ServerConfig,
    SessionTemplate, Workload,
};

use crate::stats::{latency_from_due_s, lateness_s};
use crate::trace::{total_s, Trace};
use crate::workloads::{
    engine_counters, peak_rss_mib, report_digest, run_engine, timed_setup, Sample, Size,
};

/// Slots of the soak trace (the E12 horizon).
const SOAK_SLOTS: u64 = 700;
/// Offered load of the soak trace, ×link capacity.
const SOAK_LOAD: f64 = 1.2;
/// Phase A slot length: about twice the engine's ~126 µs of work per
/// slot on a 2-core x86-64 box, so the server is roughly half busy.
pub const SLOT_S: f64 = 250e-6;
/// Verdict latency limit for `verdict_in_slo_share`: four slots.
pub const LATENCY_LIMIT_S: f64 = 1e-3;
/// How long the client waits for the server's shutdown ack before it
/// gives the session up.
const SHUTDOWN_WAIT: Duration = Duration::from_secs(60);

/// The soak's server config and trace: E12's controlled arm
/// (queue-predictor admission, FGS degradation) at [`SOAK_LOAD`].
fn soak_setup(seed: u64, link_sessions: u64) -> (ServerConfig, Workload) {
    let mut template = SessionTemplate::streaming_default().expect("preset valid");
    template.mean_duration_slots = 150.0;
    let capacity = CapacityModel {
        link_bits_per_slot: link_sessions * template.full_bits(),
        queue_frames: 64,
        occupancy_bound: 8.0,
    };
    let rate = rate_for_load(SOAK_LOAD, &template, capacity.link_bits_per_slot);
    let workload = Workload::generate(ArrivalProcess::Poisson { rate }, template, SOAK_SLOTS, seed)
        .expect("valid soak workload");
    let config = ServerConfig {
        capacity,
        policy: AdmissionPolicy::QueuePredictor,
        degrade: Some(DegradeConfig::default()),
        buffer_slots: 4,
        miss_slots: 2,
    };
    (config, workload)
}

/// The client's frames, encoded before the clock starts: the
/// generator's own encoding is not the server's cost.
struct ClientFrames {
    hello: Vec<u8>,
    /// Every slot's offers plus its closing heartbeat, back to back.
    slots: Vec<u8>,
    /// End offset of each slot's bytes in `slots`.
    ends: Vec<usize>,
    shutdown: Vec<u8>,
    frames: u64,
}

impl ClientFrames {
    fn frames_of(workload: &Workload) -> Vec<Vec<Frame>> {
        let mut per_slot = vec![Vec::new(); workload.slots as usize];
        for req in &workload.sessions {
            per_slot[req.arrival_slot as usize].push(Frame::Offer {
                id: req.id,
                arrival_slot: req.arrival_slot,
                duration_slots: req.duration_slots,
            });
        }
        for (s, frames) in per_slot.iter_mut().enumerate() {
            frames.push(Frame::Heartbeat { slot: s as u64 + 1 });
        }
        per_slot
    }

    fn new(workload: &Workload) -> Self {
        let hello = Frame::Hello {
            version: PROTOCOL_VERSION,
            client_id: 1,
            slots: workload.slots,
        }
        .encode();
        let mut slots = Vec::new();
        let mut ends = Vec::with_capacity(workload.slots as usize);
        let mut frames = 2;
        for slot_frames in Self::frames_of(workload) {
            for f in &slot_frames {
                f.encode_into(&mut slots);
            }
            frames += slot_frames.len() as u64;
            ends.push(slots.len());
        }
        ClientFrames {
            hello,
            slots,
            ends,
            shutdown: Frame::Shutdown { reason: 0 }.encode(),
            frames,
        }
    }

    fn slot(&self, s: usize) -> &[u8] {
        let start = if s == 0 { 0 } else { self.ends[s - 1] };
        &self.slots[start..self.ends[s]]
    }

    fn bytes(&self) -> u64 {
        (self.hello.len() + self.slots.len() + self.shutdown.len()) as u64
    }
}

/// What the client saw of one phase.
#[derive(Debug, Default)]
struct Phase {
    /// The server's run-log.
    log: String,
    /// Hello sent to shutdown ack read.
    wall_s: f64,
    /// Verdict latency from the due time, per verdict (paced only).
    latencies_s: Vec<f64>,
    /// Generator lateness per slot (paced only).
    lateness_s: Vec<f64>,
    admitted: u64,
    rejected: u64,
    frames_in: u64,
    bytes_in: u64,
}

/// The client's read side: decodes server frames as they arrive and
/// stamps each verdict with the time its bytes were read.
struct Receiver {
    codec: FrameCodec,
    buf: Vec<u8>,
    t0: Instant,
    slot_s: f64,
    hello: bool,
    shutdown: bool,
    phase: Phase,
}

impl Receiver {
    fn new(slot_s: f64) -> Self {
        Receiver {
            codec: FrameCodec::new(),
            buf: vec![0; 64 * 1024],
            t0: Instant::now(),
            slot_s,
            hello: false,
            shutdown: false,
            phase: Phase::default(),
        }
    }

    /// One read; `false` when nothing was ready (timeout or
    /// would-block).
    fn read_once(&mut self, sock: &mut UnixStream) -> Result<bool, NetError> {
        let n = match sock.read(&mut self.buf) {
            Ok(0) => return Err(NetError::Closed),
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                return Ok(false)
            }
            Err(e) => return Err(e.into()),
        };
        let read_s = self.t0.elapsed().as_secs_f64();
        self.phase.bytes_in += n as u64;
        self.codec.push(&self.buf[..n]);
        while let Some(frame) = self.codec.next_frame()? {
            self.phase.frames_in += 1;
            match frame {
                Frame::Admit { slot, .. } | Frame::Reject { slot, .. } => {
                    if matches!(frame, Frame::Admit { .. }) {
                        self.phase.admitted += 1;
                    } else {
                        self.phase.rejected += 1;
                    }
                    self.phase
                        .latencies_s
                        .push(latency_from_due_s(slot, self.slot_s, read_s));
                }
                Frame::Hello { version, .. } if version != PROTOCOL_VERSION => {
                    return Err(NetError::Version {
                        ours: PROTOCOL_VERSION,
                        theirs: version,
                    })
                }
                Frame::Hello { .. } => self.hello = true,
                Frame::Shutdown { .. } => self.shutdown = true,
                _ => {}
            }
        }
        Ok(true)
    }

    /// Non-blocking mode: polls for frames until `deadline`. A socket
    /// read timeout would wake on the scheduler tick (milliseconds
    /// late), so the paced client spins instead.
    fn read_until(&mut self, sock: &mut UnixStream, deadline: Instant) -> Result<(), NetError> {
        while Instant::now() < deadline {
            if !self.read_once(sock)? {
                std::thread::yield_now();
            }
        }
        Ok(())
    }

    /// Blocking mode: reads until `done` holds, or fails after
    /// [`SHUTDOWN_WAIT`].
    fn wait_for(
        &mut self,
        sock: &mut UnixStream,
        done: impl Fn(&Receiver) -> bool,
    ) -> Result<(), NetError> {
        let give_up = Instant::now() + SHUTDOWN_WAIT;
        while !done(self) {
            if Instant::now() >= give_up {
                return Err(NetError::Stalled);
            }
            sock.set_read_timeout(Some(SHUTDOWN_WAIT))?;
            self.read_once(sock)?;
        }
        Ok(())
    }
}

/// A thread's CPU affinity mask, the size of glibc's `cpu_set_t`.
type CpuMask = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The calling thread's CPU affinity.
fn affinity() -> std::io::Result<CpuMask> {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: `mask` is a live, writable buffer of exactly the size
    // passed; pid 0 names the calling thread.
    let r = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_mut_ptr()) };
    if r == 0 {
        Ok(mask)
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// Sets the calling thread's CPU affinity.
fn set_affinity(mask: &CpuMask) -> std::io::Result<()> {
    // SAFETY: `mask` is a live buffer of exactly the size passed; pid 0
    // names the calling thread.
    let r = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_ptr()) };
    if r == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// The mask holding only the lowest CPU of `mask`.
fn lowest_cpu(mask: &CpuMask) -> CpuMask {
    let mut one: CpuMask = [0; 16];
    if let Some(word) = mask.iter().position(|&w| w != 0) {
        one[word] = 1 << mask[word].trailing_zeros();
    }
    one
}

/// Non-blocking write of `bytes`, reading verdicts whenever the socket
/// is full so neither side can wait on the other.
fn write_pumping(sock: &mut UnixStream, bytes: &[u8], rx: &mut Receiver) -> Result<(), NetError> {
    let mut off = 0;
    while off < bytes.len() {
        match sock.write(&bytes[off..]) {
            Ok(n) => off += n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                while rx.read_once(sock)? {}
                std::thread::yield_now();
            }
            Err(e) => return Err(e.into()),
        }
    }
    while rx.read_once(sock)? {}
    Ok(())
}

/// The client half of one phase; `pace: None` is unpaced.
fn drive_client(
    mut sock: UnixStream,
    frames: &ClientFrames,
    pace: Option<f64>,
) -> Result<Phase, NetError> {
    let mut rx = Receiver::new(pace.unwrap_or(0.0));
    let start = Instant::now();
    sock.write_all(&frames.hello)?;
    rx.wait_for(&mut sock, |r| r.hello)?;
    // The schedule starts once the handshake is done.
    rx.t0 = Instant::now();
    sock.set_nonblocking(true)?;
    for s in 0..frames.ends.len() {
        if let Some(slot_s) = pace {
            let due = rx.t0 + Duration::from_secs_f64(crate::stats::due_s(s as u64, slot_s));
            rx.read_until(&mut sock, due)?;
            let sent_s = rx.t0.elapsed().as_secs_f64();
            rx.phase
                .lateness_s
                .push(lateness_s(s as u64, slot_s, sent_s));
        }
        write_pumping(&mut sock, frames.slot(s), &mut rx)?;
    }
    sock.set_nonblocking(false)?;
    sock.write_all(&frames.shutdown)?;
    rx.wait_for(&mut sock, |r| r.shutdown)?;
    rx.phase.wall_s = start.elapsed().as_secs_f64();
    Ok(rx.phase)
}

/// One phase: a fresh driver served on its own thread, the client on
/// this one.
fn run_phase(
    config: &ServerConfig,
    workload: &Workload,
    frames: &ClientFrames,
    pace: Option<f64>,
) -> Result<Phase, NetError> {
    let mut driver = SessionDriver::new(
        config,
        workload.template,
        workload.slots,
        DriverConfig::default(),
    )
    .expect("valid soak config");
    let (server_end, client_end) = UnixStream::pair()?;
    let mut server_conn = NetConnection::Unix(server_end);
    // Server and client share one CPU. On a virtualised box, waking a
    // thread whose vCPU has gone idle costs anything up to
    // milliseconds, at random; across two CPUs every verdict would pay
    // that, and the socket path's own cost would drown in it.
    let own = affinity()?;
    let one = lowest_cpu(&own);
    let result = std::thread::scope(|scope| {
        let server = scope.spawn(move || {
            set_affinity(&one)?;
            serve_connection(&mut server_conn, &mut driver).map(|()| driver.into_run_log())
        });
        let client = set_affinity(&one)
            .map_err(NetError::from)
            .and_then(|()| drive_client(client_end, frames, pace));
        let log = server.join().expect("server thread does not panic");
        let mut phase = client?;
        phase.log = log?;
        Ok(phase)
    });
    set_affinity(&own)?;
    result
}

pub(crate) fn socket_soak(seed: u64, size: Size, trace: &mut Trace) -> Sample {
    let link_sessions = match size {
        Size::Full => 2_000,
        Size::Smoke => 200,
    };
    let (setup_s, (config, workload)) = timed_setup(trace, "setup", |t, id| {
        t.time("serve.workload.generate", id, || {
            soak_setup(seed, link_sessions)
        })
    });
    let rss_after_setup = peak_rss_mib();
    let frames = ClientFrames::new(&workload);
    let offered = workload.sessions.len() as u64;
    let (direct_log, _) = drive_direct(
        SessionDriver::new(
            &config,
            workload.template,
            workload.slots,
            DriverConfig::default(),
        )
        .expect("valid soak config"),
        1,
        &workload.sessions,
    )
    .expect("soak trace is protocol-clean");

    let mut sample = Sample {
        setup_s,
        offered,
        threads: 2,
        ..Sample::default()
    };
    let phase_a = run_phase(&config, &workload, &frames, Some(SLOT_S));
    let run = trace.begin("run", None);
    let phase_b = trace.time("net.session", run, || {
        run_phase(&config, &workload, &frames, None)
    });
    trace.end(run);

    let mut answered = u64::MAX;
    for (name, phase) in [("A", &phase_a), ("B", &phase_b)] {
        match phase {
            Ok(p) => {
                sample.check(
                    &format!("phase {name} run-log equals drive_direct"),
                    p.log == direct_log,
                );
                sample.check(
                    &format!("phase {name} answers every offer once"),
                    p.admitted + p.rejected == offered,
                );
                answered = answered.min(p.admitted + p.rejected);
            }
            Err(e) => {
                sample.check(&format!("phase {name} completes ({e})"), false);
                answered = 0;
            }
        }
    }
    sample.answered = answered;
    if let Ok(a) = &phase_a {
        sample.latencies = a.latencies_s.iter().map(|&l| (l, 1)).collect();
        sample.in_slo = a
            .latencies_s
            .iter()
            .filter(|&&l| l <= LATENCY_LIMIT_S)
            .count() as u64;
        sample.lateness_s.clone_from(&a.lateness_s);
    }

    // The QoS outcome of the trace, from the engine the driver wraps,
    // fed in the driver's lockstep order with no socket: outside the
    // timed window.
    let probe = trace.begin("probe", None);
    let engine = run_engine(&config, &workload, trace, probe, Instant::now(), true);
    let r = engine.report;
    sample.deadline_misses = r.deadline_misses;
    sample.session_slots = r.session_slots;
    sample.mean_utility = r.mean_utility();
    sample.digest = report_digest(&r);
    if let Ok(b) = &phase_b {
        sample.run_s = b.wall_s;
        sample.admitted = b.admitted;
        sample.check(
            "socket verdicts equal the lockstep engine's admissions",
            b.admitted == r.admitted,
        );
    }

    if trace.enabled() {
        sample.count("serve.workload.rss_mib", rss_after_setup);
        let replay_log = replay(&config, &workload, &frames, trace, probe);
        sample.check(
            "frame replay run-log equals drive_direct",
            replay_log == direct_log,
        );
        trace.end(probe);
        let sinks: Vec<_> = engine.sink.into_iter().collect();
        engine_counters(&mut sample, trace.spans(), &sinks, r.session_slots);
        net_counters(&mut sample, trace, &frames, phase_b.as_ref().ok());
    } else {
        trace.end(probe);
    }
    sample
}

/// Pushes the client's frames through `FrameCodec` and
/// `SessionDriver::on_frame` with no socket, one stage at a time, so
/// each layer's time is a span of its own.
fn replay(
    config: &ServerConfig,
    workload: &Workload,
    frames: &ClientFrames,
    trace: &mut Trace,
    parent: crate::trace::SpanId,
) -> String {
    let mut wire = Vec::with_capacity(frames.bytes() as usize);
    trace.time("net.codec.encode.to_server", parent, || {
        Frame::Hello {
            version: PROTOCOL_VERSION,
            client_id: 1,
            slots: workload.slots,
        }
        .encode_into(&mut wire);
        for slot_frames in ClientFrames::frames_of(workload) {
            for f in &slot_frames {
                f.encode_into(&mut wire);
            }
        }
        Frame::Shutdown { reason: 0 }.encode_into(&mut wire);
    });
    let to_server = trace.time("net.codec.decode.to_server", parent, || decode_all(&wire));
    let mut driver = SessionDriver::new(
        config,
        workload.template,
        workload.slots,
        DriverConfig::default(),
    )
    .expect("valid soak config");
    let mut replies = Vec::new();
    trace.time("net.driver.on_frame", parent, || {
        for f in to_server {
            driver
                .on_frame(f, &mut replies)
                .expect("replayed frames are protocol-clean");
        }
    });
    let mut back = Vec::new();
    trace.time("net.codec.encode.to_client", parent, || {
        for f in &replies {
            f.encode_into(&mut back);
        }
    });
    let decoded = trace.time("net.codec.decode.to_client", parent, || decode_all(&back));
    assert_eq!(decoded.len(), replies.len(), "replies decode whole");
    driver.into_run_log()
}

fn decode_all(bytes: &[u8]) -> Vec<Frame> {
    let mut codec = FrameCodec::new();
    codec.push(bytes);
    let mut out = Vec::new();
    while let Some(f) = codec.next_frame().expect("own encoding decodes") {
        out.push(f);
    }
    out
}

fn net_counters(sample: &mut Sample, trace: &Trace, frames: &ClientFrames, b: Option<&Phase>) {
    let spans = trace.spans();
    let Some(b) = b else { return };
    let frames_all = (frames.frames + b.frames_in) as f64;
    let enc_ts = total_s(spans, "net.codec.encode.to_server");
    let enc_tc = total_s(spans, "net.codec.encode.to_client");
    let dec_ts = total_s(spans, "net.codec.decode.to_server");
    let dec_tc = total_s(spans, "net.codec.decode.to_client");
    let driver_s = total_s(spans, "net.driver.on_frame");
    sample.count("net.codec.encode_ns", (enc_ts + enc_tc) * 1e9 / frames_all);
    sample.count("net.codec.decode_ns", (dec_ts + dec_tc) * 1e9 / frames_all);
    sample.count("net.driver.on_frame_s", driver_s);
    // Phase B's wall time holds the server's decode, driver and
    // encode and the client's decode; the client's frames were encoded
    // before the clock started. The rest is the socket.
    sample.count(
        "net.socket_s",
        (b.wall_s - dec_ts - driver_s - enc_tc - dec_tc).max(0.0),
    );
    sample.count("net.frames.to_server", frames.frames as f64);
    sample.count("net.frames.to_client", b.frames_in as f64);
    sample.count("net.bytes.to_server", frames.bytes() as f64);
    sample.count("net.bytes.to_client", b.bytes_in as f64);
}
