//! The two serving workloads: closed-loop clients against an in-process
//! `NetServer` on loopback, one worker per connection.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use decoder_sim::{CacheStats, ExecutionEngine, PlatformReport, SimulationPlatform, StageStats};
use mspt_serve::{
    parse_reply_any, Handler, NetClient, NetServer, NetServerHandle, ReportRequest, ReportServer,
    ServeConfig, WireCodec, WireReply,
};
use rand::rngs::StdRng;
use rand::Rng;

use crate::cli::Workload;
use crate::hist::Histogram;
use crate::host::{self, Sampler, Snapshot, Usage};
use crate::stream::{self, HotStream, SweepOp, SweepStream, CHECK_DOMAIN, SWEEP_RECENT};
use crate::trace::{SpanLog, TimedHandler};

/// Connections (and server workers) of `serve_hot`.
pub const HOT_CONNECTIONS: usize = 2;
/// Connections (and server workers) of `serve_defect_sweep`.
pub const SWEEP_CONNECTIONS: usize = 1;
/// Share of `serve_defect_sweep` replies recomputed serially after the run.
const SWEEP_CHECK_SHARE: f64 = 1.0 / 64.0;
/// Most `serve_defect_sweep` replies recomputed after the run.
const SWEEP_MAX_CHECKS: usize = 48;
/// Operations per connection whose spans are written out.
const SPAN_OPS: u64 = 2_000;
/// Request/reply pairs kept from a traced run to replay through the codecs.
const PROBE_PAIRS: usize = 256;
/// Length of the windows the CPU cost per request is measured over.
const WINDOW: Duration = Duration::from_secs(1);
/// Verified requests of `serve_hot` after which the timed run reads the
/// peak RSS: the same work on every run, whatever the throughput.
const HOT_RSS_OPS: u64 = 20_000;
/// Verified requests of `serve_defect_sweep` after which the timed run
/// reads the peak RSS. The stream's first 6000 requests carry about 4500
/// fresh configs, more than the 4096 the defect-map memo keeps, so the
/// memo is full and evicting and RSS is on its plateau.
const SWEEP_RSS_OPS: u64 = 6_000;

/// Verified requests after which the timed run of `workload` reads the
/// peak RSS. A run goes on past its duration until it gets there, for at
/// most one more duration.
#[must_use]
pub fn rss_checkpoint(workload: Workload) -> u64 {
    match workload {
        Workload::ServeDefectSweep => SWEEP_RSS_OPS,
        _ => HOT_RSS_OPS,
    }
}

/// Connections of a serving workload.
#[must_use]
pub fn connections(workload: Workload) -> usize {
    match workload {
        Workload::ServeDefectSweep => SWEEP_CONNECTIONS,
        _ => HOT_CONNECTIONS,
    }
}

/// A running server with connected clients, ready for the first timed
/// request.
#[derive(Debug)]
pub struct Fixture {
    workload: Workload,
    /// The engine behind the server.
    pub engine: Arc<ExecutionEngine>,
    handle: NetServerHandle,
    clients: Vec<NetClient>,
    timed: Option<Arc<TimedHandler>>,
    /// `serve_hot`: the stress mix. `serve_defect_sweep`: empty.
    pub mix: Vec<ReportRequest>,
    references: Vec<PlatformReport>,
}

/// Builds a fixture: engine, server (with the timing handler when
/// `traced`), the warm cache and serial references of `serve_hot`, and
/// the client connections.
///
/// # Errors
///
/// Returns a message when evaluation, binding or connecting fails.
pub fn setup(workload: Workload, threads: usize, traced: bool) -> Result<Fixture, String> {
    let engine = Arc::new(crate::engine(threads));
    let server = ReportServer::new(Arc::clone(&engine));
    let workers = connections(workload);
    let timed = traced.then(|| Arc::new(TimedHandler::new(server.clone(), workers)));
    let handler: Arc<dyn Handler> = match &timed {
        Some(timed) => Arc::clone(timed) as Arc<dyn Handler>,
        None => Arc::new(server.clone()),
    };
    let handle = NetServer::bind(
        ServeConfig {
            workers,
            ..ServeConfig::default()
        },
        handler,
    )
    .map_err(|error| format!("bind: {error}"))?;

    let (mix, references) = if workload == Workload::ServeHot {
        let mix = stream::hot_mix();
        let references = mix
            .iter()
            .map(|request| SimulationPlatform::new(request.effective_config()).evaluate())
            .collect::<decoder_sim::Result<Vec<_>>>()
            .map_err(|error| format!("serial reference: {error}"))?;
        for request in &mix {
            server
                .serve(request)
                .map_err(|error| format!("cache warm-up: {error}"))?;
        }
        (mix, references)
    } else {
        (Vec::new(), Vec::new())
    };

    let addr = handle.local_addr();
    let mut clients = Vec::with_capacity(workers);
    for connection in 0..workers {
        // One request per connection, in connection order: set-up ends
        // when a worker serves every connection, and worker slot `c` of
        // the timing handler belongs to connection `c`.
        let mut client = NetClient::connect(addr).map_err(|error| format!("connect: {error}"))?;
        let hello = ReportRequest::builder(stream::code_configs().swap_remove(0)).build();
        let reply = client
            .call_bytes(&WireCodec::Binary.encode_request(&hello))
            .and_then(|bytes| parse_reply_any(&bytes))
            .map_err(|error| format!("handshake: {error}"))?;
        if !matches!(reply, WireReply::Report(_)) {
            return Err("handshake: no report".to_string());
        }
        if timed
            .as_ref()
            .is_some_and(|timed| timed.registered() != connection + 1)
        {
            return Err("handshake did not pin one worker per connection".to_string());
        }
        clients.push(client);
    }
    Ok(Fixture {
        workload,
        engine,
        handle,
        clients,
        timed,
        mix,
        references,
    })
}

/// Closes the connections and shuts the server down.
pub fn teardown(fixture: Fixture) {
    let Fixture {
        clients, handle, ..
    } = fixture;
    drop(clients);
    handle.shutdown();
}

/// Per-layer figures of one traced connection.
#[derive(Debug, Default)]
pub struct ClientTrace {
    /// Client request encode, per codec (0 JSON, 1 binary).
    pub encode: [Histogram; 2],
    /// `NetClient::call_bytes`, per codec.
    pub roundtrip: [Histogram; 2],
    /// `parse_reply_any`, per codec.
    pub decode: [Histogram; 2],
    /// Server-side `Handler::serve`.
    pub handler: Histogram,
    /// Round trip minus the handler span.
    pub wire_self: Histogram,
    /// Whole operation: encode through parsed reply.
    pub op: Histogram,
    /// Handler spans that did not match or lie inside their round trip.
    pub unmatched: u64,
    /// Spans of the first operations.
    pub log: Option<SpanLog>,
}

/// What one connection (or, merged, the whole run) observed.
#[derive(Debug, Default)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// Mismatches, error replies, sheds and transport errors.
    pub failed: u64,
    /// First few failure messages.
    pub failures: Vec<String>,
    /// Send-to-parsed latency of verified requests, per codec.
    pub latency: [Histogram; 2],
    /// Replies kept for the post-run serial recomputation.
    pub checks: Vec<(ReportRequest, PlatformReport)>,
    /// Request/reply pairs kept for the codec probes (traced runs).
    pub pairs: Vec<(ReportRequest, PlatformReport)>,
    /// Per-layer figures (traced runs).
    pub trace: Option<ClientTrace>,
    /// Peak RSS in MiB, read by the connection that completed the run's
    /// RSS checkpoint request.
    pub peak_rss_mb: Option<f64>,
}

impl Tally {
    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(message);
        }
    }

    fn merge(&mut self, mut other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.peak_rss_mb = self.peak_rss_mb.or(other.peak_rss_mb);
        let room = 8usize.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
        for codec in 0..2 {
            self.latency[codec].merge(&other.latency[codec]);
        }
        self.checks.append(&mut other.checks);
        let room = PROBE_PAIRS.saturating_sub(self.pairs.len());
        self.pairs.extend(other.pairs.into_iter().take(room));
        match (&mut self.trace, other.trace) {
            (Some(mine), Some(mut theirs)) => {
                for codec in 0..2 {
                    mine.encode[codec].merge(&theirs.encode[codec]);
                    mine.roundtrip[codec].merge(&theirs.roundtrip[codec]);
                    mine.decode[codec].merge(&theirs.decode[codec]);
                }
                mine.handler.merge(&theirs.handler);
                mine.wire_self.merge(&theirs.wire_self);
                mine.op.merge(&theirs.op);
                mine.unmatched += theirs.unmatched;
                if let (Some(log), Some(other_log)) = (&mut mine.log, &mut theirs.log) {
                    log.append(other_log);
                }
            }
            (mine @ None, theirs) => *mine = theirs,
            (Some(_), None) => {}
        }
    }

    /// Verified requests.
    #[must_use]
    pub fn verified(&self) -> u64 {
        self.attempted - self.failed
    }
}

/// The result of one timed (or traced) serving phase.
#[derive(Debug)]
pub struct ServingRun {
    /// Wall time, CPU time and steal from the start of the phase until the
    /// last client stopped.
    pub usage: Usage,
    /// CPU microseconds per verified request in each one-second window.
    pub cpu_windows: Vec<f64>,
    /// Everything the clients observed.
    pub tally: Tally,
    /// Report-cache counters before and after the phase.
    pub cache: (CacheStats, CacheStats),
    /// Stage counters before and after the phase.
    pub stages: (Vec<StageStats>, Vec<StageStats>),
}

/// Where a connection's requests come from and how their replies are
/// checked.
trait Source {
    /// Advances to the next request and returns its codec.
    fn advance(&mut self) -> WireCodec;
    /// The current request.
    fn request(&self) -> &ReportRequest;
    /// Checks the reply to the current request.
    fn check(&mut self, report: &PlatformReport, tally: &mut Tally) -> Result<(), String>;
}

struct HotSource<'a> {
    stream: HotStream,
    mix: &'a [ReportRequest],
    references: &'a [PlatformReport],
    index: usize,
}

impl Source for HotSource<'_> {
    fn advance(&mut self) -> WireCodec {
        let (index, codec) = self.stream.next_op();
        self.index = index;
        codec
    }

    fn request(&self) -> &ReportRequest {
        &self.mix[self.index]
    }

    fn check(&mut self, report: &PlatformReport, _: &mut Tally) -> Result<(), String> {
        if *report == self.references[self.index] {
            Ok(())
        } else {
            Err(format!(
                "mix entry {} differs from its serial reference",
                self.index
            ))
        }
    }
}

struct SweepSource {
    stream: SweepStream,
    op: Option<SweepOp>,
    replies: VecDeque<(u64, PlatformReport)>,
    check_rng: StdRng,
}

impl Source for SweepSource {
    fn advance(&mut self) -> WireCodec {
        let op = self.stream.next_op();
        let codec = op.codec;
        self.op = Some(op);
        codec
    }

    fn request(&self) -> &ReportRequest {
        &self.op.as_ref().expect("advance() ran first").request
    }

    fn check(&mut self, report: &PlatformReport, tally: &mut Tally) -> Result<(), String> {
        let op = self.op.as_ref().expect("advance() ran first");
        let request = &op.request;
        if Some(report.defects) != request.defects || report.code != request.config.code() {
            return Err(format!("op {}: reply is for another configuration", op.id));
        }
        if !(0.0..=1.0).contains(&report.composite_yield) {
            return Err(format!(
                "op {}: composite yield {}",
                op.id, report.composite_yield
            ));
        }
        match op.repeat_of {
            Some(first) => {
                if let Some((_, earlier)) = self.replies.iter().find(|(id, _)| *id == first) {
                    if earlier != report {
                        return Err(format!("op {}: repeat differs from op {first}", op.id));
                    }
                }
            }
            None => {
                if self.replies.len() == SWEEP_RECENT {
                    self.replies.pop_front();
                }
                self.replies.push_back((op.id, report.clone()));
            }
        }
        if tally.checks.len() < SWEEP_MAX_CHECKS && self.check_rng.gen::<f64>() < SWEEP_CHECK_SHARE
        {
            tally.checks.push((request.clone(), report.clone()));
        }
        Ok(())
    }
}

/// Runs the fixture's clients until `duration` has passed; with a timing
/// handler installed, also records the per-layer figures. With
/// `rss_after`, the peak RSS is read once that many requests are verified,
/// and the run goes on until then, for at most another `duration`.
pub fn run(
    fixture: &mut Fixture,
    seed: u64,
    duration: Duration,
    rss_after: Option<u64>,
) -> ServingRun {
    let engine = Arc::clone(&fixture.engine);
    let cache_before = engine.cache_stats();
    let stages_before = engine.stage_stats();
    let snapshot = Snapshot::now();
    let sampler = Sampler::start(WINDOW);
    let counter = sampler.ops();
    let start = Instant::now();
    let deadline = Deadline {
        soft: start + duration,
        hard: start + 2 * duration,
        rss_after,
    };
    let workload = fixture.workload;
    let timed = fixture.timed.as_deref();
    let (mix, references) = (&fixture.mix, &fixture.references);
    let mut tally = Tally::default();
    thread::scope(|scope| {
        let handles: Vec<_> = fixture
            .clients
            .iter_mut()
            .enumerate()
            .map(|(connection, client)| {
                scope.spawn(move || {
                    let client_trace = timed.map(|_| ClientTrace {
                        log: Some(SpanLog::new(start, SPAN_OPS)),
                        ..ClientTrace::default()
                    });
                    let keep_pairs = timed.is_some() && connection == 0;
                    let check_rng = stream::seeded(seed, CHECK_DOMAIN, connection as u64);
                    match workload {
                        Workload::ServeHot => drive(
                            client,
                            HotSource {
                                stream: HotStream::new(seed, connection, mix.len()),
                                mix,
                                references,
                                index: 0,
                            },
                            (connection, timed),
                            client_trace,
                            keep_pairs,
                            counter,
                            deadline,
                        ),
                        _ => drive(
                            client,
                            SweepSource {
                                stream: SweepStream::new(seed, connection),
                                op: None,
                                replies: VecDeque::with_capacity(SWEEP_RECENT),
                                check_rng,
                            },
                            (connection, timed),
                            client_trace,
                            keep_pairs,
                            counter,
                            deadline,
                        ),
                    }
                })
            })
            .collect();
        for handle in handles {
            tally.merge(handle.join().expect("client thread panicked"));
        }
    });
    let samples = sampler.finish();
    ServingRun {
        usage: snapshot.until(&Snapshot::now()),
        cpu_windows: host::cpu_us_per_op_windows(&samples, WINDOW),
        tally,
        cache: (cache_before, engine.cache_stats()),
        stages: (stages_before, engine.stage_stats()),
    }
}

/// When a connection stops.
#[derive(Debug, Clone, Copy)]
struct Deadline {
    /// End of the requested duration.
    soft: Instant,
    /// Latest end while the RSS checkpoint is not reached.
    hard: Instant,
    /// Verified requests after which the peak RSS is read.
    rss_after: Option<u64>,
}

/// One connection's closed loop.
fn drive(
    client: &mut NetClient,
    mut source: impl Source,
    (connection, timed): (usize, Option<&TimedHandler>),
    trace: Option<ClientTrace>,
    keep_pairs: bool,
    counter: &AtomicU64,
    deadline: Deadline,
) -> Tally {
    let mut tally = Tally {
        trace,
        ..Tally::default()
    };
    for op in 0u64.. {
        let codec = source.advance();
        let slot = usize::from(codec == WireCodec::Binary);
        let t0 = Instant::now();
        let payload = codec.encode_request(source.request());
        let t1 = Instant::now();
        let response = client.call_bytes(&payload);
        let t2 = Instant::now();
        let reply = response.as_ref().map(|bytes| parse_reply_any(bytes));
        let t3 = Instant::now();
        tally.attempted += 1;
        let transport_failed = response.is_err();
        let outcome = match reply {
            Ok(Ok(WireReply::Report(report))) => source.check(&report, &mut tally).map(|()| report),
            Ok(Ok(WireReply::Error(error))) => Err(format!("error reply: {error}")),
            Ok(Err(error)) => Err(format!("undecodable reply: {error}")),
            Err(error) => Err(format!("transport: {error}")),
        };
        match outcome {
            Ok(report) => {
                tally.latency[slot].record(t3 - t1);
                let verified = counter.fetch_add(1, Ordering::Relaxed) + 1;
                if deadline.rss_after == Some(verified) {
                    tally.peak_rss_mb = Some(host::peak_rss_mb());
                }
                if keep_pairs && tally.pairs.len() < PROBE_PAIRS {
                    tally.pairs.push((source.request().clone(), report));
                }
            }
            Err(message) => tally.fail(message),
        }
        if let (Some(timed), Some(trace)) = (timed, tally.trace.as_mut()) {
            record_spans(trace, timed, connection, op, slot, [t0, t1, t2, t3]);
        }
        let checkpoint_passed = deadline
            .rss_after
            .is_none_or(|ops| counter.load(Ordering::Relaxed) >= ops);
        if transport_failed || t3 >= deadline.hard || (t3 >= deadline.soft && checkpoint_passed) {
            break;
        }
    }
    tally
}

const SPAN_NAMES: [[&str; 3]; 2] = [
    [
        "client.encode_json",
        "net.roundtrip_json",
        "client.decode_json",
    ],
    [
        "client.encode_bin",
        "net.roundtrip_bin",
        "client.decode_bin",
    ],
];

fn record_spans(
    trace: &mut ClientTrace,
    timed: &TimedHandler,
    connection: usize,
    op: u64,
    slot: usize,
    [t0, t1, t2, t3]: [Instant; 4],
) {
    trace.encode[slot].record(t1 - t0);
    trace.roundtrip[slot].record(t2 - t1);
    trace.decode[slot].record(t3 - t2);
    trace.op.record(t3 - t0);
    // The handshake was request 1 on this worker; op `k` is request k + 2.
    let handler = timed.latest(connection);
    let matched = handler.seq == op + 2 && handler.start >= t1 && handler.end <= t2;
    if matched {
        trace.handler.record(handler.end - handler.start);
        trace
            .wire_self
            .record((t2 - t1) - (handler.end - handler.start));
    } else {
        trace.unmatched += 1;
    }
    let Some(log) = trace.log.as_mut() else {
        return;
    };
    if !log.keeps(op) {
        return;
    }
    let id = (connection as u64) << 48 | op;
    let [encode, roundtrip, decode] = SPAN_NAMES[slot];
    log.push(id, 0, None, "client.op", t0, t3);
    log.push(id, 1, Some(0), encode, t0, t1);
    log.push(id, 2, Some(0), roundtrip, t1, t2);
    if matched {
        log.push(id, 3, Some(2), "handler.serve", handler.start, handler.end);
    }
    log.push(id, 4, Some(0), decode, t2, t3);
}

/// Recomputes the kept `serve_defect_sweep` replies serially and returns a
/// message per mismatch.
#[must_use]
pub fn recompute_checks(checks: &[(ReportRequest, PlatformReport)]) -> Vec<String> {
    checks
        .iter()
        .filter_map(|(request, report)| {
            match SimulationPlatform::new(request.effective_config()).evaluate() {
                Ok(serial) if serial == *report => None,
                Ok(_) => Some(format!(
                    "reply for {:?} differs from the serial evaluation",
                    request.defects
                )),
                Err(error) => Some(format!("serial recomputation failed: {error}")),
            }
        })
        .collect()
}
