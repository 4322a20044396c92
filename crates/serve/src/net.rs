//! The framed-TCP transport: a real socket under the serve layer, std only.
//!
//! # Protocol
//!
//! Connections carry a sequence of **frames**: a 4-byte big-endian length
//! prefix followed by that many bytes of one wire document — UTF-8 JSON
//! (the in-process [`handle_json`] documents) or the compact binary codec
//! ([`crate::binwire`]), told apart by the payload's first byte. Each
//! request frame produces exactly one response frame on the same
//! connection, in order, **in the codec the request arrived in** — codec
//! choice is per frame, so JSON-era clients keep working unchanged. Frames
//! above [`MAX_FRAME_BYTES`] are rejected with a typed `bad_request`
//! response. Accept-time `overloaded` sheds are written before the client
//! has revealed a codec and are therefore always JSON; binary clients
//! handle them by routing received frames through
//! [`crate::binwire::parse_reply_any`].
//!
//! Both ends read a connection through one per-connection frame reader
//! whose buffer and offset survive the server's poll timeouts, so a frame
//! that arrives in pieces — a prefix, a pause, then the payload — is
//! reassembled rather than desynchronising the stream, and one `read`
//! takes prefix and payload when both have arrived. The length prefix is
//! checked against [`MAX_FRAME_BYTES`] before the buffer grows for it, and
//! a peer that stalls mid-frame for longer than a fixed per-frame deadline
//! is closed.
//!
//! # Pool, backpressure, shed
//!
//! [`NetServer::bind`] starts one acceptor thread and a fixed pool of
//! [`ServeConfig::workers`] worker threads. Accepted connections enter a
//! **bounded** dispatch queue ([`ServeConfig::queue_bound`]); each worker
//! owns one connection at a time for that connection's lifetime. When every
//! worker is busy and the queue is full, the acceptor **sheds** the new
//! connection explicitly: one framed, typed `overloaded` error response,
//! then an orderly close ([`ShedPolicy::Reply`]) — never a hang and never a
//! silent drop. Clients distinguish the shed from a real failure by its
//! wire kind and may retry later.
//!
//! # Graceful shutdown
//!
//! [`NetServerHandle::shutdown`] stops accepting, then **drains**: every
//! connection already accepted (in a worker or still queued) gets
//! [`ServeConfig::drain_grace`] to flush its in-flight requests — frames
//! that arrive within the grace window are served and answered — before the
//! connection closes. Only then do the threads exit.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use decoder_sim::{Result, WireErrorKind};

use crate::binwire::handle_bin;
use crate::wire::{error_response, wire_err, WireError};
use crate::{handle_json, Handler};

/// Environment variable naming the TCP bind address (`host:port`; port 0
/// asks the OS for a free port).
pub const NET_ADDR_ENV: &str = "MSPT_NET_ADDR";
/// Environment variable naming the worker-thread count.
pub const NET_WORKERS_ENV: &str = "MSPT_NET_WORKERS";
/// Environment variable naming the bounded dispatch-queue length.
pub const NET_QUEUE_ENV: &str = "MSPT_NET_QUEUE";
/// Environment variable naming the shed policy (`reply` or `close`).
pub const NET_SHED_ENV: &str = "MSPT_NET_SHED";
/// Environment variable naming the graceful-shutdown drain grace in
/// milliseconds.
pub const NET_DRAIN_MS_ENV: &str = "MSPT_NET_DRAIN_MS";

/// Upper bound on a single frame's payload, so a corrupt or hostile length
/// prefix cannot make a worker allocate unbounded memory.
pub const MAX_FRAME_BYTES: u32 = 16 * 1024 * 1024;

/// How often a worker blocked on an idle connection wakes to re-check the
/// shutdown flag, and how often the acceptor polls for new connections.
const POLL_INTERVAL: Duration = Duration::from_millis(25);
const ACCEPT_POLL: Duration = Duration::from_millis(1);

/// What the acceptor does with a connection it cannot enqueue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShedPolicy {
    /// Write one framed, typed `overloaded` error response, then close —
    /// the client sees *why* it was refused. The default.
    #[default]
    Reply,
    /// Close immediately without a response (for clients that cannot parse
    /// a response before their first request anyway).
    Close,
}

impl ShedPolicy {
    fn from_env_str(value: &str) -> Option<ShedPolicy> {
        match value.trim() {
            "reply" => Some(ShedPolicy::Reply),
            "close" => Some(ShedPolicy::Close),
            _ => None,
        }
    }
}

/// Typed transport configuration, parsed **once** from the `MSPT_NET_*`
/// environment knobs by [`ServeConfig::from_env`] instead of scattering
/// `std::env::var` reads through binaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Bind address (`host:port`; port 0 picks a free port). Default
    /// `127.0.0.1:0`.
    pub bind_addr: String,
    /// Fixed worker-pool size: connections served concurrently. Default:
    /// available parallelism.
    pub workers: usize,
    /// Bound of the accept/dispatch queue: connections that may wait for a
    /// worker before the acceptor starts shedding. Default 64.
    pub queue_bound: usize,
    /// What to do with a connection when the queue is full.
    pub shed_policy: ShedPolicy,
    /// How long a draining shutdown waits for in-flight frames per
    /// connection. Default 250 ms.
    pub drain_grace: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            bind_addr: "127.0.0.1:0".to_string(),
            workers: thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get),
            queue_bound: 64,
            shed_policy: ShedPolicy::default(),
            drain_grace: Duration::from_millis(250),
        }
    }
}

impl ServeConfig {
    /// Reads the transport knobs from the environment once —
    /// [`NET_ADDR_ENV`], [`NET_WORKERS_ENV`], [`NET_QUEUE_ENV`],
    /// [`NET_SHED_ENV`], [`NET_DRAIN_MS_ENV`] — falling back to the
    /// defaults for unset or unparsable values.
    #[must_use]
    pub fn from_env() -> Self {
        let default = ServeConfig::default();
        ServeConfig {
            bind_addr: std::env::var(NET_ADDR_ENV)
                .ok()
                .filter(|addr| !addr.trim().is_empty())
                .unwrap_or(default.bind_addr),
            workers: crate::env_usize(NET_WORKERS_ENV, default.workers).max(1),
            queue_bound: crate::env_usize(NET_QUEUE_ENV, default.queue_bound),
            shed_policy: std::env::var(NET_SHED_ENV)
                .ok()
                .and_then(|value| ShedPolicy::from_env_str(&value))
                .unwrap_or(default.shed_policy),
            drain_grace: Duration::from_millis(env_ms(NET_DRAIN_MS_ENV, 250)),
        }
    }
}

fn env_ms(name: &str, default: u64) -> u64 {
    crate::env_u64(name, default)
}

/// Writes one length-prefixed frame as a single `prefix ‖ payload` buffer,
/// so the peer never sees the prefix arrive without its payload because
/// the writer was descheduled between two writes.
///
/// # Errors
///
/// Propagates I/O failures; payloads above [`MAX_FRAME_BYTES`] are an
/// [`io::ErrorKind::InvalidInput`] error.
pub fn write_frame(writer: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let length = u32::try_from(payload.len())
        .ok()
        .filter(|&length| length <= MAX_FRAME_BYTES)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("frame of {} bytes exceeds MAX_FRAME_BYTES", payload.len()),
            )
        })?;
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&length.to_be_bytes());
    frame.extend_from_slice(payload);
    writer.write_all(&frame)?;
    writer.flush()
}

/// What one [`FrameReader::step`] found.
#[derive(Debug)]
enum ReadStep {
    /// A whole frame arrived; its payload is [`FrameReader::frame`].
    Frame,
    /// The peer closed cleanly between frames.
    Eof,
    /// The read timed out; any partial frame stays buffered.
    Idle,
}

/// The receive side of one connection, on both ends. The bytes read so far
/// and the offset reached survive read timeouts, so a frame that arrives in
/// pieces is reassembled instead of desynchronising the stream, and one
/// `read` takes prefix and payload together when both have arrived.
struct FrameReader {
    /// Received bytes live in `buffer[..filled]`; the allocation is only
    /// grown past [`READ_BUFFER_BYTES`] for a frame whose validated prefix
    /// asks for it.
    buffer: Vec<u8>,
    filled: usize,
    /// Length (prefix included) of the frame the last step handed out,
    /// dropped at the next step.
    consumed: usize,
    /// When a poll first found the frame in progress incomplete.
    frame_started: Option<Instant>,
}

/// Receive-buffer size of a connection: several typical frames.
const READ_BUFFER_BYTES: usize = 8 * 1024;

/// Longest a peer may leave a frame incomplete, counted from the first
/// poll timeout that found it so. A peer stalled mid-frame past it is
/// closed.
const FRAME_DEADLINE: Duration = Duration::from_secs(5);

impl FrameReader {
    fn new() -> Self {
        FrameReader {
            buffer: vec![0; READ_BUFFER_BYTES],
            filled: 0,
            consumed: 0,
            frame_started: None,
        }
    }

    /// The payload of the frame the last [`FrameReader::step`] returned.
    fn frame(&self) -> &[u8] {
        &self.buffer[4..self.consumed]
    }

    /// The full length (prefix included) of the frame at the head of the
    /// buffer, once its prefix is in.
    fn head_frame_len(&self) -> io::Result<Option<usize>> {
        let Some(prefix) = self.buffer[..self.filled].first_chunk::<4>() else {
            return Ok(None);
        };
        let length = u32::from_be_bytes(*prefix);
        if length > MAX_FRAME_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame length {length} exceeds MAX_FRAME_BYTES"),
            ));
        }
        Ok(Some(4 + length as usize))
    }

    /// Reads until a whole frame is buffered, the peer closes, or the read
    /// times out.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures. A prefix above [`MAX_FRAME_BYTES`] is
    /// [`io::ErrorKind::InvalidData`], an EOF mid-frame
    /// [`io::ErrorKind::UnexpectedEof`], and a frame left incomplete past
    /// [`FRAME_DEADLINE`] [`io::ErrorKind::TimedOut`].
    fn step(&mut self, stream: &mut impl Read) -> io::Result<ReadStep> {
        if self.consumed > 0 {
            // Drop the frame handed out last time, keeping any bytes the
            // peer pipelined behind it.
            self.buffer.copy_within(self.consumed..self.filled, 0);
            self.filled -= self.consumed;
            self.consumed = 0;
            self.frame_started = None;
            if self.filled == 0 && self.buffer.len() > READ_BUFFER_BYTES {
                self.buffer.truncate(READ_BUFFER_BYTES);
                self.buffer.shrink_to_fit();
            }
        }
        loop {
            match self.head_frame_len()? {
                Some(total) if self.filled >= total => {
                    self.consumed = total;
                    return Ok(ReadStep::Frame);
                }
                Some(total) if self.buffer.len() < total => self.buffer.resize(total, 0),
                _ => {}
            }
            match stream.read(&mut self.buffer[self.filled..]) {
                Ok(0) if self.filled == 0 => return Ok(ReadStep::Eof),
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed mid-frame",
                    ))
                }
                Ok(read) => self.filled += read,
                Err(error) if error.kind() == io::ErrorKind::Interrupted => {}
                Err(error)
                    if matches!(
                        error.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    // The deadline runs from the first poll that found the
                    // frame incomplete, so the hot path reads no clock.
                    if self.filled > 0 {
                        let started = *self.frame_started.get_or_insert_with(Instant::now);
                        if started.elapsed() > FRAME_DEADLINE {
                            return Err(io::Error::new(
                                io::ErrorKind::TimedOut,
                                "peer stalled mid-frame",
                            ));
                        }
                    }
                    return Ok(ReadStep::Idle);
                }
                Err(error) => return Err(error),
            }
        }
    }
}

impl std::fmt::Debug for FrameReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameReader")
            .field("buffered", &(self.filled - self.consumed))
            .finish_non_exhaustive()
    }
}

/// A minimal bounded MPMC queue: `Mutex<VecDeque>` + `Condvar`. `try_push`
/// fails when full — that failure *is* the backpressure signal the acceptor
/// turns into a shed.
///
/// Poison policy: every mutation under the lock is a single structural step
/// (one push, one pop, one flag flip), so a panicking holder cannot leave
/// the queue half-updated; lock acquisition therefore recovers from
/// poisoning instead of cascading the panic into every worker — the server
/// must keep serving.
struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    available: Condvar,
}

struct QueueState<T> {
    items: std::collections::VecDeque<T>,
    bound: usize,
    closed: bool,
}

enum Popped<T> {
    Item(T),
    Empty,
    Closed,
}

impl<T> BoundedQueue<T> {
    fn new(bound: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(QueueState {
                items: std::collections::VecDeque::with_capacity(bound),
                bound,
                closed: false,
            }),
            available: Condvar::new(),
        }
    }

    /// Enqueues unless the queue is full or closed; returns the rejected
    /// item so the caller can shed it.
    fn try_push(&self, item: T) -> std::result::Result<(), T> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if state.closed || state.items.len() >= state.bound {
            return Err(item);
        }
        state.items.push_back(item);
        drop(state);
        self.available.notify_one();
        Ok(())
    }

    /// Pops an item, waiting up to `timeout`. A closed queue still yields
    /// its remaining items (shutdown drains them) before reporting
    /// `Closed`.
    fn pop_timeout(&self, timeout: Duration) -> Popped<T> {
        let deadline = Instant::now() + timeout;
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(item) = state.items.pop_front() {
                return Popped::Item(item);
            }
            if state.closed {
                return Popped::Closed;
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Popped::Empty;
            }
            let (next, result) = self
                .available
                .wait_timeout(state, remaining)
                .unwrap_or_else(PoisonError::into_inner);
            state = next;
            if result.timed_out() && state.items.is_empty() {
                return if state.closed {
                    Popped::Closed
                } else {
                    Popped::Empty
                };
            }
        }
    }

    fn close(&self) {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .closed = true;
        self.available.notify_all();
    }
}

#[derive(Debug, Default)]
struct NetCounters {
    /// Connections whose accept was fully handled (queued or shed).
    accepted: AtomicU64,
    /// Request frames for which a response was produced and handed to the
    /// transport, across all connections.
    served: AtomicU64,
    /// Connections refused with the shed policy because the queue was full.
    shed: AtomicU64,
}

/// The framed-TCP server: acceptor + fixed worker pool over any
/// [`Handler`]. Constructed via [`NetServer::bind`], controlled through the
/// returned [`NetServerHandle`].
#[derive(Debug)]
pub struct NetServer;

impl NetServer {
    /// Binds the listener and starts the acceptor and worker threads.
    /// `bind_addr` port 0 picks a free port — read the actual one from
    /// [`NetServerHandle::local_addr`].
    ///
    /// # Errors
    ///
    /// Returns a persistence error when the bind address is invalid or the
    /// listener cannot be created.
    pub fn bind(config: ServeConfig, handler: Arc<dyn Handler>) -> Result<NetServerHandle> {
        let listener = TcpListener::bind(&config.bind_addr)
            .map_err(|error| wire_err(format!("bind {}: {error}", config.bind_addr)))?;
        let local_addr = listener
            .local_addr()
            .map_err(|error| wire_err(format!("local_addr: {error}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|error| wire_err(format!("set_nonblocking: {error}")))?;

        let shutdown = Arc::new(AtomicBool::new(false));
        let queue = Arc::new(BoundedQueue::new(config.queue_bound));
        let counters = Arc::new(NetCounters::default());

        let workers = (0..config.workers.max(1))
            .map(|_| {
                let queue = Arc::clone(&queue);
                let handler = Arc::clone(&handler);
                let shutdown = Arc::clone(&shutdown);
                let counters = Arc::clone(&counters);
                let drain_grace = config.drain_grace;
                thread::spawn(move || {
                    worker_loop(&queue, handler.as_ref(), &shutdown, &counters, drain_grace);
                })
            })
            .collect();

        let acceptor = {
            let queue = Arc::clone(&queue);
            let shutdown = Arc::clone(&shutdown);
            let counters = Arc::clone(&counters);
            let shed_policy = config.shed_policy;
            thread::spawn(move || {
                accept_loop(&listener, &queue, &shutdown, &counters, shed_policy);
            })
        };

        Ok(NetServerHandle {
            local_addr,
            config,
            shutdown,
            queue,
            counters,
            acceptor: Some(acceptor),
            workers,
        })
    }
}

fn accept_loop(
    listener: &TcpListener,
    queue: &BoundedQueue<TcpStream>,
    shutdown: &AtomicBool,
    counters: &NetCounters,
    shed_policy: ShedPolicy,
) {
    while !shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nodelay(true).ok();
                if let Err(rejected) = queue.try_push(stream) {
                    // Counted before the reply goes out, so a client that
                    // has read the typed shed and its EOF sees the count.
                    counters.shed.fetch_add(1, Ordering::Relaxed);
                    shed_connection(rejected, shed_policy);
                }
                // Incremented after the queue/shed decision so observers
                // that wait on this counter know the dispatch outcome of
                // every counted connection is final.
                counters.accepted.fetch_add(1, Ordering::Release);
            }
            Err(error) if error.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(ACCEPT_POLL);
            }
            Err(_) => thread::sleep(ACCEPT_POLL),
        }
    }
}

fn shed_connection(mut stream: TcpStream, policy: ShedPolicy) {
    if policy == ShedPolicy::Reply {
        stream.set_nonblocking(false).ok();
        let response = error_response(&WireError::new(
            WireErrorKind::Overloaded,
            "server overloaded: dispatch queue full, retry later",
        ));
        write_frame(&mut stream, response.as_bytes()).ok();
        stream.shutdown(std::net::Shutdown::Write).ok();
    }
    // Dropping the stream closes it; with `Reply` the response frame is
    // already flushed, so the client reads the typed shed, then EOF.
}

fn worker_loop(
    queue: &BoundedQueue<TcpStream>,
    handler: &dyn Handler,
    shutdown: &AtomicBool,
    counters: &NetCounters,
    drain_grace: Duration,
) {
    loop {
        match queue.pop_timeout(POLL_INTERVAL) {
            Popped::Item(stream) => {
                serve_connection(stream, handler, shutdown, counters, drain_grace);
            }
            Popped::Empty => {}
            Popped::Closed => return,
        }
    }
}

/// Serves one connection until EOF, an I/O failure, or a draining shutdown.
fn serve_connection(
    mut stream: TcpStream,
    handler: &dyn Handler,
    shutdown: &AtomicBool,
    counters: &NetCounters,
    drain_grace: Duration,
) {
    // The stream came from a non-blocking listener; reads must block (with
    // a poll timeout) from here on.
    if stream.set_nonblocking(false).is_err()
        || stream.set_read_timeout(Some(POLL_INTERVAL)).is_err()
    {
        return;
    }
    let mut reader = FrameReader::new();
    let mut drain_deadline: Option<Instant> = None;
    loop {
        if drain_deadline.is_none() && shutdown.load(Ordering::Acquire) {
            // Shutdown started: this connection gets one grace window to
            // flush requests already in flight, then closes.
            let deadline = Instant::now() + drain_grace;
            if stream.set_read_timeout(Some(drain_grace)).is_err() {
                return;
            }
            drain_deadline = Some(deadline);
        }
        if let Some(deadline) = drain_deadline {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return;
            }
            if stream.set_read_timeout(Some(remaining)).is_err() {
                return;
            }
        }
        match reader.step(&mut stream) {
            Ok(ReadStep::Frame) => {
                let frame = reader.frame();
                // Per-frame codec negotiation: a binary request frame gets a
                // binary reply, anything else goes down the JSON path (whose
                // typed bad_request covers non-UTF-8 garbage too), so a
                // JSON-era client never sees a byte it cannot parse.
                let response = if decoder_sim::bincodec::is_binary(frame) {
                    handle_bin(handler, frame)
                } else {
                    match std::str::from_utf8(frame) {
                        Ok(request_json) => handle_json(handler, request_json).into_bytes(),
                        Err(_) => error_response(&WireError::new(
                            WireErrorKind::BadRequest,
                            "request frame is not valid UTF-8",
                        ))
                        .into_bytes(),
                    }
                };
                // Counted before the write: a client that has *received* its
                // response must already observe the increment, so the counter
                // can never lag behind what clients have seen.
                counters.served.fetch_add(1, Ordering::Relaxed);
                if write_frame(&mut stream, &response).is_err() {
                    return;
                }
            }
            Ok(ReadStep::Eof) | Err(_) => return,
            Ok(ReadStep::Idle) => {
                // In drain mode an idle window the size of the remaining
                // grace means the client has nothing more in flight.
                if drain_deadline.is_some() {
                    return;
                }
            }
        }
    }
}

/// Control handle of a running [`NetServer`]: address, counters, graceful
/// shutdown. Dropping the handle shuts the server down gracefully too.
#[derive(Debug)]
pub struct NetServerHandle {
    local_addr: SocketAddr,
    config: ServeConfig,
    shutdown: Arc<AtomicBool>,
    queue: Arc<BoundedQueue<TcpStream>>,
    counters: Arc<NetCounters>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

// BoundedQueue is an internal type; keep the handle's Debug readable.
impl<T> std::fmt::Debug for BoundedQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoundedQueue").finish_non_exhaustive()
    }
}

impl NetServerHandle {
    /// The address the listener actually bound (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The configuration the server was started with.
    #[must_use]
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Connections whose accept has been fully handled — dispatched to the
    /// queue or shed. Monotonic; used by tests and the shed probe to
    /// sequence deterministically against the acceptor.
    #[must_use]
    pub fn accepted(&self) -> u64 {
        self.counters.accepted.load(Ordering::Acquire)
    }

    /// Request frames answered across all connections.
    #[must_use]
    pub fn served(&self) -> u64 {
        self.counters.served.load(Ordering::Relaxed)
    }

    /// Connections refused because the dispatch queue was full.
    #[must_use]
    pub fn shed(&self) -> u64 {
        self.counters.shed.load(Ordering::Relaxed)
    }

    /// Gracefully shuts the server down: stop accepting, drain in-flight
    /// requests (each accepted connection gets [`ServeConfig::drain_grace`]
    /// to flush what it already sent), join every thread.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(acceptor) = self.acceptor.take() {
            acceptor.join().ok();
        }
        // No new connections can arrive now; closing the queue lets workers
        // drain the remaining accepted connections and then exit.
        self.queue.close();
        for worker in self.workers.drain(..) {
            worker.join().ok();
        }
    }
}

impl Drop for NetServerHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// A blocking framed-TCP client: the other half of the protocol, used by
/// the loadgen, the integration tests, and as a reference implementation
/// for external clients.
#[derive(Debug)]
pub struct NetClient {
    stream: TcpStream,
    reader: FrameReader,
}

impl NetClient {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Returns a persistence error when the connection cannot be
    /// established.
    pub fn connect<A: ToSocketAddrs + std::fmt::Debug>(addr: A) -> Result<Self> {
        let stream = TcpStream::connect(&addr)
            .map_err(|error| wire_err(format!("connect {addr:?}: {error}")))?;
        stream.set_nodelay(true).ok();
        Ok(NetClient {
            stream,
            reader: FrameReader::new(),
        })
    }

    /// Sends one request frame without waiting for the response.
    ///
    /// # Errors
    ///
    /// Returns a persistence error on I/O failure.
    pub fn send(&mut self, request_json: &str) -> Result<()> {
        write_frame(&mut self.stream, request_json.as_bytes())
            .map_err(|error| wire_err(format!("send frame: {error}")))
    }

    /// Receives one response frame; `Ok(None)` is a clean server-side
    /// close.
    ///
    /// # Errors
    ///
    /// Returns a persistence error on I/O failure or a non-UTF-8 frame.
    pub fn recv(&mut self) -> Result<Option<String>> {
        self.recv_bytes()?
            .map(|frame| {
                String::from_utf8(frame).map_err(|_| wire_err("response frame is not valid UTF-8"))
            })
            .transpose()
    }

    /// One full round trip: send a request frame, block for the response
    /// frame.
    ///
    /// # Errors
    ///
    /// Returns a persistence error on I/O failure or when the server closes
    /// without responding.
    pub fn call(&mut self, request_json: &str) -> Result<String> {
        self.send(request_json)?;
        self.recv()?
            .ok_or_else(|| wire_err("server closed the connection without a response"))
    }

    /// Sends one raw request frame — the binary-codec counterpart of
    /// [`NetClient::send`].
    ///
    /// # Errors
    ///
    /// Returns a persistence error on I/O failure.
    pub fn send_bytes(&mut self, request: &[u8]) -> Result<()> {
        write_frame(&mut self.stream, request)
            .map_err(|error| wire_err(format!("send frame: {error}")))
    }

    /// Receives one raw response frame; `Ok(None)` is a clean server-side
    /// close. The frame may be in either codec (an accept-time shed is
    /// always JSON) — decode it with [`crate::binwire::parse_reply_any`].
    ///
    /// # Errors
    ///
    /// Returns a persistence error on I/O failure.
    pub fn recv_bytes(&mut self) -> Result<Option<Vec<u8>>> {
        match self.reader.step(&mut self.stream) {
            Ok(ReadStep::Frame) => Ok(Some(self.reader.frame().to_vec())),
            Ok(ReadStep::Eof) => Ok(None),
            Ok(ReadStep::Idle) => Err(wire_err("recv frame: timed out")),
            Err(error) => Err(wire_err(format!("recv frame: {error}"))),
        }
    }

    /// One full raw round trip: send a request frame, block for the
    /// response frame.
    ///
    /// # Errors
    ///
    /// Returns a persistence error on I/O failure or when the server closes
    /// without responding.
    pub fn call_bytes(&mut self, request: &[u8]) -> Result<Vec<u8>> {
        self.send_bytes(request)?;
        self.recv_bytes()?
            .ok_or_else(|| wire_err("server closed the connection without a response"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The next frame `reader` finds in `source`: `Some(payload)`, or
    /// `None` at a clean end of stream.
    fn next_frame(reader: &mut FrameReader, source: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
        Ok(match reader.step(source)? {
            ReadStep::Frame => Some(reader.frame().to_vec()),
            ReadStep::Eof => None,
            ReadStep::Idle => panic!("a buffer never times out"),
        })
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut buffer = Vec::new();
        write_frame(&mut buffer, b"{\"a\":1}").unwrap();
        write_frame(&mut buffer, b"").unwrap();
        let mut cursor = io::Cursor::new(buffer);
        let mut reader = FrameReader::new();
        assert_eq!(
            next_frame(&mut reader, &mut cursor).unwrap().unwrap(),
            b"{\"a\":1}"
        );
        assert_eq!(next_frame(&mut reader, &mut cursor).unwrap().unwrap(), b"");
        assert_eq!(next_frame(&mut reader, &mut cursor).unwrap(), None);
    }

    /// A writer that accepts everything and counts its `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_sent_in_one_write() {
        let mut writer = CountingWriter::default();
        write_frame(&mut writer, b"{\"a\":1}").unwrap();
        assert_eq!(writer.writes, 1, "prefix and payload went out separately");
        let mut cursor = io::Cursor::new(writer.bytes);
        let frame = next_frame(&mut FrameReader::new(), &mut cursor).unwrap();
        assert_eq!(frame.unwrap(), b"{\"a\":1}");
    }

    #[test]
    fn oversized_and_truncated_frames_are_rejected() {
        // The bound is checked on the prefix, before anything is allocated.
        let oversized = (MAX_FRAME_BYTES + 1).to_be_bytes().to_vec();
        let mut reader = FrameReader::new();
        let error = next_frame(&mut reader, &mut io::Cursor::new(oversized)).unwrap_err();
        assert_eq!(error.kind(), io::ErrorKind::InvalidData);
        assert_eq!(reader.buffer.len(), READ_BUFFER_BYTES);

        let mut truncated = Vec::new();
        write_frame(&mut truncated, b"full frame").unwrap();
        truncated.truncate(truncated.len() - 3);
        let mut reader = FrameReader::new();
        assert!(next_frame(&mut reader, &mut io::Cursor::new(truncated)).is_err());

        // A partial header is an error too, not a clean EOF.
        let mut reader = FrameReader::new();
        assert_eq!(
            next_frame(&mut reader, &mut io::Cursor::new(vec![0u8, 0]))
                .unwrap_err()
                .kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    /// Replays scripted reads: each `Some` chunk is delivered (split if the
    /// caller's buffer is smaller), each `None` is a poll timeout, and the
    /// end of the script is EOF.
    struct Script {
        reads: std::collections::VecDeque<Option<Vec<u8>>>,
        calls: usize,
    }

    impl Script {
        fn new(reads: Vec<Option<Vec<u8>>>) -> Self {
            Script {
                reads: reads.into(),
                calls: 0,
            }
        }
    }

    impl Read for Script {
        fn read(&mut self, buffer: &mut [u8]) -> io::Result<usize> {
            self.calls += 1;
            match self.reads.pop_front() {
                None => Ok(0),
                Some(None) => Err(io::ErrorKind::WouldBlock.into()),
                Some(Some(chunk)) => {
                    let read = chunk.len().min(buffer.len());
                    buffer[..read].copy_from_slice(&chunk[..read]);
                    if read < chunk.len() {
                        self.reads.push_front(Some(chunk[read..].to_vec()));
                    }
                    Ok(read)
                }
            }
        }
    }

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut frame = Vec::new();
        write_frame(&mut frame, payload).unwrap();
        frame
    }

    fn expect_frame(reader: &mut FrameReader, script: &mut Script, payload: &[u8]) {
        assert!(matches!(reader.step(script), Ok(ReadStep::Frame)));
        assert_eq!(reader.frame(), payload);
    }

    #[test]
    fn frame_reader_reassembles_frames_split_across_poll_timeouts() {
        let first = framed(b"{\"split\":true}");
        let second = framed(b"pipelined");
        let mut tail = first[6..].to_vec();
        tail.extend_from_slice(&second);
        let mut script = Script::new(vec![
            Some(first[..2].to_vec()),
            None,
            Some(first[2..4].to_vec()),
            None,
            Some(first[4..6].to_vec()),
            None,
            Some(tail),
        ]);
        let mut reader = FrameReader::new();
        for _ in 0..3 {
            assert!(matches!(reader.step(&mut script), Ok(ReadStep::Idle)));
        }
        expect_frame(&mut reader, &mut script, b"{\"split\":true}");
        // The frame pipelined behind it is served without another read.
        let calls = script.calls;
        expect_frame(&mut reader, &mut script, b"pipelined");
        assert_eq!(script.calls, calls);
        assert!(matches!(reader.step(&mut script), Ok(ReadStep::Eof)));
    }

    #[test]
    fn frame_reader_takes_prefix_and_payload_in_one_read() {
        let mut script = Script::new(vec![Some(framed(b"whole"))]);
        let mut reader = FrameReader::new();
        expect_frame(&mut reader, &mut script, b"whole");
        assert_eq!(script.calls, 1);
    }

    #[test]
    fn frame_reader_grows_for_large_frames_and_shrinks_back() {
        let large = vec![7u8; 3 * READ_BUFFER_BYTES];
        let mut script = Script::new(vec![Some(framed(&large)), Some(framed(b"small"))]);
        let mut reader = FrameReader::new();
        expect_frame(&mut reader, &mut script, &large);
        expect_frame(&mut reader, &mut script, b"small");
        assert_eq!(reader.buffer.len(), READ_BUFFER_BYTES);
    }

    #[test]
    fn frame_reader_closes_a_peer_stalled_past_the_frame_deadline() {
        let mut reader = FrameReader::new();
        let mut script = Script::new(vec![Some(vec![0, 0]), None, None]);
        assert!(matches!(reader.step(&mut script), Ok(ReadStep::Idle)));
        reader.frame_started = Some(Instant::now() - FRAME_DEADLINE - Duration::from_millis(1));
        let error = reader.step(&mut script).unwrap_err();
        assert_eq!(error.kind(), io::ErrorKind::TimedOut);
    }

    #[test]
    fn bounded_queue_sheds_when_full_and_drains_when_closed() {
        let queue = BoundedQueue::new(2);
        assert!(queue.try_push(1).is_ok());
        assert!(queue.try_push(2).is_ok());
        assert_eq!(queue.try_push(3).unwrap_err(), 3);
        queue.close();
        // Remaining items still drain after close…
        assert!(matches!(
            queue.pop_timeout(Duration::from_millis(1)),
            Popped::Item(1)
        ));
        assert!(matches!(
            queue.pop_timeout(Duration::from_millis(1)),
            Popped::Item(2)
        ));
        // …then the queue reports closed, and rejects new pushes.
        assert!(matches!(
            queue.pop_timeout(Duration::from_millis(1)),
            Popped::Closed
        ));
        assert_eq!(queue.try_push(4).unwrap_err(), 4);
    }

    #[test]
    fn serve_config_env_parsing_falls_back_on_garbage() {
        // from_env must never panic on unparsable values; defaults win.
        // (Set-and-unset is safe here: Rust tests in this module that touch
        // these variables run in this one process, and no other test reads
        // them.)
        std::env::set_var(NET_WORKERS_ENV, "not-a-number");
        std::env::set_var(NET_SHED_ENV, "panic");
        let config = ServeConfig::from_env();
        std::env::remove_var(NET_WORKERS_ENV);
        std::env::remove_var(NET_SHED_ENV);
        assert_eq!(config.workers, ServeConfig::default().workers);
        assert_eq!(config.shed_policy, ShedPolicy::Reply);
    }
}
