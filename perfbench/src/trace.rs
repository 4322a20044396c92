//! Tracing from the benchmark's own code: in-memory spans around the calls
//! into each layer, a `Handler` wrapper that times the server-side handler,
//! and the counters behind the traced binary's counting allocator.
//!
//! Nothing here instruments the program; the spans sit at the boundaries
//! the benchmark itself crosses.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::thread::{self, ThreadId};
use std::time::Instant;

use decoder_sim::{PlatformReport, Result};
use mspt_serve::{Handler, ReportRequest, ReportServer};

/// Counters of the traced binary's global allocator. The untraced binary
/// installs no allocator of its own, so these stay zero there.
#[derive(Debug)]
pub struct AllocCounters {
    installed: AtomicBool,
    counting: AtomicBool,
    allocations: AtomicU64,
    live_bytes: AtomicI64,
}

/// The process-wide allocation counters.
pub static ALLOC: AllocCounters = AllocCounters {
    installed: AtomicBool::new(false),
    counting: AtomicBool::new(false),
    allocations: AtomicU64::new(0),
    live_bytes: AtomicI64::new(0),
};

impl AllocCounters {
    /// Marks the counting allocator as installed (traced binary only).
    pub fn install(&self) {
        self.installed.store(true, Ordering::Relaxed);
    }

    /// Whether a counting allocator feeds these counters.
    pub fn is_installed(&self) -> bool {
        self.installed.load(Ordering::Relaxed)
    }

    /// Turns counting on or off.
    pub fn set_counting(&self, on: bool) {
        self.counting.store(on, Ordering::SeqCst);
    }

    /// Called by the allocator on every allocation of `bytes`.
    #[inline]
    pub fn on_alloc(&self, bytes: usize) {
        if self.counting.load(Ordering::Relaxed) {
            self.allocations.fetch_add(1, Ordering::Relaxed);
            self.live_bytes.fetch_add(bytes as i64, Ordering::Relaxed);
        }
    }

    /// Called by the allocator on every deallocation of `bytes`.
    #[inline]
    pub fn on_dealloc(&self, bytes: usize) {
        if self.counting.load(Ordering::Relaxed) {
            self.live_bytes.fetch_sub(bytes as i64, Ordering::Relaxed);
        }
    }

    /// Allocations counted so far.
    pub fn allocations(&self) -> u64 {
        self.allocations.load(Ordering::Relaxed)
    }

    /// Bytes allocated minus bytes freed while counting.
    pub fn live_bytes(&self) -> i64 {
        self.live_bytes.load(Ordering::Relaxed)
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Operation id shared by every span of one operation.
    pub op: u64,
    /// Span id, unique within its operation.
    pub id: u32,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// Layer boundary the span covers.
    pub name: &'static str,
    /// Start, in nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace epoch.
    pub end_ns: u64,
}

/// Spans kept in memory until the run ends. Only the first `cap_ops`
/// operations are kept, so a long run cannot grow the log without bound;
/// the per-layer figures are aggregated over every operation separately.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    cap_ops: u64,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose timestamps count from `epoch`.
    #[must_use]
    pub fn new(epoch: Instant, cap_ops: u64) -> Self {
        SpanLog {
            epoch,
            cap_ops,
            spans: Vec::new(),
        }
    }

    /// Whether operation `op` is still within the kept prefix.
    #[must_use]
    pub fn keeps(&self, op: u64) -> bool {
        op < self.cap_ops
    }

    /// Records a span.
    pub fn push(
        &mut self,
        op: u64,
        id: u32,
        parent: Option<u32>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let ns = |at: Instant| at.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            op,
            id,
            parent,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        };
        self.spans.push(span);
    }

    /// Moves every span of `other` into this log.
    pub fn append(&mut self, other: &mut SpanLog) {
        self.spans.append(&mut other.spans);
    }

    /// Writes the spans as JSON lines.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = String::new();
        for span in &self.spans {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |id| id.to_string());
            let _ = writeln!(
                out,
                "{{\"op\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                span.op, span.id, parent, span.name, span.start_ns, span.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

/// The latest handler span of one worker thread.
#[derive(Debug, Clone, Copy)]
pub struct HandlerSpan {
    /// Requests this worker has served.
    pub seq: u64,
    /// When `Handler::serve` was entered.
    pub start: Instant,
    /// When it returned.
    pub end: Instant,
}

/// A [`Handler`] around [`ReportServer`] that times every `serve` call.
///
/// Each server worker owns one connection, so the worker thread identifies
/// the client request being served: worker slots are handed out in the
/// order threads first call in, and the benchmark makes connection `c`'s
/// first request before connection `c + 1`'s, so slot `c` belongs to
/// connection `c`. The client reads its slot after each reply.
#[derive(Debug)]
pub struct TimedHandler {
    inner: ReportServer,
    threads: Mutex<Vec<ThreadId>>,
    slots: Vec<Mutex<HandlerSpan>>,
}

impl TimedHandler {
    /// Wraps `inner` for a server with `workers` worker threads.
    #[must_use]
    pub fn new(inner: ReportServer, workers: usize) -> Self {
        let now = Instant::now();
        TimedHandler {
            inner,
            threads: Mutex::new(Vec::with_capacity(workers)),
            slots: (0..workers)
                .map(|_| {
                    Mutex::new(HandlerSpan {
                        seq: 0,
                        start: now,
                        end: now,
                    })
                })
                .collect(),
        }
    }

    /// Number of worker threads that have served a request.
    #[must_use]
    pub fn registered(&self) -> usize {
        self.threads
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// The latest span of worker slot `slot`.
    #[must_use]
    pub fn latest(&self, slot: usize) -> HandlerSpan {
        *self.slots[slot]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn slot_of_current_thread(&self) -> Option<usize> {
        let current = thread::current().id();
        let mut threads = self.threads.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(slot) = threads.iter().position(|&id| id == current) {
            return Some(slot);
        }
        if threads.len() == self.slots.len() {
            return None;
        }
        threads.push(current);
        Some(threads.len() - 1)
    }
}

impl Handler for TimedHandler {
    fn serve(&self, request: &ReportRequest) -> Result<PlatformReport> {
        let start = Instant::now();
        let result = self.inner.serve(request);
        let end = Instant::now();
        if let Some(slot) = self.slot_of_current_thread() {
            let mut span = self.slots[slot]
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            span.seq += 1;
            span.start = start;
            span.end = end;
        }
        result
    }
}
