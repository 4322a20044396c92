//! The sharded, bounded, single-flight memo table behind the stage graph,
//! and the report cache that is its `Composite` slot.
//!
//! The sharding / LRU / single-flight machinery lives in the generic
//! [`MemoCache`]; every slot of [`crate::stage::StageCache`] is an
//! instantiation of it — one set of counters, bounds and single-flight
//! semantics for every memoized quantity in the workspace. [`ReportCache`]
//! is the slot for [`Stage::Composite`](crate::Stage::Composite), the
//! fully composed [`PlatformReport`]; it adds snapshot persistence on top.
//!
//! # Design
//!
//! * **Sharding.** Entries are spread over [`CacheConfig::shards`] independent
//!   `Mutex`-guarded shards, selected by the key's fingerprint, so
//!   concurrent clients touching different configurations rarely contend on
//!   one lock.
//! * **Bounded LRU.** Each shard holds at most `ceil(capacity / shards)`
//!   entries and evicts its least-recently-used entry beyond that (recency is
//!   a global atomic tick, so LRU order is exact within a shard; with one
//!   shard it is exact globally — the configuration the eviction tests use).
//!   The shard count is clamped to at most `capacity`, so a tiny capacity is
//!   an exact single-shard bound rather than one-per-shard over-retention;
//!   capacity `0` disables storage entirely.
//! * **Single-flight.** Concurrent identical requests block on one in-flight
//!   evaluation via `Mutex` + `Condvar` (std only — crates.io is unreachable
//!   here): the first requester computes, every waiter is then served the
//!   cached result. If the leader fails, waiters retake the lead one at a
//!   time instead of hanging.
//! * **Counters.** Hits, misses and evictions are atomic counters readable at
//!   any time through [`ReportCache::stats`]; the serve stress gate derives
//!   its hit-rate assertions from them.
//! * **Persistence.** [`ReportCache::save_to_path`] writes a versioned
//!   snapshot (`schema_version` [`CACHE_SCHEMA_VERSION`]) that
//!   [`ReportCache::load_from_path`] restores bit-identically; a mismatched
//!   schema version is rejected, never reinterpreted. Snapshots are bounded
//!   to the configured capacity on save (over-retained shard overflow is
//!   dropped, most-recently-used entries win), so the persisted file cannot
//!   grow without bound across warm restarts.
//!
//! # Snapshot formats
//!
//! Two snapshot encodings share the schema version and the loader:
//!
//! * **Binary** (the default): a [`crate::bincodec`] document
//!   ([`bincodec::DOC_SNAPSHOT`]) holding a header section and one section
//!   per row — a write timestamp, the entry's memo fingerprint, and the
//!   nested binary config/report documents. Saving over an existing binary
//!   snapshot **appends** only the rows whose memo key the file does not
//!   already hold (an O(new) write instead of a full rewrite), falling back
//!   to a compacting rewrite when the combined row count would exceed the
//!   capacity bound or the existing file is unreadable or holds a key
//!   twice. The file's keys are recomputed from its decoded configurations,
//!   never read from the stored fingerprints, so rows written under an
//!   earlier keying are recognised.
//! * **JSON** (set `MSPT_CACHE_FORMAT=json`): the PR 5/6-era text format,
//!   kept for inspectability; always a full rewrite.
//!
//! [`ReportCache::load_from_path`] auto-detects the format from the first
//! byte (binary documents open with `0xB1`, JSON with `{`), so JSON-era
//! snapshot files keep loading unchanged. Binary rows carry the time they
//! were written; a positive `MSPT_CACHE_MAX_AGE_SECS` drops rows older than
//! that bound at load, so a long-lived warm file cannot resurrect reports
//! from arbitrarily far in the past.
//!
//! # Cache-key identity
//!
//! Reports are keyed by the composite stage key — exactly the [`SimConfig`]
//! fields [`Stage::Composite`](crate::Stage::Composite) reads, its
//! [`DefectKind`](crate::DefectKind) included — and its stage fingerprint.
//! A defect-free and a defective run (or two defect seeds) with the same
//! platform parameters therefore never alias, in memory or on disk, while
//! configurations differing only in fields no report depends on (the
//! disturbance kind and the Monte-Carlo knobs) share one entry. The full
//! key words are re-checked on every lookup, so a fingerprint collision can
//! cost a duplicate evaluation but never serve the wrong report. Each entry
//! keeps the configuration it was first computed for, so snapshots carry a
//! complete config per row; loading recomputes the key from that config, so
//! files written under the earlier full-config keying still load.

use std::collections::{BTreeSet, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{SystemTime, UNIX_EPOCH};

use crossbar_array::chunk_seed;

use crate::bincodec::{self, BinReader, BinWriter};
use crate::codec::{
    canonical_config_string, config_from_json, config_to_json, report_from_json, report_to_json,
    write_array, write_object, JsonTape,
};
use crate::config::SimConfig;
use crate::error::{Result, SimError};
use crate::platform::PlatformReport;
use crate::stage::{Stage, StageKey};

/// Environment variable overriding the default capacity of every memo slot
/// (the report slot included).
pub const CACHE_CAPACITY_ENV: &str = "MSPT_CACHE_CAPACITY";

/// Environment variable naming the warm-cache persistence file `run_all` and
/// the serve stress bin load on start and save on exit.
pub const CACHE_PATH_ENV: &str = "MSPT_CACHE_PATH";

/// Environment variable selecting the snapshot encoding `save_to_path`
/// writes: `binary` (the default — compact, append-friendly) or `json`
/// (the PR 5/6-era text format, kept for inspectability). Loading
/// auto-detects the format, so this knob never affects reads.
pub const CACHE_FORMAT_ENV: &str = "MSPT_CACHE_FORMAT";

/// Environment variable bounding the age, in seconds, of binary snapshot
/// rows at load: rows written longer ago than this are skipped. Unset or
/// `0` disables the bound. JSON snapshots carry no timestamps and are never
/// age-bounded.
pub const CACHE_MAX_AGE_ENV: &str = "MSPT_CACHE_MAX_AGE_SECS";

/// Schema version of the persisted snapshot format. Bump on any change to
/// the on-disk layout; loaders reject every other version.
pub const CACHE_SCHEMA_VERSION: u64 = 1;

/// Default bound on the entries of each memo slot (far above the paper's
/// sweep-point count, so default runs never evict).
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// Default shard count of the cache.
pub const DEFAULT_CACHE_SHARDS: usize = 8;

/// Domain-separation tag of [`ReportCache::fingerprint`], mixed in before
/// the [`chunk_seed`] finalizer. Keeps that key stream decorrelated from
/// the Monte-Carlo and defect-map seed domains, exactly like the defect
/// layer's own domain tag.
const CACHE_KEY_DOMAIN: u64 = 0xcac4_e4e7_5e12_7a03;

/// Binary snapshot section carrying the cache schema version (`u64` body).
/// Must precede every row section.
const TAG_SNAPSHOT_HEADER: u8 = 0x01;

/// Binary snapshot section carrying one cached entry: save timestamp
/// (`u64` Unix seconds), memo fingerprint (`u64`), then the length-prefixed
/// config and report [`crate::bincodec`] documents.
const TAG_SNAPSHOT_ROW: u8 = 0x02;

/// Knobs of a memo table: every stage slot, the report slot included.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Upper bound on stored entries. `0` disables storage (every request
    /// recomputes). The bound is enforced per shard as
    /// `ceil(capacity / shards)`, so it is exact when `shards` divides
    /// `capacity` (true for the defaults) or for a single shard, and never
    /// exceeded by more than `shards − 1` entries otherwise. The shard count
    /// is clamped to at most `capacity`, so tiny capacities degenerate to
    /// exact single-shard LRU instead of over-retaining.
    pub capacity: usize,
    /// Number of independently locked shards (clamped to at least one, and
    /// to at most `capacity` when the capacity is positive).
    pub shards: usize,
}

impl CacheConfig {
    /// A single-shard configuration: exact global LRU order, at the price of
    /// one lock — what the eviction-order tests and small caches want.
    #[must_use]
    pub fn unsharded(capacity: usize) -> Self {
        CacheConfig {
            capacity,
            shards: 1,
        }
    }
}

impl Default for CacheConfig {
    /// Capacity: the `MSPT_CACHE_CAPACITY` environment variable when set to a
    /// valid integer (zero allowed — it disables caching), otherwise
    /// [`DEFAULT_CACHE_CAPACITY`]. Shards: [`DEFAULT_CACHE_SHARDS`].
    fn default() -> Self {
        CacheConfig {
            capacity: default_capacity(),
            shards: DEFAULT_CACHE_SHARDS,
        }
    }
}

fn default_capacity() -> usize {
    if let Ok(value) = std::env::var(CACHE_CAPACITY_ENV) {
        if let Ok(parsed) = value.trim().parse::<usize>() {
            return parsed;
        }
    }
    DEFAULT_CACHE_CAPACITY
}

/// The encoding [`ReportCache::save_to_path`] writes. Loading always
/// auto-detects, so the choice only affects new snapshot files.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SnapshotFormat {
    /// Compact [`crate::bincodec`] document; saves append new rows to an
    /// existing binary file instead of rewriting it.
    #[default]
    Binary,
    /// The PR 5/6-era JSON text format; always a full rewrite.
    Json,
}

impl SnapshotFormat {
    /// Reads [`CACHE_FORMAT_ENV`]: `json` (any case) selects JSON,
    /// everything else — including unset — selects binary.
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var(CACHE_FORMAT_ENV) {
            Ok(value) if value.trim().eq_ignore_ascii_case("json") => SnapshotFormat::Json,
            _ => SnapshotFormat::Binary,
        }
    }
}

/// Seconds since the Unix epoch, stamped on binary snapshot rows at save so
/// the age bound at load has something to measure against. Clock failure
/// degrades to `0`, which the bound treats as "arbitrarily old".
fn now_unix() -> u64 {
    // mspt-analyze: allow(determinism-unsafe-calls) snapshot row timestamps are persistence metadata consumed only by the load-time age bound; they never feed an evaluation result
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |elapsed| elapsed.as_secs())
}

/// Reads [`CACHE_MAX_AGE_ENV`]: a positive integer bounds row age at load;
/// unset, unparsable or `0` disables the bound.
fn max_age_from_env() -> u64 {
    std::env::var(CACHE_MAX_AGE_ENV)
        .ok()
        .and_then(|value| value.trim().parse::<u64>().ok())
        .filter(|&seconds| seconds > 0)
        .unwrap_or(u64::MAX)
}

/// One [`TAG_SNAPSHOT_ROW`] section (tag + length + body) for a cached
/// entry — the unit both full snapshots and appending saves write.
fn snapshot_row_section(
    written_at: u64,
    fingerprint: u64,
    config: &SimConfig,
    report: &PlatformReport,
) -> Vec<u8> {
    let config_bytes = bincodec::config_to_bin(config);
    let report_bytes = bincodec::report_to_bin(report);
    let mut body = BinWriter::new();
    body.put_u64(written_at);
    body.put_u64(fingerprint);
    body.put_u32(u32::try_from(config_bytes.len()).unwrap_or(u32::MAX));
    body.put_bytes(&config_bytes);
    body.put_u32(u32::try_from(report_bytes.len()).unwrap_or(u32::MAX));
    body.put_bytes(&report_bytes);
    let mut section = BinWriter::new();
    section.section(TAG_SNAPSHOT_ROW, &body.into_bytes());
    section.into_bytes()
}

/// The [`TAG_SNAPSHOT_ROW`] section of a cached entry, stamped with the
/// entry's memo fingerprint.
fn entry_row_section(written_at: u64, config: &SimConfig, report: &PlatformReport) -> Vec<u8> {
    let fingerprint = Stage::Composite.key(config).fingerprint();
    snapshot_row_section(written_at, fingerprint, config, report)
}

/// A complete binary snapshot document: header section first, then one row
/// section per entry, all stamped `written_at`.
fn encode_snapshot_bin(rows: &[(SimConfig, PlatformReport)], written_at: u64) -> Vec<u8> {
    let mut payload = BinWriter::new();
    let mut header = BinWriter::new();
    header.put_u64(CACHE_SCHEMA_VERSION);
    payload.section(TAG_SNAPSHOT_HEADER, &header.into_bytes());
    for (config, report) in rows {
        payload.put_bytes(&entry_row_section(written_at, config, report));
    }
    bincodec::document(bincodec::DOC_SNAPSHOT, &payload.into_bytes())
}

/// The memo keys of the rows a binary snapshot file holds, recomputed from
/// each row's decoded configuration (report bodies are skipped, and the
/// stored fingerprints are ignored: they may come from an earlier keying).
/// `None` when the file is missing, not a current-version binary snapshot,
/// damaged, or holds one key twice — the appending save then falls back to
/// a compacting rewrite.
fn existing_binary_keys(path: &Path) -> Option<BTreeSet<Box<[u64]>>> {
    let bytes = std::fs::read(path).ok()?;
    let payload = bincodec::document_payload(&bytes, bincodec::DOC_SNAPSHOT).ok()?;
    let mut reader = BinReader::new(payload);
    let mut header_seen = false;
    let mut keys = BTreeSet::new();
    loop {
        match reader.next_section() {
            Ok(Some((TAG_SNAPSHOT_HEADER, body))) => {
                let mut section = BinReader::new(body);
                if section.take_u64().ok()? != CACHE_SCHEMA_VERSION {
                    return None;
                }
                header_seen = true;
            }
            Ok(Some((TAG_SNAPSHOT_ROW, body))) => {
                let mut section = BinReader::new(body);
                section.take_u64().ok()?; // written_at
                section.take_u64().ok()?; // stored fingerprint
                let config_length = section.take_u32().ok()? as usize;
                let config =
                    bincodec::config_from_bin(section.take_bytes(config_length).ok()?).ok()?;
                let key = Stage::Composite.key(&config);
                if !keys.insert(Box::from(key.words())) {
                    return None;
                }
            }
            Ok(Some(_)) => {} // Unknown section: skippable, not ours to judge.
            Ok(None) => break,
            Err(_) => return None,
        }
    }
    header_seen.then_some(keys)
}

/// A point-in-time view of the cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from a stored entry (including single-flight waiters
    /// served by the leader's computation).
    pub hits: u64,
    /// Lookups that had to compute (single-flight leaders only).
    pub misses: u64,
    /// Entries dropped to keep a shard within its capacity.
    pub evictions: u64,
    /// Entries currently stored.
    pub entries: usize,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (`0.0` when none happened).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// FNV-1a over `key`, finalized through [`chunk_seed`] under `domain` at
/// stream index `index` — the hash behind [`ReportCache::fingerprint`]
/// (`CACHE_KEY_DOMAIN`, index 0).
fn key_fingerprint(domain: u64, index: u64, key: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in key.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    chunk_seed(hash ^ domain, index)
}

/// One stored entry of a [`MemoCache`]: the shard-selecting fingerprint, the
/// words of the [`StageKey`] it was derived from, the memoized value and the
/// recency tick.
struct Entry<V> {
    fingerprint: u64,
    key: Box<[u64]>,
    value: V,
    last_used: u64,
}

impl<V> Entry<V> {
    fn matches(&self, fingerprint: u64, key: &StageKey) -> bool {
        self.fingerprint == fingerprint && *self.key == *key.words()
    }
}

/// The `Mutex` + `Condvar` pair a single-flight leader signals completion on.
struct Flight {
    done: Mutex<bool>,
    completed: Condvar,
}

impl Flight {
    fn new() -> Self {
        Flight {
            done: Mutex::new(false),
            completed: Condvar::new(),
        }
    }

    fn wait(&self) {
        // Poison recovery is sound here: the only mutation under this lock
        // is the single `done = true` store, so a panicking holder cannot
        // leave the flag half-written.
        let mut done = self.done.lock().unwrap_or_else(PoisonError::into_inner);
        while !*done {
            done = self
                .completed
                .wait(done)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn complete(&self) {
        // Tolerates a poisoned lock: completion also runs from a drop guard
        // during panic unwinding, where a second panic would abort.
        *self.done.lock().unwrap_or_else(PoisonError::into_inner) = true;
        self.completed.notify_all();
    }
}

/// Unwinding-safe single-flight leadership: when the leader's stack unwinds
/// — normally or through a panic in the compute closure — the guard removes
/// the in-flight marker and wakes every waiter. Without it, a panicking
/// evaluation would leave the marker behind and every current and future
/// request for that fingerprint would block forever.
struct FlightGuard<'a, V: Clone> {
    cache: &'a MemoCache<V>,
    fingerprint: u64,
    flight: Arc<Flight>,
}

impl<V: Clone> Drop for FlightGuard<'_, V> {
    fn drop(&mut self) {
        match self.cache.shard_for(self.fingerprint).lock() {
            Ok(mut shard) => {
                shard.in_flight.remove(&self.fingerprint);
            }
            Err(poisoned) => {
                poisoned.into_inner().in_flight.remove(&self.fingerprint);
            }
        }
        self.flight.complete();
    }
}

struct Shard<V> {
    entries: Vec<Entry<V>>,
    // mspt-analyze: allow(determinism-unsafe-calls) key-lookup only; the map is never iterated, so hash order cannot leak
    in_flight: HashMap<u64, Arc<Flight>>,
}

impl<V> Default for Shard<V> {
    fn default() -> Self {
        Shard {
            entries: Vec::new(),
            // mspt-analyze: allow(determinism-unsafe-calls) key-lookup only; the map is never iterated, so hash order cannot leak
            in_flight: HashMap::new(),
        }
    }
}

/// The generic fingerprint-sharded, bounded-LRU, single-flight memo table
/// every slot of [`crate::stage::StageCache`] runs on ([`ReportCache`]
/// wraps the `Composite` one): sharding, exact per-shard LRU,
/// `Mutex` + `Condvar` single-flight and hit/miss/eviction counters,
/// generic over the memoized value.
///
/// Entries are keyed by a [`StageKey`]: its fingerprint selects the shard
/// and prefilters lookups, and its full words are re-checked on every
/// match, so a fingerprint collision can cost a duplicate computation but
/// never serve the wrong value.
pub struct MemoCache<V: Clone> {
    config: CacheConfig,
    shards: Vec<Mutex<Shard<V>>>,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<V: Clone> std::fmt::Debug for MemoCache<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoCache")
            .field("config", &self.config)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl<V: Clone> MemoCache<V> {
    /// Creates a memo table. The shard count is clamped to `1..=capacity`
    /// (one shard when the capacity is zero); a zero capacity disables
    /// storage.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        let shards = config.shards.max(1).min(config.capacity.max(1));
        MemoCache {
            config: CacheConfig {
                capacity: config.capacity,
                shards,
            },
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The (clamped) configuration of the table.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The per-shard entry bound: `ceil(capacity / shards)`, or zero when
    /// storage is disabled.
    fn shard_capacity(&self) -> usize {
        self.config.capacity.div_ceil(self.config.shards)
    }

    fn shard_for(&self, fingerprint: u64) -> &Mutex<Shard<V>> {
        &self.shards[(fingerprint % self.config.shards as u64) as usize]
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// Number of stored entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| {
                shard
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .entries
                    .len()
            })
            .sum()
    }

    /// Whether the table stores nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether a key is currently stored. Does **not** refresh the entry's
    /// recency or touch the counters — a pure probe for tests and
    /// diagnostics.
    #[must_use]
    pub fn contains_key(&self, key: &StageKey) -> bool {
        let fingerprint = key.fingerprint();
        let shard = self
            .shard_for(fingerprint)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        shard
            .entries
            .iter()
            .any(|entry| entry.matches(fingerprint, key))
    }

    /// The current counter values.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }

    /// Inserts an entry under its shard lock — see
    /// [`MemoCache::insert_locked`]. Returns whether the entry was stored.
    pub fn insert(&self, key: &StageKey, value: &V) -> bool {
        let fingerprint = key.fingerprint();
        let mut shard = self
            .shard_for(fingerprint)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        self.insert_locked(&mut shard, fingerprint, key, value)
    }

    /// Inserts an entry into its shard as most-recently-used, then evicts
    /// least-recently-used entries beyond the shard bound. Returns whether
    /// the entry was stored — `false` for an already-present key or a
    /// disabled table.
    fn insert_locked(
        &self,
        shard: &mut Shard<V>,
        fingerprint: u64,
        key: &StageKey,
        value: &V,
    ) -> bool {
        let capacity = self.shard_capacity();
        if capacity == 0 {
            return false;
        }
        if shard
            .entries
            .iter()
            .any(|entry| entry.matches(fingerprint, key))
        {
            return false;
        }
        shard.entries.push(Entry {
            fingerprint,
            key: Box::from(key.words()),
            value: value.clone(),
            last_used: self.next_tick(),
        });
        while shard.entries.len() > capacity {
            let oldest = shard
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(index, _)| index)
                .expect("non-empty shard");
            shard.entries.swap_remove(oldest);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        true
    }

    /// Looks up a key, computing it through `compute` on a miss — the
    /// single-flight entry point everything above a memo table uses.
    ///
    /// Concurrent callers with the same key block on one computation: the
    /// first becomes the leader (counted as a miss), every other caller
    /// waits on the leader's `Condvar` and is then served the stored result
    /// (counted as a hit). If the leader's computation fails, its error is
    /// returned to the leader and the waiters retake the lead one at a
    /// time.
    ///
    /// # Errors
    ///
    /// Propagates `compute`'s error (the table never stores failures).
    pub fn get_or_compute<F>(&self, key: &StageKey, compute: F) -> Result<V>
    where
        F: FnOnce() -> Result<V>,
    {
        let fingerprint = key.fingerprint();
        let mut compute = Some(compute);
        loop {
            let flight = {
                let mut shard = self
                    .shard_for(fingerprint)
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                if let Some(entry) = shard
                    .entries
                    .iter_mut()
                    .find(|entry| entry.matches(fingerprint, key))
                {
                    entry.last_used = self.tick.fetch_add(1, Ordering::Relaxed);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(entry.value.clone());
                }
                match shard.in_flight.get(&fingerprint) {
                    Some(flight) => Arc::clone(flight),
                    None => {
                        let flight = Arc::new(Flight::new());
                        shard.in_flight.insert(fingerprint, Arc::clone(&flight));
                        self.misses.fetch_add(1, Ordering::Relaxed);
                        drop(shard);
                        // Leader path: compute outside the shard lock. The
                        // guard unregisters the flight and wakes waiters on
                        // every exit — including a panicking compute.
                        let _guard = FlightGuard {
                            cache: self,
                            fingerprint,
                            flight,
                        };
                        let computation = compute
                            .take()
                            .expect("a caller leads at most one computation")(
                        );
                        if let Ok(value) = &computation {
                            let mut shard = self
                                .shard_for(fingerprint)
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner);
                            self.insert_locked(&mut shard, fingerprint, key, value);
                        }
                        // `_guard` drops here: waiters wake after the entry
                        // is stored, so a successful leader turns them into
                        // plain hits.
                        return computation;
                    }
                }
            };
            // Waiter path: block until the leader finishes, then re-check —
            // a hit if the leader stored the entry, otherwise this caller
            // takes the lead itself (leader failed, or capacity is zero).
            flight.wait();
        }
    }

    /// An unordered point-in-time copy of every stored entry:
    /// `(last_used, key words, value)` rows, one shard at a time — what
    /// snapshot persistence builds its bounded, sorted row set from.
    #[must_use]
    pub fn entries(&self) -> Vec<(u64, Box<[u64]>, V)> {
        let mut rows = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().unwrap_or_else(PoisonError::into_inner);
            for entry in &shard.entries {
                rows.push((entry.last_used, entry.key.clone(), entry.value.clone()));
            }
        }
        rows
    }
}

/// The value [`ReportCache`] memoizes per composite key: the configuration
/// the report was first computed for rides along with it so snapshot
/// persistence can write a complete config per row.
#[derive(Clone)]
struct CachedReport {
    config: SimConfig,
    report: PlatformReport,
}

/// The sharded, bounded, single-flight LRU cache of
/// ([`SimConfig`] → [`PlatformReport`]) evaluations — the
/// [`Stage::Composite`] slot of [`crate::stage::StageCache`]: a `MemoCache`
/// keyed by the composite stage key, plus versioned snapshot persistence.
/// See the module docs for the design; see
/// [`ExecutionEngine`](crate::ExecutionEngine) for the primary consumer.
pub struct ReportCache {
    memo: MemoCache<CachedReport>,
}

impl std::fmt::Debug for ReportCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReportCache")
            .field("config", self.memo.config())
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl Default for ReportCache {
    fn default() -> Self {
        ReportCache::new(CacheConfig::default())
    }
}

impl ReportCache {
    /// Creates a cache. The shard count is clamped to `1..=capacity` (one
    /// shard when the capacity is zero); a zero capacity disables storage.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        ReportCache {
            memo: MemoCache::new(config),
        }
    }

    /// The (clamped) configuration of the cache.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        self.memo.config()
    }

    /// The fingerprint of a configuration: an FNV-1a hash of its canonical
    /// serialized form, finalized through [`chunk_seed`] under its own
    /// domain tag. Includes every field of the configuration — notably the
    /// disturbance kind — so it identifies a configuration across both wire
    /// codecs. It is not the memo key: entries key on the composite stage
    /// key (see the module docs).
    #[must_use]
    pub fn fingerprint(config: &SimConfig) -> u64 {
        key_fingerprint(CACHE_KEY_DOMAIN, 0, &canonical_config_string(config))
    }

    /// Stores a decoded snapshot row under the key recomputed from its
    /// configuration. Returns whether the row was stored.
    fn insert_row(&self, config: SimConfig, report: PlatformReport) -> bool {
        let key = Stage::Composite.key(&config);
        self.memo.insert(&key, &CachedReport { config, report })
    }

    /// Number of stored entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.memo.len()
    }

    /// Whether the cache stores nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.memo.is_empty()
    }

    /// Whether a configuration is currently stored. Does **not** refresh the
    /// entry's recency or touch the counters — a pure probe for tests and
    /// diagnostics.
    #[must_use]
    pub fn contains(&self, config: &SimConfig) -> bool {
        self.memo.contains_key(&Stage::Composite.key(config))
    }

    /// The current counter values.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.memo.stats()
    }

    /// Looks up a configuration, computing it through `compute` on a miss —
    /// the single-flight entry point everything above the cache uses. See
    /// `MemoCache::get_or_compute` for the leader/waiter semantics.
    ///
    /// # Errors
    ///
    /// Propagates `compute`'s error (the cache never stores failures).
    pub fn get_or_compute<F>(&self, config: &SimConfig, compute: F) -> Result<PlatformReport>
    where
        F: FnOnce() -> Result<PlatformReport>,
    {
        self.memo
            .get_or_compute(&Stage::Composite.key(config), || {
                compute().map(|report| CachedReport {
                    config: config.clone(),
                    report,
                })
            })
            .map(|cached| cached.report)
    }

    /// Renders the cache as a versioned JSON snapshot, **bounded to the
    /// configured capacity**: the per-shard LRU bound can over-retain up to
    /// `shards − 1` entries beyond `capacity` when the shard count does not
    /// divide it, so the snapshot keeps only the `capacity` most recently
    /// used entries — the persisted file can never grow past the configured
    /// bound across warm restarts. Which entries survive therefore follows
    /// access recency; the surviving set itself is sorted by memo key, so
    /// two caches persisting the same surviving entries render
    /// byte-identical files regardless of insertion order.
    #[must_use]
    pub fn snapshot_json(&self) -> String {
        self.snapshot_with_count().0
    }

    /// The rows a snapshot persists, in persisted order: every stored
    /// entry, most-recently-used entries winning the truncation to the
    /// capacity bound, the surviving set sorted by memo key so both
    /// snapshot encodings are deterministic for a given surviving set.
    fn snapshot_rows(&self) -> Vec<(SimConfig, PlatformReport)> {
        let mut rows = self.memo.entries();
        // Most recently used first, then truncate to the capacity bound.
        rows.sort_by_key(|row| std::cmp::Reverse(row.0));
        rows.truncate(self.memo.config().capacity);
        rows.sort_by(|a, b| a.1.cmp(&b.1));
        rows.into_iter()
            .map(|(_, _, cached)| (cached.config, cached.report))
            .collect()
    }

    /// [`ReportCache::snapshot_json`] plus the number of persisted rows,
    /// counted from the snapshot itself — the shards are re-locked here, so
    /// only this count is guaranteed to match the rendered document under
    /// concurrent inserts.
    fn snapshot_with_count(&self) -> (String, usize) {
        let rows = self.snapshot_rows();
        let count = rows.len();
        // About 1.3 kB of JSON per row: a configuration and its report.
        let mut snapshot = String::with_capacity(64 + count * 1_536);
        write_object(&mut snapshot, |fields| {
            fields.u64("schema_version", CACHE_SCHEMA_VERSION);
            fields.value("entries", |out| {
                write_array(out, &rows, |out, (config, report)| {
                    write_object(out, |row| {
                        row.value("config", |out| config_to_json(config, out));
                        row.value("report", |out| report_to_json(report, out));
                    });
                });
            });
        });
        (snapshot, count)
    }

    /// Renders the cache as a binary snapshot document — the same rows as
    /// [`ReportCache::snapshot_json`] (same bounding, same order) in the
    /// compact [`crate::bincodec`] encoding, each row stamped with the
    /// current time for the load-side age bound.
    #[must_use]
    pub fn snapshot_bin(&self) -> Vec<u8> {
        encode_snapshot_bin(&self.snapshot_rows(), now_unix())
    }

    /// Restores entries from a binary snapshot with no age bound applied.
    /// Returns the number of entries actually stored.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Persistence`] on malformed bytes or a mismatched
    /// schema version.
    pub fn load_snapshot_bin(&self, bytes: &[u8]) -> Result<usize> {
        self.load_snapshot_bin_bounded(bytes, 0, u64::MAX)
    }

    /// Restores entries from a binary snapshot produced by
    /// [`ReportCache::snapshot_bin`] (or accumulated by appending saves),
    /// skipping rows written more than `max_age_secs` before `now_unix` —
    /// the load-side age bound that keeps a long-lived warm file from
    /// resurrecting arbitrarily old reports. Returns the number of entries
    /// actually stored; age-skipped and already-present rows are not
    /// counted.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Persistence`] on malformed bytes, a mismatched
    /// schema version, or a row section appearing before the header.
    pub fn load_snapshot_bin_bounded(
        &self,
        bytes: &[u8],
        now_unix: u64,
        max_age_secs: u64,
    ) -> Result<usize> {
        let payload = bincodec::document_payload(bytes, bincodec::DOC_SNAPSHOT)?;
        let mut reader = BinReader::new(payload);
        let mut version: Option<u64> = None;
        let mut loaded = 0;
        while let Some((tag, body)) = reader.next_section()? {
            match tag {
                TAG_SNAPSHOT_HEADER => {
                    let mut section = BinReader::new(body);
                    let value = section.take_u64()?;
                    section.finish()?;
                    if value != CACHE_SCHEMA_VERSION {
                        return Err(SimError::Persistence {
                            reason: format!(
                                "cache snapshot schema version {value} does not match supported version {CACHE_SCHEMA_VERSION}"
                            ),
                        });
                    }
                    if version.replace(value).is_some() {
                        return Err(SimError::Persistence {
                            reason: "duplicate header section in binary cache snapshot".to_string(),
                        });
                    }
                }
                TAG_SNAPSHOT_ROW => {
                    if version.is_none() {
                        return Err(SimError::Persistence {
                            reason: "binary cache snapshot row appears before the header"
                                .to_string(),
                        });
                    }
                    let mut section = BinReader::new(body);
                    let written_at = section.take_u64()?;
                    // The stored fingerprint is informational: loading (like
                    // the append-time scan) recomputes the key from the
                    // decoded configuration, so a corrupted value can never
                    // misfile an entry and rows written under an earlier
                    // keying still load.
                    let _stored_fingerprint = section.take_u64()?;
                    let config_length = section.take_u32()? as usize;
                    let config = bincodec::config_from_bin(section.take_bytes(config_length)?)?;
                    let report_length = section.take_u32()? as usize;
                    let report = bincodec::report_from_bin(section.take_bytes(report_length)?)?;
                    section.finish()?;
                    if now_unix.saturating_sub(written_at) > max_age_secs {
                        continue;
                    }
                    if self.insert_row(config, report) {
                        loaded += 1;
                    }
                }
                _ => {} // Forward compatibility: skip sections a later writer added.
            }
        }
        if version.is_none() {
            return Err(SimError::Persistence {
                reason: "binary cache snapshot is missing its header section".to_string(),
            });
        }
        Ok(loaded)
    }

    /// Restores entries from a snapshot produced by
    /// [`ReportCache::snapshot_json`], inserting them as most-recently-used
    /// in snapshot order (capacity bounds still apply). Returns the number
    /// of entries actually stored — rows the cache rejected (already
    /// present, or storage disabled) are not counted, though under a bound
    /// tighter than the snapshot a stored row may still evict an earlier
    /// one.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Persistence`] on malformed JSON or a
    /// `schema_version` other than [`CACHE_SCHEMA_VERSION`] — a snapshot
    /// from a different format generation is rejected, never reinterpreted.
    pub fn load_snapshot(&self, snapshot: &str) -> Result<usize> {
        let tape = JsonTape::parse(snapshot)?;
        let value = tape.root();
        let version = value.get("schema_version")?.as_u64()?;
        if version != CACHE_SCHEMA_VERSION {
            return Err(SimError::Persistence {
                reason: format!(
                    "cache snapshot schema version {version} does not match supported version {CACHE_SCHEMA_VERSION}"
                ),
            });
        }
        let mut loaded = 0;
        for row in value.get("entries")?.as_array()? {
            let config = config_from_json(row.get("config")?)?;
            let report = report_from_json(row.get("report")?)?;
            if self.insert_row(config, report) {
                loaded += 1;
            }
        }
        Ok(loaded)
    }

    /// Writes the snapshot to a file in the format selected by
    /// [`SnapshotFormat::from_env`] (binary by default). A binary save onto
    /// an existing current-version binary file appends only the rows whose
    /// memo keys the file lacks instead of rewriting everything; any other
    /// target — missing file, JSON file, older or damaged binary, a file
    /// holding one key twice, or an append that would exceed the capacity
    /// bound — is a full rewrite.
    /// Returns the number of rows the file holds after the save (at most
    /// the configured capacity on a rewrite).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Persistence`] on I/O failure.
    pub fn save_to_path(&self, path: &Path) -> Result<usize> {
        match SnapshotFormat::from_env() {
            SnapshotFormat::Json => {
                let (snapshot, entries) = self.snapshot_with_count();
                std::fs::write(path, snapshot)
                    .map_err(|io| persistence_io("writing", path, &io))?;
                Ok(entries)
            }
            SnapshotFormat::Binary => self.save_binary(path),
        }
    }

    /// The binary save path: append fresh rows when the target is already a
    /// healthy current-version binary snapshot with room for them, full
    /// rewrite otherwise.
    fn save_binary(&self, path: &Path) -> Result<usize> {
        let written_at = now_unix();
        let rows = self.snapshot_rows();
        if let Some(existing) = existing_binary_keys(path) {
            let fresh: Vec<&(SimConfig, PlatformReport)> = rows
                .iter()
                .filter(|(config, _)| !existing.contains(Stage::Composite.key(config).words()))
                .collect();
            if existing.len() + fresh.len() <= self.memo.config().capacity {
                let mut appended = Vec::new();
                for (config, report) in &fresh {
                    appended.extend_from_slice(&entry_row_section(written_at, config, report));
                }
                let mut file = std::fs::OpenOptions::new()
                    .append(true)
                    .open(path)
                    .map_err(|io| persistence_io("appending to", path, &io))?;
                file.write_all(&appended)
                    .map_err(|io| persistence_io("appending to", path, &io))?;
                return Ok(existing.len() + fresh.len());
            }
        }
        std::fs::write(path, encode_snapshot_bin(&rows, written_at))
            .map_err(|io| persistence_io("writing", path, &io))?;
        Ok(rows.len())
    }

    /// Loads a snapshot file saved by [`ReportCache::save_to_path`] in either
    /// format, auto-detected from the first byte. Binary snapshots honour the
    /// [`CACHE_MAX_AGE_ENV`] age bound; JSON snapshots carry no timestamps
    /// and load in full. Returns the number of entries loaded.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Persistence`] on I/O failure, a malformed snapshot
    /// in either format, or a mismatched schema version.
    pub fn load_from_path(&self, path: &Path) -> Result<usize> {
        let bytes = std::fs::read(path).map_err(|io| persistence_io("reading", path, &io))?;
        if bincodec::is_binary(&bytes) {
            return self.load_snapshot_bin_bounded(&bytes, now_unix(), max_age_from_env());
        }
        let snapshot = std::str::from_utf8(&bytes).map_err(|_| SimError::Persistence {
            reason: format!(
                "cache snapshot {} is neither a binary document nor UTF-8 JSON",
                path.display()
            ),
        })?;
        self.load_snapshot(snapshot)
    }
}

/// A [`SimError::Persistence`] describing a snapshot I/O failure.
fn persistence_io(action: &str, path: &Path, io: &std::io::Error) -> SimError {
    SimError::Persistence {
        reason: format!("{action} cache snapshot {}: {io}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::SimulationPlatform;
    use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};

    fn config(length: usize) -> SimConfig {
        let code = CodeSpec::new(CodeKind::Tree, LogicLevel::BINARY, length).unwrap();
        SimConfig::paper_defaults(code).unwrap()
    }

    fn evaluate(config: &SimConfig) -> Result<PlatformReport> {
        SimulationPlatform::new(config.clone()).evaluate()
    }

    #[test]
    fn hit_miss_counters_and_lru_touch() {
        let cache = ReportCache::new(CacheConfig::unsharded(8));
        let a = config(6);
        let first = cache.get_or_compute(&a, || evaluate(&a)).unwrap();
        let second = cache.get_or_compute(&a, || evaluate(&a)).unwrap();
        assert_eq!(first, second);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fingerprints_differ_across_disturbance_kinds() {
        let gaussian = config(8);
        let laplace = config(8).with_disturbance(crate::DisturbanceKind::Laplace);
        assert_ne!(
            ReportCache::fingerprint(&gaussian),
            ReportCache::fingerprint(&laplace)
        );
    }

    #[test]
    fn fingerprints_differ_across_defect_kinds() {
        let clean = config(8);
        let defective =
            config(8).with_defects(crate::DefectKind::sampled(0.02, 0.01, 2_009).unwrap());
        let reseeded =
            config(8).with_defects(crate::DefectKind::sampled(0.02, 0.01, 2_010).unwrap());
        assert_ne!(
            ReportCache::fingerprint(&clean),
            ReportCache::fingerprint(&defective)
        );
        assert_ne!(
            ReportCache::fingerprint(&defective),
            ReportCache::fingerprint(&reseeded)
        );
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = ReportCache::new(CacheConfig::unsharded(8));
        let a = config(6);
        let failure = cache.get_or_compute(&a, || {
            Err(SimError::InvalidConfig {
                reason: "boom".to_string(),
            })
        });
        assert!(failure.is_err());
        assert!(cache.is_empty());
        // The next caller computes fresh and succeeds.
        assert!(cache.get_or_compute(&a, || evaluate(&a)).is_ok());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn binary_snapshot_round_trips_bit_identically() {
        let cache = ReportCache::new(CacheConfig::unsharded(8));
        for length in [6, 8, 10] {
            let config = config(length);
            cache.get_or_compute(&config, || evaluate(&config)).unwrap();
        }
        let bytes = cache.snapshot_bin();
        let restored = ReportCache::new(CacheConfig::unsharded(8));
        assert_eq!(restored.load_snapshot_bin(&bytes).unwrap(), 3);
        assert_eq!(restored.snapshot_json(), cache.snapshot_json());
        // A second load of the same snapshot stores nothing new.
        assert_eq!(restored.load_snapshot_bin(&bytes).unwrap(), 0);
    }

    #[test]
    fn age_bound_skips_stale_rows_without_error() {
        let cache = ReportCache::new(CacheConfig::unsharded(8));
        let a = config(6);
        cache.get_or_compute(&a, || evaluate(&a)).unwrap();
        let bytes = encode_snapshot_bin(&cache.snapshot_rows(), 1_000);
        let fresh_enough = ReportCache::new(CacheConfig::unsharded(8));
        assert_eq!(
            fresh_enough
                .load_snapshot_bin_bounded(&bytes, 1_500, 600)
                .unwrap(),
            1
        );
        let too_old = ReportCache::new(CacheConfig::unsharded(8));
        assert_eq!(
            too_old
                .load_snapshot_bin_bounded(&bytes, 2_000, 600)
                .unwrap(),
            0
        );
        assert!(too_old.is_empty());
    }

    #[test]
    fn binary_save_appends_new_rows_only() {
        let path =
            std::env::temp_dir().join(format!("mspt-cache-append-{}.bin", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let cache = ReportCache::new(CacheConfig::unsharded(8));
        let a = config(6);
        cache.get_or_compute(&a, || evaluate(&a)).unwrap();
        assert_eq!(cache.save_binary(&path).unwrap(), 1);
        let first_size = std::fs::metadata(&path).unwrap().len();

        // Saving again with no new entries appends nothing.
        assert_eq!(cache.save_binary(&path).unwrap(), 1);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), first_size);

        // A new entry appends one row; the old bytes stay in place.
        let b = config(8);
        cache.get_or_compute(&b, || evaluate(&b)).unwrap();
        assert_eq!(cache.save_binary(&path).unwrap(), 2);
        assert!(std::fs::metadata(&path).unwrap().len() > first_size);

        let restored = ReportCache::new(CacheConfig::unsharded(8));
        assert_eq!(restored.load_from_path(&path).unwrap(), 2);
        assert_eq!(restored.snapshot_json(), cache.snapshot_json());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn binary_save_rewrites_when_append_would_exceed_capacity() {
        let path =
            std::env::temp_dir().join(format!("mspt-cache-rewrite-{}.bin", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let small = ReportCache::new(CacheConfig::unsharded(2));
        for length in [6, 8] {
            let config = config(length);
            small.get_or_compute(&config, || evaluate(&config)).unwrap();
        }
        assert_eq!(small.save_binary(&path).unwrap(), 2);
        // Touch `a` so it survives eviction, then push a third entry out of
        // capacity: the file now holds a fingerprint the cache evicted, so
        // an append would exceed the bound and a rewrite happens instead.
        let a = config(6);
        small.get_or_compute(&a, || evaluate(&a)).unwrap();
        let c = config(10);
        small.get_or_compute(&c, || evaluate(&c)).unwrap();
        assert_eq!(small.save_binary(&path).unwrap(), 2);
        let restored = ReportCache::new(CacheConfig::unsharded(8));
        assert_eq!(restored.load_from_path(&path).unwrap(), 2);
        assert_eq!(restored.snapshot_json(), small.snapshot_json());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn json_era_snapshot_still_loads_from_path() {
        let path =
            std::env::temp_dir().join(format!("mspt-cache-json-era-{}.json", std::process::id()));
        let cache = ReportCache::new(CacheConfig::unsharded(8));
        let a = config(6);
        cache.get_or_compute(&a, || evaluate(&a)).unwrap();
        std::fs::write(&path, cache.snapshot_json()).unwrap();
        let restored = ReportCache::new(CacheConfig::unsharded(8));
        assert_eq!(restored.load_from_path(&path).unwrap(), 1);
        assert_eq!(restored.snapshot_json(), cache.snapshot_json());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_binary_snapshots_are_typed_errors() {
        let cache = ReportCache::new(CacheConfig::unsharded(8));
        let a = config(6);
        cache.get_or_compute(&a, || evaluate(&a)).unwrap();
        let bytes = cache.snapshot_bin();
        // Truncation never panics: a cut exactly on the header/row section
        // boundary is a valid zero-row snapshot (TLV streams are
        // prefix-closed at section granularity), every other cut is a typed
        // error. With one cached row there is exactly one such boundary.
        let mut boundary_loads = 0;
        for take in 0..bytes.len() {
            let target = ReportCache::new(CacheConfig::unsharded(8));
            match target.load_snapshot_bin(&bytes[..take]) {
                Ok(loaded) => {
                    assert_eq!(loaded, 0);
                    boundary_loads += 1;
                }
                Err(SimError::Persistence { .. }) => {}
                Err(other) => panic!("unexpected error kind: {other}"),
            }
        }
        assert_eq!(boundary_loads, 1);
        let target = ReportCache::new(CacheConfig::unsharded(8));
        // A snapshot without its header section is rejected.
        let empty = crate::bincodec::document(crate::bincodec::DOC_SNAPSHOT, &[]);
        assert!(matches!(
            target.load_snapshot_bin(&empty),
            Err(SimError::Persistence { .. })
        ));
        assert!(target.is_empty());
    }

    /// Every configuration stored in a binary snapshot file, in row order.
    fn configs_in_binary_file(path: &Path) -> Vec<SimConfig> {
        let bytes = std::fs::read(path).unwrap();
        let payload = bincodec::document_payload(&bytes, bincodec::DOC_SNAPSHOT).unwrap();
        let mut reader = BinReader::new(payload);
        let mut configs = Vec::new();
        while let Some((tag, body)) = reader.next_section().unwrap() {
            if tag == TAG_SNAPSHOT_ROW {
                let mut row = BinReader::new(body);
                row.take_u64().unwrap();
                row.take_u64().unwrap();
                let length = row.take_u32().unwrap() as usize;
                configs.push(bincodec::config_from_bin(row.take_bytes(length).unwrap()).unwrap());
            }
        }
        configs
    }

    #[test]
    fn appending_save_does_not_duplicate_rows_written_under_another_keying() {
        let path =
            std::env::temp_dir().join(format!("mspt-cache-foreign-{}.bin", std::process::id()));
        let cache = ReportCache::new(CacheConfig::unsharded(8));
        for length in [6, 8, 10] {
            let config = config(length);
            cache.get_or_compute(&config, || evaluate(&config)).unwrap();
        }
        // The same rows, but with fingerprints no keying produces: 0..n.
        let mut payload = BinWriter::new();
        let mut header = BinWriter::new();
        header.put_u64(CACHE_SCHEMA_VERSION);
        payload.section(TAG_SNAPSHOT_HEADER, &header.into_bytes());
        for (index, (config, report)) in cache.snapshot_rows().iter().enumerate() {
            payload.put_bytes(&snapshot_row_section(
                now_unix(),
                index as u64,
                config,
                report,
            ));
        }
        let document = bincodec::document(bincodec::DOC_SNAPSHOT, &payload.into_bytes());
        std::fs::write(&path, document).unwrap();

        let loaded = ReportCache::new(CacheConfig::unsharded(8));
        assert_eq!(loaded.load_from_path(&path).unwrap(), 3);
        let saved = loaded.save_binary(&path).unwrap();
        let configs = configs_in_binary_file(&path);
        let _ = std::fs::remove_file(&path);
        for (index, config) in configs.iter().enumerate() {
            assert!(
                !configs[index + 1..].contains(config),
                "a row was appended twice: {} rows in the file",
                configs.len()
            );
        }
        assert_eq!(configs.len(), 3);
        assert_eq!(saved, 3);
    }
}
