//! Content-addressed on-disk result cache / shared artifact store.
//!
//! Each successfully simulated job is stored as a small text entry
//! keyed by the job's content hash. The first line of every entry is
//! the cache schema tag; entries written under a different tag (an
//! older serialization, or results from before a simulator-semantics
//! change) fail the header check and read as misses, so stale entries
//! self-invalidate without any explicit migration.
//!
//! Entries are appended to one log file per store directory,
//! `pack-<generation>`: each record is an empty line, a header line
//! `<key> <length> <digest>` (the digest is FNV-1a over the entry, in
//! hex) and the entry's bytes. The empty line puts every header at the
//! start of a line even after a torn write.
//!
//! A store therefore creates no file per entry. One file per entry, the
//! layout of earlier versions, made the cost of a store depend on the
//! filesystem's recent history: some filesystems scan recently freed
//! inodes on every file creation, so a store written after many files
//! were deleted took ten times as long. Per-key files left by earlier
//! versions are not read; their jobs simulate and store again.
//!
//! A [`DiskCache`] handle is a cheap [`Arc`]-shared reference to one
//! store, safe to clone across threads: the `hirata serve` daemon
//! shares a single store between its HTTP workers, the batch engine,
//! and the artifact endpoints. Concurrency safety comes from three
//! layers:
//!
//! - **appends are whole records** — every record goes to the log in
//!   one append-mode write, and a reader checks each record's length
//!   and digest, so no reader (same process or another one) takes a
//!   torn or half-written record for an entry;
//! - **the in-process index is lock-guarded** — the log handle, entry
//!   offsets, eviction decisions, byte accounting, and the
//!   hit/miss/eviction counters live behind one mutex;
//! - **other writers are picked up on a miss** — a lookup for a key the
//!   index lacks first indexes the records appended since the last
//!   look.
//!
//! With a byte budget set ([`DiskCache::with_byte_budget`]) the store
//! evicts least-recently-used entries after each write until it fits.
//! An eviction appends a tombstone (a record of length 0). Once the log
//! holds more dead bytes than live ones, and more than `COMPACT_SLACK`
//! (64 KiB), it is rewritten as the next generation; a process that
//! still appends to the old generation loses those records, which read
//! as misses later. Counters are per-process and surfaced by
//! [`DiskCache::stats`] (the daemon's `/stats` endpoint).

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use hirata_sim::StallBreakdown;

use crate::job::JobOutput;

/// Schema tag of the on-disk format. Bump on any change to the
/// serialized fields *or* to simulator semantics that alters results
/// for unchanged inputs.
///
/// v2: the stall breakdown gained the `branch-shadow` reason (eight
/// counters instead of seven) and entries carry the per-window stall
/// attribution (`stall_windows=`).
///
/// v3: job keys come from a word-at-a-time hasher instead of FNV-1a,
/// so every key changed; the entry text is as in v2.
///
/// v4: `Config` lost its `warp` field, which changed the `Config`
/// Debug text every key hashes, so every key changed again; the entry
/// text is as in v2.
///
/// v5: `Config` lost its `fast_forward` field, for the same reason as
/// v4; the entry text is as in v2.
pub const CACHE_SCHEMA_TAG: &str = "hirata-lab-cache-v5";

/// File-name prefix of the entry log; the log's generation follows it.
const LOG_PREFIX: &str = "pack-";

/// Dead log bytes a store with a byte budget leaves before it compacts
/// the log.
const COMPACT_SLACK: u64 = 64 * 1024;

/// Default cache directory: `$HIRATA_LAB_CACHE` if set, else
/// `target/lab-cache` under the current directory.
pub fn default_cache_dir() -> PathBuf {
    match std::env::var_os("HIRATA_LAB_CACHE") {
        Some(dir) => PathBuf::from(dir),
        None => PathBuf::from("target").join("lab-cache"),
    }
}

/// Per-process observability counters of a [`DiskCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the store.
    pub hits: u64,
    /// Lookups that found no (valid) entry.
    pub misses: u64,
    /// Entries written.
    pub stores: u64,
    /// Entries removed to satisfy the byte budget.
    pub evictions: u64,
    /// Bytes currently indexed.
    pub bytes: u64,
    /// Entries currently indexed.
    pub entries: u64,
    /// Positioned reads of the log: lookups whose entry the read window
    /// did not hold, and compactions' reads of live entries.
    pub reads: u64,
}

/// One indexed entry: where it starts in the current log, its size,
/// the size of its whole record (header included), and its last-use
/// stamp (monotonic per-process sequence; seeded from log order when an
/// existing directory is opened).
#[derive(Debug, Clone, Copy)]
struct Entry {
    offset: u64,
    size: u64,
    record: u64,
    last_use: u64,
}

/// The open entry log.
#[derive(Debug)]
struct Log {
    file: File,
    generation: u64,
    /// Bytes from the start of the log already indexed.
    scanned: u64,
    /// Bytes of the records the index points to.
    live: u64,
}

#[derive(Debug, Default)]
struct Index {
    entries: HashMap<String, Entry>,
    log: Option<Log>,
    budget: Option<u64>,
    bytes: u64,
    clock: u64,
    hits: u64,
    misses: u64,
    stores: u64,
    evictions: u64,
    reads: u64,
    window: Window,
}

/// Most bytes a lookup reads around its entry; see [`Window`].
const WINDOW: u64 = 8 * 1024;

/// The span of the log the last positioned read of a lookup brought in.
///
/// A lookup whose entry lies wholly inside it reads nothing. One that
/// misses it reads [`WINDOW`] bytes around its entry, or the entry
/// alone if that is larger, in one positioned read, and the span
/// becomes the window. The entries of one batch are written one after
/// another, so the lookups of a batch answered from the store mostly
/// find theirs in the window.
///
/// The window holds only bytes from before the end of the last scan
/// when it was filled: records the index had read whole and checked,
/// and garbage between them. A record another writer is still
/// appending lies past that end, so it is never served from here. An
/// entry of this handle's own that lies past it (another writer
/// appended between its scan and the write) is read alone. Records are
/// never rewritten in place, so held bytes stay true until the log
/// changes generation, which drops the window.
#[derive(Debug, Default)]
struct Window {
    /// Log offset of the first held byte.
    start: u64,
    bytes: Vec<u8>,
}

impl Window {
    /// The bytes of `entry` in the log `file`, whose first `scanned`
    /// bytes the index has read: from the window if it holds them all,
    /// else from one positioned read, counted in `reads`, that refills
    /// it.
    fn entry(
        &mut self,
        file: &File,
        entry: &Entry,
        scanned: u64,
        reads: &mut u64,
    ) -> io::Result<&[u8]> {
        let end = entry.offset + entry.size;
        let held = self.start + self.bytes.len() as u64;
        if entry.offset < self.start || end > held {
            let (start, stop) = if entry.size >= WINDOW || end > scanned {
                (entry.offset, end)
            } else {
                // WINDOW bytes centred on the entry, moved back from
                // the end of the scanned bytes if they run past it.
                let stop = (entry.offset + entry.size / 2 + WINDOW / 2).min(scanned);
                (stop.saturating_sub(WINDOW), stop)
            };
            self.bytes.clear();
            self.bytes.resize(usize::try_from(stop - start).map_err(io::Error::other)?, 0);
            *reads += 1;
            if let Err(e) = file.read_exact_at(&mut self.bytes, start) {
                self.bytes.clear();
                return Err(e);
            }
            self.start = start;
        }
        let from = (entry.offset - self.start) as usize;
        Ok(&self.bytes[from..from + entry.size as usize])
    }
}

impl Index {
    /// Indexes `key` at the record whose entry starts at `offset`.
    fn insert(&mut self, key: &str, offset: u64, size: u64, record: u64) {
        self.clock += 1;
        let entry = Entry { offset, size, record, last_use: self.clock };
        if let Some(old) = self.entries.insert(key.to_owned(), entry) {
            self.release(&old);
        }
        self.bytes += size;
        if let Some(log) = self.log.as_mut() {
            log.live += record;
        }
    }

    /// Drops `key` from the index; false if it was not there.
    fn forget(&mut self, key: &str) -> bool {
        let Some(entry) = self.entries.remove(key) else { return false };
        self.release(&entry);
        true
    }

    fn release(&mut self, entry: &Entry) {
        self.bytes -= entry.size;
        if let Some(log) = self.log.as_mut() {
            log.live -= entry.record;
        }
    }

    /// The least-recently-used key, excluding `keep`.
    fn lru_victim(&self, keep: &str) -> Option<String> {
        self.entries
            .iter()
            .filter(|(key, _)| key.as_str() != keep)
            .min_by_key(|(key, entry)| (entry.last_use, key.as_str().to_owned()))
            .map(|(key, _)| key.clone())
    }

    /// Switches to log `generation` and indexes it from the start.
    fn open_log(&mut self, dir: &Path, generation: u64, create: bool) -> io::Result<()> {
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(create)
            .open(log_path(dir, generation))?;
        // Offsets into the previous log do not hold in this one.
        self.entries.clear();
        self.window.bytes.clear();
        self.bytes = 0;
        self.log = Some(Log { file, generation, scanned: 0, live: 0 });
        self.scan_log();
        Ok(())
    }

    /// Follows compactions made through other handles: switches to the
    /// newest log generation on disk.
    fn follow_generations(&mut self, dir: &Path) {
        let mut next = self.log.as_ref().map_or(0, |log| log.generation + 1);
        while log_path(dir, next).exists() {
            if self.open_log(dir, next, false).is_err() {
                return;
            }
            next += 1;
        }
    }

    /// Indexes the records appended to the log since the last scan.
    fn scan_log(&mut self) {
        let Some(log) = self.log.as_mut() else { return };
        let start = log.scanned;
        let mut tail = Vec::new();
        let read =
            log.file.seek(SeekFrom::Start(start)).and_then(|_| log.file.read_to_end(&mut tail));
        if read.is_err() {
            return;
        }
        let (records, consumed) = parse_records(&tail);
        log.scanned += consumed as u64;
        for record in records {
            if record.len == 0 {
                self.forget(record.key);
            } else {
                self.insert(record.key, start + record.offset, record.len, record.record);
            }
        }
    }

    /// Appends one record for `key` (a tombstone if `body` is empty);
    /// returns where its entry starts and the size of the record.
    fn append(&mut self, dir: &Path, key: &str, body: &[u8]) -> io::Result<(u64, u64)> {
        self.follow_generations(dir);
        if self.log.is_none() {
            self.open_log(dir, 0, true)?;
        }
        let log = self.log.as_mut().expect("log is open");
        let header = record_header(key, body);
        let mut record = Vec::with_capacity(header.len() + body.len());
        record.extend_from_slice(header.as_bytes());
        record.extend_from_slice(body);
        log.file.write_all(&record)?;
        // In append mode the file position ends where this write ended,
        // wherever other writers' records put the start.
        let end = log.file.stream_position()?;
        let start = end - record.len() as u64;
        if log.scanned == start {
            log.scanned = end;
        }
        Ok((start + header.len() as u64, record.len() as u64))
    }

    /// The entry of `key` under schema `tag`, decoded: one index probe
    /// and at most one positioned read, none if the read window holds
    /// the entry. An entry that decodes is marked as just used if
    /// `touch` says so. A key the index lacks is looked for again once
    /// the records written through other handles are indexed.
    fn find(&mut self, dir: &Path, tag: &str, key: &str, touch: bool) -> Option<JobOutput> {
        for indexed in [false, true] {
            if indexed {
                self.follow_generations(dir);
                self.scan_log();
            }
            let Some(entry) = self.entries.get_mut(key) else { continue };
            let log = self.log.as_ref()?;
            let bytes = self.window.entry(&log.file, entry, log.scanned, &mut self.reads).ok()?;
            let out = decode_entry(tag, bytes)?;
            if touch {
                self.clock += 1;
                entry.last_use = self.clock;
            }
            return Some(out);
        }
        None
    }

    /// Removes `key` to satisfy the budget. A failed tombstone only
    /// means another handle may still find the entry.
    fn evict(&mut self, dir: &Path, key: &str) {
        if self.forget(key) {
            self.evictions += 1;
            let _ = self.append(dir, key, b"");
        }
    }

    /// Whether the log's dead bytes exceed both its live bytes and
    /// [`COMPACT_SLACK`].
    fn log_is_sparse(&self) -> bool {
        let Some(log) = self.log.as_ref() else { return false };
        let Ok(meta) = log.file.metadata() else { return false };
        meta.len().saturating_sub(log.live) > log.live.max(COMPACT_SLACK)
    }

    /// Rewrites the log as its next generation, live records only and
    /// least recently used first, by way of the temp file `tmp`.
    fn compact(&mut self, dir: &Path, tmp: &Path) -> io::Result<()> {
        let Some(log) = self.log.as_mut() else { return Ok(()) };
        let generation = log.generation;
        let mut live: Vec<(String, Entry)> =
            self.entries.iter().map(|(key, entry)| (key.clone(), *entry)).collect();
        live.sort_by_key(|(_, entry)| entry.last_use);
        let mut out = Vec::new();
        let mut moved = Vec::with_capacity(live.len());
        let mut body = Vec::new();
        for (key, entry) in live {
            read_at(&log.file, &entry, &mut body)?;
            self.reads += 1;
            let header = record_header(&key, &body);
            let start = out.len() as u64;
            out.extend_from_slice(header.as_bytes());
            out.extend_from_slice(&body);
            moved.push((key, start + header.len() as u64));
        }
        fs::write(tmp, &out)?;
        fs::rename(tmp, log_path(dir, generation + 1))?;
        let file =
            OpenOptions::new().read(true).append(true).open(log_path(dir, generation + 1))?;
        let _ = fs::remove_file(log_path(dir, generation));
        for (key, offset) in moved {
            if let Some(entry) = self.entries.get_mut(&key) {
                entry.offset = offset;
            }
        }
        let size = out.len() as u64;
        self.log = Some(Log { file, generation: generation + 1, scanned: size, live: size });
        self.window.bytes.clear();
        Ok(())
    }
}

#[derive(Debug)]
struct Shared {
    dir: PathBuf,
    tag: String,
    index: Mutex<Index>,
    tmp_seq: AtomicU64,
}

/// A directory of cached job outputs keyed by content hash; a handle
/// is an `Arc`-shared reference to one store (clones share the index,
/// budget, and counters).
#[derive(Debug, Clone)]
pub struct DiskCache {
    shared: Arc<Shared>,
}

impl DiskCache {
    /// Opens (creating if needed) the cache at `dir` under the current
    /// schema tag.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        Self::open_with_tag(dir, CACHE_SCHEMA_TAG)
    }

    /// Opens a cache with an explicit schema tag (exposed so tests can
    /// demonstrate tag-bump invalidation).
    pub fn open_with_tag(dir: impl Into<PathBuf>, tag: &str) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut index = Index::default();
        if let Some(generation) = newest_log(&dir) {
            // A log that vanished since the listing was compacted away
            // through another handle; the next miss follows it.
            let _ = index.open_log(&dir, generation, false);
        }
        Ok(DiskCache {
            shared: Arc::new(Shared {
                dir,
                tag: tag.to_owned(),
                index: Mutex::new(index),
                tmp_seq: AtomicU64::new(0),
            }),
        })
    }

    /// The index, locked. A panic while another thread held it may have
    /// left it half updated; the log on disk is whole, so a poisoned
    /// index is built again from the log, keeping its budget and
    /// counters.
    fn index(&self) -> MutexGuard<'_, Index> {
        self.shared.index.lock().unwrap_or_else(|poisoned| {
            let mut index = poisoned.into_inner();
            let old = std::mem::take(&mut *index);
            *index = Index {
                budget: old.budget,
                clock: old.clock,
                hits: old.hits,
                misses: old.misses,
                stores: old.stores,
                evictions: old.evictions,
                reads: old.reads,
                ..Index::default()
            };
            if let Some(generation) = newest_log(&self.shared.dir) {
                let _ = index.open_log(&self.shared.dir, generation, false);
            }
            self.shared.index.clear_poison();
            index
        })
    }

    /// Caps the store at `bytes` of entries: after every write the
    /// least-recently-used entries are evicted until the total fits.
    /// The entry just written is evicted only if it alone exceeds the
    /// budget. Existing over-budget contents shrink on the next store.
    #[must_use]
    pub fn with_byte_budget(self, bytes: u64) -> Self {
        self.index().budget = Some(bytes);
        self
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.shared.dir
    }

    /// The configured byte budget, if any.
    pub fn byte_budget(&self) -> Option<u64> {
        self.index().budget
    }

    /// A snapshot of the per-process counters.
    pub fn stats(&self) -> CacheStats {
        let index = self.index();
        CacheStats {
            hits: index.hits,
            misses: index.misses,
            stores: index.stores,
            evictions: index.evictions,
            bytes: index.bytes,
            entries: index.entries.len() as u64,
            reads: index.reads,
        }
    }

    /// Looks up a job output by content hash. Any missing entry,
    /// header mismatch, or parse failure reads as a miss.
    pub fn load(&self, key: &str) -> Option<JobOutput> {
        let mut index = self.index();
        let out = if valid_key(key) {
            index.find(&self.shared.dir, &self.shared.tag, key, true)
        } else {
            None
        };
        if out.is_some() {
            index.hits += 1;
        } else {
            index.misses += 1;
        }
        out
    }

    /// [`DiskCache::load`] without touching the LRU order or counters
    /// (used by artifact endpoints that must not perturb eviction
    /// accounting, and internally).
    pub fn peek(&self, key: &str) -> Option<JobOutput> {
        if !valid_key(key) {
            return None;
        }
        self.index().find(&self.shared.dir, &self.shared.tag, key, false)
    }

    /// Stores a job output under its content hash by appending one
    /// record to the log, so concurrent readers and writers — in this
    /// process or another sharing the directory — never see a torn
    /// entry. With a byte budget set, least-recently-used entries are
    /// evicted afterwards until the store fits.
    pub fn store(&self, key: &str, out: &JobOutput) -> io::Result<()> {
        if !valid_key(key) {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, format!("bad key `{key}`")));
        }
        let body = render_entry(&self.shared.tag, out);
        let dir = &self.shared.dir;
        let mut index = self.index();
        let (offset, record) = index.append(dir, key, body.as_bytes())?;
        index.stores += 1;
        index.insert(key, offset, body.len() as u64, record);
        if let Some(budget) = index.budget {
            while index.bytes > budget {
                // Evict others first; the just-written entry goes only
                // if it alone is over budget.
                let Some(victim) = index.lru_victim(key) else { break };
                index.evict(dir, &victim);
            }
            if index.bytes > budget {
                index.evict(dir, key);
            }
            if index.log_is_sparse() {
                // The sequence number keeps the temp name unique among
                // the handles of this process. A failed compaction
                // leaves the log as it was.
                let seq = self.shared.tmp_seq.fetch_add(1, Ordering::Relaxed);
                let tmp = dir.join(format!(".tmp-{LOG_PREFIX}{}-{seq}", std::process::id()));
                if index.compact(dir, &tmp).is_err() {
                    let _ = fs::remove_file(&tmp);
                }
            }
        }
        Ok(())
    }

    /// True if a valid entry for `key` is stored (does not count as a
    /// hit or miss and does not touch the LRU order).
    pub fn contains(&self, key: &str) -> bool {
        self.peek(key).is_some()
    }
}

/// Keys are content hashes: lowercase hex only. Rejecting anything
/// else keeps log headers parseable, and trace paths inside their
/// directory, even when the key arrives over the network
/// (`/result/<key>`, `/trace/<key>`).
pub fn valid_key(key: &str) -> bool {
    !key.is_empty()
        && key.len() <= 64
        && key.bytes().all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
}

fn log_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("{LOG_PREFIX}{generation}"))
}

fn record_header(key: &str, body: &[u8]) -> String {
    format!("\n{key} {} {:016x}\n", body.len(), fnv1a(body))
}

/// FNV-1a digest of a record body.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

/// One whole record found in a log buffer.
struct Record<'a> {
    key: &'a str,
    /// Offset of the entry in the buffer.
    offset: u64,
    /// Entry length; 0 for a tombstone.
    len: u64,
    /// Length of the whole record: the empty line, the header and the
    /// entry.
    record: u64,
}

/// What starts at a line of a log buffer.
enum Line<'a> {
    /// A whole record whose entry matches its digest.
    Record(Record<'a>),
    /// A header whose entry runs past the end of the buffer.
    Partial,
    /// Anything else: an empty or non-header line, or a header whose
    /// entry fails its digest.
    Garbage,
}

/// Classifies the line at `pos` and returns where the next line
/// starts; `None` if no whole line is there.
fn line_at(buf: &[u8], pos: usize) -> Option<(Line<'_>, usize)> {
    let newline = buf[pos..].iter().position(|&b| b == b'\n')?;
    let body = pos + newline + 1;
    let Some((key, len, digest)) = parse_header(&buf[pos..body - 1]) else {
        return Some((Line::Garbage, body));
    };
    let end = match usize::try_from(len).ok().and_then(|len| body.checked_add(len)) {
        Some(end) if end <= buf.len() => end,
        Some(_) => return Some((Line::Partial, body)),
        None => return Some((Line::Garbage, body)),
    };
    if fnv1a(&buf[body..end]) != digest {
        return Some((Line::Garbage, body));
    }
    let record = (end - pos + 1) as u64;
    Some((Line::Record(Record { key, offset: body as u64, len, record }), body))
}

/// Parses the whole records at the start of `buf`; returns them and
/// the bytes they (and any garbage between them) span. A record whose
/// bytes are not all there yet ends the parse, so that a later scan
/// reads it whole, unless a whole record follows it: then it is the
/// remains of a torn write, and is skipped like any other garbage.
fn parse_records(buf: &[u8]) -> (Vec<Record<'_>>, usize) {
    let mut records = Vec::new();
    let mut pos = 0;
    while let Some((line, next)) = line_at(buf, pos) {
        match line {
            Line::Record(record) => {
                pos = (record.offset + record.len) as usize;
                records.push(record);
            }
            Line::Partial if !whole_record_from(buf, next) => break,
            Line::Partial | Line::Garbage => pos = next,
        }
    }
    (records, pos)
}

/// Whether a whole record starts at some line from `pos` on.
fn whole_record_from(buf: &[u8], mut pos: usize) -> bool {
    while let Some((line, next)) = line_at(buf, pos) {
        if matches!(line, Line::Record(_)) {
            return true;
        }
        pos = next;
    }
    false
}

fn parse_header(line: &[u8]) -> Option<(&str, u64, u64)> {
    let mut fields = std::str::from_utf8(line).ok()?.split(' ');
    let (key, len, digest) = (fields.next()?, fields.next()?, fields.next()?);
    if fields.next().is_some() || !valid_key(key) || digest.len() != 16 {
        return None;
    }
    Some((key, len.parse().ok()?, u64::from_str_radix(digest, 16).ok()?))
}

/// Reads the bytes of `entry` into `buf` with one positioned read.
fn read_at(file: &File, entry: &Entry, buf: &mut Vec<u8>) -> io::Result<()> {
    let len = usize::try_from(entry.size).map_err(io::Error::other)?;
    buf.resize(len, 0);
    file.read_exact_at(buf, entry.offset)
}

/// The newest log generation in `dir`. Older generations, left by an
/// interrupted compaction, and temp files of crashed writers are
/// removed.
fn newest_log(dir: &Path) -> Option<u64> {
    let mut generations = Vec::new();
    for entry in fs::read_dir(dir).ok()?.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(generation) = name.strip_prefix(LOG_PREFIX).and_then(|g| g.parse().ok()) {
            generations.push(generation);
        } else if name.starts_with(".tmp-") {
            let _ = fs::remove_file(entry.path());
        }
    }
    let newest = generations.iter().copied().max()?;
    for generation in generations.into_iter().filter(|&g| g < newest) {
        let _ = fs::remove_file(log_path(dir, generation));
    }
    Some(newest)
}

/// Renders an entry into one string: the tag line, then one
/// `key=value` line per field. Arrays and lists are comma-separated;
/// windows are groups of eight counters separated by semicolons, one
/// per 1k-cycle window.
fn render_entry(tag: &str, out: &JobOutput) -> String {
    let s = &out.stats;
    let m = &out.mem;
    let mut text =
        String::with_capacity(512 + 21 * s.per_slot_issued.len() + 168 * s.stall_windows.len());
    let _ = write!(text, "{tag}\ncycles={}\ninstructions={}", s.cycles, s.instructions);
    text.push_str("\nper_slot_issued=");
    push_u64s(&mut text, &s.per_slot_issued);
    for (key, values) in [
        ("fu_invocations", &s.fu_invocations[..]),
        ("fu_busy", &s.fu_busy),
        ("fu_instances", &s.fu_instances),
        ("stalls", &s.stalls.counts()),
    ] {
        let _ = write!(text, "\n{key}=");
        push_u64s(&mut text, values);
    }
    text.push_str("\nstall_windows=");
    for (i, window) in s.stall_windows.iter().enumerate() {
        if i > 0 {
            text.push(';');
        }
        push_u64s(&mut text, window);
    }
    let _ = writeln!(
        text,
        "\ncontext_switches={}\nthreads_killed={}\nrotations={}\n\
         mem_accesses={}\nmem_hits={}\nmem_misses={}\nmem_absences={}",
        s.context_switches, s.threads_killed, s.rotations, m.accesses, m.hits, m.misses, m.absences,
    );
    text
}

/// Appends `values` to `text`, comma-separated.
fn push_u64s(text: &mut String, values: &[u64]) {
    for (i, value) in values.iter().enumerate() {
        if i > 0 {
            text.push(',');
        }
        let _ = write!(text, "{value}");
    }
}

/// Decodes an entry straight from its bytes, walking them once with one
/// cursor. Stores written by every version since v2 hold this grammar:
/// the tag line, then `key=value` lines in any order, where an empty
/// line is skipped, a line may end in `\r\n`, a repeated key's last
/// value wins, a field left out stays zero or empty, and a number may
/// carry a leading `+`. Anything else (an unknown key, a line without
/// `=`, an empty, non-decimal or overflowing number, an array or window
/// of the wrong length) is `None`, a miss.
fn decode_entry(tag: &str, text: &[u8]) -> Option<JobOutput> {
    let mut c = EntryCursor { text, at: 0 };
    c.tag_line(tag)?;
    let mut out = JobOutput::default();
    let (s, m) = (&mut out.stats, &mut out.mem);
    while c.at < text.len() {
        if c.line_end() {
            continue; // an empty line
        }
        match c.key()? {
            b"cycles" => s.cycles = c.number()?,
            b"instructions" => s.instructions = c.number()?,
            b"per_slot_issued" => s.per_slot_issued = c.list(b',', EntryCursor::number)?,
            b"fu_invocations" => s.fu_invocations = c.array()?,
            b"fu_busy" => s.fu_busy = c.array()?,
            b"fu_instances" => s.fu_instances = c.array()?,
            b"stalls" => s.stalls = StallBreakdown::from_counts(c.array()?),
            b"stall_windows" => s.stall_windows = c.list(b';', EntryCursor::array::<8>)?,
            b"context_switches" => s.context_switches = c.number()?,
            b"threads_killed" => s.threads_killed = c.number()?,
            b"rotations" => s.rotations = c.number()?,
            b"mem_accesses" => m.accesses = c.number()?,
            b"mem_hits" => m.hits = c.number()?,
            b"mem_misses" => m.misses = c.number()?,
            b"mem_absences" => m.absences = c.number()?,
            _ => return None, // unknown field: treat as corrupt
        }
        // A value ends its line.
        if !c.line_end() && c.at < text.len() {
            return None;
        }
    }
    Some(out)
}

/// The one index [`decode_entry`] walks an entry with.
struct EntryCursor<'t> {
    text: &'t [u8],
    at: usize,
}

impl<'t> EntryCursor<'t> {
    fn peek(&self) -> Option<u8> {
        self.text.get(self.at).copied()
    }

    /// Steps over the first line if it is `tag`, less its `\n` or
    /// `\r\n`.
    fn tag_line(&mut self, tag: &str) -> Option<()> {
        if self.text.is_empty() {
            return None;
        }
        let line = match self.text.iter().position(|&b| b == b'\n') {
            Some(newline) => {
                self.at = newline + 1;
                let line = &self.text[..newline];
                line.strip_suffix(b"\r").unwrap_or(line)
            }
            None => {
                self.at = self.text.len();
                self.text
            }
        };
        (line == tag.as_bytes()).then_some(())
    }

    /// Steps over a `\n` or `\r\n` here; false if there is none.
    fn line_end(&mut self) -> bool {
        match self.peek() {
            Some(b'\n') => self.at += 1,
            Some(b'\r') if self.text.get(self.at + 1) == Some(&b'\n') => self.at += 2,
            _ => return false,
        }
        true
    }

    /// Whether the value here is empty: its line ends here.
    fn at_line_end(&self) -> bool {
        match self.peek() {
            None | Some(b'\n') => true,
            Some(b'\r') => self.text.get(self.at + 1) == Some(&b'\n'),
            _ => false,
        }
    }

    /// The key of the line here, stepping over it and its `=`; `None`
    /// if the line has no `=`.
    fn key(&mut self) -> Option<&'t [u8]> {
        let start = self.at;
        let len = self.text[start..].iter().position(|&b| b == b'=' || b == b'\n')?;
        if self.text[start + len] != b'=' {
            return None;
        }
        self.at = start + len + 1;
        Some(&self.text[start..start + len])
    }

    /// A decimal `u64`, digit by digit: an optional `+`, then at least
    /// one digit, and no overflow.
    fn number(&mut self) -> Option<u64> {
        if self.peek() == Some(b'+') {
            self.at += 1;
        }
        let start = self.at;
        let mut n = 0u64;
        while let Some(digit) = self.peek().map(|b| b.wrapping_sub(b'0')).filter(|&d| d <= 9) {
            n = n.checked_mul(10)?.checked_add(u64::from(digit))?;
            self.at += 1;
        }
        (self.at > start).then_some(n)
    }

    /// Exactly `N` comma-separated numbers.
    fn array<const N: usize>(&mut self) -> Option<[u64; N]> {
        let mut out = [0; N];
        for (i, slot) in out.iter_mut().enumerate() {
            if i > 0 {
                self.separator(b',')?;
            }
            *slot = self.number()?;
        }
        Some(out)
    }

    /// Items separated by `sep`, each read by `item`, up to the end of
    /// the line; an empty value is an empty list.
    fn list<T>(&mut self, sep: u8, item: fn(&mut Self) -> Option<T>) -> Option<Vec<T>> {
        let mut items = Vec::new();
        if self.at_line_end() {
            return Some(items);
        }
        loop {
            items.push(item(self)?);
            if self.separator(sep).is_none() {
                return Some(items);
            }
        }
    }

    /// Steps over `sep` if it is here.
    fn separator(&mut self, sep: u8) -> Option<()> {
        (self.peek() == Some(sep)).then(|| self.at += 1)
    }
}

#[cfg(test)]
mod tests {
    use hirata_mem::MemStats;
    use hirata_sim::RunStats;
    use proptest::prelude::*;

    use super::*;

    fn sample() -> JobOutput {
        let mut out = JobOutput::default();
        out.stats.cycles = 12345;
        out.stats.instructions = 678;
        out.stats.per_slot_issued = vec![100, 200, 378];
        out.stats.fu_invocations = [1, 2, 3, 4, 5, 6, 7];
        out.stats.fu_busy = [2, 4, 6, 8, 10, 12, 14];
        out.stats.fu_instances = [1, 1, 1, 1, 1, 1, 2];
        out.stats.stalls = StallBreakdown::from_counts([9, 8, 7, 6, 5, 4, 3, 2]);
        out.stats.stall_windows = vec![[4, 4, 3, 3, 2, 2, 1, 1], [5, 4, 4, 3, 3, 2, 2, 1]];
        out.stats.context_switches = 11;
        out.stats.threads_killed = 2;
        out.stats.rotations = 40;
        out.mem = MemStats { accesses: 50, hits: 48, misses: 2, absences: 0 };
        out
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hirata-lab-cache-test-{name}"));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn roundtrip_is_identity() {
        let cache = DiskCache::open(tmp_dir("roundtrip")).expect("open");
        let out = sample();
        cache.store("1a", &out).expect("store");
        assert_eq!(cache.load("1a"), Some(out));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.stores), (1, 0, 1));
        assert_eq!(stats.entries, 1);
        assert!(stats.bytes > 0);
    }

    #[test]
    fn missing_key_is_a_miss() {
        let cache = DiskCache::open(tmp_dir("missing")).expect("open");
        assert_eq!(cache.load("ab5e7"), None);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn tag_mismatch_is_a_miss() {
        let dir = tmp_dir("tags");
        let old = DiskCache::open_with_tag(&dir, "hirata-lab-cache-v0").expect("open");
        old.store("ab", &sample()).expect("store");
        let new = DiskCache::open(&dir).expect("open");
        assert_eq!(new.load("ab"), None);
        // Re-storing under the current tag makes it visible again.
        new.store("ab", &sample()).expect("store");
        assert_eq!(new.load("ab"), Some(sample()));
    }

    #[test]
    fn corrupt_entries_are_misses() {
        let dir = tmp_dir("corrupt");
        let cache = DiskCache::open(&dir).expect("open");
        cache.store("ab", &sample()).expect("store");
        // Whole records (their digests match) whose entries do not parse.
        let mut log = OpenOptions::new().append(true).open(log_path(&dir, 0)).expect("log");
        for (key, body) in [
            ("bad1", format!("{CACHE_SCHEMA_TAG}\ncycles=notanumber\n")),
            ("bad2", format!("{CACHE_SCHEMA_TAG}\nunknown_field=1\n")),
        ] {
            let record = format!("{}{body}", record_header(key, body.as_bytes()));
            log.write_all(record.as_bytes()).expect("append");
            assert_eq!(cache.load(key), None);
        }
        assert_eq!(cache.load("ab"), Some(sample()));
    }

    /// Appends whole records (their digests match) for `bodies` to the
    /// store at `dir` behind `cache`'s back.
    fn append_records(dir: &Path, bodies: &[(&str, String)]) {
        let mut log = OpenOptions::new().append(true).open(log_path(dir, 0)).expect("log");
        for (key, body) in bodies {
            let record = format!("{}{body}", record_header(key, body.as_bytes()));
            log.write_all(record.as_bytes()).expect("append");
        }
    }

    #[test]
    fn entries_render_to_pinned_text() {
        assert_eq!(
            render_entry(CACHE_SCHEMA_TAG, &sample()),
            "hirata-lab-cache-v5\n\
             cycles=12345\n\
             instructions=678\n\
             per_slot_issued=100,200,378\n\
             fu_invocations=1,2,3,4,5,6,7\n\
             fu_busy=2,4,6,8,10,12,14\n\
             fu_instances=1,1,1,1,1,1,2\n\
             stalls=9,8,7,6,5,4,3,2\n\
             stall_windows=4,4,3,3,2,2,1,1;5,4,4,3,3,2,2,1\n\
             context_switches=11\n\
             threads_killed=2\n\
             rotations=40\n\
             mem_accesses=50\n\
             mem_hits=48\n\
             mem_misses=2\n\
             mem_absences=0\n"
        );
        let mut bare = JobOutput::default();
        bare.stats.cycles = u64::MAX;
        bare.mem.absences = 7;
        assert_eq!(
            render_entry(CACHE_SCHEMA_TAG, &bare),
            "hirata-lab-cache-v5\n\
             cycles=18446744073709551615\n\
             instructions=0\n\
             per_slot_issued=\n\
             fu_invocations=0,0,0,0,0,0,0\n\
             fu_busy=0,0,0,0,0,0,0\n\
             fu_instances=0,0,0,0,0,0,0\n\
             stalls=0,0,0,0,0,0,0,0\n\
             stall_windows=\n\
             context_switches=0\n\
             threads_killed=0\n\
             rotations=0\n\
             mem_accesses=0\n\
             mem_hits=0\n\
             mem_misses=0\n\
             mem_absences=7\n"
        );
    }

    #[test]
    fn malformed_fields_are_misses() {
        let dir = tmp_dir("malformed");
        let cache = DiskCache::open(&dir).expect("open");
        cache.store("ab", &sample()).expect("store");
        let good = render_entry(CACHE_SCHEMA_TAG, &sample());
        let with = |from: &str, to: &str| {
            assert!(good.contains(from), "{from}");
            good.replacen(from, to, 1)
        };
        let bodies = [
            // Truncated arrays and windows.
            ("b1", with("fu_busy=2,4,6,8,10,12,14", "fu_busy=2,4,6,8,10,12")),
            ("b2", with("stalls=9,8,7,6,5,4,3,2", "stalls=9")),
            ("b3", with("4,4,3,3,2,2,1,1;", "4,4,3,3,2,2,1;")),
            // Over-long arrays and windows.
            ("b4", with("fu_instances=1,1,1,1,1,1,2", "fu_instances=1,1,1,1,1,1,2,3")),
            ("b5", with("5,4,4,3,3,2,2,1\n", "5,4,4,3,3,2,2,1,0\n")),
            // Overflowing numbers, alone and in a list.
            ("b6", with("cycles=12345", "cycles=18446744073709551616")),
            ("b7", with("per_slot_issued=100,", "per_slot_issued=99999999999999999999,")),
            // Empty fields: a number, an array, a list entry, a window.
            ("b8", with("cycles=12345", "cycles=")),
            ("b9", with("fu_busy=2,4,6,8,10,12,14", "fu_busy=")),
            ("ba", with("per_slot_issued=100,200", "per_slot_issued=100,,200")),
            ("bb", with("4,4,3,3,2,2,1,1;", "4,4,3,3,2,2,1,1;;")),
            // Unknown keys, and a line with no key at all.
            ("bc", with("rotations=40", "rotation=40")),
            ("bd", with("rotations=40", "rotations")),
            ("be", with("mem_hits=48", "mem_hits=4 8")),
            ("bf", with("mem_hits=48", "mem_hits=-48")),
        ];
        append_records(&dir, &bodies);
        for (key, _) in &bodies {
            assert_eq!(cache.load(key), None, "{key} must be a miss");
        }
        assert_eq!(cache.load("ab"), Some(sample()));
    }

    #[test]
    fn lenient_spellings_read_as_before() {
        // What the line-by-line parser of earlier versions accepted, a
        // store still reads: empty lines, `\r\n` endings, a repeated
        // key (the last wins), a leading `+`, leading zeros, and fields
        // left out (zero or empty).
        let dir = tmp_dir("lenient");
        let cache = DiskCache::open(&dir).expect("open");
        cache.store("ab", &sample()).expect("store");
        let good = render_entry(CACHE_SCHEMA_TAG, &sample());
        let crlf = good.replace('\n', "\r\n");
        let repeated = good.replacen("cycles=12345\n", "cycles=7\n\ncycles=+012345\n", 1);
        let bare = format!("{CACHE_SCHEMA_TAG}\nrotations=40\n");
        append_records(&dir, &[("c1", crlf), ("c2", repeated), ("c3", bare)]);
        assert_eq!(cache.load("c1"), Some(sample()));
        assert_eq!(cache.load("c2"), Some(sample()));
        let mut rotations = JobOutput::default();
        rotations.stats.rotations = 40;
        assert_eq!(cache.load("c3"), Some(rotations));
    }

    /// Counters from every range: small, any width, and the extremes.
    fn counter() -> BoxedStrategy<u64> {
        prop_oneof![3 => 0u64..1000, 3 => 0u64..u64::MAX, 1 => Just(u64::MAX), 1 => Just(0u64)]
            .boxed()
    }

    /// A [`JobOutput`] from nine scalar counters, 29 array counters (the
    /// three FU arrays, then the stall breakdown), per-slot counts and
    /// windows of eight counters.
    fn output(scalars: &[u64], arrays: &[u64], slots: Vec<u64>, windows: &[Vec<u64>]) -> JobOutput {
        let fu = |i: usize| arrays[7 * i..7 * i + 7].try_into().expect("seven counters");
        let stats = RunStats {
            cycles: scalars[0],
            instructions: scalars[1],
            per_slot_issued: slots,
            fu_invocations: fu(0),
            fu_busy: fu(1),
            fu_instances: fu(2),
            stalls: StallBreakdown::from_counts(arrays[21..].try_into().expect("eight counters")),
            stall_windows: windows.iter().map(|w| w[..].try_into().expect("a window")).collect(),
            context_switches: scalars[2],
            threads_killed: scalars[3],
            rotations: scalars[4],
        };
        let mem = MemStats {
            accesses: scalars[5],
            hits: scalars[6],
            misses: scalars[7],
            absences: scalars[8],
        };
        JobOutput { stats, mem }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any output reads back as it was stored, counters up to
        /// `u64::MAX`, 0-64 slots and 0-50 windows: in the handle that
        /// stored it and in a new one.
        #[test]
        fn any_output_round_trips_through_the_store(
            scalars in prop::collection::vec(counter(), 9..10),
            arrays in prop::collection::vec(counter(), 29..30),
            slots in prop::collection::vec(counter(), 0..65),
            windows in prop::collection::vec(prop::collection::vec(counter(), 8..9), 0..51),
        ) {
            static CASE: AtomicU64 = AtomicU64::new(0);
            let out = output(&scalars, &arrays, slots, &windows);
            let dir = tmp_dir(&format!("round-trip-{}", CASE.fetch_add(1, Ordering::Relaxed)));
            let cache = DiskCache::open(&dir).expect("open");
            cache.store("ab", &out).expect("store");
            prop_assert_eq!(cache.load("ab"), Some(out.clone()));
            prop_assert_eq!(DiskCache::open(&dir).expect("reopen").load("ab"), Some(out));
            let _ = fs::remove_dir_all(&dir);
        }
    }

    /// The line-splitting entry decoder of the store's earlier versions,
    /// kept as the reference [`decode_entry`] must agree with.
    mod reference {
        use super::*;

        pub fn decode_entry(tag: &str, text: &[u8]) -> Option<JobOutput> {
            let mut lines = text.split_inclusive(|&b| b == b'\n').map(line_body);
            if lines.next()? != tag.as_bytes() {
                return None;
            }
            let mut out = JobOutput::default();
            let (s, m) = (&mut out.stats, &mut out.mem);
            for line in lines.filter(|line| !line.is_empty()) {
                let eq = line.iter().position(|&b| b == b'=')?;
                let value = &line[eq + 1..];
                match &line[..eq] {
                    b"cycles" => s.cycles = number(value)?,
                    b"instructions" => s.instructions = number(value)?,
                    b"per_slot_issued" => s.per_slot_issued = list(value, b',', number)?,
                    b"fu_invocations" => s.fu_invocations = array(value)?,
                    b"fu_busy" => s.fu_busy = array(value)?,
                    b"fu_instances" => s.fu_instances = array(value)?,
                    b"stalls" => s.stalls = StallBreakdown::from_counts(array(value)?),
                    b"stall_windows" => s.stall_windows = list(value, b';', array::<8>)?,
                    b"context_switches" => s.context_switches = number(value)?,
                    b"threads_killed" => s.threads_killed = number(value)?,
                    b"rotations" => s.rotations = number(value)?,
                    b"mem_accesses" => m.accesses = number(value)?,
                    b"mem_hits" => m.hits = number(value)?,
                    b"mem_misses" => m.misses = number(value)?,
                    b"mem_absences" => m.absences = number(value)?,
                    _ => return None,
                }
            }
            Some(out)
        }

        fn line_body(line: &[u8]) -> &[u8] {
            match line.strip_suffix(b"\n") {
                Some(line) => line.strip_suffix(b"\r").unwrap_or(line),
                None => line,
            }
        }

        fn number(text: &[u8]) -> Option<u64> {
            let digits = text.strip_prefix(b"+").unwrap_or(text);
            if digits.is_empty() {
                return None;
            }
            digits.iter().try_fold(0u64, |n, &b| {
                let digit = b.wrapping_sub(b'0');
                if digit > 9 {
                    return None;
                }
                n.checked_mul(10)?.checked_add(u64::from(digit))
            })
        }

        fn array<const N: usize>(text: &[u8]) -> Option<[u64; N]> {
            let mut items = text.split(|&b| b == b',');
            let mut out = [0; N];
            for slot in &mut out {
                *slot = number(items.next()?)?;
            }
            items.next().is_none().then_some(out)
        }

        fn list<T>(text: &[u8], sep: u8, item: impl Fn(&[u8]) -> Option<T>) -> Option<Vec<T>> {
            if text.is_empty() {
                return Some(Vec::new());
            }
            text.split(|&b| b == sep).map(item).collect()
        }
    }

    /// Bytes an edit puts into an entry: the grammar's own (digits,
    /// separators, line ends, `+`, `=`), letters of its keys, and a few
    /// others.
    const EDIT_BYTES: &[u8] = b"0123456789,,;;==+\n\n\r-_ aceilmrstuwyz\t\0\xff";

    /// Applies `edits` to `text`: each replaces, inserts, deletes or
    /// repeats bytes at a position taken modulo the text's length.
    fn edit(text: &mut Vec<u8>, edits: &[(usize, u8, u8, usize)]) {
        for &(at, kind, byte, len) in edits {
            let byte = EDIT_BYTES[byte as usize % EDIT_BYTES.len()];
            let at = at % (text.len() + 1);
            match kind {
                0 if at < text.len() => text[at] = byte,
                1 => text.insert(at, byte),
                2 => {
                    let end = (at + len).min(text.len());
                    text.drain(at..end);
                }
                _ => {
                    let end = (at + len).min(text.len());
                    let span = text[at..end].to_vec();
                    text.splice(at..at, span);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// Rendered entries with random byte edits decode exactly as the
        /// reference decoder decodes them: the same entries are misses,
        /// and the rest decode to the same output.
        #[test]
        fn edited_entries_decode_as_the_reference_decodes_them(
            scalars in prop::collection::vec(counter(), 9..10),
            arrays in prop::collection::vec(counter(), 29..30),
            slots in prop::collection::vec(counter(), 0..5),
            windows in prop::collection::vec(prop::collection::vec(counter(), 8..9), 0..3),
            edits in prop::collection::vec((0usize..4096, 0u8..4, 0u8..64, 1usize..12), 0..4),
            crlf in proptest::sample::select(vec![false, false, false, true]),
        ) {
            let out = output(&scalars, &arrays, slots, &windows);
            let mut text = render_entry(CACHE_SCHEMA_TAG, &out);
            if crlf {
                text = text.replace('\n', "\r\n");
            }
            let mut text = text.into_bytes();
            edit(&mut text, &edits);
            let decoded = decode_entry(CACHE_SCHEMA_TAG, &text);
            prop_assert_eq!(&decoded, &reference::decode_entry(CACHE_SCHEMA_TAG, &text));
            if edits.is_empty() {
                prop_assert_eq!(decoded, Some(out));
            }
        }
    }

    #[test]
    fn entries_at_the_grammars_edges_decode_as_the_reference_decodes_them() {
        let tag = CACHE_SCHEMA_TAG;
        let cases = [
            String::new(),
            tag.to_string(),
            format!("{tag}\r"),
            format!("{tag}\r\n"),
            format!("{tag}\n\r"),
            format!("{tag}x\n"),
            format!("{tag}\ncycles=1"),
            format!("{tag}\ncycles=1\r"),
            format!("{tag}\ncycles=1\r\r\n"),
            format!("{tag}\ncycles=+1\n"),
            format!("{tag}\ncycles=++1\n"),
            format!("{tag}\ncycles=+\n"),
            format!("{tag}\ncycles=1=2\n"),
            format!("{tag}\ncycles==1\n"),
            format!("{tag}\n=1\n"),
            format!("{tag}\n\n\r\n\ncycles=3\n"),
            format!("{tag}\ncycles\n"),
            format!("{tag}\nper_slot_issued=\n"),
            format!("{tag}\nper_slot_issued=,\n"),
            format!("{tag}\nper_slot_issued=1,\n"),
            format!("{tag}\nper_slot_issued=0001,+2\n"),
            format!("{tag}\nstall_windows=\n"),
            format!("{tag}\nstall_windows=;\n"),
            format!("{tag}\nstall_windows=1,2,3,4,5,6,7,8;\n"),
            format!("{tag}\nstall_windows=1,2,3,4,5,6,7,8;1,2,3,4,5,6,7,8\r\n"),
            format!("{tag}\nfu_busy=1,2,3,4,5,6,7\nfu_busy=7,6,5,4,3,2,1"),
            format!("{tag}\nfu_busy=1,2,3,4,5,6,7,\n"),
            format!("{tag}\nstalls=1,2,3,4,5,6,7,18446744073709551615\n"),
            format!("{tag}\nstalls=1,2,3,4,5,6,7,18446744073709551616\n"),
            format!("{tag}\nmem_hits=00000000000000000000000000001\n"),
        ];
        for text in cases {
            let decoded = decode_entry(tag, text.as_bytes());
            assert_eq!(decoded, reference::decode_entry(tag, text.as_bytes()), "{text:?}");
        }
    }

    /// [`sample`], told apart from others by its cycle count.
    fn numbered(cycles: u64) -> JobOutput {
        let mut out = sample();
        out.stats.cycles = cycles;
        out
    }

    #[test]
    fn entries_written_together_read_back_in_one_read() {
        let dir = tmp_dir("window");
        let cache = DiskCache::open(&dir).expect("open");
        for k in 0..40 {
            cache.store(&format!("{k:x}"), &numbered(k)).expect("store");
        }
        for reader in [cache.clone(), DiskCache::open(&dir).expect("reopen")] {
            let reads = || reader.stats().reads;
            let before = reads();
            // Nine entries written one after another, looked up out of
            // order: one read around the first brings in all of them.
            for k in [20, 17, 18, 19, 21, 22, 23, 24, 16] {
                assert_eq!(reader.load(&format!("{k:x}")).map(|o| o.stats.cycles), Some(k));
            }
            assert_eq!(reads() - before, 1);
            // A far entry takes a read; its neighbour then takes none.
            assert_eq!(reader.load("0").map(|o| o.stats.cycles), Some(0));
            assert_eq!(reader.load("1").map(|o| o.stats.cycles), Some(1));
            assert_eq!(reads() - before, 2);
            assert!(reader.index().window.bytes.len() as u64 <= WINDOW);
        }
        // Entries larger than the window are read alone, and whole.
        let mut large = sample();
        large.stats.stall_windows = vec![[7; 8]; 600];
        cache.store("fe", &large).expect("store");
        cache.store("ff", &numbered(99)).expect("store");
        assert!(render_entry(CACHE_SCHEMA_TAG, &large).len() as u64 > WINDOW);
        assert_eq!(cache.load("fe"), Some(large));
        assert_eq!(cache.load("ff"), Some(numbered(99)));
        assert_eq!(cache.load("20").map(|o| o.stats.cycles), Some(32));
    }

    #[test]
    fn a_record_another_writer_is_still_appending_is_never_read_from_the_window() {
        let dir = tmp_dir("window-torn");
        let cache = DiskCache::open(&dir).expect("open");
        cache.store("aa", &numbered(1)).expect("store");
        let body = render_entry(CACHE_SCHEMA_TAG, &numbered(2));
        let record = format!("{}{body}", record_header("bb", body.as_bytes()));
        let (head, tail) = record.split_at(record.len() / 2);
        let mut log = OpenOptions::new().append(true).open(log_path(&dir, 0)).expect("log");
        let whole = log.metadata().expect("log").len();
        log.write_all(head.as_bytes()).expect("append");
        assert_eq!(cache.load("aa"), Some(numbered(1)));
        assert_eq!(cache.load("bb"), None, "half a record is no entry");
        let held = {
            let index = cache.index();
            index.window.start + index.window.bytes.len() as u64
        };
        assert_eq!(held, whole, "the window ends where the scan did");
        log.write_all(tail.as_bytes()).expect("append");
        assert_eq!(cache.load("bb"), Some(numbered(2)));
        assert_eq!(cache.load("aa"), Some(numbered(1)));
    }

    #[test]
    fn a_new_log_generation_drops_the_window() {
        let dir = tmp_dir("window-compact");
        // Every entry here is at most this long: its cycle count has at
        // most four digits.
        let size = render_entry(CACHE_SCHEMA_TAG, &numbered(1000)).len() as u64;
        let cache = DiskCache::open(&dir).expect("open").with_byte_budget(size * 4);
        let other = DiskCache::open(&dir).expect("open");
        let stores = 2 * COMPACT_SLACK / size + 10;
        for k in 0..stores {
            cache.store(&format!("{k:x}"), &numbered(k)).expect("store");
            // The other handle fills its window from each generation in
            // turn, and must never read one through another's offsets.
            let newest = format!("{k:x}");
            assert_eq!(other.load(&newest).map(|o| o.stats.cycles), Some(k), "{newest}");
            for old in k.saturating_sub(3)..k {
                let key = format!("{old:x}");
                assert_eq!(cache.peek(&key).map(|o| o.stats.cycles), Some(old), "{key}");
            }
        }
        assert_ne!(files_in(&dir), ["pack-0"], "the log was never compacted");
    }

    #[test]
    fn a_panic_while_the_index_is_held_leaves_a_working_store() {
        let dir = tmp_dir("poisoned");
        let cache = DiskCache::open(&dir).expect("open");
        cache.store("aa", &numbered(1)).expect("store");
        assert_eq!(cache.load("aa"), Some(numbered(1)));
        let holder = cache.clone();
        let panicked = std::thread::spawn(move || {
            let mut index = holder.index();
            // Half an update: the entry is gone, its bytes still counted.
            index.entries.clear();
            panic!("a panic while the index is held");
        })
        .join();
        assert!(panicked.is_err());
        assert_eq!(cache.load("aa"), Some(numbered(1)));
        cache.store("bb", &numbered(2)).expect("store");
        assert_eq!(cache.load("bb"), Some(numbered(2)));
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.hits, stats.stores), (2, 3, 2));
        assert_eq!(stats.bytes, 2 * render_entry(CACHE_SCHEMA_TAG, &numbered(1)).len() as u64);
    }

    #[test]
    fn traversal_keys_are_rejected() {
        let cache = DiskCache::open(tmp_dir("traversal")).expect("open");
        for bad in ["../etc/passwd", "a/b", "", "UPPER", ".tmp-x", &"f".repeat(65)] {
            assert_eq!(cache.load(bad), None, "{bad:?}");
            assert!(cache.store(bad, &sample()).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn clones_share_index_and_counters() {
        let cache = DiskCache::open(tmp_dir("clones")).expect("open");
        let other = cache.clone();
        other.store("cafe", &sample()).expect("store");
        assert_eq!(cache.load("cafe"), Some(sample()));
        let stats = cache.stats();
        assert_eq!((stats.stores, stats.hits), (1, 1));
        assert_eq!(other.stats(), stats);
    }

    #[test]
    fn reopen_seeds_index_from_disk() {
        let dir = tmp_dir("reopen");
        let cache = DiskCache::open(&dir).expect("open");
        cache.store("aa", &sample()).expect("store");
        cache.store("bb", &sample()).expect("store");
        drop(cache);
        let cache = DiskCache::open(&dir).expect("reopen");
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert!(stats.bytes > 0);
        assert_eq!(cache.load("aa"), Some(sample()));
    }

    fn files_in(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .expect("list")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn entries_share_one_log_file() {
        let dir = tmp_dir("one-log");
        let cache = DiskCache::open(&dir).expect("open");
        for k in 0..40u64 {
            let mut out = sample();
            out.stats.cycles = k;
            cache.store(&format!("{k:x}"), &out).expect("store");
        }
        assert_eq!(files_in(&dir), ["pack-0"]);
        drop(cache);
        let cache = DiskCache::open(&dir).expect("reopen");
        assert_eq!(cache.stats().entries, 40);
        for k in 0..40u64 {
            assert_eq!(cache.load(&format!("{k:x}")).expect("hit").stats.cycles, k);
        }
    }

    #[test]
    fn a_handle_sees_what_another_stored_after_it_opened() {
        // Two handles on one directory index it separately, as two
        // processes would.
        let dir = tmp_dir("two-handles");
        let a = DiskCache::open(&dir).expect("open");
        let b = DiskCache::open(&dir).expect("open");
        a.store("aa", &sample()).expect("store");
        assert_eq!(b.load("aa"), Some(sample()));
        b.store("bb", &sample()).expect("store");
        assert_eq!(a.load("bb"), Some(sample()));
        assert_eq!((a.stats().hits, b.stats().hits), (1, 1));
        assert_eq!(a.stats().entries, 2);
    }

    #[test]
    fn torn_records_are_skipped() {
        let dir = tmp_dir("torn");
        let cache = DiskCache::open(&dir).expect("open");
        cache.store("aa", &sample()).expect("store");
        // A writer that died half-way through a record; a record whose
        // bytes are all there but mixed up (its digest fails); a whole
        // record; then one more torn record at the very end.
        let torn = format!("\nbb 500 {:016x}\n{CACHE_SCHEMA_TAG}\ncycl", 1);
        let mixed = format!("\nbd 4 {:016x}\ncycl", 1);
        let log = log_path(&dir, 0);
        let mut file = OpenOptions::new().append(true).open(&log).expect("log");
        file.write_all(torn.as_bytes()).expect("append");
        file.write_all(mixed.as_bytes()).expect("append");
        cache.store("cc", &sample()).expect("store");
        file.write_all(torn.replace("bb", "dd").as_bytes()).expect("append");

        let other = DiskCache::open(&dir).expect("reopen");
        assert_eq!(other.load("aa"), Some(sample()));
        assert_eq!(other.load("cc"), Some(sample()));
        assert_eq!(other.stats().entries, 2, "only whole records are indexed");
        for key in ["bb", "bd", "dd"] {
            assert_eq!(other.load(key), None);
        }
        // A record appended after the torn tail is found too.
        cache.store("ee", &sample()).expect("store");
        assert_eq!(other.load("ee"), Some(sample()));
    }

    #[test]
    fn a_record_still_being_written_is_read_once_whole() {
        let body = render_entry(CACHE_SCHEMA_TAG, &sample());
        let record = format!("{}{body}", record_header("ab", body.as_bytes()));
        let cut = record.len() - 5;
        let (records, consumed) = parse_records(&record.as_bytes()[..cut]);
        assert!(records.is_empty());
        assert_eq!(consumed, 1, "only the empty line before the header is consumed");
        let (records, consumed) = parse_records(record.as_bytes());
        assert_eq!(records.len(), 1);
        assert_eq!((records[0].key, records[0].len), ("ab", body.len() as u64));
        assert_eq!(records[0].record, record.len() as u64);
        assert_eq!(consumed, record.len());
    }

    #[test]
    fn eviction_survives_reopening() {
        let dir = tmp_dir("evict-reopen");
        let size = render_entry(CACHE_SCHEMA_TAG, &sample()).len() as u64;
        let cache = DiskCache::open(&dir).expect("open").with_byte_budget(size * 2);
        for key in ["a1", "a2", "a3"] {
            cache.store(key, &sample()).expect("store");
        }
        assert!(!cache.contains("a1"));
        drop(cache);
        let cache = DiskCache::open(&dir).expect("reopen");
        assert!(!cache.contains("a1"), "the tombstone outlives the handle");
        assert!(cache.contains("a2") && cache.contains("a3"));
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn a_budgeted_log_is_compacted() {
        let dir = tmp_dir("compact");
        let size = render_entry(CACHE_SCHEMA_TAG, &sample()).len() as u64;
        let cache = DiskCache::open(&dir).expect("open").with_byte_budget(size * 4);
        let stores = 2 * COMPACT_SLACK / size + 10;
        for k in 0..stores {
            cache.store(&format!("{k:x}"), &sample()).expect("store");
        }
        let logs = files_in(&dir);
        assert_eq!(logs.len(), 1, "one log left: {logs:?}");
        assert_ne!(logs[0], "pack-0", "the log was never compacted");
        let log_bytes = fs::metadata(dir.join(&logs[0])).expect("log").len();
        assert!(log_bytes <= 2 * COMPACT_SLACK + 4 * size, "log kept {log_bytes} bytes");
        // The four newest entries survive, in this handle and a new one.
        let reopened = DiskCache::open(&dir).expect("reopen");
        for k in stores - 4..stores {
            assert!(cache.contains(&format!("{k:x}")), "{k:x} lost");
            assert!(reopened.contains(&format!("{k:x}")), "{k:x} lost on reopen");
        }
        assert_eq!(reopened.stats().entries, 4);
        // A handle opened before the compaction follows it.
        cache.store("feed", &sample()).expect("store");
        assert!(reopened.contains("feed"));
    }
}
