//! The append-only segmented store: segment files, record envelopes,
//! the CRC-journaled index, crash recovery, and lock-free readers.
//!
//! ## At-rest format
//!
//! A store directory holds `seg-<id>.tseg` segment files plus one
//! `index.jnl` journal. Every multi-byte field is little-endian;
//! every structure is covered by the frame codec's CRC-32
//! ([`tonos_dsp::frame::crc32`]).
//!
//! **Segment header** (28 bytes): `TONOSEG1` magic, `u32` version,
//! `u64` segment id, `u32` reserved, `u32` CRC over the first 24.
//!
//! **Record envelope**: `TREC` magic, then `device`, `session`,
//! `clock_start`, `clock_end` (`u64` each, clocks always in tier-0
//! sample units), `tier` byte, 3 reserved bytes, `u32` payload length,
//! the payload — a complete [`tonos_core::export`] binary session
//! record — and a `u32` CRC over everything after the magic. The
//! payload's own meta frame must agree with the envelope
//! ([`validate_record_meta`] plus span arithmetic), so a torn or
//! forged envelope cannot smuggle a mismatched record past recovery.
//!
//! **Segment footer** (sealed segments only): `TSEF`, `u32` entry
//! count, 48-byte index entries, `u32` CRC, `u32` footer length,
//! `TSEZ`. The trailing 8 bytes locate the footer from EOF, so a
//! sealed segment is self-indexing even if the journal is lost.
//!
//! **Journal**: fixed 62-byte entries (`TIDX`, kind byte, the index
//! fields, CRC). Kind 0 publishes one record; kind 1 seals a segment.
//! The journal is an optimization — recovery rebuilds it — but it is
//! what makes reopening a large store O(records) in journal bytes
//! rather than O(bytes) in payload re-reads.
//!
//! ## Recovery
//!
//! On open: replay the journal, dropping a torn tail entry; segments
//! the journal says are sealed are trusted as-is; every other segment
//! (normally just the youngest) is re-scanned envelope-by-envelope —
//! CRC, meta gate, span arithmetic — and the file is truncated at the
//! first byte that fails, counting the torn tail. The journal is then
//! rewritten atomically (tmp + rename) to the recovered truth.
//!
//! ## Publish protocol
//!
//! The writer appends bytes, journals, **then** publishes the entry
//! into the index snapshot (`Mutex<Arc<IndexSnapshot>>`, held only to
//! clone the `Arc` or to insert one entry). Readers clone the `Arc` and
//! never touch the writer lock: a record is visible only after it is
//! fully on disk, which is the "readers never observe a partially
//! published record" property the concurrency test pins down. The
//! insert is copy-on-write (`Arc::make_mut`): with no reader holding
//! the snapshot it lands in place, and a held snapshot is copied first,
//! so every reader keeps an immutable view. Readers copy the entries a
//! query needs and drop the snapshot before their file IO, so they
//! hold it only for that copy.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use tonos_core::export::{read_session_record, validate_record_meta, write_record_parts};
use tonos_dsp::frame::{crc32, Frame, ParseOutcome};
use tonos_fleet::{FleetEngine, SessionSummary};
use tonos_mems::units::MillimetersHg;
use tonos_telemetry::{names, Counter, Gauge, Histogram, Severity, SpanTimer, Telemetry};

use crate::tiers::{downsample_block, tier_stride, MAX_TIER, TIER_RATIO, WARMUP};

const SEG_MAGIC: &[u8; 8] = b"TONOSEG1";
const SEG_VERSION: u32 = 1;
const SEG_HEADER_LEN: u64 = 28;

const REC_MAGIC: &[u8; 4] = b"TREC";
const REC_HEADER_LEN: usize = 44;

const FOOTER_MAGIC: &[u8; 4] = b"TSEF";
const FOOTER_TRAILER: &[u8; 4] = b"TSEZ";
const FOOTER_ENTRY_LEN: usize = 48;

const JOURNAL_ENTRY_LEN: usize = 62;
const JOURNAL_MAGIC: &[u8; 4] = b"TIDX";

/// Upper bound on one record's payload — matches ~4 M samples; a
/// corrupt length field past this is rejected without allocation.
const MAX_PAYLOAD: u32 = 1 << 26;

fn corrupt(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// When the store calls `fsync`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Sync the segment file after every appended record — maximum
    /// durability, one disk round-trip per append.
    EveryRecord,
    /// Sync only when a segment seals (and on footer/journal writes).
    /// A crash can lose OS-buffered tail records of the active
    /// segment; recovery truncates to the last whole one.
    OnSeal,
}

/// Store tuning.
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Segment roll threshold in bytes (a segment may exceed it by at
    /// most one record).
    pub segment_bytes: u64,
    /// Durability policy.
    pub fsync: FsyncPolicy,
    /// Source samples per compaction block (multiple of
    /// [`TIER_RATIO`], at least [`WARMUP`]).
    pub tier_block: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            segment_bytes: 8 * 1024 * 1024,
            fsync: FsyncPolicy::OnSeal,
            tier_block: 4096,
        }
    }
}

/// One published record's index entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexEntry {
    /// Segment file id.
    pub segment: u64,
    /// Envelope offset within the segment file.
    pub offset: u64,
    /// Originating device id.
    pub device: u64,
    /// Measurement-session id.
    pub session: u64,
    /// Downsampling tier (0 = as ingested).
    pub tier: u8,
    /// First sample's device clock, tier-0 units.
    pub clock_start: u64,
    /// One past the last sample's device clock, tier-0 units.
    pub clock_end: u64,
    /// Payload byte length.
    pub payload_len: u32,
}

impl IndexEntry {
    fn key(&self) -> (u64, u64, u8, u64) {
        (self.device, self.session, self.tier, self.clock_start)
    }

    /// Total envelope bytes on disk (header + payload + CRC).
    pub fn envelope_len(&self) -> u64 {
        REC_HEADER_LEN as u64 + u64::from(self.payload_len) + 4
    }

    /// Samples held, derived from the clock span and tier stride.
    pub fn samples(&self) -> u64 {
        (self.clock_end - self.clock_start) / tier_stride(self.tier)
    }
}

/// An immutable, totally ordered view of every published record.
#[derive(Debug, Default, Clone)]
pub struct IndexSnapshot {
    /// Sorted by `(device, session, tier, clock_start)`.
    entries: Vec<IndexEntry>,
}

impl IndexSnapshot {
    /// Number of published records.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Every entry, sorted.
    pub fn entries(&self) -> &[IndexEntry] {
        &self.entries
    }

    /// The entries of `(device, session, tier)` overlapping the
    /// half-open clock range `[from, to)` — two binary searches, so a
    /// seek into an N-record store costs O(log N).
    pub fn range(&self, device: u64, session: u64, tier: u8, from: u64, to: u64) -> &[IndexEntry] {
        let lo = self.entries.partition_point(|e| {
            (e.device, e.session, e.tier) < (device, session, tier)
                || ((e.device, e.session, e.tier) == (device, session, tier) && e.clock_end <= from)
        });
        let hi = self.entries.partition_point(|e| {
            (e.device, e.session, e.tier) < (device, session, tier)
                || ((e.device, e.session, e.tier) == (device, session, tier) && e.clock_start < to)
        });
        &self.entries[lo..hi]
    }

    /// The last (highest-clock) entry for a `(device, session, tier)`.
    pub fn last_for(&self, device: u64, session: u64, tier: u8) -> Option<&IndexEntry> {
        let hi = self
            .entries
            .partition_point(|e| (e.device, e.session, e.tier) <= (device, session, tier));
        let e = self.entries[..hi].last()?;
        ((e.device, e.session, e.tier) == (device, session, tier)).then_some(e)
    }

    /// Distinct `(device, session)` pairs holding tier-0 data.
    pub fn sessions(&self) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = Vec::new();
        for e in &self.entries {
            if e.tier == 0 && out.last() != Some(&(e.device, e.session)) {
                out.push((e.device, e.session));
            }
        }
        out.dedup();
        out
    }

    /// The overall tier-0 clock span of one `(device, session)`.
    pub fn session_span(&self, device: u64, session: u64) -> Option<(u64, u64)> {
        let all = self.range(device, session, 0, 0, u64::MAX);
        Some((all.first()?.clock_start, all.last()?.clock_end))
    }
}

/// What recovery found (and repaired) while opening a store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Segment files present after open (active one included).
    pub segments: u64,
    /// Records recovered into the index.
    pub records: u64,
    /// Segments whose tail was truncated (torn records dropped).
    pub truncated_segments: u64,
    /// Bytes dropped by those truncations.
    pub dropped_bytes: u64,
}

/// What one compaction pass produced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactReport {
    /// Downsampled records appended across all tiers.
    pub tier_records: u64,
    /// Source samples consumed building them.
    pub source_samples: u64,
}

/// One point of a ranged waveform read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WavePoint {
    /// Device clock of the sample, tier-0 units.
    pub clock: u64,
    /// Raw lane value (`NaN` marks concealed/invalid provenance).
    pub raw: f64,
    /// Calibrated pressure, mmHg.
    pub mmhg: f64,
}

/// A ranged waveform read's result.
#[derive(Debug, Clone, PartialEq)]
pub struct RangedWave {
    /// Tier the points came from.
    pub tier: u8,
    /// Sample rate of that tier, Hz (0 when no points).
    pub sample_rate_hz: f64,
    /// Additional stride applied on top of the tier (1 = none) to honor
    /// the caller's point budget.
    pub stride: u64,
    /// The points, clock-ascending.
    pub points: Vec<WavePoint>,
}

/// Writer-side mutable state, guarded by one mutex.
struct Writer {
    seg_id: u64,
    seg_file: File,
    seg_len: u64,
    /// Entries of the active segment, for its eventual footer.
    seg_entries: Vec<IndexEntry>,
    journal: File,
    /// Bytes at rest across sealed segments (active excluded).
    sealed_bytes: u64,
    segments: u64,
}

struct Shared {
    dir: PathBuf,
    config: StoreConfig,
    writer: Mutex<Writer>,
    /// The publish point: held only to clone the Arc or to insert one
    /// entry into it.
    index: Mutex<Arc<IndexSnapshot>>,
    segments_gauge: Gauge,
    bytes_gauge: Gauge,
    appends: Counter,
    append_bytes: Counter,
    reads: Counter,
    read_bytes: Counter,
    readers_gauge: Gauge,
    seals: Counter,
    compactions: Counter,
    tier_records: Counter,
    fsync_hist: Histogram,
    append_span: SpanTimer,
    read_range_span: SpanTimer,
}

/// The append-only segmented waveform store. Cheap to clone (an
/// `Arc`); one logical writer, any number of [`HistorianReader`]s.
#[derive(Clone)]
pub struct Historian {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for Historian {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Historian")
            .field("dir", &self.shared.dir)
            .finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------
// Binary codecs
// ---------------------------------------------------------------------

fn seg_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("seg-{id:08}.tseg"))
}

fn journal_path(dir: &Path) -> PathBuf {
    dir.join("index.jnl")
}

fn encode_seg_header(id: u64) -> [u8; SEG_HEADER_LEN as usize] {
    let mut h = [0u8; SEG_HEADER_LEN as usize];
    h[0..8].copy_from_slice(SEG_MAGIC);
    h[8..12].copy_from_slice(&SEG_VERSION.to_le_bytes());
    h[12..20].copy_from_slice(&id.to_le_bytes());
    // 20..24 reserved
    let crc = crc32(&h[0..24]);
    h[24..28].copy_from_slice(&crc.to_le_bytes());
    h
}

fn parse_seg_header(h: &[u8]) -> Option<u64> {
    if h.len() < SEG_HEADER_LEN as usize || &h[0..8] != SEG_MAGIC {
        return None;
    }
    if u32::from_le_bytes(h[8..12].try_into().ok()?) != SEG_VERSION {
        return None;
    }
    let crc = u32::from_le_bytes(h[24..28].try_into().ok()?);
    if crc != crc32(&h[0..24]) {
        return None;
    }
    Some(u64::from_le_bytes(h[12..20].try_into().ok()?))
}

fn encode_envelope(entry: &IndexEntry, payload: &[u8], out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(REC_MAGIC);
    out.extend_from_slice(&entry.device.to_le_bytes());
    out.extend_from_slice(&entry.session.to_le_bytes());
    out.extend_from_slice(&entry.clock_start.to_le_bytes());
    out.extend_from_slice(&entry.clock_end.to_le_bytes());
    out.push(entry.tier);
    out.extend_from_slice(&[0u8; 3]);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out[4..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Validates one envelope in `bytes` at `offset` (segment-relative),
/// including the payload's meta frame. Returns the entry and the
/// total envelope length.
fn parse_envelope(
    segment: u64,
    offset: u64,
    bytes: &[u8],
) -> Result<(IndexEntry, usize), io::Error> {
    if bytes.len() < REC_HEADER_LEN {
        return Err(corrupt("envelope header runs past segment end"));
    }
    if &bytes[0..4] != REC_MAGIC {
        return Err(corrupt("bad record magic"));
    }
    let payload_len = u32::from_le_bytes(bytes[40..44].try_into().expect("4 bytes"));
    if payload_len > MAX_PAYLOAD {
        return Err(corrupt(format!("payload length {payload_len} exceeds cap")));
    }
    let total = REC_HEADER_LEN + payload_len as usize + 4;
    if bytes.len() < total {
        return Err(corrupt("envelope payload runs past segment end"));
    }
    let crc_stored = u32::from_le_bytes(bytes[total - 4..total].try_into().expect("4 bytes"));
    if crc_stored != crc32(&bytes[4..total - 4]) {
        return Err(corrupt("envelope CRC mismatch"));
    }
    let entry = IndexEntry {
        segment,
        offset,
        device: u64::from_le_bytes(bytes[4..12].try_into().expect("8 bytes")),
        session: u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes")),
        tier: bytes[36],
        clock_start: u64::from_le_bytes(bytes[20..28].try_into().expect("8 bytes")),
        clock_end: u64::from_le_bytes(bytes[28..36].try_into().expect("8 bytes")),
        payload_len,
    };
    if entry.tier > MAX_TIER {
        return Err(corrupt(format!("tier {} out of range", entry.tier)));
    }
    // The payload must open with a meta frame that agrees with the
    // envelope — the shared header gate plus span arithmetic.
    let payload = &bytes[REC_HEADER_LEN..REC_HEADER_LEN + payload_len as usize];
    let meta = match Frame::parse(payload) {
        ParseOutcome::Parsed { frame, .. } => frame,
        _ => return Err(corrupt("record payload does not open with a frame")),
    };
    let header = validate_record_meta(&meta, payload.len())
        .map_err(|e| corrupt(format!("record meta rejected: {e}")))?;
    let span = entry.clock_end.checked_sub(entry.clock_start);
    if header.acquisition_start != entry.clock_start
        || span != Some(header.samples * tier_stride(entry.tier))
    {
        return Err(corrupt("envelope clock span disagrees with record meta"));
    }
    Ok((entry, total))
}

fn encode_journal_entry(kind: u8, e: &IndexEntry) -> [u8; JOURNAL_ENTRY_LEN] {
    let mut b = [0u8; JOURNAL_ENTRY_LEN];
    b[0..4].copy_from_slice(JOURNAL_MAGIC);
    b[4] = kind;
    b[5..13].copy_from_slice(&e.segment.to_le_bytes());
    b[13..21].copy_from_slice(&e.offset.to_le_bytes());
    b[21..29].copy_from_slice(&e.device.to_le_bytes());
    b[29..37].copy_from_slice(&e.session.to_le_bytes());
    b[37..45].copy_from_slice(&e.clock_start.to_le_bytes());
    b[45..53].copy_from_slice(&e.clock_end.to_le_bytes());
    b[53] = e.tier;
    b[54..58].copy_from_slice(&e.payload_len.to_le_bytes());
    let crc = crc32(&b[0..58]);
    b[58..62].copy_from_slice(&crc.to_le_bytes());
    b
}

fn parse_journal_entry(b: &[u8]) -> Option<(u8, IndexEntry)> {
    if b.len() < JOURNAL_ENTRY_LEN || &b[0..4] != JOURNAL_MAGIC {
        return None;
    }
    let crc = u32::from_le_bytes(b[58..62].try_into().ok()?);
    if crc != crc32(&b[0..58]) {
        return None;
    }
    let entry = IndexEntry {
        segment: u64::from_le_bytes(b[5..13].try_into().ok()?),
        offset: u64::from_le_bytes(b[13..21].try_into().ok()?),
        device: u64::from_le_bytes(b[21..29].try_into().ok()?),
        session: u64::from_le_bytes(b[29..37].try_into().ok()?),
        clock_start: u64::from_le_bytes(b[37..45].try_into().ok()?),
        clock_end: u64::from_le_bytes(b[45..53].try_into().ok()?),
        tier: b[53],
        payload_len: u32::from_le_bytes(b[54..58].try_into().ok()?),
    };
    Some((b[4], entry))
}

/// Whether a journaled record entry stays inside the bounds that
/// [`parse_envelope`] and the segment scan enforce, given its segment
/// file's length (0 if the file is missing). Replay trusts entries of
/// journal-sealed segments without reading them, and a read sizes its
/// buffer from the entry.
fn journal_entry_in_bounds(e: &IndexEntry, segment_len: u64) -> bool {
    e.tier <= MAX_TIER
        && e.payload_len <= MAX_PAYLOAD
        && e.clock_start <= e.clock_end
        && e.offset
            .checked_add(e.envelope_len())
            .is_some_and(|end| end <= segment_len)
}

fn encode_footer(entries: &[IndexEntry]) -> Vec<u8> {
    let mut f = Vec::with_capacity(16 + entries.len() * FOOTER_ENTRY_LEN);
    f.extend_from_slice(FOOTER_MAGIC);
    f.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for e in entries {
        f.extend_from_slice(&e.offset.to_le_bytes());
        f.extend_from_slice(&e.device.to_le_bytes());
        f.extend_from_slice(&e.session.to_le_bytes());
        f.extend_from_slice(&e.clock_start.to_le_bytes());
        f.extend_from_slice(&e.clock_end.to_le_bytes());
        f.extend_from_slice(&u32::from(e.tier).to_le_bytes());
        f.extend_from_slice(&e.payload_len.to_le_bytes());
    }
    let crc = crc32(&f);
    f.extend_from_slice(&crc.to_le_bytes());
    let footer_len = (f.len() + 8) as u32; // through the trailer
    f.extend_from_slice(&footer_len.to_le_bytes());
    f.extend_from_slice(FOOTER_TRAILER);
    f
}

/// Reads a sealed segment's footer entries from its trailing bytes.
fn parse_footer(segment: u64, bytes: &[u8]) -> Option<Vec<IndexEntry>> {
    if bytes.len() < 16 || &bytes[bytes.len() - 4..] != FOOTER_TRAILER {
        return None;
    }
    let footer_len =
        u32::from_le_bytes(bytes[bytes.len() - 8..bytes.len() - 4].try_into().ok()?) as usize;
    // The smallest well-formed footer (zero entries) is magic + count +
    // CRC + length + trailer = 20 bytes; a corrupt length outside
    // [20, file] must fall through to the torn-footer path, not slice
    // out of bounds or underflow below.
    if !(20..=bytes.len()).contains(&footer_len) {
        return None;
    }
    let f = &bytes[bytes.len() - footer_len..];
    if &f[0..4] != FOOTER_MAGIC {
        return None;
    }
    let body_len = footer_len - 8; // magic..crc
    let crc = u32::from_le_bytes(f[body_len - 4..body_len].try_into().ok()?);
    if crc != crc32(&f[..body_len - 4]) {
        return None;
    }
    let count = u32::from_le_bytes(f[4..8].try_into().ok()?) as usize;
    if 8 + count * FOOTER_ENTRY_LEN + 4 != body_len {
        return None;
    }
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let e = &f[8 + i * FOOTER_ENTRY_LEN..8 + (i + 1) * FOOTER_ENTRY_LEN];
        out.push(IndexEntry {
            segment,
            offset: u64::from_le_bytes(e[0..8].try_into().ok()?),
            device: u64::from_le_bytes(e[8..16].try_into().ok()?),
            session: u64::from_le_bytes(e[16..24].try_into().ok()?),
            clock_start: u64::from_le_bytes(e[24..32].try_into().ok()?),
            clock_end: u64::from_le_bytes(e[32..40].try_into().ok()?),
            tier: u32::from_le_bytes(e[40..44].try_into().ok()?) as u8,
            payload_len: u32::from_le_bytes(e[44..48].try_into().ok()?),
        });
    }
    Some(out)
}

// ---------------------------------------------------------------------
// Open + recovery
// ---------------------------------------------------------------------

#[derive(Debug, PartialEq)]
struct ScannedSegment {
    entries: Vec<IndexEntry>,
    /// Valid prefix length (header + whole records).
    valid_len: u64,
    file_len: u64,
    /// The scan ended at a valid footer: the segment is sealed and
    /// must never be appended to again.
    sealed: bool,
}

/// Scans one segment file record-by-record; every returned entry has a
/// verified envelope CRC and meta gate. `valid_len < file_len` means a
/// torn tail (or trailing garbage) that the caller should truncate —
/// unless the scan stopped cleanly at a footer.
///
/// Streams the file: it holds one envelope at a time (in a reused
/// buffer, allocated only once the length field passes the cap and
/// fits the file) and reads a footer from its trailer at EOF.
fn scan_segment(id: u64, file: &mut (impl Read + Seek)) -> io::Result<ScannedSegment> {
    let file_len = file.seek(SeekFrom::End(0))?;
    let mut scanned = ScannedSegment {
        entries: Vec::new(),
        valid_len: 0,
        file_len,
        sealed: false,
    };
    if file_len < SEG_HEADER_LEN {
        return Ok(scanned);
    }
    let mut header = [0u8; SEG_HEADER_LEN as usize];
    file.seek(SeekFrom::Start(0))?;
    file.read_exact(&mut header)?;
    if parse_seg_header(&header).is_none() {
        return Ok(scanned);
    }
    let mut pos = SEG_HEADER_LEN;
    let mut envelope = Vec::new();
    while pos < file_len {
        let left = file_len - pos;
        let head_len = left.min(REC_HEADER_LEN as u64) as usize;
        envelope.resize(head_len, 0);
        file.read_exact(&mut envelope)?;
        if envelope.starts_with(FOOTER_MAGIC) {
            // Sealed segment: the footer (already CRC-covered) runs to
            // EOF; nothing after it to scan and nothing to truncate.
            if read_footer(id, file, file_len)?.is_some() {
                scanned.valid_len = file_len;
                scanned.sealed = true;
                return Ok(scanned);
            }
            break; // torn footer: drop it, keep the records
        }
        if head_len < REC_HEADER_LEN || !envelope.starts_with(REC_MAGIC) {
            break;
        }
        let payload_len = u32::from_le_bytes(envelope[40..44].try_into().expect("4 bytes"));
        let total = REC_HEADER_LEN as u64 + u64::from(payload_len) + 4;
        if payload_len > MAX_PAYLOAD || total > left {
            break;
        }
        envelope.resize(total as usize, 0);
        file.read_exact(&mut envelope[REC_HEADER_LEN..])?;
        match parse_envelope(id, pos, &envelope) {
            Ok((entry, _)) => {
                scanned.entries.push(entry);
                pos += total;
            }
            Err(_) => break,
        }
    }
    scanned.valid_len = pos;
    Ok(scanned)
}

/// A sealed segment's footer entries, read from its trailer at the end
/// of the `file_len`-byte file (at least the 28-byte header long);
/// `None` for a torn or corrupt footer.
fn read_footer(
    segment: u64,
    file: &mut (impl Read + Seek),
    file_len: u64,
) -> io::Result<Option<Vec<IndexEntry>>> {
    let mut trailer = [0u8; 8];
    file.seek(SeekFrom::End(-8))?;
    file.read_exact(&mut trailer)?;
    let footer_len = u32::from_le_bytes(trailer[..4].try_into().expect("4 bytes"));
    if &trailer[4..] != FOOTER_TRAILER || !(20..=file_len).contains(&u64::from(footer_len)) {
        return Ok(None);
    }
    let mut footer = vec![0u8; footer_len as usize];
    file.seek(SeekFrom::End(-i64::from(footer_len)))?;
    file.read_exact(&mut footer)?;
    Ok(parse_footer(segment, &footer))
}

fn list_segments(dir: &Path) -> io::Result<BTreeMap<u64, PathBuf>> {
    let mut out = BTreeMap::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(id) = name
            .strip_prefix("seg-")
            .and_then(|s| s.strip_suffix(".tseg"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            out.insert(id, entry.path());
        }
    }
    Ok(out)
}

impl Historian {
    /// Opens (creating if needed) the store at `dir`, running crash
    /// recovery, and wires `historian.*` instruments into `telemetry`.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; corrupt data is *recovered from* (torn
    /// tails truncated, unreadable segments skipped), never an error.
    pub fn open(
        dir: impl Into<PathBuf>,
        config: StoreConfig,
        telemetry: &Telemetry,
    ) -> io::Result<(Historian, RecoveryReport)> {
        assert!(
            config.tier_block >= WARMUP && config.tier_block.is_multiple_of(TIER_RATIO),
            "tier_block must be a multiple of {TIER_RATIO} and at least {WARMUP}"
        );
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut report = RecoveryReport::default();

        let seg_files = list_segments(&dir)?;
        let seg_lens = seg_files
            .iter()
            .map(|(&id, path)| Ok((id, fs::metadata(path)?.len())))
            .collect::<io::Result<BTreeMap<u64, u64>>>()?;
        let seg_len = |id| seg_lens.get(&id).copied().unwrap_or(0);

        // Journal replay: valid prefix only. A record entry out of the
        // envelope bounds ends it as a CRC failure does, so the segments
        // it would have vouched for are re-scanned.
        let mut journal_records: Vec<IndexEntry> = Vec::new();
        let mut sealed: Vec<u64> = Vec::new();
        if let Ok(bytes) = fs::read(journal_path(&dir)) {
            for chunk in bytes.chunks(JOURNAL_ENTRY_LEN) {
                match parse_journal_entry(chunk) {
                    Some((0, e)) if journal_entry_in_bounds(&e, seg_len(e.segment)) => {
                        journal_records.push(e)
                    }
                    Some((1, e)) => sealed.push(e.segment),
                    _ => break, // torn or corrupt tail: rebuilt below
                }
            }
        }

        let mut entries: Vec<IndexEntry> = Vec::new();
        let mut sealed_bytes = 0u64;
        let trunc_counter = telemetry.counter(names::HISTORIAN_RECOVERY_TRUNCATIONS);
        let skip_counter = telemetry.counter(names::HISTORIAN_RECOVERY_SKIPPED_BYTES);
        let mut last_sealed = false;
        for (&id, path) in &seg_files {
            let is_last = Some(&id) == seg_files.keys().last();
            let file_len = seg_len(id);
            if sealed.contains(&id) {
                // Journal-sealed: trust its entries without re-reading
                // payload bytes (the footer was fsynced before the
                // journal's seal entry was written).
                entries.extend(journal_records.iter().filter(|e| e.segment == id));
                sealed_bytes += file_len;
                if is_last {
                    last_sealed = true;
                }
                continue;
            }
            let scanned = scan_segment(id, &mut File::open(path)?)?;
            if scanned.valid_len < scanned.file_len {
                let dropped = scanned.file_len - scanned.valid_len;
                report.truncated_segments += 1;
                report.dropped_bytes += dropped;
                trunc_counter.inc();
                skip_counter.add(dropped);
                telemetry.event(Severity::Warning, "historian.recover", || {
                    format!("segment {id}: truncated {dropped} torn tail bytes")
                });
                let f = OpenOptions::new().write(true).open(path)?;
                f.set_len(scanned.valid_len.max(SEG_HEADER_LEN.min(scanned.valid_len)))?;
                f.sync_data()?;
            }
            if !is_last || scanned.sealed {
                sealed_bytes += scanned.valid_len;
            }
            if is_last {
                last_sealed = scanned.sealed;
            }
            entries.extend(scanned.entries);
        }
        entries.sort_by_key(IndexEntry::key);
        report.records = entries.len() as u64;

        // Active segment: the highest id, re-opened for append — unless
        // that segment is already sealed (a crash landed between the
        // seal and creating its successor), in which case roll to a
        // fresh id so new records never land after a footer, where the
        // next recovery's scan would discard them.
        let active_id = match seg_files.keys().last().copied() {
            None => 0,
            Some(last) if last_sealed => last + 1,
            Some(last) => last,
        };
        let active_path = seg_path(&dir, active_id);
        let mut seg_file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(&active_path)?;
        let mut seg_len = seg_file.metadata()?.len();
        if seg_len < SEG_HEADER_LEN {
            seg_file.set_len(0)?;
            seg_file.write_all(&encode_seg_header(active_id))?;
            seg_file.sync_data()?;
            seg_len = SEG_HEADER_LEN;
        }
        seg_file.seek(SeekFrom::End(0))?;
        let seg_entries: Vec<IndexEntry> = entries
            .iter()
            .filter(|e| e.segment == active_id)
            .copied()
            .collect();

        // Rewrite the journal to the recovered truth, atomically.
        let tmp = dir.join("index.jnl.tmp");
        {
            let mut f = File::create(&tmp)?;
            let mut ordered: Vec<&IndexEntry> = entries.iter().collect();
            ordered.sort_by_key(|e| (e.segment, e.offset));
            for e in ordered {
                f.write_all(&encode_journal_entry(0, e))?;
            }
            for (&id, _) in seg_files.iter().filter(|(&id, _)| id != active_id) {
                let seal = IndexEntry {
                    segment: id,
                    offset: 0,
                    device: 0,
                    session: 0,
                    tier: 0,
                    clock_start: 0,
                    clock_end: 0,
                    payload_len: 0,
                };
                f.write_all(&encode_journal_entry(1, &seal))?;
            }
            f.sync_data()?;
        }
        fs::rename(&tmp, journal_path(&dir))?;
        let journal = OpenOptions::new().append(true).open(journal_path(&dir))?;

        let segments = (seg_files.len() as u64 + u64::from(last_sealed)).max(1);
        report.segments = segments;
        let shared = Shared {
            config,
            writer: Mutex::new(Writer {
                seg_id: active_id,
                seg_file,
                seg_len,
                seg_entries,
                journal,
                sealed_bytes,
                segments,
            }),
            index: Mutex::new(Arc::new(IndexSnapshot { entries })),
            segments_gauge: telemetry.gauge(names::HISTORIAN_SEGMENTS),
            bytes_gauge: telemetry.gauge(names::HISTORIAN_BYTES),
            appends: telemetry.counter(names::HISTORIAN_APPENDS),
            append_bytes: telemetry.counter(names::HISTORIAN_APPEND_BYTES),
            reads: telemetry.counter(names::HISTORIAN_READS),
            read_bytes: telemetry.counter(names::HISTORIAN_READ_BYTES),
            readers_gauge: telemetry.gauge(names::HISTORIAN_READERS),
            seals: telemetry.counter(names::HISTORIAN_SEALS),
            compactions: telemetry.counter(names::HISTORIAN_COMPACTIONS),
            tier_records: telemetry.counter(names::HISTORIAN_TIER_RECORDS),
            fsync_hist: telemetry.histogram(
                names::HISTORIAN_FSYNC_S,
                &[1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0],
            ),
            append_span: telemetry.span(names::SPAN_STORE_APPEND),
            read_range_span: telemetry.span(names::SPAN_STORE_READ_RANGE),
            dir,
        };
        shared.segments_gauge.set(segments as f64);
        {
            let w = shared.writer.lock().expect("historian writer lock");
            shared.bytes_gauge.set((w.sealed_bytes + w.seg_len) as f64);
        }
        Ok((
            Historian {
                shared: Arc::new(shared),
            },
            report,
        ))
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.shared.dir
    }

    /// Clones the current published index snapshot.
    pub fn snapshot(&self) -> Arc<IndexSnapshot> {
        Arc::clone(&self.shared.index.lock().expect("historian index lock"))
    }

    /// Opens a reader handle; readers never block the writer.
    pub fn reader(&self) -> HistorianReader {
        self.shared.readers_gauge.add(1.0);
        HistorianReader {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Appends one tier-0 waveform record for `(device, session)`
    /// starting at device clock `clock_start`. Lanes must be equal
    /// length; empty lanes are a no-op. Appends per key must be
    /// clock-monotonic (`clock_start ≥` the previous record's end).
    ///
    /// # Errors
    ///
    /// I/O failures, mismatched lanes, or a non-monotonic clock.
    pub fn append(
        &self,
        device: u64,
        session: u64,
        clock_start: u64,
        sample_rate_hz: f64,
        raw: &[f64],
        calibrated: &[MillimetersHg],
    ) -> io::Result<()> {
        self.append_tier(
            device,
            session,
            0,
            clock_start,
            sample_rate_hz,
            raw,
            calibrated,
        )
    }

    /// Tier-aware append — compaction uses this for tier ≥ 1.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn append_tier(
        &self,
        device: u64,
        session: u64,
        tier: u8,
        clock_start: u64,
        sample_rate_hz: f64,
        raw: &[f64],
        calibrated: &[MillimetersHg],
    ) -> io::Result<()> {
        if raw.is_empty() && calibrated.is_empty() {
            return Ok(());
        }
        if tier > MAX_TIER {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("tier {tier} out of range"),
            ));
        }
        let span = self.shared.append_span.start();
        let mut payload = Vec::with_capacity(raw.len() * 16 + 64);
        write_record_parts(sample_rate_hz, clock_start, raw, calibrated, &mut payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        // Enforce the reader-side envelope cap before anything touches
        // disk: an over-cap payload would be rejected by every future
        // parse_envelope, turning it (and everything after it in the
        // segment) into a torn tail on the next recovery.
        if payload.len() > MAX_PAYLOAD as usize {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "record payload is {} bytes, over the {MAX_PAYLOAD}-byte cap; split the append",
                    payload.len()
                ),
            ));
        }
        let clock_end = clock_start + raw.len() as u64 * tier_stride(tier);
        let mut entry = IndexEntry {
            segment: 0,
            offset: 0,
            device,
            session,
            tier,
            clock_start,
            clock_end,
            payload_len: payload.len() as u32,
        };
        // Monotonicity per key keeps the index sorted and ranges
        // non-overlapping — checked against the *published* snapshot,
        // which the writer lock makes race-free.
        let mut w = self.shared.writer.lock().expect("historian writer lock");
        if let Some(last) = self.snapshot().last_for(device, session, tier) {
            if clock_start < last.clock_end {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "append at clock {clock_start} overlaps published records (end {})",
                        last.clock_end
                    ),
                ));
            }
        }
        let mut env = Vec::with_capacity(payload.len() + REC_HEADER_LEN + 4);
        encode_envelope(&entry, &payload, &mut env);
        // Roll the segment first so one record never straddles two.
        if w.seg_len > SEG_HEADER_LEN
            && w.seg_len + env.len() as u64 > self.shared.config.segment_bytes
        {
            self.seal_locked(&mut w)?;
        }
        entry.segment = w.seg_id;
        entry.offset = w.seg_len;
        // Re-stamp the envelope header? Not needed: segment/offset are
        // index-side locators, not part of the on-disk envelope.
        w.seg_file.write_all(&env)?;
        if self.shared.config.fsync == FsyncPolicy::EveryRecord {
            let t0 = Instant::now();
            w.seg_file.sync_data()?;
            self.shared.fsync_hist.record(t0.elapsed().as_secs_f64());
        }
        w.seg_len += env.len() as u64;
        w.seg_entries.push(entry);
        w.journal.write_all(&encode_journal_entry(0, &entry))?;
        // Publish: insert into the snapshot, in place unless a reader
        // holds it (then into a copy). The record is fully on disk
        // before any reader can see it.
        {
            let mut index = self.shared.index.lock().expect("historian index lock");
            let entries = &mut Arc::make_mut(&mut index).entries;
            let at = entries.partition_point(|e| e.key() <= entry.key());
            entries.insert(at, entry);
        }
        span.finish();
        self.shared.appends.inc();
        self.shared.append_bytes.add(env.len() as u64);
        self.shared
            .bytes_gauge
            .set((w.sealed_bytes + w.seg_len) as f64);
        if entry.tier > 0 {
            self.shared.tier_records.inc();
        }
        Ok(())
    }

    /// Seals the active segment (footer + fsync + journal seal) and
    /// rolls to a fresh one. Public so operators can force a seal; a
    /// no-op on an empty active segment.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn seal_active(&self) -> io::Result<()> {
        let mut w = self.shared.writer.lock().expect("historian writer lock");
        if w.seg_len <= SEG_HEADER_LEN {
            return Ok(());
        }
        self.seal_locked(&mut w)
    }

    fn seal_locked(&self, w: &mut Writer) -> io::Result<()> {
        let footer = encode_footer(&w.seg_entries);
        w.seg_file.write_all(&footer)?;
        let t0 = Instant::now();
        w.seg_file.sync_data()?;
        self.shared.fsync_hist.record(t0.elapsed().as_secs_f64());
        w.seg_len += footer.len() as u64;
        let seal = IndexEntry {
            segment: w.seg_id,
            offset: w.seg_len,
            device: 0,
            session: 0,
            tier: 0,
            clock_start: 0,
            clock_end: 0,
            payload_len: 0,
        };
        w.journal.write_all(&encode_journal_entry(1, &seal))?;
        w.journal.sync_data()?;
        w.sealed_bytes += w.seg_len;
        let next_id = w.seg_id + 1;
        let mut f = OpenOptions::new()
            .create_new(true)
            .read(true)
            .write(true)
            .open(seg_path(&self.shared.dir, next_id))?;
        f.write_all(&encode_seg_header(next_id))?;
        w.seg_id = next_id;
        w.seg_file = f;
        w.seg_len = SEG_HEADER_LEN;
        w.seg_entries.clear();
        w.segments += 1;
        self.shared.seals.inc();
        self.shared.segments_gauge.set(w.segments as f64);
        self.shared
            .bytes_gauge
            .set((w.sealed_bytes + w.seg_len) as f64);
        Ok(())
    }

    /// One compaction pass: for every `(device, session)` and tier
    /// step, folds complete source blocks that have no downsampled
    /// counterpart yet into tier-above records (1:16 per step, fresh
    /// FIR per block — see [`crate::tiers`]). Idempotent and
    /// restart-stable: re-running over the same data appends nothing.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from source reads or tier appends.
    pub fn compact(&self) -> io::Result<CompactReport> {
        let mut report = CompactReport::default();
        let block = self.shared.config.tier_block;
        for source_tier in 0..MAX_TIER {
            // Every snapshot below lives for one statement, so none is
            // held across an append and each append publishes in place;
            // tier-1 records built this pass are sources for tier 2.
            let sessions = self.snapshot().sessions();
            for (device, session) in sessions {
                report.merge(self.compact_key(device, session, source_tier, block)?);
            }
        }
        self.shared.compactions.inc();
        Ok(report)
    }

    fn compact_key(
        &self,
        device: u64,
        session: u64,
        source_tier: u8,
        block: usize,
    ) -> io::Result<CompactReport> {
        let mut report = CompactReport::default();
        let target_tier = source_tier + 1;
        let src_stride = tier_stride(source_tier);
        let block_clocks = block as u64 * src_stride;
        let reader = self.reader();
        // Contiguous runs: a discontinuity (stream reset, re-based
        // clock) starts a new run with its own block alignment.
        let mut runs: Vec<(u64, u64)> = Vec::new();
        for e in self
            .snapshot()
            .range(device, session, source_tier, 0, u64::MAX)
        {
            match runs.last_mut() {
                Some((_, end)) if *end == e.clock_start => *end = e.clock_end,
                _ => runs.push((e.clock_start, e.clock_end)),
            }
        }
        for (run_start, run_end) in runs {
            // Resume where the target tier already reaches within this
            // run; block alignment off run_start keeps rebuilds
            // deterministic.
            let built = self
                .snapshot()
                .range(device, session, target_tier, run_start, run_end)
                .last()
                .map_or(run_start, |e| e.clock_end);
            let mut pos = built.max(run_start);
            // Align to the run's block grid (recovery from odd target
            // spans would otherwise misphase the decimator).
            let into = (pos - run_start) % block_clocks;
            if into != 0 {
                pos += block_clocks - into;
            }
            while pos + block_clocks <= run_end {
                let warm_clocks = if pos == run_start {
                    0
                } else {
                    WARMUP as u64 * src_stride
                };
                let (rate, mut samples) = reader.read_lanes(
                    device,
                    session,
                    source_tier,
                    pos - warm_clocks,
                    pos + block_clocks,
                )?;
                let warm_n = (warm_clocks / src_stride) as usize;
                let blk = samples.split_off(warm_n);
                let out = downsample_block(&samples, &blk);
                let raw: Vec<f64> = out.iter().map(|&(r, _)| r).collect();
                let cal: Vec<MillimetersHg> = out.iter().map(|&(_, c)| MillimetersHg(c)).collect();
                self.append_tier(
                    device,
                    session,
                    target_tier,
                    pos,
                    rate / TIER_RATIO as f64,
                    &raw,
                    &cal,
                )?;
                report.tier_records += 1;
                report.source_samples += blk.len() as u64;
                pos += block_clocks;
            }
        }
        Ok(report)
    }
}

impl CompactReport {
    fn merge(&mut self, other: CompactReport) {
        self.tier_records += other.tier_records;
        self.source_samples += other.source_samples;
    }
}

/// Submits one compaction pass as a fleet background task; returns the
/// fleet session id. The pass runs on a pool worker, contained like
/// any session (a panicking compaction cannot take down ingest).
pub fn push_compaction(engine: &mut FleetEngine, historian: &Historian) -> u64 {
    let h = historian.clone();
    engine.push_task("historian:compact", move |ctx| {
        let report = h.compact().map_err(|e| e.to_string())?;
        ctx.telemetry
            .event(Severity::Info, "historian.compact", || {
                format!(
                    "compaction: {} tier records from {} source samples",
                    report.tier_records, report.source_samples
                )
            });
        Ok(SessionSummary::from_stream(
            0,
            0.0,
            0.0,
            0.0,
            report.source_samples as usize,
            0.0,
            0,
        ))
    })
}

// ---------------------------------------------------------------------
// Readers
// ---------------------------------------------------------------------

/// A read handle: clones the published snapshot per query and does its
/// file IO against immutable offsets. Never blocks (or is blocked by)
/// the writer.
pub struct HistorianReader {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for HistorianReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistorianReader")
            .field("dir", &self.shared.dir)
            .finish_non_exhaustive()
    }
}

impl Drop for HistorianReader {
    fn drop(&mut self) {
        self.shared.readers_gauge.add(-1.0);
    }
}

impl HistorianReader {
    /// The current published index snapshot.
    pub fn snapshot(&self) -> Arc<IndexSnapshot> {
        Arc::clone(&self.shared.index.lock().expect("historian index lock"))
    }

    /// Reads one record's verified sample lanes by index entry.
    fn read_record(
        &self,
        entry: &IndexEntry,
        file: &mut File,
    ) -> io::Result<(f64, Vec<(f64, f64)>)> {
        let total = entry.envelope_len() as usize;
        let mut bytes = vec![0u8; total];
        file.seek(SeekFrom::Start(entry.offset))?;
        file.read_exact(&mut bytes)?;
        let (parsed, _) = parse_envelope(entry.segment, entry.offset, &bytes)?;
        if parsed != *entry {
            return Err(corrupt("index entry disagrees with on-disk envelope"));
        }
        let payload = &bytes[REC_HEADER_LEN..REC_HEADER_LEN + entry.payload_len as usize];
        let record = read_session_record(payload)
            .map_err(|e| corrupt(format!("record payload rejected: {e}")))?;
        self.shared.read_bytes.add(total as u64);
        Ok((
            record.sample_rate,
            record
                .raw
                .iter()
                .zip(&record.calibrated)
                .map(|(&r, c)| (r, c.value()))
                .collect(),
        ))
    }

    /// Reads the contiguous `(raw, mmhg)` lanes of `[from, to)` at one
    /// tier. Errors if the range is not fully covered by published
    /// records (compaction only asks for ranges inside one run).
    fn read_lanes(
        &self,
        device: u64,
        session: u64,
        tier: u8,
        from: u64,
        to: u64,
    ) -> io::Result<(f64, Vec<(f64, f64)>)> {
        let stride = tier_stride(tier);
        // As in `read_tier`: no snapshot held across the file IO.
        let entries = self
            .snapshot()
            .range(device, session, tier, from, to)
            .to_vec();
        let mut out = Vec::with_capacity(((to - from) / stride) as usize);
        let mut rate = 0.0;
        let mut expect = from;
        let mut file: Option<(u64, File)> = None;
        for e in &entries {
            if e.clock_start.max(from) != expect {
                return Err(corrupt(format!(
                    "range [{from}, {to}) tier {tier} has a hole at clock {expect}"
                )));
            }
            let f = match &mut file {
                Some((id, f)) if *id == e.segment => f,
                _ => {
                    let f = File::open(seg_path(&self.shared.dir, e.segment))?;
                    &mut file.insert((e.segment, f)).1
                }
            };
            let (r, lanes) = self.read_record(e, f)?;
            rate = r;
            let lo = ((expect - e.clock_start) / stride) as usize;
            let hi = ((to.min(e.clock_end) - e.clock_start) / stride) as usize;
            out.extend_from_slice(&lanes[lo..hi]);
            expect = to.min(e.clock_end);
        }
        if expect != to {
            return Err(corrupt(format!(
                "range [{from}, {to}) tier {tier} ends short at clock {expect}"
            )));
        }
        Ok((rate, out))
    }

    /// Reads `[from, to)` of one `(device, session)` at an explicit
    /// tier, returning whatever published records cover (holes simply
    /// yield fewer points — this is the query path, not compaction).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures and envelope verification failures.
    pub fn read_tier(
        &self,
        device: u64,
        session: u64,
        tier: u8,
        from: u64,
        to: u64,
    ) -> io::Result<RangedWave> {
        self.shared.reads.inc();
        // Copy the range's entries out rather than hold the snapshot
        // across file IO: an append meeting a held snapshot copies the
        // whole index.
        let entries = self
            .snapshot()
            .range(device, session, tier, from, to)
            .to_vec();
        let stride = tier_stride(tier);
        let mut points = Vec::new();
        let mut rate = 0.0;
        let mut file: Option<(u64, File)> = None;
        for e in &entries {
            let f = match &mut file {
                Some((id, f)) if *id == e.segment => f,
                _ => {
                    let f = File::open(seg_path(&self.shared.dir, e.segment))?;
                    &mut file.insert((e.segment, f)).1
                }
            };
            let (r, lanes) = self.read_record(e, f)?;
            rate = r;
            // div_ceil on both bounds keeps the result inside the
            // half-open [from, to): flooring `lo` would let the first
            // point of an unaligned coarse-tier read precede `from`.
            let lo = (from.max(e.clock_start) - e.clock_start).div_ceil(stride);
            let hi = (to.min(e.clock_end) - e.clock_start).div_ceil(stride);
            for (i, &(raw, mmhg)) in lanes[lo as usize..hi as usize].iter().enumerate() {
                points.push(WavePoint {
                    clock: e.clock_start + (lo + i as u64) * stride,
                    raw,
                    mmhg,
                });
            }
        }
        Ok(RangedWave {
            tier,
            sample_rate_hz: rate,
            stride: 1,
            points,
        })
    }

    /// Ranged waveform read under a point budget: picks the finest
    /// tier whose point count over `[from, to)` fits `max_points`
    /// (skipping tiers the compaction pyramid has not built yet), and
    /// when even the coarsest built tier overshoots the budget, reads
    /// that coarsest tier and stride-subsamples it down. The returned
    /// byte volume is therefore bounded by `max_points`, and the read
    /// volume by the coarsest tier's resolution — never the full
    /// tier-0 recording unless tier 0 is all there is.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; an uncovered range returns empty
    /// points, not an error.
    pub fn read_range(
        &self,
        device: u64,
        session: u64,
        from: u64,
        to: u64,
        max_points: usize,
    ) -> io::Result<RangedWave> {
        let _span = self.shared.read_range_span.start();
        let max_points = max_points.max(1);
        let span = to.saturating_sub(from).max(1);
        let snap = self.snapshot();
        // Finest-first among tiers that fit the budget; if none fits,
        // the coarsest tier with any data minimizes what must be read
        // before subsampling.
        let mut pick = None;
        let mut coarsest = 0u8;
        for tier in 0..=MAX_TIER {
            if snap.range(device, session, tier, from, to).is_empty() {
                continue;
            }
            coarsest = tier;
            if pick.is_none() && span / tier_stride(tier) <= max_points as u64 {
                pick = Some(tier);
            }
        }
        let pick = pick.unwrap_or(coarsest);
        drop(snap);
        let mut wave = self.read_tier(device, session, pick, from, to)?;
        if wave.points.len() > max_points {
            let stride = wave.points.len().div_ceil(max_points);
            wave.points = wave.points.iter().step_by(stride).copied().collect();
            wave.stride = stride as u64;
        }
        Ok(wave)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch_dir;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    fn lanes(n: usize, base: f64) -> (Vec<f64>, Vec<MillimetersHg>) {
        let raw: Vec<f64> = (0..n).map(|i| base + i as f64).collect();
        let cal = raw.iter().map(|&r| MillimetersHg(80.0 + r * 0.1)).collect();
        (raw, cal)
    }

    /// The oracle for [`scan_segment`]: the same scan over the whole
    /// file held in one slice.
    fn scan_segment_slice(id: u64, bytes: &[u8]) -> ScannedSegment {
        let file_len = bytes.len() as u64;
        if parse_seg_header(bytes).is_none() {
            return ScannedSegment {
                entries: Vec::new(),
                valid_len: 0,
                file_len,
                sealed: false,
            };
        }
        let mut entries = Vec::new();
        let mut pos = SEG_HEADER_LEN as usize;
        while pos < bytes.len() {
            if bytes[pos..].len() >= 4 && &bytes[pos..pos + 4] == FOOTER_MAGIC {
                if parse_footer(id, bytes).is_some() {
                    return ScannedSegment {
                        entries,
                        valid_len: file_len,
                        file_len,
                        sealed: true,
                    };
                }
                break;
            }
            match parse_envelope(id, pos as u64, &bytes[pos..]) {
                Ok((entry, total)) => {
                    entries.push(entry);
                    pos += total;
                }
                Err(_) => break,
            }
        }
        ScannedSegment {
            entries,
            valid_len: pos as u64,
            file_len,
            sealed: false,
        }
    }

    /// Segment 0 of six small stores built through `append` and
    /// `append_tier`: 0, 1 and 4 records, each left open and sealed by
    /// `seal_active`.
    fn real_segments() -> &'static [Vec<u8>] {
        static SEGMENTS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
        SEGMENTS.get_or_init(|| {
            let t = Telemetry::disabled();
            let mut out = Vec::new();
            for records in [0u64, 1, 3] {
                for seal in [false, true] {
                    let dir = scratch_dir("store-scan-oracle");
                    let (h, _) = Historian::open(&dir, StoreConfig::default(), &t).unwrap();
                    for k in 0..records {
                        let (raw, cal) = lanes(40 + 24 * k as usize, k as f64);
                        h.append(k + 1, 1, 1000 * k, 1000.0, &raw, &cal).unwrap();
                    }
                    if records == 3 {
                        let (raw, cal) = lanes(16, 0.0);
                        h.append_tier(9, 1, 1, 0, 62.5, &raw, &cal).unwrap();
                    }
                    if seal {
                        h.seal_active().unwrap();
                    }
                    drop(h);
                    out.push(fs::read(seg_path(&dir, 0)).unwrap());
                    fs::remove_dir_all(&dir).ok();
                }
            }
            out
        })
    }

    #[test]
    fn every_truncation_of_a_real_segment_scans_alike() {
        for segment in real_segments() {
            for cut in 0..=segment.len() {
                let bytes = &segment[..cut];
                let streamed = scan_segment(0, &mut io::Cursor::new(bytes)).unwrap();
                assert_eq!(streamed, scan_segment_slice(0, bytes), "cut at {cut}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// On real open and sealed segments, as written or mutated —
        /// truncated at any byte, one byte flipped, garbage appended, the
        /// footer length forged, or one envelope's payload length forged
        /// at or past the cap — the streaming scan returns exactly what
        /// the slice scan does, and neither panics.
        #[test]
        fn streaming_scan_matches_the_slice_scan(
            base in 0usize..6,
            mutation in 0usize..6,
            at in any::<u64>(),
            value in 0usize..15,
            flip in 1u8..=255,
            garbage in prop::collection::vec(0u8..=255, 1..256),
        ) {
            let mut bytes = real_segments()[base].clone();
            let len = bytes.len();
            match mutation {
                0 => bytes.truncate((at % (len as u64 + 1)) as usize),
                1 => bytes[(at % len as u64) as usize] ^= flip,
                2 => bytes.extend_from_slice(&garbage),
                3 => {
                    let forged = [0, 19, 20, len as u32, u32::MAX][value % 5];
                    bytes[len - 8..len - 4].copy_from_slice(&forged.to_le_bytes());
                }
                4 => {
                    let entries = scan_segment_slice(0, &bytes).entries;
                    if !entries.is_empty() {
                        let field = entries[(at % entries.len() as u64) as usize].offset as usize + 40;
                        let forged = [MAX_PAYLOAD, MAX_PAYLOAD + 1, u32::MAX][value % 3];
                        bytes[field..field + 4].copy_from_slice(&forged.to_le_bytes());
                    }
                }
                _ => {}
            }
            let streamed = scan_segment(0, &mut io::Cursor::new(&bytes)).unwrap();
            prop_assert_eq!(streamed, scan_segment_slice(0, &bytes));
        }
    }

    /// A store of several segments, all but the last journal-sealed,
    /// holding tier-0 and tier-1 records, as its files lie on disk after
    /// the writer dropped it, plus every record's points read back
    /// before the drop.
    #[allow(clippy::type_complexity)]
    fn journaled_store() -> &'static (Vec<(String, Vec<u8>)>, Vec<(IndexEntry, Vec<WavePoint>)>) {
        static STORE: OnceLock<(Vec<(String, Vec<u8>)>, Vec<(IndexEntry, Vec<WavePoint>)>)> =
            OnceLock::new();
        STORE.get_or_init(|| {
            let dir = scratch_dir("store-journal-oracle");
            let (h, _) = Historian::open(&dir, journal_config(), &Telemetry::disabled()).unwrap();
            for k in 0..12u64 {
                let (raw, cal) = lanes(256, k as f64);
                h.append(1 + k % 2, 1, k / 2 * 256, 1000.0, &raw, &cal)
                    .unwrap();
            }
            h.compact().unwrap();
            let r = h.reader();
            let acked = h
                .snapshot()
                .entries()
                .iter()
                .map(|e| {
                    let wave = r
                        .read_tier(e.device, e.session, e.tier, e.clock_start, e.clock_end)
                        .unwrap();
                    (*e, wave.points)
                })
                .collect();
            drop((r, h));
            assert!(list_segments(&dir).unwrap().len() >= 3, "no roll happened");
            let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(&dir)
                .unwrap()
                .map(|f| {
                    let f = f.unwrap();
                    let name = f.file_name().into_string().unwrap();
                    (name, fs::read(f.path()).unwrap())
                })
                .collect();
            files.sort();
            fs::remove_dir_all(&dir).ok();
            (files, acked)
        })
    }

    fn journal_config() -> StoreConfig {
        StoreConfig {
            segment_bytes: 12 * 1024,
            tier_block: 256,
            ..StoreConfig::default()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A real store's journal with one record entry forged out of
        /// the envelope bounds (CRC recomputed, so only the replay gate
        /// can refuse it), truncated at any byte, or with garbage
        /// appended: open recovers every acknowledged record
        /// bit-identical, and no index entry escapes the bounds.
        #[test]
        fn journal_replay_trusts_only_in_bounds_entries(
            mutation in 0usize..7,
            at in any::<u64>(),
            garbage in prop::collection::vec(0u8..=255, 1..256),
        ) {
            let (files, acked) = journaled_store();
            let dir = scratch_dir("store-journal");
            for (name, bytes) in files {
                let mut bytes = bytes.clone();
                if name == "index.jnl" {
                    let records: Vec<usize> = (0..bytes.len() / JOURNAL_ENTRY_LEN)
                        .filter(|i| bytes[i * JOURNAL_ENTRY_LEN + 4] == 0)
                        .collect();
                    let i = records[(at % records.len() as u64) as usize] * JOURNAL_ENTRY_LEN;
                    let (_, mut e) = parse_journal_entry(&bytes[i..]).unwrap();
                    let seg_len = files
                        .iter()
                        .find(|(n, _)| *n == format!("seg-{:08}.tseg", e.segment))
                        .map_or(0, |(_, b)| b.len() as u64);
                    match mutation {
                        0 => e.tier = MAX_TIER + 1 + (at % u64::from(255 - MAX_TIER)) as u8,
                        1 => e.payload_len = [MAX_PAYLOAD + 1, u32::MAX][(at % 2) as usize],
                        2 => e.payload_len = seg_len as u32,
                        3 => e.clock_start = e.clock_end + 1 + at % 1000,
                        4 => {
                            e.offset = [seg_len - e.envelope_len() + 1, u64::MAX - at % 64]
                                [(at % 2) as usize]
                        }
                        5 => bytes.truncate((at % (bytes.len() as u64 + 1)) as usize),
                        _ => bytes.extend_from_slice(&garbage),
                    }
                    if mutation < 5 {
                        bytes[i..i + JOURNAL_ENTRY_LEN].copy_from_slice(&encode_journal_entry(0, &e));
                    }
                }
                fs::write(dir.join(name), &bytes).unwrap();
            }
            let (h, _) = Historian::open(&dir, journal_config(), &Telemetry::disabled()).unwrap();
            let snap = h.snapshot();
            for e in snap.entries() {
                let seg_len = fs::metadata(seg_path(&dir, e.segment)).unwrap().len();
                prop_assert!(journal_entry_in_bounds(e, seg_len), "{:?}", e);
            }
            prop_assert_eq!(snap.len(), acked.len());
            let r = h.reader();
            for (e, points) in acked {
                let wave = r
                    .read_tier(e.device, e.session, e.tier, e.clock_start, e.clock_end)
                    .unwrap();
                let bits = |p: &[WavePoint]| -> Vec<(u64, u64, u64)> {
                    p.iter().map(|w| (w.clock, w.raw.to_bits(), w.mmhg.to_bits())).collect()
                };
                prop_assert_eq!(bits(&wave.points), bits(points), "{:?}", e);
            }
            drop((r, h));
            fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn envelope_round_trips_and_rejects_flips() {
        let (raw, cal) = lanes(100, 0.0);
        let mut payload = Vec::new();
        write_record_parts(1000.0, 7, &raw, &cal, &mut payload).unwrap();
        let entry = IndexEntry {
            segment: 3,
            offset: 28,
            device: 1,
            session: 2,
            tier: 0,
            clock_start: 7,
            clock_end: 107,
            payload_len: payload.len() as u32,
        };
        let mut env = Vec::new();
        encode_envelope(&entry, &payload, &mut env);
        let (parsed, total) = parse_envelope(3, 28, &env).unwrap();
        assert_eq!(total, env.len());
        assert_eq!(parsed, entry);
        for at in [0usize, 5, 20, 50, env.len() - 1] {
            let mut bad = env.clone();
            bad[at] ^= 0x10;
            assert!(parse_envelope(3, 28, &bad).is_err(), "flip at {at}");
        }
    }

    #[test]
    fn journal_entry_round_trips() {
        let e = IndexEntry {
            segment: 9,
            offset: 1234,
            device: 5,
            session: 6,
            tier: 1,
            clock_start: 100,
            clock_end: 1700,
            payload_len: 321,
        };
        let b = encode_journal_entry(0, &e);
        assert_eq!(parse_journal_entry(&b), Some((0, e)));
        let mut bad = b;
        bad[30] ^= 1;
        assert_eq!(parse_journal_entry(&bad), None);
    }

    #[test]
    fn footer_round_trips_through_a_sealed_file_tail() {
        let entries: Vec<IndexEntry> = (0..5)
            .map(|i| IndexEntry {
                segment: 2,
                offset: 28 + i * 100,
                device: 1,
                session: i,
                tier: 0,
                clock_start: i * 1000,
                clock_end: i * 1000 + 500,
                payload_len: 48,
            })
            .collect();
        let mut file = vec![0xAAu8; 400]; // stand-in for records
        file.extend_from_slice(&encode_footer(&entries));
        assert_eq!(parse_footer(2, &file).unwrap(), entries);
        let mut torn = file.clone();
        let len = torn.len();
        torn[len - 10] ^= 1;
        assert!(parse_footer(2, &torn).is_none());
    }

    #[test]
    fn append_read_round_trip_and_monotonicity() {
        let dir = scratch_dir("store-rt");
        let t = Telemetry::disabled();
        let (h, rep) = Historian::open(&dir, StoreConfig::default(), &t).unwrap();
        assert_eq!(rep.records, 0);
        let (raw, cal) = lanes(500, 1.0);
        h.append(1, 1, 0, 1000.0, &raw, &cal).unwrap();
        h.append(1, 1, 500, 1000.0, &raw, &cal).unwrap();
        // Overlap rejected.
        assert!(h.append(1, 1, 900, 1000.0, &raw, &cal).is_err());
        let r = h.reader();
        let wave = r.read_tier(1, 1, 0, 100, 700).unwrap();
        assert_eq!(wave.points.len(), 600);
        assert_eq!(wave.points[0].clock, 100);
        assert_eq!(wave.points[0].raw, 101.0);
        assert_eq!(wave.points[599].clock, 699);
        assert_eq!(wave.points[599].raw, 1.0 + 199.0);
        drop(r);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_held_snapshot_keeps_its_view_across_an_append() {
        let dir = scratch_dir("store-held");
        let t = Telemetry::disabled();
        let (h, _) = Historian::open(&dir, StoreConfig::default(), &t).unwrap();
        let (raw, cal) = lanes(100, 0.0);
        h.append(1, 1, 0, 1000.0, &raw, &cal).unwrap();
        let held = h.snapshot();
        let seen = held.entries().to_vec();
        // Device 0 sorts first: an insert into the held snapshot would
        // shift the entry it shows.
        h.append(0, 1, 0, 1000.0, &raw, &cal).unwrap();
        assert_eq!(held.len(), 1);
        assert_eq!(held.entries(), seen.as_slice());
        let next = h.snapshot();
        assert_eq!(next.len(), 2);
        assert_eq!(next.entries()[0].device, 0);
        assert_eq!(&next.entries()[1..], seen.as_slice());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn appends_and_compaction_publish_in_place_when_no_snapshot_is_held() {
        let dir = scratch_dir("store-in-place");
        let t = Telemetry::disabled();
        let config = StoreConfig {
            tier_block: 256,
            ..StoreConfig::default()
        };
        let (h, _) = Historian::open(&dir, config, &t).unwrap();
        let published = Arc::as_ptr(&h.snapshot());
        let (raw, cal) = lanes(512, 0.0);
        for k in 0..4 {
            h.append(1, 1, k * 512, 1000.0, &raw, &cal).unwrap();
            assert_eq!(Arc::as_ptr(&h.snapshot()), published);
        }
        assert_eq!(h.compact().unwrap().tier_records, 8);
        assert_eq!(Arc::as_ptr(&h.snapshot()), published);
        assert_eq!(h.snapshot().len(), 12);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn segments_roll_and_reopen_finds_everything() {
        let dir = scratch_dir("store-roll");
        let t = Telemetry::disabled();
        let config = StoreConfig {
            segment_bytes: 16 * 1024,
            ..StoreConfig::default()
        };
        let (h, _) = Historian::open(&dir, config, &t).unwrap();
        let (raw, cal) = lanes(256, 0.0);
        for k in 0..40 {
            h.append(1, 1, k * 256, 1000.0, &raw, &cal).unwrap();
        }
        let before = h.snapshot();
        assert_eq!(before.len(), 40);
        assert!(list_segments(&dir).unwrap().len() > 1, "no roll happened");
        drop(h);
        let (h2, rep) = Historian::open(&dir, config, &t).unwrap();
        assert_eq!(rep.records, 40);
        assert_eq!(rep.truncated_segments, 0);
        let after = h2.snapshot();
        assert_eq!(after.entries(), before.entries());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_builds_both_tiers_and_is_idempotent() {
        let dir = scratch_dir("store-tiers");
        let t = Telemetry::disabled();
        let config = StoreConfig {
            tier_block: 256,
            ..StoreConfig::default()
        };
        let (h, _) = Historian::open(&dir, config, &t).unwrap();
        // 16 × 512 = 8192 tier-0 samples → 512 tier-1 → 32 tier-2.
        for k in 0..16u64 {
            let (raw, cal) = lanes(512, k as f64);
            h.append(7, 1, k * 512, 1000.0, &raw, &cal).unwrap();
        }
        let r1 = h.compact().unwrap();
        assert!(r1.tier_records > 0);
        let snap = h.snapshot();
        let t1: u64 = snap
            .range(7, 1, 1, 0, u64::MAX)
            .iter()
            .map(IndexEntry::samples)
            .sum();
        let t2: u64 = snap
            .range(7, 1, 2, 0, u64::MAX)
            .iter()
            .map(IndexEntry::samples)
            .sum();
        assert_eq!(t1, 512);
        // Tier 2 builds from tier-1 runs: 512 tier-1 samples = 8192
        // clocks ≥ one 256-sample tier-1 block (65536 clocks)? No:
        // 256 tier-1 samples span 4096 clocks; 512 span 8192 → two
        // blocks exactly.
        assert_eq!(t2, 32);
        let r2 = h.compact().unwrap();
        assert_eq!(r2.tier_records, 0, "compaction must be idempotent");
        // Downsampled read picks a coarse tier and bounds the points.
        let reader = h.reader();
        let wave = reader.read_range(7, 1, 0, 8192, 64).unwrap();
        assert!(wave.tier >= 1, "tier {}", wave.tier);
        assert!(wave.points.len() <= 64);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_footer_length_is_rejected_without_panicking() {
        let entries = vec![IndexEntry {
            segment: 2,
            offset: 28,
            device: 1,
            session: 1,
            tier: 0,
            clock_start: 0,
            clock_end: 500,
            payload_len: 48,
        }];
        let mut file = vec![0xAAu8; 100];
        file.extend_from_slice(&encode_footer(&entries));
        let len = file.len();
        assert!(parse_footer(2, &file).is_some());
        // A flipped length field must fall through to the torn-footer
        // path — for every undersized and oversized value.
        for bad in [0u32, 3, 5, 7, 12, 19, len as u32 + 1, u32::MAX] {
            let mut f = file.clone();
            f[len - 8..len - 4].copy_from_slice(&bad.to_le_bytes());
            assert!(parse_footer(2, &f).is_none(), "footer_len {bad}");
        }
    }

    #[test]
    fn reopening_a_sealed_last_segment_rolls_to_a_fresh_one() {
        // Simulate the crash window inside seal_locked: the footer and
        // the journal's seal entry are on disk, but the successor
        // segment was never created. Reopening must not append past
        // the footer (the next recovery would discard everything after
        // it) — it must roll to a fresh segment id.
        let dir = scratch_dir("store-seal-crash");
        let t = Telemetry::disabled();
        let (h, _) = Historian::open(&dir, StoreConfig::default(), &t).unwrap();
        let (raw, cal) = lanes(300, 0.0);
        for k in 0..3 {
            h.append(1, 1, k * 300, 1000.0, &raw, &cal).unwrap();
        }
        h.seal_active().unwrap();
        drop(h);
        let segs = list_segments(&dir).unwrap();
        assert_eq!(segs.keys().copied().collect::<Vec<_>>(), vec![0, 1]);
        fs::remove_file(&segs[&1]).unwrap();
        let sealed_len = fs::metadata(&segs[&0]).unwrap().len();

        // Journal-sealed path: the seal entry alone marks segment 0.
        let (h2, rep) = Historian::open(&dir, StoreConfig::default(), &t).unwrap();
        assert_eq!(rep.records, 3);
        assert_eq!(rep.truncated_segments, 0);
        h2.append(1, 1, 900, 1000.0, &raw, &cal).unwrap();
        drop(h2);
        let segs = list_segments(&dir).unwrap();
        assert_eq!(segs.keys().copied().collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(
            fs::metadata(&segs[&0]).unwrap().len(),
            sealed_len,
            "sealed segment must not grow"
        );
        let (h3, rep) = Historian::open(&dir, StoreConfig::default(), &t).unwrap();
        assert_eq!(rep.records, 4);
        assert_eq!(rep.truncated_segments, 0);
        let wave = h3.reader().read_tier(1, 1, 0, 0, 1200).unwrap();
        assert_eq!(wave.points.len(), 1200);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn footer_scan_alone_detects_a_sealed_last_segment() {
        // Same crash window as above, but with the journal lost too:
        // recovery must detect the seal from the footer scan.
        let dir = scratch_dir("store-seal-scan");
        let t = Telemetry::disabled();
        let (h, _) = Historian::open(&dir, StoreConfig::default(), &t).unwrap();
        let (raw, cal) = lanes(300, 0.0);
        for k in 0..3 {
            h.append(1, 1, k * 300, 1000.0, &raw, &cal).unwrap();
        }
        h.seal_active().unwrap();
        drop(h);
        let segs = list_segments(&dir).unwrap();
        fs::remove_file(&segs[&1]).unwrap();
        fs::remove_file(journal_path(&dir)).unwrap();
        let (h2, rep) = Historian::open(&dir, StoreConfig::default(), &t).unwrap();
        assert_eq!(rep.records, 3);
        assert_eq!(rep.truncated_segments, 0);
        h2.append(1, 1, 900, 1000.0, &raw, &cal).unwrap();
        drop(h2);
        let (h3, rep) = Historian::open(&dir, StoreConfig::default(), &t).unwrap();
        assert_eq!(rep.records, 4);
        assert_eq!(rep.truncated_segments, 0);
        let wave = h3.reader().read_tier(1, 1, 0, 0, 1200).unwrap();
        assert_eq!(wave.points.len(), 1200);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn oversized_append_is_rejected_before_touching_disk() {
        let dir = scratch_dir("store-cap");
        let t = Telemetry::disabled();
        let (h, _) = Historian::open(&dir, StoreConfig::default(), &t).unwrap();
        // Enough samples that the encoded payload exceeds MAX_PAYLOAD.
        let n = MAX_PAYLOAD as usize / 16 + 1024;
        let raw = vec![0.0f64; n];
        let cal = vec![MillimetersHg(0.0); n];
        let err = h.append(1, 1, 0, 1000.0, &raw, &cal).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(h.snapshot().is_empty());
        assert_eq!(
            fs::metadata(seg_path(&dir, 0)).unwrap().len(),
            SEG_HEADER_LEN,
            "nothing may reach the segment file"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tier_reads_honor_the_half_open_range_on_unaligned_bounds() {
        let dir = scratch_dir("store-tier-bounds");
        let t = Telemetry::disabled();
        let (h, _) = Historian::open(&dir, StoreConfig::default(), &t).unwrap();
        let (raw, cal) = lanes(64, 0.0);
        // Tier-1 record: clocks 0, 16, …, 1008.
        h.append_tier(1, 1, 1, 0, 62.5, &raw, &cal).unwrap();
        let r = h.reader();
        let wave = r.read_tier(1, 1, 1, 5, 100).unwrap();
        assert!(wave.points.iter().all(|p| p.clock >= 5 && p.clock < 100));
        assert_eq!(wave.points.first().map(|p| p.clock), Some(16));
        assert_eq!(wave.points.len(), 6);
        // Aligned bounds are unchanged.
        let wave = r.read_tier(1, 1, 1, 0, 160).unwrap();
        assert_eq!(wave.points.len(), 10);
        assert_eq!(wave.points[0].clock, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_tail_is_recovered_and_survivors_are_bit_identical() {
        let dir = scratch_dir("store-crash");
        let t = Telemetry::disabled();
        let (h, _) = Historian::open(&dir, StoreConfig::default(), &t).unwrap();
        let (raw, cal) = lanes(300, 0.0);
        for k in 0..5 {
            h.append(1, 9, k * 300, 1000.0, &raw, &cal).unwrap();
        }
        let survivors = h.reader().read_tier(1, 9, 0, 0, 1200).unwrap();
        drop(h);
        // Tear the last record mid-payload.
        let segs = list_segments(&dir).unwrap();
        let (_, path) = segs.iter().next_back().unwrap();
        let len = fs::metadata(path).unwrap().len();
        let f = OpenOptions::new().write(true).open(path).unwrap();
        f.set_len(len - 100).unwrap();
        drop(f);
        let (h2, rep) = Historian::open(&dir, StoreConfig::default(), &t).unwrap();
        assert_eq!(rep.truncated_segments, 1);
        assert_eq!(rep.records, 4);
        let after = h2.reader().read_tier(1, 9, 0, 0, 1200).unwrap();
        assert_eq!(after.points, survivors.points);
        // The store keeps appending where the survivors end.
        h2.append(1, 9, 1200, 1000.0, &raw, &cal).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
