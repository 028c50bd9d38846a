//! Persistent binary snapshot container: the versioned, checksummed on-disk format that
//! lets an engine cold-start by **loading** its preprocessed structures instead of
//! recomputing them from raw rows.
//!
//! # Format
//!
//! One snapshot is a single contiguous buffer:
//!
//! | bytes            | content                                                    |
//! |------------------|------------------------------------------------------------|
//! | `0..8`           | magic `b"SKYSNAP\0"`                                       |
//! | `8..12`          | format version (`u32` LE, currently 1)                     |
//! | `12..16`         | section count (`u32` LE)                                   |
//! | `16..20`         | CRC-32 of the section table (`u32` LE)                     |
//! | `20..24`         | reserved (zero)                                            |
//! | `24..24 + n·24`  | section table: `id: u32, crc: u32, offset: u64, len: u64`  |
//! | …                | section payloads, each starting at an 8-byte-aligned offset |
//!
//! Every integer is little-endian. Section payloads are the raw arrays the in-memory
//! structures are made of — the dataset's row-major numeric values are a plain `f64` array,
//! its nominal value ids a plain `u16` array — so loading is one bounds- and
//! alignment-checked pass over the buffer with bulk fixed-width decoding (which the compiler
//! vectorizes into wide copies), not a field-by-field walk through a self-describing
//! encoding. Section offsets are **required** to be 8-byte aligned within the buffer;
//! [`SnapshotView::parse`] rejects misaligned tables so the bulk decode never straddles an
//! element boundary.
//!
//! Integrity is layered: the table CRC covers the section table, and each section carries
//! its own CRC-32 over its payload, all verified eagerly at [`SnapshotView::parse`] time.
//! Any corruption — byte flips, truncation, a bumped version — surfaces as a
//! [`SnapshotError`]; parsing never panics and a snapshot that fails its checksums is
//! never partially served.
//!
//! This module owns the container plus the codecs for the core types ([`Schema`],
//! [`Template`], the [`Dataset`] rows) and the shared primitives ([`ByteWriter`],
//! [`ByteReader`], delta-encoded vbyte posting lists). Higher layers add their own
//! sections: `skyline-ipo` encodes the IPO tree ([`SECTION_IPO_TREE`]), `skyline-adaptive`
//! the sorted list ([`SECTION_ASFS_ENTRIES`]), and the `skyline` engine the generation
//! metadata ([`SECTION_ENGINE_META`]) tying them together.

use crate::dataset::{non_finite, out_of_domain, Dataset};
use crate::error::SkylineError;
use crate::order::{ImplicitPreference, PartialOrder, Preference, Template};
use crate::schema::{Dimension, Schema};
use crate::value::{PointId, ValueId};
use std::fmt;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Magic bytes at offset 0 of every snapshot.
pub const MAGIC: [u8; 8] = *b"SKYSNAP\0";

/// Current (and only) format version.
pub const FORMAT_VERSION: u32 = 1;

/// Byte alignment every section payload starts at.
pub const SECTION_ALIGN: usize = 8;

const HEADER_LEN: usize = 24;
const TABLE_ENTRY_LEN: usize = 24;
/// Backstop against absurd section counts in corrupted headers (a real snapshot has < 16).
const MAX_SECTIONS: u32 = 1024;

/// Engine-level generation metadata (config tag, generation id, epochs). Opaque to this
/// crate; written and read by the `skyline` engine.
pub const SECTION_ENGINE_META: u32 = 1;
/// [`Schema`] codec payload ([`encode_schema`] / [`decode_schema`]).
pub const SECTION_SCHEMA: u32 = 2;
/// [`Template`] codec payload ([`encode_template`] / [`decode_template`]).
pub const SECTION_TEMPLATE: u32 = 3;
/// Fixed-width [`Dataset`] row header: row count, dimension counts, epoch, live count.
pub const SECTION_BLOCK_HEADER: u32 = 4;
/// The dataset's interleaved numeric values as a raw little-endian `f64` array.
pub const SECTION_BLOCK_NUMERICS: u32 = 5;
/// The dataset's interleaved nominal value ids as a raw little-endian `u16` array.
pub const SECTION_BLOCK_NOMINALS: u32 = 6;
/// Per-nominal-dimension maximum value ids (`u16` array).
pub const SECTION_BLOCK_MAX_VALUES: u32 = 7;
/// Row liveness as a `u64`-word bitset (bit `p` set ⇔ row `p` live).
pub const SECTION_BLOCK_LIVENESS: u32 = 8;
/// Adaptive-SFS sorted list entries. Opaque to this crate; written by `skyline-adaptive`.
pub const SECTION_ASFS_ENTRIES: u32 = 9;
/// IPO tree payload. Opaque to this crate; written and read by `skyline-ipo`.
pub const SECTION_IPO_TREE: u32 = 10;

/// Errors raised while writing, parsing or decoding a snapshot.
///
/// Corrupt input of any shape — flipped bytes, truncation, a version from the future —
/// must land here; snapshot code never panics on untrusted bytes and never yields a
/// structure that fails its integrity checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer does not start with [`MAGIC`] (not a snapshot at all).
    BadMagic,
    /// The snapshot was written by an unknown format version.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// The version this build supports.
        supported: u32,
    },
    /// The buffer ends before the structure it claims to hold (truncated file).
    Truncated {
        /// Bytes the structure needs.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// A CRC-32 check failed (section id 0 denotes the section table itself).
    ChecksumMismatch {
        /// Section whose checksum failed.
        section: u32,
    },
    /// A section offset violates the [`SECTION_ALIGN`] layout invariant.
    Misaligned {
        /// The offending section id.
        section: u32,
        /// Its (misaligned) offset.
        offset: u64,
    },
    /// The section table lists the same id twice.
    DuplicateSection(u32),
    /// A required section is absent.
    MissingSection(u32),
    /// The container is intact but a payload fails structural validation.
    Corrupt(String),
    /// Filesystem-level failure while reading or writing the snapshot.
    Io(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a skyline snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion { found, supported } => write!(
                f,
                "snapshot format version {found} is not supported (this build reads {supported})"
            ),
            SnapshotError::Truncated { needed, available } => write!(
                f,
                "snapshot truncated: needs {needed} bytes but only {available} are available"
            ),
            SnapshotError::ChecksumMismatch { section } => {
                write!(f, "snapshot checksum mismatch in section {section}")
            }
            SnapshotError::Misaligned { section, offset } => write!(
                f,
                "snapshot section {section} starts at misaligned offset {offset}"
            ),
            SnapshotError::DuplicateSection(id) => {
                write!(f, "snapshot lists section {id} more than once")
            }
            SnapshotError::MissingSection(id) => {
                write!(f, "snapshot is missing required section {id}")
            }
            SnapshotError::Corrupt(msg) => write!(f, "snapshot payload corrupt: {msg}"),
            SnapshotError::Io(msg) => write!(f, "snapshot i/o error: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<SnapshotError> for SkylineError {
    fn from(err: SnapshotError) -> Self {
        SkylineError::Snapshot(err.to_string())
    }
}

impl From<SkylineError> for SnapshotError {
    /// Validating constructors ([`Schema::new`], [`Dataset::from_columns`],
    /// [`PartialOrder::from_pairs`], …) reject corrupt payloads with a [`SkylineError`];
    /// inside the snapshot decode path that *is* a corruption report.
    fn from(err: SkylineError) -> Self {
        SnapshotError::Corrupt(err.to_string())
    }
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected) — hand-rolled slicing-by-16 in four joined chains, so the
// format needs no deps.
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// `CRC32_TABLES[k][b]` is the CRC register contribution of byte `b` followed by `k` zero
/// bytes, so 16 independent lookups advance the register by 16 input bytes at once.
/// Table 0 is the classic bytewise table.
const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    tables[0] = crc32_table();
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 16] = crc32_tables();

/// Buffers of at least this many bytes are checksummed as four interleaved chains.
const CRC32_FOUR_CHAIN_MIN: usize = 4096;

/// CRC-32 (IEEE) of `bytes` — the checksum every section and the table are covered by.
///
/// Slicing-by-16: each step folds 16 bytes through 16 lookups that do not wait on one
/// another; the tail shorter than 16 bytes goes through the bytewise loop. One chain still
/// waits on its own previous step, so a buffer of at least 4 KiB is cut into four quarters
/// of equal length, a multiple of 16, that are folded as four independent chains in one
/// loop. The chains are then joined with `crc(A‖B) = crc(A)·x^(8|B|) ⊕ crc(B)` over GF(2)
/// (on the raw registers, so only the first chain starts from the `!0` preset), and the
/// bytes past the fourth quarter continue the joined register.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut rest = bytes;
    if bytes.len() >= CRC32_FOUR_CHAIN_MIN {
        let quarter = bytes.len() / 64 * 16;
        let (a, tail) = bytes.split_at(quarter);
        let (b, tail) = tail.split_at(quarter);
        let (c, tail) = tail.split_at(quarter);
        let (d, tail) = tail.split_at(quarter);
        let mut regs = [!0u32, 0, 0, 0];
        let blocks = a
            .chunks_exact(16)
            .zip(b.chunks_exact(16))
            .zip(c.chunks_exact(16))
            .zip(d.chunks_exact(16));
        for (((a, b), c), d) in blocks {
            regs[0] = crc32_fold16(regs[0], a);
            regs[1] = crc32_fold16(regs[1], b);
            regs[2] = crc32_fold16(regs[2], c);
            regs[3] = crc32_fold16(regs[3], d);
        }
        let shift = x_pow_8n(quarter);
        crc = regs[0];
        for &reg in &regs[1..] {
            crc = gf2_mul(crc, shift) ^ reg;
        }
        rest = tail;
    }
    let mut blocks = rest.chunks_exact(16);
    for block in &mut blocks {
        crc = crc32_fold16(crc, block);
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ CRC32_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Advances the raw CRC register `crc` by one 16-byte `block`.
#[inline(always)]
fn crc32_fold16(crc: u32, block: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let b: &[u8; 16] = block.try_into().expect("16-byte block");
    let head = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    t[15][(head & 0xFF) as usize]
        ^ t[14][((head >> 8) & 0xFF) as usize]
        ^ t[13][((head >> 16) & 0xFF) as usize]
        ^ t[12][(head >> 24) as usize]
        ^ t[11][b[4] as usize]
        ^ t[10][b[5] as usize]
        ^ t[9][b[6] as usize]
        ^ t[8][b[7] as usize]
        ^ t[7][b[8] as usize]
        ^ t[6][b[9] as usize]
        ^ t[5][b[10] as usize]
        ^ t[4][b[11] as usize]
        ^ t[3][b[12] as usize]
        ^ t[2][b[13] as usize]
        ^ t[1][b[14] as usize]
        ^ t[0][b[15] as usize]
}

/// `a · b mod P` over GF(2) in the reflected representation the register uses (bit 31 is
/// `x^0`, bit 0 is `x^31`).
fn gf2_mul(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    for bit in (0..32).rev() {
        if a >> bit & 1 != 0 {
            product ^= b;
        }
        b = if b & 1 != 0 {
            (b >> 1) ^ 0xEDB8_8320
        } else {
            b >> 1
        };
    }
    product
}

/// `x^(8n) mod P` by square-and-multiply: multiplying a raw register by it is the same as
/// folding `n` zero bytes into it.
fn x_pow_8n(mut n: usize) -> u32 {
    let mut result = 1 << 31; // x^0
    let mut power = 1 << 23; // x^8
    while n != 0 {
        if n & 1 != 0 {
            result = gf2_mul(result, power);
        }
        power = gf2_mul(power, power);
        n >>= 1;
    }
    result
}

// ---------------------------------------------------------------------------
// Container: builder + parsed view
// ---------------------------------------------------------------------------

/// Assembles a snapshot buffer from `(id, payload)` sections (the write path).
#[derive(Debug, Default)]
pub struct SnapshotBuilder {
    sections: Vec<(u32, Vec<u8>)>,
}

impl SnapshotBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one section. Ids must be unique; a duplicate is a caller bug and panics.
    pub fn section(&mut self, id: u32, payload: Vec<u8>) -> &mut Self {
        assert!(
            self.sections.iter().all(|(existing, _)| *existing != id),
            "snapshot section {id} added twice"
        );
        self.sections.push((id, payload));
        self
    }

    /// Serializes header, checksummed section table and 8-aligned payloads.
    pub fn finish(self) -> Vec<u8> {
        let table_len = self.sections.len() * TABLE_ENTRY_LEN;
        let mut offset = HEADER_LEN + table_len;
        let mut table = Vec::with_capacity(table_len);
        let mut entries = Vec::with_capacity(self.sections.len());
        for (id, payload) in &self.sections {
            offset = offset.next_multiple_of(SECTION_ALIGN);
            entries.push((*id, crc32(payload), offset as u64, payload.len() as u64));
            offset += payload.len();
        }
        for (id, crc, off, len) in &entries {
            table.extend_from_slice(&id.to_le_bytes());
            table.extend_from_slice(&crc.to_le_bytes());
            table.extend_from_slice(&off.to_le_bytes());
            table.extend_from_slice(&len.to_le_bytes());
        }
        let mut buf = Vec::with_capacity(offset);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        buf.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        buf.extend_from_slice(&crc32(&table).to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&table);
        for ((_, payload), (_, _, off, _)) in self.sections.iter().zip(&entries) {
            buf.resize(*off as usize, 0);
            buf.extend_from_slice(payload);
        }
        buf
    }
}

/// A parsed, fully checksum-verified view over one contiguous snapshot buffer (the load
/// path). Section accessors return subslices of the original buffer — no copies.
#[derive(Debug)]
pub struct SnapshotView<'a> {
    buf: &'a [u8],
    /// `(id, offset, len)` per section, checksum-verified at parse time.
    table: Vec<(u32, usize, usize)>,
}

impl<'a> SnapshotView<'a> {
    /// Parses and verifies `buf`: magic, version, table CRC, per-section bounds, alignment
    /// and CRCs. After this returns `Ok`, every section payload is known-intact.
    pub fn parse(buf: &'a [u8]) -> Result<Self, SnapshotError> {
        if buf.len() < HEADER_LEN {
            return Err(SnapshotError::Truncated {
                needed: HEADER_LEN,
                available: buf.len(),
            });
        }
        if buf[0..8] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u32::from_le_bytes(buf[8..12].try_into().expect("4-byte slice"));
        if version != FORMAT_VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let count = u32::from_le_bytes(buf[12..16].try_into().expect("4-byte slice"));
        if count > MAX_SECTIONS {
            return Err(SnapshotError::Corrupt(format!(
                "section count {count} exceeds the format maximum {MAX_SECTIONS}"
            )));
        }
        let table_crc = u32::from_le_bytes(buf[16..20].try_into().expect("4-byte slice"));
        if buf[20..24] != [0, 0, 0, 0] {
            return Err(SnapshotError::Corrupt(
                "reserved header bytes must be zero".into(),
            ));
        }
        let table_len = count as usize * TABLE_ENTRY_LEN;
        let table_end = HEADER_LEN + table_len;
        if buf.len() < table_end {
            return Err(SnapshotError::Truncated {
                needed: table_end,
                available: buf.len(),
            });
        }
        let table_bytes = &buf[HEADER_LEN..table_end];
        if crc32(table_bytes) != table_crc {
            return Err(SnapshotError::ChecksumMismatch { section: 0 });
        }
        let mut table = Vec::with_capacity(count as usize);
        for entry in table_bytes.chunks_exact(TABLE_ENTRY_LEN) {
            let id = u32::from_le_bytes(entry[0..4].try_into().expect("4-byte slice"));
            let crc = u32::from_le_bytes(entry[4..8].try_into().expect("4-byte slice"));
            let offset = u64::from_le_bytes(entry[8..16].try_into().expect("8-byte slice"));
            let len = u64::from_le_bytes(entry[16..24].try_into().expect("8-byte slice"));
            if table.iter().any(|(existing, _, _)| *existing == id) {
                return Err(SnapshotError::DuplicateSection(id));
            }
            if offset % SECTION_ALIGN as u64 != 0 {
                return Err(SnapshotError::Misaligned {
                    section: id,
                    offset,
                });
            }
            let end = offset.checked_add(len).ok_or_else(|| {
                SnapshotError::Corrupt(format!("section {id} offset + length overflows"))
            })?;
            if end > buf.len() as u64 {
                return Err(SnapshotError::Truncated {
                    needed: end as usize,
                    available: buf.len(),
                });
            }
            let payload = &buf[offset as usize..end as usize];
            if crc32(payload) != crc {
                return Err(SnapshotError::ChecksumMismatch { section: id });
            }
            table.push((id, offset as usize, len as usize));
        }
        // Every byte outside the header, table and payloads must be zero padding, and the
        // buffer must end exactly where the last section does — so a flip in an alignment
        // gap or bytes appended past the end are corruption, not slack no checksum covers.
        let mut covered: Vec<(usize, usize)> = table
            .iter()
            .map(|&(_, offset, len)| (offset, offset + len))
            .collect();
        covered.push((0, table_end));
        covered.sort_unstable();
        let mut cursor = 0usize;
        for (start, end) in covered {
            if start > cursor && buf[cursor..start].iter().any(|&b| b != 0) {
                return Err(SnapshotError::Corrupt(
                    "alignment padding bytes must be zero".into(),
                ));
            }
            cursor = cursor.max(end);
        }
        if cursor != buf.len() {
            return Err(SnapshotError::Corrupt(format!(
                "{} trailing bytes after the last section",
                buf.len() - cursor
            )));
        }
        Ok(Self { buf, table })
    }

    /// The verified payload of section `id`.
    pub fn section(&self, id: u32) -> Result<&'a [u8], SnapshotError> {
        self.table
            .iter()
            .find(|(existing, _, _)| *existing == id)
            .map(|&(_, offset, len)| &self.buf[offset..offset + len])
            .ok_or(SnapshotError::MissingSection(id))
    }

    /// The section ids present, in table order.
    pub fn section_ids(&self) -> Vec<u32> {
        self.table.iter().map(|&(id, _, _)| id).collect()
    }
}

// ---------------------------------------------------------------------------
// Fixed-width byte primitives
// ---------------------------------------------------------------------------

/// Little-endian byte sink for section payloads.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The accumulated bytes.
    pub fn into_inner(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16` LE.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32` LE.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` LE.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` LE.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a raw `u16` array (no length prefix — callers know the count).
    pub fn put_u16_slice(&mut self, values: &[ValueId]) {
        self.buf.reserve(values.len() * 2);
        for &v in values {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Appends a raw `f64` array (no length prefix — callers know the count).
    pub fn put_f64_slice(&mut self, values: &[f64]) {
        self.buf.reserve(values.len() * 8);
        for &v in values {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Appends a variable-length base-128 integer (vbyte / LEB128).
    pub fn put_vbyte(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push((v as u8 & 0x7F) | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Appends a strictly increasing id list as a delta-encoded vbyte posting list:
    /// vbyte count, then the vbyte gap to the previous id (first gap from −1). This is the
    /// compressed carrier for every sorted [`PointId`] set in the snapshot (IPO
    /// disqualified sets, skylines).
    pub fn put_postings(&mut self, ids: &[PointId]) {
        self.put_vbyte(ids.len() as u64);
        let mut prev: i64 = -1;
        for &id in ids {
            let delta = id as i64 - prev;
            assert!(delta > 0, "posting lists must be strictly increasing");
            self.put_vbyte(delta as u64);
            prev = id as i64;
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Bounds-checked little-endian cursor over a section payload. Every accessor returns
/// [`SnapshotError::Truncated`] instead of panicking when the payload runs out.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf` starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| SnapshotError::Corrupt("length overflow".into()))?;
        if end > self.buf.len() {
            return Err(SnapshotError::Truncated {
                needed: end,
                available: self.buf.len(),
            });
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u16` LE.
    pub fn get_u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2-byte slice"),
        ))
    }

    /// Reads a `u32` LE.
    pub fn get_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4-byte slice"),
        ))
    }

    /// Reads a `u64` LE.
    pub fn get_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8-byte slice"),
        ))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, SnapshotError> {
        let len = self.get_u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::Corrupt("string payload is not UTF-8".into()))
    }

    /// Bulk-reads `count` `u16`s.
    pub fn get_u16_vec(&mut self, count: usize) -> Result<Vec<ValueId>, SnapshotError> {
        let bytes = self.take(
            count
                .checked_mul(2)
                .ok_or_else(|| SnapshotError::Corrupt("u16 array length overflow".into()))?,
        )?;
        Ok(decode_u16_slice(bytes))
    }

    /// Bulk-reads `count` `f64`s.
    pub fn get_f64_vec(&mut self, count: usize) -> Result<Vec<f64>, SnapshotError> {
        let bytes = self.take(
            count
                .checked_mul(8)
                .ok_or_else(|| SnapshotError::Corrupt("f64 array length overflow".into()))?,
        )?;
        Ok(decode_f64_slice(bytes))
    }

    /// Bulk-reads `count` `u32`s.
    pub fn get_u32_vec(&mut self, count: usize) -> Result<Vec<u32>, SnapshotError> {
        let bytes = self.take(
            count
                .checked_mul(4)
                .ok_or_else(|| SnapshotError::Corrupt("u32 array length overflow".into()))?,
        )?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
            .collect())
    }

    /// Reads a vbyte integer (rejects encodings longer than a `u64`) in one walk over the
    /// unread bytes. A one-byte integer — most posting-list gaps — returns at once.
    #[inline]
    pub fn get_vbyte(&mut self) -> Result<u64, SnapshotError> {
        if let Some(&byte) = self.buf.get(self.pos).filter(|&&b| b < 0x80) {
            self.pos += 1;
            return Ok(u64::from(byte));
        }
        let mut value = 0u64;
        let mut shift = 0u32;
        for (i, &byte) in self.buf[self.pos..].iter().enumerate() {
            if shift >= 64 || (shift == 63 && byte > 1) {
                return Err(SnapshotError::Corrupt("vbyte integer overflows u64".into()));
            }
            value |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                self.pos += i + 1;
                return Ok(value);
            }
            shift += 7;
        }
        Err(SnapshotError::Truncated {
            needed: self.buf.len() + 1,
            available: self.buf.len(),
        })
    }

    /// Reads a delta-encoded vbyte posting list, validating strict monotonicity and the
    /// [`PointId`] range. `max_len` bounds the decoded length so a corrupt count cannot
    /// trigger an absurd allocation.
    pub fn get_postings(&mut self, max_len: usize) -> Result<Vec<PointId>, SnapshotError> {
        let count = self.get_vbyte()? as usize;
        if count > max_len {
            return Err(SnapshotError::Corrupt(format!(
                "posting list claims {count} ids but at most {max_len} are possible"
            )));
        }
        let mut ids = Vec::with_capacity(count);
        let mut prev: i64 = -1;
        for _ in 0..count {
            let delta = self.get_vbyte()?;
            if delta == 0 {
                return Err(SnapshotError::Corrupt(
                    "posting list gap of zero (ids not strictly increasing)".into(),
                ));
            }
            let id = prev
                .checked_add_unsigned(delta)
                .filter(|&id| id <= PointId::MAX as i64)
                .ok_or_else(|| {
                    SnapshotError::Corrupt("posting list id overflows PointId".into())
                })?;
            ids.push(id as PointId);
            prev = id;
        }
        Ok(ids)
    }

    /// Unread bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Asserts the payload was fully consumed — trailing garbage is corruption, not slack.
    pub fn expect_end(&self) -> Result<(), SnapshotError> {
        if self.remaining() != 0 {
            return Err(SnapshotError::Corrupt(format!(
                "{} trailing bytes after the last field",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// Bulk `u16` LE decode; `chunks_exact` lets the compiler turn this into wide copies.
fn decode_u16_slice(bytes: &[u8]) -> Vec<ValueId> {
    bytes
        .chunks_exact(2)
        .map(|c| u16::from_le_bytes(c.try_into().expect("2-byte chunk")))
        .collect()
}

/// Bulk `f64` LE decode; `chunks_exact` lets the compiler turn this into wide copies.
fn decode_f64_slice(bytes: &[u8]) -> Vec<f64> {
    bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect()
}

// ---------------------------------------------------------------------------
// Core-type codecs: Schema, Template, Dataset
// ---------------------------------------------------------------------------

const KIND_NUMERIC: u8 = 0;
const KIND_NOMINAL: u8 = 1;

/// Encodes a [`Schema`] (dimension names, kinds and nominal label dictionaries).
pub fn encode_schema(schema: &Schema) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(schema.arity() as u32);
    for dim in schema.dimensions() {
        match dim.domain() {
            None => {
                w.put_u8(KIND_NUMERIC);
                w.put_str(dim.name());
            }
            Some(domain) => {
                w.put_u8(KIND_NOMINAL);
                w.put_str(dim.name());
                w.put_u32(domain.cardinality() as u32);
                for (_, label) in domain.iter() {
                    w.put_str(label);
                }
            }
        }
    }
    w.into_inner()
}

/// Decodes a [`Schema`] written by [`encode_schema`].
pub fn decode_schema(bytes: &[u8]) -> Result<Schema, SnapshotError> {
    let mut r = ByteReader::new(bytes);
    let arity = r.get_u32()? as usize;
    if arity > bytes.len() {
        // Every dimension costs at least one kind byte; reject absurd counts up front.
        return Err(SnapshotError::Corrupt(format!(
            "schema claims {arity} dimensions in a {}-byte payload",
            bytes.len()
        )));
    }
    let mut dims = Vec::with_capacity(arity);
    for _ in 0..arity {
        let kind = r.get_u8()?;
        let name = r.get_str()?;
        match kind {
            KIND_NUMERIC => dims.push(Dimension::numeric(name)),
            KIND_NOMINAL => {
                let cardinality = r.get_u32()? as usize;
                if cardinality > u16::MAX as usize + 1 {
                    return Err(SnapshotError::Corrupt(format!(
                        "nominal cardinality {cardinality} exceeds the ValueId range"
                    )));
                }
                let mut labels = Vec::with_capacity(cardinality);
                for _ in 0..cardinality {
                    labels.push(r.get_str()?);
                }
                let domain = crate::value::NominalDomain::from_labels(labels);
                if domain.cardinality() != cardinality {
                    return Err(SnapshotError::Corrupt(format!(
                        "nominal domain of `{name}` lists duplicate labels"
                    )));
                }
                dims.push(Dimension::nominal(name, domain));
            }
            other => {
                return Err(SnapshotError::Corrupt(format!(
                    "unknown dimension kind tag {other}"
                )))
            }
        }
    }
    r.expect_end()?;
    Ok(Schema::new(dims)?)
}

const TEMPLATE_GENERAL: u8 = 0;
const TEMPLATE_IMPLICIT: u8 = 1;

/// Encodes a [`Template`], preserving its form: an implicit-form template round-trips
/// through its per-dimension choice lists, a general one through its explicit pair sets.
pub fn encode_template(template: &Template) -> Vec<u8> {
    let mut w = ByteWriter::new();
    match template.implicit() {
        Some(pref) => {
            w.put_u8(TEMPLATE_IMPLICIT);
            w.put_u32(pref.nominal_count() as u32);
            for dim in pref.dims() {
                w.put_u32(dim.choices().len() as u32);
                w.put_u16_slice(dim.choices());
            }
        }
        None => {
            w.put_u8(TEMPLATE_GENERAL);
            w.put_u32(template.orders().len() as u32);
            for order in template.orders() {
                w.put_u32(order.cardinality() as u32);
                w.put_u32(order.pair_count() as u32);
                for (u, v) in order.pairs() {
                    w.put_u16(u);
                    w.put_u16(v);
                }
            }
        }
    }
    w.into_inner()
}

/// Decodes a [`Template`] written by [`encode_template`], re-deriving the dominance
/// closures through the same validating constructors a fresh build uses.
pub fn decode_template(schema: &Schema, bytes: &[u8]) -> Result<Template, SnapshotError> {
    let mut r = ByteReader::new(bytes);
    let form = r.get_u8()?;
    let count = r.get_u32()? as usize;
    if count != schema.nominal_count() {
        return Err(SnapshotError::Corrupt(format!(
            "template covers {count} nominal dimensions but the schema has {}",
            schema.nominal_count()
        )));
    }
    let template = match form {
        TEMPLATE_IMPLICIT => {
            let mut dims = Vec::with_capacity(count);
            for _ in 0..count {
                let choices = r.get_u32()? as usize;
                let values = r.get_u16_vec(choices)?;
                dims.push(ImplicitPreference::new(values)?);
            }
            Template::from_preference(schema, Preference::from_dims(dims))?
        }
        TEMPLATE_GENERAL => {
            let mut orders = Vec::with_capacity(count);
            for _ in 0..count {
                let cardinality = r.get_u32()? as usize;
                let pair_count = r.get_u32()? as usize;
                if pair_count > cardinality.saturating_mul(cardinality) {
                    return Err(SnapshotError::Corrupt(format!(
                        "order lists {pair_count} pairs over a cardinality-{cardinality} domain"
                    )));
                }
                let mut pairs = Vec::with_capacity(pair_count);
                for _ in 0..pair_count {
                    pairs.push((r.get_u16()?, r.get_u16()?));
                }
                orders.push(PartialOrder::from_pairs(cardinality, pairs)?);
            }
            Template::from_partial_orders(schema, orders)?
        }
        other => {
            return Err(SnapshotError::Corrupt(format!(
                "unknown template form tag {other}"
            )))
        }
    };
    r.expect_end()?;
    Ok(template)
}

/// Writes the dataset's row sections (header, numeric array, nominal array, max-value
/// array, liveness bitset) into `builder`. The schema goes in its own section
/// ([`encode_schema`]).
pub fn write_dataset_sections(data: &Dataset, builder: &mut SnapshotBuilder) {
    let schema = data.schema();
    let mut header = ByteWriter::new();
    header.put_u64(data.len() as u64);
    header.put_u32(schema.numeric_count() as u32);
    header.put_u32(schema.nominal_count() as u32);
    header.put_u64(data.epoch().get());
    header.put_u64(data.live_count() as u64);
    builder.section(SECTION_BLOCK_HEADER, header.into_inner());

    let mut nums = ByteWriter::new();
    nums.put_f64_slice(data.numeric_values());
    builder.section(SECTION_BLOCK_NUMERICS, nums.into_inner());

    let mut noms = ByteWriter::new();
    noms.put_u16_slice(data.nominal_values());
    builder.section(SECTION_BLOCK_NOMINALS, noms.into_inner());

    let mut max = ByteWriter::new();
    max.put_u16_slice(data.max_values());
    builder.section(SECTION_BLOCK_MAX_VALUES, max.into_inner());

    let mut live = ByteWriter::new();
    let mut word = 0u64;
    for (p, alive) in data.liveness().iter().enumerate() {
        if *alive {
            word |= 1 << (p % 64);
        }
        if p % 64 == 63 {
            live.put_u64(word);
            word = 0;
        }
    }
    if !data.len().is_multiple_of(64) {
        live.put_u64(word);
    }
    builder.section(SECTION_BLOCK_LIVENESS, live.into_inner());
}

/// Reconstructs a [`Dataset`] of `schema` from the sections written by
/// [`write_dataset_sections`], restoring its [`crate::DatasetEpoch`] so epoch-tagged artifacts
/// keep composing. Rejects rows whose dimensions do not match `schema`, numeric cells that
/// are not finite (which ingest refuses) and nominal value ids outside its domains.
pub fn read_dataset(view: &SnapshotView<'_>, schema: &Schema) -> Result<Dataset, SnapshotError> {
    let mut header = ByteReader::new(view.section(SECTION_BLOCK_HEADER)?);
    let len = header.get_u64()? as usize;
    let numeric_dims = header.get_u32()? as usize;
    let nominal_dims = header.get_u32()? as usize;
    let epoch = header.get_u64()?;
    let live_len = header.get_u64()? as usize;
    header.expect_end()?;
    if len > PointId::MAX as usize {
        return Err(SnapshotError::Corrupt(format!(
            "dataset claims {len} rows, beyond the PointId range"
        )));
    }
    if live_len > len {
        return Err(SnapshotError::Corrupt(format!(
            "dataset claims {live_len} live rows out of {len}"
        )));
    }
    if schema.numeric_count() != numeric_dims || schema.nominal_count() != nominal_dims {
        return Err(SnapshotError::Corrupt(format!(
            "schema has {}+{} dimensions but the rows were written for {numeric_dims}+\
             {nominal_dims}",
            schema.numeric_count(),
            schema.nominal_count(),
        )));
    }

    let nums_bytes = view.section(SECTION_BLOCK_NUMERICS)?;
    let expect = |name: &str, got: usize, want: usize| -> Result<(), SnapshotError> {
        if got != want {
            return Err(SnapshotError::Corrupt(format!(
                "{name} section holds {got} bytes but the header implies {want}"
            )));
        }
        Ok(())
    };
    expect(
        "numeric",
        nums_bytes.len(),
        len.checked_mul(numeric_dims)
            .and_then(|n| n.checked_mul(8))
            .ok_or_else(|| SnapshotError::Corrupt("numeric array overflows".into()))?,
    )?;
    // One pass decodes and checks finiteness; only a refusal scans again, to name the first
    // non-finite cell in row order.
    let mut finite = true;
    let nums: Vec<f64> = nums_bytes
        .chunks_exact(8)
        .map(|c| {
            let v = f64::from_le_bytes(c.try_into().expect("8-byte chunk"));
            finite &= v.is_finite();
            v
        })
        .collect();
    if !finite {
        let i = nums
            .iter()
            .position(|v| !v.is_finite())
            .expect("a non-finite cell was seen");
        return Err(non_finite(schema, i % numeric_dims, nums[i]).into());
    }

    let noms_bytes = view.section(SECTION_BLOCK_NOMINALS)?;
    expect(
        "nominal",
        noms_bytes.len(),
        len.checked_mul(nominal_dims)
            .and_then(|n| n.checked_mul(2))
            .ok_or_else(|| SnapshotError::Corrupt("nominal array overflows".into()))?,
    )?;
    let max_bytes = view.section(SECTION_BLOCK_MAX_VALUES)?;
    expect("max-value", max_bytes.len(), nominal_dims * 2)?;
    let max_value = decode_u16_slice(max_bytes);
    // The invariant: max_value[j] is the max over all physical rows. Compiled orders
    // validate their cardinality against it, so an understated bound in a
    // checksum-colliding payload could send a value id past an order's closure table.
    // The decode recomputes it in the same pass, 1024 rows at a time: each block is decoded
    // in bulk and folded into the maxima while it is still in L1. (Folding value by value
    // as it is decoded keeps the compiler from vectorizing either half.)
    let mut computed = vec![ValueId::default(); nominal_dims];
    let mut noms = Vec::with_capacity(len * nominal_dims);
    if nominal_dims > 0 {
        for block in noms_bytes.chunks(nominal_dims * 2 * 1024) {
            let start = noms.len();
            noms.extend(
                block
                    .chunks_exact(2)
                    .map(|c| u16::from_le_bytes(c.try_into().expect("2-byte chunk"))),
            );
            for row in noms[start..].chunks_exact(nominal_dims) {
                for (m, &v) in computed.iter_mut().zip(row) {
                    *m = (*m).max(v);
                }
            }
        }
    }
    if computed != max_value {
        return Err(SnapshotError::Corrupt(
            "per-dimension max-value bounds do not match the nominal array".into(),
        ));
    }
    if len > 0 {
        // With the bounds verified exact, checking each bound checks every value id.
        for (j, &max) in max_value.iter().enumerate() {
            if max as usize >= schema.nominal_domain(j).map_or(0, |d| d.cardinality()) {
                return Err(out_of_domain(schema, j, max).into());
            }
        }
    }

    let live_bytes = view.section(SECTION_BLOCK_LIVENESS)?;
    expect("liveness", live_bytes.len(), len.div_ceil(64) * 8)?;
    let mut live = Vec::with_capacity(len);
    let mut counted = 0;
    for (w, chunk) in live_bytes.chunks_exact(8).enumerate() {
        let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        let bits = (len - w * 64).min(64);
        if bits < 64 && word >> bits != 0 {
            return Err(SnapshotError::Corrupt(
                "liveness bitset sets bits beyond the row count".into(),
            ));
        }
        counted += word.count_ones() as usize;
        live.extend((0..bits).map(|b| (word >> b) & 1 != 0));
    }
    if counted != live_len {
        return Err(SnapshotError::Corrupt(format!(
            "liveness bitset counts {counted} live rows but the header claims {live_len}"
        )));
    }
    Ok(Dataset::from_parts(
        schema.clone(),
        nums,
        noms,
        max_value,
        live,
        live_len,
        epoch,
    ))
}

// ---------------------------------------------------------------------------
// File helpers
// ---------------------------------------------------------------------------

/// Reads a snapshot file into one contiguous buffer.
pub fn read_file(path: &Path) -> Result<Vec<u8>, SnapshotError> {
    std::fs::read(path).map_err(|e| SnapshotError::Io(format!("reading {}: {e}", path.display())))
}

/// Atomically and durably replaces `path` with `bytes`.
///
/// The payload goes to a sibling temp file of its own (named by pid plus a process-wide
/// counter, so two writers racing for one target never share a temp file), is `fsync`ed,
/// and is renamed over the target; on Unix the parent directory is then `fsync`ed so the
/// rename itself is on disk when this returns `Ok`. After a crash at any point `path` holds
/// either the previous complete file or the new one, never a torn mix; an orphaned temp
/// file may be left beside it, which no loader reads.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), SnapshotError> {
    static NEXT_TMP: AtomicU64 = AtomicU64::new(0);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(
        ".{}-{}.tmp",
        std::process::id(),
        NEXT_TMP.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = std::path::PathBuf::from(tmp);
    let written = std::fs::File::create(&tmp).and_then(|mut file| {
        file.write_all(bytes)?;
        file.sync_all()
    });
    if let Err(e) = written {
        let _ = std::fs::remove_file(&tmp);
        return Err(SnapshotError::Io(format!("writing {}: {e}", tmp.display())));
    }
    std::fs::rename(&tmp, path).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        SnapshotError::Io(format!("renaming into {}: {e}", path.display()))
    })?;
    #[cfg(unix)]
    {
        let dir = path
            .parent()
            .filter(|d| !d.as_os_str().is_empty())
            .unwrap_or_else(|| Path::new("."));
        std::fs::File::open(dir)
            .and_then(|d| d.sync_all())
            .map_err(|e| SnapshotError::Io(format!("syncing {}: {e}", dir.display())))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Dimension;

    fn sample_schema() -> Schema {
        Schema::new(vec![
            Dimension::numeric("price"),
            Dimension::nominal_with_labels("group", ["T", "H", "M"]),
            Dimension::nominal_with_labels("meal", ["b", "hb"]),
        ])
        .unwrap()
    }

    /// The bytewise table loop: the reference the sliced [`crc32`] must equal.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC32_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    /// Slicing-by-16 equals the bytewise loop on every length 0–300 at every start offset
    /// 0–15, so every split into 16-byte blocks and a tail is covered.
    #[test]
    fn sliced_crc32_equals_the_bytewise_loop() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let random: Vec<u8> = (0..316)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect();
        let ones = vec![0xFFu8; 316];
        for buf in [&random, &ones] {
            for start in 0..16 {
                for len in 0..=300 {
                    let bytes = &buf[start..start + len];
                    assert_eq!(
                        crc32(bytes),
                        crc32_bytewise(bytes),
                        "start {start}, length {len}"
                    );
                }
            }
        }
    }

    /// `len` pseudo-random bytes (xorshift64).
    fn random_bytes(len: usize) -> Vec<u8> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect()
    }

    /// Around the 4 KiB threshold (one chain below it, four joined chains from it on), at
    /// every start offset 0–15, the joined chains equal the bytewise loop.
    #[test]
    fn four_chain_crc32_equals_the_bytewise_loop_across_the_threshold() {
        let random = random_bytes(CRC32_FOUR_CHAIN_MIN + 17 + 16);
        let ones = vec![0xFFu8; random.len()];
        for buf in [&random, &ones] {
            for start in 0..16 {
                for len in CRC32_FOUR_CHAIN_MIN - 17..=CRC32_FOUR_CHAIN_MIN + 17 {
                    let bytes = &buf[start..start + len];
                    assert_eq!(
                        crc32(bytes),
                        crc32_bytewise(bytes),
                        "start {start}, length {len}"
                    );
                }
            }
        }
    }

    /// A buffer of more than 3 MB, whose length is no multiple of 64, so every quarter is
    /// long and a tail follows the fourth.
    #[test]
    fn four_chain_crc32_equals_the_bytewise_loop_on_a_large_buffer() {
        let bytes = random_bytes(3 * 1024 * 1024 + 45);
        assert_eq!(crc32(&bytes), crc32_bytewise(&bytes));
    }

    #[test]
    fn container_round_trips_and_aligns_sections() {
        let mut b = SnapshotBuilder::new();
        b.section(7, vec![1, 2, 3]);
        b.section(9, vec![4; 13]);
        let buf = b.finish();
        let view = SnapshotView::parse(&buf).unwrap();
        assert_eq!(view.section(7).unwrap(), &[1, 2, 3]);
        assert_eq!(view.section(9).unwrap(), &[4; 13]);
        assert_eq!(view.section_ids(), vec![7, 9]);
        assert_eq!(view.section(8), Err(SnapshotError::MissingSection(8)));
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let mut b = SnapshotBuilder::new();
        b.section(1, b"hello snapshot".to_vec());
        b.section(2, (0u32..64).flat_map(|v| v.to_le_bytes()).collect());
        let buf = b.finish();
        SnapshotView::parse(&buf).unwrap();
        for i in 0..buf.len() {
            for bit in [1u8, 0x80] {
                let mut corrupt = buf.clone();
                corrupt[i] ^= bit;
                assert!(
                    SnapshotView::parse(&corrupt).is_err(),
                    "flip at byte {i} went undetected"
                );
            }
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let mut b = SnapshotBuilder::new();
        b.section(1, vec![9; 40]);
        let buf = b.finish();
        for len in 0..buf.len() {
            assert!(
                SnapshotView::parse(&buf[..len]).is_err(),
                "truncation to {len} bytes went undetected"
            );
        }
    }

    #[test]
    fn version_bump_is_rejected() {
        let mut b = SnapshotBuilder::new();
        b.section(1, vec![1]);
        let mut buf = b.finish();
        buf[8] = FORMAT_VERSION as u8 + 1;
        assert_eq!(
            SnapshotView::parse(&buf).err(),
            Some(SnapshotError::UnsupportedVersion {
                found: FORMAT_VERSION + 1,
                supported: FORMAT_VERSION
            })
        );
        let mut bad_magic = b"NOTSNAP\0".to_vec();
        bad_magic.extend_from_slice(&buf[8..]);
        assert_eq!(
            SnapshotView::parse(&bad_magic).err(),
            Some(SnapshotError::BadMagic)
        );
    }

    #[test]
    fn vbyte_and_postings_round_trip() {
        let mut w = ByteWriter::new();
        for v in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            w.put_vbyte(v);
        }
        w.put_postings(&[0, 1, 5, 64, 1000, 1001]);
        w.put_postings(&[]);
        let bytes = w.into_inner();
        let mut r = ByteReader::new(&bytes);
        for v in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            assert_eq!(r.get_vbyte().unwrap(), v);
        }
        assert_eq!(r.get_postings(2000).unwrap(), vec![0, 1, 5, 64, 1000, 1001]);
        assert_eq!(r.get_postings(2000).unwrap(), Vec::<PointId>::new());
        r.expect_end().unwrap();
    }

    /// A vbyte cut short names the byte it still needs; one longer than a `u64` is corrupt.
    #[test]
    fn vbyte_reports_truncation_and_overflow() {
        assert_eq!(
            ByteReader::new(&[0x80, 0xFF]).get_vbyte(),
            Err(SnapshotError::Truncated {
                needed: 3,
                available: 2
            })
        );
        assert_eq!(
            ByteReader::new(&[]).get_vbyte(),
            Err(SnapshotError::Truncated {
                needed: 1,
                available: 0
            })
        );
        let mut too_long = vec![0xFF; 9];
        too_long.push(0x02);
        assert!(matches!(
            ByteReader::new(&too_long).get_vbyte(),
            Err(SnapshotError::Corrupt(_))
        ));
        let mut r = ByteReader::new(&[0x05, 0xAC, 0x02, 0x07]);
        assert_eq!(r.get_vbyte(), Ok(5));
        assert_eq!(r.get_vbyte(), Ok(300));
        assert_eq!(r.remaining(), 1);
    }

    #[test]
    fn postings_reject_non_monotone_and_oversized_lists() {
        let mut w = ByteWriter::new();
        w.put_vbyte(2); // count
        w.put_vbyte(5); // id 4
        w.put_vbyte(0); // zero gap: not strictly increasing
        let bytes = w.into_inner();
        assert!(matches!(
            ByteReader::new(&bytes).get_postings(10),
            Err(SnapshotError::Corrupt(_))
        ));
        let mut w = ByteWriter::new();
        w.put_postings(&[0, 1, 2]);
        let bytes = w.into_inner();
        assert!(matches!(
            ByteReader::new(&bytes).get_postings(2),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn schema_codec_round_trips() {
        let schema = sample_schema();
        let decoded = decode_schema(&encode_schema(&schema)).unwrap();
        assert_eq!(decoded, schema);
        // Numeric-only schemas too.
        let plain = Schema::new(vec![Dimension::numeric("x"), Dimension::numeric("y")]).unwrap();
        assert_eq!(decode_schema(&encode_schema(&plain)).unwrap(), plain);
    }

    #[test]
    fn template_codec_round_trips_both_forms() {
        let schema = sample_schema();
        let implicit = Template::from_preference(
            &schema,
            Preference::from_dims(vec![
                ImplicitPreference::new([0, 2]).unwrap(),
                ImplicitPreference::none(),
            ]),
        )
        .unwrap();
        let decoded = decode_template(&schema, &encode_template(&implicit)).unwrap();
        assert_eq!(decoded, implicit);

        let general = Template::from_partial_orders(
            &schema,
            vec![
                PartialOrder::from_pairs(3, [(0, 1), (0, 2)]).unwrap(),
                PartialOrder::empty(2),
            ],
        )
        .unwrap();
        let decoded = decode_template(&schema, &encode_template(&general)).unwrap();
        assert_eq!(decoded, general);
    }

    #[test]
    fn block_codec_round_trips_with_tombstones_and_epoch() {
        let schema = sample_schema();
        let mut data = Dataset::empty(schema.clone());
        for (price, g, m) in [(10.0, 0, 0), (20.0, 1, 1), (30.0, 2, 0), (40.0, 0, 1)] {
            data.push_row_ids(&[price], &[g, m]).unwrap();
        }
        data.tombstone(1).unwrap();
        data.append_row(&[50.0], &[1, 0]).unwrap();

        let mut b = SnapshotBuilder::new();
        write_dataset_sections(&data, &mut b);
        let buf = b.finish();
        let view = SnapshotView::parse(&buf).unwrap();
        let decoded = read_dataset(&view, &schema).unwrap();
        assert_eq!(decoded, data);
        assert_eq!(decoded.epoch(), data.epoch());
        assert_eq!(decoded.live_count(), 4);
        assert_eq!(decoded.len(), 5);
        assert_eq!(decoded.numeric(4, 0), 50.0);
        assert_eq!(decoded.nominal(2, 0), 2);
    }

    /// Reading the rows back under a schema of other dimensions is a corruption report.
    #[test]
    fn dataset_from_block_rejects_schema_mismatch() {
        let schema = sample_schema();
        let mut data = Dataset::empty(schema.clone());
        data.push_row_ids(&[1.0], &[0, 0]).unwrap();
        let mut b = SnapshotBuilder::new();
        write_dataset_sections(&data, &mut b);
        let buf = b.finish();
        let view = SnapshotView::parse(&buf).unwrap();
        let narrow = Schema::new(vec![Dimension::numeric("x")]).unwrap();
        assert!(matches!(
            read_dataset(&view, &narrow),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    /// A numeric section that holds NaN or `±∞` is a corruption report even under valid
    /// CRCs: ingest refuses such a cell, so no dataset holds one.
    #[test]
    fn read_dataset_refuses_a_non_finite_numeric_cell() {
        let schema = sample_schema();
        let mut data = Dataset::empty(schema.clone());
        data.push_row_ids(&[1.0], &[0, 0]).unwrap();
        data.push_row_ids(&[2.0], &[1, 1]).unwrap();
        let mut b = SnapshotBuilder::new();
        write_dataset_sections(&data, &mut b);
        let buf = b.finish();
        let view = SnapshotView::parse(&buf).unwrap();
        for cell in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut b = SnapshotBuilder::new();
            for id in view.section_ids() {
                let payload = if id == SECTION_BLOCK_NUMERICS {
                    let mut w = ByteWriter::new();
                    w.put_f64_slice(&[1.0, cell]);
                    w.into_inner()
                } else {
                    view.section(id).unwrap().to_vec()
                };
                b.section(id, payload);
            }
            let buf = b.finish();
            let tampered = SnapshotView::parse(&buf).unwrap();
            assert!(
                matches!(
                    read_dataset(&tampered, &schema),
                    Err(SnapshotError::Corrupt(_))
                ),
                "{cell}"
            );
        }
    }

    /// Three rows over numeric `price`, `weight` and nominal `group`.
    fn two_numeric_dataset() -> Dataset {
        let schema = Schema::new(vec![
            Dimension::numeric("price"),
            Dimension::numeric("weight"),
            Dimension::nominal_with_labels("group", ["T", "H"]),
        ])
        .unwrap();
        let mut data = Dataset::empty(schema);
        for (p, w, g) in [(1.0, 5.0, 0), (2.0, 6.0, 1), (3.0, 7.0, 0)] {
            data.push_row_ids(&[p, w], &[g]).unwrap();
        }
        data
    }

    /// Writes `data`'s sections with `replace` applied to them, under valid CRCs, and reads
    /// the rows back.
    fn read_tampered(
        data: &Dataset,
        replace: impl Fn(u32, &[u8]) -> Vec<u8>,
    ) -> Result<Dataset, SnapshotError> {
        let mut b = SnapshotBuilder::new();
        write_dataset_sections(data, &mut b);
        let buf = b.finish();
        let view = SnapshotView::parse(&buf).unwrap();
        let mut b = SnapshotBuilder::new();
        for id in view.section_ids() {
            b.section(id, replace(id, view.section(id).unwrap()));
        }
        let buf = b.finish();
        read_dataset(&SnapshotView::parse(&buf).unwrap(), data.schema())
    }

    /// The numeric section with `cells` (flat row-major index, value) overwritten.
    fn with_cells(nums: &[f64], cells: &[(usize, f64)]) -> Vec<u8> {
        let mut nums = nums.to_vec();
        for &(i, v) in cells {
            nums[i] = v;
        }
        let mut w = ByteWriter::new();
        w.put_f64_slice(&nums);
        w.into_inner()
    }

    fn corrupt_message(result: Result<Dataset, SnapshotError>) -> String {
        match result {
            Err(SnapshotError::Corrupt(msg)) => msg,
            other => panic!("expected a corruption report, got {other:?}"),
        }
    }

    /// The fused decode still names the first non-finite cell in row order: in the last row
    /// of the last dimension, in row 0, and the earlier of two.
    #[test]
    fn read_dataset_names_the_first_non_finite_cell_in_row_order() {
        let data = two_numeric_dataset();
        let nums = data.numeric_values().to_vec();
        let refuse = |cells: &[(usize, f64)]| {
            corrupt_message(read_tampered(&data, |id, payload| {
                if id == SECTION_BLOCK_NUMERICS {
                    with_cells(&nums, cells)
                } else {
                    payload.to_vec()
                }
            }))
        };
        // Row 2, `weight`: the very last cell.
        let msg = refuse(&[(5, f64::NAN)]);
        assert!(msg.contains("`weight` holds NaN"), "{msg}");
        // Row 0, `price`.
        let msg = refuse(&[(0, f64::INFINITY)]);
        assert!(msg.contains("`price` holds inf"), "{msg}");
        // Row 0 `weight` comes before row 1 `price` in row order.
        let msg = refuse(&[(2, f64::NEG_INFINITY), (1, f64::NAN)]);
        assert!(msg.contains("`weight` holds NaN"), "{msg}");
        let msg = refuse(&[(4, f64::NAN), (3, f64::INFINITY)]);
        assert!(msg.contains("`weight` holds inf"), "{msg}");
    }

    /// A liveness word whose set bits disagree with the header's live count is refused.
    #[test]
    fn read_dataset_refuses_a_liveness_count_the_header_denies() {
        let mut data = two_numeric_dataset();
        data.tombstone(1).unwrap();
        assert!(read_tampered(&data, |_, payload| payload.to_vec()).is_ok());
        for word in [0b111u64, 0b001, 0] {
            let msg = corrupt_message(read_tampered(&data, |id, payload| {
                if id == SECTION_BLOCK_LIVENESS {
                    word.to_le_bytes().to_vec()
                } else {
                    payload.to_vec()
                }
            }));
            assert!(
                msg.contains(&format!(
                    "counts {} live rows but the header claims 2",
                    word.count_ones()
                )),
                "{msg}"
            );
        }
    }

    #[test]
    fn file_round_trip_is_atomic_and_missing_files_error() {
        let dir = std::env::temp_dir().join(format!("skysnap-core-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.snap");
        let mut b = SnapshotBuilder::new();
        b.section(1, vec![1, 2, 3]);
        let buf = b.finish();
        write_atomic(&path, &buf).unwrap();
        assert_eq!(read_file(&path).unwrap(), buf);
        assert!(matches!(
            read_file(&dir.join("absent.snap")),
            Err(SnapshotError::Io(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Writers racing for one target each get their own temp file: every write succeeds,
    /// the target ends up holding one writer's complete payload, and no temp file is left.
    #[test]
    fn concurrent_writers_of_one_target_never_interleave() {
        let dir = std::env::temp_dir().join(format!("skysnap-race-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shard-0000.snap");
        let payloads: Vec<Vec<u8>> = (0..4u8).map(|w| vec![w; 256 * 1024]).collect();
        // Every round starts all writers together, so their writes overlap.
        let start = std::sync::Barrier::new(payloads.len());
        std::thread::scope(|scope| {
            for payload in &payloads {
                let (path, start) = (&path, &start);
                scope.spawn(move || {
                    for _ in 0..8 {
                        start.wait();
                        write_atomic(path, payload).unwrap();
                    }
                });
            }
        });
        assert!(payloads.contains(&read_file(&path).unwrap()));
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, vec![std::ffi::OsString::from("shard-0000.snap")]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_error_converts_into_skyline_error() {
        let err: SkylineError = SnapshotError::BadMagic.into();
        assert!(matches!(err, SkylineError::Snapshot(_)));
        assert!(err.to_string().contains("magic"));
    }
}
