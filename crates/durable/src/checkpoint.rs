//! Versioned checkpoint files.
//!
//! # File format
//!
//! A checkpoint file is a single header line followed by a binary body:
//!
//! ```text
//! JITDSMS-CHECKPOINT v2\n
//! <body: one encoded Content value>
//! ```
//!
//! The body encodes the workspace `serde::Content` tree directly, written
//! by reference (no intermediate clone, no text). Every value opens with a
//! tag byte:
//!
//! | tag | value   | payload                                            |
//! |-----|---------|----------------------------------------------------|
//! | 0   | `Null`  | —                                                  |
//! | 1/2 | `Bool`  | — (`false` / `true`)                               |
//! | 3   | `U64`   | LEB128 varint                                      |
//! | 4   | `I64`   | zigzag, then LEB128 varint                         |
//! | 5   | `F64`   | the 8 raw IEEE-754 bits, little-endian             |
//! | 6   | `Str`   | LEB128 byte length, then UTF-8 bytes               |
//! | 7   | `Seq`   | LEB128 element count, then the elements            |
//! | 8   | `Map`   | LEB128 entry count, then per entry a length-prefixed UTF-8 key and a value |
//!
//! Invariants the format relies on:
//!
//! * The header line is exactly [`MAGIC`], one space, `v` and the decimal
//!   [`FORMAT_VERSION`], terminated by a single `\n`. Anything else is
//!   [`CheckpointError::Corrupt`]; a well-formed header with an unsupported
//!   version (including the JSON-bodied `v1`) is
//!   [`CheckpointError::VersionMismatch`] — never silently reinterpreted.
//! * The body is exactly one value. Its schema is owned by the layer that
//!   produced it (executor, sharded session, serving registry); this module
//!   only guarantees that what [`write_checkpoint`] wrote,
//!   [`read_checkpoint`] returns bit-for-bit as the same `Content` tree
//!   (floats keep their bits, so `-0.0` and NaN payloads survive).
//! * A malformed body is [`CheckpointError::Corrupt`], never a panic: a
//!   truncated body, an unknown tag, trailing bytes after the value,
//!   invalid UTF-8, a varint wider than 64 bits, a length larger than the
//!   bytes that remain (so a forged length cannot force a huge
//!   allocation), or nesting deeper than [`MAX_DEPTH`] (so a forged body
//!   cannot overflow the stack).
//! * Writes go through a temporary sibling file (`<path>.tmp`), fsynced and
//!   renamed into place, so a crash mid-write leaves either the old
//!   checkpoint or none — never a torn file that parses.
//! * Checkpoint *bodies* are deterministic by construction upstream (hash
//!   maps are serialised as key-sorted pair lists) and the encoding has one
//!   form per value, so identical state produces identical bytes — useful
//!   for tests and content-addressed storage alike.

use serde::Content;
use std::fmt;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Magic string opening every checkpoint file.
pub const MAGIC: &str = "JITDSMS-CHECKPOINT";

/// Current (and only) supported format version.
pub const FORMAT_VERSION: u32 = 2;

/// Deepest `Seq`/`Map` nesting a body may have. Real bodies nest about a
/// dozen levels (registry → pipeline → session → executor → operator →
/// state → columns); the cap bounds the decoder's recursion.
pub const MAX_DEPTH: usize = 64;

/// Why a checkpoint could not be written or read back.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// The file does not parse as a checkpoint (bad magic, truncated
    /// header, malformed binary body).
    Corrupt(String),
    /// The file is a checkpoint, but from an unsupported format version.
    VersionMismatch {
        /// Version found in the file header.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// The checkpoint parsed but does not match what the caller is trying
    /// to restore into (wrong backend kind, shard count, operator names…).
    Mismatch(String),
    /// The body decoded but not as the expected structure.
    Serde(serde::Error),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Corrupt(detail) => write!(f, "corrupt checkpoint: {detail}"),
            CheckpointError::VersionMismatch { found, supported } => write!(
                f,
                "checkpoint format version {found} is not supported (this build reads v{supported})"
            ),
            CheckpointError::Mismatch(detail) => {
                write!(f, "checkpoint does not match the restore target: {detail}")
            }
            CheckpointError::Serde(e) => write!(f, "checkpoint body malformed: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<serde::Error> for CheckpointError {
    fn from(e: serde::Error) -> Self {
        CheckpointError::Serde(e)
    }
}

/// Size and latency of one checkpoint write, for metrics surfacing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Bytes written (header + body).
    pub bytes: u64,
    /// Wall-clock milliseconds spent serialising and writing.
    pub millis: u64,
}

/// Encode `body` and write it to `path` atomically (via a `.tmp` sibling
/// renamed into place).
///
/// A body nested deeper than [`MAX_DEPTH`] could not be read back, so it
/// is refused as [`CheckpointError::Corrupt`] before anything is written.
pub fn write_checkpoint(
    path: impl AsRef<Path>,
    body: &Content,
) -> Result<CheckpointStats, CheckpointError> {
    let path = path.as_ref();
    let started = Instant::now();
    let mut payload = format!("{MAGIC} v{FORMAT_VERSION}\n").into_bytes();
    encode(body, 0, &mut payload)?;
    let tmp = path.with_extension("tmp");
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(&payload)?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(CheckpointStats {
        bytes: payload.len() as u64,
        millis: started.elapsed().as_millis() as u64,
    })
}

/// Read a checkpoint file back, validating the header, and decode the body.
pub fn read_checkpoint(path: impl AsRef<Path>) -> Result<Content, CheckpointError> {
    let bytes = std::fs::read(path.as_ref())?;
    let Some(newline) = bytes.iter().position(|&b| b == b'\n') else {
        return Err(CheckpointError::Corrupt(
            "missing header line (file truncated?)".to_string(),
        ));
    };
    let (header, body) = (&bytes[..newline], &bytes[newline + 1..]);
    let Some(version) = header
        .strip_prefix(MAGIC.as_bytes())
        .and_then(|rest| rest.strip_prefix(b" v"))
    else {
        return Err(CheckpointError::Corrupt(format!(
            "bad magic: expected `{MAGIC} v<N>`, found `{}`",
            String::from_utf8_lossy(&header[..header.len().min(40)])
        )));
    };
    let found: u32 = std::str::from_utf8(version)
        .ok()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| {
            CheckpointError::Corrupt(format!(
                "unparseable version `{}`",
                String::from_utf8_lossy(version)
            ))
        })?;
    if found != FORMAT_VERSION {
        return Err(CheckpointError::VersionMismatch {
            found,
            supported: FORMAT_VERSION,
        });
    }
    decode(body)
}

// ---------------------------------------------------------------------------
// Body codec
// ---------------------------------------------------------------------------

const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_U64: u8 = 3;
const TAG_I64: u8 = 4;
const TAG_F64: u8 = 5;
const TAG_STR: u8 = 6;
const TAG_SEQ: u8 = 7;
const TAG_MAP: u8 = 8;

fn too_deep() -> CheckpointError {
    CheckpointError::Corrupt(format!("body nests deeper than {MAX_DEPTH} levels"))
}

/// Append the encoding of `content` (at nesting `depth`) to `out`.
fn encode(content: &Content, depth: usize, out: &mut Vec<u8>) -> Result<(), CheckpointError> {
    match content {
        Content::Null => out.push(TAG_NULL),
        Content::Bool(false) => out.push(TAG_FALSE),
        Content::Bool(true) => out.push(TAG_TRUE),
        Content::U64(v) => {
            out.push(TAG_U64);
            put_varint(out, *v);
        }
        Content::I64(v) => {
            out.push(TAG_I64);
            put_varint(out, ((*v << 1) ^ (*v >> 63)) as u64);
        }
        Content::F64(v) => {
            out.push(TAG_F64);
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        Content::Str(s) => {
            out.push(TAG_STR);
            put_str(out, s);
        }
        Content::Seq(items) => {
            if depth >= MAX_DEPTH {
                return Err(too_deep());
            }
            out.push(TAG_SEQ);
            put_varint(out, items.len() as u64);
            for item in items {
                encode(item, depth + 1, out)?;
            }
        }
        Content::Map(entries) => {
            if depth >= MAX_DEPTH {
                return Err(too_deep());
            }
            out.push(TAG_MAP);
            put_varint(out, entries.len() as u64);
            for (key, value) in entries {
                put_str(out, key);
                encode(value, depth + 1, out)?;
            }
        }
    }
    Ok(())
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Decode a whole body: exactly one value, no trailing bytes.
fn decode(body: &[u8]) -> Result<Content, CheckpointError> {
    let mut reader = Reader { body, pos: 0 };
    let value = reader.value(0)?;
    if reader.pos != body.len() {
        return Err(reader.corrupt(&format!(
            "{} trailing bytes after the body",
            body.len() - reader.pos
        )));
    }
    Ok(value)
}

/// A cursor over an encoded body.
struct Reader<'a> {
    body: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn corrupt(&self, what: &str) -> CheckpointError {
        CheckpointError::Corrupt(format!("{what} (body offset {})", self.pos))
    }

    fn remaining(&self) -> usize {
        self.body.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if n > self.remaining() {
            return Err(self.corrupt("body truncated"));
        }
        let bytes = &self.body[self.pos..self.pos + n];
        self.pos += n;
        Ok(bytes)
    }

    fn byte(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    fn varint(&mut self) -> Result<u64, CheckpointError> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.byte()?;
            if shift == 63 && b > 1 {
                return Err(self.corrupt("varint overflows 64 bits"));
            }
            value |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }

    /// A length prefix. Every counted item takes at least one byte, so a
    /// length beyond the remaining bytes is corrupt — checked before any
    /// allocation is sized by it.
    fn len(&mut self) -> Result<usize, CheckpointError> {
        let n = self.varint()?;
        match usize::try_from(n) {
            Ok(n) if n <= self.remaining() => Ok(n),
            _ => Err(self.corrupt(&format!(
                "length {n} exceeds the {} bytes that remain",
                self.remaining()
            ))),
        }
    }

    fn string(&mut self) -> Result<String, CheckpointError> {
        let n = self.len()?;
        let bytes = self.take(n)?;
        match std::str::from_utf8(bytes) {
            Ok(s) => Ok(s.to_owned()),
            Err(_) => Err(self.corrupt("string is not valid UTF-8")),
        }
    }

    fn value(&mut self, depth: usize) -> Result<Content, CheckpointError> {
        let tag = self.byte()?;
        Ok(match tag {
            TAG_NULL => Content::Null,
            TAG_FALSE => Content::Bool(false),
            TAG_TRUE => Content::Bool(true),
            TAG_U64 => Content::U64(self.varint()?),
            TAG_I64 => {
                let z = self.varint()?;
                Content::I64(((z >> 1) as i64) ^ -((z & 1) as i64))
            }
            TAG_F64 => {
                let mut bits = [0u8; 8];
                bits.copy_from_slice(self.take(8)?);
                Content::F64(f64::from_bits(u64::from_le_bytes(bits)))
            }
            TAG_STR => Content::Str(self.string()?),
            TAG_SEQ | TAG_MAP if depth >= MAX_DEPTH => return Err(too_deep()),
            TAG_SEQ => {
                let n = self.len()?;
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(self.value(depth + 1)?);
                }
                Content::Seq(items)
            }
            TAG_MAP => {
                let n = self.len()?;
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let key = self.string()?;
                    entries.push((key, self.value(depth + 1)?));
                }
                Content::Map(entries)
            }
            other => {
                self.pos -= 1;
                return Err(self.corrupt(&format!("unknown tag {other}")));
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::rand::rngs::StdRng;
    use proptest::rand::{Rng, SeedableRng};

    fn tmp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("jit-durable-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample_body() -> Content {
        Content::Map(vec![
            ("kind".to_string(), Content::Str("test".to_string())),
            (
                "values".to_string(),
                Content::Seq(vec![Content::U64(1), Content::U64(2)]),
            ),
        ])
    }

    fn encoded(content: &Content) -> Vec<u8> {
        let mut out = Vec::new();
        encode(content, 0, &mut out).unwrap();
        out
    }

    /// Structural equality that compares floats by their bits, so NaN
    /// payloads and the sign of zero count.
    fn same(a: &Content, b: &Content) -> bool {
        match (a, b) {
            (Content::F64(x), Content::F64(y)) => x.to_bits() == y.to_bits(),
            (Content::Seq(xs), Content::Seq(ys)) => {
                xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| same(x, y))
            }
            (Content::Map(xs), Content::Map(ys)) => {
                xs.len() == ys.len()
                    && xs
                        .iter()
                        .zip(ys)
                        .all(|((kx, x), (ky, y))| kx == ky && same(x, y))
            }
            _ => a == b,
        }
    }

    fn arbitrary_string(rng: &mut StdRng) -> String {
        const ALPHABET: &[&str] = &["", "a", "key", "é", "⋈", "\n", "\u{0}", "🦀"];
        (0..rng.gen_range(0usize..4))
            .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
            .collect()
    }

    fn arbitrary_content(rng: &mut StdRng, depth: usize) -> Content {
        let leaf_only = depth >= 4;
        match rng.gen_range(0u32..if leaf_only { 6 } else { 8 }) {
            0 => Content::Null,
            1 => Content::Bool(rng.gen()),
            2 => Content::U64(match rng.gen_range(0u32..3) {
                0 => rng.gen_range(0u64..200),
                1 => u64::MAX - rng.gen_range(0u64..3),
                _ => rng.gen(),
            }),
            3 => Content::I64(match rng.gen_range(0u32..3) {
                0 => -rng.gen_range(1i64..200),
                1 => i64::MIN + rng.gen_range(0i64..3),
                _ => rng.gen(),
            }),
            4 => Content::F64(f64::from_bits(rng.gen())),
            5 => Content::Str(arbitrary_string(rng)),
            6 => Content::Seq(
                (0..rng.gen_range(0usize..5))
                    .map(|_| arbitrary_content(rng, depth + 1))
                    .collect(),
            ),
            _ => Content::Map(
                (0..rng.gen_range(0usize..5))
                    .map(|_| (arbitrary_string(rng), arbitrary_content(rng, depth + 1)))
                    .collect(),
            ),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn codec_round_trips_arbitrary_content(seed in 0u64..u64::MAX) {
            let content = arbitrary_content(&mut StdRng::seed_from_u64(seed), 0);
            let bytes = encoded(&content);
            prop_assert_eq!(&bytes, &encoded(&content), "encoding is deterministic");
            let back = decode(&bytes).unwrap();
            prop_assert!(same(&back, &content), "{back:?} != {content:?}");
            prop_assert_eq!(encoded(&back), bytes);
        }
    }

    #[test]
    fn codec_round_trips_edge_values() {
        let content = Content::Map(vec![
            ("z".to_string(), Content::U64(u64::MAX)),
            ("a".to_string(), Content::I64(i64::MIN)),
            ("m".to_string(), Content::I64(i64::MAX)),
            (String::new(), Content::I64(-1)),
            ("neg_zero".to_string(), Content::F64(-0.0)),
            (
                "nan".to_string(),
                Content::F64(f64::from_bits(0x7ff8_dead_beef_0001)),
            ),
            ("inf".to_string(), Content::F64(f64::NEG_INFINITY)),
            ("empty_str".to_string(), Content::Str(String::new())),
            ("empty_seq".to_string(), Content::Seq(Vec::new())),
            ("empty_map".to_string(), Content::Map(Vec::new())),
            ("a".to_string(), Content::Bool(false)),
        ]);
        let back = decode(&encoded(&content)).unwrap();
        assert!(same(&back, &content), "{back:?}");
        // Map keys keep their order and their duplicates.
        let keys: Vec<&str> = back
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys[..3], ["z", "a", "m"]);
        assert_eq!(keys.last(), Some(&"a"));
    }

    #[test]
    fn small_integers_take_one_byte() {
        assert_eq!(encoded(&Content::U64(127)), [TAG_U64, 127]);
        assert_eq!(encoded(&Content::U64(128)), [TAG_U64, 0x80, 1]);
        assert_eq!(encoded(&Content::I64(-1)), [TAG_I64, 1]);
        assert_eq!(encoded(&Content::U64(u64::MAX)).len(), 11);
    }

    #[test]
    fn write_then_read_round_trips() {
        let path = tmp_path("round_trip.ckpt");
        let body = sample_body();
        let stats = write_checkpoint(&path, &body).unwrap();
        assert!(stats.bytes > 0);
        assert_eq!(stats.bytes, std::fs::metadata(&path).unwrap().len());
        assert_eq!(read_checkpoint(&path).unwrap(), body);
        let bytes = std::fs::read(&path).unwrap();
        assert!(bytes.starts_with(b"JITDSMS-CHECKPOINT v2\n"));
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = read_checkpoint(tmp_path("does-not-exist.ckpt")).unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)), "{err}");
    }

    #[test]
    fn bad_magic_is_corrupt() {
        let path = tmp_path("bad_magic.ckpt");
        std::fs::write(&path, "NOT-A-CHECKPOINT v1\n{}").unwrap();
        let err = read_checkpoint(&path).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt(_)), "{err}");
    }

    #[test]
    fn truncated_header_is_corrupt() {
        let path = tmp_path("truncated.ckpt");
        std::fs::write(&path, "JITDSMS-CHECK").unwrap();
        let err = read_checkpoint(&path).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt(_)), "{err}");
    }

    #[test]
    fn future_version_is_version_mismatch() {
        let path = tmp_path("future.ckpt");
        std::fs::write(&path, format!("{MAGIC} v999\n{{}}")).unwrap();
        let err = read_checkpoint(&path).unwrap_err();
        match err {
            CheckpointError::VersionMismatch { found, supported } => {
                assert_eq!(found, 999);
                assert_eq!(supported, FORMAT_VERSION);
            }
            other => panic!("expected VersionMismatch, got {other}"),
        }
    }

    #[test]
    fn json_v1_file_is_version_mismatch() {
        let path = tmp_path("v1.ckpt");
        std::fs::write(&path, format!("{MAGIC} v1\n{{\"pushed\": 3}}")).unwrap();
        match read_checkpoint(&path).unwrap_err() {
            CheckpointError::VersionMismatch {
                found: 1,
                supported: 2,
            } => {}
            other => panic!("expected VersionMismatch, got {other}"),
        }
    }

    #[test]
    fn corrupted_body_is_corrupt() {
        let path = tmp_path("bad_body.ckpt");
        let body = sample_body();
        write_checkpoint(&path, &body).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(bytes.len() - 3);
        std::fs::write(&path, bytes).unwrap();
        let err = read_checkpoint(&path).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt(_)), "{err}");
    }

    fn assert_corrupt(body: &[u8], needle: &str) {
        match decode(body) {
            Err(CheckpointError::Corrupt(detail)) => {
                assert!(detail.contains(needle), "`{detail}` lacks `{needle}`")
            }
            other => panic!("expected Corrupt({needle}), got {other:?}"),
        }
    }

    #[test]
    fn every_truncation_of_a_body_is_corrupt() {
        let bytes = encoded(&sample_body());
        // A cut lands either mid-value ("truncated") or right after a
        // length prefix that now outruns the body ("exceeds").
        for cut in 0..bytes.len() {
            assert!(matches!(
                decode(&bytes[..cut]),
                Err(CheckpointError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn malformed_bodies_are_corrupt() {
        assert_corrupt(&[42], "unknown tag 42");
        assert_corrupt(&[TAG_NULL, TAG_NULL], "1 trailing bytes");
        assert_corrupt(&[TAG_STR, 2, 0xc3, 0x28], "UTF-8");
        assert_corrupt(&[TAG_MAP, 1, 1, 0xff, TAG_NULL], "UTF-8");
        assert_corrupt(
            &[
                TAG_U64, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 2,
            ],
            "overflows",
        );
        assert_corrupt(&[TAG_STR, 5, b'a'], "exceeds");
    }

    #[test]
    fn length_bomb_is_corrupt_without_allocating() {
        // A sequence claiming 2^60 elements, followed by almost nothing.
        let mut bomb = vec![TAG_SEQ];
        put_varint(&mut bomb, 1 << 60);
        bomb.push(TAG_NULL);
        assert_corrupt(&bomb, "exceeds the 1 bytes that remain");
        let mut map_bomb = vec![TAG_MAP];
        put_varint(&mut map_bomb, u64::MAX);
        assert_corrupt(&map_bomb, "exceeds");
    }

    #[test]
    fn deep_nesting_is_corrupt_not_a_stack_overflow() {
        let bytes: Vec<u8> = std::iter::repeat_n([TAG_SEQ, 1], 1_000_000)
            .flatten()
            .chain([TAG_NULL])
            .collect();
        assert_corrupt(&bytes, "deeper than");
        let mut nested = Content::Null;
        for _ in 0..MAX_DEPTH {
            nested = Content::Seq(vec![nested]);
        }
        assert!(same(&decode(&encoded(&nested)).unwrap(), &nested));
        let too_deep = Content::Map(vec![("x".to_string(), nested)]);
        let err = write_checkpoint(tmp_path("too_deep.ckpt"), &too_deep).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt(_)), "{err}");
    }

    #[test]
    fn identical_bodies_write_identical_bytes() {
        let a = tmp_path("det_a.ckpt");
        let b = tmp_path("det_b.ckpt");
        write_checkpoint(&a, &sample_body()).unwrap();
        write_checkpoint(&b, &sample_body()).unwrap();
        assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
    }

    #[test]
    fn no_tmp_file_left_behind() {
        let path = tmp_path("clean.ckpt");
        write_checkpoint(&path, &sample_body()).unwrap();
        assert!(!path.with_extension("tmp").exists());
    }

    #[test]
    fn errors_display_informatively() {
        let io = CheckpointError::from(std::io::Error::new(std::io::ErrorKind::NotFound, "gone"));
        assert!(io.to_string().contains("I/O"));
        let mismatch = CheckpointError::Mismatch("expected 4 shards, found 2".to_string());
        assert!(mismatch.to_string().contains("4 shards"));
        let serde_err = CheckpointError::from(serde::Error::expected("object", "Engine"));
        assert!(serde_err.to_string().contains("malformed"));
    }
}
