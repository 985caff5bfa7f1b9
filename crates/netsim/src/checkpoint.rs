//! Deterministic snapshot encoding for checkpoint/restore.
//!
//! The simulator's state is a closed set of integers: integer-nanosecond
//! times, packet ids, queue entries ordered by `(time, key)`, xoshiro RNG
//! words, and counters. Serializing those exactly — no floats except as
//! raw IEEE-754 bits, no platform-dependent hashing or pointer order —
//! preserves the total event order, so a restored run replays the same
//! event sequence and produces byte-identical artifacts (the property the
//! engine's determinism tests already pin across shard counts).
//!
//! The container is deliberately boring:
//!
//! ```text
//! magic (8B) | version (4B) | config fingerprint (8B) | body ... | fnv1a64 checksum (8B)
//! ```
//!
//! * the **magic** rejects files that are not snapshots at all;
//! * the **version** rejects snapshots written by an incompatible layout
//!   (bumped whenever the body encoding changes);
//! * the **config fingerprint** rejects resuming into a simulator built
//!   from a different spec (shard count, mode, rates, ...) —
//!   a restore only overwrites *mutable* state, so the immutable skeleton
//!   must match;
//! * the **checksum** covers everything before it and rejects torn or
//!   corrupted files (a process SIGKILLed mid-write must never poison a
//!   later resume; writers also go through a temp-file + rename).
//!
//! All multi-byte values are little-endian. Section tags (4 ASCII bytes)
//! are sprinkled between major state blocks so a decoding bug fails fast
//! with a named location instead of silently misreading downstream bytes.

use crate::event::Event;
use crate::packet::{Packet, Payload, Segment};
use hypatia_constellation::NodeId;
use hypatia_util::hash::Fnv1a64;
use hypatia_util::{SimDuration, SimTime};
use std::fmt;
use std::path::Path;

/// First 8 bytes of every snapshot file.
pub const MAGIC: [u8; 8] = *b"HYPSNAP\0";
/// Current body-layout version. Bump on any encoding change. Version 1
/// queue images could hold coordinator events (tags 2, 4 and 5) and the
/// header carried the engine's window counts; since version 2 a queue
/// holds node events only and engine telemetry stays out of the image.
pub const VERSION: u32 = 2;

/// Why a checkpoint could not be written or read back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Filesystem failure (formatted `std::io::Error`, kept as a string so
    /// the error stays `Clone` + `PartialEq` for tests and manifests).
    Io(String),
    /// The file does not start with [`MAGIC`]: not a snapshot at all.
    BadMagic,
    /// The snapshot was written by a different body layout.
    UnsupportedVersion {
        /// Version found in the file header.
        found: u32,
        /// Version this build reads and writes.
        expected: u32,
    },
    /// The trailing FNV-1a-64 over the file contents does not match:
    /// torn write or bit rot.
    ChecksumMismatch,
    /// The snapshot was taken from a simulator built with a different
    /// configuration (shards, mode, rates, node count, ...).
    ConfigMismatch {
        /// Fingerprint found in the file header.
        found: u64,
        /// Fingerprint of the simulator attempting the restore.
        expected: u64,
    },
    /// The body decoded inconsistently (truncation, bad tag, count
    /// mismatch against the rebuilt simulator).
    Malformed(String),
    /// A component (e.g. a custom [`crate::Application`]) does not
    /// implement state capture.
    Unsupported(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            CheckpointError::UnsupportedVersion { found, expected } => {
                write!(f, "unsupported snapshot version {found} (this build reads {expected})")
            }
            CheckpointError::ChecksumMismatch => {
                write!(f, "snapshot checksum mismatch (torn write or corruption)")
            }
            CheckpointError::ConfigMismatch { found, expected } => write!(
                f,
                "snapshot was taken under a different configuration \
                 (fingerprint {found:#018x}, this run is {expected:#018x})"
            ),
            CheckpointError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
            CheckpointError::Unsupported(what) => {
                write!(f, "checkpoint unsupported: {what}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e.to_string())
    }
}

/// Append-only snapshot encoder. Construct with a config fingerprint,
/// `put_*` the body, then [`SnapWriter::write_file`] (or
/// [`SnapWriter::finish`] for in-memory use).
#[derive(Debug)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Start a snapshot: magic + version + the given config fingerprint.
    pub fn new(fingerprint: u64) -> Self {
        let mut w = SnapWriter { buf: Vec::with_capacity(4096) };
        w.buf.extend_from_slice(&MAGIC);
        w.buf.extend_from_slice(&VERSION.to_le_bytes());
        w.put_u64(fingerprint);
        w
    }

    /// Append a 4-ASCII-byte section tag (see [`SnapReader::expect_tag`]).
    pub fn put_tag(&mut self, tag: &[u8; 4]) {
        self.buf.extend_from_slice(tag);
    }

    pub fn put_u8(&mut self, x: u8) {
        self.buf.push(x);
    }

    pub fn put_bool(&mut self, x: bool) {
        self.buf.push(x as u8);
    }

    pub fn put_u16(&mut self, x: u16) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    pub fn put_u32(&mut self, x: u32) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    pub fn put_u64(&mut self, x: u64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// A `usize` count, always as 8 bytes (cross-platform layout).
    pub fn put_usize(&mut self, x: usize) {
        self.put_u64(x as u64);
    }

    /// An `f64` as its raw IEEE-754 bits: bit-exact round trip, NaN-safe.
    pub fn put_f64(&mut self, x: f64) {
        self.put_u64(x.to_bits());
    }

    pub fn put_time(&mut self, t: SimTime) {
        self.put_u64(t.nanos());
    }

    pub fn put_dur(&mut self, d: SimDuration) {
        self.put_u64(d.nanos());
    }

    /// `Option<u64>` as a presence byte + value.
    pub fn put_opt_u64(&mut self, x: Option<u64>) {
        match x {
            Some(v) => {
                self.put_bool(true);
                self.put_u64(v);
            }
            None => self.put_bool(false),
        }
    }

    pub fn put_opt_time(&mut self, t: Option<SimTime>) {
        self.put_opt_u64(t.map(SimTime::nanos));
    }

    pub fn put_opt_dur(&mut self, d: Option<SimDuration>) {
        self.put_opt_u64(d.map(SimDuration::nanos));
    }

    /// Length-prefixed raw bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_usize(bytes.len());
        self.buf.extend_from_slice(bytes);
    }

    /// A packet, field by field.
    pub fn put_packet(&mut self, p: &Packet) {
        self.put_u64(p.id);
        self.put_u32(p.src.0);
        self.put_u32(p.dst.0);
        self.put_u16(p.src_port);
        self.put_u16(p.dst_port);
        self.put_u32(p.size_bytes);
        self.put_payload(&p.payload);
        self.put_time(p.injected_at);
        self.put_u16(p.hops);
        self.put_u64(p.flow_hash);
    }

    fn put_payload(&mut self, payload: &Payload) {
        match payload {
            Payload::Ping { seq } => {
                self.put_u8(0);
                self.put_u64(*seq);
            }
            Payload::Pong { seq, ping_injected_at } => {
                self.put_u8(1);
                self.put_u64(*seq);
                self.put_time(*ping_injected_at);
            }
            Payload::Udp { flow, seq, payload_bytes } => {
                self.put_u8(2);
                self.put_u32(*flow);
                self.put_u64(*seq);
                self.put_u32(*payload_bytes);
            }
            Payload::Seg(seg) => {
                self.put_u8(3);
                self.put_u64(seg.seq);
                self.put_u32(seg.payload_bytes);
                self.put_u64(seg.ack);
                self.put_time(seg.ts);
                self.put_time(seg.ts_echo);
                self.put_bool(seg.fin);
            }
        }
    }

    /// An event, tag + fields (tags 2, 4 and 5 are retired, see [`VERSION`]).
    pub fn put_event(&mut self, e: &Event) {
        match e {
            Event::TxComplete { node, device } => {
                self.put_u8(0);
                self.put_u32(*node);
                self.put_u32(*device);
            }
            Event::Arrival { node, packet } => {
                self.put_u8(1);
                self.put_u32(*node);
                self.put_packet(packet);
            }
            Event::AppTimer { app, timer_id } => {
                self.put_u8(3);
                self.put_u32(*app);
                self.put_u64(*timer_id);
            }
        }
    }

    /// Seal the snapshot: append the FNV-1a-64 of everything so far and
    /// return the full file image.
    pub fn finish(mut self) -> Vec<u8> {
        let mut h = Fnv1a64::new();
        h.write(&self.buf);
        let sum = h.finish();
        self.buf.extend_from_slice(&sum.to_le_bytes());
        self.buf
    }

    /// Seal and write to `path` atomically: the bytes land in a sibling
    /// temp file first and are renamed into place, so a crash mid-write
    /// leaves either the previous snapshot or none — never a torn one.
    pub fn write_file(self, path: &Path) -> Result<(), CheckpointError> {
        let bytes = self.finish();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let tmp = path.with_extension("snap.tmp");
        std::fs::write(&tmp, &bytes)?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }
}

/// Snapshot decoder over an in-memory image. Validates the container
/// (magic, version, checksum, fingerprint) up front; `get_*` then decode
/// the body sequentially, failing with [`CheckpointError::Malformed`] on
/// truncation.
#[derive(Debug)]
pub struct SnapReader {
    data: Vec<u8>,
    pos: usize,
}

impl SnapReader {
    /// Read and validate the file at `path` against the expected config
    /// fingerprint. Returns a reader positioned at the start of the body.
    pub fn open(path: &Path, expected_fingerprint: u64) -> Result<Self, CheckpointError> {
        let data = std::fs::read(path)?;
        Self::from_bytes(data, expected_fingerprint)
    }

    /// Validate an in-memory snapshot image (see [`SnapReader::open`]).
    pub fn from_bytes(data: Vec<u8>, expected_fingerprint: u64) -> Result<Self, CheckpointError> {
        // Smallest valid file: magic + version + fingerprint + checksum.
        if data.len() < MAGIC.len() + 4 + 8 + 8 {
            return Err(CheckpointError::Malformed("file shorter than header".into()));
        }
        if data[..MAGIC.len()] != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        // Checksum first: a corrupted version field should read as
        // corruption, not as a bogus version.
        let body_end = data.len() - 8;
        let mut h = Fnv1a64::new();
        h.write(&data[..body_end]);
        let stored =
            u64::from_le_bytes(data[body_end..].try_into().expect("8-byte checksum slice"));
        if h.finish() != stored {
            return Err(CheckpointError::ChecksumMismatch);
        }
        let mut r = SnapReader { data, pos: MAGIC.len() };
        let version = r.get_u32()?;
        if version != VERSION {
            return Err(CheckpointError::UnsupportedVersion { found: version, expected: VERSION });
        }
        let fingerprint = r.get_u64()?;
        if fingerprint != expected_fingerprint {
            return Err(CheckpointError::ConfigMismatch {
                found: fingerprint,
                expected: expected_fingerprint,
            });
        }
        r.data.truncate(body_end);
        Ok(r)
    }

    fn take(&mut self, n: usize) -> Result<&[u8], CheckpointError> {
        if self.pos + n > self.data.len() {
            return Err(CheckpointError::Malformed(format!(
                "truncated at offset {} (need {n} more bytes)",
                self.pos
            )));
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Consume a section tag, failing with the expected/found pair when
    /// the stream has drifted out of alignment.
    pub fn expect_tag(&mut self, tag: &[u8; 4]) -> Result<(), CheckpointError> {
        let found = self.take(4)?;
        if found != tag {
            return Err(CheckpointError::Malformed(format!(
                "section tag mismatch: expected {:?}, found {:?}",
                String::from_utf8_lossy(tag),
                String::from_utf8_lossy(found),
            )));
        }
        Ok(())
    }

    pub fn get_u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    pub fn get_bool(&mut self) -> Result<bool, CheckpointError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CheckpointError::Malformed(format!("bad bool byte {b:#x}"))),
        }
    }

    pub fn get_u16(&mut self) -> Result<u16, CheckpointError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2-byte slice")))
    }

    pub fn get_u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4-byte slice")))
    }

    pub fn get_u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8-byte slice")))
    }

    pub fn get_usize(&mut self) -> Result<usize, CheckpointError> {
        Ok(self.get_u64()? as usize)
    }

    pub fn get_f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    pub fn get_time(&mut self) -> Result<SimTime, CheckpointError> {
        Ok(SimTime::from_nanos(self.get_u64()?))
    }

    pub fn get_dur(&mut self) -> Result<SimDuration, CheckpointError> {
        Ok(SimDuration::from_nanos(self.get_u64()?))
    }

    pub fn get_opt_u64(&mut self) -> Result<Option<u64>, CheckpointError> {
        Ok(if self.get_bool()? { Some(self.get_u64()?) } else { None })
    }

    pub fn get_opt_time(&mut self) -> Result<Option<SimTime>, CheckpointError> {
        Ok(self.get_opt_u64()?.map(SimTime::from_nanos))
    }

    pub fn get_opt_dur(&mut self) -> Result<Option<SimDuration>, CheckpointError> {
        Ok(self.get_opt_u64()?.map(SimDuration::from_nanos))
    }

    pub fn get_bytes(&mut self) -> Result<Vec<u8>, CheckpointError> {
        let n = self.get_usize()?;
        Ok(self.take(n)?.to_vec())
    }

    pub fn get_packet(&mut self) -> Result<Packet, CheckpointError> {
        Ok(Packet {
            id: self.get_u64()?,
            src: NodeId(self.get_u32()?),
            dst: NodeId(self.get_u32()?),
            src_port: self.get_u16()?,
            dst_port: self.get_u16()?,
            size_bytes: self.get_u32()?,
            payload: self.get_payload()?,
            injected_at: self.get_time()?,
            hops: self.get_u16()?,
            flow_hash: self.get_u64()?,
        })
    }

    fn get_payload(&mut self) -> Result<Payload, CheckpointError> {
        match self.get_u8()? {
            0 => Ok(Payload::Ping { seq: self.get_u64()? }),
            1 => Ok(Payload::Pong { seq: self.get_u64()?, ping_injected_at: self.get_time()? }),
            2 => Ok(Payload::Udp {
                flow: self.get_u32()?,
                seq: self.get_u64()?,
                payload_bytes: self.get_u32()?,
            }),
            3 => Ok(Payload::Seg(Segment {
                seq: self.get_u64()?,
                payload_bytes: self.get_u32()?,
                ack: self.get_u64()?,
                ts: self.get_time()?,
                ts_echo: self.get_time()?,
                fin: self.get_bool()?,
            })),
            t => Err(CheckpointError::Malformed(format!("bad payload tag {t}"))),
        }
    }

    pub fn get_event(&mut self) -> Result<Event, CheckpointError> {
        match self.get_u8()? {
            0 => Ok(Event::TxComplete { node: self.get_u32()?, device: self.get_u32()? }),
            1 => Ok(Event::Arrival { node: self.get_u32()?, packet: self.get_packet()? }),
            3 => Ok(Event::AppTimer { app: self.get_u32()?, timer_id: self.get_u64()? }),
            t => Err(CheckpointError::Malformed(format!("bad event tag {t}"))),
        }
    }

    /// True once the whole body has been consumed — restore asserts this
    /// so trailing garbage (or an under-read) is an error, not a shrug.
    pub fn at_end(&self) -> bool {
        self.pos == self.data.len()
    }

    /// Fail unless the body was consumed exactly.
    pub fn expect_end(&self) -> Result<(), CheckpointError> {
        if self.at_end() {
            Ok(())
        } else {
            Err(CheckpointError::Malformed(format!(
                "{} unread bytes at end of body",
                self.data.len() - self.pos
            )))
        }
    }
}

/// Re-checksum a patched image, so only the patch is wrong with it.
#[cfg(test)]
pub(crate) fn reseal(bytes: &mut [u8]) {
    let end = bytes.len() - 8;
    let mut h = Fnv1a64::new();
    h.write(&bytes[..end]);
    bytes[end..].copy_from_slice(&h.finish().to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    const FP: u64 = 0xDEAD_BEEF_0BAD_F00D;

    fn sample_packet() -> Packet {
        Packet {
            id: crate::packet::packet_id(NodeId(7), 42),
            src: NodeId(7),
            dst: NodeId(1300),
            src_port: 4096,
            dst_port: 80,
            size_bytes: 1500,
            payload: Payload::Seg(Segment {
                seq: 123_456_789,
                payload_bytes: 1380,
                ack: 99,
                ts: SimTime::from_millis(250),
                ts_echo: SimTime::from_millis(245),
                fin: true,
            }),
            injected_at: SimTime::from_millis(240),
            hops: 9,
            flow_hash: 0x1234_5678_9ABC_DEF0,
        }
    }

    #[test]
    fn primitives_round_trip() {
        let mut w = SnapWriter::new(FP);
        w.put_tag(b"TEST");
        w.put_u8(0xAB);
        w.put_bool(true);
        w.put_bool(false);
        w.put_u16(0xBEEF);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX);
        w.put_usize(12345);
        w.put_f64(-0.0);
        w.put_f64(f64::NAN);
        w.put_time(SimTime::from_secs(3));
        w.put_dur(SimDuration::from_micros(7));
        w.put_opt_u64(Some(5));
        w.put_opt_u64(None);
        w.put_opt_time(Some(SimTime::MAX));
        w.put_bytes(b"hello");
        let mut r = SnapReader::from_bytes(w.finish(), FP).expect("valid image");
        r.expect_tag(b"TEST").unwrap();
        assert_eq!(r.get_u8().unwrap(), 0xAB);
        assert!(r.get_bool().unwrap());
        assert!(!r.get_bool().unwrap());
        assert_eq!(r.get_u16().unwrap(), 0xBEEF);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_usize().unwrap(), 12345);
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.get_f64().unwrap().is_nan());
        assert_eq!(r.get_time().unwrap(), SimTime::from_secs(3));
        assert_eq!(r.get_dur().unwrap(), SimDuration::from_micros(7));
        assert_eq!(r.get_opt_u64().unwrap(), Some(5));
        assert_eq!(r.get_opt_u64().unwrap(), None);
        assert_eq!(r.get_opt_time().unwrap(), Some(SimTime::MAX));
        assert_eq!(r.get_bytes().unwrap(), b"hello");
        r.expect_end().unwrap();
    }

    #[test]
    fn packets_and_events_round_trip() {
        let events = vec![
            Event::TxComplete { node: 3, device: 1 },
            Event::Arrival { node: 99, packet: sample_packet() },
            Event::AppTimer { app: 4, timer_id: u64::MAX },
        ];
        let mut w = SnapWriter::new(FP);
        w.put_usize(events.len());
        for e in &events {
            w.put_event(e);
        }
        let payloads = [
            Payload::Ping { seq: 1 },
            Payload::Pong { seq: 1, ping_injected_at: SimTime::from_millis(3) },
            Payload::Udp { flow: 8, seq: 1000, payload_bytes: 1440 },
        ];
        for p in payloads {
            w.put_packet(&Packet { payload: p, ..sample_packet() });
        }
        let mut r = SnapReader::from_bytes(w.finish(), FP).expect("valid image");
        let n = r.get_usize().unwrap();
        let back: Vec<Event> = (0..n).map(|_| r.get_event().unwrap()).collect();
        assert_eq!(back, events);
        for p in payloads {
            assert_eq!(r.get_packet().unwrap(), Packet { payload: p, ..sample_packet() });
        }
        r.expect_end().unwrap();
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = SnapWriter::new(FP).finish();
        bytes[0] ^= 0xFF;
        reseal(&mut bytes);
        assert_eq!(SnapReader::from_bytes(bytes, FP).unwrap_err(), CheckpointError::BadMagic);
    }

    /// Both neighbours of the current layout are refused by number: the
    /// future one, and version 1, whose queue images held coordinator
    /// events this build has no variants for.
    #[test]
    fn rejects_unsupported_version() {
        assert_eq!(VERSION, 2);
        for found in [VERSION + 1, 1] {
            let mut bytes = SnapWriter::new(FP).finish();
            bytes[8..12].copy_from_slice(&found.to_le_bytes());
            reseal(&mut bytes);
            assert_eq!(
                SnapReader::from_bytes(bytes, FP).unwrap_err(),
                CheckpointError::UnsupportedVersion { found, expected: VERSION }
            );
        }
    }

    #[test]
    fn rejects_corruption_anywhere() {
        let mut w = SnapWriter::new(FP);
        for i in 0..64u64 {
            w.put_u64(i);
        }
        let clean = w.finish();
        for pos in [0, 9, 20, clean.len() / 2, clean.len() - 1] {
            let mut bytes = clean.clone();
            bytes[pos] ^= 0x01;
            let err = SnapReader::from_bytes(bytes, FP).unwrap_err();
            // Flipping the magic *and* failing the checksum both count as
            // rejection; a checksum hit must never decode.
            assert!(
                matches!(err, CheckpointError::ChecksumMismatch | CheckpointError::BadMagic),
                "flip at {pos} gave {err:?}"
            );
        }
        // Truncation is also rejected.
        let short = clean[..clean.len() - 3].to_vec();
        assert!(SnapReader::from_bytes(short, FP).is_err());
    }

    #[test]
    fn rejects_config_fingerprint_mismatch() {
        let bytes = SnapWriter::new(FP).finish();
        assert_eq!(
            SnapReader::from_bytes(bytes, FP ^ 1).unwrap_err(),
            CheckpointError::ConfigMismatch { found: FP, expected: FP ^ 1 }
        );
    }

    #[test]
    fn truncated_body_reads_are_malformed_not_panics() {
        let mut w = SnapWriter::new(FP);
        w.put_u32(7);
        let mut r = SnapReader::from_bytes(w.finish(), FP).expect("valid image");
        assert_eq!(r.get_u32().unwrap(), 7);
        assert!(matches!(r.get_u64().unwrap_err(), CheckpointError::Malformed(_)));
        // Tag misalignment names both sides.
        let mut w = SnapWriter::new(FP);
        w.put_tag(b"AAAA");
        let mut r = SnapReader::from_bytes(w.finish(), FP).expect("valid image");
        let err = r.expect_tag(b"BBBB").unwrap_err();
        assert!(matches!(err, CheckpointError::Malformed(ref m) if m.contains("BBBB")), "{err}");
    }

    #[test]
    fn expect_end_flags_unread_bytes() {
        let mut w = SnapWriter::new(FP);
        w.put_u64(1);
        let r = SnapReader::from_bytes(w.finish(), FP).expect("valid image");
        assert!(!r.at_end());
        assert!(matches!(r.expect_end().unwrap_err(), CheckpointError::Malformed(_)));
    }

    #[test]
    fn write_file_is_atomic_and_reopens() {
        let dir = std::env::temp_dir().join("hypatia-checkpoint-test");
        let path = dir.join("nested").join("t.snap");
        let mut w = SnapWriter::new(FP);
        w.put_u64(0x5EED);
        w.write_file(&path).expect("write snapshot");
        assert!(!path.with_extension("snap.tmp").exists(), "temp file renamed away");
        let mut r = SnapReader::open(&path, FP).expect("reopen");
        assert_eq!(r.get_u64().unwrap(), 0x5EED);
        r.expect_end().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_io_error() {
        let path = std::env::temp_dir().join("hypatia-checkpoint-no-such-file.snap");
        assert!(matches!(SnapReader::open(&path, FP).unwrap_err(), CheckpointError::Io(_)));
    }
}
