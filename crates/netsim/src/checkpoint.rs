//! Deterministic snapshot encoding for checkpoint/restore.
//!
//! The simulator's state is a closed set of integers: integer-nanosecond
//! times, packet ids, queue entries ordered by `(time, key)`, xoshiro RNG
//! words, and counters. Serializing those exactly — no floats except as
//! raw IEEE-754 bits, no platform-dependent hashing or pointer order —
//! preserves the total event order, so a restored run replays the same
//! event sequence and produces byte-identical artifacts (the property the
//! engine's resume tests pin).
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
//!   from a different spec (mode, rates, node count, ...) —
//!   a restore only overwrites *mutable* state, so the immutable skeleton
//!   must match;
//! * the **checksum** covers everything before it and rejects torn or
//!   corrupted files (a process SIGKILLed mid-write must never poison a
//!   later resume; writers also go through a temp-file + rename).
//!
//! All multi-byte values are little-endian. Section tags (4 ASCII bytes)
//! are sprinkled between major state blocks so a decoding bug fails fast
//! with a named location instead of silently misreading downstream bytes.
//!
//! The body is written through one trait, [`Snap`]: `put` appends a
//! value's bytes, `restore` reads them back over a value the caller
//! rebuilt from the same configuration. A `usize` is always 8 bytes, an
//! `f64` its raw bits, an `Option` a presence byte then the value, a `Vec`
//! its length then its items, and a slice the same bytes restored in place
//! behind one length check. A struct's image is its fields' images in the
//! order [`snap_fields!`](crate::snap_fields) lists them; the fields it
//! names as rebuilt come from configuration and are not stored. The
//! readers and writers themselves only frame the body: header, tags,
//! checksum, end-of-body check and file I/O.

use crate::event::Event;
use crate::packet::{Packet, Payload, Segment};
use crate::trace::{TraceEntry, TraceKind};
use hypatia_constellation::NodeId;
use hypatia_util::hash::Fnv1a64;
use hypatia_util::rng::DetRng;
use hypatia_util::{DataRate, SimDuration, SimTime};
use std::collections::BTreeMap;
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
    /// configuration (mode, rates, node count, ...).
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
/// [`Snap::put`] the body, then [`SnapWriter::write_file`] (or
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
        (VERSION, fingerprint).put(&mut w);
        w
    }

    /// Append a 4-ASCII-byte section tag (see [`SnapReader::expect_tag`]).
    pub fn put_tag(&mut self, tag: &[u8; 4]) {
        self.buf.extend_from_slice(tag);
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
/// (magic, version, checksum, fingerprint) up front; [`Snap::restore`]
/// and [`SnapReader::get`] then decode the body sequentially, failing with
/// [`CheckpointError::Malformed`] on truncation.
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
        let version: u32 = r.get()?;
        if version != VERSION {
            return Err(CheckpointError::UnsupportedVersion { found: version, expected: VERSION });
        }
        let fingerprint: u64 = r.get()?;
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
        if n > self.data.len() - self.pos {
            return Err(CheckpointError::Malformed(format!(
                "truncated at offset {} (need {n} more bytes)",
                self.pos
            )));
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Decode a fresh `T` (its default, restored over).
    pub fn get<T: Snap + Default>(&mut self) -> Result<T, CheckpointError> {
        let mut x = T::default();
        x.restore(self)?;
        Ok(x)
    }

    /// Consume an item count, failing unless it equals the rebuilt
    /// value's `len` (`what` names the items in the error).
    pub fn expect_len(
        &mut self,
        len: usize,
        what: impl fmt::Display,
    ) -> Result<(), CheckpointError> {
        match self.get::<usize>()? {
            n if n == len => Ok(()),
            n => Err(CheckpointError::Malformed(format!(
                "snapshot has {n} {what}, rebuilt has {len}"
            ))),
        }
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

    /// Fail unless the body was consumed exactly — trailing garbage (or an
    /// under-read) is an error, not a shrug.
    pub fn expect_end(&self) -> Result<(), CheckpointError> {
        match self.data.len() - self.pos {
            0 => Ok(()),
            n => Err(CheckpointError::Malformed(format!("{n} unread bytes at end of body"))),
        }
    }
}

/// A value with a place in a snapshot image.
///
/// `put` appends the value's bytes; `restore` reads the same bytes back
/// over `self`, which the caller rebuilt from the same configuration — so
/// a restore can keep what the image does not carry, and cross-check what
/// it does. Structs implement it with [`snap_fields!`](crate::snap_fields).
pub trait Snap {
    /// Append this value's image.
    fn put(&self, w: &mut SnapWriter);
    /// Read this value's image back over `self`.
    fn restore(&mut self, r: &mut SnapReader) -> Result<(), CheckpointError>;
}

/// Implement [`Snap`] for a struct as the concatenation of its fields'
/// images, in the order listed. Fields the caller rebuilds from
/// configuration (never saved) are named after `rebuilt`. The struct is
/// destructured without `..`, so a field in neither list is a compile
/// error, not a silently lost piece of state. A field written `name[..]`
/// is restored as a slice: in place, behind a check that the image holds
/// as many items as the rebuilt value. A trailing `check f` calls
/// `f(&value) -> Result<(), CheckpointError>` once the fields are
/// restored, to validate what came from the file against the rebuilt
/// fields or a range.
///
/// ```
/// use hypatia_netsim::snap_fields;
///
/// struct Counter {
///     limit: u64,
///     hits: u64,
///     per_flow: Vec<u32>,
/// }
/// snap_fields!(Counter { hits, per_flow[..] } rebuilt { limit });
/// ```
///
/// A field that is neither listed nor rebuilt does not compile:
///
/// ```compile_fail,E0027
/// use hypatia_netsim::snap_fields;
///
/// struct Counter {
///     limit: u64,
///     hits: u64,
///     misses: u64,
/// }
/// snap_fields!(Counter { hits } rebuilt { limit });
/// ```
#[macro_export]
macro_rules! snap_fields {
    ($ty:ident { $($f:ident $([$all:tt])?),* $(,)? }
     $(rebuilt { $($skip:ident),* $(,)? })?
     $(check $check:expr)?) => {
        impl $crate::checkpoint::Snap for $ty {
            fn put(&self, w: &mut $crate::checkpoint::SnapWriter) {
                let $ty { $($f,)* $($($skip: _,)*)? } = self;
                $($crate::checkpoint::Snap::put(&(*$f)$([$all])?, w);)*
            }
            fn restore(
                &mut self,
                r: &mut $crate::checkpoint::SnapReader,
            ) -> ::std::result::Result<(), $crate::checkpoint::CheckpointError> {
                let $ty { $($f,)* $($($skip: _,)*)? } = self;
                $($crate::checkpoint::Snap::restore(&mut (*$f)$([$all])?, r)?;)*
                $(($check)(&*self)?;)?
                Ok(())
            }
        }
    };
}

macro_rules! snap_le {
    ($($t:ty),*) => {$(
        impl Snap for $t {
            fn put(&self, w: &mut SnapWriter) {
                w.buf.extend_from_slice(&self.to_le_bytes());
            }
            fn restore(&mut self, r: &mut SnapReader) -> Result<(), CheckpointError> {
                let bytes = r.take(std::mem::size_of::<$t>())?;
                *self = <$t>::from_le_bytes(bytes.try_into().expect("sized slice"));
                Ok(())
            }
        }
    )*};
}
snap_le!(u8, u16, u32, u64);

/// Values stored as another [`Snap`] type: `$repr` is the stored form of
/// `self`, `$back` rebuilds the value from a decoded `x`.
macro_rules! snap_as {
    ($($t:ty => $stored:ty, |$s:ident| $repr:expr, |$x:ident| $back:expr;)*) => {$(
        impl Snap for $t {
            fn put(&self, w: &mut SnapWriter) {
                let $s = self;
                <$stored as Snap>::put(&$repr, w);
            }
            fn restore(&mut self, r: &mut SnapReader) -> Result<(), CheckpointError> {
                let $x: $stored = r.get()?;
                *self = $back;
                Ok(())
            }
        }
    )*};
}
snap_as! {
    usize => u64, |s| *s as u64, |x| x as usize;
    f64 => u64, |s| s.to_bits(), |x| f64::from_bits(x);
    SimTime => u64, |s| s.nanos(), |x| SimTime::from_nanos(x);
    SimDuration => u64, |s| s.nanos(), |x| SimDuration::from_nanos(x);
    DataRate => u64, |s| s.bps(), |x| DataRate::from_bps(x);
    NodeId => u32, |s| s.0, |x| NodeId(x);
    DetRng => (u64, u64, u64, u64), |s| { let [a, b, c, d] = s.state(); (a, b, c, d) },
        |x| DetRng::from_state([x.0, x.1, x.2, x.3]);
}

impl Snap for bool {
    fn put(&self, w: &mut SnapWriter) {
        (*self as u8).put(w);
    }
    fn restore(&mut self, r: &mut SnapReader) -> Result<(), CheckpointError> {
        *self = match r.get::<u8>()? {
            0 => false,
            1 => true,
            b => return Err(CheckpointError::Malformed(format!("bad bool byte {b:#x}"))),
        };
        Ok(())
    }
}

/// A presence byte, then the value if present.
impl<T: Snap + Default> Snap for Option<T> {
    fn put(&self, w: &mut SnapWriter) {
        self.is_some().put(w);
        if let Some(x) = self {
            x.put(w);
        }
    }
    fn restore(&mut self, r: &mut SnapReader) -> Result<(), CheckpointError> {
        *self = if r.get()? { Some(r.get()?) } else { None };
        Ok(())
    }
}

/// The item count (8 bytes), then the items; restored in place, so the
/// image must hold exactly as many items as the rebuilt slice.
impl<T: Snap> Snap for [T] {
    fn put(&self, w: &mut SnapWriter) {
        self.len().put(w);
        self.iter().for_each(|x| x.put(w));
    }
    fn restore(&mut self, r: &mut SnapReader) -> Result<(), CheckpointError> {
        r.expect_len(self.len(), std::any::type_name::<T>())?;
        self.iter_mut().try_for_each(|x| x.restore(r))
    }
}

/// The slice image; restoring replaces the contents, whatever their count.
impl<T: Snap + Default> Snap for Vec<T> {
    fn put(&self, w: &mut SnapWriter) {
        self[..].put(w);
    }
    fn restore(&mut self, r: &mut SnapReader) -> Result<(), CheckpointError> {
        let n: usize = r.get()?;
        self.clear();
        for _ in 0..n {
            self.push(r.get()?);
        }
        Ok(())
    }
}

/// The entry count, then the `(key, value)` pairs in key order; restoring
/// replaces the contents.
impl<K: Snap + Default + Ord, V: Snap + Default> Snap for BTreeMap<K, V> {
    fn put(&self, w: &mut SnapWriter) {
        self.len().put(w);
        for (k, v) in self {
            k.put(w);
            v.put(w);
        }
    }
    fn restore(&mut self, r: &mut SnapReader) -> Result<(), CheckpointError> {
        let n: usize = r.get()?;
        self.clear();
        for _ in 0..n {
            let (k, v) = r.get()?;
            self.insert(k, v);
        }
        Ok(())
    }
}

impl<T: Snap + ?Sized> Snap for Box<T> {
    fn put(&self, w: &mut SnapWriter) {
        (**self).put(w);
    }
    fn restore(&mut self, r: &mut SnapReader) -> Result<(), CheckpointError> {
        (**self).restore(r)
    }
}

macro_rules! snap_tuple {
    ($(($($t:ident . $i:tt),*))*) => {$(
        impl<$($t: Snap),*> Snap for ($($t,)*) {
            fn put(&self, w: &mut SnapWriter) {
                $(self.$i.put(w);)*
            }
            fn restore(&mut self, r: &mut SnapReader) -> Result<(), CheckpointError> {
                $(self.$i.restore(r)?;)*
                Ok(())
            }
        }
    )*};
}
snap_tuple!((A.0, B.1)(A.0, B.1, C.2)(A.0, B.1, C.2, D.3));

snap_fields!(Packet {
    id,
    src,
    dst,
    src_port,
    dst_port,
    size_bytes,
    payload,
    injected_at,
    hops,
    flow_hash,
});
snap_fields!(Segment { seq, payload_bytes, ack, ts, ts_echo, fin });
snap_fields!(TraceEntry { t, node, packet_id, kind });

fn bad_tag<T>(what: &str, tag: u8) -> Result<T, CheckpointError> {
    Err(CheckpointError::Malformed(format!("bad {what} tag {tag}")))
}

/// A tag byte, then the variant's fields.
impl Snap for Payload {
    fn put(&self, w: &mut SnapWriter) {
        match *self {
            Payload::Ping { seq } => (0u8, seq).put(w),
            Payload::Pong { seq, ping_injected_at } => (1u8, seq, ping_injected_at).put(w),
            Payload::Udp { flow, seq, payload_bytes } => (2u8, flow, seq, payload_bytes).put(w),
            Payload::Seg(seg) => (3u8, seg).put(w),
        }
    }
    fn restore(&mut self, r: &mut SnapReader) -> Result<(), CheckpointError> {
        *self = match r.get()? {
            0 => Payload::Ping { seq: r.get()? },
            1 => Payload::Pong { seq: r.get()?, ping_injected_at: r.get()? },
            2 => Payload::Udp { flow: r.get()?, seq: r.get()?, payload_bytes: r.get()? },
            3 => Payload::Seg(r.get()?),
            t => return bad_tag("payload", t),
        };
        Ok(())
    }
}

/// A tag byte, then the variant's fields (tags 2, 4 and 5 are retired, see
/// [`VERSION`]).
impl Snap for Event {
    fn put(&self, w: &mut SnapWriter) {
        match *self {
            Event::TxComplete { node, device } => (0u8, node, device).put(w),
            Event::Arrival { node, packet } => (1u8, node, packet).put(w),
            Event::AppTimer { app, timer_id } => (3u8, app, timer_id).put(w),
        }
    }
    fn restore(&mut self, r: &mut SnapReader) -> Result<(), CheckpointError> {
        *self = match r.get()? {
            0 => Event::TxComplete { node: r.get()?, device: r.get()? },
            1 => Event::Arrival { node: r.get()?, packet: r.get()? },
            3 => Event::AppTimer { app: r.get()?, timer_id: r.get()? },
            t => return bad_tag("event", t),
        };
        Ok(())
    }
}

/// The kind's tag byte (its discriminant).
impl Snap for TraceKind {
    fn put(&self, w: &mut SnapWriter) {
        (*self as u8).put(w);
    }
    fn restore(&mut self, r: &mut SnapReader) -> Result<(), CheckpointError> {
        let tag: u8 = r.get()?;
        match TraceKind::ALL.into_iter().find(|&k| k as u8 == tag) {
            Some(kind) => *self = kind,
            None => return bad_tag("trace kind", tag),
        }
        Ok(())
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

    /// Decode `T` from a body holding exactly its image.
    fn round_trip<T: Snap + Default>(x: &T) -> T {
        let mut w = SnapWriter::new(FP);
        x.put(&mut w);
        let mut r = SnapReader::from_bytes(w.finish(), FP).expect("valid image");
        let back = r.get().expect("decodes");
        r.expect_end().unwrap();
        back
    }

    /// The body bytes `x` writes.
    fn body<T: Snap + ?Sized>(x: &T) -> Vec<u8> {
        let mut w = SnapWriter::new(FP);
        x.put(&mut w);
        w.buf[MAGIC.len() + 12..].to_vec()
    }

    #[test]
    fn primitives_round_trip() {
        assert_eq!(round_trip(&0xABu8), 0xAB);
        assert!(round_trip(&true) && !round_trip(&false));
        assert_eq!(round_trip(&0xBEEFu16), 0xBEEF);
        assert_eq!(round_trip(&0xDEAD_BEEFu32), 0xDEAD_BEEF);
        assert_eq!(round_trip(&u64::MAX), u64::MAX);
        assert_eq!(round_trip(&12345usize), 12345);
        assert_eq!(round_trip(&-0.0f64).to_bits(), (-0.0f64).to_bits());
        assert!(round_trip(&f64::NAN).is_nan());
        assert_eq!(round_trip(&SimTime::from_secs(3)), SimTime::from_secs(3));
        assert_eq!(round_trip(&SimDuration::from_micros(7)), SimDuration::from_micros(7));
        assert_eq!(round_trip(&Some(5u64)), Some(5));
        assert_eq!(round_trip(&None::<u64>), None);
        assert_eq!(round_trip(&Some(SimTime::MAX)), Some(SimTime::MAX));
        assert_eq!(round_trip(&vec![(NodeId(4), 9u16)]), vec![(NodeId(4), 9)]);
        let map = BTreeMap::from([(3u64, 1u32), (1, 2)]);
        assert_eq!(round_trip(&map), map);
        let mut rngs = [DetRng::new(5), DetRng::new(6)];
        rngs[0].next_u64();
        let mut w = SnapWriter::new(FP);
        rngs[..].put(&mut w);
        let mut back = [DetRng::new(0), DetRng::new(0)];
        back[..].restore(&mut SnapReader::from_bytes(w.finish(), FP).unwrap()).unwrap();
        assert_eq!(back.map(|r| r.state()), rngs.map(|r| r.state()));
        for kind in TraceKind::ALL {
            assert_eq!(round_trip(&kind), kind);
        }
    }

    /// The layout every image is made of: little-endian integers, 8-byte
    /// counts, a presence byte before an option's value, fields in order.
    #[test]
    fn encodings_are_the_documented_bytes() {
        assert_eq!(body(&0x0102u16), [2, 1]);
        assert_eq!(body(&3usize), [3, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(body(&Some(7u8)), [1, 7]);
        assert_eq!(body(&None::<u8>), [0]);
        assert_eq!(body(&vec![true, false]), [2, 0, 0, 0, 0, 0, 0, 0, 1, 0]);
        assert_eq!(body(&[5u8][..]), body(&vec![5u8]));
        assert_eq!(body(&(1u8, 2u16)), [1, 2, 0]);
        assert_eq!(body(&1.5f64), 1.5f64.to_bits().to_le_bytes());
        assert_eq!(body(&TraceKind::FluidResolve), [7]);
    }

    #[test]
    fn bad_bytes_are_malformed() {
        let mut w = SnapWriter::new(FP);
        [2u8, 8, 9].iter().for_each(|b| b.put(&mut w));
        let mut r = SnapReader::from_bytes(w.finish(), FP).unwrap();
        let errs = [r.get::<bool>().err(), r.get::<TraceKind>().err(), r.get::<Payload>().err()];
        for err in errs {
            assert!(matches!(err, Some(CheckpointError::Malformed(_))), "{err:?}");
        }
    }

    /// A slice restores in place and only at its rebuilt length; a `Vec`
    /// takes whatever count the image holds.
    #[test]
    fn slices_restore_in_place_behind_a_length_check() {
        let mut w = SnapWriter::new(FP);
        vec![1u32, 2, 3].put(&mut w);
        let image = w.finish();
        let mut fixed = [0u32; 3];
        let mut r = SnapReader::from_bytes(image.clone(), FP).unwrap();
        fixed[..].restore(&mut r).unwrap();
        assert_eq!(fixed, [1, 2, 3]);
        let mut short = [0u32; 2];
        let mut r = SnapReader::from_bytes(image.clone(), FP).unwrap();
        let err = short[..].restore(&mut r).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Malformed(ref m) if m.contains("has 3 u32")),
            "{err}"
        );
        let mut grown = vec![9u32];
        let mut r = SnapReader::from_bytes(image, FP).unwrap();
        grown.restore(&mut r).unwrap();
        assert_eq!(grown, [1, 2, 3]);
    }

    struct Probe {
        config: u64,
        hits: u64,
        seen: Vec<u16>,
        slots: Vec<u8>,
    }
    snap_fields!(Probe { seen, hits, slots[..] } rebuilt { config } check |p: &Probe| {
        match p.hits {
            0..=99 => Ok(()),
            h => Err(CheckpointError::Malformed(format!("{h} hits"))),
        }
    });

    /// `snap_fields!` writes the listed fields in list order, leaves the
    /// rebuilt ones alone, and runs the check on the restored value.
    #[test]
    fn snap_fields_writes_listed_fields_in_order_and_keeps_rebuilt_ones() {
        let probe = Probe { config: 1, hits: 42, seen: vec![7], slots: vec![1, 2] };
        let mut expected = body(&probe.seen);
        expected.extend(body(&probe.hits));
        expected.extend(body(&probe.slots));
        assert_eq!(body(&probe), expected);

        let mut w = SnapWriter::new(FP);
        probe.put(&mut w);
        let image = w.finish();
        let mut back = Probe { config: 9, hits: 0, seen: vec![], slots: vec![0, 0] };
        back.restore(&mut SnapReader::from_bytes(image.clone(), FP).unwrap()).unwrap();
        assert_eq!(
            (back.config, back.hits, &back.seen[..], &back.slots[..]),
            (9, 42, &[7][..], &[1, 2][..])
        );
        let mut narrow = Probe { slots: vec![0], ..back };
        let err = narrow.restore(&mut SnapReader::from_bytes(image, FP).unwrap()).unwrap_err();
        assert!(matches!(err, CheckpointError::Malformed(_)), "{err}");

        let loud = Probe { config: 1, hits: 100, seen: vec![], slots: vec![] };
        let mut w = SnapWriter::new(FP);
        loud.put(&mut w);
        let mut back = Probe { slots: vec![], ..loud };
        let err = back.restore(&mut SnapReader::from_bytes(w.finish(), FP).unwrap()).unwrap_err();
        assert_eq!(err, CheckpointError::Malformed("100 hits".into()));
    }

    #[test]
    fn packets_and_events_round_trip() {
        let events = vec![
            Event::TxComplete { node: 3, device: 1 },
            Event::Arrival { node: 99, packet: sample_packet() },
            Event::AppTimer { app: 4, timer_id: u64::MAX },
        ];
        let mut w = SnapWriter::new(FP);
        events.len().put(&mut w);
        events.iter().for_each(|e| e.put(&mut w));
        let payloads = [
            Payload::Ping { seq: 1 },
            Payload::Pong { seq: 1, ping_injected_at: SimTime::from_millis(3) },
            Payload::Udp { flow: 8, seq: 1000, payload_bytes: 1440 },
        ];
        for p in payloads {
            Packet { payload: p, ..sample_packet() }.put(&mut w);
        }
        let mut r = SnapReader::from_bytes(w.finish(), FP).expect("valid image");
        let n: usize = r.get().unwrap();
        let mut back = vec![Event::AppTimer { app: 0, timer_id: 0 }; n];
        back.iter_mut().for_each(|e| e.restore(&mut r).unwrap());
        assert_eq!(back, events);
        for p in payloads {
            assert_eq!(r.get::<Packet>().unwrap(), Packet { payload: p, ..sample_packet() });
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
        (0..64u64).collect::<Vec<_>>().put(&mut w);
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
        7u32.put(&mut w);
        let mut r = SnapReader::from_bytes(w.finish(), FP).expect("valid image");
        assert_eq!(r.get::<u32>().unwrap(), 7);
        assert!(matches!(r.get::<u64>().unwrap_err(), CheckpointError::Malformed(_)));
        // A count read from the file cannot overrun the body, however large.
        let mut w = SnapWriter::new(FP);
        u64::MAX.put(&mut w);
        let mut r = SnapReader::from_bytes(w.finish(), FP).expect("valid image");
        assert!(matches!(r.get::<Vec<u8>>().unwrap_err(), CheckpointError::Malformed(_)));
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
        1u64.put(&mut w);
        let r = SnapReader::from_bytes(w.finish(), FP).expect("valid image");
        assert!(matches!(r.expect_end().unwrap_err(), CheckpointError::Malformed(_)));
    }

    #[test]
    fn write_file_is_atomic_and_reopens() {
        let dir = std::env::temp_dir().join("hypatia-checkpoint-test");
        let path = dir.join("nested").join("t.snap");
        let mut w = SnapWriter::new(FP);
        0x5EEDu64.put(&mut w);
        w.write_file(&path).expect("write snapshot");
        assert!(!path.with_extension("snap.tmp").exists(), "temp file renamed away");
        let mut r = SnapReader::open(&path, FP).expect("reopen");
        assert_eq!(r.get::<u64>().unwrap(), 0x5EED);
        r.expect_end().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_io_error() {
        let path = std::env::temp_dir().join("hypatia-checkpoint-no-such-file.snap");
        assert!(matches!(SnapReader::open(&path, FP).unwrap_err(), CheckpointError::Io(_)));
    }
}
