//! The binary codec: a self-describing, zero-external-dependency
//! serialization format for compilation artifacts.
//!
//! Every artifact file is a *container*:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"ZZAR"
//! 4       4     schema version (u32 LE) — [`SCHEMA_VERSION`]
//! 8       4     artifact kind tag (u32 LE) — [`ArtifactKind`]
//! 12      8     payload length (u64 LE)
//! 20      8     FNV-1a 64 checksum of the payload (u64 LE)
//! 28      n     payload — the [`Encode`]d value
//! ```
//!
//! The payload encoding is deliberately simple: little-endian fixed-width
//! integers, `u64`-length-prefixed sequences, and `f64` stored as its exact
//! IEEE-754 bit pattern ([`f64::to_bits`]) so round-trips are bit-identical
//! even for NaN payloads, signed zeros and denormals.
//!
//! Decoding never panics on malformed input: every read is bounds-checked
//! and returns a [`DecodeError`], which cache layers treat as a miss.

use std::fmt;

/// Version stamp of the artifact schema. Bump whenever the meaning of any
/// persisted key or payload changes ([`crate::store::ArtifactStore`] treats
/// files with any other version as cache misses, never errors).
pub const SCHEMA_VERSION: u32 = 1;

/// Magic bytes opening every artifact container.
pub const MAGIC: [u8; 4] = *b"ZZAR";

/// Size of the fixed container header preceding the payload.
pub const HEADER_LEN: usize = 28;

/// What an artifact file contains (stored in the container header so a file
/// can never be decoded as the wrong type).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ArtifactKind {
    /// A routed + native-translated circuit with its source
    /// (`((Circuit, Topology), NativeCircuit)`). No library code reads or
    /// writes it; it stays because zzperf's traced replay
    /// (`zzperf/src/replay.rs`) still writes one to time a store write.
    Native,
    /// A fully compiled plan (`zz_core`'s `Compiled`).
    Compiled,
    /// A `zz_net` request envelope (one frame of the wire protocol; never
    /// stored on disk, but stamped with the same magic/version/checksum
    /// container so damaged frames fail typed).
    NetRequest,
    /// A `zz_net` response envelope (the reply frame of the wire
    /// protocol).
    NetResponse,
    /// A `zz_obs` metrics snapshot (the `Stats` endpoint's payload, also
    /// persistable for offline diffing of two scrapes).
    Metrics,
}

impl ArtifactKind {
    /// Stable on-disk tag of the kind (part of the container header).
    /// Tags 1 (a per-method residual table) and 4 (a whole-cache
    /// calibration snapshot) are retired and never reused.
    pub fn tag(self) -> u32 {
        match self {
            ArtifactKind::Native => 2,
            ArtifactKind::Compiled => 3,
            ArtifactKind::NetRequest => 5,
            ArtifactKind::NetResponse => 6,
            ArtifactKind::Metrics => 7,
        }
    }

    /// Subdirectory of the cache root holding this kind of artifact.
    pub fn dir_name(self) -> &'static str {
        match self {
            ArtifactKind::Native => "native",
            ArtifactKind::Compiled => "compiled",
            ArtifactKind::NetRequest => "net-request",
            ArtifactKind::NetResponse => "net-response",
            ArtifactKind::Metrics => "metrics",
        }
    }
}

/// Why a byte stream failed to decode. Cache layers map every variant to a
/// miss; the distinctions exist for tests and diagnostics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before the value was complete.
    UnexpectedEof,
    /// The container does not start with [`MAGIC`].
    BadMagic,
    /// The container was written under a different [`SCHEMA_VERSION`].
    VersionMismatch {
        /// The version found in the header.
        found: u32,
    },
    /// The header's kind tag differs from the requested [`ArtifactKind`].
    KindMismatch {
        /// The kind tag found in the header.
        found: u32,
    },
    /// The payload does not match the header's checksum (truncation or
    /// corruption).
    ChecksumMismatch,
    /// The payload decoded structurally but violated a type invariant
    /// (e.g. a qubit index out of range).
    Invalid(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEof => write!(f, "input truncated"),
            DecodeError::BadMagic => write!(f, "bad magic bytes"),
            DecodeError::VersionMismatch { found } => {
                write!(f, "schema version {found} (expected {SCHEMA_VERSION})")
            }
            DecodeError::KindMismatch { found } => {
                write!(f, "artifact kind tag {found} does not match the request")
            }
            DecodeError::ChecksumMismatch => write!(f, "payload checksum mismatch"),
            DecodeError::Invalid(what) => write!(f, "invalid payload: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// FNV-1a 64-bit hash of a byte slice — the container checksum, and the
/// workspace's shared key-mixing primitive.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = fnv1a_mix(h, b as u64);
    }
    h
}

/// One FNV-1a mixing step over a 64-bit word. Every cache-key derivation
/// in the workspace (`Circuit::content_digest`, `zz_core::pipeline::shape_key`,
/// `zz_core::persist::compiled_artifact_key`) folds words through this one
/// function, so the key families can never drift apart.
pub fn fnv1a_mix(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Accumulates an encoded payload.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Starts an empty payload.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64` (portable across word sizes).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends an `f64` as its exact IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// The encoded payload bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// A bounds-checked cursor over an encoded payload.
#[derive(Debug)]
pub struct Decoder<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Starts reading at the front of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Decoder { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::UnexpectedEof);
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `u64` and converts it to `usize`, rejecting values that do
    /// not fit the platform word.
    pub fn usize(&mut self) -> Result<usize, DecodeError> {
        usize::try_from(self.u64()?).map_err(|_| DecodeError::Invalid("usize overflow"))
    }

    /// Reads a sequence length and sanity-checks it against the bytes left:
    /// each element needs at least `min_element_size` bytes, so a corrupted
    /// length can never trigger a huge allocation.
    pub fn seq_len(&mut self, min_element_size: usize) -> Result<usize, DecodeError> {
        let len = self.usize()?;
        if len > self.remaining() / min_element_size.max(1) {
            return Err(DecodeError::UnexpectedEof);
        }
        Ok(len)
    }

    /// Reads an exact IEEE-754 `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a bool, rejecting anything but 0 or 1.
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::Invalid("bool byte")),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, DecodeError> {
        let len = self.seq_len(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::Invalid("utf-8"))
    }

    /// Asserts the payload was fully consumed (trailing garbage is treated
    /// as corruption).
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DecodeError::Invalid("trailing bytes"))
        }
    }
}

/// A value that can be written to the artifact codec.
pub trait Encode {
    /// Appends this value's payload encoding.
    fn encode(&self, out: &mut Encoder);
}

/// A value that can be read back from the artifact codec.
pub trait Decode: Sized {
    /// Reads one value, validating type invariants.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncated, malformed or invariant-
    /// violating input; implementations never panic on bad bytes.
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError>;
}

impl<T: Encode + ?Sized> Encode for &T {
    fn encode(&self, out: &mut Encoder) {
        (**self).encode(out);
    }
}

/// Wraps an encoded value in a versioned, checksummed container.
pub fn encode_artifact<T: Encode + ?Sized>(kind: ArtifactKind, value: &T) -> Vec<u8> {
    let mut enc = Encoder::new();
    value.encode(&mut enc);
    let payload = enc.finish();
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&SCHEMA_VERSION.to_le_bytes());
    out.extend_from_slice(&kind.tag().to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Opens a container, verifies magic/version/kind/length/checksum, and
/// decodes the payload as `T`, requiring full consumption.
///
/// # Errors
///
/// Returns the first [`DecodeError`] encountered; callers that use this as
/// a cache read treat any error as a miss.
pub fn decode_artifact<T: Decode>(kind: ArtifactKind, bytes: &[u8]) -> Result<T, DecodeError> {
    let mut r = Decoder::new(bytes);
    let magic = [r.u8()?, r.u8()?, r.u8()?, r.u8()?];
    if magic != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = r.u32()?;
    if version != SCHEMA_VERSION {
        return Err(DecodeError::VersionMismatch { found: version });
    }
    let tag = r.u32()?;
    if tag != kind.tag() {
        return Err(DecodeError::KindMismatch { found: tag });
    }
    let len = r.usize()?;
    if len != r.remaining().saturating_sub(8) {
        return Err(DecodeError::ChecksumMismatch);
    }
    let checksum = r.u64()?;
    if fnv1a(&bytes[HEADER_LEN..]) != checksum {
        return Err(DecodeError::ChecksumMismatch);
    }
    let value = T::decode(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// Round-trips a value through the payload codec (no container); test and
/// diagnostic helper.
pub fn roundtrip<T: Encode + Decode>(value: &T) -> Result<T, DecodeError> {
    let mut enc = Encoder::new();
    value.encode(&mut enc);
    let bytes = enc.finish();
    let mut dec = Decoder::new(&bytes);
    let out = T::decode(&mut dec)?;
    dec.finish()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut enc = Encoder::new();
        enc.u8(7);
        enc.u32(0xdead_beef);
        enc.u64(u64::MAX);
        enc.usize(12);
        enc.f64(-0.0);
        enc.bool(true);
        enc.str("grid-3x4");
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.u8().unwrap(), 7);
        assert_eq!(dec.u32().unwrap(), 0xdead_beef);
        assert_eq!(dec.u64().unwrap(), u64::MAX);
        assert_eq!(dec.usize().unwrap(), 12);
        assert_eq!(dec.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(dec.bool().unwrap());
        assert_eq!(dec.str().unwrap(), "grid-3x4");
        dec.finish().unwrap();
    }

    #[test]
    fn truncated_reads_are_eof_not_panics() {
        let mut dec = Decoder::new(&[1, 2, 3]);
        assert_eq!(dec.u64().unwrap_err(), DecodeError::UnexpectedEof);
    }

    #[test]
    fn sequence_lengths_are_bounded_by_remaining_bytes() {
        // A length prefix claiming 2^60 elements must not allocate.
        let mut enc = Encoder::new();
        enc.u64(1u64 << 60);
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.seq_len(8).unwrap_err(), DecodeError::UnexpectedEof);
    }

    #[test]
    fn container_rejects_tampering() {
        #[derive(Debug)]
        struct Blob(u64);
        impl Encode for Blob {
            fn encode(&self, out: &mut Encoder) {
                out.u64(self.0);
            }
        }
        impl Decode for Blob {
            fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
                Ok(Blob(r.u64()?))
            }
        }
        let good = encode_artifact(ArtifactKind::Compiled, &Blob(42));
        assert_eq!(
            decode_artifact::<Blob>(ArtifactKind::Compiled, &good)
                .unwrap()
                .0,
            42
        );

        // Wrong magic.
        let mut bad = good.clone();
        bad[0] ^= 0xff;
        assert_eq!(
            decode_artifact::<Blob>(ArtifactKind::Compiled, &bad).unwrap_err(),
            DecodeError::BadMagic
        );

        // Stale schema version.
        let mut bad = good.clone();
        bad[4..8].copy_from_slice(&(SCHEMA_VERSION + 1).to_le_bytes());
        assert_eq!(
            decode_artifact::<Blob>(ArtifactKind::Compiled, &bad).unwrap_err(),
            DecodeError::VersionMismatch {
                found: SCHEMA_VERSION + 1
            }
        );

        // Wrong kind.
        assert_eq!(
            decode_artifact::<Blob>(ArtifactKind::Native, &good).unwrap_err(),
            DecodeError::KindMismatch { found: 3 }
        );

        // Flipped payload byte.
        let mut bad = good.clone();
        *bad.last_mut().unwrap() ^= 1;
        assert_eq!(
            decode_artifact::<Blob>(ArtifactKind::Compiled, &bad).unwrap_err(),
            DecodeError::ChecksumMismatch
        );

        // Truncation anywhere in the file.
        for cut in 0..good.len() {
            assert!(
                decode_artifact::<Blob>(ArtifactKind::Compiled, &good[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }
}
