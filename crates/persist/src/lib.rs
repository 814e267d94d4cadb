//! `zz_persist` — versioned artifact codec + on-disk compilation cache.
//!
//! The compile pipeline (`zz_core::pipeline`) memoizes routing and
//! calibration *within one process*; this crate makes whole compiled plans
//! durable, so a new process — a rerun figure binary, a test, a restarted
//! service — serves a request it has compiled before from disk instead of
//! re-running routing, scheduling and Hamiltonian simulations. Two layers:
//!
//! * **[`codec`]** — a self-describing binary format (magic bytes, schema
//!   version, FNV-checksummed payload) with [`Encode`]/[`Decode`]
//!   implementations for every artifact type that crosses process
//!   boundaries. Zero external dependencies (the workspace's hermetic
//!   build forbids serde); `f64` fields round-trip bit-identically.
//! * **[`store`]** — a content-addressed [`ArtifactStore`] rooted at a
//!   cache directory (`ZZ_CACHE_DIR` or an explicit path), with
//!   write-to-temp + atomic-rename crash safety. Checksum or version
//!   mismatches are cache *misses*, never errors, and an unwritable
//!   directory degrades to in-memory behavior.
//!
//! `zz_core` wires the store into `PassManager`, which keeps exactly one
//! kind of artifact on disk: the whole plan of a request, under
//! `compiled/`. The codec also frames the wire protocol's envelopes and
//! the metrics snapshots. See `ARCHITECTURE.md` for the cache hierarchy.

#![warn(missing_docs)]

pub mod codec;
mod impls;
pub mod store;

pub use codec::{
    decode_artifact, encode_artifact, fnv1a, fnv1a_mix, roundtrip, ArtifactKind, Decode,
    DecodeError, Decoder, Encode, Encoder, SCHEMA_VERSION,
};
pub use store::{ArtifactStore, StoreStats, CACHE_DIR_ENV};
