//! The unified error taxonomy of the service layer.
//!
//! Every failure a [`crate::Session`] (or [`crate::Target`] construction)
//! can produce is one [`Error`] variant, labelled with the job it
//! belongs to where one exists. No public path of the service panics on
//! user input: oversized circuits come back as [`Error::Validate`],
//! misconfigured cache directories as [`Error::Persist`], degenerate
//! evaluation specs as [`Error::Eval`], and a worker dying mid-job as
//! [`Error::Worker`] — all `std::error::Error + Display`, so they
//! compose with `?` and `Box<dyn Error>` call sites.
//!
//! The same type crosses the wire: `zz_net` encodes an [`Error`] into its
//! response frame with the codec below, and a remote client decodes the
//! same typed failure an in-process caller sees.

use std::fmt;

use zz_core::CoOptError;
use zz_persist::{Decode, DecodeError, Decoder, Encode, Encoder};

/// Any failure of the service layer, labelled with the job it belongs to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Error {
    /// The request was rejected before compilation: the circuit does not
    /// fit the target device, a gate angle is NaN or infinite, or a
    /// compile option is out of range (wraps the engine's
    /// [`CoOptError`]).
    Validate {
        /// The label of the failing job (or `"target"` for failures
        /// while constructing a [`crate::Target`]).
        job: String,
        /// The engine-level cause.
        source: CoOptError,
    },
    /// Routing failed for this job: the engine's
    /// [`CoOptError::RouteUnreachable`], a disconnected coupling graph,
    /// which in-tree [`zz_topology::Topology`] construction forbids.
    Route {
        /// The label of the failing job.
        job: String,
        /// What went wrong.
        detail: String,
    },
    /// The persistence layer rejected its configuration — typically an
    /// uncreatable or unwritable cache directory handed to
    /// [`crate::TargetBuilder::store_dir`].
    Persist {
        /// What went wrong.
        detail: String,
    },
    /// Fidelity evaluation was refused: a degenerate eval spec, or a
    /// device above the evaluation ceiling.
    Eval {
        /// The label of the failing job.
        job: String,
        /// What went wrong.
        detail: String,
    },
    /// A session worker died or the queue was torn down before this
    /// job's result was produced.
    Worker {
        /// The label of the failing job.
        job: String,
        /// What went wrong.
        detail: String,
    },
}

impl Error {
    /// The label of the job this error belongs to, when one exists
    /// ([`Error::Persist`] predates any job).
    pub fn job(&self) -> Option<&str> {
        match self {
            Error::Validate { job, .. }
            | Error::Route { job, .. }
            | Error::Eval { job, .. }
            | Error::Worker { job, .. } => Some(job),
            Error::Persist { .. } => None,
        }
    }

    /// Wraps an engine-level compile error for `job`: size, angle and
    /// option rejections map to [`Error::Validate`], routing failures to
    /// [`Error::Route`].
    pub fn from_compile(job: impl Into<String>, source: CoOptError) -> Self {
        match source {
            CoOptError::CircuitTooLarge { .. }
            | CoOptError::NonFiniteAngle { .. }
            | CoOptError::InvalidOption { .. } => Error::Validate {
                job: job.into(),
                source,
            },
            CoOptError::RouteUnreachable { .. } => Error::Route {
                job: job.into(),
                detail: source.to_string(),
            },
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Validate { job, source } => write!(f, "job {job}: validation failed: {source}"),
            Error::Route { job, detail } => write!(f, "job {job}: routing failed: {detail}"),
            Error::Persist { detail } => write!(f, "persistence layer: {detail}"),
            Error::Eval { job, detail } => write!(f, "job {job}: evaluation failed: {detail}"),
            Error::Worker { job, detail } => write!(f, "job {job}: worker failed: {detail}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Validate { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Tags 0–5 in variant order, with tag 2 retired: it carried a
/// calibration error nothing ever constructed, and is never reused. Tag
/// 6 is a [`Error::Validate`] naming a gate with a non-finite angle, tag
/// 7 one naming a compile option out of range. A [`Error::Validate`]
/// otherwise wraps a size rejection on the wire; one
/// holding a routing failure goes out as the [`Error::Route`] it is,
/// with the same detail string [`Error::from_compile`] would give it.
impl Encode for Error {
    fn encode(&self, out: &mut Encoder) {
        match self {
            Error::Validate {
                job,
                source: CoOptError::CircuitTooLarge { needed, available },
            } => {
                out.u8(0);
                out.str(job);
                out.usize(*needed);
                out.usize(*available);
            }
            Error::Validate {
                job,
                source: source @ CoOptError::RouteUnreachable { .. },
            } => {
                out.u8(1);
                out.str(job);
                out.str(&source.to_string());
            }
            Error::Route { job, detail } => {
                out.u8(1);
                out.str(job);
                out.str(detail);
            }
            Error::Persist { detail } => {
                out.u8(3);
                out.str(detail);
            }
            Error::Eval { job, detail } => {
                out.u8(4);
                out.str(job);
                out.str(detail);
            }
            Error::Worker { job, detail } => {
                out.u8(5);
                out.str(job);
                out.str(detail);
            }
            Error::Validate {
                job,
                source: CoOptError::NonFiniteAngle { gate },
            } => {
                out.u8(6);
                out.str(job);
                out.usize(*gate);
            }
            Error::Validate {
                job,
                source: CoOptError::InvalidOption { field },
            } => {
                out.u8(7);
                out.str(job);
                out.str(field);
            }
        }
    }
}

impl Decode for Error {
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(match r.u8()? {
            0 => Error::Validate {
                job: r.str()?,
                source: CoOptError::CircuitTooLarge {
                    needed: r.usize()?,
                    available: r.usize()?,
                },
            },
            1 => Error::Route {
                job: r.str()?,
                detail: r.str()?,
            },
            3 => Error::Persist { detail: r.str()? },
            4 => Error::Eval {
                job: r.str()?,
                detail: r.str()?,
            },
            5 => Error::Worker {
                job: r.str()?,
                detail: r.str()?,
            },
            6 => Error::Validate {
                job: r.str()?,
                source: CoOptError::NonFiniteAngle { gate: r.usize()? },
            },
            7 => Error::Validate {
                job: r.str()?,
                source: CoOptError::InvalidOption { field: r.str()? },
            },
            _ => return Err(DecodeError::Invalid("service error tag")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_attaches_the_job_label() {
        let err = Error::from_compile(
            "qft-9",
            CoOptError::CircuitTooLarge {
                needed: 9,
                available: 4,
            },
        );
        let msg = err.to_string();
        assert!(msg.contains("qft-9"), "{msg}");
        assert!(msg.contains("9 qubits"), "{msg}");
        assert_eq!(err.job(), Some("qft-9"));
    }

    #[test]
    fn route_failures_map_to_the_route_variant() {
        let err = Error::from_compile("j", CoOptError::RouteUnreachable { from: 3, to: 7 });
        match &err {
            Error::Route { job, detail } => {
                assert_eq!(job, "j");
                assert!(detail.contains("qubits 3 and 7"), "{detail}");
            }
            other => panic!("expected Route, got {other:?}"),
        }
    }

    #[test]
    fn non_finite_angles_map_to_the_validate_variant() {
        let source = CoOptError::NonFiniteAngle { gate: 4 };
        let err = Error::from_compile("j", source.clone());
        assert_eq!(
            err,
            Error::Validate {
                job: "j".into(),
                source
            }
        );
        assert!(err.to_string().contains("gate 4"), "{err}");
    }

    #[test]
    fn the_retired_tag_is_rejected() {
        let mut enc = Encoder::new();
        enc.u8(2);
        enc.str("j");
        enc.str("d");
        let bytes = enc.finish();
        assert_eq!(
            Error::decode(&mut Decoder::new(&bytes)).unwrap_err(),
            DecodeError::Invalid("service error tag")
        );
    }

    #[test]
    fn validate_exposes_the_engine_cause_as_source() {
        use std::error::Error as _;
        let err = Error::from_compile(
            "j",
            CoOptError::CircuitTooLarge {
                needed: 5,
                available: 4,
            },
        );
        assert!(err.source().is_some());
        assert!(Error::Persist {
            detail: "read-only".into()
        }
        .source()
        .is_none());
    }
}
