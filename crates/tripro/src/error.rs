//! The crate-wide error type. Introduced so the query/decode hot path can
//! propagate failures instead of panicking (lint rule `no_panic`, see
//! `docs/invariants.md`).

use tripro_coder::DecodeError;
use tripro_mesh::MeshError;

/// Errors surfaced by the store, cache and query engine.
#[derive(Debug)]
pub enum Error {
    /// A stored object failed to decode. Stored payloads are produced by
    /// our own encoder, so this indicates corruption (bad load, truncated
    /// file) rather than a caller mistake.
    Decode { object: u32, source: DecodeError },
    /// A mesh was rejected while building a store.
    Mesh(MeshError),
    /// Persistence I/O failed.
    Io(std::io::Error),
    /// A parallel build worker died before filling its slot.
    BuildIncomplete { index: usize },
    /// A query's [`Deadline`](crate::Deadline) expired (or its cancel flag
    /// was raised) before refinement completed. The partial answer is
    /// discarded rather than returned as if it were exact.
    DeadlineExceeded,
    /// An internal invariant failed: a contained panic inside a request
    /// handler, or a fault injected through a [`fault`](crate::fault)
    /// failpoint. `context` names the containment site
    /// (`"serve.request"`, failpoint site, ...), `message` carries the
    /// panic payload or injected-fault description.
    Internal {
        /// Containment site or failpoint name.
        context: &'static str,
        /// Panic payload / fault description.
        message: String,
    },
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Decode { object, source } => {
                write!(f, "object {object} failed to decode: {source}")
            }
            Error::Mesh(e) => write!(f, "mesh rejected: {e}"),
            Error::Io(e) => write!(f, "i/o error: {e}"),
            Error::BuildIncomplete { index } => {
                write!(f, "store build incomplete: object {index} was never built")
            }
            Error::DeadlineExceeded => {
                write!(f, "deadline exceeded before refinement completed")
            }
            Error::Internal { context, message } => {
                write!(f, "internal error in {context}: {message}")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Decode { source, .. } => Some(source),
            Error::Mesh(source) => Some(source),
            Error::Io(e) => Some(e),
            Error::BuildIncomplete { .. } | Error::DeadlineExceeded | Error::Internal { .. } => {
                None
            }
        }
    }
}

impl From<MeshError> for Error {
    fn from(e: MeshError) -> Self {
        Error::Mesh(e)
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = Error::Decode {
            object: 7,
            source: DecodeError,
        };
        assert!(e.to_string().contains("object 7"));
        assert!(std::error::Error::source(&e).is_some());
        let e: Error = MeshError::DegenerateFace.into();
        assert!(matches!(e, Error::Mesh(_)));
        let e: Error = std::io::Error::other("x").into();
        assert!(matches!(e, Error::Io(_)));
        assert!(Error::BuildIncomplete { index: 3 }
            .to_string()
            .contains("3"));
        let e = Error::DeadlineExceeded;
        assert!(e.to_string().contains("deadline"));
        assert!(std::error::Error::source(&e).is_none());
        let e = Error::Internal {
            context: "serve.request",
            message: "handler panicked".into(),
        };
        assert!(e.to_string().contains("serve.request"));
        assert!(e.to_string().contains("handler panicked"));
        assert!(std::error::Error::source(&e).is_none());
    }
}
