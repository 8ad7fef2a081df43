//! Error type shared by the whole crate.

use std::fmt;

/// Result alias used throughout `pythia-core`.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors raised while recording, saving, loading, or querying a trace.
///
/// Marked `#[non_exhaustive]`: downstream crates must keep a wildcard arm so
/// future failure modes can be added without a breaking change.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// An I/O error occurred while reading or writing a trace file.
    Io(std::io::Error),
    /// The trace file does not start with the expected magic bytes.
    BadMagic,
    /// The trace file uses a format version this library cannot read.
    UnsupportedVersion(u32),
    /// The trace file is truncated or structurally corrupt.
    Corrupt(String),
    /// A grammar invariant was violated (indicates a bug in the reduction
    /// algorithm; only produced by the debug validator).
    InvariantViolation(String),
    /// The requested thread index does not exist in the trace.
    NoSuchThread(usize),
    /// A predictor configuration is unusable (e.g. a zero capacity).
    InvalidConfig(String),
    /// The oracle cannot serve this request at all: it was never built,
    /// its state is still borrowed elsewhere, or a required piece (a rank's
    /// recording, a thread trace) is missing. The host runtime should fall
    /// back to its default decision.
    OracleUnavailable(String),
    /// The oracle is alive but operating degraded: a query blew its time
    /// budget, or the resilience layer has quarantined it. The result that
    /// would have been returned is withheld; the host default applies.
    Degraded(String),
    /// A rank of the communication world died (panic, hang past the
    /// heartbeat timeout, or disconnect) and was not replaced. Survivors
    /// abort their blocked operations with this instead of deadlocking.
    RankFailed {
        /// World rank of the first failed peer.
        rank: usize,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io(e) => write!(f, "i/o error: {e}"),
            Error::BadMagic => write!(f, "not a PYTHIA trace file (bad magic)"),
            Error::UnsupportedVersion(v) => {
                write!(f, "unsupported trace format version {v}")
            }
            Error::Corrupt(msg) => write!(f, "corrupt trace file: {msg}"),
            Error::InvariantViolation(msg) => {
                write!(f, "grammar invariant violation: {msg}")
            }
            Error::NoSuchThread(t) => write!(f, "trace has no thread {t}"),
            Error::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            Error::OracleUnavailable(msg) => write!(f, "oracle unavailable: {msg}"),
            Error::Degraded(msg) => write!(f, "oracle degraded: {msg}"),
            Error::RankFailed { rank } => write!(f, "rank {rank} failed"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
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
    fn display_formats() {
        let e = Error::BadMagic;
        assert!(e.to_string().contains("magic"));
        let e = Error::UnsupportedVersion(7);
        assert!(e.to_string().contains('7'));
        let e = Error::NoSuchThread(3);
        assert!(e.to_string().contains('3'));
        let e = Error::Corrupt("oops".into());
        assert!(e.to_string().contains("oops"));
        let e = Error::InvalidConfig("max_candidates".into());
        assert!(e.to_string().contains("max_candidates"));
        let e = Error::OracleUnavailable("rank 3 has no recording".into());
        assert!(e.to_string().contains("rank 3"));
        let e = Error::Degraded("deadline exceeded".into());
        assert!(e.to_string().contains("deadline"));
        let e = Error::RankFailed { rank: 5 };
        assert!(e.to_string().contains("rank 5"));
    }

    #[test]
    fn io_error_source_preserved() {
        let io = std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "eof");
        let e: Error = io.into();
        assert!(std::error::Error::source(&e).is_some());
    }
}
