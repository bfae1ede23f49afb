//! A single error type spanning the whole workspace.
//!
//! Each layer keeps its own precise error (`mc_counter::CheckError` for
//! synchronization, `mc_durable::WalError` for persistence), but application
//! code that mixes waiting, incrementing, and durability otherwise ends up
//! with a different `Result` type per call. [`Error`] unifies them: every
//! workspace error converts in via `From`, so `?` works across layers in one
//! function.

use mc_counter::{CheckError, CheckTimeoutError, CounterOverflowError, FailureInfo};
use mc_durable::WalError;
use std::fmt;

/// Any failure the workspace can report, unified for cross-layer `?`.
#[derive(Debug)]
pub enum Error {
    /// A wait did not reach its level before the timeout elapsed.
    Timeout(CheckTimeoutError),
    /// The counter was poisoned while the waited level was unsatisfied.
    Poisoned(FailureInfo),
    /// An increment would have overflowed the counter value.
    Overflow(CounterOverflowError),
    /// The durability layer failed (log I/O or corrupt durable state).
    Wal(WalError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Timeout(e) => e.fmt(f),
            Error::Poisoned(info) => write!(f, "counter poisoned: {info}"),
            Error::Overflow(e) => e.fmt(f),
            Error::Wal(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Timeout(e) => Some(e),
            Error::Poisoned(_) => None,
            Error::Overflow(e) => Some(e),
            Error::Wal(e) => Some(e),
        }
    }
}

impl From<CheckError> for Error {
    fn from(e: CheckError) -> Self {
        match e {
            CheckError::Timeout(t) => Error::Timeout(t),
            CheckError::Poisoned(info) => Error::Poisoned(info),
        }
    }
}

impl From<CheckTimeoutError> for Error {
    fn from(e: CheckTimeoutError) -> Self {
        Error::Timeout(e)
    }
}

impl From<CounterOverflowError> for Error {
    fn from(e: CounterOverflowError) -> Self {
        Error::Overflow(e)
    }
}

impl From<WalError> for Error {
    fn from(e: WalError) -> Self {
        Error::Wal(e)
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        // Route through WalError's classifier so the transient/permanent
        // distinction (ENOSPC → DiskFull, EINTR → Interrupted) and the
        // ErrorKind survive the facade — callers can match on
        // `Error::Wal(w) if w.is_transient()` or on `w.io_kind()`.
        Error::Wal(WalError::from(e))
    }
}
