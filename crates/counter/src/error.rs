//! Error types for fallible counter operations, the [`FailureInfo`] record
//! that travels with a poisoned counter, and the cascade rule that tells a
//! root-cause panic from the panics it provokes in dependent threads.

use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, PoisonError};

/// How the panic of [`MonotonicCounter::check`] on a poisoned counter
/// begins. A panic with this prefix is a *cascade* of another thread's
/// failure, not a root cause ([`FailureInfo::is_cascade`], [`FirstPanic`]).
///
/// [`MonotonicCounter::check`]: crate::MonotonicCounter::check
pub const POISONED_PANIC_PREFIX: &str = "monotonic counter poisoned";

/// Error returned by [`MonotonicCounter::check_timeout`] when the counter did
/// not reach the requested level before the timeout elapsed.
///
/// [`MonotonicCounter::check_timeout`]: crate::MonotonicCounter::check_timeout
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckTimeoutError {
    /// The level the caller was waiting for.
    pub level: crate::Value,
}

impl fmt::Display for CheckTimeoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "timed out waiting for counter to reach level {}",
            self.level
        )
    }
}

impl std::error::Error for CheckTimeoutError {}

/// Error returned by [`MonotonicCounter::try_increment`] when the addition
/// would overflow the counter value.
///
/// [`MonotonicCounter::try_increment`]: crate::MonotonicCounter::try_increment
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterOverflowError {
    /// The counter value at the time of the failed increment.
    pub value: crate::Value,
    /// The amount whose addition would have overflowed.
    pub amount: crate::Value,
}

impl fmt::Display for CounterOverflowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "incrementing counter value {} by {} would overflow",
            self.value, self.amount
        )
    }
}

impl std::error::Error for CounterOverflowError {}

/// The captured cause of a counter poisoning: which thread failed, why, and
/// (when known) the level context of the failure.
///
/// `FailureInfo` is deliberately cheap to clone (`Arc`-backed strings): one
/// poisoning fans the same record out to every waiter, present and future.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureInfo {
    thread: Arc<str>,
    message: Arc<str>,
    level: Option<crate::Value>,
}

impl FailureInfo {
    /// Captures the calling thread's name alongside `message`.
    pub fn new(message: impl Into<String>) -> Self {
        let thread = std::thread::current();
        FailureInfo {
            thread: thread.name().unwrap_or("<unnamed>").into(),
            message: message.into().into(),
            level: None,
        }
    }

    /// Builds a failure record from a caught panic payload, extracting the
    /// conventional `&str`/`String` message (the payload of `panic!`), or a
    /// placeholder for exotic payloads.
    pub fn from_panic(payload: &(dyn Any + Send)) -> Self {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "<non-string panic payload>".to_string()
        };
        Self::new(message)
    }

    /// Attaches the counter level the failing thread was responsible for
    /// (e.g. the unfulfilled amount of an abandoned obligation).
    pub fn with_level(mut self, level: crate::Value) -> Self {
        self.level = Some(level);
        self
    }

    /// Overrides the recorded thread name. Used when *reconstructing* a
    /// failure from persisted state (crash recovery), where the original
    /// failing thread — not the recovering one — must be reported.
    pub fn with_thread(mut self, thread: impl Into<String>) -> Self {
        self.thread = thread.into().into();
        self
    }

    /// Name of the thread that failed (`<unnamed>` for anonymous threads).
    pub fn thread(&self) -> &str {
        &self.thread
    }

    /// The failure description — a panic payload string or a supervisor
    /// verdict.
    pub fn message(&self) -> &str {
        &self.message
    }

    /// The level context attached via [`with_level`](Self::with_level), if
    /// any.
    pub fn level(&self) -> Option<crate::Value> {
        self.level
    }

    /// Whether this failure is a cascade: the panic of a `check` on a
    /// poisoned counter ([`POISONED_PANIC_PREFIX`]), not a root cause.
    pub fn is_cascade(&self) -> bool {
        self.message.starts_with(POISONED_PANIC_PREFIX)
    }
}

/// The panic a group of threads re-raises once they have all joined: the
/// first root-cause panic, or the first cascade when every panic was one.
/// A sibling woken by the root cause's poison can record its cascade first,
/// so the slot ranks by the cascade rule, not by arrival.
#[derive(Default)]
pub struct FirstPanic {
    /// The kept payload and whether it is a cascade.
    kept: Mutex<Option<(Box<dyn Any + Send>, bool)>>,
}

impl FirstPanic {
    /// Runs `f`, catching a panic: the payload is offered to the slot and
    /// returned as a [`FailureInfo`], for the caller to poison with. `f` is
    /// treated as unwind-safe, since the panic is re-raised by
    /// [`resume`](Self::resume).
    pub fn catch(&self, f: impl FnOnce()) -> Result<(), FailureInfo> {
        catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
            let info = FailureInfo::from_panic(payload.as_ref());
            let cascade = info.is_cascade();
            let mut kept = self.kept.lock().unwrap_or_else(PoisonError::into_inner);
            if kept
                .as_ref()
                .is_none_or(|&(_, kept_cascade)| kept_cascade && !cascade)
            {
                *kept = Some((payload, cascade));
            }
            info
        })
    }

    /// Re-raises the kept panic; returns normally when nothing panicked.
    pub fn resume(self) {
        if let Some((payload, _)) = self
            .kept
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
        {
            resume_unwind(payload);
        }
    }
}

impl fmt::Display for FailureInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "thread '{}' failed: {}", self.thread, self.message)?;
        if let Some(level) = self.level {
            write!(f, " (level context: {level})")?;
        }
        Ok(())
    }
}

/// Error returned by the fallible wait operations
/// ([`MonotonicCounter::wait`] / [`MonotonicCounter::wait_timeout`]).
///
/// [`MonotonicCounter::wait`]: crate::MonotonicCounter::wait
/// [`MonotonicCounter::wait_timeout`]: crate::MonotonicCounter::wait_timeout
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckError {
    /// The counter did not reach the level before the timeout elapsed.
    Timeout(CheckTimeoutError),
    /// The counter was poisoned while the level was still unsatisfied: the
    /// increments this wait depends on will never arrive.
    Poisoned(FailureInfo),
}

impl CheckError {
    /// The poisoning cause, when this is a [`CheckError::Poisoned`].
    pub fn failure(&self) -> Option<&FailureInfo> {
        match self {
            CheckError::Poisoned(info) => Some(info),
            CheckError::Timeout(_) => None,
        }
    }
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Timeout(e) => e.fmt(f),
            CheckError::Poisoned(info) => write!(f, "counter poisoned: {info}"),
        }
    }
}

impl std::error::Error for CheckError {}

impl From<CheckTimeoutError> for CheckError {
    fn from(e: CheckTimeoutError) -> Self {
        CheckError::Timeout(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeout_error_displays_level() {
        let e = CheckTimeoutError { level: 42 };
        assert!(e.to_string().contains("42"));
    }

    #[test]
    fn overflow_error_displays_operands() {
        let e = CounterOverflowError {
            value: u64::MAX,
            amount: 1,
        };
        let s = e.to_string();
        assert!(s.contains(&u64::MAX.to_string()));
        assert!(s.contains("by 1"));
    }

    #[test]
    fn errors_are_std_errors() {
        fn assert_err<E: std::error::Error>() {}
        assert_err::<CheckTimeoutError>();
        assert_err::<CounterOverflowError>();
        assert_err::<CheckError>();
    }

    #[test]
    fn failure_info_captures_thread_name() {
        let info = std::thread::Builder::new()
            .name("doomed-worker".into())
            .spawn(|| FailureInfo::new("boom"))
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(info.thread(), "doomed-worker");
        assert_eq!(info.message(), "boom");
        assert!(info.to_string().contains("doomed-worker"));
        assert!(info.to_string().contains("boom"));
    }

    #[test]
    fn failure_info_from_panic_extracts_payloads() {
        let static_str = std::panic::catch_unwind(|| panic!("static cause")).unwrap_err();
        assert_eq!(
            FailureInfo::from_panic(&*static_str).message(),
            "static cause"
        );
        let formatted = std::panic::catch_unwind(|| panic!("cause {}", 42)).unwrap_err();
        assert_eq!(FailureInfo::from_panic(&*formatted).message(), "cause 42");
        let exotic = std::panic::catch_unwind(|| std::panic::panic_any(7u32)).unwrap_err();
        assert_eq!(
            FailureInfo::from_panic(&*exotic).message(),
            "<non-string panic payload>"
        );
    }

    #[test]
    fn failure_info_level_context_round_trips() {
        let info = FailureInfo::new("died").with_level(9);
        assert_eq!(info.level(), Some(9));
        assert!(info.to_string().contains("level context: 9"));
    }

    /// The message a [`FirstPanic`] re-raises after catching panics with
    /// `messages`, in order.
    fn kept(messages: &[&str]) -> String {
        let slot = FirstPanic::default();
        for m in messages {
            let m = m.to_string();
            assert!(slot.catch(move || panic!("{m}")).is_err());
        }
        let payload = catch_unwind(AssertUnwindSafe(|| slot.resume())).unwrap_err();
        FailureInfo::from_panic(&*payload).message().to_string()
    }

    #[test]
    fn first_panic_keeps_the_first_root_cause_else_the_first_cascade() {
        let cascade = format!("{POISONED_PANIC_PREFIX}: thread 'a' failed: root");
        let later = format!("{POISONED_PANIC_PREFIX}: later");
        assert_eq!(kept(&[&cascade, "root"]), "root");
        assert_eq!(kept(&["root", &cascade]), "root");
        assert_eq!(kept(&["first", "second"]), "first");
        assert_eq!(kept(&[&cascade, &later]), cascade);
    }

    #[test]
    fn check_error_accessors_and_display() {
        let t = CheckError::from(CheckTimeoutError { level: 3 });
        assert!(t.failure().is_none());
        assert!(t.to_string().contains("level 3"));
        let p = CheckError::Poisoned(FailureInfo::new("dead producer"));
        assert_eq!(p.failure().unwrap().message(), "dead producer");
        assert!(p.to_string().contains("poisoned"));
    }
}
