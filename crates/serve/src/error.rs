//! Typed serving errors: admission rejections and request failures.

use std::fmt;
use std::time::Duration;

use crate::server::Request;

/// Why [`crate::Server::submit`] did not admit a request.
///
/// Both variants hand the request back so the caller can retry, shed the
/// load, or route it elsewhere — admission control never consumes work it
/// will not perform.
#[derive(Debug)]
pub enum SubmitError {
    /// The bounded admission queue is at capacity right now. Carries the
    /// observed depth and the configured capacity so clients can size
    /// their backoff to how overloaded the server actually is.
    Busy {
        /// The rejected request, handed back intact.
        request: Request,
        /// Queue depth observed at rejection time (equals `capacity`).
        depth: usize,
        /// The server's configured admission-queue capacity.
        capacity: usize,
    },
    /// The server has shut down and accepts no further work.
    Shutdown(Request),
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Busy {
                depth, capacity, ..
            } => write!(f, "admission queue full ({depth} of {capacity} slots)"),
            SubmitError::Shutdown(_) => write!(f, "server is shut down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why an admitted request did not produce a [`crate::Response`].
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The request's deadline lapsed while it sat in the admission queue;
    /// it was failed without touching a device.
    DeadlineExceeded {
        /// How long the request waited before the executor picked it up.
        waited: Duration,
        /// The deadline it was admitted with.
        deadline: Duration,
    },
    /// The request was canceled before it produced a response: the server
    /// shut down before an executor reached it, or its cancellation token
    /// ([`crate::Request::with_cancel`]) was set — e.g. by a hedging
    /// router whose duplicate dispatch already won.
    Canceled,
    /// The request's `max_mape` quality SLO cannot be met: the guard found
    /// over-budget output and no exact device was available to repair it
    /// (e.g. the only fp32 devices are quarantined or dead).
    QualityUnattainable {
        /// The guard's error estimate for the partition it could not fix.
        estimated_mape: f64,
        /// The SLO that estimate exceeds.
        budget_mape: f64,
    },
    /// The runtime rejected or failed the execution.
    Runtime(shmt::ShmtError),
    /// The serving layer itself failed (e.g. no executor thread could be
    /// spawned).
    Internal(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::DeadlineExceeded { waited, deadline } => write!(
                f,
                "deadline exceeded: waited {waited:?} against a deadline of {deadline:?}"
            ),
            ServeError::Canceled => write!(f, "request canceled before completion"),
            ServeError::QualityUnattainable {
                estimated_mape,
                budget_mape,
            } => write!(
                f,
                "quality SLO unattainable: estimated MAPE {estimated_mape:.4} exceeds \
                 the requested {budget_mape:.4} with no exact device available"
            ),
            ServeError::Runtime(e) => write!(f, "runtime error: {e}"),
            ServeError::Internal(msg) => write!(f, "serving layer failure: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<shmt::ShmtError> for ServeError {
    fn from(e: shmt::ShmtError) -> Self {
        match e {
            shmt::ShmtError::QualityUnattainable {
                estimated_mape,
                budget_mape,
            } => ServeError::QualityUnattainable {
                estimated_mape,
                budget_mape,
            },
            other => ServeError::Runtime(other),
        }
    }
}
