//! Error type shared across the GLOVE workspace core.

use std::fmt;

/// Errors produced by the GLOVE core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GloveError {
    /// A sample violated the box invariants (zero extents, …).
    InvalidSample(String),
    /// A fingerprint violated its invariants (no samples, no users, …).
    InvalidFingerprint(String),
    /// A dataset violated its invariants (duplicate subscribers, …).
    InvalidDataset(String),
    /// A configuration value is out of range.
    InvalidConfig(String),
    /// The requested anonymity level cannot be met (e.g. fewer than `k`
    /// subscribers in the dataset).
    Unsatisfiable(String),
    /// A streaming event arrived with a timestamp earlier than an event
    /// already consumed (the stream engine requires time order).
    OutOfOrderEvent(String),
    /// An observer could not take a streaming epoch (an epoch file that
    /// could not be written, …): the run stops delivering at that epoch.
    EpochSink {
        /// The epoch the observer failed on.
        epoch: u64,
        /// The observer's error, as text.
        message: String,
    },
}

impl fmt::Display for GloveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GloveError::InvalidSample(msg) => write!(f, "invalid sample: {msg}"),
            GloveError::InvalidFingerprint(msg) => write!(f, "invalid fingerprint: {msg}"),
            GloveError::InvalidDataset(msg) => write!(f, "invalid dataset: {msg}"),
            GloveError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            GloveError::Unsatisfiable(msg) => write!(f, "unsatisfiable request: {msg}"),
            GloveError::OutOfOrderEvent(msg) => write!(f, "out-of-order event: {msg}"),
            GloveError::EpochSink { epoch, message } => {
                write!(f, "epoch {epoch} could not be delivered: {message}")
            }
        }
    }
}

impl std::error::Error for GloveError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = GloveError::InvalidConfig("k must be at least 2".into());
        let s = e.to_string();
        assert!(s.contains("invalid configuration"));
        assert!(s.contains("k must be at least 2"));
    }
}
