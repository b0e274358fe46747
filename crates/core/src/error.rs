//! Error type of the exploration pipeline.

use std::fmt;

/// Errors surfaced by the methodology pipeline.
#[derive(Debug)]
pub enum ExploreError {
    /// The exploration configuration is unusable.
    InvalidConfig(String),
    /// A serialisation or log-handling failure.
    Log(String),
    /// The execution engine failed (e.g. its cache store is unusable).
    Engine(String),
    /// The exploration was cancelled mid-run (its engine's
    /// [`ddtr_engine::BatchControl`] token fired). Completed simulations
    /// stay in the result cache, so a re-submitted run resumes.
    Cancelled,
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExploreError::InvalidConfig(why) => write!(f, "invalid exploration config: {why}"),
            ExploreError::Log(why) => write!(f, "exploration log error: {why}"),
            ExploreError::Engine(why) => write!(f, "{why}"),
            ExploreError::Cancelled => write!(f, "exploration cancelled"),
        }
    }
}

impl std::error::Error for ExploreError {}

impl From<ddtr_engine::EngineError> for ExploreError {
    fn from(e: ddtr_engine::EngineError) -> Self {
        ExploreError::Engine(e.to_string())
    }
}

impl From<ddtr_trace::TraceError> for ExploreError {
    fn from(e: ddtr_trace::TraceError) -> Self {
        ExploreError::InvalidConfig(e.to_string())
    }
}

impl From<ddtr_engine::Cancelled> for ExploreError {
    fn from(_: ddtr_engine::Cancelled) -> Self {
        ExploreError::Cancelled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ExploreError::InvalidConfig("zero packets".into());
        assert!(e.to_string().contains("zero packets"));
        let e = ExploreError::Log("disk full".into());
        assert!(e.to_string().contains("disk full"));
    }
}
