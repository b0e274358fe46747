// Fixture stand-in for a config struct feeding CacheKey fingerprints.
use serde::{Deserialize, Serialize};

#[derive(Serialize, Deserialize)]
pub struct FixtureParams {
    /// Covered by the manifest.
    pub quantum: u32,
    /// Not in the manifest: must be flagged.
    pub added: u32,
    /// Skipped from serialization: invisible to the fingerprint, flagged.
    #[serde(skip)]
    pub scratch: u64,
    /// Covered by the manifest.
    pub seed: u64,
    /// Crate-visible fields are serialized too: not in the manifest, flagged.
    pub(crate) hidden_knob: usize,
}

/// A decoy whose name embeds the target's: must not be parsed as it.
pub struct FixtureParamsBuilder {
    pub quantum: u32,
}
