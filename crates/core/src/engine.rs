//! Execution engines: how a banked LLC's banks are served.
//!
//! A banked machine is one cache — address-interleaved banks, each with its
//! own controller — and only the *schedule* that serves the banks varies:
//!
//! * **Batched** — [`BankedLlc`](vantage_partitioning::BankedLlc) regroups
//!   each `access_batch` call by bank on the calling thread and amortizes
//!   tag walks with prefetch pipelining. With `bank_jobs > 1` the same calls
//!   are served by the pipelined engine's worker pool instead.
//! * **Pipelined** —
//!   [`PipelinedBankedLlc`](vantage_partitioning::PipelinedBankedLlc):
//!   requests stream into per-bank ring buffers and are consumed in long
//!   bank-major runs, with the only true barrier at the epoch boundary.
//!
//! [`EngineKind`] names the schedule (config files, `--engine` flags). Both
//! engines produce bit-identical outcomes, statistics and partition sizes
//! on the same trace — the engine choice is a throughput trade, never a
//! simulation-results change.

use std::fmt;

/// Names an execution engine; the unit of selection for config knobs and
/// `--engine` command-line flags.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Bank-grouped `access_batch` service (the established throughput
    /// path for banked caches).
    #[default]
    Batched,
    /// Ring-buffered producer/consumer with bank-major drains
    /// ([`PipelinedBankedLlc`](vantage_partitioning::PipelinedBankedLlc));
    /// barriers only at epoch boundaries.
    Pipelined,
}

impl EngineKind {
    /// Every engine, in documentation order.
    pub const ALL: [EngineKind; 2] = [Self::Batched, Self::Pipelined];

    /// The flag/config spelling.
    pub fn name(self) -> &'static str {
        match self {
            Self::Batched => "batched",
            Self::Pipelined => "pipelined",
        }
    }

    /// Parses a flag/config spelling (case-sensitive, as listed by
    /// [`EngineKind::ALL`]).
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == s)
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_parse_and_display_round_trip() {
        for k in EngineKind::ALL {
            assert_eq!(EngineKind::parse(k.name()), Some(k));
            assert_eq!(format!("{k}"), k.name());
        }
        assert_eq!(EngineKind::parse("warp-drive"), None);
        assert_eq!(EngineKind::parse("serial"), None);
        assert_eq!(EngineKind::default(), EngineKind::Batched);
    }
}
