//! Device stepping: quantum-sliced execution on a selectable engine.
//!
//! Every simulated device advances through its current job in bounded
//! quanta using the engines' `*_until` pause points, so the scheduler
//! only ever observes (and acts at) slice boundaries. Pausing is
//! behaviour-preserving on every engine, which is what makes
//! preempt-via-snapshot bit-exact: a job paused, snapshotted, and
//! restored onto any idle device finishes with the same architectural
//! results as one that ran uninterrupted.

use vip_core::{RunOutcome, SimError, System};

/// Which stepping engine a fleet's devices run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Event-driven fast-forward ([`System::run_until`]) — exact
    /// cycles, the serving default.
    Fast,
    /// Two-tier functional ([`System::run_functional_until`]) —
    /// bit-identical architectural results, estimated cycles, pauses
    /// loosely (a slice may overrun its quantum by up to a drain).
    Functional,
}

impl Engine {
    /// Report / CLI label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Engine::Fast => "fast",
            Engine::Functional => "functional",
        }
    }

    /// Parses a CLI label.
    #[must_use]
    pub fn parse(s: &str) -> Option<Engine> {
        match s {
            "fast" => Some(Engine::Fast),
            "functional" => Some(Engine::Functional),
            _ => None,
        }
    }

    /// Advances `sys` until it quiesces or its clock reaches
    /// `pause_at`, whichever comes first, under this engine's pause
    /// contract. `limit` is the job's absolute cycle budget.
    ///
    /// # Errors
    ///
    /// Propagates the engine's [`SimError`] (a hang at `limit`, or a
    /// typed trap).
    pub fn advance(
        self,
        sys: &mut System,
        pause_at: u64,
        limit: u64,
    ) -> Result<RunOutcome, SimError> {
        match self {
            Engine::Fast => sys.run_until(pause_at, limit),
            Engine::Functional => sys.run_functional_until(pause_at, limit),
        }
    }
}
