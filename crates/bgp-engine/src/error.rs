//! Engine error types.

use std::error::Error;
use std::fmt;

use bgp_types::Asn;

/// The simulation failed to reach quiescence.
///
/// BGP with loop suppression and a stable decision process always converges
/// on a *static* configuration, so both variants point at something unusual:
/// a deliberately tiny budget, or a fault plan that keeps the network
/// churning forever (e.g. an unbounded origin flap with MRAI disabled).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConvergenceError {
    /// The event budget ran out before the queue drained.
    BudgetExhausted {
        /// Number of events processed before giving up.
        processed: u64,
        /// Number of events still queued when the budget ran out.
        pending: usize,
    },
    /// The convergence watchdog caught the network revisiting the same
    /// global routing state: it is oscillating, not converging, and would
    /// otherwise spin until the event budget ran out.
    Oscillating {
        /// Events between two sightings of the repeated routing state — the
        /// period of the oscillation, measured in delivered events.
        cycle_len: u64,
    },
}

impl ConvergenceError {
    /// Number of events processed before the budget ran out, when this is a
    /// [`ConvergenceError::BudgetExhausted`].
    #[must_use]
    pub fn processed(&self) -> Option<u64> {
        match self {
            ConvergenceError::BudgetExhausted { processed, .. } => Some(*processed),
            ConvergenceError::Oscillating { .. } => None,
        }
    }
}

impl fmt::Display for ConvergenceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConvergenceError::BudgetExhausted { processed, pending } => write!(
                f,
                "simulation did not converge: {processed} events processed, {pending} still pending"
            ),
            ConvergenceError::Oscillating { cycle_len } => write!(
                f,
                "simulation is oscillating: routing state repeats every {cycle_len} events"
            ),
        }
    }
}

impl Error for ConvergenceError {}

/// A fault plan referenced actors the network cannot satisfy. Raised by
/// [`set_fault_plan`](crate::ShardedNetwork::set_fault_plan) at install
/// time, so the event loop never has to deal with a dangling reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPlanError {
    /// A timeline event named an AS outside the network.
    UnknownAs(Asn),
    /// A link fault model was attached to a pair of ASes that do not peer.
    NotALink(Asn, Asn),
    /// The network already has a fault plan; plans cannot be stacked.
    AlreadyInstalled,
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlanError::UnknownAs(asn) => {
                write!(f, "fault plan names {asn}, which is not in the network")
            }
            FaultPlanError::NotALink(a, b) => {
                write!(f, "fault plan names link {a} <-> {b}, but they do not peer")
            }
            FaultPlanError::AlreadyInstalled => {
                write!(f, "the network already has a fault plan installed")
            }
        }
    }
}

impl Error for FaultPlanError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_display_and_accessors() {
        let e = ConvergenceError::BudgetExhausted {
            processed: 10,
            pending: 3,
        };
        assert_eq!(e.processed(), Some(10));
        assert!(e.to_string().contains("10"));
        assert!(e.to_string().contains('3'));
    }

    #[test]
    fn oscillating_display_and_accessors() {
        let e = ConvergenceError::Oscillating { cycle_len: 48 };
        assert_eq!(e.processed(), None);
        assert!(e.to_string().contains("48"));
        assert!(e.to_string().contains("oscillating"));
    }

    #[test]
    fn fault_plan_errors_display_parties() {
        assert!(FaultPlanError::UnknownAs(Asn(7))
            .to_string()
            .contains("AS7"));
        let e = FaultPlanError::NotALink(Asn(1), Asn(2)).to_string();
        assert!(e.contains("AS1") && e.contains("AS2"));
        assert!(FaultPlanError::AlreadyInstalled
            .to_string()
            .contains("already"));
    }
}
