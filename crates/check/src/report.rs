//! Violation records and the end-of-run conformance report.

use rmac_sim::SimTime;
use rmac_wire::NodeId;

/// The invariant catalogue (DESIGN.md §9). Each variant is one
/// machine-checked property of the paper's protocol description.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Invariant {
    /// C1 — busy-tone discipline (§3.3.1–§3.3.2): no transmission starts
    /// against a sensed RBT, and reliable data is only transmitted after a
    /// ≥ λ RBT detection inside the preceding T_WF window.
    C1RbtProtection,
    /// C2 — governed responses (§3.3.2, Fig. 2): control responses (ABT
    /// slots for RMAC, CTS/ACK/RAK for BMMM) only from nodes named by the
    /// governing request, and each protocol stays inside its frame
    /// alphabet.
    C2GovernedResponse,
    /// C3 — air-time conformance (§2, §3.2): every transmission occupies
    /// the channel for exactly the `rmac-wire` air time of its frame.
    C3Airtime,
    /// C4 — Table-1 state machine: RMAC state transitions only along the
    /// legal edges of Fig. 14.
    C4LegalTransition,
    /// C5 — half-duplex discipline: no node cleanly receives a frame whose
    /// arrival overlaps its own transmission.
    C5HalfDuplex,
}

impl Invariant {
    /// Short identifier used in reports ("C1" … "C5").
    pub fn id(self) -> &'static str {
        match self {
            Invariant::C1RbtProtection => "C1",
            Invariant::C2GovernedResponse => "C2",
            Invariant::C3Airtime => "C3",
            Invariant::C4LegalTransition => "C4",
            Invariant::C5HalfDuplex => "C5",
        }
    }
}

/// One observed invariant breach.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Which invariant was broken.
    pub invariant: Invariant,
    /// Simulation time of the offending event.
    pub t: SimTime,
    /// The node the checker holds responsible.
    pub node: NodeId,
    /// Human-readable specifics (frame kind, measured vs expected, …).
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] t={:.3} ms n{}: {}",
            self.invariant.id(),
            self.t.nanos() as f64 / 1e6,
            self.node.0,
            self.detail
        )
    }
}

/// The checker's end-of-run verdict plus liveness counters proving the
/// checker actually saw traffic (an empty violation list on a run with
/// zero checked transmissions proves nothing).
#[derive(Clone, Debug, Default)]
pub struct CheckReport {
    /// Every recorded breach, in event order (capped; see `truncated`).
    pub violations: Vec<Violation>,
    /// Transmission starts examined (C1/C2 gate).
    pub tx_checked: u64,
    /// Clean receptions examined (C5 gate).
    pub rx_ok_checked: u64,
    /// Protocol tone emissions examined (C2 gate).
    pub tone_emissions: u64,
    /// Nodes whose transition matrices were validated (C4 gate).
    pub transition_nodes: u64,
    /// True when violations past the cap were dropped.
    pub truncated: bool,
}

impl CheckReport {
    /// No violations recorded.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && !self.truncated
    }

    /// Count of violations against one invariant.
    pub fn count(&self, inv: Invariant) -> usize {
        self.violations
            .iter()
            .filter(|v| v.invariant == inv)
            .count()
    }

    /// Multi-line human-readable summary (used by the engine's panic
    /// message when a checked run fails).
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} violation(s){} over {} tx / {} rx / {} tone emissions / {} transition matrices",
            self.violations.len(),
            if self.truncated { " (truncated)" } else { "" },
            self.tx_checked,
            self.rx_ok_checked,
            self.tone_emissions,
            self.transition_nodes,
        );
        for v in &self.violations {
            let _ = writeln!(out, "  {v}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_and_display() {
        assert_eq!(Invariant::C1RbtProtection.id(), "C1");
        assert_eq!(Invariant::C5HalfDuplex.id(), "C5");
        let v = Violation {
            invariant: Invariant::C3Airtime,
            t: SimTime::from_micros(1500),
            node: NodeId(4),
            detail: "took too long".to_string(),
        };
        let s = format!("{v}");
        assert!(s.contains("[C3]"), "{s}");
        assert!(s.contains("n4"), "{s}");
    }

    #[test]
    fn clean_report_summary() {
        let r = CheckReport {
            tx_checked: 10,
            ..CheckReport::default()
        };
        assert!(r.is_clean());
        assert!(r.summary().contains("0 violation(s)"));
        assert_eq!(r.count(Invariant::C1RbtProtection), 0);
    }
}
