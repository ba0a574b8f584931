//! Shared by the integration tests (each uses a subset).
#![allow(dead_code)]

use rmac::prelude::*;

/// One replication with the conformance checker attached: panics on any
/// C1–C5 violation, so every test that runs through here doubles as a
/// conformance run.
pub fn checked(cfg: &ScenarioConfig, protocol: Protocol, seed: u64) -> RunReport {
    Run::new(cfg, protocol, seed)
        .check()
        .execute()
        .assert_clean()
        .report
}

/// One replication under a fault plan.
pub fn faulted(cfg: &ScenarioConfig, protocol: Protocol, seed: u64, plan: &FaultPlan) -> RunReport {
    Run::new(cfg, protocol, seed).faults(plan).execute().report
}

/// One replication under a fault plan with the checker attached: the
/// report and the verdict (not asserted: mutants must come back dirty).
pub fn verdict(
    cfg: &ScenarioConfig,
    protocol: Protocol,
    seed: u64,
    plan: &FaultPlan,
) -> (RunReport, CheckReport) {
    let out = Run::new(cfg, protocol, seed).faults(plan).check().execute();
    (out.report, out.check.expect("checker was attached"))
}
