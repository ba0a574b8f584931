//! The declarative fault plan and its JSON form.

use rmac_wire::json::{self, Json};

/// Parameters of a per-link Gilbert–Elliott bursty-loss chain.
///
/// Every ordered link (src → rx) gets an independent two-state chain with
/// exponential sojourn times; while a link's chain is in the *bad* state,
/// frames on it are corrupted with probability [`loss_bad`], modeling a
/// deep fade or an interference burst.
///
/// [`loss_bad`]: BurstySpec::loss_bad
#[derive(Clone, Debug, PartialEq)]
pub struct BurstySpec {
    /// Mean sojourn in the good state, in milliseconds.
    pub mean_good_ms: f64,
    /// Mean sojourn in the bad state, in milliseconds.
    pub mean_bad_ms: f64,
    /// Frame corruption probability while good (usually 0).
    pub loss_good: f64,
    /// Frame corruption probability while bad.
    pub loss_bad: f64,
}

impl BurstySpec {
    /// A moderately bursty channel: 2% long-run loss concentrated into
    /// bursts (~200 ms fades every ~2 s, 20% loss inside a fade).
    pub fn moderate() -> BurstySpec {
        BurstySpec {
            mean_good_ms: 2000.0,
            mean_bad_ms: 200.0,
            loss_good: 0.0,
            loss_bad: 0.2,
        }
    }

    /// A harsh channel: half-second fades every two seconds losing 60%.
    pub fn harsh() -> BurstySpec {
        BurstySpec {
            mean_good_ms: 2000.0,
            mean_bad_ms: 500.0,
            loss_good: 0.01,
            loss_bad: 0.6,
        }
    }
}

/// What kind of churn a [`ChurnSpec`] applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnKind {
    /// Full crash: the node's MAC/net stack is torn down for the window
    /// and rebuilt (fresh state) at restart; nothing is sent or heard.
    Crash,
    /// Receiver failure: the node keeps transmitting but hears nothing.
    Deaf,
    /// Transmitter failure: the node hears normally but nothing it sends
    /// is received.
    Mute,
}

impl ChurnKind {
    fn label(self) -> &'static str {
        match self {
            ChurnKind::Crash => "crash",
            ChurnKind::Deaf => "deaf",
            ChurnKind::Mute => "mute",
        }
    }

    fn from_label(s: &str) -> Result<ChurnKind, String> {
        match s {
            "crash" => Ok(ChurnKind::Crash),
            "deaf" => Ok(ChurnKind::Deaf),
            "mute" => Ok(ChurnKind::Mute),
            other => Err(format!("unknown churn kind {other:?}")),
        }
    }
}

/// One scheduled churn window on one node.
#[derive(Clone, Debug, PartialEq)]
pub struct ChurnSpec {
    /// The affected node.
    pub node: u16,
    /// Crash, deaf or mute.
    pub kind: ChurnKind,
    /// Window start, milliseconds of simulation time.
    pub at_ms: u64,
    /// Window length in milliseconds.
    pub for_ms: u64,
}

/// Which channel a jammer attacks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JamTarget {
    /// Noise frames on the data channel.
    Data,
    /// Holds the Receiver Busy Tone channel.
    Rbt,
    /// Holds the Acknowledgment Busy Tone channel.
    Abt,
}

impl JamTarget {
    fn label(self) -> &'static str {
        match self {
            JamTarget::Data => "data",
            JamTarget::Rbt => "rbt",
            JamTarget::Abt => "abt",
        }
    }

    fn from_label(s: &str) -> Result<JamTarget, String> {
        match s {
            "data" => Ok(JamTarget::Data),
            "rbt" => Ok(JamTarget::Rbt),
            "abt" => Ok(JamTarget::Abt),
            other => Err(format!("unknown jam target {other:?}")),
        }
    }
}

/// One stationary jammer emitting periodic bursts.
///
/// Jammers occupy extra channel slots beyond the protocol population, so
/// they collide with real traffic without appearing in any metric
/// denominator.
#[derive(Clone, Debug, PartialEq)]
pub struct JammerSpec {
    /// Position (meters).
    pub x: f64,
    /// Position (meters).
    pub y: f64,
    /// Channel under attack.
    pub target: JamTarget,
    /// First burst, milliseconds of simulation time.
    pub start_ms: u64,
    /// Burst cadence in milliseconds (start-to-start).
    pub period_ms: u64,
    /// Burst length in milliseconds.
    pub burst_ms: u64,
}

/// Constant clock skew on one node's MAC timers.
#[derive(Clone, Debug, PartialEq)]
pub struct SkewSpec {
    /// The affected node.
    pub node: u16,
    /// Parts-per-million error: +100 means timers fire 100 µs/s late.
    pub ppm: f64,
}

/// A complete, declarative description of every fault in one run.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct FaultPlan {
    /// Salt mixed into the fault RNG stream, so the same scenario seed can
    /// be rerun under statistically independent fault draws.
    pub salt: u64,
    /// Per-link bursty loss, if any.
    pub bursty: Option<BurstySpec>,
    /// Scheduled churn windows.
    pub churn: Vec<ChurnSpec>,
    /// Jammer placements.
    pub jammers: Vec<JammerSpec>,
    /// Per-node clock skews.
    pub skew: Vec<SkewSpec>,
}

impl FaultPlan {
    /// The empty plan: attaching it is bit-identical to attaching nothing.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Does the plan contain no faults at all?
    pub fn is_empty(&self) -> bool {
        self.bursty.is_none()
            && self.churn.is_empty()
            && self.jammers.is_empty()
            && self.skew.is_empty()
    }

    /// Does the plan need a PHY-side hook (anything that corrupts frames)?
    pub fn has_phy_faults(&self) -> bool {
        self.bursty.is_some() || !self.churn.is_empty()
    }

    /// Builder: set the bursty-loss spec.
    pub fn with_bursty(mut self, spec: BurstySpec) -> FaultPlan {
        self.bursty = Some(spec);
        self
    }

    /// Builder: add a churn window.
    pub fn with_churn(mut self, spec: ChurnSpec) -> FaultPlan {
        self.churn.push(spec);
        self
    }

    /// Builder: add a jammer.
    pub fn with_jammer(mut self, spec: JammerSpec) -> FaultPlan {
        self.jammers.push(spec);
        self
    }

    /// Builder: add a clock skew.
    pub fn with_skew(mut self, spec: SkewSpec) -> FaultPlan {
        self.skew.push(spec);
        self
    }

    /// Serialize to the plan's JSON dialect.
    pub fn to_json(&self) -> String {
        json::object(|o| self.write_json(o))
    }

    /// The plan's members, written into an object (a manifest's or a
    /// reproducer's embedded plan).
    pub fn write_json(&self, o: &mut json::Obj<'_>) {
        o.u64("salt", self.salt);
        if let Some(b) = &self.bursty {
            o.obj("bursty", |o| {
                o.f64("mean_good_ms", b.mean_good_ms)
                    .f64("mean_bad_ms", b.mean_bad_ms)
                    .f64("loss_good", b.loss_good)
                    .f64("loss_bad", b.loss_bad);
            });
        }
        o.objs("churn", &self.churn, |o, c| {
            o.u64("node", c.node.into())
                .str("kind", c.kind.label())
                .u64("at_ms", c.at_ms)
                .u64("for_ms", c.for_ms);
        })
        .objs("jammers", &self.jammers, |o, j| {
            o.f64("x", j.x)
                .f64("y", j.y)
                .str("target", j.target.label())
                .u64("start_ms", j.start_ms)
                .u64("period_ms", j.period_ms)
                .u64("burst_ms", j.burst_ms);
        })
        .objs("skew", &self.skew, |o, k| {
            o.u64("node", k.node.into()).f64("ppm", k.ppm);
        });
    }

    /// Parse a plan previously produced by [`FaultPlan::to_json`]. Integers
    /// are read exactly: a node id outside `u16`, a negative or fractional
    /// millisecond count or salt is an error naming its key.
    pub fn from_json(text: &str) -> Result<FaultPlan, String> {
        let v = Json::parse(text)?;
        if !matches!(v, Json::Obj(_)) {
            return Err(format!("plan: expected object, got {}", v.render()));
        }
        // `salt`, `bursty` and the three lists may be absent; a present
        // field of the wrong type is an error, never a default.
        let list = |key: &str| match v.get(key) {
            Some(_) => v.arr(key),
            None => Ok(&[][..]),
        };
        let node = |x: &Json| {
            let n = x.uint("node")?;
            u16::try_from(n).map_err(|_| format!("node must be a node id below 65536, got {n}"))
        };
        let mut plan = FaultPlan {
            salt: v.get("salt").map_or(Ok(0), |_| v.uint("salt"))?,
            ..FaultPlan::default()
        };
        if let Some(b) = v.get("bursty") {
            plan.bursty = Some(BurstySpec {
                mean_good_ms: b.num("mean_good_ms")?,
                mean_bad_ms: b.num("mean_bad_ms")?,
                loss_good: b.num("loss_good")?,
                loss_bad: b.num("loss_bad")?,
            });
        }
        for c in list("churn")? {
            plan.churn.push(ChurnSpec {
                node: node(c)?,
                kind: ChurnKind::from_label(c.str("kind")?)?,
                at_ms: c.uint("at_ms")?,
                for_ms: c.uint("for_ms")?,
            });
        }
        for j in list("jammers")? {
            plan.jammers.push(JammerSpec {
                x: j.num("x")?,
                y: j.num("y")?,
                target: JamTarget::from_label(j.str("target")?)?,
                start_ms: j.uint("start_ms")?,
                period_ms: j.uint("period_ms")?,
                burst_ms: j.uint("burst_ms")?,
            });
        }
        for k in list("skew")? {
            plan.skew.push(SkewSpec {
                node: node(k)?,
                ppm: k.num("ppm")?,
            });
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> FaultPlan {
        FaultPlan {
            salt: 7,
            ..FaultPlan::none()
        }
        .with_bursty(BurstySpec::moderate())
        .with_churn(ChurnSpec {
            node: 3,
            kind: ChurnKind::Crash,
            at_ms: 5000,
            for_ms: 2000,
        })
        .with_churn(ChurnSpec {
            node: 9,
            kind: ChurnKind::Deaf,
            at_ms: 1000,
            for_ms: 10_000,
        })
        .with_jammer(JammerSpec {
            x: 50.0,
            y: 50.0,
            target: JamTarget::Rbt,
            start_ms: 5000,
            period_ms: 100,
            burst_ms: 40,
        })
        .with_skew(SkewSpec {
            node: 2,
            ppm: 150.0,
        })
    }

    #[test]
    fn json_roundtrip() {
        let plan = sample_plan();
        let text = plan.to_json();
        let back = FaultPlan::from_json(&text).expect("parse");
        assert_eq!(plan, back);
    }

    #[test]
    fn empty_plan_roundtrips_and_is_empty() {
        let none = FaultPlan::none();
        assert!(none.is_empty());
        assert!(!none.has_phy_faults());
        let back = FaultPlan::from_json(&none.to_json()).expect("parse");
        assert_eq!(none, back);
    }

    #[test]
    fn phy_fault_detection() {
        assert!(FaultPlan::none()
            .with_bursty(BurstySpec::harsh())
            .has_phy_faults());
        assert!(!FaultPlan::none()
            .with_jammer(JammerSpec {
                x: 0.0,
                y: 0.0,
                target: JamTarget::Data,
                start_ms: 0,
                period_ms: 100,
                burst_ms: 10,
            })
            .has_phy_faults());
    }

    #[test]
    fn malformed_plans_are_rejected() {
        for bad in [
            "5",
            "[]",
            "{",
            r#"{"salt":0} trailing"#,
            r#"{"salt":"x"}"#,
            r#"{"salt":true}"#,
            r#"{"bursty":5}"#,
            r#"{"bursty":{"mean_good_ms":1}}"#,
            r#"{"churn":{}}"#,
            r#"{"churn":[5]}"#,
            r#"{"jammers":[{"x":"1"}]}"#,
            r#"{"skew":[{"node":1,"ppm":null}]}"#,
        ] {
            assert!(FaultPlan::from_json(bad).is_err(), "accepted {bad:?}");
        }
        assert_eq!(FaultPlan::from_json("{}"), Ok(FaultPlan::none()));
    }

    #[test]
    fn integers_are_exact_and_hostile_ones_are_errors_naming_their_key() {
        // Read through an f64, this salt came back as ...111680: another
        // loss trajectory.
        let plan = FaultPlan {
            salt: 16_045_690_984_503_111_693,
            ..sample_plan()
        };
        let text = plan.to_json();
        assert!(
            text.starts_with(r#"{"salt":16045690984503111693,"#),
            "{text}"
        );
        assert_eq!(FaultPlan::from_json(&text), Ok(plan));
        let churn = |fields: &str| format!(r#"{{"churn":[{{"kind":"crash",{fields}}}]}}"#);
        for (fields, key) in [
            (r#""node":70000,"at_ms":0,"for_ms":1"#, "node"),
            (r#""node":1,"at_ms":-5,"for_ms":1"#, "at_ms"),
            (r#""node":1,"at_ms":0,"for_ms":1.5"#, "for_ms"),
            (r#""node":1,"at_ms":1e400,"for_ms":1"#, "at_ms"),
        ] {
            let err = FaultPlan::from_json(&churn(fields)).expect_err(fields);
            assert!(err.contains(key), "{fields}: {err}");
        }
        for bad in [
            r#"{"salt":-1}"#,
            r#"{"salt":7.5}"#,
            r#"{"salt":18446744073709551616}"#,
        ] {
            let err = FaultPlan::from_json(bad).expect_err(bad);
            assert!(err.contains("salt"), "{bad}: {err}");
        }
    }

    #[test]
    fn bad_labels_rejected() {
        let text = r#"{"salt":0,"churn":[{"node":1,"kind":"gone","at_ms":0,"for_ms":1}],"jammers":[],"skew":[]}"#;
        assert!(FaultPlan::from_json(text).is_err());
    }
}
