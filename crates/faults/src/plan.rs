//! The declarative fault plan and its JSON form.

use rmac_wire::json::{fmt_f64, Json};
use std::fmt::Write as _;

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
        let num = |v: u64| fmt_f64(v as f64);
        let label = |l: &str| format!("\"{l}\"");
        let mut s = format!("{{\"salt\":{}", num(self.salt));
        if let Some(b) = &self.bursty {
            s.push_str(",\"bursty\":");
            let fields = [
                ("mean_good_ms", b.mean_good_ms),
                ("mean_bad_ms", b.mean_bad_ms),
                ("loss_good", b.loss_good),
                ("loss_bad", b.loss_bad),
            ];
            push_obj(&mut s, &fields.map(|(key, v)| (key, fmt_f64(v))));
        }
        push_list(&mut s, "churn", &self.churn, |c| {
            vec![
                ("node", num(c.node.into())),
                ("kind", label(c.kind.label())),
                ("at_ms", num(c.at_ms)),
                ("for_ms", num(c.for_ms)),
            ]
        });
        push_list(&mut s, "jammers", &self.jammers, |j| {
            vec![
                ("x", fmt_f64(j.x)),
                ("y", fmt_f64(j.y)),
                ("target", label(j.target.label())),
                ("start_ms", num(j.start_ms)),
                ("period_ms", num(j.period_ms)),
                ("burst_ms", num(j.burst_ms)),
            ]
        });
        push_list(&mut s, "skew", &self.skew, |k| {
            vec![("node", num(k.node.into())), ("ppm", fmt_f64(k.ppm))]
        });
        s.push('}');
        s
    }

    /// Parse a plan previously produced by [`FaultPlan::to_json`].
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
        let mut plan = FaultPlan {
            salt: v.get("salt").map_or(Ok(0.0), |_| v.num("salt"))? as u64,
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
                node: c.num("node")? as u16,
                kind: ChurnKind::from_label(c.str("kind")?)?,
                at_ms: c.num("at_ms")? as u64,
                for_ms: c.num("for_ms")? as u64,
            });
        }
        for j in list("jammers")? {
            plan.jammers.push(JammerSpec {
                x: j.num("x")?,
                y: j.num("y")?,
                target: JamTarget::from_label(j.str("target")?)?,
                start_ms: j.num("start_ms")? as u64,
                period_ms: j.num("period_ms")? as u64,
                burst_ms: j.num("burst_ms")? as u64,
            });
        }
        for k in list("skew")? {
            plan.skew.push(SkewSpec {
                node: k.num("node")? as u16,
                ppm: k.num("ppm")?,
            });
        }
        Ok(plan)
    }
}

/// Append `{"key":value,…}` from already rendered values.
fn push_obj(s: &mut String, fields: &[(&str, String)]) {
    for (i, (key, value)) in fields.iter().enumerate() {
        s.push(if i == 0 { '{' } else { ',' });
        let _ = write!(s, "\"{key}\":{value}");
    }
    s.push('}');
}

/// Append `,"key":[{…},…]`, one object per item.
fn push_list<T>(
    s: &mut String,
    key: &str,
    items: &[T],
    fields: impl Fn(&T) -> Vec<(&'static str, String)>,
) {
    let _ = write!(s, ",\"{key}\":[");
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        push_obj(s, &fields(item));
    }
    s.push(']');
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
    fn bad_labels_rejected() {
        let text = r#"{"salt":0,"churn":[{"node":1,"kind":"gone","at_ms":0,"for_ms":1}],"jammers":[],"skew":[]}"#;
        assert!(FaultPlan::from_json(text).is_err());
    }
}
