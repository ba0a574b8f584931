//! Spans around the calls the benchmark makes into the program.
//!
//! Every span has a name, a start, an end and the span that caused it; all
//! spans of one workload run share the workload's name as identifier. They
//! are kept in memory and written out once, when the run ends. Spans live
//! in the benchmark only: the program is measured from outside.

use std::time::Instant;

use crate::json::Json;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counts taken at this boundary (events, packets, cases, ...).
    pub counts: Vec<(String, f64)>,
}

/// The spans of one process, in the order they were opened.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            counts: Vec::new(),
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (and any span opened inside it and left open).
    pub fn end(&mut self, id: usize) {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Run `f` inside a span and return its result with the seconds it took.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        let s = &self.spans[id];
        (out, (s.end_ns - s.start_ns) as f64 * 1e-9)
    }

    /// Attach a count to span `id`: what crossed that boundary.
    pub fn count(&mut self, id: usize, what: &str, value: f64) {
        self.spans[id].counts.push((what.to_string(), value));
    }

    /// Adopt the spans another process recorded, as children of span
    /// `under`, placed on this process's clock at `under`'s start.
    pub fn adopt(&mut self, under: usize, child: &[Span]) {
        let base = self.spans.len();
        let shift = self.spans[under].start_ns;
        for s in child {
            self.spans.push(Span {
                id: base + s.id,
                parent: Some(s.parent.map_or(under, |p| base + p)),
                name: s.name.clone(),
                start_ns: shift + s.start_ns,
                end_ns: shift + s.end_ns,
                counts: s.counts.clone(),
            });
        }
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }
}

/// A span's self time: its duration minus the part of it its direct
/// children cover (overlapping children are counted once).
pub fn self_time_ns(spans: &[Span], id: usize) -> u64 {
    let me = &spans[id];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut reach = me.start_ns;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    (me.end_ns - me.start_ns).saturating_sub(covered)
}

pub fn span_to_json(s: &Span) -> Json {
    Json::obj([
        ("id", Json::Num(s.id as f64)),
        (
            "parent",
            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
        ),
        ("name", Json::str(&*s.name)),
        ("start_ns", Json::Num(s.start_ns as f64)),
        ("end_ns", Json::Num(s.end_ns as f64)),
        (
            "counts",
            Json::Obj(
                s.counts
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v)))
                    .collect(),
            ),
        ),
    ])
}

pub fn span_from_json(doc: &Json) -> Option<Span> {
    Some(Span {
        id: doc.f64("id")? as usize,
        parent: doc.f64("parent").map(|p| p as usize),
        name: doc.str_of("name")?.to_string(),
        start_ns: doc.f64("start_ns")? as u64,
        end_ns: doc.f64("end_ns")? as u64,
        counts: doc
            .get("counts")
            .map_or(&[][..], Json::fields)
            .iter()
            .filter_map(|(k, v)| match v {
                Json::Num(n) => Some((k.clone(), *n)),
                _ => None,
            })
            .collect(),
    })
}

/// The trace file: one JSON object per line and span, with the workload as
/// the identifier all of a run's spans share, and each span's self time.
pub fn to_jsonl(workload: &str, spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let mut doc = span_to_json(s);
        if let Json::Obj(fields) = &mut doc {
            fields.insert(0, ("workload".into(), Json::str(workload)));
            fields.push((
                "self_ns".into(),
                Json::Num(self_time_ns(spans, s.id) as f64),
            ));
        }
        out.push_str(&doc.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            start_ns,
            end_ns,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        // root 0..100; children 10..30 and 20..50 overlap (cover 10..50),
        // a third 70..80; a grandchild must not be subtracted from the root.
        let tree = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 20, 50),
            span(3, Some(0), 70, 80),
            span(4, Some(1), 12, 18),
        ];
        assert_eq!(self_time_ns(&tree, 0), 100 - 40 - 10);
        assert_eq!(self_time_ns(&tree, 1), 20 - 6);
        assert_eq!(self_time_ns(&tree, 2), 30);
        assert_eq!(self_time_ns(&tree, 4), 6);
    }

    #[test]
    fn child_coverage_is_clipped_to_the_parent() {
        let tree = vec![span(0, None, 10, 20), span(1, Some(0), 0, 15)];
        assert_eq!(self_time_ns(&tree, 0), 5);
    }

    #[test]
    fn spans_nest_under_the_innermost_open_span() {
        let mut spans = Spans::new();
        let outer = spans.begin("outer");
        let (value, secs) = spans.time("inner", || 7);
        spans.count(1, "events", 3.0);
        spans.end(outer);
        assert_eq!(value, 7);
        assert!(secs >= 0.0);
        let all = spans.all();
        assert_eq!(all[1].parent, Some(outer));
        assert_eq!(all[0].parent, None);
        assert!(all[0].end_ns >= all[1].end_ns);
        assert_eq!(all[1].counts, vec![("events".to_string(), 3.0)]);
    }

    #[test]
    fn adopted_spans_keep_their_shape_under_the_new_parent() {
        let mut parent = Spans::new();
        let slot = parent.begin("child_process");
        parent.end(slot);
        let child = vec![span(0, None, 0, 50), span(1, Some(0), 5, 25)];
        parent.adopt(slot, &child);
        let all = parent.all();
        assert_eq!(all[1].parent, Some(slot));
        assert_eq!(all[2].parent, Some(1));
        assert_eq!(all[2].start_ns - all[1].start_ns, 5);
    }

    #[test]
    fn spans_survive_the_trip_through_json() {
        let mut s = span(3, Some(1), 5, 9);
        s.counts.push(("events".into(), 12.0));
        assert_eq!(span_from_json(&span_to_json(&s)), Some(s));
        let line = to_jsonl("w", &[span(0, None, 0, 4)]);
        let doc = Json::parse(line.trim_end()).unwrap();
        assert_eq!(doc.str_of("workload"), Some("w"));
        assert_eq!(doc.f64("self_ns"), Some(4.0));
    }
}
