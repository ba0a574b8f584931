//! The regression dashboard: campaign summaries, trend lines, and
//! red/green tiles — as an ASCII report for terminals/CI logs
//! and as one self-contained HTML file (inline CSS + SVG, no external
//! assets) for artifact upload.

use std::fmt::Write as _;

use crate::query::SummaryRow;
use rmac_obs::json::{escape, fmt_f64};

/// One red/green regression tile.
#[derive(Clone, Debug)]
pub struct Tile {
    pub label: String,
    pub ok: bool,
    pub detail: String,
}

/// Derive the dashboard tiles from the campaign rows. (Speed, the live
/// soak included, is tracked by `benchmark/`, not here.)
pub fn tiles(rows: &[SummaryRow]) -> Vec<Tile> {
    let clean = rows.iter().all(|r| r.clean);
    vec![Tile {
        label: "conformance".into(),
        ok: clean && !rows.is_empty(),
        detail: if rows.is_empty() {
            "no campaign rows".into()
        } else if clean {
            format!("{} grid points clean", rows.len())
        } else {
            "violations recorded".into()
        },
    }]
}

/// The trend series behind both renderers: (chart title, unit, named
/// series).
type Chart = (String, &'static str, Vec<(String, Vec<(f64, f64)>)>);

fn charts(rows: &[SummaryRow]) -> Vec<Chart> {
    let mut out: Vec<Chart> = Vec::new();
    // Campaign: delivery vs rate, one series per (protocol, scenario).
    let mut delivery: Vec<(String, Vec<(f64, f64)>)> = Vec::new();
    for r in rows {
        if r.fault != "none" {
            continue;
        }
        let name = format!("{} {}", r.protocol, r.scenario);
        match delivery.iter_mut().find(|(n, _)| *n == name) {
            Some((_, pts)) => pts.push((r.rate, r.delivery.mean)),
            None => delivery.push((name, vec![(r.rate, r.delivery.mean)])),
        }
    }
    if !delivery.is_empty() {
        out.push(("campaign: delivery ratio vs rate".into(), "ratio", delivery));
    }
    out
}

/// Plain-text dashboard for terminals and CI logs.
pub fn render_ascii(rows: &[SummaryRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== regression tiles ==");
    for t in tiles(rows) {
        let _ = writeln!(
            out,
            "  [{}] {:<12} {}",
            if t.ok { "PASS" } else { "FAIL" },
            t.label,
            t.detail
        );
    }
    if !rows.is_empty() {
        let _ = writeln!(out, "\n== campaign summary (mean over seeds) ==");
        let _ = writeln!(
            out,
            "  {:<12} {:<11} {:>6} {:<10} {:>9} {:>9} {:>9} {:>6}",
            "protocol", "scenario", "rate", "fault", "delivery", "delay_ms", "retx", "clean"
        );
        for r in rows {
            let _ = writeln!(
                out,
                "  {:<12} {:<11} {:>6} {:<10} {:>9.4} {:>9.2} {:>9.4} {:>6}",
                r.protocol,
                r.scenario,
                fmt_f64(r.rate),
                r.fault,
                r.delivery.mean,
                r.delay_s.mean * 1e3,
                r.retx_ratio.mean,
                if r.clean { "yes" } else { "NO" }
            );
        }
    }
    for (title, unit, named) in charts(rows) {
        let _ = writeln!(out, "\n== {title} ==");
        for (name, pts) in named {
            let vals = pts
                .iter()
                .map(|(x, y)| format!("({}, {y:.4}{unit})", fmt_f64(*x)))
                .collect::<Vec<_>>()
                .join(" ");
            let _ = writeln!(out, "  {name:<20} {vals}");
        }
    }
    out
}

/// An inline-SVG polyline chart.
fn svg_chart(title: &str, unit: &str, named: &[(String, Vec<(f64, f64)>)]) -> String {
    const W: f64 = 460.0;
    const H: f64 = 180.0;
    const PAD: f64 = 34.0;
    const COLORS: [&str; 6] = [
        "#2563eb", "#dc2626", "#059669", "#d97706", "#7c3aed", "#0891b2",
    ];
    let all: Vec<(f64, f64)> = named.iter().flat_map(|(_, p)| p.iter().copied()).collect();
    if all.is_empty() {
        return String::new();
    }
    let (mut x0, mut x1, mut y0, mut y1) = (f64::MAX, f64::MIN, f64::MAX, f64::MIN);
    for (x, y) in &all {
        x0 = x0.min(*x);
        x1 = x1.max(*x);
        y0 = y0.min(*y);
        y1 = y1.max(*y);
    }
    if x1 == x0 {
        x1 = x0 + 1.0;
    }
    if y1 == y0 {
        y1 = y0 + 1.0;
    }
    let sx = |x: f64| PAD + (x - x0) / (x1 - x0) * (W - 2.0 * PAD);
    let sy = |y: f64| H - PAD - (y - y0) / (y1 - y0) * (H - 2.0 * PAD);
    let mut s = format!(
        "<div class=\"chart\"><h3>{}</h3><svg viewBox=\"0 0 {W} {H}\" width=\"{W}\" \
         height=\"{H}\">",
        escape(title)
    );
    let _ = write!(
        s,
        "<rect x=\"{PAD}\" y=\"{p}\" width=\"{w}\" height=\"{h}\" fill=\"none\" \
         stroke=\"#cbd5e1\"/>",
        p = PAD,
        w = W - 2.0 * PAD,
        h = H - 2.0 * PAD
    );
    let _ = write!(
        s,
        "<text x=\"{PAD}\" y=\"{y}\" class=\"ax\">{}</text>\
         <text x=\"{PAD}\" y=\"{p}\" class=\"ax\">{}</text>",
        format_args!("{y0:.3}{unit}"),
        format_args!("{y1:.3}{unit}"),
        y = H - PAD + 14.0,
        p = PAD - 6.0,
    );
    let _ = write!(
        s,
        "<text x=\"{x}\" y=\"{y}\" class=\"ax\" text-anchor=\"end\">{} … {}</text>",
        fmt_f64(x0),
        fmt_f64(x1),
        x = W - PAD,
        y = H - PAD + 14.0,
    );
    for (i, (name, pts)) in named.iter().enumerate() {
        if pts.is_empty() {
            continue;
        }
        let color = COLORS[i % COLORS.len()];
        let path = pts
            .iter()
            .map(|(x, y)| format!("{:.1},{:.1}", sx(*x), sy(*y)))
            .collect::<Vec<_>>()
            .join(" ");
        let _ = write!(
            s,
            "<polyline points=\"{path}\" fill=\"none\" stroke=\"{color}\" stroke-width=\"2\"/>"
        );
        for (x, y) in pts {
            let _ = write!(
                s,
                "<circle cx=\"{:.1}\" cy=\"{:.1}\" r=\"2.5\" fill=\"{color}\"/>",
                sx(*x),
                sy(*y)
            );
        }
        let _ = write!(
            s,
            "<text x=\"{x}\" y=\"{y}\" fill=\"{color}\" class=\"lg\">{}</text>",
            escape(name),
            x = W - PAD + 4.0 - 120.0,
            y = PAD + 14.0 * (i as f64 + 1.0),
        );
    }
    s.push_str("</svg></div>");
    s
}

/// The self-contained HTML dashboard (inline CSS + SVG, no external
/// assets — safe to upload as a single CI artifact).
pub fn render_html(name: &str, rows: &[SummaryRow]) -> String {
    let mut body = String::new();
    body.push_str("<div class=\"tiles\">");
    for t in tiles(rows) {
        let _ = write!(
            body,
            "<div class=\"tile {}\"><b>{}</b><span>{}</span></div>",
            if t.ok { "ok" } else { "bad" },
            escape(&t.label),
            escape(&t.detail)
        );
    }
    body.push_str("</div>");
    if !rows.is_empty() {
        body.push_str(
            "<h2>Campaign summary</h2><table><tr><th>protocol</th><th>scenario</th>\
             <th>rate</th><th>fault</th><th>delivery</th><th>p95</th><th>delay ms</th>\
             <th>retx</th><th>clean</th></tr>",
        );
        for r in rows {
            let _ = write!(
                body,
                "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{:.4}</td>\
                 <td>{:.4}</td><td>{:.2}</td><td>{:.4}</td><td class=\"{}\">{}</td></tr>",
                escape(&r.protocol),
                escape(&r.scenario),
                fmt_f64(r.rate),
                escape(&r.fault),
                r.delivery.mean,
                r.delivery.p95,
                r.delay_s.mean * 1e3,
                r.retx_ratio.mean,
                if r.clean { "ok" } else { "bad" },
                if r.clean { "yes" } else { "NO" },
            );
        }
        body.push_str("</table>");
    }
    body.push_str("<h2>Trends</h2>");
    for (title, unit, named) in charts(rows) {
        body.push_str(&svg_chart(&title, unit, &named));
    }
    format!(
        "<!doctype html><html><head><meta charset=\"utf-8\"><title>rmac campaign: {name}</title>\
<style>
body{{font:14px/1.5 system-ui,sans-serif;margin:24px;color:#0f172a}}
h1{{font-size:20px}}h2{{font-size:16px;margin-top:28px}}h3{{font-size:13px;margin:8px 0}}
.tiles{{display:flex;gap:10px;flex-wrap:wrap}}
.tile{{border-radius:8px;padding:10px 14px;min-width:150px;color:#fff}}
.tile b{{display:block}}.tile span{{font-size:12px;opacity:.9}}
.tile.ok{{background:#059669}}.tile.bad{{background:#dc2626}}
table{{border-collapse:collapse;margin-top:8px}}
td,th{{border:1px solid #cbd5e1;padding:3px 9px;text-align:right}}
th{{background:#f1f5f9}}td:first-child,td:nth-child(2),td:nth-child(4){{text-align:left}}
td.ok{{color:#059669}}td.bad{{color:#dc2626;font-weight:600}}
.chart{{display:inline-block;margin:8px 16px 8px 0;vertical-align:top}}
.ax{{font-size:10px;fill:#64748b}}.lg{{font-size:11px}}
</style></head><body><h1>rmac campaign dashboard: {name}</h1>{body}</body></html>\n",
        name = escape(name),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Agg;

    fn row(protocol: &str, rate: f64, delivery: f64) -> SummaryRow {
        let agg = |v: f64| Agg {
            n: 2,
            mean: v,
            p50: v,
            p95: v,
        };
        SummaryRow {
            protocol: protocol.into(),
            scenario: "stationary".into(),
            rate,
            fault: "none".into(),
            delivery: agg(delivery),
            delay_s: agg(0.01),
            retx_ratio: agg(0.2),
            txoh_ratio: agg(1.0),
            clean: true,
        }
    }

    #[test]
    fn tiles_go_green_on_healthy_inputs() {
        let rows = vec![row("RMAC", 20.0, 0.99)];
        let ts = tiles(&rows);
        assert!(!ts.is_empty() && ts.iter().all(|t| t.ok), "{ts:?}");
        assert!(!render_ascii(&rows).contains("FAIL"));
        assert!(!render_html("x", &rows).contains("tile bad"));
    }

    #[test]
    fn renders_ascii_and_html() {
        let rows = vec![row("RMAC", 20.0, 0.99), row("BMMM", 20.0, 0.90)];
        let ascii = render_ascii(&rows);
        assert!(ascii.contains("regression tiles"));
        assert!(ascii.contains("delivery ratio vs rate"));
        assert!(ascii.contains("RMAC"));
        let html = render_html("paper-figures", &rows);
        assert!(html.starts_with("<!doctype html>"));
        assert!(html.contains("<svg"));
        assert!(html.contains("polyline"));
        assert!(html.contains("paper-figures"));
        // Self-contained: no external references.
        assert!(!html.contains("http://") && !html.contains("https://"));
    }

    #[test]
    fn an_empty_or_unclean_store_fails_its_tile() {
        assert!(tiles(&[]).iter().all(|t| !t.ok));
        assert!(render_ascii(&[]).contains("FAIL"));
        let mut bad = row("RMAC", 20.0, 0.99);
        bad.clean = false;
        assert!(render_html("x", &[bad]).contains("tile bad"));
    }
}
