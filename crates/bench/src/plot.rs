//! Minimal SVG line charts for the figure regenerators.
//!
//! The paper's Figs 1/3/4 are per-epoch line plots; the fig binaries write
//! them as self-contained SVG files under `results/` so the reproduction
//! produces actual figures, not just tables.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// Categorical palette (colour-blind-safe Okabe–Ito subset).
const PALETTE: [&str; 8] = [
    "#0072B2", "#E69F00", "#009E73", "#D55E00", "#CC79A7", "#56B4E9", "#F0E442", "#000000",
];

/// A simple multi-series line chart.
///
/// # Example
///
/// ```
/// use adq_bench::plot::LineChart;
///
/// let mut chart = LineChart::new("AD vs epoch", "epoch", "activation density");
/// chart.add_series("layer 0", (1..=5).map(|e| (e as f64, 0.5)).collect());
/// let svg = chart.to_svg();
/// assert!(svg.contains("<svg"));
/// assert!(svg.contains("polyline"));
/// ```
#[derive(Debug, Clone)]
pub struct LineChart {
    title: String,
    x_label: String,
    y_label: String,
    series: Vec<(String, Vec<(f64, f64)>)>,
    width: f64,
    height: f64,
}

impl LineChart {
    /// Creates an empty chart.
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Self {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
            width: 720.0,
            height: 420.0,
        }
    }

    /// Appends one named series; non-finite points are dropped.
    pub fn add_series(&mut self, name: impl Into<String>, points: Vec<(f64, f64)>) {
        let clean: Vec<(f64, f64)> = points
            .into_iter()
            .filter(|(x, y)| x.is_finite() && y.is_finite())
            .collect();
        self.series.push((name.into(), clean));
    }

    fn bounds(&self) -> (f64, f64, f64, f64) {
        let mut min_x = f64::INFINITY;
        let mut max_x = f64::NEG_INFINITY;
        let mut min_y = f64::INFINITY;
        let mut max_y = f64::NEG_INFINITY;
        for (_, points) in &self.series {
            for &(x, y) in points {
                min_x = min_x.min(x);
                max_x = max_x.max(x);
                min_y = min_y.min(y);
                max_y = max_y.max(y);
            }
        }
        if !min_x.is_finite() {
            return (0.0, 1.0, 0.0, 1.0);
        }
        if (max_x - min_x).abs() < f64::EPSILON {
            max_x = min_x + 1.0;
        }
        if (max_y - min_y).abs() < f64::EPSILON {
            max_y = min_y + 1.0;
        }
        (min_x, max_x, min_y, max_y)
    }

    /// Renders the chart as a standalone SVG document.
    pub fn to_svg(&self) -> String {
        let (min_x, max_x, min_y, max_y) = self.bounds();
        let (w, h) = (self.width, self.height);
        let (ml, mr, mt, mb) = (70.0, 150.0, 40.0, 55.0); // margins
        let plot_w = w - ml - mr;
        let plot_h = h - mt - mb;
        let sx = |x: f64| ml + (x - min_x) / (max_x - min_x) * plot_w;
        let sy = |y: f64| mt + (1.0 - (y - min_y) / (max_y - min_y)) * plot_h;

        let mut svg = String::new();
        let _ = write!(
            svg,
            r#"<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}" font-family="sans-serif" font-size="12">"#
        );
        let _ = write!(
            svg,
            r#"<rect width="{w}" height="{h}" fill="white"/><text x="{}" y="22" text-anchor="middle" font-size="15">{}</text>"#,
            ml + plot_w / 2.0,
            xml_escape(&self.title)
        );
        // axes
        let _ = write!(
            svg,
            r#"<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{}" stroke="black"/><line x1="{ml}" y1="{}" x2="{}" y2="{}" stroke="black"/>"#,
            mt + plot_h,
            mt + plot_h,
            ml + plot_w,
            mt + plot_h
        );
        // ticks: 5 per axis
        for i in 0..=4 {
            let fx = min_x + (max_x - min_x) * f64::from(i) / 4.0;
            let fy = min_y + (max_y - min_y) * f64::from(i) / 4.0;
            let _ = write!(
                svg,
                r#"<text x="{:.1}" y="{:.1}" text-anchor="middle">{}</text>"#,
                sx(fx),
                mt + plot_h + 18.0,
                format_tick(fx)
            );
            let _ = write!(
                svg,
                r#"<text x="{:.1}" y="{:.1}" text-anchor="end">{}</text>"#,
                ml - 8.0,
                sy(fy) + 4.0,
                format_tick(fy)
            );
            let _ = write!(
                svg,
                r##"<line x1="{ml}" y1="{:.1}" x2="{:.1}" y2="{:.1}" stroke="#dddddd"/>"##,
                sy(fy),
                ml + plot_w,
                sy(fy)
            );
        }
        // axis labels
        let _ = write!(
            svg,
            r#"<text x="{:.1}" y="{:.1}" text-anchor="middle">{}</text>"#,
            ml + plot_w / 2.0,
            h - 12.0,
            xml_escape(&self.x_label)
        );
        let _ = write!(
            svg,
            r#"<text x="16" y="{:.1}" text-anchor="middle" transform="rotate(-90 16 {:.1})">{}</text>"#,
            mt + plot_h / 2.0,
            mt + plot_h / 2.0,
            xml_escape(&self.y_label)
        );
        // series
        for (i, (name, points)) in self.series.iter().enumerate() {
            let colour = PALETTE[i % PALETTE.len()];
            if !points.is_empty() {
                let path: Vec<String> = points
                    .iter()
                    .map(|&(x, y)| format!("{:.1},{:.1}", sx(x), sy(y)))
                    .collect();
                let _ = write!(
                    svg,
                    r#"<polyline points="{}" fill="none" stroke="{colour}" stroke-width="1.8"/>"#,
                    path.join(" ")
                );
            }
            // legend
            let ly = mt + 14.0 + i as f64 * 18.0;
            let _ = write!(
                svg,
                r#"<line x1="{:.1}" y1="{ly:.1}" x2="{:.1}" y2="{ly:.1}" stroke="{colour}" stroke-width="3"/><text x="{:.1}" y="{:.1}">{}</text>"#,
                ml + plot_w + 10.0,
                ml + plot_w + 34.0,
                ml + plot_w + 40.0,
                ly + 4.0,
                xml_escape(name)
            );
        }
        svg.push_str("</svg>");
        svg
    }

    /// Writes the SVG to `results/<name>.svg`; failures are reported but
    /// not fatal.
    pub fn save(&self, name: &str) {
        let dir = Path::new("results");
        if let Err(err) = fs::create_dir_all(dir) {
            eprintln!("warning: cannot create results dir: {err}");
            return;
        }
        let path = dir.join(format!("{name}.svg"));
        match fs::write(&path, self.to_svg()) {
            Ok(()) => println!("(wrote results/{name}.svg)"),
            Err(err) => eprintln!("warning: cannot write {}: {err}", path.display()),
        }
    }
}

fn format_tick(v: f64) -> String {
    if v.abs() >= 100.0 || (v.fract() == 0.0 && v.abs() < 1e6) {
        format!("{v:.0}")
    } else {
        format!("{v:.2}")
    }
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chart_with_data() -> LineChart {
        let mut c = LineChart::new("t", "x", "y");
        c.add_series("a", vec![(0.0, 0.0), (1.0, 0.5), (2.0, 0.25)]);
        c.add_series("b", vec![(0.0, 1.0), (2.0, 0.0)]);
        c
    }

    #[test]
    fn svg_contains_one_polyline_per_series() {
        let svg = chart_with_data().to_svg();
        assert_eq!(svg.matches("<polyline").count(), 2);
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
    }

    #[test]
    fn empty_chart_still_renders() {
        let svg = LineChart::new("empty", "x", "y").to_svg();
        assert!(svg.contains("<svg"));
        assert_eq!(svg.matches("<polyline").count(), 0);
    }

    #[test]
    fn non_finite_points_are_dropped() {
        let mut c = LineChart::new("t", "x", "y");
        c.add_series("a", vec![(0.0, f64::NAN), (1.0, 1.0), (f64::INFINITY, 2.0)]);
        let svg = c.to_svg();
        assert!(!svg.contains("NaN"));
        assert!(!svg.contains("inf"));
    }

    #[test]
    fn titles_are_escaped() {
        let c = LineChart::new("a < b & c", "x", "y");
        let svg = c.to_svg();
        assert!(svg.contains("a &lt; b &amp; c"));
    }

    #[test]
    fn constant_series_does_not_divide_by_zero() {
        let mut c = LineChart::new("t", "x", "y");
        c.add_series("flat", vec![(0.0, 0.5), (1.0, 0.5)]);
        let svg = c.to_svg();
        assert!(svg.contains("polyline"));
        assert!(!svg.contains("NaN"));
    }
}
