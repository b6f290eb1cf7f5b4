//! Point-in-time capture of a registry, with JSON and CSV export.
//!
//! The writers are hand-rolled (the crate has zero dependencies) and
//! follow the same conventions as `tonos-core`'s `export` module: a
//! stable field order, `null` for unavailable numeric values, and CSV
//! rows flat enough to load into a spreadsheet or pandas without custom
//! parsing.

use std::io::Write;
use std::time::Duration;

use crate::journal::Event;

/// One counter's value at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterValue {
    /// Instrument name.
    pub name: String,
    /// Accumulated count.
    pub value: u64,
}

/// One gauge's value at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeValue {
    /// Instrument name.
    pub name: String,
    /// Current level.
    pub value: f64,
}

/// One bucket of a histogram summary.
#[derive(Debug, Clone, PartialEq)]
pub struct BucketCount {
    /// Inclusive upper bound; `None` marks the overflow bucket.
    pub upper: Option<f64>,
    /// Observations in this bucket.
    pub count: u64,
}

/// One histogram's distribution at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Instrument name.
    pub name: String,
    /// Number of observations.
    pub count: u64,
    /// Sum of finite observations.
    pub sum: f64,
    /// Smallest finite observation.
    pub min: Option<f64>,
    /// Largest finite observation.
    pub max: Option<f64>,
    /// Estimated median.
    pub p50: Option<f64>,
    /// Estimated 95th percentile.
    pub p95: Option<f64>,
    /// Estimated 99th percentile.
    pub p99: Option<f64>,
    /// Per-bucket counts, overflow last.
    pub buckets: Vec<BucketCount>,
}

impl HistogramSummary {
    /// Mean of finite observations, if any were recorded.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Estimates the `q`-quantile (`0.0..=1.0`) by linear interpolation
    /// inside the bucket containing the requested rank — the same
    /// fixed-bucket estimator
    /// [`HistogramCore::quantile`](crate::HistogramCore::quantile)
    /// applies to live state, usable on any snapshot (including rolled-up
    /// summaries whose live core is long gone). This is what renders the
    /// p50/p90/p99 quantile lines of the Prometheus exposition.
    ///
    /// Conventions match the core estimator: the first bucket's lower
    /// edge is `min(0, first bound)`; ranks landing in the overflow
    /// bucket return the observed maximum (falling back to the last
    /// finite bound when no finite value was ever recorded). Returns
    /// `None` while the summary is empty.
    ///
    /// # Panics
    ///
    /// Panics when `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        let total: u64 = self.buckets.iter().map(|b| b.count).sum();
        if total == 0 {
            return None;
        }
        // Rank in [1, total]: the k-th smallest observation.
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        let mut prev_upper: Option<f64> = None;
        for b in &self.buckets {
            if b.count > 0 && cum + b.count >= rank {
                let Some(hi) = b.upper else {
                    // Overflow bucket: the best point estimate we have.
                    return self.max.or(prev_upper);
                };
                let lo = prev_upper.unwrap_or_else(|| 0f64.min(hi));
                let within = (rank - cum) as f64 / b.count as f64;
                return Some(lo + (hi - lo) * within);
            }
            cum += b.count;
            if b.upper.is_some() {
                prev_upper = b.upper;
            }
        }
        None
    }
}

/// Serializable capture of every instrument and the journal.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// Registry-clock time at capture.
    pub uptime: Duration,
    /// All counters, sorted by name.
    pub counters: Vec<CounterValue>,
    /// All gauges, sorted by name.
    pub gauges: Vec<GaugeValue>,
    /// All histograms, sorted by name.
    pub histograms: Vec<HistogramSummary>,
    /// Retained journal events, oldest first.
    pub events: Vec<Event>,
    /// Events ever journaled, including evicted ones.
    pub total_events: u64,
    /// Events evicted by the ring buffer.
    pub dropped_events: u64,
}

impl TelemetrySnapshot {
    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// Looks up a histogram summary by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Renders the snapshot as a JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        out.push_str(&format!(
            "  \"uptime_s\": {},\n",
            json_f64(self.uptime.as_secs_f64())
        ));

        out.push_str("  \"counters\": {");
        for (i, c) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {}", json_escape(&c.name), c.value));
        }
        out.push_str(if self.counters.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });

        out.push_str("  \"gauges\": {");
        for (i, g) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    \"{}\": {}",
                json_escape(&g.name),
                json_f64(g.value)
            ));
        }
        out.push_str(if self.gauges.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });

        out.push_str("  \"histograms\": [");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"name\": \"{}\", \"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                 \"p50\": {}, \"p95\": {}, \"p99\": {}, \"buckets\": [",
                json_escape(&h.name),
                h.count,
                json_f64(h.sum),
                fmt_opt_f64(h.min),
                fmt_opt_f64(h.max),
                fmt_opt_f64(h.p50),
                fmt_opt_f64(h.p95),
                fmt_opt_f64(h.p99),
            ));
            for (j, b) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!(
                    "{{\"le\": {}, \"count\": {}}}",
                    fmt_opt_f64(b.upper),
                    b.count
                ));
            }
            out.push_str("]}");
        }
        out.push_str(if self.histograms.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });

        out.push_str("  \"events\": [");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"seq\": {}, \"t_s\": {}, \"severity\": \"{}\", \"source\": \"{}\", \
                 \"message\": \"{}\"}}",
                e.seq,
                json_f64(e.at.as_secs_f64()),
                e.severity.as_str(),
                json_escape(e.source),
                json_escape(&e.message),
            ));
        }
        out.push_str(if self.events.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });

        out.push_str(&format!("  \"total_events\": {},\n", self.total_events));
        out.push_str(&format!("  \"dropped_events\": {}\n", self.dropped_events));
        out.push_str("}\n");
        out
    }

    /// Writes the snapshot as flat CSV: `kind,name,field,value` rows.
    pub fn write_csv<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        writeln!(w, "kind,name,field,value")?;
        writeln!(
            w,
            "meta,registry,uptime_s,{}",
            json_f64(self.uptime.as_secs_f64())
        )?;
        writeln!(w, "meta,registry,total_events,{}", self.total_events)?;
        writeln!(w, "meta,registry,dropped_events,{}", self.dropped_events)?;
        for c in &self.counters {
            writeln!(w, "counter,{},value,{}", csv_escape(&c.name), c.value)?;
        }
        for g in &self.gauges {
            writeln!(
                w,
                "gauge,{},value,{}",
                csv_escape(&g.name),
                json_f64(g.value)
            )?;
        }
        for h in &self.histograms {
            let name = csv_escape(&h.name);
            writeln!(w, "histogram,{name},count,{}", h.count)?;
            writeln!(w, "histogram,{name},sum,{}", json_f64(h.sum))?;
            for (field, value) in [
                ("min", h.min),
                ("max", h.max),
                ("p50", h.p50),
                ("p95", h.p95),
                ("p99", h.p99),
            ] {
                writeln!(w, "histogram,{name},{field},{}", fmt_opt_f64(value))?;
            }
        }
        for e in &self.events {
            writeln!(
                w,
                "event,{},{}@{},{}",
                csv_escape(e.source),
                e.severity.as_str(),
                json_f64(e.at.as_secs_f64()),
                csv_escape(&e.message),
            )?;
        }
        Ok(())
    }
}

/// Formats a float for JSON/CSV: finite values via Rust's shortest
/// round-trip formatting, non-finite as `null`.
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn fmt_opt_f64(v: Option<f64>) -> String {
    v.map_or_else(|| "null".to_string(), json_f64)
}

/// Escapes a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Escapes a CSV field: commas, quotes, and newlines force quoting.
fn csv_escape(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::Severity;

    fn sample() -> TelemetrySnapshot {
        TelemetrySnapshot {
            uptime: Duration::from_millis(1500),
            counters: vec![CounterValue {
                name: "frames".into(),
                value: 42,
            }],
            gauges: vec![GaugeValue {
                name: "power_w".into(),
                value: 0.0115,
            }],
            histograms: vec![HistogramSummary {
                name: "beat_s".into(),
                count: 2,
                sum: 1.6,
                min: Some(0.7),
                max: Some(0.9),
                p50: Some(0.7),
                p95: Some(0.9),
                p99: Some(0.9),
                buckets: vec![
                    BucketCount {
                        upper: Some(1.0),
                        count: 2,
                    },
                    BucketCount {
                        upper: None,
                        count: 0,
                    },
                ],
            }],
            events: vec![Event {
                seq: 0,
                at: Duration::from_millis(900),
                severity: Severity::Critical,
                source: "analyzer",
                message: "hypertension, MAP 130 mmHg".into(),
            }],
            total_events: 1,
            dropped_events: 0,
        }
    }

    #[test]
    fn lookups_find_instruments_by_name() {
        let s = sample();
        assert_eq!(s.counter("frames"), Some(42));
        assert_eq!(s.counter("missing"), None);
        assert_eq!(s.gauge("power_w"), Some(0.0115));
        assert_eq!(s.histogram("beat_s").unwrap().count, 2);
        assert_eq!(s.histogram("beat_s").unwrap().mean(), Some(0.8));
    }

    #[test]
    fn json_contains_every_section() {
        let json = sample().to_json();
        assert!(json.contains("\"uptime_s\": 1.5"));
        assert!(json.contains("\"frames\": 42"));
        assert!(json.contains("\"power_w\": 0.0115"));
        assert!(json.contains("\"p95\": 0.9"));
        assert!(json.contains("\"le\": null"));
        assert!(json.contains("\"severity\": \"critical\""));
        assert!(json.contains("hypertension, MAP 130 mmHg"));
        // Braces balance (cheap structural sanity check).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn csv_rows_are_flat_and_quoted() {
        let mut buf = Vec::new();
        sample().write_csv(&mut buf).unwrap();
        let csv = String::from_utf8(buf).unwrap();
        assert!(csv.starts_with("kind,name,field,value\n"));
        assert!(csv.contains("counter,frames,value,42\n"));
        assert!(csv.contains("histogram,beat_s,p50,0.7\n"));
        // The comma in the message forces quoting.
        assert!(csv.contains("\"hypertension, MAP 130 mmHg\""));
    }

    fn summary_from(bounds: &[f64], counts: &[u64], max: Option<f64>) -> HistogramSummary {
        assert_eq!(counts.len(), bounds.len() + 1, "overflow bucket last");
        HistogramSummary {
            name: "h".into(),
            count: counts.iter().sum(),
            sum: 0.0,
            min: None,
            max,
            p50: None,
            p95: None,
            p99: None,
            buckets: bounds
                .iter()
                .map(|&b| Some(b))
                .chain(std::iter::once(None))
                .zip(counts.iter().copied())
                .map(|(upper, count)| BucketCount { upper, count })
                .collect(),
        }
    }

    #[test]
    fn empty_summary_has_no_quantiles() {
        let s = summary_from(&[1.0, 2.0], &[0, 0, 0], None);
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.quantile(0.99), None);
    }

    #[test]
    fn single_bucket_summary_interpolates_from_zero() {
        // 4 observations, all in the one bucket (0, 10]: rank k of 4
        // lands at 10·k/4.
        let s = summary_from(&[10.0], &[4, 0], Some(9.0));
        assert!((s.quantile(0.5).unwrap() - 5.0).abs() < 1e-12);
        assert!((s.quantile(1.0).unwrap() - 10.0).abs() < 1e-12);
        // q = 0 clamps to rank 1.
        assert!((s.quantile(0.0).unwrap() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn overflow_bucket_quantile_reports_observed_max() {
        let s = summary_from(&[1.0], &[1, 3], Some(250.0));
        assert_eq!(s.quantile(0.99), Some(250.0));
        // Without a recorded max (only non-finite observations landed
        // there), fall back to the last finite bound.
        let s = summary_from(&[1.0], &[0, 2], None);
        assert_eq!(s.quantile(0.5), Some(1.0));
    }

    #[test]
    fn summary_quantiles_cross_buckets_like_the_core_estimator() {
        // Mirror of the HistogramCore cross-bucket test: 25 observations
        // in each of the four buckets (0,1], (1,2], (2,3], (3,4].
        let s = summary_from(&[1.0, 2.0, 3.0, 4.0], &[25, 25, 25, 25, 0], Some(3.5));
        assert!((s.quantile(0.5).unwrap() - 2.0).abs() < 1e-12);
        assert!((s.quantile(0.90).unwrap() - 3.6).abs() < 1e-12);
        assert!((s.quantile(0.95).unwrap() - 3.8).abs() < 1e-12);
        assert!((s.quantile(0.99).unwrap() - 3.96).abs() < 1e-12);
    }

    #[test]
    fn non_finite_values_serialize_as_null() {
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(fmt_opt_f64(None), "null");
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
