//! Hand-rolled OpenMetrics / Prometheus text exporter and parser.
//!
//! Like [`crate::chrome`], this module speaks an external tool format
//! without any dependency: [`render`] turns an [`Observatory`] into the
//! OpenMetrics text exposition format (`# TYPE` lines, `_total`
//! counters, `_bucket{le="..."}` histograms, labeled device gauges,
//! terminated by `# EOF`), and [`Exposition::parse`] reads that text
//! back. Output is deterministic — metric families render in sorted
//! name order with a stable number format — and round-trips exactly:
//! `parse(render(x)).render() == render(x)` byte for byte.

use std::fmt;

use crate::metrics::Histogram;
use crate::observatory::Observatory;

/// A parse failure: the offending line and what went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenMetricsError {
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for OpenMetricsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "openmetrics parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for OpenMetricsError {}

/// One sample line: a metric name, its labels, and a value.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Full sample name (family name plus any `_total`/`_bucket` suffix).
    pub name: String,
    /// Label pairs in render order.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

/// One metric family: a `# TYPE` declaration and its samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Family {
    /// Family name as declared in the `# TYPE` line.
    pub name: String,
    /// Metric kind: `counter`, `gauge`, `histogram`, or `untyped`.
    pub kind: String,
    /// Samples in render order.
    pub samples: Vec<Sample>,
}

/// A full exposition: ordered metric families.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Exposition {
    /// Families in render order.
    pub families: Vec<Family>,
}

/// Maps a metric name to the OpenMetrics charset: `[a-zA-Z0-9_:]`,
/// everything else becomes `_`, with a leading `_` if the name would
/// start with a digit.
fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphanumeric() || c == '_' || c == ':';
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
        }
        out.push(if ok { c } else { '_' });
    }
    out
}

/// Stable value formatting: non-finite values render as `0` (matching
/// the crate's JSON writer), everything else uses Rust's shortest
/// round-trip float representation, so `parse ∘ render` is exact.
fn fmt_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

impl Sample {
    fn plain(name: impl Into<String>, value: f64) -> Self {
        Sample {
            name: name.into(),
            labels: Vec::new(),
            value,
        }
    }

    fn labeled(name: impl Into<String>, labels: &[(&str, &str)], value: f64) -> Self {
        Sample {
            name: name.into(),
            labels: labels
                .iter()
                .map(|&(k, v)| (k.to_owned(), v.to_owned()))
                .collect(),
            value,
        }
    }
}

impl Exposition {
    /// Builds the exposition for an observatory: its registry counters
    /// and gauges, every latency histogram, and the per-device online
    /// profiles as labeled families.
    fn from_observatory(obs: &Observatory) -> Self {
        let mut families = Vec::new();

        for (name, value) in obs.metrics().counters() {
            let base = sanitize_name(name);
            families.push(Family {
                name: base.clone(),
                kind: "counter".to_owned(),
                samples: vec![Sample::plain(format!("{base}_total"), value)],
            });
        }

        for (name, series) in obs.metrics().gauges() {
            if let Some(&(_, last)) = series.last() {
                let base = sanitize_name(name);
                families.push(Family {
                    name: base.clone(),
                    kind: "gauge".to_owned(),
                    samples: vec![Sample::plain(base, last)],
                });
            }
        }

        for (name, hist) in obs.histograms() {
            families.push(histogram_family(&sanitize_name(name), hist));
        }

        families.extend(device_families(obs));
        Exposition { families }
    }

    /// Looks up a family by name.
    pub fn family(&self, name: &str) -> Option<&Family> {
        self.families.iter().find(|f| f.name == name)
    }

    /// The value of the sample with this exact name and label set, if
    /// present anywhere in the exposition.
    pub fn sample_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.families
            .iter()
            .flat_map(|f| &f.samples)
            .find(|s| {
                s.name == name
                    && s.labels.len() == labels.len()
                    && s.labels
                        .iter()
                        .zip(labels)
                        .all(|((k, v), &(lk, lv))| k == lk && v == lv)
            })
            .map(|s| s.value)
    }

    /// Renders the OpenMetrics text format, terminated by `# EOF`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for fam in &self.families {
            out.push_str("# TYPE ");
            out.push_str(&fam.name);
            out.push(' ');
            out.push_str(&fam.kind);
            out.push('\n');
            for s in &fam.samples {
                out.push_str(&s.name);
                if !s.labels.is_empty() {
                    out.push('{');
                    for (i, (k, v)) in s.labels.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push_str(k);
                        out.push_str("=\"");
                        out.push_str(&escape_label(v));
                        out.push('"');
                    }
                    out.push('}');
                }
                out.push(' ');
                out.push_str(&fmt_value(s.value));
                out.push('\n');
            }
        }
        out.push_str("# EOF\n");
        out
    }

    /// Parses OpenMetrics text (as produced by [`Exposition::render`];
    /// `# HELP` lines and unknown comments are tolerated and dropped).
    pub fn parse(text: &str) -> Result<Exposition, OpenMetricsError> {
        let mut families: Vec<Family> = Vec::new();
        let err = |line: usize, message: &str| OpenMetricsError {
            line,
            message: message.to_owned(),
        };
        for (i, raw) in text.lines().enumerate() {
            let lineno = i + 1;
            let line = raw.trim_end();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('#') {
                let rest = rest.trim_start();
                if rest == "EOF" {
                    break;
                }
                if let Some(decl) = rest.strip_prefix("TYPE ") {
                    let mut parts = decl.split_whitespace();
                    let name = parts
                        .next()
                        .ok_or_else(|| err(lineno, "TYPE line missing metric name"))?;
                    let kind = parts
                        .next()
                        .ok_or_else(|| err(lineno, "TYPE line missing metric kind"))?;
                    families.push(Family {
                        name: name.to_owned(),
                        kind: kind.to_owned(),
                        samples: Vec::new(),
                    });
                }
                continue; // HELP / UNIT / arbitrary comments
            }
            let sample = parse_sample(line).map_err(|m| err(lineno, &m))?;
            match families.last_mut() {
                Some(fam) if sample.name.starts_with(fam.name.as_str()) => {
                    fam.samples.push(sample);
                }
                _ => families.push(Family {
                    name: sample.name.clone(),
                    kind: "untyped".to_owned(),
                    samples: vec![sample],
                }),
            }
        }
        Ok(Exposition { families })
    }
}

fn parse_sample(line: &str) -> Result<Sample, String> {
    let (name, labels, value_part) = if let Some(brace) = line.find('{') {
        let close = line
            .rfind('}')
            .ok_or_else(|| "unterminated label set".to_owned())?;
        (
            &line[..brace],
            parse_labels(&line[brace + 1..close])?,
            line[close + 1..].trim(),
        )
    } else {
        let sp = line
            .find(' ')
            .ok_or_else(|| "sample line has no value".to_owned())?;
        (&line[..sp], Vec::new(), line[sp..].trim())
    };
    let value: f64 = value_part
        .parse()
        .map_err(|_| format!("bad sample value {value_part:?}"))?;
    Ok(Sample {
        name: name.trim().to_owned(),
        labels,
        value,
    })
}

fn parse_labels(text: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut chars = text.chars().peekable();
    loop {
        while chars.peek() == Some(&',') || chars.peek() == Some(&' ') {
            chars.next();
        }
        if chars.peek().is_none() {
            break;
        }
        let mut key = String::new();
        for c in chars.by_ref() {
            if c == '=' {
                break;
            }
            key.push(c);
        }
        if chars.next() != Some('"') {
            return Err(format!("label {key:?} missing opening quote"));
        }
        let mut value = String::new();
        let mut closed = false;
        while let Some(c) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some('\\') => value.push('\\'),
                    Some('"') => value.push('"'),
                    Some('n') => value.push('\n'),
                    other => return Err(format!("bad escape {other:?} in label {key:?}")),
                },
                '"' => {
                    closed = true;
                    break;
                }
                c => value.push(c),
            }
        }
        if !closed {
            return Err(format!("label {key:?} missing closing quote"));
        }
        labels.push((key, value));
    }
    Ok(labels)
}

/// Renders one histogram as an OpenMetrics histogram family:
/// cumulative `_bucket{le=...}` samples for every non-empty bucket,
/// the mandatory `le="+Inf"` bucket, `_sum`, and `_count`.
fn histogram_family(base: &str, hist: &Histogram) -> Family {
    let mut samples = Vec::new();
    let mut cum = 0u64;
    for (i, &count) in hist.bucket_counts().iter().enumerate() {
        cum += count;
        if i < hist.bounds().len() && count > 0 {
            samples.push(Sample::labeled(
                format!("{base}_bucket"),
                &[("le", &fmt_value(hist.bounds()[i]))],
                cum as f64,
            ));
        }
    }
    samples.push(Sample::labeled(
        format!("{base}_bucket"),
        &[("le", "+Inf")],
        hist.total() as f64,
    ));
    samples.push(Sample::plain(format!("{base}_sum"), hist.sum()));
    samples.push(Sample::plain(format!("{base}_count"), hist.total() as f64));
    Family {
        name: base.to_owned(),
        kind: "histogram".to_owned(),
        samples,
    }
}

/// Per-device profile families, labeled by device name (and HLOP kind
/// for throughput EWMAs).
fn device_families(obs: &Observatory) -> Vec<Family> {
    let mut spans = Vec::new();
    let mut busy = Vec::new();
    let mut elements = Vec::new();
    let mut throughput = Vec::new();
    let mut mape = Vec::new();
    let mut queue = Vec::new();
    let mut quarantined = Vec::new();
    for p in obs.profiles() {
        let d: &[(&str, &str)] = &[("device", p.name.as_str())];
        spans.push(Sample::labeled(
            "shmt_device_spans_total",
            d,
            p.spans as f64,
        ));
        busy.push(Sample::labeled(
            "shmt_device_busy_virtual_seconds_total",
            d,
            p.busy_s,
        ));
        elements.push(Sample::labeled(
            "shmt_device_elements_total",
            d,
            p.elements as f64,
        ));
        for (kind, &t) in &p.ewma_throughput {
            throughput.push(Sample::labeled(
                "shmt_device_throughput_ewma_elements_per_second",
                &[("device", p.name.as_str()), ("kind", kind.as_str())],
                t,
            ));
        }
        if let Some(m) = p.ewma_mape {
            mape.push(Sample::labeled("shmt_device_mape_ewma", d, m));
        }
        queue.push(Sample::labeled("shmt_device_queue_depth", d, p.queue_depth));
        quarantined.push(Sample::labeled(
            "shmt_device_quarantined",
            d,
            if p.quarantined { 1.0 } else { 0.0 },
        ));
    }
    let fam = |name: &str, kind: &str, samples: Vec<Sample>| Family {
        name: name.to_owned(),
        kind: kind.to_owned(),
        samples,
    };
    let mut families = vec![
        fam("shmt_device_spans", "counter", spans),
        fam("shmt_device_busy_virtual_seconds", "counter", busy),
        fam("shmt_device_elements", "counter", elements),
    ];
    if !throughput.is_empty() {
        families.push(fam(
            "shmt_device_throughput_ewma_elements_per_second",
            "gauge",
            throughput,
        ));
    }
    if !mape.is_empty() {
        families.push(fam("shmt_device_mape_ewma", "gauge", mape));
    }
    families.push(fam("shmt_device_queue_depth", "gauge", queue));
    families.push(fam("shmt_device_quarantined", "gauge", quarantined));
    families
}

/// Renders an observatory in the OpenMetrics text format.
pub fn render(obs: &Observatory) -> String {
    Exposition::from_observatory(obs).render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn populated() -> Observatory {
        let mut obs = Observatory::new();
        obs.metrics_mut().add_counter("serve.completed", 42.0);
        obs.metrics_mut().add_counter("health.strike", 3.0);
        obs.metrics_mut().push_gauge("serve.queue_depth", 0.0, 2.0);
        obs.metrics_mut().push_gauge("serve.queue_depth", 1.0, 5.0);
        for i in 1..=50 {
            obs.record_latency("serve.service_seconds", i as f64 * 1.0e-3);
        }
        obs.observe_span(0, "Sobel", 65536, 0.010);
        obs.observe_span(2, "Sobel", 65536, 0.002);
        obs.observe_mape(2, 0.07);
        obs.set_queue_depth(0, 3.0);
        obs.set_quarantined(2, true);
        obs
    }

    #[test]
    fn render_is_deterministic_and_terminated() {
        let obs = populated();
        let a = render(&obs);
        let b = render(&obs);
        assert_eq!(a, b);
        assert!(a.ends_with("# EOF\n"));
        assert!(a.contains("# TYPE serve_completed counter"));
        assert!(a.contains("serve_completed_total 42"));
        assert!(
            a.contains("serve_queue_depth 5"),
            "gauge renders last value"
        );
        assert!(a.contains("# TYPE serve_service_seconds histogram"));
        assert!(a.contains("serve_service_seconds_count 50"));
        assert!(a.contains("le=\"+Inf\"} 50"));
        assert!(a.contains("shmt_device_quarantined{device=\"EdgeTPU\"} 1"));
        assert!(a.contains(
            "shmt_device_throughput_ewma_elements_per_second{device=\"GPU\",kind=\"Sobel\"}"
        ));
    }

    #[test]
    fn round_trip_is_byte_identical() {
        let text = render(&populated());
        let parsed = Exposition::parse(&text).expect("own output must parse");
        assert_eq!(parsed.render(), text);
    }

    #[test]
    fn parsed_values_match_the_source() {
        let obs = populated();
        let parsed = Exposition::parse(&render(&obs)).unwrap();
        assert_eq!(
            parsed.sample_value("serve_completed_total", &[]),
            Some(42.0)
        );
        assert_eq!(
            parsed.sample_value("shmt_device_spans_total", &[("device", "GPU")]),
            Some(1.0)
        );
        assert_eq!(
            parsed.sample_value("serve_service_seconds_count", &[]),
            Some(50.0)
        );
        let sum = parsed
            .sample_value("serve_service_seconds_sum", &[])
            .unwrap();
        let h = obs.histogram("serve.service_seconds").unwrap();
        assert_eq!(sum, h.sum(), "float values survive exactly");
        assert_eq!(parsed.family("serve_completed").unwrap().kind, "counter");
        assert_eq!(
            parsed.family("serve_service_seconds").unwrap().kind,
            "histogram"
        );
    }

    #[test]
    fn label_escaping_round_trips() {
        let fam = Family {
            name: "weird".to_owned(),
            kind: "gauge".to_owned(),
            samples: vec![Sample::labeled("weird", &[("k", "a\"b\\c\nd")], 1.0)],
        };
        let exp = Exposition {
            families: vec![fam],
        };
        let text = exp.render();
        let parsed = Exposition::parse(&text).unwrap();
        assert_eq!(parsed, exp);
        assert_eq!(parsed.render(), text);
    }

    #[test]
    fn sanitize_maps_dots_and_leading_digits() {
        assert_eq!(sanitize_name("serve.queue_wait_s"), "serve_queue_wait_s");
        assert_eq!(sanitize_name("9lives"), "_9lives");
        assert_eq!(sanitize_name("a-b c"), "a_b_c");
    }

    #[test]
    fn parse_rejects_garbage_values() {
        let err = Exposition::parse("# TYPE x gauge\nx nope\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("bad sample value"));
    }

    #[test]
    fn empty_observatory_still_renders_device_roster() {
        let text = render(&Observatory::new());
        let parsed = Exposition::parse(&text).unwrap();
        assert_eq!(
            parsed.sample_value("shmt_device_spans_total", &[("device", "CPU")]),
            Some(0.0)
        );
        assert_eq!(parsed.render(), text);
    }
}
