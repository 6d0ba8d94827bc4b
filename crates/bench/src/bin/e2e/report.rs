//! What one run reports: every metric by name with unit, direction and
//! sample count for people, and the one-line JSON object the driver reads.

use shmt_trace::json::{JsonValue, ObjectBuilder};

use crate::spec::Better;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name from the spec tables.
    pub name: &'static str,
    /// Unit from the spec tables.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// The value, as measured; `None` where the metric does not apply to
    /// the workload (the table says so, the driver's line carries 0).
    pub value: Option<f64>,
    /// Samples it was computed from.
    pub samples: usize,
}

/// The result of one run of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Seed the inputs were made from.
    pub seed: u64,
    /// Whether every answer in every phase was correct and every check of
    /// the benchmark on itself held.
    pub correct: bool,
    /// Requests sent in the measured phases.
    pub attempted: usize,
    /// Of those, the ones that did not end ok.
    pub failed: usize,
    /// Every metric of the run's kind (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// The table for people.
    pub fn print(&self) {
        println!(
            "{:<34} {:>16} {:<8} {:<7} {:>8}",
            "metric", "value", "unit", "better", "samples"
        );
        for m in &self.metrics {
            let value = m.value.map_or("n/a".to_owned(), |v| format!("{v:.6}"));
            println!(
                "{:<34} {:>16} {:<8} {:<7} {:>8}",
                m.name,
                value,
                m.unit,
                m.better.as_str(),
                m.samples
            );
        }
    }

    /// The driver's line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`; values with all their digits.
    pub fn driver_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = m.value.unwrap_or(0.0);
                assert!(value.is_finite(), "{} is not finite", m.name);
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The `--out` document: the driver's fields plus what identifies
    /// the run, with direction and sample count per metric.
    pub fn to_json(&self) -> String {
        let mut metrics = ObjectBuilder::new();
        for m in &self.metrics {
            metrics = metrics.field(
                m.name,
                ObjectBuilder::new()
                    .field("value", JsonValue::Number(m.value.unwrap_or(0.0)))
                    .field("unit", JsonValue::String(m.unit.into()))
                    .field("better", JsonValue::String(m.better.as_str().into()))
                    .field("samples", JsonValue::Number(m.samples as f64))
                    .build(),
            );
        }
        ObjectBuilder::new()
            .field("workload", JsonValue::String(self.workload.clone()))
            .field("seed", JsonValue::Number(self.seed as f64))
            .field("correct", JsonValue::Bool(self.correct))
            .field("attempted", JsonValue::Number(self.attempted as f64))
            .field("failed", JsonValue::Number(self.failed as f64))
            .field("metrics", metrics.build())
            .build()
            .to_string()
    }
}

/// Reads the metric values back out of a driver line or an `--out`
/// document: `(correct, name → value)`.
pub fn parse_metrics(text: &str) -> Result<(bool, Vec<(String, f64)>), String> {
    let doc = JsonValue::parse(text).map_err(|e| format!("result is not JSON: {e:?}"))?;
    let correct = matches!(doc.get("correct"), Some(JsonValue::Bool(true)));
    let JsonValue::Object(map) = doc.get("metrics").ok_or("result has no metrics")? else {
        return Err("metrics is not an object".into());
    };
    let mut out = Vec::new();
    for (name, m) in map {
        let value = m
            .get("value")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("metric {name} has no numeric value"))?;
        out.push((name.clone(), value));
    }
    Ok((correct, out))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunResult {
        RunResult {
            workload: "vop-dense-1k".into(),
            seed: 7,
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "latency_ms_p50",
                    unit: "ms",
                    better: Better::Lower,
                    value: Some(12.403_981_5),
                    samples: 500,
                },
                Metric {
                    name: "throughput_rps",
                    unit: "1/s",
                    better: Better::Higher,
                    value: Some(63.25),
                    samples: 5,
                },
            ],
        }
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys_and_all_digits() {
        let line = sample().driver_line();
        assert!(!line.contains('\n'));
        let doc = JsonValue::parse(&line).expect("valid JSON");
        let JsonValue::Object(map) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = map.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert!(line.contains("12.4039815"), "{line}");
        let (correct, metrics) = parse_metrics(&line).expect("parses back");
        assert!(correct);
        assert_eq!(metrics[0], ("latency_ms_p50".to_owned(), 12.403_981_5));
    }

    #[test]
    fn out_document_round_trips() {
        let (correct, metrics) = parse_metrics(&sample().to_json()).expect("parses back");
        assert!(correct);
        assert_eq!(metrics.len(), 2);
        assert_eq!(metrics[1], ("throughput_rps".to_owned(), 63.25));
        assert!(parse_metrics("{}").is_err());
    }
}
