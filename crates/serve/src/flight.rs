//! Per-request flight recorder: a bounded ring of recent request
//! traces that dumps itself to disk when something anomalous happens.
//!
//! Every served request leaves a compact [`FlightRecord`] in a ring of
//! the last N requests. When a record carries an [`Anomaly`] — a missed
//! deadline, a quality-guard repair, a device quarantine, a dropout
//! re-dispatch, a failure — the recorder writes `flight_<seq>.json`
//! into its dump directory: the triggering record plus the ring's
//! recent context, so a chaos-suite failure arrives with its own
//! explanation attached. Dumps are JSON via the workspace's own writer
//! ([`shmt_trace::json`]) and are bounded by `max_dumps` per recorder.

use std::collections::VecDeque;
use std::fs;
use std::path::PathBuf;

use shmt_trace::json::{JsonValue, ObjectBuilder};

use crate::server::DEVICES;

/// Why a request was considered anomalous.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Anomaly {
    /// The request's deadline lapsed before or during execution.
    DeadlineMissed,
    /// The quality guard repaired at least one approximated HLOP.
    QualityRepair,
    /// The quality budget could not be met even after repairs.
    QualityUnattainable,
    /// The health breaker quarantined a device because of this request.
    DeviceQuarantine,
    /// A device dropped out mid-run and its work was re-dispatched.
    Redispatch,
    /// The request failed outright.
    Failure,
}

impl Anomaly {
    /// Stable lowercase name used in dumps and logs.
    pub fn name(self) -> &'static str {
        match self {
            Anomaly::DeadlineMissed => "deadline_missed",
            Anomaly::QualityRepair => "quality_repair",
            Anomaly::QualityUnattainable => "quality_unattainable",
            Anomaly::DeviceQuarantine => "device_quarantine",
            Anomaly::Redispatch => "redispatch",
            Anomaly::Failure => "failure",
        }
    }
}

/// One request's compact trace: enough to explain what the serving
/// layer saw without holding onto the output tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecord {
    /// Monotonic per-recorder sequence number (assigned on record).
    pub seq: u64,
    /// Scheduling policy display name.
    pub policy: String,
    /// The VOP's opcode display name.
    pub opcode: String,
    /// Time spent in the admission queue, seconds.
    pub queue_wait_s: f64,
    /// Executor wall-clock service time, seconds.
    pub service_s: f64,
    /// Virtual makespan of the run, seconds (0 when it never ran).
    pub makespan_s: f64,
    /// Whether the response was served degraded.
    pub degraded: bool,
    /// Quality-guard repairs performed.
    pub repairs: usize,
    /// HLOPs re-dispatched after a device dropout.
    pub redispatched: usize,
    /// Which devices were lost mid-run, by queue index.
    pub devices_lost: [bool; DEVICES],
    /// Which devices were quarantined when the request finished.
    pub quarantined: [bool; DEVICES],
    /// Outcome label: `"ok"` or the error's anomaly name.
    pub outcome: String,
    /// Every anomaly the request triggered (empty for a clean request).
    pub anomalies: Vec<Anomaly>,
}

impl FlightRecord {
    /// A clean baseline record; callers fill in what they observed.
    pub fn new(policy: &str, opcode: &str) -> Self {
        FlightRecord {
            seq: 0,
            policy: policy.to_owned(),
            opcode: opcode.to_owned(),
            queue_wait_s: 0.0,
            service_s: 0.0,
            makespan_s: 0.0,
            degraded: false,
            repairs: 0,
            redispatched: 0,
            devices_lost: [false; DEVICES],
            quarantined: [false; DEVICES],
            outcome: "ok".to_owned(),
            anomalies: Vec::new(),
        }
    }

    fn to_json(&self) -> JsonValue {
        let flags = |bits: &[bool; DEVICES]| {
            JsonValue::Array(bits.iter().map(|&b| JsonValue::Bool(b)).collect())
        };
        ObjectBuilder::new()
            .field("seq", JsonValue::Number(self.seq as f64))
            .field("policy", JsonValue::String(self.policy.clone()))
            .field("opcode", JsonValue::String(self.opcode.clone()))
            .field("queue_wait_s", JsonValue::Number(self.queue_wait_s))
            .field("service_s", JsonValue::Number(self.service_s))
            .field("makespan_s", JsonValue::Number(self.makespan_s))
            .field("degraded", JsonValue::Bool(self.degraded))
            .field("repairs", JsonValue::Number(self.repairs as f64))
            .field("redispatched", JsonValue::Number(self.redispatched as f64))
            .field("devices_lost", flags(&self.devices_lost))
            .field("quarantined", flags(&self.quarantined))
            .field("outcome", JsonValue::String(self.outcome.clone()))
            .field(
                "anomalies",
                JsonValue::Array(
                    self.anomalies
                        .iter()
                        .map(|a| JsonValue::String(a.name().to_owned()))
                        .collect(),
                ),
            )
            .build()
    }
}

/// Flight-recorder tuning knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightConfig {
    /// Ring capacity: how many recent requests are retained as context.
    pub capacity: usize,
    /// Where anomaly dumps are written; `None` (the default) disables
    /// dumping, so embedding the recorder never touches the filesystem
    /// unless explicitly asked to.
    pub dump_dir: Option<PathBuf>,
    /// Upper bound on dumps written over the recorder's lifetime.
    pub max_dumps: usize,
}

impl Default for FlightConfig {
    fn default() -> Self {
        FlightConfig {
            capacity: 32,
            dump_dir: None,
            max_dumps: 64,
        }
    }
}

/// The bounded ring of recent [`FlightRecord`]s plus dump bookkeeping.
#[derive(Debug)]
pub struct FlightRecorder {
    config: FlightConfig,
    ring: VecDeque<FlightRecord>,
    next_seq: u64,
    dumps_written: usize,
}

impl FlightRecorder {
    /// An empty recorder.
    pub fn new(config: FlightConfig) -> Self {
        let capacity = config.capacity.max(1);
        FlightRecorder {
            ring: VecDeque::with_capacity(capacity.min(1024)),
            config: FlightConfig { capacity, ..config },
            next_seq: 0,
            dumps_written: 0,
        }
    }

    /// Records one request, assigning it the next sequence number. When
    /// the record carries anomalies and dumping is configured, writes
    /// `<dump_dir>/flight_<seq>.json` and returns its path. Write
    /// failures are swallowed — telemetry must never fail a request.
    pub fn record(&mut self, mut record: FlightRecord) -> Option<PathBuf> {
        record.seq = self.next_seq;
        self.next_seq += 1;
        if self.ring.len() == self.config.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(record);
        let Some(trigger) = self.ring.back() else {
            // Unreachable (a record was just pushed), but telemetry must
            // never panic a request — degrade to "no dump" instead.
            return None;
        };
        if trigger.anomalies.is_empty() || self.dumps_written >= self.config.max_dumps {
            return None;
        }
        let dir = self.config.dump_dir.as_ref()?;
        let path = dir.join(format!("flight_{}.json", trigger.seq));
        let doc = ObjectBuilder::new()
            .field("trigger", trigger.to_json())
            .field(
                "recent",
                JsonValue::Array(self.ring.iter().map(FlightRecord::to_json).collect()),
            )
            .build();
        if fs::create_dir_all(dir).is_err() || fs::write(&path, doc.to_string()).is_err() {
            return None;
        }
        self.dumps_written += 1;
        Some(path)
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &FlightRecord> {
        self.ring.iter()
    }

    /// Number of records currently retained (at most the capacity).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Dumps written so far (bounded by `max_dumps`).
    pub fn dumps_written(&self) -> usize {
        self.dumps_written
    }

    /// The recorder's configuration.
    pub fn config(&self) -> &FlightConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(policy: &str) -> FlightRecord {
        FlightRecord::new(policy, "Sobel")
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("shmt_flight_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn ring_evicts_oldest_first() {
        let mut fr = FlightRecorder::new(FlightConfig {
            capacity: 3,
            ..FlightConfig::default()
        });
        for i in 0..5 {
            assert_eq!(fr.record(rec(&format!("p{i}"))), None);
        }
        assert_eq!(fr.len(), 3);
        let seqs: Vec<u64> = fr.records().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4], "oldest evicted, order preserved");
        let policies: Vec<&str> = fr.records().map(|r| r.policy.as_str()).collect();
        assert_eq!(policies, vec!["p2", "p3", "p4"]);
    }

    #[test]
    fn anomaly_dumps_trigger_and_context() {
        let dir = temp_dir("dump");
        let mut fr = FlightRecorder::new(FlightConfig {
            capacity: 4,
            dump_dir: Some(dir.clone()),
            ..FlightConfig::default()
        });
        fr.record(rec("clean"));
        let mut bad = rec("bad");
        bad.anomalies.push(Anomaly::QualityRepair);
        bad.repairs = 2;
        let path = fr.record(bad).expect("anomaly must dump");
        assert!(path.ends_with("flight_1.json"));
        let text = fs::read_to_string(&path).unwrap();
        let doc = JsonValue::parse(&text).expect("dump must be valid JSON");
        let trigger = doc.get("trigger").unwrap();
        assert_eq!(trigger.get("seq").unwrap().as_f64(), Some(1.0));
        assert_eq!(
            trigger.get("anomalies").unwrap().as_array().unwrap()[0].as_str(),
            Some("quality_repair")
        );
        assert_eq!(doc.get("recent").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(fr.dumps_written(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_dump_dir_means_no_files() {
        let mut fr = FlightRecorder::new(FlightConfig::default());
        let mut bad = rec("bad");
        bad.anomalies.push(Anomaly::Failure);
        assert_eq!(fr.record(bad), None, "dumping is opt-in");
        assert_eq!(fr.dumps_written(), 0);
    }

    #[test]
    fn max_dumps_caps_disk_writes() {
        let dir = temp_dir("cap");
        let mut fr = FlightRecorder::new(FlightConfig {
            capacity: 8,
            dump_dir: Some(dir.clone()),
            max_dumps: 2,
        });
        let mut dumped = 0;
        for _ in 0..5 {
            let mut bad = rec("bad");
            bad.anomalies.push(Anomaly::Redispatch);
            if fr.record(bad).is_some() {
                dumped += 1;
            }
        }
        assert_eq!(dumped, 2);
        assert_eq!(fr.dumps_written(), 2);
        let _ = fs::remove_dir_all(&dir);
    }
}
