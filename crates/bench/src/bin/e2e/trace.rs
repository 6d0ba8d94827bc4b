//! Outside-in tracing: spans recorded by the benchmark around each call it
//! makes into a layer, kept in memory, written as a Chrome trace at exit.
//! Nothing here reaches into the program; where a layer only *reports* a
//! duration (`Response::queue_wait`, `service_time`), the child span is
//! rebuilt from it and right-aligned in its parent.

use std::collections::BTreeMap;
use std::time::Instant;

use shmt_trace::json::{JsonValue, ObjectBuilder};
use shmt_trace::{EventKind, TraceSink};

use crate::harness::now_ns;

/// One timed interval on one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// `<layer>.<function>`.
    pub name: &'static str,
    /// The span of the same request that caused this one.
    pub parent: Option<&'static str>,
    /// Request number in the workload's rotation.
    pub req: usize,
    /// Recording thread.
    pub tid: usize,
    /// Start and end, nanoseconds since the process epoch.
    pub start_ns: u64,
    /// See `start_ns`.
    pub end_ns: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

/// One thread's span buffer.
#[derive(Debug)]
pub struct SpanLog {
    tid: usize,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log for thread `tid`.
    pub fn new(tid: usize) -> Self {
        SpanLog {
            tid,
            spans: Vec::new(),
        }
    }

    /// Records `[start_ns, end_ns]` under `name`.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        req: usize,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.spans.push(Span {
            name,
            parent,
            req,
            tid: self.tid,
            start_ns,
            end_ns,
        });
    }

    /// Records a child the layer only reported a duration for: `us`
    /// microseconds ending at `end_ns`.
    pub fn push_reported(
        &mut self,
        name: &'static str,
        parent: &'static str,
        req: usize,
        end_ns: u64,
        us: f64,
    ) {
        let start = end_ns.saturating_sub((us * 1e3) as u64);
        self.push(name, Some(parent), req, start, end_ns);
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span — its duration minus its children's — grouped
/// by span name, in microseconds. A child overrunning its parent clamps
/// the parent's self time at zero and is counted in the second value: the
/// number of spans whose children exceed them by more than `slack`
/// (a share of the parent's duration).
pub fn self_times(spans: &[Span], slack: f64) -> (BTreeMap<&'static str, Vec<f64>>, usize) {
    let mut children: BTreeMap<(usize, &'static str), f64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *children.entry((s.req, p)).or_default() += s.us();
        }
    }
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut overruns = 0;
    for s in spans {
        let kids = children.get(&(s.req, s.name)).copied().unwrap_or(0.0);
        if kids > s.us() * (1.0 + slack) {
            overruns += 1;
        }
        by_name
            .entry(s.name)
            .or_default()
            .push((s.us() - kids).max(0.0));
    }
    (by_name, overruns)
}

/// The parts of one `execute`, timed on their own by the replay pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExecuteParts {
    /// The whole call, microseconds.
    pub execute_us: f64,
    /// `partition_vop`.
    pub partition_us: f64,
    /// `sched::plan`.
    pub plan_us: f64,
    /// `exec::compute_tasks`.
    pub compute_us: f64,
}

impl ExecuteParts {
    /// `execute − partition − plan − compute`, never below zero.
    pub fn self_us(&self) -> f64 {
        (self.execute_us - self.partition_us - self.plan_us - self.compute_us).max(0.0)
    }

    /// The conservation check: the replayed parts must fit inside the
    /// call they were cut from, within `slack` of its duration — then
    /// `partition + plan + compute + self = execute` holds by
    /// construction. A replay that overshoots means the parts were not
    /// timed under the conditions `execute` ran them in.
    pub fn conserved(&self, slack: f64) -> bool {
        let parts = self.partition_us + self.plan_us + self.compute_us;
        parts <= self.execute_us * (1.0 + slack)
            && (parts + self.self_us() - self.execute_us).abs() <= self.execute_us * slack
    }
}

/// Renders spans in the Chrome trace-event format `shmt_trace::chrome`
/// reads back: one complete (`"X"`) event per span, rows named after the
/// recording threads.
pub fn to_chrome_json(spans: &[Span], workload: &str) -> String {
    let mut events = Vec::with_capacity(spans.len() + 4);
    let tids: std::collections::BTreeSet<usize> = spans.iter().map(|s| s.tid).collect();
    for tid in tids {
        events.push(
            ObjectBuilder::new()
                .field("ph", JsonValue::String("M".into()))
                .field("name", JsonValue::String("thread_name".into()))
                .field("pid", JsonValue::Number(0.0))
                .field("tid", JsonValue::Number(tid as f64))
                .field(
                    "args",
                    ObjectBuilder::new()
                        .field(
                            "name",
                            JsonValue::String(format!("{workload} client {tid}")),
                        )
                        .build(),
                )
                .build(),
        );
    }
    for s in spans {
        let mut args = ObjectBuilder::new().field("req", JsonValue::Number(s.req as f64));
        if let Some(p) = s.parent {
            args = args.field("parent", JsonValue::String(p.into()));
        }
        events.push(
            ObjectBuilder::new()
                .field("ph", JsonValue::String("X".into()))
                .field("name", JsonValue::String(s.name.into()))
                .field("pid", JsonValue::Number(0.0))
                .field("tid", JsonValue::Number(s.tid as f64))
                .field("ts", JsonValue::Number(s.start_ns as f64 / 1e3))
                .field("dur", JsonValue::Number(s.us()))
                .field("args", args.build())
                .build(),
        );
    }
    ObjectBuilder::new()
        .field("displayTimeUnit", JsonValue::String("ms".into()))
        .field("traceEvents", JsonValue::Array(events))
        .build()
        .to_string()
}

/// A [`TraceSink`] that keeps host time instead of events: it stamps the
/// wall clock when each `execute` inside a `VopDag::run` begins (its
/// `PartitionStart` event) and ends (its last energy counter), which is
/// the only way to see the stage boundaries of a DAG from outside.
#[derive(Debug, Default)]
pub struct StageClock {
    /// `(start_ns, end_ns)` per stage execute, in execution order.
    pub stages: Vec<(u64, u64)>,
}

impl TraceSink for StageClock {
    fn record(&mut self, _time_s: f64, kind: EventKind) {
        if matches!(kind, EventKind::PartitionStart { .. }) {
            let t = now_ns();
            self.stages.push((t, t));
        }
    }

    fn counter(&mut self, name: &str, _delta: f64) {
        if name == "energy.active_j" {
            if let Some(stage) = self.stages.last_mut() {
                stage.1 = now_ns();
            }
        }
    }
}

/// Times `f`, microseconds.
pub fn time_us<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        parent: Option<&'static str>,
        req: usize,
        start_us: u64,
        end_us: u64,
    ) -> Span {
        Span {
            name,
            parent,
            req,
            tid: 0,
            start_ns: start_us * 1000,
            end_ns: end_us * 1000,
        }
    }

    #[test]
    fn self_time_is_span_minus_children_per_request() {
        let spans = [
            span("cluster.route", None, 1, 0, 100),
            span("serve.submit_wait", Some("cluster.route"), 1, 20, 100),
            span("core.execute", Some("serve.submit_wait"), 1, 50, 100),
            // Another request's children must not be charged to request 1.
            span("cluster.route", None, 2, 0, 40),
            span("serve.submit_wait", Some("cluster.route"), 2, 10, 40),
        ];
        let (selfs, overruns) = self_times(&spans, 0.05);
        assert_eq!(overruns, 0);
        assert_eq!(selfs["cluster.route"], vec![20.0, 10.0]);
        assert_eq!(selfs["serve.submit_wait"], vec![30.0, 30.0]);
        assert_eq!(selfs["core.execute"], vec![50.0]);
    }

    #[test]
    fn children_longer_than_their_parent_are_flagged() {
        let spans = [
            span("serve.submit_wait", None, 1, 0, 100),
            span("core.execute", Some("serve.submit_wait"), 1, 0, 104),
            span("serve.submit_wait", None, 2, 0, 100),
            span("core.execute", Some("serve.submit_wait"), 2, 0, 120),
        ];
        let (selfs, overruns) = self_times(&spans, 0.05);
        assert_eq!(overruns, 1, "4 % over is within slack, 20 % is not");
        assert_eq!(selfs["serve.submit_wait"], vec![0.0, 0.0]);
    }

    #[test]
    fn execute_parts_conserve_or_say_so() {
        let good = ExecuteParts {
            execute_us: 1000.0,
            partition_us: 10.0,
            plan_us: 90.0,
            compute_us: 800.0,
        };
        assert_eq!(good.self_us(), 100.0);
        assert!(good.conserved(0.05));
        let tight = ExecuteParts {
            compute_us: 930.0,
            ..good
        };
        assert_eq!(tight.self_us(), 0.0);
        assert!(tight.conserved(0.05), "3 % over fits the slack");
        let bad = ExecuteParts {
            compute_us: 1100.0,
            ..good
        };
        assert!(!bad.conserved(0.05));
    }

    #[test]
    fn reported_children_end_with_their_parent() {
        let mut log = SpanLog::new(3);
        log.push("cluster.route", None, 9, 1_000_000, 2_000_000);
        log.push_reported("serve.submit_wait", "cluster.route", 9, 2_000_000, 400.0);
        let spans = log.into_spans();
        assert_eq!(spans[1].start_ns, 1_600_000);
        assert_eq!(spans[1].end_ns, 2_000_000);
        assert_eq!(spans[1].tid, 3);
    }

    #[test]
    fn chrome_export_round_trips_through_the_repo_parser() {
        let spans = [
            span("cluster.route", None, 1, 0, 100),
            span("core.execute", Some("cluster.route"), 1, 50, 100),
        ];
        let text = to_chrome_json(&spans, "unit");
        let parsed = shmt_trace::chrome::from_chrome_json(&text).expect("parses");
        assert_eq!(parsed.complete_events().count(), 2);
        assert_eq!(parsed.thread_name(0), Some("unit client 0"));
        assert!((parsed.span_seconds(0, "cluster.") - 100e-6).abs() < 1e-12);
    }

    #[test]
    fn stage_clock_brackets_each_execute() {
        let mut clock = StageClock::default();
        assert!(clock.enabled());
        for _ in 0..2 {
            clock.record(0.0, EventKind::PartitionStart { partitions: 4 });
            clock.record(0.0, EventKind::PartitionEnd { hlops: 4 });
            clock.counter("hlops.completed", 1.0);
            clock.counter("energy.active_j", 0.5);
        }
        assert_eq!(clock.stages.len(), 2);
        assert!(clock.stages.iter().all(|(a, b)| b >= a));
        assert!(clock.stages[1].0 >= clock.stages[0].1);
    }
}
