//! The benchmark checking itself: `--aa` runs every workload twice over
//! and holds the gap between the two sets against each metric's bound;
//! `--smoke` checks that a short run of every workload reports every
//! end-to-end metric `BENCHMARK.json` lists. Both run each workload in a
//! process of its own, as the driver does.

use std::process::{Command, Stdio};

use shmt_trace::json::JsonValue;

use crate::report::parse_metrics;
use crate::spec::{Better, END_TO_END, WORKLOADS};
use crate::stats::{iqr_share, median, quartiles};

/// Runs this binary on one workload and returns its stdout; `Err` when it
/// exits non-zero.
fn child(workload: &str, seed: u64, seconds: f64, out: Option<&str>) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if let Some(path) = out {
        cmd.args(["--out", path]);
    }
    let output = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    if !output.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}; it printed:\n{stdout}",
            output.status
        ));
    }
    Ok(stdout)
}

/// One run's metrics, by name.
type RunMetrics = Vec<(String, f64)>;

/// The metrics of the driver line (the last line of a run's stdout).
fn driver_metrics(stdout: &str) -> Result<RunMetrics, String> {
    let line = stdout.lines().last().ok_or("run printed nothing")?;
    let (correct, metrics) = parse_metrics(line)?;
    if !correct {
        return Err("run reported correct: false".into());
    }
    Ok(metrics)
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative when it is better).
pub fn worsening(better: Better, first: f64, second: f64) -> f64 {
    if first == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (second - first) / first.abs(),
        Better::Higher => (first - second) / first.abs(),
    }
}

/// `--aa n`: every workload on seeds `1..=n`, then all of it again on the
/// same seeds, so that the two sets differ in nothing but when they ran.
/// Prints, per workload and metric, median and quartiles of both sets, each
/// set's spread, and the gap against the bound. Returns the number of
/// breaches: a run that failed, a gap beyond the bound, a spread beyond the
/// bound (except `setup_s`'s, which the driver exempts too), or a simulated
/// metric that did not repeat bit for bit on some seed.
pub fn run_aa(n: usize, seconds: f64) -> Result<usize, String> {
    // sets[set][workload][seed - 1] = that run's metrics, if it succeeded.
    let mut sets: Vec<Vec<Vec<Option<RunMetrics>>>> = Vec::new();
    let mut breaches = 0;
    for set in ["A", "B"] {
        let mut per_workload = Vec::new();
        for w in &WORKLOADS {
            let mut runs = Vec::new();
            for seed in 1..=n as u64 {
                eprintln!("aa: set {set} {} seed {seed}", w.name);
                // A run that fails is a breach of its own; the sets go on.
                let run = child(w.name, seed, seconds, None).and_then(|out| driver_metrics(&out));
                if let Err(e) = &run {
                    eprintln!("aa: {e}");
                    breaches += 1;
                }
                runs.push(run.ok());
            }
            per_workload.push(runs);
        }
        sets.push(per_workload);
    }

    println!("| workload | metric | A median [q1, q3] | B median [q1, q3] | spread A | spread B | gap | bound | |");
    println!("|---|---|---|---|---|---|---|---|---|");
    for (wi, w) in WORKLOADS.iter().enumerate() {
        for spec in &END_TO_END {
            let value = |run: &RunMetrics| -> Result<f64, String> {
                run.iter()
                    .find(|(name, _)| name == spec.name)
                    .map(|(_, v)| *v)
                    .ok_or(format!("{}: {} missing", w.name, spec.name))
            };
            let values = |set: usize| -> Result<Vec<f64>, String> {
                sets[set][wi].iter().flatten().map(value).collect()
            };
            let (a, b) = (values(0)?, values(1)?);
            if a.len() < 2 || b.len() < 2 {
                return Err(format!("{}: too few runs succeeded for quartiles", w.name));
            }
            // The simulator is deterministic: on one seed its numbers repeat
            // exactly, whatever the host did.
            let mut unrepeated = 0;
            if spec.name.starts_with("sim_") {
                for (ra, rb) in sets[0][wi].iter().zip(&sets[1][wi]) {
                    if let (Some(ra), Some(rb)) = (ra, rb) {
                        unrepeated += usize::from(value(ra)?.to_bits() != value(rb)?.to_bits());
                    }
                }
            }
            let (qa, qb) = (quartiles(&a), quartiles(&b));
            let (sa, sb) = (iqr_share(&a), iqr_share(&b));
            let gap = worsening(spec.better, median(&a), median(&b));
            let spread_counts = spec.name != "setup_s";
            let breach =
                gap > spec.bound || (spread_counts && sa.max(sb) > spec.bound) || unrepeated > 0;
            breaches += usize::from(breach);
            println!(
                "| {} | {} | {:.4} [{:.4}, {:.4}] | {:.4} [{:.4}, {:.4}] | {:.2} % | {:.2} % | {:+.2} % | {:.1} % | {} |",
                w.name,
                spec.name,
                median(&a),
                qa[0],
                qa[2],
                median(&b),
                qb[0],
                qb[2],
                sa * 100.0,
                sb * 100.0,
                gap * 100.0,
                spec.bound * 100.0,
                match (breach, unrepeated) {
                    (false, _) => "ok".to_owned(),
                    (true, 0) => "BREACH".to_owned(),
                    (true, k) => format!("BREACH: differs on {k} seed(s)"),
                }
            );
        }
    }
    Ok(breaches)
}

/// `--smoke`: 2 s per workload, bounds not enforced. Each run writes its
/// `--out` document under `dir`; the document is re-read with the repo's
/// JSON parser and must hold a finite value for every end-to-end metric
/// `BENCHMARK.json` (in the working directory) lists.
pub fn run_smoke(dir: &str) -> Result<(), String> {
    let manifest = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json (run from the repo root): {e}"))?;
    let manifest = JsonValue::parse(&manifest).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let names = |key: &str| -> Result<Vec<String>, String> {
        Ok(manifest
            .get(key)
            .and_then(JsonValue::as_array)
            .ok_or(format!("BENCHMARK.json has no {key}"))?
            .iter()
            .filter_map(|m| m.get("name").and_then(JsonValue::as_str))
            .map(str::to_owned)
            .collect())
    };
    let (workloads, wanted) = (names("workloads")?, names("end_to_end")?);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {dir}: {e}"))?;
    for w in &workloads {
        let path = format!("{dir}/smoke-{w}.json");
        child(w, 1, 2.0, Some(&path))?;
        let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
        let (correct, metrics) = parse_metrics(&text)?;
        if !correct {
            return Err(format!("{w}: outputs were wrong"));
        }
        for name in &wanted {
            match metrics.iter().find(|(n, _)| n == name) {
                Some((_, v)) if v.is_finite() => {}
                Some((_, v)) => return Err(format!("{w}: {name} is {v}")),
                None => return Err(format!("{w}: {name} missing from {path}")),
            }
        }
        println!(
            "smoke {w}: {} end-to-end metrics present and finite",
            wanted.len()
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Lower, 10.0, 9.0) + 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 100.0, 93.0) - 0.07).abs() < 1e-12);
        assert!(worsening(Better::Higher, 100.0, 110.0) < 0.0);
        assert_eq!(worsening(Better::Lower, 0.0, 5.0), 0.0);
    }

    #[test]
    fn driver_metrics_reads_the_last_line_only() {
        let out = "table line\n{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
                   \"metrics\": {\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}}}\n";
        assert_eq!(
            driver_metrics(out).expect("parses"),
            vec![("setup_s".to_owned(), 1.5)]
        );
        let wrong = out.replace("true", "false");
        assert!(driver_metrics(&wrong).is_err());
        assert!(driver_metrics("").is_err());
    }
}
