//! The repo's end-to-end benchmark: four workloads through the public
//! surface of the stack (`ShmtRuntime::execute`, `VopDag`, `Server::submit`,
//! `ClusterRouter::route`), host time stated against an in-run yardstick,
//! exact simulated metrics beside it, and a traced run that says per layer
//! where a request's host time goes. `README.md` in this directory is the
//! manual.

mod aa;
mod calib;
mod harness;
mod layers;
mod report;
mod run;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

const USAGE: &str =
    "usage: e2e --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1] [--out <file>]
       e2e --aa [<n>] [--seconds <s>]     A/A: every workload on seeds 1..n, twice over
       e2e --smoke                        2 s per workload, presence checks only
workloads: vop-stencil-2k vop-dense-1k serve-dag-guard cluster-open-small";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    aa: Option<usize>,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        out: None,
        aa: None,
        smoke: false,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| -> Result<String, String> {
            it.next().cloned().ok_or(format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if spec::workload(&name).is_none() {
                    return Err(format!("unknown workload {name}"));
                }
                parsed.workload = Some(name);
            }
            "--seed" => {
                parsed.seed = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number of seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && (0.5..=600.0).contains(&s)) {
                    return Err(format!("--seconds {s} outside 0.5..=600"));
                }
                parsed.seconds = s;
            }
            "--trace" => {
                parsed.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                };
            }
            "--out" => parsed.out = Some(value("a path")?),
            "--aa" => {
                parsed.aa = Some(match it.peek().and_then(|s| s.parse::<usize>().ok()) {
                    Some(n) if n >= 2 => {
                        it.next();
                        n
                    }
                    Some(n) => return Err(format!("--aa {n}: quartiles need at least 2 runs")),
                    None => 5,
                });
            }
            "--smoke" => parsed.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if parsed.workload.is_none() && parsed.aa.is_none() && !parsed.smoke {
        return Err("one of --workload, --aa, --smoke is required".into());
    }
    if parsed.out.is_some() && parsed.workload.is_none() {
        return Err("--out goes with --workload".into());
    }
    Ok(parsed)
}

/// Where build outputs go: the traced run's Chrome traces and the smoke
/// mode's result files are written under it, so nothing lands outside a
/// directory `.gitignore` already names.
pub fn target_dir() -> String {
    std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The system's own thread count is a constant of the benchmark. Set
    // before anything touches the compute pool, while this is the only
    // thread.
    std::env::set_var("SHMT_THREADS", spec::SYSTEM_THREADS.to_string());
    harness::now_ns();

    if args.smoke {
        return match aa::run_smoke(&format!("{}/e2e", target_dir())) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("e2e: smoke failed: {e}");
                ExitCode::from(1)
            }
        };
    }
    if let Some(n) = args.aa {
        return match aa::run_aa(n, args.seconds) {
            Ok(0) => ExitCode::SUCCESS,
            Ok(breaches) => {
                eprintln!("e2e: {breaches} metric(s) outside their bound between two sets of the same code");
                ExitCode::from(1)
            }
            Err(e) => {
                eprintln!("e2e: A/A void: {e}");
                ExitCode::from(3)
            }
        };
    }

    let workload = args.workload.as_deref().expect("checked by parse_args");
    let result = if args.trace {
        layers::run_traced(workload, args.seed, args.seconds)
    } else {
        run::run_end_to_end(workload, args.seed, args.seconds)
    };
    let result = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2e: run void: {e}");
            return ExitCode::from(3);
        }
    };
    result.print();
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, result.to_json()) {
            eprintln!("e2e: write {path}: {e}");
            return ExitCode::from(3);
        }
    }
    println!("{}", result.driver_line());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("e2e: outputs were wrong or the run could not support its statistics");
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(str::to_owned).collect::<Vec<_>>())
    }

    #[test]
    fn driver_command_line_parses() {
        let a = args("--workload vop-dense-1k --seed 9 --seconds 25 --trace 0").expect("parses");
        assert_eq!(a.workload.as_deref(), Some("vop-dense-1k"));
        assert_eq!((a.seed, a.seconds, a.trace), (9, 25.0, false));
        assert!(
            args("--workload vop-dense-1k --trace 1")
                .expect("parses")
                .trace
        );
        let out = args("--workload vop-dense-1k --trace 1 --out x.json").expect("parses");
        assert_eq!(out.out.as_deref(), Some("x.json"));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(args("").is_err());
        assert!(args("--workload nope").is_err());
        assert!(args("--workload vop-dense-1k --seconds 0").is_err());
        assert!(args("--workload vop-dense-1k --seed x").is_err());
        assert!(args("--aa 1").is_err());
        assert_eq!(args("--aa").expect("parses").aa, Some(5));
        assert_eq!(args("--aa 3 --seconds 4").expect("parses").aa, Some(3));
        assert!(args("--smoke").expect("parses").smoke);
        assert!(args("--workload vop-dense-1k --trace").is_err());
        assert!(args("--workload vop-dense-1k --trace yes").is_err());
        assert!(args("--smoke --out dir").is_err());
        assert!(args("--list").is_err());
    }
}
