//! Experiment harness for the SHMT reproduction.
//!
//! The `paper` binary regenerates every table and figure of the paper's
//! evaluation through [`shmt::experiments::paper`]; it and `trace_run`
//! accept:
//!
//! ```text
//! --size N        dataset edge length (default 2048; paper uses 8192)
//! --partitions N  HLOP partition count (default 64)
//! --seed N        dataset seed
//! ```

use shmt::experiments::ExperimentConfig;

pub mod harness;

/// Parses the common `--size/--partitions/--seed` flags from `args`.
///
/// # Panics
///
/// Panics with a usage message on malformed flags.
pub fn parse_config(args: impl Iterator<Item = String>) -> ExperimentConfig {
    let mut config = ExperimentConfig::default();
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        let mut take = |what: &str| -> usize {
            args.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{what} needs a positive integer"))
        };
        match flag.as_str() {
            "--size" => config.size = take("--size"),
            "--partitions" => config.partitions = take("--partitions"),
            "--seed" => config.seed = take("--seed") as u64,
            other => panic!("unknown flag {other}; accepted: --size --partitions --seed"),
        }
    }
    config
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_defaults_and_flags() {
        let d = parse_config(std::iter::empty());
        assert_eq!(d.size, 2048);
        let c = parse_config(
            ["--size", "512", "--partitions", "16", "--seed", "9"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(c.size, 512);
        assert_eq!(c.partitions, 16);
        assert_eq!(c.seed, 9);
    }
}
