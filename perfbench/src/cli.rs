//! Command-line arguments: `--workload <name> --seed <n> --seconds <n>
//! --trace <0|1>`, all four required.

use std::fmt;

/// The three workloads of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Zipf stream over the stress mix, every reply a report-cache hit.
    ServeHot,
    /// Defect-rate sweep with fresh defect seeds: misses and evictions.
    ServeDefectSweep,
    /// Monte-Carlo addressability estimates through `Evaluation`.
    McEstimate,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::ServeHot,
        Workload::ServeDefectSweep,
        Workload::McEstimate,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeHot => "serve_hot",
            Workload::ServeDefectSweep => "serve_defect_sweep",
            Workload::McEstimate => "mc_estimate",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL
            .into_iter()
            .find(|workload| workload.name() == name)
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Parsed command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed of the workload's input streams.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: u64,
    /// `false`: end-to-end metrics; `true`: the traced per-layer run.
    pub trace: bool,
}

/// Parses `args` (without the program name).
///
/// # Errors
///
/// Returns a usage message for a missing, unknown or malformed argument.
pub fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value)
                        .ok_or_else(|| format!("unknown workload {value:?}\n{USAGE}"))?,
                );
            }
            "--seed" => seed = Some(number(flag, value)?),
            "--seconds" => seconds = Some(number(flag, value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}\n{USAGE}")),
                });
            }
            _ => return Err(format!("unknown argument {flag:?}\n{USAGE}")),
        }
    }
    let missing = |name: &str| format!("missing {name}\n{USAGE}");
    let seconds = seconds.ok_or_else(|| missing("--seconds"))?;
    if seconds == 0 {
        return Err(format!("--seconds must be positive\n{USAGE}"));
    }
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds,
        trace: trace.ok_or_else(|| missing("--trace"))?,
    })
}

fn number(flag: &str, value: &str) -> Result<u64, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} takes a whole number, not {value:?}\n{USAGE}"))
}

const USAGE: &str = "usage: perfbench --workload <serve_hot|serve_defect_sweep|mc_estimate> \
--seed <n> --seconds <n> --trace <0|1>";

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let args = parse(&strings(&[
            "--workload",
            "mc_estimate",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            args,
            Args {
                workload: Workload::McEstimate,
                seed: 7,
                seconds: 3,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_unknown_and_missing_arguments() {
        assert!(parse(&strings(&["--workload", "nope"])).is_err());
        assert!(parse(&strings(&["--workload", "serve_hot", "--seed", "1"])).is_err());
        assert!(parse(&strings(&[
            "--workload",
            "serve_hot",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ]))
        .is_err());
    }
}
