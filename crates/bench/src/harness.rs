//! The measurement-and-report harness shared by every bench binary.
//!
//! A bench reads its flags with [`Bench::from_args`], times each
//! workload with [`Bench::measure`], records it with [`Bench::case`],
//! and writes its report with [`Bench::write_report`]. The flags:
//!
//! * `--smoke` — small sizes and 3 samples per case instead of 5;
//! * `--test` — what `cargo test` passes: smoke sizes, and one timed
//!   iteration per case;
//! * `--json PATH` — write the JSON report. A relative `PATH` resolves
//!   against the workspace root (`cargo bench` runs with the crate
//!   directory as cwd), so `--json BENCH_executors.json` lands at the
//!   repo root.
//!
//! Every report opens with the same header — `schema_version`, `mode`,
//! `samples` — followed by the bench's own fields in the order it
//! passes them. A case is an object of identity fields followed by
//! `mean_ns` and `min_ns`; `benchdiff` keys cases on the identity
//! fields, so their names and order are the report's contract.

use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use serde::{json, Serialize, Value};

/// Named fields in report order, each lowered through [`Serialize`].
pub type Fields<'a> = [(&'a str, &'a dyn Serialize)];

/// The ordered JSON object holding `fields`.
#[must_use]
pub fn object(fields: &Fields<'_>) -> Value {
    Value::Map(
        fields
            .iter()
            .map(|(k, v)| ((*k).to_string(), v.to_value()))
            .collect(),
    )
}

/// Wall-clock of one measured workload, per call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Mean over the timed samples, nanoseconds.
    pub mean_ns: f64,
    /// Fastest timed sample, nanoseconds.
    pub min_ns: f64,
}

/// Times `routine`: in test mode one call; otherwise one untimed warmup
/// call, then `samples` timed calls. Every result passes through
/// [`black_box`] so the work cannot be optimized away.
fn measure<O>(test_mode: bool, samples: usize, mut routine: impl FnMut() -> O) -> Measurement {
    let mut sample = || {
        let start = Instant::now();
        black_box(routine());
        start.elapsed().as_nanos() as f64
    };
    if test_mode {
        let ns = sample();
        return Measurement {
            mean_ns: ns,
            min_ns: ns,
        };
    }
    sample();
    let times: Vec<f64> = (0..samples.max(1)).map(|_| sample()).collect();
    Measurement {
        mean_ns: times.iter().sum::<f64>() / times.len() as f64,
        min_ns: times.iter().copied().fold(f64::INFINITY, f64::min),
    }
}

/// One measured case: its identity fields, then its timing.
#[derive(Debug)]
pub struct Case {
    id: Vec<(String, Value)>,
    /// The case's timing.
    pub m: Measurement,
}

impl Case {
    /// Whether every `(key, value)` in `id` is one of this case's
    /// identity fields.
    fn is(&self, id: &Fields<'_>) -> bool {
        id.iter().all(|(k, v)| {
            let v = v.to_value();
            self.id.iter().any(|(ck, cv)| ck == k && *cv == v)
        })
    }

    /// `prefix/` followed by the identity values, `/`-separated; numeric
    /// ones print as `key=value`.
    fn label(&self, prefix: &str) -> String {
        let mut label = prefix.to_string();
        for (k, v) in &self.id {
            label.push('/');
            match v {
                Value::Str(s) => label.push_str(s),
                other => label.push_str(&format!("{k}={}", json::to_string(other))),
            }
        }
        label
    }
}

impl Serialize for Case {
    fn to_value(&self) -> Value {
        let mut fields = self.id.clone();
        fields.push(("mean_ns".to_string(), Value::F64(self.m.mean_ns)));
        fields.push(("min_ns".to_string(), Value::F64(self.m.min_ns)));
        Value::Map(fields)
    }
}

/// The mean wall-clock of the first case in `cases` matching `id`.
///
/// # Panics
///
/// If no case matches.
#[must_use]
pub fn mean_of(cases: &[Case], id: &Fields<'_>) -> f64 {
    cases
        .iter()
        .find(|c| c.is(id))
        .expect("a measured case matches")
        .m
        .mean_ns
}

/// A bench run's command-line configuration.
#[derive(Debug)]
pub struct Bench {
    test_mode: bool,
    smoke: bool,
    json: Option<PathBuf>,
}

impl Bench {
    /// Reads `--test`, `--smoke` and `--json PATH` from the process
    /// arguments; anything else is ignored.
    #[must_use]
    pub fn from_args() -> Self {
        Self::parse(&std::env::args().collect::<Vec<_>>())
    }

    fn parse(args: &[String]) -> Self {
        let test_mode = args.iter().any(|a| a == "--test");
        let json = args
            .iter()
            .position(|a| a == "--json")
            .and_then(|i| args.get(i + 1))
            .map(|p| {
                let p = PathBuf::from(p);
                if p.is_absolute() {
                    p
                } else {
                    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                        .join("../..")
                        .join(p)
                }
            });
        Bench {
            test_mode,
            smoke: test_mode || args.iter().any(|a| a == "--smoke"),
            json,
        }
    }

    /// Whether the run uses the small smoke sizes.
    #[must_use]
    pub fn smoke(&self) -> bool {
        self.smoke
    }

    /// Timed samples per case: 3 in smoke mode, 5 in full mode.
    #[must_use]
    pub fn samples(&self) -> usize {
        if self.smoke {
            3
        } else {
            5
        }
    }

    /// Times `routine` at this run's sample count: one call in test
    /// mode, otherwise one untimed warmup call and then the timed calls.
    pub fn measure<O>(&self, routine: impl FnMut() -> O) -> Measurement {
        measure(self.test_mode, self.samples(), routine)
    }

    /// Records `m` as the case `id` and prints it under `prefix`.
    #[must_use]
    pub fn case(&self, prefix: &str, id: &Fields<'_>, m: Measurement) -> Case {
        let id = id.iter().map(|(k, v)| ((*k).to_string(), v.to_value()));
        let case = Case {
            id: id.collect(),
            m,
        };
        println!(
            "{}: mean {:.3} ms, min {:.3} ms",
            case.label(prefix),
            m.mean_ns / 1e6,
            m.min_ns / 1e6
        );
        case
    }

    /// The report: the `schema_version`/`mode`/`samples` header, then
    /// `fields` in order.
    fn report(&self, fields: &Fields<'_>) -> Value {
        let mode = if self.smoke { "smoke" } else { "full" };
        let header: &Fields<'_> = &[
            ("schema_version", &crate::BENCH_SCHEMA_VERSION),
            ("mode", &mode),
            ("samples", &self.samples()),
        ];
        object(&[header, fields].concat())
    }

    /// Writes the report — the `schema_version`/`mode`/`samples` header,
    /// then `fields` in order — to the `--json` path, if one was given.
    ///
    /// # Panics
    ///
    /// If the report file cannot be written.
    pub fn write_report(&self, fields: &Fields<'_>) {
        if let Some(path) = &self.json {
            std::fs::write(path, json::to_string(&self.report(fields)) + "\n")
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
            println!("wrote {}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn measure_counts_iterations() {
        let mut calls = 0u32;
        let m = measure(false, 3, || calls += 1);
        // warmup + 3 samples
        assert_eq!(calls, 4);
        assert!(m.mean_ns >= m.min_ns);
    }

    #[test]
    fn test_mode_runs_once() {
        let mut calls = 0u32;
        measure(true, 50, || calls += 1);
        assert_eq!(calls, 1);
    }

    #[test]
    fn flags_pick_mode_samples_and_report_path() {
        let full = Bench::parse(&args(&["bench"]));
        assert!(!full.smoke() && full.samples() == 5 && full.json.is_none());
        let test = Bench::parse(&args(&["bench", "--test"]));
        assert!(test.smoke() && test.test_mode && test.samples() == 3);
        let smoke = Bench::parse(&args(&["bench", "--smoke", "--json", "out.json"]));
        assert!(smoke.smoke() && !smoke.test_mode);
        let path = smoke.json.expect("--json path");
        assert!(path.is_absolute() && path.ends_with("../../out.json"));
        let abs = Bench::parse(&args(&["bench", "--json", "/tmp/b.json"]));
        assert_eq!(abs.json, Some(PathBuf::from("/tmp/b.json")));
    }

    /// The layout `benchdiff` keys on: the header fields in order, then
    /// the bench's fields, each case's identity fields ahead of
    /// `mean_ns`/`min_ns`.
    #[test]
    fn report_layout_is_header_then_fields_with_identity_first() {
        let bench = Bench::parse(&args(&["bench", "--smoke"]));
        let m = Measurement {
            mean_ns: 2.0,
            min_ns: 1.0,
        };
        let cases = vec![bench.case(
            "layout",
            &[("topology", &"clique"), ("n", &8usize), ("variant", &"seq")],
            m,
        )];
        let report = bench.report(&[("n", &8usize), ("cases", &cases)]);
        assert_eq!(
            json::to_string(&report),
            "{\"schema_version\":1,\"mode\":\"smoke\",\"samples\":3,\"n\":8,\
             \"cases\":[{\"topology\":\"clique\",\"n\":8,\"variant\":\"seq\",\
             \"mean_ns\":2.0,\"min_ns\":1.0}]}"
        );
        assert_eq!(cases[0].label("layout"), "layout/clique/n=8/seq");
        assert!(cases[0].is(&[("variant", &"seq"), ("n", &8usize)]));
        assert!(!cases[0].is(&[("variant", &"par2")]));
        assert_eq!(mean_of(&cases, &[("topology", &"clique")]), 2.0);
    }
}
