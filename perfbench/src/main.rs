//! End-to-end benchmark of the Lelantus simulator.
//!
//! ```text
//! perfbench --workload fig9-4k|fig9-2m|storm|observed --seed N --seconds S --trace 0|1
//! perfbench --write-digests perfbench/digests.txt
//! ```
//!
//! `--trace 0` times whole iterations untraced and prints the
//! end-to-end metrics; `--trace 1` runs the traced mode and prints the
//! per-layer metrics. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. See
//! `perfbench/README.md`.

mod cells;
mod dispatch;
mod host;
mod micro;
mod probe;
mod stats;
mod timed;
mod traced;

use cells::{Bench, DigestTable, Planes};
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

/// The seed the committed digests were taken at.
const DIGEST_SEED: u64 = 0;

/// Where runs leave their records, span dumps and scratch traces,
/// relative to the directory the benchmark runs from.
const OUT_DIR: &str = ".bench_out";

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric { name: name.into(), value, unit }
    }
}

/// What a run measured and how many cells it checked.
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check.
    pub errors: Vec<String>,
}

struct Args {
    bench: Bench,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut bench = None;
    let (mut seed, mut seconds, mut trace) = (DIGEST_SEED, 10.0, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                bench =
                    Some(Bench::parse(value).ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(format!("seconds must be in (0, 3600], got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let bench = bench.ok_or("--workload is required")?;
    Ok(Args { bench, seed, seconds, trace })
}

/// Runs every distinct cell once at the digest seed and writes the
/// digest table to `path`.
fn write_digests(path: &str) -> Result<(), String> {
    let mut table = DigestTable::default();
    for bench in Bench::ALL {
        for cell in bench.cells() {
            let outcome = if cell.app == cells::App::Storm {
                timed::StormCell::prepare(&cell)?.iterate(&cell)?
            } else {
                cell.run_armed(Planes::OFF, DIGEST_SEED)?.0
            };
            eprintln!("{cell}: {:?}", outcome.digest());
            table.insert(cell.to_string(), outcome.digest());
        }
    }
    std::fs::write(path, table.render()).map_err(|e| format!("{path}: {e}"))
}

fn metrics_json(metrics: &[Metric]) -> String {
    let mut s = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            host::json_str(&m.name),
            m.value,
            host::json_str(m.unit)
        );
    }
    s.push('}');
    s
}

fn append_record(line: &str) {
    let path = Path::new(OUT_DIR).join("results.jsonl");
    let ok = std::fs::create_dir_all(OUT_DIR).and_then(|()| {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new().create(true).append(true).open(&path)?;
        writeln!(f, "{line}")
    });
    if let Err(e) = ok {
        eprintln!("warning: cannot append to {}: {e}", path.display());
    }
}

fn write_spans(bench: Bench, seed: u64, spans: &[dispatch::Span]) {
    let path = Path::new(OUT_DIR).join(format!("spans-{}-seed{seed}.tsv", bench.name()));
    let mut s = String::from("cell\tcall\tstart_ns\tend_ns\n");
    for sp in spans {
        let _ = writeln!(s, "{}\t{}\t{}\t{}", sp.cell, sp.call.name(), sp.start_ns, sp.end_ns);
    }
    if let Err(e) = std::fs::write(&path, s) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--write-digests") {
        let Some(path) = argv.get(1) else {
            eprintln!("--write-digests needs a path");
            return ExitCode::from(2);
        };
        return match write_digests(path) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: perfbench --workload fig9-4k|fig9-2m|storm|observed \
                       --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };

    let fp = host::Fingerprint::take(args.seed);
    println!(
        "host: cores={} cpu={:?} git={} rustc={:?} seed={}",
        fp.cores, fp.cpu, fp.git, fp.rustc, fp.seed
    );
    let table = match DigestTable::parse(include_str!("../digests.txt")) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: digests.txt: {e}");
            return ExitCode::FAILURE;
        }
    };
    let digests = if args.seed == DIGEST_SEED {
        Some(&table)
    } else {
        println!(
            "digest check skipped: seed {} is not the digest seed {DIGEST_SEED}; determinism and \
             reconciliation checks still run",
            args.seed
        );
        None
    };

    let mode = if args.trace { "traced" } else { "timed" };
    let result = if args.trace {
        traced::run(args.bench, args.seed, &Path::new(OUT_DIR).join("traces"), digests).map(
            |(report, spans)| {
                write_spans(args.bench, args.seed, &spans);
                report
            },
        )
    } else {
        timed::run(args.bench, args.seed, args.seconds, started, digests)
    };
    let Report { metrics, attempted, failed, errors } = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for e in &errors {
        println!("FAILED {e}");
    }
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let correct = failed == 0 && errors.is_empty() && finite;
    for m in &metrics {
        println!("{:<36} {:>20} {}", m.name, m.value, m.unit);
    }
    let metrics_json = metrics_json(&metrics);
    append_record(&format!(
        "{{\"bench\": {}, \"mode\": \"{mode}\", \"host\": {}, \"correct\": {correct}, \
         \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics_json}}}",
        host::json_str(args.bench.name()),
        fp.json()
    ));
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics_json}}}"
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
    fn declared(list: &str) -> Vec<(String, String)> {
        let doc = include_str!("../../BENCHMARK.json");
        let start = doc.find(&format!("\"{list}\": [")).expect("list present");
        let body = &doc[start..doc[start..].find(']').map(|e| start + e).expect("list closed")];
        let field = |line: &str, key: &str| {
            let at = line.find(&format!("\"{key}\": \"")).expect("field present") + key.len() + 5;
            line[at..at + line[at..].find('"').expect("string closed")].to_string()
        };
        body.lines()
            .filter(|l| l.contains("\"name\""))
            .map(|l| (field(l, "name"), field(l, "unit")))
            .collect()
    }

    fn names(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics.iter().map(|m| (m.name.clone(), m.unit.to_string())).collect()
    }

    #[test]
    fn printed_metrics_match_benchmark_json() {
        let e2e: Vec<(String, String)> =
            timed::END_TO_END.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(e2e, declared("end_to_end"));
        let per_layer = traced::per_layer(
            &traced::Totals::default(),
            &dispatch::Tracer::new(),
            &micro::Costs::default(),
        );
        assert_eq!(names(&per_layer), declared("per_layer"));
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&args("--workload storm --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!((a.bench, a.seed, a.seconds, a.trace), (Bench::Storm, 7, 3.0, true));
        for bad in [
            "--workload nope",
            "--workload storm --trace 2",
            "--workload storm --seconds 0",
            "--workload storm --seed",
            "--seed 1",
            "--workload storm --color red",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
