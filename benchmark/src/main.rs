//! `benchmark` — runs one workload in this process and prints its
//! metrics; `benchmark compare A B` judges two result files;
//! `benchmark manifest` prints `BENCHMARK.json`. `run.sh` wraps this
//! binary: it builds it and runs each workload in a fresh process.

use bgi_benchmark::json::Json;
use bgi_benchmark::report::{manifest, RUN_SECONDS};
use bgi_benchmark::run::{run, Args};
use bgi_benchmark::spec::{DEFAULT_SEED, NAMES};
use bgi_benchmark::{compare, spec};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  benchmark --workload W [--seed S] [--seconds N] [--trace [0|1]] [--quick]
            [--out-dir DIR] [--out FILE]
  benchmark compare A.jsonl B.jsonl
  benchmark spread A.jsonl
  benchmark manifest
workloads: query_cold query_hot query_sharded mixed_rw build_load";

/// The default-seed fingerprint of every workload, pinned.
const PINNED: &str = include_str!("../fingerprints.json");

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

struct Cli {
    args: Args,
    out: Option<PathBuf>,
}

fn parse_cli(argv: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = None;
    let (mut trace, mut quick) = (false, false);
    let mut out_dir = PathBuf::from("benchmark/out");
    let mut out = None;
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                let v = value("--seed")?;
                seed = parse_seed(&v).ok_or(format!("bad --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                seconds = Some(
                    v.parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && *s <= 600.0)
                        .ok_or(format!("bad --seconds {v:?}"))?,
                );
            }
            "--out-dir" => out_dir = PathBuf::from(value("--out-dir")?),
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            "--quick" => quick = true,
            // `--trace` alone turns tracing on; the driver passes 0|1.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                    trace = false;
                }
                Some("1") => {
                    it.next();
                    trace = true;
                }
                _ => trace = true,
            },
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if spec::spec(&workload, quick).is_none() {
        return Err(format!("unknown workload {workload:?} (one of {NAMES:?})"));
    }
    let seconds = seconds.unwrap_or(if quick { 2.0 } else { f64::from(RUN_SECONDS) });
    Ok(Cli {
        args: Args {
            workload,
            seed,
            seconds,
            trace,
            quick,
            out_dir,
        },
        out,
    })
}

fn run_workload(cli: &Cli) -> Result<bool, String> {
    let args = &cli.args;
    let report = run(args)?;
    println!(
        "workload {} seed {:#x} seconds {} trace {}{}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.quick {
            " QUICK (not a measurement)"
        } else {
            ""
        }
    );
    println!("fingerprint {}", report.fingerprint);
    for note in &report.notes {
        println!("note: {note}");
    }
    print!("{}", report.outcome.table());

    let mut ok = report.outcome.correct;
    if args.seed == DEFAULT_SEED && !args.quick {
        let pinned = Json::parse(PINNED).map_err(|e| format!("fingerprints.json: {e}"))?;
        match pinned.get(&args.workload).and_then(Json::as_str) {
            Some(want) if want == report.fingerprint => {}
            Some(want) => {
                eprintln!(
                    "FINGERPRINT MISMATCH on {}: generated {} but fingerprints.json pins {want}.\n\
                     A generator change altered this workload's inputs: results are not \
                     comparable with earlier ones. If the change is intended, re-pin and \
                     re-measure the baseline.",
                    args.workload, report.fingerprint
                );
                ok = false;
            }
            None => eprintln!("note: no pinned fingerprint for {}", args.workload),
        }
    }

    let mut line = report.outcome.result_line(args.quick);
    if let Some(path) = &cli.out {
        let mut record = vec![
            ("workload".to_string(), Json::Str(args.workload.clone())),
            ("seed".to_string(), Json::Num(args.seed as f64)),
            ("seconds".to_string(), Json::Num(args.seconds)),
            ("trace".to_string(), Json::Bool(args.trace)),
            (
                "fingerprint".to_string(),
                Json::Str(report.fingerprint.clone()),
            ),
        ];
        if let Json::Obj(pairs) = &line {
            record.extend(pairs.iter().cloned());
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("open {}: {e}", path.display()))?;
        writeln!(file, "{}", Json::Obj(record).render()).map_err(|e| e.to_string())?;
    }
    if !ok {
        if let Json::Obj(pairs) = &mut line {
            pairs[0].1 = Json::Bool(false);
        }
    }
    // The result object is the last line of standard output.
    println!("{}", line.render());
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        None | Some("-h" | "--help") => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
        Some("manifest") => {
            print!("{}", manifest());
            Ok(true)
        }
        Some("spread") => match &argv[1..] {
            [file] => std::fs::read_to_string(file)
                .map_err(|e| format!("read {file}: {e}"))
                .and_then(|text| compare::parse_results(&text))
                .map(|samples| {
                    print!("{}", compare::render_spread(&samples));
                    true
                }),
            _ => Err(USAGE.to_string()),
        },
        Some("compare") => match &argv[1..] {
            [a, b] => (|| {
                let read =
                    |p: &String| std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"));
                let rows = compare::compare(
                    &compare::parse_results(&read(a)?)?,
                    &compare::parse_results(&read(b)?)?,
                );
                print!("{}", compare::render(&rows));
                let bad = |v| rows.iter().filter(|r| r.verdict == v).count();
                let (regressed, unresolved) = (
                    bad(compare::Verdict::Regressed),
                    bad(compare::Verdict::Unresolved),
                );
                println!(
                    "{} rows: {regressed} regressed, {unresolved} unresolved (base = A)",
                    rows.len()
                );
                Ok(regressed == 0 && unresolved == 0)
            })(),
            _ => Err(USAGE.to_string()),
        },
        Some(_) => parse_cli(&argv).and_then(|cli| run_workload(&cli)),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
