//! `mltrace-benchmark`: one run of one workload, or `--agree A B`.
//!
//! ```text
//! mltrace-benchmark --workload W --seed N --seconds S --trace 0|1
//!                   [--out-dir DIR] [--record FILE]
//! mltrace-benchmark --agree A.jsonl B.jsonl --spec BENCHMARK.json
//! ```
//!
//! The last line of standard output is the result object. Exit code 0
//! means every operation and every check succeeded.

mod gen;
mod harness;
mod layers;
mod report;
mod run;
mod spans;
mod stats;
mod verify;

use harness::{Result, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out_dir: PathBuf,
    record: Option<PathBuf>,
    spec: PathBuf,
    agree: Option<(PathBuf, PathBuf)>,
}

fn parse_cli() -> Result<Cli> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: 10,
        trace: false,
        out_dir: PathBuf::from("benchmark/out"),
        record: None,
        spec: PathBuf::from("BENCHMARK.json"),
        agree: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--seed" => cli.seed = number(value()?)?,
            "--seconds" => cli.seconds = number(value()?)?.max(1),
            "--trace" => cli.trace = number(value()?)? != 0,
            "--traced" => cli.trace = true,
            "--out-dir" => cli.out_dir = value()?.into(),
            "--record" => cli.record = Some(value()?.into()),
            "--spec" => cli.spec = value()?.into(),
            "--agree" => cli.agree = Some((value()?.into(), value()?.into())),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

/// Confine this process, and every thread it will start, to one of the CPUs
/// it may run on, and say which. The sandbox's second core comes and goes
/// with the host's other guests: left to both, the same query took 3 ms in
/// one run and 5 ms in the next, as its two scan threads did or did not get
/// a core each, and every hop between threads paid a wake-up across cores.
/// On one CPU the engine sees `available_parallelism() == 1` and sizes its
/// pools to match, so what is timed is its serial cost, which repeats.
fn pin_to_one_cpu() -> Result<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut allowed = [0u64; 16];
    let size = std::mem::size_of_val(&allowed);
    // SAFETY: `allowed` is `size` writable bytes, the kernel writes at most
    // `size`, and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
        return Err("sched_getaffinity failed".into());
    }
    // The last one: interrupts are served on the first by default.
    let cpu = (0..allowed.len() * 64)
        .rev()
        .find(|&cpu| allowed[cpu / 64] >> (cpu % 64) & 1 == 1)
        .ok_or("no CPU in the affinity mask")?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is `size` readable bytes naming a CPU the mask allowed.
    // Called before any thread is spawned, so every thread inherits it.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!("sched_setaffinity to CPU {cpu} failed"));
    }
    Ok(cpu)
}

fn main_inner() -> Result<bool> {
    let cli = parse_cli()?;
    if let Some((a, b)) = &cli.agree {
        return report::agree(&cli.spec, a, b);
    }
    let name = cli.workload.ok_or("--workload is required")?;
    let workload = Workload::by_name(&name).ok_or_else(|| {
        let known: Vec<&str> = harness::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; known: {}", known.join(", "))
    })?;
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = pin_to_one_cpu()?;
    println!(
        "workload {} seed {} seconds {} trace {} ({} lanes, pinned to CPU {cpu} of {cores})",
        workload.name,
        cli.seed,
        cli.seconds,
        u8::from(cli.trace),
        workload.lanes(),
    );
    let outcome = run::run(&run::Args {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        out_dir: cli.out_dir,
    })?;
    let list = if cli.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    println!(
        "operations attempted {} failed {}",
        outcome.attempted, outcome.failed
    );
    let result = report::render(list, &outcome)?;
    if let Some(path) = &cli.record {
        report::record(path, workload.name, cli.seed, cli.trace, &result)?;
    }
    println!("{result}");
    Ok(outcome.failed == 0)
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("benchmark failed: {message}");
            ExitCode::from(2)
        }
    }
}
