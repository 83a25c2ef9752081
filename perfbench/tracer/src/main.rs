//! Companion binary of the planner benchmark (`perfbench/run.py`).
//!
//! ```text
//! perfbench-tracer check SCRIPT         independent check of every plan an op wrote
//! perfbench-tracer trace SCRIPT OUT     traced in-process replay, Chrome trace to OUT
//! ```
//!
//! `SCRIPT` holds one op per line, spelled exactly as the `soctdc`
//! arguments the untraced run passes (`plan …` or `fleet …`), so both
//! runs read the same operations. Each subcommand prints one result line
//! per op, `ok <op> …` or `fail <op> <reason>`, and exits 0 unless the
//! script itself cannot be read.

mod check;
mod ops;
mod replay;
mod spans;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["check", script] => ops::read_script(script).map(|ops| check::run(&ops)),
        ["trace", script, out] => ops::read_script(script).and_then(|ops| replay::run(&ops, out)),
        _ => Err("usage: perfbench-tracer (check SCRIPT | trace SCRIPT OUT)".to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench-tracer: {message}");
            ExitCode::from(2)
        }
    }
}
