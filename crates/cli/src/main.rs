//! `lidc` — the command-line tool over the simulated multi-cluster testbed.
//!
//! Mirrors the paper's user-facing workflow (§IV): submit named
//! computations, check status, retrieve datasets — without knowing where
//! any cluster is.

mod args;
mod commands;

use args::Args;

fn main() {
    let parsed = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let name = parsed.command.as_deref().unwrap_or("help");
    let Some(command) = commands::lookup(name) else {
        eprintln!("error: unknown command {name:?} (try `lidc help`)");
        std::process::exit(1);
    };
    if let Err(e) = command.check_flags(&parsed) {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    if let Err(e) = (command.run)(&parsed) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
