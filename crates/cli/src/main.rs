//! `isobar` — command-line front end for ISOBAR-compress.
//!
//! Every flag is one row of the table in `args.rs`, which parses argv
//! and renders the option sections of `isobar help`.
//!
//! Exit codes: 0 success (`isobar help | --help | -h` print the usage
//! to stdout), 1 usage error (the message and the usage go to stderr),
//! 2 processing error, 3 `fsck` found damage.

use std::process::ExitCode;

mod args;
mod commands;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match args::parse(&argv) {
        Ok(cmd) => match commands::run(cmd) {
            Ok(code) => ExitCode::from(code),
            Err(err) => {
                eprintln!("isobar: {err}");
                ExitCode::from(2)
            }
        },
        Err(msg) => {
            eprintln!("isobar: {msg}");
            eprintln!();
            eprintln!("{}", args::usage());
            ExitCode::from(1)
        }
    }
}
