//! `sekitei` — command-line interface to the deployment planner; run
//! `sekitei help` for the usage text.

use std::io::{self, Write};
use std::process::ExitCode;

/// `print!` for the CLI's stdout; see [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!($($arg)*))
    };
}

/// `println!` for the CLI's stdout; see [`write_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

mod commands;

/// Write to stdout. When the reader has gone (`sekitei … | head`, or a
/// `grep -q` that already matched) the process ends quietly with success:
/// the output nobody reads cannot change the answer. Any other write
/// error fails the process.
fn write_stdout(args: std::fmt::Arguments<'_>) {
    if let Err(e) = io::stdout().write_fmt(args) {
        if e.kind() == io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: cannot write to stdout: {e}");
        std::process::exit(1);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
