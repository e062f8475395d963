//! The one stdout writer: every command prints through `out!` and
//! `outln!`. A reader that closes early (`gridvo solve … | head -1`)
//! ends the output, not the command: later output is dropped, and the
//! command finishes and exits as it would have, with nothing on stderr
//! (no `SIGPIPE`: a daemon whose stdout closes keeps serving). Any
//! other write error ends the command with exit code 2.

use std::io::{ErrorKind, Write};
use std::sync::atomic::{AtomicBool, Ordering};

static CLOSED: AtomicBool = AtomicBool::new(false);

/// Write `args` to stdout, unless its reader has gone.
pub fn write(args: std::fmt::Arguments) {
    if CLOSED.load(Ordering::Relaxed) {
        return;
    }
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() != ErrorKind::BrokenPipe {
            eprintln!("gridvo: cannot write to stdout: {e}");
            std::process::exit(2);
        }
        CLOSED.store(true, Ordering::Relaxed);
    }
}

/// `print!` through `write`.
macro_rules! out {
    ($($arg:tt)*) => { $crate::out::write(format_args!($($arg)*)) };
}

/// `println!` through `write`.
macro_rules! outln {
    () => { $crate::out::write(format_args!("\n")) };
    ($($arg:tt)*) => { $crate::out::write(format_args!("{}\n", format_args!($($arg)*))) };
}
