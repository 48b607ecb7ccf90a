//! The `seqdl` binary: a thin wrapper around [`seqdl_cli::run_cli`].

use std::io::{ErrorKind, Write};

fn main() {
    seqdl_cli::install_sigint_handler();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match seqdl_cli::run_cli(&args) {
        Ok(output) => {
            if output.is_empty() {
                return;
            }
            let mut stdout = std::io::stdout().lock();
            match writeln!(stdout, "{output}").and_then(|()| stdout.flush()) {
                Ok(()) => {}
                // The reader went away (`seqdl … | head`): nothing is left
                // to tell it, so this is not a failure.
                Err(error) if error.kind() == ErrorKind::BrokenPipe => {}
                Err(error) => {
                    eprintln!("seqdl: cannot write output: {error}");
                    std::process::exit(1);
                }
            }
        }
        Err(error) => {
            eprintln!("seqdl: {error}");
            std::process::exit(1);
        }
    }
}
