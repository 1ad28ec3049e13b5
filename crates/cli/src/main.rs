//! The `epfis` binary: see [`epfis_cli`] for the command reference.
//!
//! Exit codes: `0` success, `2` usage / argument parse errors (including an
//! unknown subcommand), `1` runtime errors. Errors print to stderr.

fn main() {
    let cmd = match epfis_cli::Command::parse(std::env::args().skip(1)) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    if !epfis_cli::is_known_command(&cmd.name) {
        eprintln!("unknown command {:?}\n{}", cmd.name, epfis_cli::USAGE);
        std::process::exit(2);
    }
    if let Err(e) = epfis_cli::validate_usage(&cmd) {
        eprintln!("{e}\n{}", epfis_cli::USAGE);
        std::process::exit(2);
    }
    match epfis_cli::run(&cmd) {
        Ok(out) => print_output(&out),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// Writes the command's output to stdout. A reader that closed the pipe
/// early (`epfis show | head -1`) wanted no more of it: exit quietly.
fn print_output(out: &str) {
    use std::io::Write;
    let mut stdout = std::io::stdout().lock();
    match writeln!(stdout, "{out}").and_then(|()| stdout.flush()) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {}
        Err(e) => {
            eprintln!("error: writing output: {e}");
            std::process::exit(1);
        }
    }
}
