//! `tipdecomp` binary entry point.
//!
//! Exit codes: 0 on success, 2 for argument-parse errors (usage printed),
//! 1 for run errors (message names the failing subcommand).

#![forbid(unsafe_code)]

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match receipt_cli::parse(&args) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", receipt_cli::USAGE);
            std::process::exit(2);
        }
    };
    // `parse` accepted the subcommand, so the first argument names it.
    let name = args.first().map_or("help", String::as_str);
    if let Err(e) = receipt_cli::run(cmd) {
        eprintln!(
            "error: {e}\n  while running `tipdecomp {name}` (run `tipdecomp help` for usage)"
        );
        std::process::exit(1);
    }
}
