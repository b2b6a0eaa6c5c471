//! Workspace automation. `cargo run -p xtask -- lint` runs the source-level
//! static-analysis pass (see [`lint`]); `cargo run -p xtask -- loc` prints
//! the non-test line count of every first-party crate (see [`loc`]).

mod lint;
mod loc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("lint") => lint::run(&args[1..]),
        Some("loc") => loc::run(&args[1..]),
        _ => {
            eprintln!("usage: cargo run -p xtask -- lint [--self-test] [ROOT] | loc");
            2
        }
    };
    std::process::exit(code);
}
