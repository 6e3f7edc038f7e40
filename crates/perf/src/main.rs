//! `perf`: see `README.md` beside this crate.

fn main() -> std::process::ExitCode {
    optrep_perf::cli::main(std::env::args().skip(1).collect())
}
