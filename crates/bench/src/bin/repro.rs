//! The paper's evaluation as one command — see [`cpi2_bench::repro`].

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    cpi2_bench::repro::main(&args)
}
