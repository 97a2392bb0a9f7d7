fn main() -> std::process::ExitCode {
    fcma_benchmark::cli::main(std::env::args().skip(1).collect())
}
