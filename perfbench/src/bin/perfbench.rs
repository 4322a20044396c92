//! The untimed-overhead binary: end-to-end metrics (`--trace 0`). It
//! installs no allocator of its own.

fn main() -> std::process::ExitCode {
    perfbench::main()
}
