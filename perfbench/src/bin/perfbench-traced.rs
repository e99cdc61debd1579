//! Traced build (`trace` feature): per-layer metrics.

fn main() {
    perfbench::main();
}
