//! Untraced build: end-to-end metrics.

fn main() {
    perfbench::main();
}
