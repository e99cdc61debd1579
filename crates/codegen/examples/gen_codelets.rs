//! Print the generated codelet kernels (`src/codelet/generated.rs`).
//!
//! ```sh
//! cargo run -q -p spiral-codegen --example gen_codelets > crates/codegen/src/codelet/generated.rs
//! ```

fn main() {
    print!("{}", spiral_codegen::codelet::generated_source());
}
