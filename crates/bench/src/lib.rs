//! Shared code of the `kernel_bench` binary: its banner, `FAST` mode and
//! the [`json`] row writer.
//!
//! The paper's tables and figures are regenerated from its hardware
//! model by the `repro` binary under `repro/`.

pub mod json;

/// Prints a section banner.
pub fn banner(id: &str, caption: &str) {
    println!("================================================================");
    println!("{id}: {caption}");
    println!("================================================================");
}

/// `true` when the `FAST` environment variable requests reduced sizes
/// (smoke runs and CI).
pub fn fast_mode() -> bool {
    std::env::var("FAST").map(|v| v != "0").unwrap_or(false)
}
