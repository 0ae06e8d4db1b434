//! `tcast-repro`'s library: models that drive the live crates through
//! their public API and that nothing live depends on. The `repro` binary
//! prints them as reports next to the paper's hardware model.

pub mod fleet;
