//! Helpers shared by the root integration-test binaries. Each binary that
//! needs them pulls this in with `mod common;`.

pub mod alloc;
