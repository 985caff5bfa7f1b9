//! Workspace-level test/example umbrella for Hypatia.

#![forbid(unsafe_code)]
