//! Scratch directories for the ingest tests: one per process and
//! label, so two checkouts testing at once never share files, removed
//! when dropped. Shared by the crate's unit tests, its integration
//! tests, the root package's `tests/ingest_e2e.rs`, and `usi_core`'s
//! storage unit tests and `tests/persist_file.rs`.

#![allow(dead_code)] // each including test binary uses a different subset

use std::path::{Path, PathBuf};

/// A fresh, empty directory `<temp>/<label>-<pid>`, removed on drop.
/// Labels must be unique among the tests of one binary, which run in
/// parallel.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(label: &str) -> Self {
        let path = std::env::temp_dir().join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create test directory");
        Self(path)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// `name` inside the directory.
    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
