//! `tempdir()` alone: a fresh directory under the system temp dir,
//! removed when the handle drops.
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT: AtomicU64 = AtomicU64::new(0);

pub struct TempDir(PathBuf);

pub fn tempdir() -> std::io::Result<TempDir> {
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!("mltrace-tmp-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&path)?;
    Ok(TempDir(path))
}

impl TempDir {
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
