//! Durable scratch space and the crash simulation.

use crate::host;
use std::fs::{self, File};
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};

/// File name of the engine's write-ahead log inside a database directory
/// (documented in `madlib_engine::database`'s durability notes).
pub const WAL_FILE: &str = "wal.log";

/// The half frame a crash leaves behind a torn group commit: a length prefix
/// promising 4 096 payload bytes, a checksum, and a payload that stops short.
pub const TORN_FRAME: [u8; 44] = {
    let mut frame = [0x5A; 44];
    frame[0] = 0x00;
    frame[1] = 0x10;
    frame[2] = 0x00;
    frame[3] = 0x00;
    frame
};

/// The build's target directory: the parent of the `release`/`debug`
/// directory the executable runs from, so scratch data lands beside the
/// build outputs (inside the checkout, on its filesystem).
fn target_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| {
            exe.ancestors()
                .find(|dir| {
                    matches!(
                        dir.file_name().and_then(|n| n.to_str()),
                        Some("release" | "debug")
                    )
                })
                .and_then(Path::parent)
                .map(Path::to_path_buf)
        })
        .unwrap_or_else(|| PathBuf::from("target"))
}

/// `<target>/madbench/<seed>-<pid>/`, removed when dropped — on success, on
/// an error return, and on a panic that unwinds through the owner.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// # Errors
    /// Refuses a tmpfs scratch filesystem — fsync there costs nothing, so
    /// every durability number would be fiction — and propagates I/O errors.
    pub fn create(seed: u64) -> Result<Self, String> {
        let root = target_dir().join("madbench");
        let path = root.join(format!("{seed}-{}", std::process::id()));
        fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        let scratch = Self { path };
        let fs_type = host::filesystem_of(&scratch.path);
        if fs_type == "tmpfs" || fs_type == "ramfs" {
            return Err(format!(
                "scratch directory {} is on {fs_type}: durable workloads need a real filesystem",
                scratch.path.display()
            ));
        }
        Ok(scratch)
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A fresh, empty sub-directory.
    pub fn subdir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.path.join(name);
        if dir.exists() {
            fs::remove_dir_all(&dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
        }
        fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

/// Simulates a power loss on the database in `src`: copies the directory to
/// `dst` keeping of the log **only** its first `wal_durable_len` bytes — what
/// `fdatasync` had acknowledged — followed by [`TORN_FRAME`].  Killing the
/// process would leave the OS cache intact, so the benchmark discards the
/// unflushed bytes itself.  Every other file was synced by the checkpoint
/// that wrote it and is copied whole.  Returns the bytes kept (torn frame
/// excluded) — the database's stored size.
///
/// # Errors
/// Propagates I/O errors; a log shorter than `wal_durable_len` is an error
/// (the engine acknowledged bytes it never wrote).
pub fn crash_copy(src: &Path, dst: &Path, wal_durable_len: u64) -> Result<u64, String> {
    let io = |what: &str, e: std::io::Error| format!("crash copy: {what}: {e}");
    fs::create_dir_all(dst).map_err(|e| io("create destination", e))?;
    let mut kept = 0;
    for entry in fs::read_dir(src).map_err(|e| io("list source", e))? {
        let entry = entry.map_err(|e| io("list source", e))?;
        let from = entry.path();
        if !from.is_file() {
            continue;
        }
        let to = dst.join(entry.file_name());
        if entry.file_name() == WAL_FILE {
            let mut durable = vec![0u8; wal_durable_len as usize];
            File::open(&from)
                .and_then(|mut f| f.read_exact(&mut durable))
                .map_err(|e| io("read the durable log prefix", e))?;
            let mut out = File::create(&to).map_err(|e| io("create log", e))?;
            out.write_all(&durable)
                .and_then(|()| out.write_all(&TORN_FRAME))
                .map_err(|e| io("write log", e))?;
            kept += wal_durable_len;
        } else {
            kept += fs::copy(&from, &to).map_err(|e| io("copy file", e))?;
        }
    }
    Ok(kept)
}

/// Puts the torn frame back behind the log: recovery truncates it, and every
/// timed recovery should start from the same bytes.
pub fn tear_log_again(dir: &Path) -> Result<(), String> {
    fs::OpenOptions::new()
        .append(true)
        .open(dir.join(WAL_FILE))
        .and_then(|mut f| f.write_all(&TORN_FRAME))
        .map_err(|e| format!("re-tear log: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_copy_never_keeps_a_byte_past_the_durable_length() {
        let scratch = ScratchDir::create(0xC0FFEE).unwrap();
        let src = scratch.subdir("live").unwrap();
        let dst = scratch.path().join("crashed");
        // A log whose unflushed suffix is recognisable.
        let mut log = vec![0x11u8; 600];
        log.extend_from_slice(&[0xEE; 400]);
        fs::write(src.join(WAL_FILE), &log).unwrap();
        fs::write(src.join("MANIFEST"), [7u8; 90]).unwrap();
        fs::write(src.join("table_1_seg_0.chunks"), [9u8; 300]).unwrap();

        let kept = crash_copy(&src, &dst, 600).unwrap();
        assert_eq!(kept, 600 + 90 + 300);
        let crashed = fs::read(dst.join(WAL_FILE)).unwrap();
        assert_eq!(&crashed[..600], &log[..600]);
        assert_eq!(&crashed[600..], &TORN_FRAME);
        assert!(!crashed.contains(&0xEE), "an unflushed byte survived");
        assert_eq!(fs::read(dst.join("MANIFEST")).unwrap(), [7u8; 90]);
        assert_eq!(
            fs::read(dst.join("table_1_seg_0.chunks")).unwrap().len(),
            300
        );

        tear_log_again(&dst).unwrap();
        assert_eq!(
            fs::read(dst.join(WAL_FILE)).unwrap().len(),
            600 + 2 * TORN_FRAME.len()
        );

        // A durable length the file cannot cover is the engine's bug, not ours.
        assert!(crash_copy(&src, &scratch.path().join("again"), 1001).is_err());
    }

    #[test]
    fn scratch_directories_vanish_on_drop_and_on_panic() {
        let path = {
            let scratch = ScratchDir::create(1).unwrap();
            fs::write(scratch.path().join("f"), b"x").unwrap();
            scratch.path().to_path_buf()
        };
        assert!(!path.exists());

        let panicked = std::panic::catch_unwind(|| {
            let scratch = ScratchDir::create(2).unwrap();
            fs::write(scratch.path().join("f"), b"x").unwrap();
            let path = scratch.path().to_path_buf();
            std::panic::panic_any(path);
        })
        .unwrap_err();
        let path = panicked.downcast::<PathBuf>().unwrap();
        assert!(!path.exists(), "scratch survived a panic");
    }
}
