//! # mce-error — the workspace-wide error type
//!
//! Every fallible loading/parsing path in the exploration stack returns
//! [`MceError`], so callers match on one enum instead of a zoo of
//! per-crate error types or — worse — panics on malformed input. The
//! facade crate re-exports it as `memory_conex::MceError`.
//!
//! The crate is dependency-free on purpose: it sits below `appmodel`,
//! `connlib` and `core` in the workspace graph, so it can only use the
//! standard library.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::error::Error;
use std::fmt;
use std::io;

/// The unified error type of the exploration stack.
#[derive(Debug)]
pub enum MceError {
    /// An I/O failure, with the operation that was attempted.
    Io {
        /// What was being done (e.g. `reading trace file \`t.csv\``).
        context: String,
        /// The underlying I/O error.
        source: io::Error,
    },
    /// A malformed line in an access-trace file.
    TraceParse {
        /// 1-based line number of the first bad line.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// Malformed JSON (workload files, connectivity libraries, cache
    /// spills).
    Json {
        /// What was being parsed.
        context: String,
        /// The parser's message.
        reason: String,
    },
    /// A structurally invalid connectivity library.
    Library {
        /// Which invariant failed.
        reason: String,
    },
    /// Invalid input to a builder or session (e.g. a session run without
    /// a workload).
    InvalidInput {
        /// What was missing or inconsistent.
        reason: String,
    },
    /// A rejected command-line argument (out-of-range, unparseable, or a
    /// missing value), with a one-line usage hint.
    InvalidArg {
        /// The flag that was rejected (e.g. `--threads`).
        flag: String,
        /// Why its value was rejected.
        reason: String,
        /// A one-line hint for correct usage.
        hint: String,
    },
    /// One or more worker closures panicked and the serial retry failed
    /// too. A single panic never surfaces here — the parallel map retries
    /// the item serially first; this is the "failed twice" verdict.
    WorkerPanic {
        /// The parallel region the panic escaped from.
        region: String,
        /// How many items still failed after the serial retry.
        failed_items: usize,
        /// The first panic's payload, when it was a string.
        first_panic: String,
    },
    /// A checkpoint file that cannot be used: corrupt bytes (digest
    /// mismatch), an unknown schema, or a config/workload that does not
    /// match the run being resumed.
    Checkpoint {
        /// Why the checkpoint was rejected.
        reason: String,
    },
    /// A schema-versioned artifact (run report, live-status file,
    /// archive index) whose `schema` field is newer than this build
    /// understands, or missing entirely. Older schemas load; newer ones
    /// fail here rather than being silently misread.
    SchemaVersion {
        /// What kind of artifact carried the bad version (e.g.
        /// `run report`).
        artifact: String,
        /// The version found in the file (`none` when absent).
        found: String,
        /// The newest version this build supports.
        supported: u64,
    },
}

impl MceError {
    /// Wraps an I/O error with context.
    pub fn io(context: impl Into<String>, source: io::Error) -> Self {
        MceError::Io {
            context: context.into(),
            source,
        }
    }

    /// A JSON parse/serialize failure with context.
    pub fn json(context: impl Into<String>, reason: impl fmt::Display) -> Self {
        MceError::Json {
            context: context.into(),
            reason: reason.to_string(),
        }
    }

    /// A connectivity-library validation failure.
    pub fn library(reason: impl Into<String>) -> Self {
        MceError::Library {
            reason: reason.into(),
        }
    }

    /// An invalid-input failure.
    pub fn invalid_input(reason: impl Into<String>) -> Self {
        MceError::InvalidInput {
            reason: reason.into(),
        }
    }

    /// A rejected command-line argument with a usage hint.
    pub fn invalid_arg(
        flag: impl Into<String>,
        reason: impl Into<String>,
        hint: impl Into<String>,
    ) -> Self {
        MceError::InvalidArg {
            flag: flag.into(),
            reason: reason.into(),
            hint: hint.into(),
        }
    }

    /// A twice-failed worker panic in the named parallel region.
    pub fn worker_panic(
        region: impl Into<String>,
        failed_items: usize,
        first_panic: impl Into<String>,
    ) -> Self {
        MceError::WorkerPanic {
            region: region.into(),
            failed_items,
            first_panic: first_panic.into(),
        }
    }

    /// An unusable-checkpoint failure.
    pub fn checkpoint(reason: impl Into<String>) -> Self {
        MceError::Checkpoint {
            reason: reason.into(),
        }
    }

    /// An unsupported-schema-version failure for the named artifact.
    pub fn schema_version(
        artifact: impl Into<String>,
        found: impl Into<String>,
        supported: u64,
    ) -> Self {
        MceError::SchemaVersion {
            artifact: artifact.into(),
            found: found.into(),
            supported,
        }
    }
}

impl fmt::Display for MceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MceError::Io { context, source } => write!(f, "{context}: {source}"),
            MceError::TraceParse { line, reason } => write!(f, "trace line {line}: {reason}"),
            MceError::Json { context, reason } => write!(f, "{context}: invalid JSON: {reason}"),
            MceError::Library { reason } => write!(f, "invalid connectivity library: {reason}"),
            MceError::InvalidInput { reason } => write!(f, "invalid input: {reason}"),
            MceError::InvalidArg { flag, reason, hint } => {
                write!(f, "invalid argument: {flag}: {reason} (usage: {hint})")
            }
            MceError::WorkerPanic {
                region,
                failed_items,
                first_panic,
            } => write!(
                f,
                "worker panic in `{region}`: {failed_items} item(s) failed twice; \
                 first panic: {first_panic}"
            ),
            MceError::Checkpoint { reason } => write!(f, "unusable checkpoint: {reason}"),
            MceError::SchemaVersion {
                artifact,
                found,
                supported,
            } => write!(
                f,
                "unsupported {artifact} schema version {found} \
                 (this build supports up to {supported})"
            ),
        }
    }
}

impl Error for MceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MceError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<io::Error> for MceError {
    fn from(source: io::Error) -> Self {
        MceError::Io {
            context: "I/O error".to_owned(),
            source,
        }
    }
}

/// Sequence number distinguishing concurrent [`atomic_write`] calls to
/// the same destination from different threads of one process (the live
/// publisher thread and the main thread both rewrite the status file).
static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Writes `bytes` to `path` atomically: the content lands in a
/// `<path>.<pid>.<seq>.tmp` sibling first, is fsynced, and is renamed
/// over the destination only once durable, so a crash mid-write never
/// leaves a truncated or half-written file behind — the previous version
/// (or no file at all) survives intact. The temp file lives in the
/// destination's directory, keeping the rename on one filesystem.
///
/// The temp name embeds the writer's pid and a process-wide sequence
/// number, so two processes (or threads) rewriting the same path — a
/// live-status file, say — never clobber each other's in-flight temp
/// file. A writer SIGKILLed between write and rename leaks its
/// uniquely-named temp; [`sweep_stale_tmps`] reclaims those at the next
/// writer's startup by checking whether the embedded pid is still alive.
///
/// # Errors
///
/// Returns [`MceError::Io`] when the temp file cannot be written or the
/// rename fails; the temp file is cleaned up on failure.
pub fn atomic_write(path: impl AsRef<std::path::Path>, bytes: &[u8]) -> Result<(), MceError> {
    let path = path.as_ref();
    let mut tmp_name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_else(|| std::ffi::OsString::from("out"));
    tmp_name.push(format!(
        ".{}.{}.tmp",
        std::process::id(),
        TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    let tmp = path.with_file_name(tmp_name);
    let attempt = (|| -> io::Result<()> {
        #[cfg(feature = "fault-injection")]
        mce_faultinject::on_write(path)?;
        let mut file = std::fs::File::create(&tmp)?;
        io::Write::write_all(&mut file, bytes)?;
        // Durability before visibility: the rename must never expose a
        // name whose bytes are still only in the page cache.
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, path)
    })();
    attempt.map_err(|e| {
        std::fs::remove_file(&tmp).ok();
        MceError::io(format!("writing `{}` atomically", path.display()), e)
    })
}

/// Removes temp files leaked next to `target` by [`atomic_write`] calls
/// that died between write and rename, returning how many were swept.
/// Call at writer startup — before the first checkpoint, archive, live
/// status or heartbeat write — never concurrently with live writers of
/// *other* processes' files.
///
/// A sibling `<name>.<pid>.<seq>.tmp` is stale when `<pid>` is not this
/// process and is no longer alive; liveness is read from `/proc`, and on
/// systems without it every foreign pid is conservatively treated as
/// alive. Legacy `<name>.tmp` leftovers (the pre-pid format, with no
/// recorded owner) are always swept. Errors are deliberately swallowed:
/// sweeping is an optimization, never a correctness requirement.
pub fn sweep_stale_tmps(target: impl AsRef<std::path::Path>) -> usize {
    let target = target.as_ref();
    let Some(name) = target.file_name().and_then(|n| n.to_str()) else {
        return 0;
    };
    let dir = match target.parent() {
        Some(d) if !d.as_os_str().is_empty() => d.to_path_buf(),
        _ => std::path::PathBuf::from("."),
    };
    let Ok(entries) = std::fs::read_dir(&dir) else {
        return 0;
    };
    let prefix = format!("{name}.");
    let mut swept = 0;
    for entry in entries.flatten() {
        let file_name = entry.file_name();
        let Some(file_name) = file_name.to_str() else {
            continue;
        };
        let Some(rest) = file_name.strip_prefix(&prefix) else {
            continue;
        };
        let stale = if rest == "tmp" {
            true // legacy fixed-name temp: ownerless, always stale
        } else {
            let Some(mid) = rest.strip_suffix(".tmp") else {
                continue;
            };
            let Some((pid, seq)) = mid.split_once('.') else {
                continue;
            };
            if seq.is_empty() || !seq.bytes().all(|b| b.is_ascii_digit()) {
                continue;
            }
            match pid.parse::<u32>() {
                Ok(pid) if pid != std::process::id() => !pid_alive(pid),
                _ => false,
            }
        };
        if stale && std::fs::remove_file(entry.path()).is_ok() {
            swept += 1;
        }
    }
    swept
}

/// Whether `pid` is a live process. Without `/proc` (non-Linux) this
/// cannot be answered from safe std, so the answer is a conservative
/// "alive" — a stale temp is then merely kept, never a live one removed.
fn pid_alive(pid: u32) -> bool {
    if !std::path::Path::new("/proc").is_dir() {
        return true;
    }
    std::path::Path::new(&format!("/proc/{pid}")).exists()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_context() {
        let e = MceError::io(
            "reading `x.csv`",
            io::Error::new(io::ErrorKind::NotFound, "gone"),
        );
        let s = e.to_string();
        assert!(s.contains("reading `x.csv`"), "{s}");
        assert!(s.contains("gone"), "{s}");
    }

    #[test]
    fn trace_parse_names_the_line() {
        let e = MceError::TraceParse {
            line: 7,
            reason: "bad kind `X`".into(),
        };
        let s = e.to_string();
        assert!(s.contains("line 7"), "{s}");
        assert!(s.contains("bad kind"), "{s}");
    }

    #[test]
    fn io_source_is_chained() {
        let e = MceError::from(io::Error::other("root"));
        assert!(e.source().is_some());
    }

    #[test]
    fn library_and_input_render() {
        assert!(MceError::library("no components")
            .to_string()
            .contains("no components"));
        assert!(MceError::invalid_input("missing workload")
            .to_string()
            .contains("missing workload"));
    }

    #[test]
    fn invalid_arg_renders_flag_reason_and_hint() {
        let s = MceError::invalid_arg("--threads", "must be >= 1", "--threads N").to_string();
        assert!(s.contains("--threads"), "{s}");
        assert!(s.contains("must be >= 1"), "{s}");
        assert!(s.contains("usage: --threads N"), "{s}");
    }

    #[test]
    fn worker_panic_and_checkpoint_render() {
        let s = MceError::worker_panic("conex.estimate", 2, "boom").to_string();
        assert!(s.contains("conex.estimate"), "{s}");
        assert!(s.contains("2 item(s)"), "{s}");
        assert!(s.contains("boom"), "{s}");
        assert!(MceError::checkpoint("digest mismatch")
            .to_string()
            .contains("digest mismatch"));
    }

    #[test]
    fn schema_version_names_artifact_and_versions() {
        let s = MceError::schema_version("run report", "9", 1).to_string();
        assert!(s.contains("run report"), "{s}");
        assert!(s.contains('9'), "{s}");
        assert!(s.contains("up to 1"), "{s}");
    }

    #[test]
    fn atomic_write_round_trips_and_replaces() {
        let dir = std::env::temp_dir().join(format!("mce_atomic_rt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.txt");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        // No temp file of any spelling left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_writers_never_tear_the_destination() {
        let dir = std::env::temp_dir().join(format!("mce_atomic_race_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shared.json");
        std::thread::scope(|s| {
            for t in 0u8..4 {
                let path = &path;
                s.spawn(move || {
                    let payload = vec![b'a' + t; 4096];
                    for _ in 0..25 {
                        atomic_write(path, &payload).unwrap();
                    }
                });
            }
        });
        // Every observed state is some writer's complete payload.
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.len(), 4096);
        assert!(bytes.windows(2).all(|w| w[0] == w[1]), "torn write");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sweep_removes_dead_owner_and_legacy_tmps_only() {
        let dir = std::env::temp_dir().join(format!("mce_sweep_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let target = dir.join("state.json");
        std::fs::write(&target, b"real").unwrap();
        // A pid far beyond pid_max: certainly dead on any Linux.
        let dead = dir.join("state.json.4294967295.7.tmp");
        let legacy = dir.join("state.json.tmp");
        let mine = dir.join(format!("state.json.{}.0.tmp", std::process::id()));
        let unrelated = dir.join("other.json.4294967295.7.tmp");
        for f in [&dead, &legacy, &mine, &unrelated] {
            std::fs::write(f, b"junk").unwrap();
        }
        let swept = sweep_stale_tmps(&target);
        if std::path::Path::new("/proc").is_dir() {
            assert_eq!(swept, 2, "dead-owner and legacy temps");
            assert!(!dead.exists() && !legacy.exists());
        } else {
            assert_eq!(swept, 1, "only the ownerless legacy temp");
        }
        assert!(mine.exists(), "a live owner's temp must survive");
        assert!(unrelated.exists(), "other destinations are untouched");
        assert!(target.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_write_to_bad_directory_is_io_error() {
        let err = atomic_write("/nonexistent/dir/file.txt", b"x").unwrap_err();
        assert!(matches!(err, MceError::Io { .. }), "{err}");
    }
}
