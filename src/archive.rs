//! Content-addressed archive of exploration run reports.
//!
//! Every run report has a deterministic view (every section but
//! `wall_clock` — see [`report::stable_view`]). The archive stores
//! reports under the FNV-128 digest of that view, so two runs of the
//! same configuration on the same workload — regardless of thread count,
//! machine or wall-clock — collapse to the *same* digest and are stored
//! once. That turns the archive into a cross-run memory: `mce runs list`
//! shows what has been explored, `mce diff` compares any two entries,
//! and a re-run of a known configuration is detected as a duplicate
//! instead of silently accumulating.
//!
//! ## On-disk layout
//!
//! ```text
//! <root>/
//!   index.jsonl            one summary line per archived run (append-only)
//!   objects/<digest>.json  the full report, verbatim
//! ```
//!
//! Each index line is one compact JSON object, written through the
//! workspace's [`json::Writer`] in a fixed key order:
//!
//! ```text
//! {"schema":1,"digest":"…","workload":"…","workload_digest":"…",
//!  "preset":"fast|paper|custom","status":"…","stop_reason":…,
//!  "funnel":{"enumerated":N,"estimated":N,"simulated":N},
//!  "hypervolume":X}
//! ```
//!
//! Readers parse lines as JSON, so older lines printed with a space
//! after each `:` and `,` load the same.
//!
//! Archive mutations are counted under the `archive.*` counter family
//! (`runs_added`, `duplicates`, `bytes_stored`, `gc_removed`).

use crate::report::{self, check_report_schema};
use mce_error::{atomic_write, MceError};
use mce_obs as obs;
use mce_obs::fnv128;
use mce_obs::json::{self, ToJson, Value, Writer};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Version stamp of the archive index line format. Bumped when the line
/// shape changes incompatibly; readers refuse newer versions with a
/// typed [`MceError::SchemaVersion`].
pub const ARCHIVE_SCHEMA: u64 = 1;

/// One archived run, as summarized on its index line.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchiveEntry {
    /// FNV-128 digest (32 hex chars) of the report's stable view —
    /// the entry's identity and the object file's name.
    pub digest: String,
    /// Workload name.
    pub workload: String,
    /// Workload content digest.
    pub workload_digest: String,
    /// Preset inferred from the config section: `fast`, `paper` or
    /// `custom`.
    pub preset: String,
    /// Run status (`completed` / `truncated`).
    pub status: String,
    /// Stop reason for truncated runs.
    pub stop_reason: Option<String>,
    /// Candidate funnel totals: enumerated, estimated, simulated.
    pub funnel: (u64, u64, u64),
    /// Hypervolume proxy of the final frontier snapshot (0 when the run
    /// recorded no snapshots).
    pub hypervolume: f64,
}

/// Outcome of [`RunArchive::add`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddOutcome {
    /// Digest of the report's stable view.
    pub digest: String,
    /// True when an entry with this digest already existed; nothing was
    /// written.
    pub duplicate: bool,
}

/// What [`RunArchive::gc`] removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GcStats {
    /// Index entries dropped (beyond `keep`, or pointing at missing
    /// objects).
    pub entries_removed: usize,
    /// Object files deleted (orphaned, or belonging to dropped entries).
    pub objects_removed: usize,
}

/// A content-addressed run archive rooted at a directory.
#[derive(Debug, Clone)]
pub struct RunArchive {
    root: PathBuf,
}

impl RunArchive {
    /// Opens (without creating) an archive rooted at `root`. The
    /// directory is created lazily on first [`RunArchive::add`].
    pub fn open(root: impl Into<PathBuf>) -> Self {
        RunArchive { root: root.into() }
    }

    /// The archive's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn index_path(&self) -> PathBuf {
        self.root.join("index.jsonl")
    }

    fn object_path(&self, digest: &str) -> PathBuf {
        self.root.join("objects").join(format!("{digest}.json"))
    }

    /// Archives a serialized run report. The digest covers only the
    /// stable view ([`report::stable_view`]), so re-running the same
    /// configuration (any thread count, hot or cold cache timing aside —
    /// the cache *statistics* do shift the digest) dedupes against the
    /// existing entry.
    ///
    /// # Errors
    ///
    /// [`MceError::Json`] when `report_text` is not valid JSON,
    /// [`MceError::SchemaVersion`] when its report schema is unknown,
    /// [`MceError::Io`] on filesystem failures.
    pub fn add(&self, report_text: &str) -> Result<AddOutcome, MceError> {
        let doc =
            json::parse(report_text).map_err(|e| MceError::json("run report", e.to_string()))?;
        check_report_schema(&doc)?;
        let digest = fnv128(report::stable_view(report_text)?.as_bytes());
        if self.entries()?.iter().any(|e| e.digest == digest) {
            obs::counter_add("archive.duplicates", 1);
            return Ok(AddOutcome {
                digest,
                duplicate: true,
            });
        }
        fs::create_dir_all(self.root.join("objects"))
            .map_err(|e| MceError::io("creating archive directories", e))?;
        atomic_write(self.object_path(&digest), report_text.as_bytes())?;
        let line = index_line(&digest, &doc);
        let mut index = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.index_path())
            .map_err(|e| MceError::io("opening archive index", e))?;
        index
            .write_all(line.as_bytes())
            .map_err(|e| MceError::io("appending archive index", e))?;
        obs::counter_add("archive.runs_added", 1);
        obs::counter_add("archive.bytes_stored", report_text.len() as u64);
        Ok(AddOutcome {
            digest,
            duplicate: false,
        })
    }

    /// All index entries, oldest first. A missing index means an empty
    /// archive.
    ///
    /// # Errors
    ///
    /// [`MceError::Io`] when the index exists but cannot be read,
    /// [`MceError::Json`] on a malformed line,
    /// [`MceError::SchemaVersion`] on a line written by a newer build.
    pub fn entries(&self) -> Result<Vec<ArchiveEntry>, MceError> {
        let text = match fs::read_to_string(self.index_path()) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(MceError::io("reading archive index", e)),
        };
        text.lines()
            .filter(|l| !l.trim().is_empty())
            .map(parse_index_line)
            .collect()
    }

    /// Resolves a digest prefix (at least 4 hex chars) to the unique
    /// matching entry and returns its digest plus the archived report
    /// text.
    ///
    /// # Errors
    ///
    /// [`MceError::InvalidInput`] when the prefix is too short, matches
    /// nothing or is ambiguous; index/read errors as in
    /// [`RunArchive::entries`].
    pub fn show(&self, digest_prefix: &str) -> Result<(String, String), MceError> {
        if digest_prefix.len() < 4 {
            return Err(MceError::invalid_input(format!(
                "digest prefix `{digest_prefix}` is too short (need at least 4 hex chars)"
            )));
        }
        let entries = self.entries()?;
        let matches: Vec<&ArchiveEntry> = entries
            .iter()
            .filter(|e| e.digest.starts_with(digest_prefix))
            .collect();
        match matches.as_slice() {
            [] => Err(MceError::invalid_input(format!(
                "no archived run matches digest prefix `{digest_prefix}`"
            ))),
            [one] => {
                let text = fs::read_to_string(self.object_path(&one.digest))
                    .map_err(|e| MceError::io("reading archived report", e))?;
                Ok((one.digest.clone(), text))
            }
            many => Err(MceError::invalid_input(format!(
                "digest prefix `{digest_prefix}` is ambiguous ({} matches)",
                many.len()
            ))),
        }
    }

    /// Garbage-collects the archive: keeps the newest `keep` index
    /// entries (all of them when `None`), drops entries whose object
    /// file vanished, and deletes object files no surviving entry
    /// references. The index is rewritten atomically.
    ///
    /// # Errors
    ///
    /// Index/read errors as in [`RunArchive::entries`]; [`MceError::Io`]
    /// on filesystem failures during the rewrite.
    pub fn gc(&self, keep: Option<usize>) -> Result<GcStats, MceError> {
        let entries = self.entries()?;
        let mut stats = GcStats::default();
        let cut = keep.map_or(0, |k| entries.len().saturating_sub(k));
        let survivors: Vec<&ArchiveEntry> = entries[cut..]
            .iter()
            .filter(|e| self.object_path(&e.digest).exists())
            .collect();
        stats.entries_removed = entries.len() - survivors.len();
        let objects_dir = self.root.join("objects");
        if objects_dir.is_dir() {
            let listing = fs::read_dir(&objects_dir)
                .map_err(|e| MceError::io("listing archive objects", e))?;
            for item in listing {
                let item = item.map_err(|e| MceError::io("listing archive objects", e))?;
                let name = item.file_name().to_string_lossy().into_owned();
                let digest = name.strip_suffix(".json").unwrap_or(&name);
                if !survivors.iter().any(|e| e.digest == digest) {
                    fs::remove_file(item.path())
                        .map_err(|e| MceError::io("removing archive object", e))?;
                    stats.objects_removed += 1;
                }
            }
        }
        if stats.entries_removed > 0 {
            let mut rewritten = String::new();
            for e in &survivors {
                rewritten.push_str(&entry_line(e));
            }
            atomic_write(self.index_path(), rewritten.as_bytes())?;
        }
        obs::counter_add(
            "archive.gc_removed",
            (stats.entries_removed + stats.objects_removed) as u64,
        );
        Ok(stats)
    }
}

/// Infers the preset name from a report's `config` section by matching
/// the two knobs that differ between the built-in presets.
fn infer_preset(doc: &Value) -> &'static str {
    let knob = |k: &str| {
        doc.get("config")
            .and_then(|c| c.get(k))
            .and_then(Value::as_u64)
    };
    match (knob("conex_trace_len"), knob("local_keep")) {
        (Some(15_000), Some(16)) => "fast",
        (Some(60_000), Some(48)) => "paper",
        _ => "custom",
    }
}

fn index_line(digest: &str, doc: &Value) -> String {
    let s = |k: &str| doc.get(k).and_then(Value::as_str).unwrap_or("");
    let counter = |k: &str| {
        doc.get("counters")
            .and_then(|c| c.get(k))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    };
    let hypervolume = doc
        .get("frontier_evolution")
        .and_then(Value::as_array)
        .and_then(<[Value]>::last)
        .and_then(|snap| snap.get("hypervolume"))
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    entry_line(&ArchiveEntry {
        digest: digest.to_owned(),
        workload: s("workload").to_owned(),
        workload_digest: s("workload_digest").to_owned(),
        preset: infer_preset(doc).to_owned(),
        status: s("status").to_owned(),
        stop_reason: doc
            .get("stop_reason")
            .and_then(Value::as_str)
            .map(str::to_owned),
        funnel: (
            counter("conex.candidates_enumerated"),
            counter("conex.candidates_estimated"),
            counter("conex.simulated"),
        ),
        hypervolume,
    })
}

impl ToJson for ArchiveEntry {
    fn write_json(&self, w: &mut Writer) {
        w.begin_object();
        w.field("schema", &ARCHIVE_SCHEMA);
        w.field("digest", &self.digest);
        w.field("workload", &self.workload);
        w.field("workload_digest", &self.workload_digest);
        w.field("preset", &self.preset);
        w.field("status", &self.status);
        w.field("stop_reason", &self.stop_reason);
        w.key("funnel");
        w.begin_object();
        w.field("enumerated", &self.funnel.0);
        w.field("estimated", &self.funnel.1);
        w.field("simulated", &self.funnel.2);
        w.end_object();
        w.field("hypervolume", &self.hypervolume);
        w.end_object();
    }
}

fn entry_line(e: &ArchiveEntry) -> String {
    let mut line = json::to_string(e);
    line.push('\n');
    line
}

fn parse_index_line(line: &str) -> Result<ArchiveEntry, MceError> {
    let doc = json::parse(line).map_err(|e| MceError::json("archive index", e.to_string()))?;
    match doc.get("schema").and_then(Value::as_u64) {
        Some(v) if (1..=ARCHIVE_SCHEMA).contains(&v) => {}
        found => {
            return Err(MceError::schema_version(
                "archive index",
                found.map_or_else(|| "none".to_owned(), |v| v.to_string()),
                ARCHIVE_SCHEMA,
            ))
        }
    }
    let s = |k: &str| doc.get(k).and_then(Value::as_str).unwrap_or("").to_owned();
    let f = |k: &str| {
        doc.get("funnel")
            .and_then(|f| f.get(k))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    };
    Ok(ArchiveEntry {
        digest: s("digest"),
        workload: s("workload"),
        workload_digest: s("workload_digest"),
        preset: s("preset"),
        status: s("status"),
        stop_reason: doc
            .get("stop_reason")
            .and_then(Value::as_str)
            .map(str::to_owned),
        funnel: (f("enumerated"), f("estimated"), f("simulated")),
        hypervolume: doc
            .get("hypervolume")
            .and_then(Value::as_f64)
            .unwrap_or(0.0),
    })
}

/// Renders the archive listing as an aligned text table, newest last.
pub fn render_listing(entries: &[ArchiveEntry]) -> String {
    let mut out = String::from(
        "DIGEST        WORKLOAD      PRESET  STATUS      ENUM/EST/SIM           HYPERVOL\n",
    );
    for e in entries {
        let stop = e
            .stop_reason
            .as_ref()
            .map_or_else(String::new, |r| format!(" ({r})"));
        out.push_str(&format!(
            "{:<12}  {:<12}  {:<6}  {:<10}  {:>6}/{:>6}/{:>6}  {:>10.4}\n",
            &e.digest[..12.min(e.digest.len())],
            e.workload,
            e.preset,
            format!("{}{stop}", e.status),
            e.funnel.0,
            e.funnel.1,
            e.funnel.2,
            e.hypervolume,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(workload: &str, trace_len: usize, enumerated: u64) -> String {
        let mut r = crate::report::tests::sample_report();
        r.workload_name = workload.to_owned();
        r.config.conex_trace_len = trace_len;
        r.counters = vec![
            ("conex.candidates_enumerated".to_owned(), enumerated),
            ("conex.candidates_estimated".to_owned(), 40),
            ("conex.simulated".to_owned(), 8),
        ];
        r.to_json()
    }

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mce-archive-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn add_list_show_round_trip_and_dedupe() {
        let root = temp_root("roundtrip");
        let archive = RunArchive::open(&root);
        assert!(archive.entries().unwrap().is_empty());

        let report = report_with("vocoder", 15_000, 120);
        let added = archive.add(&report).unwrap();
        assert!(!added.duplicate);
        assert_eq!(added.digest.len(), 32);

        // Same stable view, different wall clock: a duplicate.
        let rerun = report.replace("\"elapsed_s\": 1.25", "\"elapsed_s\": 9.9");
        assert_ne!(rerun, report);
        let again = archive.add(&rerun).unwrap();
        assert!(again.duplicate);
        assert_eq!(again.digest, added.digest);

        // A deterministic difference lands as a second entry.
        let other = archive.add(&report_with("compress", 60_000, 300)).unwrap();
        assert!(!other.duplicate);
        assert_ne!(other.digest, added.digest);

        let entries = archive.entries().unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].workload, "vocoder");
        assert_eq!(entries[0].preset, "fast");
        assert_eq!(entries[0].funnel, (120, 40, 8));
        assert!((entries[0].hypervolume - 0.42).abs() < 1e-12);
        assert_eq!(entries[1].preset, "custom"); // 60k trace + local_keep 16

        let (digest, text) = archive.show(&added.digest[..8]).unwrap();
        assert_eq!(digest, added.digest);
        assert_eq!(text, report);

        let listing = render_listing(&entries);
        assert!(listing.contains("vocoder"));
        assert!(listing.contains("fast"));

        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn show_rejects_short_missing_and_ambiguous_prefixes() {
        let root = temp_root("show");
        let archive = RunArchive::open(&root);
        assert!(archive
            .show("ab")
            .unwrap_err()
            .to_string()
            .contains("too short"));
        assert!(archive
            .show("abcd")
            .unwrap_err()
            .to_string()
            .contains("no archived run"));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn gc_prunes_old_entries_and_orphans() {
        let root = temp_root("gc");
        let archive = RunArchive::open(&root);
        let d1 = archive
            .add(&report_with("vocoder", 15_000, 1))
            .unwrap()
            .digest;
        let d2 = archive
            .add(&report_with("vocoder", 15_000, 2))
            .unwrap()
            .digest;
        let d3 = archive
            .add(&report_with("vocoder", 15_000, 3))
            .unwrap()
            .digest;
        // An orphaned object no index entry references.
        fs::write(root.join("objects").join("feedfeed.json"), b"{}").unwrap();

        let stats = archive.gc(Some(2)).unwrap();
        assert_eq!(stats.entries_removed, 1);
        assert_eq!(stats.objects_removed, 2); // d1's object + the orphan

        let digests: Vec<String> = archive
            .entries()
            .unwrap()
            .into_iter()
            .map(|e| e.digest)
            .collect();
        assert_eq!(digests, vec![d2.clone(), d3.clone()]);
        assert!(!archive
            .root()
            .join("objects")
            .join(format!("{d1}.json"))
            .exists());
        assert!(archive
            .root()
            .join("objects")
            .join(format!("{d2}.json"))
            .exists());

        // Idempotent when nothing is over quota.
        assert_eq!(archive.gc(Some(2)).unwrap(), GcStats::default());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn index_lines_round_trip_and_older_spaced_lines_still_load() {
        let root = temp_root("lines");
        let archive = RunArchive::open(&root);
        fs::create_dir_all(&root).unwrap();
        // A line as earlier builds printed it, with spaces after `:`/`,`.
        let spaced = "{\"schema\": 1, \"digest\": \"0123456789abcdef0123456789abcdef\", \
                      \"workload\": \"vocoder\", \"workload_digest\": \"abcd1234\", \
                      \"preset\": \"fast\", \"status\": \"truncated\", \
                      \"stop_reason\": \"max-evals\", \"funnel\": {\"enumerated\": 120, \
                      \"estimated\": 40, \"simulated\": 8}, \"hypervolume\": 0.375}\n";
        fs::write(archive.index_path(), spaced).unwrap();
        let entries = archive.entries().unwrap();
        let want = ArchiveEntry {
            digest: "0123456789abcdef0123456789abcdef".to_owned(),
            workload: "vocoder".to_owned(),
            workload_digest: "abcd1234".to_owned(),
            preset: "fast".to_owned(),
            status: "truncated".to_owned(),
            stop_reason: Some("max-evals".to_owned()),
            funnel: (120, 40, 8),
            hypervolume: 0.375,
        };
        assert_eq!(entries, vec![want.clone()]);
        // The writer's compact line holds the same fields, and a name
        // that needs escaping survives the trip.
        let hostile = ArchiveEntry {
            workload: "a\"b\\c".to_owned(),
            stop_reason: None,
            ..want
        };
        let line = entry_line(&hostile);
        assert!(line.starts_with("{\"schema\":1,\"digest\":"), "{line}");
        assert!(line.ends_with("\"hypervolume\":0.375}\n"), "{line}");
        assert_eq!(parse_index_line(line.trim_end()).unwrap(), hostile);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn rejects_malformed_reports_and_foreign_index_lines() {
        let root = temp_root("reject");
        let archive = RunArchive::open(&root);
        assert!(matches!(
            archive.add("not json").unwrap_err(),
            MceError::Json { .. }
        ));
        assert!(matches!(
            archive.add("{\"schema\": 99}").unwrap_err(),
            MceError::SchemaVersion { .. }
        ));

        fs::create_dir_all(&root).unwrap();
        fs::write(
            archive.index_path(),
            "{\"schema\": 99, \"digest\": \"x\"}\n",
        )
        .unwrap();
        match archive.entries().unwrap_err() {
            MceError::SchemaVersion { artifact, .. } => assert_eq!(artifact, "archive index"),
            other => panic!("expected SchemaVersion, got {other:?}"),
        }
        fs::remove_dir_all(&root).unwrap();
    }
}
