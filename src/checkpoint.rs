//! Crash-safe run checkpoints.
//!
//! A [`Checkpoint`] is everything a killed exploration needs to resume
//! bit-identically: how many Phase-I architectures completed, the
//! frontier-evolution samples taken so far, the observability counters
//! and gauges at that point, and the evaluation cache — entries in exact
//! FIFO order plus its lifetime stats, so the resumed cache evicts and
//! counts exactly like the original would have.
//!
//! Notably *absent* are the estimated design points themselves: they are
//! a deterministic function of the workload and configuration, so resume
//! replays the completed architectures through a scratch copy of the
//! restored cache ([`ConexExplorer::phase1_partial_with`]) — every
//! evaluation is a cache hit, making replay cheap — and the recomputed
//! frontier samples are cross-checked against the checkpointed ones.
//! This keeps the file format to a handful of flat fields under one
//! digest instead of a deep serialization of the design space.
//!
//! ## File format
//!
//! Line 1 is a header carrying a digest of everything after it:
//!
//! ```json
//! {"mce_checkpoint":2,"digest":"<32 hex>"}
//! ```
//!
//! The rest is the body: the [`Checkpoint`] itself through the
//! workspace codec ([`mce_obs::json`]), the same dialect as run reports.
//! Integers print exactly (a `u64` counter survives past 2^53) and floats
//! in shortest round-trip form, so every value reads back bit-identical;
//! cache keys ride as their 32-hex-digit strings. The digest is a
//! two-lane FNV-1a over the body bytes, so truncation, bit flips or hand
//! edits anywhere in the file are detected before any field is trusted.
//! Writes go through [`mce_error::atomic_write`]: a crash *during*
//! checkpointing leaves the previous checkpoint intact.
//!
//! Compatibility is enforced, not assumed: the body records digests of
//! the workload and of the full configuration (with `threads` normalized
//! out — thread count never affects results), and
//! [`Checkpoint::ensure_matches`] rejects a checkpoint from a different
//! run with [`MceError::Checkpoint`].
//!
//! [`ConexExplorer::phase1_partial_with`]: mce_conex::ConexExplorer::phase1_partial_with

use mce_apex::ApexConfig;
use mce_conex::design_point::{CanonKey, Metrics};
use mce_conex::explore::Phase1State;
use mce_conex::{CacheStats, ConexConfig, EvalCache, FrontierSnapshot};
use mce_connlib::ConnectivityLibrary;
use mce_error::MceError;
use mce_obs::fnv128;
use mce_obs::json::{self, Value};
use std::path::Path;

/// Version of the checkpoint schema; bumped on any layout change. A
/// version mismatch is always a hard error — resuming across schema
/// changes is not worth silently-wrong results. Version 2 moved the body
/// onto the workspace codec.
pub const CHECKPOINT_SCHEMA: u64 = 2;

/// A point-in-time snapshot of a running exploration — see the module
/// docs for what is (and deliberately is not) captured.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Digest of the workload the run explored.
    pub workload_digest: String,
    /// Digest of the session configuration (threads normalized out).
    pub config_digest: String,
    /// Completed Phase-I memory architectures.
    pub archs_done: usize,
    /// Observability counters at capture time (empty when tracing was
    /// disabled).
    pub counters: Vec<(String, u64)>,
    /// Observability gauges at capture time.
    pub gauges: Vec<(String, u64)>,
    /// Evaluation-cache lifetime stats at capture time.
    pub cache_stats: CacheStats,
    /// Frontier-evolution samples accumulated so far; resume verifies
    /// its replay reproduces exactly these.
    pub frontier: Vec<FrontierSnapshot>,
    /// Evaluation-cache entries in FIFO (insertion) order, so the
    /// restored cache's future evictions match the original's.
    pub entries: Vec<(CanonKey, Metrics)>,
}

mce_obs::json_codec! {
    struct Checkpoint {
        workload_digest, config_digest, archs_done, counters, gauges, cache_stats, frontier, entries
    }
}

impl Checkpoint {
    /// Snapshots the current run: Phase-I progress from `state`, entries
    /// and stats from `cache`, counters and gauges from the global
    /// recorder.
    pub fn capture(
        workload_digest: String,
        config_digest: String,
        state: &Phase1State,
        cache: &EvalCache,
    ) -> Self {
        Checkpoint {
            workload_digest,
            config_digest,
            archs_done: state.archs_done,
            counters: mce_obs::counters_snapshot()
                .into_iter()
                .map(|(n, v)| (n.to_owned(), v))
                .collect(),
            gauges: mce_obs::gauges_snapshot()
                .into_iter()
                .map(|(n, v)| (n.to_owned(), v))
                .collect(),
            cache_stats: cache.stats(),
            frontier: state.frontier_evolution.clone(),
            entries: cache.entries_fifo(),
        }
    }

    /// Serializes to the on-disk form: digest header line plus body.
    /// Byte-stable — identical checkpoints serialize identically.
    pub fn to_json(&self) -> String {
        framed(&json::to_string(self))
    }

    /// Parses the on-disk form, verifying the header digest before
    /// trusting any field.
    ///
    /// # Errors
    ///
    /// Returns [`MceError::Checkpoint`] on a missing or malformed
    /// header, digest mismatch (truncation, bit flips), unsupported
    /// schema, a body that does not decode, a negative or non-finite
    /// cache-entry metric, or a non-finite frontier hypervolume (`1e999`
    /// decodes as infinity).
    pub fn from_json(text: &str) -> Result<Self, MceError> {
        let bad = |why: &str| MceError::checkpoint(format!("{why} — discard the file and rerun"));
        let (header, body) = text
            .split_once('\n')
            .ok_or_else(|| bad("missing header line"))?;
        let header = json::parse(header).map_err(|_| bad("unreadable header"))?;
        if header.get("mce_checkpoint").and_then(Value::as_u64) != Some(CHECKPOINT_SCHEMA) {
            return Err(bad("not a checkpoint of a supported schema"));
        }
        let digest = header
            .get("digest")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("header carries no digest"))?;
        if digest != fnv128(body.as_bytes()) {
            return Err(bad("body does not match its digest (corrupt or truncated)"));
        }
        let ck: Checkpoint =
            json::from_str(body).map_err(|e| bad(&format!("unreadable body: {e}")))?;
        let sane = |x: f64| x.is_finite() && x >= 0.0;
        let metrics_sane = |m: &Metrics| sane(m.latency_cycles) && sane(m.energy_nj);
        if !(ck.entries.iter().all(|(_, m)| metrics_sane(m))
            && ck.frontier.iter().all(|s| s.hypervolume.is_finite()))
        {
            return Err(bad("non-finite or negative metrics in the body"));
        }
        Ok(ck)
    }

    /// Writes the checkpoint atomically: a crash mid-save leaves any
    /// previous checkpoint at `path` intact, never a torn file.
    ///
    /// # Errors
    ///
    /// Returns [`MceError::Io`] if the file cannot be written.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), MceError> {
        mce_error::atomic_write(path, self.to_json().as_bytes())
    }

    /// Reads and verifies a checkpoint file.
    ///
    /// # Errors
    ///
    /// Returns [`MceError::Io`] if the file cannot be read, or
    /// [`MceError::Checkpoint`] if it fails verification
    /// ([`Checkpoint::from_json`]).
    pub fn load(path: impl AsRef<Path>) -> Result<Self, MceError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| MceError::io(format!("reading checkpoint `{}`", path.display()), e))?;
        Self::from_json(&text)
    }

    /// Rejects resuming under a different workload or configuration.
    ///
    /// # Errors
    ///
    /// Returns [`MceError::Checkpoint`] naming the mismatched digest.
    pub fn ensure_matches(
        &self,
        workload_digest: &str,
        config_digest: &str,
    ) -> Result<(), MceError> {
        if self.workload_digest != workload_digest {
            return Err(MceError::checkpoint(format!(
                "workload digest mismatch (checkpoint {}, run {workload_digest}) — \
                 the checkpoint belongs to a different workload",
                self.workload_digest
            )));
        }
        if self.config_digest != config_digest {
            return Err(MceError::checkpoint(format!(
                "config digest mismatch (checkpoint {}, run {config_digest}) — \
                 the run was reconfigured since the checkpoint was taken",
                self.config_digest
            )));
        }
        Ok(())
    }
}

/// The on-disk form of `body`: the header line carrying the schema and
/// the body's digest, then the body.
fn framed(body: &str) -> String {
    format!(
        "{{\"mce_checkpoint\":{CHECKPOINT_SCHEMA},\"digest\":\"{}\"}}\n{body}",
        fnv128(body.as_bytes())
    )
}

/// Digest of the session configuration a checkpoint is only valid for:
/// both stage configs, the connectivity library and the cache capacity.
/// `threads` is normalized to zero first — results are identical for any
/// thread count, so a resume may legitimately use a different one.
pub fn config_digest(
    apex: &ApexConfig,
    conex: &ConexConfig,
    library: &ConnectivityLibrary,
    cache_capacity: usize,
) -> String {
    let mut conex = conex.clone();
    conex.threads = 0;
    // Debug formatting covers every field of every config type and is
    // deterministic; a digest over it changes whenever any knob does.
    fnv128(format!("{apex:?}|{conex:?}|{library:?}|{cache_capacity}").as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            workload_digest: "00112233445566778899aabbccddeeff".to_owned(),
            config_digest: "ffeeddccbbaa99887766554433221100".to_owned(),
            archs_done: 2,
            counters: vec![
                ("conex.estimate_jobs".to_owned(), 123),
                ("eval_cache.hits".to_owned(), u64::MAX),
                // JSON escaping, not Rust's: `{:?}` writes `\u{1}`.
                ("odd\u{1}\"name\\".to_owned(), 1),
            ],
            gauges: vec![("conex.frontier_size_max".to_owned(), 7)],
            cache_stats: CacheStats {
                hits: 10,
                misses: 20,
                inserts: 20,
                evictions: 3,
            },
            frontier: vec![FrontierSnapshot {
                archs_explored: 1,
                estimated: 40,
                frontier_size: 5,
                hypervolume: 0.375,
            }],
            entries: vec![
                (
                    CanonKey { hi: 1, lo: 2 },
                    Metrics {
                        cost_gates: 1000,
                        latency_cycles: 1.5,
                        energy_nj: 0.25,
                    },
                ),
                (
                    CanonKey { hi: 3, lo: 4 },
                    Metrics {
                        cost_gates: 2000,
                        latency_cycles: 2.5,
                        energy_nj: 0.5,
                    },
                ),
            ],
        }
    }

    #[test]
    fn checkpoint_round_trips_exactly() {
        let ck = sample();
        let text = ck.to_json();
        let back = Checkpoint::from_json(&text).unwrap();
        assert_eq!(back, ck);
        // Byte-stable: re-serializing reproduces the exact bytes.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn u64_values_survive_beyond_f64_precision() {
        let back = Checkpoint::from_json(&sample().to_json()).unwrap();
        assert_eq!(back.counters[1].1, u64::MAX, "not squeezed through f64");
    }

    #[test]
    fn any_corruption_is_detected() {
        let text = sample().to_json();
        // Truncation at every possible length.
        for cut in 0..text.len() {
            assert!(
                Checkpoint::from_json(&text[..cut]).is_err(),
                "truncation at {cut} accepted"
            );
        }
        // A flipped character anywhere in the body fails the digest.
        let body_start = text.find('\n').unwrap() + 1;
        for i in [body_start, text.len() / 2, text.len() - 2] {
            let mut bytes = text.clone().into_bytes();
            bytes[i] = if bytes[i] == b'x' { b'y' } else { b'x' };
            let Ok(mutated) = String::from_utf8(bytes) else {
                continue;
            };
            let err = Checkpoint::from_json(&mutated).unwrap_err();
            assert!(matches!(err, MceError::Checkpoint { .. }), "{err}");
        }
    }

    #[test]
    fn schema_1_checkpoints_are_refused() {
        // The last schema-1 layout: u64s as decimal strings, f64s as hex
        // bit patterns, under a digest that matches its body.
        let v1 = concat!(
            "{\"mce_checkpoint\":1,\"digest\":\"3438aacf8d366d9cbbde68f6003dccff\"}\n",
            "{\"schema\":1,\"workload_digest\":\"00112233445566778899aabbccddeeff\",",
            "\"config_digest\":\"ffeeddccbbaa99887766554433221100\",\"archs_done\":0,",
            "\"counters\":[],\"gauges\":[],\"cache_stats\":[\"0\",\"0\",\"0\",\"0\"],",
            "\"frontier\":[],\"entries\":[]}"
        );
        let (_, body) = v1.split_once('\n').unwrap();
        assert!(
            v1.contains(&fnv128(body.as_bytes())),
            "the digest is genuine"
        );
        let err = Checkpoint::from_json(v1).unwrap_err();
        assert!(matches!(err, MceError::Checkpoint { .. }), "{err}");
        assert!(err.to_string().contains("supported schema"), "{err}");
    }

    #[test]
    fn out_of_range_values_under_a_matching_digest_are_refused() {
        let mut negative = sample();
        negative.entries[0].1.latency_cycles = -1.5;
        let hot = sample()
            .to_json()
            .replace("\"hypervolume\":0.375", "\"hypervolume\":1e999");
        let (_, hot_body) = hot.split_once('\n').unwrap();
        assert!(hot_body.contains("1e999"));
        for text in [negative.to_json(), framed(hot_body)] {
            let err = Checkpoint::from_json(&text).unwrap_err();
            assert!(matches!(err, MceError::Checkpoint { .. }), "{err}");
            assert!(err.to_string().contains("non-finite or negative"), "{err}");
        }
    }

    #[test]
    fn mismatched_digests_are_rejected_with_context() {
        let ck = sample();
        ck.ensure_matches(&ck.workload_digest, &ck.config_digest)
            .unwrap();
        let err = ck.ensure_matches("beef", &ck.config_digest).unwrap_err();
        assert!(err.to_string().contains("different workload"), "{err}");
        let err = ck.ensure_matches(&ck.workload_digest, "beef").unwrap_err();
        assert!(err.to_string().contains("reconfigured"), "{err}");
    }

    #[test]
    fn save_and_load_round_trip_through_disk() {
        let path = std::env::temp_dir().join(format!("mce_ckpt_{}.json", std::process::id()));
        let ck = sample();
        ck.save(&path).unwrap();
        let back = Checkpoint::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back, ck);
    }

    #[test]
    fn config_digest_tracks_knobs_but_not_threads() {
        use mce_sim::Preset;
        let apex = ApexConfig::preset(Preset::Fast);
        let conex = ConexConfig::preset(Preset::Fast);
        let lib = ConnectivityLibrary::amba();
        let base = config_digest(&apex, &conex, &lib, 100);
        assert_eq!(base, config_digest(&apex, &conex, &lib, 100));
        assert_ne!(base, config_digest(&apex, &conex, &lib, 200));
        let mut threaded = conex.clone();
        threaded.threads = 8;
        assert_eq!(base, config_digest(&apex, &threaded, &lib, 100));
        let mut longer = conex.clone();
        longer.trace_len += 1;
        assert_ne!(base, config_digest(&apex, &longer, &lib, 100));
    }
}
