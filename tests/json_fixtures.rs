//! Wire-format pins for the JSON that crosses the process boundary:
//! `mce template`, the serve journal, `explore --out` design points,
//! simulator stats and connectivity libraries. The files under
//! `tests/fixtures/json/` were written by the serde-based encoder that
//! `mce_obs::json` replaced; the codec must reproduce them byte for byte
//! and read them back, so files written by older builds keep loading.

use memory_conex::appmodel::Phase;
use memory_conex::conex::DesignPoint;
use memory_conex::obs::json;
use memory_conex::prelude::*;
use memory_conex::serve::journal::{frame_line, parse_line, replay};
use memory_conex::{JobEvent, JobSpec};
use std::path::PathBuf;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/json")
        .join(name)
}

fn fixture(name: &str) -> String {
    std::fs::read_to_string(fixture_path(name)).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// One event per `JobEvent` variant; the spec inlines a workload whose
/// seed and budgets sit above 2^53, where an f64 number would round.
fn journal_events() -> Vec<JobEvent> {
    let workload = WorkloadBuilder::new("fixture")
        .data_structure(DataStructure::new(
            "buf",
            4096,
            4,
            AccessPattern::Stream { stride: 4 },
        ))
        .data_structure(
            DataStructure::new(
                "tbl",
                8192,
                8,
                AccessPattern::LoopNest {
                    working_set: 512,
                    reuse: 3,
                },
            )
            .with_hotness(2.5)
            .with_write_fraction(0.125),
        )
        .phase(Phase::new("warm", 1000, vec![1.0, 0.5]))
        .seed(u64::MAX)
        .build();
    let spec = JobSpec {
        workload,
        preset: "fast".to_owned(),
        threads: 2,
        max_evals: u64::MAX - 1,
        max_archs: 3,
        deadline_ms: 1 << 60,
        retry_budget: 4,
    };
    vec![
        JobEvent::Submitted { id: u64::MAX, spec },
        JobEvent::Started {
            id: 2,
            attempt: 1,
            pid: 4242,
        },
        JobEvent::Done { id: 3 },
        JobEvent::Failed {
            id: 4,
            error: "invalid input: \"quoted\"\n\ttabbed \\ é \u{1}".to_owned(),
        },
        JobEvent::TimedOut { id: 5 },
        JobEvent::Retrying {
            id: 6,
            reason: "deadline exceeded".to_owned(),
        },
        JobEvent::Canceled { id: 7 },
        JobEvent::Requeued { id: 8 },
    ]
}

#[test]
fn encoder_and_decoder_reproduce_the_committed_wire_formats() {
    // `mce template`: the exact stdout bytes, and they decode to a
    // workload that re-encodes to the same bytes.
    let template = fixture("template.json");
    if let Some(bin) = option_env!("CARGO_BIN_EXE_mce") {
        let out = std::process::Command::new(bin)
            .arg("template")
            .output()
            .expect("run mce template");
        assert!(out.status.success());
        assert_eq!(String::from_utf8(out.stdout).unwrap(), template);
    }
    let w: Workload = json::from_str(&template).expect("decode template");
    assert_eq!(json::to_string_pretty(&w) + "\n", template);

    // The journal: every framed line, and the parent-written file replays
    // to the same events.
    let events = journal_events();
    let journal = fixture("journal.jsonl");
    let framed: String = events.iter().map(frame_line).collect();
    assert_eq!(framed, journal);
    for (line, event) in journal.lines().zip(&events) {
        assert_eq!(&parse_line(line).unwrap(), event);
    }
    assert_eq!(
        replay(&fixture_path("journal.jsonl")).unwrap(),
        (events, 0),
        "replay of the committed journal"
    );

    // An `explore --out` design point (pretty) with a cache, a DMA and a
    // shared bus.
    let text = fixture("design_point.json");
    let point: DesignPoint = json::from_str(&text).expect("decode design point");
    assert_eq!(json::to_string_pretty(&point), text);

    // Simulator stats (compact).
    let text = fixture("sim_stats.json");
    let stats: SimStats = json::from_str(&text).expect("decode stats");
    assert_eq!(json::to_string(&stats), text);

    // The built-in connectivity library (pretty).
    let lib = ConnectivityLibrary::amba();
    let text = fixture("library_amba.json");
    assert_eq!(json::to_string_pretty(&lib), text);
    assert_eq!(ConnectivityLibrary::from_json(&text).unwrap(), lib);
}
