//! Wire-format pins for the JSON that crosses the process boundary:
//! `mce template`, `explore --out` design points, simulator stats and
//! connectivity libraries. The files under
//! `tests/fixtures/json/` were written by the serde-based encoder that
//! `mce_obs::json` replaced; the codec must reproduce them byte for byte
//! and read them back, so files written by older builds keep loading.

use memory_conex::conex::DesignPoint;
use memory_conex::obs::json;
use memory_conex::prelude::*;
use std::path::PathBuf;

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/json")
        .join(name);
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{name}: {e}"))
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
