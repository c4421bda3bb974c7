//! # mce-bench — experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation section:
//!
//! | Artifact | Binary | Data |
//! |---|---|---|
//! | Figure 3 | `fig3` | APEX cost vs miss-ratio scatter + selected architectures (compress) |
//! | Figure 4 | `fig4` | ConEx cost vs average-latency cloud + headline improvement (compress) |
//! | Figure 6 | `fig6` | Labelled cost/perf pareto designs *a..k* with descriptions (compress) |
//! | Table 1 | `table1` | Selected cost/perf designs for compress, li, vocoder |
//! | Table 2 | `table2` | Pruned vs Neighborhood vs Full: time, coverage, average distance |
//!
//! `all_experiments` runs everything and writes JSON artifacts next to the
//! printed tables. Pass `--fast` to any binary for a reduced-scale run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;

pub use experiments::{
    fig3, fig4, fig6, table1, table2, Fig3Data, Fig4Data, Fig6Data, Scale, Table1Data, Table2Data,
};
pub use report::{render_scatter, render_table, write_dat_artifact, write_json_artifact};

/// Wires the experiment binaries into `mce-obs`: installs a stderr
/// [`ProgressReporter`](mce_obs::ProgressReporter) (honouring `MCE_LOG`)
/// so phase messages and progress land on stderr while stdout stays
/// reserved for the rendered tables and artifact data.
pub fn init_obs() {
    mce_obs::init_level_from_env();
    mce_obs::install(std::sync::Arc::new(mce_obs::ProgressReporter::new(
        std::time::Duration::from_millis(200),
    )));
}
