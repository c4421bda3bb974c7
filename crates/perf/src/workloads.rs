//! The benchmark's workloads and the seed that generates their inputs.

use memory_conex::appmodel::{benchmarks, Workload, WorkloadBuilder};
use memory_conex::conex::ExplorationStrategy;
use memory_conex::prelude::{ApexConfig, ConexConfig, Preset};
use memory_conex::ExplorationSession;
use std::path::{Path, PathBuf};

/// What a workload does with the on-disk evaluation-cache spill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Spill {
    /// No spill file: the session's cache lives and dies in memory.
    None,
    /// Spilled to a path that is deleted before every repetition, so each
    /// run is all misses, inserts and one spill save.
    Fresh,
    /// Loads the spill one untimed cold run wrote: every evaluation is a
    /// cache hit.
    Warm,
}

/// One benchmark workload: a built-in application model explored with a
/// fixed strategy, thread count and cache setup.
#[derive(Debug)]
pub struct Spec {
    /// The name passed to `--workload`.
    pub name: &'static str,
    model: fn() -> Workload,
    strategy: ExplorationStrategy,
    threads: usize,
    /// The workload's spill behaviour.
    pub spill: Spill,
    /// The `result_digest` at `Preset::Paper` and seed 0 in the offline
    /// stub build (the `.devstubs` `rand`): any change to what the explorer
    /// computes moves it.
    pub pinned_digest: u64,
}

/// Every workload, in `BENCHMARK.json` order (which records why each one
/// is there).
pub static WORKLOADS: [Spec; 3] = [
    // Phase-I sampled replay dominates; one thread keeps `par` out of it.
    Spec {
        name: "compress-pruned",
        model: benchmarks::compress,
        strategy: ExplorationStrategy::Pruned,
        threads: 1,
        spill: Spill::Fresh,
        pinned_digest: 0x1fa8_0333_de1e_7201,
    },
    // Phase-II full replay dominates, fanned out by `par`.
    Spec {
        name: "vocoder-full",
        model: benchmarks::vocoder,
        strategy: ExplorationStrategy::Full,
        threads: 2,
        spill: Spill::None,
        pinned_digest: 0x5dfe_9d8f_1e18_8039,
    },
    // Every ConEx evaluation is a cache hit: APEX dominates.
    Spec {
        name: "compress-warm",
        model: benchmarks::compress,
        strategy: ExplorationStrategy::Pruned,
        threads: 2,
        spill: Spill::Warm,
        // The same exploration as compress-pruned, answered from the cache.
        pinned_digest: 0x1fa8_0333_de1e_7201,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

impl Spec {
    /// The application model for `seed`.
    pub fn build(&self, seed: u64) -> Workload {
        reseed(&(self.model)(), seed)
    }
}

/// Rebuilds `model` through the public [`WorkloadBuilder`] with trace seed
/// `model.seed() ^ seed`, copying its data structures, phases and compute
/// gap. Seed 0 reproduces `model` exactly.
pub fn reseed(model: &Workload, seed: u64) -> Workload {
    let mut builder = WorkloadBuilder::new(model.name())
        .seed(model.seed() ^ seed)
        .compute_gap(model.compute_gap());
    for ds in model.data_structures() {
        builder = builder.data_structure(ds.clone());
    }
    for phase in model.phases() {
        builder = builder.phase(phase.clone());
    }
    builder.build()
}

/// One workload instantiated for a run: its generated input, scale and
/// where its spill lives.
#[derive(Debug)]
pub struct Run {
    /// The workload definition.
    pub spec: &'static Spec,
    /// The `--seed` the inputs were generated from.
    pub seed: u64,
    /// The application model generated from the run's seed.
    pub workload: Workload,
    /// Exploration scale.
    pub preset: Preset,
    /// Worker threads (the spec's count, capped at the host's cores).
    pub threads: usize,
    spill_path: PathBuf,
}

impl Run {
    /// Instantiates `spec` for `seed` at `preset`, keeping its spill file
    /// under `work_dir`.
    pub fn new(spec: &'static Spec, seed: u64, preset: Preset, work_dir: &Path) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        Run {
            spec,
            seed,
            workload: spec.build(seed),
            preset,
            threads: spec.threads.min(cores),
            spill_path: work_dir.join(format!("{}.spill.json", spec.name)),
        }
    }

    /// The ConEx configuration of every exploration in the run.
    pub fn conex_config(&self) -> ConexConfig {
        let mut config = ConexConfig::preset(self.preset).with_strategy(self.spec.strategy);
        config.threads = self.threads;
        config
    }

    /// The APEX configuration of every exploration in the run.
    pub fn apex_config(&self) -> ApexConfig {
        ApexConfig::preset(self.preset)
    }

    /// The trace length the session compiles: the longer of the two
    /// stages' lengths.
    pub fn compiled_len(&self) -> usize {
        self.apex_config()
            .trace_len
            .max(self.conex_config().trace_len)
    }

    /// The eval-cache spill file, for workloads that use one.
    pub fn spill_path(&self) -> Option<&Path> {
        (self.spec.spill != Spill::None).then_some(self.spill_path.as_path())
    }

    /// The session one repetition runs.
    pub fn session(&self) -> ExplorationSession {
        let session = ExplorationSession::new(self.workload.clone())
            .preset(self.preset)
            .conex_config(self.conex_config());
        match self.spill_path() {
            Some(path) => session.eval_cache_file(path),
            None => session,
        }
    }

    /// Untimed work before each repetition: a `Fresh` workload starts from
    /// a missing spill file.
    ///
    /// # Errors
    ///
    /// Fails if the old spill exists but cannot be removed.
    pub fn before_rep(&self) -> std::io::Result<()> {
        if self.spec.spill == Spill::Fresh && self.spill_path.exists() {
            std::fs::remove_file(&self.spill_path)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memory_conex::conex::design_point::workload_digest;

    #[test]
    fn seed_zero_reproduces_the_built_in_models() {
        for (model, name) in [
            (benchmarks::compress(), "compress"),
            (benchmarks::vocoder(), "vocoder"),
        ] {
            let rebuilt = reseed(&model, 0);
            assert_eq!(workload_digest(&rebuilt), workload_digest(&model), "{name}");
            assert_eq!(rebuilt, model, "{name}");
        }
    }

    #[test]
    fn other_seeds_change_only_the_trace_seed() {
        let model = benchmarks::vocoder();
        let rebuilt = reseed(&model, 7);
        assert_eq!(rebuilt.seed(), model.seed() ^ 7);
        assert_eq!(rebuilt.data_structures(), model.data_structures());
        assert_eq!(rebuilt.phases(), model.phases());
        assert_ne!(workload_digest(&rebuilt), workload_digest(&model));
    }
}
