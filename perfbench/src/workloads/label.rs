//! `label`: collect `k` answers per task through the labelling pipeline,
//! then infer the truth with GLAD.

use crowdkit_core::error::Result;
use crowdkit_sim::dataset::LabelingDataset;
use crowdkit_sim::latency::LatencyModel;
use crowdkit_sim::population::mixes;
use crowdkit_sim::{PlatformBuilder, SimulatedCrowd};
use crowdkit_truth::glad::GladConfig;
use crowdkit_truth::pipeline::label_tasks;
use crowdkit_truth::Glad;

use crate::probe::{span, Layers, ProbedOracle, TimedInferencer};
use crate::workload::{derive, Outcome, Workload};

/// Inputs of the `label` workload.
pub struct Label {
    dataset: LabelingDataset,
    workers: usize,
    k: usize,
    population_seed: u64,
    platform_seed: u64,
}

/// The platform and inferencer a `label` job runs against.
pub struct LabelEnv {
    crowd: SimulatedCrowd,
    glad: Glad,
}

impl Label {
    /// `tasks` binary tasks, a mixed crowd of `workers`, `k` answers each.
    pub fn new(seed: u64, tasks: usize, workers: usize, k: usize) -> Self {
        Self {
            dataset: LabelingDataset::binary(tasks, derive(seed, 1)),
            workers,
            k,
            population_seed: derive(seed, 2),
            platform_seed: derive(seed, 3),
        }
    }
}

impl Workload for Label {
    type Env = LabelEnv;

    fn setup(&self, threads: usize, _tr: Option<&Layers>) -> Result<LabelEnv> {
        let population = mixes::mixed(self.workers, self.population_seed);
        let crowd = PlatformBuilder::new(population)
            .seed(self.platform_seed)
            .latency(LatencyModel::human_default())
            .threads(threads)
            .build();
        let glad = Glad::with_config(GladConfig::default().with_threads(threads));
        Ok(LabelEnv { crowd, glad })
    }

    fn job(&self, env: &LabelEnv, tr: Option<&Layers>, _: &mut Vec<f64>) -> Result<Outcome> {
        let tasks = &self.dataset.tasks;
        let out = span(
            tr,
            |l| &l.pipeline,
            || match tr {
                None => label_tasks(&env.crowd, tasks, self.k, &env.glad),
                Some(l) => label_tasks(
                    &ProbedOracle::timed(&env.crowd, l),
                    tasks,
                    self.k,
                    &TimedInferencer::new(&env.glad, l),
                ),
            },
        )?;
        let correct = out
            .labels_aligned(tasks)
            .iter()
            .zip(&self.dataset.truths)
            .filter(|(got, truth)| **got == Some(**truth))
            .count();
        let attempted = (tasks.len() * self.k) as u64;
        Ok(Outcome {
            attempted,
            failed: attempted.saturating_sub(out.answers_bought as u64),
            answers: out.answers_bought as u64,
            spend: env.crowd.ledger().grand_total(),
            correct: correct as u64,
            judged: tasks.len() as u64,
            makespan_sim_s: env.crowd.now(),
        })
    }
}
