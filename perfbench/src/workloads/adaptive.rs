//! `adaptive`: budgeted adaptive assignment with `ExpectedAccuracyGain`,
//! then majority vote.

use crowdkit_assign::{run_assignment, ExpectedAccuracyGain};
use crowdkit_core::error::Result;
use crowdkit_core::traits::TruthInferencer;
use crowdkit_sim::dataset::LabelingDataset;
use crowdkit_sim::latency::LatencyModel;
use crowdkit_sim::population::mixes;
use crowdkit_sim::{PlatformBuilder, SimulatedCrowd};
use crowdkit_truth::MajorityVote;

use crate::probe::{span, Layers, ProbedOracle, TimedInferencer, TimedPolicy};
use crate::workload::{derive, Outcome, Workload};

/// Inputs of the `adaptive` workload.
pub struct Adaptive {
    dataset: LabelingDataset,
    workers: usize,
    budget: usize,
    max_per_task: u32,
    population_seed: u64,
    platform_seed: u64,
}

impl Adaptive {
    /// `tasks` binary tasks, a mixed crowd of `workers`, `budget` questions
    /// in all and at most `max_per_task` per task.
    pub fn new(seed: u64, tasks: usize, workers: usize, budget: usize, max_per_task: u32) -> Self {
        Self {
            dataset: LabelingDataset::binary(tasks, derive(seed, 11)),
            workers,
            budget,
            max_per_task,
            population_seed: derive(seed, 12),
            platform_seed: derive(seed, 13),
        }
    }
}

impl Workload for Adaptive {
    type Env = SimulatedCrowd;

    fn setup(&self, threads: usize, _tr: Option<&Layers>) -> Result<SimulatedCrowd> {
        let population = mixes::mixed(self.workers, self.population_seed);
        Ok(PlatformBuilder::new(population)
            .seed(self.platform_seed)
            .latency(LatencyModel::human_default())
            .threads(threads)
            .build())
    }

    fn job(
        &self,
        crowd: &SimulatedCrowd,
        tr: Option<&Layers>,
        _: &mut Vec<f64>,
    ) -> Result<Outcome> {
        let tasks = &self.dataset.tasks;
        let mut policy = ExpectedAccuracyGain::default();
        let out = span(
            tr,
            |l| &l.driver,
            || match tr {
                None => run_assignment(crowd, tasks, &mut policy, self.budget, self.max_per_task),
                Some(l) => run_assignment(
                    &ProbedOracle::timed(crowd, l),
                    tasks,
                    &mut TimedPolicy::new(&mut policy, l),
                    self.budget,
                    self.max_per_task,
                ),
            },
        )?;
        let inference = match tr {
            None => MajorityVote.infer(&out.matrix)?,
            Some(l) => TimedInferencer::new(&MajorityVote, l).infer(&out.matrix)?,
        };
        let correct = tasks
            .iter()
            .zip(&self.dataset.truths)
            .filter(|(task, truth)| {
                out.matrix
                    .task_index(task.id)
                    .is_some_and(|t| inference.labels[t] == **truth)
            })
            .count();
        Ok(Outcome {
            attempted: self.budget as u64,
            failed: self.budget.saturating_sub(out.questions_asked) as u64,
            answers: out.questions_asked as u64,
            spend: crowd.ledger().grand_total(),
            correct: correct as u64,
            judged: tasks.len() as u64,
            makespan_sim_s: crowd.now(),
        })
    }
}
