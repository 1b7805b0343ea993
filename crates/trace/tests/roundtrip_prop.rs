//! The serialize → parse → serialize round-trip contract.
//!
//! A loaded stream must reproduce its input byte-for-byte — header line
//! included — or `crowdtrace diff` verdicts could hinge on parser
//! artifacts instead of run behaviour. Streams come from the real
//! instrumented kernels at 1, 2 and 8 worker threads, with and without
//! wall-clock data, across randomized workload shapes and seeds.

use std::sync::Arc;

use crowdkit_obs as obs;
use crowdkit_sim::dataset::LabelingDataset;
use crowdkit_sim::latency::LatencyModel;
use crowdkit_sim::population::PopulationBuilder;
use crowdkit_sim::PlatformBuilder;
use crowdkit_trace::stream::parse_stream;
use crowdkit_truth::em::EmConfig;
use crowdkit_truth::{pipeline::label_tasks, DawidSkene};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// One instrumented pipeline run rendered as a headered JSONL stream.
fn record(n_tasks: usize, seed: u64, threads: usize, include_wall: bool) -> String {
    let rec = Arc::new(obs::JsonlRecorder::in_memory().with_wall(include_wall));
    rec.write_header(&obs::StreamHeader::new(
        "prop-rev",
        seed,
        threads as u32,
        "prop:label+ds",
    ));
    let scope = obs::Scope {
        recorder: rec.clone(),
        provenance: false,
    };
    obs::with_scope(scope, || {
        let pop = PopulationBuilder::new().reliable(25, 0.7, 0.95).build(seed);
        let crowd = PlatformBuilder::new(pop)
            .latency(LatencyModel::human_default())
            .seed(seed)
            .threads(threads)
            .build();
        let tasks = LabelingDataset::binary(n_tasks, seed).tasks;
        let ds = DawidSkene::with_config(EmConfig {
            threads,
            ..EmConfig::default()
        });
        label_tasks(&crowd, &tasks, 3, &ds).expect("pipeline succeeds");
    });
    String::from_utf8(rec.take_bytes()).expect("streams are UTF-8")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn parse_then_serialize_is_byte_exact_at_every_thread_count(
        n_tasks in 10usize..60,
        seed in 0u64..1000,
        include_wall in prop::bool::ANY,
    ) {
        for &threads in &THREAD_COUNTS {
            let text = record(n_tasks, seed, threads, include_wall);
            let parsed = parse_stream(&text)
                .map_err(|e| TestCaseError::fail(format!("parse failed: {e}")))?;
            let header = parsed.header.as_ref()
                .ok_or_else(|| TestCaseError::fail("stream must carry a header"))?;
            prop_assert_eq!(header.threads, threads as u32);
            prop_assert_eq!(header.seed, seed);
            prop_assert_eq!(parsed.has_wall_data(), include_wall);
            prop_assert_eq!(
                parsed.to_jsonl(),
                text,
                "round-trip must be byte-exact at {} threads (wall: {})",
                threads,
                include_wall
            );
        }
    }
}
