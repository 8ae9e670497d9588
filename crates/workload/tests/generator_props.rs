//! Property tests for the request-stream generators: phase-switching
//! workloads must replay bit-identically under the same seed, and
//! distinct seeds must yield statistically independent streams — the
//! two guarantees the multi-tenant driver leans on when it hands every
//! tenant its own derived stream.

use proptest::prelude::*;

use e3_simcore::{SimDuration, SimTime};
use e3_workload::{ArrivalProcess, DatasetModel, Phase, WorkloadGenerator};
use rand::rngs::StdRng;

/// Decodes raw entropy words into a well-formed multi-phase generator:
/// each word yields one phase (hardness mix in [0,1], duration 5–24 s),
/// and the first word also sets the Poisson arrival rate, so any word
/// vector produces a valid workload.
fn decoded_generator(words: &[u64]) -> WorkloadGenerator {
    let phases: Vec<Phase> = words
        .iter()
        .map(|&x| Phase {
            dataset: DatasetModel::with_mix((x % 101) as f64 / 100.0),
            duration: SimDuration::from_secs(5 + (x >> 8) % 20),
        })
        .collect();
    let rate = 200.0 + ((words[0] >> 16) % 800) as f64;
    WorkloadGenerator::with_phases(ArrivalProcess::Poisson { rate }, phases)
}

/// Pearson correlation of two equal-length samples.
fn correlation(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let n = a.len() as f64;
    let (ma, mb) = (a.iter().sum::<f64>() / n, b.iter().sum::<f64>() / n);
    let cov: f64 = a.iter().zip(b).map(|(x, y)| (x - ma) * (y - mb)).sum();
    let (va, vb) = (
        a.iter().map(|x| (x - ma) * (x - ma)).sum::<f64>(),
        b.iter().map(|y| (y - mb) * (y - mb)).sum::<f64>(),
    );
    if va == 0.0 || vb == 0.0 {
        0.0
    } else {
        cov / (va.sqrt() * vb.sqrt())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn phased_generation_replays_bit_identically(
        words in proptest::collection::vec(0u64..u64::MAX, 1..5),
        seed in 0u64..u64::MAX,
    ) {
        let g = decoded_generator(&words);
        let a = g.generate(0, &mut StdRng::seed_from_u64(seed));
        let b = g.generate(0, &mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(&a, &b);
        // And the stream is well-formed: monotone arrivals inside the
        // horizon, hardness in [0,1].
        let horizon = SimTime::ZERO + g.horizon();
        prop_assert!(a.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        prop_assert!(a.iter().all(|r| r.arrival < horizon));
        prop_assert!(a.iter().all(|r| (0.0..=1.0).contains(&r.hardness)));
    }

    #[test]
    fn closed_loop_generation_replays_bit_identically(
        words in proptest::collection::vec(0u64..u64::MAX, 1..4),
        seed in 0u64..u64::MAX,
        n in 1usize..2000,
    ) {
        let g = WorkloadGenerator::new(
            ArrivalProcess::ClosedLoop { concurrency: 8 },
            DatasetModel::with_mix((words[0] % 101) as f64 / 100.0),
            SimDuration::from_secs(10),
        );
        let a = g.generate(n, &mut StdRng::seed_from_u64(seed));
        let b = g.generate(n, &mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.len(), n);
        prop_assert!(a.iter().all(|r| r.arrival == SimTime::ZERO));
    }

    #[test]
    fn distinct_seeds_yield_independent_streams(
        words in proptest::collection::vec(0u64..u64::MAX, 1..5),
        seed in 0u64..u64::MAX,
    ) {
        let g = decoded_generator(&words);
        // A deterministic second seed that always differs from the first.
        let other = seed ^ 0x9e37_79b9_7f4a_7c15;
        let a = g.generate(0, &mut StdRng::seed_from_u64(seed));
        let b = g.generate(0, &mut StdRng::seed_from_u64(other));
        // Compare within the first phase only: the phase schedule is
        // shared between the streams by construction, and its common
        // hardness-mean structure would register as correlation even
        // between independent draws. Inside one phase the mixture is
        // stationary, so paired draws should be uncorrelated.
        let cut = SimTime::ZERO + SimDuration::from_secs(5);
        let take = |rs: &[e3_workload::Request]| -> Vec<f64> {
            rs.iter()
                .take_while(|r| r.arrival < cut)
                .map(|r| r.hardness)
                .collect()
        };
        let (mut ha, mut hb) = (take(&a), take(&b));
        let n = ha.len().min(hb.len());
        prop_assert!(n > 200, "stream long enough to test ({n})");
        ha.truncate(n);
        hb.truncate(n);
        prop_assert!(ha != hb, "distinct seeds must not replay each other");
        // Paired hardness draws from independent streams are
        // uncorrelated up to sampling noise (~1/sqrt(n)).
        let corr = correlation(&ha, &hb);
        let bound = 6.0 / (n as f64).sqrt();
        prop_assert!(
            corr.abs() < bound.max(0.2),
            "correlation {corr} exceeds independence bound"
        );
    }
}
