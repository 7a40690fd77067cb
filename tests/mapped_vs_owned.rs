//! Property test for the owned-or-borrowed `Dataset` backing: an
//! owned-backed dataset and a memory-mapped dataset over the **same bytes**
//! must be indistinguishable to the whole clustering stack — identical
//! labels and identical `LafStats` across every persistable range-query
//! engine. This is the contract that lets the zero-copy warm start
//! (`LafPipeline::load_mmap`) claim bit-exactness with the copying path.

use laf::prelude::*;
use laf::vector::{io, mapped, ops};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Deterministic flat buffer of `rows` unit-normalized `dim`-vectors.
fn unit_rows(rows: usize, dim: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut flat: Vec<f32> = (0..rows * dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
    for row in flat.chunks_mut(dim) {
        if ops::normalize_in_place(row) <= 1e-12 {
            row[0] = 1.0; // degenerate draw: pin to a fixed unit vector
            for x in &mut row[1..] {
                *x = 0.0;
            }
        }
    }
    flat
}

/// Write `owned`'s binary encoding to a unique temp file and map it back as
/// a borrowed dataset.
fn mapped_twin(owned: &Dataset) -> (Dataset, std::path::PathBuf) {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "laf_mapped_vs_owned_{}_{}.lafv",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    io::save_binary(owned, &path).expect("write dataset");
    let map = mapped::map_file(&path).expect("map dataset file");
    let twin = mapped::dataset_from_map(&map, 0, map.len()).expect("decode mapped dataset");
    (twin, path)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn mapped_and_owned_datasets_cluster_identically(
        rows in 24usize..80,
        dim in 2usize..8,
        seed in 0u64..1_000_000,
    ) {
        let owned = Dataset::from_flat(dim, unit_rows(rows, dim, seed)).unwrap();
        let (mapped_ds, path) = mapped_twin(&owned);
        prop_assert!(cfg!(target_endian = "big") || mapped_ds.is_mapped());
        prop_assert_eq!(&owned, &mapped_ds);

        let choices = [
            EngineChoice::Linear,
            EngineChoice::KMeansTree { branching: 3, leaf_ratio: 0.6 },
            EngineChoice::Ivf { nlist: 4, nprobe: 2 },
        ];
        for choice in choices {
            let config = LafConfig {
                engine: choice,
                ..LafConfig::new(0.4, 3, 1.0)
            };
            let laf = LafDbscan::new(config, ExactEstimator::new(&owned, Metric::Cosine));
            let (owned_clustering, owned_stats) = laf.cluster_with_stats(&owned);
            let (mapped_clustering, mapped_stats) = laf.cluster_with_stats(&mapped_ds);
            prop_assert_eq!(
                owned_clustering.labels(),
                mapped_clustering.labels(),
                "{:?}: labels diverged between owned and mapped backings",
                choice
            );
            prop_assert_eq!(owned_stats, mapped_stats, "{:?}: stats diverged", choice);
        }

        drop(mapped_ds);
        std::fs::remove_file(path).ok();
    }
}
