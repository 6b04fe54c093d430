//! One cascade walker behind every inference entry point.
//!
//! Every path — `infer`, `infer_traced`, `infer_block`, `infer_checked`
//! under integrity `Off` and `Correct`, and the mesh at 1/2/4 cores under
//! both execution modes — walks the tiles through `esam_core::cascade`, so
//! each must return exactly the `InferenceResult`s of a plain `infer` loop,
//! on both a single-port and a multiport cell. The single-core paths (and
//! the layer-granular mesh plans used here) must also leave exactly the
//! same summed activity counters behind. 70 frames: one full 64-lane block
//! plus a ragged 6-lane tail, on a four-layer net so four cores each get a
//! whole layer.

use esam::mesh::Execution;
use esam::prelude::*;
use esam::sram::AccessStats;
use esam_core::{IntegrityMode, Tile, TileStats};
use rand::RngExt;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

const TOPOLOGY: [usize; 5] = [96, 48, 40, 32, 10];

fn frames(count: usize, seed: u64) -> Vec<BitVec> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..count)
        .map(|_| (0..TOPOLOGY[0]).map(|_| rng.random_bool(0.3)).collect())
        .collect()
}

/// Tile and per-array access counters summed over every tile.
fn summed<'a>(tiles: impl Iterator<Item = &'a Tile>) -> (TileStats, AccessStats) {
    let mut stats = TileStats::default();
    let mut access = AccessStats::default();
    for tile in tiles {
        stats.merge(tile.stats());
        for array in tile.array_stats() {
            access.merge(array);
        }
    }
    (stats, access)
}

#[test]
fn every_path_matches_infer_on_both_cells() {
    let net = BnnNetwork::new(&TOPOLOGY, 17).expect("valid topology");
    let model = SnnModel::from_bnn(&net).expect("conversion");
    let batch = frames(70, 5);
    for cell in [BitcellKind::Std6T, BitcellKind::multiport(4).unwrap()] {
        let config = SystemConfig::builder(cell, &TOPOLOGY)
            .build()
            .expect("valid configuration");
        let fresh = || EsamSystem::from_model(&model, &config).expect("topologies match");

        let mut reference = fresh();
        let expected: Vec<InferenceResult> = batch
            .iter()
            .map(|frame| reference.infer(frame).expect("infer"))
            .collect();
        let counters = summed(reference.tiles().iter());

        let mut traced = fresh();
        let traced_results: Vec<InferenceResult> = batch
            .iter()
            .map(|frame| traced.infer_traced(frame).expect("infer_traced").result)
            .collect();

        let mut blocked = fresh();
        let block_results = blocked.infer_block(&batch).expect("infer_block");

        let mut checked_off = fresh();
        let mut checked_correct = fresh();
        checked_correct.set_integrity_mode(IntegrityMode::Correct);
        let checked = |system: &mut EsamSystem| -> Vec<InferenceResult> {
            batch
                .iter()
                .enumerate()
                .map(|(id, frame)| {
                    system
                        .infer_checked(frame, id as u64)
                        .expect("infer_checked")
                })
                .collect()
        };
        let off_results = checked(&mut checked_off);
        let correct_results = checked(&mut checked_correct);

        for (path, results, system) in [
            ("infer_traced", traced_results, &traced),
            ("infer_block", block_results, &blocked),
            ("infer_checked Off", off_results, &checked_off),
            ("infer_checked Correct", correct_results, &checked_correct),
        ] {
            assert_eq!(results, expected, "{cell} {path}");
            assert_eq!(
                summed(system.tiles().iter()),
                counters,
                "{cell} {path} counters"
            );
        }

        for cores in [1usize, 2, 4] {
            for execution in [Execution::Sequential, Execution::Pipelined] {
                let mesh_config = MeshConfig::with_cores(cores).execution(execution);
                let mut mesh =
                    MeshSystem::from_model(&model, &config, &mesh_config).expect("mesh builds");
                assert_eq!(mesh.core_count(), cores);
                let results = mesh.run(&batch).expect("mesh run");
                assert_eq!(results, expected, "{cell} mesh {cores} cores {execution:?}");
                assert_eq!(
                    summed(mesh.cores().flat_map(|core| core.tiles())),
                    counters,
                    "{cell} mesh {cores} cores {execution:?} counters"
                );
            }
        }
    }
}
