//! Golden pipeline reports: the serialized [`Report`] of two small
//! whole-pipeline scenarios, pinned byte-for-byte against
//! `tests/golden/report_*.json`.
//!
//! * `report_mesh_place_trees.json` — a 36-crossbar mesh running
//!   hop-optimized placement with multicast Steiner trees (placement
//!   search, tree routing in `hop_metrics` and in both NoC engines);
//! * `report_hier_multilevel.json` — a 2 × 2-chip hierarchical fabric
//!   with per-crossbar multicast and the multilevel V-cycle partitioner.
//!
//! Every number a report carries (cut, energy, hop-weighted packets,
//! latency and disorder statistics, the mapping itself) is frozen, so a
//! speed-only change to any stage must leave these files untouched. If
//! a change is meant to move them, regenerate with
//! `NEUROMAP_REGEN_GOLDEN=1 cargo test --test golden_reports` and commit
//! the new files alongside the change that explains it.

use neuromap::apps::synthetic::{LargeArch, MultiChip};
use neuromap::core::multilevel::MultilevelConfig;
use neuromap::core::partition::FitnessKind;
use neuromap::core::pipeline::{
    MappingPipeline, PartitionStrategy, PipelineConfig, PlacementStrategy, Report, TrafficMode,
};
use neuromap::core::place::PlaceConfig;
use neuromap::core::pso::{PsoConfig, PsoPartitioner};
use neuromap::hw::arch::{Architecture, InterconnectKind};
use neuromap::noc::config::NocConfig;

/// A small-swarm PSO; `threads` is an execution knob only.
fn quick_pso() -> PsoConfig {
    PsoConfig {
        swarm_size: 8,
        iterations: 6,
        fitness: FitnessKind::CutPackets,
        seed: 2018,
        threads: 2,
        ..PsoConfig::default()
    }
}

/// Serializes `report` and compares it with (or, under
/// `NEUROMAP_REGEN_GOLDEN`, writes it to) `tests/golden/<name>`.
fn check_golden(name: &str, report: &Report) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    let mut rendered = serde_json::to_string_pretty(report).expect("report serializes");
    rendered.push('\n');
    if std::env::var_os("NEUROMAP_REGEN_GOLDEN").is_some() {
        std::fs::write(&path, &rendered).expect("write golden");
        eprintln!("regenerated {path} ({} bytes)", rendered.len());
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{path}: {e} — regenerate with NEUROMAP_REGEN_GOLDEN=1"));
    assert!(
        rendered == golden,
        "report drifted from tests/golden/{name}; \
         if intentional, regenerate with NEUROMAP_REGEN_GOLDEN=1"
    );
}

#[test]
fn mesh_placement_with_steiner_trees_matches_golden() {
    let scenario = LargeArch {
        side: 6,
        ..LargeArch::grid16()
    };
    let graph = scenario.spike_graph(11).expect("graph builds");
    let arch = Architecture::custom(
        scenario.num_crossbars(),
        scenario.capacity(),
        InterconnectKind::Mesh,
    )
    .expect("valid arch");
    let noc = NocConfig {
        multicast: true,
        multicast_trees: true,
        buffer_depth: 4,
        ..NocConfig::default()
    };
    let place = PlaceConfig {
        restarts: 3,
        sa_moves: 1_500,
        threads: 2,
        ..PlaceConfig::default()
    };
    let cfg = PipelineConfig::for_arch(arch)
        .with_traffic(TrafficMode::PerCrossbar)
        .with_noc(noc)
        .with_placement(PlacementStrategy::HopOptimized(place));
    let report = MappingPipeline::new(cfg)
        .run(&graph, &PsoPartitioner::new(quick_pso()))
        .expect("pipeline runs");
    assert_eq!(report.placement, "hop-optimized");
    check_golden("report_mesh_place_trees.json", &report);
}

#[test]
fn hier_multilevel_multicast_matches_golden() {
    let scenario = MultiChip {
        chip: LargeArch {
            side: 4,
            ..LargeArch::grid16()
        },
        ..MultiChip::four_chip16()
    };
    let graph = scenario.spike_graph(5).expect("graph builds");
    let arch = scenario.arch().expect("valid arch");
    let multilevel = MultilevelConfig {
        pso: quick_pso(),
        threads: 2,
        chips: 4,
        ..MultilevelConfig::default()
    };
    let cfg = PipelineConfig::for_arch(arch)
        .with_traffic(TrafficMode::PerCrossbar)
        .with_partition(PartitionStrategy::Multilevel(multilevel));
    assert!(
        cfg.noc.multicast,
        "the scenario must route multicast packets"
    );
    let report = MappingPipeline::new(cfg)
        .run(&graph, &PsoPartitioner::new(quick_pso()))
        .expect("pipeline runs");
    assert_eq!(report.partitioner, "multilevel");
    check_golden("report_hier_multilevel.json", &report);
}
