//! Cross-crate integration tests: generated datasets through the full
//! template/simulator pipeline, checked against the serial references.

use std::rc::Rc;

use npar::apps::{bc, bfs, pagerank, sort, spmv, sssp, tree_apps};
use npar::core::{LoopParams, LoopTemplate, RecParams, RecTemplate};
use npar::graph::{
    citeseer_like, uniform_random, wiki_vote_like, with_random_weights, DegreeStats,
};
use npar::sim::Gpu;
use npar::tree::TreeGen;

#[test]
fn citeseer_like_pipeline_end_to_end() {
    // A miniature CiteSeer through SSSP + SpMV under two templates.
    let g = with_random_weights(&citeseer_like(2_000, 5), 10, 6);
    let stats = DegreeStats::of(&g);
    assert!(stats.mean > 30.0, "degree stats off: {stats}");

    let (cpu_dist, _) = sssp::sssp_cpu(&g, 0);
    for template in [LoopTemplate::ThreadMapped, LoopTemplate::DbufShared] {
        let mut gpu = Gpu::k20();
        let r = sssp::sssp_gpu(&mut gpu, &g, 0, template, &LoopParams::default());
        let same = r
            .dist
            .iter()
            .zip(&cpu_dist)
            .all(|(a, b)| (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-3);
        assert!(same, "{template} SSSP result mismatch");
    }

    let x = vec![1.0f32; g.num_nodes()];
    let (y_cpu, _) = spmv::spmv_cpu(&g, &x);
    let mut gpu = Gpu::k20();
    let r = spmv::spmv_gpu(
        &mut gpu,
        &g,
        &x,
        LoopTemplate::DparOpt,
        &LoopParams::default(),
    );
    assert!(r.y.iter().zip(&y_cpu).all(|(a, b)| (a - b).abs() < 1e-2));
}

#[test]
fn wiki_vote_bc_pipeline() {
    let g = wiki_vote_like(77);
    let sources = bc::sample_sources(&g, 3);
    let (cpu_bc, _) = bc::bc_cpu(&g, &sources);
    let mut gpu = Gpu::k20();
    let r = bc::bc_gpu(
        &mut gpu,
        &g,
        &sources,
        LoopTemplate::DualQueue,
        &LoopParams::default(),
    );
    assert!(r
        .bc
        .iter()
        .zip(&cpu_bc)
        .all(|(a, b)| (a - b).abs() < 1e-6 * (1.0 + b.abs())));
}

#[test]
fn pagerank_ranks_are_template_invariant() {
    let g = citeseer_like(1_500, 9);
    let mut reference: Option<Vec<f64>> = None;
    for template in LoopTemplate::ALL {
        let mut gpu = Gpu::k20();
        let r = pagerank::pagerank_gpu(&mut gpu, &g, 4, template, &LoopParams::default());
        match &reference {
            None => reference = Some(r.ranks),
            Some(base) => {
                assert!(
                    r.ranks.iter().zip(base).all(|(a, b)| (a - b).abs() < 1e-9),
                    "{template} ranks drifted"
                );
            }
        }
    }
}

#[test]
fn recursive_and_flat_bfs_agree_on_random_graphs() {
    for seed in [1u64, 2, 3] {
        let g = uniform_random(600, 1, 24, seed);
        let (cpu, _) = bfs::bfs_cpu_iterative(&g, 0);
        let mut gpu = Gpu::k20();
        let flat = bfs::bfs_flat_gpu(
            &mut gpu,
            &g,
            0,
            LoopTemplate::ThreadMapped,
            &LoopParams::default(),
        );
        assert_eq!(flat.level, cpu);
        let mut gpu = Gpu::k20();
        let rec = bfs::bfs_recursive_gpu(&mut gpu, &g, 0, bfs::RecBfsVariant::Naive, 2);
        assert_eq!(rec.level, cpu);
    }
}

#[test]
fn tree_metrics_survive_extreme_shapes() {
    // Wide-and-shallow, narrow-and-deep, and sparse trees.
    for gen in [
        TreeGen {
            depth: 2,
            outdegree: 900,
            sparsity: 0,
            seed: 4,
        },
        TreeGen {
            depth: 8,
            outdegree: 2,
            sparsity: 0,
            seed: 4,
        },
        TreeGen {
            depth: 6,
            outdegree: 6,
            sparsity: 3,
            seed: 4,
        },
    ] {
        let tree = gen.generate();
        for metric in [
            tree_apps::TreeMetric::Descendants,
            tree_apps::TreeMetric::Heights,
        ] {
            let (cpu, _) = tree_apps::tree_cpu_recursive(&tree, metric);
            for template in RecTemplate::ALL {
                let mut gpu = Gpu::k20();
                let r =
                    tree_apps::tree_gpu(&mut gpu, &tree, metric, template, &RecParams::default());
                assert_eq!(r.values, cpu, "{metric:?}/{template} on {gen:?}");
            }
        }
    }
}

#[test]
fn sorts_agree_with_std_on_adversarial_inputs() {
    let mut inputs: Vec<Vec<u32>> = vec![
        (0..2048).rev().collect(),
        vec![7; 1000],
        (0..1500).map(|i| (i * 37) % 64).collect(),
    ];
    // Sawtooth.
    inputs.push((0..2000).map(|i| (i % 100) as u32).collect());
    for input in inputs {
        let mut expect = input.clone();
        expect.sort_unstable();
        for algo in [
            sort::SortAlgo::MergeFlat,
            sort::SortAlgo::QuickSimple,
            sort::SortAlgo::QuickAdvanced,
        ] {
            let mut gpu = Gpu::k20();
            let r = sort::sort_gpu(&mut gpu, &input, algo, &sort::SortParams::default());
            assert_eq!(r.data, expect, "{}", algo.label());
        }
    }
}

#[test]
fn reports_are_deterministic_across_runs() {
    let g = citeseer_like(1_000, 3);
    let run = || {
        let mut gpu = Gpu::k20();
        let x = vec![1.0f32; g.num_nodes()];
        let r = spmv::spmv_gpu(
            &mut gpu,
            &g,
            &x,
            LoopTemplate::DbufGlobal,
            &LoopParams::default(),
        );
        (r.report.cycles, r.report.total().issue_slots)
    };
    assert_eq!(run(), run());
}

#[test]
fn profiler_metrics_are_internally_consistent() {
    let g = uniform_random(800, 0, 50, 5);
    let x = vec![1.0f32; 800];
    let mut gpu = Gpu::k20();
    let r = spmv::spmv_gpu(
        &mut gpu,
        &g,
        &x,
        LoopTemplate::ThreadMapped,
        &LoopParams::default(),
    );
    let m = r.report.total();
    assert!(m.warp_execution_efficiency() > 0.0 && m.warp_execution_efficiency() <= 1.0);
    assert!(m.gld_efficiency() > 0.0 && m.gld_efficiency() <= 1.0);
    assert!(m.gst_efficiency() > 0.0 && m.gst_efficiency() <= 1.0);
    assert!(r.report.achieved_occupancy > 0.0 && r.report.achieved_occupancy <= 1.0);
    assert!(m.work_cycles <= r.report.cycles * 13.0 * 64.0); // device capacity bound
                                                             // SpMV reads one value + one column index per nonzero at minimum.
    assert!(m.gld_requested_bytes >= 8 * g.num_edges() as u64);
}

/// The headline claim of the paper in miniature: on an irregular graph the
/// load-balancing templates beat the thread-mapped baseline, and the naive
/// dynamic-parallelism template does not.
#[test]
fn paper_headline_shape_holds_in_miniature() {
    let g = with_random_weights(&citeseer_like(4_000, 21), 10, 22);
    let time = |template| {
        let mut gpu = Gpu::k20();
        sssp::sssp_gpu(&mut gpu, &g, 0, template, &LoopParams::with_lb_thres(32))
            .report
            .seconds
    };
    let base = time(LoopTemplate::ThreadMapped);
    for good in [
        LoopTemplate::DualQueue,
        LoopTemplate::DbufShared,
        LoopTemplate::DbufGlobal,
        LoopTemplate::DparOpt,
    ] {
        assert!(
            time(good) < base,
            "{good} failed to beat the baseline on an irregular graph"
        );
    }
    assert!(
        time(LoopTemplate::DparNaive) > base,
        "dpar-naive should pay for its launch storm"
    );
}

/// Library ergonomics: the umbrella crate re-exports compose.
#[test]
fn umbrella_reexports_compose() {
    let mut gpu = Gpu::k20();
    let _buf = gpu.alloc::<f32>(16);
    let _ = Rc::new(TreeGen {
        depth: 2,
        outdegree: 2,
        sparsity: 0,
        seed: 0,
    })
    .generate();
}
