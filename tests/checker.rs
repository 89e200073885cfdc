//! End-to-end tests for npar-check, the trace-based hazard sanitizer:
//! * seeded-bug kernels — one per diagnostic kind — must be detected with
//!   located diagnostics under `CheckLevel::Strict` (and recorded without
//!   failing under `Warn`);
//! * randomized racy / race-free kernel pairs must be classified exactly;
//! * every loop template, recursive template, sort and graph app the repo
//!   ships must run hazard-clean under `Strict` on its standard datasets.

use std::rc::Rc;

use npar::apps::{bc, bfs, pagerank, sort, spmv, sssp, tree_apps};
use npar::core::{LoopParams, LoopTemplate, RecParams, RecTemplate};
use npar::graph::{uniform_random, with_random_weights};
use npar::sim::{
    CheckLevel, CostModel, DeviceConfig, GBuf, Gpu, HazardKind, KernelRef, LaunchConfig, SimError,
    ThreadCtx, ThreadKernel,
};
use npar::tree::TreeGen;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

mod seeded;
use seeded::*;

fn hazards_of(err: SimError) -> Vec<npar::sim::Hazard> {
    match err {
        SimError::Hazard(report) => report.hazards,
        other => panic!("expected SimError::Hazard, got {other}"),
    }
}

#[test]
fn seeded_shared_race_is_detected_and_located() {
    let mut gpu = Gpu::k20().with_check(CheckLevel::Strict);
    let err = gpu
        .launch(
            Rc::new(SharedRaceKernel),
            LaunchConfig::with_shared(1, 64, 4),
        )
        .unwrap_err();
    let hazards = hazards_of(err);
    assert!(!hazards.is_empty());
    let h = &hazards[0];
    assert_eq!(h.kind, HazardKind::SharedRace);
    assert_eq!(h.kernel, "seeded-shared-race");
    assert_eq!(h.block, 0);
    assert!(h.details.contains("shared offset 0x0"), "{}", h.details);
}

#[test]
fn seeded_global_race_is_detected_across_blocks() {
    let mut gpu = Gpu::k20().with_check(CheckLevel::Strict);
    let buf = gpu.alloc::<u32>(64);
    let err = gpu
        .launch(Rc::new(GlobalRaceKernel { buf }), LaunchConfig::new(2, 32))
        .unwrap_err();
    let hazards = hazards_of(err);
    assert_eq!(hazards[0].kind, HazardKind::GlobalRace);
    assert!(
        hazards[0].details.contains("blocks 0 and 1"),
        "{}",
        hazards[0].details
    );
}

#[test]
fn disjoint_writes_pass_strict() {
    let mut gpu = Gpu::k20().with_check(CheckLevel::Strict);
    let buf = gpu.alloc::<u32>(64);
    gpu.launch(
        Rc::new(DisjointWriteKernel { buf }),
        LaunchConfig::new(2, 32),
    )
    .unwrap();
    assert!(gpu.take_check_report().is_empty());
}

#[test]
fn seeded_shared_oob_is_detected() {
    let mut gpu = Gpu::k20().with_check(CheckLevel::Strict);
    let err = gpu
        .launch(
            Rc::new(OobKernel { declared: 128 }),
            LaunchConfig::with_shared(1, 32, 128),
        )
        .unwrap_err();
    let hazards = hazards_of(err);
    assert_eq!(hazards[0].kind, HazardKind::SharedOutOfBounds);
    assert!(
        hazards[0].details.contains("128 byte(s)"),
        "{}",
        hazards[0].details
    );
}

#[test]
fn seeded_unjoined_child_read_is_linted() {
    let mut gpu = Gpu::k20().with_check(CheckLevel::Strict);
    let buf = gpu.alloc::<u32>(32);
    let child: KernelRef = Rc::new(ChildWriter { buf, n: 32 });
    let err = gpu
        .launch(
            Rc::new(ForgetfulParent {
                child,
                buf,
                join: false,
            }),
            LaunchConfig::new(1, 32),
        )
        .unwrap_err();
    let hazards = hazards_of(err);
    assert_eq!(hazards[0].kind, HazardKind::UnjoinedChildRead);
    assert!(
        hazards[0].details.contains("sync_children"),
        "{}",
        hazards[0].details
    );
}

#[test]
fn joined_child_read_passes_strict() {
    let mut gpu = Gpu::k20().with_check(CheckLevel::Strict);
    let buf = gpu.alloc::<u32>(32);
    let child: KernelRef = Rc::new(ChildWriter { buf, n: 32 });
    gpu.launch(
        Rc::new(ForgetfulParent {
            child,
            buf,
            join: true,
        }),
        LaunchConfig::new(1, 32),
    )
    .unwrap();
    assert!(gpu.take_check_report().is_empty());
}

#[test]
fn seeded_invalid_child_launch_is_fatal_even_with_checks_off() {
    // Structural faults have no "ignore" semantics: Off still reports them.
    let mut gpu = Gpu::k20(); // CheckLevel::Off is the default
    assert_eq!(gpu.check_level(), CheckLevel::Off);
    let buf = gpu.alloc::<u32>(32);
    let child: KernelRef = Rc::new(ChildWriter { buf, n: 32 });
    let err = gpu
        .launch(
            Rc::new(BadLauncher {
                child,
                block_dim: 4096,
            }),
            LaunchConfig::new(1, 32),
        )
        .unwrap_err();
    let hazards = hazards_of(err);
    assert_eq!(hazards[0].kind, HazardKind::InvalidChildLaunch);
    assert!(
        hazards[0].details.contains("block_dim 4096"),
        "{}",
        hazards[0].details
    );
}

#[test]
fn child_launch_whose_blocks_never_fit_is_an_invalid_child_launch() {
    // The parent's 32-thread block fits a 48-thread SM; the child's
    // 64-thread block never does, so it is refused instead of never running.
    let mut device = DeviceConfig::kepler_k20();
    device.max_threads_per_sm = 48;
    let mut gpu = Gpu::new(device, CostModel::default());
    let buf = gpu.alloc::<u32>(32);
    let child: KernelRef = Rc::new(ChildWriter { buf, n: 32 });
    let err = gpu
        .launch(
            Rc::new(BadLauncher {
                child,
                block_dim: 64,
            }),
            LaunchConfig::new(1, 32),
        )
        .unwrap_err();
    let hazards = hazards_of(err);
    assert_eq!(hazards[0].kind, HazardKind::InvalidChildLaunch);
    assert!(
        hazards[0].details.contains("never fits"),
        "{}",
        hazards[0].details
    );
    assert_eq!(gpu.synchronize().device_launches, 0);
}

#[test]
fn warn_level_records_and_continues() {
    let mut gpu = Gpu::k20().with_check(CheckLevel::Warn);
    gpu.launch(
        Rc::new(SharedRaceKernel),
        LaunchConfig::with_shared(1, 64, 4),
    )
    .expect("Warn must not fail the launch");
    let report = gpu.synchronize();
    assert!(report.hazards > 0, "hazard count missing from the report");
    let check = gpu.take_check_report();
    assert!(check.of_kind(HazardKind::SharedRace).next().is_some());
    assert!(
        gpu.take_check_report().is_empty(),
        "draining must be one-shot"
    );
}

#[test]
fn off_level_ignores_races() {
    let mut gpu = Gpu::k20(); // Off
    gpu.launch(
        Rc::new(SharedRaceKernel),
        LaunchConfig::with_shared(1, 64, 4),
    )
    .unwrap();
    assert_eq!(gpu.synchronize().hazards, 0);
    assert!(gpu.take_check_report().is_empty());
}

// ---------------------------------------------------------------------------
// Randomized classification: generated racy / race-free kernels.
// ---------------------------------------------------------------------------

#[test]
fn randomized_shared_plans_are_classified_exactly() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5eed);
    for case in 0..30 {
        let nsegs = rng.gen_range(1usize..4);
        let mut plan = race_free_plan(&mut rng, nsegs);
        let racy = case % 2 == 0;
        if racy {
            inject_race(&mut rng, &mut plan);
        }
        let mut gpu = Gpu::k20().with_check(CheckLevel::Strict);
        let result = gpu.launch(
            Rc::new(PlanKernel { plan }),
            LaunchConfig::with_shared(1, LANES as u32, PLAN_SHARED),
        );
        match (racy, result) {
            (true, Err(err)) => {
                let hazards = hazards_of(err);
                assert!(
                    hazards.iter().all(|h| h.kind == HazardKind::SharedRace),
                    "case {case}: unexpected kinds {hazards:?}"
                );
            }
            (true, Ok(())) => panic!("case {case}: injected race not detected"),
            (false, Err(err)) => panic!("case {case}: false positive: {err}"),
            (false, Ok(())) => assert!(gpu.take_check_report().is_empty()),
        }
    }
}

/// Each thread writes `buf[global_id % modulus]`: race-free when the
/// modulus covers the whole grid, cross-block racy when it wraps.
struct StrideKernel {
    buf: GBuf<u32>,
    modulus: usize,
}
impl ThreadKernel for StrideKernel {
    fn name(&self) -> &str {
        "stride"
    }
    fn run_thread(&self, t: &mut ThreadCtx<'_, '_>) {
        let i = t.global_id() % self.modulus;
        t.st(&self.buf, i);
    }
}

#[test]
fn randomized_global_strides_are_classified_exactly() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x610b41);
    for case in 0..20 {
        let blocks = rng.gen_range(2u32..5);
        let bd = 32u32;
        let total = (blocks * bd) as usize;
        let racy = case % 2 == 1;
        let modulus = if racy { bd as usize } else { total };
        let mut gpu = Gpu::k20().with_check(CheckLevel::Strict);
        let buf = gpu.alloc::<u32>(total);
        let result = gpu.launch(
            Rc::new(StrideKernel { buf, modulus }),
            LaunchConfig::new(blocks, bd),
        );
        match (racy, result) {
            (true, Err(err)) => {
                assert_eq!(hazards_of(err)[0].kind, HazardKind::GlobalRace);
            }
            (true, Ok(())) => panic!("case {case}: wrap-around race not detected"),
            (false, Err(err)) => panic!("case {case}: false positive: {err}"),
            (false, Ok(())) => {}
        }
    }
}

// ---------------------------------------------------------------------------
// The shipped templates and apps must be hazard-clean under Strict.
// ---------------------------------------------------------------------------

#[test]
fn all_loop_templates_are_hazard_clean_under_strict() {
    let g = with_random_weights(&uniform_random(300, 1, 14, 33), 7, 5);
    let x = vec![1.0f32; g.num_nodes()];
    let (y_cpu, _) = spmv::spmv_cpu(&g, &x);
    for template in LoopTemplate::ALL {
        let mut gpu = Gpu::k20().with_check(CheckLevel::Strict);
        // A Strict hazard fails the internal launches, which the template
        // drivers surface as panics — reaching the assert means clean.
        let r = spmv::spmv_gpu(&mut gpu, &g, &x, template, &LoopParams::default());
        assert!(
            r.y.iter().zip(&y_cpu).all(|(a, b)| (a - b).abs() < 1e-2),
            "{template} result wrong under Strict"
        );
        assert!(
            gpu.take_check_report().is_empty(),
            "{template} left hazards"
        );
    }
}

#[test]
fn all_recursive_templates_are_hazard_clean_under_strict() {
    let tree = TreeGen {
        depth: 6,
        outdegree: 6,
        sparsity: 1,
        seed: 99,
    }
    .generate();
    for metric in [
        tree_apps::TreeMetric::Descendants,
        tree_apps::TreeMetric::Heights,
    ] {
        let (cpu, _) = tree_apps::tree_cpu_recursive(&tree, metric);
        for template in RecTemplate::ALL {
            let mut gpu = Gpu::k20().with_check(CheckLevel::Strict);
            let r = tree_apps::tree_gpu(&mut gpu, &tree, metric, template, &RecParams::default());
            assert_eq!(r.values, cpu, "{template} values wrong under Strict");
            assert!(
                gpu.take_check_report().is_empty(),
                "{template} left hazards"
            );
        }
    }
}

#[test]
fn graph_apps_are_hazard_clean_under_strict() {
    let g = with_random_weights(&uniform_random(250, 1, 12, 21), 9, 4);

    let (cpu_dist, _) = sssp::sssp_cpu(&g, 0);
    for template in [
        LoopTemplate::ThreadMapped,
        LoopTemplate::DbufShared,
        LoopTemplate::DparNaive,
    ] {
        let mut gpu = Gpu::k20().with_check(CheckLevel::Strict);
        let r = sssp::sssp_gpu(&mut gpu, &g, 0, template, &LoopParams::default());
        let same = r
            .dist
            .iter()
            .zip(&cpu_dist)
            .all(|(a, b)| (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-3);
        assert!(same, "SSSP {template} wrong under Strict");
        assert!(gpu.take_check_report().is_empty());
    }

    let (cpu_lvl, _) = bfs::bfs_cpu_iterative(&g, 0);
    let mut gpu = Gpu::k20().with_check(CheckLevel::Strict);
    let r = bfs::bfs_flat_gpu(
        &mut gpu,
        &g,
        0,
        LoopTemplate::ThreadMapped,
        &LoopParams::default(),
    );
    assert_eq!(r.level, cpu_lvl, "flat BFS wrong under Strict");
    assert!(gpu.take_check_report().is_empty());
    for variant in [bfs::RecBfsVariant::Naive, bfs::RecBfsVariant::Hier] {
        let mut gpu = Gpu::k20().with_check(CheckLevel::Strict);
        let r = bfs::bfs_recursive_gpu(&mut gpu, &g, 0, variant, 2);
        assert_eq!(
            r.level, cpu_lvl,
            "recursive BFS {variant:?} wrong under Strict"
        );
        assert!(gpu.take_check_report().is_empty());
    }

    let mut gpu = Gpu::k20().with_check(CheckLevel::Strict);
    let pr = pagerank::pagerank_gpu(
        &mut gpu,
        &g,
        3,
        LoopTemplate::BlockMapped,
        &LoopParams::default(),
    );
    assert!(pr.ranks.iter().all(|v| v.is_finite()));
    assert!(gpu.take_check_report().is_empty());

    let sources = bc::sample_sources(&g, 2);
    let (cpu_bc, _) = bc::bc_cpu(&g, &sources);
    let mut gpu = Gpu::k20().with_check(CheckLevel::Strict);
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
    assert!(gpu.take_check_report().is_empty());
}

#[test]
fn sorts_are_hazard_clean_under_strict() {
    let mut rng = ChaCha8Rng::seed_from_u64(424242);
    let input: Vec<u32> = (0..6_000).map(|_| rng.gen::<u32>()).collect();
    let mut expect = input.clone();
    expect.sort_unstable();
    for algo in [
        sort::SortAlgo::MergeFlat,
        sort::SortAlgo::QuickSimple,
        sort::SortAlgo::QuickAdvanced,
    ] {
        let mut gpu = Gpu::k20().with_check(CheckLevel::Strict);
        let r = sort::sort_gpu(&mut gpu, &input, algo, &sort::SortParams::default());
        assert_eq!(r.data, expect, "{} wrong under Strict", algo.label());
        assert!(
            gpu.take_check_report().is_empty(),
            "{} left hazards",
            algo.label()
        );
    }
}
