//! `dp-recursion`: the fig7 / fig8 / fig9 / fig_consolidation sweep. Tree
//! descendants and heights under flat / rec-naive / rec-hier with one and
//! two streams on depth-4 trees across outdegree x sparsity; recursive BFS,
//! naive and hier with and without an extra stream, on uniform random
//! graphs; SSSP dpar-naive at lbTHRES 32 with consolidation off and auto.

use std::sync::Arc;
use std::time::Instant;

use npar_apps::bfs::{self, RecBfsVariant};
use npar_apps::sssp;
use npar_apps::tree_apps::{self, TreeMetric};
use npar_core::{LoopParams, LoopTemplate, RecParams, RecTemplate};
use npar_graph::{citeseer_like, uniform_random, with_random_weights, Csr};
use npar_sim::ConsolidateMode;
use npar_tree::{Tree, TreeGen};

use crate::oracle::exact;
use crate::rng::derive;
use crate::sweep::{Check, GenTimes, Point, Workload};

/// Tree shapes (outdegree, sparsity), all depth 4.
const TREES: [(u32, u32); 4] = [(32, 0), (64, 0), (64, 1), (128, 2)];
/// Random trees per sparse shape. A shape's points take them in turn, so
/// one unusually sized tree moves only a share of the points (a dense
/// shape is the same tree for every seed and is built once).
const TREE_INSTANCES: u64 = 6;
/// Recursive-BFS graphs: nodes, outdegree ranges `1..=hi`, and graphs
/// per range.
const BFS_NODES: usize = 3000;
const BFS_DEGREE_HI: [u32; 2] = [32, 96];
const BFS_INSTANCES: u64 = 4;
/// CiteSeer-like graphs for SSSP with and without consolidation.
const CONSOLIDATION_NODES: usize = 2000;
const CONSOLIDATION_INSTANCES: u64 = 2;

type Named<T> = (String, Arc<T>);

pub struct Data {
    /// Per shape, its instances.
    pub trees: Vec<Vec<Named<Tree>>>,
    /// Per outdegree range, its instances.
    pub bfs: Vec<Vec<Named<Csr>>>,
    pub sssp: Vec<Named<Csr>>,
}

pub const WORKLOAD: Workload<Data> = Workload { build, points };

pub fn build(seed: u64) -> (Data, GenTimes) {
    let t0 = Instant::now();
    let trees = TREES
        .iter()
        .enumerate()
        .map(|(k, &(outdegree, sparsity))| {
            let instances = if sparsity == 0 { 1 } else { TREE_INSTANCES };
            (0..instances)
                .map(|i| {
                    let tree = TreeGen {
                        depth: 4,
                        outdegree,
                        sparsity,
                        seed: derive(seed, 100 + 10 * k as u64 + i),
                    }
                    .generate();
                    (
                        format!("tree od{outdegree} sp{sparsity}#{i}"),
                        Arc::new(tree),
                    )
                })
                .collect()
        })
        .collect();
    let tree_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let bfs = BFS_DEGREE_HI
        .iter()
        .enumerate()
        .map(|(k, &hi)| {
            (0..BFS_INSTANCES)
                .map(|i| {
                    let g = uniform_random(BFS_NODES, 1, hi, derive(seed, 200 + 10 * k as u64 + i));
                    (format!("bfs deg1-{hi}#{i}"), Arc::new(g))
                })
                .collect()
        })
        .collect();
    let sssp = (0..CONSOLIDATION_INSTANCES)
        .map(|i| {
            let cs = citeseer_like(CONSOLIDATION_NODES, derive(seed, 300 + 10 * i));
            let g = with_random_weights(&cs, 10, derive(seed, 301 + 10 * i));
            (format!("citeseer#{i}"), Arc::new(g))
        })
        .collect();
    let graph_s = t1.elapsed().as_secs_f64();
    (Data { trees, bfs, sssp }, GenTimes { graph_s, tree_s })
}

pub fn points(d: &Data) -> Vec<Point> {
    let mut out = Vec::new();
    for shape in &d.trees {
        let metrics = [TreeMetric::Descendants, TreeMetric::Heights];
        let wants: Vec<Vec<Arc<Vec<u64>>>> = shape
            .iter()
            .map(|(_, t)| {
                metrics
                    .iter()
                    .map(|&m| Arc::new(tree_apps::tree_cpu_iterative(t, m).0))
                    .collect()
            })
            .collect();
        let mut combo = 0;
        for (m, metric) in metrics.into_iter().enumerate() {
            for streams in [1u32, 2] {
                // Rotate templates over the instances, so every template
                // meets each tree.
                for (t, template) in RecTemplate::ALL.into_iter().enumerate() {
                    let i = (combo + t) % shape.len();
                    let (name, tree) = &shape[i];
                    let (tree, want) = (tree.clone(), wants[i][m].clone());
                    let label = format!("{name} {} {template} s{streams}", metric.label());
                    out.push(Point::new(label, move |gpu| {
                        let r = tree_apps::tree_gpu(
                            gpu,
                            &tree,
                            metric,
                            template,
                            &RecParams::with_streams(streams),
                        );
                        let want = want.clone();
                        (r.report, Box::new(move || exact(&r.values, &want)) as Check)
                    }));
                }
                combo += 1;
            }
        }
    }
    for range in &d.bfs {
        let wants: Vec<Arc<Vec<u32>>> = range
            .iter()
            .map(|(_, g)| Arc::new(bfs::bfs_cpu_iterative(g, 0).0))
            .collect();
        for (v, variant) in [RecBfsVariant::Naive, RecBfsVariant::Hier]
            .into_iter()
            .enumerate()
        {
            for (s, streams) in [1u32, 2].into_iter().enumerate() {
                let i = (2 * v + s) % range.len();
                let (name, g) = &range[i];
                let (g, want) = (g.clone(), wants[i].clone());
                let label = format!("{name} rec-{variant:?} s{streams}");
                out.push(Point::new(label, move |gpu| {
                    let r = bfs::bfs_recursive_gpu(gpu, &g, 0, variant, streams);
                    let want = want.clone();
                    (r.report, Box::new(move || exact(&r.level, &want)) as Check)
                }));
            }
        }
    }
    for (name, g) in &d.sssp {
        let want = Arc::new(sssp::sssp_cpu(g, 0).0);
        for mode in [ConsolidateMode::Off, ConsolidateMode::Auto] {
            let (g, want) = (g.clone(), want.clone());
            out.push(Point::new(
                format!("sssp {name} dpar-naive lb32 consolidate {mode:?}"),
                move |gpu| {
                    gpu.set_consolidation(mode);
                    let params = LoopParams::with_lb_thres(32);
                    let r = sssp::sssp_gpu(gpu, &g, 0, LoopTemplate::DparNaive, &params);
                    let want = want.clone();
                    (r.report, Box::new(move || exact(&r.dist, &want)) as Check)
                },
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::report_digest;
    use npar_sim::Gpu;

    #[test]
    fn same_seed_same_inputs_and_reports() {
        let (a, b, c) = (build(7).0, build(7).0, build(8).0);
        let trees = |d: &Data| -> Vec<Tree> {
            d.trees
                .iter()
                .flatten()
                .map(|(_, t)| (**t).clone())
                .collect()
        };
        let graphs = |d: &Data| -> Vec<Csr> {
            d.bfs
                .iter()
                .flatten()
                .chain(&d.sssp)
                .map(|(_, g)| (**g).clone())
                .collect()
        };
        assert_eq!(trees(&a), trees(&b));
        assert_eq!(graphs(&a), graphs(&b));
        assert_ne!(trees(&a), trees(&c));
        assert_ne!(graphs(&a), graphs(&c));
        let (pa, pb) = (points(&a), points(&b));
        let tree_names = a.trees.iter().flatten().map(|(n, _)| n);
        let graph_names = a.bfs.iter().flatten().chain(&a.sssp).map(|(n, _)| n);
        for name in tree_names.chain(graph_names) {
            assert!(
                pa.iter().any(|p| p.label.contains(name.as_str())),
                "{name} unused"
            );
        }
        // The first tree's rec-naive descendants point: thousands of child
        // grids, the same Report at default and at one host thread, values
        // equal to the CPU reference.
        let i = pa
            .iter()
            .position(|p| p.label.contains("rec-naive"))
            .expect("a rec-naive point");
        let ((ra, ca), (rb, _)) = (
            (pa[i].run)(&mut Gpu::k20()),
            (pb[i].run)(&mut Gpu::k20().with_threads(1)),
        );
        assert!(ra.device_launches > 1000, "{} launches", ra.device_launches);
        assert_eq!(report_digest(&ra), report_digest(&rb));
        ca().expect("tree values match the CPU reference");
    }
}
