//! `irregular-loops`: the fig5 / table1 / fig6 sweep. SSSP, BC, PageRank
//! and SpMV under every `LoopTemplate` (the five load-balanced ones at
//! several lbTHRES values) on CiteSeer-like and Wiki-Vote-like graphs
//! generated from the seed.

use std::sync::Arc;
use std::time::Instant;

use npar_apps::{bc, pagerank, spmv, sssp};
use npar_core::{LoopParams, LoopTemplate};
use npar_graph::{citeseer_like, power_law, with_random_weights, Csr, PowerLawSpec};

use crate::oracle::{close, exact, widen};
use crate::rng::{derive, Rng};
use crate::sweep::{Check, GenTimes, Point, Workload};

/// CiteSeer-like nodes (the paper's graph has 434 k; mean degree 73.9).
const CITESEER_NODES: usize = 1000;
/// Wiki-Vote-like nodes: the published graph's degree law (mean 14.6,
/// max 893, 55% sinks) on fewer nodes than its 7115.
const WIKI_NODES: usize = 2000;
/// lbTHRES values for the load-balanced templates.
const LB_THRES: [usize; 3] = [32, 128, 1024];
/// BC sources per point (the first is also the SSSP source).
const BC_SOURCES: usize = 1;
/// PageRank iterations per point.
const PR_ITERATIONS: u32 = 2;
/// Maximum edge weight for SSSP (integer weights keep sums exact).
const MAX_WEIGHT: u32 = 10;

/// Independent graphs of each kind per seed. The sweep's points take them
/// in turn, so one unusually shaped graph moves only a share of the points.
const INSTANCES: u64 = 8;

pub struct Graph {
    pub name: String,
    pub g: Arc<Csr>,
    /// The same graph with integer edge weights, for SSSP.
    pub weighted: Arc<Csr>,
    /// SpMV input vector.
    pub x: Arc<Vec<f32>>,
    /// SSSP source and BC sources: seeded nodes with out-edges.
    pub sources: Arc<Vec<usize>>,
}

/// `INSTANCES` CiteSeer-like graphs, then `INSTANCES` Wiki-Vote-like ones.
pub struct Data {
    pub graphs: Vec<Graph>,
}

pub const WORKLOAD: Workload<Data> = Workload { build, points };

fn sources(g: &Csr, seed: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::new();
    while out.len() < BC_SOURCES {
        let v = rng.below(g.num_nodes() as u64) as usize;
        if g.degree(v) > 0 && !out.contains(&v) {
            out.push(v);
        }
    }
    out
}

fn vector(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = Rng::new(seed);
    // Multiples of 1/64 keep the float sums well conditioned.
    (0..n).map(|_| rng.below(64) as f32 / 64.0).collect()
}

fn wiki_vote_like(n: usize, seed: u64) -> Csr {
    power_law(
        n,
        PowerLawSpec {
            min_degree: 1,
            max_degree: 893,
            mean_degree: 14.6,
            sigma: 1.3,
            zero_fraction: 0.55,
        },
        seed,
    )
}

pub fn build(seed: u64) -> (Data, GenTimes) {
    let t0 = Instant::now();
    let mut graphs = Vec::new();
    for (kind, name) in ["citeseer", "wiki-vote"].into_iter().enumerate() {
        for i in 0..INSTANCES {
            let k = 10 * (INSTANCES * kind as u64 + i);
            let g = if kind == 0 {
                citeseer_like(CITESEER_NODES, derive(seed, k))
            } else {
                wiki_vote_like(WIKI_NODES, derive(seed, k))
            };
            graphs.push(Graph {
                name: format!("{name}#{i}"),
                weighted: Arc::new(with_random_weights(&g, MAX_WEIGHT, derive(seed, k + 1))),
                x: Arc::new(vector(g.num_nodes(), derive(seed, k + 2))),
                sources: Arc::new(sources(&g, derive(seed, k + 3))),
                g: Arc::new(g),
            });
        }
    }
    let graph_s = t0.elapsed().as_secs_f64();
    (
        Data { graphs },
        GenTimes {
            graph_s,
            tree_s: 0.0,
        },
    )
}

/// The CPU reference outputs of one graph.
struct Refs {
    sssp: Arc<Vec<f32>>,
    bc: Arc<Vec<f64>>,
    pagerank: Arc<Vec<f64>>,
    spmv: Arc<Vec<f64>>,
}

fn refs(gr: &Graph) -> Refs {
    Refs {
        sssp: Arc::new(sssp::sssp_cpu(&gr.weighted, gr.sources[0]).0),
        bc: Arc::new(bc::bc_cpu(&gr.g, &gr.sources).0),
        pagerank: Arc::new(pagerank::pagerank_cpu(&gr.g, PR_ITERATIONS).0),
        spmv: Arc::new(widen(&spmv::spmv_cpu(&gr.g, &gr.x).0)),
    }
}

fn point(app: usize, gr: &Graph, r: &Refs, template: LoopTemplate, lb: usize) -> Point {
    let params = LoopParams::with_lb_thres(lb);
    let name = ["sssp", "bc", "pagerank", "spmv"][app];
    let label = format!("{name} {} {template} lb{lb}", gr.name);
    match app {
        0 => {
            let (g, src, want) = (gr.weighted.clone(), gr.sources[0], r.sssp.clone());
            Point::new(label, move |gpu| {
                let r = sssp::sssp_gpu(gpu, &g, src, template, &params);
                let want = want.clone();
                (r.report, Box::new(move || exact(&r.dist, &want)) as Check)
            })
        }
        1 => {
            let (g, s, want) = (gr.g.clone(), gr.sources.clone(), r.bc.clone());
            Point::new(label, move |gpu| {
                let r = bc::bc_gpu(gpu, &g, &s, template, &params);
                let want = want.clone();
                (
                    r.report,
                    Box::new(move || close(&r.bc, &want, 1e-6)) as Check,
                )
            })
        }
        2 => {
            let (g, want) = (gr.g.clone(), r.pagerank.clone());
            Point::new(label, move |gpu| {
                let r = pagerank::pagerank_gpu(gpu, &g, PR_ITERATIONS, template, &params);
                let want = want.clone();
                (
                    r.report,
                    Box::new(move || close(&r.ranks, &want, 1e-6)) as Check,
                )
            })
        }
        _ => {
            let (g, x, want) = (gr.g.clone(), gr.x.clone(), r.spmv.clone());
            Point::new(label, move |gpu| {
                let r = spmv::spmv_gpu(gpu, &g, &x, template, &params);
                let want = want.clone();
                (
                    r.report,
                    Box::new(move || close(&widen(&r.y), &want, 1e-4)) as Check,
                )
            })
        }
    }
}

pub fn points(d: &Data) -> Vec<Point> {
    let mut out = Vec::new();
    for kind in d.graphs.chunks(INSTANCES as usize) {
        let refs: Vec<Refs> = kind.iter().map(refs).collect();
        let mut turn = 0;
        for template in LoopTemplate::ALL {
            let lbs: &[usize] = if LoopTemplate::LOAD_BALANCED.contains(&template) {
                &LB_THRES
            } else {
                &LB_THRES[..1]
            };
            for &lb in lbs {
                // Rotate apps over the graphs, so every app meets each one.
                for app in 0..4 {
                    let i = (turn + app) % kind.len();
                    out.push(point(app, &kind[i], &refs[i], template, lb));
                }
                turn += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::report_digest;
    use npar_sim::Gpu;

    type Inputs = (Csr, Csr, Vec<f32>, Vec<usize>);

    fn inputs(d: &Data) -> Vec<Inputs> {
        d.graphs
            .iter()
            .map(|g| {
                (
                    (*g.g).clone(),
                    (*g.weighted).clone(),
                    (*g.x).clone(),
                    (*g.sources).clone(),
                )
            })
            .collect()
    }

    #[test]
    fn same_seed_same_inputs_and_reports() {
        let (a, b, c) = (build(7).0, build(7).0, build(8).0);
        assert_eq!(inputs(&a), inputs(&b));
        for (x, y) in inputs(&a).iter().zip(&inputs(&c)) {
            assert_ne!(x.0, y.0, "another seed gives other graphs");
            assert_ne!(x.2, y.2, "and other SpMV vectors");
        }
        let (pa, pb) = (points(&a), points(&b));
        assert_eq!(pa.len(), 2 * 4 * (3 + 5 * LB_THRES.len()));
        for g in &a.graphs {
            assert!(
                pa.iter().any(|p| p.label.contains(&g.name)),
                "{} unused",
                g.name
            );
        }
        // One cheap point per app: identical digests, and outputs that
        // pass their CPU-reference check.
        for i in 0..4 {
            let ((ra, ca), (rb, cb)) = ((pa[i].run)(&mut Gpu::k20()), (pb[i].run)(&mut Gpu::k20()));
            assert_eq!(report_digest(&ra), report_digest(&rb), "{}", pa[i].label);
            ca().expect("output matches the CPU reference");
            cb().expect("output matches the CPU reference");
        }
    }
}
