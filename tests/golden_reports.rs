//! Golden Report digests: pins the modeled output of every app and template
//! across commits, not only between toggles inside one build.
//!
//! Each line of `tests/golden/reports.txt` is `name digest`, where the
//! digest is FNV-1a over the Report's JSON with the host-side `sim`
//! statistics zeroed. A change that is meant to move the model regenerates
//! the file by copying the text this test prints on a mismatch, and says so
//! in CHANGES.md.

use npar::apps::{bc, bfs, pagerank, spmv, sssp, tree_apps};
use npar::core::{LoopParams, LoopTemplate, RecParams, RecTemplate};
use npar::graph::{citeseer_like, with_random_weights};
use npar::sim::{ConsolidateMode, Gpu, Report, SimStats};
use npar::tree::TreeGen;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/reports.txt");

fn digest(report: &Report) -> String {
    let mut r = report.clone();
    r.sim = SimStats::default();
    let text = serde_json::to_string(&r).expect("Report renders as JSON");
    let h = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{h:016x}")
}

fn reports() -> Vec<(String, Report)> {
    let g = with_random_weights(&citeseer_like(240, 21), 10, 22);
    let x: Vec<f32> = (0..g.num_nodes()).map(|i| (i % 7) as f32 * 0.5).collect();
    let sources = bc::sample_sources(&g, 2);
    let params = LoopParams::with_lb_thres(16);
    let mut out = Vec::new();
    for template in LoopTemplate::ALL {
        let gpu = || Gpu::k20();
        out.push((
            format!("sssp/{template}"),
            sssp::sssp_gpu(&mut gpu(), &g, 0, template, &params).report,
        ));
        out.push((
            format!("bc/{template}"),
            bc::bc_gpu(&mut gpu(), &g, &sources, template, &params).report,
        ));
        out.push((
            format!("pagerank/{template}"),
            pagerank::pagerank_gpu(&mut gpu(), &g, 2, template, &params).report,
        ));
        out.push((
            format!("spmv/{template}"),
            spmv::spmv_gpu(&mut gpu(), &g, &x, template, &params).report,
        ));
    }

    let tree = TreeGen {
        depth: 4,
        outdegree: 4,
        sparsity: 1,
        seed: 23,
    }
    .generate();
    for metric in [
        tree_apps::TreeMetric::Descendants,
        tree_apps::TreeMetric::Heights,
    ] {
        for template in RecTemplate::ALL {
            let r = tree_apps::tree_gpu(
                &mut Gpu::k20(),
                &tree,
                metric,
                template,
                &RecParams::default(),
            );
            out.push((format!("{}/{template}", metric.label()), r.report));
        }
    }

    for (label, variant) in [
        ("naive", bfs::RecBfsVariant::Naive),
        ("hier", bfs::RecBfsVariant::Hier),
    ] {
        let r = bfs::bfs_recursive_gpu(&mut Gpu::k20(), &g, 0, variant, 1);
        out.push((format!("rec-bfs/{label}"), r.report));
    }

    let mut gpu = Gpu::k20().with_consolidation(ConsolidateMode::Auto);
    let r = sssp::sssp_gpu(&mut gpu, &g, 0, LoopTemplate::DparNaive, &params);
    out.push(("sssp/dpar-naive+consolidate-auto".into(), r.report));
    out
}

#[test]
fn reports_match_the_golden_digests() {
    let got: String = reports()
        .iter()
        .map(|(name, r)| format!("{name} {}\n", digest(r)))
        .collect();
    let want = std::fs::read_to_string(GOLDEN).unwrap_or_default();
    assert!(
        got == want,
        "Report digests differ from {GOLDEN}; if the model change is intended, \
         replace the file with:\n{got}"
    );
}
