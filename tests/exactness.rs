//! Exactness sweep on seeded random graphs: every backend, built through the
//! unified [`DistanceOracle`] interface, must return exactly the Dijkstra
//! distance for every pair. These are the strongest correctness guarantees
//! in the suite because they explore graph shapes none of the hand-written
//! tests contain; the generators live in `tests/common` and are
//! deterministic per seed, so failures reproduce exactly.

mod common;

use std::path::PathBuf;

use hc2l::Hc2lConfig;
use hc2l_graph::toy::paper_figure1;
use hc2l_graph::{dijkstra, Graph, GraphBuilder, Vertex, Weight};
use hc2l_oracle::{DistanceOracle, Method, OracleBuilder, SharedOracle, WeightUpdate};
use hc2l_roadnet::seeded_grid;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn assert_oracle_exact(g: &Graph, oracle: &impl DistanceOracle) {
    let n = g.num_vertices();
    for s in 0..n as Vertex {
        let dist = dijkstra(g, s);
        for t in 0..n as Vertex {
            let got = oracle.distance(s, t);
            assert_eq!(
                got,
                dist[t as usize],
                "{}: query ({s},{t}) returned {got}, Dijkstra says {}",
                oracle.name(),
                dist[t as usize]
            );
        }
    }
}

#[test]
fn every_method_matches_dijkstra_on_connected_graphs() {
    for (i, g) in common::connected_graph_cases(8, 40, 0xE1)
        .iter()
        .enumerate()
    {
        for method in Method::ALL {
            let oracle = OracleBuilder::new(method).threads(2).build(g);
            assert_oracle_exact(g, &oracle);
        }
        assert!(g.num_vertices() >= 3, "case {i} degenerate");
    }
}

#[test]
fn hc2l_without_pruning_and_contraction_matches() {
    for g in common::connected_graph_cases(12, 30, 0xE2) {
        let oracle = OracleBuilder::new(Method::Hc2l)
            .hc2l_config(
                Hc2lConfig::default()
                    .without_tail_pruning()
                    .without_contraction(),
            )
            .build(&g);
        assert_oracle_exact(&g, &oracle);
    }
}

#[test]
fn hc2l_handles_disconnected_graphs() {
    for g in common::sparse_graph_cases(16, 30, 0xE3) {
        let oracle = OracleBuilder::new(Method::Hc2l).build(&g);
        assert_oracle_exact(&g, &oracle);
    }
}

#[test]
fn hc2l_beta_sweep_matches() {
    for (i, g) in common::connected_graph_cases(4, 35, 0xE4)
        .iter()
        .enumerate()
    {
        let beta = [0.15, 0.2, 0.3, 0.45][i % 4];
        let oracle = OracleBuilder::new(Method::Hc2l).beta(beta).build(g);
        assert_oracle_exact(g, &oracle);
    }
}

#[test]
fn one_to_many_matches_pointwise_on_random_graphs() {
    for g in common::connected_graph_cases(6, 30, 0xE5) {
        let n = g.num_vertices() as Vertex;
        let targets: Vec<Vertex> = (0..n).collect();
        for method in Method::ALL {
            let oracle = OracleBuilder::new(method).threads(2).build(&g);
            for s in 0..n {
                let batch = oracle.one_to_many(s, &targets);
                for (&t, &d) in targets.iter().zip(batch.iter()) {
                    assert_eq!(
                        d,
                        oracle.distance(s, t),
                        "{}: one_to_many({s},{t}) diverges",
                        oracle.name()
                    );
                }
            }
        }
    }
}

#[test]
fn every_method_matches_dijkstra_under_every_kernel() {
    // The `HC2L_KERNEL` env override resolves through the same force path,
    // so looping `force_kernel` over every kernel available on this host
    // (scalar always, plus the detected SIMD kind) re-gates exactness under
    // each value the override accepts. The kernel choice is process-global,
    // but every kernel is bit-identical, so concurrently running tests are
    // unaffected.
    for kernel in hc2l_graph::available_kernels() {
        hc2l_graph::force_kernel(kernel);
        for g in common::connected_graph_cases(4, 30, 0xE7) {
            for method in Method::ALL {
                let oracle = OracleBuilder::new(method).threads(2).build(&g);
                assert_oracle_exact(&g, &oracle);
            }
        }
    }
    hc2l_graph::force_kernel(hc2l_graph::detect_kernel());
}

#[test]
fn long_hc2l_scans_match_dijkstra_under_every_kernel() {
    // The other test graphs keep HC2L's level scans below the 64 entries
    // at which `min_plus_scan` leaves its inline scalar path for the
    // dispatched SIMD kernel. A 12x12x12 grid has cuts of up to ~106
    // entries, so here the long-scan path runs on real labels — for the
    // built index and for the memory-mapped view of its saved file.
    let g = common::grid_3d_graph(12, 0x3D6);
    let n = g.num_vertices() as Vertex;
    let built = OracleBuilder::new(Method::Hc2l).build(&g);
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("exactness-grid-3d.hc2l");
    built.save(&path).expect("save");
    let mapped = SharedOracle::open(&path).expect("open");
    let sources: Vec<Vertex> = (0..16).map(|i| (i * 397 + 11) % n).collect();
    let truth: Vec<_> = sources.iter().map(|&s| dijkstra(&g, s)).collect();
    let (mut checked, mut long) = (0usize, 0usize);
    for kernel in hc2l_graph::available_kernels() {
        hc2l_graph::force_kernel(kernel);
        for (&s, dist) in sources.iter().zip(&truth) {
            for t in 0..n {
                let (d, stats) = built.distance_with_stats(s, t);
                assert_eq!(d, dist[t as usize], "{kernel} built ({s},{t})");
                let (m, mapped_stats) = mapped.distance_with_stats(s, t);
                assert_eq!(m, dist[t as usize], "{kernel} mapped ({s},{t})");
                assert_eq!(mapped_stats, stats, "{kernel} mapped stats ({s},{t})");
                checked += 1;
                long += (stats.hubs_scanned >= 64) as usize;
            }
        }
    }
    hc2l_graph::force_kernel(hc2l_graph::detect_kernel());
    std::fs::remove_file(&path).ok();
    assert!(
        4 * long >= checked,
        "only {long} of {checked} pairs scanned >= 64 entries; the test no longer \
         reaches the long-scan path"
    );
}

#[test]
fn all_methods_agree_pairwise() {
    for g in common::connected_graph_cases(6, 25, 0xE6) {
        let oracles: Vec<_> = Method::ALL
            .iter()
            .map(|&m| OracleBuilder::new(m).threads(2).build(&g))
            .collect();
        let n = g.num_vertices() as Vertex;
        for s in 0..n {
            for t in 0..n {
                let reference = oracles[0].distance(s, t);
                for oracle in &oracles[1..] {
                    assert_eq!(
                        oracle.distance(s, t),
                        reference,
                        "{} disagrees with {} on ({s},{t})",
                        oracle.name(),
                        oracles[0].name()
                    );
                }
            }
        }
    }
}

/// `g` with every edge that `pick` selects (by its position in
/// `g.edges()`) re-weighted to `weight`.
fn reweighted(g: &Graph, weight: Weight, pick: impl Fn(usize) -> bool) -> Graph {
    let mut b = GraphBuilder::new(g.num_vertices());
    for (i, (u, v, w)) in g.edges().enumerate() {
        b.add_edge(u, v, if pick(i) { weight } else { w });
    }
    b.build()
}

// Shortcuts carry path lengths, which outgrow the u32 edge weights they
// are inserted as; a clamped shortcut would undercut the path it stands
// for. Every pair must still match Dijkstra.

#[test]
fn every_method_stays_exact_when_grid_shortcuts_exceed_u32() {
    let g = reweighted(&seeded_grid(8, 8, 3), 1 << 30, |_| true);
    assert_eq!(dijkstra(&g, 0)[36], 8_589_934_592);
    for method in Method::ALL {
        assert_oracle_exact(&g, &OracleBuilder::new(method).build(&g));
    }
}

#[test]
fn every_method_stays_exact_when_figure1_shortcuts_exceed_u32() {
    let g = reweighted(&paper_figure1(), u32::MAX, |i| i % 2 == 0);
    assert_eq!(dijkstra(&g, 0)[2], 4_294_967_297);
    for method in Method::ALL {
        assert_oracle_exact(&g, &OracleBuilder::new(method).build(&g));
    }
}

/// One random re-weighting of an edge of weight `w`: an increase, a
/// decrease, a weight near `u32::MAX` or a small weight (0 included, which
/// the graph stores as 1).
fn churned_weight(rng: &mut StdRng, w: Weight) -> Weight {
    match rng.random_range(0..4u32) {
        0 => w.saturating_mul(rng.random_range(2..=8u32)),
        1 => (w / 2).max(1),
        2 => u32::MAX - rng.random_range(0..16u32),
        _ => rng.random_range(0..=20u32),
    }
}

#[test]
fn every_method_stays_exact_through_seeded_weight_churn() {
    // 25 update batches per graph and seed. Each batch walks one fixed edge
    // through small, huge and back-to-small weights, and re-weights 1-6
    // other distinct edges; after every batch each method must answer
    // every pair exactly on the re-weighted graph, whichever strategy
    // (incremental or rebuild) absorbed the batch. A weight of 0 is stored
    // as 1, so it must answer like 1.
    const FIXED_EDGE_WEIGHTS: [Weight; 6] = [1, 50, u32::MAX, 0, 3, u32::MAX - 1];
    for g0 in [paper_figure1(), seeded_grid(6, 6, 7), seeded_grid(5, 7, 9)] {
        let edges: Vec<(Vertex, Vertex)> = g0.edges().map(|(u, v, _)| (u, v)).collect();
        for seed in 0..3u64 {
            for method in Method::ALL {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut g = g0.clone();
                let mut oracle = OracleBuilder::new(method).build(&g);
                for batch in 0..25 {
                    let (fu, fv) = edges[0];
                    let mut ups = vec![WeightUpdate::new(
                        fu,
                        fv,
                        FIXED_EDGE_WEIGHTS[batch % FIXED_EDGE_WEIGHTS.len()],
                    )];
                    let others = rng.random_range(1..=6usize);
                    let mut picked = vec![0usize];
                    while picked.len() <= others {
                        let i = rng.random_range(1..edges.len());
                        if !picked.contains(&i) {
                            picked.push(i);
                            let (u, v) = edges[i];
                            let w = g.edge_weight(u, v).expect("edge of the graph");
                            ups.push(WeightUpdate::new(u, v, churned_weight(&mut rng, w)));
                        }
                    }
                    let report = oracle.apply_updates(&mut g, &ups);
                    assert_eq!(report.rejected, 0, "{method} seed {seed} batch {batch}");
                    assert_oracle_exact(&g, &oracle);
                }
            }
        }
    }
}
