//! Golden tests for the frozen flat label arenas (PR 2).
//!
//! Every labelling backend answers queries from a flat arena built by a
//! one-shot `freeze()` after construction. These tests pin down, on
//! seeded-random graphs, that
//!
//! * frozen-arena query results and `QueryStats::hubs_scanned` match the
//!   ground truth (Dijkstra resp. the per-vertex label lengths re-derived
//!   from the arena accessors — what the pre-freeze builder structures
//!   held),
//! * the O(1) cached size totals (`index_bytes`, label bytes, entry counts)
//!   equal a full per-vertex recount, i.e. freezing lost nothing, and
//! * a frozen arena comes back bit-identical from the index container, its
//!   only on-disk form.

mod common;

use common::random_connected_graph;
use hc2l::{FrozenHc2l, Hc2lConfig, Hc2lIndex};
use hc2l_graph::flat_labels::LevelLabelsBuilder;
use hc2l_graph::{dijkstra, Distance, Graph, Vertex, INFINITY};
use hc2l_graph::{Container, ContainerWriter, PersistentIndex};
use hc2l_h2h::H2hIndex;
use hc2l_hl::{FrozenHubLabels, HubLabelIndex};
use hc2l_oracle::{DistanceOracle, Method, OracleBuilder};
use hc2l_phl::PhlIndex;

const SEEDS: [u64; 3] = [11, 42, 9001];

fn seeded_graphs() -> Vec<Graph> {
    SEEDS
        .iter()
        .map(|&s| random_connected_graph(40 + (s as usize % 17), 30, s))
        .collect()
}

#[test]
fn every_method_answers_from_its_frozen_arena_exactly() {
    for g in seeded_graphs() {
        let n = g.num_vertices() as Vertex;
        for method in Method::ALL {
            let oracle = OracleBuilder::new(method).threads(2).build(&g);
            for s in (0..n).step_by(3) {
                let expected = dijkstra(&g, s);
                for t in 0..n {
                    assert_eq!(
                        oracle.distance(s, t),
                        expected[t as usize],
                        "{}: ({s},{t})",
                        oracle.name()
                    );
                }
            }
        }
    }
}

#[test]
fn hubs_scanned_matches_label_lengths_rederived_from_the_arena() {
    for g in seeded_graphs() {
        let n = g.num_vertices() as Vertex;

        // HL and PHL scan both labels in full: the stat must equal the sum
        // of the two arena row lengths.
        let hl = HubLabelIndex::build(&g);
        let phl = PhlIndex::build(&g);
        for s in (0..n).step_by(5) {
            for t in (0..n).step_by(7) {
                if s == t {
                    continue;
                }
                let (_, stats) = hl.query_with_stats(s, t);
                assert_eq!(stats.hubs_scanned, hl.label_len(s) + hl.label_len(t));
                let (_, stats) = phl.query_with_stats(s, t);
                assert_eq!(stats.hubs_scanned, phl.label_len(s) + phl.label_len(t));
            }
        }

        // HC2L scans the common prefix of the two LCA-level arrays; H2H
        // scans the LCA's bag. Both are bounded by the arena row lengths.
        let hc2l = Hc2lIndex::build(&g, Hc2lConfig::default());
        let h2h = H2hIndex::build(&g);
        for s in (0..n).step_by(5) {
            for t in (0..n).step_by(7) {
                if s == t {
                    continue;
                }
                let (d, stats) = hc2l.query_with_stats(s, t);
                if d < INFINITY && stats.lca_level.is_some() {
                    assert!(stats.hubs_scanned > 0, "HC2L ({s},{t}) scanned nothing");
                    assert!(stats.hubs_scanned <= hc2l.stats().hierarchy.max_cut_size);
                }
                let (_, stats) = h2h.query_with_stats(s, t);
                assert!(stats.hubs_scanned >= 1);
                assert!(stats.hubs_scanned <= h2h.stats().max_bag_size);
            }
        }
    }
}

#[test]
fn cached_size_totals_equal_a_full_recount() {
    for g in seeded_graphs() {
        let n = g.num_vertices() as Vertex;

        // HC2L: the frozen arena's O(1) totals vs. a per-vertex recount.
        let hc2l = Hc2lIndex::build(&g, Hc2lConfig::default());
        let labels = hc2l.labels();
        let recount: usize = (0..labels.num_vertices() as Vertex)
            .map(|v| {
                (0..labels.num_levels(v))
                    .map(|l| labels.level_array(v, l).len())
                    .sum::<usize>()
            })
            .sum();
        assert_eq!(labels.total_entries(), recount);
        let per_vertex: usize = (0..labels.num_vertices() as Vertex)
            .map(|v| labels.vertex_entries(v))
            .sum();
        assert_eq!(recount, per_vertex);
        assert!(
            (labels.avg_entries() - recount as f64 / labels.num_vertices() as f64).abs() < 1e-12
        );

        // HL: stats equal the recount of arena rows, and index_bytes through
        // the trait (the exact on-disk container size since PR 3) covers at
        // least the arena bytes.
        let hl = HubLabelIndex::build(&g);
        let recount: usize = (0..n).map(|v| hl.label_len(v)).sum();
        assert_eq!(hl.stats().total_entries, recount);
        assert!(DistanceOracle::index_bytes(&hl) >= hl.stats().memory_bytes);
        assert_eq!(hl.stats().memory_bytes, hl.labels().memory_bytes());

        // PHL: same contract.
        let phl = PhlIndex::build(&g);
        let recount: usize = (0..n).map(|v| phl.label_len(v)).sum();
        assert_eq!(phl.stats().total_entries, recount);
        assert!(DistanceOracle::index_bytes(&phl) >= phl.stats().memory_bytes);

        // H2H: entry total equals the recount of ancestor rows.
        let h2h = H2hIndex::build(&g);
        let recount: usize = (0..n).map(|v| h2h.ancestor_dists(v).len()).sum();
        assert_eq!(h2h.stats().total_entries, recount);
        let pos_recount: usize = (0..n).map(|v| h2h.bag_positions(v).len()).sum();
        assert_eq!(
            h2h.stats().label_bytes,
            recount * std::mem::size_of::<Distance>() + pos_recount * 4
        );

        // Trait-level invariant for every method: index_bytes covers labels
        // plus LCA storage.
        for method in Method::ALL {
            let oracle = OracleBuilder::new(method).threads(2).build(&g);
            assert!(
                oracle.index_bytes() >= oracle.label_bytes() + oracle.lca_bytes(),
                "{}",
                oracle.name()
            );
        }
    }
}

#[test]
fn frozen_arena_matches_prefreeze_builder_scratch() {
    // Freeze a scratch builder and verify the arena reproduces every
    // pre-freeze array — the lossless-freeze contract the backends rely on.
    for &seed in &SEEDS {
        let mut builder = LevelLabelsBuilder::new(24);
        let mut expected: Vec<Vec<Vec<Distance>>> = vec![Vec::new(); 24];
        let mut x = seed;
        for v in 0..24u32 {
            let levels = 1 + (v as usize * 7 + seed as usize) % 4;
            for _ in 0..levels {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let len = (x >> 33) as usize % 5;
                let arr: Vec<Distance> = (0..len)
                    .map(|_| {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(99);
                        if (x >> 60) == 0 {
                            INFINITY
                        } else {
                            (x >> 40) as Distance
                        }
                    })
                    .collect();
                builder.push_level(v, &arr);
                expected[v as usize].push(arr);
            }
        }
        let frozen = builder.freeze();
        for v in 0..24u32 {
            assert_eq!(frozen.num_levels(v), expected[v as usize].len());
            for (l, arr) in expected[v as usize].iter().enumerate() {
                assert_eq!(
                    frozen.level_array(v, l),
                    arr.as_slice(),
                    "vertex {v} level {l}"
                );
            }
        }
    }
}

#[test]
fn frozen_arenas_survive_the_container_bit_identically() {
    let g = random_connected_graph(40, 25, 7);
    let load = |w: ContainerWriter| Container::from_bytes(&w.finish()).expect("valid container");

    let hl = HubLabelIndex::build(&g);
    let mut w = ContainerWriter::new(HubLabelIndex::METHOD_TAG);
    hl.write_sections(&mut w);
    let c = load(w);
    let owned = HubLabelIndex::read_sections(&c).expect("HL loads");
    let view = FrozenHubLabels::from_container(&c).expect("HL view opens");
    assert_eq!(owned.labels(), hl.labels());
    assert_eq!(view.labels(), hl.labels());

    let hc2l = Hc2lIndex::build(&g, Hc2lConfig::default());
    let mut w = ContainerWriter::new(Hc2lIndex::METHOD_TAG);
    hc2l.write_sections(&mut w);
    let c = load(w);
    let owned = Hc2lIndex::read_sections(&c).expect("HC2L loads");
    let view = FrozenHc2l::from_container(&c).expect("HC2L view opens");
    assert_eq!(owned.labels(), hc2l.labels());
    assert_eq!(view.labels(), hc2l.labels());
    for v in (0..hc2l.labels().num_vertices() as Vertex).step_by(3) {
        for l in 0..hc2l.labels().num_levels(v) {
            assert_eq!(
                view.labels().level_array(v, l),
                hc2l.labels().level_array(v, l)
            );
        }
    }
}

#[test]
fn one_to_many_into_reuses_the_buffer_and_matches_pointwise() {
    let g = random_connected_graph(50, 40, 13);
    let n = g.num_vertices() as Vertex;
    let targets: Vec<Vertex> = (0..n).collect();
    for method in Method::ALL {
        let oracle = OracleBuilder::new(method).threads(2).build(&g);
        let mut buf: Vec<Distance> = Vec::with_capacity(targets.len());
        let cap = buf.capacity();
        for s in (0..n).step_by(4) {
            oracle.one_to_many_into(s, &targets, &mut buf);
            assert_eq!(buf.len(), targets.len());
            for (&t, &d) in targets.iter().zip(buf.iter()) {
                assert_eq!(d, oracle.distance(s, t), "{} otm ({s},{t})", oracle.name());
            }
        }
        // The buffer was reused, never regrown.
        assert_eq!(buf.capacity(), cap, "{} regrew the buffer", oracle.name());
    }
}
