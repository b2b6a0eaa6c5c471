//! Index persistence: the save → load round trip through the whole oracle
//! stack (PR 3).
//!
//! Pins down, for every [`Method`]:
//!
//! * save → load → **bit-identical** query results, checked both against the
//!   built index and against Dijkstra ground truth, on graphs that exercise
//!   degree-one contraction and disconnected components;
//! * `index_bytes()` equals the exact byte size of the file `save` writes;
//! * corrupted files (truncation, bad magic, wrong version, flipped
//!   checksum/payload bytes, foreign method tags) surface as typed
//!   [`PersistError`]s, never panics;
//! * the zero-copy `Frozen*Ref` views over a loaded container answer
//!   identically to the owned indexes they were saved from.

mod common;

use std::path::PathBuf;

use common::random_connected_graph;
use hc2l::{Hc2lConfig, Hc2lIndex};
use hc2l_graph::container::{method_tag, Container, ContainerWriter, DecodeError};
use hc2l_graph::toy::grid_graph;
use hc2l_graph::{
    bounds_len, dijkstra, Graph, GraphBuilder, PersistError, PersistentIndex, Vertex,
};
use hc2l_oracle::{DistanceOracle, Method, Oracle, OracleBuilder, SharedOracle};

/// Scratch directory for this test binary's container files.
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("persistence");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join(name)
}

/// A grid with pendant trees and a second component: exercises the HC2L
/// contraction columns and the cross-component INFINITY paths.
fn gnarly_graph() -> Graph {
    let mut b = GraphBuilder::new(0);
    for (u, v, w) in grid_graph(5, 5).edges() {
        b.add_edge(u, v, w);
    }
    // Pendant chain and star off the grid.
    b.add_edge(7, 25, 2);
    b.add_edge(25, 26, 3);
    b.add_edge(26, 27, 1);
    b.add_edge(12, 28, 4);
    // A separate component.
    b.add_edge(29, 30, 5);
    b.add_edge(30, 31, 2);
    b.build()
}

#[test]
fn every_method_round_trips_with_bit_identical_queries() {
    let graphs = [gnarly_graph(), random_connected_graph(40, 30, 0xD15C)];
    for (gi, g) in graphs.iter().enumerate() {
        let n = g.num_vertices() as Vertex;
        let targets: Vec<Vertex> = (0..n).collect();
        for method in Method::ALL {
            let built = OracleBuilder::new(method).threads(2).build(g);
            let path = scratch(&format!("rt-{gi}-{}.hc2l", method.name()));
            built.save(&path).expect("save must succeed");

            // index_bytes is the exact on-disk size.
            let file_len = std::fs::metadata(&path).expect("saved file").len() as usize;
            assert_eq!(
                built.index_bytes(),
                file_len,
                "{}: index_bytes vs file size",
                method
            );

            let loaded = OracleBuilder::load(&path).expect("load must succeed");
            assert_eq!(loaded.method(), method, "method tag round-trips");
            assert_eq!(loaded.name(), built.name());
            assert_eq!(loaded.index_bytes(), built.index_bytes(), "{method}");
            assert_eq!(loaded.label_bytes(), built.label_bytes(), "{method}");
            assert_eq!(loaded.lca_bytes(), built.lca_bytes(), "{method}");
            assert_eq!(loaded.tree_height(), built.tree_height());
            assert_eq!(loaded.max_width(), built.max_width());

            // Bit-identical answers: vs the built index and vs Dijkstra.
            let mut buf = Vec::new();
            for s in 0..n {
                let truth = dijkstra(g, s);
                for t in 0..n {
                    let d = loaded.distance(s, t);
                    assert_eq!(d, built.distance(s, t), "{method} loaded ({s},{t})");
                    assert_eq!(d, truth[t as usize], "{method} vs Dijkstra ({s},{t})");
                }
                loaded.one_to_many_into(s, &targets, &mut buf);
                for (&t, &d) in targets.iter().zip(buf.iter()) {
                    assert_eq!(d, built.distance(s, t), "{method} otm ({s},{t})");
                }
            }
            std::fs::remove_file(&path).ok();
        }
    }
}

#[test]
fn legacy_parallel_tag_loads_as_hc2l() {
    // Files written before HC2L's parallel build folded into `Method::Hc2l`
    // carry the parallel-build tag; both load paths must still read them.
    let g = grid_graph(6, 6);
    let built = Hc2lIndex::build(&g, Hc2lConfig::parallel(3));
    let path = scratch("legacy-hc2lp.hc2l");
    let mut w = ContainerWriter::new(method_tag::HC2L_PARALLEL);
    built.write_sections(&mut w);
    w.write_to(&path).expect("save");
    let loaded = Oracle::load(&path).expect("load");
    let shared = SharedOracle::open(&path).expect("open");
    assert_eq!(loaded.method(), Method::Hc2l);
    assert_eq!(loaded.name(), "HC2L");
    assert_eq!(shared.method(), Method::Hc2l);
    assert_eq!(shared.name(), "HC2L");
    for s in 0..36u32 {
        for t in 0..36u32 {
            let want = built.query(s, t);
            assert_eq!(loaded.distance(s, t), want, "load ({s},{t})");
            assert_eq!(shared.distance(s, t), want, "open ({s},{t})");
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupted_files_yield_clean_errors_not_panics() {
    let g = random_connected_graph(24, 12, 7);
    let built = OracleBuilder::new(Method::Hl).build(&g);
    let path = scratch("corrupt.hc2l");
    built.save(&path).expect("save");
    let bytes = std::fs::read(&path).expect("read back");
    std::fs::remove_file(&path).ok();

    let load = |mutated: Vec<u8>| -> Result<Oracle, PersistError> {
        let p = scratch("corrupt-case.hc2l");
        std::fs::write(&p, &mutated).expect("write case");
        let r = Oracle::load(&p);
        std::fs::remove_file(&p).ok();
        r
    };
    let decode_err = |r: Result<Oracle, PersistError>| -> DecodeError {
        match r {
            Err(PersistError::Decode(e)) => e,
            Err(PersistError::Io(e)) => panic!("expected decode error, got I/O error {e}"),
            Ok(_) => panic!("corrupted file loaded successfully"),
        }
    };

    // Truncation at several byte counts, including mid-header.
    for cut in [0, 7, 40, bytes.len() / 2, bytes.len() - 1] {
        let e = decode_err(load(bytes[..cut].to_vec()));
        assert_eq!(e, DecodeError::Truncated, "truncated at {cut}");
    }
    // Bad magic.
    let mut b = bytes.clone();
    b[0] ^= 0x5A;
    assert_eq!(decode_err(load(b)), DecodeError::BadMagic);
    // Unsupported version.
    let mut b = bytes.clone();
    b[8] = 0xEE;
    assert!(matches!(
        decode_err(load(b)),
        DecodeError::UnsupportedVersion { found } if found != 0
    ));
    // A flipped byte in the stored checksum itself.
    let mut b = bytes.clone();
    b[24] ^= 0x01;
    assert!(matches!(
        decode_err(load(b)),
        DecodeError::ChecksumMismatch { .. }
    ));
    // A flipped byte deep inside a section payload.
    let mut b = bytes.clone();
    let last = b.len() - 1;
    b[last] ^= 0x80;
    assert!(matches!(
        decode_err(load(b)),
        DecodeError::ChecksumMismatch { .. }
    ));
}

#[test]
fn foreign_and_unknown_method_tags_are_rejected() {
    // A container written under a tag no backend claims.
    let mut w = ContainerWriter::new(0xDEAD);
    w.push_pods::<u32>(0, &[1, 2, 3]);
    let path = scratch("unknown-tag.hc2l");
    w.write_to(&path).expect("write");
    assert!(matches!(
        Oracle::load(&path),
        Err(PersistError::Decode(DecodeError::UnknownMethod {
            tag: 0xDEAD
        }))
    ));

    // A valid CH container refused by the HL backend (method mismatch), and
    // accepted with identical answers by the CH backend.
    let g = grid_graph(4, 4);
    let ch = hc2l_ch::ContractionHierarchy::build(&g);
    ch.save_to(&path).expect("save CH");
    assert!(matches!(
        hc2l_hl::HubLabelIndex::load_from(&path),
        Err(PersistError::Decode(DecodeError::MethodMismatch { .. }))
    ));
    let ch_back = hc2l_ch::ContractionHierarchy::load_from(&path).expect("load CH");
    for s in 0..16u32 {
        for t in 0..16u32 {
            assert_eq!(ch_back.query(s, t), ch.query(s, t));
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn zero_copy_views_answer_from_the_loaded_buffer() {
    // The same query kernels run on borrowed `&[u8]`-backed arenas: build
    // each labelling backend, serialise it, and query the Frozen*Ref views
    // straight out of the container buffer.
    let g = gnarly_graph();
    let n = g.num_vertices() as Vertex;

    let hc2l = hc2l::Hc2lIndex::build(&g, Hc2lConfig::default());
    let mut w = ContainerWriter::new(hc2l::Hc2lIndex::METHOD_TAG);
    hc2l.write_sections(&mut w);
    let c = Container::from_bytes(&w.finish()).unwrap();
    let view = hc2l::FrozenHc2lRef::from_container(&c).unwrap();
    for s in 0..n {
        for t in 0..n {
            assert_eq!(view.query(s, t), hc2l.query(s, t), "HC2L view ({s},{t})");
        }
    }

    let hl = hc2l_hl::HubLabelIndex::build(&g);
    let mut w = ContainerWriter::new(hc2l_hl::HubLabelIndex::METHOD_TAG);
    hl.write_sections(&mut w);
    let c = Container::from_bytes(&w.finish()).unwrap();
    let view = hc2l_hl::FrozenHubLabelsRef::from_container(&c).unwrap();
    for s in 0..n {
        for t in 0..n {
            assert_eq!(view.query(s, t), hl.query(s, t), "HL view ({s},{t})");
        }
    }

    let phl = hc2l_phl::PhlIndex::build(&g);
    let mut w = ContainerWriter::new(hc2l_phl::PhlIndex::METHOD_TAG);
    phl.write_sections(&mut w);
    let c = Container::from_bytes(&w.finish()).unwrap();
    let view = hc2l_phl::FrozenPhlLabelsRef::from_container(&c).unwrap();
    for s in 0..n {
        for t in 0..n {
            assert_eq!(view.query(s, t), phl.query(s, t), "PHL view ({s},{t})");
        }
    }

    let h2h = hc2l_h2h::H2hIndex::build(&g);
    let mut w = ContainerWriter::new(hc2l_h2h::H2hIndex::METHOD_TAG);
    h2h.write_sections(&mut w);
    let c = Container::from_bytes(&w.finish()).unwrap();
    let view = hc2l_h2h::FrozenH2hRef::from_container(&c).unwrap();
    for s in 0..n {
        for t in 0..n {
            assert_eq!(view.query(s, t), h2h.query(s, t), "H2H view ({s},{t})");
        }
    }

    let ch = hc2l_ch::ContractionHierarchy::build(&g);
    let mut w = ContainerWriter::new(hc2l_ch::ContractionHierarchy::METHOD_TAG);
    ch.write_sections(&mut w);
    let c = Container::from_bytes(&w.finish()).unwrap();
    let view = hc2l_ch::FrozenChRef::from_container(&c).unwrap();
    for s in 0..n {
        for t in 0..n {
            assert_eq!(view.query(s, t), ch.query(s, t), "CH view ({s},{t})");
        }
    }
}

#[test]
fn legacy_hc2l_bound_sections_are_ignored() {
    // HC2L files written before it dropped its cut bounds carry two more
    // sections: 10 (per-block minima of every level array) and 11 (their
    // offset table). Readers ignore both. Fill them with bounds that would
    // mis-prune every scan (all zeros): every load path must still accept
    // the file and answer exactly like the built index.
    let g = gnarly_graph();
    let n = g.num_vertices() as Vertex;
    let built = Hc2lIndex::build(&g, Hc2lConfig::default());
    let labels = built.labels();
    let bound_count: usize = (0..labels.num_vertices() as Vertex)
        .flat_map(|v| (0..labels.num_levels(v)).map(move |l| (v, l)))
        .map(|(v, l)| bounds_len(labels.level_array(v, l).len()))
        .sum();
    let (_, level_offsets, _) = labels.parts();
    let mut current = ContainerWriter::new(Hc2lIndex::METHOD_TAG);
    built.write_sections(&mut current);
    let current = Container::from_bytes(&current.finish()).unwrap();
    let mut w = ContainerWriter::new(Hc2lIndex::METHOD_TAG);
    for spec in current
        .specs()
        .iter()
        .filter(|spec| spec.tag != 10 && spec.tag != 11)
    {
        w.push_section(spec.tag, current.section(spec.tag).unwrap().to_vec());
    }
    w.push_pods(10, &vec![0u64; bound_count]);
    w.push_pods(11, &vec![0u32; level_offsets.len()]);
    let path = scratch("legacy-hc2l-bounds.hc2l");
    w.write_to(&path).expect("save");

    let c = Container::open(&path).expect("open container");
    assert!(c.has_section(10) && c.has_section(11));
    let owned = Hc2lIndex::read_sections(&c).expect("legacy HC2L container reads");
    let view = hc2l::FrozenHc2lRef::from_container(&c).expect("legacy HC2L view opens");
    let loaded = Oracle::load(&path).expect("legacy HC2L file loads");
    let shared = SharedOracle::open(&path).expect("legacy HC2L file opens shared");
    for s in 0..n {
        for t in 0..n {
            let want = built.query(s, t);
            assert_eq!(owned.query(s, t), want, "read_sections ({s},{t})");
            assert_eq!(view.query(s, t), want, "from_container ({s},{t})");
            assert_eq!(loaded.distance(s, t), want, "Oracle::load ({s},{t})");
            assert_eq!(shared.distance(s, t), want, "SharedOracle::open ({s},{t})");
        }
    }
    std::fs::remove_file(&path).ok();

    // A fresh save writes neither section.
    let fresh = scratch("fresh-hc2l.hc2l");
    OracleBuilder::new(Method::Hc2l)
        .build(&g)
        .save(&fresh)
        .expect("save");
    let c = Container::open(&fresh).expect("open container");
    assert!(!c.has_section(10) && !c.has_section(11));
    std::fs::remove_file(&fresh).ok();
}

#[test]
fn pre_bounds_containers_load_with_identical_answers() {
    // Format-v1 files predate the cut-bound sections (SIMD/pruning PR).
    // Simulate one per bound-carrying backend by stripping the bounds
    // sections from a fresh container: the owned load path rebuilds the
    // bounds, the zero-copy view serves with pruning off — answers must be
    // identical either way.
    let g = gnarly_graph();
    let n = g.num_vertices() as Vertex;

    let strip = |w: &ContainerWriter, drop: &[u32]| -> Vec<u8> {
        let bytes = w.finish();
        let full = Container::from_bytes(&bytes).unwrap();
        let mut out = ContainerWriter::new(full.method_tag());
        for spec in full.specs() {
            if !drop.contains(&spec.tag) {
                out.push_section(spec.tag, full.section(spec.tag).unwrap().to_vec());
            }
        }
        out.finish()
    };

    // HL: suffix bounds live in sections 5/6.
    let hl = hc2l_hl::HubLabelIndex::build(&g);
    let mut w = ContainerWriter::new(hc2l_hl::HubLabelIndex::METHOD_TAG);
    hl.write_sections(&mut w);
    let stripped = strip(&w, &[5, 6]);
    let c = Container::from_bytes(&stripped).unwrap();
    let owned = hc2l_hl::HubLabelIndex::read_sections(&c).expect("pre-bounds HL container loads");
    let view = hc2l_hl::FrozenHubLabelsRef::from_container(&c).unwrap();
    for s in 0..n {
        for t in 0..n {
            assert_eq!(owned.query(s, t), hl.query(s, t), "HL owned ({s},{t})");
            assert_eq!(view.query(s, t), hl.query(s, t), "HL view ({s},{t})");
        }
    }

    // PHL: suffix bounds live in sections 3/4.
    let phl = hc2l_phl::PhlIndex::build(&g);
    let mut w = ContainerWriter::new(hc2l_phl::PhlIndex::METHOD_TAG);
    phl.write_sections(&mut w);
    let stripped = strip(&w, &[3, 4]);
    let c = Container::from_bytes(&stripped).unwrap();
    let owned = hc2l_phl::PhlIndex::read_sections(&c).expect("pre-bounds PHL container loads");
    let view = hc2l_phl::FrozenPhlLabelsRef::from_container(&c).unwrap();
    for s in 0..n {
        for t in 0..n {
            assert_eq!(owned.query(s, t), phl.query(s, t), "PHL owned ({s},{t})");
            assert_eq!(view.query(s, t), phl.query(s, t), "PHL view ({s},{t})");
        }
    }
}

#[test]
fn tampered_bound_sections_are_rejected_typed() {
    // A bound section whose values disagree with the label arena could
    // silently mis-prune; the load path must recompute-validate and fail
    // typed instead.
    let g = grid_graph(4, 4);
    let hl = hc2l_hl::HubLabelIndex::build(&g);
    let mut w = ContainerWriter::new(hc2l_hl::HubLabelIndex::METHOD_TAG);
    hl.write_sections(&mut w);
    let bytes = w.finish();
    let full = Container::from_bytes(&bytes).unwrap();
    let mut out = ContainerWriter::new(full.method_tag());
    for spec in full.specs() {
        let mut payload = full.section(spec.tag).unwrap().to_vec();
        if spec.tag == 5 {
            // Lower one bound: every value it admits is still explored, so
            // only the validator can notice.
            payload[0] ^= 0x01;
        }
        out.push_section(spec.tag, payload);
    }
    let c = Container::from_bytes(&out.finish()).unwrap();
    assert!(matches!(
        hc2l_hl::HubLabelIndex::read_sections(&c),
        Err(DecodeError::Malformed(_))
    ));
    assert!(matches!(
        hc2l_hl::FrozenHubLabelsRef::from_container(&c),
        Err(DecodeError::Malformed(_))
    ));
}

#[test]
fn loading_is_much_cheaper_than_building() {
    // The build-once/load-many premise: even in debug builds, decoding the
    // container must beat re-running construction outright (the release-mode
    // 10x criterion is tracked by BENCH_PR3.json).
    let g = grid_graph(30, 30);
    let start = std::time::Instant::now();
    let built = OracleBuilder::new(Method::Hc2l).build(&g);
    let build_time = start.elapsed();

    let path = scratch("timing.hc2l");
    built.save(&path).expect("save");
    let start = std::time::Instant::now();
    let loaded = Oracle::load(&path).expect("load");
    let load_time = start.elapsed();
    std::fs::remove_file(&path).ok();

    assert_eq!(loaded.distance(0, 899), built.distance(0, 899));
    assert!(
        load_time < build_time,
        "loading ({load_time:?}) should beat building ({build_time:?})"
    );
}

#[test]
fn loaded_indexes_report_consistent_diagnostics() {
    let g = random_connected_graph(30, 20, 99);
    for method in Method::ALL {
        let built = OracleBuilder::new(method).threads(2).build(&g);
        let path = scratch(&format!("diag-{}.hc2l", method.name()));
        built.save(&path).expect("save");
        let loaded = Oracle::load(&path).expect("load");
        assert!((loaded.construction_seconds() - built.construction_seconds()).abs() < 1e-12);
        assert!(loaded.index_bytes() > 0);
        std::fs::remove_file(&path).ok();
    }
}
