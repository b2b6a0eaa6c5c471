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
//!   checksum/payload bytes, unknown method tags) surface as typed
//!   [`PersistError`]s, never panics;
//! * the zero-copy `Frozen*Ref` views over a loaded container answer
//!   identically to the owned indexes they were saved from;
//! * a container is a pure function of the graph and the output-affecting
//!   config: two builds give the same bytes, HC2L's thread count and
//!   parallel grain change nothing, load → save is the identity, and a
//!   table of golden checksums pins every method's output;
//! * the containers under `tests/fixtures/`, written before the build time
//!   and HC2L's thread counts were retired from META, still load, answer
//!   exactly, and re-save to a fresh build's bytes.

mod common;

use std::path::{Path, PathBuf};

use common::random_connected_graph;
use hc2l::{Hc2lConfig, Hc2lIndex};
use hc2l_graph::container::{method_tag, Container, ContainerWriter, DecodeError};
use hc2l_graph::toy::{grid_graph, paper_figure1};
use hc2l_graph::{dijkstra, Distance, Graph, GraphBuilder, PersistError, PersistentIndex, Vertex};
use hc2l_oracle::{DistanceOracle, Method, Oracle, OracleBuilder, SharedOracle};
use hc2l_roadnet::{RoadNetworkConfig, WeightMode};

/// Scratch directory for this test binary's container files.
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("persistence");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join(name)
}

/// The bytes `oracle.save` writes, via a scratch file named `name`.
fn container_bytes(oracle: &Oracle, name: &str) -> Vec<u8> {
    let path = scratch(name);
    oracle.save(&path).expect("save");
    let bytes = std::fs::read(&path).expect("read saved container");
    std::fs::remove_file(&path).ok();
    bytes
}

/// A seeded travel-time city map, the shape the benchmarks serve.
fn seeded_city(side: usize) -> Graph {
    RoadNetworkConfig::city(side, side, 36)
        .generate()
        .graph(WeightMode::TravelTime)
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
fn unknown_method_tags_are_rejected() {
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

    // A valid CH container loads back as CH with identical answers.
    let g = grid_graph(4, 4);
    let ch = OracleBuilder::new(Method::Ch).build(&g);
    ch.save(&path).expect("save CH");
    let ch_back = Oracle::load(&path).expect("load CH");
    assert_eq!(ch_back.method(), Method::Ch);
    for s in 0..16u32 {
        for t in 0..16u32 {
            assert_eq!(ch_back.distance(s, t), ch.distance(s, t));
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

/// `index`'s container with its bound sections, if any, replaced by two
/// all-zero legacy ones: `bounds` `u64` bounds under `tags[0]`, `offsets`
/// `u32` offsets under `tags[1]`.
fn with_legacy_bounds<I: PersistentIndex>(
    index: &I,
    tags: [u32; 2],
    bounds: usize,
    offsets: usize,
) -> ContainerWriter {
    let mut current = ContainerWriter::new(I::METHOD_TAG);
    index.write_sections(&mut current);
    let current = Container::from_bytes(&current.finish()).unwrap();
    let mut w = ContainerWriter::new(I::METHOD_TAG);
    for spec in current
        .specs()
        .iter()
        .filter(|spec| !tags.contains(&spec.tag))
    {
        w.push_section(spec.tag, current.section(spec.tag).unwrap().to_vec());
    }
    w.push_pods(tags[0], &vec![0u64; bounds]);
    w.push_pods(tags[1], &vec![0u32; offsets]);
    w
}

#[test]
fn legacy_bound_sections_are_ignored() {
    // Files written before HC2L, HL and PHL dropped their cut bounds carry
    // two more sections per backend: per-block minima of the label
    // distances (one per 16 entries) and their offset table. Readers
    // ignore both. Fill them with bounds that would mis-prune every query
    // (all zeros): every load path must still accept the file and answer
    // exactly like the built index, and a fresh save writes neither.
    let g = gnarly_graph();
    let n = g.num_vertices() as Vertex;
    let all_pairs = |query: &dyn Fn(Vertex, Vertex) -> Distance| -> Vec<Distance> {
        (0..n)
            .flat_map(|s| (0..n).map(move |t| query(s, t)))
            .collect()
    };

    let hc2l = Hc2lIndex::build(&g, Hc2lConfig::default());
    let labels = hc2l.labels();
    let hc2l_bounds: usize = (0..labels.num_vertices() as Vertex)
        .flat_map(|v| (0..labels.num_levels(v)).map(move |l| (v, l)))
        .map(|(v, l)| labels.level_array(v, l).len().div_ceil(16))
        .sum();
    let hl = hc2l_hl::HubLabelIndex::build(&g);
    let hl_bounds: usize = (0..n).map(|v| hl.label_len(v).div_ceil(16)).sum();
    let phl = hc2l_phl::PhlIndex::build(&g);
    let phl_bounds: usize = (0..n).map(|v| phl.label_len(v).div_ceil(16)).sum();
    let rows = n as usize + 1;
    let cases = [
        (
            Method::Hc2l,
            [10, 11],
            with_legacy_bounds(&hc2l, [10, 11], hc2l_bounds, labels.parts().1.len()),
        ),
        (
            Method::Hl,
            [5, 6],
            with_legacy_bounds(&hl, [5, 6], hl_bounds, rows),
        ),
        (
            Method::Phl,
            [3, 4],
            with_legacy_bounds(&phl, [3, 4], phl_bounds, rows),
        ),
    ];

    for (method, tags, legacy) in cases {
        let path = scratch(&format!("legacy-bounds-{}.hc2l", method.name()));
        legacy.write_to(&path).expect("save");
        let c = Container::open(&path).expect("open container");
        assert!(tags.iter().all(|&tag| c.has_section(tag)), "{method}");
        let (want, owned, view) = match method {
            Method::Hc2l => {
                let owned = Hc2lIndex::read_sections(&c).expect("legacy HC2L reads");
                let view = hc2l::FrozenHc2lRef::from_container(&c).expect("legacy HC2L view");
                (
                    all_pairs(&|s, t| hc2l.query(s, t)),
                    all_pairs(&|s, t| owned.query(s, t)),
                    all_pairs(&|s, t| view.query(s, t)),
                )
            }
            Method::Hl => {
                let owned = hc2l_hl::HubLabelIndex::read_sections(&c).expect("legacy HL reads");
                let view = hc2l_hl::FrozenHubLabelsRef::from_container(&c).expect("legacy HL view");
                (
                    all_pairs(&|s, t| hl.query(s, t)),
                    all_pairs(&|s, t| owned.query(s, t)),
                    all_pairs(&|s, t| view.query(s, t)),
                )
            }
            Method::Phl => {
                let owned = hc2l_phl::PhlIndex::read_sections(&c).expect("legacy PHL reads");
                let view =
                    hc2l_phl::FrozenPhlLabelsRef::from_container(&c).expect("legacy PHL view");
                (
                    all_pairs(&|s, t| phl.query(s, t)),
                    all_pairs(&|s, t| owned.query(s, t)),
                    all_pairs(&|s, t| view.query(s, t)),
                )
            }
            _ => unreachable!("no other backend wrote bound sections"),
        };
        let loaded = Oracle::load(&path).expect("legacy file loads");
        let shared = SharedOracle::open(&path).expect("legacy file opens shared");
        assert_eq!(owned, want, "{method} read_sections");
        assert_eq!(view, want, "{method} from_container");
        assert_eq!(
            all_pairs(&|s, t| loaded.distance(s, t)),
            want,
            "{method} Oracle::load"
        );
        assert_eq!(
            all_pairs(&|s, t| shared.distance(s, t)),
            want,
            "{method} SharedOracle::open"
        );
        std::fs::remove_file(&path).ok();

        let fresh = scratch(&format!("fresh-{}.hc2l", method.name()));
        OracleBuilder::new(method)
            .build(&g)
            .save(&fresh)
            .expect("save");
        let c = Container::open(&fresh).expect("open container");
        assert!(!tags.iter().any(|&tag| c.has_section(tag)), "{method}");
        std::fs::remove_file(&fresh).ok();
    }
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
        let saved = std::fs::read(&path).expect("read saved container");
        let resaved = container_bytes(&loaded, &format!("diag-{}-again.hc2l", method.name()));
        assert!(saved == resaved, "{method}: load -> save changed the bytes");
        assert_eq!(loaded.tree_height(), built.tree_height(), "{method}");
        assert_eq!(loaded.max_width(), built.max_width(), "{method}");
        assert!(loaded.index_bytes() > 0);
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn two_builds_save_byte_identical_containers() {
    let g = seeded_city(12);
    for method in Method::ALL {
        let first = OracleBuilder::new(method).build(&g);
        let second = OracleBuilder::new(method).build(&g);
        let name = method.name();
        assert!(
            container_bytes(&first, &format!("repro-{name}-1.hc2l"))
                == container_bytes(&second, &format!("repro-{name}-2.hc2l")),
            "{method}: two builds of one map differ"
        );
    }
}

#[test]
fn hc2l_bytes_do_not_depend_on_threads_or_grain() {
    // 24x24 has more vertices than the default grain, so the default-grain
    // parallel build really spawns too.
    let g = seeded_city(24);
    let reference = container_bytes(
        &OracleBuilder::new(Method::Hc2l).threads(1).build(&g),
        "sched-1.hc2l",
    );
    for (threads, grain) in [(4, Hc2lConfig::default().parallel_grain), (4, 32), (1, 32)] {
        let oracle = OracleBuilder::new(Method::Hc2l)
            .hc2l_config(Hc2lConfig {
                parallel_grain: grain,
                ..Default::default()
            })
            .threads(threads)
            .build(&g);
        let bytes = container_bytes(&oracle, &format!("sched-{threads}-{grain}.hc2l"));
        assert!(
            bytes == reference,
            "threads {threads}, grain {grain}: HC2L container differs"
        );
    }
}

/// Header checksum (bytes 24..32) and length of each method's container on
/// `seeded_city(8)` with default settings. A change that alters build output
/// fails here by name; one that means to must update this table and say why.
const GOLDEN: [(Method, u64, usize); 5] = [
    (Method::Hc2l, 0x86db22e9dd74cef0, 9536),
    (Method::H2h, 0x78dc5317a5fb8d16, 13600),
    (Method::Phl, 0x031f5f895b4f51d9, 13892),
    (Method::Hl, 0xbe283b1db5c7a707, 6592),
    (Method::Ch, 0xb0d6ee618edff9b3, 2752),
];

#[test]
fn golden_container_checksums() {
    let g = seeded_city(8);
    let mut actual = Vec::new();
    for (method, _, _) in GOLDEN {
        let bytes = container_bytes(
            &OracleBuilder::new(method).build(&g),
            &format!("golden-{}.hc2l", method.name()),
        );
        let checksum = u64::from_le_bytes(bytes[24..32].try_into().unwrap());
        actual.push((method, checksum, bytes.len()));
    }
    let table: Vec<String> = actual
        .iter()
        .map(|(m, sum, len)| format!("(Method::{m:?}, {sum:#018x}, {len})"))
        .collect();
    assert_eq!(actual, GOLDEN, "new table:\n{}", table.join(",\n"));
}

#[test]
fn legacy_fixtures_load_answer_and_resave_to_fresh_bytes() {
    // Written with `.threads(2)` by the v2 writer that still stored the
    // build time (and HC2L's thread counts) in META.
    let g = paper_figure1();
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    for method in Method::ALL {
        let name = format!("figure1-{}.hc2l", method.name().to_ascii_lowercase());
        let loaded = Oracle::load(&dir.join(&name)).expect("fixture loads");
        assert_eq!(loaded.method(), method);
        let fresh = OracleBuilder::new(method).threads(2).build(&g);
        for s in 0..16 {
            for t in 0..16 {
                assert_eq!(
                    loaded.distance(s, t),
                    fresh.distance(s, t),
                    "{name} ({s},{t})"
                );
            }
        }
        assert!(
            container_bytes(&loaded, &format!("fixture-{name}"))
                == container_bytes(&fresh, &format!("fresh-{name}")),
            "{name}: re-saved fixture differs from a fresh build"
        );
    }
}
