//! Adversarial soundness for the deadlock-freedom prover:
//!
//! * every registry topology is proven cycle-free and route-complete, and
//!   the proof's JSON is byte-stable;
//! * the `.topo` fixtures under `configs/topologies/` match their
//!   generators exactly (so CI smokes what the tests cover);
//! * **accepted ⇒ live**: any built fabric the prover accepts survives
//!   all-to-all saturation without tripping the stall watchdog;
//! * **rejected ⇒ dead**: a seeded cycle injection is flagged `TCA-R002`
//!   by the static prover *and* demonstrably wedges the simulated fabric
//!   (watchdog fires, payload never commits).

use proptest::prelude::*;
use tca::core::presets::{build_topology, topology_registry};
use tca::peach2::{RouteRule, TopoSpec};
use tca::prelude::*;
use tca::verify::{extract_topo, lint_cluster, lint_topo};

/// The text of `configs/topologies/<name>`.
fn topo_file(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("configs/topologies");
    std::fs::read_to_string(path.join(name)).expect(name)
}

fn codes(rep: &tca::verify::Report) -> Vec<&'static str> {
    rep.diagnostics.iter().map(|d| d.code).collect()
}

#[test]
fn every_registry_topology_proves_clean() {
    for entry in topology_registry() {
        let spec = (entry.build)();
        let rep = lint_topo(&spec);
        assert!(rep.is_clean(), "{}:\n{}", entry.name, rep.render());
    }
}

#[test]
fn registry_specs_round_trip_through_text() {
    for entry in topology_registry() {
        let spec = (entry.build)();
        let back = TopoSpec::parse(&spec.to_text()).expect(entry.name);
        assert_eq!(back, spec, "{} text round-trip", entry.name);
    }
}

#[test]
fn prover_json_is_byte_stable() {
    // Two independent constructions of the same topology must serialize
    // to identical bytes — clean and cycle-injected alike.
    let clean = || lint_topo(&TopoSpec::torus3d(2, 2, 2)).to_json().to_string();
    assert_eq!(clean(), clean());

    let broken = || {
        let mut spec = TopoSpec::ring(4);
        for c in &mut spec.cables {
            c.dateline = false;
        }
        lint_topo(&spec).to_json().to_string()
    };
    let json = broken();
    assert_eq!(json, broken());
    assert!(json.contains("TCA-R002"), "{json}");
    assert!(json.contains("TCA-C003"), "{json}");
}

#[test]
fn injected_s_loop_renders_its_full_channel_chain() {
    // On the S-coupled dual ring, bounce one destination's traffic across
    // the same S coupling from both sides: n1 -> n5 -> n1 forever. The
    // rendered cycle must show the whole channel path, classes included
    // (the S cable is a dateline, so the steady-state lap sits at the
    // saturated class).
    let mut spec = TopoSpec::dual_ring(8);
    spec.set_route(1, 6, 2); // n1 sends n6-bound traffic up S
    spec.set_route(5, 6, 2); // ...and n5 bounces it straight back
    let rep = lint_topo(&spec);
    let r2 = rep
        .diagnostics
        .iter()
        .find(|d| d.code == "TCA-R002")
        .unwrap_or_else(|| panic!("no TCA-R002:\n{}", rep.render()));
    assert!(
        r2.message.contains("n5:S@6 -> n1:S@6 -> n5:S@6"),
        "cycle chain not fully rendered: {}",
        r2.message
    );
    assert!(codes(&rep).contains(&"TCA-R001"), "{}", rep.render());
}

#[test]
fn fixtures_match_their_generators() {
    // The clean torus fixture is exactly what the generator emits (plus
    // its comment header, which the parser strips).
    let spec = TopoSpec::parse(&topo_file("torus2d-3x3.topo")).expect("clean fixture parses");
    assert_eq!(spec, build_topology("torus2d-3x3").unwrap());
    assert!(lint_topo(&spec).is_clean());

    // The cycle-injected fixture is ring-4 minus its dateline: same
    // cables and routes, guaranteed R002 + C003.
    let spec = TopoSpec::parse(&topo_file("cycle-injected.topo")).expect("broken fixture parses");
    let mut reference = TopoSpec::ring(4);
    for c in &mut reference.cables {
        c.dateline = false;
    }
    reference.name = spec.name.clone();
    assert_eq!(spec, reference);
    let rep = lint_topo(&spec);
    let cs = codes(&rep);
    assert!(cs.contains(&"TCA-R002"), "{}", rep.render());
    assert!(cs.contains(&"TCA-C003"), "{}", rep.render());
    assert!(
        !cs.contains(&"TCA-R001"),
        "walks converge: {}",
        rep.render()
    );
}

/// Seeds a routing cycle for node-0-bound traffic on dual-ring-8 by
/// overwriting route row 0 (first match wins) on every other chip:
///
/// ```text
/// 1 -E-> 2 -S-> 6 -E-> 7 -S-> 3 -W-> 2 -S-> ...   (cycle: 2,6,7,3)
/// ```
///
/// The cycle never visits node 0 (the chip delivers its own slice before
/// consulting the route rules, so a loop *through* the destination cannot
/// exist) and every hop leaves on a different port than it entered (a
/// two-node ping-pong would trip the chip's own `out != in_port` assert
/// instead of deadlocking). Nodes 4 and 5 feed east into the cycle.
fn inject_dst0_cycle(c: &mut TcaCluster) {
    let map = c.sub.map;
    let slice = map.slice_size();
    let dst0 = map.node_slice(0).base();
    // me -> out port for node-0 traffic (PORT_E=1, PORT_W=2, PORT_S=3).
    let out = [0u8, 1, 3, 2, 1, 1, 1, 3];
    for (me, &chip) in c.sub.chips.iter().enumerate().skip(1) {
        let regs = c.fabric.device_mut::<tca::peach2::Peach2>(chip).regs_mut();
        regs.routes[0] = RouteRule {
            mask: !(slice - 1),
            lower: dst0,
            upper: dst0,
            port: Some(tca::pcie::PortIdx(out[me])),
        };
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6, // whole-cluster cases are heavyweight
        .. ProptestConfig::default()
    })]

    /// Accepted ⇒ live: a fabric whose extracted topology the prover
    /// accepts never wedges the watchdog under all-to-all saturation.
    #[test]
    fn accepted_topology_survives_all_to_all_saturation(
        big in any::<bool>(),
        dual in any::<bool>(),
        seed in any::<u8>(),
    ) {
        let nodes = if big { 8u32 } else { 4 };
        let builder = TcaClusterBuilder::new(nodes);
        let mut c = if dual {
            builder.topology(Topology::DualRing).build()
        } else {
            builder.build()
        };
        let rep = lint_topo(&extract_topo(&c.fabric, &c.sub));
        prop_assert_eq!(rep.error_count(), 0, "prover rejected a shipped preset:\n{}", rep.render());

        c.arm_watchdog(Dur::from_us(200));
        let data: Vec<u8> = (0..64u32).map(|i| (i as u8) ^ seed).collect();
        // Every pair in flight at once, then drain.
        for s in 0..nodes {
            for d in 0..nodes {
                if s == d {
                    continue;
                }
                c.pio_put_nowait(
                    s,
                    &MemRef::host(d, 0x5000_0000 + u64::from(s) * 0x100),
                    &data,
                );
            }
        }
        c.synchronize();
        prop_assert!(
            c.fabric.stall_report().is_none(),
            "watchdog fired on an accepted topology: {:?}",
            c.fabric.stall_report()
        );
        for s in 0..nodes {
            for d in 0..nodes {
                if s == d {
                    continue;
                }
                prop_assert_eq!(
                    c.read(&MemRef::host(d, 0x5000_0000 + u64::from(s) * 0x100), 64),
                    data.clone(),
                    "{} -> {} lost under saturation", s, d
                );
            }
        }
    }

    /// Rejected ⇒ dead: the seeded routing cycle is flagged TCA-R002 (and
    /// TCA-R001) by the static prover, and the same fabric demonstrably
    /// deadlocks — the watchdog fires and the payload never commits.
    #[test]
    fn injected_cycle_is_flagged_and_wedges_the_fabric(
        src in 1u32..8,
        seed in any::<u8>(),
    ) {
        let mut c = TcaClusterBuilder::new(8)
            .topology(Topology::DualRing)
            .build();
        inject_dst0_cycle(&mut c);

        // Static side: both the special case and the general cycle fire,
        // through the spec prover and the whole-fabric lint alike.
        let rep = lint_topo(&extract_topo(&c.fabric, &c.sub));
        let cs: Vec<_> = rep.diagnostics.iter().map(|d| d.code).collect();
        prop_assert!(cs.contains(&"TCA-R001"), "{}", rep.render());
        prop_assert!(cs.contains(&"TCA-R002"), "{}", rep.render());
        let cluster_rep = lint_cluster(&c.fabric, &c.sub);
        let ccs: Vec<_> = cluster_rep.diagnostics.iter().map(|d| d.code).collect();
        prop_assert!(ccs.contains(&"TCA-R002"), "{}", cluster_rep.render());

        // Dynamic side: the packet circulates forever, nothing commits.
        let data: Vec<u8> = (0..64u32).map(|i| ((i as u8) ^ seed) | 1).collect();
        c.arm_watchdog(Dur::from_us(50));
        c.pio_put_nowait(src, &MemRef::host(0, 0x5000_0000), &data);
        let deadline = c.now() + Dur::from_us(500);
        c.fabric.run_until(deadline);
        prop_assert!(
            c.fabric.stall_report().is_some(),
            "watchdog did not fire on a rejected topology"
        );
        prop_assert!(
            c.read(&MemRef::host(0, 0x5000_0000), 64) != data,
            "payload committed on a looping route"
        );
    }
}

/// What `tca-bench --topo <fixture> --json` prints is the fixture's
/// pinned report, byte for byte, and the prover passes the clean torus
/// and fails the two broken fixtures; `--cdg-dot` on the cycle-injected
/// fixture prints its pinned Graphviz export. The label is the path as
/// given, relative to the repository root.
#[test]
fn fixture_reports_match_their_goldens() {
    use tca_bench::verify::{topo_mode, TopoOutput};
    for (fixture, clean) in [
        ("torus2d-3x3", true),
        ("cycle-injected", false),
        ("looping", false),
    ] {
        let path = format!("configs/topologies/{fixture}.topo");
        let (json, passed) = topo_mode(&path, TopoOutput::Json).expect("fixture readable");
        assert_eq!(passed, clean, "{fixture}: {json}");
        assert_eq!(json, topo_file(&format!("{fixture}.golden.json")));
    }
    let cyclic = "configs/topologies/cycle-injected.topo";
    let (dot, _) = topo_mode(cyclic, TopoOutput::CdgDot).expect("fixture readable");
    assert_eq!(dot, topo_file("cycle-injected.golden.dot"));
    // `--emit-topo` only reformats: a spec the proof rejects still dumps.
    let spec = TopoSpec::parse(&topo_file("cycle-injected.topo")).expect("parses");
    assert_eq!(
        topo_mode(cyclic, TopoOutput::Topo),
        Ok((spec.to_text(), true))
    );
}

/// The `.topo` texts the front-end fuzz mutates: the three fixtures and
/// the emitted text of small generator shapes, all at most 16 nodes.
fn fuzz_corpus() -> Vec<String> {
    let shape = |s: &str| build_topology(s).expect(s).to_text();
    ["torus2d-3x3.topo", "cycle-injected.topo", "looping.topo"]
        .map(topo_file)
        .into_iter()
        .chain(["ring-2", "ring-5", "dual-ring-4", "dual-ring-8"].map(shape))
        .chain(["multi-ring-s-2x4", "torus2d-4x4", "torus3d-2x2x2"].map(shape))
        .collect()
}

/// Tokens a substitution may write: keywords, attributes, node ids and
/// counts (none above 16, except the rejected cap + 1), port names and
/// malformed endpoints.
const FUZZ_TOKENS: &[&str] = &[
    "topology", "ports", "nodes", "cable", "route", "dateline", "escape", "#", "0", "1", "2", "3",
    "16", "17", "4097", "-1", "x", "n0", "n1", "n3", "n15", "n16", "n99", "E", "W", "S", "X+",
    "Y-", "Q", "n0:E", "n1:W", "n2:S", "n0:Q", "n9:E", ":", "n0:", "",
];

/// Applies one edit per word of `edits` to `text`. Its low two bits pick
/// the kind, bits 2–33 a number `a` and bits 34–63 a number `b`: drop
/// line `a`, copy it before line `b`, swap lines `a` and `b`, or replace
/// word `b` of line `a` with fuzz token `a / 64` (each index taken modulo
/// what it indexes).
fn mutate(text: &str, edits: &[u64]) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    for &e in edits {
        let (kind, a, b) = (e % 4, (e >> 2) as u32 as usize, (e >> 34) as usize);
        let (n, i) = (lines.len(), a % lines.len().max(1));
        match kind {
            _ if n == 0 => break,
            0 => drop(lines.remove(i)),
            1 => lines.insert(b % (n + 1), lines[i].clone()),
            2 => lines.swap(i, b % n),
            _ => {
                let mut words: Vec<&str> = lines[i].split_whitespace().collect();
                if !words.is_empty() {
                    let w = b % words.len();
                    words[w] = FUZZ_TOKENS[(a / 64) % FUZZ_TOKENS.len()];
                    lines[i] = words.join(" ");
                }
            }
        }
    }
    lines.join("\n")
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 512,
        .. ProptestConfig::default()
    })]

    /// The `.topo` front end on mangled input: `TopoSpec::parse` never
    /// panics, every spec it accepts round-trips through `to_text()`, and
    /// every accepted spec of at most 16 nodes lints without a panic (the
    /// prover reports each unreachable pair, so larger specs are skipped).
    #[test]
    fn topo_front_end_survives_mutated_files(
        source in 0usize..10,
        edits in proptest::collection::vec(any::<u64>(), 1..6),
    ) {
        let corpus = fuzz_corpus();
        let text = mutate(&corpus[source % corpus.len()], &edits);
        let parsed = std::panic::catch_unwind(|| TopoSpec::parse(&text));
        prop_assert!(parsed.is_ok(), "parse panicked on:\n{}", text);
        if let Ok(Ok(spec)) = parsed {
            let back = TopoSpec::parse(&spec.to_text());
            prop_assert_eq!(back.as_ref(), Ok(&spec), "round trip of:\n{}", text);
            prop_assume!(spec.nodes <= 16);
            let linted = std::panic::catch_unwind(|| lint_topo(&spec));
            prop_assert!(linted.is_ok(), "lint panicked on:\n{}", text);
        }
    }
}
