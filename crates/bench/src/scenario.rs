//! Scenario registry and parallel sweep runner behind the `tca-bench`
//! binary — the one place the evaluation's sweeps are enumerated.
//!
//! Every figure, ablation, and application kernel is a [`Scenario`]: a
//! named list of independent sweep points, each of which builds its *own*
//! fresh simulation and returns one JSON row. Because points share no
//! state, [`run_sweep`] can farm them out to `--jobs N` worker threads
//! without perturbing any measurement; results are slotted back in point
//! order, so the rendered table and the `tca-bench-sweep/v1` JSON are
//! byte-identical at any job count.
//!
//! Application scenarios are backend-aware: the same workload runs over
//! the TCA cluster (`--backend tca`) or the MPI/InfiniBand baseline
//! (`--backend mpi`, `--backend mpi-gpudirect`) through the
//! [`tca_core::CommWorld`] trait, which is how the paper's §I comparison
//! is reproduced end to end rather than per-primitive.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use tca_apps::{Stencil2dConfig, StencilConfig};
use tca_core::prelude::*;
use tca_device::HostBridge;
use tca_pcie::{Instrument, LinkParams};
use tca_sim::JsonValue;

use crate::prof::{timed, PointCost};
use crate::{fmt_size, jf, row};

/// Which communication backend a sweep runs over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendKind {
    /// The TCA sub-cluster: PEACH2 ring, PIO + chained DMA.
    Tca,
    /// MPI over InfiniBand with GPU data staged through host memory.
    MpiStaged,
    /// MPI over InfiniBand with GPUDirect RDMA for GPU endpoints.
    MpiGpuDirect,
}

impl BackendKind {
    /// Every backend, in the canonical listing order.
    pub const ALL: [BackendKind; 3] = [
        BackendKind::Tca,
        BackendKind::MpiStaged,
        BackendKind::MpiGpuDirect,
    ];

    /// The CLI / JSON name of the backend.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Tca => "tca",
            BackendKind::MpiStaged => "mpi",
            BackendKind::MpiGpuDirect => "mpi-gpudirect",
        }
    }

    /// Parses a `--backend` argument.
    pub fn parse(s: &str) -> Option<BackendKind> {
        BackendKind::ALL.into_iter().find(|b| b.name() == s)
    }
}

/// The TCA-only backend list (hardware-level sweeps that measure the
/// PEACH2 fabric itself, where an MPI run would be meaningless).
const TCA_ONLY: &[BackendKind] = &[BackendKind::Tca];
/// All three backends (application kernels ported to `CommWorld`).
const ALL_BACKENDS: &[BackendKind] = &[
    BackendKind::Tca,
    BackendKind::MpiStaged,
    BackendKind::MpiGpuDirect,
];

/// One independent sweep point: a label plus a closure that builds its own
/// simulation and returns the point's JSON row (an object).
pub struct Point {
    /// Human-readable point label (also the `label` field of the row).
    pub label: String,
    run: Box<dyn Fn() -> JsonValue + Send + Sync>,
}

impl Point {
    /// Wraps a measurement closure as a sweep point.
    pub fn new(
        label: impl Into<String>,
        run: impl Fn() -> JsonValue + Send + Sync + 'static,
    ) -> Point {
        Point {
            label: label.into(),
            run: Box::new(run),
        }
    }
}

/// A named sweep: what `tca-bench --scenario <name>` runs.
#[derive(Clone, Copy)]
pub struct Scenario {
    /// CLI name.
    pub name: &'static str,
    /// One-line description for `--list`.
    pub description: &'static str,
    /// Which paper figure/section the sweep reproduces.
    pub figure: &'static str,
    /// Backends the scenario can run on.
    pub backends: &'static [BackendKind],
    points: fn(BackendKind) -> Vec<Point>,
}

impl Scenario {
    /// Whether the scenario supports `backend`.
    pub fn supports(&self, backend: BackendKind) -> bool {
        self.backends.contains(&backend)
    }

    /// Materializes the scenario's sweep points for `backend`.
    pub fn points(&self, backend: BackendKind) -> Vec<Point> {
        assert!(
            self.supports(backend),
            "scenario '{}' does not support backend '{}'",
            self.name,
            backend.name()
        );
        (self.points)(backend)
    }
}

/// Looks a scenario up by CLI name.
pub fn find(name: &str) -> Option<Scenario> {
    scenarios().into_iter().find(|s| s.name == name)
}

/// Machine-readable registry listing (`tca-bench --list --json`): one row
/// per scenario with its description, figure anchor, point count, and
/// supported backends — the same facts the human-readable `--list` table
/// prints. Schema `tca-bench-list/v1`, stable key order.
pub fn list_json() -> String {
    let mut rows = Vec::new();
    for s in scenarios() {
        let mut o = JsonValue::object();
        o.push("name", JsonValue::from(s.name));
        o.push("figure", JsonValue::from(s.figure));
        o.push("description", JsonValue::from(s.description));
        o.push(
            "points",
            JsonValue::from(s.points(s.backends[0]).len() as u64),
        );
        o.push(
            "backends",
            JsonValue::Array(
                s.backends
                    .iter()
                    .map(|b| JsonValue::from(b.name()))
                    .collect(),
            ),
        );
        rows.push(o);
    }
    let mut root = JsonValue::object();
    root.push("schema", JsonValue::from("tca-bench-list/v1"));
    root.push("scenarios", JsonValue::Array(rows));
    root.to_json()
}

/// The result of one sweep: rows in point order, ready to render or dump.
pub struct Sweep {
    /// Scenario name.
    pub scenario: &'static str,
    /// Backend the sweep ran on.
    pub backend: BackendKind,
    /// `(label, row-object)` per point, in the scenario's point order.
    pub rows: Vec<(String, JsonValue)>,
    /// Host cost of each point, in the same order as `rows` — what
    /// `--profile` reports. Varies run to run; never part of the rows.
    /// Empty when the row came from a `tca-bench` health-flag run.
    pub costs: Vec<PointCost>,
}

/// Runs every point of `sc` on `backend` across `jobs` worker threads.
///
/// Each point builds its own fabric, so workers cannot interact; a shared
/// atomic cursor hands out point indices and each result lands in its
/// point's slot, making the output independent of the job count and of
/// thread scheduling. Every point runs under [`timed`], which fills
/// [`Sweep::costs`].
pub fn run_sweep(sc: &Scenario, backend: BackendKind, jobs: usize) -> Sweep {
    let points = sc.points(backend);
    let slots: Vec<Mutex<Option<(JsonValue, PointCost)>>> =
        points.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let workers = jobs.max(1).min(points.len().max(1));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= points.len() {
                    break;
                }
                let done = timed(|| (points[i].run)());
                *slots[i].lock().expect("slot lock poisoned") = Some(done);
            });
        }
    });
    let (rows, costs) = points
        .iter()
        .zip(slots)
        .map(|(p, slot)| {
            let (row, cost) = slot
                .into_inner()
                .expect("slot lock poisoned")
                .expect("worker filled the slot");
            ((p.label.clone(), row), cost)
        })
        .unzip();
    Sweep {
        scenario: sc.name,
        backend,
        rows,
        costs,
    }
}

/// Runs the TCA point `label` of scenario `name` and returns its row — the
/// same row the sweep prints for that point.
///
/// # Panics
/// Panics if no such scenario or point exists.
pub fn point_row(name: &str, label: &str) -> JsonValue {
    let sc = find(name).unwrap_or_else(|| panic!("no scenario '{name}'"));
    let point = sc
        .points(BackendKind::Tca)
        .into_iter()
        .find(|p| p.label == label)
        .unwrap_or_else(|| panic!("scenario '{name}' has no point '{label}'"));
    (point.run)()
}

impl Sweep {
    /// Schema-stable JSON (`tca-bench-sweep/v1`): fixed key order and
    /// deterministic number formatting, byte-identical at any `--jobs`.
    pub fn to_json(&self) -> String {
        // Registry points all build their fabrics from the default
        // Table I/II parameter bundle, so every point record carries that
        // bundle's config hash — the key a memo of identical points would
        // dedup them by.
        let config_fnv = tca_core::params::default_fingerprint_hex();
        let mut root = JsonValue::object();
        root.push("schema", JsonValue::from("tca-bench-sweep/v1"));
        root.push("scenario", JsonValue::from(self.scenario));
        root.push("backend", JsonValue::from(self.backend.name()));
        let points = self
            .rows
            .iter()
            .map(|(label, row)| {
                let mut o = JsonValue::object();
                o.push("label", JsonValue::from(label.clone()));
                o.push("config_fnv", JsonValue::from(config_fnv.clone()));
                for (k, v) in row.as_object().expect("rows are objects") {
                    o.push(k.clone(), v.clone());
                }
                o
            })
            .collect();
        root.push("points", JsonValue::Array(points));
        root.to_json()
    }

    /// Renders the sweep as an aligned text table (column order = field
    /// order of the first row). Object-valued fields, such as a
    /// `telemetry` summary, are left to the JSON.
    pub fn render(&self) -> String {
        let mut cols: Vec<String> = vec!["label".into()];
        for (_, row) in &self.rows {
            for (k, v) in row.as_object().expect("rows are objects") {
                if !matches!(v, JsonValue::Object(_)) && !cols.iter().any(|c| c == k) {
                    cols.push(k.clone());
                }
            }
        }
        let cell = |label: &str, row: &JsonValue, col: &str| -> String {
            if col == "label" {
                return label.to_string();
            }
            match row.get(col) {
                Some(JsonValue::Str(s)) => s.clone(),
                Some(v) => v.to_json(),
                None => "-".into(),
            }
        };
        let widths: Vec<usize> = cols
            .iter()
            .map(|c| {
                self.rows
                    .iter()
                    .map(|(l, r)| cell(l, r, c).len())
                    .chain([c.len()])
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let mut out = format!("{} [{}]\n", self.scenario, self.backend.name());
        for (c, w) in cols.iter().zip(&widths) {
            out.push_str(&format!("{c:>w$} ", w = w));
        }
        out.push('\n');
        for (label, row) in &self.rows {
            for (c, w) in cols.iter().zip(&widths) {
                out.push_str(&format!("{:>w$} ", cell(label, row, c), w = w));
            }
            out.push('\n');
        }
        out
    }
}

// ---------------------------------------------------------------------------
// The registry.
// ---------------------------------------------------------------------------

/// Every scenario `tca-bench` knows, in listing order.
pub fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "fig7",
            description: "size vs bandwidth, PEACH2 <-> local CPU/GPU, 255-chained DMA",
            figure: "Fig. 7",
            backends: TCA_ONLY,
            points: |_| {
                crate::default_sizes()
                    .into_iter()
                    .map(|size| Point::new(fmt_size(size), move || crate::local_dma_row(size, 255)))
                    .collect()
            },
        },
        Scenario {
            name: "fig8",
            description: "size vs bandwidth for a single (unchained) DMA request",
            figure: "Fig. 8",
            backends: TCA_ONLY,
            points: |_| {
                crate::default_sizes()
                    .into_iter()
                    .map(|size| Point::new(fmt_size(size), move || crate::local_dma_row(size, 1)))
                    .collect()
            },
        },
        Scenario {
            name: "fig9",
            description: "chained request count vs bandwidth at fixed 4 KiB",
            figure: "Fig. 9",
            backends: TCA_ONLY,
            points: |_| {
                crate::default_counts()
                    .into_iter()
                    .map(|count| {
                        Point::new(format!("{count} reqs"), move || crate::fig9_row(count))
                    })
                    .collect()
            },
        },
        Scenario {
            name: "fig12",
            description: "size vs bandwidth to the adjacent node over the PEARL cable",
            figure: "Fig. 12",
            backends: TCA_ONLY,
            points: |_| {
                crate::default_sizes()
                    .into_iter()
                    .map(|size| Point::new(fmt_size(size), move || crate::fig12_row(size)))
                    .collect()
            },
        },
        Scenario {
            name: "latency",
            description: "PIO loopback latency vs InfiniBand FDR/QDR one-way",
            figure: "Fig. 10 / §IV-B1",
            backends: TCA_ONLY,
            points: |_| vec![Point::new("one-way", crate::latency_row)],
        },
        Scenario {
            name: "pingpong",
            description: "the §IV-B1 PIO and chained-DMA ping-pong half round trips",
            figure: "§IV-B1",
            backends: TCA_ONLY,
            points: |_| vec![Point::new("half-rtt", crate::pingpong_row)],
        },
        Scenario {
            name: "ring-hops",
            description: "PIO and DMA latency vs ring hop count (8-node ring)",
            figure: "§III-E",
            backends: TCA_ONLY,
            points: |_| {
                (1..=4u32)
                    .map(|hops| {
                        Point::new(format!("{hops} hop"), move || crate::ring_hop_row(hops))
                    })
                    .collect()
            },
        },
        Scenario {
            name: "scaling",
            description: "ring-size scaling: diameter latency vs neighbour-shift bandwidth",
            figure: "§II-B",
            backends: TCA_ONLY,
            points: |_| {
                [2u32, 4, 8, 16]
                    .into_iter()
                    .map(|n| Point::new(format!("{n} nodes"), move || crate::scaling_row(n)))
                    .collect()
            },
        },
        Scenario {
            name: "contention",
            description: "two pipelined puts sharing one ring cable",
            figure: "§III-E",
            backends: TCA_ONLY,
            points: |_| vec![Point::new("1 MiB flows", crate::contention_row)],
        },
        Scenario {
            name: "comparison",
            description: "GPU-to-GPU transfer time: TCA DMA/PIO vs MPI staged vs GPUDirect",
            figure: "§I / §V",
            backends: TCA_ONLY,
            points: |_| {
                (3..=21)
                    .step_by(2)
                    .map(|p| 1u64 << p)
                    .map(|size| Point::new(fmt_size(size), move || crate::comparison_row(size)))
                    .collect()
            },
        },
        Scenario {
            name: "ablation-dmac",
            description: "two-phase legacy DMAC vs pipelined DMAC, node-to-node put",
            figure: "§IV-B2",
            backends: TCA_ONLY,
            points: |_| {
                (10..=20)
                    .map(|p| 1u64 << p)
                    .map(|size| Point::new(fmt_size(size), move || crate::dmac_row(size)))
                    .collect()
            },
        },
        Scenario {
            name: "ablation-qpi",
            description: "P2P write bandwidth same-socket vs across QPI",
            figure: "§IV-A2",
            backends: TCA_ONLY,
            points: |_| vec![Point::new("256 KiB stores", crate::qpi_row)],
        },
        Scenario {
            name: "ablation-pearl",
            description: "cable bit-error rate vs remote DMA bandwidth (link replays)",
            figure: "§III-A",
            backends: TCA_ONLY,
            points: |_| {
                [0u32, 1_000, 10_000, 50_000, 100_000]
                    .into_iter()
                    .map(|ppm| Point::new(format!("{ppm} ppm"), move || crate::pearl_row(ppm)))
                    .collect()
            },
        },
        Scenario {
            name: "put-latency",
            description: "single put latency per size, host-to-host and GPU-to-GPU",
            figure: "Fig. 7 regime",
            backends: ALL_BACKENDS,
            points: |kind| {
                [8u64, 256, 4096, 65536]
                    .into_iter()
                    .map(move |size| {
                        Point::new(fmt_size(size), move || {
                            on_backend!(kind, 2, |c| {
                                c.fabric.observe(
                                    Instrument::default().spans().sample(Dur::from_ns(500)),
                                );
                                c.write(&MemRef::host(0, 0x4000_0000), &vec![3u8; size as usize]);
                                let host_us = c
                                    .put(
                                        &MemRef::host(1, 0x4400_0000),
                                        &MemRef::host(0, 0x4000_0000),
                                        size,
                                    )
                                    .as_us_f64();
                                let a = c.alloc_gpu(0, 0, size);
                                let b = c.alloc_gpu(1, 0, size);
                                c.write(&a.at(0), &vec![4u8; size as usize]);
                                let gpu_us = c.put(&b.at(0), &a.at(0), size).as_us_f64();
                                let mut o = row(vec![
                                    ("size", JsonValue::from(size)),
                                    ("host_us", jf(host_us)),
                                    ("gpu_us", jf(gpu_us)),
                                ]);
                                o.push("telemetry", crate::telemetry_summary(&mut c.fabric));
                                o
                            })
                        })
                    })
                    .collect()
            },
        },
        Scenario {
            name: "cg",
            description: "distributed CG on the 1-D Laplacian (halos + allreduces)",
            figure: "§II workloads",
            backends: ALL_BACKENDS,
            points: |kind| {
                [2u32, 4, 8]
                    .into_iter()
                    .map(move |nodes| {
                        Point::new(format!("{nodes} nodes"), move || {
                            let rep = on_backend!(kind, nodes, |c| {
                                tca_apps::cg_solve(&mut c, 64, 1e-10, 1000)
                            });
                            assert!(rep.max_error < 1e-6, "CG diverged: {rep:?}");
                            row(vec![
                                ("nodes", JsonValue::from(nodes)),
                                ("iterations", JsonValue::from(rep.iterations as u64)),
                                ("residual", jf(rep.residual)),
                                ("max_error", jf(rep.max_error)),
                                ("comm_us", jf(rep.comm_time.as_us_f64())),
                                ("elapsed_us", jf(rep.elapsed.as_us_f64())),
                            ])
                        })
                    })
                    .collect()
            },
        },
        Scenario {
            name: "stencil",
            description: "row-decomposed Jacobi with GPU-resident slabs and halo puts",
            figure: "§III-D workloads",
            backends: ALL_BACKENDS,
            points: |kind| {
                [2u32, 4, 8]
                    .into_iter()
                    .map(move |nodes| {
                        Point::new(format!("{nodes} nodes"), move || {
                            let cfg = StencilConfig {
                                cols: 64,
                                rows_per_rank: 16,
                                iters: 4,
                            };
                            let rep = on_backend!(kind, nodes, |c| {
                                tca_apps::stencil_run(&mut c, cfg)
                            });
                            assert_eq!(rep.max_error, 0.0, "stencil drifted: {rep:?}");
                            row(vec![
                                ("nodes", JsonValue::from(nodes)),
                                ("halo_bytes", JsonValue::from(rep.halo_bytes)),
                                ("comm_us", jf(rep.comm_time.as_us_f64())),
                                ("elapsed_us", jf(rep.elapsed.as_us_f64())),
                            ])
                        })
                    })
                    .collect()
            },
        },
        Scenario {
            name: "stencil2d",
            description: "2-D Jacobi: node-to-node rows + intra-node strided GPU columns",
            figure: "§III-C/H workloads",
            backends: ALL_BACKENDS,
            points: |kind| {
                [2u32, 4]
                    .into_iter()
                    .map(move |nodes| {
                        Point::new(format!("{nodes} nodes"), move || {
                            let rep = on_backend!(kind, nodes, |c| {
                                tca_apps::stencil2d_run(&mut c, Stencil2dConfig::default())
                            });
                            assert_eq!(rep.max_error, 0.0, "stencil2d drifted: {rep:?}");
                            row(vec![
                                ("nodes", JsonValue::from(nodes)),
                                ("vertical_us", jf(rep.vertical_comm.as_us_f64())),
                                ("horizontal_us", jf(rep.horizontal_comm.as_us_f64())),
                            ])
                        })
                    })
                    .collect()
            },
        },
        Scenario {
            name: "nbody",
            description: "direct N-body with ring allgather each step",
            figure: "§II workloads",
            backends: ALL_BACKENDS,
            points: |kind| {
                [2u32, 4]
                    .into_iter()
                    .map(move |nodes| {
                        Point::new(format!("{nodes} nodes"), move || {
                            let rep = on_backend!(kind, nodes, |c| {
                                tca_apps::nbody_run(&mut c, 16, 4, 1e-3)
                            });
                            assert_eq!(rep.max_error, 0.0, "n-body drifted: {rep:?}");
                            row(vec![
                                ("nodes", JsonValue::from(nodes)),
                                ("comm_us", jf(rep.comm_time.as_us_f64())),
                                ("elapsed_us", jf(rep.elapsed.as_us_f64())),
                            ])
                        })
                    })
                    .collect()
            },
        },
        Scenario {
            name: "topo-registry",
            description: "static CDG + route metrics over every registry topology, \
                          plus the events of driving strided traffic over it",
            figure: "§III-D scaling",
            backends: TCA_ONLY,
            points: |_| {
                tca_core::presets::topology_registry()
                    .into_iter()
                    .map(|entry| {
                        Point::new(entry.name, move || {
                            let spec = (entry.build)();
                            let an = tca_verify::analyze(&spec);
                            let m = tca_verify::topo_metrics(&spec, &an);
                            let rep = tca_verify::lint_analyzed(&spec, &an);
                            // Dynamic counterpart of the static metrics:
                            // a cheap strided run (8 destinations per
                            // node) through the real event engine, so
                            // the sweep reports what each topology costs
                            // to *simulate*, not just its graph shape
                            // (`--profile` times it).
                            let traffic = crate::topo_fabric::strided(&spec, 8);
                            row(vec![
                                ("nodes", JsonValue::from(u64::from(m.nodes))),
                                ("cables", JsonValue::from(m.cables as u64)),
                                ("channels", JsonValue::from(m.channels as u64)),
                                ("cdg_edges", JsonValue::from(m.cdg_edges as u64)),
                                ("cdg_cycles", JsonValue::from(m.cycles as u64)),
                                ("diameter_hops", JsonValue::from(m.diameter_hops as u64)),
                                (
                                    "avg_hops",
                                    jf(m.hop_sum as f64 / m.delivered_pairs.max(1) as f64),
                                ),
                                ("errors", JsonValue::from(rep.error_count() as u64)),
                                ("warnings", JsonValue::from(rep.warning_count() as u64)),
                                ("traffic_msgs", JsonValue::from(traffic.messages)),
                                ("traffic_events", JsonValue::from(traffic.events)),
                            ])
                        })
                    })
                    .collect()
            },
        },
        Scenario {
            name: "verify",
            description: "static lint, hazard check of a payload+flag put, chain lint \
                          and runtime pass over every shipped cluster preset",
            figure: "§III-E",
            backends: TCA_ONLY,
            points: |_| {
                crate::verify::PRESETS
                    .into_iter()
                    .map(|(name, build)| {
                        Point::new(name, move || {
                            crate::verify::report_row(&crate::verify::preset_report(build))
                        })
                    })
                    .collect()
            },
        },
        Scenario {
            name: "tables",
            description: "the base-cluster and test-environment specification tables",
            figure: "Tables I / II",
            backends: TCA_ONLY,
            points: |_| {
                [("T1", presets::table_i()), ("T2", presets::table_ii())]
                    .into_iter()
                    .flat_map(|(id, t)| {
                        let table = t.title.split(':').next().unwrap_or(t.title);
                        t.rows.into_iter().map(move |r| {
                            Point::new(format!("{id} {}", r.item), move || {
                                row(vec![
                                    ("table", JsonValue::from(table)),
                                    ("item", JsonValue::from(r.item)),
                                    ("value", JsonValue::from(r.value)),
                                ])
                            })
                        })
                    })
                    .collect()
            },
        },
        Scenario {
            name: "peaks",
            description: "theoretical peak payload rate per link, 256 B TLPs (E0)",
            figure: "§IV-A1",
            backends: TCA_ONLY,
            points: |_| {
                [
                    ("PCIe Gen2 x8 (PEACH2 ports)", LinkParams::gen2_x8()),
                    ("PCIe Gen2 x16 (GPU slots)", LinkParams::gen2_x16()),
                    ("PCIe Gen3 x8 (IB HCA slot)", LinkParams::gen3_x8()),
                ]
                .into_iter()
                .map(|(label, p)| {
                    Point::new(label, move || {
                        row(vec![
                            ("raw_bps", JsonValue::from(p.raw_bytes_per_sec())),
                            ("peak_bps", jf(p.theoretical_peak_bytes_per_sec())),
                        ])
                    })
                })
                .collect()
            },
        },
        Scenario {
            name: "hierarchy",
            description: "two-tier network: TCA within the sub-cluster vs IB+MPI across (A7)",
            figure: "§II-B",
            backends: TCA_ONLY,
            points: |_| {
                [6u32, 10, 14, 18, 20]
                    .into_iter()
                    .map(|p| 1u64 << p)
                    .map(|size| {
                        Point::new(fmt_size(size), move || {
                            // 16 nodes in two 8-node rings: rank 3 shares
                            // rank 0's ring, rank 11 sits across IB.
                            let mut sys = HierarchicalCluster::build(2, 8);
                            let host = sys.mpi.nodes[0].host;
                            sys.fabric
                                .device_mut::<HostBridge>(host)
                                .core_mut()
                                .mem()
                                .fill_pattern(0x4000_0000, size, 1);
                            let (_, intra) = sys.send(0, 3, 0x4000_0000, 0x5000_0000, size);
                            let (_, inter) = sys.send(0, 11, 0x4000_0000, 0x5200_0000, size);
                            row(vec![
                                ("size", JsonValue::from(size)),
                                ("intra_ns", jf(intra.as_ns_f64())),
                                ("inter_ns", jf(inter.as_ns_f64())),
                                ("ratio", jf(inter.as_ns_f64() / intra.as_ns_f64())),
                            ])
                        })
                    })
                    .collect()
            },
        },
        Scenario {
            name: "latency-attrib",
            description: "per-stage span attribution of a PIO store and a 4 KiB DMA put, 1-8 hops",
            figure: "§IV-B",
            backends: TCA_ONLY,
            points: |_| {
                ["pio", "dma"]
                    .into_iter()
                    .enumerate()
                    .flat_map(|(k, kind)| {
                        (1..=8u32).map(move |hops| {
                            Point::new(format!("{kind} {hops} hop"), move || {
                                let rows = crate::latency_attribution(hops);
                                rows.into_iter().nth(k).expect("pio and dma rows")
                            })
                        })
                    })
                    .collect()
            },
        },
        Scenario {
            name: "params",
            description: "every registered fabric parameter, the ids --set accepts",
            figure: "Table II",
            backends: TCA_ONLY,
            points: |_| {
                FabricParams::param_descs()
                    .into_iter()
                    .map(|d| {
                        Point::new(d.id.clone(), move || {
                            let default = FabricParams::default()
                                .get_param(&d.id)
                                .expect("registered id resolves");
                            row(vec![
                                ("unit", JsonValue::from(d.unit.suffix())),
                                ("default", JsonValue::from(default)),
                                ("doc", JsonValue::from(d.doc)),
                            ])
                        })
                    })
                    .collect()
            },
        },
        Scenario {
            name: "health",
            description: "fabric health of an 8-node ring neighbour shift (what --top reports)",
            figure: "§III-A / §III-E",
            backends: ALL_BACKENDS,
            points: |kind| vec![Point::new("8 nodes", move || crate::health_summary(kind))],
        },
        Scenario {
            name: "engine",
            description: "the simulator's own workload: ring shift, ring sizes, \
                          queue race, 256-node all-to-all (time it with --profile)",
            figure: "simulator",
            backends: TCA_ONLY,
            points: |_| {
                vec![
                    Point::new("ring-8 shift", || {
                        crate::engine_shift_row(8, 2, 24, 64 * 1024)
                    }),
                    Point::new("rings 2-16", || {
                        crate::engine_rings_row(&[2, 4, 8, 16], 16, 64 * 1024)
                    }),
                    Point::new("queue race", || crate::race_row(200_000)),
                    Point::new("torus2d-16x16", || crate::torus_row("torus2d-16x16")),
                ]
            },
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_plentiful() {
        let all = scenarios();
        assert!(
            all.len() >= 6,
            "need at least 6 scenarios, got {}",
            all.len()
        );
        let mut names: Vec<_> = all.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate scenario names");
        for s in &all {
            assert!(!s.backends.is_empty(), "{} has no backends", s.name);
            assert!(find(s.name).is_some());
        }
        assert!(find("no-such-scenario").is_none());
    }

    #[test]
    fn backend_parse_round_trips() {
        for b in BackendKind::ALL {
            assert_eq!(BackendKind::parse(b.name()), Some(b));
        }
        assert_eq!(BackendKind::parse("verbs"), None);
    }

    #[test]
    fn backend_aware_scenarios_run_on_mpi() {
        let sc = find("put-latency").expect("registered");
        let tca = run_sweep(&sc, BackendKind::Tca, 2);
        let mpi = run_sweep(&sc, BackendKind::MpiStaged, 2);
        // Small puts: the TCA fabric must win, per the paper's Fig. 7/10.
        let first = |s: &Sweep, key: &str| {
            s.rows[0]
                .1
                .get(key)
                .and_then(|v| v.as_f64())
                .expect("field")
        };
        assert!(first(&tca, "host_us") < first(&mpi, "host_us"));
        assert!(first(&tca, "gpu_us") < first(&mpi, "gpu_us"));
    }

    #[test]
    fn telemetry_summary_adds_field_without_changing_measurements() {
        let s = sweep("pingpong");
        let r = &s.rows[0].1;
        // Time-neutrality: an unobserved rig driven through the same four
        // legs measures every field of the observed sweep point.
        let mut plain = TcaClusterBuilder::new(2).build();
        let pio_fwd = crate::pio_leg(&mut plain, 0, 1, 0x6100);
        let pio_back = crate::pio_leg(&mut plain, 1, 0, 0x6200);
        let dma_fwd = crate::dma_leg(&mut plain, 0, 1, 0x4100_0000);
        let dma_back = crate::dma_leg(&mut plain, 1, 0, 0x4200_0000);
        let half_rtt =
            |fwd: Dur, turnaround: Dur, back: Dur| jf(((fwd + turnaround + back) / 2).as_us_f64());
        let pio_us = half_rtt(pio_fwd, crate::PIO_PINGPONG_SW_TURNAROUND, pio_back);
        let dma_us = half_rtt(dma_fwd, crate::DMA_PINGPONG_SW_TURNAROUND, dma_back);
        assert_eq!(r.get("pio_us"), Some(&pio_us));
        assert_eq!(r.get("dma_us"), Some(&dma_us));
        assert_eq!(r.get("pio_leg_ns"), Some(&jf(pio_fwd.as_ns_f64())));
        assert_eq!(r.get("dma_leg_ns"), Some(&jf(dma_fwd.as_ns_f64())));
        // The summary rides in the JSON only; the table leaves it out.
        let (json, table) = (s.to_json(), s.render());
        assert!(json.contains("\"telemetry\":{"), "{json}");
        assert!(!table.contains("telemetry"), "{table}");
        assert!(table.contains("pio_leg_ns"), "{table}");
        let t = r.get("telemetry").expect("summary embedded");
        let num = |k: &str| t.get(k).and_then(|v| v.as_f64()).expect(k);
        assert!(num("captures") > 0.0, "sampler ran: {t:?}");
        assert!(num("span_count") > 0.0, "root spans recorded: {t:?}");
        assert!(num("span_p50_ns") > 0.0, "{t:?}");
        assert_eq!(t.get("watchdog_fired"), Some(&JsonValue::from(false)));
    }

    #[test]
    fn put_latency_embeds_telemetry_on_all_backends() {
        let sc = find("put-latency").expect("registered");
        for backend in BackendKind::ALL {
            let sweep = run_sweep(&sc, backend, 2);
            for (label, row) in &sweep.rows {
                let t = row
                    .get("telemetry")
                    .unwrap_or_else(|| panic!("{label} on {} lacks telemetry", backend.name()));
                assert!(t.get("peak_link_queue_depth").is_some(), "{label}: {t:?}");
            }
        }
    }

    /// The `f64` field `key` of every row of `sweep`.
    fn column(sweep: &Sweep, key: &str) -> Vec<f64> {
        sweep
            .rows
            .iter()
            .map(|(label, r)| {
                r.get(key)
                    .and_then(|v| v.as_f64())
                    .unwrap_or_else(|| panic!("{label} lacks {key}"))
            })
            .collect()
    }

    fn sweep(name: &str) -> Sweep {
        run_sweep(&find(name).expect("registered"), BackendKind::Tca, 2)
    }

    #[test]
    fn hierarchy_reproduces_the_two_tier_crossover() {
        let s = sweep("hierarchy");
        let (intra, inter, ratio) = (
            column(&s, "intra_ns"),
            column(&s, "inter_ns"),
            column(&s, "ratio"),
        );
        assert_eq!(s.rows[0].0, "64B");
        assert_eq!((intra[0], inter[0]), (1390.0, 1809.546));
        // TCA wins short messages; IB's dual rail catches up at 1 MB.
        assert!(ratio[0] > 1.0, "{ratio:?}");
        assert_eq!(s.rows.last().map(|r| r.0.as_str()), Some("1MB"));
        assert!(ratio[ratio.len() - 1] < 1.0, "{ratio:?}");
    }

    #[test]
    fn latency_attrib_stages_partition_each_total() {
        let s = sweep("latency-attrib");
        assert_eq!(s.rows.len(), 16, "pio and dma at 1..=8 hops");
        assert_eq!(s.rows[0].0, "pio 1 hop");
        assert_eq!(column(&s, "total_ns")[0], 781.0);
        for (label, r) in &s.rows {
            let mut stages = 0.0;
            for (k, v) in r.as_object().expect("rows are objects") {
                if k.ends_with("_ns") && k != "total_ns" {
                    stages += v.as_f64().expect("stage ns");
                }
            }
            assert_eq!(
                r.get("total_ns").and_then(|v| v.as_f64()),
                Some(stages),
                "{label}"
            );
        }
    }

    #[test]
    fn peaks_carry_the_gen2_x8_payload_rate() {
        let s = sweep("peaks");
        assert_eq!(s.rows[0].0, "PCIe Gen2 x8 (PEACH2 ports)");
        assert_eq!(format!("{:.3}", column(&s, "peak_bps")[0] / 1e9), "3.657");
    }

    #[test]
    fn tables_and_params_have_one_point_per_entry() {
        let rows = presets::table_i().rows.len() + presets::table_ii().rows.len();
        assert_eq!(sweep("tables").rows.len(), rows);
        let params = sweep("params");
        let descs = FabricParams::param_descs();
        assert_eq!(params.rows.len(), descs.len());
        for ((label, _), d) in params.rows.iter().zip(&descs) {
            assert_eq!(label, &d.id);
        }
    }

    #[test]
    #[should_panic(expected = "does not support backend")]
    fn tca_only_scenarios_reject_mpi() {
        let sc = find("fig9").expect("registered");
        sc.points(BackendKind::MpiStaged);
    }
}
