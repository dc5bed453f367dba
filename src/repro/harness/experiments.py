"""Experiment runners — one per table/figure of the paper's evaluation.

Each function returns ``(data, table)`` where ``data`` is a plain dict of
the numbers (used by tests and EXPERIMENTS.md) and ``table`` is a
:class:`repro.util.tables.Table` whose rows mirror the paper's.

Instrumented runs are cached per ``(dataset, backend, cores, fidelity)``
since everything is deterministic; Table V, Fig 6 and Fig 8 share the same
single-core runs, and Figs 7/9/10/11 share the multicore sweeps.

Every cell is also a hash-identified :class:`ExperimentConfig` — the
fully-resolved configuration dict plus the content-addressed ``run_key``
derived from it (:mod:`repro.obs.ledger`).  When a ledger is armed
(``repro experiment --ledger PATH``, or :func:`repro.obs.ledger.
scoped_ledger` in tests), each cell that actually runs appends one
``kind="experiment"`` record with its codelength/NMI telemetry and wall
time, so repeated sessions accumulate a queryable trajectory
(``repro trend``, docs/trend.md).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.baselines.louvain import louvain
from repro.core.infomap import InfomapResult, run_infomap
from repro.core.multicore import MulticoreResult
from repro.graph.datasets import DATASETS, TABLE1_ORDER, load_dataset
from repro.graph.lfr import LFRParams, lfr_graph
from repro.graph.metrics import cam_coverage, degree_histogram, powerlaw_alpha_mle
from repro.obs import ledger as obs_ledger
from repro.obs import metrics as obs_metrics
from repro.obs.logging import get_logger
from repro.obs.spans import trace_span
from repro.quality.nmi import normalized_mutual_information
from repro.sim.costmodel import CycleModel
from repro.sim.machine import (
    MachineConfig,
    asa_machine,
    baseline_machine,
    native_machine,
)
from repro.util.tables import Table, format_pct, format_seconds, format_si

log = get_logger("harness.experiments")

__all__ = [
    "ExperimentConfig",
    "run_cached",
    "table1_datasets",
    "table2_machines",
    "table3_validation",
    "fig2_kernel_breakdown",
    "fig4_degree_distribution",
    "fig5_cam_coverage",
    "table5_hash_time",
    "fig6_speedups",
    "fig7_multicore_breakdown",
    "fig8_arch_metrics",
    "fig9_percore_instructions",
    "fig10_percore_mispredictions",
    "fig11_percore_cpi",
    "overflow_share",
    "lfr_quality",
]

#: networks the paper's per-figure selections use
BIG_NETWORKS = ("youtube", "soc-pokec", "orkut")
SMALL_NETWORKS = ("amazon", "dblp")
FIG4_NETWORKS = ("livejournal", "soc-pokec", "youtube")

_RUN_CACHE: dict[tuple, object] = {}


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully-resolved, hash-identified experiment cell.

    ``config`` holds exactly the result-determining fields (dataset /
    generator recipe, backend, cores, fidelity, params — and the graph
    content digest when the ledger is armed); ``id`` is the first 12
    hex chars of the cell's :func:`repro.obs.ledger.run_key`, so two
    cells share an id iff they describe the same run.  ``label`` is the
    human handle used in reports and ledger rows.
    """

    label: str
    config: dict
    id: str = ""

    def __post_init__(self) -> None:
        if not self.id:
            object.__setattr__(
                self, "id", obs_ledger.run_key(self.config)[:12]
            )

    def ledger_record(
        self,
        source: str,
        telemetry: dict | None = None,
        perf: dict | None = None,
    ) -> dict:
        """One ``kind="experiment"`` ledger record for this cell."""
        return obs_ledger.make_record(
            kind="experiment", source=source, config=self.config,
            telemetry=telemetry, perf=perf, label=self.label,
        )


def run_cached(
    name: str,
    backend: str,
    cores: int = 1,
    fidelity: str = "fast",
) -> InfomapResult | MulticoreResult:
    """Deterministic memoized Infomap run on a surrogate dataset."""
    key = (name, backend, cores, fidelity)
    if key in _RUN_CACHE:
        if obs_metrics.is_enabled():
            obs_metrics.get_registry().counter("harness.cache_hits").inc()
        return _RUN_CACHE[key]  # type: ignore[return-value]
    log.debug("run_cached miss: %s", key)
    if obs_metrics.is_enabled():
        obs_metrics.get_registry().counter("harness.cache_misses").inc()
    with trace_span(
        "harness.run_cached",
        dataset=name, backend=backend, cores=cores, fidelity=fidelity,
    ):
        graph = load_dataset(name)
        machine = (asa_machine if backend == "asa" else baseline_machine)(fidelity)
        t0 = time.perf_counter()
        result: InfomapResult | MulticoreResult = run_infomap(
            graph, backend=backend, machine=machine,
            engine="sequential" if cores == 1 else "multicore",
            workers=cores,
        )
        wall = time.perf_counter() - t0
    _RUN_CACHE[key] = result
    if obs_ledger.is_enabled():
        cell = ExperimentConfig(
            label=f"{name}/{backend}/c{cores}/{fidelity}",
            config={
                "experiment": "run_cached",
                "dataset": name,
                "graph": obs_ledger.graph_digest(graph),
                "backend": backend,
                "cores": cores,
                "fidelity": fidelity,
            },
        )
        obs_ledger.get_ledger().append(cell.ledger_record(
            "harness.run_cached",
            telemetry={
                "codelength": float(result.codelength),
                "num_modules": int(result.num_modules),
            },
            perf={"wall_seconds": wall},
        ))
    return result


# ----------------------------------------------------------------------
# Table I — dataset inventory
# ----------------------------------------------------------------------
def table1_datasets() -> tuple[dict, Table]:
    """Surrogate networks vs the paper's SNAP networks."""
    t = Table(
        "Table I: Network dataset (surrogates; paper sizes for reference)",
        ["Network", "#Vertices", "#Edges", "paper #V", "paper #E", "alpha(MLE)"],
    )
    data: dict[str, dict] = {}
    for name in TABLE1_ORDER:
        g = load_dataset(name)
        spec = DATASETS[name]
        alpha = powerlaw_alpha_mle(g)
        data[name] = {
            "vertices": g.num_vertices,
            "edges": g.num_edges,
            "paper_vertices": spec.paper_vertices,
            "paper_edges": spec.paper_edges,
            "alpha": alpha,
        }
        t.add_row(
            [
                name,
                g.num_vertices,
                g.num_edges,
                format_si(spec.paper_vertices),
                format_si(spec.paper_edges),
                f"{alpha:.2f}",
            ]
        )
    return data, t


# ----------------------------------------------------------------------
# Table II — machine configurations
# ----------------------------------------------------------------------
def table2_machines() -> tuple[dict, Table]:
    nat = native_machine()
    base = baseline_machine()
    t = Table("Table II: Machine configurations", ["Item", "Native", "Baseline"])
    rows = [
        ("Processor", f"{nat.cores//2} cores/socket, {nat.freq_hz/1e9:.1f}GHz",
         f"{base.cores//2} cores/socket, {base.freq_hz/1e9:.1f}GHz"),
        ("L1 data cache", f"{nat.l1d.size_bytes//1024}KB", f"{base.l1d.size_bytes//1024}KB"),
        ("L2 (private)", f"{nat.l2.size_bytes//1024}KB", f"{base.l2.size_bytes//1024}KB"),
        ("L3 (shared)", f"{nat.l3.size_bytes//(1024*1024)}MB", f"{base.l3.size_bytes//(1024*1024)}MB"),
        ("Mispredict penalty", f"{nat.mispredict_penalty:.0f} cyc", f"{base.mispredict_penalty:.0f} cyc"),
    ]
    for r in rows:
        t.add_row(r)
    data = {"native_l3": nat.l3.size_bytes, "baseline_l3": base.l3.size_bytes}
    return data, t


# ----------------------------------------------------------------------
# Tables III/IV — native vs Baseline validation
# ----------------------------------------------------------------------
def table3_validation(
    name: str = "youtube", cores: int = 1, iterations: int = 7
) -> tuple[dict, Table]:
    """Per-iteration FindBestCommunity runtime: Native model vs Baseline sim.

    The paper validates ZSim against native hardware (~10–16 % error,
    Table III; 1–18 %, Table IV).  The analogous comparison here is our
    *fast* statistical model on the Native machine (20 MB L3) against the
    *detailed* event-driven simulation on the Baseline machine (16 MB L3):
    two models of the same computation whose disagreement measures modeling
    error.
    """
    graph = load_dataset(name)
    nat_iters, base_iters = [
        run_infomap(
            graph, backend="softhash", machine=machine,
            engine="sequential" if cores == 1 else "multicore",
            workers=cores,
        ).telemetry.passes
        for machine in (native_machine("fast"), baseline_machine("detailed"))
    ]

    label = "Table III" if cores == 1 else "Table IV"
    t = Table(
        f"{label}: Native vs Baseline per-iteration runtime "
        f"({name}, {cores} core{'s' if cores > 1 else ''})",
        ["Iteration", "Native (sim-s)", "Baseline (sim-s)", "% diff"],
    )
    data = {"iterations": []}
    count = min(iterations, len(nat_iters), len(base_iters))
    for i in range(count):
        a = nat_iters[i].seconds
        b = base_iters[i].seconds
        diff = abs(b - a) / a * 100 if a > 0 else 0.0
        data["iterations"].append({"native": a, "baseline": b, "pct_diff": diff})
        t.add_row([i + 1, f"{a:.6f}", f"{b:.6f}", f"{diff:.0f}"])
    diffs = [d["pct_diff"] for d in data["iterations"]]
    data["avg_pct_diff"] = float(np.mean(diffs)) if diffs else 0.0
    return data, t


# ----------------------------------------------------------------------
# Fig 2 — kernel breakdown and hash share
# ----------------------------------------------------------------------
def fig2_kernel_breakdown(
    names: Sequence[str] = ("soc-pokec", "orkut"),
) -> tuple[dict, Table]:
    """Single-core kernel time breakdown with the software-hash Baseline.

    Paper claims: FindBestCommunity is 70–90 % of the application (2a) and
    hash operations are 50–65 % of FindBestCommunity (2b).
    """
    t = Table(
        "Fig 2: Kernel breakdown (Baseline, single core)",
        ["Network", "PageRank", "FindBest", "Supernode", "Update",
         "FindBest/total", "Hash/FindBest"],
    )
    data: dict[str, dict] = {}
    for name in names:
        r = run_cached(name, "softhash")
        cm = r.cycle_model()
        secs = r.kernel_seconds()
        fb = secs["findbest_hash"] + secs["findbest_overflow"] + secs["findbest_other"]
        total = sum(secs.values())
        hash_s = secs["findbest_hash"] + secs["findbest_overflow"]
        data[name] = {
            "pagerank": secs["pagerank"],
            "findbest": fb,
            "supernode": secs["supernode"],
            "update": secs["update_members"],
            "findbest_share": fb / total,
            "hash_share_of_findbest": hash_s / fb,
        }
        t.add_row(
            [
                name,
                format_seconds(secs["pagerank"]),
                format_seconds(fb),
                format_seconds(secs["supernode"]),
                format_seconds(secs["update_members"]),
                format_pct(fb / total),
                format_pct(hash_s / fb),
            ]
        )
    return data, t


# ----------------------------------------------------------------------
# Fig 4 — degree distributions
# ----------------------------------------------------------------------
def fig4_degree_distribution(
    names: Sequence[str] = FIG4_NETWORKS, buckets: Sequence[int] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512),
) -> tuple[dict, Table]:
    """Power-law degree histograms (vertex counts per degree bucket)."""
    t = Table(
        "Fig 4: Degree distribution (vertices with degree in [b, 2b))",
        ["Network"] + [f"[{b},{2*b})" for b in buckets] + ["alpha"],
    )
    data: dict[str, dict] = {}
    for name in names:
        g = load_dataset(name)
        ks, counts = degree_histogram(g)
        row: list = [name]
        bucket_counts = []
        for b in buckets:
            c = int(counts[(ks >= b) & (ks < 2 * b)].sum())
            bucket_counts.append(c)
            row.append(c)
        alpha = powerlaw_alpha_mle(g)
        row.append(f"{alpha:.2f}")
        t.add_row(row)
        data[name] = {"buckets": dict(zip(buckets, bucket_counts)), "alpha": alpha}
    return data, t


# ----------------------------------------------------------------------
# Fig 5 — CAM coverage
# ----------------------------------------------------------------------
def fig5_cam_coverage(
    names: Sequence[str] = tuple(TABLE1_ORDER),
    cam_kb: Sequence[int] = (1, 2, 4, 8),
) -> tuple[dict, Table]:
    """Fraction of vertices whose neighbour list fits each CAM size.

    Paper claims: 1 KB covers >82 %, 8 KB covers >99 % of vertices.
    """
    t = Table(
        "Fig 5: Vertices whose neighbour list fits the CAM",
        ["Network"] + [f"{kb}KB" for kb in cam_kb],
    )
    data: dict[str, dict] = {}
    for name in names:
        g = load_dataset(name)
        row: list = [name]
        cov = {}
        for kb in cam_kb:
            c = cam_coverage(g, kb * 1024)
            cov[kb] = c
            row.append(format_pct(c, 2))
        t.add_row(row)
        data[name] = cov
    return data, t


# ----------------------------------------------------------------------
# Table V / Fig 6 — hash-operation time and speedup
# ----------------------------------------------------------------------
def table5_hash_time(
    names: Sequence[str] = ("amazon", "dblp", "youtube", "soc-pokec", "orkut"),
) -> tuple[dict, Table]:
    """Time spent on hash operations: Baseline vs ASA (single core)."""
    t = Table(
        "Table V: Time spent on hash operations (single core, simulated)",
        ["Network", "Baseline (s)", "ASA (s)", "Speedup"],
    )
    data: dict[str, dict] = {}
    for name in names:
        rb = run_cached(name, "softhash")
        ra = run_cached(name, "asa")
        b = rb.hash_seconds
        a = ra.hash_seconds
        data[name] = {"baseline_s": b, "asa_s": a, "speedup": b / a}
        t.add_row([name, f"{b:.5f}", f"{a:.5f}", f"{b/a:.2f}x"])
    return data, t


def fig6_speedups(
    names: Sequence[str] = ("amazon", "dblp", "youtube", "soc-pokec", "orkut"),
) -> tuple[dict, Table]:
    """ASA speedup over Baseline on hash operations (Fig 6 bars)."""
    data, _ = table5_hash_time(names)
    t = Table("Fig 6: ASA speedup on hash operations", ["Network", "Speedup"])
    out = {}
    for name in names:
        s = data[name]["speedup"]
        out[name] = s
        t.add_row([name, f"{s:.2f}x"])
    return out, t


# ----------------------------------------------------------------------
# Fig 7 — multicore kernel breakdown
# ----------------------------------------------------------------------
def fig7_multicore_breakdown(
    name: str = "amazon", cores: Sequence[int] = (1, 2, 4, 8, 16)
) -> tuple[dict, Table]:
    """FindBestCommunity timing breakdown across core counts.

    Paper claims 68–70 % (Amazon) / 75–77 % (DBLP) reduction in hash time
    from Baseline to ASA at every core count.
    """
    t = Table(
        f"Fig 7: FindBestCommunity breakdown vs cores ({name})",
        ["Cores", "Base hash (s)", "Base other (s)", "ASA hash (s)",
         "ASA other (s)", "Hash reduction"],
    )
    data: dict[int, dict] = {}
    for p in cores:
        rb = run_cached(name, "softhash", cores=p)
        ra = run_cached(name, "asa", cores=p)
        if p == 1:
            bh, ah = rb.hash_seconds, ra.hash_seconds
            cmb, cma = rb.cycle_model(), ra.cycle_model()
            bo = cmb.cycles(rb.stats.findbest_other).seconds
            ao = cma.cycles(ra.stats.findbest_other).seconds
        else:
            bh = rb.hash_seconds_parallel
            ah = ra.hash_seconds_parallel
            cmb, cma = rb.cycle_model(), ra.cycle_model()
            bo = max(
                cmb.cycles(ks.findbest_other).seconds for ks in rb.per_core_stats
            )
            ao = max(
                cma.cycles(ks.findbest_other).seconds for ks in ra.per_core_stats
            )
        red = 1.0 - ah / bh
        data[p] = {
            "baseline_hash": bh, "baseline_other": bo,
            "asa_hash": ah, "asa_other": ao, "hash_reduction": red,
        }
        t.add_row(
            [p, f"{bh:.5f}", f"{bo:.5f}", f"{ah:.5f}", f"{ao:.5f}", format_pct(red)]
        )
    return data, t


# ----------------------------------------------------------------------
# Fig 8 — architectural metrics, single core, big networks
# ----------------------------------------------------------------------
def fig8_arch_metrics(
    names: Sequence[str] = BIG_NETWORKS,
) -> tuple[dict, Table]:
    """Total instructions, mispredicted branches and CPI: Baseline vs ASA.

    Paper claims (FindBestCommunity kernel, large networks): up to 24 %
    fewer instructions, up to 59 % fewer mispredicted branches, 18–21 %
    lower CPI.
    """
    t = Table(
        "Fig 8: Architectural metrics (FindBestCommunity, single core)",
        ["Network", "Instr base", "Instr ASA", "dInstr",
         "Miss base", "Miss ASA", "dMiss", "CPI base", "CPI ASA", "dCPI"],
    )
    data: dict[str, dict] = {}
    for name in names:
        rb = run_cached(name, "softhash")
        ra = run_cached(name, "asa")
        cb = rb.stats.findbest
        ca = ra.stats.findbest
        cpib = rb.breakdown(cb).cpi
        cpia = ra.breakdown(ca).cpi
        d = {
            "instr_base": cb.instructions,
            "instr_asa": ca.instructions,
            "instr_reduction": 1 - ca.instructions / cb.instructions,
            "miss_base": cb.branch_mispredict,
            "miss_asa": ca.branch_mispredict,
            "miss_reduction": 1 - ca.branch_mispredict / cb.branch_mispredict,
            "cpi_base": cpib,
            "cpi_asa": cpia,
            "cpi_reduction": 1 - cpia / cpib,
        }
        data[name] = d
        t.add_row(
            [
                name,
                format_si(cb.instructions),
                format_si(ca.instructions),
                format_pct(d["instr_reduction"]),
                format_si(cb.branch_mispredict),
                format_si(ca.branch_mispredict),
                format_pct(d["miss_reduction"]),
                f"{cpib:.3f}",
                f"{cpia:.3f}",
                format_pct(d["cpi_reduction"]),
            ]
        )
    return data, t


# ----------------------------------------------------------------------
# Figs 9/10/11 — per-core metrics across core counts
# ----------------------------------------------------------------------
def _percore_metric(
    name: str, cores: Sequence[int], metric: str, title: str
) -> tuple[dict, Table]:
    t = Table(
        title, ["Cores", "Baseline (avg/core)", "ASA (avg/core)", "Reduction"]
    )
    data: dict[int, dict] = {}
    for p in cores:
        rb = run_cached(name, "softhash", cores=p)
        ra = run_cached(name, "asa", cores=p)
        if p == 1:
            cmb, cma = rb.cycle_model(), ra.cycle_model()
            cb, ca = rb.stats.findbest, ra.stats.findbest
            if metric == "instructions":
                vb, va = cb.instructions, ca.instructions
            elif metric == "branch_mispredict":
                vb, va = cb.branch_mispredict, ca.branch_mispredict
            else:
                vb, va = cmb.cycles(cb).cpi, cma.cycles(ca).cpi
        else:
            vb = rb.avg_per_core(metric)
            va = ra.avg_per_core(metric)
        red = 1 - va / vb if vb else 0.0
        data[p] = {"baseline": vb, "asa": va, "reduction": red}
        fmt = (lambda x: f"{x:.3f}") if metric == "cpi" else format_si
        t.add_row([p, fmt(vb), fmt(va), format_pct(red)])
    return data, t


def fig9_percore_instructions(
    name: str = "amazon", cores: Sequence[int] = (1, 2, 4, 8, 16)
) -> tuple[dict, Table]:
    """Avg instructions/core (paper: −12 % Amazon, −15 % DBLP)."""
    return _percore_metric(
        name, cores, "instructions",
        f"Fig 9: Average instructions per core vs cores ({name})",
    )


def fig10_percore_mispredictions(
    name: str = "amazon", cores: Sequence[int] = (1, 2, 4, 8, 16)
) -> tuple[dict, Table]:
    """Avg branch mispredictions/core (paper: −40 % Amazon, −46 % DBLP)."""
    return _percore_metric(
        name, cores, "branch_mispredict",
        f"Fig 10: Average branch mispredictions per core vs cores ({name})",
    )


def fig11_percore_cpi(
    name: str = "amazon", cores: Sequence[int] = (1, 2, 4, 8, 16)
) -> tuple[dict, Table]:
    """Avg CPI/core (paper: −20 % Amazon, −21 % DBLP)."""
    return _percore_metric(
        name, cores, "cpi", f"Fig 11: Average CPI per core vs cores ({name})"
    )


# ----------------------------------------------------------------------
# §IV-C — overflow-handling share of ASA time
# ----------------------------------------------------------------------
def overflow_share(
    names: Sequence[str] = ("soc-pokec", "orkut"),
) -> tuple[dict, Table]:
    """Overflow handling as a fraction of ASA hash time.

    Paper: 9.86 % for soc-Pokec and 13.31 % for Orkut.
    """
    t = Table(
        "Overflow handling share of ASA hash-operation time",
        ["Network", "ASA hash (s)", "Overflow (s)", "Share", "Overflowed vertices"],
    )
    data: dict[str, dict] = {}
    for name in names:
        r = run_cached(name, "asa")
        h = r.hash_seconds
        o = r.overflow_seconds
        data[name] = {
            "asa_hash_s": h,
            "overflow_s": o,
            "share": o / h if h else 0.0,
            "overflowed_vertices": r.overflowed_vertices,
        }
        t.add_row(
            [name, f"{h:.5f}", f"{o:.5f}", format_pct(o / h if h else 0.0),
             r.overflowed_vertices]
        )
    return data, t


# ----------------------------------------------------------------------
# §I / §II — LFR quality: Infomap vs Louvain
# ----------------------------------------------------------------------
def lfr_quality(
    mus: Sequence[float] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6),
    n: int = 1000,
    seed: int = 7,
) -> tuple[dict, Table]:
    """NMI against planted communities across the LFR mixing sweep.

    Regenerates the claim the paper's introduction rests on: Infomap
    delivers better LFR quality than modularity-based detection,
    especially at higher mixing.
    """
    t = Table(
        f"LFR benchmark quality (n={n}): NMI vs mixing parameter",
        ["mu", "Infomap NMI", "Louvain NMI", "Infomap #mod", "Louvain #mod", "true #mod"],
    )
    data: dict[float, dict] = {}
    for mu in mus:
        g, truth = lfr_graph(LFRParams(n=n, mu=mu, seed=seed))
        t0 = time.perf_counter()
        ri = run_infomap(g, engine="vectorized")
        wall = time.perf_counter() - t0
        rl = louvain(g, seed=seed)
        nmi_i = normalized_mutual_information(ri.modules, truth)
        nmi_l = normalized_mutual_information(rl.modules, truth)
        k_true = len(np.unique(truth))
        data[mu] = {
            "infomap_nmi": nmi_i,
            "louvain_nmi": nmi_l,
            "infomap_modules": ri.num_modules,
            "louvain_modules": rl.num_modules,
            "true_modules": k_true,
        }
        if obs_ledger.is_enabled():
            cell = ExperimentConfig(
                label=f"lfr/n{n}/mu{mu:.1f}/s{seed}",
                config={
                    "experiment": "lfr_quality",
                    "generator": "lfr",
                    "n": n, "mu": mu, "seed": seed,
                    "graph": obs_ledger.graph_digest(g),
                    "engine": "vectorized",
                },
            )
            obs_ledger.get_ledger().append(cell.ledger_record(
                "harness.lfr_quality",
                telemetry={
                    "codelength": float(ri.codelength),
                    "num_modules": int(ri.num_modules),
                    "nmi": float(nmi_i),
                    "louvain_nmi": float(nmi_l),
                    "true_modules": k_true,
                },
                perf={"wall_seconds": wall},
            ))
        t.add_row(
            [f"{mu:.1f}", f"{nmi_i:.3f}", f"{nmi_l:.3f}",
             ri.num_modules, rl.num_modules, k_true]
        )
    return data, t
