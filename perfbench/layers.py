"""Per-layer metrics derived from a traced run.

The layers are the package's modules.  Counters are read from the
arguments and returned objects of the wrapped calls (`SolveInfo`,
`WalkOutcome`, `MCEstimate`, ...); times come from the spans.  Each metric
names the end-to-end metric it should move and the workloads it should
move it on, written down before any change is measured.
"""

from __future__ import annotations

import os
from collections import defaultdict

from tracer import Tracer, median_and_tail

LAYERS = ("rng", "env_model", "lattice", "exact_solver", "monte_carlo", "kalikow",
          "ballisticity", "runtime", "reporting", "cli")

# Names, units and directions are in BENCHMARK.json.  Here each metric names the
# end-to-end metric it should move and the workloads where it should move it.
MOVES = {
    "exact_solver.solve.calls.dense": ("env_per_s", "halfspace-d2"),
    "exact_solver.solve.calls.neumann": ("env_per_s", "halfspace-d2"),
    "exact_solver.solve.calls.krylov": ("env_per_s", "halfspace-d2; no change on slab-d3"),
    "exact_solver.solve.s.dense": ("env_per_s", "halfspace-d2"),
    "exact_solver.solve.s.neumann": ("env_per_s", "halfspace-d2"),
    "exact_solver.solve.s.krylov": ("env_per_s", "halfspace-d2; no change on slab-d3"),
    "exact_solver.solve.p50_ms": ("env_per_s", "halfspace-d2"),
    "exact_solver.solve.tail_ms": ("batch_tail_s", "halfspace-d2"),
    "exact_solver.polish_frac": ("env_per_s", "halfspace-d2, slab-d3"),
    "exact_solver.certified_frac": ("ok_rate", "all"),
    "exact_solver.worst_sup_residual": ("ok_rate", "all"),
    "exact_solver.systems_per_env": ("env_per_s", "slab-d3"),
    "exact_solver.csr.s": ("env_per_s", "slab-d3"),
    "exact_solver.region_pattern.builds": ("env_per_s", "cli-kalikow"),
    "exact_solver.region_pattern.s": ("env_per_s", "cli-kalikow"),
    "exact_solver.csr_bytes": ("env_per_s", "slab-d3"),
    "exact_solver.self_s": ("env_per_s", "halfspace-d2, slab-d3"),
    "env_model.sample_environment.calls": ("env_per_s", "annealed-walks"),
    "env_model.weights_block.self_s": ("env_per_s", "slab-d3"),
    "env_model.weights_block.sites": ("env_per_s", "slab-d3"),
    "env_model.weights.calls": ("env_per_s", "annealed-walks"),
    "env_model.weights.self_s": ("env_per_s", "annealed-walks"),
    "env_model.self_s": ("env_per_s", "slab-d3, annealed-walks"),
    "rng.site_hash.s": ("env_per_s", "slab-d3"),
    "rng.site_hash.sites": ("env_per_s", "slab-d3, annealed-walks"),
    "rng.stream_generator.calls": ("env_per_s", "annealed-walks"),
    "rng.stream_generator.s": ("env_per_s", "annealed-walks"),
    "rng.self_s": ("env_per_s", "slab-d3, annealed-walks"),
    "lattice.self_s": ("env_per_s", "annealed-walks, cli-kalikow"),
    "lattice.contains.calls": ("env_per_s", "annealed-walks"),
    "monte_carlo.walks": ("env_per_s", "annealed-walks; zero elsewhere"),
    "monte_carlo.steps": ("env_per_s", "annealed-walks; zero elsewhere"),
    "monte_carlo.steps_per_s": ("env_per_s", "annealed-walks"),
    "monte_carlo.self_s": ("peak_rss_mb", "annealed-walks"),
    "kalikow.self_s": ("env_per_s", "halfspace-d2, cli-kalikow"),
    "kalikow.env_regions": ("peak_rss_mb", "halfspace-d2, cli-kalikow"),
    "ballisticity.self_s": ("batch_p50_s", "slab-d3, annealed-walks"),
    "runtime.map.items": ("env_per_s", "all; no change at 1 worker"),
    "runtime.workers": ("env_per_s", "all; no change at 1 worker"),
    "cli.self_s": ("batch_p50_s", "cli-kalikow"),
    "reporting.write_s": ("batch_p50_s", "cli-kalikow"),
    "reporting.bytes": ("batch_p50_s", "cli-kalikow"),
    "trace.units": ("env_per_s", "all (base of the ratios above)"),
    "trace_overhead": ("nothing; a check on the tracer", "all"),
}

_WRITERS = ("reporting.write_csv", "reporting.write_plotdata", "reporting.write_json")


class Counters:
    """Counters filled by observers on the wrapped calls."""

    def __init__(self):
        self.c = defaultdict(float)
        self.solve_ns: list[int] = []
        self.worst_sup = 0.0

    def observers(self) -> dict:
        c = self.c

        def solve(args, kwargs, result, ns):
            info = result[1]
            tol = args[2] if len(args) > 2 else kwargs["tol"]
            c[f"solve.calls.{info.method}"] += 1
            c[f"solve.ns.{info.method}"] += ns
            c["solve.calls"] += 1
            c["solve.certified"] += info.sup_residual <= tol
            # iterations counts Neumann polish steps only; BiCGSTAB's own are not reported
            c["solve.polished"] += info.method == "krylov" and info.iterations > 0
            self.solve_ns.append(ns)
            self.worst_sup = max(self.worst_sup, info.sup_residual)

        def csr(args, kwargs, m, ns):
            c["csr_bytes"] += m.data.nbytes + m.indices.nbytes + m.indptr.nbytes

        def count(key, fn):
            def observe(args, kwargs, result, ns):
                c[key] += fn(args, kwargs, result)
            return observe

        def write(args, kwargs, result, ns):
            c["write_bytes"] += os.path.getsize(args[0])

        return {
            "exact_solver.solve_fixed_point": solve,
            "exact_solver.RegionPattern.matrix": csr,
            "exact_solver.RegionPattern.matrix_t": csr,
            "env_model.EnvironmentRealization.weights_block":
                count("weights_block.sites", lambda a, k, r: len(a[1])),
            "rng.site_hash": count("site_hash.sites", lambda a, k, r: r.size),
            "monte_carlo.run_quenched_walk": count("steps", lambda a, k, r: r.steps),
            "monte_carlo.annealed_event_probability": count("walks", lambda a, k, r: r.n),
            "monte_carlo.estimate_velocity": count("walks", lambda a, k, r: r.n),
            "kalikow.kalikow_environment": count("env_regions", lambda a, k, r: r.n),
            "kalikow.theorem3_experiment":
                count("env_regions", lambda a, k, r: r.n_env * len(r.rows)),
            "runtime.deterministic_map": count("map_items", lambda a, k, r: len(a[1])),
            **{name: write for name in _WRITERS},
        }


def layer_metrics(tracer: Tracer, counters: Counters, units: int, workers: int,
                  traced_s: float, plain_s: float) -> dict:
    """All per-layer metrics, as {name: value}, from one traced run."""
    totals = tracer.totals()  # name -> [calls, total ns, self ns]
    c = counters.c

    def calls(*names):
        return sum(totals.get(n, (0, 0, 0))[0] for n in names)

    def secs(*names):
        return sum(totals.get(n, (0, 0, 0))[1] for n in names) / 1e9

    def self_s(prefix):
        return sum(v[2] for n, v in totals.items() if n.startswith(prefix)) / 1e9

    def own_self_s(name):
        return totals.get(name, (0, 0, 0))[2] / 1e9

    def ratio(a, b):
        return a / b if b else 0.0

    lattice_contains = [n for n in totals if n.startswith("lattice.") and n.endswith(".contains")]
    solves = median_and_tail(counters.solve_ns)
    walk_s = secs("monte_carlo.run_quenched_walk")
    out = {}
    for method in ("dense", "neumann", "krylov"):
        out[f"exact_solver.solve.calls.{method}"] = c[f"solve.calls.{method}"]
        out[f"exact_solver.solve.s.{method}"] = c[f"solve.ns.{method}"] / 1e9
    out.update({
        "exact_solver.solve.p50_ms": solves["p50"] / 1e6,
        "exact_solver.solve.tail_ms": solves["tail"] / 1e6,
        "exact_solver.polish_frac": ratio(c["solve.polished"], c["solve.calls.krylov"]),
        "exact_solver.certified_frac": ratio(c["solve.certified"], c["solve.calls"]),
        "exact_solver.worst_sup_residual": counters.worst_sup,
        "exact_solver.systems_per_env": ratio(calls("exact_solver.build_system"), units),
        "exact_solver.csr.s": secs("exact_solver.RegionPattern.matrix",
                                   "exact_solver.RegionPattern.matrix_t"),
        "exact_solver.region_pattern.builds": calls("exact_solver.RegionPattern.__init__"),
        "exact_solver.region_pattern.s": secs("exact_solver.RegionPattern.__init__"),
        "exact_solver.csr_bytes": c["csr_bytes"],
        "exact_solver.self_s": self_s("exact_solver."),
        "env_model.sample_environment.calls": calls("env_model.sample_environment"),
        "env_model.weights_block.self_s": own_self_s("env_model.EnvironmentRealization.weights_block"),
        "env_model.weights_block.sites": c["weights_block.sites"],
        "env_model.weights.calls": calls("env_model.EnvironmentRealization.weights"),
        "env_model.weights.self_s": own_self_s("env_model.EnvironmentRealization.weights"),
        "env_model.self_s": self_s("env_model."),
        "rng.site_hash.s": secs("rng.site_hash"),
        "rng.site_hash.sites": c["site_hash.sites"],
        "rng.stream_generator.calls": calls("rng.stream_generator"),
        "rng.stream_generator.s": secs("rng.stream_generator"),
        "rng.self_s": self_s("rng."),
        "lattice.self_s": self_s("lattice."),
        "lattice.contains.calls": calls(*lattice_contains),
        "monte_carlo.walks": c["walks"],
        "monte_carlo.steps": c["steps"],
        "monte_carlo.steps_per_s": ratio(c["steps"], walk_s),
        "monte_carlo.self_s": self_s("monte_carlo."),
        "kalikow.self_s": self_s("kalikow."),
        "kalikow.env_regions": c["env_regions"],
        "ballisticity.self_s": self_s("ballisticity."),
        "runtime.map.items": c["map_items"],
        "runtime.workers": workers,
        "cli.self_s": self_s("cli."),
        "reporting.write_s": secs(*_WRITERS),
        "reporting.bytes": c["write_bytes"],
        "trace.units": units,
        "trace_overhead": ratio(traced_s, plain_s),
    })
    return out
