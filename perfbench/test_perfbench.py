"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench/test_perfbench.py -q

Needs neither the package under measurement nor numpy.
"""

import os
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layers import MOVES, Counters, layer_metrics  # noqa: E402
from run import SPEC  # noqa: E402
from tracer import Tracer, median_and_tail, self_times, tail_rank  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # 0 [0,100] > 1 [10,40] > 2 [15,25];  0 > 3 [50,60]
    starts, ends, parents = [0, 10, 15, 50], [100, 40, 25, 60], [-1, 0, 1, 0]
    assert self_times(starts, ends, parents) == [100 - 30 - 10, 30 - 10, 10, 10]


def test_self_time_of_leaf_is_its_duration():
    assert self_times([5], [9], [-1]) == [4]


def test_tail_is_highest_percentile_with_ten_beyond():
    values = list(range(1, 45))  # 44 batches
    stats = median_and_tail(values)
    assert tail_rank(44) == 34
    assert stats["tail"] == 34 and sum(v > stats["tail"] for v in values) == 10
    assert abs(stats["tail_pct"] - 100 * 34 / 44) < 1e-12
    assert stats["p50"] == 22.5 and stats["n"] == 44


def test_tail_falls_back_to_maximum_below_eleven_values():
    assert tail_rank(10) is None
    stats = median_and_tail([3, 1, 2])
    assert stats["tail"] == 3 and stats["tail_pct"] == 100.0 and stats["p50"] == 2


def _fake_package():
    mod = types.ModuleType("fakepkg.core")
    exec(
        "class Box:\n"
        "    def __init__(self, n):\n"
        "        self.n = n\n"
        "    def size(self):\n"
        "        return leaf(self.n)\n"
        "def leaf(x):\n"
        "    return x * 2\n"
        "def outer(x):\n"
        "    return leaf(x) + Box(x).size()\n"
        "def _private(x):\n"
        "    return x\n",
        mod.__dict__)
    user = types.ModuleType("fakepkg.user")
    user.leaf = mod.leaf  # a `from .core import leaf` binding
    return mod, user


def test_tracer_wraps_bindings_nests_spans_and_uninstalls():
    mod, user = _fake_package()
    original_leaf, original_size = mod.leaf, mod.Box.size
    seen = []
    tracer = Tracer({"core.leaf": lambda a, k, r, ns: seen.append(r)})
    tracer.install({"core": mod}, extra_namespaces=[user])
    assert mod.outer(3) == 12 and user.leaf(5) == 10
    assert mod._private is mod.__dict__["_private"]
    tracer.uninstall()
    assert mod.leaf is original_leaf and user.leaf is original_leaf
    assert mod.Box.size is original_size
    assert seen == [6, 6, 10]
    names = [tracer.names[i] for i in tracer.name_ids]
    assert names == ["core.outer", "core.leaf", "core.Box.__init__", "core.Box.size",
                     "core.leaf", "core.leaf"]
    parents = list(tracer.parents)
    assert parents == [-1, 0, 0, 0, 3, -1]
    totals = tracer.totals()
    assert totals["core.leaf"][0] == 3
    assert totals["core.outer"][2] <= totals["core.outer"][1]


def test_tracer_records_span_when_call_raises():
    mod = types.ModuleType("fakepkg.err")
    exec("def boom():\n    raise ValueError('x')\n", mod.__dict__)
    tracer = Tracer()
    tracer.install({"err": mod})
    try:
        mod.boom()
    except ValueError:
        pass
    finally:
        tracer.uninstall()
    assert tracer.span_count() == 1 and tracer.ends[0] >= tracer.starts[0]
    assert not tracer._stack


def test_traced_run_reports_every_listed_layer_metric():
    out = layer_metrics(Tracer(), Counters(), units=1, workers=1, traced_s=1.0, plain_s=1.0)
    declared = [m["name"] for m in SPEC["per_layer"]]
    assert sorted(out) == sorted(declared) == sorted(MOVES)
