import json
import os
import subprocess
import sys
import textwrap

import pytest

import rwre_lab
from rwre_lab import runtime

SRC = os.path.dirname(os.path.dirname(os.path.abspath(rwre_lab.__file__)))


def test_worker_count_reads_a_positive_integer(monkeypatch):
    monkeypatch.delenv("RWRE_THREADS", raising=False)
    assert runtime.worker_count() == 1
    for raw, n in (("1", 1), ("3", 3), (" 2 ", 2)):
        monkeypatch.setenv("RWRE_THREADS", raw)
        assert runtime.worker_count() == n


@pytest.mark.parametrize("raw", ["four", "0", "-2", "2.5", ""])
def test_worker_count_refuses_other_values(monkeypatch, raw):
    monkeypatch.setenv("RWRE_THREADS", raw)
    with pytest.raises(ValueError, match=f"RWRE_THREADS.*{raw!r}"):
        runtime.worker_count()


def _scipy_modules_after(script: str, tmp_path) -> list[str]:
    """The scipy modules loaded by script, run in a fresh interpreter."""
    code = textwrap.dedent(script) + textwrap.dedent("""
        import json, sys
        print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
    """)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_import_batch_solves_and_the_cli_load_no_scipy(tmp_path):
    config = tmp_path / "kalikow-drift.json"
    config.write_text(json.dumps({
        "experiment": "kalikow-drift",
        "law": {"family": "signed_axis_kick", "d": 2, "a": 0.05},
        "region": {"kind": "box", "lo": [-1, -1], "hi": [1, 1]},
        "method": "mc", "n_env": 8}))
    loaded = _scipy_modules_after(f"""
        import numpy as np
        import rwre_lab as rl
        from rwre_lab import cli
        from rwre_lab import exact_solver as xs
        from rwre_lab.env_model import sample_weights

        law = rl.SignedAxisKickLaw(3, 0.005, lambda_shift=0.05)
        box = rl.BoxRegion([0, 0, 0], [3, 3, 3])
        pattern = xs.region_pattern(box)
        assert xs.auto_method(pattern, 40) == "lockstep"
        weights = sample_weights(law, box, np.arange(40))
        xs.solve_batch(pattern, weights, np.ones(pattern.n))
        small = rl.BoxRegion([0, 0], [2, 2])
        pattern = xs.region_pattern(small)
        assert xs.auto_method(pattern, 4) == "dense"
        weights = sample_weights(rl.SignedAxisKickLaw(2, 0.05), small, np.arange(4))
        xs.solve_batch(pattern, weights, np.ones(pattern.n))
        cli.run("kalikow-drift", {str(config)!r}, seed=3, out_dir="out")
    """, tmp_path)
    assert loaded == []


def test_one_atom_exit_distribution_loads_no_scipy(tmp_path):
    # the constant block of a shifted SSRW goes lockstep, not band LU
    loaded = _scipy_modules_after("""
        import rwre_lab as rl

        law = rl.build_shifted_law(rl.ssrw_law(2), 0.1)
        env = rl.sample_environment(law, seed=0)
        dist = rl.exit_distribution(env, rl.BallisticityBox(2, 2), (0, 0), tol=1e-12)
        assert dist.achieved_tol <= 1e-12
    """, tmp_path)
    assert loaded == []


def test_condition_p_probe_loads_scipy_special_only(tmp_path):
    loaded = _scipy_modules_after("""
        import rwre_lab as rl
        from rwre_lab import ballisticity as bal

        bal.condition_p_probe(rl.ssrw_law(2), 2, n_per_site=3, seed=0)
    """, tmp_path)
    assert "scipy.special" in loaded
    assert "scipy.stats" not in loaded


def test_annealed_estimates_load_no_scipy(tmp_path):
    loaded = _scipy_modules_after("""
        import rwre_lab as rl
        from rwre_lab import monte_carlo as mc

        law = rl.SignedAxisKickLaw(2, 0.02, lambda_shift=0.03)
        mc.estimate_velocity(law, 50, 8, seed=1)
        mc.annealed_event_probability(law, rl.BallisticityBox(2, 2), (0, 0),
                                      mc.EVENT_EXIT_NOT_FRONTAL, 20, seed=2)
    """, tmp_path)
    assert loaded == []


def test_neumann_solves_load_no_scipy_and_krylov_loads_its_linalg(tmp_path):
    # the Neumann iteration applies P through the neighbour table, like
    # every certificate; only BiCGSTAB needs scipy.sparse.linalg
    neumann = """
        import rwre_lab as rl
        from rwre_lab import exact_solver as xs

        env = rl.sample_environment(rl.SignedAxisKickLaw(2, 0.05), seed=1)
        region = rl.SlabRegion(3, 12, 2)
        rl.green_row(env, region, (0, 0), tol=1e-12, method="neumann")
        xs.neumann_green_iterates(env, region, (0, 0), 10)
    """
    assert _scipy_modules_after(neumann, tmp_path) == []
    krylov = neumann + """
        rl.green_row(env, region, (0, 0), tol=1e-12, method="krylov")
    """
    assert "scipy.sparse.linalg" in _scipy_modules_after(krylov, tmp_path)


def test_slab_drift_batches_without_a_remainder_load_no_scipy(tmp_path):
    # 64 environments on the d=2 slab L=4 W=64 (63 per lockstep batch at
    # most) run as two lockstep batches of 32, not as 63 and one band LU,
    # whose single solve would load scipy.linalg
    loaded = _scipy_modules_after("""
        import rwre_lab as rl
        from rwre_lab import ballisticity as bal

        bal.mean_drift_green_check(rl.SignedAxisKickLaw(2, 0.04, 0.01), 4, 64, 64, seed=3)
    """, tmp_path)
    assert loaded == []
