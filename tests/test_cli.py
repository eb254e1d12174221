import io
import json
import os

import pytest

from rwre_lab import cli


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=1))
    return str(path)


def read_files(out_dir):
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_moments_run_reproduces_exact_values(tmp_path):
    cfg = write_config(tmp_path, "m.json", {
        "experiment": "moments", "seed": 7,
        "law": {"family": "signed_axis_kick", "d": 3, "a": 0.01},
    })
    report_path = cli.run("moments", cfg, out_dir=str(tmp_path / "out"))
    report = json.loads(open(report_path).read())
    assert report["moments"]["eps"] == pytest.approx(0.12, abs=1e-12)
    assert report["moments"]["sigma2"] == pytest.approx(2e-4, abs=1e-15)
    assert report["seed"] == 7
    assert len(report["config_hash"]) == 16


def test_identical_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path, "g.json", {
        "experiment": "green", "seed": 3,
        "law": {"family": "signed_axis_kick", "d": 2, "a": 0.05},
        "region": {"kind": "slab", "L": 3, "W": 12},
    })
    cli.run("green", cfg, out_dir=str(tmp_path / "out1"))
    cli.run("green", cfg, out_dir=str(tmp_path / "out2"))
    files1 = read_files(tmp_path / "out1")
    files2 = read_files(tmp_path / "out2")
    assert files1.keys() == files2.keys()
    assert set(files1) >= {"report.json", "green_row.csv", "exit_distribution.csv"}
    for name in files1:
        assert files1[name] == files2[name], name


def test_green_solves_its_row_once(tmp_path, monkeypatch):
    import numpy as np

    from rwre_lab import exact_solver as xs
    from rwre_lab.env_model import sample_environment

    cfg = write_config(tmp_path, "g.json", {
        "experiment": "green", "seed": 3,
        "law": {"family": "signed_axis_kick", "d": 2, "a": 0.05},
        "region": {"kind": "slab", "L": 3, "W": 12},
    })
    solve, calls = xs.solve_green_row, []

    def counted(*args, **kwargs):
        calls.append(None)
        return solve(*args, **kwargs)

    monkeypatch.setattr(xs, "solve_green_row", counted)
    cli.run("green", cfg, out_dir=str(tmp_path / "once"))
    assert len(calls) == 1

    def separate(run):
        # one green_row and one exit_distribution call, each solving the row
        law = cli._law(run.cfg)
        region = cli._region(run.cfg, law.d)
        x, tol = (0,) * law.d, 1e-10
        env = sample_environment(law, seed=run.seed)
        table = xs.green_row(env, region, x, tol=tol)
        table.to_csv(run.path("green_row.csv"), meta=run.meta)
        dist = xs.exit_distribution(env, region, x, tol=tol)
        dist.to_csv(run.path("exit_distribution.csv"), meta=run.meta)
        run.report.update({
            "law": law.to_dict(), "region": region.descriptor(), "source": list(x),
            "env_seed": run.seed, "green_at_source": table.value_at(x),
            "green_total": table.total(), "achieved_tol": table.achieved_tol,
            "exit_total_mass": dist.total(), "frontal_mass": dist.frontal_mass(),
            "green_operator_ones": xs.green_operator(
                env, region, np.ones(region.interior_count()), x, tol=tol),
        })

    monkeypatch.setitem(cli._RUNNERS, "green", separate)
    cli.run("green", cfg, out_dir=str(tmp_path / "twice"))
    assert len(calls) == 3
    once, twice = read_files(tmp_path / "once"), read_files(tmp_path / "twice")
    assert set(once) == set(twice) == {"report.json", "green_row.csv", "exit_distribution.csv"}
    for name in once:
        assert once[name] == twice[name], name


def test_thread_count_does_not_change_outputs(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, "e.json", {
        "experiment": "eps-k", "seed": 5,
        "law": {"family": "point_mass", "d": 2, "weights": {
            "+e1": 0.3, "-e1": 0.2, "+e2": 0.25, "-e2": 0.25}},
        "n_env": 8,
        "family": {"box_k_max": 1, "slab_L_max": 1, "halfspace_N_max": 1,
                   "n_clusters": 2, "cluster_size_cap": 6},
    })
    monkeypatch.setenv("RWRE_THREADS", "1")
    cli.run("eps-k", cfg, out_dir=str(tmp_path / "serial"))
    monkeypatch.setenv("RWRE_THREADS", "4")
    cli.run("eps-k", cfg, out_dir=str(tmp_path / "parallel"))
    serial = read_files(tmp_path / "serial")
    parallel = read_files(tmp_path / "parallel")
    assert serial == parallel


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, "v.json", {
        "experiment": "velocity", "seed": 1,
        "law": {"family": "point_mass", "d": 2, "weights": {
            "+e1": 0.3, "-e1": 0.2, "+e2": 0.25, "-e2": 0.25}},
        "n_steps": 50, "n_walks": 20,
    })
    p1 = cli.run("velocity", cfg, seed=99, out_dir=str(tmp_path / "a"))
    report = json.loads(open(p1).read())
    assert report["seed"] == 99


def test_dimension_validation_error(tmp_path):
    cfg = write_config(tmp_path, "bad.json", {
        "experiment": "moments", "seed": 1,
        "law": {"family": "signed_axis_kick", "d": 1, "a": 0.01},
    })
    rc = cli.main(["moments", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2


KICK_D2 = {"family": "signed_axis_kick", "d": 2, "a": 0.05}


@pytest.mark.parametrize("kind, payload, named", [
    ("moments", {"law": {"family": "signed_axis_kick", "a": 0.01}}, "'d'"),
    ("moments", {"law": {"family": "point_mass", "d": 2}}, "'weights'"),
    ("green", {"law": KICK_D2, "region": {"kind": "box", "lo": [-2, -2]}}, "'hi'"),
    ("moments", [{"law": KICK_D2}], "JSON object"),
    ("freedman", {"points": [{"b": 1, "sum_v2": 1}]}, "'u'"),
    ("freedman", {"tail_test": {"n": 50, "u_grid": [2]}}, "'n_paths'"),
    ("moments", {"law": "kick"}, "law descriptor must be a JSON object"),
    ("green", {"law": KICK_D2, "region": "box"}, "region descriptor must be a JSON object"),
    ("fluctuations", {"law": "kick"}, "law descriptor must be a JSON object"),
    ("kalikow-drift", {"law": KICK_D2, "region": {"kind": "box", "lo": [-1, -1], "hi": [1, 1]},
                       "method": "exakt", "n_env": 4}, "'exakt'"),
    ("eps-k", {"law": KICK_D2, "family": "default"}, "family must be a JSON object"),
    ("prop31", {"law": {**KICK_D2, "lambda_shift": 0.05}, "L": 2, "W": 8, "n_env": 0},
     "n_env"),
    ("fluctuations", {"law": KICK_D2, "amplitudes": [0.01, 0.02], "L": 2, "W": 8,
                      "n_env": 0}, "n_env"),
    ("rho", {"law": KICK_D2, "theta": 0.2, "eta": 0.5, "L": 2, "lateral_cap": 8,
             "n_env": 0}, "n_env"),
    # values of the wrong JSON type name their key
    ("theorem3", {"law": KICK_D2, "rho": 0.5, "N_list": 5}, "'N_list'"),
    ("green", {"law": KICK_D2, "region": {"kind": "box", "lo": [-2, -2], "hi": [2, 2]},
               "source": 5}, "'source'"),
    ("fluctuations", {"law": KICK_D2, "amplitudes": 0.1, "L": 2, "W": 8}, "'amplitudes'"),
    ("kalikow-drift", {"law": KICK_D2, "region": {"kind": "box", "lo": [-1, -1], "hi": [1, 1]},
                       "n_env": [3]}, "'n_env'"),
    ("condition-p", {"law": KICK_D2, "M_list": 3}, "'M_list'"),
    ("velocity", {"law": KICK_D2, "n_steps": None, "n_walks": 4}, "'n_steps'"),
    ("rho", {"law": KICK_D2, "theta": 0.2, "eta": 0.5, "L": 2, "lateral_cap": [8]},
     "'lateral_cap'"),
    # degenerate sizes: no walks, no paths, one amplitude, no truncation
    ("condition-p", {"law": KICK_D2, "M": 3, "n_per_site": 0}, "n_per_site"),
    ("velocity", {"law": KICK_D2, "n_steps": 10, "n_walks": 0}, "n_walks"),
    ("freedman", {"tail_test": {"n": 50, "u_grid": [2], "n_paths": 0}}, "n_paths"),
    ("fluctuations", {"law": KICK_D2, "amplitudes": [0.01], "L": 2, "W": 8, "n_env": 4},
     "amplitudes"),
    ("theorem3", {"law": KICK_D2, "rho": 0.5, "N_list": []}, "N_list"),
])
def test_malformed_config_exits_2(tmp_path, capsys, kind, payload, named):
    cfg = write_config(tmp_path, "bad.json", payload)
    rc = cli.main([kind, "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert named in capsys.readouterr().err


def test_experiment_kind_mismatch(tmp_path):
    cfg = write_config(tmp_path, "m.json", {
        "experiment": "moments", "seed": 1,
        "law": {"family": "signed_axis_kick", "d": 2, "a": 0.01},
    })
    rc = cli.main(["velocity", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2


def test_config_parse_error_reports_location(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text('{"experiment": "moments",}')
    with pytest.raises(cli.ConfigError) as exc:
        cli.run("moments", str(bad))
    assert "line" in str(exc.value)


def test_freedman_run_and_summary(tmp_path):
    cfg = write_config(tmp_path, "f.json", {
        "experiment": "freedman", "seed": 2,
        "points": [{"u": 1, "b": 1, "sum_v2": 1}, {"u": 2, "b": 1, "sum_v2": 0}],
        "tail_test": {"increment": "plusminus", "n": 50,
                      "u_grid": [2, 6], "n_paths": 2000},
    })
    report_path = cli.run("freedman", cfg, out_dir=str(tmp_path / "out"))
    report = json.loads(open(report_path).read())
    assert report["bounds"][0]["bound"] == pytest.approx(0.687289, abs=1e-6)
    assert report["bounds"][1]["bound"] == pytest.approx(0.049787, abs=1e-6)
    stream = io.StringIO()
    cli.emit_summary([report_path], stream=stream)
    assert "tails within bound: True" in stream.getvalue()


def test_condition_p_summary_names_threshold_exponent(tmp_path):
    cfg = write_config(tmp_path, "p.json", {
        "experiment": "condition-p", "seed": 2,
        "law": {"family": "point_mass", "d": 3, "weights": {
            "+e1": 1 / 6, "-e1": 1 / 6, "+e2": 1 / 6, "-e2": 1 / 6,
            "+e3": 1 / 6, "-e3": 1 / 6}},
        "M": 2, "n_per_site": 100, "site_cap": 4,
    })
    report_path = cli.run("condition-p", cfg, out_dir=str(tmp_path / "out"))
    stream = io.StringIO()
    cli.emit_summary([report_path], stream=stream)
    line = stream.getvalue()
    assert "M^-50" in line  # 15 d + 5 at d=3
    assert "log_M0=174.0971" in line


def test_summary_requires_existing_reports(tmp_path):
    with pytest.raises(cli.ConfigError):
        cli.emit_summary([])
    with pytest.raises(cli.ConfigError):
        cli.emit_summary([str(tmp_path / "missing.json")])
    corrupt = tmp_path / "bad.json"
    corrupt.write_text("{not json")
    with pytest.raises(cli.ConfigError):
        cli.emit_summary([str(corrupt)])


def test_summary_cli_usage_error_on_no_args():
    with pytest.raises(SystemExit):
        cli.main(["summary"])


PM2 = {"family": "point_mass", "d": 2, "weights": {
    "+e1": 0.3, "-e1": 0.2, "+e2": 0.25, "-e2": 0.25}}
KICK3 = {"family": "signed_axis_kick", "d": 3, "a": 0.02, "lambda_shift": 0.05}
TINY_FAMILY = {"box_k_max": 1, "slab_L_max": 1, "halfspace_N_max": 1,
               "n_clusters": 1, "cluster_size_cap": 6}
EPS_K_HEADER = "label,n_sites,min_lcb,min_ucb,min_estimate,argmin_site,exact"
STARTS_HEADER = "x1,x2,p_hat,se,n,hits"

# every experiment kind that writes a table: its config and {file: header};
# files without a header are two-column plot data
TABLES = [
    ("green", {"law": KICK_D2, "region": {"kind": "slab", "L": 2, "W": 8}},
     {"green_row.csv": "y1,y2,green_value", "exit_distribution.csv": "y1,y2,probability"}),
    ("kalikow-drift", {"law": PM2, "region": {"kind": "box", "lo": [-1, -1], "hi": [1, 1]},
                       "n_env": 4},
     {"kalikow_environment.csv": "y1,y2,w(+e1),se(+e1),w(-e1),se(-e1),"
                                 "w(+e2),se(+e2),w(-e2),se(-e2)"}),
    ("eps-k", {"law": PM2, "n_env": 4, "family": TINY_FAMILY}, {"eps_k_sets.csv": EPS_K_HEADER}),
    ("theorem2", {"law": PM2, "n_env": 4, "family": TINY_FAMILY},
     {"eps_k_sets.csv": EPS_K_HEADER}),
    ("theorem3", {"law": KICK3, "rho": 0.5, "N_list": [2, 3], "n_env": 4, "force": True},
     {"halfspace_drift.csv": "sign,N,n_sites,drift_e1,se_e1,drift_e2,drift_e3,se_e2,se_e3"}),
    ("condition-p", {"law": KICK_D2, "M": 2, "n_per_site": 10, "site_cap": 2},
     {"condition_p_starts.csv": STARTS_HEADER, "exit_probability_vs_M.txt": None}),
    ("condition-p", {"law": KICK_D2, "M_list": [2, 3], "n_per_site": 10, "site_cap": 2},
     {"condition_p_starts_M2.csv": STARTS_HEADER, "condition_p_starts_M3.csv": STARTS_HEADER,
      "exit_probability_vs_M.txt": None}),
    ("prop31", {"law": {**KICK_D2, "lambda_shift": 0.05}, "L": 2, "W": 8, "n_env": 4},
     {"drift_green_samples.csv": "env_seed,value"}),
    ("fluctuations", {"law": KICK_D2, "amplitudes": [0.01, 0.02], "L": 2, "W": 8, "n_env": 4},
     {"fluctuation_scan.csv": "amplitude,sigma2,mean,variance,n_env",
      "variance_vs_amplitude.txt": None}),
    ("rho", {"law": KICK_D2, "theta": 0.2, "eta": 0.5, "L": 2, "lateral_cap": 8, "n_env": 2},
     {"rho_samples.csv": "index,q_B,rho_B,rho_hat,g_drift_origin"}),
    ("freedman", {"points": [{"u": 1, "b": 1, "sum_v2": 1}],
                  "tail_test": {"n": 10, "u_grid": [2], "n_paths": 20}},
     {"freedman_bounds.csv": "u,b,sum_v2,bound",
      "martingale_tails.csv": "u,bound,upper_freq,lower_freq,se_upper,se_lower,within_bound"}),
]


def test_csv_outputs_carry_provenance(tmp_path):
    for i, (kind, payload, headers) in enumerate(TABLES):
        cfg = write_config(tmp_path, f"{i}.json", {"experiment": kind, "seed": 3, **payload})
        out = tmp_path / str(i)
        report = json.loads(open(cli.run(kind, cfg, out_dir=str(out))).read())
        assert set(os.listdir(out)) == {"report.json", *headers}, kind
        for name, header in headers.items():
            lines = (out / name).read_text().splitlines()
            assert lines[0] == f"# config_hash={report['config_hash']} seed=3", name
            if header is not None:
                assert lines[1] == header, name
