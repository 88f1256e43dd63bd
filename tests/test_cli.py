import argparse
import json
import os
import shutil
import subprocess
import sys
import venv
from pathlib import Path

import numpy as np
import pytest

from opshort import hansen_inequality_check, load_matrix, make_kit, parallel, save_matrix, shorting
from opshort.numkit import matrix_from_json_dict
from opshort.cli import build_parser, dispatch

RNG = np.random.default_rng(6006)


def _write(tmp_path, name, m):
    path = tmp_path / name
    save_matrix(path, np.asarray(m, dtype=complex))
    return str(path)


def _run(capsys, argv):
    code = dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out


def _run_json(capsys, argv):
    code, out = _run(capsys, argv)
    return code, json.loads(out)


def _check_envelope(payload, command):
    assert payload["command"] == command
    assert payload["version"]
    assert set(payload["tol"]) == {"rank_rel", "residual_rel", "eig_clamp_rel"}


# --- plumbing -------------------------------------------------------------------


def test_version_flag(capsys):
    code, out = _run(capsys, ["--version"])
    assert code == 0
    assert "opshort" in out


def test_unknown_subcommand(capsys):
    code, _ = _run(capsys, ["no-such-command"])
    assert code == 2


def test_missing_input_file(capsys, tmp_path):
    code, _ = _run(capsys, ["v-op", "--input", str(tmp_path / "absent.json")])
    assert code == 2


def test_malformed_input_file(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("this is not json")
    code, _ = _run(capsys, ["v-op", "--input", str(path)])
    assert code == 2
    path.write_text('{"rows": 1}')
    code, _ = _run(capsys, ["v-op", "--input", str(path)])
    assert code == 2


def test_bad_tol_rejected(capsys, tmp_path):
    f = _write(tmp_path, "m.json", np.eye(2))
    code, _ = _run(capsys, ["v-op", "--input", f, "--tol", "2.0"])
    assert code == 2


def test_tol_below_the_rank_floor_rejected(capsys, tmp_path):
    # --tol 1e-13 would put rank_rel at 1e-17, where the rank rules count noise
    f = _write(tmp_path, "m.json", np.eye(2))
    code = dispatch(["v-op", "--input", f, "--tol", "1e-13"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "rank_rel must be at least" in captured.err


def test_tol_flag_scales_whole_policy(capsys, tmp_path):
    f = _write(tmp_path, "m.json", np.eye(2))
    code, payload = _run_json(capsys, ["v-op", "--input", f, "--tol", "1e-6"])
    assert code == 0
    assert payload["tol"]["residual_rel"] == pytest.approx(1e-6)
    assert payload["tol"]["rank_rel"] == pytest.approx(1e-10)
    assert payload["tol"]["eig_clamp_rel"] == pytest.approx(1e-8)


def test_out_flag_writes_file(capsys, tmp_path):
    f = _write(tmp_path, "m.json", np.eye(2))
    target = tmp_path / "result.json"
    code, out = _run(capsys, ["v-op", "--input", f, "--out", str(target)])
    assert code == 0
    assert out == ""
    _check_envelope(json.loads(target.read_text()), "v-op")


@pytest.mark.parametrize("token", ["NaN", "Infinity", "1" + "0" * 400])
def test_non_finite_entries_rejected_at_load(capsys, tmp_path, recwarn, token):
    path = tmp_path / "m.json"
    path.write_text(f'{{"rows":1,"cols":2,"data":[[1.0,0.0],[{token},0.0]]}}')
    code = dispatch(["v-op", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "data[1] is not finite" in captured.err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"rows":1,"cols":2,"data":[[1.0,0.0],[true,false]]}', "data[1] is not a [re, im] pair"),
        ('{"rows":1,"cols":2,"data":[[1.0,0.0],[0.0,true]]}', "data[1] is not a [re, im] pair"),
        ('{"rows":true,"cols":1,"data":[[1.0,0.0]]}', "rows and cols"),
        ('{"rows":1,"cols":true,"data":[[1.0,0.0]]}', "rows and cols"),
    ],
)
def test_boolean_entries_rejected_at_load(capsys, tmp_path, text, message):
    path = tmp_path / "m.json"
    path.write_text(text)
    code = dispatch(["lemma69", "--x", str(path), "--y", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err


def _fresh_process(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "opshort.cli", *argv], capture_output=True, env=env, timeout=120
    )
    return proc.returncode, proc.stdout


def test_dispatch_reuses_one_parser(capsysbinary, tmp_path, monkeypatch):
    t = _write(tmp_path, "t.json", [[2.0, 1.0], [1.0, 1.0]])
    h = _write(tmp_path, "h.json", np.eye(2) / 2.0)
    argvs = [["v-op", "--input", t], ["lemma69", "--x", t, "--y", h], ["lab", "sweep", "--dims", "2"]]
    expected = [_fresh_process(argv) for argv in argvs]
    assert build_parser() is not build_parser()
    # dispatch no longer builds a parser per call
    monkeypatch.setattr("opshort.cli.build_parser", lambda: pytest.fail("parser rebuilt"))
    for argv, (code, out) in zip(argvs, expected):
        assert dispatch(argv) == code
        assert capsysbinary.readouterr().out == out, argv


def _settable_flags(parser):
    """Every option a user can set, over all leaves (without -h/--version)."""
    count = 0
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            count += sum(_settable_flags(sub) for sub in set(action.choices.values()))
        elif action.option_strings and action.dest not in ("help", "version"):
            count += 1
    return count


def test_lab_sweep_has_one_output_flag(capsys, tmp_path):
    target = tmp_path / "sweep.csv"
    code, out = _run(capsys, ["lab", "sweep", "--dims", "2", "--out", str(target)])
    assert code == 2 and out == "" and not target.exists()
    code, out = _run(capsys, ["lab", "sweep", "--dims", "2", "--csv", str(target)])
    assert code == 0 and out == ""
    assert target.read_text().startswith("d,norm_strong_solution")
    assert _settable_flags(build_parser()) == 51


def test_import_leaves_scipy_unloaded():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, opshort.cli; print('scipy' in sys.modules)"],
        capture_output=True,
        env=env,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def _invocations(tmp_path):
    """(argv, command) for every JSON-emitting invocation, each exiting 0."""
    t = _write(tmp_path, "t.json", [[2.0, 1.0], [1.0, 1.0]])
    p = _write(tmp_path, "p.json", np.diag([1.0, 0.0]))
    i = _write(tmp_path, "i.json", np.eye(2))
    h = _write(tmp_path, "h.json", np.eye(2) / 2.0)
    return [
        (["polar", "--input", t], "polar"),
        (["polar", "--input", t, "--alpha", "0.5"], "polar"),
        (["gpolar", "--input", t], "gpolar"),
        (["v-op", "--input", t], "v-op"),
        (["reduced-solve", "--a", t, "--c", i], "reduced-solve"),
        (["partition", "--input", t, "--pm", p, "--pn", p], "partition"),
        (["shorted", "--input", t, "--pm", p, "--pn", p], "shorted"),
        (["parallel-sum", "--a", t, "--b", i], "parallel-sum"),
        (["parallel-eq", "--a", t, "--b", i], "parallel-eq"),
        (["hansen-check", "--a", t, "--b", i, "--probes", "2"], "hansen-check"),
        (["hansen-check", "--a", t, "--b", i, "--c", h], "hansen-check"),
        (["lemma69", "--x", t, "--y", h], "lemma69"),
        (["lab", "verify", "--dim", "2"], "lab-verify"),
    ]


def test_every_invocation_carries_its_command(capsys, tmp_path):
    for argv, command in _invocations(tmp_path):
        code, payload = _run_json(capsys, argv)
        assert code == 0, argv
        _check_envelope(payload, command)


def test_seed_is_accepted_only_by_hansen_check(capsys, tmp_path):
    argvs = [argv for argv, _ in _invocations(tmp_path)] + [["lab", "sweep", "--dims", "2"]]
    for argv in argvs:
        code, out = _run(capsys, argv + ["--seed", "1"])
        if argv[0] == "hansen-check":
            assert code == 0
        else:
            assert code == 2 and out == "", argv


# --- polar family ------------------------------------------------------------------


def test_polar_classical(capsys, tmp_path):
    f = _write(tmp_path, "t.json", RNG.normal(size=(4, 3)))
    code, payload = _run_json(capsys, ["polar", "--input", f])
    assert code == 0
    _check_envelope(payload, "polar")
    assert payload["mode"] == "classical"
    assert payload["alpha"] == 1.0
    res = payload["residuals"]
    assert res["reconstruction"] <= 1e-10
    assert res["initial_isometry"] <= 1e-10
    assert res["final_isometry"] <= 1e-10


def test_polar_generalized(capsys, tmp_path):
    f = _write(tmp_path, "t.json", RNG.normal(size=(4, 4)))
    code, payload = _run_json(capsys, ["polar", "--input", f, "--alpha", "0.5"])
    assert code == 0
    assert payload["mode"] == "generalized"
    assert payload["alpha"] == 0.5
    assert payload["residuals"]["gram"] <= 1e-9


def test_polar_iterate(capsys, tmp_path):
    f = _write(tmp_path, "t.json", [[1.0]])
    code, payload = _run_json(capsys, ["polar", "--input", f, "--iterate", "100"])
    assert code == 0
    assert payload["mode"] == "iterate"
    assert payload["n"] == 100
    got = payload["U"]["data"][0][0]
    assert got == pytest.approx(np.sqrt(100.0 / 101.0), abs=1e-12)
    assert payload["residuals"]["distance_to_limit"] == pytest.approx(
        1.0 - np.sqrt(100.0 / 101.0), abs=1e-12
    )


def test_polar_bad_alpha(capsys, tmp_path):
    f = _write(tmp_path, "t.json", np.eye(2))
    code, _ = _run(capsys, ["polar", "--input", f, "--alpha", "1.5"])
    assert code == 2


def test_gpolar_default_alpha(capsys, tmp_path):
    f = _write(tmp_path, "t.json", RNG.normal(size=(3, 3)))
    code, payload = _run_json(capsys, ["gpolar", "--input", f])
    assert code == 0
    assert payload["alpha"] == 0.75
    assert payload["residuals"]["reconstruction"] <= 1e-9
    assert payload["residuals"]["intertwining_beta_1"] <= 1e-9


def test_v_op_residuals(capsys, tmp_path):
    f = _write(tmp_path, "t.json", RNG.normal(size=(5, 3)))
    code, out = _run(capsys, ["v-op", "--input", f])
    assert code == 0
    # the envelope names the knob and both cutoffs derived from it
    assert '"tol":{"eig_clamp_rel":1e-10,"rank_rel":1e-12,"residual_rel":1e-08}' in out
    for value in json.loads(out)["residuals"].values():
        assert value <= 1e-9


# --- reduced-solve -------------------------------------------------------------------


def test_reduced_solve_success(capsys, tmp_path):
    a = _write(tmp_path, "a.json", np.diag([2.0, 1.0]))
    c = _write(tmp_path, "c.json", np.diag([1.0, 1.0]))
    code, payload = _run_json(capsys, ["reduced-solve", "--a", a, "--c", c])
    assert code == 0
    _check_envelope(payload, "reduced-solve")
    assert payload["solvable"] is True
    assert payload["borderline"] is False
    assert payload["range_ok"] is True
    assert payload["D"]["data"][0] == [0.5, 0.0]
    assert payload["norm_D"] == pytest.approx(1.0)


def test_reduced_solve_not_solvable(capsys, tmp_path):
    a = _write(tmp_path, "a.json", np.diag([1.0, 0.0]))
    c = _write(tmp_path, "c.json", [[0.0], [1.0]])
    code, payload = _run_json(capsys, ["reduced-solve", "--a", a, "--c", c])
    assert code == 3
    assert payload["solvable"] is False
    assert payload["margin"] == pytest.approx(1.0)


def test_reduced_solve_borderline(capsys, tmp_path):
    a = _write(tmp_path, "a.json", np.diag([1.0, 1.0, 0.0]))
    c = _write(tmp_path, "c.json", [[0.5], [0.0], [3e-8]])
    code, payload = _run_json(capsys, ["reduced-solve", "--a", a, "--c", c])
    assert code == 4
    assert payload["borderline"] is True
    assert payload["margin"] == pytest.approx(3e-8, rel=1e-6)


def test_reduced_solve_kit_headline(capsys, tmp_path):
    kit = make_kit(32)
    a = _write(tmp_path, "a.json", kit.A0 + kit.B0)
    c = _write(tmp_path, "c.json", kit.B0)
    code, payload = _run_json(capsys, ["reduced-solve", "--a", a, "--c", c])
    assert code == 0
    assert payload["norm_D"] == pytest.approx(np.sqrt(1.0 + 32.0**2), rel=1e-9)


# --- partition and shorted --------------------------------------------------------------


def test_partition_payload(capsys, tmp_path):
    t = RNG.normal(size=(4, 4))
    f = _write(tmp_path, "t.json", t)
    p = _write(tmp_path, "p.json", np.diag([1.0, 1.0, 0.0, 0.0]))
    code, payload = _run_json(
        capsys, ["partition", "--input", f, "--pm", p, "--pn", p]
    )
    assert code == 0
    assert payload["rank_PM"] == 2 and payload["rank_PN"] == 2
    sv = payload["singular_values"]
    assert sorted(sv) == ["T11", "T12", "T21", "T22"]
    assert all(len(values) == 2 for values in sv.values())
    assert np.allclose(sv["T22"], np.linalg.svd(t[2:, 2:], compute_uv=False))
    assert payload["reassembly_residual"] <= 1e-10
    assert not {"T11", "T12", "T21", "T22"} & set(payload)


def test_projector_checks_follow_tol(capsys, tmp_path):
    # P = diag(1, 0, 0) + d (e1 e2* - e2 e1*) has ||P - P*|| = 2d and
    # P^2 - P = -d^2 diag(1, 1, 0); with d = 1e-9 the Hermitian gap lies above
    # the default bound eig_clamp_rel = 1e-10 and below 1e-8 at --tol 1e-6
    d = 1e-9
    pm = np.diag([1.0, 0.0, 0.0])
    pm[0, 1], pm[1, 0] = d, -d
    assert np.linalg.norm(pm - pm.T, 2) == pytest.approx(2 * d)
    assert np.linalg.norm(pm @ pm - pm, 2) <= 1e-18
    f = _write(tmp_path, "t.json", RNG.normal(size=(3, 3)))
    p = _write(tmp_path, "p.json", pm)
    argv = ["partition", "--input", f, "--pm", p, "--pn", p]
    assert _run(capsys, argv)[0] == 2
    code, payload = _run_json(capsys, argv + ["--tol", "1e-6"])
    assert code == 0
    assert payload["rank_PM"] == 1


def test_partition_rejects_non_projector(capsys, tmp_path):
    f = _write(tmp_path, "t.json", RNG.normal(size=(3, 3)))
    p = _write(tmp_path, "p.json", np.diag([1.0, 0.4, 0.0]))
    code, _ = _run(capsys, ["partition", "--input", f, "--pm", p, "--pn", p])
    assert code == 2


def test_shorted_success(capsys, tmp_path):
    f = _write(tmp_path, "t.json", [[2.0, 1.0], [1.0, 1.0]])
    p = _write(tmp_path, "p.json", np.diag([1.0, 0.0]))
    code, payload = _run_json(capsys, ["shorted", "--input", f, "--pm", p, "--pn", p])
    assert code == 0
    _check_envelope(payload, "shorted")
    assert payload["mode"] == "complementable"
    shorted = matrix_from_json_dict(payload["shorted"])
    assert shorted[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(shorted.ravel()[1:] == 0.0)
    assert "core" not in payload
    # E, F, Etilde and Ftilde are each [[1]] here
    assert payload["witnesses"]["norms"] == pytest.approx([1.0] * 4, abs=1e-12)
    assert payload["cross_gap"] <= 1e-10
    assert payload["report"]["range_equal"] is True
    assert payload["report"]["kernel_equal"] is True
    assert payload["witnesses"]["solvable"] == [True] * 4
    # the ranks of T22 = [[1]] under the two rank rules
    assert payload["ranks"] == [1, 1]
    assert "redundancy" not in payload


def _leaves(obj, path=()):
    # every leaf of a JSON payload with its path of keys and list indices
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _leaves(obj[key], path + (key,))
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            yield from _leaves(item, path + (i,))
    else:
        yield path, obj


def test_partition_and_shorted_payloads_are_basis_free(capsys, tmp_path):
    # P and P2 project onto one subspace through two orthonormal bases, so
    # every number the payloads report must agree to round-off
    rng = np.random.default_rng(16)
    for trial in range(5):
        g = rng.normal(size=(6, 6))
        t = g @ g.T
        q = np.linalg.qr(rng.normal(size=(6, 6)))[0][:, :3]
        b = q @ np.linalg.qr(rng.normal(size=(3, 3)))[0]
        f = _write(tmp_path, "t.json", t)
        ps = [_write(tmp_path, f"p{i}.json", x @ x.T) for i, x in enumerate((q, b))]
        bound = 1e-12 * np.linalg.norm(t, 2)
        for command in ("partition", "shorted"):
            runs = [_run_json(capsys, [command, "--input", f, "--pm", p, "--pn", p]) for p in ps]
            assert [code for code, _ in runs] == [0, 0]
            got, want = (list(_leaves(payload)) for _, payload in runs)
            assert [path for path, _ in got] == [path for path, _ in want]
            for (path, x), (_, y) in zip(got, want):
                if isinstance(x, float):
                    assert abs(x - y) <= bound, (command, path)
                else:
                    assert x == y, (command, path)


@pytest.mark.parametrize("k", [0, 4])
def test_trivial_subspaces_exit_0(capsys, tmp_path, k):
    # PM = 0 or PM = I: three corners have an empty side and no singular
    # values; the fourth is T, and the shorted operator is 0 or T
    g = RNG.normal(size=(4, 4))
    t = g @ g.T
    f = _write(tmp_path, "t.json", t)
    p = _write(tmp_path, "p.json", np.diag([1.0] * k + [0.0] * (4 - k)))
    argv = ["--input", f, "--pm", p, "--pn", p]
    code, payload = _run_json(capsys, ["partition"] + argv)
    assert code == 0
    full = "T11" if k else "T22"
    sv = payload["singular_values"]
    assert {name for name, values in sv.items() if not values} == {"T11", "T12", "T21", "T22"} - {full}
    assert np.allclose(sv[full], np.linalg.svd(t, compute_uv=False))
    code, payload = _run_json(capsys, ["shorted"] + argv)
    assert code == 0
    assert np.allclose(matrix_from_json_dict(payload["shorted"]), t if k else 0.0, atol=1e-12)
    assert payload["witnesses"]["norms"] == [0.0] * 4


def test_shorted_weak_failure(capsys, tmp_path):
    t = np.zeros((3, 3))
    t[1, 0] = 1.0
    f = _write(tmp_path, "t.json", t)
    p = _write(tmp_path, "p.json", np.diag([1.0, 0.0, 0.0]))
    code, payload = _run_json(capsys, ["shorted", "--input", f, "--pm", p, "--pn", p])
    assert code == 3
    assert payload["failing_systems"] == [1, 3]
    assert payload["system_solvable"] == [False, True, False, True]


def test_shorted_weak_failure_solves_the_corner_systems_once(capsys, tmp_path, monkeypatch):
    # the exit-3 payload reads the data the failed verdict was raised from
    t = np.zeros((3, 3))
    t[1, 0] = 1.0
    f = _write(tmp_path, "t.json", t)
    p = _write(tmp_path, "p.json", np.diag([1.0, 0.0, 0.0]))
    argv = ["shorted", "--input", f, "--pm", p, "--pn", p]
    _, expected = _run(capsys, argv)
    calls = []
    real = shorting._solve_corners

    def spy(block, systems, tol):
        calls.append(len(systems))
        return real(block, systems, tol)

    monkeypatch.setattr(shorting, "_solve_corners", spy)
    code, out = _run(capsys, argv)
    assert code == 3 and calls == [4]
    assert out == expected
    assert json.loads(out)["system_residuals"] == [1.0, 0.0, 1.0, 0.0]


# --- parallel family -----------------------------------------------------------------------


def test_parallel_sum_scalars(capsys, tmp_path):
    a = _write(tmp_path, "a.json", [[2.0]])
    b = _write(tmp_path, "b.json", [[2.0]])
    code, payload = _run_json(capsys, ["parallel-sum", "--a", a, "--b", b])
    assert code == 0
    _check_envelope(payload, "parallel-sum")
    assert payload["value"]["data"] == [[1.0, 0.0]]
    assert payload["route"] == "shorted_block"
    assert set(payload["regularized"]) == {"0.0001", "1e-06"}


def test_parallel_sum_deterministic_bytes(capsys, tmp_path):
    a = _write(tmp_path, "a.json", [[2.0, 1.0], [1.0, 1.0]])
    b = _write(tmp_path, "b.json", np.eye(2))
    _, out1 = _run(capsys, ["parallel-sum", "--a", a, "--b", b])
    _, out2 = _run(capsys, ["parallel-sum", "--a", a, "--b", b])
    assert out1 == out2


def test_parallel_sum_rejects_indefinite(capsys, tmp_path):
    a = _write(tmp_path, "a.json", np.diag([1.0, -1.0]))
    b = _write(tmp_path, "b.json", np.eye(2))
    code, _ = _run(capsys, ["parallel-sum", "--a", a, "--b", b])
    assert code == 2


def test_parallel_eq(capsys, tmp_path):
    a = _write(tmp_path, "a.json", np.eye(3))
    b = _write(tmp_path, "b.json", np.eye(3))
    code, payload = _run_json(capsys, ["parallel-eq", "--a", a, "--b", b])
    assert code == 0
    assert payload["norm"] == pytest.approx(0.5, abs=1e-12)
    x = np.array(payload["X"]["data"])[:, 0].reshape(3, 3)
    assert np.allclose(x, np.eye(3) / 2.0, atol=1e-12)
    assert payload["diagnostics"]["equation_residual"] <= 1e-10


def test_hansen_probe_mode_deterministic(capsys, tmp_path):
    a = _write(tmp_path, "a.json", [[2.0, 1.0], [1.0, 1.0]])
    b = _write(tmp_path, "b.json", np.eye(2))
    argv = ["hansen-check", "--a", a, "--b", b, "--probes", "50", "--seed", "7"]
    code, out1 = _run(capsys, argv)
    _, out2 = _run(capsys, argv)
    assert code == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["mode"] == "probes"
    assert payload["probes"] == 50
    assert payload["seed"] == 7
    assert payload["lambda_min_worst"] >= -1e-8 * 4.0


def test_hansen_probe_mode_computes_the_parallel_sum_once(capsys, tmp_path, monkeypatch):
    # the probes share one validation and one A : B, and the worst value is
    # the very float that one public call per probe gives
    n, probes, seed = 5, 20, 3
    x = RNG.standard_normal((n, 3)) + 1j * RNG.standard_normal((n, 3))
    a = _write(tmp_path, "a.json", x @ x.conj().T)  # singular PSD
    b = _write(tmp_path, "b.json", np.diag(np.arange(1.0, n + 1.0)))
    calls = []
    real = parallel._parallel_core

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(parallel, "_parallel_core", counting)
    argv = ["hansen-check", "--a", a, "--b", b, "--probes", str(probes), "--seed", str(seed)]
    code, payload = _run_json(capsys, argv)
    assert code == 0
    assert calls == [(n, n)]

    am, bm = load_matrix(a), load_matrix(b)
    rng = np.random.default_rng(seed)
    worst = min(
        hansen_inequality_check(
            am, bm, (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
        )
        for _ in range(probes)
    )
    assert payload["lambda_min_worst"] == worst
    assert len(calls) == 1 + probes


def test_hansen_probe_mode_validates_once_with_the_same_errors(capsys, tmp_path):
    bad = _write(tmp_path, "bad.json", np.diag([1.0, -1.0]))
    good = _write(tmp_path, "good.json", np.eye(2))
    wide = _write(tmp_path, "wide.json", np.eye(3))
    for argv in (["--a", bad, "--b", good], ["--a", good, "--b", wide]):
        code, out = _run(capsys, ["hansen-check", *argv, "--probes", "5"])
        assert code == 2 and out == ""


def test_hansen_explicit_probe(capsys, tmp_path):
    a = _write(tmp_path, "a.json", np.eye(2))
    b = _write(tmp_path, "b.json", np.eye(2))
    c = _write(tmp_path, "c.json", np.eye(2) / 2.0)
    code, payload = _run_json(capsys, ["hansen-check", "--a", a, "--b", b, "--c", c])
    assert code == 0
    assert payload["mode"] == "explicit"
    # optimal probe: equality up to round-off
    assert abs(payload["lambda_min"]) <= 1e-12


def test_lemma69_command(capsys, tmp_path):
    x = _write(tmp_path, "x.json", np.eye(3))
    y = _write(tmp_path, "y.json", np.eye(3) / 2.0)
    code, payload = _run_json(capsys, ["lemma69", "--x", x, "--y", y])
    assert code == 0
    assert payload["lambda_min"] == pytest.approx(0.0, abs=1e-14)
    assert payload["equality_gap"] == pytest.approx(0.0, abs=1e-14)
    x2 = _write(tmp_path, "x2.json", np.diag([1.0, 0.0, 0.0]))
    code, _ = _run(capsys, ["lemma69", "--x", x2, "--y", y])
    assert code == 2


# --- lab -------------------------------------------------------------------------------------


def test_lab_sweep_csv(capsys, tmp_path):
    target = tmp_path / "sweep.csv"
    code, _ = _run(capsys, ["lab", "sweep", "--dims", "4,8", "--csv", str(target)])
    assert code == 0
    lines = target.read_text().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("d,norm_strong_solution")
    assert lines[1].split(",")[0] == "4"
    assert lines[2].split(",")[0] == "8"


def test_lab_sweep_deterministic(capsys):
    argv = ["lab", "sweep", "--dims", "4,8"]
    _, out1 = _run(capsys, argv)
    _, out2 = _run(capsys, argv)
    assert out1 == out2


def test_lab_sweep_rejects_bad_dims(capsys):
    code, _ = _run(capsys, ["lab", "sweep", "--dims", "8,4"])
    assert code == 2


def test_lab_flags_go_after_the_leaf(capsys):
    for flag, value in (("--tol", "1e-6"), ("--seed", "1"), ("--out", "x.csv")):
        code, out = _run(capsys, ["lab", flag, value, "sweep", "--dims", "2"])
        assert code == 2 and out == "", flag
    args = build_parser().parse_args(["lab", "sweep", "--tol", "1e-6"])
    assert args.tol == 1e-6
    code, _ = _run(capsys, ["lab", "sweep", "--dims", "2", "--tol", "1e-6"])
    assert code == 0


def test_lab_verify(capsys):
    code, payload = _run_json(capsys, ["lab", "verify", "--dim", "8"])
    assert code == 0
    _check_envelope(payload, "lab-verify")
    assert payload["passed"] is True
    assert payload["d"] == 8
    assert all(v <= 1e-9 for v in payload["residuals"].values())


# --- installed entry point ----------------------------------------------------------------


def test_console_script(tmp_path):
    # Installs this checkout's entry point into a throwaway environment under
    # tmp_path, so the script under test is this checkout's and nothing outside
    # tmp_path is touched. PYTHONPATH is dropped: with src on it, `develop`
    # skips writing easy-install.pth, and the script must run from the
    # installation alone.
    pytest.importorskip("setuptools")
    root = Path(__file__).resolve().parents[1]
    checkout = tmp_path / "checkout"
    shutil.copytree(
        root / "src",
        checkout / "src",
        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"),
    )
    for name in ("pyproject.toml", "README.md"):
        shutil.copy2(root / name, checkout / name)
    env_dir = tmp_path / "env"
    venv.create(env_dir, system_site_packages=True, with_pip=False)
    bin_dir = env_dir / ("Scripts" if sys.platform == "win32" else "bin")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    install = subprocess.run(
        [bin_dir / "python", "-c", "from setuptools import setup; setup()", "develop", "--no-deps"],
        cwd=checkout,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert install.returncode == 0, install.stderr
    exe = shutil.which("opshort", path=str(bin_dir))
    assert exe, "opshort console script was not installed"
    x = _write(tmp_path, "x.json", np.eye(2))
    y = _write(tmp_path, "y.json", np.eye(2) / 2.0)
    proc = subprocess.run(
        [exe, "lemma69", "--x", x, "--y", y],
        capture_output=True,
        env=env,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["lambda_min"] == pytest.approx(0.0, abs=1e-14)
