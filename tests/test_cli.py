import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import venv
from pathlib import Path

import numpy as np
import pytest

from opshort import cli, hansen_inequality_check, load_matrix, make_kit, numkit, parallel, save_matrix, shorting
from opshort.numkit import matrix_from_json_dict
from opshort.cli import build_parser, dispatch

from _util import record_linalg, record_svd

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


def test_not_finite_from_the_library_exits_2(capsys, monkeypatch):
    # the loader rejects non-finite files itself; an operand that reaches the
    # library holding one gets NotFinite, an input error like the loader's
    bad = np.eye(3)
    bad[1, 2] = np.nan
    monkeypatch.setattr(cli, "load_matrix", lambda path: bad if path == "b" else np.eye(3))
    code = dispatch(["parallel-sum", "--a", "a", "--b", "b"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "opshort: B[1, 2] is not finite\n"


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


def test_import_adds_no_module_but_opshort_and_locale():
    # every command pays for `import opshort.cli` in a fresh process; past the
    # stdlib modules a CLI needs anyway and numpy, it may load only its own
    # modules and argparse's locale, so scipy or an eager hashlib shows here
    code = (
        "import numpy, argparse, json, dataclasses, sys\n"
        "before = set(sys.modules)\n"
        "import opshort.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, env=env, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "opshort.cli" in added
    assert {m for m in added if m.partition(".")[0] != "opshort"} <= {"__future__", "locale", "_locale"}


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


def _seeded_invocations(tmp_path):
    """argv of every JSON-emitting invocation on seeded 6x6 inputs."""
    rng = np.random.default_rng(2020)
    g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    h = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
    t = _write(tmp_path, "t.json", g)
    a = _write(tmp_path, "a.json", g @ g.conj().T)
    b = _write(tmp_path, "b.json", h @ h.conj().T)
    c = _write(tmp_path, "c.json", np.eye(6) / 2.0)
    p = _write(tmp_path, "p.json", np.diag([1.0, 1.0, 0.0, 0.0, 0.0, 0.0]))
    return [
        ["polar", "--input", t],
        ["polar", "--input", t, "--alpha", "0.3"],
        ["polar", "--input", t, "--alpha", "0.5", "--iterate", "2"],
        ["gpolar", "--input", t],
        ["v-op", "--input", t],
        ["reduced-solve", "--a", a, "--c", t],
        ["partition", "--input", t, "--pm", p, "--pn", p],
        ["shorted", "--input", t, "--pm", p, "--pn", p],
        ["parallel-sum", "--a", a, "--b", b],
        ["parallel-eq", "--a", a, "--b", b],
        ["hansen-check", "--a", a, "--b", b, "--probes", "3", "--seed", "5"],
        ["hansen-check", "--a", a, "--b", b, "--c", c],
        ["lemma69", "--x", a, "--y", b],
        ["lab", "verify", "--dim", "3"],
    ]


def test_stdout_bytes_match_an_encode_with_the_cycle_check(capsys, tmp_path):
    # the payload is encoded without json's cycle check; the bytes are those
    # the checked encoder gives for the same payload
    for argv in _seeded_invocations(tmp_path):
        code, out = _run(capsys, argv)
        assert code == 0 and out, argv
        again = json.dumps(json.loads(out), sort_keys=True, separators=(",", ":"), check_circular=True)
        assert out == again + "\n", argv


@pytest.mark.parametrize("flag, value", [("--seed", "-5"), ("--probes", "0"), ("--probes", "-1")])
def test_probe_flags_are_checked_before_any_file_is_read(capsys, tmp_path, monkeypatch, flag, value):
    a = _write(tmp_path, "a.json", np.eye(2))
    loads = []
    real = numkit.load_matrix
    for module in (numkit, cli):
        monkeypatch.setattr(module, "load_matrix", lambda path: loads.append(path) or real(path))
    code = dispatch(["hansen-check", "--a", a, "--b", a, flag, value])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"argument {flag}: must be an integer >= " in captured.err
    assert loads == []
    # the smallest accepted value reaches the loader
    code = dispatch(["hansen-check", "--a", a, "--b", a, flag, "0" if flag == "--seed" else "1"])
    assert code == 0 and loads == [a, a]


@pytest.mark.parametrize(
    "leaf, flag, value",
    [("polar", "--iterate", "0"), ("polar", "--iterate", "-2"), ("lab verify", "--dim", "0")],
)
def test_iterate_and_dim_are_checked_before_any_file_is_read(
    capsys, tmp_path, monkeypatch, leaf, flag, value
):
    t = _write(tmp_path, "t.json", np.eye(2))
    files = ["--input", t] if leaf == "polar" else []
    loads = []
    real = numkit.load_matrix
    for module in (numkit, cli):
        monkeypatch.setattr(module, "load_matrix", lambda path: loads.append(path) or real(path))
    code = dispatch(leaf.split() + files + [flag, value])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"argument {flag}: must be an integer >= 1, got {value}" in captured.err
    assert loads == []
    # the smallest accepted value reaches the loader
    code = dispatch(leaf.split() + files + [flag, "1"])
    assert code == 0 and loads == files[1:]


def _readme_keys(label):
    """The backquoted names of README's payload list item labelled ``label``."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    item = re.search(rf"^- {re.escape(label)}: (.*?)(?=^- |^$)", text, re.M | re.S)
    return set(re.findall(r"`([^`]+)`", item.group(1)))


# the README label of each polar mode's item
_POLAR_LABELS = {
    "classical": "`polar`",
    "generalized": "`polar --alpha` and `gpolar`",
    "iterate": "`polar --iterate`",
}


def test_payload_keys_are_the_readme_lists(capsys, tmp_path):
    commands = ("polar", "gpolar", "v-op", "parallel-sum", "parallel-eq")
    seen = set()
    for argv in _seeded_invocations(tmp_path):
        if argv[0] not in commands:
            continue
        code, payload = _run_json(capsys, argv)
        assert code == 0, argv
        keys = set(payload) - {"command", "version", "tol"}
        for name in ("residuals", "diagnostics"):
            keys |= set(payload.get(name, ()))
        label = _POLAR_LABELS.get(payload.get("mode"), f"`{argv[0]}`")
        assert keys == _readme_keys(label), argv
        seen.add(label)
    assert seen == set(_POLAR_LABELS.values()) | {"`v-op`", "`parallel-sum`", "`parallel-eq`"}


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


def test_polar_family_factors_t_once(capsys, tmp_path, monkeypatch):
    # U, |T|, |T*|, their powers, sigma_1, both range projectors and the
    # --iterate iterate all read one full SVD of T; no eigh of |T|, |T*| or
    # T*T remains.  The other SVD calls are the singular values behind each
    # opnorm residual.
    svd_calls = {"polar": 4, "polar --alpha": 5, "polar --alpha --iterate": 3, "gpolar": 5, "v-op": 4}
    for argv in _seeded_invocations(tmp_path):
        if argv[0] not in ("polar", "gpolar", "v-op"):
            continue
        t = load_matrix(argv[2])
        with monkeypatch.context() as patch:
            svds = record_svd(patch)
            eighs = record_linalg(patch, "eigh", lambda _: None)
            eigvalshs = record_linalg(patch, "eigvalsh", lambda _: None)
            code, _ = _run(capsys, argv)
        assert code == 0, argv
        full = [m for m, uv in svds if uv]
        assert len(full) == 1 and np.array_equal(full[0], t), argv
        flags = [a for a in argv if a in ("--alpha", "--iterate")]
        assert len(svds) == svd_calls.pop(" ".join([argv[0]] + flags)), argv
        assert eighs == [], argv
        assert eigvalshs == [], argv
    assert svd_calls == {}


def test_polar_family_residuals_read_one_rank_rule(capsys, tmp_path):
    # sigma_3 = 1e-11 lies above the rank cutoff 1e-12 but below the eigenvalue
    # clamp 1e-10: every residual must keep it or drop it with U
    rng = np.random.default_rng(23)
    q1, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    q2, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    f = _write(tmp_path, "t.json", (q1 * [1.0, 0.5, 1e-11]) @ q2.T)
    assert load_matrix(f).dtype == np.float64
    for argv in (["polar"], ["polar", "--alpha", "0.75"], ["gpolar", "--alpha", "0.25"], ["v-op"]):
        code, payload = _run_json(capsys, argv + ["--input", f])
        assert code == 0, argv
        for name, value in payload["residuals"].items():
            assert value <= 1e-14, (argv, name, value)


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


def test_shorted_cross_gap_is_the_results(capsys, tmp_path):
    # the payload's cross_gap is ShortedResult.cross_gap, the norm of the
    # very difference of cross products that shorted bounds
    argv = next(a for a in _seeded_invocations(tmp_path) if a[0] == "shorted")
    t, p = load_matrix(argv[2]), load_matrix(argv[4])
    result = shorting.shorted(shorting.partition(t, p, p))
    wd = result.witnesses
    gap = numkit.opnorm(wd.F.conj().T @ wd.E - wd.Ftilde.conj().T @ wd.Etilde)
    assert gap > 0.0
    assert result.cross_gap == gap
    code, payload = _run_json(capsys, argv)
    assert code == 0
    assert payload["cross_gap"] == gap


# --- parallel family -----------------------------------------------------------------------


def test_parallel_sum_scalars(capsys, tmp_path):
    a = _write(tmp_path, "a.json", [[2.0]])
    b = _write(tmp_path, "b.json", [[2.0]])
    code, payload = _run_json(capsys, ["parallel-sum", "--a", a, "--b", b])
    assert code == 0
    _check_envelope(payload, "parallel-sum")
    assert payload["value"]["data"] == [[1.0, 0.0]]
    assert set(payload["regularized"]) == {"0.0001", "1e-06"}


def test_parallel_sum_deterministic_bytes(capsys, tmp_path):
    a = _write(tmp_path, "a.json", [[2.0, 1.0], [1.0, 1.0]])
    b = _write(tmp_path, "b.json", np.eye(2))
    _, out1 = _run(capsys, ["parallel-sum", "--a", a, "--b", b])
    _, out2 = _run(capsys, ["parallel-sum", "--a", a, "--b", b])
    assert out1 == out2


def test_parallel_sum_rejects_indefinite(capsys, tmp_path):
    # exit 2 with parallel_sum's own message, whichever operand is indefinite
    good, indefinite = np.eye(2), np.diag([1.0, -1.0])
    for a, b in ((indefinite, good), (good, indefinite)):
        with pytest.raises(parallel.NotPSD) as exc:
            parallel.parallel_sum(a, b)
        argv = ["parallel-sum", "--a", _write(tmp_path, "a.json", a), "--b", _write(tmp_path, "b.json", b)]
        assert dispatch(argv) == 2
        assert capsys.readouterr().err == f"opshort: {exc.value}\n"


def test_parallel_sum_validates_a_and_b_once(capsys, tmp_path, monkeypatch, fresh_memo):
    # the handler makes one public parallel_sum call, whose result carries
    # the regularized trend, so A and B are validated once each; the payload
    # is the one the public result gives
    argv = next(a for a in _seeded_invocations(tmp_path) if a[0] == "parallel-sum")
    a, b = load_matrix(argv[2]), load_matrix(argv[4])
    assert cli.parallel_sum is parallel.parallel_sum
    sums = []
    monkeypatch.setattr(cli, "parallel_sum", lambda *args: sums.append(args) or parallel.parallel_sum(*args))
    validated = []
    real = parallel._hermitian
    monkeypatch.setattr(parallel, "_hermitian", lambda m, *rest: validated.append(m) or real(m, *rest))
    eigvalsh = record_linalg(monkeypatch, "eigvalsh", lambda _: None)
    code, payload = _run_json(capsys, argv)
    assert code == 0
    assert len(sums) == 1
    assert [m.tobytes() for m in validated] == [a.tobytes(), b.tobytes()]
    assert len(eigvalsh) == 2
    res = parallel.parallel_sum(a, b)  # after the handler's call, which it must not feed
    assert np.array_equal(matrix_from_json_dict(payload["value"]), res.value)
    assert payload["route_agreement"] == res.route_agreement
    assert payload["regularized"] == {str(eps): dev for eps, dev in res.regularized.items()}


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


def test_hansen_probe_mode_computes_the_parallel_sum_once(capsys, tmp_path, monkeypatch, fresh_memo):
    # the probes share one validation and one A : B, and the worst value is
    # the very float that one public call per probe gives; those calls read
    # the pair's analysis from the memo and compute no A : B of their own
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
    assert len(calls) == 1


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


def test_lemma69_rejects_y_mismatching_an_empty_x(capsys, tmp_path):
    x = _write(tmp_path, "x.json", np.zeros((0, 0)))
    y = _write(tmp_path, "y.json", np.eye(3))
    code = dispatch(["lemma69", "--x", x, "--y", y])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "opshort: Y must match X's shape (0, 0), got (3, 3)\n"


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


@pytest.mark.parametrize("dims", ["", ","])
def test_lab_sweep_rejects_empty_dims(capsys, dims):
    # an empty --dims is an error, not the default 8..256 sweep
    code = dispatch(["lab", "sweep", "--dims", dims])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "dims must be non-empty" in captured.err


@pytest.mark.parametrize("dims", ["8,,16", "8,", " ", "8,x", "8,1.5", "0,8", "-2"])
def test_lab_sweep_bad_dims_are_usage_errors_naming_the_flag(capsys, dims, monkeypatch):
    # empty items, non-integers and values below 1 fail in argparse, before
    # any row is computed
    monkeypatch.setattr(cli, "divergence_sweep", lambda *_: pytest.fail("sweep ran"))
    code = dispatch(["lab", "sweep", f"--dims={dims}"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"argument --dims: dims must be non-empty integers >= 1, got {dims!r}" in captured.err


@pytest.mark.parametrize("dims", ["16,8", "8,8"])
def test_lab_sweep_unordered_dims_are_usage_errors_naming_the_flag(capsys, dims, monkeypatch):
    monkeypatch.setattr(cli, "divergence_sweep", lambda *_: pytest.fail("sweep ran"))
    code = dispatch(["lab", "sweep", "--dims", dims])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"argument --dims: dims must be strictly ascending, got {dims!r}" in captured.err


def test_lab_sweep_dims_allow_spaces_around_items(capsys):
    assert build_parser().parse_args(["lab", "sweep", "--dims", "4, 8"]).dims == [4, 8]
    assert _run(capsys, ["lab", "sweep", "--dims", "4, 8"]) == _run(capsys, ["lab", "sweep", "--dims", "4,8"])


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
