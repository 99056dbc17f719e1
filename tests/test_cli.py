import json
import math
import os
from pathlib import Path
import subprocess
import sys

import pytest

from rank1spec import cli, direct, model
from rank1spec.model import TargetSpectrum

from conftest import finite_coeffs

SRC = str(Path(model.__file__).resolve().parents[1])


@pytest.fixture
def files(tmp_path, zspec):
    spec_path = tmp_path / "spec.json"
    coeffs_path = tmp_path / "coeffs.json"
    target_path = tmp_path / "target.json"
    model.dump_json(model.base_to_json(zspec), spec_path)
    model.dump_json(model.coefficients_to_json(finite_coeffs({0: 0.275, 1: 0.075})), coeffs_path)
    model.dump_json(model.target_to_json(TargetSpectrum(0, (0.25 + 0j, 1.1 + 0j))), target_path)
    return {"spec": spec_path, "coeffs": coeffs_path, "target": target_path, "dir": tmp_path}


def _run(argv):
    return cli.main([str(a) for a in argv])


def test_direct_writes_certified_spectrum(files):
    out = files["dir"] / "spectrum.json"
    code = _run(
        ["direct", "--spec", files["spec"], "--coeffs", files["coeffs"],
         "--trunc", 30, "--trunc-window", 8, "--out", out]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["certified"] is True
    zeros = {e["paired_index"]: complex(*e["mu"]) for e in doc["entries"]}
    assert abs(zeros[0] - 0.25) < 1e-9
    assert abs(zeros[1] - 1.1) < 1e-9


def test_direct_output_is_deterministic(files):
    out1 = files["dir"] / "s1.json"
    out2 = files["dir"] / "s2.json"
    for out in (out1, out2):
        _run(
            ["direct", "--spec", files["spec"], "--coeffs", files["coeffs"],
             "--trunc", 30, "--trunc-window", 8, "--out", out]
        )
    assert out1.read_bytes() == out2.read_bytes()


def test_quad_option_is_gone(files, capsys):
    # the order circles start from a fixed number of arcs and Newton stops by
    # its step sizes alone: --quad and direct's --tol are unknown options,
    # and LocalizeOptions takes neither quad nor tol
    for flag, value in (("--quad", 256), ("--tol", 1e-6)):
        with pytest.raises(SystemExit) as exc:
            _run(["direct", "--spec", files["spec"], "--coeffs", files["coeffs"], flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    with pytest.raises(TypeError):
        direct.LocalizeOptions(quad=256)
    with pytest.raises(TypeError):
        direct.LocalizeOptions(tol=1e-6)
    assert direct.LocalizeOptions().quad == direct.ARC_START


def test_uncertified_direct_exits_two(files, monkeypatch, capsys):
    monkeypatch.setattr(direct, "_rouche_rect", lambda cf, rect: (-1.0, False))
    code = _run(
        ["direct", "--spec", files["spec"], "--coeffs", files["coeffs"],
         "--trunc", 30, "--trunc-window", 8]
    )
    assert code == 2
    assert "NotCertified" in capsys.readouterr().err


def test_inverse_reports_residue_certificate(files, capsys):
    code = _run(["inverse", "--spec", files["spec"], "--target", files["target"]])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    cert = doc["certificate"]
    residues = {n: complex(*v) for n, v in cert["residues"]}
    assert abs(residues[0] - 0.275) < 1e-12
    assert abs(residues[1] - 0.075) < 1e-12
    assert cert["max_F_vs_product_discrepancy"] < 1e-12


def test_inverse_output_is_valid_coefficients_input(files, capsys):
    # the certificate written beside the coefficients is dropped on reading;
    # any other unknown field is still rejected
    coeffs = files["dir"] / "inverse.json"
    assert _run(["inverse", "--spec", files["spec"], "--target", files["target"], "--out", coeffs]) == 0
    out = files["dir"] / "spectrum.json"
    code = _run(
        ["direct", "--spec", files["spec"], "--coeffs", coeffs,
         "--trunc", 30, "--trunc-window", 8, "--out", out]
    )
    assert code == 0 and json.loads(out.read_text())["certified"] is True
    assert _run(["oracle", "--spec", files["spec"], "--coeffs", coeffs, "--n", 5]) == 0
    phi = ["inverse", "--spec", files["spec"], "--target", files["target"], "--fixed-phi", coeffs]
    assert _run(phi) == 0
    capsys.readouterr()
    doc = json.loads(coeffs.read_text())
    doc["extra_field"] = True
    coeffs.write_text(json.dumps(doc))
    assert _run(["oracle", "--spec", files["spec"], "--coeffs", coeffs, "--n", 5]) == 1
    assert "unknown fields ['extra_field']" in capsys.readouterr().err


def test_roundtrip_exit_codes(files, capsys):
    code = _run(
        ["roundtrip", "--spec", files["spec"], "--target", files["target"],
         "--trunc", 30, "--trunc-window", 8]
    )
    assert code == 0
    assert "max matched deviation" in capsys.readouterr().out
    # an unsatisfiable tolerance flips the exit code to 2
    code = _run(
        ["roundtrip", "--spec", files["spec"], "--target", files["target"],
         "--trunc", 30, "--trunc-window", 8, "--tol", "0"]
    )
    assert code == 2


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_roundtrip_rejects_a_tolerance_that_is_not_finite_or_is_negative(files, capsys, monkeypatch, tol):
    # --tol nan and --tol -1 printed "max matched deviation: 0.000e+00" and
    # exited 2, as if the target were missed; they are input errors now,
    # raised before anything is solved
    def refuse(*args):
        raise AssertionError("solved with an invalid --tol")

    monkeypatch.setattr(cli.inverse, "solve_inverse", refuse)
    monkeypatch.setattr(cli, "solve_direct", refuse)
    code = _run(["roundtrip", "--spec", files["spec"], "--target", files["target"], "--tol", tol])
    out, err = capsys.readouterr()
    assert code == 1 and not out
    assert err == f"InputError: --tol {float(tol)} must be finite and not negative\n"


def test_oracle_subcommand(files, capsys):
    code = _run(["oracle", "--spec", files["spec"], "--coeffs", files["coeffs"], "--n", 5])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["eigenvalues"]) == 11
    assert doc["trace_check"] < 1e-12
    reals = sorted(v[0] for v in doc["eigenvalues"])
    assert abs(reals[5] - 0.25) < 1e-9


def test_gallery_periodic(files, capsys):
    code = _run(["gallery", "--example", "periodic"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["index_set"] == "Z"
    assert doc["gap"] == 1.0


def test_gallery_harmonic_report(files, capsys):
    code = _run(["gallery", "--example", "harmonic", "--window", 150, "--report"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3
    assert "FAIL" not in out


def test_gallery_harmonic_report_fail_exits_two(files, monkeypatch, capsys):
    # a check that fails prints FAIL, writes the report and exits 2
    from rank1spec import gallery

    report = {"max_tan_residual": 0.0, "max_scaled_error_tail": 0.0, "log_fit_coefficient": 2.0}
    monkeypatch.setattr(gallery, "harmonic_report", lambda n_max: report)
    out = files["dir"] / "harmonic.json"
    assert _run(["gallery", "--example", "harmonic", "--window", 20, "--report", "--out", out]) == 2
    assert "log_growth_coefficient_in_range: FAIL" in capsys.readouterr().out
    assert json.loads(out.read_text())["report"]["log_fit_coefficient"] == 2.0


def test_gallery_reports_reject_windows_their_fit_cannot_use(files, capsys):
    # the power slope is fitted over n = 20..min(window, 200) and the
    # harmonic log growth over n = 10..window: fewer than two indices exit
    # 1 naming the class, before any solve and with no output file
    out = files["dir"] / "report.json"
    for example, window in (("power", 10), ("power", 20), ("harmonic", 5), ("harmonic", 10)):
        argv = ["gallery", "--example", example, "--window", window, "--report", "--out", out]
        assert _run(argv) == 1
        assert capsys.readouterr().err.startswith("WindowExceeded: the ")
        assert not out.exists()


def test_gallery_power_coefficients(files, capsys):
    code = _run(["gallery", "--example", "power", "--beta", 2.0, "--window", 20])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["a_tail"]["beta"] == 2.0
    assert len(doc["a_head"]["values"]) == 41


def test_gallery_report_output_is_valid_coefficients_input(files, capsys):
    # the report written beside the coefficients is dropped on reading, as
    # inverse's certificate is; any other unknown field is still rejected
    coeffs = files["dir"] / "power.json"
    assert _run(["gallery", "--example", "power", "--window", 30, "--report", "--out", coeffs]) == 0
    assert "report" in json.loads(coeffs.read_text())
    assert "PASS" in capsys.readouterr().out
    direct_argv = ["direct", "--spec", files["spec"], "--coeffs", coeffs, "--trunc", 80, "--trunc-window", 30]
    assert _run(direct_argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["certified"] is True
    doc = json.loads(coeffs.read_text())
    doc["extra_field"] = True
    coeffs.write_text(json.dumps(doc))
    assert _run(direct_argv) == 1
    assert "SchemaError" in capsys.readouterr().err


def test_invalid_json_exits_one(files, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = _run(["direct", "--spec", bad, "--coeffs", files["coeffs"]])
    assert code == 1


def test_schema_violation_exits_one(files, tmp_path, capsys):
    doc = json.loads(files["spec"].read_text())
    doc["extra_field"] = True
    bad = tmp_path / "extra.json"
    bad.write_text(json.dumps(doc))
    code = _run(["direct", "--spec", bad, "--coeffs", files["coeffs"]])
    assert code == 1
    assert "SchemaError" in capsys.readouterr().err


def test_gap_violation_exits_one(files, tmp_path, capsys):
    doc = json.loads(files["spec"].read_text())
    doc["gap"] = 5.0
    bad = tmp_path / "gap.json"
    bad.write_text(json.dumps(doc))
    code = _run(["direct", "--spec", bad, "--coeffs", files["coeffs"]])
    assert code == 1
    assert "GapViolation" in capsys.readouterr().err


def _write(path, doc):
    path.write_text(json.dumps(doc))  # NaN and Infinity as Python's json writes them
    return path


def test_rejected_inputs_exit_one_naming_their_error(files, tmp_path, capsys):
    bad = tmp_path / "bad"
    bad.mkdir()
    spec = json.loads(files["spec"].read_text())
    coeffs = json.loads(files["coeffs"].read_text())
    target = json.loads(files["target"].read_text())
    nspec = dict(spec, index_set="N", lambda_head={"offset": 1, "values": []})
    bad_specs = [
        ([], "SchemaError: BaseSpectrum: expected an object"),
        (dict(spec, gap=None), "SchemaError: BaseSpectrum: float() argument"),
        (dict(spec, gap=0.0), "GapViolation: declared gap"),
        (dict(spec, lambda_tail={"slope": math.inf, "intercept": 0.0}), "NonReal: tail parameters"),
        (dict(spec, lambda_head={"offset": 0, "values": [-1.5, 1.0]}), "NonMonotone: tail does not continue"),
    ]
    for doc, error in bad_specs:
        assert _run(["direct", "--spec", _write(bad / "spec.json", doc), "--coeffs", files["coeffs"]]) == 1
        assert capsys.readouterr().err.startswith(error)
    nan_head = dict(coeffs, b_head={"offset": 0, "values": [[0.275, 0.0], [math.nan, 0.0]]})
    nan_tail = {"beta": 1.0, "scale": math.nan, "phase": 0.0}
    slow_tail = {"beta": 0.52, "scale": 1.0, "phase": 0.0}  # c_n ~ |n|^-1.04: K_eps beyond any window
    far = {"offset": 10**12, "values": [[1.0, 0.0]]}  # validation once spanned it with arrays
    bad_coeffs = [
        (spec, nan_head, "SchemaError: b head contains non-finite"),
        (nspec, coeffs, "IndexMismatch: a head starts at 0"),
        (spec, dict(coeffs, a_tail=nan_tail, b_tail=nan_tail), "SchemaError: a tail scale and phase"),
        (spec, dict(coeffs, a_tail=slow_tail, b_tail=slow_tail), "WindowExceeded: K_eps exceeds 32000"),
        (spec, dict(coeffs, a_head=far, b_head=far), "WindowExceeded: coefficient head reaches index"),
        (spec, dict(coeffs, b_head=dict(coeffs["b_head"], offset=0.5)), "SchemaError: PerturbationCoefficients: an"),
    ]
    for spec_doc, doc, error in bad_coeffs:
        argv = ["direct", "--spec", _write(bad / "spec.json", spec_doc)]
        assert _run(argv + ["--coeffs", _write(bad / "coeffs.json", doc)]) == 1
        assert capsys.readouterr().err.startswith(error)
    nan_target = dict(target, nu_head={"offset": 0, "values": [[math.nan, 0.0]]})
    bad_targets = [
        (spec, nan_target, "SchemaError: target head contains non-finite"),
        (spec, dict(target, tail="zero"), "SchemaError: TargetSpectrum: tail must be"),
        (nspec, target, "IndexMismatch: target head starts below"),
        (spec, dict(target, nu_head=far), "WindowExceeded: target head reaches index"),
    ]
    for spec_doc, doc, error in bad_targets:
        argv = ["roundtrip", "--spec", _write(bad / "spec.json", spec_doc)]
        assert _run(argv + ["--target", _write(bad / "target.json", doc)]) == 1
        assert capsys.readouterr().err.startswith(error)
    # an output path that cannot be written: the temp file beside it goes too
    (bad / "taken").mkdir()
    argv = ["direct", "--spec", files["spec"], "--coeffs", files["coeffs"], "--trunc", 30, "--trunc-window", 8]
    assert _run(argv + ["--out", bad / "taken"]) == 1
    assert capsys.readouterr().err.startswith("InputError")
    assert not [p for p in bad.iterdir() if p.suffix == ".tmp"]


def test_non_finite_tail_exits_one_with_warnings_as_errors(files, tmp_path):
    # a fresh interpreter, so that PYTHONWARNINGS applies from its start: an
    # infinite scale once stopped on a RuntimeWarning traceback, and
    # a_0 = b_0 = 1e200, whose c_0 overflows, passed validation and stopped
    # the solve on an OverflowError
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    coeffs = json.loads(files["coeffs"].read_text())
    one = {"beta": 1.0, "scale": 1.0, "phase": 0.0}
    huge = {"offset": 0, "values": [[1e200, 0.0]]}
    finite = "tail scale and phase must be finite"
    for doc, error in (
        (dict(coeffs, a_tail=dict(one, scale=math.inf), b_tail=one), f"SchemaError: a {finite}"),
        (dict(coeffs, a_tail=one, b_tail=dict(one, phase=math.nan)), f"SchemaError: b {finite}"),
        (dict(coeffs, a_head=huge, b_head=huge), "NonSummable: sum |c_n| diverges"),
    ):
        argv = ["direct", "--spec", files["spec"], "--coeffs", _write(tmp_path / "bad.json", doc)]
        cmd = [sys.executable, "-m", "rank1spec.cli", *map(str, argv)]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr.startswith(error)


def test_fixed_phi_whose_b_is_not_finite_exits_one(files, tmp_path):
    # a_0 = nan and a_0 = 1e-310 once wrote b_0 = [NaN, NaN] and
    # [Infinity, NaN] with exit code 0; a fresh interpreter, so that
    # PYTHONWARNINGS applies from its start
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    coeffs = json.loads(files["coeffs"].read_text())
    for a_0 in (math.nan, 1e-310):
        phi = _write(tmp_path / "phi.json", dict(coeffs, a_head={"offset": 0, "values": [[a_0, 0.0], [1.0, 0.0]]}))
        out = tmp_path / "out.json"
        argv = ["inverse", "--spec", files["spec"], "--target", files["target"], "--fixed-phi", phi, "--out", out]
        cmd = [sys.executable, "-m", "rank1spec.cli", *map(str, argv)]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1 and not out.exists()
        assert proc.stderr.startswith("ZeroCoefficientObstruction: c_0 = ")
        assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr


def test_fixed_phi_output_is_valid_input_to_direct(files, tmp_path, capsys):
    # phi is the coefficients file, a = 1 on indices 0 and 1 and zero tails:
    # b's head once spanned |n| <= 1, with b_-1 = a_-1 = 0, and direct then
    # exited 1 (DegenerateIndex)
    out = tmp_path / "phi_coeffs.json"
    argv = ["inverse", "--spec", files["spec"], "--target", files["target"], "--fixed-phi", files["coeffs"]]
    assert _run(argv + ["--out", out]) == 0
    assert _run(["direct", "--spec", files["spec"], "--coeffs", out, "--trunc", 30, "--trunc-window", 8]) == 0
    entries = json.loads(capsys.readouterr().out)["entries"]
    zeros = [(round(e["mu"][0], 12), e["mu"][1], e["paired_index"]) for e in entries if e["origin"] == "zero_of_F"]
    assert sorted(zeros) == [(0.25, 0.0, 0), (1.1, 0.0, 1)]


def test_missing_file_exits_one(files):
    code = _run(["direct", "--spec", files["dir"] / "nope.json", "--coeffs", files["coeffs"]])
    assert code == 1


def test_a_target_moved_800_gaps_round_trips(files, tmp_path, capsys):
    # lambda_0 moved to 800.5 once ended in an OverflowError from the
    # residue cap; the round trip's window is 2402, whose comparison of
    # spectra pairs equal values before it assigns the rest
    target = _write(tmp_path / "far.json", model.target_to_json(TargetSpectrum(0, (800.5 + 0j,))))
    out = tmp_path / "far_coeffs.json"
    assert _run(["inverse", "--spec", files["spec"], "--target", target, "--out", out]) == 0
    assert json.loads(out.read_text())["certificate"]["residues"] == [[0, [800.5, 0.0]]]
    assert _run(["roundtrip", "--spec", files["spec"], "--target", target]) == 0
    assert capsys.readouterr().out.startswith("max matched deviation: ")


def test_an_eigensolve_failure_exits_one_naming_it(files, tmp_path, capsys):
    # the catch-all Rank1Error branch: c_0 = c_1 = 1 validate, but the dense
    # matrix's b_1 conj(a_0) = 1e400 overflows and the eigensolve fails
    tiny, huge = [1e-200, 0.0], [1e200, 0.0]
    doc = {
        "a_head": {"offset": 0, "values": [huge, tiny]},
        "a_tail": "zero",
        "b_head": {"offset": 0, "values": [tiny, huge]},
        "b_tail": "zero",
    }
    argv = ["oracle", "--spec", files["spec"], "--coeffs", _write(tmp_path / "cross.json", doc), "--n", 3]
    assert _run(argv) == 1
    assert capsys.readouterr().err.startswith("SolverFailure: ")
