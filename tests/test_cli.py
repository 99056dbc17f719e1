import json
import math
import os
from pathlib import Path
import subprocess
import sys

import pytest

from rank1spec import cli, direct, model
from rank1spec.model import TargetSpectrum

from conftest import finite_coeffs, settling_double_point

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


def _cli_process(argv, timeout=60):
    """The CLI in a fresh interpreter, so that PYTHONWARNINGS applies from
    its start, killed past timeout seconds."""
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "rank1spec.cli", *map(str, argv)]
    return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)


def _assert_entries_in_order(doc, window):
    # sorted by (re, im), multiplicities adding up to 2 window + 1, and no
    # index paired twice
    mu, paired = ([e[key] for e in doc["entries"]] for key in ("mu", "paired_index"))
    assert mu == sorted(mu) and len(set(paired)) == len(paired)
    assert sum(e["mult"] for e in doc["entries"]) == 2 * window + 1


def _assert_certificates_agree(*paths):
    # inverse, and inverse --fixed-phi on the coefficients it wrote: the same
    # residues, and |F - F~| at most 1e-12 over the samples of each
    certificates = [json.loads(path.read_text())["certificate"] for path in paths]
    assert certificates[0]["residues"] and certificates[0]["residues"] == certificates[1]["residues"]
    assert all(c["max_F_vs_product_discrepancy"] <= 1e-12 for c in certificates)


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
    _assert_entries_in_order(doc, 8)
    # c_0 = -c_1 = 0.45 puts the zeros 0.5 -+ 0.447i between the poles, where
    # neither disk certifies: the eigen-seeds, the arc walk and the
    # assignment of central zeros to indices run end to end
    pair = _write(files["dir"] / "pair.json", model.coefficients_to_json(finite_coeffs({0: 0.45, 1: -0.45})))
    assert _run(["direct", "--spec", files["spec"], "--coeffs", pair, "--out", out]) == 0
    _assert_entries_in_order(json.loads(out.read_text()), 50)
    # c_0 = 1.5, c_1 = 3e-17 puts a zero within an ulp of lambda_1, on the
    # far side of it from c_1: index 1's disk pairs it with 1, and the zero
    # near 1.5 goes to 0
    tiny = _write(files["dir"] / "tiny.json", model.coefficients_to_json(finite_coeffs({0: 1.5, 1: 3e-17})))
    assert _run(["direct", "--spec", files["spec"], "--coeffs", tiny, "--out", out]) == 0
    entries = json.loads(out.read_text())["entries"]
    zeros = [(round(e["mu"][0], 9), e["paired_index"]) for e in entries if e["origin"] == "zero_of_F"]
    assert sorted(zeros) == [(1.0, 1), (1.5, 0)]


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
    assert _run(["oracle", "--spec", files["spec"], "--coeffs", coeffs, "--n", 50, "--out", out]) == 0
    phi = files["dir"] / "phi.json"
    argv = ["inverse", "--spec", files["spec"], "--target", files["target"], "--fixed-phi", coeffs, "--out", phi]
    assert _run(argv) == 0
    _assert_certificates_agree(coeffs, phi)
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
    # with the default options: the target above; three points 1e-2 (1 + i)
    # apart, whose every order circle must certify; the triple point 1 + i/4
    cluster = (2.349236 - 0.101013j, 2.359236 - 0.091013j, 2.369236 - 0.081013j, 1.899736 + 0.001357j)
    for offset, nu, tol in ((0, (0.25, 1.1), 1e-10), (-4, cluster, 1e-6), (0, (1 + 0.25j,) * 3, 1e-10)):
        target = _target(files["dir"] / "default_options.json", offset, nu)
        assert _run(["roundtrip", "--spec", files["spec"], "--target", target, "--tol", tol]) == 0
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
    # the cap refuses the (200001)^2 matrix, where building it failed on a MemoryError
    assert _run(["oracle", "--spec", files["spec"], "--coeffs", files["coeffs"], "--n", 100000]) == 1
    assert capsys.readouterr().err.startswith("DimensionCap: ")


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
    # 1 naming the class, before any solve and with no output file.  At
    # beta = 6 the offsets n^-12 from n = 20 round to 0, whose log the fit
    # once took with a RuntimeWarning: that exits 1 after the solve
    out = files["dir"] / "report.json"
    cases = (("power", 10), ("power", 20), ("harmonic", 5), ("harmonic", 10), ("power", 30, "--beta", 6))
    for example, window, *beta in cases:
        argv = ["gallery", "--example", example, "--window", window, *beta, "--report", "--out", out]
        assert _run(argv) == 1
        assert capsys.readouterr().err.startswith("WindowExceeded: the ")
        assert not out.exists()


def test_gallery_power_coefficients(files, capsys):
    code = _run(["gallery", "--example", "power", "--beta", 2.0, "--window", 20])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["a_tail"]["beta"] == 2.0
    assert len(doc["a_head"]["values"]) == 41
    # beta = inf was written as Infinity, which is not JSON, and beta = 400
    # as a_200 = b_200 = 0, which direct rejects (DegenerateIndex)
    out = files["dir"] / "power.json"
    for beta in ("inf", 400):
        assert _run(["gallery", "--example", "power", "--beta", beta, "--window", 200, "--out", out]) == 1
        assert capsys.readouterr().err.startswith("BetaOutOfRange: beta ")
        assert not out.exists()


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
    _assert_entries_in_order(doc, 30)
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


def _target(path, offset, nu):
    return _write(path, model.target_to_json(TargetSpectrum(offset, tuple(nu))))


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
    far = {"offset": 10**12, "values": [[1.0, 0.0]]}  # validation once spanned it with arrays
    bad_coeffs = [
        (spec, nan_head, "SchemaError: b head contains non-finite"),
        (nspec, coeffs, "IndexMismatch: a head starts at 0"),
        (spec, dict(coeffs, a_tail=nan_tail, b_tail=nan_tail), "SchemaError: a tail scale and phase"),
        (spec, dict(coeffs, a_head=far, b_head=far), "WindowExceeded: coefficient head reaches index"),
        (spec, dict(coeffs, b_head=dict(coeffs["b_head"], offset=0.5)), "SchemaError: PerturbationCoefficients: an"),
        (spec, dict(coeffs, a_head=dict(coeffs["a_head"], offset=0.5)), "SchemaError: PerturbationCoefficients: an"),
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
    # an infinite scale once stopped on a RuntimeWarning traceback;
    # a_0 = b_0 = 1e200, whose c_0 overflows, passed validation and stopped
    # the solve on an OverflowError; c_n ~ |n|^-1.04 puts K_eps beyond any
    # window, where the solve once hung, and b_0 = 1e9 K' at 3e9, where it
    # asked for tens of GB: each exits within 60 s
    coeffs = json.loads(files["coeffs"].read_text())
    one = {"beta": 1.0, "scale": 1.0, "phase": 0.0}
    slow = {"beta": 0.52, "scale": 1.0, "phase": 0.0}
    huge = {"offset": 0, "values": [[1e200, 0.0]]}
    finite = "tail scale and phase must be finite"
    for doc, error in (
        (dict(coeffs, a_tail=dict(one, scale=math.inf), b_tail=one), f"SchemaError: a {finite}"),
        (dict(coeffs, a_tail=one, b_tail=dict(one, phase=math.nan)), f"SchemaError: b {finite}"),
        (dict(coeffs, a_head=huge, b_head=huge), "NonSummable: sum |c_n| diverges"),
        (dict(coeffs, a_tail=slow, b_tail=slow), "WindowExceeded: K_eps exceeds 32000"),
        (model.coefficients_to_json(finite_coeffs({0: 1e9})), "WindowExceeded: summation window 3000000009 "),
    ):
        proc = _cli_process(["direct", "--spec", files["spec"], "--coeffs", _write(tmp_path / "bad.json", doc)])
        assert proc.returncode == 1
        assert proc.stderr.startswith(error)


def test_a_subnormal_power_tail_c_n_exits_one_naming_it(files, tmp_path):
    # c_n = |n|^-251 (and |n|^-301) is subnormal at |n| = 19 (and 11), inside
    # the summation window: these solves once exited 2 (CertificationFailed),
    # and with RuntimeWarnings as errors stopped on the kernel's overflow
    one = {"beta": 1.0, "scale": 1.0, "phase": 0.0}
    doc = dict(json.loads(files["coeffs"].read_text()), a_head={"offset": 0, "values": [[1.0, 0.0]]}, a_tail=one)
    for beta, window, index in ((250.0, 30, -19), (300.0, 12, -11)):
        doc.update(b_head={"offset": 0, "values": [[0.3, 0.0]]}, b_tail=dict(one, beta=beta))
        argv = ["direct", "--spec", files["spec"], "--coeffs", _write(tmp_path / "subnormal.json", doc)]
        proc = _cli_process(argv + ["--trunc", 40, "--trunc-window", window])
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"DegenerateIndex: 0 < |c_n| < 2^-1022 at tail index {index}: ")


def test_fixed_phi_whose_b_is_not_finite_exits_one(files, tmp_path):
    # a_0 = nan and a_0 = 1e-310 once wrote b_0 = [NaN, NaN] and
    # [Infinity, NaN] with exit code 0
    coeffs = json.loads(files["coeffs"].read_text())
    for a_0 in (math.nan, 1e-310):
        phi = _write(tmp_path / "phi.json", dict(coeffs, a_head={"offset": 0, "values": [[a_0, 0.0], [1.0, 0.0]]}))
        out = tmp_path / "out.json"
        argv = ["inverse", "--spec", files["spec"], "--target", files["target"], "--fixed-phi", phi, "--out", out]
        proc = _cli_process(argv)
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


def test_a_target_moved_800_gaps_round_trips(files, tmp_path):
    # lambda_0 moved to 800.5 once ended in an OverflowError from the
    # residue cap; the round trip's window is 2402, whose comparison of
    # spectra pairs equal values before it assigns the rest, in
    # milliseconds where the dense matching took seconds: within 60 s
    target = _target(tmp_path / "far.json", 0, (800.5,))
    out = tmp_path / "far_coeffs.json"
    assert _run(["inverse", "--spec", files["spec"], "--target", target, "--out", out]) == 0
    assert json.loads(out.read_text())["certificate"]["residues"] == [[0, [800.5, 0.0]]]
    proc = _cli_process(["roundtrip", "--spec", files["spec"], "--target", target], timeout=60)
    assert proc.returncode == 0 and proc.stdout.startswith("max matched deviation: ")


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


def test_wide_and_settling_cases_finish_within_their_bounds(files, tmp_path):
    # every |n| <= 400 moved by 0.1i: 801 residues take many blocks of rows,
    # and inverse and --fixed-phi each certify within 30 s.  Over N from 1
    # with slope and gap s, the double point 7.4195 - 0.2145i of
    # test_newton_settles_beside_a_double_point round-trips within 20 s,
    # where its eigen-seeds once ran to Newton's 80-step cap
    wide = _target(tmp_path / "wide.json", -400, (n + 0.1j for n in range(-400, 401)))
    coeffs, phi = tmp_path / "coeffs.json", tmp_path / "phi.json"
    argv = ["inverse", "--spec", files["spec"], "--target", wide, "--out"]
    assert _cli_process(argv + [coeffs], timeout=30).returncode == 0
    assert _cli_process(argv + [phi, "--fixed-phi", coeffs], timeout=30).returncode == 0
    _assert_certificates_agree(coeffs, phi)
    spec, target, _ = settling_double_point()
    argv = ["roundtrip", "--spec", _write(tmp_path / "spec.json", model.base_to_json(spec))]
    argv += ["--target", _target(tmp_path / "settle.json", 1, target.nu_head)]
    assert _cli_process(argv, timeout=20).returncode == 0


def test_a_target_over_n_goes_through_inverse_direct_and_roundtrip(tmp_path, capsys):
    # over N from 1, a target that moves indices 1, 2 and 4 and keeps 3 on
    # lambda_3: inverse's check F = F~ takes a window that starts at the
    # index set's start, and direct and roundtrip give the target back
    spec = model.BaseSpectrum("N", 1, (), model.AffineTail(1.0, 0.0), 1.0)
    spec = _write(tmp_path / "nspec.json", model.base_to_json(spec))
    target = _target(tmp_path / "ntarget.json", 1, (1.5, 2.0 + 0.3j, 3.0, 4.6 - 0.2j))
    coeffs = tmp_path / "ncoeffs.json"
    assert _run(["inverse", "--spec", spec, "--target", target, "--out", coeffs]) == 0
    certificate = json.loads(coeffs.read_text())["certificate"]
    assert [n for n, _ in certificate["residues"]] == [1, 2, 4]
    assert certificate["max_F_vs_product_discrepancy"] <= 1e-12
    assert _run(["direct", "--spec", spec, "--coeffs", coeffs]) == 0
    entries = json.loads(capsys.readouterr().out)["entries"]
    zeros = [(*(round(x, 9) for x in e["mu"]), e["paired_index"]) for e in entries if e["origin"] == "zero_of_F"]
    assert sorted(zeros) == [(1.5, 0.0, 1), (2.0, 0.3, 2), (4.6, -0.2, 4)]
    assert _run(["roundtrip", "--spec", spec, "--target", target]) == 0
