"""Command-line front end: report shapes, exit codes, idempotence.

Drives `main` in-process and captures stdout; subprocess cases cover
the module entry point, the package import and a closed stdout.  Error
paths must print a single JSON object {"error": {"kind": ..., "detail":
...}} and use the documented exit codes: 0 ok, 2 validation,
3 accuracy/divergence, 1 internal.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bergman_orlicz import bergman, lattice
from bergman_orlicz.cli import (EXIT_ACCURACY, EXIT_INTERNAL, EXIT_OK,
                                EXIT_VALIDATION, main)
from bergman_orlicz.errors import ParameterError

UNIT_SQUARE_V0 = ('{"density":{"kind":"valpha","alpha":0,'
                  '"support":{"box":[0,1,0,1]}}}')
PHI_T2 = '{"family":"power","p":2}'


def _run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def _child_env(**extra):
    """Environment for a child interpreter: pytest's `pythonpath` setting
    reaches only this process, so put the source tree on PYTHONPATH."""
    env = dict(os.environ, **extra)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


# ------------------------------------------------------------ basic reports
def test_gamma_matches_module(capsys):
    code, out = _run(capsys, ["gamma", "--delta", "0.5", "--no-meta"])
    assert code == EXIT_OK
    doc = json.loads(out)
    lo, hi = lattice.gamma_interval(0.5)
    assert doc["delta"] == 0.5
    assert abs(doc["lo"] - lo) < 1e-15
    assert abs(doc["hi"] - hi) < 1e-15
    assert abs(doc["midpoint"] - 0.5 * (lo + hi)) < 1e-15
    assert "meta" not in doc


def test_meta_block_present_by_default(capsys):
    code, out = _run(capsys, ["gamma", "--delta", "0.5", "--seed", "3"])
    doc = json.loads(out)
    assert code == EXIT_OK
    assert doc["meta"]["subcommand"] == "gamma"
    assert doc["meta"]["seed"] == 3
    assert "timestamp" in doc["meta"]


def test_no_meta_output_byte_identical(capsys):
    _, out1 = _run(capsys, ["gamma", "--delta", "0.3", "--no-meta"])
    _, out2 = _run(capsys, ["gamma", "--delta", "0.3", "--no-meta"])
    assert out1 == out2


def test_luxnorm_unit_square_flat_function(capsys):
    code, out = _run(capsys, [
        "luxnorm", "--phi", PHI_T2, "--measure", UNIT_SQUARE_V0,
        "--fn", '{"const":1.0}', "--no-meta"])
    assert code == EXIT_OK
    assert abs(json.loads(out)["value"] - 1.0) < 1e-8


def test_berezin_point_mass(capsys):
    code, out = _run(capsys, [
        "berezin", "--measure", '{"atomic":[[0.0,1.0,1.0]]}',
        "--at", "0,1", "--no-meta"])
    assert code == EXIT_OK
    assert abs(json.loads(out)["value"] - 1.0 / 16.0) < 1e-14


def test_lattice_report_json(capsys):
    code, out = _run(capsys, [
        "lattice", "--delta", "0.5", "--lmax", "4", "--jmax", "2",
        "--report", "auto", "--samples", "2000", "--no-meta"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["points_count"] == 9 * 5
    rep = doc["report"]
    assert rep["disjoint_ok"] is True
    assert rep["cover_fraction"] == 1.0


# ----------------------------------------------------------------- csv mode
def test_sample_csv_header_and_crlf(capsys):
    code, out = _run(capsys, [
        "sample", "--fn", '{"const":1.0}',
        "--lattice", '{"delta":0.5,"window":[2,1]}',
        "--format", "csv", "--no-meta"])
    assert code == EXIT_OK
    assert "\r\n" in out
    lines = out.split("\r\n")
    assert lines[0] == "l,j,re,im"
    assert len(lines) == 1 + 5 * 3 + 1  # header + rows + trailing newline


def test_gamma_csv_single_row(capsys):
    code, out = _run(capsys, ["gamma", "--delta", "0.5", "--format", "csv",
                              "--no-meta"])
    assert code == EXIT_OK
    lines = [ln for ln in out.split("\r\n") if ln]
    assert len(lines) == 2
    header = lines[0].split(",")
    values = lines[1].split(",")
    assert "midpoint" in header
    assert len(header) == len(values)


def test_atoms_experiment_csv_columns(capsys):
    code, out = _run(capsys, [
        "atoms-experiment", "--phi", PHI_T2, "--delta", "0.1",
        "--trials", "3", "--format", "csv", "--no-meta"])
    assert code == EXIT_OK
    assert out.split("\r\n")[0] == "trial,norm_mu,norm_F,ratio_synth,ratio_sample"


# -------------------------------------------------------------- round trips
def test_synthesize_single_atom_at_center(capsys):
    seq = '{"sequence":[[0,0,1.0,0.0]],"delta":0.5,"window":[2,1]}'
    code, out = _run(capsys, ["synthesize", "--seq", seq, "--at", "0,1",
                              "--no-meta"])
    assert code == EXIT_OK
    doc = json.loads(out)
    re_v, im_v = doc["value"]
    assert np.isfinite(re_v) and np.isfinite(im_v)


def test_decompose_reconstructs_atom_sum(capsys):
    # atoms at this window are nearly dependent, so coefficients need not
    # come back verbatim; the reconstruction must match as a function
    fn = ('{"atoms":{"sequence":[[0,0,1.0,0.0],[1,0,0.0,0.5]],'
          '"delta":0.5,"window":[2,1],"alpha":0.0}}')
    code, out = _run(capsys, [
        "decompose", "--fn", fn, "--lattice",
        '{"delta":0.5,"window":[2,1]}', "--no-meta"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["residual"] < 1e-6

    rows = json.dumps(doc["sequence"])
    seq0 = '{"sequence":[[0,0,1.0,0.0],[1,0,0.0,0.5]],"delta":0.5,"window":[2,1]}'
    seq1 = f'{{"sequence":{rows},"delta":0.5,"window":[2,1]}}'
    for at in ("0,1", "0.3,0.7", "0.5,2"):
        _, out0 = _run(capsys, ["synthesize", "--seq", seq0, "--at", at,
                                "--no-meta"])
        _, out1 = _run(capsys, ["synthesize", "--seq", seq1, "--at", at,
                                "--no-meta"])
        v0 = complex(*json.loads(out0)["value"])
        v1 = complex(*json.loads(out1)["value"])
        assert abs(v0 - v1) < 1e-5 * max(abs(v0), 1.0)


def test_embed_check_point_mass_verdict(capsys):
    code, out = _run(capsys, [
        "embed-check", "--phi1", PHI_T2,
        "--phi2", '{"family":"power","p":1}',
        "--measure", '{"atomic":[[0.0,1.0,1.0]]}',
        "--family", '{"kernels":4,"atoms":2}', "--no-meta"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["berezin_in_phi3"]["member"] is True
    assert doc["condition18"]["holds"] is True
    assert doc["test_family_size"] == 6


def test_comp_check_identity(capsys):
    code, out = _run(capsys, [
        "comp-check", "--mobius", "1,0,0,1", "--phi1", PHI_T2,
        "--phi2", PHI_T2, "--family", '{"kernels":4,"atoms":2}',
        "--no-meta"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["mobius"] == [1.0, 0.0, 0.0, 1.0]
    assert 0.9 < doc["empirical_ratio"] <= 1.0 + 1e-6


# --------------------------------------------------------------- exit codes
def _error_doc(out):
    doc = json.loads(out)
    assert set(doc) == {"error"}
    assert set(doc["error"]) == {"kind", "detail"}
    return doc["error"]


def test_unknown_subcommand_exits_2(capsys):
    code, out = _run(capsys, ["frobnicate"])
    assert code == EXIT_VALIDATION
    assert _error_doc(out)["kind"] == "ParameterError"


def test_malformed_inline_json_exits_2(capsys):
    code, out = _run(capsys, ["luxnorm", "--phi", "{bad", "--measure",
                              UNIT_SQUARE_V0, "--fn", '{"const":1}'])
    assert code == EXIT_VALIDATION
    assert _error_doc(out)["kind"] == "ParameterError"


def test_missing_input_file_exits_2(capsys, tmp_path):
    code, out = _run(capsys, [
        "luxnorm", "--phi", str(tmp_path / "nope.json"),
        "--measure", UNIT_SQUARE_V0, "--fn", '{"const":1}'])
    assert code == EXIT_VALIDATION
    assert _error_doc(out)["kind"] == "ParameterError"


def test_invalid_delta_exits_2(capsys):
    code, out = _run(capsys, ["gamma", "--delta", "1.5"])
    assert code == EXIT_VALIDATION
    assert _error_doc(out)["kind"] == "ParameterError"


def test_short_sequence_row_is_a_parameter_error(capsys):
    # --seq and the "atoms" analytic-fn variant share one row parser
    rows = {"sequence": [[0, 0, 1.0, 0.0], [1, 0, 0.5]],
            "delta": 0.5, "window": [2, 1]}
    with pytest.raises(ParameterError):
        bergman.fn_from_json({"atoms": rows})
    code, out = _run(capsys, ["synthesize", "--seq", json.dumps(rows),
                              "--at", "0,1"])
    assert code == EXIT_VALIDATION
    assert _error_doc(out)["kind"] == "ParameterError"


@pytest.mark.parametrize("spec", [
    {"sequence": [[1.6, 0, 1.0, 0.0]], "delta": 0.5, "window": [2, 1]},
    {"sequence": [[1, 0, 1.0, 0.0]], "delta": 0.5, "window": [2.5, 1]}])
def test_non_integral_sequence_index_is_a_parameter_error(capsys, spec):
    # neither an atom index nor a window bound is truncated to an int
    with pytest.raises(ParameterError):
        bergman.sequence_from_json(spec)
    code, out = _run(capsys, ["synthesize", "--seq", json.dumps(spec),
                              "--at", "0,1"])
    assert code == EXIT_VALIDATION
    assert _error_doc(out)["kind"] == "ParameterError"


def test_integral_float_indices_are_accepted(capsys):
    seq = bergman.sequence_from_json({"sequence": [[1.0, -1.0, 1.0, 0.0]],
                                      "delta": 0.5, "window": [2.0, 1.0]})
    assert [tuple(map(type, k)) for k in seq.entries] == [(int, int)]
    assert list(seq.entries) == [(1, -1)] and seq.lattice.window == (2, 1)
    for window, code_want in (("[2.0,1.0]", EXIT_OK),
                              ("[2.5,1]", EXIT_VALIDATION)):
        code, out = _run(capsys, [
            "sample", "--fn", '{"const":1.0}', "--lattice",
            f'{{"delta":0.5,"window":{window}}}', "--no-meta"])
        assert code == code_want
    assert _error_doc(out)["kind"] == "ParameterError"


def test_growth_spec_missing_key_exits_2(capsys):
    code, out = _run(capsys, [
        "atoms-experiment", "--phi",
        '{"family":"power_log","p":2,"q":1,"r":2}', "--delta", "0.5"])
    assert code == EXIT_VALIDATION
    err = _error_doc(out)
    assert err["kind"] == "ParameterError"
    assert "'a'" in err["detail"]


FN_G = '{"g":{"eps":1,"m":3}}'


def _lux(measure=UNIT_SQUARE_V0, fn=FN_G, phi=PHI_T2):
    return ["luxnorm", "--phi", phi, "--measure", measure, "--fn", fn]


def _sample(lattice):
    return ["sample", "--fn", FN_G, "--lattice", lattice]


def _atoms(extra):
    return _lux(fn='{"atoms":{"sequence":[[0,0,1,0]],%s}}' % extra)


@pytest.mark.parametrize("argv", [
    _lux('{"mobius":{"a":1,"b":0,"c":0}}'),
    _lux('{"density":{"support":{"disk":{"cx":0,"cy":1}}}}'),
    _lux(fn='{"g":{"eps":1}}'),
    _lux('{"atomic":[[0,1]]}'),
    _lux('{"density":{"support":{"box":[0,1,0]}}}'),
    _lux('{"density":{"support":{"box":["a",1,0,1]}}}'),
    _lux('{"atomic":[["a",1,1]]}'),
    _lux('{"atomic":5}'),
    _lux('{"atomic":[[0,1,true]]}'),
    _lux('{"mobius":{"a":1,"b":0,"c":0,"d":"1"}}'),
    _lux(fn='{"g":{"eps":"1","m":3}}'),
    _lux(phi='{"family":"power","p":"x"}'),
    _lux(phi='{"family":"power","p":null}'),
    _lux(phi='{"family":"power","p":true}'),
    _lux(phi='{"family":"power","p":2,"coef":"a"}'),
    _lux(phi='{"family":"power_log","p":2,"a":"1","c":2}'),
    _lux(phi='{"family":"power_transform",'
             '"base":{"family":"power","p":2},"s":"z"}'),
    _atoms('"gamma":"q"'),
    _atoms('"window":5'),
    _sample('{"delta":"x","window":[2,1]}'),
    _sample('{"delta":0.5,"window":[2,1],"gamma":"q"}'),
    _sample('{"delta":0.5,"window":5}'),
    _sample('{"delta":0.5,"window":[true,1]}'),
    _lux(fn='{"atoms":{"sequence":[[0,true,1,0]]}}'),
], ids=["mobius-no-d", "disk-no-s", "g-no-m", "atom-row-2", "box-3",
        "box-str", "atom-str", "atomic-int", "atom-bool", "mobius-str",
        "g-str", "p-str", "p-null", "p-bool", "coef-str", "a-str", "s-str",
        "atoms-gamma-str", "atoms-window-int", "lattice-delta-str",
        "lattice-gamma-str", "lattice-window-int", "lattice-window-bool",
        "atoms-index-bool"])
def test_malformed_wire_spec_exits_2(capsys, argv):
    code, out = _run(capsys, argv)
    assert code == EXIT_VALIDATION
    assert _error_doc(out)["kind"] == "ParameterError"


def test_verdicts_print_no_nan(capsys):
    # condition (18) fails for t^2 into t^3: its Dini integral diverges, so
    # it has no constant and membership is not decided; an atom-only family
    # has no kernels, so no boundary growth
    code, out = _run(capsys, [
        "embed-check", "--phi1", PHI_T2,
        "--phi2", '{"family":"power","p":3}',
        "--measure", '{"atomic":[[0.0,1.0,1.0]]}',
        "--family", '{"kernels":0,"atoms":2}', "--no-meta"])
    assert code == EXIT_OK and "nan" not in out and "inf" not in out
    doc = json.loads(out)
    assert doc["condition18"] == {
        "holds": False, "constant": None,
        "reason": "the Dini integral of condition (18) diverges"}
    assert doc["berezin_in_phi3"] == {"member": None, "lux_value": None,
                                      "reason": "condition (18) fails"}
    assert doc["boundary_growth"] is None
    code, out = _run(capsys, [
        "comp-check", "--mobius", "1,0,0,1", "--phi1", PHI_T2,
        "--phi2", '{"family":"power","p":3}',
        "--family", '{"kernels":2,"atoms":0}', "--no-meta"])
    assert code == EXIT_OK and "nan" not in out
    assert json.loads(out)["berezin_in_phi3"]["member"] is None


@pytest.mark.parametrize("window", ["2.5,1", "2", "a,1"])
def test_atoms_experiment_bad_window_exits_2(capsys, window):
    code, out = _run(capsys, ["atoms-experiment", "--phi", PHI_T2,
                              "--delta", "0.5", "--window", window])
    assert code == EXIT_VALIDATION
    assert _error_doc(out)["kind"] == "ParameterError"


def test_atoms_experiment_zero_trials_exits_2(capsys):
    code, out = _run(capsys, ["atoms-experiment", "--phi", PHI_T2,
                              "--delta", "0.5", "--trials", "0"])
    assert code == EXIT_VALIDATION
    assert _error_doc(out)["kind"] == "ParameterError"


def test_divergent_norm_exits_3(capsys):
    code, out = _run(capsys, [
        "luxnorm", "--phi", '{"family":"power","p":1}',
        "--fn", '{"kernel":{"wx":0.0,"wy":1.0,"alpha":0.0}}',
        "--measure", '{"density":{"kind":"valpha","alpha":0,'
                     '"support":"auto"}}'])
    assert code == EXIT_ACCURACY
    kind = _error_doc(out)["kind"]
    assert kind in ("DivergenceError", "NotInSpaceError")


# ----------------------------------------------------------- verify + files
def test_verify_beta_suite_passes(capsys):
    code, out = _run(capsys, ["verify", "--suite", "beta"])
    assert code == EXIT_OK
    assert out.startswith("PASS beta:")
    assert "1/1 criteria passed" in out


def test_verify_unknown_suite_exits_2(capsys):
    code, out = _run(capsys, ["verify", "--suite", "nonsense"])
    assert code == EXIT_VALIDATION
    assert _error_doc(out)["kind"] == "ParameterError"


def test_out_flag_writes_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, _ = _run(capsys, ["gamma", "--delta", "0.5", "--no-meta",
                            "--out", str(path)])
    assert code == EXIT_OK
    doc = json.loads(path.read_text())
    assert "midpoint" in doc


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "bergman_orlicz.cli", "gamma",
         "--delta", "0.5", "--no-meta"],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    assert "midpoint" in json.loads(proc.stdout)


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_closed_stdout_exits_without_traceback(unbuffered):
    # the reader is gone before the child has imported anything, so the
    # report hits a broken pipe: on its write when stdout is unbuffered,
    # on the flush otherwise
    proc = subprocess.Popen(
        [sys.executable, "-m", "bergman_orlicz.cli", "verify",
         "--suite", "beta"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=_child_env(PYTHONUNBUFFERED=unbuffered))
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert err == b""
    assert proc.returncode == EXIT_INTERNAL


def test_package_import_leaves_scipy_unloaded():
    # acceptance (and with it scipy.integrate) loads on first attribute use
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, bergman_orlicz as bo\n"
         "assert 'scipy' not in sys.modules, 'scipy loaded'\n"
         "assert 'acceptance' in bo.__all__\n"
         "assert bo.acceptance.run\n"
         "assert 'scipy' in sys.modules"],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
