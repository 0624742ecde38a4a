import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from finitegap import abel, cli, jacobi_cf, spectral_set
from finitegap.cli import main
from finitegap.errors import ValidationError
from finitegap.herglotz import Divisor
from finitegap.quad import DEFAULT_QTOL
from finitegap.spectral_set import GapSystem, sqrt_R_gap

ONE_GAP = {"band": [-2.0, 2.0], "gaps": [[-1.0, 1.0]]}
ONE_GAP_DIV = dict(ONE_GAP, divisor=[{"x": 0.3, "eps": 1}])
ONE_GAP_BOX = dict(ONE_GAP, box=[{"gap": 1, "a": -0.5, "b": 0.5, "eps": 1}])
TWO_GAP_DIV = {"band": [-2.0, 3.0], "gaps": [[-1.0, -0.3], [0.8, 1.6]],
               "divisor": [{"x": -0.6, "eps": 1}, {"x": 1.1, "eps": -1}]}
FREE = json.loads(
    (Path(__file__).resolve().parent.parent / "src/finitegap/fixtures/n0_free.json").read_text()
)


def run(capsys, argv, doc=None, tmp_path=None):
    """main on argv with doc as its input file: a str is written as it is, anything else
    through json.dumps."""
    if doc is not None:
        path = tmp_path / "in.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        argv = argv + ["--input", str(path)]
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv, doc=None, tmp_path=None):
    code, out = run(capsys, argv, doc, tmp_path)
    assert code == 0, out
    return json.loads(out)


class TestBasicCommands:
    def test_critical_symmetric(self, capsys, tmp_path):
        doc = run_json(capsys, ["critical"], ONE_GAP, tmp_path)
        assert doc["c"] == pytest.approx([0.0], abs=1e-12)
        assert doc["meta"]["precision"] == 128

    def test_green_at_gap_point(self, capsys, tmp_path):
        doc = run_json(capsys, ["green", "--z", "0,0"], ONE_GAP, tmp_path)
        assert doc["green"] == pytest.approx(np.log(np.sqrt(3.0)), abs=1e-10)

    def test_harmonic(self, capsys, tmp_path):
        doc = run_json(capsys, ["harmonic", "--k", "1", "--z", "1.5"], ONE_GAP, tmp_path)
        assert doc["omega"] == 1.0

    def test_harmonic_outside_the_set(self, capsys, tmp_path):
        two_gap = {"band": [-2.0, 3.0], "gaps": [[-1.0, -0.3], [0.8, 1.6]]}
        doc = run_json(capsys, ["harmonic", "--k", "1", "--z=4.0"], two_gap, tmp_path)
        assert doc["omega"] == pytest.approx(0.8413, abs=1e-4)

    def test_dos(self, capsys, tmp_path):
        doc = run_json(capsys, ["dos", "--z", "1.5"], ONE_GAP, tmp_path)
        assert 0.0 < doc["cdf"] < 1.0
        assert doc["frequencies"] == pytest.approx([0.5], abs=1e-10)

    @pytest.mark.parametrize("x, cdf", [("2", 1.0), ("-1", 0.5), ("1", 0.5), ("-2", 0.0)])
    def test_dos_at_a_band_end(self, capsys, tmp_path, x, cdf):
        # the cdf is well defined at a band end; the density is singular there, so it is
        # left out as at a gap point, and dos_density itself still refuses the point
        doc = run_json(capsys, ["dos", f"--z={x}"], ONE_GAP, tmp_path)
        assert doc["cdf"] == pytest.approx(cdf, abs=1e-12)
        assert doc["frequencies"] == pytest.approx([0.5], abs=1e-10)
        assert "density" not in doc
        with pytest.raises(ValidationError, match="integrable singularity"):
            spectral_set.dos_density(GapSystem.from_json(ONE_GAP), float(x))

    def test_resolvents(self, capsys, tmp_path):
        doc = run_json(capsys, ["resolvents", "--z", "0,2"], ONE_GAP_DIV, tmp_path)
        u = complex(*doc["u"])
        v = complex(*doc["v"])
        r = complex(*doc["r00"])
        assert abs(u + v + 1.0 / r) < 1e-12

    def test_resolvents_t_on_a_moved_set(self, capsys, tmp_path):
        # T(z) = half^(N+1) sum_k t_k ((z - mid) / half)^k meets T(x_j) = eps_j sqrt(R)(x_j)
        # on a set moved by 1e3, where raw monomial coefficients missed by 4e-7
        shifted = {"band": [998.0, 1003.0], "gaps": [[999.0, 999.7], [1000.8, 1001.6]],
                   "divisor": [{"x": 999.4, "eps": 1}, {"x": 1001.1, "eps": -1}]}
        doc = run_json(capsys, ["resolvents"], shifted, tmp_path)
        mid, half = doc["frame"]
        gs = GapSystem.from_json(shifted)
        for j, p in enumerate(shifted["divisor"], start=1):
            x = p["x"]
            t = half ** 3 * np.polynomial.polynomial.polyval((x - mid) / half, doc["t_centred"])
            assert abs(t - p["eps"] * sqrt_R_gap(gs, j, x)) < 1e-10

    def test_coeffs_free(self, capsys, tmp_path):
        doc = run_json(
            capsys,
            ["coeffs", "--from", "-5", "--to", "5"],
            {"band": [-2.0, 2.0], "gaps": [], "divisor": []},
            tmp_path,
        )
        assert doc["p"] == pytest.approx([1.0] * 11, abs=1e-12)
        assert doc["q"] == pytest.approx([0.0] * 11, abs=1e-12)

    def test_coeffs_csv(self, capsys, tmp_path):
        code, out = run(
            capsys,
            ["coeffs", "--from", "0", "--to", "2", "--csv"],
            {"band": [-2.0, 2.0], "gaps": [], "divisor": []},
            tmp_path,
        )
        assert code == 0
        assert out.splitlines()[0] == "n,p,q"

    def test_coeffs_csv_bytes(self, capsys, tmp_path):
        # --csv writes its own text, not through the JSON encoder: these bytes are pinned
        code, out = run(capsys, ["coeffs", "--from", "-2", "--to", "3", "--csv"], TWO_GAP_DIV,
                        tmp_path)
        assert code == 0 and out == (
            "n,p,q\n"
            "-2,1.5203633696305836,0.017471931311770807\n"
            "-1,0.987526565369241,0.8490832812971938\n"
            "0,1.3288052563671569,0.5500000000000002\n"
            "1,1.2729990536724742,-0.015617593947123918\n"
            "2,1.148196894116377,1.2481516298168134\n"
            "3,1.1861897520656868,-0.07459684893858481\n")

    def test_transfer(self, capsys, tmp_path):
        doc = run_json(capsys, ["transfer", "--z", "0.3,0.9", "--n", "4"], ONE_GAP_DIV, tmp_path)
        assert complex(*doc["det"]) == pytest.approx(1.0, abs=1e-10)
        assert doc["cd_residual"] < 1e-8

    def test_transfer_on_the_real_line(self, capsys, tmp_path):
        doc = run_json(capsys, ["transfer", "--z", "0.5"], ONE_GAP_DIV, tmp_path)
        assert doc["z"] == [0.5, 0.0] and doc["n"] == 5
        assert doc["j_unitarity_residual"] < 1e-8
        assert "cd_residual" not in doc

    @pytest.mark.parametrize("z", ["0.3,0.9", "0.5", "0.5,-0.4"])
    def test_transfer_reports_the_public_residuals(self, capsys, tmp_path, monkeypatch, z):
        # the command looks transfer_matrix and its residual up on the module at call
        # time, as a wrapper installed there sees them; below the real line the j-form
        # is read at Re z
        calls = []

        def spy(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)

            return wrapper

        for name in ("transfer_matrix", "cd_residual", "j_unitarity_residual"):
            monkeypatch.setattr(jacobi_cf, name, spy(name, getattr(jacobi_cf, name)))
        doc = run_json(capsys, ["transfer", "--z", z, "--n", "4"], TWO_GAP_DIV, tmp_path)
        monkeypatch.undo()
        zc = complex(*doc["z"])
        residual = "cd_residual" if zc.imag > 0 else "j_unitarity_residual"
        assert calls[0] == "transfer_matrix" and residual in calls
        gs, d = GapSystem.from_json(TWO_GAP_DIV), Divisor.from_json(TWO_GAP_DIV)
        seg = jacobi_cf.coefficients(gs, d, 0, 5)
        assert [[complex(*v) for v in row] for row in doc["matrix"]] == \
            jacobi_cf.transfer_matrix(seg, zc, 4).tolist()
        if zc.imag > 0:
            assert doc["cd_residual"] == jacobi_cf.cd_residual(seg, zc, 4)
        else:
            assert doc["j_unitarity_residual"] == jacobi_cf.j_unitarity_residual(seg, zc.real, 4)

    def test_document_from_standard_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(ONE_GAP)))
        code, out = run(capsys, ["critical"])
        assert code == 0
        assert json.loads(out)["c"] == pytest.approx([0.0], abs=1e-12)


class TestTorusCommands:
    def test_abel_invert_roundtrip(self, capsys, tmp_path):
        doc = run_json(capsys, ["abel"], ONE_GAP_DIV, tmp_path)
        alpha = doc["alpha"]
        inv = run_json(capsys, ["invert"], dict(ONE_GAP, alpha=alpha), tmp_path)
        assert inv["divisor"][0]["x"] == pytest.approx(0.3, abs=1e-7)
        assert inv["residual"] < 1e-9

    def test_shift_check(self, capsys, tmp_path):
        doc = run_json(capsys, ["shift-check", "--steps", "3"], ONE_GAP_DIV, tmp_path)
        assert doc["residual"] < 1e-6

    def test_kernel0(self, capsys, tmp_path):
        doc = run_json(capsys, ["kernel0"], ONE_GAP_DIV, tmp_path)
        assert doc["delta0_sq"] - 1e-12 <= doc["k0"] <= 1.0 + 1e-12

    def test_measure_and_mc(self, capsys, tmp_path):
        doc = dict(ONE_GAP, box=[{"gap": 1, "a": -0.5, "b": 0.5, "eps": 1}])
        det = run_json(capsys, ["measure"], doc, tmp_path)["measure"]
        mc = run_json(
            capsys, ["measure-mc", "--mc-samples", "20000", "--seed", "5"], doc, tmp_path
        )
        assert abs(mc["estimate"] - det) <= 3.0 * mc["stderr"]
        assert mc["seed"] == 5

    @pytest.mark.parametrize("argv, extra, expected", [
        (["abel"], {}, {"alpha": []}),
        (["invert"], {"alpha": []}, {"divisor": [], "residual": 0.0}),
        (["kernel0"], {}, {"k0": 1.0, "delta0": 1.0}),
        (["measure"], {"box": []}, {"measure": 1.0}),
        (["measure-mc"], {}, {"estimate": 1.0, "stderr": 0.0}),
        (["shift-check"], {}, {"residual": 0.0}),
        (["dos", "--z", "0"], {}, {"cdf": pytest.approx(0.5, abs=1e-15), "frequencies": []}),
        (["comb"], {}, {"teeth": []}),
        (["critical"], {}, {"c": [], "h": []}),
    ], ids=["abel", "invert", "kernel0", "measure", "measure-mc", "shift-check", "dos", "comb",
            "critical"])
    def test_free_set(self, capsys, tmp_path, argv, extra, expected):
        # with no gaps the torus is a point: every command returns its N = 0 value
        doc = run_json(capsys, argv, dict(FREE, **extra), tmp_path)
        assert {k: doc[k] for k in expected} == expected


# (argv, input, whether the command reads the critical points)
SOLVE_CASES = [
    (["harmonic", "--z", "0.3"], ONE_GAP, False),
    (["abel"], ONE_GAP_DIV, False),
    (["invert"], dict(ONE_GAP, alpha=[0.3]), False),
    (["measure"], ONE_GAP_BOX, False),
    (["measure-mc", "--mc-samples", "200"], ONE_GAP_BOX, False),
    (["critical"], ONE_GAP, True),
    (["green", "--z", "0.3"], ONE_GAP, True),
    (["dos", "--z", "1.5"], ONE_GAP, True),
    (["kernel0"], ONE_GAP_DIV, True),
    (["comb"], ONE_GAP, True),
    (["shift-check"], ONE_GAP_DIV, True),
]


@pytest.mark.parametrize("argv, doc, solves", [pytest.param(*c, id=c[0][0]) for c in SOLVE_CASES])
def test_critical_points_solved_only_where_read(capsys, tmp_path, argv, doc, solves):
    # harmonic measures, the Abel map and the invariant measure depend on E alone; the
    # cache entry of the set stores its critical points once any reader solves them
    spectral_set._harmonic_poly_coeffs.cache_clear()
    run_json(capsys, argv, doc, tmp_path)
    entry = spectral_set._harmonic_poly_coeffs(GapSystem.from_json(doc), DEFAULT_QTOL)
    assert ("critical_points" in vars(entry)) == solves


class TestCombCommands:
    def test_forward_and_inverse(self, capsys, tmp_path):
        fwd = run_json(capsys, ["comb"], ONE_GAP, tmp_path)
        assert fwd["teeth"][0]["omega"] == pytest.approx(0.5, abs=1e-10)
        inv_doc = {"teeth": fwd["teeth"], "tail_bound": 0.0,
                   "bracket": {"band": [-2.0, 2.0], "gaps": [[-0.8, 0.9]]}}
        inv = run_json(capsys, ["comb"], inv_doc, tmp_path)
        assert inv["gaps"][0] == pytest.approx([-1.0, 1.0], abs=1e-7)

    def test_inverse_does_not_read_qtol(self, capsys, tmp_path):
        # the inverse runs its inner solves at comb._INNER_QTOL; --qtol sets
        # the forward map only
        doc = {"teeth": [{"omega": 0.3, "h": 0.4}], "tail_bound": 0.0,
               "bracket": {"band": [-2.0, 2.0], "gaps": [[-0.5, 0.5]]}}
        loose = run_json(capsys, ["comb", "--qtol", "1e-4"], doc, tmp_path)
        assert loose["meta"]["qtol"] == 1e-4
        assert loose["gaps"] == run_json(capsys, ["comb"], doc, tmp_path)["gaps"]

    def test_truncate(self, capsys, tmp_path):
        doc = {"teeth": [{"omega": 0.3, "h": 0.5}, {"omega": 0.6, "h": 0.05}], "tail_bound": 0.0}
        out = run_json(capsys, ["truncate", "--n", "10"], doc, tmp_path)
        assert out["teeth"] == [{"omega": 0.3, "h": pytest.approx(0.4)}]


# one run of each subcommand that writes JSON
JSON_CASES = [
    (["critical"], ONE_GAP),
    (["green", "--z", "0.3,0.2"], ONE_GAP),
    (["harmonic", "--k", "1", "--z", "0.3"], ONE_GAP),
    (["dos", "--z", "1.5"], ONE_GAP),
    (["resolvents"], ONE_GAP_DIV),
    (["coeffs", "--from", "-3", "--to", "4"], TWO_GAP_DIV),
    (["transfer", "--n", "4"], TWO_GAP_DIV),
    (["abel"], ONE_GAP_DIV),
    (["invert"], dict(ONE_GAP, alpha=[0.3])),
    (["shift-check"], ONE_GAP_DIV),
    (["kernel0"], ONE_GAP_DIV),
    (["measure"], ONE_GAP_BOX),
    (["measure-mc", "--mc-samples", "200"], ONE_GAP_BOX),
    (["comb"], ONE_GAP),
    (["truncate", "--n", "10"], {"teeth": [{"omega": 0.3, "h": 0.5}], "tail_bound": 0.0}),
    (["verify"], None),
]


def _strict_json(out):
    """json.loads that rejects NaN and +-Infinity, which are not JSON."""
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(out, parse_constant=reject)


def _edge_doc(band, gaps, divisor, **extra):
    """A document that every subcommand reads: the set, its divisor, the character 1/4 and a
    box over each whole gap, plus extra."""
    return dict({"band": band, "gaps": gaps, "divisor": [{"x": x, "eps": e} for x, e in divisor],
                 "alpha": [0.25] * len(gaps),
                 "box": [{"gap": j, "a": a, "b": b, "eps": 1} for j, (a, b) in enumerate(gaps, 1)]},
                **extra)


EDGE_DOCS = {
    "one-gap-end": _edge_doc([-2.0, 2.0], [[-1.0, 1.0]], [(-1.0, -1)]),
    "two-gap-ends": _edge_doc([-2.0, 3.0], [[-1.0, -0.3], [0.8, 1.6]], [(-1.0, -1), (1.6, -1)]),
    "band-1e300": _edge_doc([-1e300, 1e300], [[-1.0, 1.0]], [(0.0, 1)]),
    "shift-1e15": _edge_doc([1e15 - 2, 1e15 + 2], [[1e15 - 1, 1e15 + 1]], [(1e15 + 0.25, -1)]),
    "zero-teeth": _edge_doc([-2.0, 2.0], [], [], teeth=[],
                            bracket={"band": [-2.0, 2.0], "gaps": []}),
}


def _edge_argvs(doc):
    """Every subcommand on doc: those with an evaluation point at the default, at each
    branch point and far out, and the rest once."""
    ends = [doc["band"][0], doc["band"][1]] + [e for g in doc["gaps"] for e in g]
    zs = [[]] + [[f"--z={x!r}"] for x in ends] + [["--z=1e200,1"], ["--z=-1e200,0"]]
    point = [["green"], ["harmonic", "--k", "1"], ["dos"], ["resolvents"], ["transfer", "--n", "3"]]
    rest = [["critical"], ["coeffs", "--from", "-2", "--to", "2"], ["abel"], ["invert"],
            ["shift-check"], ["kernel0"], ["measure"], ["measure-mc", "--mc-samples", "100"],
            ["comb"], ["truncate", "--n", "3"]]
    return [cmd + z for cmd in point for z in zs] + rest


class TestContract:
    # numpy's RuntimeWarnings on the non-finite values go to stderr; the contract is the
    # exit code and stdout
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("name", EDGE_DOCS)
    def test_edge_documents_exit_0_2_or_3_with_strict_json(self, capsys, tmp_path, name):
        doc = EDGE_DOCS[name]
        for argv in _edge_argvs(doc):
            code, out = run(capsys, argv, doc, tmp_path)
            assert code in (0, 2, 3), argv
            if code == 0:
                assert isinstance(_strict_json(out), dict), argv
            else:
                assert out == "", argv

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("argv", [["resolvents", "--z", "1"], ["transfer", "--z=1e200,1"]],
                             ids=["resolvents-at-a-branch-point", "transfer-far"])
    def test_non_finite_result_exit_3(self, capsys, tmp_path, argv):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(ONE_GAP_DIV))
        assert main(argv + ["--input", str(path)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "numeric failure" in err

    @pytest.mark.parametrize("argv", [["coeffs"], ["transfer"], ["resolvents", "--z=1,0"]],
                             ids=["coeffs", "transfer", "resolvents"])
    def test_overflow_exit_3(self, capsys, tmp_path, argv):
        code, out = run(capsys, argv, EDGE_DOCS["band-1e300"], tmp_path)
        assert code == 3 and out == ""

    def test_comb_with_no_teeth_is_the_bare_band(self, capsys, tmp_path):
        doc = {"teeth": [], "bracket": {"band": [-2, 2], "gaps": []}}
        out = run_json(capsys, ["comb"], doc, tmp_path)
        assert {k: out[k] for k in ("band", "gaps")} == {"band": [-2.0, 2.0], "gaps": []}

    @pytest.mark.parametrize("argv, doc", [pytest.param(*c, id=c[0][0]) for c in JSON_CASES
                                           if c[0][0] != "coeffs"])
    def test_csv_outside_coeffs_exit_2(self, capsys, tmp_path, argv, doc):
        code, out = run(capsys, argv + ["--csv"], doc, tmp_path)
        assert code == 2 and out == ""

    def test_malformed_input_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["critical", "--input", str(path)]) == 2

    @pytest.mark.parametrize("raw", [b"\xff\xfe{}", b"[" * 100000],
                             ids=["not-utf-8", "nested-too-deep"])
    def test_undecodable_input_exit_2(self, capsys, tmp_path, raw):
        path = tmp_path / "bad.json"
        path.write_bytes(raw)
        assert main(["critical", "--input", str(path)]) == 2
        assert capsys.readouterr().out == ""

    def test_missing_field_exit_2(self, capsys, tmp_path):
        code, _ = run(capsys, ["critical"], {"gaps": []}, tmp_path)
        assert code == 2

    def test_thin_gap_band_masses_exit_3_alone(self, capsys, tmp_path):
        # the critical points of this set converge and its band masses do not: only the
        # commands that read the masses fail
        doc = {"band": [-2.0, 2.0], "gaps": [[1.5698628375269088, 1.56986283780736]]}
        assert run(capsys, ["critical"], doc, tmp_path)[0] == 0
        assert run(capsys, ["green", "--z", "0.3"], doc, tmp_path)[0] == 0
        assert run(capsys, ["dos", "--z", "0"], doc, tmp_path)[0] == 3

    def test_numeric_failure_exit_3(self, capsys, tmp_path):
        # inverse comb problem with an unreachable target comb
        doc = {"teeth": [{"omega": 0.5, "h": 50.0}], "tail_bound": 0.0,
               "bracket": {"band": [-2.0, 2.0], "gaps": [[-0.5, 0.5]]}}
        code, _ = run(capsys, ["comb"], doc, tmp_path)
        assert code == 3

    @pytest.mark.parametrize("argv, doc", [
        (["measure-mc", "--mc-samples", "0"], ONE_GAP_BOX),
        (["measure-mc", "--mc-samples", "-5"], ONE_GAP_BOX),
        (["measure-mc", "--mc-samples", str(10**400)], ONE_GAP_BOX),
        (["measure-mc", "--mc-samples", "10", "--seed", "-1"], ONE_GAP_BOX),
        (["verify", "--seed", "-1"], None),
        (["critical", "--qtol", "inf"], ONE_GAP),
        (["critical", "--qtol", "nan"], ONE_GAP),
        (["shift-check", "--steps", "-3"], ONE_GAP_DIV),
        (["green", "--z=nan"], ONE_GAP),
        (["harmonic", "--k", "1", "--z=nan"], ONE_GAP),
        (["dos", "--z=nan"], ONE_GAP),
        (["resolvents", "--z=nan"], ONE_GAP_DIV),
        (["transfer", "--n", "8", "--z=nan"], ONE_GAP_DIV),
        (["green", "--z=0,inf"], ONE_GAP),
        (["green"], ONE_GAP),
        (["green", "--z=abc"], ONE_GAP),
        (["harmonic", "--k", "1", "--z", "1,1"], ONE_GAP),
        (["dos", "--z", "0,1"], ONE_GAP),
        (["truncate"], {"teeth": [{"omega": 0.3, "h": 0.4}], "tail_bound": 0.0}),
        (["green", "--z=1,2,3"], ONE_GAP),
        (["green", "--z=1,2,"], ONE_GAP),
        (["resolvents", "--z=0.1,0.2,0.3"], ONE_GAP_DIV),
        (["coeffs", "--to", str(10**400)], ONE_GAP_DIV),
        (["coeffs", "--from", str(-10**400), "--to", "3"], ONE_GAP_DIV),
        (["shift-check", "--steps", str(10**400)], ONE_GAP_DIV),
        (["transfer", "--n", str(10**400)], ONE_GAP_DIV),
        (["truncate", "--n", str(10**400)], {"teeth": [{"omega": 0.3, "h": 0.4}]}),
    ], ids=["samples-0", "samples-negative", "samples-past-maxsize", "seed-negative",
            "verify-seed-negative", "qtol-inf", "qtol-nan", "steps-negative", "green-z-nan", "harmonic-z-nan",
            "dos-z-nan", "resolvents-z-nan", "transfer-z-nan", "green-im-inf",
            "green-no-z", "green-z-unparsable", "harmonic-z-complex", "dos-z-complex",
            "truncate-no-n", "green-z-three-parts", "green-z-trailing-comma",
            "resolvents-z-three-parts", "to-past-maxsize", "from-past-maxsize",
            "steps-past-maxsize", "transfer-n-past-maxsize", "truncate-n-past-float"])
    def test_out_of_range_option_exit_2(self, capsys, tmp_path, argv, doc):
        code, out = run(capsys, argv, doc, tmp_path)
        assert code == 2 and out == ""

    def test_mc_samples_past_the_cap_exit_2_before_newton(self, capsys, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(abel, "_newton_invert", lambda *args: calls.append(args))
        cap = abel._MC_MAX_SAMPLES
        code, out = run(capsys, ["measure-mc", "--mc-samples", str(cap + 1)], ONE_GAP_BOX, tmp_path)
        assert code == 2 and out == "" and not calls
        # the CLI's default and acceptance criterion 8's 100 000 samples stay allowed
        assert cli._parser().get_default("mc_samples") == 100_000 <= cap

    @pytest.mark.parametrize("argv, doc", [
        (["critical"], {"band": ["x", 2]}),
        (["critical"], {"band": [-2.0, 2.0], "gaps": [[-1.0]]}),
        (["abel"], dict(ONE_GAP, divisor=[{"x": "a", "eps": 1}])),
        (["abel"], dict(ONE_GAP, divisor=[{"x": 0.3, "eps": 1.7}])),
        (["abel"], dict(ONE_GAP, divisor=[{"x": 0.3, "eps": -1.5}])),
        (["abel"], dict(ONE_GAP, divisor=[{"x": 0.3, "eps": "1"}])),
        (["measure"], dict(ONE_GAP, box=[{"gap": 1, "a": -0.5, "eps": 1}])),
        (["measure"], dict(ONE_GAP, box=[{"gap": 1.9, "a": -0.5, "b": 0.5, "eps": 1}])),
        (["measure"], dict(ONE_GAP, box=[{"gap": 1, "a": -0.5, "b": 0.5, "eps": 1.7}])),
        (["invert"], dict(ONE_GAP, alpha=["q"])),
        (["truncate", "--n", "1"], {"teeth": [{"omega": 0.3, "h": 0.4}], "tail_bound": "z"}),
        (["comb"], 5),
        (["critical"], [ONE_GAP]),
        (["abel"], {"band": ["-2", "2"], "gaps": [["-1", "1"]],
                    "divisor": [{"x": "0.3", "eps": True}]}),
        (["critical"], {"band": [-2.0, 2.0], "gaps": [[-1.0, "1"]]}),
        (["abel"], dict(ONE_GAP, divisor=[{"x": "0.3", "eps": 1}])),
        (["abel"], dict(ONE_GAP, divisor=[{"x": 0.3, "eps": True}])),
        (["measure"], dict(ONE_GAP, box=[{"gap": True, "a": -0.5, "b": 0.5, "eps": 1}])),
        (["measure"], dict(ONE_GAP, box=[{"gap": 1, "a": "-0.5", "b": 0.5, "eps": 1}])),
        (["measure"], dict(ONE_GAP, box=[{"gap": 1, "a": -0.5, "b": 0.5, "eps": True}])),
        (["invert"], dict(ONE_GAP, alpha=["0.3"])),
        (["truncate", "--n", "1"], {"teeth": [{"omega": "0.3", "h": 0.4}]}),
        (["truncate", "--n", "1"], {"teeth": [{"omega": 0.3, "h": 0.4}], "tail_bound": "0"}),
        (["critical"], {"band": [-float("inf"), 2.0]}),
        (["critical"], {"band": [-2.0, 2.0], "gaps": [[-1.0, float("nan")]]}),
        (["abel"], dict(ONE_GAP, divisor=[{"x": float("nan"), "eps": 1}])),
        (["measure"], dict(ONE_GAP, box=[{"gap": 1, "a": -0.5, "b": float("inf"), "eps": 1}])),
        (["truncate", "--n", "1"], {"teeth": [{"omega": 0.3, "h": 0.4}], "tail_bound": float("nan")}),
        (["invert"], dict(ONE_GAP, alpha=[float("nan")])),
        (["comb"], {"teeth": [{"omega": 0.5, "h": float("inf")}],
                    "bracket": {"band": [-2.0, 2.0], "gaps": [[-0.5, 0.5]]}}),
        (["comb"], {"teeth": [{"omega": 0.3, "h": 0.4}], "tail_bound": 0.0}),
        (["invert"], dict(ONE_GAP, alpha=[0.1, 0.2])),
        (["invert"], dict(FREE, alpha=[0.3])),
        (["critical"], {"band": [-2.0, 2.0], "gaps": [[-1.0, 10**400]]}),
        (["comb"], {"teeth": [{"omega": 0.3, "h": 10**400}],
                    "bracket": {"band": [-2.0, 2.0], "gaps": [[-0.5, 0.5]]}}),
        (["measure"], dict(ONE_GAP, box=[{"gap": 10**400, "a": -0.5, "b": 0.5, "eps": 1}])),
        # past int()'s default digit limit (Python >= 3.11), which json.dumps cannot write
        (["critical"], '{"band": [-2, 1' + "0" * 4999 + "]}"),
    ], ids=["band-string", "gap-one-end", "divisor-x-string", "eps-1.7", "eps-minus-1.5",
            "eps-string", "box-without-b", "box-gap-1.9", "box-eps-1.7", "alpha-string",
            "tail-bound-string", "comb-number", "critical-list", "numeric-strings-and-true",
            "gap-numeric-string", "divisor-x-numeric-string", "eps-true", "box-gap-true",
            "box-a-numeric-string", "box-eps-true", "alpha-numeric-string",
            "omega-numeric-string", "tail-bound-numeric-string", "band-minus-infinity",
            "gap-nan", "divisor-x-nan", "box-b-infinity", "tail-bound-nan", "alpha-nan",
            "comb-h-infinity", "comb-teeth-without-bracket", "alpha-too-long",
            "alpha-on-free-set", "gap-past-float", "comb-h-past-float", "box-gap-past-float",
            "band-past-digit-limit"])
    def test_malformed_document_exit_2(self, capsys, tmp_path, argv, doc):
        code, out = run(capsys, argv, doc, tmp_path)
        assert code == 2 and out == ""

    def test_low_precision_rejected(self, capsys, tmp_path):
        code, _ = run(capsys, ["critical", "--prec", "16"], ONE_GAP, tmp_path)
        assert code == 2

    def test_deterministic_output(self, capsys, tmp_path):
        doc = dict(ONE_GAP, box=[{"gap": 1, "a": -0.5, "b": 0.5, "eps": 1}])
        a = run_json(capsys, ["measure-mc", "--mc-samples", "5000", "--seed", "9"], doc, tmp_path)
        b = run_json(capsys, ["measure-mc", "--mc-samples", "5000", "--seed", "9"], doc, tmp_path)
        assert a["estimate"] == b["estimate"]

    def test_verify_passes_on_fixtures(self, capsys):
        assert main(["verify"]) == 0

    def test_verify_exits_1_when_a_check_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "reflectionless_residual", lambda gs, pair, x: 1.0)
        assert main(["verify"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert not doc["all_pass"]
        assert {c["check"] for c in doc["checks"] if not c["pass"]} == {"reflectionless"}

    @pytest.mark.parametrize("argv, doc", [pytest.param(*c, id=c[0][0]) for c in JSON_CASES])
    def test_json_output_is_one_line(self, capsys, tmp_path, argv, doc):
        code, out = run(capsys, argv, doc, tmp_path)
        assert code == 0 and out.endswith("\n") and out.count("\n") == 1
        assert json.loads(out)["meta"]["fmt"] == "json"

    def test_every_json_command_is_checked(self):
        assert {c[0][0] for c in JSON_CASES} == set(cli._COMMANDS)


class TestRuntimeDependencies:
    """numpy is the one runtime dependency; scipy and mpmath serve the tests
    and the benchmark only.  Each check runs in a fresh interpreter, where
    nothing has imported either yet."""

    SRC = str(Path(__file__).resolve().parent.parent / "src")

    def _python(self, code):
        return self._run(["-c", code])

    def _run(self, args, stdin=None):
        env = dict(os.environ, PYTHONPATH=self.SRC)
        return subprocess.run([sys.executable, *args], input=stdin, env=env, capture_output=True,
                              text=True, timeout=120)

    def test_python_m_finitegap_runs_the_readme_example(self, capsys, monkeypatch):
        """README's stdin example prints through `python -m finitegap` what cli.main prints."""
        doc = '{"band": [-2, 2], "gaps": [[-1, 1]], "divisor": [{"x": 0.3, "eps": 1}]}\n'
        argv = ["coeffs", "--from", "-5", "--to", "5"]
        proc = self._run(["-m", "finitegap", *argv], stdin=doc)
        assert proc.returncode == 0, proc.stderr
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        assert main(argv) == 0
        assert proc.stdout == capsys.readouterr().out

    def test_cli_import_loads_no_scipy(self):
        proc = self._python(
            "import sys, finitegap.cli\n"
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_cli_import_loads_no_mpmath(self):
        proc = self._python(
            "import sys, finitegap.cli\n"
            "print([m for m in sys.modules if m.startswith('mpmath')])"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("argv", [["coeffs", "--from", "-3", "--to", "12"],
                                      ["transfer", "--n", "8", "--z=0.3,0.4"]])
    def test_coefficients_without_mpmath(self, tmp_path, argv):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(ONE_GAP_DIV))
        proc = self._python(
            "import sys\n"
            "sys.modules['mpmath'] = None\n"
            "from finitegap.cli import main\n"
            f"sys.exit(main({argv + ['--input', str(path)]!r}))"
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)

    def test_comb_inverse_without_scipy(self, tmp_path):
        doc = {"teeth": [{"omega": 0.5, "h": float(np.log(np.sqrt(3.0)))}],
               "bracket": {"band": [-2.0, 2.0], "gaps": [[-0.8, 0.9]]}}
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        proc = self._python(
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from finitegap.cli import main\n"
            f"sys.exit(main(['comb', '--input', {str(path)!r}]))"
        )
        assert proc.returncode == 0, proc.stderr
        gaps = json.loads(proc.stdout)["gaps"]
        assert np.allclose(gaps, [[-1.0, 1.0]], atol=1e-10)
