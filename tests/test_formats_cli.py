import json
import random
import time
from fractions import Fraction

import pytest

from glasnerlab import cli, formats, torus
from glasnerlab.errors import FormatError
from glasnerlab.polymat import PolyMat, poly_mat_eval
from glasnerlab.torus import EXACT, FLOAT, TorusPointSet, eps_dense
from glasnerlab.unipotent import adjoint_fixture, construct_polynomial

from conftest import poly

X_MATRIX = '{"d": 1, "entries": [[[0, 1]]]}'
SCALAR_X_2D = '{"d": 2, "entries": [[[0, 1], []], [[], [0, 1]]]}'
POWERS = '{"d": 2, "entries": [[[0, 1], [0, 0, 1]], [[0, 0, 0, 1], [0, 0, 0, 0, 1]]]}'


def test_polymat_round_trip():
    A = formats.parse_polymat(POWERS)
    assert A.dim == 2
    assert A.degree == 4
    assert formats.parse_polymat(formats.dump_polymat(A)) == A


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[1, 2]",
        '{"d": 2, "entries": [[[1]]]}',
        '{"d": 1, "entries": [[[0.5]]]}',
        '{"d": 0, "entries": []}',
        '{"d": 1, "entries": [[["x"]]]}',
    ],
)
def test_polymat_parse_errors(text):
    with pytest.raises(FormatError):
        formats.parse_polymat(text)


def test_dump_polymat_rejects_rational_coeffs():
    A = PolyMat([[poly(Fraction(1, 2), Fraction(1, 2), 0)]])
    with pytest.raises(FormatError):
        formats.dump_polymat(A)


def test_points_exact_round_trip():
    text = "1/2,0\n1/3,2/3\n"
    Y = formats.parse_points(text)
    assert Y.kind == EXACT
    assert Y.points == [(Fraction(1, 2), Fraction(0)), (Fraction(1, 3), Fraction(2, 3))]
    assert formats.parse_points(formats.dump_points(Y)).points == Y.points


def test_points_float_kind():
    Y = formats.parse_points("0.25,0.5\n0.75,0.125\n")
    assert Y.kind == FLOAT


def test_points_bare_integers_are_exact():
    Y = formats.parse_points("0\n")
    assert Y.kind == EXACT


def test_points_comments_and_blanks_skipped():
    Y = formats.parse_points("# header\n\n1/2\n")
    assert len(Y) == 1


@pytest.mark.parametrize(
    "text",
    ["", "1/2,0.25\n", "1/2\n1/3,1/4\n", "1/0\n", "abc\n", "1/2\n1/2\n"],
)
def test_points_parse_errors(text):
    with pytest.raises(FormatError):
        formats.parse_points(text)


def test_generators_round_trip():
    mats = formats.parse_generators("[[[1, 1], [0, 1]], [[1, 0], [1, 1]]]")
    assert len(mats) == 2
    assert mats[0].entries == [[1, 1], [0, 1]]


@pytest.mark.parametrize("text", ["{}", "[]", "[[[0.5]]]", '["x"]'])
def test_generators_parse_errors(text):
    with pytest.raises(FormatError):
        formats.parse_generators(text)


@pytest.fixture
def matrix_file(tmp_path):
    def write(text, name="A.json"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_cli_check_violation(matrix_file, capsys):
    code, out = run_cli(capsys, ["check", matrix_file(SCALAR_X_2D), "--seed", "1"])
    assert code == 3
    assert out["status"] == "ViolationFound"
    assert out["witness"] is not None


def test_cli_check_clears(matrix_file, capsys):
    code, out = run_cli(capsys, ["check", matrix_file(POWERS), "--seed", "1"])
    assert code == 0
    assert out["status"] == "CertifiedGenericRank"
    assert out["height"] == 5


def test_cli_check_bad_file(matrix_file, capsys):
    code = cli.main(["check", matrix_file("garbage"), "--seed", "1"])
    capsys.readouterr()
    assert code == 2


def test_cli_construct_fixture(matrix_file, tmp_path, capsys):
    out_path = str(tmp_path / "out.json")
    code, out = run_cli(
        capsys,
        ["construct", "--fixture", "sl2-pair", "--seed", "3", "--out", out_path],
    )
    assert code == 0
    assert out["N"] == 4
    assert out["R"] == 2
    assert out["degree"] <= 15
    A = formats.load_polymat(out_path)
    assert A.degree == out["degree"]


def test_cli_construct_not_certified(matrix_file, capsys):
    gens = matrix_file("[[[1, 1], [0, 1]]]", "gens.json")
    code = cli.main(["construct", gens, "--seed", "3"])
    capsys.readouterr()
    assert code == 4


@pytest.mark.parametrize(
    "text",
    ['{"d": true, "entries": [[[0, 1]]]}', '{"d": 1, "entries": [[[0, true]]]}'],
)
def test_cli_check_rejects_booleans_in_a_matrix_file(matrix_file, capsys, text):
    code = cli.main(["check", matrix_file(text), "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "cannot load" in captured.err


def test_cli_construct_rejects_booleans_in_a_generator_file(matrix_file, capsys):
    gens = matrix_file("[[[1, true], [0, 1]]]", "gens.json")
    code = cli.main(["construct", gens, "--seed", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "integer matrix" in captured.err


# a matrix that passes the check and one that violates it
PASSING = POWERS
VIOLATING = '{"d": 2, "entries": [[[0, 1], []], [[], [0, 1, 1]]]}'
SINGLE_GENERATOR = "[[[1, 1], [0, 1]]]"


def _check_argv(matrix_file, which):
    return ["check", matrix_file(PASSING if which == "passing" else VIOLATING)]


def _construct_argv(matrix_file, which):
    if which == "passing":
        return ["construct", "--fixture", "sl2-pair"]
    # one generator is reducible: forced, the constructed matrix violates
    return ["construct", matrix_file(SINGLE_GENERATOR, "gens.json"), "--force"]


@pytest.mark.parametrize("build", [_check_argv, _construct_argv])
@pytest.mark.parametrize("which,expected", [("passing", 0), ("violating", 3)])
def test_cli_negative_trials_rejected_whatever_the_matrix(
    matrix_file, capsys, build, which, expected
):
    argv = build(matrix_file, which) + ["--seed", "1"]
    code, _ = run_cli(capsys, argv + ["--trials", "5"])
    assert code == expected
    for bad in (["--trials", "-1"], ["--height", "0"]):
        assert cli.main(argv + bad) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be" in captured.err


@pytest.mark.parametrize("which,expected", [("passing", 0), ("violating", 3)])
def test_cli_check_zero_trials_skips_random_stage(matrix_file, capsys, which, expected):
    code, out = run_cli(
        capsys, _check_argv(matrix_file, which) + ["--seed", "1", "--trials", "0"]
    )
    assert code == expected
    want = "ClearedToHeight" if which == "passing" else "ViolationFound"
    assert out["status"] == want
    assert out["trials"] is None


def test_cli_density_dim_mismatch(matrix_file, tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    pts.write_text("1/2,0\n")
    code = cli.main(
        ["density", matrix_file(X_MATRIX), str(pts), "--epsilon", "0.2"]
    )
    capsys.readouterr()
    assert code == 2


def test_cli_density_finds_n(matrix_file, tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    pts.write_text("".join(f"{i}/20\n" for i in range(20)))
    code, out = run_cli(
        capsys,
        ["density", matrix_file(X_MATRIX), str(pts), "--epsilon", "0.1"],
    )
    assert code == 0
    assert out["found_n"] == 1
    assert out["report"]["dense"] is True


def test_cli_density_not_found(matrix_file, tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    pts.write_text("0\n1/2\n")
    code, out = run_cli(
        capsys,
        [
            "density",
            matrix_file(X_MATRIX),
            str(pts),
            "--epsilon",
            "0.2",
            "--n-max",
            "50",
        ],
    )
    assert code == 3
    assert out["found_n"] is None


def test_cli_expsum_complete(capsys):
    code, out = run_cli(capsys, ["expsum", "--coeffs", "0,0,1", "--q", "4"])
    assert code == 0
    assert out["value"][0] == pytest.approx(0.5)
    assert out["value"][1] == pytest.approx(0.5)


def test_cli_expsum_coeffs_rejects_extra_moduli(capsys):
    code = cli.main(["expsum", "--coeffs", "0,0,1", "--q", "7", "--q", "9"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "single --q" in captured.err


def test_cli_density_scans_grid_once(matrix_file, tmp_path, capsys, monkeypatch):
    """The report comes from the search itself; the JSON is what a second
    eps_dense on A(n)Y would give."""
    pts = tmp_path / "pts.txt"
    pts.write_text("".join(f"{i}/20\n" for i in range(20)))
    A = formats.load_polymat(matrix_file(X_MATRIX))
    Y = formats.load_points(str(pts))
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return eps_dense(*args, **kwargs)

    monkeypatch.setattr(torus, "eps_dense", counted)
    monkeypatch.setattr(cli, "eps_dense", counted)
    code, out = run_cli(
        capsys,
        ["density", matrix_file(X_MATRIX), str(pts), "--epsilon", "0.1"],
    )
    assert code == 0
    assert len(calls) == 1
    want = eps_dense(Y.transform(poly_mat_eval(A, 1)), 0.1, None)
    assert out == {"found_n": 1, "report": want.to_dict()}


def test_cli_expsum_hua_needs_seed(capsys):
    code = cli.main(["expsum", "--hua", "--q", "10"])
    capsys.readouterr()
    assert code == 2


def test_cli_expsum_hua(capsys):
    code, out = run_cli(
        capsys,
        ["expsum", "--hua", "--q", "11", "--q", "23", "--seed", "5"],
    )
    assert code == 0
    assert len(out["samples"]) == 10
    assert out["empirical_C"] > 0


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_cli_expsum_hua_rejects_trials_below_one(capsys, trials):
    code = cli.main(
        ["expsum", "--hua", "--q", "7", "--seed", "1", "--trials-per-q", trials]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "trials_per_q must be >= 1" in captured.err


def test_cli_expsum_refuses_an_oversized_direct_sum(capsys):
    code = cli.main(["expsum", "--coeffs", "0,0,0,1", "--q", "1000000007"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "needs 1000000007 residue bins mod 1000000007" in captured.err


def test_cli_expsum_refuses_to_factor_a_semiprime_of_two_40_bit_primes(capsys):
    q = 1099511627689 * 1099511627609
    start = time.monotonic()
    code = cli.main(["expsum", "--coeffs", "0,0,1", "--q", str(q)])
    elapsed = time.monotonic() - start
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"cannot factor q = {q}" in captured.err
    assert elapsed < 30


def test_cli_expsum_quadratic_at_a_prime_near_10_to_18(capsys):
    q = 10**18 + 3
    start = time.monotonic()
    code, out = run_cli(capsys, ["expsum", "--coeffs", "0,0,1", "--q", str(q)])
    assert time.monotonic() - start < 1
    assert code == 0
    assert out["magnitude"] == pytest.approx(q**-0.5, rel=1e-12)
    assert out["terms"] == q


def test_cli_expsum_quadratic_at_a_large_prime(capsys):
    q = 1000000007
    code, out = run_cli(capsys, ["expsum", "--coeffs", "0,0,1", "--q", str(q)])
    assert code == 0
    assert out["magnitude"] == pytest.approx(q**-0.5, rel=1e-12)
    assert out["terms"] == q


def test_cli_expsum_cubic_at_two_to_the_forty(capsys):
    code, out = run_cli(capsys, ["expsum", "--coeffs", "0,0,0,1", "--q", str(2**40)])
    assert code == 0
    assert out["value"] == [0.0, 0.0]


def test_cli_parser_is_reused_without_leaking_state(tmp_path, capsys):
    """One parser serves every call of a process: no appended option, and
    no argparse exit, carries over to the next call."""
    pts = tmp_path / "pts.txt"
    pts.write_text("0\n1/2\n1/3\n")
    code, out = run_cli(capsys, ["spectrum", str(pts), "--r", "0.5"])
    assert code == 0
    assert list(out["weighted_sums"]) == ["0.5"]
    code, out = run_cli(capsys, ["spectrum", str(pts)])
    assert code == 0
    assert out["weighted_sums"] == {}

    hua = ["expsum", "--hua", "--seed", "1", "--trials-per-q", "2"]
    code, out = run_cli(capsys, hua + ["--q", "7"])
    assert code == 0
    assert [s["q"] for s in out["samples"]] == [7, 7]
    with pytest.raises(SystemExit):
        cli.main(["expsum", "--hua", "--q", "seven"])
    capsys.readouterr()
    code, out = run_cli(capsys, hua + ["--q", "11"])
    assert code == 0
    assert [s["q"] for s in out["samples"]] == [11, 11]
    assert cli._parser() is cli._parser()


def test_cli_spectrum(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    pts.write_text("0\n1/2\n1/3\n")
    code, out = run_cli(capsys, ["spectrum", str(pts), "--r", "1.0"])
    assert code == 0
    assert out["counts"] == {"2": 2, "3": 2, "6": 2}
    assert out["weighted_sums"]["1.0"] == pytest.approx(2 / 2 + 2 / 3 + 2 / 6)


def test_cli_spectrum_rejects_floats(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    pts.write_text("0.5\n0.25\n")
    code = cli.main(["spectrum", str(pts)])
    capsys.readouterr()
    assert code == 2


def test_cli_witness(matrix_file, tmp_path, capsys):
    out_path = str(tmp_path / "wit.txt")
    code, out = run_cli(
        capsys,
        [
            "witness",
            matrix_file(SCALAR_X_2D),
            "--v",
            "1,0",
            "--w",
            "0,1",
            "--size",
            "5",
            "--out",
            out_path,
        ],
    )
    assert code == 0
    assert out["band_direction"] == [1, 0]
    Y = formats.load_points(out_path)
    assert len(Y) == 5


def test_cli_witness_rejects_non_violation(matrix_file, capsys):
    code = cli.main(
        ["witness", matrix_file(POWERS), "--v", "1,0", "--w", "1,0"]
    )
    capsys.readouterr()
    assert code == 3


def test_cli_check_deterministic(matrix_file, capsys):
    path = matrix_file(POWERS)
    _, out1 = run_cli(capsys, ["check", path, "--seed", "42"])
    _, out2 = run_cli(capsys, ["check", path, "--seed", "42"])
    assert out1 == out2


@pytest.mark.parametrize("bad, name", [("nan", "nan"), ("1e999", "inf"), ("-1e999", "-inf")])
@pytest.mark.parametrize("command", ["density", "spectrum"])
def test_cli_rejects_non_finite_coordinate_at_load(matrix_file, tmp_path, capsys, command, bad, name):
    pts = tmp_path / "pts.txt"
    pts.write_text(f"0.5\n{bad}\n")
    argv = ["spectrum", str(pts)]
    if command == "density":
        argv = ["density", matrix_file(X_MATRIX), str(pts), "--epsilon", "0.1"]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"coordinate {name} is not a finite number" in captured.err


def test_parse_points_negative_tiny_float_is_zero():
    with pytest.raises(FormatError, match="distinct"):
        formats.parse_points("0.0\n-1e-17\n")
    assert formats.parse_points("-1e-17\n").points == [(0.0,)]


def test_cli_construct_adjoint_fixture(tmp_path, capsys):
    out_path = str(tmp_path / "adj.json")
    code, out = run_cli(
        capsys,
        ["construct", "--fixture", "adjoint-sl2", "--seed", "3", "--out", out_path],
    )
    want = construct_polynomial(adjoint_fixture(), rng=random.Random(3))
    assert code == 0
    assert out["degree"] == want.matrix.degree == 728
    assert out["N"] == want.word_length
    assert formats.load_polymat(out_path) == want.matrix
