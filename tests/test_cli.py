import hashlib
import json
from pathlib import Path

import pytest

from veechfib.cli import build_parser, main
from veechfib.covers import DEFAULT_CLOSURE_CAP
from veechfib.thurston_veech import build_surface

GOLDEN_CLI = Path(__file__).resolve().parent.parent / "perfbench" / "golden_cli.json"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_weierstrass_headline_json(capsys):
    code, out, _ = run_cli(capsys, "weierstrass", "--D", "5", "--p", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["invariants"]["euler"] == 116
    assert payload["invariants"]["sigma"] == -72
    assert payload["cover"]["degree"] == 60
    assert payload["invariants"]["zero_section_self_intersections"] == ["-3/1"]


def test_group_order_command(capsys):
    code, out, _ = run_cli(
        capsys,
        "group-order",
        "--p",
        "3",
        "--modulus",
        "x^2-x-1",
        "--alpha",
        "1,1",
    )
    assert code == 0
    assert json.loads(out)["order"] == 120


def test_group_order_malformed_alpha_exit_2(capsys):
    for alpha in ("a", "1,,2", ""):
        code, out, err = run_cli(
            capsys, "group-order", "--p", "3", "--modulus", "x^2-x-1", "--alpha", alpha
        )
        assert code == 2, alpha
        assert out == ""
        assert json.loads(err)["error"] == "InvalidArgumentError"


def test_group_order_malformed_modulus_exit_2(capsys):
    # juxtaposed terms and mixed letters are refused, not read as x^2 + 1
    for modulus in ("x^2 1", "x^2 + y"):
        code, out, err = run_cli(capsys, "group-order", "--p", "3", "--modulus", modulus)
        assert code == 2, modulus
        assert out == ""
        assert json.loads(err)["error"] == "InvalidArgumentError"


def test_group_order_cap_default():
    args = build_parser().parse_args(["group-order", "--p", "3", "--modulus", "x^2+1"])
    assert args.cap == DEFAULT_CLOSURE_CAP


def _error_type(stderr):
    """The stderr classes of the golden record: none, argparse usage,
    the JSON diagnostic's error type, or anything else."""
    if not stderr.strip():
        return None
    if stderr.startswith("usage:"):
        return "usage"
    try:
        return json.loads(stderr)["error"]
    except (ValueError, KeyError, TypeError):
        return "unparsed"


def test_cli_matches_golden_bytes(capsys):
    """Replay every recorded request of the CLI benchmark in-process:
    same exit code, stdout bytes and stderr error type.  The first pass
    rebuilds every surface model; the second reuses the cached models,
    so per-model memos carry over from request to request."""
    requests = json.loads(GOLDEN_CLI.read_text())["requests"]
    assert len(requests) == 74
    for cold in (True, False):
        for request, golden in requests.items():
            if cold:
                build_surface.cache_clear()
            code, out, err = run_cli(capsys, *request.split())
            where = (request, "cold" if cold else "warm")
            assert code == golden["exit"], where
            assert hashlib.sha256(out.encode()).hexdigest() == golden["stdout_sha256"], where
            assert _error_type(err) == golden["error"], where


_COVER = ("cover", "--orbifold-orders", "2,5", "--cusp-image-orders", "3", "--degree", "60")


@pytest.mark.parametrize(
    "flag, value",
    [
        (flag, value)
        for flag in ("--cusp-image-orders", "--orbifold-orders", "--base-twists", "--roots")
        for value in ("a", "3,,3", "3,")
    ]
    + [("--cusp-image-orders", "")],
)
def test_cover_malformed_list_exit_2(capsys, flag, value):
    argv = list(_COVER)
    if flag in argv:
        argv[argv.index(flag) + 1] = value
    else:
        argv += [flag, value]
    if flag == "--roots":
        argv += ["--base-twists", "2"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "InvalidArgumentError"
    assert diagnostic["message"] == (
        f"{flag} {value!r} is not a comma-separated list of integers"
    )


@pytest.mark.parametrize(
    "extra, message",
    [
        (("--cusp-image-orders", "0"), "cusp image orders must be positive"),
        (("--cusp-image-orders", "-3"), "cusp image orders must be positive"),
        (("--base-twists", "-1"), "twists and root indices must be positive"),
        (("--base-twists", "0"), "twists and root indices must be positive"),
        (("--base-twists", "2", "--roots", "0"), "twists and root indices must be positive"),
        (("--roots", "1"), "--roots needs --base-twists"),
    ],
)
def test_cover_refuses_non_positive_data_exit_2(capsys, extra, message):
    argv = ["cover", "--orbifold-orders", "2,3", "--cusp-image-orders", "6", "--degree", "6"]
    for flag, value in zip(extra[::2], extra[1::2]):
        if flag in argv:
            argv[argv.index(flag) + 1] = value
        else:
            argv += [flag, value]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": "InvalidArgumentError", "message": message}


def test_cover_empty_orbifold_orders_means_none(capsys):
    code, out, _ = run_cli(
        capsys, "cover", "--base-genus", "1", "--orbifold-orders", "",
        "--cusp-image-orders", "2", "--degree", "4",
    )
    assert code == 0
    assert json.loads(out)["degree"] == 4


def test_elliptic_command(capsys):
    code, out, _ = run_cli(capsys, "elliptic", "--m", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["invariants"]["euler"] == 24
    assert payload["invariants"]["sigma"] == -16
    assert payload["invariants"]["kodaira"] == "elliptic-k3"


def test_prototypes_csv(capsys):
    code, out, _ = run_cli(capsys, "prototypes", "--D", "8", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "D,w,h,t,e,twisting"
    assert len(out.splitlines()) == 3


def test_polygon_command(capsys):
    code, out, _ = run_cli(capsys, "polygon", "--n", "7", "--p", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["cover"]["degree"] == 9828
    assert payload["invariants"]["sigma"] == -16848


def test_sporadic_command(capsys):
    code, out, _ = run_cli(capsys, "sporadic", "--which", "E7", "--p", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["cover"]["degree"] == 1953000


def test_tv_build_command(capsys):
    code, out, _ = run_cli(capsys, "tv-build", "--family", "polygon-5")
    assert code == 0
    payload = json.loads(out)
    assert payload["genus"] == 2
    assert payload["mu_minimal_polynomial"] == ["-1", "-1", "1"]


def test_primes_command(capsys):
    code, out, _ = run_cli(
        capsys, "primes", "--family", "weierstrass-5", "--bound", "20"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["admissible"][0] == {"p": 3, "exceptional": True}


def test_cover_command(capsys):
    code, out, _ = run_cli(
        capsys,
        "cover",
        "--base-genus",
        "0",
        "--orbifold-orders",
        "2,5",
        "--cusp-image-orders",
        "3",
        "--degree",
        "60",
        "--base-twists",
        "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["base_genus"] == 0
    assert payload["cusp_count"] == 20
    assert payload["total_twisting"] == 120


def test_scatter_command(capsys):
    code, out, _ = run_cli(capsys, "scatter", "--min-D", "5", "--max-D", "6", "--p", "3")
    assert code == 0
    assert "5,116,16," in out


@pytest.mark.parametrize(
    "p, d_min, d_max",
    [
        ("9", "16", "17"),  # no D in range reaches a residue test
        ("2", "30", "5"),  # empty range
        ("9", "5", "30"),
        ("0", "5", "30"),  # must not reach d % p
    ],
)
def test_scatter_rejects_a_bad_level_exit_2(capsys, p, d_min, d_max):
    code, out, err = run_cli(capsys, "scatter", "--p", p, "--min-D", d_min, "--max-D", d_max)
    assert code == 2
    assert out == ""
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "InvalidArgumentError"
    assert diagnostic["message"] == f"{p} is not an odd prime"


def test_verify_command(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    lines = [line for line in out.splitlines() if line.startswith("[")]
    assert lines and all(line.startswith("[PASS]") for line in lines)


def test_invalid_arguments_exit_2(capsys):
    code, _, err = run_cli(capsys, "weierstrass", "--D", "4", "--p", "3")
    assert code == 2
    assert json.loads(err)["error"] == "InvalidDiscriminantError"
    code, _, err = run_cli(capsys, "weierstrass", "--D", "5", "--p", "11")
    assert code == 2
    code, _, err = run_cli(capsys, "polygon", "--n", "6", "--p", "5")
    assert code == 2
    code, _, err = run_cli(capsys, "weierstrass", "--D", "5", "--p", "0")
    assert code == 2
    assert json.loads(err) == {"error": "InvalidArgumentError", "message": "0 is not an odd prime"}


@pytest.mark.parametrize(
    "argv",
    [
        ("primes", "--family", "polygon-x", "--bound", "20"),
        ("primes", "--family", "polygon-1.5", "--bound", "9"),
        ("primes", "--family", "weierstrass-x", "--bound", "20"),
        ("tv-build", "--family", "polygon-x"),
        ("tv-build", "--family", "polygon-"),
    ],
)
def test_malformed_family_tag_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert json.loads(err) == {
        "error": "UnsupportedFamilyError",
        "message": f"unknown family tag: {argv[2]!r}",
    }


# the error from_csv meets -> the bad data file that raises it (None: no file)
_BAD_DATA = {
    "FileNotFoundError": None,
    "IsADirectoryError": "directory",
    "KeyError": "D,chi_den,e2\n5,10,1\n",
    "ValueError": "D,chi_num,chi_den,e2\n5,x,10,1\n",
    "ZeroDivisionError": "D,chi_num,chi_den,e2\n5,-3,0,1\n",
    "TypeError": "D,chi_num,chi_den\n5,-3\n",  # a short row
    "Error": "D,chi_num,chi_den\n" + "5" * 200000 + ",-3,10\n",  # csv field size limit
    "InvalidArgumentError": "D,chi_num,chi_den,e2\n13,-3,2,-40\n",  # a negative e2
}


@pytest.mark.parametrize("cause", list(_BAD_DATA))
def test_bad_data_file_exit_2(tmp_path, capsys, cause):
    content = _BAD_DATA[cause]
    path = tmp_path / "curves.csv"
    if content == "directory":
        path.mkdir()
    elif content is not None:
        path.write_text(content)
    code, out, err = run_cli(capsys, "weierstrass", "--D", "5", "--p", "3", "--data", str(path))
    assert code == 2
    assert out == ""
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "InvalidArgumentError"
    assert diagnostic["message"].startswith(f"bad curve data file {str(path)!r}: {cause}(")


def test_scatter_skips_an_inconsistent_cover(capsys):
    code, out, err = run_cli(
        capsys, "scatter", "--p", "3", "--min-D", "5", "--max-D", "10", "--verbose-skips"
    )
    assert code == 0
    assert out.splitlines()[3:] == ["5,116,16,0.137931034482"]
    assert err.splitlines() == ["# skipped D=8: inconsistent-cover"]


def test_mathematical_inconsistency_exit_1(capsys):
    code, _, err = run_cli(capsys, "weierstrass", "--D", "8", "--p", "3")
    assert code == 1
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "InconsistentCoverError"
    assert "exceptional" in diagnostic["message"]


def test_polygon_past_the_size_cap_exit_1(capsys, monkeypatch):
    from veechfib import thurston_veech

    def refuse(*args, **kwargs):
        raise AssertionError("coxeter_graph reached past the size cap")

    monkeypatch.setattr(thurston_veech, "coxeter_graph", refuse)
    requests = (("polygon", "--n", "1000003", "--p", "3"), ("tv-build", "--family", "polygon-257"))
    for argv in requests:
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "CapExceededError"


def test_primes_past_the_size_cap_exit_1(capsys, monkeypatch):
    # primes builds no model, but it would expand the degree-phi(n)/2
    # m_alpha; the cap refuses the tag before that expansion starts
    from veechfib import families

    def refuse(*args, **kwargs):
        raise AssertionError("cos_two_pi_minpoly reached past the size cap")

    monkeypatch.setattr(families, "cos_two_pi_minpoly", refuse)
    for family in ("polygon-1000003", "polygon-257"):
        code, out, err = run_cli(capsys, "primes", "--family", family, "--bound", "20")
        assert code == 1 and out == ""
        diagnostic = json.loads(err)
        assert diagnostic["error"] == "CapExceededError"
        assert "size cap" in diagnostic["message"]


def test_primes_bound_past_the_size_cap_exit_1(capsys, monkeypatch):
    from veechfib import families

    def refuse(*args, **kwargs):
        raise AssertionError("congruence_degree reached past the size cap")

    monkeypatch.setattr(families, "congruence_degree", refuse)
    code, out, err = run_cli(capsys, "primes", "--family", "polygon-5", "--bound", str(10**12))
    assert code == 1 and out == ""
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "CapExceededError"
    assert "size cap" in diagnostic["message"]


def test_discriminant_and_scatter_past_the_size_cap_exit_1(capsys, monkeypatch):
    from veechfib import families, prototypes

    def refuse(*args, **kwargs):
        raise AssertionError("a discriminant was scanned past the size cap")

    monkeypatch.setattr(prototypes, "divisors", refuse)
    monkeypatch.setattr(families, "is_quadratic_nonresidue", refuse)
    prototypes.divisor_rows.cache_clear()
    requests = (
        ("prototypes", "--D", "10000012"),
        ("weierstrass", "--D", "10000012", "--p", "7"),
        ("scatter", "--p", "7", "--min-D", "5", "--max-D", "100001"),
    )
    for argv in requests:
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        diagnostic = json.loads(err)
        assert diagnostic["error"] == "CapExceededError"
        assert "size cap" in diagnostic["message"]


def test_elliptic_past_the_size_cap_exit_1(capsys, monkeypatch):
    from veechfib import families

    def refuse(*args, **kwargs):
        raise AssertionError("prime_factors reached past the size cap")

    monkeypatch.setattr(families, "prime_factors", refuse)
    code, out, err = run_cli(capsys, "elliptic", "--m", "1000000000000000003")
    assert code == 1 and out == ""
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "CapExceededError"
    assert "size cap" in diagnostic["message"]


def test_family_csv_uses_table_columns(capsys):
    code, out, _ = run_cli(capsys, "weierstrass", "--D", "5", "--p", "3", "--format", "csv")
    assert code == 0
    header, row = out.splitlines()
    assert header == "family,level,degree,cusps,genus,twisting,euler,sigma"
    assert row == "weierstrass-5,3,60,20,0,120,116,-72"


def test_external_data_path(tmp_path, capsys):
    data = tmp_path / "curves.csv"
    data.write_text("D,chi_num,chi_den,e2\n5,-3,10,1\n")
    code, out, _ = run_cli(
        capsys, "weierstrass", "--D", "5", "--p", "3", "--data", str(data)
    )
    assert code == 0
    assert json.loads(out)["invariants"]["euler"] == 116


def test_spin_plugin_hook(tmp_path, capsys, monkeypatch):
    plugin = tmp_path / "spinmod.py"
    plugin.write_text("def keep_all(proto):\n    return True\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    code, out, _ = run_cli(
        capsys, "prototypes", "--D", "8", "--format", "json"
    )
    assert code == 0  # prototypes path does not need spin
    # the weierstrass pipeline accepts a plugin for D = 1 mod 8 admissibility
    code, out, err = run_cli(
        capsys,
        "weierstrass",
        "--D",
        "17",
        "--p",
        "3",
        "--spin-plugin",
        "spinmod:keep_all",
    )
    # the plugin unlocks enumeration, but no per-spin-class curve data is
    # bundled, so the pipeline refuses at the data-lookup stage
    assert code == 2
    assert json.loads(err)["error"] == "MissingCurveDataError"


@pytest.mark.parametrize(
    "plugin, cause",
    [
        ("nonexistent_mod:f", "ModuleNotFoundError("),
        ("os:nonexistent", "AttributeError("),
        ("os:sep", "'sep' is not callable"),
    ],
)
def test_bad_spin_plugin_exit_2(tmp_path, capsys, plugin, cause):
    # the plugin is loaded before the (missing) data file is read
    missing = tmp_path / "missing.csv"
    code, out, err = run_cli(
        capsys,
        "weierstrass",
        "--D",
        "17",
        "--p",
        "3",
        "--spin-plugin",
        plugin,
        "--data",
        str(missing),
    )
    assert code == 2
    assert out == ""
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "InvalidArgumentError"
    assert diagnostic["message"].startswith(f"bad spin plugin {plugin!r}: {cause}")


def test_output_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "weierstrass", "--D", "13", "--p", "5")
    _, second, _ = run_cli(capsys, "weierstrass", "--D", "13", "--p", "5")
    assert first == second
    _, third, _ = run_cli(capsys, "polygon", "--n", "8", "--p", "5", "--format", "csv")
    _, fourth, _ = run_cli(capsys, "polygon", "--n", "8", "--p", "5", "--format", "csv")
    assert third == fourth
