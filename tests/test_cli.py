import hashlib
import json
import shlex
from pathlib import Path

from veechfib.cli import build_parser, main
from veechfib.covers import DEFAULT_CLOSURE_CAP

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


def test_group_order_cap_default():
    args = build_parser().parse_args(["group-order", "--p", "3", "--modulus", "x^2+1"])
    assert args.cap == DEFAULT_CLOSURE_CAP


def test_group_order_matches_golden_bytes(capsys):
    """Replay the recorded group-order requests of the CLI benchmark
    in-process: same exit code, same stdout bytes."""
    requests = json.loads(GOLDEN_CLI.read_text())["requests"]
    replayed = 0
    for request, golden in requests.items():
        if not request.startswith("group-order"):
            continue
        code, out, _ = run_cli(capsys, *shlex.split(request))
        assert code == golden["exit"], request
        assert hashlib.sha256(out.encode()).hexdigest() == golden["stdout_sha256"], request
        replayed += 1
    assert replayed


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


def test_mathematical_inconsistency_exit_1(capsys):
    code, _, err = run_cli(capsys, "weierstrass", "--D", "8", "--p", "3")
    assert code == 1
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "InconsistentCoverError"
    assert "exceptional" in diagnostic["message"]


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


def test_output_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "weierstrass", "--D", "13", "--p", "5")
    _, second, _ = run_cli(capsys, "weierstrass", "--D", "13", "--p", "5")
    assert first == second
    _, third, _ = run_cli(capsys, "polygon", "--n", "8", "--p", "5", "--format", "csv")
    _, fourth, _ = run_cli(capsys, "polygon", "--n", "8", "--p", "5", "--format", "csv")
    assert third == fourth
