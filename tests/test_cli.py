"""CLI behavior: subcommands, exit codes, stream discipline."""

import json
import os
import subprocess
import sys

import pytest

from stabcoh import cli
from stabcoh.cli import main
from stabcoh.spectral import table_from_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_l_examples(capsys):
    code, out, _ = run_cli(capsys, "l", "--s", "1", "Q/Z(2)")
    assert code == 0 and out.strip() == "Zp"
    code, out, _ = run_cli(capsys, "l", "--s", "0", "Z(2) + Z/4")
    assert code == 0 and out.strip() == "Zp + Z/2^2"
    code, out, _ = run_cli(capsys, "l", "--s", "2", "Q/Z(2)")
    assert code == 0 and out.strip() == "0"


def test_l_parse_error_exit_2(capsys):
    code, out, err = run_cli(capsys, "l", "--s", "1", "Zp + nope")
    assert code == 2
    assert "position 5" in err
    assert out == ""


def test_cohomology_structured_cell(capsys):
    code, out, _ = run_cli(
        capsys, "cohomology", "--p", "2", "--t", "8", "--smax", "1",
        "--route", "structured", "--format", "json",
    )
    assert code == 0
    table = table_from_json(out)
    assert str(table.get(1, 8)) == "Z/2^4"


def test_cohomology_odd_t_zero(capsys):
    code, out, _ = run_cli(
        capsys, "cohomology", "--p", "2", "--t", "3", "--smax", "2",
        "--route", "structured", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["cells"] == []


def test_cohomology_two_routes_agree(capsys):
    code, out, _ = run_cli(
        capsys, "cohomology", "--p", "3", "--t", "4", "--smax", "1",
        "--route", "structured,brute", "--format", "json",
    )
    assert code == 0
    docs = json.loads(out)
    assert [d["route"] for d in docs] == ["structured", "brute"]
    assert docs[0]["cells"] == [
        {"s": 1, "t": 4, "module": "Z/3", "collision": False}
    ]
    assert docs[0]["cells"] == docs[1]["cells"]


def test_cohomology_precision_exit_3(capsys):
    code, _, err = run_cli(
        capsys, "cohomology", "--p", "2", "--t", "128", "--smax", "1",
        "--route", "structured", "--precision-max", "4",
    )
    assert code == 3
    assert "failed" in err


def test_verify_default_window_smoke(capsys):
    # small window keeps this test quick; the full default window runs in
    # the acceptance suite
    code, out, _ = run_cli(capsys, "verify", "--t=-8:8", "--smax", "3")
    assert code == 0
    assert "all routes agree" in out


def test_verify_restricted_window_t0(capsys):
    code, out, _ = run_cli(capsys, "verify", "--t", "0:0", "--smax", "1", "--format", "json")
    assert code == 0


def test_verify_fault_injection(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--t", "0:8", "--smax", "2", "--inject-fault", "1,8"
    )
    assert code == 1
    assert "first difference" in out
    assert "(s=1, t=8)" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--inject-fault", "1"),
        ("verify", "--inject-fault", "a,b"),
        ("l", "--s", "-1", "Zp"),
    ],
)
def test_malformed_arguments_exit_2_before_any_route(capsys, monkeypatch, argv):
    def no_route(*args, **kwargs):
        raise AssertionError("a route ran before the arguments were checked")

    monkeypatch.setattr(cli, "compute_route_table", no_route)
    monkeypatch.setattr(cli, "derived_completion", no_route)
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "error: argument" in out.err


def test_verbose_brute_certificate_names_precision_cap(capsys):
    # the brute route caps its precision at min(--precision-max, 24)
    for cap, want in (("256", 24), ("16", 16)):
        code, _, err = run_cli(
            capsys, "cohomology", "--p", "2", "--t", "2", "--smax", "1",
            "--route", "brute", "--precision-max", cap, "--verbose",
        )
        assert code == 0
        assert f"'precision_ceiling': {want}" in err


def test_verify_odd_prime_refused(capsys):
    code, _, err = run_cli(capsys, "verify", "--p", "3", "--t", "0:4", "--smax", "1")
    assert code == 2


def test_ss_run_and_table_roundtrip(capsys):
    code, out, _ = run_cli(
        capsys, "ss-run", "--t=-4:4", "--smax", "2", "--format", "json"
    )
    assert code == 0
    ss = table_from_json(out)
    code, out, _ = run_cli(
        capsys, "table", "--golden", "--t=-4:4", "--smax", "2", "--format", "json"
    )
    assert code == 0
    assert table_from_json(out).cells == ss.cells


def test_table_hovey_sadofsky(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--hovey-sadofsky", "--t", "0:0", "--smax", "2", "--format", "csv"
    )
    assert code == 0
    assert "2,0,Z/2 + Q/Z(2),false" in out


def test_stdout_is_machine_parseable_in_json_mode(capsys):
    code, out, err = run_cli(
        capsys, "cohomology", "--p", "2", "--t", "8", "--smax", "1",
        "--route", "brute", "--format", "json", "--verbose",
    )
    assert code == 0
    json.loads(out)  # no log interleaving on stdout
    assert "certificate" in err  # verbose traces go to stderr


def test_console_entry_point_subprocess():
    # the child imports the same stabcoh as this test, installed or not
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "stabcoh.cli", "l", "--s", "1", "Q/Z(2)"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "Zp"


def test_brute_past_int64_ceiling_p101(capsys):
    # p^(N+1) passes the int64 ceiling at p = 101, and |(Z/101^2)^x| = 10100
    # is far too big for the bar cross-check; both must be handled quietly
    code, out, _ = run_cli(
        capsys, "cohomology", "--p", "101", "--t", "0:4", "--smax", "2",
        "--route", "brute", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["cells"] == [
        {"s": 0, "t": 0, "module": "Zp", "collision": False},
        {"s": 1, "t": 0, "module": "Zp", "collision": False},
    ]


def test_brute_deep_weight_3_pow_15(capsys):
    # w = 3^15 is odd, so (p - 1) = 2 does not divide it: every cell is zero
    code, out, _ = run_cli(
        capsys, "cohomology", "--p", "3", "--t", "28697814", "--smax", "1",
        "--route", "brute", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["cells"] == []
