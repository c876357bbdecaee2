"""CLI behavior: subcommands, exit codes, stream discipline."""

import json
import os
import subprocess
import sys
import time

import pytest

from oracles import table_from_json
from stabcoh import cli
from stabcoh.cli import main
from stabcoh.spectral import compare_tables


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
        ("l", "--s", "0", "--p", "4", "Q/Z(4)"),
        ("l", "--s", "0", "--p", "4", "Zp"),
        ("l", "--s", "0", "--p", "1", "Zp"),
        ("cohomology", "--p", "4", "--t", "0", "--smax", "1"),
        ("verify", "--p", "1"),
        ("ss-run", "--p", "0"),
        ("table", "--golden", "--p", "6"),
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


@pytest.mark.parametrize(
    "cell,window",
    [
        ("2,1000", []),
        ("9,2", []),
        ("-1,2", []),
        ("1,9", ["--t", "0:8", "--smax", "2"]),
        ("3,8", ["--t", "0:8", "--smax", "2"]),
    ],
)
def test_inject_fault_outside_window_exit_2_before_any_route(capsys, monkeypatch, cell, window):
    # the cell is checked against the configured window (s in [0, smax],
    # t in the --t window) before any route runs
    def no_route(*args, **kwargs):
        raise AssertionError("a route ran before the fault cell was checked")

    monkeypatch.setattr(cli, "compute_route_table", no_route)
    code, out, err = run_cli(capsys, "verify", *window, f"--inject-fault={cell}")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and f"--inject-fault {cell} outside" in err


@pytest.mark.parametrize("flag", ["--quotient-max", "--bar-budget"])
def test_removed_options_exit_2(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["cohomology", "--t", "8", "--smax", "1", "--route", "brute", flag, "8"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and f"unrecognized arguments: {flag}" in out.err


def test_non_prime_atom_exit_2_at_its_position(capsys):
    code, out, err = run_cli(capsys, "l", "--s", "0", "Zp + Q/Z(6)")
    assert code == 2 and out == ""
    assert "6 is not prime (at position 5)" in err


@pytest.mark.parametrize(
    "argv,want",
    [
        (("l", "--s", "0", "--p", "1000000000000000003", "Zp"), "Zp"),
        (("cohomology", "--p", "1000000000000000003", "--t", "0", "--smax", "1"), "(s=1, t=0)  Zp"),
    ],
)
def test_huge_prime_answers_at_once(capsys, argv, want):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 2.0
    assert code == 0 and want in out


def test_huge_prime_brute_agrees_with_structured(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(
        capsys, "cohomology", "--p", "1000000000000000003", "--t=-4:4", "--smax", "2",
        "--route", "brute,structured", "--format", "json",
    )
    assert time.perf_counter() - start < 5.0
    assert code == 0
    brute, structured = json.loads(out)
    assert brute["route"] == "brute" and structured["route"] == "structured"
    assert brute["cells"] and brute["cells"] == structured["cells"]


def test_brute_refuses_prime_with_unfactorable_order(capsys):
    # p - 1 = 2^3 * 3 * 1000003 * 1000033: two prime factors past trial
    # division, so the brute route cannot certify a primitive root
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "cohomology", "--p", "24000864002377", "--t", "0", "--smax", "1",
        "--route", "brute",
    )
    assert time.perf_counter() - start < 5.0
    assert code == 2 and out == ""
    assert err.startswith("route brute: cannot factor p - 1")


def test_uncertifiable_prime_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cohomology", "--p", "3317044064679887385961981", "--t", "0"])
    assert exc.value.code == 2
    assert "too large to certify prime" in capsys.readouterr().err
    code, out, err = run_cli(capsys, "l", "--s", "0", "Z/3317044064679887385961981")
    assert code == 2 and out == "" and "too large to certify prime" in err


def test_empty_route_list_refused(capsys):
    code, out, err = run_cli(capsys, "cohomology", "--route", ",", "--format", "json")
    assert code == 2 and out == ""
    assert "bad configuration" in err


def test_verify_compares_each_pair_once(capsys, monkeypatch):
    # six pairs of four tables; the diff-vs-golden counts reuse three of them
    calls = []

    def counting(a, b):
        calls.append((a.route, b.route))
        return compare_tables(a, b)

    monkeypatch.setattr(cli, "compare_tables", counting)
    code, out, _ = run_cli(capsys, "verify", "--t", "0:8", "--smax", "2", "--inject-fault", "1,8")
    assert code == 1
    assert len(calls) == len(set(calls)) == 6
    assert "diff vs golden: {'ss': 1, 'structured': 1, 'brute': 1}" in out


def test_verbose_brute_certificate_names_precision_cap(capsys):
    # the brute route's ceiling is --precision-max itself, with no cap of its own
    for cap in ("256", "25", "16"):
        code, _, err = run_cli(
            capsys, "cohomology", "--p", "2", "--t", "2", "--smax", "1",
            "--route", "brute", "--precision-max", cap, "--verbose",
        )
        assert code == 0
        assert f"'precision_ceiling': {cap}" in err


def test_brute_precision_max_exit_codes_past_24(capsys):
    # t = 2^22: w = 2^21, v_2(5^w - 1) = 23, so the brute route needs
    # n_top = 25; it is refused before any work one below, answered at 25,
    # and its s = 1 cell is the structured route's Z/2^23
    window = ("--p", "2", "--t", "4194304:4194304", "--smax", "2")
    code, out, err = run_cli(
        capsys, "cohomology", *window, "--route", "brute", "--precision-max", "24"
    )
    assert code == 3 and out == ""
    assert "route brute failed" in err and "needs coefficient precision 25" in err
    code, out, _ = run_cli(
        capsys, "cohomology", *window, "--route", "brute,structured",
        "--precision-max", "25", "--format", "json",
    )
    assert code == 0
    brute, structured = json.loads(out)
    assert brute["route"] == "brute" and brute["cells"] == structured["cells"]
    assert {"s": 1, "t": 4194304, "module": "Z/2^23", "collision": False} in brute["cells"]


def test_precision_max_below_start_refused_by_both_routes(capsys):
    # v_2(5^4 - 1) = 4: the structured route needs precision 5 and the
    # brute route 6, so --precision-max 4 is refused by both
    for route in ("structured", "brute"):
        code, out, err = run_cli(
            capsys, "cohomology", "--t", "8", "--smax", "1",
            "--precision-max", "4", "--route", route, "--verbose",
        )
        assert code == 3, route
        assert out == "" and f"route {route} failed" in err


@pytest.mark.parametrize("t,refused,answered", [(2, 1, 2), (8, 4, 5), (128, 8, 9)])
def test_structured_precision_max_exit_codes(capsys, t, refused, answered):
    # the structured route needs precision 2, 5 and 9 at t = 2, 8 and 128:
    # exit 3 one below that, 0 at it
    for cap, want in ((refused, 3), (answered, 0)):
        code, out, err = run_cli(
            capsys, "cohomology", "--t", str(t), "--route", "structured",
            "--precision-max", str(cap),
        )
        assert code == want, (t, cap)
        assert (out == "") == (want == 3) and ("route structured failed" in err) == (want == 3)


def test_unexpected_exception_exits_4_on_one_line(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("route broke\nacross two lines")

    monkeypatch.setattr(cli, "units_cohomology", broken)
    code, out, err = run_cli(capsys, "cohomology", "--t", "2", "--smax", "1")
    assert code == cli.EXIT_INTERNAL == 4
    assert out == ""
    assert err == "internal error: RuntimeError: route broke across two lines\n"


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


def _package_env():
    """The environment of a child that imports the same stabcoh as this test,
    installed or not."""
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "stabcoh.cli", "l", "--s", "1", "Q/Z(2)"],
        capture_output=True,
        text=True,
        env=_package_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "Zp"


def test_python_dash_m_stabcoh():
    # python -m stabcoh runs the CLI and passes its exit code on
    env = _package_env()
    ok = subprocess.run(
        [sys.executable, "-m", "stabcoh", "verify", "--t=-4:4", "--smax", "1"],
        capture_output=True,
        env=env,
    )
    assert ok.returncode == 0
    bad = subprocess.run(
        [sys.executable, "-m", "stabcoh", "l", "--s", "0", "--p", "4", "Zp"],
        capture_output=True,
        env=env,
    )
    assert bad.returncode == 2


@pytest.mark.parametrize("buffered", [False, True])
@pytest.mark.parametrize(
    "argv, stderr_on_pipe",
    [(["verify"], False), (["verify", "--verbose"], True), (["cohomology", "--t=-400:400"], False)],
)
def test_closed_output_pipe_exits_4_never_1(argv, stderr_on_pipe, buffered):
    # a reader that went away is an internal error (exit 4), not a
    # disagreement; with stderr on the same dead pipe nothing can be said
    # and the run must still exit 4, not die in a traceback (exit 1)
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = _package_env()
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "stabcoh", *argv],
            stdout=write_end,
            stderr=write_end if stderr_on_pipe else subprocess.PIPE,
            env=env,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == cli.EXIT_INTERNAL
    if not stderr_on_pipe:
        assert proc.stderr == b"internal error: BrokenPipeError: [Errno 32] Broken pipe\n"


def _imports(*argv):
    """(completed process, names of the modules it imported) of a child
    run with -X importtime, which names every module imported, on stderr."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *argv],
        capture_output=True, text=True, env=_package_env(),
    )
    names = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    return proc, names


def test_cold_start_imports_only_what_runs():
    # importing the CLI loads no dataclasses (nor inspect, which it pulls
    # in) and neither of the two output-format modules; verify prints
    # neither format, so a whole run loads neither.  Modules a bare
    # interpreter already imports (site's, say) are not the package's.
    bare = _imports("-c", "pass")[1]
    unwanted = {"dataclasses", "inspect", "json", "csv"}
    proc, names = _imports("-c", "import stabcoh.cli")
    assert proc.returncode == 0 and "stabcoh.spectral" in names
    assert not (names - bare) & unwanted
    proc, names = _imports("-m", "stabcoh", "verify")
    assert proc.returncode == 0 and "stabcoh.cohomology" in names
    assert not (names - bare) & unwanted
    # the formats that do load them print the same bytes as always
    doc = {
        "p": 2,
        "window": {"t": [0, 2], "s": [0, 1]},
        "route": "golden",
        "cells": [
            {"s": 0, "t": 0, "module": "Zp", "collision": False},
            {"s": 1, "t": 0, "module": "Zp", "collision": False},
            {"s": 1, "t": 2, "module": "Z/2", "collision": False},
        ],
    }
    want = {
        "json": json.dumps(doc, indent=2) + "\n",
        "csv": "s,t,module,collision\n0,0,Zp,false\n1,0,Zp,false\n1,2,Z/2,false\n",
    }
    for fmt, text in want.items():
        proc, names = _imports(
            "-m", "stabcoh", "table", "--golden", "--t", "0:2", "--smax", "1", "--format", fmt
        )
        assert proc.returncode == 0 and fmt in names
        assert proc.stdout == text, fmt


def test_numpy_never_imported():
    # the package runs on the standard library: neither importing the CLI
    # nor a whole python -m stabcoh verify loads numpy
    probe = subprocess.run(
        [sys.executable, "-c", "import stabcoh.cli, sys; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
        env=_package_env(),
    )
    assert probe.returncode == 0 and probe.stdout.strip() == "False"
    run, imported = _imports("-m", "stabcoh", "verify")
    assert run.returncode == 0
    assert "stabcoh.cohomology" in imported
    assert not [name for name in imported if name.split(".")[0] == "numpy"]


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
