"""The benchmark tracer's contract: every function it wraps exists, every
call of a traced layer goes through its wrapper, and the arguments it
reads have the shape it assumes.

``perfbench/tracing.py`` looks its functions up by name, so a rename in
``stabcoh`` would otherwise surface only in a traced benchmark run; it
also reads ``rows, cols = np.shape(args[0])`` on every ``snf_mod`` call,
which fails on an empty or ragged first argument."""

import importlib
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from tracing import ROUTES, TRACED, Tracer  # noqa: E402


def test_every_traced_function_resolves():
    missing = [
        f"stabcoh.{module}.{func}"
        for module, func in TRACED
        if not callable(getattr(importlib.import_module(f"stabcoh.{module}"), func, None))
    ]
    assert TRACED and not missing, missing


def test_every_script_loads_as_a_module(monkeypatch):
    # the scripts measure the program by its names, each behind a
    # __main__ guard; loading one runs its imports, so a name renamed in
    # stabcoh fails here rather than in a later measurement
    import importlib.util

    monkeypatch.setattr(sys, "path", list(sys.path))  # scripts prepend src/ or perfbench/
    scripts = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))
    assert scripts
    for path in scripts:
        spec = importlib.util.spec_from_file_location(f"_script_{path.stem}", path)
        spec.loader.exec_module(importlib.util.module_from_spec(spec))


def test_tracer_sees_every_layer_of_verify(capsys):
    # the tracer rebinds each traced name wherever stabcoh binds it; a call
    # that reaches a function some other way (a dict of route functions, a
    # name bound before the tracer ran) would read 0 on its per-layer
    # metric, so every traced layer must show calls on a cold verify, one
    # certificate per weight of t in [-48, 48] on each route
    from stabcoh import cli, cohomology

    modules = {
        name: mod for name, mod in sys.modules.items() if name == "stabcoh" or name.startswith("stabcoh.")
    }
    before = {name: dict(vars(mod)) for name, mod in modules.items()}
    for memo in (
        cohomology._units_precision,
        cohomology._units_groups,
        cohomology._brute_groups,
        cohomology._bar_crosscheck_class,
        cohomology._bar_groups,
    ):
        memo.cache_clear()
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main(["verify"]) == 0
    finally:
        for name, mod in modules.items():
            for attr, value in before[name].items():
                if getattr(mod, attr) is not value:
                    setattr(mod, attr, value)
    capsys.readouterr()
    assert all(
        getattr(mod, attr) is value for name, mod in modules.items() for attr, value in before[name].items()
    )
    assert len(tracer.certificates["structured"]) == 49
    assert len(tracer.certificates["brute"]) == 49
    stats = tracer.layer_stats()
    names = [f"cli.compute_route_table.{route}" for route in ROUTES]
    names += [f"{module}.{func}" for module, func in TRACED if func != "compute_route_table"]
    unseen = [name for name in names if not stats.get(name, {}).get("calls")]
    assert not unseen, unseen


def test_apply_l_functors_calls_each_functor_once_per_cell(monkeypatch):
    # the traced modules.l0 / modules.l1 counts stay one per input cell
    # only while apply_l_functors calls both on every cell
    from stabcoh import spectral

    seen = {"l0": [], "l1": []}
    for name in seen:
        original = getattr(spectral, name)

        def spy(m, _name=name, _original=original):
            seen[_name].append(m)
            return _original(m)

        monkeypatch.setattr(spectral, name, spy)
    table = spectral.hovey_sadofsky_table(t_window=(-16, 16), s_max=4)
    spectral.apply_l_functors(table)
    exprs = [expr for _, expr in table.cells]
    assert len(exprs) > 0
    assert seen["l0"] == exprs and seen["l1"] == exprs


def _snf_mod_spy(monkeypatch, callers=None):
    """The first argument of every snf_mod call, through each module that
    binds the name; given a list, callers gets each call's caller, and for
    the order reader ``_complex_orders`` that reader's caller (the sweep or
    the bar check); a comprehension's frame counts as its function's."""
    from stabcoh import cohomology, exact_linalg

    seen = []
    real = exact_linalg.snf_mod

    def spy(A, *args, **kwargs):
        seen.append(A)
        if callers is not None:
            frame = sys._getframe(1)
            while frame.f_code.co_name in ("<listcomp>", "_complex_orders"):
                frame = frame.f_back
            callers.append(frame.f_code.co_name)
        return real(A, *args, **kwargs)

    for module in (exact_linalg, cohomology):
        monkeypatch.setattr(module, "snf_mod", spy)
    return seen


def test_snf_mod_gets_nonempty_rectangular_rows(monkeypatch, capsys):
    # every caller must show up with many calls, so that the shape check
    # covers each: the sweep (one restricted differential per degree and
    # miss of the memo of whole answers, 2 x 1 or 2 x 2; 170 calls here),
    # the bar check's model orders and groups, the bar probes and the group
    # reader.  The model's groups are its only calls through
    # _cohomology_mod, one per checked degree and class, so p = 7 runs
    # every class mod e = 42
    from stabcoh import cli, cohomology

    callers = []
    seen = _snf_mod_spy(monkeypatch, callers)
    # the memos are exact; emptied, every Smith form runs again
    cohomology._brute_groups.cache_clear()
    cohomology._bar_crosscheck_class.cache_clear()
    cohomology._bar_groups.cache_clear()
    assert cli.main(["verify"]) == 0
    for p in (3, 5):
        for w in (0, 1, 2, 3, -1, p - 1, p, 2 * p, p * (p - 1) // 2, -p * (p - 1)):
            cohomology.continuous_via_quotients(p, w, 3)
    for w in range(42):
        cohomology.continuous_via_quotients(7, w, 3)
    capsys.readouterr()
    bad = [
        A for A in seen
        if not (isinstance(A, list) and A and all(isinstance(r, list) and len(r) == len(A[0]) for r in A))
    ]
    assert not bad, bad[:3]
    counts = Counter(callers)
    floors = {
        "_colimit_sweep": 170,
        "_bar_crosscheck_class": 50,
        "bar_cohomology_finite": 50,
        "_cohomology_mod": 100,
        "lattice_quotient_exponents": 140,
    }
    assert set(counts) == set(floors) and all(counts[c] >= f for c, f in floors.items()), counts
    sweep = [A for A, c in zip(seen, callers) if c == "_colimit_sweep"]
    assert all(len(A) == 2 and len(A[0]) <= 2 for A in sweep)


def test_no_live_generator_skips_the_relation_smith_form(monkeypatch):
    # d^1 = diag(1, 3) over Z/8 has only unit pivots, so every kernel
    # generator is dead and H^1 = 0; the relation matrix would have no
    # rows, and it is never handed to snf_mod
    from stabcoh.exact_linalg import CochainComplex, complex_cohomology
    from stabcoh.modules import zero_module

    seen = _snf_mod_spy(monkeypatch)
    c = CochainComplex(2, 3, (1, 2, 2), ([{}, {}], [{0: 1}, {1: 3}]))
    assert complex_cohomology(c, 1) == zero_module()
    assert seen == [[[1, 0], [0, 3]]]
