"""Weight-module cohomology: routes, oracles, and cross-validation."""

import pytest

from oracles import bar_cohomology_by_enumeration
from stabcoh.cohomology import (
    _action_class,
    _anchor_valuation,
    _stable_colimit_exponents,
    bar_cohomology_finite,
    continuous_via_quotients,
    cyclic_cohomology,
    cyclic_group_data,
    procyclic_cohomology,
    procyclic_generator,
    quotient_level_cohomology,
    teichmuller,
    units_cohomology,
    units_group_data,
    weight_scalar,
)
from stabcoh.errors import BudgetExceeded, PrecisionExhausted
from stabcoh.exact_linalg import BaseZMod, BaseZpTrunc, vp
from stabcoh.modules import cyclic, padic, zero_module


# --- number-theoretic anchor -------------------------------------------------


def test_valuation_anchor_for_five():
    # v_2(5^w - 1) = v_2(w) + 2 for even w, and 2 for odd w
    for w in range(1, 513):
        v = vp(5**w - 1, 2)
        if w % 2 == 0:
            assert v == vp(w, 2) + 2
        else:
            assert v == 2


def test_valuation_anchor_odd_primes():
    for p in (3, 5, 7):
        for w in range(1, 100):
            assert vp((1 + p) ** w - 1, p) == vp(w, p) + 1


# --- procyclic factor --------------------------------------------------------


def test_procyclic_weight_zero():
    r = procyclic_cohomology(2, 0)
    assert r.group(0) == padic(2) and r.group(1) == padic(2)


def test_procyclic_weight_four():
    assert 5**4 - 1 == 624 == 2**4 * 39
    r = procyclic_cohomology(2, 4)
    assert r.group(0) == zero_module()
    assert r.group(1) == cyclic(2, 4)


def test_procyclic_weight_one():
    assert 5 - 1 == 4
    r = procyclic_cohomology(2, 1)
    assert r.group(0) == zero_module()
    assert r.group(1) == cyclic(2, 2)


def test_procyclic_negative_weight_symmetric():
    for w in (1, 3, 4, 12):
        a = procyclic_cohomology(2, w)
        b = procyclic_cohomology(2, -w)
        assert a.groups == b.groups


def test_procyclic_precision_precondition():
    with pytest.raises(PrecisionExhausted):
        procyclic_cohomology(2, 4, precision=4)
    assert procyclic_cohomology(2, 4, precision=5).group(1) == cyclic(2, 4)


# --- finite cyclic groups ----------------------------------------------------


def test_cyclic_sign_action_on_z4():
    r = cyclic_cohomology(2, -1, BaseZMod(2, 2), 2)
    assert [str(r.group(s)) for s in range(3)] == ["Z/2", "Z/2", "Z/2"]


def test_cyclic_trivial_action_on_z4():
    r = cyclic_cohomology(2, 1, BaseZMod(2, 2), 2)
    assert [str(r.group(s)) for s in range(3)] == ["Z/2^2", "Z/2", "Z/2"]


def test_cyclic_trivial_group():
    r = cyclic_cohomology(1, 1, BaseZMod(2, 3), 3)
    assert r.group(0) == cyclic(2, 3)
    assert all(r.group(s) == zero_module() for s in (1, 2, 3))


def test_cyclic_two_periodicity():
    for m, a, p, N in [(2, 7, 2, 3), (4, 3, 2, 4), (3, 4, 3, 2), (6, 8, 3, 2)]:
        r = cyclic_cohomology(m, a, BaseZMod(p, N), 5)
        for s in range(1, 4):
            assert r.group(s) == r.group(s + 2)


def test_cyclic_over_padic_base():
    # sign action on Z_2 itself: kernels of -2 vanish in a domain, so the
    # even positive degrees die and the odd ones carry Z/2
    r = cyclic_cohomology(2, -1, BaseZpTrunc(2, 8), 4)
    assert r.group(0) == zero_module()
    assert r.group(1) == cyclic(2, 1)
    assert r.group(2) == zero_module()
    assert r.group(3) == cyclic(2, 1)
    r = cyclic_cohomology(2, 1, BaseZpTrunc(2, 8), 2)
    assert r.group(0) == padic(2)
    assert r.group(1) == zero_module()  # Z_2 is torsion-free
    assert r.group(2) == cyclic(2, 1)


# --- bar complexes -----------------------------------------------------------


def test_bar_trivial_group():
    g = cyclic_group_data(1, 1, 2, 2)
    r = bar_cohomology_finite(g, 3)
    assert r.group(0) == cyclic(2, 2)
    assert all(r.group(s) == zero_module() for s in (1, 2, 3))


def test_bar_matches_tiny_enumeration():
    # C2 with the sign action on Z/4: compare against full cochain
    # enumeration in degrees 0..2
    table = ((0, 1), (1, 0))
    action = (1, 3)
    for s in range(3):
        want = bar_cohomology_by_enumeration(table, action, 2, 2, s)
        g = cyclic_group_data(2, 3, 2, 2)
        got = bar_cohomology_finite(g, 2).group(s)
        assert tuple(got.cyclics) == want and got.padics == got.free == 0


def test_bar_cross_route_agreement_with_cyclic():
    for (m, a, p, N) in [(2, -1, 2, 2), (2, 1, 2, 2), (3, 1, 3, 2), (4, 7, 2, 3)]:
        g = cyclic_group_data(m, a % p**N, p, N)
        bar = bar_cohomology_finite(g, 3, budget=10**7)
        cyc = cyclic_cohomology(m, a % p**N, BaseZMod(p, N), 3)
        for s in range(4):
            assert bar.group(s) == cyc.group(s), (m, a, p, N, s)


def test_bar_units_mod_8_homomorphism_count():
    # (Z/8)^x = C2 x C2 acting trivially on Z/2: H^1 counts homs, (Z/2)^2
    g = units_group_data(2, 3, 0, 1)
    assert bar_cohomology_finite(g, 1).group(1) == cyclic(2, 1, 2)


def test_bar_budget_guard():
    g = units_group_data(2, 4, 0, 1)
    with pytest.raises(BudgetExceeded):
        bar_cohomology_finite(g, 3, budget=10**4)


def test_bar_group_axioms_checked():
    from stabcoh.cohomology import FiniteGroupData

    with pytest.raises(ValueError):
        FiniteGroupData(2, 1, ((0, 1), (1, 1)), (1, 1))  # row not a permutation
    with pytest.raises(ValueError):
        FiniteGroupData(2, 2, ((0, 1), (1, 0)), (1, 2))  # 2 is not a unit mod 4
    with pytest.raises(ValueError):
        FiniteGroupData(2, 2, ((1, 0), (0, 1)), (1, 1))  # index 0 not the identity
    with pytest.raises(ValueError):
        # g^2 = e but 3*3 = 9 is not 1 mod 16: action not multiplicative
        FiniteGroupData(2, 4, ((0, 1), (1, 0)), (1, 3))


def test_small_model_equals_bar_on_quotients():
    for p, rmax in [(2, 4), (3, 2)]:
        for r in range(2 if p == 2 else 1, rmax + 1):
            for w in (-2, -1, 0, 1, 2, 4):
                for N in (1, 2, 3):
                    try:
                        g = units_group_data(p, r, w, N)
                    except ValueError:
                        continue
                    n = len(g)
                    smax = 3 if n <= 4 else (2 if n <= 8 else 1)
                    bar = bar_cohomology_finite(g, smax, budget=10**7)
                    small = quotient_level_cohomology(p, w, r, N, smax)
                    for s in range(smax + 1):
                        assert bar.group(s) == small[s], (p, r, w, N, s)


# --- structured route --------------------------------------------------------


def test_units_cohomology_reference_cells():
    r = units_cohomology(2, 4, 1)
    assert r.group(1) == cyclic(2, 4)  # t = 8
    r = units_cohomology(2, 1, 1)
    assert r.group(1) == cyclic(2, 1)  # t = 2
    r = units_cohomology(2, 0, 1)
    assert r.group(0) == padic(2) and r.group(1) == padic(2)
    r = units_cohomology(3, 2, 1)
    assert r.group(1) == cyclic(3, 1)


def test_units_cohomology_deep_weights_trigger_precision_retry():
    # v_2(5^64 - 1) = 8: the default working precision is insufficient and
    # the doubling retry must kick in transparently
    r = units_cohomology(2, 64, 1)
    assert r.group(1) == cyclic(2, 8)
    assert r.certificate["precision"] > 8


def test_units_cohomology_precision_ceiling():
    with pytest.raises(PrecisionExhausted):
        units_cohomology(2, 64, 1, precision=4, precision_ceiling=8)


def test_units_cohomology_teichmuller_entries():
    # p = 5, torsion C4: weights 1 and 3 act through characters of order 4,
    # whose unit t - 1 the structured complex rescales to 1
    for w, want in [(1, zero_module()), (3, zero_module()), (4, cyclic(5, 1)), (20, cyclic(5, 2))]:
        r = units_cohomology(5, w, 2)
        assert r.group(1) == want
        assert r.group(2) == zero_module()


def _odd_closed_form(p, w, s):
    """H^s(Z_p^x, Z_p(w)) at odd p: Z_p in degrees 0 and 1 at w = 0,
    Z/p^(1 + v_p(w)) in degree 1 when (p - 1) | w, and 0 otherwise."""
    if w == 0:
        return padic(p) if s in (0, 1) else zero_module()
    if s == 1 and w % (p - 1) == 0:
        return cyclic(p, 1 + vp(w, p))
    return zero_module()


@pytest.mark.parametrize("p", [5, 7])
def test_units_cohomology_odd_prime_closed_form(p):
    # at p = 7 the weights run through torsion characters of order 1, 2, 3
    # and 6; the deep ones need the precision retry
    small = range(-2 * (p - 1), 2 * (p - 1) + 1)
    deep = [sign * p**k * (p - 1) for k in range(12) for sign in (1, -1)]
    s_max = 3
    structured = {w: units_cohomology(p, w, s_max) for w in list(small) + deep}
    for w, res in structured.items():
        for s in range(s_max + 1):
            assert res.group(s) == _odd_closed_form(p, w, s), (p, w, s)
        assert res.groups == structured[-w].groups, (p, w)
    brute = {w: continuous_via_quotients(p, w, s_max) for w in small}
    for w, res in brute.items():
        assert res.groups == structured[w].groups, (p, w)
        assert res.groups == brute[-w].groups, (p, w)


def test_teichmuller_is_root_of_unity():
    for p in (3, 5, 7):
        om = teichmuller(p, 6)
        assert pow(om, p - 1, p**6) == 1
        assert om % p != 1 or p == 2


# --- brute route -------------------------------------------------------------


def test_brute_reference_cells():
    r = continuous_via_quotients(2, 1, 1)
    assert r.group(1) == cyclic(2, 1)  # t = 2, s = 1
    r = continuous_via_quotients(2, 0, 2)
    assert r.group(2) == cyclic(2, 1)  # t = 0, s = 2
    r = continuous_via_quotients(2, 4, 0)
    assert r.group(0) == zero_module()  # t = 8, s = 0


def test_brute_detects_free_summands():
    r = continuous_via_quotients(2, 0, 1)
    assert r.group(0) == padic(2)
    assert r.group(1) == padic(2)


@pytest.mark.parametrize("p,weights", [(2, range(-6, 7)), (3, range(-4, 5))])
def test_brute_agrees_with_structured(p, weights):
    for w in weights:
        b = continuous_via_quotients(p, w, 3)
        s = units_cohomology(p, w, 3)
        for k in range(4):
            assert b.group(k) == s.group(k), (p, w, k)


@pytest.mark.parametrize(
    "p,weights",
    [(2, (1, 3, 5, 9, 17, -7, 4, 12, 20)), (3, (2, 4, 8, 20, -2, -16)), (5, (4, 24, 44, -16, 1, 21))],
)
def test_brute_colimit_memo_is_exact(p, weights):
    # the weights share action classes at small N, so later weights read
    # colimits that earlier ones put in the cache; fresh recomputation,
    # with the cache emptied first, must give the same groups
    _stable_colimit_exponents.cache_clear()
    warm = [continuous_via_quotients(p, w, 3) for w in weights]
    assert _stable_colimit_exponents.cache_info().hits > 0
    classes = {_action_class(p, w, 2) for w in weights}
    assert len(classes) < len(weights)
    for w, res in zip(weights, warm):
        _stable_colimit_exponents.cache_clear()
        cold = continuous_via_quotients(p, w, 3)
        assert cold.groups == res.groups, (p, w)
        assert cold.certificate == res.certificate, (p, w)


def test_anchor_valuation_matches_direct_power():
    for p in (2, 3, 5, 7):
        g = procyclic_generator(p)
        for w in list(range(-60, 61)) + [p**5, -(p**5) * (p - 1)]:
            want = 0 if w == 0 else vp(g ** abs(w) - 1, p)
            assert _anchor_valuation(p, w) == want, (p, w)
    assert _anchor_valuation(3, 3**15) == 16


def test_brute_certificate_reports_levels():
    r = continuous_via_quotients(2, 4, 2)
    assert r.certificate["max_level"] >= 6
    assert r.certificate["precision"] >= 6
    assert r.certificate["precision_ceiling"] == 24
    r = continuous_via_quotients(2, 4, 2, precision_ceiling=12)
    assert r.certificate["precision_ceiling"] == 12


def test_weight_scalar_negative_weights():
    assert weight_scalar(2, -1, 4, 5) == pow(5, -1, 16)
    assert (weight_scalar(2, -4, 8, 5) * pow(5, 4, 256)) % 256 == 1


def test_weight_module_action():
    from stabcoh.cohomology import WeightModule

    m = WeightModule(2, 4, BaseZMod(2, 6))
    assert m.action(5) == pow(5, 4, 64)
    assert m.action(-1) == 1
    mneg = WeightModule(2, -3, BaseZpTrunc(2, 5))
    assert (mneg.action(5) * pow(5, 3, 32)) % 32 == 1


# --- precision monotonicity --------------------------------------------------


def test_precision_monotonicity_structured():
    for w in (0, 1, 4, 12):
        base = units_cohomology(2, w, 3, precision=8)
        for n in (16, 32):
            again = units_cohomology(2, w, 3, precision=n)
            assert [again.group(s) for s in range(4)] == [base.group(s) for s in range(4)]


def test_level_monotonicity_brute():
    # forcing a larger level ceiling must not change certified answers
    a = continuous_via_quotients(2, 4, 2)
    b = continuous_via_quotients(2, 4, 2, level_ceiling=30)
    assert a.groups == b.groups
