"""Atom arithmetic, derived completion functors, and the text grammar."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import cyclic_tensor_exponent
from stabcoh.errors import ModuleExprParseError, NotProjective, OutsideAtomClass
from stabcoh.modules import (
    ModuleExpr,
    boxtimes,
    cyclic,
    derived_completion,
    format_module_expr,
    hom,
    is_prime,
    is_tame,
    l0,
    l1,
    local_free,
    ls,
    padic,
    parse_module_expr,
    prufer,
    tensor,
    zero_module,
)


def exprs(p=2, max_count=3, allow_divisible=True):
    counts = st.integers(min_value=0, max_value=max_count)
    return st.builds(
        lambda f, z, cy, q: ModuleExpr(
            p, f, z, tuple(cy), q if allow_divisible else 0
        ),
        counts,
        counts,
        st.lists(st.integers(min_value=1, max_value=6), max_size=max_count),
        counts,
    )


def fg_exprs(p=2):
    return st.builds(
        lambda f, cy: ModuleExpr(p, f, 0, tuple(cy), 0),
        st.integers(min_value=0, max_value=3),
        st.lists(st.integers(min_value=1, max_value=6), max_size=3),
    )


# --- the atom tables -------------------------------------------------------


def test_l0_atom_values():
    assert l0(local_free(2)) == padic(2)
    assert l0(prufer(2)) == zero_module()
    assert l0(cyclic(2, 3) + cyclic(2, 1)) == cyclic(2, 3) + cyclic(2, 1)
    assert l0(padic(2)) == padic(2)


def test_l1_atom_values():
    assert l1(prufer(2)) == padic(2)
    assert l1(local_free(2)) == zero_module()
    assert l1(cyclic(2, 5)) == zero_module()
    assert l1(padic(2)) == zero_module()


def test_higher_functors_vanish():
    assert ls(prufer(2), 2) == zero_module()
    assert ls(local_free(2) + cyclic(2, 2), 3) == zero_module()
    assert ls(zero_module(), 2) == zero_module()
    with pytest.raises(ValueError):
        ls(prufer(2), 1)
    assert derived_completion(prufer(2), 1) == padic(2)


def test_zero_module_is_one_frozen_instance():
    z = zero_module()
    assert z is zero_module()
    assert z == ModuleExpr(None) and hash(z) == hash(ModuleExpr(None))
    assert z == ModuleExpr(3) and z.p is None and z.is_zero
    with pytest.raises(AttributeError):
        z.free = 1
    assert zero_module() == ModuleExpr(None)


def test_module_expr_is_a_hashable_value_unequal_to_its_fields():
    m = ModuleExpr(2, 1, 2, (1, 3), 1)
    twin = ModuleExpr(2, 1, 2, (3, 1), 1)
    assert m == twin and hash(m) == hash(twin) and {m: "x"}[twin] == "x"
    fields = (m.p, m.free, m.padics, m.cyclics, m.prufers)
    assert fields == (2, 1, 2, (3, 1), 1)
    assert m != fields and fields != m and m != list(fields)
    assert m != ModuleExpr(2, 1, 2, (3, 1), 0) and m != ModuleExpr(3, 1, 2, (3, 1), 1)


def test_is_tame():
    assert is_tame(cyclic(2, 2))
    assert not is_tame(prufer(2))
    assert is_tame(local_free(2))
    assert is_tame(zero_module())


# --- tensor ----------------------------------------------------------------


def test_tensor_cyclic_rule_matches_presentation_oracle():
    for a in range(1, 5):
        for b in range(1, 5):
            got = tensor(cyclic(2, a), cyclic(2, b))
            assert got == cyclic(2, cyclic_tensor_exponent(a, b))
    assert tensor(cyclic(2, 2), cyclic(2, 3)) == cyclic(2, 2)


def test_tensor_divisible_against_bounded_is_zero():
    # stage r of Q/Z_(2) is Z/2^r; the transition Z/2^r -> Z/2^(r+1) is
    # multiplication by 2, which kills Z/2^r (x) Z/2 = Z/2 at every stage,
    # so the colimit vanishes.
    stage_exponents = [cyclic_tensor_exponent(r, 1) for r in range(1, 9)]
    assert stage_exponents == [1] * 8
    image_after_transition = [max(e - 1, 0) for e in stage_exponents]
    assert image_after_transition == [0] * 8
    assert tensor(prufer(2), cyclic(2, 1)) == zero_module()


def test_tensor_unit_and_padic_rules():
    assert tensor(local_free(2), prufer(2)) == prufer(2)
    assert tensor(padic(2), cyclic(2, 3)) == cyclic(2, 3)
    assert tensor(padic(2), local_free(2)) == padic(2)
    with pytest.raises(OutsideAtomClass):
        tensor(padic(2), padic(2))
    with pytest.raises(OutsideAtomClass):
        tensor(prufer(2), padic(2))


# --- completed tensor ------------------------------------------------------


def test_boxtimes_finitely_generated_case_reduces_to_tensor():
    assert boxtimes(cyclic(2, 2), cyclic(2, 3)) == cyclic(2, 2)


def test_boxtimes_padic_square():
    # truncation stages (Z_2 (x) Z_2)/2^k = Z/2^k form the constant-rank
    # surjective tower whose limit is Z_2
    stages = [cyclic_tensor_exponent(k, k) for k in range(1, 9)]
    assert stages == list(range(1, 9))
    assert boxtimes(padic(2), padic(2)) == padic(2)


def test_boxtimes_padic_against_divisible_vanishes():
    # (Z_2 (x) Z/2^r)/2^k = Z/2^min(r,k); the colimit over r along
    # multiplication-by-2 transitions is killed at every finite stage k
    for k in range(1, 6):
        stages = [min(r, k) for r in range(1, 10)]
        images = [max(min(stages[i + 1], stages[i] - 0) - 1, 0) for i in range(len(stages) - 1)]
        # one transition already drops the generator's order
        assert all(im < k or st_ == k for im, st_ in zip(images, stages))
    iterated = 5
    order = 4
    for _ in range(iterated):
        order = max(order - 1, 0)
    assert order == 0
    assert boxtimes(padic(2), prufer(2)) == zero_module()
    assert boxtimes(prufer(2), prufer(2)) == zero_module()


@given(fg_exprs(), fg_exprs())
def test_boxtimes_agrees_with_l0_tensor_on_fg_inputs(m, n):
    assert boxtimes(m, n) == l0(tensor(m, n))


@given(exprs(), fg_exprs())
def test_boxtimes_agrees_with_l0_tensor_when_tensor_defined(m, n):
    assert boxtimes(m, n) == l0(tensor(m, n))
    assert boxtimes(n, m) == l0(tensor(n, m))


@given(exprs(), exprs())
def test_boxtimes_commutative(m, n):
    assert boxtimes(m, n) == boxtimes(n, m)


@given(exprs(max_count=2), exprs(max_count=2), exprs(max_count=2))
def test_boxtimes_associative(m, n, k):
    assert boxtimes(boxtimes(m, n), k) == boxtimes(m, boxtimes(n, k))


@given(exprs(), exprs(), exprs())
def test_boxtimes_distributes_over_sums(m, n, k):
    assert boxtimes(m, n + k) == boxtimes(m, n) + boxtimes(m, k)


# --- hom -------------------------------------------------------------------


def test_hom_examples():
    # continuous maps Z_2 -> Z/4 are determined on Z/4, giving 4 of them
    assert hom(padic(2, 2), cyclic(2, 2)) == cyclic(2, 2, 2)
    assert hom(local_free(2), prufer(2)) == prufer(2)
    with pytest.raises(NotProjective):
        hom(cyclic(2, 2), cyclic(2, 2))
    with pytest.raises(OutsideAtomClass):
        hom(padic(2), local_free(2))
    with pytest.raises(OutsideAtomClass):
        hom(padic(2), prufer(2))


def test_hom_l0_corollary_for_free_sources():
    for f in range(4):
        for r in range(4):
            lhs = l0(hom(local_free(2, f), local_free(2, r)))
            rhs = hom(l0(local_free(2, f)), l0(local_free(2, r)))
            assert lhs == rhs == padic(2, f * r)


# --- axioms ----------------------------------------------------------------


@given(exprs())
def test_l0_idempotent(m):
    assert l0(l0(m)) == l0(m)


@given(exprs())
def test_l_complete_output_is_tame(m):
    assert l1(l0(m)) == zero_module()
    assert ls(l0(m), 2) == zero_module()


@given(exprs(), exprs())
def test_additivity(m, n):
    assert l0(m + n) == l0(m) + l0(n)
    assert l1(m + n) == l1(m) + l1(n)


PRIMES = st.sampled_from([2, 3, 5, 7])


def _same_value(a, b):
    return a == b and hash(a) == hash(b)


@given(PRIMES.flatmap(exprs))
def test_shared_values_equal_field_by_field_builds(m):
    # l0, l1 and a sum with zero may hand back an existing instance
    assert _same_value(l0(m), ModuleExpr(m.p, 0, m.free + m.padics, m.cyclics, 0))
    assert _same_value(l1(m), ModuleExpr(m.p, padics=m.prufers))
    rebuilt = ModuleExpr(m.p, m.free, m.padics, m.cyclics, m.prufers)
    assert _same_value(m + zero_module(), rebuilt)
    assert _same_value(zero_module() + m, rebuilt)


@given(PRIMES, st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=3))
def test_shared_atoms_equal_field_by_field_builds(p, k, n):
    assert _same_value(cyclic(p, k, n), ModuleExpr(p, cyclics=(k,) * n))
    assert _same_value(padic(p, n), ModuleExpr(p, padics=n))
    assert cyclic(p, k, n) is cyclic(p, k, n)


def test_shared_instances_stay_frozen():
    m = padic(2) + cyclic(2, 3)
    for shared in (cyclic(2, 3), padic(2), l0(m), m + zero_module(), l1(m)):
        with pytest.raises(AttributeError):
            shared.padics = 5
    assert cyclic(2, 3) == ModuleExpr(2, cyclics=(3,)) and padic(2) == ModuleExpr(2, padics=1)


def test_shared_atoms_keep_the_type_of_their_prime():
    assert type(cyclic(np.int64(3), 2).p) is np.int64
    assert type(cyclic(3, 2).p) is int
    with pytest.raises(ValueError):
        cyclic(2, 0)
    with pytest.raises(ValueError):
        padic(1)


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
def test_six_term_lengths_for_cyclic_ses(a, b):
    # 0 -> Z/p^a -> Z/p^(a+b) -> Z/p^b -> 0: L1 vanishes throughout and
    # the alternating sum of L0 lengths is zero
    ends = [cyclic(2, a), cyclic(2, a + b), cyclic(2, b)]
    assert all(l1(x) == zero_module() for x in ends)
    lengths = [l0(x).torsion_length() for x in ends]
    assert lengths[0] - lengths[1] + lengths[2] == 0


# --- grammar ---------------------------------------------------------------


def test_parse_examples():
    assert parse_module_expr("0") == zero_module()
    assert parse_module_expr("Z(2)") == local_free(2)
    assert parse_module_expr("Zp + Z/2^4 + Q/Z(2)") == padic(2) + cyclic(2, 4) + prufer(2)
    assert parse_module_expr("Z/4") == cyclic(2, 2)
    assert parse_module_expr("Z/8 + Z/2") == cyclic(2, 3) + cyclic(2, 1)
    assert parse_module_expr(" Zp ", p=3) == padic(3)
    assert parse_module_expr("Z/9") == cyclic(3, 2)


def test_parse_is_whitespace_insensitive():
    a = parse_module_expr("Zp+Z/2^4+Q/Z(2)")
    b = parse_module_expr("  Zp  +  Z/2^4  +  Q/Z(2) ")
    assert a == b


def test_parse_errors_carry_positions():
    with pytest.raises(ModuleExprParseError) as e:
        parse_module_expr("Zp + what")
    assert e.value.position == 5
    with pytest.raises(ModuleExprParseError):
        parse_module_expr("Z/6")  # not a prime power
    with pytest.raises(ModuleExprParseError):
        parse_module_expr("Z(2) + Z/9")  # mixed primes
    with pytest.raises(ModuleExprParseError):
        parse_module_expr("Zp")  # prime undetermined
    with pytest.raises(ModuleExprParseError):
        parse_module_expr("Zp +")


@pytest.mark.parametrize(
    "text,position",
    [("Z(6)", 0), ("Q/Z(4)", 0), ("Zp + Q/Z(4)", 5), ("Z(2) + Z(1)", 7), ("Z/6^2", 0)],
)
def test_parse_refuses_non_prime_atoms(text, position):
    with pytest.raises(ModuleExprParseError) as e:
        parse_module_expr(text)
    assert e.value.position == position
    assert "is not prime" in str(e.value)


@given(exprs())
def test_round_trip(m):
    assert parse_module_expr(format_module_expr(m), p=2) == m


def test_canonical_order():
    m = prufer(2) + cyclic(2, 1) + padic(2) + cyclic(2, 3) + local_free(2)
    assert format_module_expr(m) == "Z(2) + Zp + Z/2^3 + Z/2 + Q/Z(2)"


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(-3, 5000) if is_prime(n)] == [n for n in range(-3, 5000) if trial(n)]


def test_is_prime_large_and_pseudoprime_inputs():
    assert is_prime(2**61 - 1)
    assert is_prime(10**18 + 3)
    assert not is_prime(561)  # a Carmichael number
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5, 7
    # strong pseudoprime to the first 12 prime bases; base 41 exposes it
    assert not is_prime(318665857834031151167461)
    assert not is_prime(2**200)  # a multiple of a base is decided at any size
    with pytest.raises(ValueError, match="too large to certify prime"):
        is_prime(3317044064679887385961981)


def test_parse_huge_and_carmichael_atoms():
    q = 10**18 + 3
    assert parse_module_expr(f"Z/{q}") == cyclic(q, 1)
    assert parse_module_expr(f"Z/{q**2} + Z({q})") == cyclic(q, 2) + local_free(q)
    assert parse_module_expr(f"Z({2**61 - 1})") == local_free(2**61 - 1)
    for text in ("Z/561", "Z(561)", "Z/561^2"):
        with pytest.raises(ModuleExprParseError):
            parse_module_expr(text)
    with pytest.raises(ModuleExprParseError, match="too large to certify prime"):
        parse_module_expr("Z/3317044064679887385961981")
