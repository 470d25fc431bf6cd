"""Dirichlet characters with p-adic values: construction, conductor,
products, twists."""

import itertools
import math
import re

import pytest

from qpl import (
    DirichletCharacter,
    NotAUnit,
    UnsupportedOrder,
    char_build,
    char_product,
    char_twist_omega,
    euler_phi,
    induce,
    omega_pow,
    parse_char_spec,
    primitive,
    principal_char,
    teichmuller_int,
)
from qpl.characters import eta_order, unit_group_generators

from helpers import bound_of, residue


def test_omega_basic_shape():
    w = omega_pow(5, 1)
    assert w.modulus == 5 and w.conductor == 5 and w.order == 4
    assert omega_pow(5, 0).conductor == 1
    assert omega_pow(5, 2).order == 2


def test_omega_values_are_teichmuller():
    w = omega_pow(5, 1)
    for a in (1, 2, 3, 4, 7):
        v = w.eval(a, 6)
        assert residue(v, 6) == teichmuller_int(a, 5, 6)


def test_omega_of_minus_one_class():
    w = omega_pow(5, 1)
    assert residue(w.eval(4, 6) + 1, 6) == 0


def test_char_eval_non_unit_is_zero():
    w = omega_pow(5, 1)
    v = w.eval(5, 6)
    assert v.is_exact_zero
    assert w.exponent(10) is None


def test_principal_character():
    one = principal_char(5)
    assert one.modulus == 1 and one.conductor == 1 and one.order == 1
    assert one.is_principal
    assert residue(one.eval(7, 6), 6) == 1


def test_product_exponent_arithmetic():
    assert char_product(omega_pow(5, 2), omega_pow(5, 3)) == omega_pow(5, 1)
    assert char_product(omega_pow(5, 1), omega_pow(5, 3)).is_principal


def test_product_pointwise():
    w1, w2 = omega_pow(5, 1), omega_pow(5, 2)
    prod = char_product(w1, w2)
    for a in range(1, 5):
        lhs = prod.eval(a, 6)
        rhs = w1.eval(a, 6) * w2.eval(a, 6)
        assert bound_of(lhs - rhs) >= 6


def test_induce_keeps_conductor():
    w = omega_pow(5, 1)
    lifted = induce(w, 25)
    assert lifted.modulus == 25 and lifted.conductor == 5
    for a in (1, 2, 3, 4, 6, 7):
        assert bound_of(lifted.eval(a, 6) - w.eval(a, 6)) >= 6
    assert lifted.eval(10, 6).is_exact_zero


def test_primitive_recovers_small_modulus():
    lifted = induce(omega_pow(5, 1), 25)
    prim = primitive(lifted)
    assert prim.modulus == 5
    assert prim == omega_pow(5, 1)


def test_conductor_minimality_witness():
    # an order-2 character mod 8 is primitive: no smaller modulus induces it
    half = eta_order(5) // 2
    chi8 = char_build(8, {3: half, 5: half}, 5)
    assert chi8.conductor == 8
    assert primitive(chi8).modulus == 8


def test_multiplicativity_and_periodicity():
    half = eta_order(5) // 2
    chi = char_build(12, {7: half, 5: 0}, 5)
    f = chi.modulus
    for a in range(1, 40):
        for b in range(1, 12):
            ea, eb, eab = chi.exponent(a), chi.exponent(b), chi.exponent(a * b)
            if ea is None or eb is None:
                assert eab is None
            else:
                assert eab == (ea + eb) % eta_order(5)
        assert chi.exponent(a) == chi.exponent(a + f)


def test_twist_periodicity():
    # the twist direction is chi * omega^(-n)
    w2 = omega_pow(5, 2)
    assert char_twist_omega(w2, 4) == w2
    assert char_twist_omega(w2, -2).is_principal
    assert char_twist_omega(principal_char(5), 1) == omega_pow(5, 3)
    assert char_twist_omega(principal_char(5), -1) == omega_pow(5, 1)


def test_euler_phi():
    assert euler_phi(1) == 1
    assert euler_phi(4) == 2
    assert euler_phi(20) == 8
    assert euler_phi(360) == 96


def test_orthogonality():
    for h in (1, 2, 3):
        w = omega_pow(5, h)
        total = w.eval(1, 8)
        for a in range(2, 5):
            total = total + w.eval(a, 8)
        assert bound_of(total) >= 8


def test_unsupported_order():
    # values of order 6 do not embed into the 5-adic roots of unity
    with pytest.raises(UnsupportedOrder):
        char_build(7, {3: 1}, 5)
    with pytest.raises(UnsupportedOrder):
        parse_char_spec("mod:7;gens:3->1", 5)


def test_char_build_quadratic():
    half = eta_order(5) // 2
    chi3 = char_build(3, {2: half}, 5)
    assert chi3.conductor == 3 and chi3.order == 2
    assert residue(chi3.eval(2, 6) + 1, 6) == 0


def test_parse_char_spec():
    assert parse_char_spec("principal", 5).is_principal
    assert parse_char_spec("omega", 5) == omega_pow(5, 1)
    assert parse_char_spec("omega^2", 5) == omega_pow(5, 2)
    assert parse_char_spec("omega^0", 5).is_principal


def _mod_spec(chi):
    d = chi.to_dict()
    return "mod:%d;gens:%s" % (
        d["modulus"], ",".join("%d->%d" % (g, e) for g, e in d["generators"]))


def test_unit_group_generators():
    # the 2-power branches, and the CRT lift of a generator modulo 3 and
    # one modulo 5 to residues = 1 modulo the other factor
    assert unit_group_generators(2) == ()
    assert unit_group_generators(4) == ((3, 2),)
    assert unit_group_generators(8) == ((7, 2), (5, 2))
    assert unit_group_generators(15) == ((11, 2), (7, 4))


def test_unit_group_generators_generate_with_their_orders():
    # every modulus below 400, odd prime powers p^e with e >= 2 among them,
    # where a primitive root modulo p is lifted
    for m in range(1, 400):
        gens = unit_group_generators(m)
        for g, order in gens:
            assert math.gcd(g, m) == 1, (m, g)
            powers = {pow(g, i, m) for i in range(1, order + 1)}
            assert len(powers) == order and pow(g, order, m) == 1, (m, g)
        group = {1 % m}
        for g, order in gens:
            group = {x * pow(g, i, m) % m for x in group for i in range(order)}
        assert len(group) == math.prod(o for _, o in gens) == euler_phi(m), m


@pytest.mark.parametrize("build", (
    lambda p: principal_char(p),
    lambda p: omega_pow(p, 1),
    lambda p: char_build(3, {2: 1}, p),
    lambda p: parse_char_spec("omega", p),
), ids=("principal_char", "omega_pow", "char_build", "parse_char_spec"))
@pytest.mark.parametrize("p", (1, 4, 9, 1763))
def test_characters_refuse_a_composite_p(build, p):
    # omega at p = 4 built the table (None, 0, 1, None) with conductor 2
    with pytest.raises(ValueError, match="p must be prime, got %d" % p):
        build(p)


@pytest.mark.parametrize("p", (2, 5))
@pytest.mark.parametrize("modulus", (4, 8))
def test_mod_gens_spec_round_trip_at_two_powers(p, modulus):
    gens = unit_group_generators(modulus)
    eta = eta_order(p)
    # every image e with order * e = 0 mod eta is a character into Z_p
    choices = [[e for e in range(eta) if order * e % eta == 0]
               for _, order in gens]
    seen = set()
    for images in itertools.product(*choices):
        chi = char_build(modulus, dict(zip((g for g, _ in gens), images)), p)
        assert parse_char_spec(_mod_spec(chi), p) == chi
        seen.add(chi)
    assert len(seen) == math.prod(len(c) for c in choices)


def test_mod_gens_spec():
    chi = parse_char_spec("mod:15;gens:7->1,11->2", 5)
    assert (chi.modulus, chi.conductor, chi.order) == (15, 15, 4)
    assert _mod_spec(chi) == "mod:15;gens:11->2,7->1"
    assert parse_char_spec(_mod_spec(chi), 5) == chi
    for spec, message in (
            ("mod:15", "expected 'mod:<m>;gens:<g>-><e>,...'"),
            ("mod:15;gens:7", "bad generator image '7'"),
            ("mod:15;gens:3->1", "generator 3 is not a unit modulo 15"),
            ("mod:15;gens:7->1", "generators [7] do not generate (Z/15)^*")):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_char_spec(spec, 5)


def test_character_hashable_and_serializable():
    w2 = omega_pow(5, 2)
    table = {w2: "x"}
    assert table[omega_pow(5, 2)] == "x"
    d = w2.to_dict()
    assert d["conductor"] == 5 and d["order"] == 2
