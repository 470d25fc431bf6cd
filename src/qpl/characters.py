"""Dirichlet characters with values embedded in Z_p.

Only characters whose values lie in the roots of unity of Z_p are supported:
mu_{p-1} for odd p and {1, -1} for p = 2.  Every value is therefore a power
of a fixed generator eta (the Teichmuller lift of the smallest primitive
root modulo p*), and a character is stored as a table of eta-exponents
indexed by residue, with None marking residues sharing a factor with the
modulus.  Exponent arithmetic is exact; materialization into Z_p happens
only on evaluation.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import UnsupportedOrder
from .padic import PadicNumber, _teich_lift, p_star

__all__ = [
    "DirichletCharacter",
    "char_build",
    "char_eval",
    "char_product",
    "char_twist_omega",
    "euler_phi",
    "eta_order",
    "eta_power",
    "induce",
    "omega_pow",
    "parse_char_spec",
    "primitive",
    "principal_char",
    "unit_group_generators",
]


def _factorize(n: int) -> dict:
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("totient needs n >= 1")
    result = n
    for q in _factorize(n):
        result = result // q * (q - 1)
    return result


#: primes kept by the two prime-keyed caches below; a workload or the whole
#: test suite asks for at most six primes
PRIME_CACHE_CAP = 64


@lru_cache(maxsize=PRIME_CACHE_CAP)
def _primitive_root_mod_prime(q: int) -> int:
    order = q - 1
    factors = list(_factorize(order))
    for g in range(2, q):
        if all(pow(g, order // m, q) != 1 for m in factors):
            return g
    raise AssertionError("no primitive root modulo prime %d" % q)


def _primitive_root_mod_prime_power(q: int, e: int) -> int:
    g = _primitive_root_mod_prime(q)
    if e == 1:
        return g
    # g lifts to q^e unless g^(q-1) = 1 (mod q^2), in which case g+q does
    if pow(g, q - 1, q * q) == 1:
        g += q
    return g


def unit_group_generators(modulus: int) -> tuple:
    """Canonical generators of (Z/modulus)^* as ((g, order), ...) via CRT."""
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    if modulus <= 2:
        return ()
    factors = _factorize(modulus)
    local = []  # (prime_power, [(gen mod prime_power, order), ...])
    for q, e in sorted(factors.items()):
        qe = q ** e
        if q == 2:
            if e == 1:
                gens = []
            elif e == 2:
                gens = [(3, 2)]
            else:
                gens = [(qe - 1, 2), (5, qe // 4)]
        else:
            gens = [(_primitive_root_mod_prime_power(q, e), euler_phi(qe))]
        local.append((qe, gens))
    out = []
    for qe, gens in local:
        rest = modulus // qe
        for g, order in gens:
            if rest == 1:
                lifted = g % modulus
            else:
                # x = g (mod qe), x = 1 (mod rest)
                lifted = (g * rest * pow(rest, -1, qe)
                          + qe * pow(qe, -1, rest)) % modulus
            out.append((lifted, order))
    return tuple(out)


def eta_order(p: int) -> int:
    """Order of the group of roots of unity of Z_p: phi(p*)."""
    return euler_phi(p_star(p))


@lru_cache(maxsize=PRIME_CACHE_CAP)
def _eta_base(p: int) -> int:
    """Smallest primitive root modulo p* (3 for p = 2)."""
    return 3 if p == 2 else _primitive_root_mod_prime(p)


def _eta_power_int(p: int, e: int, prec: int) -> int:
    """eta^e modulo p^prec: the lift of the residue eta^e mod p*."""
    return _teich_lift(p, pow(_eta_base(p), e, p_star(p)), prec)


def eta_power(p: int, e: int, prec: int) -> PadicNumber:
    """eta^e in Z_p at absolute precision prec."""
    return PadicNumber(p, 0, _eta_power_int(p, e, prec), prec)


class DirichletCharacter:
    """A character of (Z/modulus)^* with values in the roots of unity of Z_p.

    exp_table[a] is the eta-exponent of chi(a) for gcd(a, modulus) = 1 and
    None otherwise; the table has length modulus (length 1 for modulus 1,
    where the character is 1 everywhere, including at multiples of p).
    """

    __slots__ = ("p", "modulus", "conductor", "order", "exp_table")

    def __init__(self, p: int, modulus: int, exp_table: tuple,
                 conductor: int, order: int):
        self.p = p
        self.modulus = modulus
        self.exp_table = exp_table
        self.conductor = conductor
        self.order = order

    @property
    def is_principal(self) -> bool:
        return self.order == 1

    @property
    def eta_order(self) -> int:
        return eta_order(self.p)

    def exponent(self, a: int):
        """eta-exponent of chi(a), or None when chi(a) = 0."""
        return self.exp_table[a % self.modulus]

    def eval(self, a: int, prec: int = 20) -> PadicNumber:
        e = self.exponent(a)
        if e is None:
            return PadicNumber.exact_zero(self.p, prec)
        return eta_power(self.p, e, prec)

    def lift(self, a: int, prec: int) -> int:
        """chi(a) as an integer modulo p^prec: 0 off the units, the
        Teichmuller lift of eta^e on them (the tables hold e reduced)."""
        e = self.exponent(a)
        return 0 if e is None else _eta_power_int(self.p, e, prec)

    def generator_data(self) -> tuple:
        """((g, exponent), ...) over the canonical generators of the modulus."""
        return tuple(
            (g, self.exp_table[g % self.modulus])
            for g, _ in unit_group_generators(self.modulus)
        )

    def to_dict(self) -> dict:
        return {
            "modulus": self.modulus,
            "conductor": self.conductor,
            "order": self.order,
            "generators": [[g, e] for g, e in self.generator_data()],
        }

    def __repr__(self):
        return "DirichletCharacter(p=%d, modulus=%d, conductor=%d, order=%d)" % (
            self.p, self.modulus, self.conductor, self.order,
        )

    def __eq__(self, other):
        if not isinstance(other, DirichletCharacter):
            return NotImplemented
        return (self.p == other.p and self.modulus == other.modulus
                and self.exp_table == other.exp_table)

    def __hash__(self):
        return hash((self.p, self.modulus, self.exp_table))


def _divisors(n: int) -> list:
    out = [1]
    for q, e in _factorize(n).items():
        out = [d * q ** k for d in out for k in range(e + 1)]
    return sorted(out)


def _conductor_of_table(modulus: int, table: tuple) -> int:
    # minimal d | modulus such that a = 1 (mod d), gcd(a, modulus) = 1
    # forces exponent 0
    for d in _divisors(modulus):
        ok = True
        for a in range(1, modulus + 1):
            if a % d == 1 % d and table[a % modulus] not in (None, 0):
                ok = False
                break
        if ok:
            return d
    return modulus


def _order_of_table(eta_ord: int, table: tuple) -> int:
    g = eta_ord
    for e in table:
        if e:
            g = math.gcd(g, e)
    return eta_ord // g


def _from_table(p: int, modulus: int, table: tuple) -> DirichletCharacter:
    conductor = _conductor_of_table(modulus, table)
    order = _order_of_table(eta_order(p), table)
    return DirichletCharacter(p, modulus, table, conductor, order)


def principal_char(p: int) -> DirichletCharacter:
    """The conductor-1 character: identically 1, including at multiples of p."""
    return DirichletCharacter(p, 1, (0,), 1, 1)


def char_build(modulus: int, generator_images: dict,
               p: int) -> DirichletCharacter:
    """Character from eta-exponent images of a generating set of units.

    generator_images maps unit residues to exponents modulo phi(p*).  The
    images must be consistent with every relation in the group; a request
    whose image order cannot divide phi(p*) (cube roots at p = 5, say)
    shows up as such an inconsistency and raises UnsupportedOrder.
    """
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    eta_ord = eta_order(p)
    gens = []
    for g, e in generator_images.items():
        g = g % modulus
        if math.gcd(g, modulus) != 1:
            raise ValueError("generator %d is not a unit modulo %d" % (g, modulus))
        gens.append((g, e % eta_ord))
    table = [None] * modulus
    table[1 % modulus] = 0
    frontier = [1 % modulus]
    seen = 1
    while frontier:
        nxt = []
        for a in frontier:
            ea = table[a]
            for g, e in gens:
                b = a * g % modulus
                eb = (ea + e) % eta_ord
                if table[b] is None:
                    table[b] = eb
                    nxt.append(b)
                    seen += 1
                elif table[b] != eb:
                    raise UnsupportedOrder(
                        "images are inconsistent with the relations of "
                        "(Z/%d)^*; the requested character has values "
                        "outside Z_%d" % (modulus, p)
                    )
        frontier = nxt
    if seen != euler_phi(modulus):
        raise ValueError(
            "generators %s do not generate (Z/%d)^*"
            % (sorted(g for g, _ in gens), modulus)
        )
    return _from_table(p, modulus, tuple(table))


def primitive(chi: DirichletCharacter) -> DirichletCharacter:
    """The primitive character inducing chi, defined modulo its conductor."""
    f = chi.conductor
    if f == chi.modulus:
        return chi
    table = [None] * f
    for a in range(f):
        if math.gcd(a, f) != 1 and f > 1:
            continue
        for b in range(a, a + chi.modulus, f):
            if math.gcd(b, chi.modulus) == 1:
                table[a] = chi.exp_table[b % chi.modulus]
                break
    return DirichletCharacter(chi.p, f, tuple(table), f, chi.order)


def induce(chi: DirichletCharacter, modulus: int) -> DirichletCharacter:
    """chi viewed modulo a multiple of its conductor (zero off the units)."""
    if modulus % chi.conductor != 0:
        raise ValueError(
            "modulus %d is not a multiple of the conductor %d"
            % (modulus, chi.conductor)
        )
    prim = primitive(chi)
    table = tuple(
        prim.exp_table[a % prim.modulus] if math.gcd(a, modulus) == 1 else None
        for a in range(modulus)
    )
    return DirichletCharacter(chi.p, modulus, table, chi.conductor, chi.order)


def char_product(chi: DirichletCharacter,
                 psi: DirichletCharacter) -> DirichletCharacter:
    """Primitive character agreeing with a -> chi(a) psi(a) away from the
    conductors."""
    if chi.p != psi.p:
        raise ValueError("characters live over different primes")
    m = math.lcm(chi.conductor, psi.conductor)
    a_tab = induce(chi, m).exp_table
    b_tab = induce(psi, m).exp_table
    eta_ord = eta_order(chi.p)
    table = tuple(
        None if a_tab[i] is None else (a_tab[i] + b_tab[i]) % eta_ord
        for i in range(m)
    )
    return primitive(_from_table(chi.p, m, table))


def omega_pow(p: int, h: int) -> DirichletCharacter:
    """The h-th power of the Teichmuller character; principal when h = 0."""
    eta_ord = eta_order(p)
    h %= eta_ord
    if h == 0:
        return principal_char(p)
    ps = p_star(p)
    g = _eta_base(p)
    table = [None] * ps
    x = 1
    for k in range(euler_phi(ps)):
        table[x] = h * k % eta_ord
        x = x * g % ps
    return _from_table(p, ps, tuple(table))


def char_twist_omega(chi: DirichletCharacter, n: int) -> DirichletCharacter:
    """The twist chi_n = chi * omega^(-n), as a primitive character."""
    return char_product(chi, omega_pow(chi.p, -n))


def char_eval(chi: DirichletCharacter, a: int, prec: int = 20) -> PadicNumber:
    """chi(a) in Z_p: an exact zero off the units, a root of unity on them."""
    return chi.eval(a, prec)


def parse_char_spec(spec: str, p: int) -> DirichletCharacter:
    """Parse a character description.

    Accepted forms: "principal", "omega^h" (h an integer, "omega" means
    h = 1), and "mod:<m>;gens:<g1>-><e1>,<g2>-><e2>,..." with eta-exponent
    images.
    """
    spec = spec.strip()
    if spec == "principal":
        return principal_char(p)
    if spec == "omega":
        return omega_pow(p, 1)
    if spec.startswith("omega^"):
        return omega_pow(p, int(spec[len("omega^"):]))
    if spec.startswith("mod:"):
        body = spec[len("mod:"):]
        mod_part, sep, gens_part = body.partition(";gens:")
        if not sep:
            raise ValueError("expected 'mod:<m>;gens:<g>-><e>,...'")
        modulus = int(mod_part)
        images = {}
        for piece in gens_part.split(","):
            g_txt, sep, e_txt = piece.partition("->")
            if not sep:
                raise ValueError("bad generator image %r" % piece)
            images[int(g_txt)] = int(e_txt)
        return char_build(modulus, images, p)
    raise ValueError("unrecognized character spec %r" % spec)
