"""Floating-point brute-force evaluations of the defining q-series.

Everything here runs at real 0 < q < 1 in ordinary double precision, where
the series converge geometrically and can be summed directly.  The oracles
validate closed forms and resolve convention ambiguities before the p-adic
code relies on them; they never certify p-adic digits.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

from .characters import DirichletCharacter, eta_order
from .errors import DomainError, NoConsistentNormalization, TailTooLarge

__all__ = [
    "choose_M",
    "closed_multi_beta",
    "oracle_carlitz_beta",
    "oracle_carlitz_beta_poly",
    "oracle_multi_beta",
    "oracle_multi_gen_beta",
    "oracle_q_zeta",
    "oracle_resolve_conventions",
    "kim_rhs",
    "complex_char",
    "q_bracket_real",
]

#: entries kept by each of the two memos below (_carlitz_beta_seq and
#: _sum_count_row); the whole test suite fills 16 and 76
ORACLE_CACHE_CAP = 128

#: candidate readings resolved by oracle_resolve_conventions
NORMALIZATIONS = ("n", "n+r")
SINGLE_CONVENTIONS = ("pure_sum", "carlitz")
#: the resolution grid runs n = 0..RESOLVE_N_MAX, and a reading survives
#: when its worst residual on the grid is below RESOLVE_TOL
RESOLVE_N_MAX = 4
RESOLVE_TOL = 1e-8


def q_bracket_real(q: float, x: float) -> float:
    return (1.0 - q ** x) / (1.0 - q)


@lru_cache(maxsize=ORACLE_CACHE_CAP)
def _sum_count_row(f: int, r: int) -> tuple:
    """counts[t] = #{(a_1..a_r) in [1, f]^r : sum a_i = t}."""
    counts = [1]
    for _ in range(r):
        nxt = [0] * (len(counts) + f)
        for i, c in enumerate(counts):
            for j in range(1, f + 1):
                nxt[i + j] += c
        counts = nxt
    return tuple(counts)


def _sum_count(f: int, r: int, t: int) -> int:
    row = _sum_count_row(f, r)
    return row[t] if 0 <= t < len(row) else 0


def _falling(n: int, r: int) -> int:
    """n (n-1) ... (n-r+1)."""
    out = 1
    for i in range(r):
        out *= n - i
    return out


def _tail_bound_beta(q: float, n: int, r: int, z: float, M: int) -> float:
    # dropping every tuple with some m_i > M costs at most r full geometric
    # tails; |q^(z+t) [z+t]^(n-r)| <= q^z (1-q)^(r-n)
    return abs(_falling(n, r)) * q ** z * r * q ** (M + 1) / (1.0 - q) ** n


def choose_M(q: float, n: int, r: int, z: float = 0.0,
             tol: float = 1e-12) -> int:
    """Smallest box bound M whose truncation tail is provably below tol."""
    M = 1
    while _tail_bound_beta(q, n, r, z, M) > tol:
        M += 1
        if M > 10 ** 6:
            raise TailTooLarge("no affordable M reaches tolerance %g" % tol)
    return M


def oracle_multi_beta(q: float, n: int, r: int, z: float = 0.0,
                      M: int = None, tol: float = 1e-12) -> float:
    """Direct summation of the series defining the multiple q-Bernoulli
    polynomial of order r:

        (-1)^r n!/(n-r)! sum_{m_1..m_r >= 0} q^(z+sum m) [z+sum m]^(n-r).

    Requires n >= r, the domain where the coefficient extraction admits
    this absolutely convergent representation.
    """
    if not 0.0 < q < 1.0:
        raise DomainError("oracle runs at real 0 < q < 1")
    if n < r:
        raise DomainError("direct-sum representation requires n >= r")
    if M is None:
        M = choose_M(q, n, r, z, tol)
    bound = _tail_bound_beta(q, n, r, z, M)
    if bound > tol:
        raise TailTooLarge(
            "tail bound %.3g exceeds tolerance %.3g at M=%d" % (bound, tol, M)
        )
    # counts over [0, M]^r by sum: shift each m_i up by one into [1, M + 1]
    total = 0.0
    for t, c in enumerate(_sum_count_row(M + 1, r)[r:]):
        x = z + t
        total += c * q ** x * q_bracket_real(q, x) ** (n - r)
    return (-1) ** r * _falling(n, r) * total


def oracle_q_zeta(q: float, s: complex, r: int, z: float,
                  M: int = None, tol: float = 1e-12) -> complex:
    """Truncated multiple q-zeta series sum q^(z+sum m)/[z+sum m]^s over
    m_1..m_r >= 0, for Re(s) > r and z > 0."""
    if not 0.0 < q < 1.0:
        raise DomainError("oracle runs at real 0 < q < 1")
    if z <= 0:
        raise DomainError("z must be positive (the m=0 term needs [z] != 0)")
    s = complex(s)
    if s.real <= r:
        raise DomainError("series domain requires Re(s) > r")
    bound_factor = r * q ** z * q_bracket_real(q, z) ** (-s.real) \
        / (1.0 - q) ** r
    if M is None:
        M = 1
        while bound_factor * q ** (M + 1) > tol:
            M += 1
            if M > 10 ** 6:
                raise TailTooLarge("no affordable M reaches tolerance")
    elif bound_factor * q ** (M + 1) > tol:
        raise TailTooLarge("tail bound exceeds tolerance at M=%d" % M)
    total = 0.0j
    for t, c in enumerate(_sum_count_row(M + 1, r)[r:]):
        x = z + t
        total += c * q ** x * q_bracket_real(q, x) ** (-s)
    return total


def closed_multi_beta(q: float, n: int, r: int, z: float = 0.0) -> float:
    """The closed form the p-adic evaluator uses, at real q:

        (-1)^r n!/(n-r)! (1-q)^(r-n)
            sum_{j=0..n-r} C(n-r,j) (-1)^j q^((j+1)z) (1-q^(j+1))^(-r),

    and 0 for n < r."""
    if n < r:
        return 0.0
    acc = 0.0
    for j in range(n - r + 1):
        acc += (math.comb(n - r, j) * (-1) ** j * q ** ((j + 1) * z)
                / (1.0 - q ** (j + 1)) ** r)
    return (-1) ** r * _falling(n, r) * (1.0 - q) ** (r - n) * acc


@lru_cache(maxsize=ORACLE_CACHE_CAP)
def _carlitz_beta_seq(q: float, n_max: int) -> tuple:
    # (q b + 1)^n - b_n = 1 at n=1 else 0, with b_0 = (q-1)/ln q
    seq = [(q - 1.0) / math.log(q)]
    for n in range(1, n_max + 1):
        acc = 1.0 if n == 1 else 0.0
        for k in range(n):
            acc -= math.comb(n, k) * q ** k * seq[k]
        seq.append(acc / (q ** n - 1.0))
    return tuple(seq)


def oracle_carlitz_beta(q: float, n: int) -> float:
    """Carlitz q-Bernoulli number at real q (log-corrected convention)."""
    if not 0.0 < q < 1.0:
        raise DomainError("oracle runs at real 0 < q < 1")
    return _carlitz_beta_seq(q, n)[n]


def oracle_carlitz_beta_poly(q: float, n: int, z: float) -> float:
    """sum C(n,k) q^(kz) beta_k [z]^(n-k) with Carlitz singles."""
    seq = _carlitz_beta_seq(q, n)
    return sum(
        math.comb(n, k) * q ** (k * z) * seq[k]
        * q_bracket_real(q, z) ** (n - k)
        for k in range(n + 1)
    )


def _single_beta_poly(q: float, n: int, z: float, convention: str) -> float:
    if convention == "carlitz":
        return oracle_carlitz_beta_poly(q, n, z)
    if convention == "pure_sum":
        return closed_multi_beta(q, n, 1, z)
    raise ValueError("unknown single-beta convention %r" % convention)


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def kim_rhs(q: float, n: int, r: int, z_list, convention: str) -> float:
    """The nested sum over compositions i_1+...+i_r = n+r with binomial
    weights and (q-1)-powers, built from single q-Bernoulli polynomials of
    the given convention."""
    if len(z_list) != r:
        raise ValueError("need exactly r shift arguments")
    N = n + r
    fact = [math.factorial(i) for i in range(N + 1)]
    total = 0.0
    for comp in _compositions(N, r):
        multinom = fact[N]
        for i in comp:
            multinom //= fact[i]
        # u[j] = N - i_1 - ... - i_{j+1} bounds k_{j+1} and its binomial
        uppers = []
        running = N
        for j in range(r - 1):
            running -= comp[j]
            uppers.append(running)
        # the k_j sums factor: each depends only on its own coordinate
        factor = 1.0
        for j in range(r - 1):
            factor *= sum(
                math.comb(uppers[j], k) * (q - 1.0) ** k
                * _single_beta_poly(q, k + comp[j], z_list[j], convention)
                for k in range(uppers[j] + 1)
            )
        tail = _single_beta_poly(q, comp[r - 1], z_list[r - 1], convention)
        total += multinom * factor * tail
    return total


def complex_char(chi: DirichletCharacter):
    """chi as a complex-valued function, mapping the eta-exponent e to
    exp(2 pi i e / eta_order)."""
    root = cmath.exp(2j * cmath.pi / eta_order(chi.p))
    def evaluate(a: int) -> complex:
        e = chi.exponent(a)
        return 0j if e is None else root ** e
    return evaluate


def oracle_multi_gen_beta(q: float, n: int, r: int, chi: DirichletCharacter,
                          z: float = 0.0) -> complex:
    """Character-attached multiple q-Bernoulli value at real q via the
    conductor decomposition: [f]^(n-r) sum chi(sum a) beta at base q^f."""
    f = chi.modulus
    ch = complex_char(chi)
    Qf = q ** f
    total = 0j
    for t in range(r, r * f + 1):
        cnt = _sum_count(f, r, t)
        if cnt == 0:
            continue
        total += cnt * ch(t) * closed_multi_beta(Qf, n, r, (z + t) / f)
    return q_bracket_real(q, f) ** (n - r) * total


def oracle_resolve_conventions(r_max: int = 3) -> dict:
    """Decide how the nested-sum identity is to be read.

    Two readings of the left side (order n versus order n+r at argument
    z_1+...+z_r) and two single-beta conventions give four candidates; each
    is scored against the nested right side on a small grid at two real q.
    Exactly one surviving candidate becomes a certificate; zero or several
    raise NoConsistentNormalization with the residual table attached.
    """
    q_values = (0.2, 0.3)
    shifts = (0.0, 0.3, 0.7)
    residuals = []
    survivors = []
    for norm in NORMALIZATIONS:
        for conv in SINGLE_CONVENTIONS:
            worst = 0.0
            per_q = []
            for q in q_values:
                worst_q = 0.0
                for r in range(1, r_max + 1):
                    z_lists = [(0.0,) * r, shifts[:r] if r <= len(shifts)
                               else (0.1,) * r]
                    for n in range(0, RESOLVE_N_MAX + 1):
                        for zl in z_lists:
                            rhs = kim_rhs(q, n, r, zl, conv)
                            order = n if norm == "n" else n + r
                            lhs = closed_multi_beta(q, order, r, sum(zl))
                            worst_q = max(worst_q, abs(lhs - rhs))
                per_q.append(worst_q)
                worst = max(worst, worst_q)
            residuals.append({
                "normalization": norm,
                "single_beta": conv,
                "worst_residual_per_q": per_q,
                "passes": worst < RESOLVE_TOL,
            })
            if worst < RESOLVE_TOL:
                survivors.append((norm, conv, per_q))
    if len(survivors) != 1:
        raise NoConsistentNormalization(
            "%d of 4 candidate readings reproduce the nested-sum identity "
            "on the r <= %d grid" % (len(survivors), r_max),
            residuals=residuals,
        )
    norm, conv, per_q = survivors[0]
    return {
        "normalization": norm,
        "single_beta": conv,
        "r_max": r_max,
        "residuals": residuals,
    }
