"""Weight characters, multiplicities, and exact q-power scalars.

QLaurent is a Laurent polynomial in q^(1/2) with integer coefficients,
stored sparsely by its int exponent k of q^(1/2), so its arithmetic stays
in ints; only degree and specialize return Fractions. WeightChar is a
finitely supported integer multiplicity map on a fixed lattice Z^n;
symmetric and exterior powers are the coefficients of truncated integer
generating-function products. One Weyl symmetrizer gives the irreducible
characters (the Weyl character formula) and the engine's Satake
transforms, and W-invariant characters decompose into irreducibles
through the Weyl denominator.
"""
from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .geometry import _exact_int, _int_vec, span_coordinates
from .record import Record
from .rootdata import RootDatum, _closure, _idot, _reflect


def _halves(e) -> int:
    """2e for a half-integral exponent e."""
    e = Fraction(e)
    if e.denominator not in (1, 2):
        raise ValueError("exponent %s is not half-integral" % e)
    return int(2 * e)


class QLaurent(Record):
    """Sparse Laurent polynomial in q^(1/2): terms ((k, coeff), ...) with int
    k, the term coeff * q^(k/2), by descending k."""

    __slots__ = _fields = ("terms",)

    def __init__(self, terms: tuple):
        object.__setattr__(self, "terms", terms)

    @staticmethod
    def _of_halves(d: dict) -> "QLaurent":
        """From {k: coeff} with int k and int coeff, meaning coeff * q^(k/2)."""
        return QLaurent(tuple(sorted(((k, c) for k, c in d.items() if c),
                                     reverse=True)))

    @staticmethod
    def of(mapping) -> "QLaurent":
        """From {exponent of q (int or half-integral): coeff}."""
        d = {}
        for e, c in (mapping.items() if isinstance(mapping, dict) else mapping):
            if type(c) is not int:
                c = _exact_int(c)
            if c != 0:
                k = _halves(e)
                d[k] = d.get(k, 0) + c
        return QLaurent._of_halves(d)

    @staticmethod
    def zero() -> "QLaurent":
        return QLaurent(())

    @staticmethod
    def one() -> "QLaurent":
        return QLaurent(((0, 1),))

    @staticmethod
    def q_pow(e, coeff=1) -> "QLaurent":
        return QLaurent.of({e: coeff})

    def __add__(self, other: "QLaurent") -> "QLaurent":
        d = dict(self.terms)
        for k, c in other.terms:
            d[k] = d.get(k, 0) + c
        return QLaurent._of_halves(d)

    def __sub__(self, other: "QLaurent") -> "QLaurent":
        return self + other.scale(-1)

    def __mul__(self, other: "QLaurent") -> "QLaurent":
        d = {}
        for k1, c1 in self.terms:
            for k2, c2 in other.terms:
                k = k1 + k2
                d[k] = d.get(k, 0) + c1 * c2
        return QLaurent._of_halves(d)

    def scale(self, c: int) -> "QLaurent":
        return QLaurent._of_halves({k: c * v for k, v in self.terms})

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self):
        """Largest exponent as a Fraction, or None for the zero polynomial."""
        return Fraction(self.terms[0][0], 2) if self.terms else None

    def specialize(self, q0) -> Fraction:
        q0 = Fraction(q0)
        if q0 <= 0:
            raise ValueError("q must be positive")
        out = Fraction(0)
        root = None
        for k, c in self.terms:
            if k % 2 == 0:
                out += c * q0 ** (k // 2)
            else:
                # half-integral exponent: exact only when q0 is a square
                root = _exact_sqrt(q0) if root is None else root
                out += c * root ** k
        return out

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for i, (k, c) in enumerate(self.terms):
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            qs = "q" if k == 2 else "q^%d/2" % k if k % 2 else "q^%d" % (k // 2)
            body = str(mag) if k == 0 else qs if mag == 1 else "%d %s" % (mag, qs)
            if i == 0:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append("%s %s" % (sign, body))
        return " ".join(parts)


def _exact_sqrt(x: Fraction) -> Fraction:
    num, den = isqrt(x.numerator), isqrt(x.denominator)
    if num * num != x.numerator or den * den != x.denominator:
        raise ValueError("specializing a half-integral power needs a square q")
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# weight characters

class WeightChar(Record):
    """Finitely supported weight -> multiplicity map on a lattice Z^n."""

    __slots__ = _fields = ("weights",)

    def __init__(self, weights: tuple):  # sorted ((weight tuple, mult), ...)
        object.__setattr__(self, "weights", weights)

    @staticmethod
    def of(mapping) -> "WeightChar":
        agg = {}
        for w, m in (mapping.items() if isinstance(mapping, dict) else mapping):
            w = _int_vec(w)
            if type(m) is not int:
                m = _exact_int(m)
            agg[w] = agg.get(w, 0) + m
        return WeightChar(tuple(sorted((w, m) for w, m in agg.items() if m != 0)))

    @staticmethod
    def unit(n: int) -> "WeightChar":
        return WeightChar.of({(0,) * n: 1})

    def as_dict(self):
        return dict(self.weights)

    def dim(self) -> int:
        return sum(m for _, m in self.weights)

    def __add__(self, other: "WeightChar") -> "WeightChar":
        d = self.as_dict()
        for w, m in other.weights:
            d[w] = d.get(w, 0) + m
        return WeightChar.of(d)

    def __sub__(self, other: "WeightChar") -> "WeightChar":
        d = self.as_dict()
        for w, m in other.weights:
            d[w] = d.get(w, 0) - m
        return WeightChar.of(d)

    def __mul__(self, other: "WeightChar") -> "WeightChar":
        # weights in Z^0 (powers of the zero character) are scalars
        n1 = len(self.weights[0][0]) if self.weights else 0
        n2 = len(other.weights[0][0]) if other.weights else 0
        if not n1:
            return other.scale(sum(m for _, m in self.weights))
        if not n2:
            return self.scale(sum(m for _, m in other.weights))
        if n1 != n2:
            raise ValueError("weight dimension mismatch: %d vs %d" % (n1, n2))
        d = {}
        for w1, m1 in self.weights:
            for w2, m2 in other.weights:
                w = tuple(a + b for a, b in zip(w1, w2))
                d[w] = d.get(w, 0) + m1 * m2
        return WeightChar.of(d)

    def scale(self, c: int) -> "WeightChar":
        return WeightChar.of({w: c * m for w, m in self.weights})

    def is_zero(self) -> bool:
        return not self.weights


def _graded_powers(chi: WeightChar, imax: int, sign: int):
    """Coefficients of t^0..t^imax in prod_w (1 + sign*x^w*t)^(sign*m_w).

    sign=-1 gives Sym^0..Sym^imax, sign=+1 gives Ext^0..Ext^imax (Macdonald,
    Symmetric Functions, I.2). A negative multiplicity inverts its factor,
    which is the lambda-ring extension to virtual characters. The factor
    coefficients are the generalized binomials sign^k * C(sign*m, k).
    """
    if imax < 0:
        raise ValueError("power index must be >= 0")
    n = len(chi.weights[0][0]) if chi.weights else 0
    series = [{(0,) * n: 1}] + [{} for _ in range(imax)]
    for w, m in chi.weights:
        e = sign * m
        coeffs = [1]
        for k in range(1, imax + 1):
            # exact: the product is k * C(e, k)
            coeffs.append(coeffs[-1] * (e - k + 1) // k * sign)
        nxt = [{} for _ in range(imax + 1)]
        for i, terms in enumerate(series):
            if not terms:
                continue
            for k in range(imax + 1 - i):
                c = coeffs[k]
                if c == 0:  # C(e, k) vanishes for every k > e >= 0
                    break
                acc = nxt[i + k]
                for u, v in terms.items():
                    u = tuple(a + k * b for a, b in zip(u, w))
                    acc[u] = acc.get(u, 0) + c * v
        series = nxt
    return [WeightChar.of(d) for d in series]


def sym_power(chi: WeightChar, i: int) -> WeightChar:
    if i < 0:
        raise ValueError("symmetric power index must be >= 0")
    return _graded_powers(chi, i, -1)[i]


def ext_power(chi: WeightChar, i: int) -> WeightChar:
    if i < 0:
        raise ValueError("exterior power index must be >= 0")
    return _graded_powers(chi, i, 1)[i]


def sym_powers_upto(chi: WeightChar, imax: int):
    return _graded_powers(chi, imax, -1)


# ---------------------------------------------------------------------------
# Kostant counts

def _nat_coordinates(span, v):
    """Coefficients of v in a basis given by its span_coordinates, if they
    are all nonnegative integers; else None."""
    d, top, bottom = span
    if any(_idot(row, v) for row in bottom):
        return None
    out = []
    for row in top:
        c, r = divmod(_idot(row, v), d)
        if r or c < 0:
            return None
        out.append(c)
    return tuple(out)


def kostant_counter(simple_coroots, coroots):
    """The function target -> {number of parts i: #multisets of i positive
    coroots summing to target}.

    Depth-first count in simple-coroot coordinates: each coroot and each
    nonzero target is expanded once, and the count runs over the coroot list
    in a fixed order, memoized on (index, remaining). A remainder is viable
    only while its coordinates stay nonnegative, which also bounds the
    recursion depth by the coroot height of the target. The memo lives as
    long as the function, so the targets of one table share their
    subproblems; an entry depends only on its key, so the target order does
    not matter. Targets must have the length of the coroots; without
    coroots only the zero target counts. Raises ValueError for a coroot that
    is not a nonzero nonnegative integer combination of the simple coroots.
    """
    simple_coroots = [_int_vec(c) for c in simple_coroots]
    coroots = [_int_vec(c) for c in coroots]
    n = len(coroots[0]) if coroots else None
    span = span_coordinates(simple_coroots, n) if coroots else None
    steps = [_nat_coordinates(span, c) for c in coroots]
    for c, step in zip(coroots, steps):
        if step is None or not any(step):
            raise ValueError("coroot %r is not a nonzero nonnegative integer "
                             "combination of the simple coroots; bad input data"
                             % (c,))
    memo = {}

    def rec(idx, rem):
        if not any(rem):
            return {0: 1}
        if idx == len(steps):
            return {}
        key = (idx, rem)
        if key in memo:
            return memo[key]
        out = dict(rec(idx + 1, rem))
        nrem = tuple(a - b for a, b in zip(rem, steps[idx]))
        if min(nrem) >= 0:
            for parts, cnt in rec(idx, nrem).items():
                out[parts + 1] = out.get(parts + 1, 0) + cnt
        memo[key] = out
        return out

    def count(target):
        target = _int_vec(target)
        if n is not None and len(target) != n:
            raise ValueError("target %r does not have the coroot length %d"
                             % (target, n))
        if not any(target):
            return {0: 1}
        rem = _nat_coordinates(span, target) if coroots else None
        if rem is None:
            return {}
        # a copy: the memo keeps its own
        return dict(rec(0, rem))

    return count


def kostant_counts(simple_coroots, coroots, target):
    """{number of parts i: #multisets of i positive coroots summing to
    target}, by a counter of its own (kostant_counter)."""
    return kostant_counter(simple_coroots, coroots)(target)


# ---------------------------------------------------------------------------
# the Weyl symmetrizer and irreducible characters

def _symmetrize(rd: RootDatum, f) -> dict:
    """J(f) = sum_(w in W) sgn(w) w(f x^rho) x^(-rho) / prod_(a>0) (1 - x^(-a))
    for an integer {weight: coeff} map f.

    The numerator closes the orbit of 2(mu + rho) for each weight mu of f as
    (weight, sign) pairs and sums them as they are. A mu + rho on a wall
    (pairing to 0 with some positive coroot) is skipped: the reflection in
    that wall pairs its orbit terms off with opposite signs, so they cancel
    exactly. The division is exact, one positive root a at a time: along
    each a-string, walked from its top, the quotient at nu is the prefix sum
    down to nu, and a nonzero sum left below the string raises RuntimeError.
    """
    def step(pair):
        return ((_reflect(pair[0], a, av), -pair[1]) for a, av in rd._char_pairs)
    num = {}
    for mu, c in f.items():
        seed = (tuple(2 * m + r for m, r in zip(mu, rd.rho2)), 1)
        if any(_idot(seed[0], av) == 0 for _, av in rd.positive_pairs):
            continue
        for v, s in _closure([seed], step, "Weyl orbit too large; bad input data"):
            w = tuple((x - r) // 2 for x, r in zip(v, rd.rho2))
            num[w] = num.get(w, 0) + s * c
    for a, _ in rd.positive_pairs:
        i = next(j for j, x in enumerate(a) if x)
        strings = {}  # the string's weight at position 0 -> positions in num
        for v in num:
            k = v[i] // a[i]
            strings.setdefault(tuple(x - k * y for x, y in zip(v, a)), []).append(k)
        quot = {}
        for base, ks in strings.items():
            total = 0
            for k in range(max(ks), min(ks) - 1, -1):
                v = tuple(x + k * y for x, y in zip(base, a))
                total += num.get(v, 0)
                if total:
                    quot[v] = total
            if total:
                raise RuntimeError("not divisible by 1 - x^(-%r)" % (a,))
        num = quot
    return {w: c for w, c in num.items() if c}


def freudenthal_multiplicity(rd: RootDatum, lam, mu) -> int:
    """Weight multiplicity dim V_lam[mu], read off irrep_char(rd, lam)."""
    mu = rd._check_rank(_int_vec(mu))
    return irrep_char(rd, lam).as_dict().get(mu, 0)


def weyl_dim(rd: RootDatum, lam) -> int:
    lam = _int_vec(lam)
    if not rd.is_dominant_char(lam):
        raise ValueError("highest weight %r is not dominant" % (lam,))
    # prod <lam + rho, bv> / <rho, bv>, both pairings doubled
    num = den = 1
    for _, bv in rd.positive_pairs:
        num *= _idot([2 * l + r for l, r in zip(lam, rd.rho2)], bv)
        den *= _idot(rd.rho2, bv)
    v, r = divmod(num, den)
    if r or v <= 0:
        raise RuntimeError("Weyl dimension of %r is %s" % (lam, Fraction(num, den)))
    return v


def irrep_char(rd: RootDatum, lam) -> WeightChar:
    """Full character of the irreducible with highest weight lam, by the
    Weyl character formula: _symmetrize of x^lam."""
    lam = _int_vec(lam)
    if not rd.is_dominant_char(lam):
        raise ValueError("highest weight %r is not dominant" % (lam,))
    chi = WeightChar.of(_symmetrize(rd, {lam: 1}))
    if chi.dim() != weyl_dim(rd, lam):
        raise RuntimeError("character of V(%r) misses the Weyl dimension" % (lam,))
    return chi


def decompose(rd: RootDatum, chi: WeightChar):
    """Write chi as a nonnegative sum of irreducible characters, as sorted
    (highest weight, multiplicity) pairs.

    chi must be W-invariant: chi(s w) = chi(w) for every support weight w
    and simple reflection s. Then chi = sum n_lam chi_lam, and by the Weyl
    character formula chi_lam * prod_{a>0} (1 - x^(-a)) is
    sum_{w in W} sgn(w) x^(w(lam+rho)-rho), whose only dominant term is
    x^lam. So n_lam is the coefficient of x^lam in chi * prod_{a>0}
    (1 - x^(-a)) (Brauer-Klimyk). Raises if chi is not W-invariant or some
    n_lam is negative.
    """
    mults = chi.as_dict()
    for w, m in mults.items():
        for a, av in zip(rd.simple_roots, rd.simple_coroots):
            if mults.get(_reflect(w, a, av), 0) != m:
                raise ValueError("not a true character: not Weyl-invariant at %r"
                                 % (w,))
    out = [(w, n) for w, n in (chi * WeightChar.of(rd.weyl_denominator)).weights
           if rd.is_dominant_char(w)]
    for w, n in out:
        if n < 0:
            raise ValueError("not a true character: negative multiplicity at %r"
                             % (w,))
    return out
