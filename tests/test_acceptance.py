"""End-to-end gate: one test per release criterion, each with an explicit
time budget and exact comparisons throughout. Every test prints a single
pass line (visible with -s) naming the criterion it certifies."""
import itertools
import random
import time
from fractions import Fraction

from sphvar.catalog import (basic_table, list_entries, load,
                            transport_coincidence)
from sphvar.chars import (QLaurent, WeightChar, ext_power,
                          freudenthal_multiplicity, sym_power)
from sphvar.engine import (LFactor, basic_function_borel, basic_function_pp,
                           growth_certificate, toric_distance)
from sphvar.geometry import Cone, feasible, lattice_points
from sphvar.oracle import (gj_recursion_mismatches, integral_table,
                           mat2_coset_label_counts,
                           satake_compatibility_check, satake_mismatches)
from sphvar.rootdata import root_datum
from sphvar.spherical import (arithmetic_multiplicity, enumerate_orbits,
                              is_wavefront, negligible_orbit_check,
                              parabolic_induction)

ONE = QLaurent.one()


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds
        self.t0 = time.perf_counter()

    def done(self, detail=""):
        dt = time.perf_counter() - self.t0
        assert dt < self.seconds, "%s exceeded %ds (%.1fs)" % (
            self.name, self.seconds, dt)
        suffix = (" " + detail) if detail else ""
        print("%s: pass (%.2fs)%s" % (self.name, dt, suffix))


def test_01_smooth_normalization():
    b = Budget("01 smooth-normalization", 1)
    e = load("a2-sl2")
    pts = set(enumerate_orbits(e.datum, 10, integral_only=True))
    borel = basic_function_borel(e.datum, e.routes[0], 10)
    pp = basic_function_pp(e.datum, e.routes[1], 10)
    for t in (borel, pp):
        assert set(t.support()) == pts
        assert all(v == ONE for _, v in t.values)
    b.done("both routes, %d strata" % len(pts))


def test_02_zero_value_and_support():
    b = Budget("02 zero-value-and-support", 10)
    tables = 0
    for key in list_entries():
        e = load(key)
        if not e.routes:
            continue
        t = basic_table(e, 6)
        assert t.value((0,) * e.datum.rank) == ONE, key
        pts = set(enumerate_orbits(e.datum, 6, integral_only=True))
        assert set(t.support()) <= pts, key
        tables += 1
    b.done("%d tables" % tables)


def test_03_borel_pp_agreement():
    b = Budget("03 borel-pp-agreement", 10)
    for key in ("a2-sl2", "borel-sl3"):
        e = load(key)
        borel = basic_function_borel(e.datum, e.routes[0], 6)
        pp = basic_function_pp(e.datum, e.routes[1], 6)
        assert borel.values == pp.values, key
    b.done()


def test_04_satake_compatibility():
    b = Budget("04 satake-compatibility", 60)
    for q in (2, 3):
        for op in ("unit", "t1", "central"):
            assert satake_compatibility_check(op, "UGL2", 4, q), (op, q)
    b.done("3 operators, q in {2,3}")


def test_05_matrix_space_local_identity():
    b = Budget("05 matrix-space-identity", 120)
    table = basic_table("godement-jacquet-2", 6)
    # 1 / ((1 - T)(1 - qT)); T stands for q^-s
    want_factor = LFactor(((1, 0), (1, 1)))
    for q in (2, 3):
        vals = table.specialize(q)
        counts = mat2_coset_label_counts(q, 16, 4)
        series = []
        for k in range(5):
            series.append(sum(vals.get((a, kk), Fraction(0)) * c
                              for (a, kk), c in counts.items() if kk == k))
        assert series == want_factor.expand(4, q), q
        assert gj_recursion_mismatches(q) == [], q
    b.done("degree 4, q in {2,3}")


def _kappa_passes(k):
    e2 = load("a2-sl2")
    pts = set(enumerate_orbits(e2.datum, 10, integral_only=True))
    pp = basic_function_pp(e2.datum, e2.routes[1], 10, kappa=k)
    if set(pp.support()) != pts or any(v != ONE for _, v in pp.values):
        return False
    for key in ("a2-sl2", "borel-sl3"):
        e = load(key)
        borel = basic_function_borel(e.datum, e.routes[0], 6)
        if borel.values != basic_function_pp(e.datum, e.routes[1], 6,
                                             kappa=k).values:
            return False
    # the (2,1) parabolic of GL3: table vs stratum enumeration, then the
    # coset-sum action of every minuscule operator
    e3 = load("pp-gl3")
    route = e3.routes[0]
    height = 2
    prec = 2 * height + 4
    t3 = basic_function_pp(e3.datum, route, height, kappa=k)
    for q in (2, 3):
        strata = set(integral_table("PPGL3", height, q, prec))
        if set(t3.support()) != strata:
            return False
        sp = t3.specialize(q)
        if any(sp[l] != 1 for l in strata):
            return False
    return not any(satake_mismatches(op, "PPGL3", height, q, kappa=k)
                   for q in (2, 3) for op in ("unit", "t1", "wedge", "central"))


def test_06_sign_pinning():
    b = Budget("06 sign-pinning", 300)
    passing = [k for k in (1, -1) if _kappa_passes(k)]
    assert len(passing) == 1, "kappa not pinned: %r pass" % (passing,)
    assert passing == [1]
    b.done("kappa = +1")


def test_07_classification_flags():
    b = Budget("07 classification-flags", 5)
    fixtures = 0
    for key in list_entries():
        e = load(key)
        d = e.datum
        assert is_wavefront(d) == e.wavefront_expected, key
        assert arithmetic_multiplicity(d) == 1, key
        ind = parabolic_induction(d)
        if e.reductive_stabilizer:
            assert ind is None, key
        if e.preflag_case in ("U_P", "PP"):
            assert ind == d.levi_roots, key
        try:
            ok, _ = negligible_orbit_check(d)
            assert ok, key
        except ValueError:
            # the hypothesis can only fail off the wavefront case
            assert not e.wavefront_expected, key
        fixtures += 1
    assert fixtures >= 10
    b.done("%d fixtures" % fixtures)


def _random_cone(rng, n):
    k = rng.randint(1, n + 2)
    gens = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(k)]
    return Cone(n, tuple(g for g in gens if any(g)))


def _solve_square(rows, rhs):
    n = len(rows[0])
    m = [[Fraction(x) for x in row] + [Fraction(bb)]
         for row, bb in zip(rows, rhs)]
    piv = []
    r = 0
    for c in range(n):
        p = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * bb for a, bb in zip(m[i], m[r])]
        piv.append(c)
        r += 1
    if any(m[i][n] != 0 for i in range(r, len(m))):
        return None
    if len(piv) < n:
        return None
    x = [Fraction(0)] * n
    for i, c in enumerate(piv):
        x[c] = m[i][n]
    return tuple(x)


GE, GT, EQ = ">=0", ">0", "=0"


def _feasible_tagged(cons, n):
    """feasible on (row, relation) pairs: an equation is two rows."""
    rows = [r for r, rel in cons if rel != GT]
    rows += [tuple(-a for a in r) for r, rel in cons if rel == EQ]
    return feasible(rows, [r for r, rel in cons if rel == GT], n)


def _feasible_by_vertices(cons, n):
    """Homogeneous feasibility via the box section [-1,1]^n: collect every
    vertex candidate (n active hyperplanes among constraints and box
    facets), keep the ones inside the closed region, and test the strict
    constraints at the centroid, which lies in the relative interior."""
    planes = [row for row, _ in cons]
    units = [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]
    planes.extend(units)
    box_start = len(cons)
    cands = {tuple(Fraction(0) for _ in range(n))}
    for sub in itertools.combinations(range(len(planes)), n):
        rhs_choices = [((1, -1) if j >= box_start else (0,)) for j in sub]
        for rhs in itertools.product(*rhs_choices):
            sol = _solve_square([planes[j] for j in sub], rhs)
            if sol is not None:
                cands.add(sol)

    def in_closure(x):
        if any(abs(v) > 1 for v in x):
            return False
        for row, rel in cons:
            s = sum(Fraction(a) * v for a, v in zip(row, x))
            if rel == EQ and s != 0:
                return False
            if rel in (GE, GT) and s < 0:
                return False
        return True

    verts = [x for x in cands if in_closure(x)]
    if not verts:
        return False
    cen = tuple(sum(col) / len(verts) for col in zip(*verts))
    return all(sum(Fraction(a) * v for a, v in zip(row, cen)) > 0
               for row, rel in cons if rel == GT)


def test_08_geometry_kernel():
    b = Budget("08 geometry-kernel", 30)
    rng = random.Random(8)
    for _ in range(50):
        c = _random_cone(rng, rng.randint(1, 4))
        assert c.dual().dual() == c
    rng = random.Random(88)
    for _ in range(12):
        n = rng.randint(1, 3)
        c = _random_cone(rng, n)
        scan = set()
        for v in itertools.product(range(-5, 6), repeat=n):
            if sum(abs(x) for x in v) <= 5 and c.contains(
                    tuple(Fraction(x) for x in v)):
                scan.add(v)
        assert set(lattice_points(c, 5)) == scan
    rng = random.Random(888)
    outcomes = []
    for _ in range(20):
        n = rng.randint(2, 3)
        cons = [(tuple(rng.randint(-3, 3) for _ in range(n)),
                 rng.choice((GE, GE, GT, GT, EQ)))
                for _ in range(rng.randint(2, 4))]
        got = _feasible_tagged(cons, n) is not None
        assert got == _feasible_by_vertices(cons, n), cons
        outcomes.append(got)
    assert len(set(outcomes)) == 2, "feasibility oracle never exercised"
    b.done("50 + 12 + 20 instances")


def test_09_representation_ring():
    b = Budget("09 representation-ring", 30)
    rng = random.Random(9)
    for _ in range(12):
        n = rng.randint(1, 4)
        ws = [tuple(rng.randint(-2, 2) for _ in range(n))
              for _ in range(rng.randint(1, 4))]
        chi = WeightChar.of({})
        for w in ws:
            chi = chi + WeightChar.of({w: 1})
        expanded = [w for w, m in chi.weights for _ in range(m)]
        for i in range(6):
            sym = {}
            for comb in itertools.combinations_with_replacement(expanded, i):
                w = tuple(map(sum, zip(*comb))) if comb else (0,) * n
                sym[w] = sym.get(w, 0) + 1
            assert sym_power(chi, i) == WeightChar.of(sym)
            ext = {}
            for comb in itertools.combinations(range(len(expanded)), i):
                vs = [expanded[j] for j in comb]
                w = tuple(map(sum, zip(*vs))) if vs else (0,) * n
                ext[w] = ext.get(w, 0) + 1
            assert ext_power(chi, i) == WeightChar.of(ext)
    pairs = 0
    for rd in (root_datum("SL", 3), root_datum("C", 2)):
        exps = [tuple(int(x) for x in rd.simple_root_expansion(a))
                for a in rd.positive_roots()]
        memo = {}

        def count_partitions(target, exps=exps, memo=memo):
            def rec(idx, rem):
                if all(x == 0 for x in rem):
                    return 1
                if idx == len(exps):
                    return 0
                total = 0
                r = rem
                while all(x >= 0 for x in r):
                    total += rec(idx + 1, r)
                    r = tuple(a - bb for a, bb in zip(r, exps[idx]))
                return total
            if target not in memo:
                memo[target] = rec(0, target)
            return memo[target]

        W = rd.weyl_char
        signs = []
        for w in W:
            s = (w[0][0] * w[1][1] - w[0][1] * w[1][0])
            signs.append(int(s))
        rho = rd.rho
        doms = []
        for lam in itertools.product(range(-3, 4), repeat=2):
            if not rd.is_dominant_char(lam):
                continue
            ht = sum(sum(a * bb for a, bb in zip(lam, av))
                     for av in rd.simple_coroots)
            if ht <= 3:
                doms.append(lam)
        assert len(doms) >= 5
        alphas = rd.simple_roots
        seen_big = False
        for lam in doms:
            lam_rho = tuple(Fraction(a) + bb for a, bb in zip(lam, rho))
            mus = {tuple(lam[i] - c1 * alphas[0][i] - c2 * alphas[1][i]
                         for i in range(2))
                   for c1 in range(7) for c2 in range(7)}
            for mu in sorted(mus):
                # Kostant alternating sum over the Weyl group
                want = 0
                for w, s in zip(W, signs):
                    img = tuple(sum(w[i][j] * lam_rho[j] for j in range(2))
                                for i in range(2))
                    t = tuple(img[i] - rho[i] - mu[i] for i in range(2))
                    exp = rd.simple_root_expansion(t)
                    if exp is None or any(x.denominator != 1 for x in exp):
                        continue
                    e = tuple(int(x) for x in exp)
                    if any(x < 0 for x in e):
                        continue
                    want += s * count_partitions(e)
                got = freudenthal_multiplicity(rd, lam, mu)
                assert got == want, (rd.name, lam, mu, got, want)
                seen_big = seen_big or got >= 2
                pairs += 1
        assert seen_big, rd.name
    b.done("%d weight multiplicities" % pairs)


def test_10_growth_certificates():
    b = Budget("10 growth-certificates", 30)
    tables = 0
    for key in list_entries():
        e = load(key)
        if not e.routes:
            continue
        t = basic_table(e, 6)
        hints = (e.growth_hint,) if e.growth_hint else ()
        assert growth_certificate(t, hints=hints) is not None, key
        for l, v in t.values:
            for q in (2, 3):
                dist = toric_distance(e.datum, l, q)
                assert dist <= 1
                val = abs(v.specialize(q))
                assert any(val <= dist ** (-n) for n in range(6)), (key, l)
        tables += 1
    b.done("%d tables, q in {2,3}" % tables)


def test_11_transport_cone_coincidence():
    b = Budget("11 transport-cones", 1)
    ok, diag = transport_coincidence(load("triple-product"))
    assert ok, diag
    b.done(diag)
