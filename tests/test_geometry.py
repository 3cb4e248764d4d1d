"""Tests for the exact polyhedral geometry kernel.

Frozen examples were checked by hand; the property tests compare the cone
and elimination routines against independent brute-force oracles (subset
enumeration for feasibility, direct grid scans and the per-candidate scan
for lattice points).
"""
import ast
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, product
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

import sphvar
from sphvar import geometry
from sphvar.geometry import (
    Cone, LatticeMap,
    elementary_divisors, feasible, hilbert_basis_pointed,
    inverse_unimodular, kernel_basis, lattice_points,
    matrix_rank, primitive, row_echelon, saturation_quotient,
    smith_normal_form, solve_linear, span_coordinates, torsion_order, vdot,
)


# ---------------------------------------------------------------------------
# cones: frozen examples

def gens(c):
    return {tuple(int(a) for a in g) for g in c.generators}


def test_dual_orthant_is_orthant():
    c = Cone.orthant(2)
    assert c.dual() == c
    assert gens(c.dual()) == {(1, 0), (0, 1)}


def test_dual_of_wedge():
    c = Cone(2, [(1, 0), (1, 2)])
    assert gens(c.dual()) == {(0, 1), (2, -1)}
    # and back
    assert c.dual().dual() == c


def test_dual_of_zero_cone_is_everything():
    d = Cone.zero(2).dual()
    assert d == Cone.full(2)
    assert d.lineality_rank() == 2


def test_dual_of_full_space_is_zero():
    d = Cone.full(3).dual()
    assert d.generators == ()
    assert d == Cone.zero(3)


def test_halfplane():
    c = Cone.from_inequalities([(1, 0)], 2)
    assert c.contains((0, -5)) and c.contains((3, 7))
    assert not c.contains((-1, 0))
    assert c.lineality_rank() == 1
    assert not c.is_strictly_convex()


def test_strict_convexity():
    assert Cone.orthant(3).is_strictly_convex()
    assert Cone(2, [(1, 0), (1, 1), (-1, -2)]).is_strictly_convex()
    assert not Cone(2, [(1, 0), (-1, 0), (0, 1)]).is_strictly_convex()
    assert Cone.zero(4).is_strictly_convex()


def test_relative_interior():
    c = Cone.orthant(2)
    assert c.relative_interior_contains((1, 1))
    assert not c.relative_interior_contains((0, 1))
    assert not c.relative_interior_contains((-1, 1))
    ray = Cone(2, [(1, 0)])
    assert ray.relative_interior_contains((2, 0))
    assert not ray.relative_interior_contains((0, 0))
    # relint of the full space is the full space
    assert Cone.full(2).relative_interior_contains((0, 0))


def test_intersection():
    c = Cone.orthant(2).intersect(Cone(2, [(1, 1), (-1, 1)]))
    # {x >= 0, y >= 0} meet {y >= |x|} = wedge between (0,1) and (1,1)
    assert gens(c) == {(0, 1), (1, 1)}
    assert Cone.orthant(2).intersect(Cone(2, [(-1, -1)])) == Cone.zero(2)


def test_rays_and_lineality_of_halfplane():
    c = Cone.from_inequalities([(0, 1)], 2)
    rays, lin = c.rays_and_lineality()
    assert [tuple(int(a) for a in r) for r in rays] == [(0, 1)]
    assert len(lin) == 1 and tuple(abs(int(a)) for a in lin[0]) == (1, 0)


def test_contains_cone_and_eq():
    a = Cone(2, [(1, 0), (0, 1)])
    b = Cone(2, [(1, 0), (1, 1), (0, 1)])  # same cone, redundant generator
    assert a == b
    assert a.contains_cone(Cone(2, [(2, 3)]))
    assert not a.contains_cone(Cone(2, [(-1, 3)]))


def test_primitive():
    assert primitive((Fraction(2, 3), Fraction(-4, 3))) == (1, -2)
    assert primitive((Fraction(0), Fraction(0))) == (0, 0)
    assert primitive((Fraction(-2), Fraction(-4))) == (-1, -2)  # direction preserved


def test_int_row_scales_rational_rows_and_keeps_int_rows():
    # Fraction, float and bool entries scale by the lcm of the denominators
    for row, want in [((Fraction(1, 2), Fraction(-2, 3), 4), [3, -4, 24]),
                      ([0.5, -1.25, 2.0], [2, -5, 8]),
                      ((Fraction(4, 2), True, 3), [2, 1, 3])]:
        got = geometry._int_row(row)
        assert got == want and all(type(a) is int for a in got)
    # a row of ints is returned as a list of the same ints, unscaled
    for row in ((6, -4, 0), [1], ()):
        got = geometry._int_row(row)
        assert type(got) is list and got == list(row)


def test_cone_vectors_are_ints():
    c = Cone(2, [(Fraction(1, 2), 1)])
    assert c.generators == ((1, 2),)
    assert all(type(a) is int for v in c.generators + c.dual_generators() for a in v)
    assert repr(c) == "Cone(2, [(1, 2)])"


@pytest.mark.parametrize("row", [(1,), (1, 2, 3), ()])
def test_inequality_of_wrong_length_is_rejected(row):
    # a short row must not be read past its end, nor a long or empty one
    # cut or padded to the ambient dimension
    with pytest.raises(ValueError,
                       match="inequality dimension %d != ambient 2" % len(row)):
        Cone.from_inequalities([(1, 0), row], 2)


def test_rays_and_lineality_are_sorted():
    c = Cone(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)])
    assert c.rays_and_lineality() == (
        [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, -1)], [])
    c = Cone.from_inequalities([(1, 0, 0), (0, 1, 0)], 3)
    assert c.rays_and_lineality() == ([(0, 1, 0), (1, 0, 0)], [(0, 0, 1)])


# ---------------------------------------------------------------------------
# double description against the subset enumeration it replaced

def subset_enumeration(rows, n):
    """Every extreme ray modulo the lineality lies on a face cut out by a
    rank-(d-1) subset of the rows, d the codimension of the lineality: try
    them all, reducing each kernel vector modulo the lineality's RREF."""
    arows = []
    for r in rows:
        r = primitive(r)
        if any(r) and r not in arows:
            arows.append(r)
    lin = kernel_basis(arows, n)
    d = n - len(lin)
    if d == 0:
        return [], lin
    red, red_piv, e = geometry._gauss_jordan(lin, n)
    rays = set()
    for sub in combinations(arows, d - 1):
        ech, piv, dd = geometry._gauss_jordan(sub, n)
        if len(piv) != d - 1:
            continue
        for k in geometry._int_kernel(ech, piv, dd, n):
            y = [e * a for a in k]
            for row, pc in zip(red, red_piv):
                y = [a - k[pc] * b for a, b in zip(y, row)]
            if any(y):
                break
        else:
            continue
        for cand in (y, [-a for a in y]):
            if all(sum(a * b for a, b in zip(row, cand)) >= 0 for row in arows):
                rays.add(primitive(cand))
                break
    return sorted(rays), lin


@st.composite
def inequality_systems(draw):
    """Up to 15 rows in Z^n, n <= 6, with repeated, opposite, all-zero
    and Fraction-scaled rows mixed in."""
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n), max_size=12))
    for _ in range(draw(st.integers(0, 15 - len(rows)))):
        if rows:
            r = draw(st.sampled_from(rows))
            k = draw(st.sampled_from((1, -1)) | st.fractions(
                Fraction(-3), Fraction(3), max_denominator=4).filter(bool))
            rows.append(tuple(k * a for a in r))
        else:
            rows.append((0,) * n)
    return draw(st.permutations(rows)), n


FULL6 = Cone.full(6).generators
# the affine-closure system of the tensor-4 catalog entry: rank 6, 13 rows,
# and only the zero cone satisfies them
TENSOR4 = ((-1, -1, -1, -1, -1, 0), (-1, 0, 0, 0, 0, -1), (0, -1, -1, 0, 0, -1),
           (0, -1, 0, -1, 0, -1), (0, -1, 0, 0, -1, -1), (0, 0, -1, 0, 0, 0),
           (0, 0, 0, -1, 0, 0), (0, 0, 0, 0, -1, 0), (0, 0, 0, 0, 0, -1),
           (0, 0, 0, 0, 0, 1), (0, 1, 0, 0, 0, 1), (0, 2, 1, 1, 1, 0),
           (1, 1, 1, 1, 1, 0))


@given(inequality_systems())
@example(((), 3))                                        # the full space
@example((FULL6, 6))                                     # the zero cone
@example((TENSOR4, 6))
@example((((0, 0, 0), (0, 0, 0)), 3))                    # full lineality
@example((((1, 0), (-1, 0), (1, 0), (2, 0)), 2))         # the line x = 0
@example((((Fraction(1, 2), Fraction(-1, 3)), (0, Fraction(3, 4))), 2))
@settings(max_examples=120, deadline=None)
def test_double_description_matches_subset_enumeration(system):
    rows, n = system
    rays, lin = geometry._halfspace_gens(rows, n)
    assert (rays, lin) == subset_enumeration(rows, n)
    assert all(type(a) is int for v in rays + lin for a in v)


@pytest.mark.parametrize("rows, n", [(FULL6, 6), (TENSOR4, 6)],
                         ids=["full6", "tensor4"])
def test_double_description_eliminates_twice(rows, n, monkeypatch):
    # only the lineality kernel and its RREF are eliminated; a subset
    # enumeration would eliminate C(12, 5) = 792 and C(13, 5) = 1287 here
    calls = []
    gj = geometry._gauss_jordan
    monkeypatch.setattr(geometry, "_gauss_jordan",
                        lambda rows, ncols: calls.append(1) or gj(rows, ncols))
    assert geometry._halfspace_gens(rows, n) == ([], [])
    assert len(calls) <= 2


@given(inequality_systems())
@example(((), 3))
@example((FULL6, 6))
@example((((0, 0, 0), (0, 0, 0)), 3))
@settings(max_examples=120, deadline=None)
def test_double_description_lineality_is_the_kernel(system):
    # the lines left over span the kernel of the rows, so when none is left
    # the lineality is [] without an elimination
    rows, n = system
    assert geometry._halfspace_gens(rows, n)[1] == kernel_basis(rows, n)


@pytest.mark.parametrize("rows, n", [(FULL6, 6), (TENSOR4, 6),
                                     (((1, 0), (0, 1), (1, 1)), 2)],
                         ids=["full6", "tensor4", "quadrant"])
def test_double_description_without_lines_does_not_eliminate(rows, n,
                                                             monkeypatch):
    calls = []
    gj = geometry._gauss_jordan
    monkeypatch.setattr(geometry, "_gauss_jordan",
                        lambda rows, ncols: calls.append(1) or gj(rows, ncols))
    rays, lin = geometry._halfspace_gens(rows, n)
    assert lin == [] and calls == []


# ---------------------------------------------------------------------------
# lattice points

def test_lattice_points_segment():
    assert lattice_points(Cone.orthant(1), 3) == [(0,), (1,), (2,), (3,)]


def test_lattice_points_wedge():
    c = Cone(2, [(1, 0), (1, 2)])
    assert lattice_points(c, 2) == [(0, 0), (1, 0), (1, 1), (2, 0)]


def test_lattice_points_zero_cone():
    assert lattice_points(Cone.zero(2), 5) == [(0, 0)]


def test_lattice_points_negative_height():
    with pytest.raises(ValueError):
        lattice_points(Cone.orthant(2), -1)


@st.composite
def small_cones(draw, n=None):
    if n is None:
        n = draw(st.integers(min_value=1, max_value=4))
    k = draw(st.integers(min_value=0, max_value=6))
    gs = draw(st.lists(
        st.tuples(*[st.integers(min_value=-3, max_value=3) for _ in range(n)]),
        min_size=k, max_size=k))
    return Cone(n, gs)


@given(small_cones())
@settings(max_examples=60, deadline=None)
def test_dual_of_dual(c):
    assert c.dual().dual() == c


@given(small_cones())
@example(Cone.zero(3))
@example(Cone.full(3))
@settings(max_examples=60, deadline=None)
def test_relative_interior_point(c):
    p = c.relative_interior_point()
    assert len(p) == c.n and all(type(x) is int for x in p)
    # p in c, and every dual generator vanishing at p vanishes on all of c
    for y in c.dual_generators():
        assert frac_dot(y, p) >= 0
        assert frac_dot(y, p) > 0 or all(frac_dot(y, g) == 0 for g in c.generators)


def test_relative_interior_point_examples():
    assert Cone.zero(2).relative_interior_point() == (0, 0)
    assert Cone.full(2).relative_interior_point() == (0, 0)
    assert Cone(2, [(1, 0), (1, 2)]).relative_interior_point() == (2, 2)
    assert Cone(2, [(1, 0), (-1, 0), (0, 1)]).relative_interior_point() == (0, 1)


def member_via_lp(c, v):
    """Membership asked as a question about another cone: v in cone(gens)
    iff the homogeneous system {sum t_i g_i = s v, t_i >= 0, s > 0} is
    feasible in (t, s)."""
    gs = c.generators
    k = len(gs)
    rows = []
    for coord in range(c.n):
        row = [gs[i][coord] for i in range(k)] + [-v[coord]]
        rows += [row, [-a for a in row]]
    for i in range(k):
        row = [0] * (k + 1)
        row[i] = 1
        rows.append(row)
    srow = [0] * (k + 1)
    srow[k] = 1
    return feasible(rows, [srow], k + 1) is not None


@given(small_cones(n=3), st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2)))
@settings(max_examples=40, deadline=None)
def test_membership_matches_lp_oracle(c, v):
    assert c.contains(v) == member_via_lp(c, v)


def frac_dot(u, v):
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)), Fraction(0))


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_membership_matches_fraction_dot_products(data):
    n = data.draw(st.integers(1, 4))
    c = data.draw(small_cones(n=n))
    if c.generators and data.draw(st.booleans()):
        # a rational point of the cone, on a face when some weight is 0
        ts = data.draw(st.lists(st.fractions(0, 2, max_denominator=5),
                                min_size=len(c.generators), max_size=len(c.generators)))
        v = tuple(sum((t * g[i] for t, g in zip(ts, c.generators)), Fraction(0))
                  for i in range(n))
    else:
        v = tuple(data.draw(st.lists(st.fractions(-3, 3, max_denominator=6),
                                     min_size=n, max_size=n)))
    duals = c.dual_generators()
    inside = all(frac_dot(y, v) >= 0 for y in duals)
    assert c.contains(v) == inside
    relint = inside and all(frac_dot(y, v) > 0 or
                            all(frac_dot(y, g) == 0 for g in c.generators)
                            for y in duals)
    assert c.relative_interior_contains(v) == relint


@given(small_cones(n=2), st.integers(min_value=0, max_value=3))
@settings(max_examples=30, deadline=None)
def test_lattice_points_match_grid_scan(c, h):
    pts = set(lattice_points(c, h))
    brute = set()
    for p in product(range(-h, h + 1), repeat=2):
        if sum(abs(x) for x in p) <= h and member_via_lp(c, p):
            brute.add(p)
    assert pts == brute


@pytest.mark.parametrize("n", range(1, 6))
@given(data=st.data(), h=st.integers(min_value=0, max_value=6))
@settings(max_examples=8, deadline=None)
def test_lattice_points_match_l1_ball_filter(n, data, h):
    c = data.draw(small_cones(n=n))
    # n <= 3: the LP oracle, asked once per direction since
    # membership is scale invariant; n = 4, 5: the cone's own dual
    member = {}

    def inside(p):
        if c.n > 3:
            return c.contains(p)
        g = gcd(*p) or 1
        d = tuple(a // g for a in p)
        if d not in member:
            member[d] = member_via_lp(c, d)
        return member[d]

    brute = [p for p in product(range(-h, h + 1), repeat=c.n)
             if sum(map(abs, p)) <= h and inside(p)]
    assert lattice_points(c, h) == brute


def test_lattice_points_is_output_sensitive():
    # the l1 ball of radius 60 in Z^6 has about 4.4e9 points; the ray has 11
    src = os.path.dirname(os.path.dirname(os.path.abspath(geometry.__file__)))
    code = ("from sphvar.geometry import Cone, lattice_points; "
            "print(lattice_points(Cone(6, [(1,) * 6]), 60))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == repr([(k,) * 6 for k in range(11)])


def test_a_large_height_catalog_test_is_fast():
    # the rankin-selberg integral cone is 3-dimensional in Z^5: 544 points
    # kept at height 80, where trying every candidate coordinate took about
    # 20 s; at height 120 (and triple-product at 60) the per-row l1 tail
    # bounds took about 2 s
    src = os.path.dirname(os.path.dirname(os.path.abspath(geometry.__file__)))
    for key, h, rows in [("rankin-selberg", 80, 544), ("rankin-selberg", 120, 1637),
                         ("triple-product", 60, 1941)]:
        code = ("from sphvar import cli; raise SystemExit(cli.main(['catalog', "
                "'test', %r, '--height', '%d']))" % (key, h))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=src),
                              timeout=10)
        assert proc.returncode == 0, proc.stderr
        assert "table\tpass\t%d rows" % rows in proc.stdout.splitlines()


@pytest.mark.parametrize("n", range(6))
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_prefix_duals_cut_out_each_projection(n, data):
    c = data.draw(st.one_of(small_cones(n=n), st.just(Cone.zero(n)),
                            st.just(Cone.full(n))))
    levels = c.prefix_duals()
    assert len(levels) == n
    for i in range(n):
        assert all(len(y) == i + 1 and y[i] for y in levels[i])
        rows = [y + (0,) * (i - j) for j in range(i + 1) for y in levels[j]]
        assert Cone.from_inequalities(rows, i + 1) == \
            Cone(i + 1, [g[:i + 1] for g in c.generators])


def scan_nodes(c, h):
    """(nodes, points) of lattice_points(c, h); a node is a call of its
    inner depth-first step."""
    nodes = []

    def hook(frame, event, arg):
        code = frame.f_code
        if (event == "call" and code.co_name == "rec"
                and code.co_filename == geometry.__file__):
            nodes.append(1)
    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        pts = lattice_points(c, h)
    finally:
        sys.setprofile(previous)
    return len(nodes), len(pts)


@pytest.mark.parametrize("key,h,nodes,points", [
    ("rankin-selberg", 120, 22880, 1637), ("triple-product", 60, 17861, 1941)])
def test_lattice_points_node_counts(key, h, nodes, points):
    # the per-row l1 tail bounds visited 344,056 and 453,970 nodes here
    from sphvar import catalog
    d = catalog.load(key).datum
    c = d.valuation_cone.intersect(d.colored_cone.cone)
    assert scan_nodes(c, h) == (nodes, points)


def candidate_scan(c, height):
    """The per-candidate scan lattice_points replaced: every x in
    [-budget, budget] is tried against every dual row."""
    if height < 0:
        raise ValueError("height must be >= 0")
    n = c.n
    rows = c.dual_generators()
    cols = [[y[i] for y in rows] for i in range(n)]
    tails = [[max(map(abs, y[i + 1:]), default=0) for y in rows] for i in range(n)]
    out = []
    point = [0] * n

    def rec(i, budget, sums):
        if i == n:
            out.append(tuple(point))
            return
        col, tail = cols[i], tails[i]
        for x in range(-budget, budget + 1):
            rest = budget - abs(x)
            nxt = [s + a * x for s, a in zip(sums, col)]
            if all(s + rest * t >= 0 for s, t in zip(nxt, tail)):
                point[i] = x
                rec(i + 1, rest, nxt)

    rec(0, height, [0] * len(rows))
    return out


def test_lattice_points_match_the_candidate_scan_on_the_catalog():
    # the valuation cone and the integral cone of every entry
    from sphvar import catalog
    cones = []
    for key in catalog.list_entries():
        d = catalog.load(key).datum
        cones += [d.valuation_cone,
                  d.valuation_cone.intersect(d.colored_cone.cone)]
    assert len(cones) == 36
    for c in cones:
        for h in range(11):
            assert lattice_points(c, h) == candidate_scan(c, h), (c, h)


@pytest.mark.parametrize("n", range(1, 7))
@given(data=st.data(), h=st.integers(min_value=0, max_value=8))
@settings(max_examples=25, deadline=None)
def test_lattice_points_match_the_candidate_scan(n, data, h):
    c = data.draw(st.one_of(small_cones(n=n),
                            st.just(Cone.zero(n)), st.just(Cone.full(n)),
                            st.just(Cone(n, [(1,) + (0,) * (n - 1),
                                             (-1,) + (0,) * (n - 1)]))))
    assert lattice_points(c, h) == candidate_scan(c, h)


# ---------------------------------------------------------------------------
# feasibility

def test_feasible_basic():
    assert feasible([(1,)], [(-1,)], 1) is None
    w = feasible([(1, -1), (-1, 1)], [(1, 1)], 2)
    assert w is not None and w[0] == w[1] and w[0] > 0
    assert feasible([], [], 2) == (0, 0)
    assert feasible([], [], 0) == ()
    # strict inequality on a line
    w = feasible([], [(-2, 1)], 2)
    assert 2 * w[0] - w[1] < 0


def test_feasible_rejects_a_wrong_witness(monkeypatch):
    # the witness (-1, 1) meets the strict row but breaks the non-strict one
    monkeypatch.setattr(geometry, "_generators", lambda rows, n: ((-1, 1),))
    with pytest.raises(RuntimeError, match="witness"):
        feasible([(1, 0)], [(0, 1)], 2)


def test_feasible_needs_all_relations():
    # x > 0, y < 0, x + y <= 0
    w = feasible([(-1, -1)], [(1, 0), (0, -1)], 2)
    assert w is not None
    assert w[0] > 0 and w[1] < 0 and w[0] + w[1] <= 0


def test_feasible_rejects_a_wrong_length_row():
    with pytest.raises(ValueError):
        feasible([(1, 0), (1,)], [], 2)
    with pytest.raises(ValueError):
        feasible([(1, 0)], [(1,)], 2)


def feasible_oracle(rows, strict, eqs, n):
    """Brute feasibility of {a.x >= 0 (rows), b.x > 0 (strict), e.x = 0
    (eqs)} over tight subsets.

    Scaling lets every strict row b.x > 0 be replaced by b.x >= 1, and
    equalities stay equalities. Some minimal face of the relaxed polyhedron
    is an affine subspace cut out by tight rows, so checking the solution of
    every tight subset against all constraints is complete.
    """
    ineqs = [(a, 0) for a in rows] + [(b, 1) for b in strict]

    def try_point(x):
        if x is None:
            return False
        return all(vdot(a, x) >= b for a, b in ineqs) and \
            all(vdot(e, x) == 0 for e in eqs)

    for r in range(len(ineqs) + 1):
        for sub in combinations(range(len(ineqs)), r):
            lhs = list(eqs) + [ineqs[i][0] for i in sub]
            rhs = [0] * len(eqs) + [ineqs[i][1] for i in sub]
            if not lhs:
                if try_point((Fraction(0),) * n):
                    return True
                continue
            if try_point(solve_linear(lhs, rhs)):
                return True
    return False


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.tuples(st.tuples(*[st.integers(-3, 3)] * n),
              st.sampled_from(["closed", "strict", "eq"])),
    min_size=1, max_size=7))))
@settings(max_examples=120, deadline=None)
def test_feasible_matches_oracle(drawn):
    n, items = drawn
    rows = [a for a, kind in items if kind == "closed"]
    strict = [a for a, kind in items if kind == "strict"]
    eqs = [a for a, kind in items if kind == "eq"]
    w = feasible(rows + eqs + [tuple(-x for x in e) for e in eqs], strict, n)
    assert (w is not None) == feasible_oracle(rows, strict, eqs, n)
    if w is not None:
        assert type(w) is tuple and len(w) == n
        assert all(type(x) is int for x in w)
        assert all(vdot(a, w) >= 0 for a in rows)
        assert all(vdot(b, w) > 0 for b in strict)
        assert all(vdot(e, w) == 0 for e in eqs)


# ---------------------------------------------------------------------------
# integer lattice algebra

def det_frac(rows):
    rows = [list(map(Fraction, r)) for r in rows]
    n = len(rows)
    d = Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            d = -d
        d *= rows[c][c]
        inv = 1 / rows[c][c]
        for i in range(c + 1, n):
            f = rows[i][c] * inv
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return d


def test_snf_frozen():
    A = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    U, D, V = smith_normal_form(A)
    assert [D[i][i] for i in range(3)] == [2, 2, 156]
    assert elementary_divisors(A) == [2, 2, 156]
    assert elementary_divisors([[2, 0], [0, 3]]) == [1, 6]


def mat_mul(A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
            for i in range(len(A))]


@given(st.integers(1, 4), st.integers(1, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_snf_properties(m, n, data):
    A = [[data.draw(st.integers(-9, 9)) for _ in range(n)] for _ in range(m)]
    U, D, V = smith_normal_form(A)
    assert mat_mul(mat_mul(U, A), V) == D
    assert abs(det_frac(U)) == 1 and abs(det_frac(V)) == 1
    diag = [D[i][i] for i in range(min(m, n))]
    for i in range(m):
        for j in range(n):
            if i != j:
                assert D[i][j] == 0
    for i in range(len(diag) - 1):
        assert diag[i] >= 0
        if diag[i + 1] != 0:
            assert diag[i] != 0 and diag[i + 1] % diag[i] == 0


@given(st.integers(1, 4), st.integers(1, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_snf_matches_sympy(m, n, data):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices import normalforms
    A = [[data.draw(st.integers(-9, 9)) for _ in range(n)] for _ in range(m)]
    M = sympy.Matrix(A)
    want = normalforms.smith_normal_form(M, domain=sympy.ZZ)
    _, D, _ = smith_normal_form(A)
    assert [D[i][i] for i in range(min(m, n))] == \
        [abs(int(want[i, i])) for i in range(min(m, n))]
    assert elementary_divisors(A) == [
        abs(int(d)) for d in normalforms.invariant_factors(M, domain=sympy.ZZ)
        if d != 0]


def test_torsion_order():
    assert torsion_order(LatticeMap.of([[1, 0], [0, 6]])) == 6
    assert torsion_order(LatticeMap.identity(3)) == 1
    assert torsion_order(LatticeMap.of([[2]])) == 2
    # index of the span of (1,1) and (1,-1) in Z^2
    assert torsion_order(LatticeMap.of([[1, 1], [1, -1]]).transpose()) == 2
    with pytest.raises(ValueError):
        torsion_order(LatticeMap.of([[1, 1]]))


def unimodular_from_ops(ops, n):
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    for (i, j, c) in ops:
        if i != j:
            M[i] = [a + c * b for a, b in zip(M[i], M[j])]
    return M


@given(st.integers(2, 3), st.data())
@settings(max_examples=40, deadline=None)
def test_torsion_invariant_under_unimodular(n, data):
    A = [[data.draw(st.integers(-5, 5)) for _ in range(n)] for _ in range(n)]
    mA = LatticeMap.of(A)
    if not mA.is_injective():
        return
    ops = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-2, 2)),
        max_size=4))
    P = unimodular_from_ops(ops, n)
    assert torsion_order(LatticeMap.of(P).compose(mA)) == torsion_order(mA)


def test_inverse_unimodular():
    assert inverse_unimodular([[1, 2], [0, 1]]) == [(1, -2), (0, 1)]
    with pytest.raises(ValueError, match="not unimodular"):
        inverse_unimodular([[2, 0], [0, 1]])
    with pytest.raises(ValueError, match="singular"):
        inverse_unimodular([[1, 1], [1, 1]])
    with pytest.raises(ValueError, match="not square"):
        inverse_unimodular([[1, 0], [0, 1], [1, 1]])


def test_inverse_unimodular_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(3)
    for t in range(120):
        n = rng.randint(1, 5)
        ops = [(rng.randrange(n), rng.randrange(n), rng.randint(-3, 3))
               for _ in range(rng.randint(0, 8))]
        M = unimodular_from_ops(ops, n)
        if t % 2:  # a row swap keeps det = +-1
            M.reverse()
        want = sympy.Matrix(M).inv()
        assert inverse_unimodular(M) == \
            [tuple(int(x) for x in want.row(i)) for i in range(n)]


@given(st.integers(1, 6), st.data())
@settings(max_examples=80, deadline=None)
def test_span_coordinates_matches_rational_solve(n, data):
    k = data.draw(st.integers(0, n))
    basis = [tuple(data.draw(st.integers(-4, 4)) for _ in range(n))
             for _ in range(k)]
    if k and data.draw(st.booleans()):
        # force a dependency half the time
        c = data.draw(st.integers(-2, 2))
        basis[-1] = tuple(c * a for a in basis[0])
    if matrix_rank(basis) < k:
        with pytest.raises(ValueError, match="dependent"):
            span_coordinates(basis, n)
        return
    d, top, bottom = span_coordinates(basis, n)
    assert d > 0 and len(top) == k and len(bottom) == n - k
    cols = [[b[i] for b in basis] for i in range(n)]
    for _ in range(4):
        v = tuple(data.draw(st.integers(-6, 6)) for _ in range(n))
        if data.draw(st.booleans()):  # a lattice point of the span
            v = tuple(sum(data.draw(st.integers(-3, 3)) * b[i] for b in basis)
                      for i in range(n)) if basis else (0,) * n
        inside = not any(vdot(row, v) for row in bottom)
        assert inside == (matrix_rank(basis + [v]) == k)
        sol = solve_linear(cols, v)
        assert inside == (sol is not None)
        if inside:
            assert tuple(Fraction(vdot(row, v), d) for row in top) == sol


def test_kernel_basis_is_primitive_int():
    rng = random.Random(8)
    for _ in range(60):
        m, n = rng.randint(0, 4), rng.randint(1, 6)
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                 for _ in range(n)] for _ in range(m)]
        for k in kernel_basis(rows, n):
            assert all(type(a) is int for a in k)
            assert gcd(*k) == 1
            assert all(vdot(r, k) == 0 for r in rows)


def test_lattice_map_basics():
    f = LatticeMap.of([[1, 2], [3, 4], [5, 6]])
    assert f.m == 3 and f.n == 2
    assert f.apply((1, 1)) == (3, 7, 11)
    assert f.transpose().rows == ((1, 3, 5), (2, 4, 6))
    g = LatticeMap.of([[1, 0, 0], [0, 1, 0]])
    assert g.compose(f).rows == ((1, 2), (3, 4))
    assert f.is_injective() and not g.is_injective()
    img = f.image_cone(Cone.orthant(2))
    assert img.contains((1, 3, 5)) and img.contains((2, 4, 6))
    with pytest.raises(ValueError):
        LatticeMap.of([[1, 2], [3]])


def test_lattice_map_rejects_non_integral_entries():
    for bad in ([[1, Fraction(1, 2)]], [[1.5]], [[0], [Fraction(-1, 3)]]):
        with pytest.raises(ValueError, match="non-integral"):
            LatticeMap.of(bad)
    f = LatticeMap.of([[Fraction(4, 2), 1.0], [-3, 0]])
    assert f.rows == ((2, 1), (-3, 0))
    assert all(type(a) is int for r in f.rows for a in r)


def test_saturation_quotient_rejects_non_integral_entries():
    # int() used to truncate (1/2, 1) to (0, 1), the wrong line
    with pytest.raises(ValueError, match="non-integral"):
        saturation_quotient([(Fraction(1, 2), 1)], 2)
    assert saturation_quotient([(Fraction(2), Fraction(8, 2))], 2) == \
        saturation_quotient([(2, 4)], 2)


def test_snf_rejects_non_integral_entries():
    # int() used to truncate [[1/2]] to [[0]], which has no divisors
    with pytest.raises(ValueError, match="non-integral"):
        elementary_divisors([[Fraction(1, 2)]])
    with pytest.raises(ValueError, match="non-integral"):
        smith_normal_form([[1, 0], [0, 1.5]])
    assert elementary_divisors([[Fraction(4, 2), 0], [0, 3]]) == [1, 6]


def test_saturation_quotient_plane():
    proj, sect = saturation_quotient([(2, 4)], 2)
    assert proj.m == 1 and proj.n == 2
    assert proj.apply((1, 2)) == (0,)          # kernel is saturated
    assert proj.apply((2, 4)) == (0,)
    y = proj.apply((0, 1))
    assert proj.apply(sect.apply(y)) == y
    # quotient coordinate must hit all of Z
    assert matrix_rank([tuple(map(Fraction, r)) for r in proj.rows]) == 1


def test_saturation_quotient_empty():
    proj, sect = saturation_quotient([], 3)
    assert proj.rows == LatticeMap.identity(3).rows
    assert sect.rows == LatticeMap.identity(3).rows


@given(st.integers(2, 4), st.data())
@settings(max_examples=40, deadline=None)
def test_saturation_quotient_properties(n, data):
    k = data.draw(st.integers(0, n))
    vs = [tuple(data.draw(st.integers(-4, 4)) for _ in range(n)) for _ in range(k)]
    proj, sect = saturation_quotient(vs, n)
    for v in vs:
        assert all(x == 0 for x in proj.apply(v))
    r = matrix_rank([tuple(map(Fraction, v)) for v in vs])
    assert proj.m == n - r
    comp = proj.compose(sect)
    assert comp.rows == LatticeMap.identity(n - r).rows
    # kernel of proj is exactly the rational span of the inputs
    ker = kernel_basis([tuple(map(Fraction, row)) for row in proj.rows], n)
    assert matrix_rank(ker + [tuple(map(Fraction, v)) for v in vs]) == r


# ---------------------------------------------------------------------------
# Hilbert bases

def test_hilbert_basis_frozen():
    c = Cone(2, [(1, 0), (1, 2)])
    assert hilbert_basis_pointed(c) == [(1, 0), (1, 1), (1, 2)]
    c4 = Cone(2, [(1, 0), (1, 4)])
    assert hilbert_basis_pointed(c4) == [(1, 0), (1, 1), (1, 2), (1, 3), (1, 4)]
    sq = Cone(3, [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])
    assert hilbert_basis_pointed(sq) == [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)]
    assert hilbert_basis_pointed(Cone.zero(2)) == []
    assert hilbert_basis_pointed(Cone(2, [(0, 1), (3, -2)])) == \
        [(0, 1), (1, 0), (2, -1), (3, -2)]


def test_hilbert_basis_rejects_lineality():
    with pytest.raises(ValueError, match="lineality"):
        hilbert_basis_pointed(Cone(2, [(1, 0), (-1, 0)]))


def test_hilbert_basis_rejects_large_rank():
    with pytest.raises(ValueError, match="unsupported rank"):
        hilbert_basis_pointed(Cone.orthant(5))


def monoid_reachable(c, basis, h):
    """Lattice points of c at l1-height <= h reachable as N-combinations."""
    pts = lattice_points(c, h)
    reach = {tuple([0] * c.n)}
    grew = True
    while grew:
        grew = False
        for p in pts:
            if p in reach:
                continue
            for b in basis:
                prev = tuple(x - y for x, y in zip(p, b))
                if prev in reach:
                    reach.add(p)
                    grew = True
                    break
    return set(pts) <= reach


def test_hilbert_basis_generates():
    for gens_ in ([(1, 0), (1, 2)], [(0, 1), (3, -2)], [(2, 1), (1, 3)]):
        c = Cone(2, gens_)
        hb = hilbert_basis_pointed(c)
        assert monoid_reachable(c, hb, 6)
    sq = Cone(3, [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])
    assert monoid_reachable(sq, hilbert_basis_pointed(sq), 5)


def test_hilbert_basis_rank4():
    # cone over a 3-cube: 8 rays, all of them needed, plus nothing else
    cube = [(a, b, c, 1) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    hb = hilbert_basis_pointed(Cone(4, cube))
    assert sorted(cube) == hb


# ---------------------------------------------------------------------------
# linear algebra against sympy, and -O safety

def test_linear_algebra_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(11)

    def frac(x):
        return Fraction(int(x.p), int(x.q))

    for t in range(240):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        rows = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4) if t % 2 else 1)
                 for _ in range(n)] for _ in range(m)]
        if m > 2 and t % 3 == 0:
            rows[-1] = [a - 2 * b for a, b in zip(rows[0], rows[1])]
        M = sympy.Matrix([[sympy.Rational(a.numerator, a.denominator)
                           for a in r] for r in rows])
        assert matrix_rank(rows) == M.rank()
        R, piv = M.rref()
        ech, mine = row_echelon(rows)
        assert tuple(mine) == piv
        assert ech == [tuple(frac(x) for x in R.row(i)) for i in range(len(piv))]
        ker = kernel_basis(rows, n)
        ns = M.nullspace()
        assert len(ker) == len(ns)
        if ker:
            K = sympy.Matrix([[sympy.Rational(a.numerator, a.denominator)
                               for a in k] for k in ker])
            assert (M * K.T).is_zero_matrix
            assert sympy.Matrix.vstack(K, *[v.T for v in ns]).rank() == len(ns)


PACKAGE_DIR = os.path.dirname(sphvar.__file__)


MODULES = sorted(f[:-3] for f in os.listdir(PACKAGE_DIR) if f.endswith(".py"))


def module_tree(module):
    with open(os.path.join(PACKAGE_DIR, module + ".py")) as f:
        return ast.parse(f.read())


@pytest.mark.parametrize("module", MODULES)
def test_module_has_no_assert(module):
    """python -O strips assert statements, so no check in the package may
    be one."""
    assert [node.lineno for node in ast.walk(module_tree(module))
            if isinstance(node, ast.Assert)] == []


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_only_the_standard_library(module):
    """The package has no runtime dependency: every absolute import names a
    standard-library module or the package itself (sympy and numpy are for
    tests only)."""
    names = []
    for node in ast.walk(module_tree(module)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    assert [name for name in names
            if name.split(".")[0] not in sys.stdlib_module_names | {"sphvar"}] == []


REPO_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCES = sorted(os.path.relpath(os.path.join(root, f), REPO_DIR)
                 for top in ("src", "tests", "perfbench")
                 for root, _, files in os.walk(os.path.join(REPO_DIR, top))
                 for f in files if f.endswith(".py"))


@pytest.mark.parametrize("path", SOURCES)
def test_source_parses_as_python_3_10(path):
    """pyproject.toml allows Python 3.10, so no file may use later syntax."""
    with open(os.path.join(REPO_DIR, path)) as f:
        ast.parse(f.read(), path, feature_version=(3, 10))
