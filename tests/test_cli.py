import contextlib
import copy
import io
import json
import os
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from sphvar import cli
from sphvar.catalog import basic_table, list_entries, load
from sphvar.cli import (InputError, load_document, main, parse_document,
                        parse_group, render_document, render_group)
from sphvar.rootdata import product_datum, root_datum

ALL_KEYS = list_entries()


def doc_path(tmp_path, key, **overrides):
    doc = render_document(load(key).datum)
    doc.update(overrides)
    p = tmp_path / (key + ".json")
    p.write_text(json.dumps(doc))
    return str(p)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# documents

@pytest.mark.parametrize("key", ALL_KEYS)
def test_document_round_trip(key):
    d = load(key).datum
    doc = json.loads(json.dumps(render_document(d)))
    assert parse_document(doc) == d


def test_render_group_explicit_and_parse_forms():
    gl3 = root_datum("GL", 3)
    assert parse_group(render_group(gl3)) == gl3
    assert parse_group({"type": "GL", "rank": 3}) == gl3
    prod = product_datum(root_datum("T", 1), root_datum("SL", 2))
    assert parse_group({"factors": [{"type": "T", "rank": 1},
                                    {"type": "SL", "rank": 2}]}) == prod


def test_parse_group_rejects_junk():
    with pytest.raises(InputError):
        parse_group({"rank": 2})
    with pytest.raises(InputError):
        parse_group({"type": "Q", "rank": 2})
    with pytest.raises(InputError):
        parse_group({"factors": []})
    with pytest.raises(InputError):
        parse_group([1, 2])


def test_parse_document_rejects_bad_shapes():
    with pytest.raises(InputError):
        parse_document([])
    with pytest.raises(InputError):
        parse_document({"schema": 2})
    with pytest.raises(InputError):
        parse_document({"schema": 1, "name": "x"})
    base = render_document(load("a2-sl2").datum)
    bad = dict(base)
    bad["colors"] = [{"label": "D"}]
    with pytest.raises(InputError):
        parse_document(bad)
    bad = dict(base)
    bad["lattice_map"] = [["x"]]
    with pytest.raises(InputError):
        parse_document(bad)


MALFORMED = (
    {"rank": "two"},
    {"little_weyl": 5},
    {"colors": 5},
    {"colored_cone": {"colors": 5, "generators": [[1]]}},
    {"little_weyl": [[[2]]]},  # not in W_X = 1; its orbit never closes
    {"little_weyl": [[[1, 0]]]},
    {"little_weyl": [[[0.5]]]},
    {"colored_cone": {"dim": "one", "generators": [[1]], "colors": []}},
    {"group": {"type": "GL", "rank": [2]}},
    {"group": {"factors": 5}},
    {"rank": 1.5},
    {"rank": True},
    {"lattice_map": [[1.9], [-1.2]]},
    {"colors": [{"label": "D", "rho": [True]}]},
    {"valuation_cone": {"generators": [[-1.0], [1.0]]}},
    {"group": {"name": "t1xsl2", "rank": 2.0, "simple_roots": [[0, 2]],
               "simple_coroots": [[0, 1]]}},
    {"colored_cone": {"generators": [[1]], "colors": ["E"]}},
    {"colored_cone": {"dim": 2, "generators": [[1, 0]], "colors": ["D"]}},
    {"lattice_map": [[0], [0]]},
    # inequality rows of the wrong length, short, long and empty
    {"valuation_cone": {"dim": 2, "inequalities": [[1]]}},
    {"valuation_cone": {"inequalities": [[0, 1]]}},
    {"valuation_cone": {"inequalities": [[]]}},
)
COMMANDS = (["describe"], ["check", "--which", "wavefront"],
            ["basicfn", "--case", "pp", "--height", "2"])


@pytest.mark.parametrize("cmd", COMMANDS, ids=lambda c: c[0])
@pytest.mark.parametrize("bad", MALFORMED, ids=lambda b: json.dumps(b))
def test_malformed_document_is_bad_input(tmp_path, capsys, bad, cmd):
    p = doc_path(tmp_path, "a2-sl2", **bad)
    code, out, err = run(capsys, [cmd[0], p] + cmd[1:])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# a stated little_weyl outside W_X, or on a datum whose spherical roots do
# not all get a coroot from the colors
BAD_LITTLE_WEYL = (
    ("hecke-gl2", [[[0, 1], [1, 0]]]),
    ("hecke-gl2", [[[1, 0], [0, 1]]]),
    ("pgl2-group", [[[1]]]),
    ("rankin-selberg", [[[int(i == j) for j in range(5)] for i in range(5)]]),
    ("rankin-selberg", []),
)


@pytest.mark.parametrize("cmd", COMMANDS, ids=lambda c: c[0])
@pytest.mark.parametrize("key, lw", BAD_LITTLE_WEYL,
                         ids=lambda v: json.dumps(v))
def test_wrong_little_weyl_is_bad_input(tmp_path, capsys, key, lw, cmd):
    p = doc_path(tmp_path, key, little_weyl=lw)
    code, out, err = run(capsys, [cmd[0], p] + cmd[1:])
    assert code == 2
    assert out == ""
    assert err.startswith("error: inconsistent document: little Weyl") \
        and err.count("\n") == 1


@pytest.mark.parametrize("key, lw", (("hecke-gl2", [[[1, 0], [0, -1]]]),
                                     ("pgl2-group", [[[-1]]]),
                                     ("a2-sl2", [])))
def test_right_little_weyl_is_accepted(tmp_path, capsys, key, lw):
    # documents rendered before W_X was derived state these generators
    plain = run(capsys, ["describe", doc_path(tmp_path, key)])
    p = doc_path(tmp_path, key, little_weyl=lw)
    assert run(capsys, ["describe", p]) == plain
    assert load_document(p) == load(key).datum


def test_group_whose_roots_do_not_close_is_bad_input(tmp_path, capsys):
    # affine A1: the datum's own checks pass, but W is infinite
    aff = {"name": "aff", "rank": 3, "simple_roots": [[2, -2, 1], [-2, 2, 0]],
           "simple_coroots": [[1, 0, 0], [0, 1, 0]]}
    p = doc_path(tmp_path, "a1-gl1", group=aff, lattice_map=[[0], [0], [1]])
    start = time.perf_counter()
    assert run(capsys, ["describe", p]) == (
        2, "", "error: bad group: root system does not close; bad input "
               "data\n")
    assert time.perf_counter() - start < 5


def test_group_that_is_not_a_cartan_matrix_is_bad_input(tmp_path, capsys):
    # its positive half closes at 2 roots, though its Weyl group has order 6
    bad = {"name": "bad", "rank": 2, "simple_roots": [[2, 1], [1, 2]],
           "simple_coroots": [[1, 0], [0, 1]]}
    p = doc_path(tmp_path, "a1-gl1", group=bad, lattice_map=[[0], [1]])
    assert run(capsys, ["describe", p]) == (
        2, "", "error: bad group: <alpha_1, alpha_0^> = 1, <alpha_0, "
               "alpha_1^> = 1: not a generalized Cartan matrix; bad input "
               "data\n")


def test_group_of_negative_rank_is_bad_input(tmp_path, capsys):
    # SL(0) has rank -1: refused with the group, not later by the lattice map
    p = doc_path(tmp_path, "a1-gl1", group={"type": "SL", "rank": 0})
    assert run(capsys, ["describe", p]) == (
        2, "", "error: bad group: rank -1 is negative; bad input data\n")


@pytest.mark.parametrize("kind,rank,roots", (
    ("GL", 2000, 3998000), ("SL", 65, 4160), ("B", 46, 4232),
    ("GSp", 92, 4232)))
def test_group_with_more_roots_than_the_closure_cap_fails_fast(
        tmp_path, capsys, kind, rank, roots):
    # refused from its family and size alone, before any matrix is built
    p = doc_path(tmp_path, "a1-gl1", group={"type": kind, "rank": rank})
    start = time.perf_counter()
    assert run(capsys, ["describe", p]) == (
        2, "", "error: bad group: %s(%d) has %d roots, more than the closure "
               "cap 4096; bad input data\n" % (kind.upper(), rank, roots))
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("argv", (
    ["describe"], ["check", "--which", "colored-cone"],
    ["check", "--which", "affine"], ["orbits", "--height", "2", "--integral"],
    ["basicfn", "--case", "borel", "--height", "2"]), ids=" ".join)
def test_colored_cone_with_an_unknown_color_is_bad_input(tmp_path, capsys,
                                                        argv):
    doc = render_document(load("borel-sl3").datum)
    doc["colors"] = doc["colors"][:1]
    p = tmp_path / "one-color.json"
    p.write_text(json.dumps(doc))
    code, out, err = run(capsys, [argv[0], str(p)] + argv[1:])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "unknown color label 'D2'" in err


def _nodes(obj, path=()):
    yield path
    if isinstance(obj, (dict, list)):
        items = obj.items() if isinstance(obj, dict) else enumerate(obj)
        for k, v in items:
            yield from _nodes(v, path + (k,))


@st.composite
def mutated_documents(draw):
    """A catalog document with one to three nodes replaced by junk, nudged
    by a small integer, deleted or duplicated."""
    doc = render_document(load(draw(st.sampled_from(ALL_KEYS))).datum)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_nodes(doc))[1:]))
        parent = doc
        for k in path[:-1]:
            parent = parent[k]
        last, node = path[-1], parent[path[-1]]
        kind = draw(st.sampled_from(("junk", "nudge", "drop", "copy")))
        if kind == "drop":
            del parent[last]
        elif kind == "copy" and isinstance(parent, list):
            parent.insert(last, copy.deepcopy(node))
        elif kind == "nudge" and type(node) is int:
            parent[last] = node + draw(st.sampled_from((-2, -1, 1, 2)))
        else:
            parent[last] = copy.deepcopy(draw(st.sampled_from(
                (None, "x", "D", 1.5, True, [], {}, [[]], [0], -1, 0, 1, 2))))
    return doc


@given(mutated_documents(), st.data())
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_mutated_documents_fail_cleanly(tmp_path_factory, doc, data):
    # exit 0, 1 or 2, at most one error line, never a traceback
    path = str(tmp_path_factory.mktemp("fuzz") / "doc.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    for argv in (
            ["describe"],
            ["check", "--which", data.draw(st.sampled_from(
                ("colored-cone", "affine", "wavefront", "induced",
                 "negligible")))],
            ["orbits", "--height", "2"]
            + data.draw(st.sampled_from(([], ["--integral"]))),
            ["basicfn", "--case", data.draw(st.sampled_from(
                ("borel", "pp", "graded"))), "--height", "2"],
            ["lf", "--rep", data.draw(st.sampled_from(("u_P", "u_P_f")))]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([argv[0], path] + argv[1:])
        assert code in (0, 1, 2), argv
        assert err.getvalue().count("error:") <= 1, argv
        assert "Traceback" not in err.getvalue(), argv


def test_non_closing_orbit_fails_fast_under_optimize(tmp_path):
    p = doc_path(tmp_path, "a2-sl2", little_weyl=[[[2]]])
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-m", "sphvar.cli",
                           "describe", p], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_optimize_changes_no_output(tmp_path):
    # -O strips assert statements, so no check a result depends on may be one
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    doc = doc_path(tmp_path, "pp-gl3")
    for argv in (["catalog", "test", "borel-sl3"],
                 ["basicfn", doc, "--case", "graded", "--height", "4"],
                 ["oracle", "run", "representatives", "--q", "2",
                  "--height", "2"]):
        plain, optimized = [
            subprocess.run([sys.executable] + flags + ["-m", "sphvar.cli"] + argv,
                           capture_output=True, env=env, timeout=60)
            for flags in ([], ["-O"])]
        assert plain.returncode == 0 and plain.stdout, argv
        assert (optimized.returncode, optimized.stdout, optimized.stderr) == \
            (plain.returncode, plain.stdout, plain.stderr), argv


@pytest.mark.parametrize("unbuffered", ("1", ""))
@pytest.mark.parametrize("argv", (["catalog", "list"],
                                  ["catalog", "show", "pp-gl3"]), ids=" ".join)
def test_closed_stdout_exits_141_in_silence(argv, unbuffered):
    # the read end is closed before the child writes, so its first write
    # (unbuffered) or its flush (buffered) meets a broken pipe
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered)
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run([sys.executable, "-m", "sphvar.cli"] + argv,
                              stdout=w, stderr=subprocess.PIPE, env=env,
                              timeout=60)
    finally:
        os.close(w)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_height_too_large_for_memory_is_bad_input():
    # the address-space limit applies to the child only; the Newton powers
    # of the dual radical then cannot allocate their 10^11 graded slots
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "sphvar.cli", "catalog", "test", "pp-gl3",
         "--height", "100000000000"], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), preexec_fn=limit, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr == "error: out of memory\n"


def test_parse_document_reports_inconsistency():
    doc = render_document(load("a2-sl2").datum)
    doc["rank"] = 2
    with pytest.raises(InputError):
        parse_document(doc)


# ---------------------------------------------------------------------------
# describe / check / orbits

def test_describe_fields(tmp_path, capsys):
    code, out, _ = run(capsys, ["describe", doc_path(tmp_path, "a2-sl2")])
    assert code == 0
    fields = dict(line.split("\t") for line in out.strip().splitlines())
    assert fields["name"] == "a2-sl2"
    assert fields["ambient"] == "t1xsl2"
    assert fields["rank"] == "1"
    assert fields["wavefront"] == "true"
    assert fields["arithmetic-multiplicity"] == "1"
    assert fields["parabolic-induction"] == "B"
    assert fields["integral-strata-h2"] == "0 1 2"


def test_check_pass_and_fail_codes(tmp_path, capsys):
    ok = doc_path(tmp_path, "a2-sl2")
    assert run(capsys, ["check", ok, "--which", "colored-cone"])[0] == 0
    assert run(capsys, ["check", ok, "--which", "affine"])[0] == 0
    assert run(capsys, ["check", ok, "--which", "wavefront"])[0] == 0
    assert run(capsys, ["check", ok, "--which", "induced"])[0] == 0
    assert run(capsys, ["check", ok, "--which", "negligible"])[0] == 0
    bad = doc_path(tmp_path, "a2-sl2-nocenter")
    code, out, _ = run(capsys, ["check", bad, "--which", "wavefront"])
    assert code == 1
    assert "fail" in out


# the witness character chi of `check --which affine` on every catalog entry
AFFINE_WITNESSES = {
    "a1-gl1": "0", "a2-sl2": "0", "a2-sl2-nocenter": "0", "borel-gl2": "0,0",
    "borel-sl3": "0,0", "pp-gl3": "0,0", "hecke-gl2": "0,-1",
    "pgl2-group": "-1", "godement-jacquet-2": "0,0",
    "godement-jacquet-3": "0,0,0", "rankin-selberg": "0,0,0,0,0",
    "bump-friedberg": "-1,-1", "triple-product": "0,0,0,0,0",
    "siegel-gsp6": "0,0", "tensor-4": "0,0,0,0,0,0", "kvs-1-15": "0,0",
    "kvs-2-3": "0,0,0", "kvs-2-5": "0,0",
}


@pytest.mark.parametrize("key", ALL_KEYS)
def test_check_affine_witness(tmp_path, capsys, key):
    code, out, err = run(capsys, ["check", doc_path(tmp_path, key),
                                  "--which", "affine"])
    assert (code, out, err) == (0, "affine\tpass\t%s\n" % AFFINE_WITNESSES[key], "")


def test_check_affine_failure(tmp_path, capsys):
    # on the ray V = cone(-1) with C = V and D outside F, chi >= 0 on V,
    # chi = 0 on C and <chi, rho(D)> < 0 cannot all hold
    doc = {"schema": 1, "name": "sl2-nonaffine",
           "group": {"type": "SL", "rank": 2}, "rank": 1,
           "lattice_map": [[1]], "valuation_cone": {"generators": [[-1]]},
           "colors": [{"label": "D", "rho": [1]}], "levi_roots": [],
           "spherical_roots": [], "little_weyl": None,
           "colored_cone": {"generators": [[-1]], "colors": []}}
    p = tmp_path / "sl2-nonaffine.json"
    p.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["check", str(p), "--which", "affine"])
    assert (code, out, err) == (1, "affine\tfail\t-\n", "")


def test_check_negligible_hypothesis_is_input_error(tmp_path, capsys):
    bad = doc_path(tmp_path, "a2-sl2-nocenter")
    code, _, err = run(capsys, ["check", bad, "--which", "negligible"])
    assert code == 2
    assert "hypothesis not met" in err


def test_orbits_integral_window(tmp_path, capsys):
    p = doc_path(tmp_path, "a2-sl2")
    code, out, _ = run(capsys, ["orbits", p, "--height", "3", "--integral"])
    assert code == 0
    assert out.split() == ["0", "1", "2", "3"]
    code, out, _ = run(capsys, ["orbits", p, "--height", "2"])
    assert code == 0
    assert out.split() == ["-2", "-1", "0", "1", "2"]


def test_orbits_integral_needs_colored_cone(tmp_path, capsys):
    p = doc_path(tmp_path, "a2-sl2", colored_cone=None)
    code, _, err = run(capsys, ["orbits", p, "--height", "2", "--integral"])
    assert code == 2
    assert "colored cone" in err


# ---------------------------------------------------------------------------
# basicfn

TABLE_CASES = (
    ("a2-sl2", "borel"), ("a2-sl2", "pp"), ("borel-gl2", "borel"),
    ("borel-sl3", "borel"), ("borel-sl3", "pp"), ("pp-gl3", "pp"),
    ("siegel-gsp6", "pp"),
)


@pytest.mark.parametrize("key,case", TABLE_CASES)
def test_basicfn_matches_catalog_tables(tmp_path, capsys, key, case):
    p = doc_path(tmp_path, key)
    code, out, _ = run(capsys, ["basicfn", p, "--case", case,
                                "--height", "4"])
    assert code == 0
    got = {}
    for line in out.strip().splitlines():
        label, _, value = line.partition("\t")
        got[tuple(int(x) for x in label.split(","))] = value
    want = {l: str(v) for l, v in basic_table(key, 4).values}
    assert got == want


def test_basicfn_borel_needs_square_labels(tmp_path, capsys):
    p = doc_path(tmp_path, "pp-gl3")
    code, _, err = run(capsys, ["basicfn", p, "--case", "borel",
                                "--height", "2"])
    assert code == 2
    assert "square" in err


def test_basicfn_requires_horospherical(tmp_path, capsys):
    for key in ("hecke-gl2", "tensor-4"):
        p = doc_path(tmp_path, key)
        code, _, err = run(capsys, ["basicfn", p, "--case", "pp",
                                    "--height", "2"])
        assert code == 2
        assert "horospherical" in err


def test_basicfn_requires_colored_cone(tmp_path, capsys):
    p = doc_path(tmp_path, "a2-sl2", colored_cone=None)
    code, _, err = run(capsys, ["basicfn", p, "--case", "borel",
                                "--height", "2"])
    assert code == 2
    assert "colored cone" in err


def test_basicfn_specializes_q(tmp_path, capsys):
    p = doc_path(tmp_path, "borel-sl3")
    code, out, _ = run(capsys, ["basicfn", p, "--case", "borel",
                                "--height", "2", "--q", "2"])
    assert code == 0
    rows = dict(line.split("\t") for line in out.strip().splitlines())
    assert rows["0,0"] == "1"
    assert rows["1,1"] == "3"


def test_basicfn_env_default_q(tmp_path, capsys, monkeypatch):
    p = doc_path(tmp_path, "borel-sl3")
    monkeypatch.setenv("SPH_Q_DEFAULT", "2")
    code, out, _ = run(capsys, ["basicfn", p, "--case", "borel",
                                "--height", "2"])
    assert code == 0
    assert dict(line.split("\t") for line in out.strip().splitlines())[
        "1,1"] == "3"
    code, out, _ = run(capsys, ["basicfn", p, "--case", "borel",
                                "--height", "2", "--q", "sym"])
    assert code == 0
    assert dict(line.split("\t") for line in out.strip().splitlines())[
        "1,1"] == "q + 1"


def test_basicfn_rejects_bad_q(tmp_path, capsys):
    p = doc_path(tmp_path, "a2-sl2")
    for q in ("0", "-3", "x"):
        code, _, err = run(capsys, ["basicfn", p, "--case", "borel",
                                    "--height", "2", "--q", q])
        assert code == 2
        assert "--q" in err


@pytest.mark.parametrize("value", ["1e99999999", "1E-99999999", "2.5e+4301",
                                   "1e-4_301"])
def test_huge_decimal_exponents_are_refused_at_once(tmp_path, capsys,
                                                    monkeypatch, value):
    # Fraction would raise 10 to the exponent first
    p = doc_path(tmp_path, "pp-gl3")
    why = ": its decimal exponent is larger than 4300\n"
    start = time.perf_counter()
    basicfn = ["basicfn", p, "--case", "pp", "--height", "1"]
    assert run(capsys, basicfn + ["--q", value]) == (
        2, "", "error: --q must be 'sym' or a rational, got %r" % value + why)
    monkeypatch.setenv("SPH_Q_DEFAULT", value)
    assert run(capsys, basicfn) == (
        2, "", "error: --q must be 'sym' or a rational, got %r" % value + why)
    monkeypatch.delenv("SPH_Q_DEFAULT")
    assert run(capsys, ["lf", p, "--rep", "u_P",
                        "--point", "t1=%s,t2=1,t3=1" % value]) == (
        2, "", "error: bad coordinate value %r" % value + why)
    assert time.perf_counter() - start < 5


def test_decimal_rationals_read_as_before(tmp_path, capsys):
    p = doc_path(tmp_path, "pp-gl3")
    basicfn = ["basicfn", p, "--case", "pp", "--height", "2", "--q"]
    for value, same in (("1e3", "1000"), ("1e-3", "1/1000"),
                        ("2.5E+1_0", "25000000000")):
        assert run(capsys, basicfn + [value]) == run(capsys, basicfn + [same])
    # exponents up to the bound, either way, are taken
    for value in ("1e4300", "1e-4_300"):
        assert run(capsys, basicfn + [value])[0] == 0
    lf = ["lf", p, "--rep", "u_P", "--point"]
    assert run(capsys, lf + ["t1=2.5,t2=1e1,t3=3"]) == \
        run(capsys, lf + ["t1=5/2,t2=10,t3=3"])


def test_basicfn_json_schema(tmp_path, capsys):
    p = doc_path(tmp_path, "a2-sl2")
    code, out, _ = run(capsys, ["basicfn", p, "--case", "borel",
                                "--height", "2", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["datum"] == "a2-sl2"
    assert doc["q"] == "sym"
    assert doc["height"] == 2
    assert {tuple(r["label"]): r["value"] for r in doc["rows"]} == {
        l: str(v) for l, v in basic_table("a2-sl2", 2).values}


def test_basicfn_graded_rows(tmp_path, capsys):
    p = doc_path(tmp_path, "pp-gl3")
    code, out, _ = run(capsys, ["basicfn", p, "--case", "graded",
                                "--height", "2"])
    assert code == 0
    lines = [line.split("\t") for line in out.strip().splitlines()]
    assert lines[0] == ["0", "0,0,0", "1"]
    assert lines[1] == ["1", "1,0,-1", "1"]
    assert lines[2] == ["2", "2,0,-2", "1"]
    code, _, err = run(capsys, ["basicfn", p, "--case", "graded",
                                "--height", "-1"])
    assert code == 2
    assert "degree bound" in err


def test_basicfn_graded_refuses_json(tmp_path, capsys):
    p = doc_path(tmp_path, "borel-sl3")
    code, out, err = run(capsys, ["basicfn", p, "--case", "graded",
                                  "--height", "2", "--json"])
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        "error: --json is not supported with --case graded"]


def test_basicfn_graded_refuses_q(tmp_path, capsys):
    p = doc_path(tmp_path, "borel-sl3")
    code, out, err = run(capsys, ["basicfn", p, "--case", "graded",
                                  "--height", "2", "--q", "2"])
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        "error: --q is not supported with --case graded"]


def test_basicfn_graded_does_not_read_the_q_default(tmp_path, capsys,
                                                    monkeypatch):
    p = doc_path(tmp_path, "borel-sl3")
    argv = ["basicfn", p, "--case", "graded", "--height", "2"]
    want = run(capsys, argv)
    assert want[0] == 0 and want[1]
    monkeypatch.setenv("SPH_Q_DEFAULT", "not-a-q")
    assert run(capsys, argv) == want


def test_basicfn_pp_rejects_negative_height(tmp_path, capsys):
    p = doc_path(tmp_path, "borel-sl3")
    code, out, err = run(capsys, ["basicfn", p, "--case", "pp",
                                  "--height", "-1"])
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: height must be >= 0"]


# ---------------------------------------------------------------------------
# lf

def test_lf_monomials_and_fixed_line(tmp_path, capsys):
    p = doc_path(tmp_path, "pp-gl3")
    point = "t1=2,t2=3,t3=5"
    code, out, _ = run(capsys, ["lf", p, "--rep", "u_P", "--point", point])
    assert code == 0
    rows = [line.split("\t") for line in out.strip().splitlines()]
    assert rows == [["monomial", "2/3", "-1/2"], ["monomial", "2/3", "1/2"]]
    code, out, _ = run(capsys, ["lf", p, "--rep", "u_P_f", "--point", point])
    assert code == 0
    rows = [line.split("\t") for line in out.strip().splitlines()]
    assert rows == [["monomial", "2/3", "-1/2"]]


def test_lf_expand_is_geometric_for_borel_gl2(tmp_path, capsys):
    p = doc_path(tmp_path, "borel-gl2")
    code, out, _ = run(capsys, ["lf", p, "--rep", "u_P",
                                "--point", "t1=3,t2=1",
                                "--expand", "3", "--q", "4"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "monomial\t3\t0"
    series = [line.split("\t") for line in lines if line.startswith("T^")]
    # single weight line 1/(1 - (t1/t2) T), geometric in t1/t2 = 3
    assert series == [["T^0", "1"], ["T^1", "3"], ["T^2", "9"],
                      ["T^3", "27"]]


def test_lf_input_errors(tmp_path, capsys):
    p = doc_path(tmp_path, "pp-gl3")
    code, _, err = run(capsys, ["lf", p, "--rep", "u_P", "--point", "t1=2"])
    assert code == 2
    assert "missing coordinate" in err
    code, _, err = run(capsys, ["lf", p, "--rep", "u_P",
                                "--point", "t1=2,t2=0,t3=1"])
    assert code == 2
    assert "zero coordinate" in err
    code, _, err = run(capsys, ["lf", p, "--rep", "u_P", "--point", "t1"])
    assert code == 2
    # --expand and --q fail before any monomial line is printed
    code, out, err = run(capsys, ["lf", p, "--rep", "u_P",
                                  "--point", "t1=2,t2=3,t3=5", "--expand", "2"])
    assert (code, out) == (2, "")
    assert err == "error: --expand needs a numeric --q\n"
    code, _, err = run(capsys, ["lf", doc_path(tmp_path, "tensor-4"),
                                "--rep", "u_P"])
    assert code == 2
    assert "horospherical" in err
    for kappa in ("0", "3"):
        code, out, err = run(capsys, ["lf", p, "--rep", "u_P",
                                      "--point", "t1=2,t2=3", "--kappa", kappa])
        assert (code, out) == (2, "")
        assert err == "error: kappa must be +1 or -1\n"
    code, out, err = run(capsys, ["lf", p, "--rep", "u_P", "--point", "t1=2,t2=3",
                                  "--expand", "-2", "--q", "4"])
    assert (code, out) == (2, "")
    assert err == "error: expansion bound must be >= 0\n"
    # a ValueError from the library, not an InputError, is bad input too
    code, out, err = run(capsys, ["lf", p, "--rep", "u_P", "--point", "t1=2,t2=3",
                                  "--expand", "2", "--q", "2"])
    assert (code, out) == (2, "")
    assert err == "error: specializing a half-integral power needs a square q\n"


# ---------------------------------------------------------------------------
# catalog

def test_catalog_list(capsys):
    code, out, _ = run(capsys, ["catalog", "list"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == len(ALL_KEYS)
    keys = [line.split("\t")[0] for line in lines]
    assert tuple(keys) == ALL_KEYS


def test_catalog_show_fields(capsys):
    code, out, _ = run(capsys, ["catalog", "show", "godement-jacquet-2"])
    assert code == 0
    fields = dict(line.split("\t") for line in out.strip().splitlines())
    assert fields["case"] == "vector-space"
    assert fields["reductive-stabilizer"] == "true"
    assert fields["l-value"] == "std@1/2"
    code, out, _ = run(capsys, ["catalog", "show", "tensor-4"])
    fields = dict(line.split("\t") for line in out.strip().splitlines())
    assert fields["routes"] == "-"
    assert fields["l-value"].endswith("(conjectural)")


@pytest.mark.parametrize("key", ALL_KEYS)
def test_catalog_show_json_round_trips(capsys, key):
    code, out, _ = run(capsys, ["catalog", "show", key, "--json"])
    assert code == 0
    assert parse_document(json.loads(out)) == load(key).datum
    # W_X is derived, so no document states it
    assert json.loads(out)["little_weyl"] is None


@pytest.mark.parametrize("key", ("a2-sl2", "pp-gl3", "triple-product",
                                 "godement-jacquet-2"))
def test_catalog_test_passes(capsys, key):
    code, out, _ = run(capsys, ["catalog", "test", key, "--height", "3"])
    assert code == 0
    statuses = {line.split("\t")[0]: line.split("\t")[1]
                for line in out.strip().splitlines()}
    assert "fail" not in statuses.values()
    assert statuses["colored-cone"] == "pass"
    if key == "triple-product":
        assert statuses["transport-cones"] == "pass"


def test_catalog_test_skips_negligible_without_hypothesis(capsys):
    code, out, _ = run(capsys, ["catalog", "test", "a2-sl2-nocenter"])
    assert code == 0
    rows = {line.split("\t")[0]: line.split("\t")[1]
            for line in out.strip().splitlines()}
    assert rows["negligible"] == "skip"


def test_catalog_test_skips_table_without_route(capsys):
    code, out, _ = run(capsys, ["catalog", "test", "tensor-4"])
    assert code == 0
    rows = {line.split("\t")[0]: line.split("\t")[1]
            for line in out.strip().splitlines()}
    assert rows["table"] == "skip"


def test_only_oracle_runs_import_the_oracle():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = ("import contextlib, io, sys, sphvar.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    rc = sphvar.cli.main(['catalog', 'show', 'hecke-gl2'])\n"
            "before = 'sphvar.oracle' in sys.modules\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    sphvar.cli.main(['oracle', 'run', 'gj-recursion', '--q', '2',"
            " '--height', '1'])\n"
            "print(rc, before, 'sphvar.oracle' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 False True\n"


def test_catalog_bad_requests(capsys):
    assert run(capsys, ["catalog", "show", "nope"])[0] == 2
    assert run(capsys, ["catalog", "show"])[0] == 2
    assert run(capsys, ["catalog", "test"])[0] == 2
    assert run(capsys, ["catalog", "list", "pp-gl3"]) == (
        2, "", "error: catalog list takes no key\n")
    for key in ("borel-sl3", "hecke-gl2", "tensor-4"):
        code, out, err = run(capsys, ["catalog", "test", key, "--height", "-1"])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# oracle

def test_oracle_runs_pass(capsys):
    fast = (
        ["oracle", "run", "gj-recursion", "--q", "2", "--height", "2"],
        ["oracle", "run", "representatives", "--q", "2", "--height", "2"],
        ["oracle", "run", "orbit-invariance", "--q", "2", "--height", "1",
         "--trials", "4"],
        ["oracle", "run", "satake-ppgl3", "--q", "2", "--height", "1"],
    )
    for argv in fast:
        code, out, _ = run(capsys, argv)
        assert code == 0, argv
        assert "fail" not in out


@pytest.mark.parametrize("argv, want", [
    (["interpolation"], "interpolation\tq=2,3,5,7\tpass\n"),
    (["satake-ppgl3", "--q", "2,3", "--height", "2"],
     "".join("satake-ppgl3\tq=%d op=%s\tpass\n" % (q, op) for q in (2, 3)
             for op in ("unit", "t1", "wedge", "central"))),
    (["satake-ugl2", "--q", "2", "--height", "2"],
     "".join("satake-ugl2\tq=2 op=%s\tpass\n" % op
             for op in ("unit", "t1", "central"))),
    (["orbit-invariance", "--q", "2,3", "--height", "2", "--trials", "20"],
     "orbit-invariance\tq=2\tpass\norbit-invariance\tq=3\tpass\n")],
    ids=["interpolation", "satake-ppgl3", "satake-ugl2", "orbit-invariance"])
def test_oracle_output_bytes(capsys, argv, want):
    assert run(capsys, ["oracle", "run"] + argv) == (0, want, "")


def test_oracle_bad_requests(capsys):
    code, _, err = run(capsys, ["oracle", "run", "nope"])
    assert code == 2
    assert "available" in err
    assert run(capsys, ["oracle", "run", "gj-recursion", "--q", "4"])[0] == 2
    assert run(capsys, ["oracle", "run", "gj-recursion", "--q", "x"])[0] == 2
    assert run(capsys, ["oracle", "run", "gj-recursion", "--q", "2",
                        "--height", "-1"])[0] == 2
    for q in ("1", "49", "121", "3000000021"):  # 3 * 1000000007
        code, _, err = run(capsys, ["oracle", "run", "gj-recursion", "--q", q])
        assert code == 2
        assert err == "error: --q entries must be primes, got %s\n" % q
    for trials in ("0", "-5"):
        assert run(capsys, ["oracle", "run", "orbit-invariance", "--q", "2",
                            "--trials", trials]) == \
            (2, "", "error: --trials must be >= 1\n")
    # the bound is the least strong pseudoprime to all thirteen witnesses,
    # so it and every q past it are refused
    bound = cli.PRIME_BOUND
    assert cli._is_prime(bound)
    for q in (bound, bound + 2, 10 ** 30):
        assert run(capsys, ["oracle", "run", "representatives", "--q", str(q),
                            "--height", "0"]) == (
            2, "", "error: --q entries must be below %d, got %d\n"
            % (bound, q))


def test_oracle_prime_check_is_fast(capsys):
    # Miller-Rabin on thirteen witnesses, no trial division
    start = time.perf_counter()
    code, out, _ = run(capsys, ["oracle", "run", "representatives",
                                "--q", "1000000007", "--height", "0"])
    assert time.perf_counter() - start < 5
    assert code == 0 and out.startswith("representatives\tq=1000000007\tpass")
    # a prime near 10^18, then (10^9 + 7)(10^9 + 9)
    prime, composite = "1000000000000000003", "1000000016000000063"
    for q, want in (
            (prime, (0, "representatives\tq=%s\tpass\n" % prime, "")),
            (composite, (2, "", "error: --q entries must be primes, got %s\n"
                         % composite))):
        start = time.perf_counter()
        assert run(capsys, ["oracle", "run", "representatives", "--q", q,
                            "--height", "0"]) == want
        assert time.perf_counter() - start < 1


def test_miller_rabin_matches_sympy():
    sympy = pytest.importorskip("sympy")
    # the least strong pseudoprimes to the first 4, 8, 11 and 12 prime bases
    pseudo = [3215031751, 341550071728321, 3825123056546413051,
              318665857834031151167461]
    rng = random.Random(25)
    ns = (list(range(-2, 3000)) + pseudo
          + [rng.randrange(cli.PRIME_BOUND) for _ in range(2000)])
    assert [cli._is_prime(n) for n in ns] == [sympy.isprime(n) for n in ns]


@pytest.mark.parametrize("check, group, count", [
    ("gj-recursion", "GL2 t1", 1000000008),
    ("satake-ugl2", "GL2 t1", 1000000008),
    ("satake-ppgl3", "GL3 t1", 1000000015000000057)])
def test_oracle_refuses_huge_coset_lists(capsys, check, group, count):
    start = time.perf_counter()
    code, out, err = run(capsys, ["oracle", "run", check,
                                  "--q", "1000000007"])
    assert time.perf_counter() - start < 5
    assert code == 2 and out == ""
    assert err == ("error: %s has %d cosets at p = 1000000007; at most 5000 "
                   "are enumerated\n" % (group, count))


@pytest.mark.parametrize("check", ["representatives", "orbit-invariance"])
def test_oracle_checks_without_cosets_take_huge_primes(capsys, check):
    code, out, _ = run(capsys, ["oracle", "run", check, "--q", "1000000007",
                                "--height", "1", "--trials", "20"])
    assert code == 0 and out == "%s\tq=1000000007\tpass\n" % check


# ---------------------------------------------------------------------------
# plumbing

def test_missing_and_malformed_files(tmp_path, capsys):
    code, _, err = run(capsys, ["describe", str(tmp_path / "absent.json")])
    assert code == 2
    assert "cannot read" in err
    p = tmp_path / "mangled.json"
    p.write_text("{not json")
    code, _, err = run(capsys, ["describe", str(p)])
    assert code == 2
    assert "not JSON" in err
    p = tmp_path / "wrong.json"
    p.write_text(json.dumps({"schema": 7}))
    code, _, err = run(capsys, ["describe", str(p)])
    assert code == 2
    assert "schema" in err
