import hashlib
import json
import os
import re
import subprocess
import sys
import time

import pytest

import skewlat
from skewlat import __version__, cli, matrix_rings
from skewlat.catalog import canonical, nc5
from skewlat.cli import main
from skewlat.core import SkewLattice, chain, direct_product, rectangular, to_json


@pytest.fixture()
def nc5_file(tmp_path):
    path = tmp_path / "nc5.json"
    path.write_text(to_json(nc5("right"), names=["v", "x1", "x2", "y", "u"]))
    return str(path)


@pytest.fixture()
def broken_file(tmp_path):
    s = chain(2)
    d = json.loads(to_json(s))
    d["join"][0][1] = 0  # breaks absorption
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(d))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys, nc5_file):
    code, out, err = run(capsys, "validate", nc5_file)
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_module_entry_point_matches_main(capsys, nc5_file):
    # `python -m skewlat.cli` runs main through the module's __main__ guard
    src = os.path.dirname(os.path.dirname(os.path.abspath(skewlat.__file__)))
    done = subprocess.run(
        [sys.executable, "-m", "skewlat.cli", "validate", nc5_file],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    code, out, _ = run(capsys, "validate", nc5_file)
    assert done.returncode == code == 0
    assert done.stdout == out


def test_validate_failure_exit_1(capsys, broken_file):
    code, out, _ = run(capsys, "validate", broken_file)
    assert code == 1
    rep = json.loads(out)
    assert rep["valid"] is False and rep["failures"]


def test_malformed_json_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "not valid JSON" in err


def test_undecodable_file_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert "not valid JSON" in err and err.count("\n") == 1


def test_missing_file_exit_2(capsys):
    code, _, _ = run(capsys, "validate", "/nonexistent/x.json")
    assert code == 2


def test_classify_with_assert(capsys, nc5_file):
    code, out, _ = run(
        capsys, "classify", nc5_file, "--assert", "quasi-distributive"
    )
    assert code == 0
    code, _, _ = run(capsys, "classify", nc5_file, "--assert", "cancellative")
    assert code == 1
    code, _, _ = run(capsys, "classify", nc5_file, "--assert", "no-such")
    assert code == 2


def test_classify_unknown_assert_exits_2_before_any_output(capsys, nc5_file):
    code, out, err = run(capsys, "classify", nc5_file, "--assert", "nosuch")
    assert (code, out) == (2, "")
    assert "nosuch" in err


def test_classify_asserts_a_predicate_it_does_not_print(capsys, nc5_file):
    for asserted, expected in (("symmetric", 0), ("cancellative", 1)):
        code, out, _ = run(
            capsys, "classify", nc5_file,
            "--predicates", "right-handed", "--assert", asserted,
        )
        assert code == expected
        assert set(json.loads(out)) == {"right-handed"}


def test_classify_subset(capsys, nc5_file):
    code, out, _ = run(
        capsys, "classify", nc5_file, "--predicates", "right-handed,symmetric"
    )
    assert code == 0
    d = json.loads(out)
    assert set(d) == {"right-handed", "symmetric"}
    assert d["right-handed"]["holds"]


def test_greens_output(capsys, nc5_file):
    code, out, _ = run(capsys, "greens", nc5_file)
    assert code == 0
    d = json.loads(out)
    assert len(d["eggboxes"]) == 4
    assert d["D"] == [[0], [1, 2], [3], [4]]


def test_cosets_output(capsys, nc5_file):
    code, out, _ = run(capsys, "cosets", nc5_file)
    assert code == 0
    assert len(json.loads(out)) == 5  # comparable D-class pairs


def test_decompose_output(capsys, nc5_file):
    code, out, _ = run(capsys, "decompose", nc5_file)
    assert code == 0
    d = json.loads(out)
    assert d["kimura"]["fibered"]["n"] == 5


def test_enumerate_counts(capsys):
    code, out, _ = run(capsys, "enumerate", "--order", "2")
    assert code == 0
    assert json.loads(out)["count"] == 3


@pytest.mark.parametrize("order", ["2", "3"])
def test_enumerate_oracle_agrees(capsys, order):
    _, out_a, _ = run(capsys, "enumerate", "--order", order)
    _, out_b, _ = run(capsys, "enumerate", "--order", order, "--oracle")
    a, b = json.loads(out_a), json.loads(out_b)
    assert a["algebras"] == b["algebras"]
    assert a["provenance"] != b["provenance"]


def test_enumerate_worker_determinism(capsys):
    _, out_a, _ = run(capsys, "enumerate", "--order", "3", "--workers", "1")
    _, out_b, _ = run(capsys, "enumerate", "--order", "3", "--workers", "4")
    assert out_a == out_b


@pytest.mark.parametrize("cpus, sizes", [(3, [2, 3, 3]), (None, [])])
def test_worker_pools_are_bounded(capsys, monkeypatch, nc5_file, cpus, sizes):
    # a pool never has more processes than the host has CPUs or than there
    # are tasks, and one worker runs serially.  The pool here is a fake
    # that records its size and maps in-process: no process is started
    import multiprocessing

    started = []

    class RecordingPool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap_unordered(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.delenv("SKEWLAT_CACHE_DIR", raising=False)
    # order 2 has 2 row-0 prefixes, order 3 has 9, and verify --order 2
    # has 4 algebras; order 1 and one file are a single task
    for argv in (
        ["verify", "--order", "2"],
        ["enumerate", "--order", "3"],
        ["verify", nc5_file],
    ):
        _, serial, _ = run(capsys, *argv, "--workers", "1")
        _, pooled, _ = run(capsys, *argv, "--workers", "100000")
        assert pooled == serial
    assert started == sizes


def test_matrix_command(capsys):
    code, out, _ = run(capsys, "matrix", "--p", "3", "--sweep")
    assert code == 0
    d = json.loads(out)
    assert d["coset_report"]["verdict"] == "concordant"
    assert len(d["model"]["matrices"]) == 18


@pytest.mark.parametrize(
    "construction, build",
    [
        ("right", matrix_rings.primitive_right_handed),
        ("left", matrix_rings.primitive_left_handed),
    ],
)
def test_matrix_parses_parameter_pairs(capsys, construction, build):
    code, out, _ = run(
        capsys,
        "matrix",
        "--p",
        "3",
        "--construction",
        construction,
        "--a-params",
        "1,2",
        "--b-params",
        "0,1",
    )
    assert code == 0
    block = lambda v: ((v,),)
    direct = build(3, (1, 1, 1), [(block(1), block(2))], [(block(0), block(1))])
    assert json.loads(out)["model"]["matrices"] == direct.to_json_dict()["matrices"]


def test_verify_files(capsys, nc5_file):
    code, out, _ = run(capsys, "verify", nc5_file)
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 7
    assert all(r["verdict"] == "concordant" for r in reports)


def test_verify_law_subset(capsys, nc5_file):
    code, out, _ = run(capsys, "verify", nc5_file, "--laws", "symmetry")
    assert code == 0
    assert [r["law"] for r in json.loads(out)] == ["symmetry-coset-laws"]


def test_verify_catalog_matches_verify_order(capsys, tmp_path, monkeypatch):
    # a catalog written by `enumerate --out` verifies as the same algebras
    # that `verify --order` enumerates, under catalog labels
    monkeypatch.delenv("SKEWLAT_CACHE_DIR", raising=False)
    directory = str(tmp_path / "cat3")
    code, _, _ = run(capsys, "enumerate", "--order", "3", "--out", directory)
    assert code == 0
    code, out, _ = run(capsys, "verify", "--catalog", directory)
    assert code == 0
    from_catalog = json.loads(out)
    code, out, _ = run(capsys, "verify", "--order", "3")
    assert code == 0
    from_order = [r for r in json.loads(out) if r["algebra"].startswith("order3-")]
    labels = sorted({r["algebra"] for r in from_catalog})
    assert labels == [f"catalog-order3-{i:04d}" for i in range(7)]
    unlabelled = lambda reports: [dict(r, algebra=None) for r in reports]
    assert unlabelled(from_catalog) == unlabelled(from_order)


def test_verify_discordant_file_exit_1(capsys, tmp_path):
    # o3.1 x o2.0, an order-6 algebra whose cancellation laws come out
    # discordant; each discordant report gets one stderr line
    from skewlat.catalog import enumerate_catalog
    from skewlat.core import direct_product

    s = direct_product(
        enumerate_catalog(3).algebras[1], enumerate_catalog(2).algebras[0]
    )
    path = tmp_path / "o3.1xo2.0.json"
    path.write_text(to_json(s))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1
    discordant = [r for r in json.loads(out) if r["verdict"] == "discordant"]
    assert [r["law"] for r in discordant] == ["cancellation-coset-laws"]
    assert f"  discordant: {path} / cancellation-coset-laws: " in err


def test_internal_inconsistency_exit_3(capsys, monkeypatch):
    from skewlat.errors import InternalInconsistency

    def broken(*args, **kwargs):
        raise InternalInconsistency("self-check failed")

    monkeypatch.delenv("SKEWLAT_CACHE_DIR", raising=False)
    monkeypatch.setattr(cli._catalog, "enumerate_catalog", broken)
    code, out, err = run(capsys, "enumerate", "--order", "2")
    assert code == 3
    assert out == ""
    assert err == "internal inconsistency: self-check failed\n"


def test_wrong_coset_comprehension_exit_3(capsys, monkeypatch, tmp_path):
    # every right-join coset of the lower class is that whole class, so
    # the cosets do not partition the upper class
    from skewlat import cosets

    monkeypatch.setattr(cosets, "right_coset_join", lambda s, C, x: frozenset(C))
    path = tmp_path / "r31xc2.json"
    path.write_text(to_json(direct_product(rectangular(3, 1), chain(2))))
    code, out, err = run(capsys, "cosets", str(path))
    assert code == 3
    assert out == ""
    assert err == "internal inconsistency: coset blocks do not partition\n"


def test_wrong_coset_comprehension_is_a_discordant_coset_structure(
    capsys, monkeypatch, tmp_path
):
    # the same wrong comprehension under verify: the coset-structure family
    # reports it as a finding, with its witness, not as exit 3.  The least
    # failing instance is delta_x on the join side of pair 0 at x = 1: its
    # full coset {1, 3, 5} cannot map onto C v 1 times 1 v C = {1, 3, 5}
    # times {1}, since C v 1 is now all of C = {0, 2, 4}
    from skewlat import cosets

    monkeypatch.setattr(cosets, "right_coset_join", lambda s, C, x: frozenset(C))
    path = tmp_path / "r31xc2.json"
    path.write_text(to_json(direct_product(rectangular(3, 1), chain(2))))
    code, out, err = run(capsys, "verify", str(path), "--laws", "coset-structure")
    assert code == 1
    (report,) = json.loads(out)
    assert report["law"] == "coset-structure-laws"
    assert report["verdict"] == "discordant"
    witness = {
        "instance": ["delta-bijective-onto-flat-product", 0, "join", 1],
        "lhs": True,
        "rhs": False,
    }
    assert report["witness"] == witness
    assert f"discordant: {path} / coset-structure-laws: {witness}" in err
    assert "internal inconsistency" not in err


def test_wrong_relation_is_a_discordant_center(capsys, monkeypatch, tmp_path):
    # the center family read with L in place of R: in r12 x c2 the R-class
    # of 0 is {0, 2}, but L's class of 0 is {0}, so 0 passes for right
    # central.  (ii) then fails at b = 2: 2 v 0 = 2 and 0 v 2 v 0 = 0.
    # The witness is that least failing a, as a finding, not as exit 3
    from skewlat import greens, laws

    monkeypatch.setattr(laws, "green_R", greens.green_L)
    path = tmp_path / "r12xc2.json"
    path.write_text(to_json(direct_product(rectangular(1, 2), chain(2))))
    code, out, err = run(capsys, "verify", str(path), "--laws", "center")
    assert code == 1
    (report,) = json.loads(out)
    assert report["law"] == "center-laws"
    witness = {"instance": ["right-center-ii", 0], "lhs": True, "rhs": False}
    assert report["witness"] == witness
    assert f"discordant: {path} / center-laws: {witness}" in err
    assert "internal inconsistency" not in err


def test_verify_unknown_law(capsys, nc5_file):
    code, _, _ = run(capsys, "verify", nc5_file, "--laws", "nope")
    assert code == 2


def test_verify_nothing_to_do(capsys):
    code, _, _ = run(capsys, "verify")
    assert code == 2


def test_export_json_round_trip(capsys, nc5_file, tmp_path):
    code, out, _ = run(capsys, "export", nc5_file, "--format", "json")
    assert code == 0
    assert out == open(nc5_file).read()


def test_export_dot(capsys, tmp_path):
    path = tmp_path / "rect.json"
    path.write_text(to_json(rectangular(2, 2)))
    code, out, _ = run(capsys, "export", str(path), "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")
    assert out.count("subgraph cluster_") == 1


# a DOT node statement whose label is one quoted string: no unescaped
# quote and no raw newline inside it
_DOT_NODE = re.compile(r'    e(\d+) \[label="((?:[^"\\\n]|\\.)*)"\];')


def _dot_unescape(body):
    return re.sub(r"\\(.)", lambda m: "\n" if m[1] == "n" else m[1], body)


def test_export_dot_escapes_names(capsys, tmp_path):
    path = tmp_path / "chain2.json"
    names = ['a"] ; evil [x="', "b\\\nc\\"]
    path.write_text(json.dumps(dict(_CHAIN2, names=names)))
    code, out, _ = run(capsys, "export", str(path), "--format", "dot")
    assert code == 0
    labels = {}
    for line in out.splitlines():
        if line.startswith("    e") and "[label=" in line:
            m = _DOT_NODE.fullmatch(line)
            assert m, line
            labels[int(m[1])] = _dot_unescape(m[2])
    assert labels == dict(enumerate(names))
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps(_CHAIN2))
    _, unnamed, _ = run(capsys, "export", str(plain), "--format", "dot")
    assert out.count("\n") == unnamed.count("\n")


def test_cache_dir(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SKEWLAT_CACHE_DIR", str(tmp_path))
    _, out_a, _ = run(capsys, "enumerate", "--order", "2")
    slot = tmp_path / f"pruned-search-order2-v{__version__}"
    assert (slot / "index.json").exists()
    _, out_b, _ = run(capsys, "enumerate", "--order", "2")
    assert out_a == out_b


def test_cache_save_cut_short_leaves_no_index(capsys, tmp_path, monkeypatch):
    _, expected, _ = run(capsys, "enumerate", "--order", "2")
    monkeypatch.setenv("SKEWLAT_CACHE_DIR", str(tmp_path))
    dump = json.dump

    def cut_short(obj, fp, **kwargs):
        if "algebras" in obj:  # the index, written after every algebra
            fp.write('{"order"')
            raise KeyboardInterrupt
        dump(obj, fp, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(json, "dump", cut_short)
        with pytest.raises(KeyboardInterrupt):
            main(["enumerate", "--order", "2"])
    slot = tmp_path / f"pruned-search-order2-v{__version__}"
    assert not (slot / "index.json").exists()
    code, out, _ = run(capsys, "enumerate", "--order", "2")
    assert (code, out) == (0, expected)
    assert (slot / "index.json").exists()


@pytest.mark.parametrize(
    "construction, digest",
    [
        ("right", "6368c0b935268c0fa611ee74b3bce3d9a96eb5089660fd5f5fb3aaaba3ef779f"),
        ("left", "d8dcdc33486f3219aa3dbbcb732dd6b1ec206cf7eaceebf9ec8a0d1a7288e392"),
    ],
)
def test_matrix_sweep_stdout_is_pinned(capsys, construction, digest):
    # pins the closure's element numbering along with its tables, the
    # coset report and the factorizations
    code, out, _ = run(
        capsys, "matrix", "--p", "5", "--construction", construction, "--sweep"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "p, construction, digest",
    [
        (3, "right", "544c0802417b23c1f07e5520d1870e1383db28ec433d2bc7f9fa8ed99241e729"),
        (3, "left", "4761272365ab70950eef23eb732c6c904b0371f8396f30f7bbe71f285729b9cc"),
        (7, "right", "c41dfb796a8415ec98293467b85bdc871114412e6ea8a98ec90605347c2ac194"),
        (7, "left", "44ca362420a480d2fb3d453ffe23bf34f7fd3ccee21ec7eaf75289c8a9e15ea2"),
    ],
)
def test_matrix_sweep_stdout_is_pinned_at_gf3_and_gf7(capsys, p, construction, digest):
    code, out, _ = run(
        capsys, "matrix", "--p", str(p), "--construction", construction, "--sweep"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_matrix_sweep_over_the_cap_exits_before_any_pair_product(capsys, monkeypatch):
    calls = []
    kernel = matrix_rings._mul

    def counting(*args):
        calls.append(None)
        return kernel(*args)

    monkeypatch.setattr(matrix_rings, "_mul", counting)
    code, out, err = run(
        capsys, "matrix", "--p", "17", "--construction", "right", "--sweep"
    )
    assert (code, out) == (1, "")
    assert err == "error: closure exceeds 512 elements\n"
    # 580 generators, 578 of them distinct: the cap is passed while they
    # are indexed, after one idempotency test per element found
    assert len(calls) == 513


def test_main_builds_its_parser_once(capsys, nc5_file, broken_file):
    argvs = [
        ["validate", nc5_file],
        ["classify", nc5_file],
        ["enumerate"],  # --order missing: usage error
        ["matrix", "--p", "3", "--sweep"],
        ["validate", broken_file],
        ["no-such-command"],
        ["export", nc5_file, "--format", "dot"],
        ["greens", nc5_file],
    ]
    cli._parser.cache_clear()
    shared = [run(capsys, *argv) for argv in argvs]
    assert cli._parser.cache_info().misses == 1
    fresh = []
    for argv in argvs:
        cli._parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 2, 0, 1, 2, 0, 0]


def _variants(s):
    """s, its meet paired with itself, and s with one meet cell moved:
    valid, absorption-failing and (mostly) non-associative tables."""
    n = s.n
    meet = [list(r) for r in s.meet]
    join = [list(r) for r in s.join]
    moved = [list(r) for r in meet]
    moved[n - 1][0] = (moved[n - 1][0] + 1) % n
    return [(meet, join), (meet, meet), (moved, join)]


def test_validate_json_of_the_catalog_is_pinned(capsys, tmp_path, catalogs):
    # digest of every exit code and report, computed before validate's
    # scans went row at a time
    h = hashlib.sha256()
    for order, cat in sorted(catalogs.items()):
        for k, s in enumerate(cat.algebras):
            for v, (meet, join) in enumerate(_variants(s)):
                path = tmp_path / f"o{order}-{k}-{v}.json"
                path.write_text(json.dumps({"n": order, "meet": meet, "join": join}))
                code, out, _ = run(capsys, "validate", str(path))
                h.update(f"{code}\n{out}".encode())
    assert h.hexdigest() == (
        "e9aa0c7004379483700772bce7f7ca00e1eb176ddb0c0ef0e1df371afbacfe8a"
    )


_RAGGED = {"n": 2, "meet": [[0, 0], [0]], "join": [[0, 1], [1, 1]]}
_OUT_OF_RANGE = {"n": 2, "meet": [[0, 0], [0, 5]], "join": [[0, 1], [1, 1]]}
_BOOLEAN = {"n": 2, "meet": [[0, 0], [0, True]], "join": [[0, 1], [1, True]]}
_CHAIN2 = {"n": 2, "meet": [[0, 0], [0, 1]], "join": [[0, 1], [1, 1]]}
_WRONG_N = dict(_CHAIN2, n=3)
_SHORT_NAMES = dict(_CHAIN2, names=["a"])
_NON_STRING_NAMES = dict(_CHAIN2, names=["a", 3])
_INDEX_WITHOUT_ALGEBRAS = {"order": 2, "provenance": "pruned-search"}
_INDEX_WITH_TEXT_ORDER = dict(_INDEX_WITHOUT_ALGEBRAS, order="2", algebras=[])


# stands for the path of an existing regular file; a leading NAME=VALUE
# word sets an environment variable, as in a shell
_A_FILE = "<a-file>"


def _write_catalog(directory, index, files=()):
    """A saved catalog in `directory`: `index` as index.json plus each
    (name, algebra) in `files`."""
    for name, algebra in files:
        (directory / name).write_text(_json_text(algebra))
    (directory / "index.json").write_text(_json_text(index))
    return str(directory)


def _json_text(value):
    """value as JSON text; a str is the text itself, for input that
    json.dumps cannot write."""
    return value if isinstance(value, str) else json.dumps(value)


# parses as JSON only with 100,000 levels of recursion
_DEEP = "[" * 100000 + "]" * 100000


@pytest.mark.parametrize(
    "algebra,argv",
    [
        pytest.param(_RAGGED, ["validate"], id="validate-ragged"),
        pytest.param(_RAGGED, ["classify"], id="classify-ragged"),
        pytest.param(_OUT_OF_RANGE, ["validate"], id="validate-out-of-range"),
        pytest.param(_OUT_OF_RANGE, ["classify"], id="classify-out-of-range"),
        pytest.param(_BOOLEAN, ["validate"], id="validate-boolean"),
        pytest.param(_BOOLEAN, ["classify"], id="classify-boolean"),
        pytest.param(_WRONG_N, ["validate"], id="validate-wrong-n"),
        pytest.param(
            None, ["matrix", "--p", "3", "--a-params", "a,b"], id="a-params"
        ),
        pytest.param(
            None, ["matrix", "--p", "3", "--a-params", "1,2,3"], id="a-params-triple"
        ),
        pytest.param(None, ["matrix", "--p", "3", "--dims", "1,x,1"], id="dims"),
        pytest.param(None, ["enumerate", "--order", "0"], id="order-0"),
        pytest.param(
            None,
            ["enumerate", "--order", "2", "--workers", "-3"],
            id="enumerate-workers",
        ),
        pytest.param(
            None, ["verify", "--order", "2", "--workers", "0"], id="verify-workers"
        ),
        pytest.param(
            _SHORT_NAMES, ["export", "--format", "dot"], id="export-short-names"
        ),
        pytest.param(_NON_STRING_NAMES, ["validate"], id="validate-non-string-names"),
        pytest.param(_DEEP, ["validate"], id="validate-deeply-nested"),
        pytest.param(_DEEP, ["verify", "--catalog"], id="catalog-index-deeply-nested"),
        pytest.param(None, ["matrix", "--p", "4"], id="matrix-non-prime"),
        pytest.param(None, ["matrix", "--p", "0"], id="matrix-zero-modulus"),
        pytest.param(None, ["enumerate", "--order", "9"], id="order-above-cap"),
        pytest.param(
            None,
            ["enumerate", "--order", "5", "--oracle"],
            id="oracle-order-above-cap",
        ),
        pytest.param(
            None,
            ["verify", "--catalog", "/nonexistent/catalog"],
            id="catalog-missing-directory",
        ),
        pytest.param(
            _INDEX_WITHOUT_ALGEBRAS,
            ["verify", "--catalog"],
            id="catalog-index-without-algebras",
        ),
        pytest.param(
            _INDEX_WITH_TEXT_ORDER,
            ["verify", "--catalog"],
            id="catalog-order-not-integer",
        ),
        pytest.param(
            None,
            ["enumerate", "--order", "2", "--out", _A_FILE],
            id="catalog-out-is-a-file",
        ),
        pytest.param(
            None,
            ["SKEWLAT_CACHE_DIR=" + _A_FILE, "enumerate", "--order", "2"],
            id="cache-dir-is-a-file",
        ),
    ],
)
def test_malformed_input_exit_2(capsys, tmp_path, monkeypatch, algebra, argv):
    a_file = tmp_path / "a-file"
    a_file.write_text("")
    argv = [v.replace(_A_FILE, str(a_file)) for v in argv]
    while "=" in argv[0]:
        name, value = argv.pop(0).split("=", 1)
        monkeypatch.setenv(name, value)
    if argv[-1] == "--catalog":
        argv = argv + [_write_catalog(tmp_path, algebra)]
    elif algebra is not None:
        path = tmp_path / "bad.json"
        path.write_text(_json_text(algebra))
        argv = argv + [str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_catalog_with_invalid_algebra_exit_1(capsys, tmp_path):
    # idempotent meet and join, but the absorption laws fail; verify FILE
    # rejects the same table, so the catalog must not reach the law harness
    bad = {"n": 2, "meet": [[0, 0], [0, 1]], "join": [[0, 0], [0, 1]]}
    index = dict(_INDEX_WITHOUT_ALGEBRAS, algebras=[{"file": "a.json"}])
    directory = _write_catalog(tmp_path, index, [("a.json", bad)])
    code, out, err = run(capsys, "verify", "--catalog", directory)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "not a skew lattice" in err


def _chain3_relabelled():
    # chain(3) with its top and bottom swapped: a skew lattice, not canonical
    s = chain(3)
    return SkewLattice(
        [[2 - s.m(2 - x, 2 - y) for y in range(3)] for x in range(3)],
        [[2 - s.j(2 - x, 2 - y) for y in range(3)] for x in range(3)],
    )


@pytest.mark.parametrize(
    "order,algebras,fault",
    [
        pytest.param(2, ["chain3", "chain3"], "in a catalog of order 2", id="order"),
        pytest.param(3, ["chain3", "chain3"], "b.json repeats", id="repeated"),
        pytest.param(3, ["relabelled"], "not in canonical form", id="non-canonical"),
        pytest.param(2, ["rect12", "chain2"], "b.json sorts before", id="unsorted"),
    ],
)
def test_verify_catalog_with_a_bad_index_exit_1(capsys, tmp_path, order, algebras, fault):
    # every algebra is a valid skew lattice; the index around them is wrong
    named = {
        "chain2": canonical(chain(2)),
        "chain3": canonical(chain(3)),
        "rect12": canonical(rectangular(1, 2)),
        "relabelled": _chain3_relabelled(),
    }
    files = [(f"{c}.json", json.loads(to_json(named[a])))
             for c, a in zip("ab", algebras)]
    index = {"order": order, "provenance": "pruned-search",
             "algebras": [{"file": name} for name, _ in files]}
    directory = _write_catalog(tmp_path, index, files)
    code, out, err = run(capsys, "verify", "--catalog", directory)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert fault in err


def test_verify_order_above_cap_exits_before_searching(capsys, monkeypatch):
    import skewlat.catalog

    def no_search(*args, **kwargs):
        raise AssertionError("the catalog search ran before the cap check")

    monkeypatch.delenv("SKEWLAT_CACHE_DIR", raising=False)
    monkeypatch.setattr(skewlat.catalog, "enumerate_catalog", no_search)
    code, out, err = run(capsys, "verify", "--order", "7")
    assert code == 2
    assert out == ""
    assert err == "error: pruned search capped at order 6\n"


# sha256 of the stdout and exit code of `greens`, `cosets` and `decompose`
# over the order <= 4 catalog, nc5 both ways and the order-3 x order-2
# products: a change to how Green's classes are stored or labelled must not
# move a single block, eggbox, coset or section
STRUCTURE_OUTPUTS_SHA256 = (
    "3a20aaab256aa572990c66e09baa2d946084dee1ee8663d7aba41e1aa35e3013"
)


def test_structure_outputs_match_golden_digest(capsys, tmp_path, catalogs):
    from skewlat.core import direct_product

    corpus = [
        (f"order{n}-{i}", s)
        for n, cat in sorted(catalogs.items())
        for i, s in enumerate(cat.algebras)
    ]
    corpus += [("nc5-right", nc5("right")), ("nc5-left", nc5("left"))]
    corpus += [
        (f"order3-{i}x{j}", direct_product(a, b))
        for i, a in enumerate(catalogs[3].algebras)
        for j, b in enumerate(catalogs[2].algebras)
    ]
    digest = hashlib.sha256()
    for name, s in corpus:
        path = tmp_path / f"{name}.json"
        path.write_text(to_json(s))
        for command in ("greens", "cosets", "decompose"):
            code, out, _ = run(capsys, command, str(path))
            digest.update(f"{name} {command} {code}\n{out}".encode())
    assert digest.hexdigest() == STRUCTURE_OUTPUTS_SHA256


def test_classify_and_verify_at_the_order_cap(capsys, tmp_path):
    # chain(8) x chain(8): 64 elements, at core.CAP, and 64 D-classes
    from skewlat.core import CAP, direct_product

    s = direct_product(chain(8), chain(8))
    assert s.n == CAP
    path = tmp_path / "c8xc8.json"
    path.write_text(to_json(s))
    start = time.perf_counter()
    code, out, _ = run(capsys, "classify", str(path))
    assert code == 0
    assert json.loads(out)["quasi-distributive"]["holds"] is True
    code, _, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert time.perf_counter() - start < 60
