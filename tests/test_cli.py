import json

import pytest

from skewlat.catalog import nc5
from skewlat.cli import main
from skewlat.core import chain, rectangular, to_json


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


def test_enumerate_oracle_agrees(capsys):
    _, out_a, _ = run(capsys, "enumerate", "--order", "2")
    _, out_b, _ = run(capsys, "enumerate", "--order", "2", "--oracle")
    a, b = json.loads(out_a), json.loads(out_b)
    assert a["algebras"] == b["algebras"]
    assert a["provenance"] != b["provenance"]


def test_enumerate_worker_determinism(capsys):
    _, out_a, _ = run(capsys, "enumerate", "--order", "3", "--workers", "1")
    _, out_b, _ = run(capsys, "enumerate", "--order", "3", "--workers", "4")
    assert out_a == out_b


def test_matrix_command(capsys):
    code, out, _ = run(capsys, "matrix", "--p", "3", "--sweep")
    assert code == 0
    d = json.loads(out)
    assert d["coset_report"]["verdict"] == "concordant"
    assert len(d["model"]["matrices"]) == 18


def test_verify_files(capsys, nc5_file):
    code, out, _ = run(capsys, "verify", nc5_file)
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 5
    assert all(r["verdict"] == "concordant" for r in reports)


def test_verify_law_subset(capsys, nc5_file):
    code, out, _ = run(capsys, "verify", nc5_file, "--laws", "symmetry")
    assert code == 0
    assert [r["law"] for r in json.loads(out)] == ["symmetry-coset-laws"]


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


def test_cache_dir(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SKEWLAT_CACHE_DIR", str(tmp_path))
    _, out_a, _ = run(capsys, "enumerate", "--order", "2")
    assert (tmp_path / "pruned-search-order2" / "index.json").exists()
    _, out_b, _ = run(capsys, "enumerate", "--order", "2")
    assert out_a == out_b


_RAGGED = {"n": 2, "meet": [[0, 0], [0]], "join": [[0, 1], [1, 1]]}
_OUT_OF_RANGE = {"n": 2, "meet": [[0, 0], [0, 5]], "join": [[0, 1], [1, 1]]}
_BOOLEAN = {"n": 2, "meet": [[0, 0], [0, True]], "join": [[0, 1], [1, True]]}
_CHAIN2 = {"n": 2, "meet": [[0, 0], [0, 1]], "join": [[0, 1], [1, 1]]}
_SHORT_NAMES = dict(_CHAIN2, names=["a"])
_NON_STRING_NAMES = dict(_CHAIN2, names=["a", 3])


@pytest.mark.parametrize(
    "algebra,argv",
    [
        pytest.param(_RAGGED, ["validate"], id="validate-ragged"),
        pytest.param(_RAGGED, ["classify"], id="classify-ragged"),
        pytest.param(_OUT_OF_RANGE, ["validate"], id="validate-out-of-range"),
        pytest.param(_OUT_OF_RANGE, ["classify"], id="classify-out-of-range"),
        pytest.param(_BOOLEAN, ["validate"], id="validate-boolean"),
        pytest.param(_BOOLEAN, ["classify"], id="classify-boolean"),
        pytest.param(
            None, ["matrix", "--p", "3", "--a-params", "a,b"], id="a-params"
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
        pytest.param(None, ["matrix", "--p", "4"], id="matrix-non-prime"),
        pytest.param(None, ["enumerate", "--order", "9"], id="order-above-cap"),
        pytest.param(
            None,
            ["enumerate", "--order", "5", "--oracle"],
            id="oracle-order-above-cap",
        ),
    ],
)
def test_malformed_input_exit_2(capsys, tmp_path, algebra, argv):
    if algebra is not None:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(algebra))
        argv = argv + [str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


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
