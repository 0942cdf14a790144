"""The traced benchmark wraps skewlat functions by name from outside the
library (perfbench/layers.py).  A rename that leaves one of them bound
nowhere makes `Tracer.install` raise LookupError; this test makes such a
rename fail here rather than only in a traced benchmark run."""

import os
import sys

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def _bindings():
    """Every skewlat module attribute, and every value of a module-level
    dict, as (module, name[, key]) -> object."""
    out = {}
    for modname, mod in sys.modules.items():
        if modname != "skewlat" and not modname.startswith("skewlat."):
            continue
        for name, value in vars(mod).items():
            out[modname, name] = value
            if type(value) is dict:
                for key, v in value.items():
                    out[modname, name, key] = v
    return out


def test_perfbench_hooks_install_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import layers
    import tracing

    import skewlat.cli  # noqa: F401  (loads every module that is wrapped)
    from skewlat.matrix_rings import PrimeFieldMatrix

    methods = dict(vars(PrimeFieldMatrix))
    before = _bindings()
    tracer = tracing.Tracer()
    try:
        layers.instrument(tracer)
        assert tracer._undo
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    moved = [k for k in before if after[k] is not before[k]]
    assert moved == []
    assert vars(PrimeFieldMatrix) == methods


def test_perfbench_counts_every_coset(monkeypatch, tmp_path, capsys):
    # cosets.coset_primitive is counted by wrappers put in place of the six
    # comprehensions; a caller that reaches them another way is invisible to
    # it.  A profile hook on their code objects counts every call.
    monkeypatch.syspath_prepend(PERFBENCH)
    import layers
    import tracing

    from skewlat import cli, cosets
    from skewlat.catalog import nc5
    from skewlat.core import to_json

    path = tmp_path / "nc5.json"
    path.write_text(to_json(nc5("right")))
    codes = {getattr(cosets, name).__code__ for name in layers.COSET_PRIMITIVES}
    for command in ("cosets", "verify"):
        seen = [0]

        def hook(frame, event, arg):
            if event == "call" and frame.f_code in codes:
                seen[0] += 1

        tracer = tracing.Tracer()
        layers.instrument(tracer)
        sys.setprofile(hook)
        try:
            assert cli.main([command, str(path)]) == 0
        finally:
            sys.setprofile(None)
            tracer.restore()
        capsys.readouterr()
        assert seen[0] > 0
        assert tracer.calls["cosets.coset_primitive"] == seen[0], command
