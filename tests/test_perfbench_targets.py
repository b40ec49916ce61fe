"""perfbench wraps danet functions by module and name; a rename must fail here
rather than in a traced benchmark run."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_wrap_target_is_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers

    patches = layers.patches()
    assert patches
    missing = [f"{p.module.__name__}.{p.attr}" for p in patches
               if not callable(getattr(p.module, p.attr, None))]
    assert missing == []


def test_each_span_name_wraps_one_function_of_its_own(monkeypatch):
    # The tracer wraps each function object once, under the first name that
    # reaches it: an alias of one traced name to another would merge their spans.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers

    targets: dict[str, set[int]] = {}
    for p in layers.patches():
        targets.setdefault(p.name, set()).add(id(getattr(p.module, p.attr)))
    assert {name: len(ids) for name, ids in targets.items() if len(ids) != 1} == {}
    assert len(set.union(*targets.values())) == len(targets)
