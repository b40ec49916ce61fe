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
