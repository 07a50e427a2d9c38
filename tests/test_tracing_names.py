"""The benchmark's tracer resolves each traced kjuggle function by name with
`getattr`, so a rename here would break only a traced benchmark run.  This
loads the tracer's module from its file and checks that every name in its
table still resolves to a callable."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_name_is_a_kjuggle_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [(module, fn) for targets in tracing.LAYERS.values() for module, fn in targets]
    for traced in (("closedforms", "permanent"), ("juggling", "enumerate_labeled_sequences"),
                   ("poset", "build_poset"), ("poset", "mobius_from_bottom")):
        assert traced in names
    for module, fn in names:
        target = getattr(importlib.import_module(f"kjuggle.{module}"), fn, None)
        assert callable(target), f"kjuggle.{module}.{fn}"
