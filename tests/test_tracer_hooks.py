"""The benchmark tracer patches engine entry points by name from outside
`src/`; a rename or removal there would silently break `--trace 1`."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_entry_points_exist_and_restore():
    tracer_mod = _load_tracer()
    originals = [owner.__dict__[attr]
                 for owner, attr, _, _ in tracer_mod.ENTRY_POINTS]
    tracer = tracer_mod.Tracer()
    tracer.install()
    tracer.uninstall()
    for (owner, attr, _, _), original in zip(tracer_mod.ENTRY_POINTS,
                                             originals):
        assert owner.__dict__[attr] is original, (owner, attr)
