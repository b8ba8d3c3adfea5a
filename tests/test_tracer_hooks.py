"""The benchmark tracer patches engine entry points by name from outside
`src/`; a rename or removal there would silently break `--trace 1`."""

import importlib.util
import json
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TRACER = REPO / "perfbench" / "tracer.py"
CORPUS = REPO / "corpus"


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


def test_kernel_writes_pass_through_the_traced_names(monkeypatch):
    # The tracer counts `network.write.*` by wrapping `Network.write` on the
    # class and `lattice.merge.calls` by wrapping the `merge` global of
    # `fifth.network`. Every propagator write must reach both, or those
    # counters would read zero while the kernel works. Transfers drop the
    # writes that cannot refine, so the unchanged ones come from search:
    # branch-and-bound pins objectives that are already exact at a leaf.
    import fifth.network
    from fifth.language import parse
    from fifth.search import optimize

    seen = Counter()
    write, merge = fifth.network.Network.write, fifth.network.merge

    def counted_write(net, cid, info, write_id=None):
        result = write(net, cid, info, write_id)
        seen["write"] += 1
        seen[result.value] += 1
        seen["by propagator"] += type(write_id) is int
        return result

    def counted_merge(a, b):
        seen["merge"] += 1
        return merge(a, b)

    monkeypatch.setattr(fifth.network.Network, "write", counted_write)
    monkeypatch.setattr(fifth.network, "merge", counted_merge)
    program = parse((CORPUS / "jobshop" / "js-3x3-a.5th").read_text())
    result = optimize(program, program.query)
    expected = json.loads(
        (CORPUS / "jobshop" / "js-3x3-a.expected.json").read_text())
    assert (result.objective, result.proven) == (expected["makespan"], True)
    assert seen["merge"] == seen["write"]
    assert seen["write"] == seen["refined"] + seen["unchanged"] + seen[
        "contradiction"]
    assert seen["by propagator"] > seen["write"] // 2
    assert min(seen["refined"], seen["unchanged"], seen["contradiction"]) > 0
