"""Seeded workload inputs and their independent expectations.

Every input is generated from the benchmark's seed and written out as a
`.5th` file; the engine only ever sees those files. Expected answers come
from the brute-force enumerators in `tests/oracles.py` or from the
oracle-derived `corpus/*.expected.json`, never from the engine. Oracle
results are cached under the benchmark's output directory, keyed by
workload and seed, and are always computed outside the timed regions.
"""

import importlib.util
import json
import random
import re
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from fifth.planning import (
    HorizonProblem,
    JobShopInstance,
    emit_horizon_program,
    emit_jobshop_program,
    generate_random_csp,
)

# Runs are compared across seeds, so each workload keeps its cost structure
# fixed and lets the seed vary what leaves the work nearly unchanged
# (variable names, start positions, depth jitter, order), plus a random
# part whose cost is averaged over many instances. See NOTES.md.

# search-mix sizing
MIX_CSPS = 50                         # renamings of fixed banded CSPs
MIX_CSP_SHAPE = (7, 4, 0.4)           # n_vars, domain, density
CSP_COUNT_BAND = (16, 128)            # oracle solution count kept
MIX_JOBSHOPS = 16                     # fresh random instances
JOBSHOP_SHAPE = (3, 4, 3, 6)          # jobs, machines, min and max duration
LINE_WORLDS = 11
HORIZON, HORIZON_OFFSET = 8, 3        # goal = start + offset

# deep-recursion sizing. Short chains sit at depths 256, 258, ... plus a
# seeded 0-1; long ones at (nominal + seeded 0-8, --gc). Chains under --gc
# stay clear of the ~975-frame stack limit on either side, so the same
# chains fail whether or not the tracer adds its frames to the stack.
SHORT_CHAINS = 20
SHORT_GC = 5
LONG_CHAINS = ((512, True), (1104, False), (1040, True))

# guided-csp sizing
TRAIN_PICK = 6
TRAIN_COUNT_BAND = (200, 220)         # summed oracle counts of the picks

COUNT = """\
(def (count n r)
  (cell nm1)
  (cell rest)
  (const one 1)
  (sum nm1 one n)
  (if n
    ((call count nm1 rest)
     (sum rest one r))
    ((const r 0))))
"""

# bumped whenever generation changes, so stale cached expectations are
# recomputed rather than trusted
GENERATOR_VERSION = 5


@dataclass
class Query:
    qid: str
    argv: list               # arguments for fifth.cli.main, without --out
    expect: dict
    kind: str = "solve"      # "solve" or "train"
    depth: Optional[int] = None


@dataclass
class Workload:
    queries: list
    programs: list           # the .5th files the set-up probe parses


def load_oracles(root):
    spec = importlib.util.spec_from_file_location(
        "oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _Cache:
    """Oracle results for one workload and seed, kept as JSON."""

    def __init__(self, path):
        self.path = path
        self.data = {}
        if path.is_file():
            data = json.loads(path.read_text())
            if data.get("version") == GENERATOR_VERSION:
                self.data = data
        self.dirty = False

    def get(self, key, compute):
        if key not in self.data:
            self.data[key] = compute()
            self.dirty = True
        return self.data[key]

    def save(self):
        if self.dirty:
            self.data["version"] = GENERATOR_VERSION
            self.path.write_text(json.dumps(self.data, sort_keys=True))


def _csp_expected(meta, oracles, cache):
    def compute():
        solutions = oracles.csp_solutions(meta)
        return {"solutions": sorted([s[n] for n in meta["vars"]]
                                    for s in solutions),
                "vars": meta["vars"], "exit": 0 if solutions else 2}
    return cache.get(f"csp:{meta['constraints']}", compute)


def _renamed(text, meta, rng):
    """The same CSP with its variables renamed by a seeded permutation.

    The parameter list keeps its order, so cell ids, and with them the
    engine's tie-breaking variable order, no longer follow the constraint
    structure: a new program whose search does within about 1% of the
    original's work. The expectation comes from the oracle on the renamed
    constraints.
    """
    names = list(meta["vars"])
    shuffled = names[:]
    rng.shuffle(shuffled)
    mapping = dict(zip(names, shuffled))
    header, rest = text.split("\n", 1)
    body, query = rest.split("(query", 1)
    body = re.sub(r"\bx\d+\b", lambda m: mapping[m.group(0)], body)
    constraints = [[c[0], mapping[c[1]], mapping[c[2]]] + list(c[3:])
                   for c in meta["constraints"]]
    return (f"{header}\n{body}(query{query}",
            dict(meta, constraints=constraints))


def _csp_bases(oracles, cache):
    """Fixed CSPs from `generate_random_csp` whose oracle solution count
    lies in the band, so every CSP costs about the same few milliseconds.
    The band is read from the oracle: the engine plays no part in choosing
    its own inputs."""
    stream = random.Random("csp-bases")
    n_vars, domain, density = MIX_CSP_SHAPE
    lo, hi = CSP_COUNT_BAND
    bases = []
    while len(bases) < MIX_CSPS:
        text, meta = generate_random_csp(n_vars, domain, density,
                                         stream.randrange(2**31))
        count = cache.get(f"count:{meta['seed']}", lambda: len(
            oracles.csp_solutions(meta)))
        if lo <= count <= hi:
            bases.append((text, meta))
    return bases


def _write(path, text):
    path.write_text(text)
    return path


def build_search_mix(seed, root, work, oracles, cache):
    rng = random.Random(f"search-mix:{seed}")
    queries = []

    q8 = root / "corpus" / "queens" / "q8.5th"
    boards = json.loads(
        (root / "corpus" / "queens" / "q8.expected.json").read_text())["boards"]
    path = _write(work / "q8.5th", q8.read_text())
    queries.append(Query("queens-8", ["solve", str(path)], {
        "solutions": sorted(boards), "vars": [f"q{i}" for i in range(1, 9)],
        "exit": 0}))

    # the work depends on the distance to the goal, not on where the line
    # starts, so the seed moves the start only
    for i, start in enumerate(rng.sample(range(-50, 51), LINE_WORLDS)):
        goal = start + HORIZON_OFFSET
        path = _write(work / f"line-world-{i:02d}.5th", emit_horizon_program(
            HorizonProblem(HORIZON, start, goal)))
        best = cache.get(f"line:{start}", lambda: oracles.lineworld_best_total(
            start, goal, HORIZON))
        queries.append(Query(f"line-world-{i:02d}", ["solve", str(path)], {
            "objective": -best, "exit": 0}))

    for i, (text, meta) in enumerate(_csp_bases(oracles, cache)):
        text, meta = _renamed(text, meta, rng)
        path = _write(work / f"csp-{i:02d}.5th", text)
        queries.append(Query(f"csp-{i:02d}", ["solve", str(path)],
                             _csp_expected(meta, oracles, cache)))

    n_jobs, n_machines, d_lo, d_hi = JOBSHOP_SHAPE
    for i in range(MIX_JOBSHOPS):
        jobs = []
        for _ in range(n_jobs):
            machines = list(range(n_machines))
            rng.shuffle(machines)
            jobs.append(tuple((m, rng.randint(d_lo, d_hi)) for m in machines))
        inst = JobShopInstance(tuple(jobs), n_machines)
        path = _write(work / f"jobshop-{i:02d}.5th", emit_jobshop_program(inst))
        optimum = cache.get(f"js:{jobs}", lambda: oracles.jobshop_optimum(
            [list(j) for j in jobs], n_machines))
        queries.append(Query(f"jobshop-{i:02d}", ["solve", str(path)], {
            "objective": optimum, "exit": 0}))

    rng.shuffle(queries)
    programs = [Path(q.argv[1]) for q in queries]
    return Workload(queries, programs)


def build_deep_recursion(seed, root, work, oracles, cache):
    rng = random.Random(f"deep-recursion:{seed}")
    gc_short = set(rng.sample(range(SHORT_CHAINS), SHORT_GC))
    chains = [(256 + 2 * k + rng.randint(0, 1), k in gc_short)
              for k in range(SHORT_CHAINS)]
    chains += [(depth + rng.randint(0, 8), gc) for depth, gc in LONG_CHAINS]
    rng.shuffle(chains)
    queries = []
    for depth, gc in chains:
        text = COUNT + (f"\n(query (count (n {depth})) (show r)"
                        f" (depth {depth + 4}))\n")
        qid = f"count-{depth}" + ("-gc" if gc else "")
        path = _write(work / f"{qid}.5th", text)
        argv = ["solve", str(path)] + (["--gc"] if gc else [])
        # the chain counts its own frames: r = n
        queries.append(Query(qid, argv, {
            "solutions": [[depth]], "vars": ["r"], "exit": 0}, depth=depth))
    programs = [Path(q.argv[1]) for q in queries]
    return Workload(queries, programs)


def build_guided_csp(seed, root, work, oracles, cache):
    rng = random.Random(f"guided-csp:{seed}")
    corpus = root / "corpus" / "csp"

    def expected(f):
        return json.loads(f.with_suffix("").with_suffix(
            ".expected.json").read_text())

    # The memory holds one entry per solution the training solves saw, and
    # every learned query pays for each entry, so the training picks are a
    # fixed subset whose oracle counts sum into a narrow band; the seed
    # renames them.
    train_all = sorted((corpus / "train").glob("*.5th"))
    counts = {f: expected(f)["count"] for f in train_all}
    stream = random.Random("train-subset")
    lo, hi = TRAIN_COUNT_BAND
    while True:
        picks = sorted(stream.sample(train_all, TRAIN_PICK))
        if lo <= sum(counts[f] for f in picks) <= hi:
            break
    train_dir = work / "train"
    train_dir.mkdir()
    for f in picks:
        text, _ = _renamed(f.read_text(), expected(f)["meta"], rng)
        _write(train_dir / f.name, text)
    model = work / "model"
    queries = [Query("train", [
        "train", str(train_dir), "--model", str(model), "--seed", str(seed)], {
        "instances": [f.name for f in picks],
        "success_records": sum(counts[f] for f in picks),
        "exit": 0}, kind="train")]

    # all 20 eval programs, whose node counts range from 1 to 398, plus a
    # seeded renaming of each: a subset would swing the cost with the seed,
    # and 40 queries leave ten samples above a p75 tail
    eval_dir = work / "eval"
    eval_dir.mkdir()
    evals = []
    for f in sorted((corpus / "eval").glob("*.5th")):
        text, meta = f.read_text(), expected(f)["meta"]
        evals.append((f.stem, text, meta))
        evals.append((f"{f.stem}-renamed",) + _renamed(text, meta, rng))
    rng.shuffle(evals)
    for stem, text, meta in evals:
        path = _write(eval_dir / f"{stem}.5th", text)
        queries.append(Query(stem, [
            "solve", str(path), "--oracle", "learned", "--model", str(model)],
            _csp_expected(meta, oracles, cache)))
    programs = [train_dir / f.name for f in picks] + [
        Path(q.argv[1]) for q in queries[1:]]
    return Workload(queries, programs)


BUILDERS = {
    "search-mix": build_search_mix,
    "deep-recursion": build_deep_recursion,
    "guided-csp": build_guided_csp,
}


def build(name, seed, root, work, cache_dir):
    """Generate the workload's files under `work` and its expectations."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    cache_dir.mkdir(parents=True, exist_ok=True)
    cache = _Cache(cache_dir / f"{name}-{seed}.json")
    workload = BUILDERS[name](seed, root, work, load_oracles(root), cache)
    cache.save()
    return workload


# -- checking ------------------------------------------------------------------


def check(query, code, payload, validators):
    """Compare one query's exit code and output with the expectation.

    Returns None when the answer is right, else a one-line reason.
    """
    exp = query.expect
    if code != exp["exit"]:
        return f"exit {code}, expected {exp['exit']}"
    if payload is None:
        return "no output written"
    errors = sorted(validators[query.kind].iter_errors(payload),
                    key=lambda e: list(e.path))
    if errors:
        return f"schema: {errors[0].message}"
    if query.kind == "train":
        if payload["instances"] != exp["instances"]:
            return f"trained on {payload['instances']}"
        success = payload["report"]["memory"]["success"]
        if success != exp["success_records"]:
            return (f"{success} success records,"
                    f" oracle counts {exp['success_records']}")
        return None
    if "objective" in exp:
        if payload.get("objective") != exp["objective"]:
            return (f"objective {payload.get('objective')},"
                    f" oracle {exp['objective']}")
        if payload.get("proven") is not True:
            return "optimum not proven"
        return None
    if payload["stats"]["complete"] is not True:
        return "search incomplete"
    got = sorted([s["cells"][n] for n in exp["vars"]]
                 for s in payload["solutions"])
    if got != exp["solutions"]:
        return (f"{len(got)} solutions, oracle {len(exp['solutions'])}"
                " (or different assignments)")
    return None
