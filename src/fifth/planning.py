"""Horizon planning and job-shop scheduling emitted as constraint programs.

A plan over H steps becomes one recursive definition whose call chain walks
the step index 0..H. The index is the only thing that grows, so every
constraint couples a step to its immediate successor and nothing further.
Schedules are flat single-frame programs: start-time cells, precedence sums,
and one ordering bit per pair of operations that share a machine. Everything
here emits plain source text, so the engine never learns what a plan is.
"""

from dataclasses import dataclass

from .rng import SplitMix64

__all__ = [
    "HorizonProblem",
    "JobShopInstance",
    "emit_horizon_program",
    "emit_jobshop_program",
    "generate_random_csp",
]


def _integer(v, what):
    if not isinstance(v, int) or isinstance(v, bool):
        raise ValueError(f"{what} must be an integer, got {v!r}")
    return v


@dataclass(frozen=True)
class HorizonProblem:
    """A deterministic, fully observed decision problem on the integer line.

    One position cell per step, additive integer actions, a flat cost per
    move, and a bonus for every step that ends on the goal. Stochastic
    transitions and partial observability are deliberately out of scope.
    """

    horizon: int
    start: int
    goal: int
    actions: tuple = (-1, 1)
    move_cost: int = -1
    goal_reward: int = 10

    def __post_init__(self):
        _integer(self.horizon, "horizon")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        acts = tuple(self.actions)
        if not acts:
            raise ValueError("need at least one action")
        for a in acts:
            _integer(a, "action")
        if len(set(acts)) != len(acts):
            raise ValueError("duplicate action")
        for v, what in ((self.start, "start"), (self.goal, "goal"),
                        (self.move_cost, "move_cost"),
                        (self.goal_reward, "goal_reward")):
            _integer(v, what)
        object.__setattr__(self, "actions", acts)


def emit_horizon_program(problem: HorizonProblem) -> str:
    """Spell a horizon problem as one recursive definition plus a query.

    Each frame prices one move: hit*offgoal = 0 pins the bonus bit to 0
    whenever the step misses the goal, and leaves it free (so worth taking)
    when it lands. The base frame at t = H equates the accumulator with the
    result and its negation, and the query minimizes the negation.
    """
    p = problem
    acts = " ".join(str(a) for a in p.actions)
    return f"""\
; one frame per step; rem = {p.horizon} - t gates the recursive call
(def (step t pos acc result neg)
  (const hh {p.horizon})
  (const one 1)
  (const zero 0)
  (const goalpos {p.goal})
  (const movecost {p.move_cost})
  (const goalpay {p.goal_reward})
  (cell rem)
  (sum t rem hh)
  (if rem
    ((cell act)
     (choose act {acts})
     (cell tnext)
     (sum t one tnext)
     (cell posnext)
     (sum pos act posnext)
     (cell offgoal)
     (sum goalpos offgoal posnext)
     (cell hit)
     (choose hit 0 1)
     (product hit offgoal zero)
     (cell bonus)
     (product hit goalpay bonus)
     (cell reward)
     (sum movecost bonus reward)
     (cell accnext)
     (sum acc reward accnext)
     (call step tnext posnext accnext result neg))
    ((equal result acc)
     (sum result neg zero))))

(query (step (t 0) (pos {p.start}) (acc 0))
  (show result neg)
  (depth {p.horizon + 4})
  (minimize neg))
"""


@dataclass(frozen=True)
class JobShopInstance:
    """jobs: per job, an ordered tuple of (machine, duration) operations."""

    jobs: tuple
    machines: int

    def __post_init__(self):
        _integer(self.machines, "machines")
        if self.machines < 1:
            raise ValueError("machines must be >= 1")
        jobs = tuple(tuple((m, d) for m, d in job) for job in self.jobs)
        if not jobs:
            raise ValueError("need at least one job")
        for j, ops in enumerate(jobs):
            if not ops:
                raise ValueError(f"job {j} has no operations")
            seen = set()
            for m, d in ops:
                _integer(m, "machine id")
                _integer(d, "duration")
                if not 0 <= m < self.machines:
                    raise ValueError(f"machine id {m} out of range")
                if d <= 0:
                    raise ValueError("durations must be > 0")
                if m in seen:
                    raise ValueError(f"job {j} visits machine {m} twice")
                seen.add(m)
        object.__setattr__(self, "jobs", jobs)

    @property
    def horizon_bound(self):
        # serializing every operation is always feasible
        return sum(d for ops in self.jobs for _, d in ops)


def emit_jobshop_program(instance: JobShopInstance) -> str:
    """Spell a job-shop instance as a flat program minimizing the makespan.

    Start cells carry [0, horizon_bound]; the only branchable things are the
    ordering bits, one per pair of operations that share a machine. The
    query's precision equals the horizon bound so interval-valued starts are
    reportable; the optimizer pins the makespan itself by bound probing.
    """
    hb = instance.horizon_bound
    starts = [f"s{j}x{k}"
              for j, job in enumerate(instance.jobs)
              for k in range(len(job))]
    lines = [f"(def (shop makespan {' '.join(starts)})",
             f"  (int makespan 0 {hb})"]
    ops = []
    for j, job in enumerate(instance.jobs):
        for k, (m, d) in enumerate(job):
            lines.append(f"  (int s{j}x{k} 0 {hb})")
            lines.append(f"  (const d{j}x{k} {d})")
            lines.append(f"  (cell e{j}x{k})")
            lines.append(f"  (sum s{j}x{k} d{j}x{k} e{j}x{k})")
            ops.append((j, k, m))
    for j, job in enumerate(instance.jobs):
        for k in range(len(job) - 1):
            # within a job: finish before the next operation starts
            lines.append(f"  (lesseq e{j}x{k} s{j}x{k + 1})")
    bit = 0
    for a in range(len(ops)):
        for b in range(a + 1, len(ops)):
            if ops[a][2] != ops[b][2]:
                continue
            (ja, ka, _), (jb, kb, _) = ops[a], ops[b]
            lines.append(f"  (cell o{bit})")
            lines.append(f"  (choose o{bit} 0 1)")
            lines.append(f"  (if o{bit}"
                         f" ((lesseq e{ja}x{ka} s{jb}x{kb}))"
                         f" ((lesseq e{jb}x{kb} s{ja}x{ka})))")
            bit += 1
    for j, job in enumerate(instance.jobs):
        lines.append(f"  (lesseq e{j}x{len(job) - 1} makespan)")
    lines.append(")")
    query = (f"(query (shop)\n  (show makespan {' '.join(starts)})\n"
             f"  (precision {hb})\n  (minimize makespan))")
    return "\n".join(lines) + "\n\n" + query + "\n"


def generate_random_csp(n_vars: int, domain: int, density: float, seed: int):
    """Deterministic random binary CSP as (program text, oracle metadata).

    Variables are entry parameters with domain 0..domain-1; each unordered
    pair draws one constraint from {neq, leq, eqsum} with probability
    `density`. The metadata mirrors the text so an independent enumerator
    can count solutions without parsing anything.
    """
    _integer(n_vars, "n_vars")
    _integer(domain, "domain")
    if not 1 <= n_vars <= 10:
        raise ValueError("n_vars must be in 1..10")
    if not 1 <= domain <= 6:
        raise ValueError("domain must be in 1..6")
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must be in [0, 1]")
    rng = SplitMix64(seed)
    names = [f"x{i}" for i in range(n_vars)]
    values = " ".join(str(v) for v in range(domain))
    cons = []
    for i in range(n_vars):
        for j in range(i + 1, n_vars):
            if rng.uniform() >= density:
                continue
            kind = ("neq", "leq", "eqsum")[rng.randint(3)]
            if kind == "eqsum":
                cons.append(("eqsum", names[i], names[j],
                             rng.randrange(0, 2 * (domain - 1))))
            else:
                cons.append((kind, names[i], names[j]))
    lines = [f"(def (csp {' '.join(names)})"]
    for nm in names:
        lines.append(f"  (choose {nm} {values})")
    for idx, con in enumerate(cons):
        if con[0] == "neq":
            lines.append(f"  (alldiff {con[1]} {con[2]})")
        elif con[0] == "leq":
            lines.append(f"  (lesseq {con[1]} {con[2]})")
        else:
            lines.append(f"  (const k{idx} {con[3]})")
            lines.append(f"  (sum {con[1]} {con[2]} k{idx})")
    lines.append(")")
    query = f"(query (csp) (show {' '.join(names)}))"
    text = "\n".join(lines) + "\n\n" + query + "\n"
    meta = {
        "vars": list(names),
        "domains": {nm: list(range(domain)) for nm in names},
        "constraints": [list(c) for c in cons],
        "seed": seed,
        "density": density,
    }
    return text, meta

