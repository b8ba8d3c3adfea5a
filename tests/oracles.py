"""Independent brute-force oracles the engine's answers are checked against.

Everything here enumerates exhaustively and knows nothing about cells,
propagators, or lattices. Keep it that way.
"""

import itertools


def queens_solutions(n):
    """All n-queens placements, 1-indexed columns, in lexicographic order.

    Queens in distinct rows and distinct columns are exactly the
    permutations of the columns, so every permutation is tried and only
    the diagonals are tested."""
    out = []
    for qs in itertools.permutations(range(1, n + 1)):
        if all(abs(qs[i] - qs[j]) != j - i
               for i in range(n) for j in range(i + 1, n)):
            out.append(qs)
    return out


def send_more_money_solutions():
    """Digit assignments for SEND+MORE=MONEY with distinct digits and
    nonzero leading letters. Returns (send, more, money) triples."""
    out = []
    letters = "sendmory"
    for digits in itertools.permutations(range(10), len(letters)):
        a = dict(zip(letters, digits))
        if a["s"] == 0 or a["m"] == 0:
            continue
        send = 1000 * a["s"] + 100 * a["e"] + 10 * a["n"] + a["d"]
        more = 1000 * a["m"] + 100 * a["o"] + 10 * a["r"] + a["e"]
        money = (
            10000 * a["m"] + 1000 * a["o"] + 100 * a["n"] + 10 * a["e"] + a["y"]
        )
        if send + more == money:
            out.append((send, more, money))
    return out


def csp_solutions(meta):
    """All satisfying assignments of a random CSP described by its meta dict:
    {"vars": [names...], "domains": {name: [values...]},
     "constraints": [(kind, args...), ...]} with kinds:
       ("neq", x, y)      x != y
       ("leq", x, y)      x <= y
       ("eqsum", x, y, c) x + y == c
    """
    names = meta["vars"]
    domains = [meta["domains"][v] for v in names]
    cons = meta["constraints"]
    out = []
    for values in itertools.product(*domains):
        env = dict(zip(names, values))
        ok = True
        for con in cons:
            kind = con[0]
            if kind == "neq":
                holds = env[con[1]] != env[con[2]]
            elif kind == "leq":
                holds = env[con[1]] <= env[con[2]]
            elif kind == "eqsum":
                holds = env[con[1]] + env[con[2]] == con[3]
            else:
                raise ValueError(kind)
            if not holds:
                ok = False
                break
        if ok:
            out.append(dict(env))
    return out


def jobshop_optimum(jobs, n_machines):
    """Minimum makespan over all feasible schedules of a job-shop instance.

    jobs: per job, a list of (machine, duration) operations in order.
    Enumerates every interleaving of operations (sequencing decisions) and
    schedules each greedily at the earliest feasible time, which is optimal
    for a fixed operation order.
    """
    n_ops = sum(len(j) for j in jobs)
    counters = [0] * len(jobs)

    best = [None]

    def walk(done, machine_free, job_free):
        if done == n_ops:
            makespan = max(max(machine_free), max(job_free))
            if best[0] is None or makespan < best[0]:
                best[0] = makespan
            return
        # bound: the busy horizon only grows, so prune against the incumbent
        if best[0] is not None and max(max(machine_free), max(job_free)) >= best[0]:
            return
        for j, job in enumerate(jobs):
            k = counters[j]
            if k >= len(job):
                continue
            machine, dur = job[k]
            start = max(machine_free[machine], job_free[j])
            counters[j] += 1
            old_m, old_j = machine_free[machine], job_free[j]
            machine_free[machine] = start + dur
            job_free[j] = start + dur
            walk(done + 1, machine_free, job_free)
            machine_free[machine] = old_m
            job_free[j] = old_j
            counters[j] -= 1

    walk(0, [0] * n_machines, [0] * len(jobs))
    return best[0]


def lineworld_best_total(start, goal, horizon, move_cost=-1, goal_reward=10,
                         actions=(-1, 1)):
    """Best total reward over all action sequences on an unbounded 1-d line.

    Each step costs move_cost; a step that ends on the goal additionally
    earns goal_reward.
    """
    best = None
    for seq in itertools.product(actions, repeat=horizon):
        pos = start
        total = 0
        for a in seq:
            pos += a
            total += move_cost
            if pos == goal:
                total += goal_reward
        if best is None or total > best:
            best = total
    return best


def disjunctive_solutions(cells, statements):
    """Every assignment of a flat program's choices under which all its
    statements hold, as one {name: value} dict per assignment, in the order
    of `itertools.product` over the choices.

    cells: (name, kind, arg) triples in declaration order, where kind is
    "choose" (arg: the values it may take), "const" (arg: an int) or
    "sum" (arg: the names (a, b) whose values it adds).
    statements: ("lesseq", a, b), ("equal", a, b), ("sum", a, b, c) for
    a + b = c, and ("if", cond, then, else), whose `then` statements must
    hold when cond is nonzero and whose `else` statements must hold
    otherwise. Every number is an int, compared exactly.
    """
    choices = [(name, arg) for name, kind, arg in cells if kind == "choose"]
    out = []
    for point in itertools.product(*(values for _, values in choices)):
        picked = dict(zip((name for name, _ in choices), point))
        env = {}
        for name, kind, arg in cells:
            if kind == "choose":
                env[name] = picked[name]
            elif kind == "const":
                env[name] = arg
            else:
                env[name] = env[arg[0]] + env[arg[1]]
        if all(_holds(s, env) for s in statements):
            out.append(env)
    return out


def _holds(statement, env):
    head, *args = statement
    if head == "if":
        cond, then, other = args
        return all(_holds(s, env)
                   for s in (then if env[cond] != 0 else other))
    v = [env[a] for a in args]
    if head == "lesseq":
        return v[0] <= v[1]
    if head == "equal":
        return v[0] == v[1]
    if head == "sum":
        return v[0] + v[1] == v[2]
    raise ValueError(head)
