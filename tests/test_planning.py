"""Horizon and scheduling emitters checked against brute-force enumeration."""

import pytest

from fifth.language import parse
from fifth.planning import (
    HorizonProblem,
    JobShopInstance,
    emit_horizon_program,
    emit_jobshop_program,
    generate_random_csp,
)
from fifth.rng import SplitMix64
from fifth.search import optimize, solve

import oracles


def run_optimize(text):
    program = parse(text)
    return optimize(program, program.query)


def run_solve(text):
    program = parse(text)
    return solve(program, program.query)


def extract_schedule(inst, solution):
    """Earliest-start reading of a returned solution: {(job, op): start}.
    A start comes back exact or as a [lo, hi] slack interval; its lo end is
    feasible, since lower bounds only flow forward along precedence and
    ordering constraints."""
    out = {}
    for j, ops in enumerate(inst.jobs):
        for k in range(len(ops)):
            v = solution["cells"][f"s{j}x{k}"]
            out[(j, k)] = v[0] if isinstance(v, list) else v
    return out


def replay_schedule(inst, sched, makespan):
    """Independent feasibility check: precedence, one op per machine at a
    time, nothing finishing past the reported makespan."""
    for j, ops in enumerate(inst.jobs):
        for k in range(len(ops) - 1):
            if sched[(j, k)] + ops[k][1] > sched[(j, k + 1)]:
                return False
    by_machine = {}
    for j, ops in enumerate(inst.jobs):
        for k, (m, d) in enumerate(ops):
            by_machine.setdefault(m, []).append((sched[(j, k)], d))
    for runs in by_machine.values():
        runs.sort()
        for (s1, d1), (s2, _) in zip(runs, runs[1:]):
            if s1 + d1 > s2:
                return False
    for j, ops in enumerate(inst.jobs):
        last = len(ops) - 1
        if sched[(j, last)] + ops[last][1] > makespan:
            return False
    return True


# -- horizon problems -------------------------------------------------------


def test_zero_horizon_rejected():
    with pytest.raises(ValueError):
        HorizonProblem(horizon=0, start=0, goal=1)
    with pytest.raises(ValueError):
        HorizonProblem(horizon=-3, start=0, goal=1)


def test_horizon_action_validation():
    with pytest.raises(ValueError):
        HorizonProblem(horizon=2, start=0, goal=1, actions=())
    with pytest.raises(ValueError):
        HorizonProblem(horizon=2, start=0, goal=1, actions=(1, 1))
    with pytest.raises(ValueError):
        HorizonProblem(horizon=2, start=0, goal=1, actions=(1, 0.5))


def test_single_action_single_expansion():
    # one action, goal out of reach: nothing to branch, one gated call
    p = HorizonProblem(horizon=1, start=0, goal=5, actions=(1,))
    text = emit_horizon_program(p)
    assert text.count("(call ") == 1
    res = run_optimize(text)
    assert res.proven
    assert res.objective == 1  # one move at cost -1, negated
    assert res.stats["expansions"] == 1
    assert res.stats["nodes"] == 1


def test_goal_bonus_collected_on_arrival():
    p = HorizonProblem(horizon=1, start=0, goal=1, actions=(1,))
    res = run_optimize(emit_horizon_program(p))
    assert res.proven
    assert -res.objective == oracles.lineworld_best_total(0, 1, 1, actions=(1,))
    assert res.solution["cells"]["result"] == 9


def test_lineworld_optimum_matches_bruteforce():
    p = HorizonProblem(horizon=4, start=0, goal=3)
    res = run_optimize(emit_horizon_program(p))
    assert res.proven
    assert res.solution["cells"]["result"] == 6
    assert -res.objective == oracles.lineworld_best_total(0, 3, 4) == 6


@pytest.mark.parametrize("start,goal,horizon,actions", [
    (0, 2, 5, (-1, 1)),    # reach early, re-enter for a second bonus
    (1, -2, 4, (-1, 1)),
    (0, 6, 4, (-1, 1)),    # unreachable: pure move cost
    (0, 4, 6, (-1, 1, 2)),
])
def test_lineworld_family_matches_bruteforce(start, goal, horizon, actions):
    p = HorizonProblem(horizon=horizon, start=start, goal=goal, actions=actions)
    res = run_optimize(emit_horizon_program(p))
    want = oracles.lineworld_best_total(start, goal, horizon, actions=actions)
    assert res.proven
    assert -res.objective == want


def test_custom_costs_flow_through():
    p = HorizonProblem(horizon=3, start=0, goal=2, move_cost=-2, goal_reward=5)
    res = run_optimize(emit_horizon_program(p))
    want = oracles.lineworld_best_total(0, 2, 3, move_cost=-2, goal_reward=5)
    assert -res.objective == want


# -- job shop ----------------------------------------------------------------


def test_jobshop_validation():
    with pytest.raises(ValueError):
        JobShopInstance(jobs=(), machines=1)
    with pytest.raises(ValueError):
        JobShopInstance(jobs=(((0, 5),),), machines=0)
    with pytest.raises(ValueError):
        JobShopInstance(jobs=((),), machines=1)
    with pytest.raises(ValueError):
        JobShopInstance(jobs=(((0, 0),),), machines=1)
    with pytest.raises(ValueError):
        JobShopInstance(jobs=(((1, 5),),), machines=1)
    with pytest.raises(ValueError):
        JobShopInstance(jobs=(((0, 2), (0, 3)),), machines=2)


def test_horizon_bound_sums_durations():
    inst = JobShopInstance(jobs=(((0, 3), (1, 2)), ((1, 4),)), machines=2)
    assert inst.horizon_bound == 9


def test_single_op_makespan():
    inst = JobShopInstance(jobs=(((0, 5),),), machines=1)
    res = run_optimize(emit_jobshop_program(inst))
    assert res.proven
    assert res.objective == 5
    assert extract_schedule(inst, res.solution) == {(0, 0): 0}


def test_two_jobs_one_machine_serialize():
    inst = JobShopInstance(jobs=(((0, 3),), ((0, 4),)), machines=1)
    res = run_optimize(emit_jobshop_program(inst))
    assert res.proven
    assert res.objective == 7 == oracles.jobshop_optimum([[(0, 3)], [(0, 4)]], 1)
    sched = extract_schedule(inst, res.solution)
    assert replay_schedule(inst, sched, res.objective)


def test_three_by_three_matches_bruteforce():
    jobs = (((0, 3), (1, 2), (2, 2)),
            ((1, 2), (0, 1), (2, 4)),
            ((2, 3), (1, 3), (0, 1)))
    inst = JobShopInstance(jobs=jobs, machines=3)
    res = run_optimize(emit_jobshop_program(inst))
    want = oracles.jobshop_optimum([list(j) for j in jobs], 3)
    assert res.proven
    assert res.objective == want
    sched = extract_schedule(inst, res.solution)
    assert replay_schedule(inst, sched, res.objective)


def test_random_schedules_replay_feasibly():
    rng = SplitMix64(77)
    for _ in range(6):
        machines = rng.randrange(2, 3)
        jobs = []
        for _ in range(rng.randrange(2, 3)):
            order = list(range(machines))
            rng.shuffle(order)
            n_ops = rng.randrange(1, machines)
            jobs.append(tuple((m, rng.randrange(1, 4)) for m in order[:n_ops]))
        inst = JobShopInstance(jobs=tuple(jobs), machines=machines)
        res = run_optimize(emit_jobshop_program(inst))
        want = oracles.jobshop_optimum([list(j) for j in inst.jobs],
                                       inst.machines)
        assert res.proven
        assert res.objective == want
        sched = extract_schedule(inst, res.solution)
        assert replay_schedule(inst, sched, res.objective)


def test_js44_optimum_within_150_nodes():
    # js44, the pinned 4x4 job-shop: an ordering bit whose branch the bounds
    # already rule out is refuted from the dormant scan, not searched
    rng = SplitMix64(4)
    jobs = []
    for _ in range(4):
        order = list(range(4))
        rng.shuffle(order)
        jobs.append(tuple((m, 1 + rng.randint(9)) for m in order))
    inst = JobShopInstance(jobs=tuple(jobs), machines=4)
    res = run_optimize(emit_jobshop_program(inst))
    assert res.objective == 28 and res.proven
    assert res.stats["nodes"] <= 150
    assert replay_schedule(inst, extract_schedule(inst, res.solution), 28)


# -- random CSPs ------------------------------------------------------------


def test_same_seed_same_instance():
    a = generate_random_csp(6, 4, 0.4, seed=42)
    b = generate_random_csp(6, 4, 0.4, seed=42)
    assert a == b


def test_different_seeds_differ():
    texts = {generate_random_csp(6, 4, 0.4, seed=s)[0] for s in range(8)}
    assert len(texts) > 1


def test_density_zero_is_unconstrained():
    text, meta = generate_random_csp(3, 2, 0.0, seed=5)
    assert meta["constraints"] == []
    res = run_solve(text)
    assert res.stats["complete"]
    assert len(res.solutions) == 2 ** 3


def test_generator_bounds_enforced():
    with pytest.raises(ValueError):
        generate_random_csp(11, 4, 0.4, seed=0)
    with pytest.raises(ValueError):
        generate_random_csp(6, 7, 0.4, seed=0)
    with pytest.raises(ValueError):
        generate_random_csp(0, 4, 0.4, seed=0)
    with pytest.raises(ValueError):
        generate_random_csp(6, 4, 1.5, seed=0)


def test_solution_counts_match_bruteforce():
    # the full 50-instance sweep runs with the acceptance suite; a dozen
    # seeds here keep the module test quick while covering unsat cases too
    for seed in range(12):
        text, meta = generate_random_csp(6, 4, 0.4, seed=seed)
        res = run_solve(text)
        assert res.stats["complete"]
        got = {tuple(sorted(s["cells"].items())) for s in res.solutions}
        want = {tuple(sorted(w.items())) for w in oracles.csp_solutions(meta)}
        assert got == want


def test_meta_mirrors_text():
    text, meta = generate_random_csp(6, 4, 0.9, seed=3)
    kinds = [c[0] for c in meta["constraints"]]
    assert text.count("(alldiff ") == kinds.count("neq")
    assert text.count("(lesseq ") == kinds.count("leq")
    assert text.count("(const k") == kinds.count("eqsum")
