"""Surface language: s-expression programs over cells and constraints.

A program is a set of definitions. Instantiating one builds a propagator
network. A call becomes a child frame, unexpanded until demand reaches it.
An `if` decided as its body runs opens its branch there; any other waits
dormant until its condition decides, or refutes the condition once the
branch cannot hold. Neither is attached before it opens, so recursion is
unbounded but only paid for where information flows.

`parse` compiles each body straight to the form that runs: a plan, one
(opcode, name, operand) triple per statement with its lattice values built
once, checked for syntax and scope in the same pass. A body (a frame's, or
an opened branch's) is attached by running its plan, so a recursion reads
its program text once, and each constant value is one cell every frame
shares (see `instantiate`).
"""

import math
from collections import namedtuple

from .errors import ParseError, StructuralError
from .lattice import (
    INT_LIMIT,
    Exact,
    PartialInfo,
    bounds_of,
    exact,
    finite_domain,
    int_interval,
    merge,
    truth_value,
    width_of,
)
from .network import Network, QuiescenceReport

# deepest `if` nesting a definition may have; compiling, opening decided
# `if`s in place and `may_post` recurse once per level, within the stack
MAX_IF_NESTING = 200


class Definition:
    __slots__ = ("name", "params", "plan", "__weakref__")

    def __init__(self, name, params, plan):
        self.name = name
        self.params = params
        self.plan = plan  # compiled body, see `_compile`


class Query(namedtuple("Query", "entry bindings show depth steps nodes"
                       " precision minimize",
                       defaults=((), (), 10_000, 1_000_000, 100_000, 0,
                                 None))):
    """What to run, under the names the query syntax and the CLI flags use:
    the entry definition, its bindings ((name, integer), ...), the names to
    show, the expansion, step and node budgets, the width a shown range may
    keep, and the name to minimize, if any."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        query = super().__new__(cls, *args, **kwargs)
        if min(query.depth, query.steps, query.nodes, query.precision) < 0:
            raise ValueError("budgets must be >= 0")
        return query

    @classmethod
    def _make(cls, iterable):  # so `_replace` checks the budgets too
        return cls(*iterable)


class Program:
    __slots__ = ("definitions", "query", "constants", "__weakref__")

    def __init__(self, definitions, query=None, constants=()):
        self.definitions = definitions
        self.query = query
        self.constants = constants  # the value of each shared cell, by id


# -- tokenizer / reader ------------------------------------------------------


def _tokenize(text):
    toks = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            col += 1
            i += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "()":
            toks.append((ch, line, col))
            col += 1
            i += 1
        else:
            j = i
            while j < n and text[j] not in " \t\r\n();":
                j += 1
            toks.append((text[i:j], line, col))
            col += j - i
            i = j
    return toks


class _Reader:
    def __init__(self, toks):
        self.toks = toks
        self.pos = 0

    def at_end(self):
        return self.pos >= len(self.toks)

    def read(self):
        """One datum: an atom as (token, line, col), a list as (items, line,
        col). Open lists sit on an explicit stack, so nesting depth is not
        limited by the Python stack."""
        open_lists = []
        while True:
            if self.at_end():
                _, line, col = open_lists[-1]
                raise ParseError("unterminated list", line, col)
            tok, line, col = self.toks[self.pos]
            self.pos += 1
            if tok == "(":
                open_lists.append(([], line, col))
                continue
            if tok == ")":
                if not open_lists:
                    raise ParseError("unexpected )", line, col)
                node = open_lists.pop()
            else:
                node = (tok, line, col)
            if not open_lists:
                return node
            open_lists[-1][0].append(node)


def _is_list(node):
    return isinstance(node[0], list)


def _atom(node, what="name"):
    if _is_list(node):
        raise ParseError(f"expected {what}, got a list", node[1], node[2])
    return node[0]


def _int_atom(node):
    """The integer a literal spells, strictly within ±2^62: a computed value
    at or past that limit cuts its branch, so no literal may start there."""
    tok = _atom(node, "integer")
    try:
        value = int(tok)
    except ValueError:
        raise ParseError(f"expected integer, got {tok!r}", node[1], node[2])
    if not -INT_LIMIT < value < INT_LIMIT:
        raise ParseError("integer literal out of range", node[1], node[2])
    return value


# -- parsing ------------------------------------------------------------------


def parse(text: str) -> Program:
    """Parse program text and compile every body to its plan, checking
    names, arities and the query form. Faults in bodies are reported in
    source order, once every definition header is read."""
    reader = _Reader(_tokenize(text))
    headers = {}  # name -> (params, body nodes)
    query, named = None, ()
    while not reader.at_end():
        node = reader.read()
        if not _is_list(node) or not node[0]:
            raise ParseError("expected (def ...) or (query ...)", node[1], node[2])
        head = _atom(node[0][0], "form name")
        if head == "def":
            if query is not None:
                raise ParseError("definitions must precede the query",
                                 node[1], node[2])
            name, params = _parse_header(node)
            if name in headers:
                raise ParseError(f"duplicate definition {name!r}",
                                 node[1], node[2])
            headers[name] = (params, node[0][2:])
        elif head == "query":
            if query is not None:
                raise ParseError("only one query form allowed", node[1], node[2])
            query, named = _parse_query(node)
        else:
            raise ParseError(f"unknown form {head!r}", node[0][0][1], node[0][0][2])
    arities = {name: params for name, (params, _) in headers.items()}
    constants = {}  # value -> id of its shared cell
    program = Program({
        name: Definition(name, params, _compile(
            body, name, arities, set(params), [], constants))
        for name, (params, body) in headers.items()}, query, tuple(constants))
    _check_query(program, named)
    return program


def _parse_header(node):
    items, line, col = node
    if len(items) < 2 or not _is_list(items[1]) or not items[1][0]:
        raise ParseError("def needs a (name params...) header", line, col)
    header = items[1][0]
    name = _atom(header[0])
    params = tuple(_atom(p) for p in header[1:])
    if len(set(params)) != len(params):
        raise ParseError(f"duplicate parameter in {name!r}",
                         items[1][1], items[1][2])
    return name, params


# statements that take a fixed number of arguments
_ARITY = {"cell": 1, "int": 3, "const": 2, "sum": 3, "product": 3,
          "equal": 2, "lesseq": 2, "if": 3}
# relation statement -> propagator kind
_KIND = {"sum": "sum", "product": "product", "equal": "equal",
         "lesseq": "less_equal"}


def _compile(nodes, dname, arities, known, declared, constants, nesting=0):
    """The plan of the statements `nodes` in definition `dname`, checked as
    it is built: one (opcode, name, operand) triple per statement, with its
    lattice values built once. `known` is the scope, names declared so far,
    which `if` branches share with the enclosing body; every name this body
    and its nested branches declare is appended to `declared`. A new
    top-level local with an exact value names its value's shared cell, by
    its id in `constants`. An `if` holds, for each non-empty branch, its
    polarity, its plan, the names it declares and its tests: its top-level
    `lesseq`, `equal` and `sum`."""
    plan = []
    for node in nodes:
        if not _is_list(node) or not node[0]:
            raise ParseError("expected a statement", node[1], node[2])
        items, line, col = node
        head = _atom(items[0], "statement name")
        args = items[1:]
        n = _ARITY.get(head)
        if n is not None and len(args) != n:
            raise ParseError(f"{head} takes {n} arguments, got {len(args)}",
                             line, col)
        if head in ("cell", "int", "const"):
            name = _atom(args[0])
            if head == "cell":
                if name in known:
                    raise ParseError(f"duplicate cell {name!r} in {dname!r}",
                                     line, col)
                value = None
            elif head == "int":
                value = int_interval(_int_atom(args[1]), _int_atom(args[2]))
            else:
                value = exact(_int_atom(args[1]))
            if nesting == 0 and name not in known and type(value) is Exact:
                plan.append(("constant", name,
                             constants.setdefault(value, len(constants))))
            else:
                plan.append(("declare", name, value))
            known.add(name)
            declared.append(name)
        elif head in _KIND:
            plan.append(("attach", _KIND[head],
                         _names(args, known, dname, line, col)))
        elif head == "alldiff":
            if len(args) < 2:
                raise ParseError("alldiff needs at least two cells", line, col)
            plan.append(("attach", "alldifferent",
                         _names(args, known, dname, line, col)))
        elif head == "choose":
            if len(args) < 2:
                raise ParseError("choose needs a cell and at least one value",
                                 line, col)
            name, = _names(args[:1], known, dname, line, col)
            plan.append(("choose", name,
                         finite_domain(_int_atom(a) for a in args[1:])))
        elif head == "if":
            if nesting >= MAX_IF_NESTING:
                raise ParseError(f"if nested more than {MAX_IF_NESTING} deep",
                                 line, col)
            cond, = _names(args[:1], known, dname, line, col)
            branches = []
            for polarity, branch in ((True, args[1]), (False, args[2])):
                if not _is_list(branch):
                    raise ParseError("if branches must be statement lists",
                                     branch[1], branch[2])
                if branch[0]:
                    local = []
                    body = _compile(branch[0], dname, arities, known, local,
                                    constants, nesting + 1)
                    tests = tuple(op[1:] for op in body if op[0] == "attach"
                                  and op[1] in ("less_equal", "equal", "sum"))
                    branches.append((polarity, body,
                                     tuple(dict.fromkeys(local)), tests))
                    declared += local
            plan.append(("if", cond, tuple(branches)))
        elif head == "call":
            if not args:
                raise ParseError("call needs a target", line, col)
            target = _atom(args[0])
            params = arities.get(target)
            if params is None:
                raise ParseError(
                    f"call to undefined {target!r} in {dname!r}", line, col)
            if len(args) - 1 != len(params):
                raise ParseError(
                    f"call to {target!r} with {len(args) - 1} args,"
                    f" expected {len(params)}",
                    line, col,
                )
            names = _names(args[1:], known, dname, line, col)
            plan.append(("call", target, tuple(zip(params, names))))
        else:
            raise ParseError(f"unknown statement {head!r}", line, col)
    return tuple(plan)


def _names(nodes, known, dname, line, col):
    """The names `nodes` spell, each declared before the statement at
    (line, col) uses it."""
    names = tuple(_atom(a) for a in nodes)
    for name in names:
        if name not in known:
            raise ParseError(f"unbound name {name!r} in {dname!r}", line, col)
    return names


def _parse_query(node):
    """The query, and the names it uses that must be parameters of
    its entry, in source order as (role, atom node) pairs, entry first."""
    items, line, col = node
    if len(items) < 3 or not _is_list(items[1]) or not items[1][0]:
        raise ParseError("query needs (entry bindings...) and (show ...)",
                         line, col)
    header = items[1][0]
    entry = _atom(header[0])
    named = [("entry", header[0])]
    bindings = []
    for b in header[1:]:
        if not _is_list(b) or len(b[0]) != 2:
            raise ParseError("binding must be (name integer)", b[1], b[2])
        name = _atom(b[0][0])
        if any(name == bound for bound, _ in bindings):
            raise ParseError(f"repeated binding {name!r}", b[1], b[2])
        bindings.append((name, _int_atom(b[0][1])))
        named.append(("binding", b[0][0]))
    show_node = items[2]
    if (
        not _is_list(show_node)
        or not show_node[0]
        or _atom(show_node[0][0]) != "show"
    ):
        raise ParseError("query needs a (show ...) clause",
                         show_node[1], show_node[2])
    show = []
    for s in show_node[0][1:]:
        if _atom(s) in show:
            raise ParseError(f"repeated show target {s[0]!r}", s[1], s[2])
        show.append(s[0])
    named += [("show target", s) for s in show_node[0][1:]]
    opts = {}
    for opt in items[3:]:
        if not _is_list(opt) or len(opt[0]) != 2:
            raise ParseError("option must be (name value)", opt[1], opt[2])
        key = _atom(opt[0][0])
        if key in opts:
            raise ParseError(f"repeated query option {key!r}", opt[1], opt[2])
        if key in ("depth", "steps", "precision"):
            opts[key] = _int_atom(opt[0][1])
            if opts[key] < 0:
                raise ParseError(f"{key} must be >= 0", opt[1], opt[2])
        elif key == "minimize":
            opts[key] = _atom(opt[0][1])
            named.append(("minimize target", opt[0][1]))
        else:
            raise ParseError(f"unknown query option {key!r}", opt[1], opt[2])
    return Query(entry, tuple(bindings), tuple(show), **opts), named


def _check_query(program, named):
    """Each fault names the position of the offending atom of `named`."""
    for role, (name, line, col) in named:
        if role == "entry":
            if name not in program.definitions:
                raise ParseError(f"query names undefined {name!r}", line, col)
            entry, params = name, program.definitions[name].params
        elif name not in params:
            raise ParseError(
                f"{role} {name!r} is not a parameter of {entry!r}", line, col)


# -- frames and instances ------------------------------------------------------

UNEXPANDED = "unexpanded"
EXPANDED = "expanded"
SUMMARIZED = "summarized"


class Frame:
    """One activation of a definition; a unit of laziness and summarization.

    A frame exists once its call is attached, in an expanded body or an
    opened `if` branch, so nothing conditions it: it waits unexpanded until
    demand reaches it, and its body is then elaborated like the root's.
    `cellmap` maps the definition's names to cell ids, its parameters (the
    caller's argument cells) from the start and its locals once expanded.
    A summarized frame has folded (see `search.collect_garbage`): its
    `cellmap` is empty and the cells it owned are dropped. No frame changes
    once another instance can see it, so clones share frames: expanding or
    folding one puts a new frame in its instance's list, and opening a
    dormant branch adds no name, as its `if` declared them all.
    """

    __slots__ = ("id", "defname", "parent", "depth", "cellmap", "state")

    def __init__(self, fid, defname, parent, depth, cellmap, state):
        self.id = fid
        self.defname = defname
        self.parent = parent
        self.depth = depth
        self.cellmap = cellmap
        self.state = state

    def boundary_cells(self, program):
        params = program.definitions[self.defname].params
        return tuple(self.cellmap[p] for p in params)

    def __repr__(self):
        return f"Frame({self.id}, {self.defname}, depth={self.depth}, {self.state})"


# the cell of an attached `choose`, which search may branch on
ChoicePoint = namedtuple("ChoicePoint", "cell frame")


DemandReport = namedtuple(
    "DemandReport", "steps_used expansions contradiction targets_met"
    " depth_exhausted steps_exhausted")


class Instance:
    """A program wired into a live network plus its frame tree."""

    def __init__(self, program, network, frames, choices, expansions=0,
                 unexpanded=None, dormant=None):
        self.program = program
        self.network = network
        self.frames = frames
        self.choices = choices
        self.expansions = expansions
        # ids of frames awaiting expansion, ascending
        self.unexpanded = [] if unexpanded is None else unexpanded
        # `if` branches not attached yet, each (frame id, condition cell,
        # polarity, plan, tests), until `settle` opens or drops them
        self.dormant = [] if dormant is None else dormant

    @property
    def root(self):
        return self.frames[0]

    def cell_of(self, fid, name):
        try:
            return self.frames[fid].cellmap[name]
        except KeyError:
            raise StructuralError(f"frame {fid} has no cell {name!r}")

    def clone(self):
        return Instance(
            self.program,
            self.network.clone(),
            self.frames[:],  # frames never change, see `Frame`
            list(self.choices),
            self.expansions,
            list(self.unexpanded),
            list(self.dormant),
        )


def instantiate(program: Program, name: str, bindings=None) -> Instance:
    """Build the root frame of `name`, attach its constraints, apply writes.
    The shared constant cells come first: cell i holds `constants[i]`."""
    d = program.definitions.get(name)
    if d is None:
        raise StructuralError(f"unknown definition {name!r}")
    net = Network()
    for value in program.constants:
        spelled = f"(const {value.value})"  # a name no token can spell
        net.write(net.add_cell(("", spelled)), value, f"decl:{spelled}")
    cellmap = {}
    root = Frame(0, name, None, 0, cellmap, EXPANDED)
    inst = Instance(program, net, [root], [])
    for p in d.params:
        cellmap[p] = net.add_cell((0, p))
    _elaborate_body(inst, root, d.plan)
    for pname, value in (bindings or {}).items():
        if pname not in cellmap:
            raise StructuralError(
                f"{name!r} has no parameter {pname!r} to bind"
            )
        info = value if isinstance(value, PartialInfo) else exact(value)
        net.write(cellmap[pname], info, f"bind:{pname}")
    return inst


def _elaborate_body(inst, frame, plan):
    """Attach a body in `frame` by running its plan. An `if` whose condition
    already has a truth value opens the matching branch on the spot and
    drops the other; an undecided one's non-empty branches wait dormant."""
    net = inst.network
    cellmap = frame.cellmap
    fid = frame.id
    for op, name, operand in plan:
        if op == "declare":
            cid = cellmap.get(name)
            if cid is None:
                cid = cellmap[name] = net.add_cell((fid, name))
            if operand is not None:
                net.write(cid, operand, f"decl:{fid}:{name}")
        elif op == "constant":
            cellmap[name] = operand
        elif op == "attach":
            net.attach(name, [cellmap[a] for a in operand])
        elif op == "if":
            # a branch's names are visible after the `if`, opened or not
            cond = cellmap[name]
            truth = truth_value(net.contents[cond])
            for polarity, branch, declared, tests in operand:
                for local in declared:
                    if local not in cellmap:
                        cellmap[local] = net.add_cell((fid, local))
                if truth is None:
                    inst.dormant.append((fid, cond, polarity, branch, tests))
                elif truth == polarity:
                    _elaborate_body(inst, frame, branch)
        elif op == "call":
            # the callee's parameters are the caller's argument cells
            # themselves, so a call adds no cell and no propagator
            child_id = len(inst.frames)
            inst.frames.append(Frame(
                child_id, name, fid, frame.depth + 1,
                {p: cellmap[a] for p, a in operand}, UNEXPANDED))
            inst.unexpanded.append(child_id)
        else:  # "choose"
            cid = cellmap[name]
            net.write(cid, operand, f"decl:{fid}:{name}")
            inst.choices.append(ChoicePoint(cid, fid))


def expand(inst: Instance, frame_id: int) -> Frame:
    """Attach the body of an unexpanded frame, elaborated like the root's,
    into the expanded frame that replaces it (clones may share the old)."""
    f = inst.frames[frame_id]
    if f.state == SUMMARIZED:
        raise StructuralError(f"frame {frame_id} is summarized; not expandable")
    if f.state == EXPANDED:
        raise StructuralError(f"frame {frame_id} is already expanded")
    inst.unexpanded.remove(frame_id)
    frame = inst.frames[frame_id] = Frame(
        frame_id, f.defname, f.parent, f.depth, dict(f.cellmap), EXPANDED)
    _elaborate_body(inst, frame, inst.program.definitions[f.defname].plan)
    inst.expansions += 1
    return frame


def _open_decided(inst, test):
    """Open every dormant branch whose condition holds and drop every one
    it refutes. With `test`, then refute the undecided condition of each
    branch that fails a test, by the write `refute:{cell}`: 0 for a
    then-branch, else no 0 in its finite domain or at its integer interval's
    end. Returns whether a branch opened or a condition was written."""
    contents = inst.network.contents
    kept, refuted, opened = [], [], False
    # opening appends nested branches to inst.dormant; the loop visits them
    for entry in inst.dormant:
        fid, cond, polarity, plan, tests = entry
        truth = truth_value(contents[cond])
        if truth is None:
            kept.append(entry)
            if test and _fails(contents, inst.frames[fid].cellmap, tests):
                refuted.append((cond, exact(0) if polarity else contents[cond]))
        elif truth == polarity:
            _elaborate_body(inst, inst.frames[fid], plan)
            opened = True
    inst.dormant = kept
    for cond, info in refuted:  # for an else-branch, the condition's content
        if info.kind == "finite_domain":
            info = finite_domain(e for e in info.elements if e)
        elif info.kind == "int_interval" and 0 in (info.lo, info.hi):
            info = int_interval(info.lo or 1, info.hi or -1)
        elif info.kind != "exact":  # no other value says "not 0"
            continue
        inst.network.write(cond, info, f"refute:{cond}")
        opened = True  # cond changed, here or by an earlier write or opening
    return opened


def _fails(contents, cellmap, tests):
    """Whether some test, a (kind, names) pair, can no longer hold, so never
    will: its first write would contradict there."""
    for kind, names in tests:
        cells = [contents[cellmap[n]] for n in names]
        if kind == "equal":  # a = b writes b into a
            if merge(cells[0], cells[1]).kind == "contradiction":
                return True
            continue
        # a <= b puts a in b + (-inf, 0]; a + b = c puts c in a + b
        ra = (-math.inf, 0) if kind == "less_equal" else bounds_of(cells[0])
        rb = bounds_of(cells[1])
        rt = bounds_of(cells[2 if kind == "sum" else 0])
        if ra and rb and rt and (
                ra[0] + rb[0] > rt[1] or rt[0] > ra[1] + rb[1]):
            return True  # bounds that do not meet
    return False


def settle(inst: Instance, step_budget=None) -> QuiescenceReport:
    """Quiesce, opening the dormant branches that decide (an `if` decided
    as its body ran is open already). Each round scans them (see
    `_open_decided`; tests wait for the first quiescence), then quiesces;
    rounds repeat until a scan neither opens nor writes."""
    net = inst.network
    if not inst.dormant:
        return net.run_to_quiescence(step_budget)
    rep = None
    steps = 0
    while _open_decided(inst, rep is not None) or rep is None:
        rep = net.run_to_quiescence(
            None if step_budget is None else step_budget - steps)
        steps += rep.steps_used
        if not rep.quiescent:
            break
    return QuiescenceReport(steps, rep.quiescent, rep.contradiction)


def may_post(inst, ops):
    """Ids of the frames with a dormant branch that may still run a plan op
    whose opcode is in `ops` (such as "choose" or "call"): one in the
    branch, or in a nested `if` branch whose condition does not refute it."""
    if not inst.dormant:
        return set()
    contents = inst.network.contents

    def could(cellmap, plan):
        for op, name, operand in plan:
            if op in ops:
                return True
            if op == "if":
                truth = truth_value(contents[cellmap[name]])
                for polarity, branch, _, _ in operand:
                    if truth in (None, polarity) and could(cellmap, branch):
                        return True
        return False

    return {fid for fid, _, _, plan, _ in inst.dormant
            if could(inst.frames[fid].cellmap, plan)}


def unsettled_choices(inst):
    """The attached choices search may still branch on: those of expanded
    frames whose cell is not exact, in attachment order. The others are
    settled for good (an exact cell stays exact, a folded frame stays
    folded), so they leave `inst.choices` and clones stop copying them."""
    frames, contents = inst.frames, inst.network.contents
    inst.choices = [cp for cp in inst.choices
                    if frames[cp.frame].state == EXPANDED
                    and contents[cp.cell].kind != "exact"]
    return inst.choices


def targets_met(inst, targets, precision=0) -> bool:
    contents = inst.network.contents  # target cells are never dropped
    for cid in targets:
        content = contents[cid]
        if content.kind == "exact":
            continue
        w = width_of(content)
        if w is None or w > precision:
            return False
    return True


def demand_loop(inst: Instance, targets, depth_budget: int, step_budget: int,
                precision: int = 0) -> DemandReport:
    """Alternate `settle` with expanding the lowest-id unexpanded frame
    until the targets are pinned down, the budgets run out, or the instance
    contradicts."""
    if depth_budget < 0 or step_budget < 0:
        raise ValueError("budgets must be >= 0")
    net = inst.network
    expansions = 0
    steps = settle(inst, step_budget).steps_used
    depth_exhausted = False
    while True:
        met = targets_met(inst, targets, precision)
        if met or net.contradiction is not None:
            break
        if steps >= step_budget and not net.quiescent:
            break
        if expansions >= depth_budget:
            depth_exhausted = True
            break
        if not inst.unexpanded:
            break
        expand(inst, inst.unexpanded[0])
        expansions += 1
        steps += settle(inst, step_budget - steps).steps_used
    return DemandReport(
        steps_used=steps,
        expansions=expansions,
        contradiction=net.contradiction,
        targets_met=met,
        depth_exhausted=depth_exhausted,
        steps_exhausted=steps >= step_budget and not net.quiescent,
    )
