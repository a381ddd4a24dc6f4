"""Independent reference implementations used as test oracles.

These deliberately enumerate without pruning or memoization so that the
optimized solvers can be checked against them on small instances.
"""
import itertools
import random

from firecontain.classify import EscapePath
from firecontain.embedding import build
from firecontain.engine import (
    DEFAULT_PROBES,
    ContainmentResult,
    FireState,
    RoundRecord,
    Schedule,
    SimTrace,
    SnResult,
    frontier,
    ignite,
    min_burned_containment,
    null_strategy,
    plan_strategy,
    run_simulation,
)
from firecontain.errors import NotApplicable, StrategyBudgetViolation
from firecontain.families import HEX_DIRS, RECT_DIRS, cycle
from firecontain.strategies import lattice_probes, load_plan, mapped_plan


# -- the round engine that re-unions the frontier every round ----------------

def run_simulation_reference(g, start, schedule, strategy):
    """``engine.run_simulation`` without a carried frontier: every round
    takes the frontier from the whole burning set, and the strategy sees
    states that carry none."""
    state = ignite(start)
    rounds = []
    while frontier(g, state.burning, state.protected):
        round_no = state.round + 1
        budget = schedule.budget(round_no)
        prot = sorted(set(strategy(g, state, budget)))
        nxt = _advance_round_reference(g, state, prot, budget)
        rounds.append(RoundRecord(tuple(prot),
                                  tuple(sorted(nxt.burning - state.burning))))
        state = nxt
    return SimTrace(start=start, schedule=schedule, rounds=tuple(rounds),
                    saved=g.n - len(state.burning), n=g.n)


def _advance_round_reference(g, state, protections, budget):
    prot = frozenset(protections)
    if len(prot) > budget:
        raise StrategyBudgetViolation(
            f"{len(prot)} protections exceed budget {budget}")
    clash = prot & (state.burning | state.protected)
    if clash:
        raise StrategyBudgetViolation(
            f"cannot protect burning/protected vertices {sorted(clash)}")
    protected = state.protected | prot
    newly = frontier(g, state.burning, protected)
    return FireState(state.burning | newly, protected, state.round + 1)


def sn_reference(g, start, schedule):
    """Maximum saved count by enumerating every protection sequence,
    including protecting fewer vertices than the budget."""
    best = [0]

    def rec(burning, protected, round_no):
        front = frontier(g, burning, protected)
        if not front:
            best[0] = max(best[0], g.n - len(burning))
            return
        budget = schedule.budget(round_no)
        free = [v for v in range(g.n)
                if v not in burning and v not in protected]
        for k in range(min(budget, len(free)) + 1):
            for combo in itertools.combinations(free, k):
                prot = protected | frozenset(combo)
                newly = frontier(g, burning, prot)
                rec(burning | newly, prot, round_no + 1)

    rec(frozenset([start]), frozenset(), 1)
    return best[0]


def containment_reference(g, start, schedule, burn_cap, round_cap):
    """True iff some protection sequence keeps the burned count within
    burn_cap and contains the fire within round_cap rounds."""

    def rec(burning, protected, round_no):
        if len(burning) > burn_cap:
            return False
        front = frontier(g, burning, protected)
        if not front:
            return True
        if round_no > round_cap:
            return False
        budget = schedule.budget(round_no)
        free = [v for v in range(g.n)
                if v not in burning and v not in protected]
        for k in range(min(budget, len(free)) + 1):
            for combo in itertools.combinations(free, k):
                prot = protected | frozenset(combo)
                newly = frontier(g, burning, prot)
                if rec(burning | newly, prot, round_no + 1):
                    return True
        return False

    return rec(frozenset([start]), frozenset(), 1)


# -- the exact searches on frozenset states -----------------------------------
#
# The memoized searches as they were before the bitset layer: the same
# keys and candidate order, so values, statuses and witnesses must match
# the engine's.  They enter every child, so the engine's searches, which
# prune and count a block of dead children as one node, take no more
# nodes, and a timeout below the engine's own full count matches node for
# node.

class _NodeLimit(Exception):
    pass


def _reachable_free(g, burning, protected):
    """Distances from the burning set through free vertices."""
    dist = {}
    queue = []
    for u in burning:
        for w in g.adjacency[u]:
            if w not in burning and w not in protected and w not in dist:
                dist[w] = 1
                queue.append(w)
    for u in queue:
        for w in g.adjacency[u]:
            if w not in burning and w not in protected and w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def sn_exact_frozenset(g, start, schedule, node_limit=10_000_000):
    """``engine.sn_exact`` over frozenset states."""
    n = g.n
    memo = {}
    nodes = 0
    best_probe = None
    for probe in DEFAULT_PROBES:
        t = run_simulation(g, start, schedule, probe)
        if best_probe is None or t.saved > best_probe.saved:
            best_probe = t

    def solve(burning, protected, round_no):
        nonlocal nodes
        nodes += 1
        if nodes > node_limit:
            raise _NodeLimit
        budget = schedule.budget(round_no)
        dist = _reachable_free(g, burning, protected)
        if not any(d == 1 for d in dist.values()):
            return n - len(burning), []
        relevant_prot = frozenset(
            p for p in protected
            if any(w in dist or w in burning for w in g.adjacency[p]))
        key = (burning, relevant_prot, budget)
        if key in memo:
            return memo[key]
        cands = sorted(dist, key=lambda v: (dist[v], -g.degree(v), v))
        k = min(budget, len(cands))
        best_val, best_plan = -1, None
        for combo in itertools.combinations(cands, k):
            prot2 = protected | frozenset(combo)
            burn2 = burning | frontier(g, burning, prot2)
            if n - len(burn2) <= best_val:
                continue
            val, plan = solve(burn2, prot2, round_no + 1)
            if val > best_val:
                best_val, best_plan = val, [list(combo)] + plan
        if best_val < 0:
            best_val, best_plan = n - len(burning), []
        memo[key] = (best_val, best_plan)
        return best_val, best_plan

    try:
        value, plan = solve(frozenset([start]), frozenset(), 1)
    except _NodeLimit:
        return SnResult(value=best_probe.saved, trace=best_probe,
                        optimal=False, nodes=nodes)
    trace = run_simulation(g, start, schedule, plan_strategy(plan))
    assert trace.saved == value
    return SnResult(value=value, trace=trace, optimal=True, nodes=nodes)


def contain_by_dfs_frozenset(g, start, schedule, burn_cap, round_bound,
                             node_limit):
    """``engine._contain_by_dfs`` over frozenset states, flooding the free
    component at every node."""
    nodes = 0
    failed = set()
    found = []

    def rec(burning, protected, round_no):
        nonlocal nodes
        nodes += 1
        if nodes > node_limit:
            raise _NodeLimit
        dist = _reachable_free(g, burning, protected)
        front = [v for v, d in dist.items() if d == 1]
        if not front:
            found.append([])
            return True
        if round_no > round_bound:
            return False
        allowance = burn_cap - len(burning)
        budget = schedule.budget(round_no)
        if len(front) - budget > allowance:
            return False
        relevant_prot = frozenset(
            p for p in protected
            if any(w in dist or w in burning for w in g.adjacency[p]))
        key = (burning, relevant_prot, round_no)
        if key in failed:
            return False
        cands = sorted((v for v, d in dist.items() if d <= allowance + 1),
                       key=lambda v: (dist[v], -g.degree(v), v))
        k = min(budget, len(cands))
        for combo in itertools.combinations(cands, k):
            prot2 = protected | frozenset(combo)
            burn2 = burning | frontier(g, burning, prot2)
            if len(burn2) > burn_cap:
                continue
            if rec(burn2, prot2, round_no + 1):
                found[0].insert(0, list(combo))
                return True
        failed.add(key)
        return False

    try:
        ok = rec(frozenset([start]), frozenset(), 1)
    except _NodeLimit:
        return ContainmentResult("timeout", proven=False, nodes=nodes)
    if not ok:
        return ContainmentResult("infeasible", proven=True, nodes=nodes)
    trace = run_simulation(g, start, schedule, plan_strategy(found[0]))
    assert trace.burned_count <= burn_cap
    return ContainmentResult("feasible", trace=trace, proven=True,
                             nodes=nodes)


def wall_deadlines(g, start, region):
    """Each vertex next to ``region`` with the round the fire reaches it
    when it burns freely inside ``region`` from ``start``."""
    dist = {start: 0}
    queue = [start]
    for u in queue:
        for w in g.adjacency[u]:
            if w in region and w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    walls = {}
    for u in region:
        for w in g.adjacency[u]:
            if w not in region:
                walls[w] = min(walls.get(w, dist[u] + 1), dist[u] + 1)
    return dist, walls


def wall_schedule_reference(g, start, schedule, region, round_bound):
    """The earliest-deadline-first wall plan, placing every wall before it
    gives up."""
    dist, walls = wall_deadlines(g, start, region)
    plan = []
    for w, deadline in sorted(walls.items(), key=lambda kv: (kv[1], kv[0])):
        # the first round up to the deadline with a free protection slot
        round_no = 1
        while round_no <= deadline:
            used = len(plan[round_no - 1]) if round_no <= len(plan) else 0
            if used < schedule.budget(round_no):
                break
            round_no += 1
        if round_no > deadline:
            return None
        while len(plan) < round_no:
            plan.append([])
        plan[round_no - 1].append(w)
    if max(len(plan), max(dist.values())) > round_bound:
        return None
    return plan


def contain_by_regions_reference(g, start, schedule, burn_cap, round_bound):
    """The containment decision by region enumeration: "feasible" iff
    some connected region of at most ``burn_cap`` vertices around the
    start has a wall that can be protected before the fire, burning freely
    inside the region, reaches it, within ``round_bound`` rounds."""
    feasible = any(
        wall_schedule_reference(g, start, schedule, region, round_bound)
        is not None
        for region in connected_subsets_reference(g, start, burn_cap))
    return "feasible" if feasible else "infeasible"


def connected_subsets_reference(g, start, max_size):
    """Each connected vertex set containing start, sizes 1..max_size,
    once, smallest first."""
    others = [v for v in range(g.n) if v != start]
    for size in range(1, max_size + 1):
        for comb in itertools.combinations(others, size - 1):
            s = {start, *comb}
            seen = {start}
            queue = [start]
            for u in queue:
                for w in g.adjacency[u]:
                    if w in s and w not in seen:
                        seen.add(w)
                        queue.append(w)
            if seen == s:
                yield s


# -- construction by rebuilding after every insertion ------------------------

def assert_same_graph(a, b):
    """Equal rotations, positions, labels and traced face list."""
    assert a.rotations == b.rotations
    assert a.positions == b.positions
    assert a.labels == b.labels
    assert [f.boundary for f in a.faces()] == [f.boundary for f in b.faces()]


def insert_chord_reference(g, face, i, j):
    """Chord insertion by copying and re-validating the whole graph."""
    b = face.boundary
    k = len(b)
    u, v = b[i], b[j]
    rot = [list(r) for r in g.rotations]
    pu = b[(i - 1) % k]
    pv = b[(j - 1) % k]
    rot[u].insert(rot[u].index(pu) + 1, v)
    rot[v].insert(rot[v].index(pv) + 1, u)
    return build(rot, labels=g.labels, positions=g.positions)


def insert_vertex_reference(g, face, attach_positions, position=None):
    """Vertex insertion by copying and re-validating the whole graph."""
    b = face.boundary
    k = len(b)
    new = g.n
    rot = [list(r) for r in g.rotations]
    for p in attach_positions:
        prev = b[(p - 1) % k]
        rot[b[p]].insert(rot[b[p]].index(prev) + 1, new)
    rot.append([b[p] for p in reversed(attach_positions)])
    pos = None
    if g.positions is not None:
        if position is None:
            xs = [g.positions[b[p]][0] for p in attach_positions]
            ys = [g.positions[b[p]][1] for p in attach_positions]
            position = (sum(xs) / len(xs), sum(ys) / len(ys))
        pos = list(g.positions) + [position]
    return build(rot, positions=pos)


def random_triangulation_reference(n, seed):
    """Stacked triangulation, re-tracing every face after each vertex."""
    rng = random.Random(seed)
    g = cycle(3)
    while g.n < n:
        face = rng.choice(g.faces())
        g = insert_vertex_reference(g, face, [0, 1, 2])
    return g


def random_tf_maximal_reference(n, seed):
    """Stacked quadrangulation, re-tracing every face after each vertex."""
    rng = random.Random(seed)
    g = cycle(4)
    while g.n < n:
        face = rng.choice(g.faces())
        corner = rng.randrange(2)
        g = insert_vertex_reference(g, face, [corner, corner + 2])
    return g


def augment_maximal_planar_reference(g):
    """Fan-triangulate the first big face from its least root whose chord
    is new, re-tracing every face after each chord."""
    while True:
        face = next((f for f in g.faces() if f.degree > 3), None)
        if face is None:
            return g
        b = face.boundary
        k = len(b)
        chord = None
        for _, p in sorted((b[p], p) for p in range(k)):
            for step in range(2, k - 1):
                q = (p + step) % k
                if b[p] != b[q] and not g.has_edge(b[p], b[q]):
                    chord = (p, q)
                    break
            if chord:
                break
        assert chord is not None
        g = insert_chord_reference(g, face, *chord)


def augment_maximal_triangle_free_reference(g):
    """Insert the first triangle-avoiding chord of the first face of degree
    >= 5 that has one, re-tracing every face after each chord."""
    while True:
        chord = None
        for face in g.faces():
            k = face.degree
            if k < 5:
                continue
            b = face.boundary
            for i in range(k):
                for step in range(2, k - 1):
                    j = (i + step) % k
                    u, v = b[i], b[j]
                    if u == v or g.has_edge(u, v):
                        continue
                    if g.adjacency[u] & g.adjacency[v]:
                        continue
                    chord = (face, i, j)
                    break
                if chord:
                    break
            if chord:
                break
        if chord is None:
            return g
        g = insert_chord_reference(g, *chord)


# -- the Decide-based dispatch that the plan functions replaced --------------

def _protect_all_neighbors(g, state, budget):
    front = sorted(set().union(*[g.adjacency[u] for u in state.burning])
                   - state.burning - state.protected)
    return front[:budget]


def _spare_one_then_mop_up(limit):
    """Round 1: protect every neighbour but the least one of degree at most
    ``limit``; later rounds: protect the frontier."""
    def decide(g, state, budget):
        if state.round == 0:
            (start,) = state.burning
            u = next(u for u in sorted(g.adjacency[start])
                     if g.degree(u) <= limit)
            return sorted(g.adjacency[start] - {u})[:budget]
        return _protect_all_neighbors(g, state, budget)
    return decide


def _local_reference(context, start_class):
    key = (context, start_class)
    if key in (("girth5_thm2", "X_2"), ("trianglefree_thm5", "X_2")):
        return _protect_all_neighbors
    if key == ("girth5_thm2", "X_3"):
        return _spare_one_then_mop_up(3)
    if context == "planar_thm3" and start_class in ("X_3", "X_4"):
        return _protect_all_neighbors
    if key == ("planar_thm3", "X_5"):
        return _spare_one_then_mop_up(6)
    raise NotApplicable(f"no local strategy for {context}/{start_class}")


def _grid_reference(plan_name):
    plan = load_plan(plan_name)
    cell = {}

    def decide(g, state, budget):
        if state.round == 0:
            (start,) = state.burning
            cell["sub"] = plan_strategy(mapped_plan(g, start, plan))
        return cell["sub"](g, state, budget)
    return decide


def _config_reference(config_id):
    if config_id == "3.1":
        return _spare_one_then_mop_up(3)
    cell = {}

    def decide(g, state, budget):
        if state.round == 0:
            (start,) = state.burning
            sched = Schedule.constant(2)
            res = min_burned_containment(
                g, start, sched, burn_cap=18,
                probes=lattice_probes(g, start, sched, 18))
            if not res.feasible:
                raise NotApplicable(
                    f"no cap-18 containment from start {start}")
            cell["sub"] = plan_strategy(res.trace.protection_plan())
        return cell["sub"](g, state, budget)
    return decide


def dispatch_reference(context, classification):
    """One decision procedure for the whole graph that picks, at round 0,
    the start's evidence-matched strategy; Y starts get nothing."""
    cell = {}

    def sub_for(g, start):
        label = classification.labels[start]
        if label[0] == "Y":
            return null_strategy
        ev = classification.evidence[start]
        rule = ev["rule"]
        if "trace" in ev:
            return plan_strategy(
                SimTrace.from_json(ev["trace"], g.n).protection_plan())
        if rule == "hex_neighborhood":
            return _grid_reference("hex_containment")
        if rule == "rect_neighborhood":
            return _grid_reference("rect_containment")
        if rule.startswith("config_"):
            return _config_reference(rule.split("_", 1)[1])
        return _local_reference(context, label)

    def decide(g, state, budget):
        if state.round == 0:
            (start,) = state.burning
            cell["sub"] = sub_for(g, start)
        return cell["sub"](g, state, budget)
    return decide


# -- the grid walks that the ball walk replaced -------------------------------
#
# A degree-only escape BFS per lattice and an unbounded propagation of
# lattice coordinates through the rotation system.  Where the escape BFS
# finds a path, ``classify.grid_ball`` must find the same one; the mapped
# plans must agree wherever the packaged plans reach.

def hex_escape_path_reference(g, v):
    """Shortest path (length <= 3) from v to a vertex of degree != 6 whose
    internal vertices all have degree 6; None if there is none.  Ties
    broken by (length, endpoint id), parents minimal."""
    g.require_verified()
    dist = {v: 0}
    parent = {}
    queue = [v]
    best = None
    for u in queue:
        d = dist[u]
        if d >= 1 and g.degree(u) != 6:
            if best is None or (d, u) < best:
                best = (d, u)
            continue  # endpoint found; do not extend through it
        if d == 3 or (best is not None and d + 1 > best[0]):
            continue
        for w in sorted(g.adjacency[u]):
            if w not in dist:
                dist[w] = d + 1
                parent[w] = u
                queue.append(w)
    if best is None:
        return None
    return EscapePath(_unwind(parent, v, best[1]), ("vertex", best[1]))


def rect_escape_path_reference(g, v):
    """Shortest escape (length <= 7) from v: either a vertex of degree != 4
    or a degree-4 path endpoint lying on a face of degree >= 5 shared with
    its path predecessor.  Internal path vertices have degree 4."""
    g.require_verified()
    dist = {v: 0}
    parent = {}
    queue = [v]
    best = None  # (dist, endpoint id, donor)
    for u in queue:
        d = dist[u]
        if d >= 1:
            if g.degree(u) != 4:
                cand = (d, u, ("vertex", u))
            else:
                big = [f.id for f in g.edge_faces(u, parent[u])
                       if f.degree >= 5]
                cand = (d, u, ("face", min(big))) if big else None
            if cand is not None and (best is None or cand[:2] < best[:2]):
                best = cand
            if g.degree(u) != 4:
                continue  # cannot be an internal vertex
        if d == 7 or (best is not None and d + 1 > best[0]):
            continue
        for w in sorted(g.adjacency[u]):
            if w not in dist:
                dist[w] = d + 1
                parent[w] = u
                queue.append(w)
    if best is None:
        return None
    return EscapePath(_unwind(parent, v, best[1]), best[2])


def _unwind(parent, start, end):
    path = [end]
    while path[-1] != start:
        path.append(parent[path[-1]])
    return tuple(path[::-1])


def lattice_map_reference(g, start, lattice):
    """Lattice offsets -> vertices, propagated without a depth bound
    through every vertex of the lattice degree reached from ``start``;
    None if either orientation is inconsistent somewhere."""
    dirs = HEX_DIRS if lattice == "hex" else RECT_DIRS
    for orient in (1, -1):
        m = _propagate(g, start, dirs, orient)
        if m is not None:
            return m
    return None


def _propagate(g, start, dirs, orient):
    ndirs = len(dirs)
    if g.degree(start) != ndirs:
        return None
    coord = {start: (0, 0)}
    at = {(0, 0): start}
    align = {start: 0}  # rotation index i points along direction align+o*i
    queue = [start]
    for u in queue:
        cu = coord[u]
        k = align[u]
        rot = g.rotations[u]
        for i, v in enumerate(rot):
            d = (k + orient * i) % ndirs
            cv = (cu[0] + dirs[d][0], cu[1] + dirs[d][1])
            if coord.get(v, cv) != cv or at.get(cv, v) != v:
                return None
            if v not in coord:
                coord[v] = cv
                at[cv] = v
                if g.degree(v) == ndirs:
                    j = g.rotations[v].index(u)
                    rev = (d + ndirs // 2) % ndirs
                    align[v] = (rev - orient * j) % ndirs
                    queue.append(v)
    return at


def mapped_plan_reference(g, start, plan):
    at = lattice_map_reference(g, start, plan["lattice"])
    if at is None:
        return None
    return [[at[c] for c in rnd if c in at] for rnd in plan["rounds"]]
