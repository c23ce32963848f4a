"""The routing, validation and redundant-move kernels against brute-force
oracles, and the guarantees of the single kernel path.

Each kernel is checked on seeded random inputs against a short, obviously
correct reference written here from its contract rather than from its
code: a plain BFS for the obstacle-avoiding path sweep and the free-cell
search, an exhaustive (cell, crossings) search for the lower bound on the
penalty-cost paths, pairwise interval scans for the validator's
exclusivity checks, and a position replay for move elimination.
"""

import dataclasses
import os
import random
import subprocess
import sys
from collections import deque
from pathlib import Path

import pytest

import repro
from repro.arch.grid import CellRole, Grid
from repro.cli import _build_parser
from repro.compiler import CompilerConfig, FaultTolerantCompiler
from repro.routing.dijkstra import find_paths_to_all, reachable_free_cells
from repro.scheduling.events import Schedule, ScheduledOp
from repro.scheduling.redundant_moves import (
    eliminate_redundant_moves,
    find_redundant_pairs,
)
from repro.verify.validator import ScheduleValidator
from repro.workloads import ising_2d


def random_grid(rng, rows=9, cols=9, fill=0.3, factories=4):
    grid = Grid(rows, cols)
    cells = [(r, c) for r in range(rows) for c in range(cols)]
    for pos in rng.sample(cells, factories):
        grid.set_role(pos, CellRole.FACTORY)
    qubit = 100
    for pos in cells:
        if grid.routable(pos) and rng.random() < fill:
            grid.place(qubit, pos)
            qubit += 1
    return grid


def cells_of(grid):
    return [(r, c) for r in range(grid.rows) for c in range(grid.cols)]


def bfs_distances(grid, source, enterable):
    """Unit-step distances from ``source`` through cells ``enterable`` admits."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        pos = queue.popleft()
        for nxt in grid.neighbors(pos):
            if nxt not in dist and enterable(nxt):
                dist[nxt] = dist[pos] + 1
                queue.append(nxt)
    return dist


def goal_arrivals(grid, source, goals, avoid, enterable):
    """Shortest length from ``source`` to each goal, or absent if unreachable.

    Goals have destination semantics: the last step may enter a goal cell
    whatever its occupancy or role, but never an avoided one.
    """
    dist = bfs_distances(grid, source, enterable)
    arrivals = {}
    for goal in goals:
        if goal == source:
            arrivals[goal] = 0
            continue
        if goal in avoid:
            continue
        steps = [dist[p] + 1 for p in grid.neighbors(goal) if p in dist]
        if steps:
            arrivals[goal] = min(steps)
    return arrivals


def min_product_cost(grid, source, goal, avoid, weight):
    """Exact minimum of ``length * (1 + weight * crossings)`` over all paths.

    Exhaustive BFS over (cell, crossings) states, so it is exact for the
    product cost; the router's per-cell pruning may only do worse.
    """
    limit = grid.rows * grid.cols
    best = {(source, 0): 0}
    queue = deque([(source, 0)])
    while queue:
        pos, crossed = queue.popleft()
        for nxt in grid.neighbors(pos):
            if nxt in avoid or not grid.routable(nxt):
                continue
            state = (nxt, crossed + grid.is_occupied(nxt))
            if state[1] <= limit and state not in best:
                best[state] = best[(pos, crossed)] + 1
                queue.append(state)
    return min(
        (length + 1) * (1 + weight * crossed)
        for (pos, crossed), length in best.items()
        if pos in grid.neighbors(goal)
    )


def assert_walk(grid, path, source, goal, avoid, allow_occupied):
    cells = path.cells
    assert cells[0] == source and cells[-1] == goal
    for a, b in zip(cells, cells[1:]):
        assert Grid.manhattan(a, b) == 1
    for pos in cells[1:-1]:
        assert pos not in avoid and grid.routable(pos)
        assert allow_occupied or not grid.is_occupied(pos)


class TestPathsToAllOracle:
    @pytest.mark.parametrize("fill", [0.15, 0.35, 0.55])
    def test_occupied_forbidden_costs_are_bfs_distances(self, fill):
        rng = random.Random(int(fill * 100))
        for trial in range(20):
            grid = random_grid(rng, fill=fill)
            cells = cells_of(grid)
            source = rng.choice([p for p in cells if grid.routable(p)])
            goals = set(rng.sample(cells, rng.randint(1, 8)))
            avoid = set(rng.sample(cells, rng.randint(0, 4))) - {source}
            got = find_paths_to_all(grid, source, goals, avoid=avoid)
            want = goal_arrivals(
                grid, source, goals, avoid,
                lambda p: p not in avoid and grid.routable(p)
                and not grid.is_occupied(p),
            )
            assert set(got) == set(want), f"trial {trial}"
            for goal, path in got.items():
                assert path.cost == want[goal], (trial, goal)
                assert path.occupied_crossings == 0
                assert_walk(grid, path, source, goal, avoid, False)

    @pytest.mark.parametrize("weight", [1, 3])
    def test_crossing_paths_are_valid_and_no_cheaper_than_optimum(self, weight):
        rng = random.Random(40 + weight)
        for trial in range(20):
            grid = random_grid(rng, rows=7, cols=7, fill=0.4)
            cells = cells_of(grid)
            source = rng.choice([p for p in cells if grid.routable(p)])
            goals = set(rng.sample(cells, rng.randint(1, 6))) - {source}
            avoid = set(rng.sample(cells, rng.randint(0, 3))) - {source}
            got = find_paths_to_all(
                grid, source, goals, avoid=avoid,
                allow_occupied=True, penalty_weight=weight,
            )
            reach = goal_arrivals(
                grid, source, goals, avoid,
                lambda p: p not in avoid and grid.routable(p),
            )
            assert set(got) == set(reach), f"trial {trial}"
            for goal, path in got.items():
                assert_walk(grid, path, source, goal, avoid, True)
                crossed = sum(grid.is_occupied(p) for p in path.cells[1:-1])
                assert path.occupied_crossings == weight * crossed
                assert path.cost == (len(path.cells) - 1) * (1 + weight * crossed)
                assert path.cost >= min_product_cost(
                    grid, source, goal, avoid, weight
                ), (trial, goal)

    def test_unobstructed_grid_costs_are_manhattan(self):
        grid = Grid(6, 8)
        goals = set(cells_of(grid)) - {(2, 3)}
        got = find_paths_to_all(grid, (2, 3), goals)
        assert set(got) == goals
        for goal, path in got.items():
            assert path.cost == Grid.manhattan((2, 3), goal)


class TestReachableFreeCellsOracle:
    @staticmethod
    def oracle(grid, source, max_distance=None, predicate=None):
        dist = bfs_distances(grid, source, grid.routable)
        return sorted(
            (d, p) for p, d in dist.items()
            if p != source and not grid.is_occupied(p)
            and (max_distance is None or d <= max_distance)
            and (predicate is None or predicate(p))
        )

    @pytest.mark.parametrize("max_distance", [None, 2, 4])
    def test_matches_bfs_within_radius(self, max_distance):
        rng = random.Random(11 + (max_distance or 0))
        for trial in range(20):
            grid = random_grid(rng, fill=rng.choice([0.2, 0.4, 0.6]))
            source = rng.choice(cells_of(grid))
            got = reachable_free_cells(grid, source, max_distance=max_distance)
            assert got == self.oracle(grid, source, max_distance), trial

    @pytest.mark.parametrize("limit", [1, 3, 7])
    def test_limit_returns_complete_nearest_rings(self, limit):
        rng = random.Random(23 + limit)
        for trial in range(20):
            grid = random_grid(rng, fill=0.35)
            source = rng.choice(cells_of(grid))
            want = self.oracle(grid, source)
            got = reachable_free_cells(grid, source, limit=limit)
            if len(want) <= limit:
                assert got == want, trial
                continue
            ring = want[limit - 1][0]
            assert got == [e for e in want if e[0] <= ring], trial

    def test_predicate_filters_without_changing_distances(self):
        rng = random.Random(5)
        for trial in range(20):
            grid = random_grid(rng, fill=0.3)
            source = rng.choice(cells_of(grid))
            keep = set(rng.sample(cells_of(grid), 30))
            got = reachable_free_cells(grid, source, predicate=keep.__contains__)
            assert got == self.oracle(grid, source, predicate=keep.__contains__)


def _move(rng, uid, qubit, a, b):
    return ScheduledOp(uid=uid, kind=rng.choice(["move", "evict", "restore"]),
                       name="move", qubits=(qubit,), cells=(a, b),
                       start=0.0, duration=1.0)


def random_move_schedule(rng, qubits=4, length=60, side=4):
    """A consistent random walk: each move starts where its qubit stands,
    and moves are often undone straight away to seed inverse pairs."""
    cells = [(r, c) for r in range(side) for c in range(side)]
    at = dict(zip(range(qubits), rng.sample(cells, qubits)))
    ops, uid, undo = [], 0, None
    while len(ops) < length:
        roll = rng.random()
        if undo is not None and roll < 0.35:
            qubit, origin = undo
            ops.append(_move(rng, uid, qubit, at[qubit], origin))
            at[qubit], undo = origin, None
        elif roll < 0.75:
            qubit = rng.randrange(qubits)
            r, c = at[qubit]
            dest = rng.choice([(r + dr, c + dc) for dr, dc in
                               ((0, 1), (1, 0), (0, -1), (-1, 0))])
            ops.append(_move(rng, uid, qubit, at[qubit], dest))
            undo, at[qubit] = (qubit, at[qubit]), dest
        else:
            users = tuple(rng.sample(range(qubits), rng.randint(0, 2)))
            touched = tuple(rng.sample(cells, rng.randint(0, 2)))
            ops.append(ScheduledOp(uid=uid, kind="gate", name="cx",
                                   qubits=users, cells=touched,
                                   start=0.0, duration=2.0))
        uid += 1
    return Schedule(ops=ops)


def _moves(schedule):
    return [op for op in schedule.ops
            if op.kind in ("move", "evict", "restore") and len(op.cells) == 2]


def first_origins(schedule):
    """Where each moved qubit stands before the schedule runs."""
    start = {}
    for op in _moves(schedule):
        start.setdefault(op.qubits[0], op.cells[0])
    return start


def positions_at_uses(schedule, start):
    """Replay moves from ``start``; return where each qubit stands at every
    non-move use, and where every qubit ends up."""
    at, uses = dict(start), []
    moves = {id(op) for op in _moves(schedule)}
    for op in schedule.ops:
        if id(op) in moves:
            at[op.qubits[0]] = op.cells[1]
            continue
        uses.extend((op.uid, q, at.get(q)) for q in op.qubits)
    return uses, at


class TestRedundantPairsOracle:
    @staticmethod
    def assert_sound(schedule, pairs):
        ops = schedule.ops
        flat = [k for pair in pairs for k in pair]
        assert len(flat) == len(set(flat)), "an op is cancelled twice"
        cancelled = set(flat)
        for i, j in pairs:
            assert i < j
            first, second = ops[i], ops[j]
            assert first.name == second.name == "move"
            assert first.qubits == second.qubits and len(first.qubits) == 1
            assert second.cells == first.cells[::-1]
            (qubit,), ends = first.qubits, set(first.cells)
            for k in range(i + 1, j):
                if k in cancelled:
                    continue
                assert qubit not in ops[k].qubits, (i, j, k)
                assert not ends & set(ops[k].cells), (i, j, k)

    def test_random_schedules_pairs_are_sound(self):
        rng = random.Random(3)
        found = 0
        for trial in range(60):
            schedule = random_move_schedule(rng)
            pairs = find_redundant_pairs(schedule)
            self.assert_sound(schedule, pairs)
            found += len(pairs)
        assert found > 60

    def test_elimination_preserves_positions_at_every_use(self):
        rng = random.Random(9)
        for trial in range(60):
            schedule = random_move_schedule(rng)
            pruned, report = eliminate_redundant_moves(schedule)
            assert len(pruned.ops) == len(schedule.ops) - report.moves_removed
            start = first_origins(schedule)
            assert positions_at_uses(pruned, start) == \
                positions_at_uses(schedule, start), trial

    def test_compiled_schedule_pairs_are_sound_and_safe(self):
        result = FaultTolerantCompiler(
            CompilerConfig(routing_paths=3, eliminate_redundant_moves=False)
        ).compile(ising_2d(4))
        pairs = find_redundant_pairs(result.schedule)
        assert pairs
        self.assert_sound(result.schedule, pairs)
        pruned, __ = eliminate_redundant_moves(result.schedule)
        start = first_origins(result.schedule)
        assert positions_at_uses(pruned, start) == \
            positions_at_uses(result.schedule, start)


def random_timed_schedule(rng, length=40, qubits=5, side=3):
    """Ops on half-unit times so overlaps are exact, never within ``EPS``."""
    cells = [(r, c) for r in range(side) for c in range(side)]
    ops = []
    for uid in range(length):
        kind = rng.choice(["gate", "gate", "move", "route"])
        if kind == "move":
            footprint = tuple(rng.sample(cells, 2))
            users = (rng.randrange(qubits),)
        else:
            footprint = tuple(rng.sample(cells, rng.randint(0, 3)))
            users = tuple(rng.sample(range(qubits), rng.randint(0, 2)))
        start = rng.randrange(0, 40) / 2
        ops.append(ScheduledOp(
            uid=uid, kind=kind, name="move" if kind == "move" else "cx",
            qubits=users, cells=footprint, start=start,
            duration=rng.choice([0.0, 0.5, 1.0, 2.5]),
            min_start=rng.randrange(0, 40) / 2,
        ))
    return Schedule(ops=ops)


def run_check(schedule, name):
    validator = ScheduleValidator(schedule)
    getattr(validator, name)()
    return validator.report


class TestIntervalChecksOracle:
    def test_timeline_flags_each_overlap_with_its_predecessor(self):
        rng = random.Random(17)
        for trial in range(40):
            schedule = random_timed_schedule(rng)
            report = run_check(schedule, "check_timelines")
            want, clash = set(), False
            for q in range(5):
                mine = [op for op in schedule.ops if q in op.qubits]
                clash |= any(b.start < a.end for a in mine for b in mine
                             if a.uid < b.uid)
                want |= {(q, b.uid, a.uid) for a, b in zip(mine, mine[1:])
                         if b.start < a.end}
            got = {(v.qubit, v.uid, v.other_uid) for v in report.violations}
            assert got == want, trial
            assert report.ok == (not clash), trial
            assert report.checks["timeline"] == sum(
                len(op.qubits) for op in schedule.ops)

    def test_cell_conflicts_flag_the_later_of_every_overlapping_pair(self):
        rng = random.Random(19)
        for trial in range(40):
            schedule = random_timed_schedule(rng)
            report = run_check(schedule, "check_cell_conflicts")
            locks = [(cell, op) for op in schedule.ops if op.duration > 0
                     for cell in op.resource_cells()]
            want = set()
            for cell, a in locks:
                for other, b in locks:
                    if other != cell or a is b:
                        continue
                    if a.start < b.end and b.start < a.end:
                        later = max((a.start, a.end, a.uid),
                                    (b.start, b.end, b.uid))
                        want.add((cell, later[2]))
            got = {(v.cell, v.uid) for v in report.violations}
            assert got == want, trial
            assert report.checks["cell-conflict"] == len(locks)

    def test_min_start_flags_exactly_the_early_ops(self):
        rng = random.Random(29)
        for trial in range(40):
            schedule = random_timed_schedule(rng)
            report = run_check(schedule, "check_min_start")
            assert {v.uid for v in report.violations} == {
                op.uid for op in schedule.ops if op.start < op.min_start}

    def test_compiled_schedule_passes_every_interval_check(self):
        result = FaultTolerantCompiler(
            CompilerConfig(routing_paths=3)
        ).compile(ising_2d(3))
        validator = ScheduleValidator(result.schedule)
        validator.check_timelines()
        validator.check_cell_conflicts()
        validator.check_min_start()
        assert validator.report.ok
        assert validator.report.checks["min-start"] == len(result.schedule.ops)

    def test_pulled_back_op_is_reported_as_double_booked(self):
        result = FaultTolerantCompiler(
            CompilerConfig(routing_paths=3)
        ).compile(ising_2d(3))
        ops = list(result.schedule.ops)
        victim = next(i for i, op in enumerate(ops)
                      if op.qubits and op.start > 0)
        ops[victim] = dataclasses.replace(ops[victim], start=0.0, min_start=0.0)
        report = run_check(Schedule(ops=ops), "check_timelines")
        assert not report.ok
        assert ops[victim].uid in {v.uid for v in report.violations}


class TestSingleKernelPath:
    def test_config_has_no_backend_field(self):
        names = {f.name for f in dataclasses.fields(CompilerConfig)}
        assert "backend" not in names
        with pytest.raises(TypeError):
            CompilerConfig(backend="pure")

    def test_bench_rejects_backend_flag(self, capsys):
        with pytest.raises(SystemExit):
            _build_parser().parse_args(["bench", "--fast", "--backend", "pure"])

    def test_compile_ignores_repro_backend_env(self, monkeypatch):
        compiler = FaultTolerantCompiler(CompilerConfig(routing_paths=3))
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        plain = compiler.compile(ising_2d(4))
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        pinned = compiler.compile(ising_2d(4))
        assert plain.fingerprint() == pinned.fingerprint()
        assert plain.schedule.to_dict() == pinned.schedule.to_dict()

    def test_bench_meta_records_no_backend(self):
        from repro.perf.bench import run_bench

        report = run_bench(fast=True, workloads=["ising_2d_2x2"])
        assert "backend" not in report.meta

    def test_validated_compile_and_elimination_never_import_numpy(self):
        code = (
            "import sys\n"
            "from repro.compiler import CompilerConfig, FaultTolerantCompiler\n"
            "from repro.workloads import ising_2d\n"
            "FaultTolerantCompiler(CompilerConfig(routing_paths=3))"
            ".compile(ising_2d(4), validate=True)\n"
            "print('numpy' in sys.modules)\n"
        )
        src = str(Path(repro.__file__).resolve().parent.parent)
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, check=True, timeout=120,
        )
        assert out.stdout.strip() == "False"


class TestGridRoleMasks:
    def test_masks_follow_roles_through_scratch_and_clone(self):
        rng = random.Random(31)
        grid = Grid(6, 6)
        roles = list(CellRole)

        def assert_masks(g):
            for i, pos in enumerate(cells_of(g)):
                role = g.role(pos)
                assert g._routable_b[i] == (role in (
                    CellRole.BUS, CellRole.DATA, CellRole.PORT))
                assert g._parkable_b[i] == (role in (
                    CellRole.BUS, CellRole.DATA))

        for pos in rng.sample(cells_of(grid), 12):
            grid.set_role(pos, rng.choice(roles))
        before = bytes(grid._routable_b), bytes(grid._parkable_b)
        with grid.scratch():
            for pos in rng.sample(cells_of(grid), 12):
                grid.set_role(pos, rng.choice(roles))
            assert_masks(grid)
            dup = grid.clone()
        assert (bytes(grid._routable_b), bytes(grid._parkable_b)) == before
        assert_masks(grid)
        assert_masks(dup)
        dup.set_role((0, 0), CellRole.FACTORY)
        assert_masks(grid)
        assert_masks(dup)
