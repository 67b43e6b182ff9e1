"""The transition web: connecting any CICY configuration to the hub.

Every valid, normalized, non-block-diagonal CICY 3-fold configuration
matrix connects to the hub configuration C1111 (four [1 || 2] rows) by a
finite sequence of splittings and contractions.  The deterministic
procedure here works in three phases, each with a strictly decreasing
termination measure:

* Phase A flattens entries >= 2 in rows with n_i >= 2 by n = 1 splits that
  peel one unit into a fresh column (measure: sum of max(q - 1, 0) over
  those rows);
* Phase B contracts a 0/1 row with n_i >= 2 -- always a contraction site
  by the Calabi-Yau row condition -- returning to Phase A when the merge
  recreates large entries (measure: sum of n_i over rows with n_i >= 2);
* Phase C contracts P^1 rows with two separate unit entries (measure: row
  count).  The end state, a non-block-diagonal all-P^1 matrix where every
  row holds a single 2, is C1111.

A chain is a start matrix plus steps; each step's parameters apply to the
waypoint before it and the step stores the literal waypoint after it.  No
canonical keys are recorded: the continuity check is that applying a
step's parameters lands on its stored waypoint up to row/column
permutation, which is what lets reversed chains re-anchor on their own
waypoints.  Matrices are compared entry for entry first; canonical keys
are computed only when two layouts differ, which on forward chains and
their JSON reloads never happens.  ``verify_chain`` re-executes
everything and certifies each contraction (for split steps, the reverse
contraction) by the exact bookkeeping e(resolved) - e(smoothed) = 2 *
ODP count.
"""

from __future__ import annotations

import json
import operator
import random
from dataclasses import dataclass
from typing import Optional

from .chow import MultiDegree
from .configuration import (
    C1111,
    ConfigurationMatrix,
    canonical_key,
    is_block_diagonal,
    is_cicy,
    layout_map,
    normalize,
    parse_matrix,
    validate,
)
from .transitions import (
    ContractionSite,
    InternalConsistencyError,
    TransitionReport,
    analyze,
    contract,
    find_contraction_sites,
    split,
)


@dataclass(frozen=True)
class ChainStep:
    """One splitting or contraction, with enough data to re-execute it.

    Split parameters: (column, n, parts); contract parameters: (row,
    one_columns), both against the waypoint before this step.
    ``after_matrix`` is the literal waypoint the chain continues from;
    applying the parameters must land on it up to row/column permutation
    (checked by :func:`verify_chain`, by equality first and by canonical
    keys only when the layouts differ; no key is stored).  A contract step
    is legal only at a site that :func:`find_contraction_sites` lists.  ``report`` carries the
    transition bookkeeping for contract steps; split steps leave it None
    (their numbers belong to the reverse contraction and are recomputed
    during verification).
    """

    kind: str  # "split" | "contract"
    after_matrix: ConfigurationMatrix
    column: Optional[int] = None
    n: Optional[int] = None
    parts: Optional[tuple[MultiDegree, ...]] = None
    row: Optional[int] = None
    one_columns: Optional[tuple[int, ...]] = None
    report: Optional[TransitionReport] = None

    def apply(self, cfg: ConfigurationMatrix) -> ConfigurationMatrix:
        """Execute this step's operation on a concrete matrix layout."""
        if self.kind == "split":
            return split(cfg, self.column, self.n, list(self.parts))
        if self.kind == "contract":
            site = ContractionSite(config=cfg, row=self.row, one_columns=self.one_columns)
            if site not in find_contraction_sites(cfg):
                raise ValueError(
                    f"row {self.row + 1} is not a contraction site with columns "
                    f"{tuple(j + 1 for j in self.one_columns)}"
                )
            return contract(site)
        raise ValueError(f"unknown step kind {self.kind!r}")


@dataclass(frozen=True)
class TransitionChain:
    """A start matrix, an ordered list of steps, and the resulting end matrix."""

    start: ConfigurationMatrix
    steps: tuple[ChainStep, ...]
    end: ConfigurationMatrix

    def waypoints(self) -> list[ConfigurationMatrix]:
        """The literal matrices the chain passes through, start first."""
        return [self.start] + [step.after_matrix for step in self.steps]


@dataclass(frozen=True)
class StepCheck:
    """Verification record for one chain step.

    For split steps the transition numbers are those of the reverse
    contraction (``site_row``/``site_columns`` then refer to the matrix
    after the step); for contract steps they are the step's own.
    """

    index: int
    kind: str
    site_row: int
    site_columns: tuple[int, ...]
    odp_count: int
    euler_resolved: int
    euler_smoothed: int
    ineffective: bool


#: What chain verification takes on faith: it certifies the arithmetic of
#: every step, not the geometry of generic members.  Every verified chain
#: rests on these; ``cicyweb connect`` reports them.
CHAIN_ASSUMPTIONS = (
    "smoothness of generic members of intermediate configurations is assumed, not checked",
)


@dataclass(frozen=True)
class ChainReport:
    """Outcome of re-executing a chain: failed checks and per-step numbers."""

    ok: bool
    failures: tuple[str, ...]
    checks: tuple[StepCheck, ...]


def _web_state_problems(cfg: ConfigurationMatrix, where: str) -> list[str]:
    """CICY + non-block-diagonality flags, as failure strings."""
    problems = []
    if not is_cicy(cfg):
        problems.append(f"{where}: not a CICY 3-fold configuration")
    if is_block_diagonal(cfg):
        problems.append(f"{where}: block-diagonal configuration")
    return problems


def connect_to_c1111(cfg: ConfigurationMatrix) -> TransitionChain:
    """Deterministic chain of splits/contractions from ``cfg`` to C1111.

    The input must be a valid, normalized, non-block-diagonal CICY 3-fold
    configuration.  Phase choices are deterministic (lowest row, then
    lowest column), so equal inputs give equal chains.

    Examples
    --------
    >>> from .configuration import C1111
    >>> connect_to_c1111(C1111).steps
    ()
    """
    report = validate(cfg)
    if not report.is_cicy:
        raise ValueError("connect_to_c1111 needs a CICY 3-fold configuration")
    if report.block_diagonal:
        raise ValueError("connect_to_c1111 needs a non-block-diagonal configuration")
    if not report.column_sums_ok:
        raise ValueError("connect_to_c1111 needs a normalized configuration")

    def big_row_excess(c: ConfigurationMatrix) -> int:
        return sum(
            max(q - 1, 0)
            for n, row in zip(c.factors, c.rows)
            if n >= 2
            for q in row
        )

    def big_row_mass(c: ConfigurationMatrix) -> int:
        return sum(n for n in c.factors if n >= 2)

    steps: list[ChainStep] = []
    current = cfg
    while True:
        # Phase A: flatten entries >= 2 in big rows by unit-peeling splits.
        while True:
            target = None
            for i, (n, row) in enumerate(zip(current.factors, current.rows)):
                if n < 2:
                    continue
                for j, q in enumerate(row):
                    if q >= 2:
                        target = (i, j)
                        break
                if target:
                    break
            if target is None:
                break
            i, j = target
            excess = big_row_excess(current)
            col = current.column(j)
            unit = tuple(1 if r == i else 0 for r in range(current.k))
            residual = tuple(c - u for c, u in zip(col, unit))
            nxt = split(current, j, 1, [residual, unit])
            if not big_row_excess(nxt) < excess:
                raise InternalConsistencyError("Phase A measure failed to decrease")
            steps.append(
                ChainStep(
                    kind="split",
                    after_matrix=nxt,
                    column=j,
                    n=1,
                    parts=(residual, unit),
                )
            )
            current = nxt

        # Phase B: contract the first 0/1 row with n >= 2, if any.
        big = next((i for i, n in enumerate(current.factors) if n >= 2), None)
        if big is not None:
            mass = big_row_mass(current)
            ones = tuple(j for j, q in enumerate(current.rows[big]) if q == 1)
            site = ContractionSite(config=current, row=big, one_columns=ones)
            nxt = contract(site)
            if not big_row_mass(nxt) < mass:
                raise InternalConsistencyError("Phase B measure failed to decrease")
            steps.append(
                ChainStep(
                    kind="contract",
                    after_matrix=nxt,
                    row=big,
                    one_columns=ones,
                    report=analyze(site),
                )
            )
            current = nxt
            continue  # merged entries may need another Phase A round

        # Phase C: contract P^1 rows holding two separate 1s.
        p1 = None
        for i, row in enumerate(current.rows):
            ones = tuple(j for j, q in enumerate(row) if q == 1)
            if len(ones) == 2:
                p1 = (i, ones)
                break
        if p1 is None:
            break
        i, ones = p1
        rows_before = current.k
        site = ContractionSite(config=current, row=i, one_columns=ones)
        nxt = contract(site)
        if not nxt.k < rows_before:
            raise InternalConsistencyError("Phase C measure failed to decrease")
        problems = _web_state_problems(nxt, "Phase C intermediate")
        if problems:
            raise InternalConsistencyError("; ".join(problems))
        steps.append(
            ChainStep(
                kind="contract",
                after_matrix=nxt,
                row=i,
                one_columns=ones,
                report=analyze(site),
            )
        )
        current = nxt

    # the hub has a single layout (four identical rows), so equality is exact
    if current != C1111:
        raise InternalConsistencyError(
            f"web algorithm ended away from the hub:\n{current.render()}"
        )
    return TransitionChain(start=cfg, steps=tuple(steps), end=current)


def verify_chain(chain: TransitionChain) -> ChainReport:
    """Re-execute a chain, certifying every step.

    Checks, per step: the operation is legal on the waypoint before it;
    the result equals the stored waypoint up to row/column permutation
    (the continuity check: the next step applies to that waypoint); every
    waypoint is a non-block-diagonal CICY configuration; and the
    contraction bookkeeping e(resolved) - e(smoothed) = 2 * ODP count
    holds exactly (for split steps, via the reverse contraction at the
    appended row of the result, and a split step must carry no stored
    report).  The last waypoint must equal the recorded end up to
    permutation.  Equal matrices have equal canonical keys, so keys are
    computed only when layouts differ.  Failures carry their step index;
    the transition numbers of the steps that did verify are reported
    either way.
    """
    failures: list[str] = []
    checks: list[StepCheck] = []
    current = chain.start
    failures.extend(_web_state_problems(current, "start"))

    for index, step in enumerate(chain.steps):
        try:
            produced = step.apply(current)
        except ValueError as err:
            failures.append(f"step {index}: illegal {step.kind}: {err}")
            break
        # keys are only needed when the stored waypoint is a different
        # layout (reversed splits)
        if produced != step.after_matrix and (
            canonical_key(step.after_matrix) != canonical_key(produced)
        ):
            failures.append(f"step {index}: stored waypoint is not the step's result")
        failures.extend(
            f"step {index}: {problem}"
            for problem in _web_state_problems(produced, "result")
        )
        if step.kind == "contract":
            site = ContractionSite(
                config=current, row=step.row, one_columns=step.one_columns
            )
            report = analyze(site)
            site_row, site_columns = step.row, step.one_columns
            if step.report is not None and step.report != report:
                failures.append(
                    f"step {index}: stored report does not match recomputation"
                )
        else:
            if step.report is not None:
                failures.append(f"step {index}: split step carries a report")
            # the reverse contraction lives at the appended row of the result
            reverse_row = produced.k - 1
            ones = tuple(j for j, q in enumerate(produced.rows[reverse_row]) if q == 1)
            site = ContractionSite(config=produced, row=reverse_row, one_columns=ones)
            report = analyze(site)
            site_row, site_columns = reverse_row, ones
        checks.append(
            StepCheck(
                index=index,
                kind=step.kind,
                site_row=site_row,
                site_columns=site_columns,
                odp_count=report.odp_count,
                euler_resolved=report.euler_resolved,
                euler_smoothed=report.euler_smoothed,
                ineffective=report.ineffective,
            )
        )
        current = step.after_matrix

    if current != chain.end and canonical_key(current) != canonical_key(chain.end):
        failures.append("end matrix does not match the chain's recorded end")
    return ChainReport(ok=not failures, failures=tuple(failures), checks=tuple(checks))


def reverse_chain(chain: TransitionChain) -> TransitionChain:
    """The same connection walked end to start.

    A split reverses to the contraction of the appended row; a contraction
    reverses to the split of the merged column back into the original
    columns.  The reverse parameters live in the layout of the step's
    literal output, so they are translated through :func:`layout_map` into
    the layout of the stored waypoint they will actually be applied to;
    each reversed step then re-anchors on the original chain's waypoints.
    """
    waypoints = chain.waypoints()
    steps: list[ChainStep] = []
    for index in range(len(chain.steps) - 1, -1, -1):
        step = chain.steps[index]
        before_matrix = waypoints[index]  # original pre-step waypoint
        after_matrix = waypoints[index + 1]  # original post-step waypoint
        literal = step.apply(before_matrix)
        row_map, col_map = layout_map(literal, after_matrix)
        if step.kind == "split":
            # in the literal output the new row is last and the new columns
            # sit where the split column was
            row = row_map[literal.k - 1]
            ones = tuple(
                sorted(col_map[j] for j in range(step.column, step.column + step.n + 1))
            )
            site = ContractionSite(config=after_matrix, row=row, one_columns=ones)
            steps.append(
                ChainStep(
                    kind="contract",
                    after_matrix=before_matrix,
                    row=row,
                    one_columns=ones,
                    report=analyze(site),
                )
            )
        else:
            # in the literal output the merged column sits at one_columns[0]
            # and the rows follow the kept-row order
            kept = [i for i in range(before_matrix.k) if i != step.row]
            inverse_row = [0] * literal.k
            for literal_index, anchor_index in enumerate(row_map):
                inverse_row[anchor_index] = literal_index
            parts = tuple(
                tuple(
                    before_matrix.rows[kept[inverse_row[r]]][j]
                    for r in range(literal.k)
                )
                for j in step.one_columns
            )
            steps.append(
                ChainStep(
                    kind="split",
                    after_matrix=before_matrix,
                    column=col_map[step.one_columns[0]],
                    n=before_matrix.factors[step.row],
                    parts=parts,
                )
            )
    return TransitionChain(start=chain.end, steps=tuple(steps), end=chain.start)


def connect_pair(a: ConfigurationMatrix, b: ConfigurationMatrix) -> TransitionChain:
    """A verified-style connection from a to b through the hub C1111."""
    forward = connect_to_c1111(a)
    backward = reverse_chain(connect_to_c1111(b))
    # both chains end at the hub, whose layout is unique (identical
    # [1 || 2] rows), so the backward start re-anchors on the forward end
    if forward.end != backward.start:
        raise InternalConsistencyError("both chains must end at the hub")  # pragma: no cover
    return TransitionChain(
        start=forward.start,
        steps=forward.steps + backward.steps,
        end=backward.end,
    )


# ----------------------------------------------------------------------
# chain serialization


def chain_to_json(chain: TransitionChain) -> str:
    """Serialize a chain: start/end in the text matrix format, steps with
    parameters, the waypoint after each step, and contract-step report
    fields (``odp_count``, ``euler_before``, ``euler_after``,
    ``ineffective``)."""
    steps_payload = []
    for step in chain.steps:
        entry: dict = {
            "kind": step.kind,
            "matrix": step.after_matrix.render().splitlines(),
        }
        if step.kind == "split":
            entry["column"] = step.column
            entry["n"] = step.n
            entry["parts"] = [list(part) for part in step.parts]
        else:
            entry["row"] = step.row
            entry["one_columns"] = list(step.one_columns)
        if step.report is not None:
            entry["odp_count"] = step.report.odp_count
            entry["euler_before"] = step.report.euler_resolved
            entry["euler_after"] = step.report.euler_smoothed
            entry["ineffective"] = step.report.ineffective
        steps_payload.append(entry)
    payload = {
        "start": chain.start.render().splitlines(),
        "end": chain.end.render().splitlines(),
        "steps": steps_payload,
    }
    return json.dumps(payload, indent=2)


def _json_int(value) -> int:
    """An integer field of a chain JSON; a boolean or a fraction is not one."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {json.dumps(value)}")
    return operator.index(value)


def _json_bool(value) -> bool:
    """A boolean field of a chain JSON: JSON true or false, nothing else."""
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {json.dumps(value)}")
    return value


def chain_from_json(text: str) -> TransitionChain:
    """Rebuild a chain from its JSON form.

    Nothing is checked here beyond the format: a missing field (``start``,
    ``end`` or ``steps``, or a field of a step, with the step's index)
    raises ValueError, as does a step ``kind`` other than ``"split"`` or
    ``"contract"``; an integer field holding a boolean or a non-integral
    value, or an ``ineffective`` that is not ``true`` or ``false``, raises
    TypeError.  The report fields are optional, but a step that has
    ``odp_count`` needs all four.  :func:`verify_chain` on the result
    re-executes every step against the stored waypoints.
    """
    payload = json.loads(text)
    start = parse_matrix("\n".join(_json_field(payload, "start", "chain JSON")))
    end = parse_matrix("\n".join(_json_field(payload, "end", "chain JSON")))
    steps = []
    for index, entry in enumerate(_json_field(payload, "steps", "chain JSON")):

        def field(name: str):
            return _json_field(entry, name, f"chain JSON step {index}")

        kind = field("kind")
        if kind not in ("split", "contract"):
            raise ValueError(f"unknown step kind {kind!r}")
        after_matrix = parse_matrix("\n".join(field("matrix")))
        report = None
        if "odp_count" in entry:
            report = TransitionReport(
                odp_count=_json_int(entry["odp_count"]),
                euler_resolved=_json_int(field("euler_before")),
                euler_smoothed=_json_int(field("euler_after")),
                ineffective=_json_bool(field("ineffective")),
            )
        if kind == "split":
            step = ChainStep(
                kind="split",
                after_matrix=after_matrix,
                column=_json_int(field("column")),
                n=_json_int(field("n")),
                parts=tuple(tuple(map(_json_int, part)) for part in field("parts")),
                report=report,
            )
        else:
            step = ChainStep(
                kind="contract",
                after_matrix=after_matrix,
                row=_json_int(field("row")),
                one_columns=tuple(map(_json_int, field("one_columns"))),
                report=report,
            )
        steps.append(step)
    return TransitionChain(start=start, steps=tuple(steps), end=end)


def _json_field(entry: dict, name: str, where: str):
    """``entry[name]``; a missing field raises ValueError naming it and ``where``."""
    try:
        return entry[name]
    except KeyError:
        raise ValueError(f"{where} lacks field {name!r}") from None


# ----------------------------------------------------------------------
# random generator


#: Seed matrices for the generator: the hub plus small worked examples.
_GENERATOR_POOL = (
    C1111,
    ConfigurationMatrix([4], [[5]]),
    ConfigurationMatrix([3, 1], [[4], [2]]),
    ConfigurationMatrix([2, 2], [[3], [3]]),
    ConfigurationMatrix([2, 3, 1], [[1, 1, 1], [1, 1, 2], [0, 0, 2]]),
    ConfigurationMatrix([2, 2, 1], [[3, 0], [0, 3], [1, 1]]),
    ConfigurationMatrix(
        [4, 2, 2],
        [[3, 1, 1, 0, 0], [0, 1, 0, 1, 1], [0, 0, 1, 1, 1]],
    ),
)


def random_cicy(
    seed: int, max_rows: int = 7, max_cols: int = 9, max_n: int = 4
) -> ConfigurationMatrix:
    """Pseudo-random valid, normalized, non-block-diagonal CICY 3-fold matrix.

    Deterministic in the seed: a pool matrix within the bounds is grown by
    random legal splits (each split partitions a column's unit entries into
    nonzero groups, so the result stays normalized), then rows and columns
    are shuffled.  Falls back to the hub C1111 when the bounds leave no
    room to pick anything.
    """
    if min(max_rows, max_cols, max_n) < 1:
        raise ValueError("bounds must be >= 1")
    rng = random.Random(f"cicyweb:{seed}:{max_rows}:{max_cols}:{max_n}")
    pool = [cfg for cfg in _GENERATOR_POOL if cfg.k <= max_rows and cfg.m <= max_cols]
    if not pool:
        return C1111
    cfg = rng.choice(pool)
    for _ in range(rng.randint(0, 2 * max_rows)):
        if cfg.k + 1 > max_rows:
            break
        choices = []
        for j in range(cfg.m):
            units = sum(cfg.column(j))
            top_n = min(max_n, units - 1, max_cols - cfg.m)
            choices.extend((j, n) for n in range(1, top_n + 1))
        if not choices:
            break
        j, n = rng.choice(choices)
        col = cfg.column(j)
        units = [i for i in range(cfg.k) for _ in range(col[i])]
        rng.shuffle(units)
        # cut the unit list into n+1 nonempty groups
        cuts = sorted(rng.sample(range(1, len(units)), n))
        groups = [units[a:b] for a, b in zip([0] + cuts, cuts + [len(units)])]
        parts = [tuple(group.count(i) for i in range(cfg.k)) for group in groups]
        cfg = split(cfg, j, n, parts)
    # random relabeling: shuffle rows and columns together
    row_order = list(range(cfg.k))
    col_order = list(range(cfg.m))
    rng.shuffle(row_order)
    rng.shuffle(col_order)
    shuffled = ConfigurationMatrix(
        [cfg.factors[i] for i in row_order],
        [[cfg.rows[i][j] for j in col_order] for i in row_order],
    )
    if not is_cicy(shuffled) or is_block_diagonal(shuffled):
        raise InternalConsistencyError("generator produced an invalid matrix")  # pragma: no cover
    return normalize(shuffled)
