"""Built-in catalog of worked examples with pinned expected values.

Each entry bundles a configuration (or a composite recipe), the checks it
must satisfy, and where each expected number comes from:

* ``literature`` — a value printed in the classical CICY literature;
* ``derived``    — computed independently (by hand or by a second method)
  and frozen here as an oracle;
* ``trivial``    — a structural fact, true by construction.

The catalog doubles as the regression gate for the whole library: the CLI's
``catalog --run-all`` and the acceptance tests replay every entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

from .chow import AmbientSpace, chern_of_sum
from .configuration import (
    C1111,
    ConfigurationMatrix,
    equivalent,
    parse_matrix,
    validate,
)
from .invariants import (
    betti2,
    ci_point_count,
    double_cover_euler,
    euler_number,
    hodge_numbers,
)
from .transitions import ContractionSite, analyze, contract, find_contraction_sites
from .web import ChainStep, TransitionChain, verify_chain

PROVENANCE_LITERATURE = "literature"
PROVENANCE_DERIVED = "derived"
PROVENANCE_TRIVIAL = "trivial"


@dataclass(frozen=True)
class CatalogCheck:
    """One expected-vs-computed comparison."""

    name: str
    expected: object
    got: object
    provenance: str
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.expected == self.got


@dataclass(frozen=True)
class CatalogEntry:
    """A named worked example: a matrix (or recipe) plus its check runner."""

    name: str
    description: str
    matrix: Optional[ConfigurationMatrix]
    run: Callable[[], list[CatalogCheck]]


# ----------------------------------------------------------------------
# the configurations

QUINTIC = ConfigurationMatrix([4], [[5]])

#: Small resolution side of the nodal determinantal quintic.
QUINTIC_SPLIT = ConfigurationMatrix([4, 1], [[4, 1], [1, 1]])

#: 3-fold in P^2 x P^3 x P^1 whose P^2 row contracts onto [[3|4],[1|2]].
MIXED_CONTRACTION_EXAMPLE = ConfigurationMatrix(
    [2, 3, 1], [[1, 1, 1], [1, 1, 2], [0, 0, 2]]
)

#: Resolved double solid: conic-bundle-free model [[3|4],[1|2]].
DOUBLE_SOLID_RESOLVED = ConfigurationMatrix([3, 1], [[4], [2]])

#: Octic surface in P^3, the branch divisor of the double solid.
OCTIC_SURFACE = ConfigurationMatrix([3], [[8]])

#: 3-fold in P^4 x P^2 x P^2 used to exercise the Betti recursion.
BETTI_EXAMPLE = ConfigurationMatrix(
    [4, 2, 2], [[3, 1, 1, 0, 0], [0, 1, 0, 1, 1], [0, 0, 1, 1, 1]]
)

#: The bidegree-(1,1)^2 surface in P^2 x P^2 nested inside BETTI_EXAMPLE.
BETTI_SURFACE = ConfigurationMatrix([2, 2], [[1, 1], [1, 1]])

#: Fiber product of two rational elliptic surfaces over P^1 ...
SCHOEN_RESOLVED = ConfigurationMatrix([2, 2, 1], [[3, 0], [0, 3], [1, 1]])

#: ... and the bicubic in P^2 x P^2 it contracts onto.
SCHOEN_CONTRACTED = ConfigurationMatrix([2, 2], [[3], [3]])


# ----------------------------------------------------------------------
# the stored quintic-to-hub chain

_QUINTIC_WAYPOINT_TEXT = (
    "4 | 5",
    "4 | 4 1\n1 | 1 1",
    "4 | 3 1 1\n1 | 1 1 0\n1 | 1 0 1",
    "4 | 2 1 1 1\n1 | 1 1 0 0\n1 | 1 0 1 0\n1 | 1 0 0 1",
    "4 | 1 1 1 1 1\n1 | 1 1 0 0 0\n1 | 1 0 1 0 0\n1 | 1 0 0 1 0\n1 | 1 0 0 0 1",
    "1 | 2\n1 | 2\n1 | 2\n1 | 2",
)

#: The classical six-matrix path from the quintic to the hub, as printed.
QUINTIC_WEB_WAYPOINTS = tuple(parse_matrix(text) for text in _QUINTIC_WAYPOINT_TEXT)


@lru_cache(maxsize=1)
def quintic_chain() -> TransitionChain:
    """The stored quintic-to-hub chain: four unit-peeling splits of the
    degree column, then one contraction of the all-ones P^4 row."""
    ways = QUINTIC_WEB_WAYPOINTS
    steps = []
    for t in range(4):
        before, after = ways[t], ways[t + 1]
        column = before.column(0)
        unit = tuple(1 if i == 0 else 0 for i in range(before.k))
        residual = tuple(q - u for q, u in zip(column, unit))
        steps.append(
            ChainStep(
                kind="split",
                after_matrix=after,
                column=0,
                n=1,
                parts=(residual, unit),
            )
        )
    flat = ways[4]
    site = ContractionSite(config=flat, row=0, one_columns=tuple(range(5)))
    steps.append(
        ChainStep(
            kind="contract",
            after_matrix=ways[5],
            row=0,
            one_columns=tuple(range(5)),
            report=analyze(site),
        )
    )
    return TransitionChain(start=ways[0], steps=tuple(steps), end=ways[5])


# ----------------------------------------------------------------------
# entry runners


def _run_quintic_web() -> list[CatalogCheck]:
    site = ContractionSite(config=QUINTIC_SPLIT, row=1, one_columns=(0, 1))
    report = analyze(site)
    verified = verify_chain(quintic_chain())
    first = verified.checks[0]
    return [
        CatalogCheck(
            "odp_count", 16, report.odp_count, PROVENANCE_LITERATURE,
            "node count of the generic determinantal quintic",
        ),
        CatalogCheck(
            "euler_resolved", -168, report.euler_resolved, PROVENANCE_DERIVED,
            "e(quintic) + 2 * 16 for the small resolution",
        ),
        CatalogCheck(
            "euler_smoothed", -200, report.euler_smoothed, PROVENANCE_LITERATURE,
            "classical Euler number of the smooth quintic",
        ),
        CatalogCheck(
            "euler_difference", 32,
            report.euler_resolved - report.euler_smoothed,
            PROVENANCE_TRIVIAL, "must equal 2 * odp_count",
        ),
        CatalogCheck(
            "chain_verified", True, verified.ok, PROVENANCE_DERIVED,
            "stored quintic-to-hub chain re-executed step by step",
        ),
        CatalogCheck(
            "chain_first_reverse_odp", 16, first.odp_count, PROVENANCE_LITERATURE,
            "reverse contraction of the first split is the 16-node contraction",
        ),
    ]


def _run_mixed_example() -> list[CatalogCheck]:
    cfg = MIXED_CONTRACTION_EXAMPLE
    site = find_contraction_sites(cfg)[0]
    report = analyze(site)
    collapsing = chern_of_sum(site.reduced_ambient, site.collapsing_bundles)
    return [
        CatalogCheck(
            "euler_number", -112, euler_number(cfg), PROVENANCE_LITERATURE,
            "Euler number of the resolved side",
        ),
        CatalogCheck(
            "euler_contracted", -168, report.euler_smoothed, PROVENANCE_LITERATURE,
            "Euler number of the contracted configuration [[3|4],[1|2]]",
        ),
        CatalogCheck(
            "contracts_to_double_solid_model", True,
            equivalent(contract(site), DOUBLE_SOLID_RESOLVED), PROVENANCE_TRIVIAL,
            "merging the three P^2 unit columns",
        ),
        CatalogCheck(
            "odp_count", 28, report.odp_count, PROVENANCE_LITERATURE,
            "point-class coefficient of c2(E)^2 - c1(E) c3(E)",
        ),
        CatalogCheck(
            "chern_c1", "4*s1 + 2*s2", collapsing.graded_part(1).render(),
            PROVENANCE_LITERATURE, "c1 of the collapsing bundle on P^3 x P^1",
        ),
        CatalogCheck(
            "chern_c2", "5*s1^2 + 4*s1*s2", collapsing.graded_part(2).render(),
            PROVENANCE_LITERATURE, "c2 of the collapsing bundle on P^3 x P^1",
        ),
        CatalogCheck(
            "chern_c3", "2*s1^3 + 2*s1^2*s2", collapsing.graded_part(3).render(),
            PROVENANCE_LITERATURE, "c3 of the collapsing bundle on P^3 x P^1",
        ),
    ]


def _run_double_solid() -> list[CatalogCheck]:
    branch_points = ci_point_count(AmbientSpace([3]), [(4,), (4,), (4,)])
    octic = euler_number(OCTIC_SURFACE)
    cover = double_cover_euler(4, octic)
    resolved = euler_number(DOUBLE_SOLID_RESOLVED)
    return [
        CatalogCheck(
            "branch_singular_points", 64, branch_points, PROVENANCE_LITERATURE,
            "three general quartics in P^3 meet in 4^3 points",
        ),
        CatalogCheck(
            "octic_euler", 304, octic, PROVENANCE_DERIVED,
            "Euler number of the smooth octic surface in P^3",
        ),
        CatalogCheck(
            "double_cover_euler", -296, cover, PROVENANCE_LITERATURE,
            "2 * e(P^3) - e(octic) for the smooth double solid",
        ),
        CatalogCheck(
            "euler_resolved", -168, resolved, PROVENANCE_LITERATURE,
            "Euler number of [[3|4],[1|2]], the resolved nodal double solid",
        ),
        CatalogCheck(
            "euler_difference", 128, resolved - cover, PROVENANCE_LITERATURE,
            "128 = 2 * 64: the node count times two",
        ),
    ]


def _run_betti_example() -> list[CatalogCheck]:
    return [
        CatalogCheck(
            "betti2", 5, betti2(BETTI_EXAMPLE), PROVENANCE_LITERATURE,
            "1 from the P^4 factor plus b2 of the nested surface",
        ),
        CatalogCheck(
            "surface_euler", 6, euler_number(BETTI_SURFACE), PROVENANCE_LITERATURE,
            "Euler number of the nested bidegree-(1,1)^2 surface",
        ),
        CatalogCheck(
            "surface_betti2", 4, betti2(BETTI_SURFACE), PROVENANCE_LITERATURE,
            "b2 = e - 2 for a simply connected surface",
        ),
    ]


def _run_c1111() -> list[CatalogCheck]:
    pair = hodge_numbers(C1111)
    return [
        CatalogCheck(
            "euler_number", -128, euler_number(C1111), PROVENANCE_DERIVED,
            "hand expansion of the point-class coefficient: 64 - 192 + 384 - 384",
        ),
        CatalogCheck(
            "h11", 4, pair.h11, PROVENANCE_DERIVED,
            "b2 of a single-column configuration equals the factor count",
        ),
        CatalogCheck(
            "h21", 68, pair.h21, PROVENANCE_DERIVED,
            "h11 - e/2",
        ),
    ]


def _run_schoen() -> list[CatalogCheck]:
    report = validate(SCHOEN_RESOLVED)
    sites = find_contraction_sites(SCHOEN_RESOLVED)
    checks = [
        CatalogCheck(
            "is_cicy", True, report.is_cicy, PROVENANCE_TRIVIAL,
            "valid CICY 3-fold configuration",
        ),
        CatalogCheck(
            "contraction_site_exists", True, bool(sites), PROVENANCE_TRIVIAL,
            "the P^1 row carries two separate 1s",
        ),
    ]
    if sites:
        site = sites[0]
        transition = analyze(site)
        checks.extend(
            [
                CatalogCheck(
                    "contracts_to_bicubic", True,
                    equivalent(contract(site), SCHOEN_CONTRACTED), PROVENANCE_TRIVIAL,
                    "merging the two cubic columns",
                ),
                CatalogCheck(
                    "odp_count", 81, transition.odp_count, PROVENANCE_DERIVED,
                    "intersection of two bidegree-(3,3) surfaces in P^2 x P^2",
                ),
                CatalogCheck(
                    "euler_resolved", 0, transition.euler_resolved, PROVENANCE_DERIVED,
                    "fiber products of rational elliptic surfaces have e = 0",
                ),
                CatalogCheck(
                    "euler_smoothed", -162, transition.euler_smoothed,
                    PROVENANCE_DERIVED, "Euler number of the smooth bicubic",
                ),
            ]
        )
    return checks


ENTRIES: tuple[CatalogEntry, ...] = (
    CatalogEntry(
        "quintic-web",
        "Determinantal quintic: 16-node contraction [[4|4 1],[1|1 1]] -> [4|5] "
        "and the stored chain to the hub",
        QUINTIC_SPLIT,
        _run_quintic_web,
    ),
    CatalogEntry(
        "example-3-7",
        "P^2 x P^3 x P^1 3-fold contracting onto [[3|4],[1|2]] with 28 nodes",
        MIXED_CONTRACTION_EXAMPLE,
        _run_mixed_example,
    ),
    CatalogEntry(
        "double-solid",
        "Double cover of P^3 branched over a 64-node octic (composite recipe)",
        None,
        _run_double_solid,
    ),
    CatalogEntry(
        "betti-example",
        "P^4 x P^2 x P^2 3-fold with b2 = 5 via the nested surface",
        BETTI_EXAMPLE,
        _run_betti_example,
    ),
    CatalogEntry(
        "c1111",
        "The hub: four P^1 factors cut by one (2,2,2,2) form",
        C1111,
        _run_c1111,
    ),
    CatalogEntry(
        "schoen-fiber-product",
        "Fiber product of rational elliptic surfaces contracting onto the bicubic",
        SCHOEN_RESOLVED,
        _run_schoen,
    ),
)


def entry_names() -> list[str]:
    return [entry.name for entry in ENTRIES]


def get_entry(name: str) -> CatalogEntry:
    for entry in ENTRIES:
        if entry.name == name:
            return entry
    raise KeyError(f"no catalog entry named {name!r} (have: {', '.join(entry_names())})")


def run_entry(name: str) -> list[CatalogCheck]:
    """Execute one entry's checks."""
    return get_entry(name).run()
