"""Exhaustive desk-scale verification: the conjecture scan plus one named
check suite per theorem, lemma, and proposition.

Every suite is exact (no tolerances) and fails loudly with a reproducer
graph6 string. The scan records each minimally tough graph with toughness
above 1/2 in the scanned class; hits that contradict a proved theorem are
distinguished from open-conjecture candidates.
"""

from __future__ import annotations

import csv
import json
import os
import time
from contextlib import nullcontext
from fractions import Fraction
from functools import partial
from itertools import combinations
from typing import Callable, Iterator, Optional

from .chordal import (
    clique_tree,
    is_chordal,
    is_minimal_separator,
    is_simple,
    maximum_neighbor,
    maximum_neighboring_edge,
    minimal_separators,
    minimal_separators_via_clique_tree,
    moplexes,
)
from .chordal import is_clique as _mask_is_clique
from .families import matched_cliques, wheel
from .graphs import (
    VERTEX_BOUNDS,
    Graph,
    GraphError,
    bits,
    components,
    connected_chordal_reps,
    graph_reps,
    has_parts,
    level_map,
    parse_graph6,
    separates,
    simplicial_mask,
    to_graph6,
)
from .rational import ToughnessValue, exceeds_half
from .recognize import (
    find_asteroidal_triple,
    find_hole,
    find_induced_claw,
    find_induced_sun,
    find_split_obstruction,
    is_split,
    is_strongly_chordal,
    universal_vertices,
)
from .toughness import (
    check_condition2_restricted,
    check_non_minimality_characterization,
    check_sufficient_condition,
    find_edge_witness_set,
    is_minimally_tough,
    toughness,
    vertex_connectivity,
)


def _any(g: Graph) -> bool:
    return True


# scan class -> (enumerator, filter): the members are the enumerator's graphs
# that pass the filter, up to the enumerator's VERTEX_BOUNDS entry. Enumerators
# and recognizers are looked up here when called, so patching them reaches the
# scan. The enumerator yields only chordal graphs, so interval_like tests
# AT-freeness alone. The filters run in the scan's workers, which receive the
# class name: a lambda cannot be pickled.
SCAN_CLASSES: dict[str, tuple[str, Callable[[Graph], bool]]] = {
    "chordal": ("connected_chordal_reps", _any),
    "strongly_chordal": ("connected_chordal_reps", lambda g: is_strongly_chordal(g)),
    "split": ("connected_chordal_reps", lambda g: is_split(g)),
    "interval_like": ("connected_chordal_reps", lambda g: find_asteroidal_triple(g) is None),
    "all": ("graph_reps", lambda g: g.is_connected()),
}

# The paper's theorems, one per thm_* suite: (class, member, low, high), and no
# member is minimally t-tough for low < t <= high, with high None for no upper
# end. A scan hit counts against its first row, so the (1/2,1] row comes first.
# Recognizers are looked up here when called.
Theorem = tuple[str, Callable[[Graph], bool], Fraction, Optional[Fraction]]

THEOREMS: dict[str, Theorem] = {
    "thm_chordal_interval": ("chordal", lambda g: is_chordal(g), Fraction(1, 2), Fraction(1)),
    "thm_strongly_chordal": ("strongly chordal", lambda g: is_strongly_chordal(g),
                             Fraction(1, 2), None),
    "thm_split": ("split", lambda g: is_split(g), Fraction(1, 2), None),
    "thm_universal": ("chordal with a universal vertex",
                      lambda g: is_chordal(g) and bool(universal_vertices(g)),
                      Fraction(1, 2), None),
}

SEVERITY_VIOLATION = "theorem_violation"
SEVERITY_CANDIDATE = "conjecture_candidate"
SEVERITY_FINDING = "finding"


def emit_report(report: dict, fmt: str, fh) -> None:
    """Write a scan report as JSON, or its hits as CSV, to an open text file."""
    if fmt not in ("json", "csv"):
        raise GraphError(f"unknown report format {fmt!r}")
    if fmt == "json":
        json.dump(report, fh, indent=2)
        fh.write("\n")
    else:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["graph6", "num", "den"])
        writer.writerows([c["graph6"], c["tau_num"], c["tau_den"]]
                         for c in report["counterexamples"])


# ---------------------------------------------------------------------------
# Conjecture scan
# ---------------------------------------------------------------------------

def scan_bound(class_filter: str) -> int:
    """Largest n_max a scan of the class accepts: its enumerator's bound."""
    return VERTEX_BOUNDS[SCAN_CLASSES[class_filter][0]]


def _scan_worker(class_filter: str, g6: str) -> tuple[bool, Optional[tuple[str, Fraction]]]:
    """Whether the isomorphism class passes the scan class's filter, and
    (g6, tau) when it is also a hit, minimally tough with tau > 1/2.

    A cut vertex v settles tau <= 1/2 before the tau walk: S = {v} leaves
    two or more components (tau <= kappa/2 at kappa = 1). A simplicial
    vertex is never a cut vertex, since its neighbours stay adjacent."""
    g = parse_graph6(g6)
    if not SCAN_CLASSES[class_filter][1](g):
        return False, None
    full = g.full_mask
    if any(has_parts(g.adj, full ^ 1 << v, 2) for v in bits(full & ~simplicial_mask(g))):
        return True, None
    return True, (g6, toughness(g)) if _minimally_tough_in(g, exceeds_half) else None


def _in_range(tau: ToughnessValue, low: Fraction, high: Optional[Fraction]) -> bool:
    """low < tau <= high, exact; with high None, low < tau."""
    return low < tau and (high is None or tau <= high)


def _theorem_detail(cls: str, tau: Fraction, low: Fraction, high: Optional[Fraction]) -> str:
    text = f"> {low}" if high is None else f"in ({low},{high}]"
    return f"{cls} and minimally {tau}-tough with tau {text}"


def classify_counterexample(g6: str, tau: Fraction) -> tuple[str, str]:
    """Severity of a scan hit with tau > 1/2: the first THEOREMS row the hit
    contradicts, an open-conjecture candidate, or a plain finding outside the
    conjecture's class."""
    if not exceeds_half(tau):
        raise GraphError(f"scan hits have tau > 1/2, got {tau}")
    g = parse_graph6(g6)
    if not is_chordal(g):
        return SEVERITY_FINDING, f"minimally {tau}-tough but not chordal"
    for cls, member, low, high in THEOREMS.values():
        if _in_range(tau, low, high) and member(g):
            return SEVERITY_VIOLATION, _theorem_detail(cls, tau, low, high)
    return SEVERITY_CANDIDATE, (
        f"chordal and minimally {tau}-tough with tau > 1; refutation candidate")


def scan_conjecture(n_max: int, class_filter: str = "chordal",
                    jobs: int = 1) -> tuple[dict, list[tuple[str, Fraction, str, str]]]:
    """Record every minimally tough graph with toughness above 1/2 among the
    connected members of the class, over all isomorphism classes up to n_max.
    Returns the report that scan --format json prints, and every hit as
    (graph6, tau, severity, detail), classified after elapsed_s is taken."""
    import multiprocessing  # here, so that only a scan pays for the import

    if class_filter not in SCAN_CLASSES:
        raise GraphError(f"unknown scan class {class_filter!r}")
    bound = scan_bound(class_filter)
    if not 1 <= n_max <= bound:
        raise GraphError(f"scan bound {n_max} outside 1..{bound} for class {class_filter}")
    enumerator = SCAN_CLASSES[class_filter][0]
    worker = partial(_scan_worker, class_filter)
    start = time.perf_counter()
    per_n: dict[str, int] = {}
    found: list[tuple[str, Fraction]] = []
    # one pool for the whole scan, growing each enumeration level and then
    # filtering and testing its classes, in the pool's default chunks (about
    # four per worker and level); a single worker stays in this process
    workers = min(jobs, os.cpu_count() or 1)
    with multiprocessing.Pool(workers) if workers > 1 else nullcontext() as pool:
        scan_map = pool.map if pool else map
        with level_map(scan_map):
            for n in range(1, n_max + 1):
                answers = list(scan_map(worker, map(to_graph6, globals()[enumerator](n))))
                per_n[str(n)] = sum(kept for kept, _ in answers)
                found.extend(hit for _, hit in answers if hit)
    elapsed = time.perf_counter() - start
    hits = [(g6, tau, *classify_counterexample(g6, tau)) for g6, tau in found]
    return {"suite": "scan_conjecture", "class_filter": class_filter, "n_max": n_max,
            "graphs_checked": sum(per_n.values()), "per_n": per_n,
            "violations": [{"graph6": g6, "detail": detail} for g6, _, severity, detail in hits
                           if severity == SEVERITY_VIOLATION],
            "counterexamples": [{"graph6": g6, "tau_num": tau.numerator,
                                 "tau_den": tau.denominator} for g6, tau in found],
            "elapsed_s": elapsed}, hits


# ---------------------------------------------------------------------------
# Named suites
# ---------------------------------------------------------------------------

def _wheels(n: int) -> tuple[Graph, ...]:
    return (wheel(n),) if n >= 5 else ()


def _matched_cliques(n: int) -> tuple[Graph, ...]:
    return (matched_cliques(n // 2),) if n >= 6 and n % 2 == 0 else ()


def _nontrivial(g: Graph) -> bool:
    return g.is_connected() and not g.is_complete()


def _minimally_tough_in(g: Graph, in_range: Callable[[ToughnessValue], bool]) -> bool:
    """Minimally tough with tau in range; the edge test runs only once tau
    is known to be in range, and then finds it in the toughness cache."""
    return in_range(toughness(g)) and is_minimally_tough(g)[0]


def _check_connectivity_bound(g: Graph):
    """tau <= kappa/2 on connected noncomplete graphs."""
    t = toughness(g)
    kappa = vertex_connectivity(g)
    if 2 * t.numerator > kappa * t.denominator:
        yield f"tau={t} > kappa/2 with kappa={kappa}"


def _check_witness_sets(g: Graph):
    """Every edge of every minimally tough graph admits a witness set."""
    for edge in g.edges():
        if find_edge_witness_set(g, edge) is None:
            yield f"edge {edge} has no witness set"


def _is_minimal_separator_direct(g: Graph, s: int) -> bool:
    """Definitional oracle: a minimal u-v separator for some pair u, v.

    Separation is monotone under growing the cut, so minimality only needs
    the single-vertex deletions of s. Each component of G - S lies inside one
    component of every G - (S - w), so the least vertex of each component
    stands for all of it. The components of G - (S - w) come from a fresh
    search when a pair first needs them, and a pair is dropped at the first
    w such that S - w still separates it.
    """
    comps = components(g, s)
    if len(comps) < 2:
        return False
    least = [(c & -c).bit_length() - 1 for c in comps]
    deleted: dict[int, list[int]] = {}
    for u, v in combinations(least, 2):
        for w in bits(s):
            if w not in deleted:
                deleted[w] = components(g, s ^ 1 << w)
            if separates(deleted[w], u, v):
                break
        else:
            return True
    return False


def _minimal_separators_brute(g: Graph) -> list[int]:
    """Oracle: every vertex subset that passes the S-full test, by mask.

    Only subsets of the non-simplicial vertices are walked. If S holds a
    simplicial w, then N(w) - S lies inside one clique, so at most one
    component of G - S sees w and S fails the S-full test. The submasks of
    the pool come in increasing order, so the list stays sorted by mask.
    """
    pool = g.full_mask & ~simplicial_mask(g)
    found, s = [], 0
    while True:
        if is_minimal_separator(g, s):
            found.append(s)
        s = (s - pool) & pool
        if not s:
            return found


def _not_minimal_by_recomputation(g: Graph) -> Optional[tuple[int, int]]:
    """Definitional oracle: the first edge whose deletion keeps the toughness.

    Recomputes tau(G - e) for every edge of a connected noncomplete g; None
    when every deletion lowers it.
    """
    t = toughness(g)
    for u, v in g.edges():
        if toughness(g.without_edge(u, v)) == t:
            return u, v
    return None


def _check_minseparator(g: Graph):
    """S-full characterization agrees with the definitional minimal separator
    on every mask, and the generator lists exactly the masks that pass it.
    This walks every mask, the ones _minimal_separators_brute skips too."""
    passing = []
    for s in range(1 << g.n):
        full = is_minimal_separator(g, s)
        if full:
            passing.append(s)
        if full != _is_minimal_separator_direct(g, s):
            yield f"S-full test disagrees on cut mask {s}"
    if minimal_separators(g) != passing:
        yield "generated separators differ from the S-full walk"


def _check_dirac(g: Graph):
    """Chordal iff every minimal separator induces a clique."""
    all_cliques = all(_mask_is_clique(g, s) for s in _minimal_separators_brute(g))
    if is_chordal(g) != all_cliques:
        yield "chordality and clique-separator test disagree"


def _check_cliquetree_separators(g: Graph):
    """Clique-tree edge intersections equal the brute-force minimal separators."""
    if minimal_separators_via_clique_tree(g, clique_tree(g)) != _minimal_separators_brute(g):
        yield "separator sets differ"


def _check_two_moplexes(g: Graph):
    """Every noncomplete graph has at least two moplexes."""
    found = len(moplexes(g))
    if found < 2:
        yield f"only {found} moplex(es)"


def _check_simple_moplicial(g: Graph):
    """Every simple vertex belongs to a moplex."""
    moplicial = sum(moplexes(g))  # disjoint classes of N[v], so the sum is their union
    for v in range(g.n):
        if is_simple(g, v) and not moplicial >> v & 1:
            yield f"simple vertex {v} not moplicial"


def _check_characterization(g: Graph):
    """The two-condition edge test agrees with per-edge toughness recomputation."""
    edge = check_non_minimality_characterization(g)
    direct = _not_minimal_by_recomputation(g) is not None
    if (edge is not None) != direct:
        yield f"characterization edge={edge}, direct NotMinimal={direct}"


def _check_restricted_separators(g: Graph):
    """Restricted and unrestricted separator conditions agree on every edge."""
    for edge in g.edges():
        restricted, unrestricted = check_condition2_restricted(g, edge)
        if restricted != unrestricted:
            yield f"edge {edge}: restricted={restricted} unrestricted={unrestricted}"


def _check_sufficient(g: Graph):
    """The common-neighbor hypothesis at t = tau implies not minimally tough."""
    edge = check_sufficient_condition(g, toughness(g))
    if edge is not None and is_minimally_tough(g)[0]:
        yield f"edge {edge} satisfies the hypothesis yet minimal"


def _check_moplicial_neighbors(g: Graph):
    """A chordal graph whose moplicial vertex has a maximum neighbor or
    maximum neighboring edge is not minimally tough once tau > 1/2."""
    if not _minimally_tough_in(g, exceeds_half):
        return
    for moplex in moplexes(g):
        for v in bits(moplex):
            if maximum_neighbor(g, v) is not None or \
                    maximum_neighboring_edge(g, v) is not None:
                yield (f"minimally tough, moplicial vertex {v} has a maximum "
                       f"neighbor or neighboring edge")


def _check_theorem(name: str, g: Graph):
    """No graph of the THEOREMS row's class is minimally t-tough for t in its range."""
    cls, member, low, high = THEOREMS[name]
    if _minimally_tough_in(g, lambda t: _in_range(t, low, high)) and member(g):
        yield _theorem_detail(cls, toughness(g), low, high)


def _check_sun_or_hole(g: Graph):
    """Every minimally tough graph with tau > 1/2 has a hole or induced sun."""
    if find_hole(g) is None and find_induced_sun(g) is None:
        yield "neither hole nor sun present"


def _check_split_obstructions(g: Graph):
    """Every minimally tough graph with tau > 1/2 has an induced C4, C5, or 2K2."""
    if find_split_obstruction(g) is None:
        yield "no induced C4, C5, or 2K2"


def _is_star(g: Graph) -> bool:
    degrees = sorted(g.degree(v) for v in range(g.n))
    return g.n >= 3 and degrees == [1] * (g.n - 1) + [g.n - 1]


def _check_stars(g: Graph):
    """With a universal vertex and finite tau <= 1, minimally tough means star."""
    t = toughness(g)
    minimal = is_minimally_tough(g)[0]
    star_shaped = _is_star(g)
    if minimal != star_shaped:
        yield f"minimally tough={minimal} but star={star_shaped}"
    elif star_shaped and t != Fraction(1, g.n - 1):
        yield f"star with {g.n - 1} leaves has tau={t}"


def _check_wheel(g: Graph):
    """Wheels are minimally tough with tau = (n+1)/(n-1) or n/(n-2)."""
    n = g.n
    expected = Fraction(n + 1, n - 1) if n % 2 else Fraction(n, n - 2)
    t = toughness(g)
    if t != expected:
        yield f"wheel({n}) tau={t}, expected {expected}"
    elif not is_minimally_tough(g)[0]:
        yield f"wheel({n}) is not minimally tough"


def _check_matched_cliques(g: Graph):
    """Matched cliques are claw-free, k-connected, minimally (k/2)-tough."""
    k = g.n // 2
    t = toughness(g)
    if t != Fraction(k, 2):
        yield f"matched_cliques({k}) tau={t}"
        return
    if not is_minimally_tough(g)[0]:
        yield f"matched_cliques({k}) not minimally tough"
    if vertex_connectivity(g) != k:
        yield f"matched_cliques({k}) kappa != {k}"
    if find_induced_claw(g) is not None:
        yield f"matched_cliques({k}) has a claw"


# One row per suite: (source, bound, keep, check). source names a function of
# this module that gives the graphs on exactly n vertices, looked up when the
# suite runs; keep(g) decides whether g counts toward graphs_checked, and
# check(g) yields one detail string per violation. Rows hold module-level
# functions or lambdas, never a library function such as toughness itself, so
# that patching a name in this module reaches every suite.
Suite = tuple[str, int, Callable[[Graph], bool], Callable[[Graph], Iterator[str]]]

SUITES: dict[str, Suite] = {
    "prop_connectivity_bound": ("graph_reps", 7, _nontrivial, _check_connectivity_bound),
    "prop_witness_sets": ("graph_reps", 6, lambda g: is_minimally_tough(g)[0],
                          _check_witness_sets),
    "prop_minseparator": ("graph_reps", 7, _any, _check_minseparator),
    "thm_dirac": ("graph_reps", 7, _any, _check_dirac),
    "prop_cliquetree_separators": ("connected_chordal_reps", 8, _any,
                                   _check_cliquetree_separators),
    "thm_two_moplexes": ("graph_reps", 7, lambda g: not g.is_complete(),
                         _check_two_moplexes),
    "prop_simple_moplicial": ("graph_reps", 7, _any, _check_simple_moplicial),
    "thm_characterization": ("graph_reps", 6, _nontrivial, _check_characterization),
    "lemma_restricted_separators": ("graph_reps", 6, _nontrivial,
                                    _check_restricted_separators),
    "lemma_sufficient": ("graph_reps", 7, _nontrivial, _check_sufficient),
    "thm_chordal_interval": ("graph_reps", 7, _nontrivial,
                             partial(_check_theorem, "thm_chordal_interval")),
    "lemma_moplicial_neighbors": ("connected_chordal_reps", 7, lambda g: not g.is_complete(),
                                  _check_moplicial_neighbors),
    "thm_strongly_chordal": (
        "connected_chordal_reps", 7, lambda g: not g.is_complete() and is_strongly_chordal(g),
        partial(_check_theorem, "thm_strongly_chordal")),
    "thm_split": ("connected_chordal_reps", 7, lambda g: not g.is_complete() and is_split(g),
                  partial(_check_theorem, "thm_split")),
    "thm_universal": ("connected_chordal_reps", 7,
                      lambda g: not g.is_complete() and bool(universal_vertices(g)),
                      partial(_check_theorem, "thm_universal")),
    "cor_sun_or_hole": ("graph_reps", 7, lambda g: _minimally_tough_in(g, exceeds_half),
                        _check_sun_or_hole),
    "cor_split_obstructions": ("graph_reps", 7, lambda g: _minimally_tough_in(g, exceeds_half),
                               _check_split_obstructions),
    "thm_stars": ("graph_reps", 7,
                  lambda g: _nontrivial(g) and bool(universal_vertices(g))
                  and toughness(g) <= 1,
                  _check_stars),
    "family_wheels": ("_wheels", 10, _any, _check_wheel),
    "family_matched_cliques": ("_matched_cliques", 8, _any, _check_matched_cliques),
}


def run_suite(name: str, n_max: Optional[int] = None) -> dict:
    """Run one registered suite up to n_max (default: the suite's bound).
    The report is the record verify --json prints; the suite passes when
    its violations list is empty."""
    if name not in SUITES:
        raise GraphError(f"unknown suite {name!r}")
    source, bound, keep, check = SUITES[name]
    if n_max is None:
        n_max = bound
    if not 1 <= n_max <= bound:
        raise GraphError(f"suite {name} accepts n_max 1..{bound}, got {n_max}")
    start = time.perf_counter()
    checked, violations = 0, []
    for n in range(1, n_max + 1):
        for g in globals()[source](n):
            if keep(g):
                checked += 1
                violations.extend({"graph6": to_graph6(g), "detail": detail}
                                  for detail in check(g))
    return {"suite": name, "n_max": n_max, "graphs_checked": checked,
            "violations": violations, "elapsed_s": time.perf_counter() - start}
