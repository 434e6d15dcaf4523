"""Answers from outside the code under test.

Every input graph and every expected value here is built with networkx or
with this file's own brute force, never with toughlab. The brute-force
toughness below is deliberately the textbook definition,
min |S| / c(G - S) over all disconnecting S, and shares no code with the
package's kernel.

Run ``python3 perfbench/oracle.py`` to recount the ``verify`` suite table
from networkx's graph atlas and compare it with the pinned table in
``workloads.py``.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from itertools import combinations

import networkx as nx

RANDOM_GRAPHS = 20
RANDOM_N = 14
RANDOM_P = (0.3, 0.45)
RANDOM_QUOTA = {4: 5, 6: 9, 8: 6}  # cut_class -> graphs; sums to RANDOM_GRAPHS


def graph6(g: nx.Graph) -> str:
    g = nx.convert_node_labels_to_integers(g, ordering="sorted")
    return nx.to_graph6_bytes(g, header=False).decode("ascii").strip()


def family_inputs() -> list[tuple[str, str, Fraction | None, str]]:
    """(label, graph6, tau, verdict) for the fixed families of analyze_mix.

    tau is the closed form (None for the complete graph, whose toughness is
    infinite): wheel W_16 = hub + C_15 has tau = n/(n-2) = 8/7, paths 1/2,
    cycles 1, two K_5 joined by a perfect matching 5/2, stars K_{1,12} 1/12.
    """
    return [
        ("wheel:16", graph6(nx.wheel_graph(16)), Fraction(8, 7), "minimally_tough"),
        ("path:18", graph6(nx.path_graph(18)), Fraction(1, 2), "minimally_tough"),
        ("cycle:16", graph6(nx.cycle_graph(16)), Fraction(1), "minimally_tough"),
        ("matched_cliques:5",
         graph6(nx.cartesian_product(nx.complete_graph(5), nx.path_graph(2))),
         Fraction(5, 2), "minimally_tough"),
        ("complete:14", graph6(nx.complete_graph(14)), None, "complete"),
        ("star:12", graph6(nx.star_graph(12)), Fraction(1, 12), "minimally_tough"),
    ]


def cut_class(tau: Fraction, n: int = RANDOM_N) -> int:
    """Largest cut size k with k / (n - k) < tau: the cut sizes an
    increasing-size search must try before it can stop."""
    return max(k for k in range(1, n) if Fraction(k, n - k) < tau)


def random_inputs(seed: int) -> list[tuple[str, Fraction]]:
    """Connected G(n, p) graphs, n = 14 and p drawn from [0.3, 0.45], with
    their brute-force toughness.

    Exhaustive toughness costs roughly the number of cuts up to cut_class,
    which grows about threefold per class, so a free draw would make the
    workload's cost depend on the seed. Graphs are drawn until each of the
    three common classes (about 90% of draws, tau near 1/2, 1 and 3/2)
    holds its quota; the quotas follow the classes' shares of free draws.
    """
    rng = random.Random(seed)
    left = dict(RANDOM_QUOTA)
    out: list[tuple[str, Fraction]] = []
    while len(out) < RANDOM_GRAPHS:
        p = rng.uniform(*RANDOM_P)
        g = nx.gnp_random_graph(RANDOM_N, p, seed=rng.randrange(2 ** 32))
        if not nx.is_connected(g):
            continue
        tau = brute_toughness(g)
        if left.get(cut_class(tau), 0):
            left[cut_class(tau)] -= 1
            out.append((graph6(g), tau))
    return out


def _neighbour_sets(g: nx.Graph) -> list[frozenset[int]]:
    return [frozenset(g.adj[v]) for v in range(g.number_of_nodes())]


def _count_pieces(nbrs: list[frozenset[int]], alive: set[int]) -> int:
    """Connected pieces of the subgraph induced on alive (depth-first)."""
    left = set(alive)
    pieces = 0
    while left:
        pieces += 1
        stack = [left.pop()]
        while stack:
            for w in nbrs[stack.pop()] & left:
                left.discard(w)
                stack.append(w)
    return pieces


def brute_toughness(g: nx.Graph) -> Fraction | None:
    """Toughness by the definition; None for complete graphs (infinite).

    Cuts are tried by increasing size k; a cut of size k leaves at most
    n - k pieces, so once k / (n - k) reaches the best ratio no larger cut
    can improve it.
    """
    n = g.number_of_nodes()
    if g.number_of_edges() == n * (n - 1) // 2:
        return None
    if not nx.is_connected(g):
        return Fraction(0)
    nbrs = _neighbour_sets(g)
    everyone = set(range(n))
    best: Fraction | None = None
    for k in range(1, n - 1):
        if best is not None and Fraction(k, n - k) >= best:
            break
        for cut in combinations(range(n), k):
            pieces = _count_pieces(nbrs, everyone.difference(cut))
            if pieces >= 2 and (best is None or Fraction(k, pieces) < best):
                best = Fraction(k, pieces)
    return best


def cut_ratio(g: nx.Graph, cut: list[int]) -> Fraction:
    """|cut| / c(G - cut), counted by networkx."""
    rest = g.subgraph(set(g) - set(cut))
    return Fraction(len(cut), nx.number_connected_components(rest))


def _tau_without(g: nx.Graph, u: int, v: int) -> Fraction | None:
    h = g.copy()
    h.remove_edge(u, v)
    return brute_toughness(h)


def _minimally_tough(g: nx.Graph, tau: Fraction) -> bool:
    return all(_tau_without(g, u, v) < tau for u, v in g.edges())


def minimality_holds(g: nx.Graph, tau: Fraction, verdict: str,
                     witness_edge: list[int] | None) -> bool:
    """Does the brute force confirm a not_minimal / minimally_tough claim?

    not_minimal is confirmed by its witness edge alone: deleting it keeps
    the toughness. minimally_tough needs every edge to lower it.
    """
    if verdict == "not_minimal":
        return (witness_edge is not None and g.has_edge(*witness_edge)
                and _tau_without(g, *witness_edge) == tau)
    return verdict == "minimally_tough" and _minimally_tough(g, tau)


# ---------------------------------------------------------------------------
# The verify suite table, recounted from networkx's atlas of all graphs on
# at most 7 vertices. Suites whose source is connected chordal graphs up to
# 8 vertices take their count from OEIS A048192 instead (the atlas stops
# at 7), and the two family suites count family members.
# ---------------------------------------------------------------------------

A048192 = (1, 1, 2, 5, 15, 58, 272, 1614, 11911)
"""Connected chordal graphs on n = 1..9 vertices (OEIS A048192)."""


def _is_split(g: nx.Graph) -> bool:
    """Hammer-Simeone: with degrees d1 >= ... >= dn and m the largest i with
    di >= i - 1, g is split iff sum_{i<=m} di = m(m-1) + sum_{i>m} di."""
    d = sorted((deg for _, deg in g.degree), reverse=True)
    m = max(i for i in range(1, len(d) + 1) if d[i - 1] >= i - 1)
    return sum(d[:m]) == m * (m - 1) + sum(d[m:])


_SUN3 = nx.Graph([(0, 1), (1, 2), (0, 2), (3, 0), (3, 1), (4, 1), (4, 2), (5, 2), (5, 0)])


def _is_strongly_chordal(g: nx.Graph) -> bool:
    """Chordal with no induced k-sun (Farber); on at most 7 vertices only the
    3-sun fits."""
    matcher = nx.algorithms.isomorphism.GraphMatcher(g, _SUN3)
    return nx.is_chordal(g) and not matcher.subgraph_is_isomorphic()


def _has_universal(g: nx.Graph) -> bool:
    n = g.number_of_nodes()
    return any(deg == n - 1 for _, deg in g.degree)


def recount_suite_table() -> dict[str, int]:
    """graphs_checked of every suite at its default bound, counted here."""
    counts = dict.fromkeys((
        "prop_connectivity_bound", "prop_witness_sets", "prop_minseparator",
        "thm_dirac", "thm_two_moplexes", "prop_simple_moplicial",
        "thm_characterization", "lemma_restricted_separators",
        "lemma_sufficient", "thm_chordal_interval", "lemma_moplicial_neighbors",
        "thm_strongly_chordal", "thm_split", "thm_universal", "cor_sun_or_hole",
        "cor_split_obstructions", "thm_stars"), 0)
    for g in nx.graph_atlas_g()[1:]:
        n = g.number_of_nodes()
        complete = g.number_of_edges() == n * (n - 1) // 2
        connected = nx.is_connected(g)
        for suite in ("prop_minseparator", "thm_dirac", "prop_simple_moplicial"):
            counts[suite] += 1
        if not complete:
            counts["thm_two_moplexes"] += 1
        if complete or not connected:
            continue
        tau = brute_toughness(g)
        minimal = _minimally_tough(g, tau)
        counts["prop_connectivity_bound"] += 1
        counts["lemma_sufficient"] += 1
        counts["thm_chordal_interval"] += 1
        if n <= 6:
            counts["thm_characterization"] += 1
            counts["lemma_restricted_separators"] += 1
            counts["prop_witness_sets"] += minimal
        if minimal and tau > Fraction(1, 2):
            counts["cor_sun_or_hole"] += 1
            counts["cor_split_obstructions"] += 1
        if _has_universal(g) and tau <= 1:
            counts["thm_stars"] += 1
        if nx.is_chordal(g):
            counts["lemma_moplicial_neighbors"] += 1
            counts["thm_strongly_chordal"] += _is_strongly_chordal(g)
            counts["thm_split"] += _is_split(g)
            counts["thm_universal"] += _has_universal(g)
    counts["prop_cliquetree_separators"] = sum(A048192[:8])
    counts["family_wheels"] = len(range(5, 11))  # wheels on 5..10 vertices
    counts["family_matched_cliques"] = len(range(3, 5))  # k = 3, 4
    return counts


if __name__ == "__main__":
    sys.path.insert(0, __file__.rsplit("/", 1)[0])
    from workloads import SUITE_GRAPHS_CHECKED

    recount = recount_suite_table()
    bad = {k: (recount[k], SUITE_GRAPHS_CHECKED.get(k)) for k in recount
           if recount[k] != SUITE_GRAPHS_CHECKED.get(k)}
    for name in SUITE_GRAPHS_CHECKED:
        print(f"{name:30} pinned {SUITE_GRAPHS_CHECKED[name]:6} recount {recount.get(name)}")
    sys.exit(1 if bad or set(recount) != set(SUITE_GRAPHS_CHECKED) else 0)
