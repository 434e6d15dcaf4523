"""toughlab: exact graph toughness, minimal toughness, and chordal-graph
machinery, with an exhaustive small-graph verifier and CLI."""

from .chordal import (
    clique_tree,
    is_chordal,
    is_minimal_separator,
    is_moplicial,
    is_simple,
    maximal_cliques,
    maximum_neighbor,
    maximum_neighboring_edge,
    minimal_separators,
    minimal_separators_via_clique_tree,
    moplexes,
    peo,
    validate_clique_tree,
)
from .families import (
    build_family,
    complete,
    cycle,
    k_sun,
    matched_cliques,
    path,
    star,
    wheel,
)
from .graphs import (
    Graph,
    Graph6Error,
    GraphError,
    bits,
    canonical_graph,
    components,
    connected_chordal_reps,
    from_edges,
    graph_reps,
    mask_of,
    parse_graph6,
    to_graph6,
)
from .rational import INFINITY, ToughnessValue, format_toughness
from .recognize import (
    find_asteroidal_triple,
    find_hole,
    find_induced_sun,
    find_split_obstruction,
    is_interval_like,
    is_split,
    is_strongly_chordal,
    universal_vertices,
)
from .toughness import (
    check_condition2_restricted,
    check_non_minimality_characterization,
    check_sufficient_condition,
    disjoint_path_count,
    find_edge_witness_set,
    is_minimally_tough,
    is_t_tough,
    toughness,
    toughness_witness,
    vertex_connectivity,
)

__version__ = "0.1.0"
