"""Exact tools for finite bounded meet semilattices.

Core order computations, filter and ultrafilter enumeration, tightness,
the ultrafilter space with its clopen algebra, classification of the
0-disjunctive / separative / trapping properties, a symbolic clopen
algebra over infinite words, path semilattices of rooted graphs, and an
exhaustive verification catalog for small instances.
"""

from . import cantor, catalog, classify, core, errors, filters, pathlat, stone, suite
from .catalog import CatalogSpec, canonical_key, enumerate_catalog
from .classify import (
    ClassificationReport,
    is_compactable_finite,
    is_separative,
    is_zero_disjunctive,
    meet_separation,
    satisfies_trapping,
    trapping_witness,
)
from .core import (
    Semilattice,
    arrow,
    constrained_set,
    down,
    is_cover,
    parse_semilattice,
    star,
    up,
)
from .filters import (
    Filter,
    enumerate_filters,
    enumerate_ultrafilters,
    extend_to_ultrafilter,
    is_filter,
    is_tight,
    is_ultrafilter,
    principal_filter,
    tight_filters,
)
from .pathlat import (
    RootedGraph,
    covers_hat,
    level,
    parse_rooted_graph,
    sibling_cover_witness,
    sibling_cover_witnesses,
    truncate,
    validate_rooted,
    zero_disjunctive_graph,
)
from .stone import (
    ClopenAlgebra,
    FiniteBooleanAlgebra,
    Representation,
    UltrafilterSpace,
    build_space,
    clopen_algebra,
    clopen_elements,
    dense_check,
    extend_hom,
    filter_of_rep,
    filterspace_nbhd,
    hausdorff_witness,
    join_decomposition,
    kappa,
    kappa_injective,
    opens,
    rep_of_filter,
)
from .suite import VerificationReport, run_suite

__version__ = "0.1.0"
