"""Conjugacy and conjugacy stability of parabolic subgroups of Artin groups.

Library layout:

* :mod:`artinstab.graph` holds the Coxeter graph, the one graph
  representation: names and labels, the int masks every search runs on and
  memos of recognized components, their twists and their twist steps;
* :mod:`artinstab.classify` recognizes finite-type diagrams and classifies
  the whole group into hypothesis families;
* :mod:`artinstab.twist` implements twists, the set-level conjugations by
  Garside elements, and the twist steps on masks that every search runs
  on, kept with the graph;
* :mod:`artinstab.orbit` decides conjugacy of standard parabolic subgroups
  with the breadth-first engine that the stability closures share;
* :mod:`artinstab.stability` decides conjugacy stability;
* :mod:`artinstab.oracle` is an independent integer root-system engine used
  to cross-check the twist formulas;
* :mod:`artinstab.cli` is the command-line entry point.
"""

from types import ModuleType as _ModuleType

from .classify import (
    GroupFamilyReport,
    IrreducibleType,
    TypedComponent,
    classify_group,
    is_spherical,
    recognize_component,
    standard_graph,
)
from .graph import (
    INFINITY,
    CoxeterGraph,
    GraphError,
    VertexSet,
    adjacent,
    components,
    parse_graph,
    to_dot,
    to_json_dict,
)
from .oracle import (
    DihedralElement,
    UnsupportedTypeError,
    WeylElement,
    expand_subset,
    longest_element,
    positive_roots,
    w0_conjugation_permutation,
)
from .orbit import OrbitTable, conjugator, orbit
from .stability import (
    ComponentTuple,
    StabilityReport,
    SubsetSizeLimitError,
    Witness,
    check_d2k_exception,
    check_d4_exception,
    decide_stability,
    decide_with_applicability,
    initial_tuple,
    tuple_orbit,
    tuple_twist,
)
from .twist import (
    ConjugatorWord,
    DeltaActionUndefined,
    TwistFactor,
    apply_word,
    delta_automorphism,
    delta_conjugate_set,
    elementary_twist,
)

__version__ = "0.1.0"

__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
