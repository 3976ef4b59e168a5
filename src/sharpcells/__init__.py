"""Format/degree complexity accounting for semialgebraic sets.

Formulas carry a format (variable budget) and a degree (total algebraic
cost); the package computes these, derives them through axiom rule
systems and structure trees, and backs them with exact cylindrical
decompositions: connected components, stratification, triangulation,
Betti numbers, definable choice, and star representations whose format
stays constant where direct cell formulas grow.
"""

from .calculus import (
    AxiomSystem,
    CalculusError,
    Leaf,
    Node,
    P_SYSTEM,
    ReductionWitness,
    SHARP_SYSTEM,
    W_SYSTEM,
    apply_rule,
    check_reduction,
    derive_fd,
    normalize_bound,
)
from .cad import (
    CADError,
    CeilingError,
    Cell,
    CellDecomposition,
    cell_formula,
    compatible_decomposition,
    decide,
    decomposition_report,
    locate,
    sample_in_cell,
)
from .choice import ChoiceError, ChoiceFunction, choice_1d, region_formulas
from .fd import FDPair, atom_fd, fd_of_formula, pformat_of_formula
from .formula import (
    And,
    Atom,
    Environment,
    Exists,
    Forall,
    Formula,
    FormulaError,
    NamedAtom,
    Not,
    Or,
    resolve_named,
    to_text,
    validate,
)
from .parser import ParseError, parse_formula, parse_poly
from .poly import Polynomial
from .star import (
    StarEntry,
    StarError,
    StarRep,
    cell_star_rep,
    star_ccd,
    star_fd,
    star_report,
    star_union,
    to_star,
)
from .topology import (
    AdjacencyGraph,
    Component,
    NullifiedFibreError,
    SimplicialComplex,
    Stratum,
    TopologyError,
    adjacency,
    betti,
    check_component_bound,
    connected_components,
    stratify,
    triangulate,
)
from .trees import (
    StructureTree,
    TLeaf,
    TNode,
    TreeError,
    lift_times_R,
    omega_fd,
    tree_to_formula,
    validate_tree,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
