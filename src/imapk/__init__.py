"""Exact invariants of piecewise monotonic interval maps.

Build a map (directly or through a family constructor), then compute its
orbits, Markov data, transfer-operator minimal polynomial, K-groups, entropy
enclosure, and classification, all in exact arithmetic.
"""

from .scalar import NumberField, Scalar, as_scalar, rational
from .interval_map import (
    AffineBranch,
    Certificate,
    PMMap,
    dynamics_flags,
    eval_multivalued,
    preimages,
    validate_map,
)
from .stepfun import StepFn, indicator, linear_comb, transfer
from .orbit import critical_closure, forward_orbit, idoc_check, keane_idoc, tau_orbit
from .markov import detect_markov, graph_flags, separation_check
from .snf import (
    KGroups,
    Route,
    SmithDecomposition,
    kgroups_from_incidence,
    smith_normal_form,
    stationary_dimension_triple,
)
from .ktheory import (
    beta_minpoly,
    classify,
    kgroups_from_minpoly,
    minimal_polynomial_iter,
    module_generators,
    nonperiodic_kgroups,
    unimodal_minpoly,
)
from .entropy import entropy_report, perron_enclosure
from .families import FamilySpec, build, exchange_kgroups, multimodal_kgroups
from .specfile import parse_spec
from .report import run

__version__ = "0.1.0"
