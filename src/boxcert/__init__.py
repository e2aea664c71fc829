"""Certified verification of exact-arithmetic classifiers and learners.

Every operation here is a terminating approximation indexed by a natural
number fuel: answers are either committed (and then stay committed at every
higher fuel) or expressly undetermined.  Regions come as box covers for
universal questions and dyadic point enumerations for existential ones;
classifiers evaluate both points and boxes with exact rational arithmetic,
so a committed answer is a proof, not an estimate.
"""

from __future__ import annotations

from .classifiers import (
    ColorEnvelope,
    IntervalClassifier,
    Layer,
    constant_classifier,
    hyperplane_classifier,
    make_layer,
    threshold_net_classifier,
)
from .errors import BoxcertError, IncoherentRace, ParseError, ValidationError
from .kernel import Fuel, KBot, Outcome, SemiDecider, TwoBot, Verdict, any_of, race
from .learners import (
    AUGMENTATION_CAP,
    DeviationWitness,
    ExtensionWitness,
    Learner,
    Sample,
    does_deviate,
    majority_learner,
    nn_learner,
    robust_point,
    sparse_or_dense,
)
from .numerics import (
    Box,
    Interval,
    LowerReal,
    MetricKind,
    Point,
    Q,
    UpperReal,
    as_rational,
    dist_point,
    dist_range,
    dyadic_grid,
    dyadic_step,
    format_rational,
    parse_rational,
)
from .regions import (
    CompactSet,
    OvertSet,
    VKSet,
    closed_ball,
    cover_width_target,
    domain_box,
    empty_region,
    open_ball_overt,
    outside_ball_compact,
    outside_ball_overt,
)
from .verify import (
    ColorWitness,
    RadiusReport,
    constant_value,
    exists_value,
    fixed_value,
    forall_value,
    locally_constant,
    optimal_radius,
    radius_lower,
    radius_upper,
)

__version__ = "0.1.0"

__all__ = [
    "AUGMENTATION_CAP",
    "Box",
    "BoxcertError",
    "ColorEnvelope",
    "ColorWitness",
    "CompactSet",
    "DeviationWitness",
    "ExtensionWitness",
    "Fuel",
    "IncoherentRace",
    "Interval",
    "IntervalClassifier",
    "KBot",
    "Layer",
    "Learner",
    "LowerReal",
    "MetricKind",
    "Outcome",
    "OvertSet",
    "ParseError",
    "Point",
    "Q",
    "RadiusReport",
    "Sample",
    "SemiDecider",
    "TwoBot",
    "UpperReal",
    "VKSet",
    "ValidationError",
    "Verdict",
    "any_of",
    "as_rational",
    "closed_ball",
    "constant_classifier",
    "constant_value",
    "cover_width_target",
    "dist_point",
    "dist_range",
    "does_deviate",
    "domain_box",
    "dyadic_grid",
    "dyadic_step",
    "empty_region",
    "exists_value",
    "fixed_value",
    "forall_value",
    "format_rational",
    "hyperplane_classifier",
    "locally_constant",
    "majority_learner",
    "make_layer",
    "nn_learner",
    "open_ball_overt",
    "optimal_radius",
    "outside_ball_compact",
    "outside_ball_overt",
    "parse_rational",
    "race",
    "radius_lower",
    "radius_upper",
    "robust_point",
    "sparse_or_dense",
    "threshold_net_classifier",
]
