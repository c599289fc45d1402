"""Wiring diagrams as an operad, with a relational query semantics.

Core layers: :mod:`wiring.stars` (cospans and composition),
:mod:`wiring.typed` (value domains), :mod:`wiring.relations` (conjunctive
evaluation), :mod:`wiring.partitions` (equivalence relations),
:mod:`wiring.closed` (currying), :mod:`wiring.recursion` (fixed points),
:mod:`wiring.dsl` / :mod:`wiring.query` / :mod:`wiring.cli` (the script
front end), and :mod:`wiring.laws` (random law checks).

Values are immutable: stars, diagrams and relations derive from
:class:`wiring.stars.Frozen`, which refuses to assign or delete an
attribute once ``__init__`` has set it, and plain records are
``typing.NamedTuple`` classes, so importing the package builds no
``dataclasses`` methods.
"""

from .errors import (
    CsvFormatError,
    EnumerationLimitError,
    InterfaceError,
    ScriptError,
    TypeMismatchError,
    ValidationError,
    WiringError,
)
from .stars import (
    Star,
    WiringDiagram,
    canonicalize,
    compose,
    diagrams_equal,
    identity_diagram,
    reindex_inner,
)
from .typed import (
    TypedStar,
    TypedWiringDiagram,
    ValueDomain,
    canonicalize_typed,
    lift_uniform,
    typed_compose,
    typed_diagrams_equal,
    typed_identity,
)
from .relations import Relation, evaluate, union
from .partitions import Partition
from .closed import (
    HomStar,
    apply_hom,
    externalize,
    internal_hom,
    internalize,
)
from .recursion import (
    FixedPointResult,
    RecursiveSetup,
    build_setup,
    fixed_point,
    step,
)
from .laws import GeneratorConfig, SuiteReport

__version__ = "0.1.0"
