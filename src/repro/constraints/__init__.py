"""Soft constraint system (paper Sec. 2).

Variables with finite domains, soft constraints as assignment→semiring
functions, the operators ``⊗`` (combine), ``÷`` (divide), ``⇓`` (project),
``∃x`` (hide), diagonal constraints, entailment, and the immutable
constraint store used by the nmsccp language.
"""

from .assignments import Assignment, assignment_key
from .constraint import (
    CombinedConstraint,
    ConstantConstraint,
    ConstraintError,
    DividedConstraint,
    FunctionConstraint,
    ProjectedConstraint,
    RenamedConstraint,
    SoftConstraint,
)
from .cylindric import DiagonalConstraint, diagonal, parameter_passing
from .operations import (
    best_assignments,
    blevel,
    combine,
    constraint_leq,
    constraints_equal,
    divide,
    entails,
    project,
)
from .digest import constraint_digest
from .polynomial import Polynomial, polynomial_constraint
from .store import (
    STORE_BACKENDS,
    ConstraintStore,
    FactoredStore,
    MonolithStore,
    StoreError,
    clear_store_caches,
    empty_store,
)
from .table import TableConstraint, to_table
from .variables import (
    Variable,
    VariableError,
    assignment_space_size,
    integer_variable,
    iter_assignments,
    merge_scopes,
    scope_names,
    variable,
)

__all__ = [
    "Assignment",
    "assignment_key",
    "SoftConstraint",
    "ConstantConstraint",
    "FunctionConstraint",
    "CombinedConstraint",
    "DividedConstraint",
    "ProjectedConstraint",
    "RenamedConstraint",
    "ConstraintError",
    "TableConstraint",
    "to_table",
    "DiagonalConstraint",
    "diagonal",
    "parameter_passing",
    "combine",
    "divide",
    "project",
    "entails",
    "blevel",
    "best_assignments",
    "constraint_leq",
    "constraints_equal",
    "Polynomial",
    "polynomial_constraint",
    "ConstraintStore",
    "MonolithStore",
    "FactoredStore",
    "StoreError",
    "empty_store",
    "STORE_BACKENDS",
    "clear_store_caches",
    "constraint_digest",
    "Variable",
    "VariableError",
    "variable",
    "integer_variable",
    "merge_scopes",
    "scope_names",
    "iter_assignments",
    "assignment_space_size",
]
