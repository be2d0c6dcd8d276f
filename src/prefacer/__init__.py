"""prefacer: a workbench for modelling-language definition packages.

Definition packages (prefaces) pin down one member of a modelling-language
family: its constants, semantic options, stereotypes, well-formedness
constraints and transforms.  This package composes them with ordered
override semantics, validates models against the result, applies
statechart-to-class induction, and emits skeleton and monitor code.
"""

from .constraints import EvalError, check_constraints, eval_expr
from .diagnostics import Diagnostic, Severity, SourceLocation
from .model import (
    Attribute,
    ClassDef,
    Invariant,
    Model,
    Operation,
    Origin,
    Param,
    State,
    Statechart,
    Transition,
    builtin_check,
    lookup_element,
)
from .preface import (
    EffectiveDefinitions,
    Package,
    PackageRepository,
    Provenance,
    compose,
    explain,
    flatten_imports,
    lookup_scalar,
    resolve,
    resolve_predicated,
    validate_preface,
)
from .skeletongen import SkeletonUnit, generate_monitor, generate_skeleton
from .textio import (
    ParseError,
    format_expr,
    parse_expr,
    parse_model,
    parse_package,
    print_model,
    print_package,
    print_report,
)
from .transformer import TransformReport, apply_transforms

__version__ = "0.1.0"

__all__ = [
    "Attribute",
    "ClassDef",
    "Diagnostic",
    "EffectiveDefinitions",
    "EvalError",
    "Invariant",
    "Model",
    "Operation",
    "Origin",
    "Package",
    "PackageRepository",
    "Param",
    "ParseError",
    "Provenance",
    "Severity",
    "SkeletonUnit",
    "SourceLocation",
    "State",
    "Statechart",
    "TransformReport",
    "Transition",
    "apply_transforms",
    "builtin_check",
    "check_constraints",
    "compose",
    "eval_expr",
    "explain",
    "flatten_imports",
    "format_expr",
    "generate_monitor",
    "generate_skeleton",
    "lookup_element",
    "lookup_scalar",
    "parse_expr",
    "parse_model",
    "parse_package",
    "print_model",
    "print_package",
    "print_report",
    "resolve",
    "resolve_predicated",
    "validate_preface",
]
