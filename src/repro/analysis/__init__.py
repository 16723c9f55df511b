"""Static analysis and post-hoc verification tooling for the reproduction.

Four coordinated correctness layers on top of the simulator:

* :mod:`repro.analysis.lint` — repo-specific AST lint rules (RPR001–RPR005)
  guarding the determinism and numerical hygiene the result cache and the
  paper's cost model depend on.
* :mod:`repro.analysis.units` — a flow-sensitive dimensional-analysis
  checker (RPR006–RPR008) that propagates the physical units declared in
  :mod:`repro.analysis.dims` (MB, MB/s, seconds) through the simulator's
  arithmetic and flags mixed-dimension operations before any run.
* :mod:`repro.analysis.purity` — a parallel-purity lint (RPR009) that walks
  every function submitted to the process pool (:mod:`repro.parallel.pool`)
  plus its transitive callees, flagging hidden state that would make results
  depend on worker assignment.
* :mod:`repro.analysis.audit` — a schedule auditor that re-verifies executed
  Gantt traces against the paper's execution-time invariants (single-port
  model, staged-before-execute, disk capacity), mirroring how
  :func:`repro.core.validate.validate_plan` oracles *plans*.  Run via
  ``run_batch(..., audit=True)`` or ``repro audit``.

``repro lint`` runs the three static layers in one pass; ``--select`` runs
some of their codes alone.

``docs/invariants.md`` catalogues the invariants the lint and audit layers
enforce; ``docs/analysis.md`` catalogues the full RPR001–RPR009 rule set and
the dimension conventions.
"""

from typing import Any

__all__ = [
    "AuditError",
    "AuditReport",
    "AuditViolation",
    "audit_runtime",
    "Finding",
    "Rule",
    "check_purity_paths",
    "check_units_paths",
    "iter_rules",
    "lint_paths",
    "lint_source",
]

_LINT_NAMES = frozenset(
    {"Finding", "Rule", "iter_rules", "lint_paths", "lint_source"}
)
_AUDIT_NAMES = frozenset(
    {"AuditError", "AuditReport", "AuditViolation", "audit_runtime"}
)


def __getattr__(name: str) -> Any:
    # Lazy re-exports: keeps `python -m repro.analysis.lint` from importing
    # the submodule twice (runpy warns) and the audit layer import-free for
    # lint-only invocations.
    if name in _LINT_NAMES:
        from . import lint

        return getattr(lint, name)
    if name in _AUDIT_NAMES:
        from . import audit

        return getattr(audit, name)
    if name == "check_units_paths":
        from . import units

        return units.check_paths
    if name == "check_purity_paths":
        from . import purity

        return purity.check_paths
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
