"""Program slicing (the "S" trace-reduction technique)."""

from __future__ import annotations

from typing import Iterable, Optional

from repro import obs
from repro.cfg import backward_slice_lines
from repro.lang import ast


def sliced_tracer_settings(
    program: ast.Program,
    criterion_variables: Optional[Iterable[str]] = None,
    protected_functions: Iterable[str] = (),
) -> dict[str, object]:
    """Tracer keyword arguments implementing slicing-based trace reduction.

    Returns ``{"relevant_lines": ..., "concrete_functions": ...}``: the
    backward slice plus the list of functions none of whose statements are in
    the slice — such functions are executed concretely, which removes whole
    irrelevant call trees from the formula (function-level slicing).
    Timed as the ``reduction.slice`` span.
    """
    with obs.span("reduction.slice", program=program.name) as timed:
        relevant = backward_slice_lines(program, criterion_variables)
        protected = set(protected_functions) | {"main"}
        concrete: list[str] = []
        for name, function in program.functions.items():
            if name in protected:
                continue
            lines = _function_lines(function)
            if lines and not lines & relevant:
                concrete.append(name)
        timed.set(relevant_lines=len(relevant), concrete_functions=len(concrete))
    return {"relevant_lines": relevant, "concrete_functions": tuple(sorted(concrete))}


def _function_lines(function: ast.Function) -> set[int]:
    lines: set[int] = set()

    def visit(statements) -> None:
        for stmt in statements:
            lines.add(stmt.line)
            if isinstance(stmt, ast.If):
                visit(stmt.then_body)
                visit(stmt.else_body)
            elif isinstance(stmt, ast.While):
                visit(stmt.body)

    visit(function.body)
    return lines


def slice_relevant_lines(
    program: ast.Program,
    criterion_variables: Optional[Iterable[str]] = None,
) -> set[int]:
    """Source lines that may influence the program's assertions and outputs.

    The returned set is meant to be passed as ``relevant_lines`` to
    :class:`repro.concolic.ConcolicTracer`: statements outside the slice are
    executed concretely and contribute no clauses to the MaxSAT instance,
    which is exactly how "a simple program slicing removed the assignments
    irrelevant to the assertion being checked" in the paper's tot_info
    experiment.
    """
    return backward_slice_lines(program, criterion_variables)
