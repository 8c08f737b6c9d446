"""Delta debugging (the "D" trace-reduction technique).

Zeller and Hildebrandt's ddmin algorithm isolates a minimal failure-inducing
portion of an input.  The paper applies it to the scheduler benchmarks,
whose error-inducing inputs call "a bunch of procedures before deviating
from the golden output": minimizing the command sequence dramatically
shortens the error trace before the MaxSAT instance is built.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

from repro import obs

T = TypeVar("T")


def ddmin(items: Sequence[T], still_fails: Callable[[list[T]], bool]) -> list[T]:
    """Classic ddmin: a 1-minimal sublist on which ``still_fails`` holds.

    ``still_fails`` must hold for the full input.  The result is a sublist
    such that removing any single remaining element makes the failure
    disappear (1-minimality).
    """
    current = list(items)
    if not still_fails(current):
        raise ValueError("ddmin requires the full input to fail")
    granularity = 2
    while len(current) >= 2:
        chunk = max(len(current) // granularity, 1)
        subsets = [current[i : i + chunk] for i in range(0, len(current), chunk)]
        reduced = False
        for index, subset in enumerate(subsets):
            complement = [
                item
                for position, other in enumerate(subsets)
                if position != index
                for item in other
            ]
            if complement and still_fails(complement):
                current = complement
                granularity = max(granularity - 1, 2)
                reduced = True
                break
        if not reduced:
            if granularity >= len(current):
                break
            granularity = min(len(current), granularity * 2)
    return current


def minimize_failing_input(
    inputs: Sequence[int],
    still_fails: Callable[[list[int]], bool],
    neutral: int = 0,
) -> list[int]:
    """Minimize a fixed-length input vector by neutralising positions.

    Unlike plain ddmin (which shortens the list), this keeps the vector
    length but replaces as many positions as possible with ``neutral`` while
    the failure persists — appropriate for programs whose input arity is
    fixed.  Returns the minimized vector.  Timed as the ``reduction.delta``
    span, which records how many positions stayed.
    """
    current = list(inputs)
    with obs.span("reduction.delta", inputs=len(current)) as timed:
        if not still_fails(current):
            raise ValueError("the full input must fail")
        positions = list(range(len(current)))
        failing_positions = ddmin(
            positions,
            lambda kept: still_fails(
                [value if index in set(kept) else neutral for index, value in enumerate(current)]
            ),
        )
        kept = set(failing_positions)
        timed.set(kept=len(kept))
    return [value if index in kept else neutral for index, value in enumerate(current)]
