"""Symbolic program states and expression-to-circuit translation.

The expression encoder is shared between the concolic tracer (which follows
one concrete execution) and the bounded model checker (which explores all
paths up to a bound).  The two differ in how variables are resolved and how
calls are handled, so the encoder delegates those decisions to a *resolver*
object supplied by the caller.
"""

from __future__ import annotations

from typing import Callable, Optional, Protocol

from repro.encoding.circuits import Bits, CircuitBuilder
from repro.lang import ast
from repro.lang.semantics import apply_binary, apply_unary


class Resolver(Protocol):
    """What the expression encoder needs from its execution engine."""

    def read_scalar(self, name: str, line: int) -> Bits:
        """Current symbolic value of a scalar variable."""

    def read_array(self, name: str, line: int) -> list[Bits]:
        """Current symbolic contents of an array."""

    def encode_call(self, call: ast.Call) -> Bits:
        """Encode a function call appearing inside an expression."""

    def concrete_value(self, expr: ast.Expr) -> Optional[int]:
        """Concrete value of ``expr`` if known (concolic mode), else None."""


class SymbolicState:
    """A mutable mapping from program variables to symbolic bit-vectors."""

    def __init__(self) -> None:
        self.scalars: dict[str, Bits] = {}
        self.arrays: dict[str, list[Bits]] = {}

    def copy(self) -> "SymbolicState":
        duplicate = SymbolicState()
        duplicate.scalars = dict(self.scalars)
        duplicate.arrays = {name: list(cells) for name, cells in self.arrays.items()}
        return duplicate


def expression_has_effects(expr: ast.Expr) -> bool:
    """True when evaluating ``expr`` may call a function or read nondet input."""
    if isinstance(expr, ast.Call):
        return True
    if isinstance(expr, ast.UnaryOp):
        return expression_has_effects(expr.operand)
    if isinstance(expr, ast.BinaryOp):
        return expression_has_effects(expr.left) or expression_has_effects(expr.right)
    if isinstance(expr, ast.Conditional):
        return (
            expression_has_effects(expr.cond)
            or expression_has_effects(expr.then)
            or expression_has_effects(expr.otherwise)
        )
    if isinstance(expr, ast.ArrayRef):
        return expression_has_effects(expr.index)
    return False


class ExpressionEncoder:
    """Translate mini-C expressions into bit-vector circuits."""

    def __init__(self, builder: CircuitBuilder, resolver: Resolver) -> None:
        self.builder = builder
        self.resolver = resolver
        self.width = builder.width

    # ------------------------------------------------------------------ API

    def encode(self, expr: ast.Expr) -> Bits:
        """Encode an expression, returning its symbolic value."""
        builder = self.builder
        if isinstance(expr, ast.IntLiteral):
            return builder.const(expr.value)
        if isinstance(expr, ast.VarRef):
            return self.resolver.read_scalar(expr.name, expr.line)
        if isinstance(expr, ast.ArrayRef):
            return self._encode_array_read(expr)
        if isinstance(expr, ast.UnaryOp):
            return self._encode_unary(expr)
        if isinstance(expr, ast.BinaryOp):
            return self._encode_binary(expr)
        if isinstance(expr, ast.Conditional):
            return self._encode_conditional(expr)
        if isinstance(expr, ast.Call):
            return self.resolver.encode_call(expr)
        raise NotImplementedError(f"expression {type(expr).__name__}")

    def encode_bool(self, expr: ast.Expr) -> int:
        """Encode an expression used as a condition, returning a single literal."""
        bits = self.encode(expr)
        return self.builder.is_nonzero(bits)

    def encode_argument(self, arg: ast.Expr, force: bool = False) -> Bits:
        """Encode a call argument behind a relaxable binding.

        Under structure hashing the gates of the argument expression live in
        the hard set, so the calling statement's group must own an explicit
        output binding for the value it feeds into the callee — otherwise
        relaxing the call could no longer free the argument (the
        wrong-argument fault class of the strncat example).  Literal and
        plain variable arguments carried no relaxable clauses before
        structure hashing either, so they are only bound when ``force`` is
        set, which callers do for *hard* callees: there the call statement
        is the sole localization handle on the callee's behaviour.
        """
        builder = self.builder
        bits = self.encode(arg)
        if not builder.simplify:
            return bits
        if not force and isinstance(arg, (ast.IntLiteral, ast.VarRef)):
            return bits
        if builder.context.current_group is None:
            return bits
        bound = builder.fresh(len(bits))
        builder.assert_equal(bound, bits)
        return bound

    # ------------------------------------------------------------- internals

    def _encode_array_read(self, expr: ast.ArrayRef) -> Bits:
        index_bits = self.encode(expr.index)
        cells = self.resolver.read_array(expr.name, expr.line)
        return self.builder.select(index_bits, cells)

    def _encode_unary(self, expr: ast.UnaryOp) -> Bits:
        builder = self.builder
        operand = self.encode(expr.operand)
        constant = builder.constant_of(operand)
        if constant is not None:
            return builder.const(apply_unary(expr.op, constant, self.width))
        if expr.op == "-":
            return builder.negate(operand)
        if expr.op == "!":
            return builder.bool_to_bits(-builder.is_nonzero(operand))
        raise NotImplementedError(f"unary operator {expr.op}")

    def _encode_binary(self, expr: ast.BinaryOp) -> Bits:
        builder = self.builder
        if expr.op in ("&&", "||"):
            return self._encode_logical(expr)
        left = self.encode(expr.left)
        right = self.encode(expr.right)
        left_const = builder.constant_of(left)
        right_const = builder.constant_of(right)
        if left_const is not None and right_const is not None:
            return builder.const(apply_binary(expr.op, left_const, right_const, self.width))
        if expr.op == "+":
            return builder.add(left, right)
        if expr.op == "-":
            return builder.sub(left, right)
        if expr.op == "*":
            return builder.multiply(left, right)
        if expr.op == "/":
            quotient, _ = builder.divmod(left, right)
            return quotient
        if expr.op == "%":
            _, remainder = builder.divmod(left, right)
            return remainder
        if expr.op == "<":
            return builder.bool_to_bits(builder.signed_less(left, right))
        if expr.op == "<=":
            return builder.bool_to_bits(builder.signed_less_equal(left, right))
        if expr.op == ">":
            return builder.bool_to_bits(builder.signed_less(right, left))
        if expr.op == ">=":
            return builder.bool_to_bits(builder.signed_less_equal(right, left))
        if expr.op == "==":
            return builder.bool_to_bits(builder.equals(left, right))
        if expr.op == "!=":
            return builder.bool_to_bits(-builder.equals(left, right))
        raise NotImplementedError(f"binary operator {expr.op}")

    def _encode_logical(self, expr: ast.BinaryOp) -> Bits:
        """Encode ``&&`` / ``||``.

        When the skipped operand has no side effects the operator is encoded
        fully symbolically (the result only depends on the operand values, so
        short-circuiting is unobservable).  When the right operand may call a
        function, concolic mode follows the concrete short-circuit decision:
        if the left operand already decides the result, only the left operand
        is encoded — mirroring how the concrete run never executed the call.
        """
        builder = self.builder
        left_bits = self.encode(expr.left)
        left_bool = builder.is_nonzero(left_bits)
        right_has_effects = expression_has_effects(expr.right)
        if right_has_effects:
            left_concrete = self.resolver.concrete_value(expr.left)
            if left_concrete is not None:
                decided = (expr.op == "&&" and left_concrete == 0) or (
                    expr.op == "||" and left_concrete != 0
                )
                if decided:
                    return builder.bool_to_bits(left_bool)
        right_bits = self.encode(expr.right)
        right_bool = builder.is_nonzero(right_bits)
        if expr.op == "&&":
            return builder.bool_to_bits(builder.bit_and(left_bool, right_bool))
        return builder.bool_to_bits(builder.bit_or(left_bool, right_bool))

    def _encode_conditional(self, expr: ast.Conditional) -> Bits:
        builder = self.builder
        effects = expression_has_effects(expr.then) or expression_has_effects(expr.otherwise)
        cond_bits = self.encode(expr.cond)
        cond_bool = builder.is_nonzero(cond_bits)
        if effects:
            concrete = self.resolver.concrete_value(expr.cond)
            if concrete is not None:
                # Follow the branch the concrete execution took; the formula
                # still ties the result to the condition through the mux with
                # the (unexecuted) branch replaced by a fresh value.
                taken = self.encode(expr.then if concrete != 0 else expr.otherwise)
                other = builder.fresh()
                if concrete != 0:
                    return builder.mux(cond_bool, taken, other)
                return builder.mux(cond_bool, other, taken)
        then_bits = self.encode(expr.then)
        else_bits = self.encode(expr.otherwise)
        return builder.mux(cond_bool, then_bits, else_bits)
