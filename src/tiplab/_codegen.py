"""Generated code: one compiled Python function per structure.

Curves (coefficients and profiles), mechanism paths and model families each
emit an expression fragment into an ``Emitter``. Every number is bound by
name as a parameter of a factory function, so the generated source depends
only on the structure (which kinds, which families), never on the values:
the factory is compiled once per source text and called once per instance
to close over the numbers.

The fragments keep the evaluation order of the formulas they implement, so
the compiled functions return bitwise the values of the formulas written out
by hand. A fragment that uses a subexpression twice binds it once, either as
a statement (``Emitter.let``, ``Emitter.sin``) or inside the expression with
an assignment expression (``Emitter.once``), which keeps the fragment a
single expression that can sit in one branch of a conditional. Squared sines
are shared like sines: ``Emitter.sin(omega, arg, squared=True)`` binds
sin(omega*arg)**2 once per (omega, arg), so coefficients of one frequency
square it once; a square of a float in [-1, 1] cannot raise, and it is the
same float wherever it is computed.

A compiled function keeps its emitter, signature and result expression as
``fn.emitted``. The integrator pastes the statements of a right-hand side
(signature ``t, x``) into every stage of its DP54 loop in place of a call,
so the loop, too, is one generated function per structure (and direction).
Its source is formatted on each integration and compiled once per source
text by ``_factory``, the one cache of generated code. The results depend
on the statement order. The statements run in the order they were emitted.
The first ``t_only`` of them read t alone: the path and coefficient values,
emitted before the family formula. The later ones read x, and some raise
at a pole. A stage taken at the same t as the stage before it reruns only
the later ones.
"""

from __future__ import annotations

import functools
import math

_GLOBALS = {
    "sin": math.sin,
    "atan": math.atan,
    "exp": math.exp,
    "log": math.log,
    "tanh": math.tanh,
}


def paren(expr: str) -> str:
    """expr as an operand: bare names stay bare, anything else is wrapped."""
    return expr if expr.isidentifier() else f"({expr})"


class Emitter:
    """The statements and the bound values of one generated function."""

    def __init__(self):
        self.names: list[str] = []
        self.values: list = []
        self.lines: list[str] = []
        self._sines: dict = {}
        self._temps = 0
        self.t_only = 0     # how many leading statements read t alone

    def bind(self, name: str, value) -> str:
        """Bind value under the given name (for names the fragments spell out)."""
        self.names.append(name)
        self.values.append(value)
        return name

    def num(self, value) -> str:
        """Bind a number under a fresh name and return the name."""
        return self.bind(f"k{len(self.values)}", value)

    def _temp(self) -> str:
        self._temps += 1
        return f"_v{self._temps - 1}"

    def let(self, expr: str) -> str:
        """A name holding expr's value, assigned by a statement if needed."""
        if expr.isidentifier():
            return expr
        name = self._temp()
        self.lines.append(f"{name} = {expr}")
        return name

    def sin(self, omega: float, arg: str, squared: bool = False) -> str:
        """A name holding sin(omega * arg), or its square when squared,
        assigned once per (omega, arg) in the function, so coefficients with
        a common frequency share it."""
        key = (omega.hex(), arg, squared)   # the exact bits: 0.0 and -0.0 stay apart
        name = self._sines.get(key)
        if name is None:
            expr = (f"{self.sin(omega, arg)} ** 2" if squared else
                    f"sin({self.num(omega)} * {paren(arg)})")
            name = self._sines[key] = self.let(expr)
        return name

    def sigmoid_blend(self, left: str, right: str, u: str) -> str:
        """left*(1 - s) + right*s for the logistic s of u, computed without
        overflow for large |u|."""
        first, u = self.once(u)
        ex, ex_again = self.once(f"exp({u})")
        s, s_again = self.once(
            f"1.0 / (1.0 + exp(-{u})) if {first} >= 0.0 else {ex} / (1.0 + {ex_again})")
        return f"{left} * (1.0 - {s}) + {right} * {s_again}"

    def once(self, expr: str) -> tuple[str, str]:
        """(first, again): ``first`` evaluates expr and keeps its value,
        ``again`` reads it back; first must be evaluated before again."""
        if expr.isidentifier():
            return expr, expr
        name = self._temp()
        return f"({name} := {expr})", name

    def source(self, name: str, signature: str, result: str) -> str:
        body = [*self.lines, f"return {result}"]
        inner = "\n".join("        " + ln for stmt in body for ln in stmt.split("\n"))
        return (f"def _factory({', '.join(self.names)}):\n"
                f"    def {name}({signature}):\n{inner}\n"
                f"    return {name}\n")

    def compile(self, name: str, signature: str, result: str):
        """The function ``name(signature)`` returning result, closed over the
        bound values; it carries (this emitter, signature, result) as
        ``emitted``."""
        fn = _factory(self.source(name, signature, result))(*self.values)
        fn.emitted = (self, signature, result)
        return fn


@functools.lru_cache(maxsize=512)
def _factory(source: str):
    namespace: dict = {}
    exec(compile(source, "<tiplab generated>", "exec"), dict(_GLOBALS), namespace)
    return namespace["_factory"]
