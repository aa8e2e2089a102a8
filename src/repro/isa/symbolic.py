"""Finite-domain symbolic values for two-run noninterference checking.

Instructions in this ISA compute through opaque Python callables, so a
classical term-rewriting symbolic executor cannot inspect them.  What it
*can* do — soundly and completely, because the secret domain is finite —
is evaluate every callable **pointwise over all secret assignments at
once**: a :class:`SymVal` is a vector of concrete values, one lane per
assignment in a :class:`SecretSpace`.  Lockstep execution over SymVals
is exactly the self-composition ("two-run product") construction used
by noninterference checkers, specialized to finite secret domains.

A SymVal whose lanes all agree is *uniform* — it carries no information
about the secret.  A non-uniform SymVal is secret-dependent by
construction: no over-approximation is involved, which is what lets
:mod:`repro.symni` turn a divergence directly into a concrete
counterexample (the two assignments whose lanes differ).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Sequence, Tuple, Union

#: One total assignment of the secret variables, as sorted (name, value)
#: pairs so assignments hash and compare stably.
Assignment = Tuple[Tuple[str, int], ...]

#: Values accepted where a SymVal operand is expected.
SymLike = Union["SymVal", int]


@dataclass(frozen=True)
class SecretSpace:
    """A finite set of named secret variables and their domains.

    The cartesian product of the domains gives the *assignments*; every
    :class:`SymVal` over this space holds one lane per assignment, in
    the fixed order :meth:`assignments` returns.
    """

    #: (variable name, finite domain) pairs, e.g. (("secret", (0, 1)),).
    variables: Tuple[Tuple[str, Tuple[int, ...]], ...]
    _assignments: Tuple[Assignment, ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.variables:
            raise ValueError("a SecretSpace needs at least one variable")
        names = [name for name, _ in self.variables]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate secret variable in {names}")
        for name, domain in self.variables:
            if len(domain) < 2:
                raise ValueError(
                    f"secret {name!r} needs >= 2 domain values to be a "
                    f"secret at all, got {domain}"
                )
        combos = itertools.product(*(domain for _, domain in self.variables))
        object.__setattr__(
            self,
            "_assignments",
            tuple(
                tuple(zip(names, combo, strict=False)) for combo in combos
            ),
        )

    @classmethod
    def bit(cls, name: str = "secret") -> "SecretSpace":
        """The common case: one secret bit with domain {0, 1}."""
        return cls(variables=((name, (0, 1)),))

    @classmethod
    def of(cls, **domains: Sequence[int]) -> "SecretSpace":
        """Build a space from keyword domains, sorted by variable name."""
        return cls(
            variables=tuple(
                (name, tuple(domains[name])) for name in sorted(domains)
            )
        )

    def assignments(self) -> Tuple[Assignment, ...]:
        """Every total assignment, in a fixed, reproducible order."""
        return self._assignments

    @property
    def size(self) -> int:
        """Number of assignments (= lanes of every SymVal over me)."""
        return len(self._assignments)

    def lift(self, value: int, expr: str = "") -> "SymVal":
        """A uniform (secret-independent) symbolic value."""
        return SymVal(
            space=self,
            values=(int(value),) * self.size,
            expr=expr or repr(int(value)),
        )

    def secret(self, name: str) -> "SymVal":
        """The symbolic value of secret variable ``name`` itself."""
        known = [n for n, _ in self.variables]
        if name not in known:
            raise KeyError(f"unknown secret {name!r}; space has {known}")
        return SymVal(
            space=self,
            values=tuple(dict(a)[name] for a in self._assignments),
            expr=name,
        )


@dataclass(frozen=True)
class SymVal:
    """A symbolic value: one concrete lane per secret assignment.

    ``expr`` is human-readable provenance only — it never participates
    in evaluation (the callables are opaque) and exists so divergence
    reports can say *which* value leaked, not just that one did.
    """

    space: SecretSpace
    values: Tuple[int, ...]
    expr: str = ""

    def __post_init__(self) -> None:
        if len(self.values) != self.space.size:
            raise ValueError(
                f"SymVal has {len(self.values)} lane(s) but the space has "
                f"{self.space.size} assignment(s)"
            )

    @property
    def is_uniform(self) -> bool:
        """True when every lane agrees: the value cannot carry secret."""
        first = self.values[0]
        return all(v == first for v in self.values)

    def concrete(self) -> int:
        """The single concrete value; raises if secret-dependent."""
        if not self.is_uniform:
            raise ValueError(
                f"SymVal {self.expr or self.values!r} is secret-dependent: "
                f"lanes {self.values}"
            )
        return self.values[0]

    def lane(self, index: int) -> int:
        return self.values[index]

    def distinguishing_lanes(self) -> Tuple[int, int]:
        """Indices of two lanes with different values (first such pair).

        Raises ``ValueError`` on uniform values.
        """
        first = self.values[0]
        for idx, value in enumerate(self.values[1:], start=1):
            if value != first:
                return (0, idx)
        raise ValueError("value is uniform; no distinguishing lanes")

    # -- pointwise application ------------------------------------------
    def apply(
        self, fn: Callable[..., int], *others: SymLike, expr: str = ""
    ) -> "SymVal":
        """``fn`` applied lane-by-lane to me and ``others``."""
        return sym_apply(self.space, fn, self, *others, expr=expr)

    def _binop(self, other: SymLike, fn: Callable[[int, int], int], sym: str) -> "SymVal":
        other_expr = other.expr if isinstance(other, SymVal) else repr(other)
        return sym_apply(
            self.space,
            fn,
            self,
            other,
            expr=f"({self.expr} {sym} {other_expr})",
        )

    def __add__(self, other: SymLike) -> "SymVal":
        return self._binop(other, lambda a, b: a + b, "+")

    def __sub__(self, other: SymLike) -> "SymVal":
        return self._binop(other, lambda a, b: a - b, "-")

    def __mul__(self, other: SymLike) -> "SymVal":
        return self._binop(other, lambda a, b: a * b, "*")

    def __and__(self, other: SymLike) -> "SymVal":
        return self._binop(other, lambda a, b: a & b, "&")

    def __or__(self, other: SymLike) -> "SymVal":
        return self._binop(other, lambda a, b: a | b, "|")

    def __xor__(self, other: SymLike) -> "SymVal":
        return self._binop(other, lambda a, b: a ^ b, "^")

    def sym_eq(self, other: SymLike) -> "SymVal":
        """Pointwise equality as a 0/1 SymVal (``==`` stays structural)."""
        return self._binop(other, lambda a, b: int(a == b), "==")

    def __repr__(self) -> str:
        if self.is_uniform:
            return f"SymVal({self.values[0]!r})"
        label = f" {self.expr!r}" if self.expr else ""
        return f"SymVal{label}{list(self.values)!r}"


def lift(space: SecretSpace, value: SymLike, expr: str = "") -> SymVal:
    """Coerce an int (or pass through a SymVal) into ``space``."""
    if isinstance(value, SymVal):
        if value.space is not space and value.space != space:
            raise ValueError("SymVal belongs to a different SecretSpace")
        return value
    return space.lift(value, expr=expr)


def sym_apply(
    space: SecretSpace,
    fn: Callable[..., int],
    *args: SymLike,
    expr: str = "",
) -> SymVal:
    """Apply an opaque callable pointwise across every assignment lane.

    This is the sole evaluation rule of the symbolic layer: because the
    secret domain is finite and every lane is concrete, applying the
    program's own callables per-lane is both sound and complete — no
    abstraction is introduced here (the abstraction in
    :mod:`repro.symni` lives in its *observable* model, not its values).
    """
    lifted = [lift(space, a) for a in args]
    values = tuple(
        int(fn(*(a.values[i] for a in lifted))) for i in range(space.size)
    )
    if not expr:
        inner = ", ".join(a.expr or "?" for a in lifted)
        name = getattr(fn, "__name__", "") or "fn"
        expr = f"{name}({inner})"
    return SymVal(space=space, values=values, expr=expr)
