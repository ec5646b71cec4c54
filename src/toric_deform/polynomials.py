"""Exact multivariate polynomials over the rationals.

A polynomial is a mapping from exponent tuples to nonzero ``Fraction``
coefficients, together with the tuple of variable names that fixes the
ambient ring.  All arithmetic is exact; there is no floating point anywhere
in this package.  Values are immutable after construction, so every
operation is a pure function and safe for concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add, le, sub
from typing import Iterable, Mapping

Exponent = tuple[int, ...]


class RingMismatchError(ValueError):
    """Operands live in different polynomial rings."""


def _grevlex_key(exps: Exponent) -> tuple:
    # Ties in total degree are broken by the *smallest* trailing exponent,
    # which is what comparing the reversed, negated tuple achieves.
    return (sum(exps), tuple(-e for e in reversed(exps)))


@dataclass(frozen=True)
class MonomialOrder:
    """A monomial order: ``grevlex`` or a two-block elimination order.

    ``key(exps)`` returns a sort key; larger key means larger monomial.
    A block order compares the first ``split`` exponents (grevlex) first,
    so it eliminates the leading block of variables.
    """

    kind: str
    split: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("grevlex", "block"):
            raise ValueError(f"unknown monomial order {self.kind!r}")
        if (self.kind == "block") != (self.split is not None):
            raise ValueError("block orders need a split point; others must not have one")

    @classmethod
    def grevlex(cls) -> "MonomialOrder":
        return cls("grevlex")

    @classmethod
    def block(cls, split: int) -> "MonomialOrder":
        return cls("block", split)

    def key(self, exps: Exponent) -> tuple:
        if self.kind == "grevlex":
            return _grevlex_key(exps)
        s = self.split
        return (_grevlex_key(exps[:s]), _grevlex_key(exps[s:]))

    def descending_key(self, exps: Exponent) -> tuple:
        """The negation of ``key``: sorting by it puts larger monomials first."""
        if self.kind == "grevlex":
            return (-sum(exps), exps[::-1])
        head, tail = exps[:self.split], exps[self.split:]
        return ((-sum(head), head[::-1]), (-sum(tail), tail[::-1]))


GREVLEX = MonomialOrder.grevlex()


def exponent_mul(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(add, a, b))


def exponent_divides(a: Exponent, b: Exponent) -> bool:
    """True if the monomial with exponents ``a`` divides the one with ``b``."""
    return all(map(le, a, b))


def exponent_quotient(b: Exponent, a: Exponent) -> Exponent:
    return tuple(map(sub, b, a))


def exponent_lcm(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(max, a, b))


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("variables", "terms", "_hash")

    def __init__(self, variables: Iterable[str], terms: Mapping[Exponent, Fraction | int]):
        vs = tuple(variables)
        n = len(vs)
        clean: dict[Exponent, Fraction] = {}
        for exps, c in terms.items():
            coeff = Fraction(c)
            if not coeff:
                continue
            e = tuple(int(x) for x in exps)
            if len(e) != n or any(x < 0 for x in e):
                raise ValueError(f"bad exponent tuple {e} for {n} variables")
            clean[e] = coeff
        object.__setattr__(self, "variables", vs)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables: Iterable[str]) -> "Polynomial":
        return cls(variables, {})

    @classmethod
    def constant(cls, variables: Iterable[str], value: Fraction | int) -> "Polynomial":
        vs = tuple(variables)
        return cls(vs, {(0,) * len(vs): Fraction(value)})

    @classmethod
    def variable(cls, variables: Iterable[str], name: str) -> "Polynomial":
        vs = tuple(variables)
        if name not in vs:
            raise ValueError(f"variable {name!r} not in ring {vs}")
        e = [0] * len(vs)
        e[vs.index(name)] = 1
        return cls(vs, {tuple(e): Fraction(1)})

    @classmethod
    def monomial(cls, variables: Iterable[str], exps: Exponent,
                 coeff: Fraction | int = 1) -> "Polynomial":
        return cls(variables, {tuple(exps): Fraction(coeff)})

    # -- ring bookkeeping --------------------------------------------------

    def _check_ring(self, other: "Polynomial") -> None:
        if self.variables != other.variables:
            raise RingMismatchError(
                f"rings differ: {self.variables} vs {other.variables}")

    # -- predicates and degrees --------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Maximum term degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Polynomial | int | Fraction") -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.variables, other)
        self._check_ring(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Polynomial(self.variables, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial | int | Fraction") -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.variables, other)
        return self + (-other)

    def __rsub__(self, other: "Polynomial | int | Fraction") -> "Polynomial":
        return (-self) + other

    def __mul__(self, other: "Polynomial | int | Fraction") -> "Polynomial":
        if not isinstance(other, Polynomial):
            c = Fraction(other)
            if not c:
                return Polynomial.zero(self.variables)
            return Polynomial(self.variables,
                              {e: c * v for e, v in self.terms.items()})
        self._check_ring(other)
        out: dict[Exponent, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                k = exponent_mul(e1, e2)
                s = out.get(k, Fraction(0)) + c1 * c2
                if s:
                    out[k] = s
                else:
                    del out[k]
        return Polynomial(self.variables, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.constant(self.variables, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.variables, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            h = hash((self.variables, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return self._hash

    # -- leading data ---------------------------------------------------------

    def leading_exponent(self, order: MonomialOrder = GREVLEX) -> Exponent:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return max(self.terms, key=order.key)

    def leading_coefficient(self, order: MonomialOrder = GREVLEX) -> Fraction:
        return self.terms[self.leading_exponent(order)]

    def monic(self, order: MonomialOrder = GREVLEX) -> "Polynomial":
        if not self.terms:
            return self
        lc = self.leading_coefficient(order)
        return self * (1 / lc)

    def sorted_terms(self, order: MonomialOrder = GREVLEX) -> list[tuple[Exponent, Fraction]]:
        return sorted(self.terms.items(), key=lambda t: order.key(t[0]), reverse=True)

    # -- substitution -----------------------------------------------------------

    def substitute(self, mapping: Mapping[str, "Polynomial"],
                   variables: Iterable[str]) -> "Polynomial":
        """Apply the ring homomorphism into ``variables`` sending each
        variable to its image.

        Unmapped variables are sent to the variable of the same name in the
        target ring, which must therefore declare them.
        """
        target = tuple(variables)
        images: list[Polynomial] = []
        for v in self.variables:
            if v in mapping:
                img = mapping[v]
                if img.variables != target:
                    raise RingMismatchError(
                        f"image of {v!r} lives in {img.variables}, expected {target}")
                images.append(img)
            elif v in target:
                images.append(Polynomial.variable(target, v))
            else:
                raise ValueError(f"image variable {v!r} undeclared in target ring")
        out = Polynomial.zero(target)
        powers: dict[tuple[int, int], Polynomial] = {}

        def power(i: int, e: int) -> Polynomial:
            kk = (i, e)
            if kk not in powers:
                powers[kk] = images[i] ** e
            return powers[kk]

        for exps, c in self.terms.items():
            term = Polynomial.constant(target, c)
            for i, e in enumerate(exps):
                if e:
                    term = term * power(i, e)
            out = out + term
        return out

    # -- canonical text form ------------------------------------------------------

    def to_str(self, order: MonomialOrder = GREVLEX) -> str:
        """Canonical text: terms in descending grevlex order, ``^`` powers,
        ``*`` products, explicit rational coefficients."""
        if not self.terms:
            return "0"
        chunks: list[str] = []
        for exps, c in self.sorted_terms(order):
            factors = []
            for v, e in zip(self.variables, exps):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append(f"{v}^{e}")
            mono = "*".join(factors)
            mag = abs(c)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not chunks:
                chunks.append(body if c > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(chunks)

    def __str__(self) -> str:
        return self.to_str()

    def __repr__(self) -> str:
        return f"Polynomial({self.to_str()!r})"


@dataclass(frozen=True)
class Ideal:
    """A finitely generated ideal, given by explicit generators."""

    generators: tuple[Polynomial, ...]
    variables: tuple[str, ...]

    def __post_init__(self) -> None:
        for g in self.generators:
            if g.variables != self.variables:
                raise RingMismatchError(
                    f"generator ring {g.variables} does not match ideal ring {self.variables}")

    @classmethod
    def from_generators(cls, gens: Iterable[Polynomial],
                        variables: Iterable[str] | None = None) -> "Ideal":
        gen_list = tuple(gens)
        if variables is None:
            if not gen_list:
                raise ValueError("need variables for an ideal with no generators")
            variables = gen_list[0].variables
        return cls(gen_list, tuple(variables))

    @property
    def is_homogeneous(self) -> bool:
        return all(g.is_homogeneous() for g in self.generators)

    def nonzero_generators(self) -> tuple[Polynomial, ...]:
        return tuple(g for g in self.generators if not g.is_zero)


def linear_substitute(ideal: Ideal, mapping: Mapping[str, Polynomial],
                      variables: Iterable[str]) -> Ideal:
    """Apply a linear change of variables into the ring ``variables`` to the
    generators of an ideal.

    Every image must have total degree at most 1; a map without constant
    terms preserves homogeneity.
    """
    for v, img in mapping.items():
        if img.total_degree() > 1:
            raise ValueError(f"image of {v!r} is not linear: {img}")
    target = tuple(variables)
    return Ideal(tuple(g.substitute(mapping, target) for g in ideal.generators), target)
