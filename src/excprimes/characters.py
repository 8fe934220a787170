"""Dirichlet characters of (Z/mZ)^x with a fixed generator convention.

Generator convention (stable across runs, used for CLI addressing):
  - CRT over prime powers, components in increasing prime order;
  - odd p^e: the smallest primitive root g mod p, replaced by g + p when
    g^(p-1) = 1 mod p^2, giving one generator of order phi(p^e);
  - 2^1: no generators; 2^2: [-1] of order 2; 2^e (e >= 3): [-1, 5] of
    orders [2, 2^(e-2)].

For f <= e, the generators mod p^f are the reductions mod p^f of those mod
p^e (g + p = g mod p), and a generator missing mod p^f reduces to 1 there
(5 mod 4, every unit mod 2). So a character mod p^e induced from p^f has
the exponents of its associate mod p^f, the last one times p^(e-f) when
both have the same generators, and 0 on a generator missing mod p^f: the
conductor and the primitive associate follow from the exponents alone.

A character is (modulus, exponents): exponent t on a generator of order d
means the generator maps to zeta_d^t. Characters are addressed externally
as (modulus, index) with index ranking exponent tuples lexicographically
(first generator most significant).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .exact import DomainError, factorize
from .cyclotomic import CycloElement, zeta


@lru_cache(maxsize=None)
def _smallest_primitive_root(p: int) -> int:
    if p == 2:
        return 1
    qs = [q for q, _ in factorize(p - 1).factors]
    g = 2
    while True:
        if all(pow(g, (p - 1) // q, p) != 1 for q in qs):
            return g
        g += 1


@lru_cache(maxsize=None)
def _component_generators(p: int, e: int) -> tuple[tuple[int, int], ...]:
    """Generators (residue, order) of (Z/p^eZ)^x under the fixed convention."""
    pe = p ** e
    if p == 2:
        if e == 1:
            return ()
        if e == 2:
            return ((3, 2),)
        return ((pe - 1, 2), (5, 2 ** (e - 2)))
    g = _smallest_primitive_root(p)
    if e >= 2 and pow(g, p - 1, p * p) == 1:
        g += p
    phi = pe // p * (p - 1)
    return ((g % pe, phi),)


@lru_cache(maxsize=None)
def _component_dlog(p: int, e: int) -> dict:
    """residue mod p^e -> exponent tuple over _component_generators(p, e)."""
    pe = p ** e
    gens = _component_generators(p, e)
    table = {1 % pe: tuple(0 for _ in gens)}
    if not gens:
        return table
    if len(gens) == 1:
        g, d = gens[0]
        x = 1
        for j in range(d):
            table[x] = (j,)
            x = x * g % pe
        if x != 1:
            raise ArithmeticError(f"{g} does not have order {d} mod {pe}")
    else:
        (m1, d1), (g5, d5) = gens
        for s in range(d1):
            for j in range(d5):
                x = pow(m1, s, pe) * pow(g5, j, pe) % pe
                table[x] = (s, j)
    if len(table) != (pe // p) * (p - 1):
        raise ArithmeticError(f"the generators do not reach every unit mod {pe}")
    return table


@lru_cache(maxsize=None)
def _group(m: int) -> tuple:
    """((p, e, generators), ...) for the CRT components of (Z/mZ)^x."""
    if m < 1:
        raise DomainError(f"modulus must be positive, got {m}")
    if m == 1:
        return ()
    return tuple((p, e, _component_generators(p, e)) for p, e in factorize(m).factors)


def generator_orders(m: int) -> tuple[int, ...]:
    orders = []
    for _, _, gens in _group(m):
        orders.extend(d for _, d in gens)
    return tuple(orders)


class DirichletCharacter:
    """Character of (Z/mZ)^x; immutable once constructed."""

    __slots__ = ("modulus", "exponents", "order", "conductor", "index")

    def __init__(self, modulus: int, exponents):
        orders = generator_orders(modulus)
        exps = tuple(int(e) % d for e, d in zip(exponents, orders))
        if len(exponents) != len(orders):
            raise DomainError(
                f"modulus {modulus} needs {len(orders)} exponents, got {len(exponents)}"
            )
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "exponents", exps)
        order = 1
        for e, d in zip(exps, orders):
            order = math.lcm(order, d // math.gcd(d, e))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "conductor", self._descent()[0])
        idx = 0
        for e, d in zip(exps, orders):
            idx = idx * d + e
        object.__setattr__(self, "index", idx)

    def __setattr__(self, *args):
        raise AttributeError("DirichletCharacter is immutable")

    # -- evaluation ----------------------------------------------------------

    def value_exponent(self, a: int) -> Fraction:
        """t in [0,1) with chi(a) = e^(2 pi i t); requires gcd(a, m) = 1."""
        a %= self.modulus
        if math.gcd(a, self.modulus) != 1:
            raise DomainError(f"{a} is not a unit mod {self.modulus}")
        t = Fraction(0)
        pos = 0
        for p, e, gens in _group(self.modulus):
            table = _component_dlog(p, e)
            ks = table[a % p ** e]
            for (gen, d), k, x in zip(gens, ks, self.exponents[pos : pos + len(gens)]):
                t += Fraction(x * k, d)
            pos += len(gens)
        return t % 1

    def value(self, a: int) -> CycloElement:
        """chi(a) in Q(zeta_order); 0 when gcd(a, m) > 1."""
        a %= self.modulus
        if math.gcd(a, self.modulus) != 1:
            return CycloElement(1, [Fraction(0)])
        t = self.value_exponent(a) * self.order
        if t.denominator != 1:
            raise ArithmeticError(f"chi({a}) is not an order-{self.order} root of unity")
        return zeta(self.order, t.numerator)

    def parity(self) -> str:
        return "even" if self.value_exponent(self.modulus - 1) == 0 else "odd"

    def is_even(self) -> bool:
        return self.parity() == "even"

    def is_primitive(self) -> bool:
        return self.conductor == self.modulus

    # -- group operations ----------------------------------------------------

    def _combine(self, other, op):
        if not isinstance(other, DirichletCharacter):
            raise DomainError("can only combine with another character")
        if other.modulus != self.modulus:
            raise DomainError(
                f"modulus mismatch: {self.modulus} vs {other.modulus}"
            )
        orders = generator_orders(self.modulus)
        return DirichletCharacter(
            self.modulus,
            tuple(op(e, f) % d for e, f, d in zip(self.exponents, other.exponents, orders)),
        )

    def __mul__(self, other):
        return self._combine(other, lambda e, f: e + f)

    def inverse(self) -> "DirichletCharacter":
        return DirichletCharacter(self.modulus, tuple(-e for e in self.exponents))

    def __eq__(self, other):
        return (
            isinstance(other, DirichletCharacter)
            and self.modulus == other.modulus
            and self.exponents == other.exponents
        )

    def __hash__(self):
        return hash((self.modulus, self.exponents))

    def __repr__(self):
        return f"chi({self.modulus},{self.index})"

    # -- conductor descent -----------------------------------------------------

    def _descent(self) -> tuple[int, tuple[int, ...]]:
        """(conductor, exponents of the primitive associate), one CRT component at a time.

        A component mod p^e whose last generator carries exponent x != 0 has
        conductor p^e / s with s = gcd(x, p^e) = p^(e-f); the associate keeps
        the component's exponents with x replaced by x / s. Mod 2^e (e >= 3)
        with x = 0 on 5, only -1 can be nontrivial, and then the conductor is 4.
        """
        cond, exps, pos = 1, [], 0
        for p, e, gens in _group(self.modulus):
            xs = list(self.exponents[pos : pos + len(gens)])
            pos += len(gens)
            if xs and xs[-1]:
                s = math.gcd(xs[-1], p ** e)
                cond *= p ** e // s
                xs[-1] //= s
            elif len(xs) == 2 and xs[0]:
                cond *= 4
                xs = xs[:1]
            else:
                continue
            exps += xs
        return cond, tuple(exps)

    def primitive_associate(self) -> "DirichletCharacter":
        """The primitive character mod conductor inducing this one."""
        f, exps = self._descent()
        return self if f == self.modulus else DirichletCharacter(f, exps)


def character_count(m: int) -> int:
    count = 1
    for d in generator_orders(m):
        count *= d
    return count


def character_by_index(m: int, index: int) -> DirichletCharacter:
    orders = generator_orders(m)
    total = character_count(m)
    if not 0 <= index < total:
        raise DomainError(f"character index {index} out of range 0..{total - 1} for modulus {m}")
    exps = []
    for d in reversed(orders):
        exps.append(index % d)
        index //= d
    return DirichletCharacter(m, tuple(reversed(exps)))


def enumerate_characters(m: int, which: str = "all") -> list[DirichletCharacter]:
    """All characters mod m in index order, optionally filtered."""
    if which not in ("all", "even", "primitive"):
        raise DomainError(f"unknown character filter {which!r}")
    out = []
    for i in range(character_count(m)):
        chi = character_by_index(m, i)
        if which == "even" and not chi.is_even():
            continue
        if which == "primitive" and not chi.is_primitive():
            continue
        out.append(chi)
    return out


def trivial_character() -> DirichletCharacter:
    return DirichletCharacter(1, ())


def square_inverse_eps(nu: DirichletCharacter) -> DirichletCharacter:
    """(primitive character attached to nu^2)^(-1), on its conductor."""
    if not nu.is_primitive():
        raise DomainError("square_inverse_eps requires a primitive character")
    return (nu * nu).primitive_associate().inverse()
