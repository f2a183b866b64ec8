"""Finite fields, affine point-line designs, and discrepancy ratios.

``FiniteField(p, k)`` realizes GF(p^k) as polynomials over Z_p modulo
the smallest monic irreducible polynomial of degree k (coefficients
compared most-significant first; for k = 1 this degenerates to plain
arithmetic mod p).  ``affine_design`` builds the points and lines of the
m-dimensional affine space over such a field: a resolvable 2-design with
block size q and every point pair on exactly one line, each line built
once, on integer arrays of point ids.

These designs witness near-tight instances of the strong-coloring
discrepancy ratio: ``r_plus`` evaluates the positive root of
``x + x(x-1)/(sigma(sigma-1)) = n`` in a cancellation-free form, and the
``cor4_point``/``cor3_point`` families tabulate achieved ratios against
the ``r_plus/(sigma+1)`` and square-root bounds.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .errors import BibdError
from .hypergraph import Hypergraph

MAX_FIELD_ORDER = 1 << 20
DEFAULT_POINT_CAP = 4096


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _exceeds(base: int, exp: int, cap: int) -> bool:
    """Whether ``base ** exp > cap``, for ``base >= 2``; a power whose
    exponent passes the cap's bit length exceeds it, so none is built."""
    return base ** min(exp, cap.bit_length()) > cap


def prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, k) with n = p**k, or None."""
    if n < 2:
        return None
    for p in range(2, n + 1):
        if p * p > n:
            break
        if n % p:
            continue
        k = 0
        m = n
        while m % p == 0:
            m //= p
            k += 1
        return (p, k) if m == 1 else None
    return (n, 1)


# ---------------------------------------------------------- finite fields

def _poly_rem(a: list[int], b: list[int], p: int) -> list[int]:
    # remainder of a by monic b, coefficients low-to-high
    a = a[:]
    db = len(b) - 1
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c:
            for j in range(db + 1):
                a[i - db + j] = (a[i - db + j] - c * b[j]) % p
    return a[:db]


class FieldElement:
    """Element of a FiniteField; a coefficient vector over Z_p."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: "FiniteField", coeffs: tuple[int, ...]):
        self.field = field
        self.coeffs = coeffs

    @property
    def value(self) -> int:
        """Integer encoding: sum of c_i * p**i."""
        v = 0
        for c in reversed(self.coeffs):
            v = v * self.field.p + c
        return v

    def _same_field(self, other) -> bool:
        return (isinstance(other, FieldElement)
                and other.field.p == self.field.p
                and other.field.degree == self.field.degree)

    def __add__(self, other):
        if not self._same_field(other):
            return NotImplemented
        return FieldElement(self.field, self.field._add(self.coeffs, other.coeffs))

    def __sub__(self, other):
        if not self._same_field(other):
            return NotImplemented
        return FieldElement(self.field, self.field._add(
            self.coeffs, self.field._neg(other.coeffs)))

    def __neg__(self):
        return FieldElement(self.field, self.field._neg(self.coeffs))

    def __mul__(self, other):
        if not self._same_field(other):
            return NotImplemented
        return FieldElement(self.field, self.field._mul(self.coeffs, other.coeffs))

    def __truediv__(self, other):
        if not self._same_field(other):
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            return NotImplemented
        return FieldElement(self.field, self.field._pow(self.coeffs, e))

    def inverse(self) -> "FieldElement":
        if not any(self.coeffs):
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return FieldElement(self.field,
                            self.field._pow(self.coeffs, self.field.order - 2))

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldElement):
            return NotImplemented
        return (self.field.p == other.field.p
                and self.field.degree == other.field.degree
                and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash((self.field.p, self.field.degree, self.coeffs))

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __repr__(self) -> str:
        return f"GF({self.field.order}).element({self.value})"


class FiniteField:
    """GF(p^k) with polynomial representation and a fixed modulus."""

    __slots__ = ("p", "degree", "order", "modulus", "_elements")

    def __init__(self, p: int, k: int = 1):
        if k < 1:
            raise ValueError("extension degree must be >= 1")
        # the order first, so a huge p meets no trial division
        if p > 1 and _exceeds(p, k, MAX_FIELD_ORDER):
            raise ValueError(f"field order {p}^{k} exceeds {MAX_FIELD_ORDER}")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.degree = k
        self.order = p ** k
        self.modulus = self._find_modulus()
        self._elements: tuple[FieldElement, ...] | None = None

    def _find_modulus(self) -> tuple[int, ...]:
        # Smallest monic irreducible of degree k, candidates ordered by
        # their non-leading coefficients read most-significant first.
        # Irreducibility by trial division against all monic polynomials
        # of degree <= k/2.
        p, k = self.p, self.degree
        for j in range(p ** k):
            cand = [(j // p ** i) % p for i in range(k)] + [1]
            if self._irreducible(cand):
                return tuple(cand)
        raise AssertionError("no irreducible polynomial found")  # pragma: no cover

    def _irreducible(self, cand: list[int]) -> bool:
        p, k = self.p, self.degree
        for d in range(1, k // 2 + 1):
            for j in range(p ** d):
                div = [(j // p ** i) % p for i in range(d)] + [1]
                if not any(_poly_rem(cand, div, p)):
                    return False
        return True

    # coefficient-vector arithmetic --------------------------------------

    def _add(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def _neg(self, a: tuple[int, ...]) -> tuple[int, ...]:
        p = self.p
        return tuple((-x) % p for x in a)

    def _mul(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        p, k = self.p, self.degree
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] = (prod[i + j] + x * y) % p
        mod = self.modulus
        for i in range(2 * k - 2, k - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(k):
                    prod[i - k + j] = (prod[i - k + j] - c * mod[j]) % p
        return tuple(prod[:k])

    def _pow(self, a: tuple[int, ...], e: int) -> tuple[int, ...]:
        result = self.one.coeffs
        base = a
        while e:
            if e & 1:
                result = self._mul(result, base)
            base = self._mul(base, base)
            e >>= 1
        return result

    # public surface ------------------------------------------------------

    @property
    def zero(self) -> FieldElement:
        return FieldElement(self, (0,) * self.degree)

    @property
    def one(self) -> FieldElement:
        return FieldElement(self, (1,) + (0,) * (self.degree - 1))

    def element(self, value) -> FieldElement:
        """From an integer encoding or a coefficient sequence."""
        if isinstance(value, int):
            if not 0 <= value < self.order:
                raise ValueError(f"element encoding {value} out of range")
            coeffs = []
            for _ in range(self.degree):
                coeffs.append(value % self.p)
                value //= self.p
            return FieldElement(self, tuple(coeffs))
        coeffs = tuple(int(c) % self.p for c in value)
        if len(coeffs) != self.degree:
            raise ValueError(f"need {self.degree} coefficients")
        return FieldElement(self, coeffs)

    def elements(self) -> tuple[FieldElement, ...]:
        if self._elements is None:
            self._elements = tuple(self.element(v) for v in range(self.order))
        return self._elements

    def __repr__(self) -> str:
        return f"FiniteField(p={self.p}, k={self.degree})"


def build_field(p: int, k: int = 1) -> FiniteField:
    return FiniteField(p, k)


# ------------------------------------------------------------ 2-designs

@dataclass(frozen=True)
class DesignParams:
    """Parameters of a 2-design; the two counting identities must hold."""

    v: int
    b: int
    r: int
    block_size: int
    lambda_: int

    def __post_init__(self):
        if self.b * self.block_size != self.v * self.r:
            raise ValueError("design identity b*k = v*r violated")
        if self.lambda_ * (self.v - 1) != self.r * (self.block_size - 1):
            raise ValueError("design identity lambda*(v-1) = r*(k-1) violated")


def affine_design(field: FiniteField, m: int,
                  cap: int = DEFAULT_POINT_CAP) -> tuple[Hypergraph, DesignParams]:
    """Points and lines of the affine space of dimension m over ``field``.

    A point id's base-p digits are its coordinates' coefficient vectors,
    so points add digit-wise mod p.  Each line ``{a + t*b}`` is built once:
    b's first nonzero coordinate, the pivot, is one, and a is the line's
    point whose pivot coordinate is zero.  Lines are sorted and listed in
    order; point labels join coordinate encodings with dots.
    """
    if m < 1:
        raise ValueError("dimension must be >= 1")
    q, p = field.order, field.p
    if _exceeds(q, m, cap):
        raise ValueError(f"point count {q}^{m} exceeds cap {cap}")
    v = q ** m
    elems = field.elements()
    labels = tuple(map(".".join, itertools.product(map(str, range(q)), repeat=m)))
    place = q ** np.arange(m - 1, -1, -1)  # a coordinate's weight in a point id
    lines = []
    for j in range(m):
        base = np.flatnonzero(np.arange(v) // place[j] % q == 0)[:, None]
        for tail in itertools.product(elems, repeat=m - 1 - j):
            # the ids of t*b over all t, where b is one at j and ``tail`` after it
            tb = np.array([[t.value, *((t * c).value for c in tail)]
                           for t in elems]) @ place[j:]
            line, w = 0, 1
            while w < v:  # digit-wise a + t*b mod p
                line = line + (base // w + tb // w) % p * w
                w *= p
            lines.append(line)
    rows = np.sort(np.concatenate(lines), axis=1)
    # two lines share at most one point, so their first two members order them
    rows = rows[np.argsort(rows[:, 0] * v + rows[:, 1])]
    csr = np.arange(0, rows.size + 1, q, dtype=np.int64), rows.ravel().astype(np.int32)
    h = Hypergraph.__new__(Hypergraph)._fill(
        labels, {lab: i for i, lab in enumerate(labels)}, csr, True)
    return h, DesignParams(v=v, b=len(rows), r=(v - 1) // (q - 1),
                           block_size=q, lambda_=1)


def hkm_design(k: int, m: int) -> Hypergraph:
    """k disjoint cells of m vertices; one edge per cell pair (the union).

    Every vertex lies in k-1 of the C(k,2) edges, all of size 2m, and the
    peeling degeneracy is k-1.
    """
    if k < 1 or m < 1:
        raise ValueError("need k >= 1 cells of m >= 1 vertices")
    labels = [f"a{i}_{j}" for i in range(1, k + 1) for j in range(1, m + 1)]
    cells = [list(range(i * m, (i + 1) * m)) for i in range(k)]
    edges = [tuple(cells[i] + cells[j])
             for i in range(k) for j in range(i + 1, k)]
    return Hypergraph(labels, edges, simple=True)


def validate_bibd(h: Hypergraph) -> DesignParams:
    """Check uniform block size, constant replication, constant pair
    coverage; returns the verified parameters."""
    v, b = h.n, h.m
    if v < 2 or b < 1:
        raise ValueError("a design needs at least two points and one block")
    eptr, members = h._csr
    sizes = sorted(set(np.diff(eptr).tolist()))
    if len(sizes) != 1:
        raise BibdError(f"block sizes vary: {sizes}", reason="non-uniform-block-size")
    ksize = sizes[0]
    if ksize < 2 or ksize >= v:
        raise ValueError(f"block size {ksize} must lie in 2..{v - 1}")
    rvals = sorted(set(np.bincount(members, minlength=v).tolist()))
    if len(rvals) != 1:
        raise BibdError(f"replication varies: {rvals}", reason="non-constant-replication")
    # a key u*v + w per pair u < w of each block; a run of equal keys is a pair's cover
    i, j = np.triu_indices(ksize, 1)
    blocks = members.reshape(b, ksize).astype(np.int64)
    keys = np.sort((blocks[:, i] * v + blocks[:, j]).ravel())
    ends = np.flatnonzero(np.append(keys[1:] != keys[:-1], True)) + 1
    lams = set(np.diff(ends, prepend=0).tolist())
    if ends.size < v * (v - 1) // 2:
        lams.add(0)
    if len(lams) != 1:
        raise BibdError(f"pair coverage varies: {sorted(lams)}",
                        reason="non-constant-pair-coverage")
    return DesignParams(v=v, b=b, r=rvals[0], block_size=ksize, lambda_=lams.pop())


# ------------------------------------------------------------ discrepancy

def r_plus(sigma: int, n: float) -> float:
    """Positive root of x + x(x-1)/(sigma(sigma-1)) = n.

    Evaluated as ``2sn / ((s-1) + hypot(s-1, 2 sqrt(sn)))``, s = sigma(sigma-1),
    which neither cancels, overflows nor underflows; the residual is checked
    to 1e-9 * n.  An ``n`` below the normal floats, or a ``sigma`` or ``n``
    (or nan) past the float range, is refused.
    """
    if sigma < 2:
        raise ValueError("sigma must be >= 2")
    if n < sys.float_info.min:
        raise ValueError(f"n must be a normal float, at least {sys.float_info.min:.6g}")
    s = sigma * (sigma - 1)
    if (s - 1) ** 2 > sys.float_info.max:
        raise ValueError("sigma is too large for a float")
    limit = sys.float_info.max / (4 * s)
    if not n <= limit:  # compared exactly, so a huge int never overflows
        raise ValueError(f"n must be a finite number at most {limit:.6g} "
                         f"for sigma = {sigma}")
    x = 2 * s * n / ((s - 1) + math.hypot(s - 1, 2 * math.sqrt(s * n)))
    residual = x + x * (x - 1) / s - n
    if abs(residual) > 1e-9 * n:  # pragma: no cover - numeric guard
        raise ArithmeticError(f"r_plus residual {residual} too large")
    return x


class DsBounds(NamedTuple):
    """Upper bounds on the strong-coloring discrepancy ratio at (sigma, n)."""

    thm4: float
    cor2: float


def ds_bounds(sigma: int, n: float) -> DsBounds:
    s = sigma * (sigma - 1)
    return DsBounds(thm4=r_plus(sigma, n) / (sigma + 1),
                    cor2=math.sqrt(s * n) / (sigma + 1))


@dataclass(frozen=True)
class DiscrepancyPoint:
    """One tabulated instance: achieved ratio vs. the two upper bounds."""

    sigma: int
    n: int
    ratio: float
    r_plus: float
    cor2_bound: float
    witness: Hypergraph | None = None

    @property
    def thm4_bound(self) -> float:
        return self.r_plus / (self.sigma + 1)


def cor4_point(p: int, k: int, m: int, cap: int = DEFAULT_POINT_CAP,
               attach_witness: bool = True) -> DiscrepancyPoint:
    """Affine-design family instance with sigma = p^k.

    At n = sigma^m + sigma^(m-1)(sigma^m - 1)/(sigma - 1) the achieved
    ratio sigma^m/(sigma + 1) meets the thm4 bound exactly.  The witness
    hypergraph is the affine design itself.
    """
    if m < 1:
        raise ValueError("dimension must be >= 1")
    field = build_field(p, k)
    sigma = field.order
    if _exceeds(sigma, m, cap):
        raise ValueError(f"point count {p}^{k * m} exceeds cap {cap}")
    geom = (sigma ** m - 1) // (sigma - 1)
    n = sigma ** m + sigma ** (m - 1) * geom
    ratio = sigma ** m / (sigma + 1)
    witness = None
    if attach_witness:
        witness, _ = affine_design(field, m, cap=cap)
    return DiscrepancyPoint(sigma=sigma, n=n, ratio=ratio,
                            r_plus=r_plus(sigma, n),
                            cor2_bound=ds_bounds(sigma, n).cor2,
                            witness=witness)


def cor3_point(sigma: int, k: int) -> DiscrepancyPoint | None:
    """Formula-only family at block count k with k^2 = k (mod sigma).

    Returns None when the congruence fails.  A construction witness is
    attached only in the planar case k = sigma + 1 with sigma a prime
    power, where the affine plane realizes the ratio.
    """
    if sigma < 2:
        raise ValueError("sigma must be >= 2")
    if k < 1:
        raise ValueError("k must be >= 1")
    if (k * k - k) % sigma != 0:
        return None
    n = k * (sigma - 1 + k) + 1 - (k * (k - 1)) // sigma
    ratio = (k * (sigma - 1) + 1) / (sigma + 1)
    witness = None
    if k == sigma + 1:
        pp = prime_power(sigma)
        if pp is not None:
            witness, _ = affine_design(build_field(*pp), 2)
    return DiscrepancyPoint(sigma=sigma, n=n, ratio=ratio,
                            r_plus=r_plus(sigma, n),
                            cor2_bound=ds_bounds(sigma, n).cor2,
                            witness=witness)
