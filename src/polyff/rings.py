"""Exact arithmetic in Z/nZ and GF(p^k), plus exact (a + b*sqrt5)/c parameters.

Every ring element is an int code in [0, |R|):

* ``ZMod(n)`` -- integers modulo n; the code is the canonical residue.
* ``GaloisField(p, k, ext_poly)`` -- the quotient F_p[t]/(ext_poly) with a
  monic irreducible ``ext_poly`` of degree k.  The element
  c0 + c1*t + ... + c(k-1)*t^(k-1) has the code whose base-p digits are
  c0 c1 ... c(k-1), c0 the most significant, so codes count through the
  coefficient tuples in lexicographic order.  For k = 1 the quotient by the
  polynomial t is used and the code is the residue mod p.

Element order, and so scan row order, is ascending code order.  Polynomial
text is parsed and printed only at the I/O boundary.

Each ring has one matrix product kernel, ``_rows_mul(rows, b)``: a list
of row vectors (three codes each) times one 3x3 matrix b, a row-major
nine-code tuple.  b's entries are split or packed once per call, so the
closure multiplies a whole frontier of its row orbit by a generator in one
call; ``Mat3.__mul__`` passes its three rows.  The kernels:

* Z/nZ and GF(p): an unrolled (sum a*b) % n;
* GF(p^k), k >= 2, q <= TABLE_FIELD_BOUND (64): lookups in q x q add and
  mul tables, built when the field is constructed (the field's element
  operations read the same tables);
* GF(p^2), q > 64: each code is split into its two base-p digits, each
  entry's constant, cross and top products are summed unreduced, and t^2
  is folded once per entry;
* GF(p^k), k = 3 or 4, q > 64: each code is packed into an int (Kronecker
  substitution), the entries are multiplied as polynomials, folded by
  ext_poly and re-encoded.

Above 64 no tables are built, since they cost O(q^2).

Ring specification grammar (used by :func:`ring_make` and the CLI)::

    zmod:<n> | gf:<p> | gf:<p>^<k> | gf:<p>^<k>:<poly>

where ``<poly>`` is written like ``t^2+t+1``.  Element printing is the
canonical residue for ZMod and a polynomial in t with descending powers
for GaloisField; ``parse_elem`` accepts the same syntax (signs allowed,
reduced to canonical form).

:class:`QuadRational` holds exact values (a + b*sqrt5)/c in lowest terms;
sqrt5 is the only irrationality needed by the built-in polyhedron catalog.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import (
    MixedRings,
    ModulusTooSmall,
    NonInvertibleDenominator,
    NonPrimeCharacteristic,
    NotAUnit,
    ReduciblePolynomial,
    RingSpecError,
    SqrtNotInRing,
    UnsupportedRing,
)

# the ascending square-root search is refused above this cardinality
SQRT_SEARCH_CAP = 10**6
# dense coefficient vectors stay practical only for small extension degrees
MAX_EXTENSION_DEGREE = 4
# extension fields up to this size multiply matrices through q x q tables
TABLE_FIELD_BOUND = 64
# is_prime's Miller-Rabin test to the bases 2 .. 41 proves primality below this
MILLER_RABIN_PROOF_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Primality by trial division by the 13 primes 2 .. 41, then Miller-Rabin to them.

    The divisions decide every n < 43^2 = 1849.  For larger n the strong
    test to the same 13 bases is a proof below MILLER_RABIN_PROOF_BOUND
    (J. Sorenson and J. Webster, *Math. Comp.* 86, 2017).  A larger n that
    passes it cannot be proven prime here, and raises UnsupportedRing; one
    that fails it is composite.
    """
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for a in bases:
        if n % a == 0:
            return n == a
    if n < 43 * 43:
        return n > 1
    # n - 1 = 2^s * odd
    s, odd = 0, n - 1
    while not odd & 1:
        s, odd = s + 1, odd >> 1
    for a in bases:
        x = pow(a, odd, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= MILLER_RABIN_PROOF_BOUND:
        raise UnsupportedRing(
            f"cannot prove {n} prime: Miller-Rabin to the bases 2 .. 41 is a proof "
            f"only below {MILLER_RABIN_PROOF_BOUND:,}")
    return True


def _factor(n: int) -> dict[int, int]:
    """{prime: exponent} of n >= 1, primes ascending.

    Trial division by d < 128 while d^2 <= n leaves parts whose primes are
    all >= d.  A part below d^2 or accepted by ``is_prime`` is prime.  Any
    other is split by Pollard's rho: Floyd's cycle search on x -> x^2 + c,
    retried with the next c while the gcd is the part itself.
    """
    out: dict[int, int] = {}
    d = 2
    while d * d <= n and d < 128:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    parts = [n] if n > 1 else []
    while parts:
        m = parts.pop()
        if m < d * d or is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        c, g = 0, m
        while g == m:
            c, x, y, g = c + 1, 2, 2, 1
            while g == 1:
                x, y = (x * x + c) % m, ((y * y + c) ** 2 + c) % m
                g = math.gcd(x - y, m)
        parts += (g, m // g)
    return dict(sorted(out.items()))


def _cyclic_counts(factors: dict[int, int]) -> list[tuple[int, int]]:
    """(d, phi(d)) for each divisor d of n, ascending, from n's ``_factor``: C_n's spectrum."""
    counts = [(1, 1)]
    for prime, k in factors.items():
        counts += [(d * prime**i, phi * (prime - 1) * prime**(i - 1))
                   for d, phi in counts for i in range(1, k + 1)]
    return sorted(counts)


# ---------------------------------------------------------------------------
# polynomial helpers over F_p (dense ascending-coefficient tuples)

def _poly_trim(coeffs: list[int]) -> tuple[int, ...]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _poly_mod(a: tuple[int, ...], m: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Remainder of a modulo the monic polynomial m, over F_p."""
    a = list(a)
    dm = len(m) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] % p
        if c:
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * m[j]) % p
    return _poly_trim([v % p for v in a[:dm]])


def _poly_mulmod(a: Sequence[int], b: Sequence[int], m: tuple[int, ...],
                 p: int) -> tuple[int, ...]:
    """Product of a and b modulo the monic polynomial m, over F_p."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                prod[i + j] += c * d
    return _poly_mod(prod, m, p)


def _poly_gcd(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Monic gcd of the monic polynomial a and of b, over F_p."""
    while b:
        # _poly_mod divides by monic polynomials only
        inv = pow(b[-1], -1, p)
        b = tuple(c * inv % p for c in b)
        a, b = b, _poly_mod(a, b, p)
    return a


def _poly_is_irreducible(m: tuple[int, ...], p: int) -> bool:
    """Ben-Or's test for a monic m of degree k over F_p.

    m is irreducible iff gcd(m, t^(p^i) - t) = 1 for i = 1 .. k/2: a
    reducible m has an irreducible factor of degree d <= k/2, and t^(p^d) - t
    is the product of the monic irreducibles whose degree divides d
    (M. Ben-Or, FOCS 1981).  Each t^(p^i) mod m comes from the
    previous one by square-and-multiply, so the test costs O(k log p)
    products modulo m.
    """
    k = len(m) - 1
    if k < 1:
        return False
    h = (0, 1)
    for _ in range(k // 2):
        # h <- h^p mod m, by square-and-multiply over the bits of p
        power = h
        for bit in bin(p)[3:]:
            power = _poly_mulmod(power, power, m, p)
            if bit == "1":
                power = _poly_mulmod(power, h, m, p)
        h = power
        diff = list(h) + [0] * (2 - len(h))
        diff[1] = (diff[1] - 1) % p
        if _poly_gcd(m, _poly_trim(diff), p) != (1,):
            return False
    return True


def _find_irreducible(p: int, k: int) -> tuple[int, ...]:
    """First monic irreducible of degree k over F_p, lowest coefficients first.

    Candidate i = 0, 1, ... is t^k plus the polynomial whose coefficients
    are the base-p digits of i, constant term lowest, so the constant term
    varies fastest.  Each is made only when tried, by Ben-Or's test, so the
    search costs nothing for the candidates past the first irreducible.

    The first p candidates are the binomials t^k + c.  For k <= 4 some
    binomial is irreducible only when k divides p - 1 (Lidl & Niederreiter,
    *Finite Fields*, Theorem 3.75), so otherwise they are skipped: the answer
    is the same, and a large p does not try p reducible binomials first.
    """
    for i in range(0 if (p - 1) % k == 0 else p, p**k):
        m = []
        for _ in range(k):
            i, c = divmod(i, p)
            m.append(c)
        m.append(1)
        if _poly_is_irreducible(tuple(m), p):
            return tuple(m)
    raise AssertionError(f"no monic irreducible of degree {k} over F_{p}")


def _poly_str(coeffs: Sequence[int]) -> str:
    """Descending-power rendering, e.g. (1, 1, 1) -> 't^2+t+1'."""
    terms = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if c == 0:
            continue
        if e == 0:
            terms.append(str(c))
        else:
            var = "t" if e == 1 else f"t^{e}"
            terms.append(var if c == 1 else f"{c}{var}")
    return "+".join(terms) if terms else "0"


_TERM_RE = re.compile(r"^(\d+)?(t(?:\^(\d+))?)?$")


def _poly_parse(text: str, p: int) -> list[int]:
    """Parse 't^2+3t+1' style text into an ascending coefficient list mod p."""
    s = text.replace(" ", "")
    if not s:
        raise RingSpecError("empty polynomial")
    # split into signed terms
    pieces = re.findall(r"[+-]?[^+-]+", s)
    if "".join(pieces) != s:
        raise RingSpecError(f"cannot parse polynomial {text!r}")
    coeffs: dict[int, int] = {}
    for piece in pieces:
        sign = 1
        body = piece
        if body[0] in "+-":
            sign = -1 if body[0] == "-" else 1
            body = body[1:]
        m = _TERM_RE.match(body)
        if not m or (m.group(1) is None and m.group(2) is None):
            raise RingSpecError(f"bad term {piece!r} in polynomial {text!r}")
        coeff = int(m.group(1)) if m.group(1) is not None else 1
        if m.group(2) is None:
            exp = 0
        else:
            exp = int(m.group(3)) if m.group(3) is not None else 1
        coeffs[exp] = (coeffs.get(exp, 0) + sign * coeff) % p
    out = [0] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        out[e] = c
    return out


# ---------------------------------------------------------------------------
# rings

class Ring:
    """Base class: a finite commutative ring with identity.

    Elements are int codes in [0, cardinality), numbered as described in the
    module docstring; user-facing values are :class:`RingElem` wrappers.
    Each concrete ring defines the code operations ``_add``, ``_sub``,
    ``_mul``, ``_neg``, ``_inv``, ``_is_unit``, ``_from_int``, ``_fmt`` and
    ``_parse``, the ``is_field`` property, ``spec_string``, and ``_rows_mul``,
    the product kernel: ``_rows_mul(rows, b)`` is the list of the products
    of each row vector in ``rows`` (a three-code tuple) with the 3x3 matrix
    ``b`` (a row-major nine-code tuple).  The base class supplies ``_pow``
    from ``_mul``.  Instances are hashable and immutable after
    construction, so threads can share them.
    """

    modulus: int
    cardinality: int

    @property
    def zero(self) -> RingElem:
        return RingElem(self, self._from_int(0))

    @property
    def one(self) -> RingElem:
        return RingElem(self, self._from_int(1))

    def from_int(self, m: int) -> RingElem:
        """Image of the integer m under Z -> R."""
        return RingElem(self, self._from_int(m))

    def elem(self, value) -> RingElem:
        """Coerce an int (its image under Z -> R), string or RingElem into this ring."""
        if isinstance(value, RingElem):
            if value.ring != self:
                raise MixedRings(f"element of {value.ring} used in {self}")
            return value
        if isinstance(value, int):
            return self.from_int(value)
        if isinstance(value, str):
            return self.parse_elem(value)
        raise TypeError(f"cannot coerce {value!r} into {self}")

    def elements(self) -> Iterator[RingElem]:
        """All elements in ascending code order."""
        for v in range(self.cardinality):
            yield RingElem(self, v)

    def parse_elem(self, text: str) -> RingElem:
        return RingElem(self, self._parse(text))

    def _pow(self, u: int, n: int) -> int:
        """u^n on codes, n >= 0, by square and multiply."""
        mul, out = self._mul, self._from_int(1)
        for bit in bin(n)[2:]:
            out = mul(out, out)
            if bit == "1":
                out = mul(out, u)
        return out

    def __repr__(self) -> str:
        return self.spec_string()


class _Residues(Ring):
    """Arithmetic on residues mod ``modulus``: Z/nZ, and GF(p) as its k = 1 case."""

    def _add(self, u, v):
        return (u + v) % self.modulus

    def _sub(self, u, v):
        return (u - v) % self.modulus

    def _mul(self, u, v):
        return (u * v) % self.modulus

    def _neg(self, u):
        return -u % self.modulus

    def _inv(self, u):
        try:
            return pow(u, -1, self.modulus)
        except ValueError:
            raise NotAUnit(f"{u} is not invertible in {self}") from None

    def _is_unit(self, u):
        return math.gcd(u, self.modulus) == 1

    def _from_int(self, m):
        return m % self.modulus

    def _fmt(self, u):
        return str(u)

    def _rows_mul(self, rows, b):
        # unrolled: this is the closure hot loop
        n = self.modulus
        b0, b1, b2, b3, b4, b5, b6, b7, b8 = b
        return [((x * b0 + y * b3 + z * b6) % n,
                 (x * b1 + y * b4 + z * b7) % n,
                 (x * b2 + y * b5 + z * b8) % n) for x, y, z in rows]


class ZMod(_Residues):
    """Integers modulo n, n >= 2."""

    def __init__(self, n: int):
        if n < 2:
            raise ModulusTooSmall(f"zmod modulus must be >= 2, got {n}")
        self.modulus = n
        self.cardinality = n
        self._prime = is_prime(n)

    @property
    def is_field(self) -> bool:
        return self._prime

    def __eq__(self, other) -> bool:
        return isinstance(other, ZMod) and other.modulus == self.modulus

    def __hash__(self) -> int:
        return hash(("zmod", self.modulus))

    def _parse(self, text):
        try:
            return int(text.strip()) % self.modulus
        except ValueError:
            raise RingSpecError(f"bad element literal {text!r} for {self}") from None

    def spec_string(self) -> str:
        return f"zmod:{self.modulus}"


class GaloisField(_Residues):
    """GF(p^k) as F_p[t]/(ext_poly) with a monic irreducible ext_poly.

    When no polynomial is supplied, the first monic polynomial of degree k in
    :func:`_find_irreducible`'s enumeration order that passes Ben-Or's
    irreducibility test is used; a supplied one must pass the same test.
    Degree-1 fields use the convention ext_poly = t; their codes are the
    residues mod p, so they share Z/pZ's arithmetic.  For k >= 2 the
    constructor returns a subclass with coefficient arithmetic, chosen by
    q = p^k and k: a :class:`_TableField` up to TABLE_FIELD_BOUND; above it
    a :class:`_QuadraticField` for k = 2 and an :class:`_ExtensionField`
    for k = 3 and 4.
    """

    def __new__(cls, p: int, k: int = 1, ext_poly: tuple[int, ...] | None = None):
        if k < 2:
            return super().__new__(cls)
        # test k first: __init__ refuses a large k, and p**k could be huge
        if k <= MAX_EXTENSION_DEGREE and p**k <= TABLE_FIELD_BOUND:
            return super().__new__(_TableField)
        return super().__new__(_QuadraticField if k == 2 else _ExtensionField)

    def __init__(self, p: int, k: int = 1, ext_poly: tuple[int, ...] | None = None):
        if not is_prime(p):
            raise NonPrimeCharacteristic(f"gf characteristic must be prime, got {p}")
        if k < 1:
            raise RingSpecError(f"extension degree must be >= 1, got {k}")
        if k > MAX_EXTENSION_DEGREE:
            raise UnsupportedRing(f"extension degree {k} > {MAX_EXTENSION_DEGREE} not supported")
        self.modulus = p
        self.degree = k
        if ext_poly is None:
            ext_poly = (0, 1) if k == 1 else _find_irreducible(p, k)
        else:
            ext_poly = tuple(c % p for c in ext_poly)
            if len(ext_poly) != k + 1 or ext_poly[-1] != 1:
                raise RingSpecError(
                    f"extension polynomial must be monic of degree {k}: {_poly_str(ext_poly)}")
            if k > 1 and not _poly_is_irreducible(ext_poly, p):
                raise ReduciblePolynomial(
                    f"{_poly_str(ext_poly)} is reducible over F_{p}")
        self.ext_poly = ext_poly
        self.cardinality = p**k

    @property
    def is_field(self) -> bool:
        return True

    def __eq__(self, other) -> bool:
        return (isinstance(other, GaloisField) and other.modulus == self.modulus
                and other.ext_poly == self.ext_poly)

    def __hash__(self) -> int:
        return hash(("gf", self.modulus, self.ext_poly))

    def __reduce__(self):
        # rebuild through the constructor, which picks the class from k
        return GaloisField, (self.modulus, self.degree, self.ext_poly)

    def _encode(self, coeffs: Sequence[int]) -> int:
        """Code of sum(coeffs[i] * t^i), for at most k coefficients of any size."""
        p = self.modulus
        u = 0
        for c in coeffs:
            u = u * p + c % p
        return u * p ** (self.degree - len(coeffs))

    def _parse(self, text):
        coeffs = _poly_parse(text, self.modulus)
        if len(coeffs) > self.degree:
            # reduce higher powers by the extension polynomial
            coeffs = _poly_mod(tuple(coeffs), self.ext_poly, self.modulus)
        return self._encode(coeffs)

    def spec_string(self) -> str:
        if self.degree == 1:
            return f"gf:{self.modulus}"
        return f"gf:{self.modulus}^{self.degree}:{_poly_str(self.ext_poly)}"


class _ExtensionField(GaloisField):
    """GF(p^k) for k >= 2: each operation works on the coefficients of codes.

    The class serves k = 3 and 4 above TABLE_FIELD_BOUND; its subclasses
    serve the rest of k >= 2 (:class:`_TableField` builds its tables from
    these operations, :class:`_QuadraticField` overrides them).

    Products use Kronecker substitution: a polynomial is packed into one
    int with ``_shift`` bits per coefficient, wide enough that a sum of three
    products never carries from one coefficient into the next, so one int
    product multiplies two polynomials.  The row kernel packs b's nine
    entries once per call and each row's three once, and folds each of a
    row's three results by ext_poly, which costs nothing up front for the
    large q whose q x q tables would not pay off.
    """

    def __init__(self, p: int, k: int, ext_poly: tuple[int, ...] | None = None):
        super().__init__(p, k, ext_poly)
        # t^k == sum(_reduction[j] * t^j): folds products back to degree < k
        self._reduction = tuple(-c % p for c in self.ext_poly[:k])
        self._shift = (3 * k * (p - 1) ** 2).bit_length()

    def _decode(self, u: int) -> list[int]:
        """Coefficients of the element with code u, ascending powers."""
        p = self.modulus
        coeffs = [0] * self.degree
        for i in range(self.degree - 1, -1, -1):
            u, coeffs[i] = divmod(u, p)
        return coeffs

    def _pack(self, u: int) -> int:
        """Coefficients of code u, ``_shift`` bits each, constant term lowest."""
        p, shift = self.modulus, self._shift
        x = 0
        for _ in range(self.degree):
            u, c = divmod(u, p)
            x = (x << shift) | c
        return x

    def _fold(self, x: int) -> int:
        """Code of a packed product of degree <= 2k - 2, reduced by ext_poly."""
        p, k, shift = self.modulus, self.degree, self._shift
        mask = (1 << shift) - 1
        coeffs = []
        for _ in range(2 * k - 1):
            coeffs.append(x & mask)
            x >>= shift
        for i in range(2 * k - 2, k - 1, -1):
            c = coeffs[i] % p
            if c:
                for j, r in enumerate(self._reduction, i - k):
                    coeffs[j] += c * r
        return self._encode(coeffs[:k])

    def _add(self, u, v):
        return self._encode([a + b for a, b in zip(self._decode(u), self._decode(v))])

    def _sub(self, u, v):
        return self._encode([a - b for a, b in zip(self._decode(u), self._decode(v))])

    def _neg(self, u):
        return self._encode([-a for a in self._decode(u)])

    def _mul(self, u, v):
        return self._fold(self._pack(u) * self._pack(v))

    def _is_unit(self, u):
        return u != 0

    def _inv(self, u):
        if not u:
            raise NotAUnit(f"0 is not invertible in {self}")
        return self._pow(u, self.cardinality - 2)

    def _from_int(self, m):
        return self._encode([m])

    def _fmt(self, u):
        return _poly_str(self._decode(u))

    def _rows_mul(self, rows, b):
        pack, fold = self._pack, self._fold
        b0, b1, b2, b3, b4, b5, b6, b7, b8 = map(pack, b)
        return [(fold(x * b0 + y * b3 + z * b6),
                 fold(x * b1 + y * b4 + z * b7),
                 fold(x * b2 + y * b5 + z * b8))
                for x, y, z in (map(pack, row) for row in rows)]


class _QuadraticField(_ExtensionField):
    """GF(p^2) with q > TABLE_FIELD_BOUND: straight-line arithmetic on two digits.

    The code u = c0*p + c1 stands for c0 + c1*t, and t^2 = r0 + r1*t with
    (r0, r1) = ``_reduction``, so (a0 + a1*t)(b0 + b1*t) has the constant
    term a0*b0 + r0*h and the t term a0*b1 + a1*b0 + r1*h, h = a1*b1.
    The row kernel splits b's nine codes once per call and each row's three
    once, and sums each entry's three terms unreduced before it folds t^2
    and reduces mod p, twice per entry.
    """

    def _add(self, u, v):
        p = self.modulus
        a0, a1 = divmod(u, p)
        b0, b1 = divmod(v, p)
        return (a0 + b0) % p * p + (a1 + b1) % p

    def _sub(self, u, v):
        p = self.modulus
        a0, a1 = divmod(u, p)
        b0, b1 = divmod(v, p)
        return (a0 - b0) % p * p + (a1 - b1) % p

    def _neg(self, u):
        p = self.modulus
        a0, a1 = divmod(u, p)
        return -a0 % p * p + -a1 % p

    def _mul(self, u, v):
        p = self.modulus
        r0, r1 = self._reduction
        a0, a1 = divmod(u, p)
        b0, b1 = divmod(v, p)
        h = a1 * b1
        return (a0 * b0 + r0 * h) % p * p + (a0 * b1 + a1 * b0 + r1 * h) % p

    def _inv(self, u):
        if not u:
            raise NotAUnit(f"0 is not invertible in {self}")
        p = self.modulus
        r0, r1 = self._reduction
        a0, a1 = divmod(u, p)
        # u times its conjugate a0 + r1*a1 - a1*t is the norm, an element of F_p
        n = pow((a0 * a0 + r1 * a0 * a1 - r0 * a1 * a1) % p, -1, p)
        return (a0 + r1 * a1) * n % p * p + -a1 * n % p

    def _rows_mul(self, rows, b):
        # unrolled: this is the closure hot loop over GF(p^2)
        p = self.modulus
        r0, r1 = self._reduction
        # bid: digit d (0 the constant term) of entry i of b, row-major
        (b00, b01), (b10, b11), (b20, b21), (b30, b31), (b40, b41), (b50, b51), \
            (b60, b61), (b70, b71), (b80, b81) = [divmod(u, p) for u in b]
        out = []
        for x, y, z in rows:
            x0, x1 = divmod(x, p)
            y0, y1 = divmod(y, p)
            z0, z1 = divmod(z, p)
            # the top (t^2) sum of each entry
            h0 = x1 * b01 + y1 * b31 + z1 * b61
            h1 = x1 * b11 + y1 * b41 + z1 * b71
            h2 = x1 * b21 + y1 * b51 + z1 * b81
            out.append((
                (x0 * b00 + y0 * b30 + z0 * b60 + r0 * h0) % p * p
                + (x0 * b01 + x1 * b00 + y0 * b31 + y1 * b30 + z0 * b61 + z1 * b60 + r1 * h0) % p,
                (x0 * b10 + y0 * b40 + z0 * b70 + r0 * h1) % p * p
                + (x0 * b11 + x1 * b10 + y0 * b41 + y1 * b40 + z0 * b71 + z1 * b70 + r1 * h1) % p,
                (x0 * b20 + y0 * b50 + z0 * b80 + r0 * h2) % p * p
                + (x0 * b21 + x1 * b20 + y0 * b51 + y1 * b50 + z0 * b81 + z1 * b80 + r1 * h2) % p,
            ))
        return out


class _TableField(_ExtensionField):
    """GF(p^k), k >= 2, with q <= TABLE_FIELD_BOUND: every operation reads tables.

    The q x q add and mul tables and the q negations are built in the
    constructor.  Addition is digitwise mod p, so the add table is built
    one base-p digit at a time, and -u is the code whose sum with u is 0.
    The mul table comes from the powers of the first primitive code g (the
    smallest code of multiplicative order q - 1): u * v = g^(log u + log v).
    The tables are stored as q rows, so each lookup is two subscripts, and
    subtraction adds the negation.  The row kernel fetches the mul row of
    each of b's nine entries once per call.
    """

    def __init__(self, p: int, k: int, ext_poly: tuple[int, ...] | None = None):
        super().__init__(p, k, ext_poly)
        q = self.cardinality
        # the add table for codes of j digits, extended by one low digit at a time
        add_rows = [[0]]
        for _ in range(k):
            add_rows = [[s * p + (a + b) % p for s in row for b in range(p)]
                        for row in add_rows for a in range(p)]
        self._add_rows = add_rows
        self._negs = [row.index(0) for row in add_rows]
        one = self._from_int(1)
        for g in range(1, q):
            exp = [one, g]
            while exp[-1] != one:
                exp.append(_ExtensionField._mul(self, exp[-1], g))
            if len(exp) == q:
                break
        # exp runs g^0 .. g^(q-1) = 1; doubled, a sum of two logs needs no reduction
        exp = exp[:-1] * 2
        logs = [exp.index(v) for v in range(1, q)]
        self._mul_rows = [[0] * q] + [[0] + [exp[i + j] for j in logs] for i in logs]

    def _add(self, u, v):
        return self._add_rows[u][v]

    def _sub(self, u, v):
        return self._add_rows[u][self._negs[v]]

    def _neg(self, u):
        return self._negs[u]

    def _mul(self, u, v):
        return self._mul_rows[u][v]

    def _rows_mul(self, rows, b):
        add = self._add_rows
        # mi[u] is u * b[i]: the mul table row of each entry of b
        m0, m1, m2, m3, m4, m5, m6, m7, m8 = [self._mul_rows[v] for v in b]
        return [(add[add[m0[x]][m3[y]]][m6[z]],
                 add[add[m1[x]][m4[y]]][m7[z]],
                 add[add[m2[x]][m5[y]]][m8[z]]) for x, y, z in rows]


@dataclass(frozen=True)
class RingElem:
    """An element of a specific ring, held as its int code."""

    ring: Ring
    val: int

    def _check(self, other: RingElem) -> None:
        if other.ring != self.ring:
            raise MixedRings(f"cannot combine elements of {self.ring} and {other.ring}")

    def __add__(self, other: RingElem) -> RingElem:
        self._check(other)
        return RingElem(self.ring, self.ring._add(self.val, other.val))

    def __sub__(self, other: RingElem) -> RingElem:
        self._check(other)
        return RingElem(self.ring, self.ring._sub(self.val, other.val))

    def __mul__(self, other: RingElem) -> RingElem:
        self._check(other)
        return RingElem(self.ring, self.ring._mul(self.val, other.val))

    def __neg__(self) -> RingElem:
        return RingElem(self.ring, self.ring._neg(self.val))

    def inv(self) -> RingElem:
        """Multiplicative inverse; raises NotAUnit if none exists."""
        return RingElem(self.ring, self.ring._inv(self.val))

    @property
    def is_unit(self) -> bool:
        return self.ring._is_unit(self.val)

    def __str__(self) -> str:
        return self.ring._fmt(self.val)


# ---------------------------------------------------------------------------
# exact quadratic-rational parameters

@dataclass(frozen=True)
class QuadRational:
    """Exact value (a + b*sqrt5)/c with c >= 1 and gcd(a, b, c) = 1.

    b = 0 encodes an ordinary rational a/c.  Addition and multiplication are
    exact arithmetic in Q(sqrt5).
    """

    a: int
    b: int = 0
    c: int = 1

    def __post_init__(self):
        a, b, c = self.a, self.b, self.c
        if c == 0:
            raise ZeroDivisionError("QuadRational denominator is zero")
        if c < 0:
            a, b, c = -a, -b, -c
        g = math.gcd(math.gcd(abs(a), abs(b)), c)
        if g > 1:
            a, b, c = a // g, b // g, c // g
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    def __add__(self, other: QuadRational) -> QuadRational:
        return QuadRational(self.a * other.c + other.a * self.c,
                            self.b * other.c + other.b * self.c,
                            self.c * other.c)

    def __sub__(self, other: QuadRational) -> QuadRational:
        return self + (-other)

    def __neg__(self) -> QuadRational:
        return QuadRational(-self.a, -self.b, self.c)

    def __mul__(self, other: QuadRational) -> QuadRational:
        return QuadRational(self.a * other.a + 5 * self.b * other.b,
                            self.a * other.b + self.b * other.a,
                            self.c * other.c)

    def denominator_primes(self) -> set[int]:
        """Primes dividing the reduced denominator."""
        return set(_factor(self.c))

    def to_json(self) -> dict[str, int]:
        return {"a": self.a, "b": self.b, "c": self.c}

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a) if self.c == 1 else f"{self.a}/{self.c}"
        if self.b == 1:
            root = "sqrt5"
        elif self.b == -1:
            root = "-sqrt5"
        else:
            root = f"{self.b}sqrt5"
        if self.a == 0:
            num = root
            bare = True
        else:
            num = f"{self.a}+{root}" if self.b > 0 else f"{self.a}{root}"
            bare = False
        if self.c == 1:
            return num
        return f"{num}/{self.c}" if bare else f"({num})/{self.c}"


# ---------------------------------------------------------------------------
# module-level operations

_SPEC_RE = re.compile(r"^gf:(\d+)(?:\^(\d+))?(?::(.+))?$")


def ring_make(spec: str) -> Ring:
    """Build a ring from its specification string (see module docstring)."""
    s = spec.strip()
    if s.startswith("zmod:"):
        body = s[len("zmod:"):]
        try:
            n = int(body)
        except ValueError:
            raise RingSpecError(f"bad zmod modulus {body!r}") from None
        return ZMod(n)
    m = _SPEC_RE.match(s)
    if m:
        p = int(m.group(1))
        k = int(m.group(2)) if m.group(2) else 1
        poly_text = m.group(3)
        if poly_text is None:
            return GaloisField(p, k)
        if not is_prime(p):
            raise NonPrimeCharacteristic(f"gf characteristic must be prime, got {p}")
        coeffs = _poly_parse(poly_text, p)
        return GaloisField(p, k, tuple(coeffs))
    raise RingSpecError(f"cannot parse ring spec {spec!r}")


def _sqrt_mod_prime(a: int, p: int) -> int | None:
    """The smaller of the two square roots of a modulo an odd prime p, or None.

    Euler's criterion decides whether a root exists; Tonelli-Shanks finds it
    with O(log p) powers mod p (H. Cohen, *A Course in Computational
    Algebraic Number Theory*, Alg. 1.5.1).
    """
    if a == 0:
        return 0
    half = (p - 1) // 2
    if pow(a, half, p) != 1:
        return None
    # p - 1 = 2^e * odd
    e, odd = 0, p - 1
    while not odd & 1:
        e, odd = e + 1, odd >> 1
    n = 2
    while pow(n, half, p) == 1:
        n += 1
    # invariants: a*b = x^2, y has order 2^r, b has order dividing 2^(r-1)
    y, r = pow(n, odd, p), e
    x = pow(a, (odd - 1) // 2, p)
    b = a * x * x % p
    x = a * x % p
    while b != 1:
        m, t = 1, b * b % p
        while t != 1:
            m, t = m + 1, t * t % p
        t = pow(y, 1 << (r - m - 1), p)
        y, r = t * t % p, m
        x, b = x * t % p, b * y % p
    return min(x, p - x)


def sqrt_in_field(d: RingElem) -> RingElem | None:
    """Some r with r*r = d, or None; ties broken by smallest code.

    Valid over any finite field (GaloisField, or ZMod with prime modulus).
    Prime fields of odd order use Tonelli-Shanks; GF(2) and the extension
    fields search the codes in ascending order, which is refused above
    cardinality 10**6.
    """
    ring = d.ring
    if not ring.is_field:
        raise UnsupportedRing(f"square roots need a field, got {ring}")
    p = ring.modulus
    if ring.cardinality == p and p > 2:
        r = _sqrt_mod_prime(d.val, p)
        return None if r is None else RingElem(ring, r)
    if ring.cardinality > SQRT_SEARCH_CAP:
        raise UnsupportedRing(
            f"square-root search capped at cardinality {SQRT_SEARCH_CAP}")
    mul = ring._mul
    target = d.val
    for r in range(ring.cardinality):
        if mul(r, r) == target:
            return RingElem(ring, r)
    return None


def reduce_quadrational(q: QuadRational, ring: Ring) -> RingElem:
    """Evaluate (a + b*sqrt5)/c inside the given ring.

    Division is multiplication by inv(c).  Raises NonInvertibleDenominator
    when c is not a unit, UnsupportedRing when b != 0 over a non-field, and
    SqrtNotInRing when sqrt5 does not exist in the field (callers may retry
    over a quadratic extension).
    """
    c = ring.from_int(q.c)
    if not c.is_unit:
        raise NonInvertibleDenominator(
            f"denominator {q.c} is not a unit in {ring}")
    num = ring.from_int(q.a)
    if q.b != 0:
        if not ring.is_field:
            raise UnsupportedRing(
                f"sqrt5 parameters need a field, got {ring}")
        s = sqrt_in_field(ring.from_int(5))
        if s is None:
            raise SqrtNotInRing(f"5 has no square root in {ring}")
        num = num + ring.from_int(q.b) * s
    return num * c.inv()
