"""Independent brute-force oracles used to freeze expected test values.

Nothing here imports the package under test.  Seven oracles:

* permutation-group enumeration (spectra of S_n, A_n by listing every
  permutation and of D_n by closing two permutations of Z/n, taking
  cycle-length lcms);
* a standalone matrix-closure enumerator over Z/nZ using plain integer
  tuples, with the rotation formulas written out independently;
* the quadratic form that every rotation preserves, over Z/nZ;
* the rotations built a second way, from the reflections of a Cartan
  matrix, on code tables;
* GF(p^k) arithmetic on coefficient tuples, with a naive triple-loop 3x3
  product, against which the package's int-coded fields are compared;
* irreducibility over F_p by trial division by every monic polynomial of
  degree up to half the degree;
* primality by trial division by every integer from 2 up to the square root.

Five reference implementations, kept as the slow, direct algorithms that
the package's faster ones are compared against, and one rebuild of a
closure's matrices (they take the package's objects as arguments but
import nothing from it):

* a closure's Cayley table by a breadth-first walk on whole matrices;
* the order spectrum by each element's own ``order()`` and the center by
  two products per test;
* map equivalence by trying every image of dart 0;
* a square root by trying every code in ascending order;
* the three rotations by ring-element arithmetic and coercion;
* a generated group's matrices, from its generators and Cayley table.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

# ---------------------------------------------------------------------------
# permutation groups

def perm_order(p: tuple[int, ...]) -> int:
    seen = [False] * len(p)
    lengths = []
    for i in range(len(p)):
        if seen[i]:
            continue
        n, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            n += 1
        lengths.append(n)
    return math.lcm(*lengths)


def perm_is_even(p: tuple[int, ...]) -> bool:
    inversions = sum(1 for i in range(len(p)) for j in range(i + 1, len(p))
                     if p[i] > p[j])
    return inversions % 2 == 0


def symmetric_spectrum(n: int) -> tuple[tuple[int, int], ...]:
    """Order spectrum of S_n by full enumeration."""
    counts = Counter(perm_order(p) for p in itertools.permutations(range(n)))
    return tuple(sorted(counts.items()))


def alternating_spectrum(n: int) -> tuple[tuple[int, int], ...]:
    """Order spectrum of A_n by full enumeration."""
    counts = Counter(perm_order(p) for p in itertools.permutations(range(n))
                     if perm_is_even(p))
    return tuple(sorted(counts.items()))


def dihedral_perm_spectrum(n: int) -> tuple[tuple[int, int], ...]:
    """Order spectrum of D_n, the group of order 2n, by enumeration.

    For n >= 3, D_n is the closure of i -> i + 1 and i -> -i on Z/n, walked
    breadth first.  D_2 acts on Z/2 unfaithfully, so it is the Klein
    four-group, the identity and the three fixed-point-free involutions of
    four points.
    """
    if n == 2:
        elems = [(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)]
    else:
        gens = [tuple((i + 1) % n for i in range(n)), tuple(-i % n for i in range(n))]
        elems = [tuple(range(n))]
        seen = set(elems)
        for a in elems:
            for g in gens:
                b = tuple(g[i] for i in a)
                if b not in seen:
                    seen.add(b)
                    elems.append(b)
    counts = Counter(perm_order(p) for p in elems)
    return tuple(sorted(counts.items()))


# ---------------------------------------------------------------------------
# standalone closure over Z/nZ (integer 9-tuples, row-major)

IDENT = (1, 0, 0, 0, 1, 0, 0, 0, 1)


def mat_mul_mod(a, b, n):
    return tuple(
        sum(a[3 * i + k] * b[3 * k + j] for k in range(3)) % n
        for i in range(3) for j in range(3)
    )


def rotations_mod(x: int, y: int, n: int):
    """The three rotation matrices at (x, y) over Z/nZ, written directly."""
    rv = (1, 1 - x, (1 - x) * (1 - y),
          0, -1, -1 + y,
          0, 1 + x, -1 + (1 + x) * (1 - y))
    re = (-1, 0, 0, 2, 1, 1 - y, 0, 0, -1)
    rf = (-1, -1 + x, 0, 2, 1 - 2 * x, 0, 0, 1 + x, 1)
    return tuple(tuple(v % n for v in m) for m in (rv, re, rf))


def invariant_form(x: int, y: int, n: int):
    """The symmetric form B, row-major mod n, with g^T B g = B for each rotation g.

    The entries are polynomials in x and y, so the identity holds over
    every Z/nZ, composite moduli included.
    """
    c = (x - 1) * (y - 1)
    b = (x * y - x + y + 3, -2 * (x - 1), c,
         -2 * (x - 1), -2 * (x - 1), c,
         c, c, c)
    return tuple(v % n for v in b)


def transpose(a):
    return tuple(a[3 * j + i] for i in range(3) for j in range(3))


def closure_mod(gens, n, cap=1_000_000):
    """Breadth-first closure; returns the element list."""
    ident = tuple(v % n for v in IDENT)
    elems = [ident]
    index = {ident}
    i = 0
    while i < len(elems):
        a = elems[i]
        i += 1
        for g in gens:
            b = mat_mul_mod(a, g, n)
            if b not in index:
                index.add(b)
                elems.append(b)
                if len(elems) > cap:
                    raise RuntimeError("oracle closure cap hit")
    return elems


def mat_order_mod(a, n):
    ident = tuple(v % n for v in IDENT)
    b, m = a, 1
    while b != ident:
        b = mat_mul_mod(b, a, n)
        m += 1
    return m


def closure_spectrum(elems, n) -> tuple[tuple[int, int], ...]:
    counts = Counter(mat_order_mod(a, n) for a in elems)
    return tuple(sorted(counts.items()))


def run_map_oracle(x: int, y: int, n: int) -> dict:
    """Full independent pipeline: order, rotation orders, counts, genus."""
    rv, re, rf = rotations_mod(x, y, n)
    elems = closure_mod([rv, re, rf], n)
    order = len(elems)
    p = mat_order_mod(rv, n)
    q = mat_order_mod(rf, n)
    e = mat_order_mod(re, n)
    out = {"order": order, "p": p, "q": q, "e": e}
    if e == 2 and p >= 2 and q >= 2 and order % 2 == 0 \
            and order % p == 0 and order % q == 0:
        V, E, F = order // p, order // 2, order // q
        doubled = order - V - E - F + 2
        assert doubled % 2 == 0
        out.update(V=V, E=E, F=F, genus=doubled // 2)
    return out


# ---------------------------------------------------------------------------
# GF(p^k) on coefficient tuples

class TupleField:
    """F_p[t]/(ext_poly) with elements as coefficient tuples, ascending powers.

    ``ext_poly`` is monic and ascending, e.g. (1, 1, 1) for t^2 + t + 1.
    ``tuples()`` lists the elements in the package's element order, and
    ``from_code``/``to_code`` restate that numbering: the code's base-p
    digits are the coefficients, constant term most significant.
    """

    def __init__(self, p: int, ext_poly: tuple[int, ...]):
        self.p = p
        self.k = len(ext_poly) - 1
        # t^k == sum(reduction[j] * t^j): folds products back to degree < k
        self.reduction = tuple(-c % p for c in ext_poly[:self.k])

    def tuples(self):
        return itertools.product(range(self.p), repeat=self.k)

    def from_code(self, code: int) -> tuple[int, ...]:
        digits = []
        for _ in range(self.k):
            code, c = divmod(code, self.p)
            digits.append(c)
        return tuple(reversed(digits))

    def to_code(self, u: tuple[int, ...]) -> int:
        code = 0
        for c in u:
            code = code * self.p + c
        return code

    def add(self, u, v):
        return tuple((a + b) % self.p for a, b in zip(u, v))

    def sub(self, u, v):
        return tuple((a - b) % self.p for a, b in zip(u, v))

    def neg(self, u):
        return tuple(-a % self.p for a in u)

    def mul(self, u, v):
        p, k = self.p, self.k
        prod = [0] * (2 * k - 1)
        for i, a in enumerate(u):
            if a:
                for j, b in enumerate(v):
                    prod[i + j] = (prod[i + j] + a * b) % p
        for i in range(2 * k - 2, k - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                base = i - k
                for j, r in enumerate(self.reduction):
                    if r:
                        prod[base + j] = (prod[base + j] + c * r) % p
        return tuple(prod[:k])

    def inv(self, u):
        if not any(u):
            raise ZeroDivisionError("0 has no inverse")
        # u^(q-2) by square-and-multiply
        e = self.p ** self.k - 2
        result = (1,) + (0,) * (self.k - 1)
        base = u
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def code_tables(self) -> tuple[list[list[int]], list[list[int]]]:
        """q x q sum and product tables on codes, from the tuple arithmetic."""
        elems = [self.from_code(c) for c in range(self.p ** self.k)]
        add = [[self.to_code(self.add(u, v)) for v in elems] for u in elems]
        mul = [[self.to_code(self.mul(u, v)) for v in elems] for u in elems]
        return add, mul

    def mat_mul(self, a, b):
        """Row-major 3x3 product of nine-tuple matrices, by the triple loop."""
        zero = (0,) * self.k
        out = []
        for i in range(3):
            for j in range(3):
                acc = zero
                for m in range(3):
                    acc = self.add(acc, self.mul(a[3 * i + m], b[3 * m + j]))
                out.append(acc)
        return tuple(out)


# ---------------------------------------------------------------------------
# irreducibility over F_p by trial division

def poly_mod(a: tuple[int, ...], m: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Remainder of a modulo the monic polynomial m, over F_p."""
    a = list(a)
    dm = len(m) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] % p
        if c:
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * m[j]) % p
    a = [v % p for v in a[:dm]]
    while a and a[-1] == 0:
        a.pop()
    return tuple(a)


def trial_division_irreducible(m: tuple[int, ...], p: int) -> bool:
    """Exhaustive trial division by monic polynomials of degree <= deg(m)/2."""
    k = len(m) - 1
    if k < 1:
        return False
    for d in range(1, k // 2 + 1):
        for lower in itertools.product(range(p), repeat=d):
            g = lower + (1,)
            if not poly_mod(m, g, p):
                return False
    return True


# ---------------------------------------------------------------------------
# primality by trial division

def trial_division_prime(n: int) -> bool:
    """n >= 2 with no divisor d, 2 <= d <= sqrt(n)."""
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def trial_division_factor(n: int) -> dict[int, int]:
    """{prime: exponent} of n >= 1, dividing out each d = 2, 3, 4, ... while d^2 <= n."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# ---------------------------------------------------------------------------
# reference implementations

def cartan_rhos(x: int, y: int, add, mul, one: int) -> list[tuple[int, ...]]:
    """(rho_v, rho_e, rho_f) as code nine-tuples, built from a Cartan matrix.

    A second construction of the rotations: the reflections are
    s_i(e_j) = e_j - a_ij e_i with A = [[2, -1, 0], [-c1, 2, -1],
    [0, -c2, 2]], c1 = 2(1 - x) and c2 = (1 + x)(1 - y), and the rotations
    are s1 s2, s0 s2 and s0 s1.  ``add`` and ``mul`` are q x q code tables
    in which code 0 is zero, and ``one`` is the code of one.

    The flag-basis reflections are sigma_i = D s_i^T D^-1 with
    D = diag(1, 2, 2(1 + x)).  Where 2 and 1 + x are units,
    g -> D g^-T D^-1 is an isomorphism that carries these rotations to the
    flag-basis ones, so a walk from the identity numbers both groups alike.
    """
    neg = [row.index(0) for row in add]
    two = add[one][one]
    c1 = mul[two][add[one][neg[x]]]
    c2 = mul[add[one][x]][add[one][neg[y]]]
    m1 = neg[one]
    # row i of s_i is (delta_ij - a_ij)_j; its other rows are the identity's
    s0 = (m1, one, 0, 0, one, 0, 0, 0, one)
    s1 = (one, 0, 0, c1, m1, one, 0, 0, one)
    s2 = (one, 0, 0, 0, one, 0, 0, c2, m1)
    product = table_mat_mul(add, mul)
    return [product(s1, s2), product(s0, s2), product(s0, s1)]


def closure_elements(group) -> list:
    """A generated group's matrices in index order, rebuilt from its table.

    Index 0 is the identity.  The rows are read in index order, and each
    index is first met on an edge i -> j; element j is then element i
    times that edge's generator.
    """
    gens = group.generators
    elements = [None] * group.order
    elements[0] = type(gens[0]).identity(gens[0].ring)
    for i, row in enumerate(zip(*group.cayley)):
        for g, j in zip(gens, row):
            if elements[j] is None:
                elements[j] = elements[i] * g
    return elements


def table_mat_mul(add, mul):
    """Row-major 3x3 product of code nine-tuples, by q x q sum and product tables."""
    def product(a, b):
        return tuple(add[add[mul[a[r]][b[c]]][mul[a[r + 1]][b[c + 3]]]][mul[a[r + 2]][b[c + 6]]]
                     for r in (0, 3, 6) for c in (0, 1, 2))
    return product


def cayley_table(gens, ident, mul) -> list[list[int]]:
    """Cayley table of the closure of ``gens``, by a plain matrix BFS.

    Matrices are any hashable values and ``mul`` is their product (for
    instance ``table_mat_mul``'s).  Elements are numbered in discovery
    order from ``ident`` at index 0, and ``table[g][i]`` is the index of
    element i times ``gens[g]``.
    """
    index = {ident: 0}
    elements = [ident]
    table = [[] for _ in gens]
    for a in elements:  # grows while the walk runs
        for g, column in zip(gens, table):
            b = mul(a, g)
            j = index.setdefault(b, len(elements))
            if j == len(elements):
                elements.append(b)
            column.append(j)
    return table


def reference_fingerprint(group) -> tuple:
    """(order, spectrum, abelian, center size) of a generated group.

    Every element's order is found by repeated multiplication, and every
    center test computes both z*g and g*z.
    """
    elements = closure_elements(group)
    counts = Counter(m.order() for m in elements)
    gens = group.generators
    abelian = all(a * b == b * a for i, a in enumerate(gens) for b in gens[i + 1:])
    center = sum(1 for z in elements if all(z * g == g * z for g in gens))
    return group.order, tuple(sorted(counts.items())), abelian, center


def reference_equivalent(pa, pb) -> bool:
    """Whether some bijection conjugates permutation triple pa to pb.

    Tries every image of dart 0, extending each candidate along the action
    until it is complete or inconsistent; O(n^2) in the degree.
    """
    n = len(pa[0])
    if n != len(pb[0]):
        return False
    for image in range(n):
        phi = [-1] * n
        phi[0] = image
        used = [False] * n
        used[image] = True
        stack = [0]
        ok = True
        while stack and ok:
            s = stack.pop()
            for qa, qb in zip(pa, pb):
                ta, tb = qa[s], qb[phi[s]]
                if phi[ta] == -1:
                    if used[tb]:
                        ok = False
                        break
                    phi[ta] = tb
                    used[tb] = True
                    stack.append(ta)
                elif phi[ta] != tb:
                    ok = False
                    break
        if ok and all(v >= 0 for v in phi):
            return True
    return False


def search_sqrt(d):
    """Code of the smallest r with r*r = d in d's ring, by trying every code; or None."""
    ring = d.ring
    for r in range(ring.cardinality):
        if ring._mul(r, r) == d.val:
            return r
    return None


def reference_rhos(params) -> list[tuple[int, ...]]:
    """The codes of (rho_v, rho_e, rho_f), row-major, from ring-element arithmetic.

    Integer entries are coerced by ``ring.elem``, as ``Mat3.from_rows`` does.
    """
    x, y = params.x, params.y
    ring = x.ring
    one = ring.one
    rotations = (
        [[1, one - x, (one - x) * (one - y)],
         [0, -1, y - one],
         [0, one + x, (one + x) * (one - y) - one]],
        [[-1, 0, 0],
         [2, 1, one - y],
         [0, 0, -1]],
        [[-1, x - one, 0],
         [2, one - (x + x), 0],
         [0, one + x, 1]],
    )
    return [tuple(ring.elem(e).val for row in m for e in row) for m in rotations]
