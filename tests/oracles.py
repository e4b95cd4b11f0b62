"""Independent brute-force oracles used to freeze expected test values.

Nothing here imports the package under test.  Two oracles:

* permutation-group enumeration (spectra of S_n, A_n by listing every
  permutation and taking cycle-length lcms);
* a standalone matrix-closure enumerator over Z/nZ using plain integer
  tuples, with the rotation formulas written out independently.

Two reference implementations, kept as the slow, direct algorithms that
the package's faster ones are compared against (they take the package's
objects as arguments but import nothing from it):

* the order spectrum by each element's own ``order()`` and the center by
  two products per test;
* map equivalence by trying every image of dart 0.
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
# reference implementations

def reference_fingerprint(group) -> tuple:
    """(order, spectrum, abelian, center size) of a generated group.

    Every element's order is found by repeated multiplication, and every
    center test computes both z*g and g*z.
    """
    cap = max(group.order, 1)
    counts = Counter(m.order(cap) for m in group.elements)
    gens = [g for _, g in group.generators]
    abelian = all(a * b == b * a for i, a in enumerate(gens) for b in gens[i + 1:])
    center = sum(1 for z in group.elements if all(z * g == g * z for g in gens))
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
