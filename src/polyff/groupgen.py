"""Finite closure of matrix generators, order spectra, and group recognition.

Closure is a breadth-first walk from the identity under right
multiplication by the generators, which gives a deterministic element
order (discovery order) for any fixed generator list.  It runs in two
passes.  The first numbers the orbit of the identity rows, multiplying
three stacked rows by each generator at a time, so its products follow
the number of rows (about 3q^2 over a field of q elements), not the
number of Cayley edges (three per element, about q^3 elements).  The
second walks the elements as triples of row numbers and reads each edge
from the row images, with no product.  The resulting group is summarized
by an isomorphism-invariant fingerprint: order, multiset of element
orders, abelian flag, and center size.  For the small groups named in
the recognition table the fingerprint identifies the group; this is a
lookup guarantee for table entries only, not a general isomorphism test.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter, deque
from dataclasses import dataclass
from typing import Sequence

from .errors import CapExceeded, InvariantViolation, MixedRings, NonInvertibleGenerator
from .mat3 import Mat3

CLOSURE_CAP_DEFAULT = 10**6


@dataclass(frozen=True)
class GroupFingerprint:
    """Isomorphism-invariant summary of a finite group."""

    order: int
    spectrum: tuple[tuple[int, int], ...]  # sorted (element order, count)
    abelian: bool
    center_size: int

    def serialize(self) -> str:
        spec = ",".join(f"{d}:{c}" for d, c in self.spectrum)
        ab = "true" if self.abelian else "false"
        return f"order={self.order};spectrum={spec};abelian={ab};center={self.center_size}"


class GeneratedGroup:
    """The closure of a generator list: its generators and Cayley table.

    The elements are numbered in discovery order, with index 0 the
    identity.  ``generators`` lists the generator matrices in column
    order, and ``cayley`` holds one column of element indices per
    generator: ``cayley[g][i]`` is the index of element i times
    ``generators[g]``.  The map pipeline passes the rotations (rho_v,
    rho_e, rho_f) in this order, so ``cayley[0..2]`` are their columns.
    No other matrix is kept.  Instances are immutable after construction.
    """

    def __init__(self, generators: list[Mat3], cayley: list[list[int]]):
        self.generators = generators
        self.cayley = cayley

    @property
    def order(self) -> int:
        return len(self.cayley[0])


def generate(gens: Sequence[Mat3], cap: int = CLOSURE_CAP_DEFAULT) -> GeneratedGroup:
    """Breadth-first closure of the generators under right multiplication.

    Deterministic: the element numbering depends only on the generator
    list.  Every edge i -> (element i) * gens[g] is recorded in the Cayley
    table, one int per edge, for every group size.

    Row r of a * g is (row r of a) * g, so the closure runs in two passes
    (Holt, Eick & O'Brien, *Handbook of Computational Group Theory*, ch. 4:
    the orbit first, then a walk on it):

    1. Row orbit.  The rows of the elements are the orbit of the three
       identity rows.  Each distinct row vector (three entry codes) is
       numbered when first seen; the next three rows whose images are
       unknown are stacked into one matrix and multiplied by each
       generator.  R rows cost ceil(R / 3) products per generator, plus
       one for each batch of fewer than three rows after which new rows
       still turn up.
    2. Element walk.  An element is the triple of its rows' numbers, and
       its image under generator g is the triple of their images, so the
       walk makes no product: one dict lookup per edge.

    The elements, their order and the table are those of a walk on whole
    matrices.  Raises CapExceeded if the closure passes ``cap`` elements:
    during the walk, or in the orbit pass once it numbers more than 3 * cap
    rows (every row is a row of an element, so the group is then larger
    than ``cap``).  Either way ``partial_count`` is ``cap``.
    """
    if not gens:
        raise ValueError("need at least one generator")
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise MixedRings("generators live in different rings")
        if not g.det().is_unit:
            raise NonInvertibleGenerator(f"generator determinant {g.det()} is not a unit")

    # pass 1: number the row orbit; images[g][r] is the number of rows[r] * gens[g]
    ident = Mat3.identity(ring).vals
    rows = [ident[0:3], ident[3:6], ident[6:9]]
    row_index = {row: r for r, row in enumerate(rows)}
    images: list[list[int]] = [[] for _ in gens]
    done = 0
    while done < len(rows):
        if len(rows) > 3 * cap:
            raise CapExceeded(partial_count=cap, cap=cap)
        batch = rows[done:done + 3]
        done += len(batch)
        # a short batch is padded with identity rows, whose images are dropped
        stacked = Mat3._raw(ring, sum(batch, ()) + ident[3 * len(batch):])
        for g, image in zip(gens, images):
            vals = (stacked * g).vals
            for i in range(0, 3 * len(batch), 3):
                row = vals[i:i + 3]
                s = row_index.get(row)
                if s is None:
                    s = row_index[row] = len(rows)
                    rows.append(row)
                image.append(s)

    # pass 2: walk the elements; row_images[r] holds row r's image numbers in generator order
    row_images = list(zip(*images))
    del rows, row_index, images
    start = (0, 1, 2)
    index = {start: 0}
    table: list[int] = []
    frontier = deque([start])
    while frontier:
        r0, r1, r2 = frontier.popleft()
        for b in zip(row_images[r0], row_images[r1], row_images[r2]):
            j = index.get(b)
            if j is None:
                j = len(index)
                if j >= cap:
                    raise CapExceeded(partial_count=j, cap=cap)
                index[b] = j
                frontier.append(b)
            table.append(j)
    del index  # before the columns copy the table: the walk's peak is here
    k = len(gens)
    return GeneratedGroup(list(gens), [table[g::k] for g in range(k)])


def _schreier_tree(cols: list[list[int]], n: int) -> tuple[array, bytearray]:
    """The closure's breadth-first tree, read back from its Cayley table.

    Returns ``parent`` and ``gen`` with ``j = parent[j] * generators[gen[j]]``
    and ``parent[j] < j`` for every j > 0.  ``generate`` numbers the
    elements in discovery order, so a row-by-row sweep of the table meets
    each new index exactly when it is the next unseen one.  Raises
    InvariantViolation when an index is never reached from index 0 or the
    table is not numbered in discovery order.
    """
    parent = array("l", [0]) * n
    gen = bytearray(n)
    reached = 1
    for i, row in enumerate(zip(*cols)):
        if reached == n:
            return parent, gen
        if i == reached:
            raise InvariantViolation(f"index {i} of {n} is not reached from index 0")
        for k, j in enumerate(row):
            if j >= reached:
                if j != reached or j == n:
                    raise InvariantViolation(
                        f"Cayley entry {j} at row {i} is not in discovery order")
                parent[j] = i
                gen[j] = k
                reached += 1
    if reached < n:
        raise InvariantViolation(f"index {reached} of {n} is not reached from index 0")
    return parent, gen


def _conjugacy_classes(cols: list[list[int]], parent: array,
                       gen: bytearray) -> tuple[list[int], list[int], list[int]]:
    """Each element's class number, and each class's first element and size.

    Conjugation by a generator g sends x * g to g * x, so ``conj[col[x]]``
    is g * x and needs no inverse.  It is filled in index order along the
    tree: g * j = (g * parent[j]) * generators[gen[j]], and g * parent[j]
    is already stored, at ``conj[col[parent[j]]]``, because parent[j] < j.
    The classes are the orbits of these maps, because the generators generate
    the group.  The lists hold the table's own int objects, so they cost no
    more than arrays.
    """
    n = len(parent)
    conjs = []
    for col in cols:
        conj = [0] * n
        conj[col[0]] = col[0]
        for j in range(1, n):
            conj[col[j]] = cols[gen[j]][conj[col[parent[j]]]]
        conjs.append(conj)

    class_of = [-1] * n
    reps: list[int] = []
    sizes: list[int] = []
    for r in range(n):
        if class_of[r] >= 0:
            continue
        c = len(reps)
        class_of[r] = c
        reps.append(r)
        members = [r]
        for y in members:
            for conj in conjs:
                z = conj[y]
                if class_of[z] < 0:
                    class_of[z] = c
                    members.append(z)
        sizes.append(len(members))
    return class_of, reps, sizes


def order_spectrum(G: GeneratedGroup) -> GroupFingerprint:
    """Element-order multiset plus abelian flag and center size.

    Everything is read from the Cayley table, and no matrix is multiplied
    (Holt, Eick & O'Brien, *Handbook of Computational Group Theory*,
    section 3.1 and chapter 4).  The closure's breadth-first tree gives
    left multiplication and conjugation by each generator, and from them
    the conjugacy classes.  The center is the set of one-element classes,
    and the group is abelian when its center is all of it.

    Element order is a class invariant, so one power walk per class gives
    the orders.  The walk right-multiplies by the class representative a,
    following a's tree word through the columns, until index 0 (the
    identity) comes back after n steps.  The power a^k has order
    n / gcd(k, n), so the walk also settles the classes of a's powers.

    A table that the tree sweep rejects, or a walk longer than |G|, raises
    InvariantViolation.
    """
    n_elems = G.order
    cols = G.cayley
    parent, gen = _schreier_tree(cols, n_elems)
    class_of, reps, sizes = _conjugacy_classes(cols, parent, gen)

    class_order = [0] * len(reps)
    for c, a in enumerate(reps):
        if class_order[c]:
            continue
        word = []
        j = a
        while j:
            word.append(cols[gen[j]])
            j = parent[j]
        word.reverse()
        walk = [a]
        j = a
        while j:
            if len(walk) >= n_elems:
                raise InvariantViolation(
                    f"powers of element {a} do not reach index 0 within |G| = {n_elems} steps")
            for col in word:
                j = col[j]
            walk.append(j)
        n = len(walk)
        for k, j in enumerate(walk, 1):
            if not class_order[class_of[j]]:
                class_order[class_of[j]] = n // math.gcd(k, n)

    counts: Counter[int] = Counter()
    for order, size in zip(class_order, sizes):
        counts[order] += size
    center = sizes.count(1)
    return GroupFingerprint(n_elems, tuple(sorted(counts.items())), center == n_elems, center)


# ---------------------------------------------------------------------------
# recognition

def _totient(n: int) -> int:
    out = n
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            out -= out // d
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out -= out // m
    return out


def _divisors(n: int) -> list[int]:
    out = [d for d in range(1, int(math.isqrt(n)) + 1) if n % d == 0]
    out += [n // d for d in reversed(out) if d * d != n]
    return out


def cyclic_spectrum(n: int) -> tuple[tuple[int, int], ...]:
    """Order spectrum of the cyclic group C_n."""
    return tuple((d, _totient(d)) for d in _divisors(n))


def dihedral_spectrum(n: int) -> tuple[tuple[int, int], ...]:
    """Order spectrum of the dihedral group D_n of order 2n (n >= 2)."""
    counts = Counter({d: _totient(d) for d in _divisors(n)})
    counts[2] += n  # the n reflections
    return tuple(sorted(counts.items()))


# spectra verified against brute-force permutation enumeration (see tests)
RECOGNITION_TABLE: dict[str, tuple[int, tuple[tuple[int, int], ...], bool]] = {
    "S3": (6, ((1, 1), (2, 3), (3, 2)), False),
    "A4": (12, ((1, 1), (2, 3), (3, 8)), False),
    "S4": (24, ((1, 1), (2, 9), (3, 8), (4, 6)), False),
    "A5": (60, ((1, 1), (2, 15), (3, 20), (5, 24)), False),
}


def recognize(fp: GroupFingerprint) -> str:
    """Name the group by exact fingerprint match, or "unrecognized".

    Checks the named table (S3, A4, S4, A5), then cyclic groups (abelian
    with an element of full order), then dihedral groups by spectrum.
    """
    for name, (order, spectrum, abelian) in RECOGNITION_TABLE.items():
        if fp.order == order and fp.spectrum == spectrum and fp.abelian == abelian:
            return name
    if fp.abelian and any(d == fp.order for d, _ in fp.spectrum):
        if fp.spectrum == cyclic_spectrum(fp.order):
            return f"C{fp.order}"
    if fp.order % 2 == 0 and fp.order >= 4:
        n = fp.order // 2
        if fp.spectrum == dihedral_spectrum(n) and fp.abelian == (n <= 2):
            return f"D{n}"
    return "unrecognized"
