"""Finite closure of matrix generators, order spectra, and group recognition.

Closure is a breadth-first walk from the identity under right
multiplication by the generators, which gives a deterministic element
order (discovery order) for any fixed generator list.  It runs in two
passes.  The first numbers the orbit of the identity rows, multiplying
each breadth-first frontier of rows by each generator in one call, so its
products follow the number of rows (about 3q^2 over a field of q
elements), not the number of Cayley edges (three per element, about q^3
elements).  The second walks the elements as triples of row numbers and
reads each edge from the row images, with no product.  The resulting
group is summarized by an isomorphism-invariant fingerprint: order,
multiset of element orders, abelian flag, and center size.  For the small
groups named in the recognition table the fingerprint identifies the
group; this is a lookup guarantee for table entries only, not a general
isomorphism test.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .errors import CapExceeded, InvariantViolation, MixedRings, NonInvertibleGenerator
from .mat3 import Mat3
from .rings import _prime_factors

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
    No other matrix is kept.  ``traces`` is None, or, when ``generate``
    certified the group inside SO(3, B), the number of elements of each
    trace (ring code -> count), which ``order_spectrum`` reads instead of
    the table.  Instances are immutable after construction.
    """

    def __init__(self, generators: list[Mat3], cayley: list[list[int]],
                 traces: dict[int, int] | None = None):
        self.generators = generators
        self.cayley = cayley
        self.traces = traces

    @property
    def order(self) -> int:
        return len(self.cayley[0])


def generate(gens: Sequence[Mat3], cap: int = CLOSURE_CAP_DEFAULT,
             form: Mat3 | None = None) -> GeneratedGroup:
    """Breadth-first closure of the generators under right multiplication.

    Deterministic: the element numbering depends only on the generator
    list.  Every edge i -> (element i) * gens[g] is recorded in the Cayley
    table, one int per edge, for every group size.

    Row r of a * g is (row r of a) * g, so the closure runs in two passes
    (Holt, Eick & O'Brien, *Handbook of Computational Group Theory*, ch. 4:
    the orbit first, then a walk on it):

    1. Row orbit.  The rows of the elements are the orbit of the three
       identity rows.  Each distinct row vector (three entry codes) is
       numbered when first seen.  The orbit is walked one breadth-first
       frontier at a time: the rows numbered but not yet multiplied go to
       the ring's ``_rows_mul`` in one call per generator, which splits or
       packs the generator's entries once.  R rows cost exactly R row
       products per generator, in one call per generator per frontier
       (near the cap, per chunk of a frontier; see below).
    2. Element walk.  An element is the triple of its rows' numbers, and
       its image under generator g is the triple of their images, so the
       walk makes no product: one dict lookup per edge.

    The elements, their order and the table are those of a walk on whole
    matrices.  Raises CapExceeded if the closure passes ``cap`` elements:
    during the walk, or in the orbit pass once it numbers more than 3 * cap
    rows (every row is a row of an element, so the group is then larger
    than ``cap``).  Either way ``partial_count`` is ``cap``.  The orbit pass
    cuts a frontier into chunks small enough that it numbers at most
    3 * cap + 3 * len(gens) rows before it stops.

    ``form`` is a symmetric matrix B with det B != 0 over a field of odd
    order q, or None.  When it is given and |G| > 2(q + 1), every generator
    must satisfy g^T B g = B and det g = 1, or InvariantViolation is raised;
    the group then lies in SO(3, B), and the walk's element keys are
    counted by trace into ``traces`` for ``order_spectrum``.  Smaller
    groups, and every group without a form, get no trace count.
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
    k, rows_mul = len(gens), ring._rows_mul
    done = 0
    while done < len(rows):
        if len(rows) > 3 * cap:
            raise CapExceeded(partial_count=cap, cap=cap)
        # the frontier is every row not yet multiplied; a chunk of c rows adds
        # at most c per generator, so cutting it keeps at most 3 * cap + 3 * k
        # rows numbered
        frontier = rows[done:done + (3 * cap - len(rows)) // k + 3]
        done += len(frontier)
        for g, image in zip(gens, images):
            for row in rows_mul(frontier, g.vals):
                s = row_index.get(row)
                if s is None:
                    s = row_index[row] = len(rows)
                    rows.append(row)
                image.append(s)
    # entries 0, 1 and 2 of every row: an element's trace sums one of each
    diagonals = None if form is None else tuple(zip(*rows))
    del rows, row_index

    # pass 2: walk the elements in discovery order, one generator's row images at a time
    start = (0, 1, 2)
    index = {start: 0}
    order = [start]
    table: list[int] = []
    for r0, r1, r2 in order:
        for im in images:
            b = (im[r0], im[r1], im[r2])
            j = index.get(b)
            if j is None:
                j = len(order)
                if j >= cap:
                    raise CapExceeded(partial_count=j, cap=cap)
                index[b] = j
                order.append(b)
            table.append(j)
    del order, images
    traces = None
    if diagonals is not None and len(index) > 2 * (ring.cardinality + 1):
        traces = _trace_counts(gens, form, diagonals, index)
    del index  # before the columns copy the table: the walk's peak is here
    return GeneratedGroup(list(gens), [table[g::k] for g in range(k)], traces)


def _trace_counts(gens: Sequence[Mat3], form: Mat3, diagonals: tuple[tuple[int, ...], ...],
                  index: dict[tuple, int]) -> dict[int, int]:
    """Certify each generator in SO(3, form), then count the elements by trace.

    Raises InvariantViolation unless g^T B g = B and det g = 1 for every
    generator g.  ``diagonals[i][r]`` is entry i of row r, so element
    (r0, r1, r2) has the trace d0[r0] + d1[r1] + d2[r2].  Over GF(p^k),
    k >= 2, each entry's base-p digits are first packed into bit fields wide
    enough for a sum of three digits, so one int addition adds three entries
    without a carry between digits.  Each distinct sum is reduced once.
    """
    ring = form.ring
    b, rows_mul, one = form.vals, ring._rows_mul, ring._from_int(1)
    form_rows = [b[0:3], b[3:6], b[6:9]]
    for g in gens:
        v = g.vals
        # the rows of g^T are the columns of g
        if rows_mul(rows_mul((v[0::3], v[1::3], v[2::3]), b), v) != form_rows \
                or g.det().val != one:
            raise InvariantViolation(f"generator {g} is not in SO(3, B) for B = {form}")
    p, k = ring.modulus, getattr(ring, "degree", 1)  # Z/pZ has no degree attribute
    width = (3 * p).bit_length()
    if k > 1:
        # every code's packing, one low digit at a time; q < |G| / 2 here, so
        # the table costs less than the walk
        packed = [0]
        for _ in range(k):
            packed = [x << width | c for x in packed for c in range(p)]
        diagonals = [[packed[u] for u in d] for d in diagonals]
    d0, d1, d2 = diagonals
    sums = Counter(d0[r0] + d1[r1] + d2[r2] for r0, r1, r2 in index)
    mask = (1 << width) - 1
    traces: Counter[int] = Counter()
    for x, count in sums.items():
        code = 0
        for i in reversed(range(k)):
            code = code * p + (x >> width * i & mask) % p
        traces[code] += count
    return dict(traces)


def schreier_tree(cols: Sequence[Sequence[int]], n: int) -> tuple[array, bytearray]:
    """The closure's breadth-first tree, read back from its Cayley table.

    Returns ``parent`` and ``gen`` with ``j = parent[j] * generators[gen[j]]``
    and ``parent[j] < j`` for every j > 0.  ``generate`` numbers the
    elements in discovery order, so a row-by-row sweep of the table meets
    each new index exactly when it is the next unseen one.  Raises
    InvariantViolation when an index is never reached from index 0 or the
    table is not numbered in discovery order.  This is the one check of that
    numbering, and each reader of it runs the sweep: ``order_spectrum``'s
    class path and ``regmap.dart_model``.
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

    Two paths give the same fingerprint.

    The trace path serves groups that ``generate`` certified in SO(3, B) for
    a form B with det B != 0 over a field of odd order q, with
    |G| > 2(q + 1): it reads each element's order from its trace (see
    ``_trace_orders``).  A subgroup of SO(3, q) = PGL(2, q) with a nontrivial
    center is abelian or dihedral, of order at most 2(q + 1) (Dickson,
    *Linear Groups*, ch. XII; Huppert, *Endliche Gruppen I*, II.8.27), so
    the center is 1 and the group is not abelian.  |G| must divide
    q(q^2 - 1), the order of PGL(2, q).  It reads only |G| and the trace
    counts, not the element numbering, so it sweeps nothing.

    The class path serves every other group (composite moduli,
    characteristic 2, degenerate forms, small groups) and is the reference.
    Everything is read from the Cayley table, and no matrix is multiplied
    (Holt, Eick & O'Brien, *Handbook of Computational Group Theory*,
    section 3.1 and chapter 4).  The closure's breadth-first tree, whose
    sweep rejects a table not numbered in discovery order, gives left
    multiplication and conjugation by each generator, and from them
    the conjugacy classes.  The center is the set of one-element classes,
    and the group is abelian when its center is all of it.

    Element order is a class invariant, so one power walk per class gives
    the orders.  The walk right-multiplies by the class representative a,
    following a's tree word through the columns, until index 0 (the
    identity) comes back after n steps.  The power a^k has order
    n / gcd(k, n), so the walk also settles the classes of a's powers.

    A certified group whose order does not divide q(q^2 - 1), a table that
    the tree sweep rejects, or a walk longer than |G| raises
    InvariantViolation.
    """
    n_elems = G.order
    if G.traces is not None:
        ring = G.generators[0].ring
        q = ring.cardinality
        if q * (q * q - 1) % n_elems:
            raise InvariantViolation(
                f"|G| = {n_elems} does not divide |PGL(2, {q})| = {q * (q * q - 1)}")
        return GroupFingerprint(n_elems, _trace_orders(ring, G.traces), False, 1)
    cols = G.cayley
    parent, gen = schreier_tree(cols, n_elems)
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


def _lucas_v(ring, s: int, n: int) -> int:
    """V_n(s), with V_0 = 2, V_1 = s, V_(m+1) = s V_m - V_(m-1), on ring codes.

    V_n(lam + 1/lam) = lam^n + lam^(-n).  The ladder keeps (V_m, V_(m+1)) and
    uses V_2m = V_m^2 - 2 and V_(2m+1) = V_m V_(m+1) - s.
    """
    mul, sub = ring._mul, ring._sub
    two = ring._from_int(2)
    a, b = two, s
    for bit in bin(n)[2:]:
        if bit == "1":
            a, b = sub(mul(a, b), s), sub(mul(b, b), two)
        else:
            a, b = sub(mul(a, a), two), sub(mul(a, b), s)
    return a


def _trace_orders(ring, traces: dict[int, int]) -> tuple[tuple[int, int], ...]:
    """The order spectrum of a group in SO(3, B), from its count of elements per trace.

    Over a field of odd order q = p^k, an element g with trace t has
    eigenvalues 1, lam, 1/lam with lam + 1/lam = s = t - 1.  An orthogonal
    group in odd characteristic has no lone Jordan block of even size at
    +-1 (G. E. Wall, J. Austral. Math. Soc. 3, 1963), so:

    - t = 3: every eigenvalue is 1, and g is the identity or one 3x3
      Jordan block, of order p.
    - s = -2: the eigenvalues are 1, -1, -1, and g has order 2.
    - otherwise g is semisimple of order ord(lam).  lam lies in F_q, of
      order dividing q - 1, exactly when s^2 - 4 is a square, that is when
      V_(q-1)(s) = 2; otherwise lam has norm 1 in F_(q^2) and its order
      divides q + 1.  lam^n = 1 exactly when V_n(s) = 2, and the least such
      n is found by dividing out prime factors.
    """
    p, q = ring.modulus, ring.cardinality
    one, two, three, minus_two = map(ring._from_int, (1, 2, 3, -2))
    counts: Counter[int] = Counter()
    for t, count in traces.items():
        if t == three:
            counts[1] += 1
            if count > 1:
                counts[p] += count - 1
            continue
        s = ring._sub(t, one)
        if s == minus_two:
            counts[2] += count
            continue
        n = q - 1 if _lucas_v(ring, s, q - 1) == two else q + 1
        for f in _prime_factors(n):
            while n % f == 0 and _lucas_v(ring, s, n // f) == two:
                n //= f
        counts[n] += count
    return tuple(sorted(counts.items()))


# ---------------------------------------------------------------------------
# recognition

def _totient(n: int) -> int:
    out = n
    for d in _prime_factors(n):
        out -= out // d
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
