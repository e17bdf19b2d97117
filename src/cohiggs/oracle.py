"""Instance-level co-Higgs fields and an exact semistability oracle.

A co-Higgs field on a split rank-r bundle is an r x r matrix whose (i, j)
entry is a form of degree ``m_i - m_j + 2``, the form without coefficients
when that degree is negative.  A line subbundle of degree d is a section
tuple with entry i of degree ``m_i - d``, saturated when the nonzero entries
share no projective zero, i.e. their gcd is a nonzero constant.

The oracle looks for a destabilizing invariant subbundle on phi, whose
invariant lines are subbundles of rank 1, then for rank 3 on the dual
splitting under the transposed matrix, whose invariant lines annihilate
invariant rank-2 subbundles.  Each side runs the same two checks (see
``_first_witness``) up to the first witness.  First the line its
enumeration meets first, e_0 = (1, 0, ..., 0) at its top degree, which
spans the top summand: it is invariant exactly when every entry below
the diagonal in column 0 vanishes, and then it is the witness.  On phi a
first simple-root value ``m_0 - m_1`` above 2 puts all those entries in
zero spaces: the paper's obstruction at the first simple root, decided
with no search, and by ``splitting_verdict`` with no field at all.
Otherwise the line search runs from the side's second degree, as a line
above it lies in the top summand, down to the destabilizing slope
threshold, but not below that degree minus 2, where no kernel starts: at
most three degrees, however large the gaps, and none when the threshold
is above it, as for rank 2 with a gap of 1 or 2, which then answers at
any prime.

Within that range the oracle searches.  A saturated line is invariant
exactly when ``phi s = form * s`` for a degree-2 form (the spectral
picture of a Higgs field).  Such a line vanishes nowhere, so at every
point the form's value is an eigenvalue of phi there.  Over a prime field
the oracle takes the candidate forms from the eigenvalues (``poly.roots``)
of the numeric matrices phi([1:0]), phi([0:1]) and phi([1:1]), sieves them
at [2:1], [3:1], ... up to 2r + 1 points in all, and for each form left
looks for a nonzero kernel of ``phi - form`` on the section space, degree
by degree.  One Gaussian elimination over GF(p), from the last column to
the first, yields the kernel vector leading at the first free column,
which is the witness the enumeration meets first.  The dual's numeric
matrices are anti-transposes of phi's at every point, so both sides share
one list of eigen-forms, computed when a search first runs, and a field
without one passes at once: it has no invariant subbundle of any rank.
The dual matrix is built only when its search runs.  FAILS carries the
first witness found, a certificate; PASSES only rules out destabilizing
subbundles rational over the chosen field, so confidence comes from
passing at several primes.

``enumerate_line_subbundles`` and ``is_invariant`` remain here, not
exported, as the slow reference the tests import.  All randomness is
driven by seeds through ``random.Random``, so every run is reproducible
bit for bit.
"""

import math
import random
from collections.abc import Iterator, Sequence
from itertools import product

from .criterion import admits_stable_cohiggs
from .frozen import Frozen, set_slot
from .glr import SplittingType, splitting_to_hn
from .poly import HomogPoly, PrimeField, gcd_many, horner, random_nonzero_poly, random_poly, roots

ORACLE_MAX_RANK = 3
MAX_FIELD_COEFFS = 2_500_000  # per random field; 0,0,-1000000 has 2,000,021


def require_oracle_rank(st: SplittingType) -> None:
    """Raise ValueError unless the oracle supports the rank of the splitting."""
    if st.rank > ORACLE_MAX_RANK:
        raise ValueError(f"oracle supports rank <= {ORACLE_MAX_RANK}, got {st.rank}")


def _check_form(p: HomogPoly, field: PrimeField, want: int, what: str) -> HomogPoly:
    """The form a slot of degree ``want`` over ``field`` stores for ``p``.

    A slot of nonnegative degree takes only forms of that degree.  A slot of
    negative degree is a zero space: it takes any form without coefficients,
    such as ``HomogPoly.zero(field)``, and stores the zero of degree ``want``.
    """
    if p.field is not field and p.field != field:
        raise ValueError(f"{what} is over {p.field}, expected {field}")
    if p.degree == want:
        return p
    if want >= 0:
        raise ValueError(f"{what} has degree {p.degree}, expected {want}")
    if p.coeffs:
        raise ValueError(f"{what} must vanish: its space has degree {want}")
    return HomogPoly.zero(field, want)


class CoHiggsMatrix(Frozen):
    """A co-Higgs field as a matrix of forms with the entrywise degrees."""

    __slots__ = ("splitting", "field", "entries")

    def __init__(
        self,
        splitting: SplittingType,
        field: PrimeField,
        entries: tuple[tuple[HomogPoly, ...], ...],
    ) -> None:
        m = splitting.degrees
        r = len(m)
        if len(entries) != r or any(len(row) != r for row in entries):
            raise ValueError(f"expected {r} rows of {r} entries")
        rows = []
        for i, (mi, row) in enumerate(zip(m, entries)):
            checked = []
            for j, (mj, p) in enumerate(zip(m, row)):
                # entry (i, j) has degree m_i - m_j + 2; a form of that degree
                # over this very field object is what _check_form returns
                d = mi - mj + 2
                if p.degree != d or p.field is not field:
                    p = _check_form(p, field, d, f"entry ({i}, {j})")
                checked.append(p)
            rows.append(tuple(checked))
        set_slot(self, "splitting", splitting)
        set_slot(self, "field", field)
        set_slot(self, "entries", tuple(rows))

    @property
    def rank(self) -> int:
        return self.splitting.rank

    def transpose_dual(self) -> "CoHiggsMatrix":
        """The induced field on the dual splitting (entries transposed and
        both indices reversed, matching the dual's decreasing order)."""
        r = self.rank
        dual = self.splitting.dual()
        entries = tuple(
            tuple(self.entries[r - 1 - l][r - 1 - k] for l in range(r))
            for k in range(r)
        )
        return CoHiggsMatrix(dual, self.field, entries)

    def to_json_dict(self) -> dict:
        return {
            "splitting": list(self.splitting.degrees),
            "field": self.field.name,
            # an entry in a zero space has no coefficients
            "entries": [[list(p.coeffs) for p in row] for row in self.entries],
        }


def _grid(st: SplittingType, field: PrimeField, entry) -> CoHiggsMatrix:
    """The field whose (i, j) entry is ``entry(i, j, degree)``, filled row
    by row, so a seeded stream is drawn in row-major order."""
    m = st.degrees
    return CoHiggsMatrix(st, field, tuple(
        tuple(entry(i, j, mi - mj + 2) for j, mj in enumerate(m)) for i, mi in enumerate(m)))


def _rng(kind: str, st: SplittingType, field: PrimeField, seed: int) -> random.Random:
    return random.Random(f"{kind}:{st}:{field.name}:{seed}")


def build_model_field(st: SplittingType, field: PrimeField, seed: int = 0) -> CoHiggsMatrix:
    """The chained subdiagonal field: one nonzero form per simple gap.

    Entry (i+1, i) is a nonzero form of degree ``m_(i+1) - m_i + 2``; all
    other entries vanish.  Requires every gap to be at most 2, otherwise
    some subdiagonal space is zero and the construction is impossible.
    Deterministic per (splitting, field, seed).
    """
    if not admits_stable_cohiggs(*splitting_to_hn(st)):
        raise ValueError(
            f"splitting {st} has a gap above 2; a subdiagonal space is zero"
        )
    rng = _rng("model", st, field, seed)
    return _grid(st, field, lambda i, j, d: (
        random_nonzero_poly(field, d, rng) if i == j + 1 else HomogPoly.zero(field, d)))


def random_field(st: SplittingType, field: PrimeField, seed: int = 0) -> CoHiggsMatrix:
    """A field with every admissible entry drawn uniformly at random.

    Entries whose space has negative degree stay zero regardless of the
    seed.  Deterministic per (splitting, field, seed).  A field of more
    than ``MAX_FIELD_COEFFS`` coefficients is refused before any is drawn.
    """
    count = sum(max(0, mi - mj + 3) for mi in st.degrees for mj in st.degrees)
    if count > MAX_FIELD_COEFFS:
        raise ValueError(f"a random field on {st} has {count} coefficients, above the bound "
                         f"{MAX_FIELD_COEFFS}")
    rng = _rng("random", st, field, seed)
    return _grid(st, field, lambda i, j, d: random_poly(field, d, rng))


class LineSubbundle(Frozen):
    """A degree-d line subbundle of the split bundle, as a section tuple.

    Entry i is a form of degree ``m_i - d``, stored without coefficients
    when that is negative (see ``_check_form`` for what each slot takes).
    The tuple must not vanish identically; it defines an actual
    subbundle, rather than a subsheaf with smaller saturation, exactly when
    the nonzero entries have constant gcd.

    Not exported: it stays in ``src`` only for the enumerate-and-test
    reference, until ROADMAP item 9 moves them out.
    """

    __slots__ = ("splitting", "field", "degree", "sections")

    def __init__(
        self,
        splitting: SplittingType,
        field: PrimeField,
        degree: int,
        sections: Sequence[HomogPoly],
    ) -> None:
        sections = tuple(sections)
        if len(sections) != splitting.rank:
            raise ValueError("one section per summand required")
        sections = tuple(
            _check_form(p, field, m - degree, f"section {i}")
            for i, (m, p) in enumerate(zip(splitting.degrees, sections))
        )
        if all(p.is_zero for p in sections):
            raise ValueError("the zero tuple defines no subbundle")
        set_slot(self, "splitting", splitting)
        set_slot(self, "field", field)
        set_slot(self, "degree", degree)
        set_slot(self, "sections", sections)

    @property
    def is_saturated(self) -> bool:
        g = gcd_many(self.sections)
        return g is not None and g.is_constant()


def apply_field(phi: CoHiggsMatrix, line: LineSubbundle) -> tuple[HomogPoly, ...]:
    """Evaluate the field on a section tuple; entry i has degree m_i - d + 2.

    Not exported: it stays in ``src`` only for the benchmark's span tracer,
    until ROADMAP item 9 moves it out.
    """
    if phi.splitting != line.splitting:
        raise ValueError("field and subbundle live on different splittings")
    r = phi.rank
    out = []
    for i in range(r):
        expected = phi.splitting.degrees[i] - line.degree + 2
        acc = HomogPoly.zero(phi.field, expected)
        for e, p in zip(phi.entries[i], line.sections):
            acc = acc + e * p
        assert acc.degree == expected, (
            f"BUG: output entry {i} has degree {acc.degree}, expected {expected}"
        )
        out.append(acc)
    return tuple(out)


def is_invariant(phi: CoHiggsMatrix, line: LineSubbundle) -> bool:
    """Whether the field maps the line into itself (twisted by degree 2).

    Exact test: the image tuple is proportional to the section tuple iff all
    two-by-two wedges vanish identically: ``p_i (phi p)_j == p_j (phi p)_i``.

    Not exported: it stays in ``src`` only for the benchmark's span tracer,
    until ROADMAP item 9 moves it out.
    """
    image = apply_field(phi, line)
    s = line.sections
    r = phi.rank
    return all(
        s[i] * image[j] == s[j] * image[i]
        for i in range(r)
        for j in range(i + 1, r)
    )


def _blocks(st: SplittingType, degree: int) -> tuple[list[tuple[int, int]], int]:
    """Coefficient layout of H^0(E(-degree)): the start slot and the form
    degree of each summand (no slots when that degree is negative), plus
    the total slot count."""
    blocks, n = [], 0
    for m in st.degrees:
        blocks.append((n, m - degree))
        n += max(m - degree + 1, 0)
    return blocks, n


def _sections(
    field: PrimeField, blocks: list[tuple[int, int]], vector: Sequence[int]
) -> tuple[HomogPoly, ...]:
    """The section tuple whose coefficients fill ``vector`` in the layout
    ``blocks`` of ``_blocks``; a summand without slots follows every one with
    slots (the degrees decrease), so its slice starts at the end, empty."""
    return tuple(HomogPoly(field, e, vector[c0 : c0 + e + 1]) for c0, e in blocks)


def enumerate_line_subbundles(
    st: SplittingType, degree: int, field: PrimeField
) -> Iterator[LineSubbundle]:
    """Every saturated line subbundle of one degree, up to scalar.

    Representatives are the coefficient vectors in the ``_blocks`` layout
    (summands in order, coefficients within each section in order) whose
    first nonzero slot is 1, by pivot slot and then lexicographically; the
    stream is empty when the degree exceeds the largest summand degree.

    Not exported: it stays in ``src`` only for the benchmark's span tracer,
    until ROADMAP item 9 moves it out.
    """
    blocks, n = _blocks(st, degree)
    for pivot in range(n):
        for tail in product(range(field.p), repeat=n - pivot - 1):
            sections = _sections(field, blocks, (0,) * pivot + (1,) + tail)
            line = LineSubbundle(st, field, degree, sections)
            if line.is_saturated:
                yield line


class OracleWitness(Frozen):
    """A destabilizing invariant subbundle found by the oracle, with the
    section strings of one line.

    For ``rank == 1`` they are the destabilizing line's.  For ``rank == 2``
    the subbundle was detected on the dual splitting, and they are the
    sections of its invariant annihilator line there, written as
    ``dual_sections`` in JSON.
    """

    __slots__ = ("rank", "degree", "sections")

    def to_json_dict(self) -> dict:
        key = "sections" if self.rank == 1 else "dual_sections"
        return {"rank": self.rank, "degree": self.degree, key: list(self.sections)}


class OracleVerdict(Frozen):
    """One oracle call's mode, field and slope text, and its witness or None."""

    __slots__ = ("mode", "field_name", "slope", "witness")

    @property
    def passes(self) -> bool:
        return self.witness is None

    @property
    def verdict(self) -> str:
        return "PASSES" if self.passes else "FAILS"

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "mode": self.mode,
            "field": self.field_name,
            "slope": self.slope,
            "witnesses": [] if self.passes else [self.witness.to_json_dict()],
        }


def _violation_threshold(mode: str, degree: int, rank: int) -> int:
    # the least line degree that violates at slope mu = degree / rank, in
    # integers: stable, an invariant subbundle of slope >= mu violates (the
    # ceiling of mu); semistable, only slope > mu does (its floor plus 1)
    if mode == "stable":
        return -(-degree // rank)
    if mode == "semistable":
        return degree // rank + 1
    raise ValueError(f"mode must be 'stable' or 'semistable', not {mode!r}")


def _slope_text(degree: int, rank: int) -> str:
    # reduced, as str(Fraction(degree, rank)) prints it: "1/2", "-1" or "0"
    g = math.gcd(degree, rank)
    return str(degree // g) if g == rank else f"{degree // g}/{rank // g}"


def _charpoly(m: list[list[int]]) -> tuple[int, ...]:
    """The characteristic polynomial det(t - m) of a 2 x 2 or 3 x 3 integer
    matrix, as its coefficients from the leading 1 down."""
    if len(m) == 2:
        (a, b), (c, d) = m
        return 1, -(a + d), a * d - b * c
    (a, b, c), (d, e, f), (g, h, i) = m
    return (
        1,
        -(a + e + i),
        a * e - b * d + a * i - c * g + e * i - f * h,
        -(a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)),
    )


def _sieve(forms: list[tuple[int, int, int]], coeffs: list[list[tuple[int, ...]]], p: int) -> None:
    """Drop from ``forms``, in place and keeping the order, every form whose
    value at a point [t:1], t = 2, 3, ..., is no eigenvalue of phi there.

    ``coeffs`` holds the coefficients of phi's entries.  The points stop when no form is left,
    at t = p - 1, or after 2r - 2 of them: 2r + 1 with the three points of
    ``_eigen_forms``.
    """
    for t in range(2, min(p, 2 * len(coeffs))):
        if not forms:
            break
        charpoly = _charpoly([[horner(c, t, p) for c in row] for row in coeffs])
        forms[:] = [f for f in forms if not horner(charpoly, horner(f, t, p), p)]


def _eigen_forms(phi: CoHiggsMatrix) -> list[tuple[int, int, int]]:
    """Every degree-2 form ``a x^2 + b xy + c y^2`` that can act on an
    invariant line subbundle, as its coefficient triple.

    A saturated invariant line never vanishes, so at every point of P^1
    over GF(p) the form's value is an eigenvalue of the numeric matrix of
    phi there.  The values at [1:0], [0:1] and [1:1] fix the candidates;
    ``_sieve`` then drops those that fail at further points.  A dropped
    form has no nonzero kernel at any degree: a kernel vector divided by
    the gcd of its entries would be an invariant line with that form, and
    then the form's value would be an eigenvalue at every point.
    """
    p = phi.field.p
    # an entry in a zero space has no coefficients and evaluates to 0
    coeffs = [[e.coeffs or (0,) for e in row] for row in phi.entries]
    at_x = roots(_charpoly([[c[0] for c in row] for row in coeffs]), p)
    at_y = at_x and roots(_charpoly([[c[-1] for c in row] for row in coeffs]), p)
    at_one = at_y and roots(_charpoly([[sum(c) for c in row] for row in coeffs]), p)
    forms = [(a, (v - a - c) % p, c) for a in at_x for c in at_y for v in at_one]
    _sieve(forms, coeffs, p)
    return forms


def _kernel_head(rows: list[list[int]], p: int) -> tuple[int, list[int]] | None:
    """The first row of the reduced echelon form of the kernel over GF(p) of
    an integer matrix, with its leading slot; None when the kernel is zero.

    Columns are eliminated in place from the last to the first.  Afterwards
    each pivot row is nonzero only at its pivot and at free columns to its
    left, so no kernel vector leads before the first free column f, and
    ``e_f - sum(row_c[f] e_c)`` over the pivot rows has leading entry 1 and
    0 at every other free column.
    """
    pivots: list[tuple[int, int]] = []
    first_free = None
    for col in reversed(range(len(rows[0]))):
        r = len(pivots)
        for pr in range(r, len(rows)):
            if rows[pr][col] % p:
                break
        else:
            first_free = col
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = pow(rows[r][col], p - 2, p)
        pivot_row = rows[r] = [c * inv % p for c in rows[r]]
        for i, row in enumerate(rows):
            f = row[col] % p
            if f and i != r:
                rows[i] = [(x - f * y) % p for x, y in zip(row, pivot_row)]
        pivots.append((col, r))
    if first_free is None:
        return None
    vector = [0] * len(rows[0])
    vector[first_free] = 1
    for col, r in pivots:
        vector[col] = -rows[r][first_free] % p
    return first_free, vector


def _top_invariant_line(
    phi: CoHiggsMatrix, forms: list[tuple[int, int, int]], threshold: int
) -> tuple[int, tuple[str, ...]] | None:
    """The invariant line subbundle ``enumerate_line_subbundles`` and
    ``is_invariant`` would find first, from the second degree m_1 down to
    the threshold, as its degree and section strings; None when there is
    none.  The caller has found the top summand O(m_0) not invariant: a
    kernel vector of degree above m_1 has entries only in O(m_0), and
    (phi - form) maps it to zero only if phi_i0 vanishes for every i > 0.
    So no degree in (m_1, m_0] has a kernel, and none is eliminated.

    A saturated line is invariant iff its section tuple lies in the kernel
    of ``phi - form`` for one of the eigen-forms ``forms``.  At the highest
    degree with a kernel every kernel vector is saturated, since a common
    factor would leave an invariant line of higher degree.  The enumerator's first
    hit there is the first row of the kernel's reduced echelon form (leading
    entry 1, every later free slot 0), which ``_kernel_head`` reads off one
    right-to-left elimination; the smallest leading slot, then the smallest
    vector, wins across forms.
    """
    st, p = phi.splitting, phi.field.p
    for d in range(st.degrees[1], threshold - 1, -1):
        # s -> (phi - form) s from H^0(E(-d)) to H^0(E(-d + 2)); columns
        # follow the enumerator's slot order: summand, then coefficient
        cols, ncols = _blocks(st, d)
        rows, nrows = _blocks(st, d - 2)
        live = [(j, c0, e) for j, (c0, e) in enumerate(cols) if e >= 0]
        base = [[0] * ncols for _ in range(nrows)]
        for j, c0, e in live:
            for i, (r0, _) in enumerate(rows):
                for a, c in enumerate(phi.entries[i][j].coeffs):
                    for k in range(e + 1):
                        base[r0 + a + k][c0 + k] += c
        heads = []
        for form in forms:
            matrix = [row[:] for row in base]
            for j, c0, e in live:
                r0 = rows[j][0]
                for a, c in enumerate(form):
                    for k in range(e + 1):
                        matrix[r0 + a + k][c0 + k] -= c
            head = _kernel_head(matrix, p)
            if head is not None:
                heads.append(head)
        if heads:
            _, vector = min(heads)
            return d, tuple(map(str, _sections(phi.field, cols, vector)))
    return None


def _top_summand_witness(k: int, degree: int, rank: int) -> OracleWitness:
    # a side's top summand, spanned by e_0 at its top degree: the first line
    # of its enumeration, and the least kernel head (0, e_0) of its search
    return OracleWitness(k, degree, ("1",) + ("0",) * (rank - 1))


def _first_witness(phi: CoHiggsMatrix, mode: str) -> OracleWitness | None:
    """The witness of the first of ``semistability_oracle``'s checks that finds one.

    The checks of the module docstring run on phi, then for rank 3 on the
    dual: the degrees (-m_2, -m_1, -m_0) under the transposed matrix, with
    phi_21 and phi_20 below its top summand and its threshold at -deg E,
    where a line of degree e is a rank-2 witness of degree deg E + e.  On
    a side with degrees n_0 >= n_1 >= ..., a kept top summand reaches the
    threshold, as n_0 is at least the side's slope, strictly unless the
    splitting is balanced, which returns at once in semistable mode.

    No kernel of psi - form starts below n_1 - 2, on either side.  Rank 2
    has at most the one degree n_1 to visit, so take r = 3.  The search
    runs once the top summand is found not invariant, and its degrees lie
    above n_2, except for the balanced splitting, where it visits only n_1.
    Above n_2 a kernel section vanishes in O(n_2), so the kernel lies in E'
    = O(n_0) + O(n_1), inside ker(psi_20, psi_21).  It is not all of E', or
    psi_10 = psi_20 = 0 would keep the top summand, so it is 0 or one line
    L.  If the block A = psi' - form on E' has rank 1, L is ker A, which
    holds its nonzero adjugate column (-A_01, A_00) or (A_11, -A_10), a
    section of degree n_1 - 2 or n_0 - 2.  If A = 0, L is ker(psi_20,
    psi_21), which holds (psi_21, -psi_20), of degree n_0 + n_1 - n_2 - 2.
    Either way deg L >= n_1 - 2.  Kernels only grow as the degree falls
    (multiply by x), so a form with no kernel on [n_1 - 2, n_1] has none
    lower.  On the dual the stop never binds: its search runs only when
    phi_20 or phi_21 is nonzero, so m_1 - m_2 <= 2, and m_0 - m_1 <= 2
    since phi's top summand is not invariant; its range [threshold, -m_1]
    then holds at most the one degree -m_1, as -m_1 + deg E / 3 = (m_0 -
    2 m_1 + m_2) / 3 < 1.  For rank 4 and above the stop must be derived
    anew.
    """
    st, e = phi.splitting, phi.entries
    m, degree, rank = st.degrees, st.degree, st.rank
    threshold = _violation_threshold(mode, degree, rank)
    # a line bundle has no proper subbundles, and a constant splitting in
    # semistable mode no degree to visit, on phi or on its dual
    if rank == 1 or m[0] < threshold:
        return None
    # per side: witness rank, shift from line to witness degrees, top and
    # second degrees, threshold, the first and last entries below the top
    sides = ((1, 0, m[0], m[1], threshold, e[1][0], e[-1][0]),)
    if rank == 3:
        dual_threshold = _violation_threshold(mode, -degree, rank)
        sides += ((2, degree, -m[2], -m[1], dual_threshold, e[2][1], e[2][0]),)
    forms = None
    for k, shift, top, second, threshold, first, last in sides:
        if first.is_zero and last.is_zero:  # the side keeps its top summand
            return _top_summand_witness(k, shift + top, rank)
        if threshold <= second:
            if forms is None:
                forms = _eigen_forms(phi)
            if not forms:  # no invariant subbundle of any rank
                return None
            psi = phi if k == 1 else phi.transpose_dual()
            if hit := _top_invariant_line(psi, forms, max(threshold, second - 2)):
                return OracleWitness(k, shift + hit[0], hit[1])
    return None


def splitting_verdict(st: SplittingType, field: PrimeField, mode: str) -> OracleVerdict | None:
    """``semistability_oracle``'s verdict on every field over ``field`` on
    ``st`` when the splitting alone decides it, else None: a first gap
    ``m_0 - m_1`` above 2 leaves every entry below the top summand in a
    zero space, and ``m_0``, above the slope, reaches the threshold of
    either mode, so every field FAILS with that summand."""
    require_oracle_rank(st)
    _violation_threshold(mode, st.degree, st.rank)  # a bad mode raises, as in the oracle
    if st.rank == 1 or st.degrees[0] - st.degrees[1] <= 2:
        return None
    slope = _slope_text(st.degree, st.rank)
    return OracleVerdict(mode, field.name, slope, _top_summand_witness(1, st.degrees[0], st.rank))


def semistability_oracle(phi: CoHiggsMatrix, mode: str) -> OracleVerdict:
    """Search for a destabilizing invariant subbundle over the prime field.

    The checks of the module docstring run in order (the top summand and
    the line search, on phi, then on the rank-3 dual) up to the first
    witness, which is the one the enumerator would return: top degree
    first, first nonzero coefficient 1, smallest tuple.  A field with none
    PASSES, which only certifies the absence of destabilizing subbundles
    rational over this field.
    """
    st = phi.splitting
    require_oracle_rank(st)
    slope = _slope_text(st.degree, st.rank)
    return OracleVerdict(mode, phi.field.name, slope, _first_witness(phi, mode))
