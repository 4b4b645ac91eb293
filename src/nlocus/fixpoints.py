"""Torus-fixed points of the blown-up parameter space of elliptic quartics.

The parameter space starts as the Grassmannian of pencils of quadrics in P^3
and is blown up twice: first along the locus Z of pencils with a fixed plane,
then along the locus of degenerate cubic systems given by a plane and a
doublet.  Three strata of fixed points contribute to localization sums:

  G2    pencils of coprime quadric monomials                (21 points)
  G2E1  exceptional points over Z with curvilinear limit   (180 points)
  E2    exceptional points over the plane/doublet locus    (324 points)

Each fixed point carries 16 tangent characters, a 19-dimensional system of
quartic monomials cutting out the limit curve, and the characters of the
limiting pencil (the Pluecker weight data needed for the degree-4 count).

Every monomial on this path, from the pencils to the cache file, is an
exponent 4-tuple over x0..x3, which is also its torus character.

The exceptional points over Z come from flat limits of deformed pencils.
Deform q = p*l_q in the pencil <p*l1, p*l2> along a direction x^e to
q + t*m', m' = q*x^e.  With the other generator p*l_o, the syzygy
l_q*(p*l_o) - l_o*(q + t*m') = -t*l_o*m' puts l_o*m' = p*l1*l2*x^e in the
flat limit, which is spanned by that cubic and the 7 cubics
p*{l1, l2}*{x0..x3} (`e1_points`).  A limit whose 8 cubics share a plane
lies on the second centre and gives a WPoint; one whose cubics have no
common factor is a G2E1 point (`classify_e1`).  The one Hilbert polynomial
computed on this path is the 4t check of each fixed point's quartics in
`enumerate_all`, 3! times it in integers, read off the point's staircase
cells.  A quartic system is one 35-bit set, the OR of tables of quadric and
cubic monomials' quartic multiples, whose bit count is its rank and whose
bits give its sorted quartics and cells.  No linear algebra and no Groebner
basis is computed on this path; `nlocus verify` recomputes every limit
exactly by the run rule on the e-strings of the deformed pencil (`limits.e1_limit`).
"""

import contextlib
import functools
import gc
import math
import operator
import os
from collections import Counter, namedtuple
from pathlib import Path

from .ideals import QUARTIC_BITS, cells_hilbert_numerator, cells_of_bits
from .ideals import quartic_bits, quartic_cell, quartic_cells, quartics_of_bits
from .poly import monomial_gcd, monomials_of_degree, render_monomial
from .torus import blowup_tangent, char_add, char_sub, grass_tangent

SCHEMA_VERSION = 4  # the header 'schema' of the cache file, part of its fingerprint
# (size, zlib.crc32) of cache_bytes(enumerate_all()), the one file load_cache reads
CACHE_FINGERPRINT = (174_082, 0x6BCA6A1A)

QUADRICS = [m[:4] for m in monomials_of_degree(2)]
LINEARS = [m[:4] for m in monomials_of_degree(1)]
CUBICS = [m[:4] for m in monomials_of_degree(3)]
# the quartic multiples of each quadric and cubic monomial, as 35-bit sets
QUADRIC_MULTIPLES = {q: quartic_bits(char_add(q, r) for r in QUADRICS) for q in QUADRICS}
CUBIC_MULTIPLES = {c: quartic_bits(char_add(c, x) for x in LINEARS) for c in CUBICS}

G2, G2E1, E2 = "G2", "G2E1", "E2"
STRATA = (G2, G2E1, E2)
CENSUS = (21, 180, 324)  # fixed points per stratum


class StructuralError(RuntimeError):
    """An invariant of the fixed-point cascade failed; indicates a bug."""


class PencilPair(namedtuple("PencilPair", "index q1 q2 tangent")):
    """A torus-fixed pencil of quadrics with its Grassmannian tangent Counter."""

    __slots__ = ()


class ZPoint(namedtuple("ZPoint", "plane l1 l2 tangent_z normal pair_index")):
    """A fixed pencil with a common plane p: q1 = p*l1, q2 = p*l2."""

    __slots__ = ()

    def is_y_incident(self):
        """True when the plane divides one of the pencil lines (p in {l1,l2})."""
        return self.plane in (self.l1, self.l2)


class E1Record(namedtuple("E1Record", "direction_index direction limit_cubics tangent")):
    """One exceptional direction over a ZPoint, with its limit cubic system
    and its 16 tangent characters as a sorted tuple (`torus.blowup_tangent`)."""

    __slots__ = ()


class WPoint(
    namedtuple("WPoint", "plane line doublet tangent_w normal cubic_system provenance")
):
    """A degenerate cubic system: plane * (quadrics through a doublet)."""

    __slots__ = ()


class FixedPoint(namedtuple("FixedPoint", "tag tangent quartics pencil_chars provenance")):
    """One Bott summand: stratum tag, tangent characters, quartic system.

    A namedtuple with an instance dict.  `tangent` is the sorted tuple of
    the 16 tangent characters, repeats included.  Each row of `tangent`,
    `quartics` and `pencil_chars` is an immutable 4-tuple, which points may
    share: those of one `load_cache` hold one tuple per distinct row value,
    the points of the cascade over one centre share its tangent and normal
    characters, and the cascade's quartics are the tuples of
    `ideals.QUARTICS`.  `cells` is the staircase decomposition of the
    quartic system, the shared objects of `ideals.quartic_cell`, kept in the
    instance dict: it does not depend on d or on the weight spec, so the 4t
    check, every Bott sum and `checks.rank_invariants` read the one
    derivation.  The cascade gives a G2E1 or E2 point the cells of its
    quartic bit set (`ideals.cells_of_bits`), `load_cache` those of its
    record; any other point, such as a G2 point or a `_replace`d one,
    derives them by `ideals.quartic_cells` on first read.  It is not a
    field: equality, hashing and repr ignore it.
    """

    @functools.cached_property
    def cells(self):
        """The staircase cells of the quartic system, a tuple of shared cell objects."""
        return quartic_cells(self.quartics)


def enumerate_pairs():
    """All 45 pencils of distinct quadric monomials with their tangents."""
    pairs = []
    for i in range(len(QUADRICS)):
        for j in range(i + 1, len(QUADRICS)):
            q1, q2 = QUADRICS[i], QUADRICS[j]
            tangent = grass_tangent([q1, q2], QUADRICS)
            if tangent.total() != 16:
                raise StructuralError(f"pencil tangent size {tangent.total()} != 16")
            pairs.append(PencilPair(len(pairs), q1, q2, tangent))
    return pairs


def quartic_span(multiples, monos):
    """The 35-bit set of the multiples (a table above) of monos, not empty."""
    return functools.reduce(operator.or_, map(multiples.__getitem__, monos))


# grevlex rank of every cubic and quartic monomial, 0 for the largest (x0^4)
_GREVLEX_RANK = {
    m[:4]: rank for rank, m in enumerate(monomials_of_degree(4) + monomials_of_degree(3))
}


def _sort_monos(monos):
    """Distinct cubic and quartic exponent 4-tuples, largest first in grevlex."""
    return tuple(sorted(monos, key=_GREVLEX_RANK.__getitem__))


def split_strata(pairs):
    """Coprime pairs become G2 fixed points; pairs with a common plane, ZPoints."""
    g2, zs = [], []
    for pair in pairs:
        g = monomial_gcd(pair.q1, pair.q2)
        if not any(g):
            bits = quartic_span(QUADRIC_MULTIPLES, (pair.q1, pair.q2))
            if bits.bit_count() != 19:
                raise StructuralError(
                    f"pencil ({render_monomial(pair.q1)}, {render_monomial(pair.q2)})"
                    f" spans {bits.bit_count()} quartics, expected 19"
                )
            g2.append(
                FixedPoint(
                    tag=G2,
                    tangent=tuple(sorted(pair.tangent.elements())),
                    quartics=quartics_of_bits(bits),
                    pencil_chars=(pair.q1, pair.q2),
                    provenance=(pair.index,),
                )
            )
        else:
            if sum(g) != 1:
                raise StructuralError("distinct quadric monomials share a quadratic factor")
            l1, l2 = char_sub(pair.q1, g), char_sub(pair.q2, g)
            tangent_z = grass_tangent([l1, l2], LINEARS) + grass_tangent([g], LINEARS)
            if tangent_z.total() != 7:
                raise StructuralError(f"Z tangent size {tangent_z.total()} != 7")
            if not tangent_z <= pair.tangent:
                raise StructuralError("Z tangent is not contained in the pencil tangent")
            normal = pair.tangent - tangent_z
            zs.append(ZPoint(g, l1, l2, tangent_z, normal, pair.index))
    return g2, zs


def e1_points(z):
    """The 9 exceptional fixed-point records over a ZPoint, limits in closed form.

    Direction e deforms a pencil generator q = p*l_q that admits it (q*x^e is
    a quadric monomial m') to q + t*m'.  With the other generator p*l_o, the
    syzygy l_q*(p*l_o) - l_o*(q + t*m') = -t*l_o*m' puts the cubic
    l_o*m' = p*l1*l2*x^e in the flat limit at t = 0, next to the 7 distinct
    cubics p*{l1, l2}*{x0..x3}.  These 8 independent monomials span the
    8-dimensional limit, and none of them depends on which generator was
    deformed.  The ZPoint's tangent characters and sorted normal characters
    are listed once; each record's tangent is built from them
    (`torus.blowup_tangent`).
    """
    q1, q2 = char_add(z.plane, z.l1), char_add(z.plane, z.l2)
    pencil_cubics = {char_add(q, x) for q in (q1, q2) for x in LINEARS}
    base, normal = list(z.tangent_z.elements()), sorted(z.normal)
    records = []
    for index, e in enumerate(normal):
        if z.normal[e] != 1:
            raise StructuralError("normal character with multiplicity > 1 over Z")
        if not any(all(v >= 0 for v in char_add(e, q)) for q in (q1, q2)):
            raise StructuralError(f"no pencil generator admits direction {e}")
        extra = char_add(char_add(q1, z.l2), e)
        if extra in pencil_cubics:
            raise StructuralError(
                f"limit cubic {render_monomial(extra)} of direction {e} is"
                " already a cubic of the pencil"
            )
        tangent = blowup_tangent(base, normal, e)
        if len(tangent) != 16:
            raise StructuralError(f"E1 tangent size {len(tangent)} != 16")
        records.append(
            E1Record(index, e, _sort_monos(pencil_cubics | {extra}), tangent)
        )
    return records


def classify_e1(record, z, z_index):
    """Sort an E1 record into a G2E1 fixed point or a WPoint by its common plane.

    The second blow-up centre is the locus of cubic systems plane *
    (quadrics through a doublet), so a limit whose cubics share a plane is a
    WPoint over Z point z_index, and one whose cubics have no common factor
    is a G2E1 point, whose quartic system is the cubics times the linear
    forms and whose tangent is the record's.  Those quartics span the
    degree-4 part of the cubics' ideal, so `enumerate_all`'s 4t Hilbert
    check on the point also certifies the limit; a system with a common
    plane is never 4t.  Any other common factor is a StructuralError.
    """
    plane = tuple(map(min, zip(*record.limit_cubics)))
    if not any(plane):
        provenance = (z_index, record.direction_index)
        bits = quartic_span(CUBIC_MULTIPLES, record.limit_cubics)
        if bits.bit_count() != 19:
            raise StructuralError(
                f"G2E1{provenance} quartic system has rank {bits.bit_count()}, expected 19"
            )
        fp = FixedPoint(
            tag=G2E1,
            tangent=record.tangent,
            quartics=quartics_of_bits(bits),
            pencil_chars=(char_add(z.plane, z.l1), char_add(z.plane, z.l2)),
            provenance=provenance,
        )
        fp.cells = cells_of_bits(bits)
        return fp

    where = f"E1 limit ({z_index}, {record.direction_index}), direction {record.direction}"
    if sum(plane) != 1:
        raise StructuralError(
            f"{where}: the limit cubics share {render_monomial(plane)},"
            f" of degree {sum(plane)}, not a plane"
        )
    if plane != z.plane:
        raise StructuralError(f"{where}: common plane of the limit cubics is not the Z plane")
    if not z.is_y_incident():
        raise StructuralError(f"{where}: degenerate limit over a ZPoint outside Y")
    line = z.l2 if z.l1 == z.plane else z.l1
    i_plane, i_line = plane.index(1), line.index(1)
    doublet_ambient = [q for q in QUADRICS if q[i_plane] == 0 and q[i_line] == 0]
    quadrics = [char_sub(c, plane) for c in record.limit_cubics]
    survivors = [q for q in quadrics if q in doublet_ambient]
    if len(survivors) != 1:
        raise StructuralError(f"{where}: doublet is not unique: {survivors}")
    doublet = survivors[0]
    tangent_w = (
        grass_tangent([plane], LINEARS)
        + grass_tangent([line], [c for c in LINEARS if c != plane])
        + grass_tangent([doublet], doublet_ambient)
    )
    if tangent_w.total() != 7:
        raise StructuralError(f"{where}: W tangent size {tangent_w.total()} != 7")
    tangent = Counter(record.tangent)
    if not tangent_w <= tangent:
        raise StructuralError(f"{where}: W tangent is not contained in the E1 tangent")
    normal = tangent - tangent_w
    return WPoint(
        plane=plane,
        line=line,
        doublet=doublet,
        tangent_w=tangent_w,
        normal=normal,
        cubic_system=record.limit_cubics,
        provenance=(z_index, record.direction_index),
    )


def e2_points(w, w_index):
    """The 9 fixed points of the plane-quartic fiber over a WPoint.

    Each normal character e picks the quartic monomial g of character
    e + char(plane * line * doublet); the quartic system is the cubic system
    times the linear forms plus g, of rank 19.  The WPoint's tangent
    characters, its sorted normal characters and its 18 base quartics (a
    35-bit set) are listed once: each point's tangent is built from them
    (`torus.blowup_tangent`), its quartics and cells from the base and g.
    """
    base = quartic_span(CUBIC_MULTIPLES, w.cubic_system)
    if base.bit_count() != 18:
        raise StructuralError(f"W quartic base has rank {base.bit_count()}, expected 18")
    tangent_w, normal = list(w.tangent_w.elements()), sorted(w.normal)
    anchor = char_add(char_add(w.plane, w.line), w.doublet)
    pencil_chars = (char_add(w.plane, w.plane), char_add(w.plane, w.line))
    points = []
    for index, e in enumerate(normal):
        if w.normal[e] != 1:
            raise StructuralError("normal character with multiplicity > 1 over W")
        g = char_add(e, anchor)
        bit = QUARTIC_BITS.get(g)
        if bit is None:
            raise StructuralError(f"direction {e} has no quartic presentation over W")
        if base & bit:
            raise StructuralError(f"extra quartic {g} already in the cubic system")
        tangent = blowup_tangent(tangent_w, normal, e)
        if len(tangent) != 16:
            raise StructuralError(f"E2 tangent size {len(tangent)} != 16")
        fp = FixedPoint(
            tag=E2,
            tangent=tangent,
            quartics=quartics_of_bits(base | bit),
            pencil_chars=pencil_chars,
            provenance=(w_index, index),
        )
        fp.cells = cells_of_bits(base | bit)
        points.append(fp)
    return points


@contextlib.contextmanager
def collector_paused():
    """Pause the cyclic collector for a block or a function, then leave it
    as it was, also when it raises.  It touches no frozen object."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@collector_paused()
def enumerate_all():
    """All fixed points, in deterministic order G2, G2E1, E2.

    Each point's quartic system is checked to cut out a curve with Hilbert
    polynomial 4t, read off the point's `cells`, which the points keep for
    the Bott sums: 3! times it is added up in integers from the terms the
    shared cells keep (`ideals.cells_hilbert_numerator`), with no Fraction.
    The cascade makes no reference cycles (a collection after it finds
    nothing unreachable), so it runs with the cyclic collector paused.
    """
    g2, zs = split_strata(enumerate_pairs())
    g2e1, ws = [], []
    for z_index, z in enumerate(zs):
        for record in e1_points(z):
            classified = classify_e1(record, z, z_index)
            if isinstance(classified, FixedPoint):
                g2e1.append(classified)
            else:
                ws.append(classified)
    e2 = []
    for w_index, w in enumerate(ws):
        e2.extend(e2_points(w, w_index))
    points = g2 + g2e1 + e2
    counts = stratum_counts(points)
    if counts != CENSUS:
        raise StructuralError(f"stratum counts {counts} != {CENSUS}")
    for fp in points:
        if cells_hilbert_numerator(fp.cells) != (0, 24, 0, 0):  # 3! * 4t
            raise StructuralError(
                f"fixed point {fp.tag}{fp.provenance} fails the 4t Hilbert check"
            )
    return points


def stratum_counts(points):
    return tuple(sum(1 for p in points if p.tag == tag) for tag in STRATA)


def euler_characteristic_oracle():
    """chi of the double blow-up: 45 + 24*8 + 36*8, independent of the cascade."""
    chi_grassmannian = 45
    blowup_z = 24 * (9 - 1)
    blowup_w = 36 * (9 - 1)
    return chi_grassmannian + blowup_z + blowup_w


# ---------------------------------------------------------------------------
# JSON cache


def point_to_json(fp):
    """The JSON record of a fixed point that `nlocus fixpoints --format json`
    prints: every monomial a list of 4 integers."""
    return {
        "tag": fp.tag,
        "tangent": fp.tangent,
        "quartics": fp.quartics,
        "pencil": fp.pencil_chars,
        "provenance": fp.provenance,
    }


def _ints_text(ints):
    """The JSON text of a tuple of integers."""
    return f"[{','.join(map(str, ints))}]"


def _cell_text(cell):
    """The JSON text of a staircase cell in the cache file: [base, free, bound],
    the bound null for a cell with no x3 bound."""
    (i, j, k), free, bound, _ = cell
    return f"[[{i},{j},{k}],{_ints_text(free)},{'null' if bound == math.inf else bound}]"


_CHUNK_RECORDS = 16  # records per chunk of the cache file's bytes


def _cache_chunks(points):
    """The bytes of the document {"counts", "distinct", "points", "schema"}: a
    header chunk with the two tables, then chunks of at most _CHUNK_RECORDS
    records each; `cache_bytes` describes the text.

    One pass over the points gathers their distinct rows and cells.  After
    the header, the JSON text of each table index is formed once, and each
    record is formatted once from those fragments, its six keys in sorted
    order.  The counts header and the tags are formatted here too, so saving
    a cache imports no `json`: a tag is a stratum name, whose JSON text is
    the name in quotes.
    """
    rows, cells = set(), set()
    for fp in points:
        rows.update(fp.tangent, fp.quartics, fp.pencil_chars)
        cells.update(fp.cells)
    rows, cells = sorted(rows), sorted(cells)
    counts = ",".join(
        f'"{name}":{count}' for name, count in sorted(zip(STRATA, stratum_counts(points)))
    )
    yield (
        f'{{"counts":{{{counts}}},"distinct":{{"cells":[{",".join(map(_cell_text, cells))}]'
        f',"rows":[{",".join(map(_ints_text, rows))}]}},"points":['
    ).encode()
    # one dict gives the text of each row's and each cell's index in its
    # table (no row of integers equals a cell, whose base is a tuple), and
    # only it is kept while the records are written
    texts = list(map(str, range(max(len(rows), len(cells)))))
    index = dict(zip(rows, texts))
    index.update(zip(cells, texts))
    del rows, cells, texts
    index = index.__getitem__

    for start in range(0, len(points), _CHUNK_RECORDS):
        if start:
            yield b","
        yield ",".join(
            [
                f'{{"cells":[{",".join(map(index, fp.cells))}]'
                f',"pencil":[{",".join(map(index, fp.pencil_chars))}]'
                f',"provenance":{_ints_text(fp.provenance)}'
                f',"quartics":[{",".join(map(index, fp.quartics))}],"tag":"{fp.tag}"'
                f',"tangent":[{",".join(map(index, fp.tangent))}]}}'
                for fp in points[start : start + _CHUNK_RECORDS]
            ]
        ).encode()
    yield f'],"schema":{SCHEMA_VERSION}}}\n'.encode()


def cache_bytes(points):
    """The cache file of the points, the join of the chunks that `save_cache`
    writes: the document {"counts", "distinct", "points", "schema"} as JSON
    with sorted keys and no spaces.

    "distinct" holds two sorted tables: "rows", the distinct 4-integer rows
    of the points (tangent characters, quartic monomials and pencil rows),
    and "cells", the distinct staircase cells of their `cells`, each
    [base, free, bound] with a null bound for a cell with no x3 bound.  Each
    record holds its point's "tag" and "provenance", and its "tangent",
    "quartics", "pencil" and "cells" as lists of indices into those tables.
    The tables come before the records, so a reader can build each point as
    soon as its record is parsed.

    It holds at most two copies of the file's bytes at a time; one
    `json.dumps` of the whole document would take about 18 times the file's
    size.
    """
    return b"".join(_cache_chunks(points))


def save_cache(points, path):
    """Write the cache file atomically, chunk by chunk.

    The header chunk, with the two tables, and then the chunks of
    _CHUNK_RECORDS records of `cache_bytes` go one at a time to a temporary
    file in the same directory, so the whole document is never held; the
    file then replaces the cache, so a reader sees the old file or the new
    one and a writer killed midway leaves the old file as it was.  A failed
    write is an OSError naming the cache path.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with tmp.open("wb") as f:
            f.writelines(_cache_chunks(points))
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            reason = exc.strerror or exc
            raise OSError(f"fixed-point cache {path} cannot be written: {reason}") from exc
        raise


def _point_reader():
    """The `json` object hook that makes each record of a cache file its point.

    The file's "distinct" object, read before any record, gives the tables:
    each row becomes one tuple, shared by every point that has it, and each
    cell the shared object of `ideals.quartic_cell`.  A record, an object
    with a "tag", becomes its FixedPoint with its rows and its cells taken
    from them.  Any other object is returned as parsed.
    """
    row = cell = None

    def read(obj):
        nonlocal row, cell
        if "tag" in obj:
            fp = FixedPoint(
                obj["tag"],
                tuple(map(row, obj["tangent"])),
                tuple(map(row, obj["quartics"])),
                tuple(map(row, obj["pencil"])),
                tuple(obj["provenance"]),
            )
            fp.cells = tuple(map(cell, obj["cells"]))
            return fp
        if "rows" in obj:
            row = list(map(tuple, obj["rows"])).__getitem__
            cell = [
                quartic_cell(base, free, math.inf if bound is None else bound)
                for base, free, bound in obj["cells"]
            ].__getitem__
        return obj

    return read


@collector_paused()
def load_cache(path):
    """Points from a cache file, or None when there is no file.

    A file loads, its records unchecked, only when its size and `zlib.crc32`
    equal `CACHE_FINGERPRINT`, those of the cascade's bytes.  CRC-32 guards
    against stale, hand-edited and buggy files, not crafted ones.  Each
    record becomes its point as soon as it is parsed (`_point_reader`), so
    the lists of the whole document never exist at once.  The 19,425 rows
    of the points are the 275 tuples of the file's row table, and their
    13,617 cells the 401 shared cell objects of its cell table: a loaded
    point derives no cells.  Any other file, including one of another schema
    or one nested too deeply for `json` to decode, is a ValueError naming
    the path.
    """
    where = f"fixed-point cache {path}"
    # the load makes some 8,000 tuples, short-lived lists and dicts and no
    # reference cycles, so the cyclic collector is paused, then left as it was
    try:
        data = Path(path).read_bytes()
        # only a file to parse needs these, so a cold run imports neither
        import json
        import zlib

        if (len(data), zlib.crc32(data)) == CACHE_FINGERPRINT:
            return json.loads(data, object_hook=_point_reader())["points"]
        doc = json.loads(data)
    except FileNotFoundError:
        return None
    except (OSError, ValueError, RecursionError) as exc:
        raise ValueError(f"{where} is unreadable: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{where} is not a JSON object")
    raise _mismatch(where, doc)


def _cascade_document():
    """The document of `cache_bytes(enumerate_all())`, as `json` reads it back."""
    import json

    return json.loads(cache_bytes(enumerate_all()))


def _first_key(got, want):
    """The first key, in sorted order, where got ({} unless a dict) and want differ."""
    got = got if isinstance(got, dict) else {}
    for key in sorted(got.keys() | want.keys()):
        if key not in got or key not in want or got[key] != want[key]:
            return key
    return None


def _mismatch(where, doc):
    """The ValueError for a document other than the cascade's: it names the header
    key 'schema' when that differs, or else the first header key, or else the first
    record, that differs, with that record's first differing key and the cascade's
    point, or else the first surplus or missing record."""
    expected = _cascade_document()
    records, cascade = doc.get("points"), expected["points"]
    header = dict(doc, points=cascade) if isinstance(records, list) else doc
    key = "schema" if doc.get("schema") != SCHEMA_VERSION else _first_key(header, expected)
    if key is not None:
        return ValueError(f"{where}: header {key!r} differs from the cascade's")
    for index, (got, want) in enumerate(zip(records, cascade)):
        key = _first_key(got, want)
        if key is not None:
            point = f"{want['tag']}{tuple(want['provenance'])}"
            return ValueError(
                f"{where}, record {index}: {key!r} differs from the cascade's {point}"
            )
    if len(records) != len(cascade):
        index = min(len(records), len(cascade))
        return ValueError(f"{where}, record {index}: the cascade has {len(cascade)} records")
    return ValueError(f"{where}: its values are the cascade's, its bytes are not")


def load_or_enumerate(path):
    """The points of the cache file, or, when there is none, enumerated and written
    to it; a file that load_cache rejects raises its ValueError and is left as is."""
    points = load_cache(path)
    if points is None:
        points = enumerate_all()
        save_cache(points, path)
    return points
