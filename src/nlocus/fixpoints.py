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
`enumerate_all`.  No linear algebra and no Groebner basis is computed on
this path; `nlocus.checks` recomputes every limit by Buchberger saturation.
"""

from __future__ import annotations

import functools
import json
import os
import zlib
from collections import Counter
from dataclasses import dataclass
from itertools import zip_longest
from pathlib import Path

from .formula import UnivariateRationalPoly
from .ideals import cells_hilbert_polynomial, staircase_cells
from .poly import monomial_gcd, monomials_of_degree, render_monomial
from .torus import blowup_tangent, char_add, char_sub, grass_tangent

SCHEMA_VERSION = 3
# (size, zlib.crc32) of cache_bytes(enumerate_all()), the one file load_cache reads
CACHE_FINGERPRINT = (240_168, 0x623F5966)

QUADRICS = [m[:4] for m in monomials_of_degree(2)]
LINEARS = [m[:4] for m in monomials_of_degree(1)]

G2, G2E1, E2 = "G2", "G2E1", "E2"
STRATA = (G2, G2E1, E2)
CENSUS = (21, 180, 324)  # fixed points per stratum


class StructuralError(RuntimeError):
    """An invariant of the fixed-point cascade failed; indicates a bug."""


# one tuple object per distinct staircase cell, shared by every FixedPoint:
# the 525 points have 13,617 cells, only 401 of them distinct
_SHARED_CELLS = {}


@dataclass(frozen=True)
class PencilPair:
    """A torus-fixed pencil of quadrics with its Grassmannian tangent Counter."""

    index: int
    q1: tuple
    q2: tuple
    tangent: Counter


@dataclass(frozen=True)
class ZPoint:
    """A fixed pencil with a common plane p: q1 = p*l1, q2 = p*l2."""

    plane: tuple
    l1: tuple
    l2: tuple
    tangent_z: Counter
    normal: Counter
    pair_index: int

    def is_y_incident(self):
        """True when the plane divides one of the pencil lines (p in {l1,l2})."""
        return self.plane in (self.l1, self.l2)


@dataclass(frozen=True)
class E1Record:
    """One exceptional direction over a ZPoint, with its limit cubic system."""

    direction_index: int
    direction: tuple
    limit_cubics: tuple
    tangent: Counter


@dataclass(frozen=True)
class WPoint:
    """A degenerate cubic system: plane * (quadrics through a doublet)."""

    plane: tuple
    line: tuple
    doublet: tuple
    tangent_w: Counter
    normal: Counter
    cubic_system: tuple
    provenance: tuple


@dataclass(frozen=True)
class FixedPoint:
    """One Bott summand: stratum tag, tangent characters, quartic system.

    `tangent` is the sorted tuple of the 16 tangent characters, repeats
    included.  `cells` is the staircase decomposition of the quartic system
    (`ideals.staircase_cells`), derived on first use and kept: it does not
    depend on d or on the weight spec, so the 4t check, every Bott sum and
    `checks.rank_invariants` read the one derivation.  It is not a field:
    equality, hashing, repr and the cache file ignore it.
    """

    tag: str
    tangent: tuple
    quartics: tuple
    pencil_chars: tuple
    provenance: tuple

    @functools.cached_property
    def cells(self):
        """The staircase cells of the quartic system, a tuple of shared cell objects."""
        cells = staircase_cells(self.quartics)
        return tuple(map(_SHARED_CELLS.setdefault, cells, cells))


def _sorted_chars(counter):
    """The characters of a Counter, repeated by multiplicity, as a sorted tuple."""
    return tuple(sorted(counter.elements()))


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


def _products(monos, factors):
    """The set of products m*f for m in monos and f in factors."""
    return {char_add(m, f) for m in monos for f in factors}


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
            quartics = _sort_monos(_products((pair.q1, pair.q2), QUADRICS))
            if len(quartics) != 19:
                raise StructuralError(
                    f"pencil ({render_monomial(pair.q1)}, {render_monomial(pair.q2)})"
                    f" spans {len(quartics)} quartics, expected 19"
                )
            g2.append(
                FixedPoint(
                    tag=G2,
                    tangent=_sorted_chars(pair.tangent),
                    quartics=quartics,
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
    deformed.
    """
    q1, q2 = char_add(z.plane, z.l1), char_add(z.plane, z.l2)
    pencil_cubics = _products((q1, q2), LINEARS)
    records = []
    for index, e in enumerate(sorted(z.normal)):
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
        tangent = blowup_tangent(z.tangent_z, z.normal, e)
        if tangent.total() != 16:
            raise StructuralError(f"E1 tangent size {tangent.total()} != 16")
        records.append(
            E1Record(index, e, _sort_monos(pencil_cubics | {extra}), tangent)
        )
    return records


_HILB_4T = UnivariateRationalPoly([0, 4])  # Hilbert polynomial of an elliptic quartic


def classify_e1(record, z, z_index):
    """Sort an E1 record into a G2E1 fixed point or a WPoint by its common plane.

    The second blow-up centre is the locus of cubic systems plane *
    (quadrics through a doublet), so a limit whose cubics share a plane is a
    WPoint over Z point z_index, and one whose cubics have no common factor
    is a G2E1 point, whose quartic system is the cubics times the linear
    forms.  Those quartics span the degree-4 part of the cubics' ideal, so
    `enumerate_all`'s 4t Hilbert check on the point also certifies the
    limit; a system with a common plane is never 4t.  Any other common
    factor is a StructuralError.
    """
    plane = functools.reduce(monomial_gcd, record.limit_cubics)
    if not any(plane):
        provenance = (z_index, record.direction_index)
        quartics = _sort_monos(_products(record.limit_cubics, LINEARS))
        if len(quartics) != 19:
            raise StructuralError(
                f"G2E1{provenance} quartic system has rank {len(quartics)}, expected 19"
            )
        return FixedPoint(
            tag=G2E1,
            tangent=_sorted_chars(record.tangent),
            quartics=quartics,
            pencil_chars=(char_add(z.plane, z.l1), char_add(z.plane, z.l2)),
            provenance=provenance,
        )

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
    if not tangent_w <= record.tangent:
        raise StructuralError(f"{where}: W tangent is not contained in the E1 tangent")
    normal = record.tangent - tangent_w
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
    times the linear forms plus g, of rank 19.
    """
    base = _products(w.cubic_system, LINEARS)
    if len(base) != 18:
        raise StructuralError(f"W quartic base has rank {len(base)}, expected 18")
    anchor = char_add(char_add(w.plane, w.line), w.doublet)
    pencil_chars = (char_add(w.plane, w.plane), char_add(w.plane, w.line))
    points = []
    for index, e in enumerate(sorted(w.normal)):
        if w.normal[e] != 1:
            raise StructuralError("normal character with multiplicity > 1 over W")
        g = char_add(e, anchor)
        if any(v < 0 for v in g) or sum(g) != 4:
            raise StructuralError(f"direction {e} has no quartic presentation over W")
        if g in base:
            raise StructuralError(f"extra quartic {g} already in the cubic system")
        tangent = blowup_tangent(w.tangent_w, w.normal, e)
        if tangent.total() != 16:
            raise StructuralError(f"E2 tangent size {tangent.total()} != 16")
        points.append(
            FixedPoint(
                tag=E2,
                tangent=_sorted_chars(tangent),
                quartics=_sort_monos(base | {g}),
                pencil_chars=pencil_chars,
                provenance=(w_index, index),
            )
        )
    return points


def enumerate_all():
    """All fixed points, in deterministic order G2, G2E1, E2.

    Each point's quartic system is checked to cut out a curve with Hilbert
    polynomial 4t, read off the point's `cells`, which the points keep for
    the Bott sums.
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
        if cells_hilbert_polynomial(fp.cells) != _HILB_4T:
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
    """The cache record of a fixed point: every monomial a list of 4 integers."""
    return {
        "tag": fp.tag,
        "tangent": fp.tangent,
        "quartics": fp.quartics,
        "pencil": fp.pencil_chars,
        "provenance": fp.provenance,
    }


def point_from_json(data):
    """The FixedPoint of a cache record that `point_to_json` wrote."""
    return FixedPoint(
        data["tag"],
        *(tuple(map(tuple, data[key])) for key in ("tangent", "quartics", "pencil")),
        tuple(data["provenance"]),
    )


def cache_bytes(points):
    doc = {
        "schema": SCHEMA_VERSION,
        "counts": dict(zip(STRATA, stratum_counts(points))),
        "points": [point_to_json(fp) for fp in points],
    }
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()


def save_cache(points, path):
    """Write the cache file atomically.

    The bytes go to a temporary file in the same directory, which then
    replaces the cache, so a reader sees the old file or the new one and a
    writer killed midway leaves the old file as it was.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(cache_bytes(points))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_cache(path):
    """Points from a cache file, or None when absent or of another schema version.

    A schema-3 file loads, its records unchecked, only when its size and
    `zlib.crc32` equal `CACHE_FINGERPRINT`.  CRC-32 guards against stale,
    hand-edited and buggy files, not crafted ones.  Any other schema-3 file,
    and a file that is unreadable or not a JSON object with an integer
    'schema', is a ValueError naming the path.
    """
    where = f"fixed-point cache {path}"
    try:
        data = Path(path).read_bytes()
        doc = json.loads(data)
    except FileNotFoundError:
        return None
    except (OSError, ValueError) as exc:
        raise ValueError(f"{where} is unreadable: {exc}") from None
    if (len(data), zlib.crc32(data)) == CACHE_FINGERPRINT:
        return [point_from_json(record) for record in doc["points"]]
    if not isinstance(doc, dict) or type(doc.get("schema")) is not int:
        raise ValueError(f"{where} is not a JSON object with an integer 'schema'")
    if doc["schema"] != SCHEMA_VERSION:
        return None
    raise _mismatch(where, doc)


def _cascade_document():
    """The document of `cache_bytes(enumerate_all())`, as `json` reads it back."""
    return json.loads(cache_bytes(enumerate_all()))


def _first_key(got, want):
    """The first key, in sorted order, where got ({} unless a dict) and want differ."""
    got = got if isinstance(got, dict) else {}
    for key in sorted(got.keys() | want.keys()):
        if key not in got or key not in want or got[key] != want[key]:
            return key
    return None


def _mismatch(where, doc):
    """The ValueError for a schema-3 document other than the cascade's: it names
    the first header key, or else the first record, that differs, that record's
    first differing key and the cascade's point at its index."""
    expected = _cascade_document()
    records, cascade = doc.get("points"), expected["points"]
    header = dict(doc, points=cascade) if isinstance(records, list) else doc
    key = _first_key(header, expected)
    if key is not None:
        return ValueError(f"{where}: header {key!r} differs from the cascade's")
    for index, (got, want) in enumerate(zip_longest(records, cascade, fillvalue={})):
        key = _first_key(got, want)
        if key is not None:
            point = f"{want['tag']}{tuple(want['provenance'])}" if want else "(none)"
            return ValueError(
                f"{where}, record {index}: {key!r} differs from the cascade's {point}"
            )
    return ValueError(f"{where}: its values are the cascade's, its bytes are not")


def load_or_enumerate(path):
    """The points of the cache file, or else enumerated and written to it; a
    file that load_cache rejects raises its ValueError and is left as is."""
    points = load_cache(path)
    if points is None:
        points = enumerate_all()
        save_cache(points, path)
    return points
