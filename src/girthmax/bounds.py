"""Girth/order bound calculators for regular (bipartite) graphs.

Everything here is exact integer arithmetic. Quantities come in two
flavors and must not be mixed when comparing bounds: `vertices` counts
all vertices of a graph, `per_side` counts one side m of a bipartite
graph on m + m vertices (so per_side values double into vertex counts).

The calculators:

* hoory_lower     - the tree count on one side of an r-regular
  bipartite graph of girth g: m >= ((r-1)^(g/2) - 1)/(r-2).
* moore_bipartite - even-girth Moore bound 2*((d-1)^(g/2) - 1)/(d-2) on
  the vertex count of a graph with minimum degree d and girth g: twice
  the tree count.
* erdos_sachs_bounds - degree-3 existence window
  2^(g/2) - 1 <= n(g,3) <= 2^g - 1, improved upper bound 2^(g-1); the
  lower end is the degree-3 tree count.
* moore_odd       - odd-girth Moore bound 1 + D*((D-1)^r - 1)/(D-2),
  g = 2r + 1 (does not apply to bipartite graphs; provided for
  comparison).
* lazebnik_min_m  - smallest side size r^(g-5) of the explicit
  prime-power-degree construction guaranteeing girth >= g.
* lps_min_q / lps_order - the degree-3 Ramanujan-graph family: smallest
  admissible prime q (q^4 >= 2^(g+2), (2|q) = -1) and its order
  q*(q^2 - 1).
* factorize_bk / gmax_upper / optimal_partitions - the factorization
  m = b*k^(r-1) with b minimal, the claimed girth ceiling 2k - 2
  attached to it (k >= 4 and b = 1 only), and the partition shapes
  (k^(r-1-i) parts of size b*k^i) that the search family realizes
  between consecutive constituents.

The renderers at the bottom produce the fixed-layout reference tables
the CLI prints; their output is byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import gcd

__all__ = [
    "FactorizationResult",
    "BoundEntry",
    "BoundReport",
    "factorize_bk",
    "gmax_upper",
    "gmax_report",
    "optimal_partitions",
    "moore_bipartite",
    "erdos_sachs_bounds",
    "hoory_lower",
    "lazebnik_min_m",
    "moore_odd",
    "legendre",
    "lps_min_q",
    "irregular_girth_reference",
    "render_table",
    "bound_report",
    "report_text",
    "moore_table_text",
    "order_bounds_table_text",
    "irregular_reference_table_text",
    "ramanujan_table_text",
]


@dataclass(frozen=True)
class FactorizationResult:
    """m = b * k^(r-1) with k maximal (b minimal)."""

    m: int
    r: int
    b: int
    k: int


@dataclass(frozen=True)
class BoundEntry:
    name: str
    value: int
    direction: str  # "lower" | "upper" | "claimed"
    quantity: str  # "vertices" | "per_side" | "girth"


@dataclass(frozen=True)
class BoundReport:
    query: tuple[tuple[str, int], ...]
    entries: tuple[BoundEntry, ...]

    def value(self, name: str) -> int:
        for e in self.entries:
            if e.name == name:
                return e.value
        raise KeyError(name)


def _iroot(m: int, e: int) -> int:
    """Largest integer x with x**e <= m, for m >= 1, by Newton's method in integers.

    Proof. It starts above the root r, at 2^ceil(bits / e) > m^(1/e)
    for m < 2^bits. The step y = ((e-1)x + m // x^(e-1)) // e is the
    floor of the mean of e-1 copies of x and m / x^(e-1). That mean is
    below x when x > r, since then x^e > m, and at least m^(1/e) >= r
    by the AM-GM inequality, so y >= r. So x falls strictly to r, and
    the first step that does not fall starts at r.
    """
    x = 1 << -(-m.bit_length() // e)
    while True:
        y = ((e - 1) * x + m // x ** (e - 1)) // e
        if y >= x:
            return x
        x = y


def factorize_bk(m: int, r: int) -> FactorizationResult:
    """Factor m = b*k^(r-1) scanning k downward; k=1, b=m always fits."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if r < 2:
        raise ValueError("r must be >= 2")
    e = r - 1
    for k in range(_iroot(m, e), 0, -1):
        if m % (k**e) == 0:
            return FactorizationResult(m=m, r=r, b=m // (k**e), k=k)
    raise AssertionError("unreachable: k=1 always divides")


def gmax_upper(m: int, r: int) -> int:
    """Claimed ceiling on attainable girth of an (m, r) BTU: 2k - 2.

    k comes from factorize_bk; girth is even and the claim is the strict
    inequality girth < 2k, hence the largest even value 2k - 2. This is
    a claim about the search family, not a proven universal graph
    invariant; it is reported with direction "claimed". There is no
    (m, r) BTU with r > m, so that query is an error too.

    The claim is false for k <= 3, so those queries are errors as well.
    A BTU has no double edge, so its girth is at least 4 > 2k - 2 for
    k <= 2, and [C_0, C_1, C_3] at m = 9 and [C_0, C_1, C_3, C_9] at
    m = 27 (both k = 3) have girth 6 > 4.

    It is false for b > 1 too, so those queries are errors: the search
    family's own ceiling is 2bk, and at m = 32 = 2*4^2, r = 3, the
    search (k = 4, b = 2) finds girth 8 > 2k - 2 = 6 under both
    scalings, e.g. interleaved q1 = (1, 3, 5, 2, 7, 4, 0, 6), j = 9.
    """
    if r < 3:
        raise ValueError("the girth ceiling is only claimed for r >= 3")
    if r > m:
        raise ValueError(f"no ({m}, {r}) BTU exists: r = {r} exceeds m = {m}")
    f = factorize_bk(m, r)
    if f.k <= 3:
        raise ValueError(f"the girth ceiling is only claimed for k >= 4; m = {m} = {f.b}*{f.k}^{r - 1}")
    if f.b > 1:
        raise ValueError(f"the girth ceiling is only claimed for b = 1; m = {m} = {f.b}*{f.k}^{r - 1}")
    return 2 * f.k - 2


def gmax_report(m: int, r: int) -> BoundReport:
    """factorize_bk(m, r) and the claimed ceiling gmax_upper(m, r) (3 <= r <= m, k >= 4, b = 1)."""
    ceiling = gmax_upper(m, r)
    f = factorize_bk(m, r)
    return BoundReport(
        query=(("m", m), ("r", r)),
        entries=(
            BoundEntry("b", f.b, "claimed", "girth"),
            BoundEntry("k", f.k, "claimed", "girth"),
            BoundEntry("claimed_ceiling", ceiling, "claimed", "girth"),
        ),
    )


def optimal_partitions(b: int, k: int, r: int) -> list[tuple[int, ...]]:
    """Partition shapes between consecutive constituents, i = 1..r-1.

    The i-th partition splits b*k^(r-1) into k^(r-1-i) equal parts of
    size b*k^i; the last one is the single part (b*k^(r-1),).
    """
    if b < 1 or k < 1:
        raise ValueError("b and k must be >= 1")
    if r < 2:
        raise ValueError("r must be >= 2")
    return [tuple([b * k**i] * k ** (r - 1 - i)) for i in range(1, r)]


def moore_bipartite(g: int, delta: int) -> int:
    """Even-girth Moore bound on vertices: 2*((delta-1)^(g/2) - 1)/(delta-2)."""
    if g % 2 != 0:
        raise ValueError("even girth required (use moore_odd for odd girth)")
    if g < 4:
        raise ValueError("girth must be >= 4")
    if delta < 3:
        raise ValueError("degree must be >= 3")
    return 2 * hoory_lower(g, delta)


def erdos_sachs_bounds(g: int, delta: int = 3) -> BoundReport:
    """Existence window for the minimal order n(g, 3) of a 3-regular graph.

    lower = 2^(g/2) - 1, upper = 2^g - 1, improved upper = 2^(g-1).
    Only the degree-3 closed forms are implemented.
    """
    if delta != 3:
        raise ValueError("closed forms implemented for delta = 3 only")
    if g % 2 != 0 or g < 4:
        raise ValueError("even girth >= 4 required")
    return BoundReport(
        query=(("g", g), ("delta", delta)),
        entries=(
            BoundEntry("lower", hoory_lower(g, 3), "lower", "vertices"),
            BoundEntry("upper", 2**g - 1, "upper", "vertices"),
            BoundEntry("improved_upper", 2 ** (g - 1), "upper", "vertices"),
        ),
    )


def hoory_lower(g: int, r: int) -> int:
    """Per-side lower bound for an r-regular bipartite graph of girth g."""
    if g % 2 != 0:
        raise ValueError("even girth required")
    if g < 4:
        raise ValueError("girth must be >= 4")
    if r == 2:
        raise ValueError("r = 2 degenerates; the limiting value is g/2")
    if r < 2:
        raise ValueError("degree must be >= 2")
    return ((r - 1) ** (g // 2) - 1) // (r - 2)


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _is_prime(n: int) -> bool:
    return _prime_factors(n) == [n]


def lazebnik_min_m(g: int, r: int) -> int:
    """Per-side size r^(g-5) of the explicit construction with girth >= g.

    Defined for prime-power degree r and g >= 8 (so the exponent is at
    least 3, the construction's range).
    """
    if g < 8:
        raise ValueError("girth must be >= 8")
    if r < 2 or len(_prime_factors(r)) != 1:
        raise ValueError(f"degree {r} is not a prime power")
    return r ** (g - 5)


def moore_odd(g: int, degree: int) -> int:
    """Odd-girth Moore bound 1 + D*((D-1)^r - 1)/(D-2) with g = 2r + 1."""
    if g % 2 != 1:
        raise ValueError("odd girth required (bipartite graphs have even girth)")
    if g < 5:
        raise ValueError("girth must be >= 5")
    if degree < 3:
        raise ValueError("degree must be >= 3")
    radius = (g - 1) // 2
    return 1 + degree * ((degree - 1) ** radius - 1) // (degree - 2)


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) for odd prime p, by Euler's criterion."""
    if p % 2 == 0 or not _is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    v = pow(a % p, (p - 1) // 2, p)
    return -1 if v == p - 1 else v


def lps_min_q(g: int) -> tuple[int, int]:
    """Smallest Ramanujan-family prime for degree 3 at girth g.

    Returns (q, n): the smallest odd prime q with q^4 >= 2^(g+2)
    (integer form of q >= 2^((g+2)/4)) and (2|q) = -1, and the graph
    order n = q*(q^2 - 1).
    """
    if g < 4:
        raise ValueError("girth must be >= 4")
    threshold = 2 ** (g + 2)
    q = 3
    while True:
        if q**4 >= threshold and _is_prime(q) and legendre(2, q) == -1:
            return q, q * (q * q - 1)
        q += 2


def irregular_girth_reference() -> tuple[tuple[int, int], ...]:
    """Published (girth, minimal N) pairs for irregular parity-check matrices.

    Static reference data (the matrices have irregular degrees, so the
    values are not directly comparable with the regular-BTU results).
    """
    return ((6, 5), (8, 9), (10, 39), (12, 97))


def bound_report(g: int, delta: int) -> BoundReport:
    """All applicable bounds for girth g and degree delta."""
    entries: list[BoundEntry] = []
    if g % 2 == 0:
        entries.append(BoundEntry("moore_bipartite", moore_bipartite(g, delta), "lower", "vertices"))
        if delta >= 3:
            entries.append(BoundEntry("hoory_per_side", hoory_lower(g, delta), "lower", "per_side"))
        if delta == 3:
            entries.extend(
                replace(e, name=f"erdos_sachs_{e.name}") for e in erdos_sachs_bounds(g, delta).entries
            )
        if g >= 8 and delta >= 2 and len(_prime_factors(delta)) == 1:
            entries.append(
                BoundEntry("lazebnik_per_side", lazebnik_min_m(g, delta), "upper", "per_side")
            )
    else:
        entries.append(BoundEntry("moore_odd", moore_odd(g, delta), "lower", "vertices"))
    return BoundReport(query=(("g", g), ("delta", delta)), entries=tuple(entries))


# ---------------------------------------------------------------------------
# fixed-layout table rendering
# ---------------------------------------------------------------------------

def render_table(headers: list[str], rows: list[list[str]]) -> str:
    """Two-space-separated, left-justified columns; byte-stable output."""
    widths = [max(map(len, (h, *(row[c] for row in rows)))) for c, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def report_text(report: BoundReport) -> str:
    """Key:value rendering of a BoundReport."""
    query = " ".join(f"{k}={v}" for k, v in report.query)
    lines = [f"query: {query}"]
    lines.extend(
        f"{e.name}: {e.value}  [{e.direction}, {e.quantity}]" for e in report.entries
    )
    return "\n".join(lines) + "\n"


def moore_table_text() -> str:
    """Table 2: even-girth Moore bound n0(g,3) for g = 4..14."""
    rows = [[str(g), str(moore_bipartite(g, 3))] for g in range(4, 16, 2)]
    return render_table(["g", "n0(g,3)"], rows)


def order_bounds_table_text() -> str:
    """Table 3: lower/upper/improved-upper window for n(g,3), g = 4..14."""
    rows = []
    for g in range(4, 16, 2):
        r = erdos_sachs_bounds(g)
        rows.append(
            [str(g), str(r.value("lower")), str(r.value("upper")), str(r.value("improved_upper"))]
        )
    return render_table(["g", "lower", "upper", "improved_upper"], rows)


def irregular_reference_table_text() -> str:
    """Table 4: published girth/size pairs for irregular matrices."""
    rows = [[str(g), str(n)] for g, n in irregular_girth_reference()]
    return render_table(["girth", "min_N"], rows)


def ramanujan_table_text() -> str:
    """Table 5: smallest degree-3 Ramanujan graph per girth, g = 6..12."""
    rows = []
    for g in range(6, 14, 2):
        q, n = lps_min_q(g)
        rows.append([str(g), str(q), str(n), "2", "3"])
    return render_table(["girth", "min_q", "n", "p", "degree"], rows)
