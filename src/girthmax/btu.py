"""Balanced Tanner units (BTUs) and the 0/1 matrix that is their graph.

An (m, r) BTU is an m x m 0/1 matrix with exactly r ones in every row
and column, stored as its decomposition into r pairwise-disjoint
permutation matrices ("compatible" permutations: no two agree at any
position). `Btu.matrix()` gives that matrix as a `BinaryMatrix`, which
is also the bipartite graph: one left vertex per row, one right vertex
per column, left i adjacent to right c where row i has a one in column
c. For a BTU it is r-regular with no parallel edges.

Constituent order is significant: two BTUs are equal only if their
permutation sequences match. Use `same_matrix` for the order-insensitive
comparison of the underlying matrices.

Serialization: the alist format standard in LDPC tooling (column-major
index lists, see `write_alist`), DIMACS edge format (square matrices
only: left vertices 1..m, right m+1..2m), and a dense 0/1 text grid for
debugging. A DIMACS file in `write_dimacs`'s own layout is read in one
pass over its tokens, and any other layout line by line, with the same
errors.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, repeat
from typing import TYPE_CHECKING, Iterable, Sequence

from .perm import Permutation, _frozen, compose, identity, inverse

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Btu",
    "BinaryMatrix",
    "IncompatiblePermutations",
    "MalformedAlist",
    "MalformedDimacs",
    "NotRegular",
    "DecompositionFailed",
    "same_matrix",
    "btu_from_matrix",
    "write_alist",
    "read_alist",
    "write_dimacs",
    "read_dimacs",
    "write_dense",
    "read_dense",
]


class IncompatiblePermutations(ValueError):
    """Two constituents place a one in the same matrix position."""

    def __init__(self, position: int, first: int, second: int):
        super().__init__(position, first, second)  # the fields, from which unpickling rebuilds it
        self.position = position
        self.first = first
        self.second = second

    def __str__(self) -> str:
        return f"constituents {self.first} and {self.second} collide at position {self.position}"


class MalformedAlist(ValueError):
    """Structural problem in an alist file; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(line, message)  # the fields, from which unpickling rebuilds it
        self.line = line

    def __str__(self) -> str:
        return "line {}: {}".format(*self.args)


class MalformedDimacs(ValueError):
    pass


class NotRegular(ValueError):
    """Parsed degrees differ from the degrees the file declares."""


class DecompositionFailed(ValueError):
    """Matrix is not a disjoint union of permutation matrices."""


def _freeze(obj, **fields):
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def _columns(rows: Iterable[Iterable[int]], n_cols: int, first: int = 0) -> list[list[int]]:
    # per column, the ascending numbers of the rows that list it, the first
    # row numbered `first`; the caller may edit the lists
    cols: list[list[int]] = [[] for _ in range(n_cols)]
    for i, row in enumerate(rows, start=first):
        for c in row:
            cols[c].append(i)
    return cols


@_frozen
class BinaryMatrix:
    """A 0/1 matrix as per-row sorted column indices (the alist view).

    It is also the bipartite graph that the girth engines read: left
    vertex i per row, right vertex c per column, joined where row i
    lists column c. `rows` is a tuple of sorted, duplicate-free tuples;
    the constructor sorts each row and drops repeats (a 0/1 matrix has
    no double edge), and rejects a negative or zero dimension (no file
    format can write it), a wrong row count or an index outside
    0..n_cols-1.
    """

    n_rows: int
    n_cols: int
    rows: tuple[tuple[int, ...], ...]

    def __init__(self, n_rows: int, n_cols: int, rows: Iterable[Iterable[int]]):
        if n_rows < 0 or n_cols < 0:
            raise ValueError(f"negative dimension: {n_rows}x{n_cols}")
        if n_rows == 0 or n_cols == 0:
            raise ValueError(f"zero dimension: {n_rows}x{n_cols}")
        rws = tuple(map(tuple, map(sorted, map(set, rows))))
        if len(rws) != n_rows:
            raise ValueError(f"expected {n_rows} rows, got {len(rws)}")
        for i, r in enumerate(rws):
            if r and (r[0] < 0 or r[-1] >= n_cols):
                raise ValueError(f"row {i}: column index out of range")
        _freeze(self, n_rows=n_rows, n_cols=n_cols, rows=rws)

    def columns(self) -> tuple[tuple[int, ...], ...]:
        """Per-column sorted row indices (the transpose view)."""
        return tuple(map(tuple, _columns(self.rows, self.n_cols)))

    def to_bipartite(self) -> BinaryMatrix:
        # the matrix is its own graph; perfbench is the only caller outside the tests
        return self

    def to_array(self) -> np.ndarray:
        """Dense numpy uint8 view."""
        import numpy as np

        a = np.zeros((self.n_rows, self.n_cols), dtype=np.uint8)
        for i, r in enumerate(self.rows):
            a[i, list(r)] = 1
        return a

    def __repr__(self) -> str:
        ones = sum(len(r) for r in self.rows)
        return f"BinaryMatrix({self.n_rows}x{self.n_cols}, ones={ones})"


@_frozen
class Btu:
    """r compatible permutations on m points; an (m, r) BTU.

    Equality is order-sensitive; `same_matrix` compares the matrices.
    """

    perms: tuple[Permutation, ...]

    def __init__(self, perms: Sequence[Permutation]):
        perms = tuple(perms)
        if not perms:
            raise ValueError("a BTU needs at least one constituent permutation")
        m = perms[0].size
        for p in perms:
            if p.size != m:
                raise ValueError(f"size mismatch: {p.size} != {m}")
        r = len(perms)
        if r > m:
            raise ValueError(f"degree r={r} exceeds matrix side m={m}")
        images = [p.image for p in perms]
        if min(map(len, map(set, zip(*images)))) != r:  # some position repeats a column
            for i in range(m):
                seen: dict[int, int] = {}
                for t in range(r):
                    v = images[t][i]
                    if v in seen:
                        raise IncompatiblePermutations(i, seen[v], t)
                    seen[v] = t
        object.__setattr__(self, "perms", perms)

    @property
    def m(self) -> int:
        return self.perms[0].size

    @property
    def r(self) -> int:
        return len(self.perms)

    def __repr__(self) -> str:
        return f"Btu(m={self.m}, r={self.r})"

    def matrix(self) -> BinaryMatrix:
        # images are in range, and compatibility makes each row's columns distinct
        rows = tuple(map(tuple, map(sorted, zip(*(p.image for p in self.perms)))))
        return _trusted_matrix(self.m, self.m, rows)

    # an alias of `matrix`; perfbench is the only caller outside the tests
    to_bipartite = matrix

    def relabel(self, row_perm: Permutation, col_perm: Permutation) -> "Btu":
        """Apply a row and a column relabeling; an isomorphism of the graph.

        Each constituent p becomes col_perm ∘ p ∘ row_perm⁻¹, which is the
        matrix with rows permuted by row_perm and columns by col_perm.
        Girth and all pairwise relative cycle types are preserved.
        """
        m = self.m
        if row_perm.size != m or col_perm.size != m:
            raise ValueError(f"relabeling permutations must act on {m} elements")
        row_inv = inverse(row_perm)
        return Btu(tuple(compose(col_perm, compose(p, row_inv)) for p in self.perms))

    def normalize_to_identity(self, t: int) -> "Btu":
        """Relabel rows so that constituent t becomes the identity."""
        if not 0 <= t < self.r:
            raise IndexError(f"constituent index {t} out of range 0..{self.r - 1}")
        return self.relabel(self.perms[t], identity(self.m))


def same_matrix(a: Btu, b: Btu) -> bool:
    """Order-insensitive comparison of the underlying 0/1 matrices."""
    return a.matrix() == b.matrix()


def _as_matrix(x: "Btu | BinaryMatrix") -> BinaryMatrix:
    return x.matrix() if isinstance(x, Btu) else x


# Matrices of objects that are already validated skip the validating
# constructor: `rows` must be a tuple of sorted, duplicate-free tuples
# of in-range indices.

def _trusted_matrix(n_rows: int, n_cols: int, rows: tuple) -> BinaryMatrix:
    return _freeze(object.__new__(BinaryMatrix), n_rows=n_rows, n_cols=n_cols, rows=rows)


# ---------------------------------------------------------------------------
# alist
# ---------------------------------------------------------------------------

def write_alist(x: "Btu | BinaryMatrix") -> str:
    """Render the matrix in alist format.

    Layout (1-based indices, single spaces, newline-terminated lines):

        n_cols n_rows
        max_col_degree max_row_degree
        <n_cols column degrees>
        <n_rows row degrees>
        <n_cols lines: ascending row indices of each column>
        <n_rows lines: ascending column indices of each row>

    Regular matrices are written without the zero padding some alist
    writers emit for irregular codes.
    """
    mat = _as_matrix(x)
    rows = mat.rows
    cols = mat.columns()
    label = _labels(max(mat.n_rows, mat.n_cols)).__getitem__
    lines = [
        f"{mat.n_cols} {mat.n_rows}",
        f"{max(map(len, cols), default=0)} {max(map(len, rows), default=0)}",
        " ".join(map(str, map(len, cols))),
        " ".join(map(str, map(len, rows))),
    ]
    lines.extend(" ".join(map(label, col)) for col in cols)
    lines.extend(" ".join(map(label, row)) for row in rows)
    return "\n".join(lines) + "\n"


def _labels(n: int) -> list[str]:
    # the 1-based text label of each 0-based index below n
    return list(map(str, range(1, n + 1)))


def _int_fields(line: str, lineno: int) -> list[int]:
    fields = line.split()
    try:
        return list(map(int, fields))
    except ValueError:
        for tok in fields:  # the first field int() refuses, for the message
            try:
                int(tok)
            except ValueError:
                raise MalformedAlist(lineno, f"non-integer field {tok!r}") from None
        raise


def _index_list(line: str, lineno: int, bound: int, declared: int, what: str) -> list[int]:
    # one alist index line, 0-based; zero padding is dropped
    entries = [v for v in _int_fields(line, lineno) if v != 0]
    for v in entries:
        if not 1 <= v <= bound:
            raise MalformedAlist(lineno, f"{what} index {v} outside 1..{bound}")
    if len(set(entries)) != len(entries):
        raise MalformedAlist(lineno, f"duplicate {what} index")
    if len(entries) != declared:
        raise NotRegular(
            f"line {lineno}: {what} list has {len(entries)} entries, degree declares {declared}"
        )
    return [v - 1 for v in entries]


def _index_block(
    lines: list[str], first: int, index: dict[str, int], degrees: list[int], what: str
) -> list[list[int]]:
    """The 0-based index lists on lines first, first + 1, ... (1-based numbers).

    `index` maps each plain label "1".."bound" to its 0-based index. A
    block whose every token is such a label, with the declared count
    per line and no repeats, is read in bulk. Anything else (zero
    padding, a token such as "+3" or "07", or a fault) sends the block
    through `_index_list` line by line, which reads what the bulk pass
    skips and raises the first fault in file order.
    """
    block = lines[first - 1 : first - 1 + len(degrees)]
    bound = len(index)
    try:
        lists = [list(map(index.__getitem__, ln.split())) for ln in block]
    except KeyError:
        pass
    else:
        if list(map(len, lists)) == degrees and list(map(len, map(set, lists))) == degrees:
            return lists
    return [
        _index_list(ln, lineno, bound, declared, what)
        for lineno, ln, declared in zip(range(first, first + len(block)), block, degrees)
    ]


def read_alist(text: str) -> BinaryMatrix:
    """Parse alist text into a BinaryMatrix.

    Tolerates the zero padding used for irregular codes (zeros in index
    lists are ignored). Raises MalformedAlist for structural problems,
    NotRegular when an index list disagrees with its declared degree.
    Of several faulty index lines, the first in file order is reported.
    """
    lines = text.splitlines()
    if len(lines) < 4:
        raise MalformedAlist(len(lines) + 1, "truncated header")
    header = _int_fields(lines[0], 1)
    if len(header) != 2 or header[0] < 1 or header[1] < 1:
        raise MalformedAlist(1, f"expected 'n_cols n_rows', got {lines[0]!r}")
    n_cols, n_rows = header
    maxima = _int_fields(lines[1], 2)
    if len(maxima) != 2:
        raise MalformedAlist(2, f"expected 'max_col_degree max_row_degree', got {lines[1]!r}")
    max_col, max_row = maxima
    col_degrees = _int_fields(lines[2], 3)
    if len(col_degrees) != n_cols:
        raise MalformedAlist(3, f"expected {n_cols} column degrees, got {len(col_degrees)}")
    row_degrees = _int_fields(lines[3], 4)
    if len(row_degrees) != n_rows:
        raise MalformedAlist(4, f"expected {n_rows} row degrees, got {len(row_degrees)}")
    if len(lines) < 4 + n_cols + n_rows:
        raise MalformedAlist(len(lines) + 1, f"truncated: expected {4 + n_cols + n_rows} lines")

    row_index = dict(zip(_labels(n_rows), range(n_rows)))
    col_index = row_index if n_cols == n_rows else dict(zip(_labels(n_cols), range(n_cols)))
    col_lists = _index_block(lines, 5, row_index, col_degrees, "row")
    row_lists = _index_block(lines, 5 + n_cols, col_index, row_degrees, "column")
    if max(col_degrees, default=0) != max_col or max(row_degrees, default=0) != max_row:
        raise NotRegular(
            f"declared maxima {max_col}/{max_row} differ from actual "
            f"{max(col_degrees, default=0)}/{max(row_degrees, default=0)}"
        )
    # both kinds of list are duplicate-free, so they describe one matrix
    # exactly when each column list holds the rows that list the column
    if list(map(sorted, col_lists)) != _columns(row_lists, n_cols):
        raise MalformedAlist(5, "column lists and row lists describe different matrices")
    return _trusted_matrix(n_rows, n_cols, tuple(map(tuple, map(sorted, row_lists))))


def btu_from_matrix(mat: BinaryMatrix) -> Btu:
    """Recover a permutation decomposition of a regular square matrix.

    Peels off perfect matchings greedily, so any r-regular square matrix
    decomposes (an r-regular bipartite graph has a perfect matching, and
    removing it leaves an (r-1)-regular one). Each matching is grown row
    by row in ascending order: a row takes its first free column if it
    has one, and otherwise a shortest augmenting path, found
    breadth-first over alternating edges, so the chain length costs no
    stack. (The first free column is what that search would find at
    depth 1.) Only r - 1 matchings are grown: the 1-regular remainder is
    itself a permutation matrix, and the r-th matching would give each
    row its one column, free since no other row holds it; so the last
    constituent is read off as each row's one remaining column. The
    constituent order is the greedy extraction order,
    which need not be the order some original BTU was built with.
    Raises DecompositionFailed for non-square, irregular or all-zero
    matrices.
    """
    m = mat.n_rows
    if mat.n_cols != m:
        raise DecompositionFailed(f"matrix is {mat.n_rows}x{mat.n_cols}, not square")
    degrees = set(map(len, mat.rows))
    col_counts = Counter(chain.from_iterable(mat.rows))
    col_degrees = set(col_counts.values())
    if len(col_counts) < m:
        col_degrees.add(0)  # some column has no ones
    if len(degrees) != 1 or degrees != col_degrees:
        raise DecompositionFailed("matrix is not regular")
    r = degrees.pop()
    if r == 0:
        raise DecompositionFailed("matrix has no ones")
    remaining = list(map(list, mat.rows))
    perms = []
    for _ in range(r - 1):
        match_of_col = [-1] * m  # col -> row
        image = [-1] * m  # row -> col
        for row in range(m):
            for c in remaining[row]:
                if match_of_col[c] == -1:
                    image[row] = c
                    match_of_col[c] = row
                    break
            else:
                _augment(row, remaining, match_of_col, image, len(perms))
        perms.append(Permutation(image))
        for row in range(m):
            remaining[row].remove(image[row])
    perms.append(Permutation([row[0] for row in remaining]))  # the 1-regular remainder
    return Btu(tuple(perms))


def _augment(row: int, remaining: list[list[int]], match_of_col: list[int], image: list[int], extraction: int) -> None:
    # match the unmatched `row` along a shortest augmenting path
    via: dict[int, int] = {}  # column -> the row it was reached from
    frontier = [row]
    free = -1
    for x in frontier:  # grows while it is walked: breadth-first
        for c in remaining[x]:
            if c not in via:
                via[c] = x
                if match_of_col[c] == -1:
                    free = c
                    break
                frontier.append(match_of_col[c])
        if free != -1:
            break
    if free == -1:
        raise DecompositionFailed(f"no perfect matching found at extraction {extraction}")
    while free != -1:  # flip the path back to `row`, whose old column is -1
        x = via[free]
        previous = image[x]
        image[x] = free
        match_of_col[free] = x
        free = previous


# ---------------------------------------------------------------------------
# DIMACS edge format
# ---------------------------------------------------------------------------

def write_dimacs(x: "Btu | BinaryMatrix") -> str:
    """DIMACS edge format of the bipartite graph of a square matrix.

    Left (row) vertices are 1..m, right (column) vertices m+1..2m;
    header is "p edge <vertices> <edges>" and edge lines are sorted.
    The format carries no side sizes, so `read_dimacs` assumes m per
    side: a non-square matrix raises ValueError instead of being
    written as a file that reads back as another matrix.
    """
    mat = _as_matrix(x)
    m = mat.n_rows
    if mat.n_cols != m:
        raise ValueError(f"DIMACS needs a square matrix, got {mat.n_rows}x{mat.n_cols}")
    rows = mat.rows
    cols = list(chain.from_iterable(rows))  # the column of each edge, in output order
    n_edges = len(cols)
    ends = cols * 2  # edge by edge, its left vertex and its right vertex
    ends[0::2] = chain.from_iterable(map(repeat, range(1, m + 1), map(len, rows)))
    ends[1::2] = map(list(range(m + 1, 2 * m + 1)).__getitem__, cols)
    return f"p edge {2 * m} {n_edges}\n" + ("e %d %d\n" * n_edges) % tuple(ends)


def read_dimacs(text: str) -> BinaryMatrix:
    """Parse DIMACS edge text written by write_dimacs back into a matrix.

    Expects the bipartite convention above: one problem line, an even
    vertex count 2m >= 2 with every edge joining 1..m to m+1..2m, each edge
    listed once (in either orientation). Anything else, a non-integer
    field included, raises MalformedDimacs.

    The layout `write_dimacs` emits is read in one pass over
    `text.split()`; any other text goes to the line reader
    `_read_dimacs_lines`, so every error and line number is the line
    reader's. The pass takes the text when, with E the declared edge
    count: there are 4 + 3E tokens, "p edge 2m E" with m <= E in plain
    digits first; the tokens 5, 8, ... are labels 1..m and the tokens
    6, 9, ... labels m+1..2m; "\\ne " occurs E times; `splitlines` gives
    E + 1 lines; and no edge repeats. Then each record is one line: the
    E "\\ne " start E distinct lines with the token "e", none of them
    line 1; as only the tokens 4, 7, ... can be "e", these starts are
    exactly those E tokens, in order; and as there are E + 1 lines in
    all, line 1 holds the 4 header tokens and every other line one edge
    record "e u v". The line reader reads the same records and, as they
    join left to right once each, the same matrix.
    """
    mat = _read_dimacs_bulk(text)
    return _read_dimacs_lines(text) if mat is None else mat


def _read_dimacs_bulk(text: str) -> BinaryMatrix | None:
    # `read_dimacs`'s one pass; None where the text is not in its layout
    tokens = text.split()
    n_edges = len(tokens) // 3 - 1
    if not (
        tokens[:2] == ["p", "edge"]
        and len(tokens) % 3 == 1
        and tokens[3] == str(n_edges)
        and text.count("\ne ") == n_edges
        and len(text.splitlines()) == n_edges + 1
    ):
        return None
    try:
        m = int(tokens[2]) // 2
        # m <= E keeps the label tables below the text's size
        if not 1 <= m <= n_edges or tokens[2] != str(2 * m):
            return None
        label = _labels(2 * m)
        left = dict(zip(label[:m], range(m))).__getitem__
        right = dict(zip(label[m:], range(m))).__getitem__
        rows: list[set[int]] = [set() for _ in range(m)]
        for u, v in zip(map(left, tokens[5::3]), map(right, tokens[6::3])):
            rows[u].add(v)
    except (KeyError, ValueError):  # a label that is not one, or a vertex count that int() refuses
        return None
    if sum(map(len, rows)) != n_edges:  # an edge repeats
        return None
    return _trusted_matrix(m, m, tuple(map(tuple, map(sorted, rows))))


def _read_dimacs_lines(text: str) -> BinaryMatrix:
    # `read_dimacs` record by record, for any layout
    n_vertices = None
    problem_line = 0
    edges: dict[tuple[int, int], int] = {}  # (low, high) endpoint -> line
    declared_edges = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields:
            continue
        kind = fields[0]
        if kind == "e":
            if len(fields) != 3:
                raise MalformedDimacs(f"line {lineno}: bad edge line {raw!r}")
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise MalformedDimacs(f"line {lineno}: non-integer field in {raw!r}") from None
            edge = (u, v) if u < v else (v, u)
            first = edges.setdefault(edge, lineno)
            if first != lineno:
                raise MalformedDimacs(f"line {lineno}: edge {edge} repeats line {first}")
        elif kind == "p":
            if len(fields) != 4 or fields[1] != "edge":
                raise MalformedDimacs(f"line {lineno}: bad problem line {raw!r}")
            if problem_line:
                raise MalformedDimacs(f"line {lineno}: second problem line (first on line {problem_line})")
            try:
                n_vertices, declared_edges = int(fields[2]), int(fields[3])
            except ValueError:
                raise MalformedDimacs(f"line {lineno}: non-integer field in {raw!r}") from None
            if n_vertices < 0 or declared_edges < 0:
                raise MalformedDimacs(f"line {lineno}: negative count in {raw!r}")
            problem_line = lineno
        elif not kind.startswith("c"):  # a comment is any line that starts with c
            raise MalformedDimacs(f"line {lineno}: unknown record {kind!r}")
    if n_vertices is None:
        raise MalformedDimacs("missing problem line")
    if n_vertices == 0:
        raise MalformedDimacs("vertex count 0; a matrix needs m >= 1 vertices per side")
    if n_vertices % 2 != 0:
        raise MalformedDimacs(f"vertex count {n_vertices} is odd; expected a 2m bipartite layout")
    if len(edges) != declared_edges:
        raise MalformedDimacs(f"declared {declared_edges} edges, found {len(edges)}")
    m = n_vertices // 2
    rows: list[list[int]] = [[] for _ in range(m)]
    for (u, v), lineno in edges.items():
        if not (1 <= u <= m < v <= 2 * m):
            raise MalformedDimacs(
                f"line {lineno}: edge ({u}, {v}) does not join left 1..{m} to right {m + 1}..{2 * m}"
            )
        rows[u - 1].append(v - m - 1)
    return _trusted_matrix(m, m, tuple(map(tuple, map(sorted, rows))))


# ---------------------------------------------------------------------------
# dense 0/1 text
# ---------------------------------------------------------------------------

def write_dense(x: "Btu | BinaryMatrix") -> str:
    """Debug view: one line of '0'/'1' characters per matrix row."""
    mat = _as_matrix(x)
    lines = []
    for row in mat.rows:
        cells = ["0"] * mat.n_cols
        for c in row:
            cells[c] = "1"
        lines.append("".join(cells))
    return "\n".join(lines) + "\n"


def read_dense(text: str) -> BinaryMatrix:
    lines = [(lineno, line) for lineno, line in enumerate(text.splitlines(), start=1) if line.strip()]
    if not lines:
        raise ValueError("empty dense matrix")
    width = len(lines[0][1])
    rows = []
    for lineno, line in lines:
        if len(line) != width:
            raise ValueError(f"line {lineno}: ragged row ({len(line)} != {width})")
        if set(line) - {"0", "1"}:
            raise ValueError(f"line {lineno}: characters other than 0/1")
        rows.append(tuple(c for c, ch in enumerate(line) if ch == "1"))
    return _trusted_matrix(len(lines), width, tuple(rows))
