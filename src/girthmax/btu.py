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
debugging. Alist index lines of plain labels are read in one pass per
block, whatever whitespace parts them, and a DIMACS file in the
writer's own layout in one pass over its tokens; any other text is read
line by line, with the same errors.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, count, islice, repeat
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


# Matrices and permutations of objects that are already validated skip
# the validating constructor: `rows` must be a tuple of sorted,
# duplicate-free tuples of in-range indices, and `image` a bijection of
# 0..len(image)-1.

def _trusted_matrix(n_rows: int, n_cols: int, rows: tuple) -> BinaryMatrix:
    return _freeze(object.__new__(BinaryMatrix), n_rows=n_rows, n_cols=n_cols, rows=rows)


def _trusted_permutation(image: Iterable[int]) -> Permutation:
    return _freeze(object.__new__(Permutation), image=tuple(image))


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
    cols = _columns(rows, mat.n_cols)
    label = _labels(max(mat.n_rows, mat.n_cols)).__getitem__
    return (
        f"{mat.n_cols} {mat.n_rows}\n"
        f"{max(map(len, cols))} {max(map(len, rows))}\n"
        + " ".join(map(str, map(len, cols))) + "\n"
        + " ".join(map(str, map(len, rows))) + "\n"
        + _index_lines(cols, label)
        + _index_lines(rows, label)
    )


def _index_lines(lists: Sequence[Sequence[int]], label) -> str:
    # one line of 1-based labels per list; one format for a block of one degree d >= 1
    d = len(lists[0])
    if d and set(map(len, lists)) == {d}:
        return ("%s " * (d - 1) + "%s\n") * len(lists) % tuple(map(label, chain.from_iterable(lists)))
    return "\n".join(map(" ".join, map(map, repeat(label), lists))) + "\n"


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


def read_alist(text: str) -> BinaryMatrix:
    """Parse alist text into a BinaryMatrix.

    Tolerates the zero padding used for irregular codes (zeros in index
    lists are ignored). Raises MalformedAlist for structural problems,
    NotRegular when an index list disagrees with its declared degree.
    Of several faulty index lines, the first in file order is reported.
    Index lines that hold only plain labels, whatever whitespace parts
    them, are read in one pass per block (`_read_alist_bulk`), and any
    other text line by line, which raises every error.
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
    col_degrees = _int_fields(lines[2], 3)
    if len(col_degrees) != n_cols:
        raise MalformedAlist(3, f"expected {n_cols} column degrees, got {len(col_degrees)}")
    row_degrees = _int_fields(lines[3], 4)
    if len(row_degrees) != n_rows:
        raise MalformedAlist(4, f"expected {n_rows} row degrees, got {len(row_degrees)}")
    if len(lines) < 4 + n_cols + n_rows:
        raise MalformedAlist(len(lines) + 1, f"truncated: expected {4 + n_cols + n_rows} lines")
    actual = [max(col_degrees), max(row_degrees)]
    rows = _read_alist_bulk(lines, col_degrees, row_degrees) if maxima == actual else None
    if rows is None:  # line by line
        col_lists = list(map(_index_list, lines[4:], count(5), repeat(n_rows), col_degrees, repeat("row")))
        row_lists = list(
            map(_index_list, lines[4 + n_cols :], count(5 + n_cols), repeat(n_cols), row_degrees, repeat("column"))
        )
        if maxima != actual:
            raise NotRegular("declared maxima {}/{} differ from actual {}/{}".format(*maxima, *actual))
        # both kinds of list are duplicate-free, so they describe one matrix
        # exactly when each column list holds the rows that list the column
        if list(map(sorted, col_lists)) != _columns(row_lists, n_cols):
            raise MalformedAlist(5, "column lists and row lists describe different matrices")
        rows = tuple(map(tuple, map(sorted, row_lists)))
    return _trusted_matrix(n_rows, n_cols, rows)


def _read_alist_bulk(lines: list[str], col_degrees: list[int], row_degrees: list[int]) -> tuple | None:
    """The rows of an alist text whose index lines hold only labels; else None.

    Each index line is split at whitespace, as the line reader splits
    it, and must hold its declared count of pieces, each a label
    "1".."bound": a "0", "+3", "07" or "x" gives None. A block whose
    first line has the wrong count gives None before the rest of it is
    split, so a zero-padded file costs one line's split. Taken as (row,
    column) pairs, the column lists give the rows `_columns(cols,
    n_rows)`, each ascending; the text is taken when they equal the
    file's rows and no row repeats a column. Then the rows are ascending
    and duplicate-free, and the column lists are duplicate-free (a row
    repeated in column c would repeat c in that row) and hold the same
    pairs; every index is in range and every count declared. So the line
    reader passes every line, finds the lists consistent, and returns
    these rows.
    """
    n_cols, n_rows = len(col_degrees), len(row_degrees)
    label = _labels(max(n_rows, n_cols))
    row_index = dict(zip(label, range(n_rows))).__getitem__
    col_index = row_index if n_cols == n_rows else dict(zip(label, range(n_cols))).__getitem__
    blocks = []
    try:
        for first, degrees, index in ((4, col_degrees, row_index), (4 + n_cols, row_degrees, col_index)):
            # a padded block (zeros after each list) shows on its first line
            if len(lines[first].split()) != degrees[0]:
                return None
            fields = list(map(str.split, lines[first : first + len(degrees)]))
            if list(map(len, fields)) != degrees:
                return None
            it = map(index, chain.from_iterable(fields))
            d = degrees[0]
            regular = degrees.count(d) == len(degrees)
            blocks.append(tuple(zip(*[it] * d) if regular else map(tuple, map(islice, repeat(it), degrees))))
    except KeyError:
        return None
    cols, rows = blocks
    if tuple(map(tuple, _columns(cols, n_rows))) != rows or list(map(len, map(set, rows))) != row_degrees:
        return None
    return rows


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

    The constituents and the `Btu` skip their validating constructors,
    whose checks cannot fail here. Each grown matching gives every row
    one column and no column two rows, so it is a bijection of 0..m-1.
    After r - 1 of them the remainder is 1-regular, so it is a
    permutation too. Each extraction removes its ones from `remaining`,
    so no two constituents share a position (they are compatible), all
    act on m points, and r <= m, since a row holds r distinct columns.
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
    via, seen = [0] * m, [-1] * m  # `_augment`'s scratch, shared by its searches
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
                _augment(row, remaining, match_of_col, image, via, seen, len(perms))
        perms.append(_trusted_permutation(image))
        for row in range(m):
            remaining[row].remove(image[row])
    perms.append(_trusted_permutation(row[0] for row in remaining))  # the 1-regular remainder
    return _freeze(object.__new__(Btu), perms=tuple(perms))


def _augment(
    row: int, remaining: list, match_of_col: list, image: list, via: list, seen: list, extraction: int
) -> None:
    # match the unmatched `row` along a shortest augmenting path; a column
    # reached from row x gets via[c] = x and this search's key in seen[c]
    key = extraction * len(seen) + row  # a row searches once per extraction
    frontier = [row]
    free = -1
    for x in frontier:  # grows while it is walked: breadth-first
        for c in remaining[x]:
            if seen[c] != key:
                seen[c] = key
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
