"""The chain-complex text format: its reader and its writer.

Format (line oriented, '#' starts a comment):

    field <p|q>
    gen <name> <degree:int> <filtration:int>
    bnd <source-name> <coeff> <target-name> [<coeff> <target-name> ...]

Coefficients use the field's text form (decimal residue over GF(p),
``num`` or ``num/den`` over the rationals).  Repeated bnd lines for one
source accumulate.  The optional ``field`` line records the field the
coefficients were written in (a prime, or ``q``); a file may hold at most
one, and it must name the field the file is read over, since a GF(3)
residue such as ``2`` is a different number over GF(5).

The simplicial half of the text formats (``simp`` files, point clouds, the
Rips filtration and its writer) is in :mod:`~spectra_persist.simplicial`,
so a command that reads a chain complex never compiles it, and ``rips``
compiles no chain reader.  This module still serves each of those names on
first use (PEP 562), loading that module then.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from .errors import ParseError, UsageError, shorten
from .fields import FieldSpec, Scalar, _data_lines, field_from_text, parse_int

# complexes (and with it linalg) is imported by the function that builds a
# complex, so a process loads it only when it reads one
if TYPE_CHECKING:
    from .complexes import FilteredChainComplex

_MOVED = frozenset({
    "FilteredSimplicialComplex", "PointCloud", "_real", "make_simplicial",
    "parse_point_cloud", "parse_simplicial", "rips", "serialize_simplicial",
    "simplicial_to_chain"})


def __getattr__(name: str):
    if name not in _MOVED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import simplicial
    value = globals()[name] = getattr(simplicial, name)
    return value


def parse_complex(text: str, field: FieldSpec) -> FilteredChainComplex:
    """Parse and validate a chain complex; errors carry line numbers.

    Two passes, one ``bnd`` resolver.  The first reads the ``field`` and
    ``gen`` lines, so every error they hold is raised before any ``bnd``
    error, and places each ``bnd`` line it can: one whose source and
    targets are already defined and whose tokens are good.  It keeps of any
    other ``bnd`` line only its number and text, and the second pass hands
    those lines, in file order, to the same resolver, which raises the first
    error among them at its line.  A line is placed whole or not at all, and
    :func:`~spectra_persist.linalg.canonical` sorts and sums each column, so
    the pass that places a line cannot change the column.  The first pass
    reads each line's words from :func:`~spectra_persist.fields._data_lines`,
    one ``split`` a line, and each line is held once: the splitter frees a
    line once the first pass has read it, a ``bnd`` line left for the second
    pass is kept as the text of its words, and the second pass pops each
    kept line, and splits it, as it reads it, so beside the caller's text
    the reader holds only one chunk's unread lines and the ``bnd`` lines it
    has yet to place.

    Each distinct boundary entry is one tuple: the ``(row, coeff)`` of a
    target and a coefficient token is made when first met, kept in a dict by
    target degree, token and the target's name (the generator's own name
    string, so the key adds none), and shared by every column that holds
    it.  A later entry of that target and token from a source of the same
    degree is one lookup: the target was found, and its degree checked, when
    the entry was made.  Any other entry runs every check in turn: its
    coefficient, its target, the target's degree.  So the cache grows with
    the distinct entries, not with the tokens times the targets, and it is
    dropped before the columns are sorted.  The columns stay separate lists
    and the tuples are immutable, so no caller can see the sharing.

    The columns are built canonical: each coefficient comes from
    ``field.parse`` or ``field.add``, each row is a generator one degree
    below, and ``canonical`` sorts each column's ``(row, coeff)`` list once,
    summing repeated rows and dropping zeros in the same step.  So the
    complex adopts them without the constructor's copy and entry check;
    ``ensure_valid`` still runs, since this is where a pipe's text is
    trusted.  Over Q ``field.parse`` gives a whole coefficient as an
    ``int``, which the column code reads as it reads a ``Fraction``.
    """
    from .complexes import FilteredChainComplex, Generator
    from .linalg import canonical
    gens: dict[str, Generator] = {}
    by_degree: dict[int, list[Generator]] = {}
    boundary: dict[int, list[list]] = {}
    pending: list[tuple[int, str]] = []  # (line number, text) of each bnd line not yet placed
    written: Optional[FieldSpec] = None
    ints: dict[str, int] = {}  # each distinct degree or filtration token is parsed once
    # each distinct coefficient token is parsed once; a bad one raises where first met
    coeffs: dict[str, Scalar] = {}
    zeros = False  # whether some coefficient token is zero
    # target degree -> coefficient token -> target name -> the shared (gid, coeff)
    # entry, keyed by the generator's own name, so the key adds no string
    entries: dict[int, dict[str, dict[str, tuple]]] = {}

    def place(line_no: int, toks: list) -> None:
        """Append a bnd line's entries to its source's column, or raise its first error."""
        nonlocal zeros
        if len(toks) < 4 or len(toks) % 2 != 0:
            raise ParseError(
                "expected 'bnd <source> <coeff> <target> [<coeff> <target> ...]'", line_no)
        source = toks[1]
        src = gens.get(source)
        if src is None:
            raise ParseError(f"boundary for unknown generator {shorten(source)!r}", line_no)
        n = src.degree - 1
        by_token = entries.get(n)
        if by_token is None:
            by_token = entries[n] = {}
        row = []
        for k in range(2, len(toks), 2):
            tok = toks[k]
            target = toks[k + 1]
            shared = by_token.get(tok)
            if shared is None:
                coeff = coeffs.get(tok)
                if coeff is None:
                    try:
                        coeff = field.parse(tok)
                    except UsageError as exc:
                        raise ParseError(str(exc), line_no) from None
                    coeffs[tok] = coeff
                    zeros = zeros or field.is_zero(coeff)
                shared = by_token[tok] = {}
            else:
                # a hit: this target passed every check at this degree when first met
                entry = shared.get(target)
                if entry is not None:
                    row.append(entry)
                    continue
            tgt = gens.get(target)
            if tgt is None:
                raise ParseError(
                    f"boundary references unknown generator {shorten(target)!r}", line_no)
            if tgt.degree != n:
                raise ParseError(
                    f"boundary of {shorten(source)!r} (degree {src.degree}) cannot hit "
                    f"{shorten(target)!r} (degree {tgt.degree})", line_no)
            entry = shared[tgt.name] = (tgt.gid, coeffs[tok])
            row.append(entry)
        boundary[src.degree][src.gid] += row

    for line_no, toks in _data_lines(text):
        kind = toks[0]
        if kind == "bnd":  # most lines of a complex, so tested first
            try:
                place(line_no, toks)
            except ParseError:
                pending.append((line_no, " ".join(toks)))
        elif kind == "gen":
            if len(toks) != 4:
                raise ParseError("expected 'gen <name> <degree> <filtration>'", line_no)
            name = toks[1]
            if name in gens:
                raise ParseError(f"duplicate generator {shorten(name)!r}", line_no)
            try:
                degree = ints.get(toks[2])
                if degree is None:
                    degree = ints[toks[2]] = parse_int(toks[2])
                filtration = ints.get(toks[3])
                if filtration is None:
                    filtration = ints[toks[3]] = parse_int(toks[3])
            except ValueError:
                raise ParseError("degree and filtration must be integers", line_no) from None
            g = Generator(len(by_degree.setdefault(degree, [])), degree, filtration, name)
            by_degree[degree].append(g)
            boundary.setdefault(degree, []).append([])
            gens[name] = g
        elif kind == "field":
            if len(toks) != 2:
                raise ParseError("expected 'field <p|q>'", line_no)
            try:
                declared = field_from_text(toks[1])
            except UsageError as exc:
                raise ParseError(str(exc), line_no) from None
            if written is not None:
                raise ParseError(
                    f"second field line names {declared}, the first named {written}",
                    line_no)
            if declared != field:
                raise ParseError(
                    f"complex is written over {declared}, not the requested {field}",
                    line_no)
            written = declared
        else:
            raise ParseError(f"unknown directive {shorten(kind)!r}", line_no)

    pending.reverse()  # popped in file order, so each line is freed once read
    while pending:
        line_no, line = pending.pop()
        place(line_no, line.split())
    entries.clear()  # the shared tuples live on in the columns
    for cols in boundary.values():
        for gid, col in enumerate(cols):
            if col:
                cols[gid] = canonical(field, col, zeros)

    c = FilteredChainComplex._adopt(field, by_degree, boundary)
    c.ensure_valid()
    return c


def serialize_complex(c: FilteredChainComplex, comments: Sequence[str] = ()) -> str:
    """Canonical text form: the field line, then generators sorted by
    (degree, filtration, id).  A ``UsageError`` refuses text ``parse_complex``
    could not read back: a comment with a line break, or a label that is not
    one token free of ``#`` or repeats another (a name may be a default label)."""
    for comment in comments:
        if "\n" in comment or "\r" in comment:
            raise UsageError(f"cannot write comment {shorten(comment)!r}: it holds a line break")
    lines = [f"# {comment}" for comment in comments]
    lines.append(f"field {c.field.token()}")
    ordered = sorted(c.all_generators(), key=lambda g: (g.degree, g.filtration, g.gid))
    labels: set = set()
    for g in ordered:
        label = g.label()
        if "#" in label or label.split() != [label] or label in labels:
            raise UsageError(f"cannot write label {shorten(label)!r}: not a unique token free of #")
        labels.add(label)
        lines.append(f"gen {label} {g.degree} {g.filtration}")
    texts: dict = {}  # each distinct coefficient is formatted once
    for g in ordered:
        col = c.column(g.degree, g.gid)
        if not col:
            continue
        below = c.gens(g.degree - 1)
        parts = [f"bnd {g.label()}"]
        # entry order must survive the gid reassignment a reparse performs
        for r, v in sorted(col, key=lambda rv: (below[rv[0]].filtration, rv[0])):
            text = texts.get(v)
            if text is None:
                text = texts[v] = c.field.format(v)
            parts.append(text)
            parts.append(below[r].label())
        lines.append(" ".join(parts))
    lines.append("")  # the final newline, as in serialize_simplicial
    return "\n".join(lines)
