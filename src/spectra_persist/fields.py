"""Exact coefficient arithmetic over GF(p) and the rationals.

Scalars are plain Python values: canonical residues (``int`` in ``[0, p)``)
for a prime field and ``fractions.Fraction`` for the rationals, or an
``int`` for a whole coefficient read from text.  The two compare and hash
by value, and the column code reads ``.numerator`` and ``.denominator``,
which both have.  A field object supplies the arithmetic and the canonical
form; values are never coerced between fields, a mismatch is a
:class:`UsageError`.  ``FieldSpec`` is the union of the two field types;
column code that depends on how a field holds its scalars is in
:mod:`~spectra_persist.linalg`.

``fractions`` (which loads ``decimal`` and ``numbers`` with it) is imported
by the first call that makes or tests for a ``Fraction``: ``normalize``,
``check``, ``inv``, ``one``, ``zero``, ``parse`` of ``a/b`` and ``format`` of
a ``Fraction``.  ``RationalField()`` itself, ``parse`` of a whole token,
``format`` of an ``int`` and the arithmetic on ints need none, so a process
that only moves whole coefficients over Q never imports it, and one over
GF(p) never does.

The text readers of the package share the line splitting here:
:func:`numbered_lines` numbers lines as an editor or ``wc -l`` does, a
chunk of the text at a time, and :func:`_data_lines` splits each of them
once into its words, its comment cut and blank lines skipped.
``_first_word`` reads the first word of the first data line, which tells a
``simp`` file from a chain complex, in place.  The writers share
:func:`line_batches`, which joins their lines a batch at a time.

The fields, like every record type of the package, are ``NamedTuple``
subclasses, immutable and equal by value.  One with checks runs them in
``__new__``; :func:`checked` sends ``_make``, copy and pickle through it.
"""
from __future__ import annotations

import re
from itertools import islice
from typing import TYPE_CHECKING, NamedTuple, Union

from .errors import UsageError, shorten

if TYPE_CHECKING:
    from fractions import Fraction
else:
    Fraction = None  # fractions.Fraction once _fraction() has imported it

Scalar = Union[int, "Fraction"]


def parse_int(token: str) -> int:
    """``int(token)`` restricted to ASCII ``[+-]?[0-9]+``.

    ``int`` alone also takes ``1_000``, surrounding blanks and non-ASCII
    digits; anything outside the pattern raises ValueError, as ``int`` does
    for bad text.
    """
    if not (token.isascii()
            and (token.isdigit() or token[:1] in "+-" and token[1:].isdigit())):
        raise ValueError(f"invalid integer {token!r}")
    return int(token)


# numbered_lines splits its text about this many characters at a time
_CHUNK = 1 << 16


def numbered_lines(text: str):
    r"""``(line number, line)`` of each line of ``text``, from 1.

    A line ends at ``\n``, ``\r\n`` or ``\r`` only, so the numbers are the
    ones an editor or ``wc -l`` shows: ``str.splitlines`` also breaks at a
    form feed, U+2028 and other separators a line may hold.  The lines are
    those of ``_newlines(text).split("\n")``, the ``""`` after a final line
    break included.

    The text is split a chunk at a time: at least ``_CHUNK`` characters, cut
    just after a ``\n`` (so never inside a ``\r\n``), or the rest of the
    text.  Each chunk's lines are consumed as they are read, so a reader
    frees a line once it has read it, and holds beside the caller's text at
    most the unread lines of one chunk: never a second copy of the text or
    a list of all its lines.
    """
    line_no = start = 0
    while True:
        cut = text.find("\n", start + _CHUNK)
        lines = _newlines(text[start:] if cut < 0 else text[start:cut + 1]).split("\n")
        if cut >= 0:
            lines.pop()  # the "" after the chunk's last line break
        lines.reverse()
        while lines:  # popped in order, so a line is freed once read
            line_no += 1
            yield line_no, lines.pop()
        if cut < 0:
            return
        start = cut + 1


def line_batches(lines):
    r"""The text of ``lines``, each ended by ``\n``, in pieces of up to 4,096
    lines as they come, so a writer never holds a long output's lines whole."""
    lines = iter(lines)
    while batch := list(islice(lines, 4096)):
        yield "\n".join(batch) + "\n"


def _newlines(text: str) -> str:
    r"""``text`` with each ``\r\n`` and ``\r`` made ``\n``, copied only when it
    holds a ``\r``."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _data_lines(text: str):
    """(line number, words) of each line that holds a word before its
    comment: one ``split`` a line, and a comment cut only from a line that
    holds ``#``."""
    for line_no, line in numbered_lines(text):
        if "#" in line:
            line = line[:line.index("#")]
        words = line.split()
        if words:
            yield line_no, words


# lines each blank or only a comment, through their line ends
_NO_DATA = re.compile(r"(?:[^\S\r\n]*(?:#[^\r\n]*)?(?:\r\n|\r|\n))*")
_LINE_END = re.compile(r"[\r\n]")


def _first_word(text: str) -> str | None:
    """The first word of ``text``'s first data line, as ``_data_lines`` reads
    it, found in place: no line after that one is split, and nothing of the
    text but that line is copied."""
    start = _NO_DATA.match(text).end()
    end = _LINE_END.search(text, start)
    words = text[start:len(text) if end is None else end.start()].split("#", 1)[0].split()
    return words[0] if words else None


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson & Webster, "Strong pseudoprimes to twelve prime bases", 2017);
# the bound itself is the least strong pseudoprime to all of them.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Exact primality for 0 <= p < _MR_BOUND, in time polynomial in its digits."""
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def is_int(a) -> bool:
    """True for an ``int`` that is not a ``bool``."""
    return isinstance(a, int) and not isinstance(a, bool)


def checked(record: type) -> type:
    """Class decorator for a NamedTuple subclass that checks its values in
    ``__new__``: ``_make`` (so ``_replace``), copy and pickle build through it."""
    record._make = classmethod(lambda cls, values: cls(*values))
    record.__reduce__ = lambda self: (type(self), tuple(self))
    return record


@checked
class PrimeField(NamedTuple("PrimeField", [("p", int)])):
    __slots__ = ()
    zero = 0
    one = 1

    def __new__(cls, p: int):
        if p >= _MR_BOUND:
            raise UsageError(f"modulus {shorten(str(p))} is too large (at most {_MR_BOUND - 1})")
        if not _is_prime(p):
            raise UsageError(f"modulus {p} is not prime")
        return super().__new__(cls, p)

    def normalize(self, a) -> int:
        if not is_int(a):
            raise UsageError(f"{a!r} is not a GF({self.p}) scalar")
        return a % self.p

    def check(self, a) -> int:
        if not is_int(a) or not 0 <= a < self.p:
            raise UsageError(f"{a!r} is not a canonical GF({self.p}) residue")
        return a

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF({self.p})")
        return pow(a, -1, self.p)

    def is_zero(self, a: int) -> bool:
        return a % self.p == 0

    def parse(self, text: str) -> int:
        try:
            return parse_int(text) % self.p
        except ValueError:
            raise UsageError(f"{shorten(text)!r} is not a GF({self.p}) scalar") from None

    def format(self, a: int) -> str:
        return str(a % self.p)

    def token(self) -> str:
        return str(self.p)

    def __str__(self) -> str:
        return f"GF({self.p})"


def _fraction() -> type:
    """``fractions.Fraction``, imported and bound as ``Fraction`` on the first
    call, with ``RationalField.zero`` and ``one`` set in place of their
    :class:`_OnFirstRead` stand-ins."""
    global Fraction
    from fractions import Fraction
    RationalField.zero, RationalField.one = Fraction(0), Fraction(1)
    return Fraction


class _OnFirstRead:
    """A ``RationalField`` class attribute that is a ``Fraction``: the first
    read calls :func:`_fraction`, which sets the value over this one."""

    def __set_name__(self, owner: type, name: str):
        self.name = name

    def __get__(self, obj, owner: type):
        _fraction()
        return getattr(owner, self.name)


class RationalField(NamedTuple("RationalField", [])):
    # Fraction keeps lowest terms and a positive denominator, which is
    # exactly the canonical form; ints are accepted and promoted.  A whole
    # coefficient read from text stays an int, which the arithmetic, is_zero
    # and format take as they are.
    __slots__ = ()
    zero = _OnFirstRead()
    one = _OnFirstRead()

    def __bool__(self) -> bool:  # a field is true, though it has no fields
        return True

    def normalize(self, a) -> Fraction:
        fraction = Fraction or _fraction()
        if type(a) is fraction:  # immutable and already in lowest terms
            return a
        if not (is_int(a) or isinstance(a, fraction)):
            raise UsageError(f"{a!r} is not a rational scalar")
        return fraction(a)

    def check(self, a) -> Fraction:
        return self.normalize(a)

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return a + b

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return a * b

    def neg(self, a: Scalar) -> Scalar:
        return -a

    def inv(self, a: Scalar) -> Fraction:
        return 1 / (Fraction or _fraction())(a)

    def is_zero(self, a: Scalar) -> bool:
        return a == 0

    def parse(self, text: str) -> Scalar:
        """A whole value as an ``int``, any other as a ``Fraction``."""
        # only ASCII [+-]?digits or [+-]?digits/digits: Fraction() alone also
        # takes 1_000, non-ASCII digits, decimals and exponents
        num, slash, den = text.partition("/")
        try:
            if not slash:
                return parse_int(num)
            if den[:1] in ("+", "-"):
                raise ValueError(text)
            value = (Fraction or _fraction())(parse_int(num), parse_int(den))
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"{shorten(text)!r} is not a rational scalar") from None
        return value.numerator if value.denominator == 1 else value

    def format(self, a: Scalar) -> str:
        return str(a) if type(a) is int else str(self.normalize(a))

    def token(self) -> str:
        return "q"

    def __str__(self) -> str:
        return "Q"


FieldSpec = Union[PrimeField, RationalField]


def field_from_text(token: str) -> FieldSpec:
    """Build a field from a CLI token: a prime, or ``q`` for the rationals."""
    tok = token.strip().lower()
    if tok in ("q", "rational", "rationals"):
        return RationalField()
    try:
        p = parse_int(tok)
    except ValueError:
        raise UsageError(f"unknown field {shorten(token)!r} (expected a prime or 'q')") from None
    return PrimeField(p)

