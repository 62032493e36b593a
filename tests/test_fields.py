import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from spectra_persist import fields
from spectra_persist.errors import UsageError
from spectra_persist.fields import (_MR_BOUND, FieldSpec, PrimeField, RationalField,
                                    _is_prime, _newlines, field_from_text, numbered_lines,
                                    parse_int)

SRC = Path(__file__).resolve().parent.parent / "src"
GF2 = PrimeField(2)
GF5 = PrimeField(5)
Q = RationalField()


def test_add_mod_five():
    assert GF5.add(GF5.check(2), GF5.check(4)) == 1


def test_add_rationals():
    assert Q.add(Q.check(Fraction(2, 3)), Q.check(Fraction(1, 6))) == Fraction(5, 6)


def test_mul_gf2_identity():
    assert GF2.mul(GF2.check(1), GF2.check(1)) == 1


def test_inv_mod_five():
    assert GF5.inv(2) == 3


def test_inv_rational():
    assert Q.inv(Fraction(-3, 4)) == Fraction(-4, 3)


def test_inv_gf2():
    assert GF2.inv(1) == 1


def test_inv_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        GF5.inv(0)
    with pytest.raises(ZeroDivisionError):
        Q.inv(Fraction(0))


def test_composite_modulus_rejected():
    with pytest.raises(UsageError):
        PrimeField(6)
    with pytest.raises(UsageError):
        PrimeField(1)


def test_primality_is_exact_and_fast_on_large_moduli():
    def trial_division(n):
        return n >= 2 and all(n % f for f in range(2, int(n ** 0.5) + 1))
    assert [n for n in range(20000) if _is_prime(n)] == \
        [n for n in range(20000) if trial_division(n)]
    # Carmichael numbers and strong pseudoprimes to the smallest bases
    for composite in (561, 41041, 825265, 2047, 3215031751, 3825123056546413051,
                      2**61 + 1):
        assert not _is_prime(composite), composite
    # the bound fools every base, which is why PrimeField stops below it
    assert _MR_BOUND == 1287836182261 * 2575672364521 and _is_prime(_MR_BOUND)
    for prime in (32003, 2**31 - 1, 2**61 - 1, 2**89 - 1):
        assert _is_prime(prime), prime
    assert PrimeField(2**61 - 1).inv(2) == 2**60
    with pytest.raises(UsageError, match="too large"):
        PrimeField(_MR_BOUND)
    with pytest.raises(UsageError, match="too large"):
        field_from_text(str(10**40))


def test_cross_field_rejected():
    with pytest.raises(UsageError):
        GF5.check(Fraction(1, 2))
    with pytest.raises(UsageError):
        GF5.check(7)  # not a canonical residue
    with pytest.raises(UsageError):
        Q.check(1.5)


def test_both_fields_are_a_field_spec():
    assert isinstance(PrimeField(5), FieldSpec) and isinstance(RationalField(), FieldSpec)
    assert not isinstance(5, FieldSpec)


def test_field_from_text():
    assert field_from_text("q") == Q
    assert field_from_text("32003") == PrimeField(32003)
    with pytest.raises(UsageError):
        field_from_text("banana")


def test_scalar_text_round_trip():
    assert GF5.format(GF5.parse("-1")) == "4"
    assert Q.format(Q.parse("-6/8")) == "-3/4"
    assert Q.format(Q.parse("5")) == "5"


@given(st.integers(), st.integers(), st.integers())
def test_gf5_field_axioms(a, b, c):
    a, b, c = GF5.normalize(a), GF5.normalize(b), GF5.normalize(c)
    assert GF5.add(GF5.add(a, b), c) == GF5.add(a, GF5.add(b, c))
    assert GF5.mul(a, b) == GF5.mul(b, a)
    assert GF5.mul(a, GF5.add(b, c)) == GF5.add(GF5.mul(a, b), GF5.mul(a, c))
    if not GF5.is_zero(a):
        assert GF5.mul(a, GF5.inv(a)) == GF5.one


@given(st.fractions(max_denominator=50), st.fractions(max_denominator=50),
       st.fractions(max_denominator=50))
def test_rational_field_axioms(a, b, c):
    assert Q.add(Q.add(a, b), c) == Q.add(a, Q.add(b, c))
    assert Q.mul(a, b) == Q.mul(b, a)
    assert Q.mul(a, Q.add(b, c)) == Q.add(Q.mul(a, b), Q.mul(a, c))
    if not Q.is_zero(a):
        assert Q.mul(a, Q.inv(a)) == Q.one


@given(st.integers())
def test_normalization_idempotent_prime(a):
    once = PrimeField(32003).normalize(a)
    assert PrimeField(32003).normalize(once) == once


@given(st.fractions(max_denominator=1000))
def test_normalization_idempotent_rational(a):
    assert Q.normalize(Q.normalize(a)) == Q.normalize(a)


def test_numbered_lines_break_only_where_an_editor_does():
    # str.splitlines also breaks at every separator inside the first line here
    inside = "a\x0bb\x0cc\x1cd\x1de\x1ef\x85g\u2028h\u2029i"
    assert list(numbered_lines(inside + "\nj\r\nk\rl\n")) == \
        [(1, inside), (2, "j"), (3, "k"), (4, "l"), (5, "")]


def split_lines(text: str) -> list:
    """The numbered lines of ``text`` as the whole-text split gives them."""
    return list(enumerate(_newlines(text).split("\n"), 1))


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(text=st.text(alphabet="ab\r\n", max_size=40), chunk=st.integers(1, 8))
@example(text="", chunk=1)
@example(text="abab\n", chunk=4)                 # a break right at the cut
@example(text="aba\r\nb\r\n", chunk=3)           # a \r\n across the cut
@example(text="ab\nabababababab\nb", chunk=2)    # a line longer than a chunk
@example(text="\n\n\r\r\n\n", chunk=1)
def test_numbered_lines_split_a_chunk_at_a_time_as_the_whole_text(text, chunk):
    # the chunked split gives exactly the lines and numbers of one split of
    # the whole text, the "" after a final line break included
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fields, "_CHUNK", chunk)
        assert list(numbered_lines(text)) == split_lines(text)


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("final", [True, False], ids=["final-break", "no-final-break"])
def test_numbered_lines_match_the_whole_split_on_text_of_many_chunks(end, final):
    # lines of many lengths up to two chunks, some of them longer than a chunk
    lengths = [k * 4099 % (2 * fields._CHUNK) for k in range(40)]
    text = end.join("x" * n for n in lengths) + (end if final else "")
    assert len(text) > 10 * fields._CHUNK
    assert list(numbered_lines(text)) == split_lines(text)


def test_parse_int_takes_only_ascii_digits():
    assert [parse_int(t) for t in ("0", "+7", "-12", "007")] == [0, 7, -12, 7]
    for bad in ("", "+", "-", "1_000", "١", "１", " 1", "1 ", "1.0", "0x1", "+-1"):
        with pytest.raises(ValueError):
            parse_int(bad)


def test_rational_parse_takes_only_ascii_integers_and_fractions():
    good = ("7", "-7", "+7", "6/4", "-6/4", "0/5", "007/02")
    assert [Q.parse(t) for t in good] == [7, -7, 7, Fraction(3, 2), Fraction(-3, 2), 0,
                                          Fraction(7, 2)]
    for bad in ("1_000", "١", "１", "0.5", ".5", "1e3", "1/0", "0/0", "1/-2", "1/+2",
                "", "/", "1/", "/2", "1/2/3", " 1", "1 ", "nan", "inf", "0x1"):
        with pytest.raises(UsageError, match="is not a rational scalar"):
            Q.parse(bad)


class _Half(Fraction):
    """A Fraction subclass: normalize must still hand back a plain Fraction."""


def test_rational_normalize_passes_fractions_through_and_converts_the_rest():
    for method in (Q.normalize, Q.check):
        half = Fraction(1, 2)
        assert method(half) is half
        for value, want in ((3, Fraction(3)), (-4, Fraction(-4)),
                            (_Half(2, 4), Fraction(1, 2))):
            got = method(value)
            assert type(got) is Fraction and got == want
        for bad in (True, False, 1.5, "1/2", None, complex(1, 0)):
            with pytest.raises(UsageError, match="is not a rational scalar"):
                method(bad)


def test_rational_text_keeps_a_whole_value_an_int():
    # the text scalar model: an int for a whole coefficient, a Fraction otherwise
    for token, value in (("7", 7), ("-1", -1), ("0", 0), ("4/2", 2), ("-3/3", -1)):
        got = Q.parse(token)
        assert type(got) is int and got == value, token
    assert type(Q.parse("3/2")) is Fraction and Q.parse("3/2") == Fraction(3, 2)
    assert [Q.format(a) for a in (1, -1, 0, Fraction(-3, 4), Fraction(4, 2))] == \
        ["1", "-1", "0", "-3/4", "2"]
    assert [PrimeField(5).format(a) for a in (1, -1)] == ["1", "4"]
    assert (Q.add(2, -3), Q.mul(2, -3), Q.neg(2), Q.is_zero(0), Q.is_zero(1)) == \
        (-1, -6, -2, True, False)


def test_rational_field_still_gives_fractions_where_it_makes_a_scalar():
    for got, want in ((Q.normalize(3), 3), (Q.check(-2), -2), (Q.one, 1), (Q.zero, 0),
                      (RationalField.one, 1), (Q.inv(2), Fraction(1, 2)),
                      (Q.inv(Fraction(-3, 4)), Fraction(-4, 3))):
        assert type(got) is Fraction and got == want
    with pytest.raises(UsageError, match="is not a rational scalar"):
        Q.format(1.5)


def test_whole_rational_scalars_import_no_fractions():
    # fractions loads decimal and numbers with it: a process that only moves
    # whole coefficients over Q pays for none of them
    script = ("import sys\n"
              "from spectra_persist.fields import RationalField\n"
              "q = RationalField()\n"
              "assert (q.format(1), q.format(-1), q.parse('1')) == ('1', '-1', 1)\n"
              "assert q.add(1, -1) == 0 and q.is_zero(q.add(1, -1))\n"
              "print(sorted({'fractions', 'decimal', 'numbers'} & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
