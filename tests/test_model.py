import locale
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stableflow import (
    GenerationError,
    Instance,
    ParseError,
    ValidationError,
    _kernel,
    generate_random_instance,
    parse_instance,
    serialize_instance,
)
from stableflow.model import _parse_python

SMALLEST = "p mcf 2 1 1\na 1 2 1.0\nc 1 2 1.0\n"


class TestParse:
    def test_smallest_legal_instance(self):
        inst = parse_instance(SMALLEST)
        assert inst.vertex_count == 2
        assert inst.arcs == ((0, 1, 1.0),)
        assert inst.commodities == ((0, 1, 1.0),)

    def test_comments_and_blank_lines_ignored(self):
        text = "# header\n\np mcf 2 1 0\n# middle\na 1 2 3.5\n"
        inst = parse_instance(text)
        assert inst.arc_count == 1 and inst.commodity_count == 0
        assert inst.arcs[0].capacity == 3.5

    def test_self_loop_rejected_with_line_number(self):
        with pytest.raises(ParseError, match="line 2.*[sS]elf-loop"):
            parse_instance("p mcf 2 1 1\na 1 1 1.0\nc 1 2 1.0\n")

    def test_source_equals_sink_rejected(self):
        with pytest.raises(ParseError, match="source equals sink"):
            parse_instance("p mcf 2 1 1\na 1 2 1.0\nc 1 1 1.0\n")

    def test_vertex_out_of_range(self):
        with pytest.raises(ParseError, match="line 2.*out of range"):
            parse_instance("p mcf 2 1 0\na 1 3 1.0\n")

    @pytest.mark.parametrize(
        "text,line",
        [
            pytest.param("p mcf 3 2 0\na 1 2 1.0\na 2 2 1.0\n", 3, id="arc"),
            pytest.param("p mcf 2 1 1\na 1 2 1.0\n# note\nc 2 3 1.0\n", 4, id="commodity"),
            pytest.param("# header\np mcf 0 0 0\n", 2, id="vertex-count"),
            # A (K, V) demand injection that numpy cannot allocate, or shape.
            pytest.param("p mcf 99999999999999999 0 1\nc 1 2 1\n", 1, id="huge-vertex-count"),
            pytest.param(
                "# c\np mcf 999999999999999999999999 0 1\nc 1 2 1\n", 2, id="beyond-numpy-shape"
            ),
        ],
    )
    def test_instance_errors_point_at_their_line(self, text, line):
        with pytest.raises(ParseError) as info:
            parse_instance(text)
        assert info.value.line == line
        assert isinstance(info.value.__cause__, ValidationError)

    def test_line_before_problem_line(self):
        with pytest.raises(ParseError, match="before the problem line"):
            parse_instance("a 1 2 1.0\np mcf 2 1 0\n")

    def test_missing_problem_line(self):
        with pytest.raises(ParseError, match="missing problem line"):
            parse_instance("# nothing here\n")

    def test_duplicate_problem_line(self):
        with pytest.raises(ParseError, match="duplicate problem line"):
            parse_instance("p mcf 2 0 0\np mcf 2 0 0\n")

    def test_count_mismatch(self):
        with pytest.raises(ParseError, match="declares 2 arcs, found 1"):
            parse_instance("p mcf 2 2 0\na 1 2 1.0\n")

    def test_unknown_line_type(self):
        with pytest.raises(ParseError, match="unknown line type"):
            parse_instance("p mcf 2 0 0\nz 1 2\n")

    def test_malformed_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_instance("p mcf 2 1 0\na 1 2 abc\n")

    def test_negative_capacity_rejected(self):
        with pytest.raises(ParseError, match="capacity must be >= 0"):
            parse_instance("p mcf 2 1 0\na 1 2 -1.0\n")

    def test_non_finite_demand_rejected(self):
        with pytest.raises(ParseError, match="finite"):
            parse_instance("p mcf 2 1 1\na 1 2 1.0\nc 1 2 inf\n")


def _outcome(text, parse=parse_instance):
    """The parsed instance, or the ParseError's line and message."""
    try:
        return parse(text)
    except ParseError as exc:
        return exc.line, str(exc)


def _assert_same_outcome(compiled, python):
    """Both reads give equal instances with bitwise-equal scale and arrays,
    or the same ParseError."""
    assert compiled == python
    if isinstance(python, Instance):
        assert compiled.scale.hex() == python.scale.hex()
        for ours, theirs in zip(compiled._arrays, python._arrays):
            assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
            assert ours.tobytes() == theirs.tobytes()


def _read_both(text):
    """parse_instance's outcome, then the Python parser's alone."""
    return _outcome(text), _outcome(text, _parse_python)


def _compiled(text):
    """Whether the compiled reader takes the text, as parse_instance asks it."""
    try:
        return _kernel.parse(text) is not None
    except ValidationError:
        return True


BYTES = [*"0123456789.eE+-_ \t\n#acpxinf", "\r", "\x0b", "\x0c", "\x85", "\x00", "\u2028"]
TOKENS = ["0", "1", "3", "07", "0.5", "1e-06", "2E+3", "1e999", "+1", "-1", "inf", "1_0", "0x1p3"]


def _mutated_texts(rng, count):
    """Seeded mutations of canonical texts: bytes inserted, replaced or
    deleted, tokens replaced, and lines swapped, repeated or blanked."""
    bases = [
        CANONICAL,
        serialize_instance(generate_random_instance(6, 12, 3, (0.5, 4.0), (0.0, 3.0), seed=1)),
        serialize_instance(
            generate_random_instance(5, 9, 2, (1, 3), (1, 4), seed=2, integer_values=True)
        ),
    ]
    for _ in range(count):
        text = rng.choice(bases)
        for _ in range(rng.randint(1, 3)):
            op = rng.randrange(4)
            if op == 0:
                at = rng.randrange(len(text) + 1)
                text = text[:at] + rng.choice(BYTES) + text[at + rng.randrange(2) :]
            elif op == 1:
                at = rng.randrange(len(text) + 1)
                text = text[:at] + text[at + 1 :]
            elif op == 2:
                tokens = text.split(" ")
                tokens[rng.randrange(len(tokens))] = rng.choice(TOKENS)
                text = " ".join(tokens)
            else:
                lines = text.split("\n")
                i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
                pairs = [(lines[j], lines[i]), (lines[j], lines[j]), ("", "")]
                lines[i], lines[j] = rng.choice(pairs)
                text = "\n".join(lines)
        yield text


HEADER = "p mcf 3 2 2\n"
ARCS = "a 1 2 1.5\na 2 3 4\n"
COMS = "c 1 3 1e-06\nc 2 3 2.0\n"
CANONICAL = HEADER + ARCS + COMS


class TestCompiledParse:
    """The compiled reader (_sweep.c:sf_parse) against the Python parser."""

    @pytest.mark.parametrize(
        "text,compiled",
        [
            pytest.param(CANONICAL, True, id="canonical"),
            pytest.param(CANONICAL[:-1], True, id="no-final-newline"),
            pytest.param(
                HEADER + "a 1 2 1.5\nc 1 3 1\na 2 3 4\nc 2 3 2\n", True, id="interleaved"
            ),
            pytest.param(" p\tmcf  3 2 2 \n\ta 1 2 1.5\t\n" + ARCS[10:] + COMS, True, id="blanks"),
            pytest.param(HEADER + "a 01 002 1E+2\na 2 3 4.25e-3\n" + COMS, True, id="reals"),
            pytest.param("p mcf 1 1 0\na 1 1 1.0\n", True, id="self-loop"),
            pytest.param("p mcf 0 0 0\n", True, id="no-vertices"),
            pytest.param("p mcf 2 1 0\na 1 2 1e999\n", True, id="1e999"),
            pytest.param("# note\n" + CANONICAL, False, id="comment-before-p"),
            pytest.param("\n" + CANONICAL, False, id="blank-before-p"),
            pytest.param(HEADER + "# note\n" + ARCS + COMS, False, id="comment-after-p"),
            pytest.param(CANONICAL + "\n", False, id="blank-at-end"),
            pytest.param(CANONICAL.replace("\n", "\r\n"), False, id="crlf"),
            pytest.param("p mcf 3 2 2\x85\n" + ARCS + COMS, False, id="nel-in-p"),
            pytest.param("p mcf 3 2\x0b2\n" + ARCS + COMS, False, id="vt-in-p"),
            pytest.param("# \x85\n" + CANONICAL, False, id="nel-in-comment"),
            pytest.param("# \x0b\n" + CANONICAL, False, id="vt-in-comment"),
            pytest.param(HEADER + "a 1 2 +1\na 2 3 4\n" + COMS, False, id="plus"),
            pytest.param(HEADER + "a 1 2 1_0\na 2 3 4\n" + COMS, False, id="underscore"),
            pytest.param(HEADER + "a 1 2 inf\na 2 3 4\n" + COMS, False, id="inf"),
            pytest.param(HEADER + "a 1 2 nan\na 2 3 4\n" + COMS, False, id="nan"),
            pytest.param(HEADER + "a 1 2 0x1p3\na 2 3 4\n" + COMS, False, id="hex"),
            pytest.param(HEADER + "a 1 2 .5\na 2 3 4.\n" + COMS, False, id="bare-point"),
            pytest.param(HEADER + "a +1 2 1\na 2 3 4\n" + COMS, False, id="plus-id"),
            pytest.param(HEADER + "a 1_0 2 1\na 2 3 4\n" + COMS, False, id="underscore-id"),
            pytest.param(HEADER + "a 1 2 1 1\na 2 3 4\n" + COMS, False, id="five-tokens"),
            pytest.param(HEADER + "a 1 2\na 2 3 4\n" + COMS, False, id="three-tokens"),
            pytest.param(CANONICAL + "p mcf 3 2 2\n", False, id="second-p"),
            pytest.param(CANONICAL + "a 1 2 1\n", False, id="extra-arc"),
            pytest.param(HEADER + ARCS + COMS[:12], False, id="missing-commodity"),
            pytest.param("p mcf 2 1 0\na 1 2 1.0\x00\n", False, id="nul"),
            pytest.param("p mcf 2 1 0\na 1 2 1.0 # note\n", False, id="trailing-comment"),
            pytest.param("p mcf 2 1 0\na 1 \u0662 1.0\n", False, id="arabic-digit"),
            pytest.param("p mcf 2 1 0\na 1 1000000000000000002 1\n", False, id="19-digit-id"),
            pytest.param("p mcf 2 1 0\na 1 9999999999999999999 1\n", False, id="beyond-int64"),
            pytest.param("p mcf 2 1 0\na 1 999999999999999999 1\n", True, id="18-digit-id"),
            pytest.param("p mcf 1000000000000000000 1 0\na 1 2 1\n", False, id="19-digit-count"),
            pytest.param("p mcf 999999999999999999 1 0\na 1 2 1\n", True, id="18-digit-count"),
        ],
    )
    def test_canonical_subset(self, text, compiled):
        assert _compiled(text) is compiled
        _assert_same_outcome(*_read_both(text))

    def test_counts_beyond_the_text_allocate_nothing(self):
        # The buffers are sized by the text's length, so a huge declared
        # count defers to the Python parser and its count mismatch.
        text = "p mcf 2 99999999999999 0\n"
        assert not _compiled(text)
        with pytest.raises(ParseError, match="declares 99999999999999 arcs, found 0"):
            parse_instance(text)

    def test_mutated_texts_read_the_same(self):
        # Each read by both paths gives the same instance or ParseError.
        compiled = 0
        for text in _mutated_texts(random.Random(0), 6000):
            compiled += _compiled(text)
            _assert_same_outcome(*_read_both(text))
        assert compiled > 500  # so the compiled reader is tested, not skipped

    def test_comma_decimal_locale_reads_the_same_values(self):
        saved = locale.setlocale(locale.LC_NUMERIC)
        for name in ("de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8", "fr_FR.utf8"):
            try:
                locale.setlocale(locale.LC_NUMERIC, name)
            except locale.Error:
                continue
            break
        else:
            pytest.skip("no comma-decimal locale is installed")
        try:
            assert locale.localeconv()["decimal_point"] == ","
            # strtod would stop at the '.', so the text defers.
            assert not _compiled(CANONICAL)
            compiled, python = _read_both(CANONICAL)
        finally:
            locale.setlocale(locale.LC_NUMERIC, saved)
        _assert_same_outcome(compiled, python)
        _assert_same_outcome(compiled, _outcome(CANONICAL))

    def test_arrays_are_built_at_construction(self):
        inst = Instance(3, [(0, 1, 2.0), (1, 2, 1.0)], [(0, 2, 3.0)])
        assert {"scale", "_arrays", "tails", "heads", "capacities", "injection"} <= set(vars(inst))
        assert inst.scale == 2.0
        assert inst.tails.tolist() == [0, 1] and inst.heads.tolist() == [1, 2]
        assert inst.injection.tolist() == [[3.0, 0.0, -3.0]]
        assert not inst.tails.flags.writeable and inst._arrays[1].flags.writeable


class TestInstanceValidation:
    def test_self_loop(self):
        with pytest.raises(ValidationError, match="self-loop"):
            Instance(2, [(0, 0, 1.0)], [])

    def test_source_equals_sink(self):
        with pytest.raises(ValidationError, match="source equals sink"):
            Instance(2, [], [(1, 1, 1.0)])

    def test_endpoint_out_of_range(self):
        with pytest.raises(ValidationError, match="out of range"):
            Instance(2, [(0, 2, 1.0)], [])

    @pytest.mark.parametrize(
        "args,arc,commodity",
        [
            ((2.7, [(0, 1, 1.0)], []), None, None),
            (("3", [], []), None, None),
            ((3, [(0, 1, 1.0), (0, 1.9, 1.0)], [(0, 1, 1.0)]), 1, None),
            ((3, [(0, 1, 1.0)], [(0, "2", 1.0)]), None, 0),
        ],
    )
    def test_non_integer_ids_rejected(self, args, arc, commodity):
        # int() would truncate 2.7 and 1.9 and parse "3".
        with pytest.raises(ValidationError, match="integer") as raised:
            Instance(*args)
        assert (raised.value.arc, raised.value.commodity) == (arc, commodity)

    def test_numpy_integer_ids_accepted(self):
        inst = Instance(np.int64(3), [(np.int64(0), np.int32(2), 1.0)], [(np.int64(0), 1, 1.0)])
        assert inst == Instance(3, [(0, 2, 1.0)], [(0, 1, 1.0)])
        assert type(inst.vertex_count) is int and type(inst.arcs[0].head) is int

    def test_negative_demand(self):
        with pytest.raises(ValidationError, match="demand"):
            Instance(2, [], [(0, 1, -2.0)])

    def test_nonpositive_vertex_count(self):
        with pytest.raises(ValidationError, match="positive"):
            Instance(0, [], [])


class TestScale:
    @pytest.mark.parametrize(
        "demands,scale",
        [
            ([], 1.0),
            ([0.0], 1.0),
            ([1.0], 1.0),
            ([3.0, 1.0], 2.0),
            ([4.0], 4.0),
            ([1e-6], 2.0**-20),
        ],
    )
    def test_largest_power_of_two_not_above_largest_demand(self, demands, scale):
        inst = Instance(2, [(0, 1, 1.0)], [(0, 1, d) for d in demands])
        assert inst.scale == scale

    def test_capacities_do_not_count(self):
        assert Instance(2, [(0, 1, 1e9)], [(0, 1, 1.0)]).scale == 1.0


class TestSerialize:
    def test_round_trip_smallest(self):
        inst = parse_instance(SMALLEST)
        assert parse_instance(serialize_instance(inst)) == inst

    def test_parallel_arcs_preserve_order(self):
        inst = Instance(2, [(0, 1, 1.0), (0, 1, 2.0)], [(0, 1, 2.0)])
        text = serialize_instance(inst)
        a_lines = [ln for ln in text.splitlines() if ln.startswith("a ")]
        assert a_lines == ["a 1 2 1.0", "a 1 2 2.0"]
        assert parse_instance(text) == inst

    def test_empty_commodity_list(self):
        inst = Instance(3, [(0, 1, 1.0), (1, 2, 4.25)], [])
        text = serialize_instance(inst)
        assert "c " not in text
        assert parse_instance(text) == inst


@st.composite
def instances(draw):
    vertex_count = draw(st.integers(2, 8))
    reals = st.floats(0.0, 1e9, allow_nan=False, allow_infinity=False)

    def endpoints():
        tail = draw(st.integers(0, vertex_count - 1))
        head = draw(st.integers(0, vertex_count - 2))
        return tail, head if head < tail else head + 1

    arcs = []
    for _ in range(draw(st.integers(0, 10))):
        tail, head = endpoints()
        arcs.append((tail, head, draw(reals)))
    commodities = []
    for _ in range(draw(st.integers(0, 4))):
        source, sink = endpoints()
        commodities.append((source, sink, draw(reals)))
    return Instance(vertex_count, arcs, commodities)


@given(instances())
@settings(max_examples=200, deadline=None)
def test_round_trip_identity(inst):
    assert parse_instance(serialize_instance(inst)) == inst


class TestGenerate:
    def test_forced_shape(self):
        inst = generate_random_instance(2, 1, 1, (1, 1), (1, 1), seed=0)
        (arc,) = inst.arcs
        (com,) = inst.commodities
        assert arc.capacity == 1.0 and com.demand == 1.0
        assert arc.tail != arc.head and com.source != com.sink

    def test_same_seed_same_instance(self):
        a = generate_random_instance(6, 10, 3, (1, 5), (1, 5), seed=42)
        b = generate_random_instance(6, 10, 3, (1, 5), (1, 5), seed=42)
        assert a == b

    def test_different_seed_differs(self):
        a = generate_random_instance(6, 10, 3, (1, 5), (1, 5), seed=0)
        b = generate_random_instance(6, 10, 3, (1, 5), (1, 5), seed=1)
        assert a != b

    def test_generated_instance_is_valid(self):
        # Instance.__post_init__ enforces every model invariant, so
        # construction succeeding is the check; assert shape on top.
        inst = generate_random_instance(6, 10, 3, (1, 5), (1, 5), seed=7)
        assert inst.vertex_count == 6
        assert inst.arc_count == 10
        assert inst.commodity_count == 3

    @pytest.mark.parametrize("seed", range(25))
    def test_invariants_over_seeds(self, seed):
        inst = generate_random_instance(5, 8, 2, (0.5, 4.0), (0.0, 3.0), seed=seed)
        for arc in inst.arcs:
            assert 0 <= arc.tail < 5 and 0 <= arc.head < 5 and arc.tail != arc.head
            assert 0.5 <= arc.capacity <= 4.0
        for com in inst.commodities:
            assert com.source != com.sink
            assert 0.0 <= com.demand <= 3.0

    def test_integer_values(self):
        inst = generate_random_instance(
            6, 10, 3, (1, 5), (1, 5), seed=3, integer_values=True
        )
        values = [a.capacity for a in inst.arcs] + [c.demand for c in inst.commodities]
        assert all(v == int(v) and 1 <= v <= 5 for v in values)

    def test_too_few_vertices(self):
        with pytest.raises(GenerationError, match="at least 2"):
            generate_random_instance(1, 0, 0, (1, 1), (1, 1), seed=0)

    def test_negative_seed(self):
        # numpy's default_rng would raise its own ValueError.
        with pytest.raises(GenerationError, match="seed"):
            generate_random_instance(3, 1, 1, (1, 1), (1, 1), seed=-1)

    def test_bad_range(self):
        with pytest.raises(GenerationError, match="cap_range"):
            generate_random_instance(3, 1, 1, (5, 1), (1, 1), seed=0)

    def test_no_integers_in_range(self):
        with pytest.raises(GenerationError, match="no integers"):
            generate_random_instance(
                3, 1, 0, (1.2, 1.8), (1, 1), seed=0, integer_values=True
            )
