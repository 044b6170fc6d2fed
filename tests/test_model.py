import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stableflow import (
    GenerationError,
    Instance,
    ParseError,
    ValidationError,
    generate_random_instance,
    parse_instance,
    serialize_instance,
)

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

    def test_no_parallel_arcs(self):
        inst = generate_random_instance(
            4, 12, 1, (1, 1), (1, 1), seed=9, allow_parallel=False
        )
        pairs = [(a.tail, a.head) for a in inst.arcs]
        assert len(set(pairs)) == len(pairs) == 12

    def test_too_few_vertices(self):
        with pytest.raises(GenerationError, match="at least 2"):
            generate_random_instance(1, 0, 0, (1, 1), (1, 1), seed=0)

    def test_bad_range(self):
        with pytest.raises(GenerationError, match="cap_range"):
            generate_random_instance(3, 1, 1, (5, 1), (1, 1), seed=0)

    def test_too_many_arcs_without_parallel(self):
        with pytest.raises(GenerationError, match="distinct ordered pairs"):
            generate_random_instance(2, 3, 0, (1, 1), (1, 1), seed=0, allow_parallel=False)

    def test_no_integers_in_range(self):
        with pytest.raises(GenerationError, match="no integers"):
            generate_random_instance(
                3, 1, 0, (1.2, 1.8), (1, 1), seed=0, integer_values=True
            )
