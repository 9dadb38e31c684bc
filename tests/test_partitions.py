"""Partition statistics, orderings and enumerators against brute force."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtspecials.errors import LengthMismatch, NotAPartition
from qtspecials.partitions import (
    bump,
    check_partition,
    contains,
    enumerate_strips,
    enumerate_sub,
    format_partition,
    is_horizontal_strip,
    is_partition,
    n_prime_stat,
    n_stat,
    parse_partition,
    partition,
    sum_decompositions,
    valid_bumps,
    weight,
)


def boxes(lam):
    """Naive cross product of per-part ranges with a monotonicity filter."""
    return [p for p in product(*(range(x + 1) for x in lam)) if is_partition(p)]


@pytest.mark.parametrize("lam,expected", [
    ((0, 0), (0, 0, 0)),
    ((2, 1), (3, 1, 1)),
    ((3, 3, 1), (7, 5, 6)),
])
def test_stats(lam, expected):
    assert (weight(lam), n_stat(lam), n_prime_stat(lam)) == expected


def test_partition_validation():
    assert partition([3, 2, 0]) == (3, 2, 0)
    with pytest.raises(NotAPartition):
        partition([1, 2])
    with pytest.raises(NotAPartition):
        partition([2, -1])


def test_parse_and_format():
    assert parse_partition("3,2,0") == (3, 2, 0)
    assert format_partition((3, 2, 0)) == "3,2,0"
    with pytest.raises(NotAPartition):
        parse_partition("1,2")


def test_contains():
    assert contains((3, 1), (2, 1))
    assert not contains((2, 2), (3, 0))
    with pytest.raises(LengthMismatch):
        contains((2, 1), (2,))


def test_horizontal_strip():
    assert is_horizontal_strip((3, 1), (2, 1))
    assert not is_horizontal_strip((3, 3), (2, 1))  # mu_1 < lam_2
    assert is_horizontal_strip((2, 1), (2, 1))


def test_enumerate_sub_goldens():
    assert enumerate_sub((1, 1)) == [(0, 0), (1, 0), (1, 1)]
    assert enumerate_sub((2, 1), weight_filter=2) == [(2, 0), (1, 1)]
    assert enumerate_sub((0, 0)) == [(0, 0)]


def test_enumerate_sub_of_the_empty_partition_honours_the_weight_filter():
    """The empty partition has weight 0, so only k = 0 keeps it."""
    assert enumerate_sub((), weight_filter=0) == [()]
    assert enumerate_sub((), weight_filter=5) == []
    assert enumerate_sub((2, 1), weight_filter=5) == []


@pytest.mark.parametrize("lam", [(), (0,), (2, 1)])
def test_enumerate_sub_weight_filter_keeps_the_partitions_of_that_weight(lam):
    for k in range(-1, weight(lam) + 3):
        assert enumerate_sub(lam, weight_filter=k) == [
            mu for mu in enumerate_sub(lam) if weight(mu) == k]


@pytest.mark.parametrize("lam", [(1, 2), (2, -1), (0, 1, 0)])
def test_enumerate_sub_refuses_an_index_that_is_not_a_partition(lam):
    with pytest.raises(NotAPartition):
        enumerate_sub(lam)
    with pytest.raises(NotAPartition):
        check_partition(lam)


def test_check_partition_returns_its_argument():
    lam = (3, 2, 0)
    assert check_partition(lam) is lam


def test_enumerate_sub_order_is_weight_then_reverse_lex():
    out = enumerate_sub((2, 2))
    assert out == sorted(out, key=lambda p: (weight(p), tuple(-x for x in p)))


@given(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_enumerate_sub_matches_brute_force(parts):
    lam = tuple(sorted(parts, reverse=True))
    assert set(enumerate_sub(lam)) == set(boxes(lam))
    assert len(enumerate_sub(lam)) == len(boxes(lam))


def test_enumerate_strips_examples():
    assert set(enumerate_strips((1, 0))) == {(0, 0), (1, 0)}
    assert set(enumerate_strips((2, 2))) == {(2, 0), (2, 1), (2, 2)}
    assert enumerate_strips((0, 0, 0)) == [(0, 0, 0)]


def test_enumerate_strips_matches_filtered_brute_force():
    for lam in enumerate_sub((3, 2, 2)):
        expect = [nu for nu in boxes(lam) if is_horizontal_strip(lam, nu)]
        assert set(enumerate_strips(lam)) == set(expect)


# ---------------------------------------------------------------------------
# The enumerations are memoized for the life of the process
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("enum", [
    lambda lam: enumerate_sub(lam),
    lambda lam: enumerate_sub(lam, weight_filter=2),
    enumerate_strips,
], ids=["sub", "sub-weight", "strips"])
def test_each_call_returns_a_new_list(enum):
    first = enum((3, 2, 1))
    expect = list(first)
    assert type(first) is list
    first.append((9, 9, 9))
    first[0] = None
    second = enum((3, 2, 1))
    assert second == expect and second is not first
    assert enum((3, 2, 1)) is not second


@pytest.mark.parametrize("lam", [(1, 2), (2, -1)])
def test_a_refused_index_is_refused_on_every_call(lam):
    for _ in range(2):
        with pytest.raises(NotAPartition):
            enumerate_sub(lam)
        with pytest.raises(NotAPartition):
            enumerate_sub(lam, weight_filter=1)


def test_a_list_index_gives_the_tuple_results():
    assert enumerate_sub([2, 1]) == enumerate_sub((2, 1))
    assert enumerate_sub([2, 1], weight_filter=2) == [(2, 0), (1, 1)]
    assert enumerate_strips([2, 1]) == enumerate_strips((2, 1))
    with pytest.raises(NotAPartition):
        enumerate_sub([0, 1])


def test_weight_filter_matches_brute_force():
    for lam in enumerate_sub((3, 3, 2)):
        for k in range(weight(lam) + 2):
            expect = [mu for mu in enumerate_sub(lam) if weight(mu) == k]
            assert enumerate_sub(lam, weight_filter=k) == expect
            assert set(expect) == {mu for mu in boxes(lam) if weight(mu) == k}


def test_strip_implies_contains():
    for lam in enumerate_sub((4, 3)):
        for nu in enumerate_strips(lam):
            assert contains(lam, nu)


def test_sum_decompositions():
    assert set(sum_decompositions((1, 0))) == {((1, 0), (0, 0)), ((0, 0), (1, 0))}
    assert sum_decompositions((0, 0)) == [((0, 0), (0, 0))]
    got = sum_decompositions((2, 1))
    # nu = (2,0) drops out: its complement (0,1) is not a partition
    assert set(got) == {
        ((0, 0), (2, 1)), ((1, 0), (1, 1)), ((1, 1), (1, 0)), ((2, 1), (0, 0)),
    }
    for nu, mu in got:
        assert is_partition(nu) and is_partition(mu)
        assert tuple(a + b for a, b in zip(nu, mu)) == (2, 1)


def test_bump():
    assert bump((2, 1), 1) == (3, 1)
    assert bump((2, 1), 2) == (2, 2)
    assert bump([2, 1], 1) == (3, 1)
    with pytest.raises(NotAPartition, match=r"not weakly decreasing: \(2, 3\)"):
        bump((2, 2), 2)
    assert valid_bumps((2, 2, 1)) == [1, 3]


def test_is_partition_is_the_boolean_form_of_check_partition():
    for p in [(), (0,), (2, 1), [3, 3, 0]]:
        assert is_partition(p)
    for p in [(1, 2), (2, -1), (2.5, 1), (2.0, 1), (True, 0), ("b", "a"), (2, None)]:
        assert not is_partition(p)
        with pytest.raises(NotAPartition):
            check_partition(p)


def _by_definition(p) -> bool:
    """A partition, written out: int parts, each at least the next, the
    last at least 0."""
    return (all(type(x) is int for x in p)
            and all(p[i] >= p[i + 1] for i in range(len(p) - 1))
            and (len(p) == 0 or p[-1] >= 0))


@st.composite
def _index_and_weight(draw):
    lam = tuple(sorted(draw(st.lists(st.integers(0, 6), max_size=4)), reverse=True))
    return lam, draw(st.none() | st.integers(0, weight(lam)))


@given(_index_and_weight(), st.lists(st.integers(-1, 7), min_size=4, max_size=4))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_the_partition_rule_and_its_enumerators_match_the_written_out_definitions(case, raw):
    """enumerate_sub(lam, k) is the brute-force list of partitions inside lam
    of weight k, sorted by weight and then in descending lexicographic
    order; is_horizontal_strip is the interlacing inequalities; is_partition
    is the definition, so the same parts as floats are refused."""
    lam, k = case
    n = len(lam)
    inside = [mu for mu in product(*(range(x + 1) for x in lam))
              if _by_definition(mu) and all(mu[i] <= lam[i] for i in range(n))]
    expect = sorted(sorted((mu for mu in inside if k is None or sum(mu) == k), reverse=True),
                    key=sum)
    assert enumerate_sub(lam, k) == expect
    strips = enumerate_strips(lam)
    for mu in (*inside, tuple(raw[:n])):
        interlaced = (all(lam[i] >= mu[i] for i in range(n))
                      and all(mu[i] >= lam[i + 1] for i in range(n - 1))
                      and (n == 0 or mu[-1] >= 0))
        assert is_horizontal_strip(lam, mu) == interlaced
        assert (mu in strips) == interlaced
        assert is_partition(mu) == _by_definition(mu)
        assert is_partition(tuple(map(float, mu))) == (n == 0)


def test_the_partition_and_length_rules_are_raised_only_in_partitions():
    """Write each rule once: NotAPartition is raised only in partitions.py
    and LengthMismatch only in partitions._require_same_length, so that a
    check added there holds for every index of the library."""
    import ast
    import pathlib

    from qtspecials import partitions

    sites = {"NotAPartition": set(), "LengthMismatch": set()}
    for path in sorted(pathlib.Path(partitions.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}  # node -> its innermost function: ast.walk visits outer ones first
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                owner.update((node, fn.name) for node in ast.walk(fn))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = getattr(exc, "id", None) or getattr(exc, "attr", None)
                if name in sites:
                    sites[name].add((path.name, owner.get(node)))
    assert {path for path, _ in sites["NotAPartition"]} == {"partitions.py"}
    assert sites["LengthMismatch"] == {("partitions.py", "_require_same_length")}
