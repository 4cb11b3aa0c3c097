"""Signed-vector algebra, step sets, the violation function, containers,
and the bytes cli.emit writes for a Verdict and the values it holds.

Derived example values are frozen from an independent brute-force route
(the norm identity for directed steps, explicit enumeration for counts);
the lattice laws and the violation dichotomy run as hypothesis properties.
"""

from __future__ import annotations

import io
import json
from collections import namedtuple
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import product
from types import MappingProxyType

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bspoly import cli
from bspoly.core import (
    DimensionMismatchError,
    PointSet,
    Verdict,
    add,
    as_signed_vector,
    dot,
    join,
    lattice_points,
    meet,
    norm1,
    phi_steps,
    phi_toward,
    precedes,
    signed_vectors,
    sub,
    supp,
    violation,
    zero,
)


def signed(dim):
    return st.lists(st.sampled_from((-1, 0, 1)), min_size=dim,
                    max_size=dim).map(tuple)


def points(dim, bound=3):
    return st.lists(st.integers(-bound, bound), min_size=dim,
                    max_size=dim).map(tuple)


dims = st.integers(min_value=1, max_value=4)


class TestMeetJoin:
    def test_meet_examples(self):
        assert meet((1, 0), (1, -1)) == (1, 0)
        assert meet((1, -1, 0), (-1, -1, 1)) == (0, -1, 0)

    def test_join_examples(self):
        assert join((1, 0, -1), (0, 1, 1)) == (1, 1, 0)
        assert join((1, 1), (-1, 1)) == (0, 1)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            meet((1, 0), (1,))
        with pytest.raises(DimensionMismatchError):
            join((1,), (1, 0))

    @given(data=st.data())
    def test_meet_idempotent_and_join_neutral(self, data):
        dim = data.draw(dims)
        x = data.draw(signed(dim))
        assert meet(x, x) == x
        assert join(x, zero(dim)) == x

    @given(data=st.data())
    def test_commutative(self, data):
        dim = data.draw(dims)
        x, y = data.draw(signed(dim)), data.draw(signed(dim))
        assert meet(x, y) == meet(y, x)
        assert join(x, y) == join(y, x)

    @given(data=st.data())
    def test_meet_associative(self, data):
        dim = data.draw(dims)
        x, y, z = (data.draw(signed(dim)) for _ in range(3))
        assert meet(meet(x, y), z) == meet(x, meet(y, z))

    @given(data=st.data())
    def test_meet_below_both(self, data):
        dim = data.draw(dims)
        x, y = data.draw(signed(dim)), data.draw(signed(dim))
        assert precedes(meet(x, y), x)
        assert precedes(meet(x, y), y)

    @given(data=st.data())
    def test_meet_plus_join_is_sum(self, data):
        dim = data.draw(dims)
        x, y = data.draw(signed(dim)), data.draw(signed(dim))
        assert add(meet(x, y), join(x, y)) == add(x, y)


class TestPrecedes:
    def test_examples(self):
        assert precedes((1, 0), (1, -1))
        assert not precedes((1, 0), (-1, 0))

    @given(data=st.data())
    def test_zero_below_everything(self, data):
        dim = data.draw(dims)
        y = data.draw(signed(dim))
        assert precedes(zero(dim), y)


class TestPhiSteps:
    def test_dim1(self):
        assert phi_steps(1) == ((-1,), (1,))

    @pytest.mark.parametrize("dim", range(1, 7))
    def test_size_formula(self, dim):
        steps = phi_steps(dim)
        assert len(steps) == 2 * dim * dim
        assert len(set(steps)) == len(steps)
        assert all(norm1(s) in (1, 2) for s in steps)
        assert steps == tuple(x for x in signed_vectors(dim)
                              if norm1(x) in (1, 2))

    def test_lexicographic_order(self):
        steps = phi_steps(3)
        assert list(steps) == sorted(steps)


class TestPhiToward:
    def test_examples(self):
        assert set(phi_toward((0, 0), (1, 1))) == {(0, 1), (1, 0), (1, 1)}
        assert phi_toward((0, 0), (2, 0)) == ((1, 0),)
        assert phi_toward((3, -1), (3, -1)) == ()

    @given(data=st.data())
    def test_matches_norm_identity(self, data):
        dim = data.draw(dims)
        p, q = data.draw(points(dim)), data.draw(points(dim))
        expected = tuple(
            alpha for alpha in phi_steps(dim)
            if norm1(sub(q, add(p, alpha))) == norm1(sub(q, p)) - norm1(alpha))
        assert phi_toward(p, q) == expected

    @given(data=st.data())
    def test_zero_violation_exactly_on_directed_steps(self, data):
        dim = data.draw(dims)
        p, q = data.draw(points(dim)), data.draw(points(dim))
        for alpha in phi_steps(dim):
            # Each nonzero entry of alpha has the sign of q - p there.
            directed = all(e == 0 or e == (b > a) - (b < a)
                           for e, a, b in zip(alpha, p, q))
            assert (violation(alpha, p, q) == 0) == directed


class TestViolation:
    def test_examples(self):
        assert violation((1, 0), (0, 0), (2, 0)) == 0
        assert violation((-1, 0), (0, 0), (2, 0)) == 1

    @given(data=st.data())
    def test_equal_endpoints_charge_everything(self, data):
        dim = data.draw(dims)
        p = data.draw(points(dim))
        r = data.draw(points(dim))
        assert violation(r, p, p) == norm1(r)

    @given(data=st.data())
    def test_superadditivity_dichotomy(self, data):
        dim = data.draw(dims)
        p, q = data.draw(points(dim)), data.draw(points(dim))
        r, r2 = data.draw(points(dim)), data.draw(points(dim))
        lhs = violation(r, p, q) + violation(r2, p, q)
        rhs = violation(add(r, r2), p, q)
        if any(a * b < 0 for a, b in zip(r, r2)):
            assert lhs > rhs
        else:
            assert lhs == rhs


class TestLatticePoints:
    @given(data=st.data())
    def test_matches_the_filtered_box_scan(self, data):
        dim = data.draw(dims)
        lo = data.draw(points(dim))
        hi = data.draw(points(dim))
        constraints = data.draw(st.lists(
            st.tuples(signed(dim).filter(any), st.integers(-4, 4)),
            max_size=6))
        box = product(*(range(a, b + 1) for a, b in zip(lo, hi)))
        expected = [c for c in box
                    if all(dot(c, x) <= v for x, v in constraints)]
        assert list(lattice_points(lo, hi, constraints)) == expected

    def test_empty_range_yields_nothing(self):
        assert list(lattice_points((0, 2), (3, 1), ())) == []


class TestPointSet:
    def test_dedup_and_order(self):
        B = PointSet.from_points(2, [[1, 1], [0, 0], [1, 1], [0, -2]])
        assert B.points == ((0, -2), (0, 0), (1, 1))
        assert len(B) == 3
        assert (1, 1) in B and (2, 2) not in B

    def test_bounding_box(self):
        B = PointSet.from_points(2, [(0, 5), (3, -1)])
        assert B.bounding_box() == ((0, -1), (3, 5))

    def test_empty_allowed_but_boxless(self):
        B = PointSet.from_points(2, [])
        assert len(B) == 0
        with pytest.raises(ValueError):
            B.bounding_box()

    def test_dimension_checked(self):
        with pytest.raises(DimensionMismatchError):
            PointSet.from_points(2, [(1, 2, 3)])

    def test_non_integer_entries_refused(self):
        # Truncating would give ((0, 0), (1, 0)).
        with pytest.raises(TypeError):
            PointSet.from_points(2, [(1.5, 0), (0.2, 0.9)])
        with pytest.raises(TypeError):
            PointSet.from_points(1, [(Fraction(2, 1),)])
        assert PointSet.from_points(1, [(True,)]).points == ((1,),)

    def test_step_index_leaves_identity_alone(self):
        built = PointSet.from_points(2, [(0, 0), (1, 1)])
        assert built.step_index == {(0, 0): ((1, 1),), (1, 1): ((-1, -1),)}
        fresh = PointSet.from_points(2, [(1, 1), (0, 0)])
        assert built == fresh
        assert hash(built) == hash(fresh)
        assert repr(built) == repr(fresh)

    def test_step_index_matches_definition(self, scan_family):
        for b in scan_family:
            steps = [s for s in signed_vectors(b.dim) if 1 <= norm1(s) <= 2]
            assert b.step_index == {
                p: tuple(s for s in steps if add(p, s) in b) for p in b}


class TestAsSignedVector:
    def test_non_integer_entries_refused(self):
        # Truncating would give (0, 1).
        with pytest.raises(TypeError):
            as_signed_vector((0.5, 1))
        with pytest.raises(TypeError):
            as_signed_vector(("1", 0))
        assert as_signed_vector([-1, 0, 1]) == (-1, 0, 1)


class TestSupports:
    def test_one_based_indices(self):
        assert supp((0, -2, 1)) == (2, 3)
        assert supp(zero(3)) == ()

    def test_dot_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            dot((1, 2), (1,))


def emitted(doc, pretty=False):
    """The text cli.emit writes for doc, without its final newline."""
    with redirect_stdout(io.StringIO()) as out:
        cli.emit(doc, pretty)
    text = out.getvalue()
    assert text.endswith("\n")
    return text[:-1]


class TestVerdict:
    def test_jsonable_payload(self):
        v = Verdict("FAIL", {
            "pair": ((0, 1), (1, 0)),
            "value": float("inf"),
            "coeff": Fraction(1, 2),
            "count": Fraction(4, 2),
        })
        assert emitted(v) == ('{"status":"FAIL","witness":{"coeff":"1/2",'
                              '"count":"2","pair":[[0,1],[1,0]],'
                              '"value":"inf"}}')
        assert json.loads(emitted(v, pretty=True)) == json.loads(emitted(v))
        assert not v.passed

    def test_pass_without_witness(self):
        v = Verdict("PASS")
        assert v.passed
        assert emitted(v) == '{"status":"PASS","witness":null}'


class TestJsonable:
    """What cli.emit writes for the types the checkers return."""

    def test_int_vectors_become_lists(self):
        assert emitted((1, -2, 0)) == "[1,-2,0]"
        assert emitted([3]) == "[3]"
        assert emitted(()) == "[]"

    def test_bool_is_not_a_plain_int(self):
        assert emitted((1, True)) == "[1,true]"

    def test_mixed_entries_are_encoded(self):
        assert emitted((1, Fraction(1, 2))) == '[1,"1/2"]'
        assert emitted(Verdict("FAIL", {"lhs": 0, "rhs": float("inf")})) == (
            '{"status":"FAIL","witness":{"lhs":0,"rhs":"inf"}}')

    def test_nested_inf_is_refused(self, capsys):
        for doc in ([float("inf")],
                    Verdict("FAIL", {"pair": (0, float("inf"))}),
                    {"witness": {"rhs": float("inf")}}):
            for pretty in (False, True):
                with pytest.raises(ValueError):
                    cli.emit(doc, pretty)
                assert capsys.readouterr().out == ""

    def test_nested_tuples_become_nested_lists(self):
        assert emitted(((0, 1), (1, 0), ((2,),))) == "[[0,1],[1,0],[[2]]]"

    def test_dict_values_are_encoded(self):
        doc = {"p": (0, 1), "value": Fraction(3), "none": None}
        assert emitted(doc) == '{"none":null,"p":[0,1],"value":"3"}'

    def test_mapping_proxy_and_tuple_subclass_are_encoded(self):
        pair = namedtuple("Pair", "left right")
        doc = MappingProxyType({"pair": pair(1, 2),
                                "half": pair(Fraction(1, 2), 0)})
        assert emitted(doc) == '{"half":["1/2",0],"pair":[1,2]}'
        assert emitted(doc, pretty=True) == (
            '{\n  "half": [\n    "1/2",\n    0\n  ],\n'
            '  "pair": [\n    1,\n    2\n  ]\n}')

    def test_unknown_type_is_refused(self):
        with pytest.raises(TypeError, match="cannot serialize set"):
            emitted((1, {2}))
