"""The immutable records every value type is built on (``cuspbase._record``)."""

import copy
import pickle
from fractions import Fraction

import pytest

from cuspbase.basis import m_basis
from cuspbase.catalog import MEMO, clear_caches, evaluate, get_catalog
from cuspbase.expr import Add, Const, Eis, Gen, Mul, Pow, Subst
from cuspbase.verify import CheckResult
from cuspbase.weierstrass import TorsionPoint


def test_same_fields_of_two_node_types_are_two_memo_keys():
    x = Eis(4, 1)
    clear_caches()
    try:
        for a, b in ((Pow(x, 2), Subst(x, 2)), (Add((x,)), Mul((x,)))):
            assert a != b and not a == b
            evaluate(a, 8)
            evaluate(b, 8)
            # one entry each, not one entry found under both keys
            assert {type(k) for k in MEMO} >= {type(a), type(b)}
        # E4^2 = E8 against E4(2 tau): one key must not serve the other
        assert evaluate(Pow(x, 2), 4).coeff(1) == 480
        assert evaluate(Subst(x, 2), 4).coeff(1) == 0
    finally:
        clear_caches()


def test_records_built_apart_are_equal_and_hash_equal():
    body = get_catalog(10).generators[(2, 1)]
    assert Pow(Gen(2, 10, 1), 7) == Pow(Gen(2, 10, 1), 7)
    assert hash(Pow(Gen(2, 10, 1), 7)) == hash(Pow(Gen(2, 10, 1), 7))
    clone = pickle.loads(pickle.dumps(body))
    assert clone is not body and clone == body and hash(clone) == hash(body)
    assert Const(2) == Const(Fraction(2)) and hash(Const(2)) == hash(Const(Fraction(2)))


def test_a_record_hashes_its_fields_once():
    # a memo key is hashed on every lookup: a deep tree must not be walked
    # each time
    calls = []

    class Leaf:
        def __hash__(self):
            calls.append(self)
            return 7

    node = Pow(Leaf(), 2)
    outer = Mul((node, node))
    for _ in range(3):
        hash(outer)
        hash(node)
    assert len(calls) == 1


def test_fields_cannot_be_assigned_or_deleted():
    for record, name in ((Gen(2, 10, 1), "level"), (CheckResult("x", True, ""), "ok"),
                         (m_basis(2, 4), "prec"), (TorsionPoint(1, 0, 3), "a")):
        before = repr(record)
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert repr(record) == before


def test_repr_is_the_frozen_dataclass_repr():
    assert repr(Gen(2, 10, 1)) == "Gen(weight=2, level=10, index=1)"
    assert repr(Pow(Gen(2, 10, 1), 7)) == \
        "Pow(base=Gen(weight=2, level=10, index=1), exponent=7)"
    assert repr(Pow(Subst(Add((Const(Fraction(1, 2)), Eis(4))), 3), 2)) == (
        "Pow(base=Subst(child=Add(terms=(Const(value=Fraction(1, 2)), "
        "Eis(weight=4, scale=1))), d=3), exponent=2)")
    assert repr(CheckResult("dims:table:1", True, "ok")) == \
        "CheckResult(check_id='dims:table:1', ok=True, detail='ok')"
    assert repr(TorsionPoint(1, 0, 3)) == "TorsionPoint(a=1, b=0, level=3)"
    # a derived field is shown after the given ones
    assert repr(get_catalog(1).span_atoms[0]) == \
        "SpanAtom(name='E4_1', expr=Eis(weight=4, scale=1), valuation=0, weight=4)"


def test_pickle_and_copy_round_trip():
    basis = m_basis(3, 4)
    body = get_catalog(10).generators[(4, 1)]
    for value in (basis, body, get_catalog(7)):
        for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                      copy.deepcopy(value)):
            assert type(clone) is type(value)
            assert clone == value and repr(clone) == repr(value)
    assert pickle.loads(pickle.dumps(basis)).valuations == basis.valuations


def test_init_by_position_or_keyword_with_defaults():
    assert Eis(4) == Eis(4, 1) == Eis(weight=4) == Eis(scale=1, weight=4)
    assert isinstance(Const(3).value, Fraction)
    for args, kwargs in (((), {}), ((4, 1, 2), {}), ((4,), {"weight": 4}),
                         ((4,), {"level": 1})):
        with pytest.raises(TypeError):
            Eis(*args, **kwargs)
    with pytest.raises(ValueError):
        TorsionPoint(5, 0, 2)


def test_replace_derives_the_derived_fields_again():
    cat = get_catalog(7)
    doctored = cat.replace(seeds=(cat.base_seed,), base_seed=None)
    assert (cat.k0, doctored.k0) == (3, 2)
    assert doctored.span_atoms is cat.span_atoms
    assert cat.replace() == cat
    atom = cat.span_atoms[0]
    assert atom.replace(expr=Eis(6, 1)).weight == 6
    with pytest.raises(TypeError):
        cat.replace(k0=5)
