"""The five records of the package: TameCharacter, IntegralConfig,
GammaResult, SupportPoint and ParamData.

They are plain classes over one frozen-record base (padic.Record), so
that importing the package loads no dataclasses.  What callers see is
what the frozen dataclasses they replace gave: the constructors with
their defaults, positional or by keyword; == over every field but
GammaResult.metadata and ParamData.depth_check, and NotImplemented
against another class; a hash for SupportPoint and ParamData only, the
other three holding an unhashable field; the repr texts, pinned here as
the dataclasses printed them; AttributeError on assigning or deleting a
field; and copy and pickle round trips.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from ssgamma.characters import CharacterError, TameCharacter
from ssgamma.cyclotomic import CyclotomicNumber as C
from ssgamma.integrals import GammaResult, IntegralConfig, IntegralError, SupportPoint
from ssgamma.parameter import ParamData, param_summary
from ssgamma.scalars import ExactScalar

TAU_REPR = "TameCharacter(prime=3, unit_exponent=1, value_at_uniformizer=(Cyc(-1*z1^0)))"
TRIVIAL_TAU_REPR = "TameCharacter(prime=3, unit_exponent=0, value_at_uniformizer=(Cyc(1*z1^0)))"
REPRS = {
    "tau": TAU_REPR,
    "cfg": (
        f"IntegralConfig(prime=3, ell=1, zeta=Cyc(-1*z1^0), tau={TAU_REPR}, level=3, cutoff=1, "
        "mode='support-aware', t=(Fraction(1, 1), Fraction(1, 1)))"
    ),
    "cfg_t": (
        f"IntegralConfig(prime=3, ell=1, zeta=-1, tau={TRIVIAL_TAU_REPR}, level=2, cutoff=1, "
        "mode='brute-force', t=(Fraction(1, 1), Fraction(4, 1)))"
    ),
    "gamma": "GammaResult(computed=(Cyc(1*z1^0)), predicted=(Cyc(2*z1^0)), matches=False, metadata={})",
    "point": "SupportPoint(z=Fraction(1, 3), y=(Fraction(0, 1), Fraction(2, 1)), nonzero=True, predicted=False)",
    "param": (
        "ParamData(ell=2, prime=5, depth=Fraction(1, 4), kappa_table=(1, -1, -1, 1), depth_check={'two_ell': 4, "
        "'partitions_checked': 5, 'attaining': [[4]], 'unique_single_block': True})"
    ),
}


def records():
    """{name: record} of one instance of each record class, two of
    IntegralConfig, each built positionally."""
    tau = TameCharacter(3, 1, ExactScalar.from_coeff(3, -1))
    return {
        "tau": tau,
        "cfg": IntegralConfig(3, 1, -C.one(), tau),
        "cfg_t": IntegralConfig(3, 1, -1, TameCharacter(3, 0), 2, 1, "brute-force", [1, 4]),
        "gamma": GammaResult(ExactScalar.one(3), ExactScalar.from_coeff(3, 2), False),
        "point": SupportPoint(Fraction(1, 3), (Fraction(0), Fraction(2)), True, False),
        "param": param_summary(5, 2),
    }


def test_records_keep_the_frozen_dataclass_interface():
    built = records()
    assert {name: repr(record) for name, record in built.items()} == REPRS

    # keyword construction and the defaults
    tau = built["tau"]
    assert TameCharacter(prime=3, unit_exponent=1, value_at_uniformizer=ExactScalar.from_coeff(3, -1)) == tau
    assert TameCharacter(3, 0).value_at_uniformizer == ExactScalar.one(3)
    cfg = IntegralConfig(prime=3, ell=1, zeta=-C.one(), tau=tau)
    assert cfg == built["cfg"]
    assert (cfg.level, cfg.cutoff, cfg.mode) == (3, 1, "support-aware")
    assert GammaResult(computed=ExactScalar.one(3), predicted=ExactScalar.one(3), matches=True).metadata == {}
    point = SupportPoint(z=Fraction(1, 3), y=(Fraction(0), Fraction(2)), nonzero=True, predicted=False)
    assert point == built["point"]

    # t is normalised to a tuple of Fractions, all 1 by default
    for record, t in ((cfg, (1, 1)), (built["cfg_t"], (1, 4))):
        assert type(record.t) is tuple and record.t == t
        assert all(type(x) is Fraction for x in record.t)

    # equality skips GammaResult.metadata and ParamData.depth_check only
    gamma = built["gamma"]
    assert gamma == GammaResult(gamma.computed, gamma.predicted, False, {"p": 3})
    assert gamma != GammaResult(gamma.computed, gamma.predicted, True)
    param = built["param"]
    assert param == ParamData(param.ell, param.prime, param.depth, param.kappa_table, {})
    assert param != ParamData(param.ell, 7, param.depth, param.kappa_table, param.depth_check)
    assert point != SupportPoint(point.z, point.y, True, True)
    assert tau != TameCharacter(3, 0, ExactScalar.from_coeff(3, -1))
    for record in built.values():
        assert record.__eq__(tuple(record.__reduce__()[1])) is NotImplemented
        assert record.__eq__(tau if isinstance(record, SupportPoint) else point) is NotImplemented

    # hashable where every compared field is
    assert hash(point) == hash(built["point"])
    assert hash(param) == hash(ParamData(param.ell, param.prime, param.depth, param.kappa_table, {}))
    assert len({point, param, point}) == 2
    for name in ("tau", "cfg", "gamma"):
        with pytest.raises(TypeError):
            hash(built[name])

    for name, record in built.items():
        field = record.__slots__[0]
        # frozen: no field can be assigned or deleted, and there is no __dict__
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            delattr(record, field)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert not hasattr(record, "__dict__")
        assert repr(record) == REPRS[name]
        # copies and pickles rebuild an equal record with the same repr
        for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert type(twin) is type(record) and twin == record and repr(twin) == repr(record)


def test_records_check_their_arguments_in_order():
    """The checks run in the order the dataclass __post_init__ ran them,
    with the same messages."""
    tau = TameCharacter(3, 1)
    with pytest.raises(CharacterError, match="p must be an odd prime, got 9"):
        TameCharacter(9, 10)
    with pytest.raises(CharacterError, match=r"unit exponent must lie in 0\.\.1, got 2"):
        TameCharacter(3, 2, "not a scalar")
    with pytest.raises(CharacterError, match="must be an ExactScalar over 3"):
        TameCharacter(3, 1, ExactScalar.one(5))
    with pytest.raises(IntegralError, match="p must be an odd prime, got 9"):
        IntegralConfig(9, 0, 2, None, mode="x")
    with pytest.raises(IntegralError, match="tau must be a TameCharacter"):
        IntegralConfig(3, 0, 2, None, mode="x")
    with pytest.raises(IntegralError, match="tau is a character of Q_5, not of Q_3"):
        IntegralConfig(3, 0, 2, TameCharacter(5, 1), mode="x")
    with pytest.raises(IntegralError, match="need l >= 1, got 0"):
        IntegralConfig(3, 0, 2, tau, mode="x")
    with pytest.raises(IntegralError, match=r"zeta\^2 = 1"):
        IntegralConfig(3, 1, 2, tau, mode="x", t=(1,))
    with pytest.raises(IntegralError, match="mode must be"):
        IntegralConfig(3, 1, 1, tau, mode="x", t=(1,))
    with pytest.raises(IntegralError, match="need 2 affine parameters t, got 1"):
        IntegralConfig(3, 1, 1, tau, t=(1,))
