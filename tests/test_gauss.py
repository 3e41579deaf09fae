import random
from fractions import Fraction

import pytest

from lincert import gauss
from lincert.core import (
    InvariantError,
    MultiplierVector,
    RelationError,
    UnknownConstraintError,
    check_multiplier_certificate,
    make_system,
)
from lincert.gauss import (
    NonHomogeneousError,
    PivotError,
    classify,
    redundancy_witness,
    reverse_multipliers,
    substitute_through,
    transfer_multipliers,
)
from lincert.implicit import implicit_set, nonzero_multiplier_exists


def parasite_cone():
    return make_system(
        ["x", "y"],
        mains=[
            ({"x": 1, "y": 1}, "<=", 0),
            ({"x": 2, "y": -1}, "<=", 0),
            ({"x": -1, "y": 2}, "<=", 0),
        ],
    )


def test_classify_parasite_cone():
    cls = classify(parasite_cone(), 0, 0)
    assert cls.pivot_scale == 1 and cls.pivot_sign == 1
    assert cls.same_sign == (1,)
    assert cls.opposite == (2,)
    assert cls.free == ()
    assert cls.var_sign_id is None
    assert cls.scale_of(1) == 2 and cls.scale_of(2) == 1


def test_classify_negative_pivot_coefficient():
    sys = make_system(
        ["x", "y"],
        mains=[
            ({"x": -1, "y": 1}, "<=", 0),
            ({"x": 2, "y": -1}, "<=", 0),
            ({"x": -3, "y": 1}, "<=", 0),
        ],
    )
    cls = classify(sys, 0, 0)
    assert cls.pivot_sign == -1 and cls.pivot_scale == 1
    assert cls.same_sign == (2,)  # same sign as the pivot's -1
    assert cls.opposite == (1,)


def test_classify_sign_rows_are_slotted():
    sys = make_system(
        ["x", "y"],
        mains=[({"x": 1, "y": 1}, "<=", 0), ({"y": -1, "x": 0}, "<=", 0)],
        nonneg="all",
    )
    cls = classify(sys, 0, 0)
    assert cls.var_sign_id == 2  # the -x <= 0 row
    assert 3 in cls.other_signs
    assert cls.free == (1,)


def test_classify_errors():
    sys = parasite_cone()
    with pytest.raises(PivotError):
        classify(make_system(["x", "y"], mains=[({"y": 1}, "<=", 0), ({"x": 1, "y": 1}, "<=", 0)]), 0, 0)
    with pytest.raises(PivotError):
        classify(make_system(["x", "y"], mains=[({"x": 2}, "<=", 0), ({"x": 1, "y": 1}, "<=", 0)]), 0, 0)
    with pytest.raises(NonHomogeneousError):
        classify(make_system(["x", "y"], mains=[({"x": 1, "y": 1}, "<=", 1)]), 0, 0)
    with pytest.raises(RelationError):
        classify(make_system(["x", "y"], mains=[({"x": 1, "y": 1}, "<", 0)]), 0, 0)


def test_substitute_through_checks_its_own_inputs():
    with pytest.raises(RelationError):
        substitute_through(make_system(["x", "y"], mains=[({"x": 1, "y": 1}, "<=", 0), ({"x": 1}, "<", 1)]), 0, 0)
    with pytest.raises(PivotError):
        substitute_through(make_system(["x", "y"], mains=[({"y": 1}, "<=", 0), ({"x": 1, "y": 1}, "<=", 0)]), 0, 0)
    with pytest.raises(UnknownConstraintError):
        substitute_through(parasite_cone(), 0, 7)


def test_substitute_parasite_cone_rows():
    out = substitute_through(parasite_cone(), 0, 0)
    # Same-sign row scaled: -(1/1)y + (1/2)(-y) = -(3/2)y; opposite: y + 2y.
    rows = {c.cid: c for c in out.constraints}
    assert dict(rows[1].expr.terms) == {1: Fraction(-3, 2)}
    assert dict(rows[2].expr.terms) == {1: Fraction(3)}
    assert all(c.rhs == 0 for c in out.constraints)


def test_substituted_set_admits_multipliers_where_projection_does_not():
    fm_like = make_system(["y"], mains=[({"y": 1}, "<=", 0), ({"y": 3}, "<=", 0)])
    assert not nonzero_multiplier_exists(fm_like)[0]
    out = substitute_through(parasite_cone(), 0, 0)
    flag, lam = nonzero_multiplier_exists(out)
    assert flag and not lam.is_zero


def test_substitute_through_equality_pair_keeps_solutions():
    sys = make_system(["x", "y"], mains=[({"x": 1, "y": -1}, "<=", 0), ({"x": -1, "y": 1}, "<=", 0)])
    out = substitute_through(sys, 0, 0)
    # x = y substituted into the opposite row gives the zero row.
    assert [c.expr.is_zero for c in out.constraints] == [True]
    assert out.constraint(1).rhs == 0


def test_substitute_through_inhomogeneous_rows():
    sys = make_system(
        ["a", "b"],
        mains=[({"a": 1, "b": 1}, "<=", 4), ({"a": 2, "b": -1}, "<=", 2)],
        nonneg="all",
    )
    out = substitute_through(sys, 0, 0)
    # a = 4 - b; second row: 2(4 - b) - b <= 2 -> scaled by 1/2.
    row = out.constraint(1)
    assert dict(row.expr.terms) == {1: Fraction(-3, 2)}
    assert row.rhs == Fraction(-3)
    promoted = out.constraint(2)  # the old -a <= 0 sign row
    assert dict(promoted.expr.terms) == {1: Fraction(1)}
    assert promoted.rhs == 4
    assert promoted.provenance.kind == "derived"


def test_transfer_of_zero_certificate_is_zero():
    cls = classify(parasite_cone(), 0, 0)
    assert transfer_multipliers(cls, MultiplierVector.of({})).is_zero


def test_transfer_rejects_invalid_certificates():
    cls = classify(parasite_cone(), 0, 0)
    with pytest.raises(Exception):
        transfer_multipliers(cls, MultiplierVector.of({0: 1}))


def _planted_instance(rng, max_vars=3, max_rows=4):
    """Homogeneous system with sign rows and a planted positive certificate."""
    nvars = rng.randint(1, max_vars)
    names = [f"x{i}" for i in range(nvars)]
    k = rng.randint(2, max_rows)
    rows = []
    for _ in range(k - 1):
        rows.append({n: rng.randint(-3, 3) for n in names})
    weights = [Fraction(rng.randint(1, 4)) for _ in range(k)]
    sign_weights = [Fraction(rng.randint(0, 2)) for _ in range(nvars)]
    total = {n: Fraction(0) for n in names}
    for row, w in zip(rows, weights[:-1]):
        for n, c in row.items():
            total[n] += w * c
    for i, n in enumerate(names):
        total[n] -= sign_weights[i]
    last = {n: -total[n] / weights[-1] for n in names}
    rows.append(last)
    sys = make_system(names, mains=[(r, "<=", 0) for r in rows], nonneg="all")
    mu = {i: weights[i] for i in range(k)}
    for i in range(nvars):
        mu[k + i] = sign_weights[i]
    return sys, MultiplierVector.of(mu)


def _usable_pivots(sys):
    out = []
    for c in sys.main_rows():
        for v, _ in c.expr.terms:
            if not c.expr.drop(v).is_zero:
                out.append((v, c.cid))
    return out


def test_transfer_and_reverse_round_trip_on_planted_instances():
    rng = random.Random(41)
    done = 0
    while done < 80:
        sys, mu = _planted_instance(rng)
        assert check_multiplier_certificate(sys, mu)
        pivots = _usable_pivots(sys)
        if not pivots:
            continue
        done += 1
        var, pid = pivots[rng.randrange(len(pivots))]
        cls = classify(sys, var, pid)
        moved = transfer_multipliers(cls, mu)
        out = substitute_through(sys, var, pid)
        assert check_multiplier_certificate(out, moved)
        result = reverse_multipliers(cls, moved)
        assert result.legitimate
        assert result.multipliers == mu
        assert result.pivot_weight == mu.get(pid)


def test_parasite_detection_on_worked_example():
    sys = parasite_cone()
    cls = classify(sys, 0, 0)
    out = substitute_through(sys, 0, 0)
    report = implicit_set(out)
    assert report.implicit_ids == {1, 2}
    result = reverse_multipliers(cls, report.certificate)
    assert not result.legitimate
    assert result.pivot_weight < 0


def test_all_zero_new_certificate_is_legitimate():
    cls = classify(parasite_cone(), 0, 0)
    result = reverse_multipliers(cls, MultiplierVector.of({}))
    assert result.legitimate
    assert result.pivot_weight == 0
    assert result.multipliers.is_zero


def test_redundancy_witness_on_worked_example():
    sys = parasite_cone()
    cls = classify(sys, 0, 0)
    out = substitute_through(sys, 0, 0)
    witness = redundancy_witness(cls, implicit_set(out).certificate)
    # x + y is recovered as 1*(2x - y) + 1*(-x + 2y), exactly.
    assert witness == MultiplierVector.of({1: 1, 2: 1})


def test_redundancy_witness_rejects_legitimate_input():
    cls = classify(parasite_cone(), 0, 0)
    with pytest.raises(Exception):
        redundancy_witness(cls, MultiplierVector.of({}))


def test_reverse_multipliers_raises_when_a_nonnegative_lift_fails(monkeypatch):
    # A nonnegative pivot weight lifts to a certificate by the transfer
    # identity; a lift that fails its check is a bug, not a parasite.
    cls = classify(parasite_cone(), 0, 0)
    monkeypatch.setattr(gauss, "_reconstruct", lambda cls, mu_new: (Fraction(1), {0: Fraction(1)}))
    with pytest.raises(InvariantError):
        reverse_multipliers(cls, MultiplierVector.of({}))


def _independent(r1, r2, names):
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            a, b = names[i], names[j]
            if r1[a] * r2[b] != r1[b] * r2[a]:
                return True
    return False


def test_redundancy_witness_recovers_planted_combination():
    rng = random.Random(42)
    done = 0
    while done < 40:
        nvars = rng.randint(2, 3)
        names = [f"x{i}" for i in range(nvars)]
        r1 = {n: rng.randint(-3, 3) for n in names}
        r2 = {n: rng.randint(-3, 3) for n in names}
        if not _independent(r1, r2, names):
            continue
        c1, c2 = rng.randint(1, 3), rng.randint(1, 3)
        pivot_row = {n: c1 * r1.get(n, 0) + c2 * r2.get(n, 0) for n in names}
        sys = make_system(
            names,
            mains=[(pivot_row, "<=", 0), (r1, "<=", 0), (r2, "<=", 0)],
        )
        pivot_vars = [v for v, _ in sys.constraint(0).expr.terms if not sys.constraint(0).expr.drop(v).is_zero]
        if not pivot_vars:
            continue
        var = pivot_vars[0]
        out = substitute_through(sys, var, 0)
        flag, lam = nonzero_multiplier_exists(out)
        if not flag:
            continue
        done += 1
        # Independent donors leave the source system without any nonzero
        # certificate, so every certificate of the image must be a parasite.
        assert not nonzero_multiplier_exists(sys)[0]
        cls = classify(sys, var, 0)
        result = reverse_multipliers(cls, lam)
        assert not result.legitimate
        witness = redundancy_witness(cls, lam)
        # ... and the representation it rearranges into is unique: the
        # planted coefficients come back exactly.
        assert witness == MultiplierVector.of({1: c1, 2: c2})
