import gc
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from fraction_reference import sample_point

import lincert.cone
import lincert.fourier
import lincert.harness
import lincert.implicit
from lincert.cone import is_bounded, is_full_dimensional, is_reduced_to_origin
from lincert.core import (
    Constraint,
    InvariantError,
    LinearExpr,
    MultiplierVector,
    Point,
    Relation,
    System,
    check_multiplier_certificate,
    evaluate,
    make_system,
)
from lincert.dual import elementary_dual, extension_status
from lincert.fourier import feasibility, is_infeasibility_certificate
from lincert.harness import oracle_verdict
from lincert.implicit import implicit_set, nonzero_multiplier_exists
from lincert.pipeline import explore, run


def section2_primal(rhs1=2, rhs2=-1):
    return make_system(
        ["x", "y"],
        mains=[({"x": -1, "y": 1}, "<=", rhs1), ({"x": 1, "y": -1}, "<=", rhs2)],
        nonneg="all",
    )


def _strict(system, ids):
    """The system with the rows in `ids` made strict."""
    return system.with_rows(
        Constraint(c.cid, c.expr, Relation.LT, c.rhs, c.provenance) if c.cid in ids else c for c in system.constraints
    )


def _implicit_by_row(system):
    """Reference for a feasible system: one strict probe per <= row.  A row
    is an implicit equality iff making it strict leaves no solution."""
    return {
        c.cid
        for c in system.constraints
        if c.relation is Relation.LE and not feasibility(_strict(system, {c.cid})).feasible
    }


def test_explicit_equality_pair():
    sys = make_system(["x"], mains=[({"x": 1}, "<=", 0), ({"x": -1}, "<=", 0)])
    report = implicit_set(sys)
    assert report.implicit_ids == {0, 1} == _implicit_by_row(sys)
    lam = report.certificate
    assert lam.get(0) == lam.get(1) > 0
    assert check_multiplier_certificate(sys, lam)


def test_worked_example_rows_are_not_implicit():
    sys = section2_primal()
    # (0, 1) satisfies -x + y <= 2 with slack 1, so row 0 cannot be implicit.
    assert evaluate(sys.constraint(0), Point.from_names(sys, {"x": 0, "y": 1}))
    # (0, 2) satisfies x - y <= -1 with slack 1, so row 1 is not implicit either.
    assert evaluate(sys.constraint(1), Point.from_names(sys, {"x": 0, "y": 2}))
    report = implicit_set(sys)
    assert report.feasible
    assert report.implicit_ids == frozenset() == _implicit_by_row(sys)


def test_infeasible_input_is_a_distinct_error():
    sys = section2_primal(rhs1=-2, rhs2=1)
    report = implicit_set(sys)
    assert not report.feasible
    assert report.implicit_ids == frozenset()
    verdict = feasibility(sys)
    assert verdict.implicit_ids == frozenset() and verdict.equality_certificate is None


def test_implicit_set_of_fourier_projection_is_empty():
    sys = make_system(["y"], mains=[({"y": 1}, "<=", 0), ({"y": 3}, "<=", 0)])
    report = implicit_set(sys)
    assert report.feasible
    assert report.implicit_ids == frozenset()
    assert report.certificate.is_zero


def test_implicit_set_of_gaussian_image():
    sys = make_system(["y"], mains=[({"y": -3}, "<=", 0), ({"y": 1}, "<=", 0)])
    report = implicit_set(sys)
    assert report.implicit_ids == {0, 1}
    lam = report.certificate
    assert check_multiplier_certificate(sys, lam)
    # (1, 3) up to positive scaling.
    assert lam.get(1) == 3 * lam.get(0) and lam.get(0) > 0


def test_single_row_is_not_implicit():
    sys = make_system(["x"], mains=[({"x": 1}, "<=", 1)])
    assert implicit_set(sys).implicit_ids == frozenset()


def test_nonzero_multiplier_examples():
    cone = make_system(
        ["x", "y"],
        mains=[
            ({"x": 1, "y": 1}, "<=", 0),
            ({"x": 2, "y": -1}, "<=", 0),
            ({"x": -1, "y": 2}, "<=", 0),
        ],
    )
    flag, lam = nonzero_multiplier_exists(cone)
    assert not flag and lam is None

    pair = make_system(["x"], mains=[({"x": 1}, "<=", 0), ({"x": -1}, "<=", 0)])
    flag, lam = nonzero_multiplier_exists(pair)
    assert flag
    assert not lam.is_zero
    assert check_multiplier_certificate(pair, lam)


def test_dual_of_unsolvable_bounded_primal_has_no_nonzero_multipliers():
    from lincert.dual import elementary_dual

    primal = make_system(["x"], mains=[({"x": 1}, "<=", -1)], nonneg="all")
    assert not feasibility(primal).feasible
    dual = elementary_dual(primal)
    flag, _ = nonzero_multiplier_exists(dual.system)
    assert not flag


def test_reported_rows_are_tight_at_sampled_witnesses():
    rng = random.Random(2024)
    checked = 0
    while checked < 12:
        nvars = rng.randint(1, 3)
        names = [f"x{i}" for i in range(nvars)]
        rows = []
        for _ in range(rng.randint(1, 4)):
            coeffs = {n: rng.randint(-3, 3) for n in names}
            rows.append((coeffs, "<=", rng.randint(-2, 2)))
        sys = make_system(names, mains=rows)
        if not feasibility(sys).feasible:
            continue
        checked += 1
        report = implicit_set(sys)
        assert report.feasible
        witnesses = [sample_point(sys, rng) for _ in range(20)]
        for c in sys.constraints:
            tight_everywhere = all(c.expr.value_at(p) == c.rhs for p in witnesses)
            if c.cid in report.implicit_ids:
                assert tight_everywhere
                assert report.certificate.get(c.cid) > 0
        if report.implicit_ids:
            assert check_multiplier_certificate(sys, report.certificate)


def test_full_dimensional_systems_have_no_implicit_rows():
    sys = make_system(["x", "y"], mains=[({"x": 1, "y": 1}, "<=", 3)], nonneg="all")
    assert is_full_dimensional(sys)
    assert implicit_set(sys).implicit_ids == frozenset()


@st.composite
def small_systems(draw, relations=("<=", "<=", "<"), all_signed=False):
    """Up to 3 variables, some unsigned unless all_signed; random rows with
    strict and zero rows mixed in, and sometimes a pinned pair a <= b,
    -a <= -b.  Draws may be infeasible."""
    names = [f"x{i}" for i in range(draw(st.integers(1, 3)))]
    coeffs = st.fixed_dictionaries({n: st.integers(-3, 3) for n in names})
    rows = [
        (draw(coeffs | st.just({})), draw(st.sampled_from(relations)), draw(st.integers(-2, 2)))
        for _ in range(draw(st.integers(0, 4)))
    ]
    if draw(st.booleans()):
        a, b = draw(coeffs), draw(st.integers(-2, 2))
        rows += [(a, "<=", b), ({n: -c for n, c in a.items()}, "<=", -b)]
    nonneg = names if all_signed else [n for n in names if draw(st.booleans())]
    return make_system(names, mains=draw(st.permutations(rows)), nonneg=nonneg)


@settings(max_examples=150, deadline=None)
@given(sys=small_systems())
def test_implicit_set_matches_per_row_probes(sys):
    report = implicit_set(sys)
    assert report.feasible == feasibility(sys).feasible
    if not report.feasible:
        assert report.implicit_ids == frozenset() and report.certificate.is_zero
        return
    per_row = _implicit_by_row(sys)
    assert report.implicit_ids == per_row
    assert check_multiplier_certificate(sys, report.certificate)
    assert set(report.certificate.ids()) == per_row


def _nonzero_multiplier_by_row(system):
    """Reference: one multiplier-cone probe per row, asking for u_i >= 1."""
    rows = system.constraints
    names = [f"u{i}" for i in range(len(rows))]
    eqs = []
    for var in range(len(system.variables)):
        coeffs = {names[i]: rows[i].expr.coeff(var) for i in range(len(rows))}
        eqs += [(coeffs, "<=", 0), ({n: -c for n, c in coeffs.items()}, "<=", 0)]
    rhs = {names[i]: rows[i].rhs for i in range(len(rows))}
    eqs += [(rhs, "<=", 0), ({n: -c for n, c in rhs.items()}, "<=", 0)]
    return any(
        feasibility(make_system(names, mains=eqs + [({n: -1}, "<=", -1)], nonneg="all")).feasible
        for n in names
    )


@settings(max_examples=150, deadline=None)
@given(sys=small_systems(relations=("<=",)))
def test_nonzero_multiplier_exists_matches_per_row_probes(sys):
    flag, lam = nonzero_multiplier_exists(sys)
    assert flag == _nonzero_multiplier_by_row(sys)
    if flag:
        assert not lam.is_zero and check_multiplier_certificate(sys, lam)
    else:
        assert lam is None


def _count_feasibility_calls(monkeypatch):
    calls = []

    def counted(system):
        calls.append(system)
        return feasibility(system)

    monkeypatch.setattr(lincert.implicit, "feasibility", counted)
    return calls


def test_implicit_set_probe_counts(monkeypatch):
    calls = _count_feasibility_calls(monkeypatch)
    triangle = make_system(["x", "y"], mains=[({"x": 1, "y": 1}, "<=", 3)], nonneg="all")
    assert implicit_set(triangle).implicit_ids == frozenset()
    assert len(calls) == 1
    calls.clear()
    pinned = make_system(
        ["x", "y"], mains=[({"x": 1, "y": 1}, "<=", 2), ({"x": -1, "y": -1}, "<=", -2)], nonneg="all"
    )
    assert implicit_set(pinned).implicit_ids == {0, 1}
    assert len(calls) == 1


def test_equality_certificate_mismatch_is_an_invariant_error(monkeypatch):
    # The certificate and the rows tight at the witness are found apart; a
    # certificate that misses a tight row must never be reported.
    monkeypatch.setattr(lincert.fourier, "equality_certificate", lambda system, trace: MultiplierVector())
    pinned = make_system(["x"], mains=[({"x": 1}, "<=", 1), ({"x": -1}, "<=", -1)])
    with pytest.raises(InvariantError):
        implicit_set(pinned)
    assert feasibility(make_system(["x"], mains=[({"x": 1}, "<=", 1)])).implicit_ids == frozenset()


def _count_certificate_replays(monkeypatch):
    calls = []
    original = lincert.fourier.equality_certificate

    def counted(system, trace):
        calls.append(system)
        return original(system, trace)

    monkeypatch.setattr(lincert.fourier, "equality_certificate", counted)
    return calls


def test_flag_only_callers_never_replay_the_equality_certificate(monkeypatch):
    replays = _count_certificate_replays(monkeypatch)
    feasible_seen = []
    for module in (lincert.cone, lincert.harness):
        def recorded(system):
            verdict = feasibility(system)
            feasible_seen.append(verdict.feasible)
            return verdict
        monkeypatch.setattr(module, "feasibility", recorded)
    unbounded = make_system(["x", "y"], mains=[({"x": 1, "y": -1}, "<=", 1)], nonneg="all")
    assert oracle_verdict(section2_primal()) and oracle_verdict(unbounded)
    assert not is_bounded(unbounded)
    assert not is_reduced_to_origin(make_system(["x", "y"], mains=[({"x": 1, "y": -1}, "<=", 0)], nonneg="all"))
    assert len(feasible_seen) == 4 and all(feasible_seen)
    assert replays == []


def test_evidence_is_replayed_once_on_first_read(monkeypatch):
    replays = _count_certificate_replays(monkeypatch)
    pinned = make_system(["x", "y"], mains=[({"x": 1, "y": 1}, "<=", 2), ({"x": -1, "y": -1}, "<=", -2)])
    verdict = feasibility(pinned)
    assert replays == []
    assert verdict.implicit_ids == {0, 1}
    assert set(verdict.equality_certificate.ids()) == {0, 1}
    assert verdict.implicit_ids == {0, 1}
    assert len(replays) == 1


def test_a_wrong_certificate_fails_the_first_read_of_implicit_ids(monkeypatch):
    monkeypatch.setattr(lincert.fourier, "equality_certificate", lambda system, trace: MultiplierVector())
    pinned = make_system(["x"], mains=[({"x": 1}, "<=", 1), ({"x": -1}, "<=", -1)])
    verdict = feasibility(pinned)
    assert verdict.feasible and verdict.witness == Point.of({0: 1})
    with pytest.raises(InvariantError):
        verdict.implicit_ids


def test_nonzero_multiplier_exists_makes_one_probe(monkeypatch):
    calls = _count_feasibility_calls(monkeypatch)
    pair = make_system(["x", "y"], mains=[({"x": 1}, "<=", 0), ({"x": -1}, "<=", 0), ({"y": 1}, "<=", 1)])
    flag, lam = nonzero_multiplier_exists(pair)
    assert flag and lam.ids() == (0, 1)
    assert len(calls) == 1


def _tight_rows(system, point):
    return {c.cid for c in system.constraints if c.relation is Relation.LE and c.expr.value_at(point) == c.rhs}


@settings(max_examples=150, deadline=None)
@given(sys=small_systems(), data=st.data())
def test_rows_tight_at_the_witness_are_the_implicit_equalities(sys, data):
    # The witness lies in the relative interior of the solution set, so under
    # any elimination order the rows tight there are the implicit equalities.
    # Permuting the variable table changes which variable wins a tie for the
    # cheapest, so it may give one more order; row ids stay, so the implicit
    # set does too.
    if not feasibility(sys).feasible:
        return
    per_row = _implicit_by_row(sys)
    renamed = _renamed(sys, data.draw(st.permutations(range(len(sys.variables)))))
    for system in (sys, renamed):
        verdict = feasibility(system)
        assert verdict.feasible
        assert _tight_rows(system, verdict.witness) == verdict.implicit_ids == per_row
        lam = verdict.equality_certificate
        assert set(lam.ids()) == per_row and check_multiplier_certificate(system, lam)


def _renamed(system, permutation):
    """The same system with its variable table permuted: variable v moves to
    position permutation.index(v); row ids stay."""
    where = {v: i for i, v in enumerate(permutation)}
    rows = []
    for c in system.constraints:
        expr = LinearExpr.from_terms({where[v]: a for v, a in c.expr.terms})
        rows.append(Constraint(c.cid, expr, c.relation, c.rhs, c.provenance))
    return System(tuple(system.variables[v] for v in permutation), tuple(rows))


@settings(max_examples=150, deadline=None)
@given(sys=small_systems(), data=st.data())
def test_renaming_variables_keeps_verdict_and_implicit_equalities(sys, data):
    renamed = _renamed(sys, data.draw(st.permutations(range(len(sys.variables)))))
    expected = feasibility(sys)
    verdict = feasibility(renamed)
    assert verdict.feasible == expected.feasible
    assert verdict.implicit_ids == expected.implicit_ids
    assert is_full_dimensional(renamed) == is_full_dimensional(sys)
    if verdict.feasible:
        assert all(evaluate(c, verdict.witness) for c in renamed.constraints)
        lam = verdict.equality_certificate
        assert set(lam.ids()) == verdict.implicit_ids and check_multiplier_certificate(renamed, lam)
    else:
        assert is_infeasibility_certificate(renamed, verdict.certificate)


@settings(max_examples=150, deadline=None)
@given(primal=small_systems(relations=("<=",), all_signed=True))
def test_extension_status_matches_strict_probe(primal):
    dual = elementary_dual(primal)
    ext = dual.extension_id
    status = extension_status(dual)
    assert status.implicit == (not feasibility(_strict(dual.system, {ext})).feasible)
    assert status.implicit == feasibility(primal).feasible
    if status.implicit:
        lam = status.certificate
        assert lam.get(ext) > 0 and check_multiplier_certificate(dual.system, lam)
    else:
        assert all(evaluate(c, status.witness) for c in _strict(dual.system, {ext}).constraints)


def _count_chains(monkeypatch):
    chains = []
    original = lincert.fourier._chain

    def counted(system, *args, **kwargs):
        chains.append(system)
        return original(system, *args, **kwargs)

    monkeypatch.setattr(lincert.fourier, "_chain", counted)
    return chains


def test_full_dimension_after_implicit_set_repeats_no_elimination(monkeypatch):
    chains = _count_chains(monkeypatch)
    replays = _count_certificate_replays(monkeypatch)
    pinned = make_system(["x", "y"], mains=[({"x": 1, "y": 1}, "<=", 2), ({"x": -1, "y": -1}, "<=", -2)])
    assert implicit_set(pinned).implicit_ids == {0, 1}
    assert not is_full_dimensional(pinned)
    assert len(chains) == 1 and len(replays) == 1
    assert feasibility(pinned).feasible and feasibility(pinned).feasible
    assert len(chains) == 1


def test_origin_test_reads_the_primals_memo(monkeypatch):
    # No primal's rows cap every variable, so only a Fourier chain on the
    # primal or on its cone can settle either question.
    feasible = make_system(
        ["x", "y"], mains=[({"x": 2, "y": -1}, "<=", 2), ({"x": -1, "y": 1}, "<=", 1)], nonneg="all"
    )
    infeasible = make_system(
        ["x", "y"], mains=[({"x": 2, "y": -1}, "<=", -2), ({"x": -1, "y": 1}, "<=", -1)], nonneg="all"
    )
    unbounded = make_system(
        ["x", "y"], mains=[({"x": 1, "y": -1}, "<=", -1), ({"x": -1, "y": 1}, "<=", -1)], nonneg="all"
    )
    chains = _count_chains(monkeypatch)
    cases = ((feasible, True, False), (infeasible, True, True), (unbounded, False, False))
    for primal, bounded, origin_only in cases:
        implicit_set(primal)
        assert is_bounded(primal) is bounded
        cone = lincert.cone.primal_cone(primal).system
        del chains[:]
        assert is_reduced_to_origin(cone) is origin_only
        assert chains == []

    cold = System(feasible.variables, feasible.constraints)
    assert not is_reduced_to_origin(lincert.cone.primal_cone(cold).system)
    assert len(chains) == 1
    assert is_full_dimensional(cold)
    assert len(chains) == 1


def _verdict_answers(verdict):
    if not verdict.feasible:
        return verdict
    return verdict, verdict.implicit_ids, verdict.equality_certificate


def _fresh(system):
    return System(system.variables, system.constraints, system.objective, system.is_cone)


@settings(max_examples=150, deadline=None)
@given(sys=small_systems())
def test_memoized_answers_match_a_fresh_copy(sys):
    questions = [
        lambda s: _verdict_answers(feasibility(s)),
        implicit_set,
        is_full_dimensional,
    ]
    for question in questions + questions[::-1]:
        assert question(sys) == question(_fresh(sys))


def test_a_dropped_system_is_freed_without_the_cycle_collector():
    def pinned():
        rows = [({"x": 1, "y": 1}, "<=", 2), ({"x": -1, "y": -1}, "<=", -2)]
        return make_system(["x", "y"], mains=rows, nonneg="all")

    gc.collect()
    gc.disable()
    try:
        system = pinned()
        verdict = feasibility(system)
        held = weakref.ref(system)
        del system
        assert held() is None
        assert verdict.implicit_ids == {0, 1}  # the evidence outlives the system it came from
        assert verdict._find_evidence is None  # and the trace it was found from is freed

        system = pinned()
        assert feasibility(system).implicit_ids == implicit_set(system).implicit_ids == {0, 1}
        assert is_bounded(system) and not is_full_dimensional(system)
        assert run(system).solvable
        assert not explore(system).pivot_sensitive
        assert set(system._memo) == {
            "feasibility", "primal_cone", "has_solution_at_infinity", "working_system"
        }
        held = weakref.ref(system)
        del system
        assert held() is None

        # A cone held after its primal is dropped does not keep it alive,
        # and still answers, now from its own probe.
        system = pinned()
        cone = lincert.cone.primal_cone(system).system
        assert not is_reduced_to_origin(cone)
        held = weakref.ref(system)
        del system
        assert held() is None
        assert not is_reduced_to_origin(cone)
    finally:
        gc.enable()
