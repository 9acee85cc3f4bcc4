"""Summation-identity suite: anomalies, identity residuals, degeneracies,
telescoping fixtures.  Everything here is exact; a residual passes only if it
is the zero polynomial."""

import hashlib
import json
import os
import re
from fractions import Fraction

import pytest
from ring_helpers import total_degree

from bureshall import cli, identities
from bureshall.identities import (
    _FIXTURES,
    _IDENTITIES,
    _OMEGA,
    AnomalyDomainError,
    IdentityDomainError,
    _params_dict,
    case,
    default_grid,
    degenerate_anomaly_check,
    identity_residual,
    omega,
    resummation_telescope_check,
    telescope_grid,
)
from bureshall.ring import GAMMA, ZETA2, ConstPoly


class TestOmega:
    def test_single_term_examples(self):
        assert omega(1, 1, a=1) == -GAMMA
        assert omega(5, 1, b=0, c=0) == ZETA2

    def test_omega6_m2(self):
        expected = ConstPoly.const(Fraction(1, 2)) - Fraction(3, 2) * GAMMA
        assert omega(6, 2, b=0, c=0) == expected

    def test_zero_denominator_names_offender(self):
        with pytest.raises(AnomalyDomainError, match="k=3"):
            omega(1, 3, a=2)

    def test_nonpositive_argument_names_offender(self):
        with pytest.raises(AnomalyDomainError, match="k=2"):
            omega(2, 2, a=1)  # psi0(a+1-k) hits 0 at k = 2

    def test_param_validation(self):
        with pytest.raises(ValueError, match="does not take parameter 'a'"):
            omega(6, 2, a=Fraction(1), b=0, c=0)  # omega6 takes (b, c), not a
        with pytest.raises(ValueError, match="requires parameter 'a'"):
            omega(1, 2)  # missing a
        with pytest.raises(ValueError, match="does not take parameter 'z'"):
            omega(1, 2, a=3, z=1)
        with pytest.raises(ValueError):
            omega(99, 2)
        with pytest.raises(ValueError):
            omega(1, 0, a=3)

    def test_half_integer_parameter_hits_ln2_sector(self):
        value = omega(2, 3, a=Fraction(7, 2))
        assert any(mono[1] > 0 for mono in value.terms)  # an l2 term appears

    def test_rows_no_identity_reaches(self):
        # Omega_4 and Omega_5 are the whole left side of no identity; the grid
        # reaches them only as terms of other identities' sides, so here they
        # are also checked against values summed by hand from psi0(2) = 1 - g,
        # psi0(3) = 3/2 - g, psi1(2) = z2 - 1, psi1(3) = z2 - 5/4
        expected = Fraction(3, 2) * GAMMA ** 2 - Fraction(7, 2) * GAMMA + Fraction(17, 8)
        assert omega(4, 2, b=1, c=0) == expected
        assert omega(5, 2, b=1, c=2) == Fraction(7, 12) * ZETA2 - Fraction(31, 48)

    def test_every_row_reached(self, monkeypatch, cpus):
        # the verification suite evaluates each row of the anomaly table; on one
        # usable CPU every row is evaluated, and recorded, in this process
        cpus(1)
        reached = set()

        def recording(index, m, **params):
            reached.add(index)
            return omega(index, m, **params)

        monkeypatch.setattr(identities, "omega", recording)
        assert cli.verify_identities_report(max_m=1)["all_passed"]
        assert reached == set(_OMEGA)

    @pytest.mark.parametrize("index, wrong_row", [
        (4, (_OMEGA[4][0], 2, _OMEGA[4][2])),  # power 2 instead of 1
        (5, (_OMEGA[5][0], 1, ((2, _OMEGA[5][2][0][1]),))),  # psi2 instead of psi1
    ], ids=["omega4_power", "omega5_order"])
    def test_wrong_row_fails_verification(self, monkeypatch, cpus, index, wrong_row):
        # every row is reached by the suite, so a wrong one must fail it, on one
        # usable CPU and with a forked worker alike; the cache is cleared on
        # both sides of the mutation, or stale values would hide it (before) or
        # leak into later tests (after)
        for count, pool_size in ((1, 0), (2, 1)):
            forks = cpus(count)
            omega.cache_clear()
            try:
                with monkeypatch.context() as patch:
                    patch.setitem(_OMEGA, index, wrong_row)
                    report = cli.verify_identities_report(max_m=2)
            finally:
                omega.cache_clear()
            assert len(forks) == pool_size
            failing = [c for c in report["cases"] if not c["residual_is_zero"]]
            assert report["n_failures"] == len(failing) > 0
            assert not report["all_passed"]
            for c in failing:
                assert not ConstPoly.from_text(c["residual_text_if_nonzero"]).is_zero()

    def test_degree_at_most_two(self):
        specs = [
            (4, 4, {"b": 1, "c": 2}),
            (10, 3, {"a": 5}),
            (14, 4, {"a": 6}),
            (16, 5, {"b": 2}),
        ]
        for index, m, params in specs:
            assert total_degree(omega(index, m, **params)) <= 2


class TestSplit:
    """The suite's jobs split between this process and forked children."""

    def test_report_independent_of_cpus(self, cpus, monkeypatch):
        # one usable CPU, two, and two where os.fork is missing
        reports = {}
        for name, count, pool_size in (("cpus1", 1, 0), ("cpus2", 2, 1), ("nofork", 2, 0)):
            forks = cpus(count)
            if name == "nofork":
                monkeypatch.delattr(os, "fork")
            reports[name] = json.dumps(cli.verify_identities_report(max_m=3), indent=2)
            assert len(forks) == pool_size
        assert reports["cpus1"] == reports["cpus2"] == reports["nofork"]
        assert json.loads(reports["cpus1"])["all_passed"]

    def test_caller_reaches_every_entry_point(self, monkeypatch, cpus):
        # with more usable CPUs than the suite has degeneracy jobs, this process
        # still evaluates a job of each family, so a tracer here sees them all
        forks = cpus(24)
        caller = os.getpid()
        reached = set()
        for name in ("identity_residual", "degenerate_anomaly_check",
                     "resummation_telescope_check"):
            def recording(*args, _name=name, _entry=getattr(identities, name)):
                if os.getpid() == caller:
                    reached.add(_name)
                return _entry(*args)

            monkeypatch.setattr(identities, name, recording)
        assert cli.verify_identities_report(max_m=1)["all_passed"]
        assert len(forks) == 23
        assert reached == {"identity_residual", "degenerate_anomaly_check",
                           "resummation_telescope_check"}

    def test_worker_error_reaches_caller(self, monkeypatch, cpus):
        # an exception raised in a worker's share is raised here, with its type
        forks = cpus(2)
        caller = os.getpid()
        residual = identities.identity_residual

        def failing_in_worker(cs):
            if os.getpid() != caller:
                raise AnomalyDomainError(f"raised in process {os.getpid()}")
            return residual(cs)

        monkeypatch.setattr(identities, "identity_residual", failing_in_worker)
        with pytest.raises(AnomalyDomainError, match=r"raised in process \d+") as exc:
            cli.verify_identities_report(max_m=1)
        assert int(re.search(r"\d+", str(exc.value)).group()) in forks


class TestDegeneracies:
    @pytest.mark.parametrize("m", [1, 5, 20])
    def test_all_relations_pass(self, m):
        report = degenerate_anomaly_check(m)
        assert len(report) == 3
        assert all(residual.is_zero() for _, residual in report)

    def test_relation_names(self):
        names = [name for name, _ in degenerate_anomaly_check(2)]
        assert names == [
            "omega7_equals_omega9",
            "omega8_equals_omega10",
            "omega11_equals_omega10",
        ]


class TestIdentityExamples:
    def test_simplest_closed_form_m1_m2(self):
        assert identity_residual(case("psi0_over_mk", 1)).is_zero()
        assert identity_residual(case("psi0_over_mk", 2)).is_zero()

    def test_three_term_basic(self):
        assert identity_residual(case("three_term_cycle", 2, a=1, b=2, c=3)).is_zero()

    def test_lhs_value_m1(self):
        # at m = 1 the simplest identity's left side is psi0(1) = -gamma,
        # so the right side must equal it too
        cat = _IDENTITIES["psi0_over_mk"]
        assert cat.lhs(m=1) == -GAMMA
        assert cat.rhs(m=1) == -GAMMA


class TestIdentityGrid:
    def test_medium_grid_all_zero(self):
        cases = default_grid(max_m=3)
        assert len(cases) > 500
        for cs in cases:
            res = identity_residual(cs)
            assert res.is_zero(), (cs, res.to_text())

    def test_half_integer_a_cases_zero(self):
        for ident in ("psi0_ak_over_k", "psi0_over_ak2", "psi0_psi0ak_over_k",
                      "psi1_over_ak", "psi0_psi0shift_over_mk"):
            for m in (1, 2, 4):
                res = identity_residual(case(ident, m, a=m + Fraction(1, 2)))
                assert res.is_zero(), ident

    def test_grid_size_and_order(self):
        # the digest pins every identity id and parameter set, in order
        grid = default_grid(8)
        assert len(grid) == 2128
        listing = json.dumps([[cs.identity_id, _params_dict(cs)] for cs in grid])
        assert hashlib.sha256(listing.encode()).hexdigest() == (
            "0384af302f8a07e31749550a7534fc2c580524389dbb53abd39350fc3f2524c8")

    def test_residual_degree_bounded(self):
        cat = _IDENTITIES
        assert total_degree(cat["psi0_psi0ak_over_k"].lhs(m=3, a=Fraction(5))) <= 2
        assert total_degree(cat["psi0_psi0ak_over_k"].rhs(m=3, a=Fraction(5))) <= 3


class TestAdmissibility:
    def test_boundary_a_equals_m_rejected(self):
        with pytest.raises(IdentityDomainError):
            identity_residual(case("psi0_ak_over_k", 3, a=3))

    def test_three_term_distinctness(self):
        with pytest.raises(IdentityDomainError):
            identity_residual(case("three_term_cycle", 2, a=1, b=1, c=3))
        with pytest.raises(IdentityDomainError):
            identity_residual(case("three_term_cycle", 2, a=1, b=2, c=Fraction(5, 2)))

    def test_swap_needs_distinct_bc(self):
        with pytest.raises(IdentityDomainError):
            identity_residual(case("psi0_kb_over_kc_swap", 2, b=1, c=1))

    def test_trigamma_needs_positive_alpha(self):
        with pytest.raises(IdentityDomainError):
            identity_residual(case("trigamma_alpha_closed_1", 2, alpha=Fraction(-1, 2)))

    def test_m_must_be_positive(self):
        with pytest.raises(IdentityDomainError, match="m must be a positive integer"):
            identity_residual(case("psi0_over_mk", 0))

    def test_b_positive(self):
        with pytest.raises(IdentityDomainError, match="need b > 0, got b=0"):
            identity_residual(case("psi0_kb_over_k2", 2, b=0))

    def test_b_nonnegative(self):
        with pytest.raises(IdentityDomainError, match="need b >= 0, got b=-1"):
            identity_residual(case("psi0_kb_over_kb2", 2, b=-1))

    def test_block_difference_needs_positive_a(self):
        with pytest.raises(IdentityDomainError, match="need a > 0, got a=0"):
            identity_residual(case("psi0_block_difference_pair", 2, a=0, b=1))

    def test_unknown_identity(self):
        with pytest.raises(KeyError):
            identity_residual(case("no_such_identity", 1))

    def test_parameter_the_identity_does_not_read(self):
        # both sides take their parameters by name, so a case that sets one
        # its identity does not read is an error, not silently ignored
        with pytest.raises(TypeError, match="'a'"):
            identity_residual(case("psi0_over_mk", 2, a=5))
        with pytest.raises(TypeError, match="'alpha'"):
            identity_residual(case("psi0_kb_over_k2", 2, b=1, alpha=Fraction(1, 2)))


class TestTelescopes:
    def test_one_term_telescope(self):
        assert resummation_telescope_check("tele_psi0_ak_over_k", 1, 1).is_zero()

    def test_worked_examples(self):
        assert resummation_telescope_check("tele_psi0_psi0ak_over_k", 3, 2).is_zero()
        assert resummation_telescope_check("tele_psi0_psi0shift_over_mk", 4, 1).is_zero()

    def test_full_fixture_grid(self):
        for cs in telescope_grid():
            assert resummation_telescope_check(cs.identity_id, cs.m, cs.b).is_zero(), cs

    @pytest.mark.parametrize("fixture_id", list(_FIXTURES))
    def test_wrong_step_fails_verification(self, monkeypatch, cpus, fixture_id):
        # a row's d off by 1e-30 fails its fixture's cases from m = 2 on, where
        # the steps first read d, and no other case, on one usable CPU and with
        # a forked worker alike
        index, f, h1, d = _FIXTURES[fixture_id]
        wrong_row = (index, f, h1, lambda r, b: d(r, b) + Fraction(1, 10 ** 30))
        for count, pool_size in ((1, 0), (2, 1)):
            forks = cpus(count)
            with monkeypatch.context() as patch:
                patch.setitem(_FIXTURES, fixture_id, wrong_row)
                report = cli.verify_identities_report(max_m=1)
            assert len(forks) == pool_size
            failing = [c for c in report["cases"] if not c["residual_is_zero"]]
            assert report["n_failures"] == len(failing) == 5 * 4
            assert not report["all_passed"]
            assert {(c["identity_id"], c["params"]["m"]) for c in failing} == {
                (fixture_id, m) for m in range(2, 7)}
            for c in failing:
                assert not ConstPoly.from_text(c["residual_text_if_nonzero"]).is_zero()

    def test_fixture_count_and_validation(self):
        # 11 fixtures, each at m = 1..6 and b in (1, 2, 3, 1/2), fixture-major
        grid = telescope_grid()
        assert len(grid) == 264
        assert len({cs.identity_id for cs in grid}) == 11
        assert [(cs.m, cs.b) for cs in grid[:5]] == [
            (1, 1), (1, 2), (1, 3), (1, Fraction(1, 2)), (2, 1)]
        with pytest.raises(IdentityDomainError, match="need b > 0, got b=0"):
            resummation_telescope_check("tele_psi0_ak_over_k", 2, 0)
        with pytest.raises(IdentityDomainError, match="m must be a positive integer"):
            resummation_telescope_check("tele_psi0_ak_over_k", 0, 1)
        with pytest.raises(KeyError):
            resummation_telescope_check("tele_nonexistent", 2, 1)
