"""Tests of the benchmark's own code: generator, oracle rules, statistics, tracing.

    python -m pytest perfbench -q
"""

import itertools
import math

import pytest

import stats
import tracing
import workloads


def _first(workload, seed, n=7):
    return list(itertools.islice(workloads.cases(workload, seed), n))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert _first(workload, 11) == _first(workload, 11)
    assert workloads.warmup_case(workload, 11) == workloads.warmup_case(workload, 11)
    assert _first(workload, 11)[1:] != _first(workload, 12)[1:]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_anchor_opens_every_seed(workload):
    assert _first(workload, 1)[0] == _first(workload, 2)[0] == \
        workloads.anchor_case(workload)


def test_mirrored_pairs_span_the_mass_range():
    lo, hi = workloads.MASS_RANGE
    for seed in range(20):
        a, b = (c.draw["m"] for c in _first("foliation", seed, 3)[1:])
        assert a * b == pytest.approx(lo * hi)


@pytest.mark.parametrize("seed", range(40))
def test_generated_profiles_stay_in_their_domain(seed):
    cases = [c for w in workloads.WORKLOADS
             for c in _first(w, seed) + [workloads.warmup_case(w, seed)]]
    for case in cases:
        for call in case.calls:
            scn = call.scenario
            profile = scn["profile"]
            if call.check == "full":
                m = profile["m"]
                assert workloads.MASS_RANGE[0] <= m <= workloads.MASS_RANGE[1]
                assert 2 * m < scn["scan"][0] < 3 * m < scn["scan"][1]
                assert scn["tail_radius"] > scn["scan"][1]
            elif call.check == "certify":
                m = profile["m"]
                assert scn["surface_r0"] > 2 * m
            elif call.check == "reissner":
                p = call.params
                m, q2 = p["m"], p["q2"]
                assert 0 < q2 < m * m
                r_plus = m + math.sqrt(m * m - q2)
                assert p["r_plus"] == pytest.approx(r_plus)
                assert r_plus < profile["r_min"] < scn["scan"][0] < p["r_ps"]
                assert p["r_ps"] < scn["scan"][1] < scn["tail_radius"]
                # the photon-sphere condition r N' = N holds at r_ps
                r = p["r_ps"]
                f = 1 - 2 * m / r + q2 / r ** 2
                assert r * (m / r ** 2 - q2 / r ** 3) == pytest.approx(f)
            else:
                assert profile["m"] <= 0
                assert scn["scan"][0] > 0


def _gate(name, value, threshold, passed):
    return {"name": name, "value": value, "threshold": threshold, "passed": passed}


def test_headroom_of_isometric_report_is_smallest_passing_margin():
    report = {"verdict": "isometric", "gates": [
        _gate("identities", 1e-6, 1e-5, True),
        _gate("sharpness-34", 1e-9, 1e-5, True),
        _gate("sharpness-37", 0.0, 1e-5, True),          # exact: no limit
        _gate("H-positive", 0.02, 0.0, True),            # lower bound
        _gate("sign-consistency", 0.0, 0.5, True),       # flag
        _gate("tail", 1.0, 0.99, True),                  # structural
    ]}
    assert workloads.israel_headroom(report) == pytest.approx(1.0)


def test_headroom_of_not_isometric_report_is_largest_failing_margin():
    report = {"verdict": "not-isometric", "gates": [
        _gate("identities", 1e-3, 1e-5, False),
        _gate("sharpness-34", 1e-1, 1e-5, False),
        _gate("sharpness-35", 1e-7, 1e-5, True),
        _gate("N-range", 1.0, 0.5, False),               # flag, ignored
    ]}
    assert workloads.israel_headroom(report) == pytest.approx(4.0)
    assert workloads.israel_headroom({"verdict": "inconclusive",
                                      "gates": report["gates"]}) is None


def _cert(verdict, umb, h_std, deviation):
    return {"verdict": verdict, "umbilicity_sup": umb,
            "mean_curvature": {"stddev": h_std, "value": 0.5},
            "tangency": {"deviation": deviation},
            "tolerances": {"certify": 1e-7, "tangency": 1e-4}}


def test_headroom_of_certified_certificate_needs_every_gate():
    cert = _cert("certified", 1e-13, 1e-17, 1e-9)
    assert workloads.certificate_headroom(cert) == pytest.approx(5.0)


def test_headroom_of_refuted_certificate_is_smaller_of_the_two_failures():
    # umbilicity fails by 5 decades through its sup, tangency by 2
    cert = _cert("refuted", 1e-2, 1e-17, 1e-2)
    assert workloads.certificate_headroom(cert) == pytest.approx(2.0)
    # the mean-curvature spread alone is enough to fail umbilicity
    cert = _cert("refuted", 1e-9, 1e-4, 10.0)
    assert workloads.certificate_headroom(cert) == pytest.approx(3.0)


def test_wrong_affirmative_exit_is_unsound_but_missed_certification_is_not(tmp_path):
    call = workloads.anchor_case("tangency").calls[1]   # r0 = 4m, must refute
    assert workloads.check(call, 0, str(tmp_path)).unsound
    call = workloads.anchor_case("tangency").calls[0]   # r0 = 3m, must certify
    outcome = workloads.check(call, 1, str(tmp_path))
    assert outcome.failures and not outcome.unsound


def test_tail_with_too_few_samples_falls_back_to_the_median():
    assert stats.tail([3.0, 1.0, 2.0]) == (2.0, 50.0, 1)
    assert stats.tail([4.0, 1.0, 2.0, 3.0]) == (2.5, 50.0, 2)
    assert stats.tail(list(range(99))) == (49, 50.0, 49)
    with pytest.raises(ValueError):
        stats.tail([])


def test_tail_takes_highest_percentile_with_ten_beyond():
    values = list(range(1, 101))
    assert stats.tail(values) == (90, 90.0, 10)
    values = list(range(1, 1001))
    assert stats.tail(values) == (990, 99.0, 10)


def test_self_times_of_nested_spans():
    spans = [
        (0.0, 10.0, None),   # root
        (1.0, 4.0, 0),       # child
        (2.0, 3.0, 1),       # grandchild
        (5.0, 6.0, 0),       # child
        (5.5, 9.0, 0),       # child overlapping the previous one
    ]
    assert stats.self_times(spans) == pytest.approx([10 - 3 - 4, 2, 1, 1, 3.5])


def test_layer_metrics_attribute_counts_to_enclosing_spans():
    tracer = tracing.Tracer()
    metric_taylor = tracer.timed("calculus.metric_taylor", lambda: None)
    rhs = tracer.counted("spacetimes.metric_factors_d1", lambda: None)

    class Result:
        samples = [0] * 5   # four accepted steps

    def foliation():
        for _ in range(6):
            metric_taylor()
        return [0, 1, 2]    # three leaves

    def integrate():
        for _ in range(32):
            rhs()
        return Result()

    tracer.timed("israel.build_foliation", foliation)()
    metric_taylor()         # outside the foliation
    tracer.timed("geodesics.integrate_null", integrate)()
    figures = tracing.layer_metrics(tracer, 3, 1)
    assert figures["calculus.metric_taylor.calls"] == (7, "count")
    assert figures["israel.metric_evals_per_leaf"] == (2.0, "1")
    assert figures["geodesics.accepted_steps"] == (4, "count")
    assert figures["geodesics.rhs_evals_per_step"] == (8.0, "1")
    assert figures["quadrature.sphere_grid.hit_ratio"] == (0.75, "1")
    assert figures["photon.locate_photon_sphere.s"] == (0.0, "s")
