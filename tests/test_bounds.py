"""Closed-form bounds against independent mpmath references."""

import math
import random

import mpmath as mp
import pytest

from cayleysum import bounds
from cayleysum.errors import PropertyError, StructuralError


def rel_close(a: float, b: float, tol: float = 1e-12) -> bool:
    if a == b:
        return True
    return abs(a - b) <= tol * max(abs(a), abs(b))


def test_tail_probability_clipping():
    assert bounds.tail_probability(0.0) == 1.0
    assert bounds.tail_probability(5.0) == 1.0
    assert bounds.tail_probability(-800.0) == 0.0
    assert 0.0 < bounds.tail_probability(-700.0) < 1e-300


def test_hoeffding_frozen():
    assert bounds.hoeffding_tail(0.0, 10) == 1.0
    # exp(-2 * 10^2 / 50) = exp(-4)
    assert rel_close(bounds.hoeffding_tail(10.0, 50), math.exp(-4.0))
    with pytest.raises(StructuralError):
        bounds.hoeffding_tail(-1.0, 10)
    with pytest.raises(StructuralError):
        bounds.hoeffding_tail(1.0, 0)


def test_hoeffding_monotone():
    vals = [bounds.hoeffding_tail(lam, 100) for lam in (0.0, 1.0, 2.0, 5.0, 10.0)]
    assert vals == sorted(vals, reverse=True)


def test_joint_bound_reference():
    rnd = random.Random(1)
    for _ in range(50):
        eps = rnd.uniform(0.01, 0.5)
        k = rnd.randint(1, 10)
        n = rnd.randint(1, 1000)
        want = float(mp.exp(-mp.mpf(eps) ** 2 * k * n / 2))
        assert rel_close(bounds.joint_deviation_bound(eps, k, n), want, 1e-10)
    assert bounds.joint_deviation_bound(0.5, 0, 10) == 1.0


def test_joint_bound_monotone_in_k_and_n():
    for k in range(1, 5):
        assert bounds.joint_deviation_bound(0.5, k + 1, 32) < bounds.joint_deviation_bound(0.5, k, 32)
    for n in (8, 16, 32, 64):
        assert bounds.joint_deviation_bound(0.5, 2, 2 * n) < bounds.joint_deviation_bound(0.5, 2, n)


def test_existential_bounds_reference():
    rnd = random.Random(2)
    for _ in range(50):
        order = rnd.choice((64, 256, 1024, 4096))
        eps = rnd.uniform(0.05, 0.5)
        n = rnd.randint(1, 4000)
        k = rnd.randint(1, 6)
        res = bounds.existential_deviation_bounds(order, eps, n, k)
        ln = math.log(order)
        union_ref = float(mp.exp(k * (mp.mpf(ln) - mp.mpf(eps) ** 2 * n / 2)))
        refined_ref = float(mp.exp(-mp.mpf(eps) ** 2 * n * k / 4))
        if math.isfinite(res.union_bound) and union_ref > 5e-324:
            assert rel_close(res.union_bound, union_ref, 1e-9)
        assert rel_close(res.refined_bound, refined_ref, 1e-9)
        assert res.threshold_ok == (n >= 4 * ln / eps**2)
        # above the threshold the refinement dominates the union bound
        if res.threshold_ok:
            assert res.refined_bound >= res.union_bound or rel_close(
                res.refined_bound, res.union_bound, 1e-9
            )


def test_existential_threshold_equality_point():
    # at n = 4 log N / eps^2 exactly, both bounds equal N^-k
    order, eps, k = 256, 0.5, 3
    n = round(4 * math.log(order) / eps**2)
    # pick eps so the threshold is the integer n: eps^2 = 4 log N / n
    eps = math.sqrt(4 * math.log(order) / n)
    res = bounds.existential_deviation_bounds(order, min(eps, 0.5), n, k)
    if abs(eps - min(eps, 0.5)) < 1e-15:
        assert rel_close(res.union_bound, res.refined_bound, 1e-9)
        assert rel_close(res.union_bound, order ** (-k), 1e-9)


def test_low_energy_exponent_sign_flip():
    # at eps=1, K=1: exponent = 2000 log^2 N - r/40, zero at r = 80000 log^2 N
    order = math.e  # log N = 1
    assert rel_close(bounds.low_energy_exponent(order, 1.0, 80000.0, 1.0), 0.0, 1e-9) or \
        abs(bounds.low_energy_exponent(order, 1.0, 80000.0, 1.0)) < 1e-9
    assert bounds.low_energy_exponent(order, 1.0, 80001.0, 1.0) < 0
    assert bounds.low_energy_exponent(order, 1.0, 79999.0, 1.0) > 0
    val = bounds.low_energy_deviation_bound(order, 1.0, 80000.0, 1.0)
    assert rel_close(val, 1.0, 1e-9)


def test_low_energy_monotone_in_r():
    order = 1024
    vals = [
        bounds.low_energy_deviation_bound(order, 0.5, r, 4.0)
        for r in (1e6, 2e6, 4e6, 8e6)
    ]
    finite = [v for v in vals if math.isfinite(v)]
    assert finite == sorted(finite, reverse=True)


def test_low_energy_constant_scales():
    order, eps, r, k = 1024, 0.5, 3e6, 4.0
    base = bounds.low_energy_deviation_bound(order, eps, r, k, constant=1.0)
    doubled = bounds.low_energy_deviation_bound(order, eps, r, k, constant=2.0)
    if 0 < base < math.inf:
        assert rel_close(doubled, 2.0 * base, 1e-9)


def test_threshold_bound_fields():
    order, w = 1e100, 3.0
    res = bounds.threshold_deviation_bound(order, 0.9, w)
    ln = math.log(order)
    ll = math.log(ln)
    assert rel_close(res.ratio_floor, math.sqrt(ln) / ll, 1e-12)
    assert rel_close(res.row_threshold, (0.9 / 4) * w * ll * ln**1.5, 1e-12)
    assert res.epsilon_ok == (0.9**7 * w * ll * math.sqrt(ln) >= 2**25)
    assert not res.epsilon_ok  # far below the admissibility threshold here


def test_threshold_epsilon_ok_flips():
    # crank w until the admissibility condition holds
    order = 1e100
    ln = math.log(order)
    ll = math.log(ln)
    w_star = 2**25 / (0.9**7 * ll * math.sqrt(ln))
    assert not bounds.threshold_deviation_bound(order, 0.9, w_star * 0.99).epsilon_ok
    assert bounds.threshold_deviation_bound(order, 0.9, w_star * 1.01).epsilon_ok


def test_packed_bound_frozen():
    # eps^6 m K / 64 = (1/64) * 64 * 4 / 64 = 1/16
    want = math.exp(-1.0 / 16.0)
    assert rel_close(bounds.packed_deviation_bound(0.5, 64.0, 4.0), want)


def test_packed_composition_identity():
    # (eps/2)^2 n (eps^4 m K / (4 n)) / 4 == eps^6 m K / 64, rel err < 1e-12
    rnd = random.Random(3)
    for _ in range(100):
        eps = rnd.uniform(0.01, 0.5)
        n = rnd.uniform(1, 1e6)
        m = rnd.uniform(1, 1e9)
        big_k = rnd.uniform(1, 1e6)
        k_floor = eps**4 * m * big_k / (4.0 * n)
        composed = (eps / 2.0) ** 2 * n * k_floor / 4.0
        direct = eps**6 * m * big_k / 64.0
        assert rel_close(composed, direct, 1e-12)
        # and the packaged bound exponentiates the same quantity
        if direct <= 700:
            assert rel_close(
                bounds.packed_deviation_bound(eps, max(m, 1), max(big_k, 1)),
                math.exp(-(eps**6) * max(m, 1) * max(big_k, 1) / 64.0),
                1e-12,
            )


def test_count_chain_sweep():
    rnd = random.Random(4)
    for _ in range(100):
        order = rnd.choice((16, 64, 256, 1024, 65536))
        n = rnd.uniform(2 * math.log(order), 8 * math.log(order) + 10)
        d = rnd.uniform(1, 12)
        res = bounds.low_dimension_count_bound(order, n, d)
        assert res.threshold_ok and res.chain_ok
        # independent chain check in logs
        ln = math.log(order)
        assert d * ln + n * d * math.log(3.0) < (ln + 1.1 * n) * d <= 2 * n * d + 1e-9


def test_count_chain_below_threshold_not_asserted():
    res = bounds.low_dimension_count_bound(1 << 16, 4.0, 2.0)
    assert not res.threshold_ok  # n < 2 log N here; no assertion fired


def test_count_d_zero():
    res = bounds.low_dimension_count_bound(64, 10.0, 0.0)
    assert res.bound == 1.0 and res.chain_ok


def test_size_thresholds_frozen():
    ln = math.log(1 << 20)
    t = bounds.size_thresholds("baseline", 1 << 20, 1.0)
    assert rel_close(t.x_min, ln) and rel_close(t.y_min, ln**2)
    ll = math.log(ln)
    t2 = bounds.size_thresholds("refined", 1 << 20, 2.0)
    assert rel_close(t2.x_min, 2 * ln * ll**2)
    assert rel_close(t2.y_min, 2 * ln * ll**10)
    t3 = bounds.size_thresholds("exponent-two", 1 << 20, 1.5)
    assert t3.x_min == t3.y_min
    assert rel_close(t3.x_min, 1.5 * ll * ln**1.5)
    with pytest.raises(StructuralError):
        bounds.size_thresholds("nope", 64, 1.0)


def test_bad_inputs_rejected():
    with pytest.raises(StructuralError):
        bounds.joint_deviation_bound(0.6, 1, 10)
    with pytest.raises(StructuralError):
        bounds.joint_deviation_bound(0.0, 1, 10)
    with pytest.raises(StructuralError):
        bounds.existential_deviation_bounds(1, 0.5, 10, 1)
    with pytest.raises(StructuralError):
        bounds.low_energy_deviation_bound(64, 0.5, 0.5, 1.0)
    with pytest.raises(StructuralError):
        bounds.packed_deviation_bound(0.5, 0.5, 1.0)
    with pytest.raises(StructuralError):
        bounds.size_thresholds("baseline", 8, 1.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: bounds.low_dimension_count_bound(100, math.inf, 1),
        lambda: bounds.low_dimension_count_bound(100, 8, math.inf),
        lambda: bounds.low_energy_deviation_bound(100, 0.5, math.inf, 2),
        lambda: bounds.low_energy_deviation_bound(100, 0.5, 2, math.inf),
    ],
)
def test_infinite_bound_argument_is_structural_error(call):
    with pytest.raises(StructuralError):
        call()
