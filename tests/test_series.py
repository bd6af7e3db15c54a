"""Circle series: frozen values, projection identities, round trips."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discforge.discs import ModelDiscParams, model_disc
from discforge.jets import jet_map
from discforge.model import ModelPolynomial, random_admissible_model
from discforge.series import (
    CARRIER_GATE,
    ONE_MINUS,
    Powers,
    TrigSeries,
    analytic_from_real_part,
    coeff_distance,
    divide_one_minus_zeta,
    multiply,
    sum_terms,
)


def _random_series(rng, n_max, real=False):
    arr = rng.standard_normal(2 * n_max + 1) + 1j * rng.standard_normal(2 * n_max + 1)
    if real:
        return TrigSeries.real_symmetrized(arr)
    return TrigSeries(arr)


def test_evaluate_frozen_value():
    # conj(zeta) + 2 + zeta at zeta = i gives -i + 2 + i = 2
    s = TrigSeries(np.array([1.0, 2.0, 1.0], dtype=complex))
    assert s.sample(4)[1] == pytest.approx(2.0, abs=1e-14)


def test_projections_split_identity_exactly():
    rng = np.random.default_rng(5)
    a = _random_series(rng, 9)
    neg = a.negative_project()
    assert np.array_equal(neg.coeffs[:9], a.coeffs[:9]) and np.all(neg.coeffs[9:] == 0.0)
    assert coeff_distance(neg.negative_project(), neg) == 0.0
    assert coeff_distance((a - neg) + neg, a) == 0.0
    assert (a - neg).negative_project().sup_norm() == 0.0


def test_derivative_at_frozen_value():
    # (1 - zeta)^2 = 1 - 2 zeta + zeta^2, second derivative is 2 everywhere
    s = TrigSeries.from_mode_dict({0: 1.0, 1: -2.0, 2: 1.0})
    first, second = jet_map(s, 2)
    assert second == pytest.approx(2.0, abs=1e-14)
    assert first == pytest.approx(0.0, abs=1e-14)


def test_derivative_rejects_non_analytic():
    s = TrigSeries.monomial(-1)
    with pytest.raises(ValueError):
        jet_map(s, 1)


def test_sup_norm_frozen_value():
    s = TrigSeries.from_mode_dict({0: 1.0, 1: -1.0})
    assert s.sup_norm() == pytest.approx(2.0, rel=1e-3)


def test_coeff_decay_extremes():
    assert TrigSeries.zero(8).coeff_decay() == 0.0
    n = 16
    assert TrigSeries.monomial(n).coeff_decay() == pytest.approx(1.0)
    # energy concentrated at low modes decays
    s = TrigSeries.from_mode_dict({0: 1.0, 1: 0.5}).pad_to(32)
    assert s.coeff_decay() == 0.0


def test_multiply_matches_pointwise_product():
    rng = np.random.default_rng(11)
    a = _random_series(rng, 5)
    b = _random_series(rng, 7)
    prod = multiply(a, b)
    assert np.max(np.abs(prod.sample(64) - a.sample(64) * b.sample(64))) < 1e-12


def _on_modes(rng, n_max, modes):
    """Random series of order ``n_max`` that is nonzero exactly on ``modes``."""
    arr = np.zeros(2 * n_max + 1, dtype=complex)
    for n in modes:
        arr[n_max + n] = rng.standard_normal() + 1j * rng.standard_normal()
    return TrigSeries(arr)


def _product_cases():
    rng = np.random.default_rng(37)
    h = _on_modes(rng, 40, range(0, 41))
    return {
        "analytic-analytic": (h, _on_modes(rng, 30, range(0, 13))),
        "analytic-anti-analytic": (h, h.conjugate()),
        "two-sided": (_random_series(rng, 7), _random_series(rng, 11)),
        "zero-factor": (TrigSeries.zero(9), _random_series(rng, 5)),
        "single-modes": (_on_modes(rng, 5, [3]), _on_modes(rng, 4, [-2])),
        "interior-zeros": (_on_modes(rng, 8, [-3, 0, 5]), _on_modes(rng, 10, [1, 6])),
        "one-minus-long": (ONE_MINUS, _on_modes(rng, 400, range(0, 401))),
    }


@pytest.mark.parametrize("case", sorted(_product_cases()))
def test_multiply_is_exact_on_the_nonzero_carriers(case):
    a, b = _product_cases()[case]
    prod = multiply(a, b)
    assert prod.n_max == a.n_max + b.n_max
    full = np.convolve(a.coeffs, b.coeffs)
    ia, ib = np.flatnonzero(a.coeffs), np.flatnonzero(b.coeffs)
    inside = np.zeros(full.size, dtype=bool)
    if ia.size and ib.size:
        inside[ia[0] + ib[0] : ia[-1] + ib[-1] + 1] = True
    assert np.all(prod.coeffs[~inside] == 0.0)
    # inside, only the summation order differs from the untrimmed convolution
    bound = 8 * np.finfo(float).eps * np.convolve(np.abs(a.coeffs), np.abs(b.coeffs))
    assert np.all(np.abs(prod.coeffs - full) <= bound)


def _carrier(coeffs):
    """Indices of the finite ``coeffs`` above ``CARRIER_GATE**2`` of the largest."""
    mod = np.abs(coeffs)
    return np.flatnonzero(mod > CARRIER_GATE**2 * mod.max())


def _reference_product(a, b):
    """``multiply`` written out: convolve the factors' gated windows, zeros elsewhere."""
    out = np.zeros(a.coeffs.size + b.coeffs.size - 1, dtype=complex)
    ia, ib = _carrier(a.coeffs), _carrier(b.coeffs)
    if ia.size and ib.size:
        out[ia[0] + ib[0] : ia[-1] + ib[-1] + 1] = np.convolve(
            a.coeffs[ia[0] : ia[-1] + 1], b.coeffs[ib[0] : ib[-1] + 1]
        )
    return out


def test_product_window_drops_ends_that_underflow():
    # the end modes of a * a are 1e-170 * 1e-170, an exact 0, while 1e-170 is
    # 1e-25 of a's largest mode, inside the gate: the product's window is found
    # from its coefficients, narrower than the sum of the two factors' windows
    rng = np.random.default_rng(0)
    mid = 1e-145 * (rng.standard_normal(9) + 1j * rng.standard_normal(9))
    a = TrigSeries(np.concatenate([[1e-170], mid, [1e-170]]))
    assert a.window == (0, 11)
    prod = multiply(a, a)
    assert prod.coeffs[0] == 0.0 and prod.coeffs[-1] == 0.0
    assert prod.window == (1, prod.coeffs.size - 1)
    assert TrigSeries.zero(3).window is None
    # the next product convolves that window and no longer one (whose dot
    # products would round differently), to the bit
    b = _random_series(rng, 8)
    for x, y in ((prod, b), (b, prod), (prod, prod)):
        assert np.array_equal(multiply(x, y).coeffs.view(np.uint64), _reference_product(x, y).view(np.uint64))


def test_window_stops_at_the_square_of_the_gate():
    # 0.1^31 lies above CARRIER_GATE**2 (4.9e-32) and 0.1^32 below it
    geo = TrigSeries.geometric(0.1, 64)
    assert geo.window == (64, 64 + 32)
    assert geo.conjugate().window == (64 - 31, 65)
    assert TrigSeries(np.full(5, 1e-300, dtype=complex)).window == (0, 5)


@pytest.mark.parametrize("bad", [np.inf, complex(0.0, -np.inf), np.nan])
def test_a_non_finite_series_keeps_every_nonzero_mode(bad):
    # an overflow must reach the non-finite gates: a gate scaled by an
    # infinite largest mode would keep nothing, and the product would be 0
    coeffs = np.array([0.0, 1e-300, 1.0, bad, 0.5, 1e-300, 0.0], dtype=complex)
    x = TrigSeries(coeffs)
    assert x.window == (1, 6)
    b = _random_series(np.random.default_rng(4), 3)
    for prod in (multiply(x, b), multiply(b, x), multiply(x, x)):
        assert not np.all(np.isfinite(prod.coeffs))


def _gated(series):
    """Whether the window stops short of the first or last nonzero coefficient."""
    idx = np.flatnonzero(series.coeffs)
    return series.window != (idx[0], idx[-1] + 1)


def _geometric_factor(rng, ratio, order):
    # a geometric tail of random phase, times a short random head
    head = _random_series(rng, 2)
    return multiply(head, TrigSeries.geometric(ratio * np.exp(2j * np.pi * rng.uniform()), order)).truncate(order)


@pytest.mark.parametrize("ratio_a, ratio_b", [(0.05, 0.5), (0.2, 0.2), (0.45, 0.1), (0.5, 0.5)])
@pytest.mark.parametrize("order_a, order_b", [(64, 64), (128, 256), (256, 128)])
def test_gated_products_stay_within_the_rounding_bound(ratio_a, ratio_b, order_a, order_b):
    # the tails cross the gate (and, for the small ratios and their powers,
    # underflow), one-sided and two-sided, and for powers.  Every mode the
    # product carries (above CARRIER_GATE of its largest) keeps the rounding
    # bound of the untrimmed convolution; a mode below that may lose the terms
    # the windows leave out, which stay under CARRIER_GATE times the bound of
    # the largest mode
    eps = np.finfo(float).eps
    rng = np.random.default_rng([order_a, order_b, int(100 * ratio_a), int(100 * ratio_b)])
    a, b = _geometric_factor(rng, ratio_a, order_a), _geometric_factor(rng, ratio_b, order_b)
    powers = Powers(a)
    assert any(_gated(f) for f in (a, b, powers[8]))
    for x, y in ((a, b), (a, b.conjugate()), (powers[3], b), (powers[4], b.conjugate()), (powers[8], powers[2])):
        full = np.convolve(x.coeffs, y.coeffs)
        err = np.abs(multiply(x, y).coeffs - full)
        bound = 8 * eps * np.convolve(np.abs(x.coeffs), np.abs(y.coeffs))
        carried = np.abs(full) > CARRIER_GATE * np.max(np.abs(full))
        assert np.all(err[carried] <= bound[carried])
        assert np.all(err <= bound + CARRIER_GATE * bound.max())


def test_a_blaschke_disc_carries_only_its_numerical_carrier():
    # h = v (1 - zeta) / (1 - conj(b) zeta) decays like |b|^n: at |b| = 0.2 it
    # crosses CARRIER_GATE**2 near mode 46 of 128, and its products stop there
    # too (full windows would read 129 modes of h and about 500 of h^8 and g)
    model = random_admissible_model(np.random.default_rng(0), 8, 6)
    disc = model_disc(model, ModelDiscParams(0.2, 1.0), n_max=128)
    lo, hi = disc.h.window
    assert lo == disc.h.n_max and hi - lo <= 50
    for series in (Powers(disc.h)[8], disc.g):
        lo, hi = series.window
        assert lo == series.n_max and hi - lo <= 80


def test_internal_operations_return_read_only_coefficients():
    rng = np.random.default_rng(3)
    a, b = _random_series(rng, 4), _random_series(rng, 6)
    results = {
        "multiply": multiply(a, b),
        "add": a + b,
        "sub": a - b,
        "neg": -a,
        "scale": a.scale(2.0 - 1.0j),
        "shift": a.shift(-3),
        "conjugate": a.conjugate(),
        "truncate": b.truncate(2),
        "negative_project": a.negative_project(),
        "pad_to": a.pad_to(9),
        "sum_terms": sum_terms([(a, 1.0, 2), (b, 0.5j, 0)]),
        "zero": TrigSeries.zero(2),
        "monomial": TrigSeries.monomial(-2, 1.5),
        "from_mode_dict": TrigSeries.from_mode_dict({1: 2.0, -3: 1j}),
        "geometric": TrigSeries.geometric(0.5, 4),
        "real_symmetrized": TrigSeries.real_symmetrized(a.coeffs),
    }
    for name, series in results.items():
        assert not series.coeffs.flags.writeable, name
        with pytest.raises(ValueError):
            series.coeffs[0] = 1.0
    assert a.pad_to(a.n_max) is a


def test_constructor_copies_outside_arrays():
    # outside input is validated and copied: the caller's array stays
    # writeable, and writing to it leaves the series as it was
    arr = np.arange(5, dtype=complex)
    series = TrigSeries(arr)
    arr[0] = 99.0
    assert series.coeffs[0] == 0.0 and arr.flags.writeable


def test_sum_terms_matches_the_chain_of_additions_to_the_bit():
    # the reference is the chain the buffer replaces, zeros of its padding and
    # signed zeros included
    rng = np.random.default_rng(41)
    terms = [(_random_series(rng, int(k)), complex(c), int(m))
             for k, c, m in zip(rng.integers(0, 9, 12), rng.standard_normal(12), rng.integers(-4, 5, 12))]
    terms.append((TrigSeries.from_mode_dict({0: -0.0, 2: 1.0}), -1.0, -2))
    chain = TrigSeries.zero(0)
    for series, coef, m in terms:
        chain = chain + series.shift(m) * coef
    for got in (sum_terms(terms), sum_terms(iter(terms))):
        assert got.n_max == chain.n_max
        assert np.array_equal(got.coeffs.view(np.uint64), chain.coeffs.view(np.uint64))
    assert sum_terms([]).n_max == 0 and sum_terms([]).coeffs[0] == 0.0


def _horner(coeffs, points):
    """Mode-by-mode Horner evaluation at circle points, the oracle for
    ``TrigSeries.value_at_one`` and ``LiftedDisc.boundary_samples``."""
    pts = np.atleast_1d(np.asarray(points, dtype=complex))
    k = (coeffs.size - 1) // 2
    out = np.full(pts.shape, coeffs[k], dtype=complex)
    if k > 0:
        pos = np.zeros_like(pts)
        for n in range(k, 0, -1):
            pos = (pos + coeffs[k + n]) * pts
        neg = np.zeros_like(pts)
        cbar = np.conj(pts)
        for n in range(k, 0, -1):
            neg = (neg + coeffs[k - n]) * cbar
        out = out + pos + neg
    return out


def _bits(values):
    return np.atleast_1d(np.asarray(values, dtype=complex)).view(np.uint64)


def _wide_range_series(rng, k):
    """Order-``k`` series with magnitudes from 1e-8 to 1e6, some one-sided or negated."""
    size = 2 * k + 1
    arr = (rng.standard_normal(size) + 1j * rng.standard_normal(size)) * 10.0 ** rng.uniform(-8, 6, size)
    shape = rng.integers(4)
    if shape == 1:
        arr[:k] = 0.0  # analytic, as h and g are
    elif shape == 2:
        arr = -np.where(np.arange(size) < k, 0.0, arr)  # negated: -0.0 on the negative side
    elif shape == 3:
        arr[k + 1 :] = 0.0
    return TrigSeries(arr)


def test_evaluate_at_one_matches_horner_to_the_bit():
    rng = np.random.default_rng(41)
    orders = [0, 1, 2, 1200] + [int(k) for k in rng.integers(0, 1201, 60)]
    for k in orders:
        s = _wide_range_series(rng, k)
        expected = _bits(_horner(s.coeffs, 1.0))
        assert np.array_equal(_bits(s.value_at_one()), expected), k


def test_evaluate_off_one_is_unchanged():
    # the sampled boundary trace agrees with Horner to rounding, both when
    # every component is resolved by ``num`` points (stride 1) and when it
    # has to be sampled finer and strided (N >= num)
    model = ModelPolynomial.from_upper(4, 3, {2: 1.0, 3: 0.25})
    disc = model_disc(model, ModelDiscParams(0.2 - 0.1j, 0.8 + 0.3j), n_max=48)
    for num in (8, 200):
        rows = disc.boundary_samples(num)
        pts = np.exp(1j * rows["angle"])
        for key in "chg":
            want = _horner(getattr(disc, key).coeffs, pts)
            if key == "c":
                want = want.real
            bound = 2e-15 * max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(rows[key] - want)) <= bound, (num, key)


def test_conjugate_matches_pointwise_and_involutes():
    rng = np.random.default_rng(13)
    a = _random_series(rng, 6)
    assert np.max(np.abs(a.conjugate().sample(32) - np.conj(a.sample(32)))) < 1e-13
    assert coeff_distance(a.conjugate().conjugate(), a) == 0.0


def test_real_symmetrized_is_enforced_exactly():
    rng = np.random.default_rng(17)
    a = _random_series(rng, 4, real=True)
    assert a.is_real(0.0)
    assert np.max(np.abs(a.sample(32).imag)) < 1e-13


def test_divide_one_minus_zeta_inverts_multiplication():
    rng = np.random.default_rng(19)
    u = TrigSeries(np.concatenate([np.zeros(6), rng.standard_normal(7) + 1j * rng.standard_normal(7)]))
    v = multiply(TrigSeries.from_mode_dict({0: 1.0, 1: -1.0}), u)
    assert coeff_distance(divide_one_minus_zeta(v), u.trimmed()) < 1e-13
    with pytest.raises(ValueError):
        divide_one_minus_zeta(TrigSeries.constant(1.0))


def test_trimmed_keeps_non_finite_modes():
    # a NaN or infinite mode is no zero: trimming keeps it, so it still shows
    series = TrigSeries.from_mode_dict({-2: np.inf, 0: 1.0, 3: np.nan, 4: 1e-20})
    kept = series.trimmed(1e-12)
    assert kept.n_max == 3
    assert np.isnan(kept.coeff(3)) and np.isinf(kept.coeff(-2))
    assert TrigSeries.from_mode_dict({5: np.nan}).trimmed().n_max == 5
    # so does a gate scaled by an infinite largest mode
    assert TrigSeries.from_mode_dict({0: 1.0, 5: np.inf}).trimmed(np.inf).n_max == 5


def test_analytic_from_real_part_roundtrip():
    rng = np.random.default_rng(23)
    g0 = TrigSeries(np.concatenate([np.zeros(5), rng.standard_normal(6) + 1j * rng.standard_normal(6)]))
    # force g0(1) = 0 by subtracting the value
    g0 = g0 - TrigSeries.constant(complex(np.sum(g0.coeffs)))
    re = g0.scale(0.5) + g0.conjugate().scale(0.5)
    back = analytic_from_real_part(re)
    assert coeff_distance(back.trimmed(1e-14), g0.trimmed(1e-14)) < 1e-12


def test_shift_and_geometric():
    g = TrigSeries.geometric(0.5, 10)
    assert g.coeff(3) == pytest.approx(0.125)
    assert g.shift(-2).coeff(1) == pytest.approx(0.125)
    assert g.shift(2).coeff(5) == pytest.approx(0.125)


def test_json_roundtrip_is_exact():
    rng = np.random.default_rng(29)
    a = _random_series(rng, 5)
    b = TrigSeries.from_dict(a.to_dict())
    assert coeff_distance(a, b) == 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 5), st.integers(0, 997))
def test_sample_roundtrips_through_the_fft(n_max, seed):
    rng = np.random.default_rng(seed)
    a = _random_series(rng, n_max)
    spec = np.fft.fft(a.sample(16)) / 16
    kept = np.arange(-n_max, n_max + 1) % 16
    assert np.max(np.abs(spec[kept] - a.coeffs)) < 1e-12
    assert np.max(np.abs(np.delete(spec, kept))) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 997))
def test_multiply_commutes(na, nb, seed):
    rng = np.random.default_rng(seed)
    a = _random_series(rng, na)
    b = _random_series(rng, nb)
    assert coeff_distance(multiply(a, b), multiply(b, a)) < 1e-13
