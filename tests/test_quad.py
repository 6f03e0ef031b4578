import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import closed_form
from octool.errors import (
    BudgetExhaustedError,
    DivergentIntegralError,
    OctoolError,
    ParameterError,
)
from octool import quad
from octool.bounds import extremal_function, lp_norm
from octool.hausdorff import make_kernel
from octool.quad import (
    QuadConfig,
    integrate,
    integrate_finite,
    panel_rule,
)
from octool.specfun import JacobiParams

CFG = QuadConfig()


def test_polynomial_exact():
    r = integrate_finite(lambda x: x**5 - 3 * x**2 + 1, 0.0, 2.0, CFG)
    truth = 2.0**6 / 6 - 2.0**3 + 2.0
    assert abs(r.value - truth) <= 1e-13 * abs(truth)


def test_smooth_oscillatory():
    r = integrate_finite(lambda x: np.sin(10 * x), 0.0, math.pi, CFG)
    truth = (1 - math.cos(10 * math.pi)) / 10
    assert abs(r.value - truth) <= max(r.err_estimate, 1e-12)


def test_inverse_sqrt_singularity():
    r = integrate(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, CFG)
    assert abs(r.value - 2.0) <= 1e-7


def test_exponential_tail():
    r = integrate(lambda x: np.exp(-x), 0.0, math.inf, CFG)
    assert abs(r.value - 1.0) <= 1e-9


def test_divergent_tail_detected():
    with pytest.raises(DivergentIntegralError):
        integrate(lambda x: 1.0 / x, 1.0, math.inf, CFG)


@pytest.mark.parametrize("s", [0.01, 0.02, 0.05, 0.07, 0.25, 0.5])
def test_zero_end_near_divergence_edge(s):
    # int_0^1 x^(s-1) = 1/s; the mass below any fixed cut x0 is x0^s/s, so
    # only a tail estimate makes small s both finite and honest
    r = integrate(lambda x: x ** (s - 1.0), 0.0, 1.0, CFG)
    assert math.isfinite(r.value)
    assert abs(r.value - 1.0 / s) <= r.err_estimate
    if s >= 0.05:
        assert abs(r.value - 1.0 / s) <= 1e-8 / s


def test_divergent_origin_detected():
    with pytest.raises(DivergentIntegralError):
        integrate(lambda x: 1.0 / x, 0.0, 1.0, CFG)


@pytest.mark.parametrize("rate", [0.5, 0.25])
def test_fast_growing_tail_detected(rate):
    # the clipped last block dwarfs every full block; it must not lift the
    # divergence floor over them
    with pytest.raises(DivergentIntegralError):
        integrate(lambda s: np.exp(rate * s), 0.0, math.inf, CFG, cutoff=600.0)


def test_nan_integrand_rejected():
    with pytest.raises(ParameterError):
        integrate_finite(lambda x: np.full(np.shape(x), np.nan), 0.0, 1.0, CFG)


def test_error_estimate_honest():
    r = integrate_finite(lambda x: np.exp(x) * np.cos(3 * x), 0.0, 3.0, CFG)
    truth = (math.e**3 * (math.cos(9) + 3 * math.sin(9)) - 1) / 10
    assert abs(r.value - truth) <= max(r.err_estimate, 1e-11)


@settings(max_examples=25, deadline=None)
@given(st.floats(-5, 5), st.floats(-5, 5))
def test_linearity(c1, c2):
    f = lambda x: np.cos(x)
    g = lambda x: x**2
    lhs = integrate_finite(lambda x: c1 * f(x) + c2 * g(x), 0.0, 1.0, CFG).value
    rhs = c1 * integrate_finite(f, 0.0, 1.0, CFG).value \
        + c2 * integrate_finite(g, 0.0, 1.0, CFG).value
    assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))


@settings(max_examples=25, deadline=None)
@given(st.floats(0.1, 4.0))
def test_split_additive(c):
    f = lambda x: np.exp(-(x**2)) * np.sin(x + 1)
    whole = integrate_finite(f, 0.0, 5.0, CFG).value
    split = integrate_finite(f, 0.0, c, CFG).value + \
        integrate_finite(f, c, 5.0, CFG).value
    assert abs(whole - split) <= 1e-10


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", [
    "rel_tol", "abs_tol", "truncation_x", "truncation_lambda", "truncation_t", "lambda_min",
])
def test_config_rejects_non_finite(name, value):
    with pytest.raises(ParameterError):
        QuadConfig(**{name: value})


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_panel_rule_exactness(seed):
    rng = np.random.default_rng(seed)
    edges = np.cumsum(rng.uniform(0.05, 0.5, int(rng.integers(2, 9))))
    edges -= rng.uniform(0.0, edges[-1])
    x, wk, wg = panel_rule(edges)
    assert x.shape == wk.shape == wg.shape == (edges.size - 1, 15)
    a, b = edges[0], edges[-1]
    for d in range(23):
        scale = np.sum(np.abs(wk * x**d))
        truth = (b ** (d + 1) - a ** (d + 1)) / (d + 1)
        assert abs(np.sum(wk * x**d) - truth) <= 1e-13 * scale
        if d <= 13:
            # the embedded Gauss rule is exact here too, panel by panel
            diff = np.sum((wk - wg) * x**d, axis=1)
            assert np.all(np.abs(diff) <= 1e-13 * scale)


@settings(max_examples=40, deadline=5000)
@given(st.integers(1, 2000), st.floats(1e-14, 0.5), st.floats(1e-300, 1.0),
       st.floats(-0.5, 2.0),
       st.sampled_from([(0.0, 1.0), (0.0, math.inf), (1.0, math.inf), (0.5, 2.0)]))
def test_half_line_integrators_finish_on_any_config(max_sub, rel_tol, abs_tol, s, span):
    # every config the constructor accepts gives a value or an OctoolError
    cfg = QuadConfig(rel_tol=rel_tol, abs_tol=abs_tol, max_subdivisions=max_sub)
    f = lambda x: x ** (s - 1.0)
    for call in (lambda: integrate(f, 0.0, 1.0, cfg),
                 lambda: integrate(f, 1.0, math.inf, cfg, cutoff=1.0 + cfg.truncation_t),
                 lambda: integrate(f, *span, cfg)):
        try:
            with np.errstate(over="ignore"):
                call()
        except OctoolError:
            pass


@pytest.mark.parametrize("call", [
    lambda f: integrate_finite(f, 0.0, 3.0, CFG),
    lambda f: integrate(f, 0.0, 1.0, CFG),
    lambda f: integrate(f, 0.5, math.inf, CFG),
], ids=["finite", "to_zero", "positive"])
@pytest.mark.parametrize("f", [
    lambda x: np.exp(-x) * np.cos(3 * x),
    lambda x: x ** -0.5 / (1.0 + x * x),
    lambda x: np.exp(-x) * np.sin(5 * x) ** 2,
], ids=["damped_cos", "inv_sqrt", "damped_sin2"])
def test_one_component_vector_matches_scalar_bitwise(call, f):
    scalar = call(f)
    vector = call(lambda x: f(x)[None, :])
    assert np.shape(vector.value) == np.shape(vector.err_estimate) == (1,)
    assert vector.value[0] == scalar.value
    assert vector.err_estimate[0] == scalar.err_estimate
    assert vector.subdivisions_used == scalar.subdivisions_used


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(math.log10(0.05), math.log10(20.0)), min_size=1, max_size=6))
def test_vector_powers_each_within_own_estimate(log_s):
    # int_0^1 x^(s-1) = int_1^inf x^(-s-1) = 1/s, for s spread over 2.6 decades;
    # the rounding of a sum of some hundred node values is in no estimate
    s = 10.0 ** np.asarray(log_s)
    rounding = 16 * np.finfo(float).eps / s
    for lo, hi, sign in ((0.0, 1.0, 1.0), (1.0, math.inf, -1.0)):
        r = integrate(lambda x: x[None, :] ** (sign * s[:, None] - 1.0), lo, hi, CFG)
        assert np.all(np.abs(r.value - 1.0 / s) <= r.err_estimate + rounding)
        assert np.all(r.err_estimate
                      <= np.maximum(CFG.abs_tol, CFG.rel_tol * np.abs(r.value)))


@pytest.mark.parametrize("lo,hi,s,divergent", [
    # x^(s-1) on (0, 1) diverges for s <= 0
    (0.0, 1.0, [0.5, 0.0, 1.0, -0.1, 0.25], [False, True, False, True, False]),
    # x^(s-1) on (1, inf) diverges for s >= 0
    (1.0, math.inf, [-0.5, 0.0, 0.1, -1.0], [False, True, True, False]),
])
def test_divergence_mask_names_divergent_components(lo, hi, s, divergent):
    s = np.asarray(s)
    with pytest.raises(DivergentIntegralError) as info:
        integrate(lambda x: x[None, :] ** (s[:, None] - 1.0), lo, hi, CFG)
    assert info.value.mask.tolist() == divergent


def test_scalar_divergence_has_no_mask():
    with pytest.raises(DivergentIntegralError) as info:
        integrate(lambda x: 1.0 / x, 0.0, 1.0, CFG)
    assert info.value.mask is None


@pytest.mark.parametrize("b", [1e-294, 1e-300, 1e-305])
def test_tiny_zero_end_charges_its_tail(b):
    # the log span is cut short so x stays normal, and the total lies far
    # below abs_tol: the cut-off tail must still be in the estimate
    r = integrate(lambda x: x ** -0.5, 0.0, b, CFG)
    assert abs(r.value - 2.0 * math.sqrt(b)) <= r.err_estimate


@pytest.mark.parametrize("lo", [1e48, 1e50, 1e300])
def test_infinite_end_at_huge_lo(lo):
    # lo e^600 overflows: the log span is cut at the top of the double range.
    # int_lo^inf (lo/x)^2 = lo keeps the integrand representable at lo = 1e300,
    # where x^-2 itself underflows
    r = integrate(lambda x: (lo / x) ** 2, lo, math.inf, CFG)
    assert abs(r.value - lo) <= r.err_estimate
    if lo < 1e150:
        r = integrate(lambda x: x ** -2.0, lo, math.inf, CFG)
        assert abs(r.value - 1.0 / lo) <= r.err_estimate


def test_integrate_folds_the_negative_half_line():
    # each piece below 0 is the mirrored piece of f(-x) above it, bit for bit
    f = lambda x: np.exp(-x * x) * (2.0 + np.sin(x))
    mirror = lambda x: f(-x)
    for lo, hi in ((-3.0, -1.0), (-2.0, 0.0), (-math.inf, 0.0), (-math.inf, -0.5)):
        left, right = integrate(f, lo, hi, CFG), integrate(mirror, -hi, -lo, CFG)
        assert (left.value, left.err_estimate) == (right.value, right.err_estimate)
    # across 0 the two pieces add up, within their estimates: the whole
    # interval refines both sides on one mesh
    whole = integrate(f, -2.0, 1.0, CFG)
    parts = integrate(f, -2.0, 0.0, CFG) + integrate(f, 0.0, 1.0, CFG)
    assert abs(whole.value - parts.value) <= whole.err_estimate + parts.err_estimate
    assert integrate(f, 1.0, 1.0, CFG).value == integrate(f, 2.0, 1.0, CFG).value == 0.0


def test_integrate_cuts_every_end_past_the_cutoff_alike():
    # a finite end past |x| = cutoff is cut as an infinite end is, tail
    # charged; a piece wholly past the cut adds nothing
    f = lambda x: np.exp(-np.abs(x))
    for lo, hi in ((0.0, 30.0), (-30.0, 0.0), (2.0, 13.0), (-13.0, -2.0)):
        a, b = sorted((abs(lo), abs(hi)))
        cut = integrate(f, lo, hi, CFG, cutoff=12.0)
        inf = integrate(f, a, math.inf, CFG, cutoff=12.0)
        assert (cut.value, cut.err_estimate) == (inf.value, inf.err_estimate)
        assert abs(cut.value - (math.exp(-a) - math.exp(-12.0))) <= 1e-12
        assert cut.err_estimate >= math.exp(-12.0) - math.exp(-b)
    assert integrate(f, 12.0, 30.0, CFG, cutoff=12.0).value == 0.0
    # an interval inside the cut is integrated as without one
    for lo, hi in ((-3.0, 5.0), (0.0, 2.0), (1.0, 2.0)):
        with_cut, plain = integrate(f, lo, hi, CFG, cutoff=12.0), integrate(f, lo, hi, CFG)
        assert (with_cut.value, with_cut.err_estimate) == (plain.value, plain.err_estimate)


def test_power_cutoff_kernel_at_huge_lo_is_finite():
    k = make_kernel("power_cutoff", exponent=-2.0, lo=1e48, hi=math.inf)
    status, value = k.l1_status(CFG)
    assert status == "finite"
    assert value == pytest.approx(1e-48, rel=1e-8)


@pytest.mark.parametrize("offset", [0.0, 0.013, 0.049])
def test_integrate_batched_resolves_kinks_to_its_tolerance(offset):
    # a linear interpolant with kinks every 0.05, shaped as an inverse
    # transform's integrand: the first splits across a kink can raise its
    # estimate for some rounds, which is no noise floor.  The reference
    # puts panels between the kinks, where the rule is exact
    cfg = QuadConfig(rel_tol=1e-6)
    lo, hi = 1e-6, 12.0
    nodes = lo + offset + 0.05 * np.arange(240)
    ys = closed_form.gaussian_transform(nodes) * nodes ** 2 / (2.0 * math.pi)
    f = lambda lam: np.interp(lam, nodes, ys)
    r = integrate(lambda lam: (f(lam), None), lo, hi, cfg)
    assert r.err_estimate <= cfg.rel_tol * abs(r.value)
    x, wk, _ = panel_rule(np.concatenate([[lo], nodes[(nodes > lo) & (nodes < hi)], [hi]]))
    assert abs(r.value - np.sum(f(x) * wk)) <= r.err_estimate


def test_budget_exhausted_raises_with_a_finite_partial():
    # a 0 end is a dyadic piece, whose blocks share the one budget
    cfg = QuadConfig(max_subdivisions=3)
    with pytest.raises(BudgetExhaustedError) as info:
        integrate(lambda x: np.sin(40.0 * x), 0.0, 10.0, cfg)
    partial = info.value.partial
    assert math.isfinite(partial.value) and math.isfinite(partial.err_estimate)
    assert partial.err_estimate > max(cfg.abs_tol, cfg.rel_tol * abs(partial.value))


def test_half_line_takes_few_integrand_calls():
    # every block of both log pieces is refined in the same rounds, one call
    # of the integrand per round
    calls = []

    def f(x):
        calls.append(x.size)
        return np.exp(-x) * np.cos(3.0 * x)

    r = integrate(f, 0.0, math.inf, CFG)
    assert abs(r.value - 0.1) <= r.err_estimate
    assert len(calls) <= 10


def _step(xs, ys):
    """The left-continuous step function ys[i] on [xs[i], xs[i + 1])."""
    return lambda x: np.where((x >= xs[0]) & (x < xs[-1]),
                              ys[np.clip(np.searchsorted(xs, x, side="right") - 1, 0, ys.size - 1)],
                              0.0)


def test_step_function_is_exact_in_one_round_with_its_breakpoints():
    # each panel between breakpoints sees one constant, where the Gauss and
    # Kronrod rules agree on the exact value; without the breakpoints a jump
    # inside a panel takes many rounds
    xs = np.sort(np.random.default_rng(3).uniform(0.4, 3.0, 30))
    ys = np.cumsum(np.random.default_rng(4).exponential(1.0, 30))[::-1].copy()
    exact = float(np.sum(ys[:-1] * np.diff(xs)))
    calls = []

    def f(x):
        calls.append(x.size)
        return _step(xs, ys)(x)

    r = integrate(f, xs[0], xs[-1], CFG, points=xs)
    assert len(calls) == 1
    assert abs(r.value - exact) <= 1e-14 * exact
    assert r.err_estimate <= 1e-14 * exact
    calls.clear()
    integrate(f, xs[0], xs[-1], CFG)
    assert len(calls) > 5


def test_breakpoints_outside_the_interval_are_ignored():
    f = lambda x: np.exp(-x) * np.cos(3.0 * x)
    for lo, hi in ((0.5, 2.0), (-2.0, 3.0), (0.0, math.inf)):
        plain = integrate(f, lo, hi, CFG)
        points = [lo - 1.0, lo, hi, hi + 1.0, math.inf, -math.inf, math.nan]
        if lo < 0.0 < hi:
            points.append(0.0)
        r = integrate(f, lo, hi, CFG, points=points)
        assert (r.value, r.err_estimate) == (plain.value, plain.err_estimate)


@pytest.mark.parametrize("lo,hi,points", [
    (0.0, 3.0, [0.25, 1.7]),                  # next to a 0 end
    (0.5, math.inf, [4.0, 9.5]),              # next to an infinite end
    (-math.inf, math.inf, [-2.5, -0.3, 0.7]),  # on both sides of 0
    (0.0, 30.0, [5.0, 11.0]),                 # inside a cut end's blocks
])
def test_breakpoints_are_panel_edges(lo, hi, points):
    # no panel of any round straddles a breakpoint: its 15 nodes lie on one
    # side of each one (the nodes of a panel are consecutive in each call)
    panels = []

    def f(x):
        panels.append(x.reshape(-1, 15))
        return np.exp(-np.abs(x)) * (1.0 + (np.abs(x) > 2.0))

    integrate(f, lo, hi, CFG, cutoff=12.0 if hi == 30.0 else None, points=points)
    for nodes in panels:
        for pt in points:
            assert np.all(np.all(nodes < pt, axis=1) | np.all(nodes > pt, axis=1))


def test_a_breakpoint_at_a_block_edge_or_given_twice_adds_no_panel():
    # (0, 30) cut at 12 has blocks in x with edges 0, 1, 3, 7, 12
    f = lambda x: np.exp(-x) * np.cos(3.0 * x)
    runs = {}
    for points in ((), (3.0,), (3.0, 3.0, 7.0), (5.0,), (5.0, 5.0)):
        r = integrate(f, 0.0, 30.0, CFG, cutoff=12.0, points=points)
        runs[points] = (r.value, r.err_estimate)
    assert runs[()] == runs[(3.0,)] == runs[(3.0, 3.0, 7.0)]
    assert runs[(5.0,)] == runs[(5.0, 5.0)]


def test_a_jump_at_a_breakpoint_converges_next_to_each_end():
    # e^(-|x|) on |x| < 5, 0 past it, with the jumps at +-5 given: a 0 end,
    # an infinite end and the side below 0 meet no jump inside a panel
    f = lambda x: np.where(np.abs(x) < 5.0, np.exp(-np.abs(x)), 0.0)
    exact = 1.0 - math.exp(-5.0)
    for lo, hi, times in ((0.0, math.inf, 1), (-math.inf, 0.0, 1), (-math.inf, math.inf, 2)):
        r = integrate(f, lo, hi, CFG, points=[-5.0, 5.0])
        assert abs(r.value - times * exact) <= r.err_estimate <= CFG.rel_tol * r.value


def test_layout_is_reused_read_only():
    # one layout per (lo, hi, cutoff), shared by every call on the interval:
    # a call with breakpoints between two plain ones changes none of its
    # arrays, and the plain calls agree bit for bit
    def f(x):
        return np.exp(-x * x) * (1.0 + 0.5 * np.abs(x - 0.3))

    first = integrate(f, -math.inf, math.inf, CFG)
    lay = quad._layout(-math.inf, math.inf, None)
    arrays = lay[1:]
    assert arrays and all(not a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        lay.panels[0, 0] = 1.0
    before = [a.copy() for a in arrays]
    cut = integrate(f, -math.inf, math.inf, CFG, points=[-2.0, 0.3, 1.7])
    assert cut.value != first.value
    again = integrate(f, -math.inf, math.inf, CFG)
    assert quad._layout(-math.inf, math.inf, None) is lay
    assert all(np.array_equal(a, b) for a, b in zip(arrays, before))
    assert (again.value, again.err_estimate, again.subdivisions_used) == \
        (first.value, first.err_estimate, first.subdivisions_used)


@pytest.mark.parametrize("lo,hi,cutoff", [
    (math.nan, 1.0, None), (0.0, math.nan, None), (math.nan, math.nan, None),
    (-math.inf, math.inf, math.nan), (0.0, 30.0, math.nan),
])
def test_nan_interval_ends_raise(lo, hi, cutoff):
    # a NaN end failed every comparison and read 0 +- 0; it is refused
    # before a layout is built for it
    size = quad._layout.cache_info().currsize
    with pytest.raises(ParameterError, match="NaN"):
        integrate(np.exp, lo, hi, CFG, cutoff=cutoff)
    assert quad._layout.cache_info().currsize == size


def _charge_tail_reference(err, edges, mags, cfg):
    """One dyadic piece's tail charge, a piece at a time over a list of
    block magnitudes; returns the new estimate, or None where the blocks
    fail to shrink."""
    widths = np.diff(edges)
    full = mags
    if len(widths) >= 3:
        growth = widths[-2] / widths[-3]
        if abs(widths[-1] / widths[-2] - growth) > 0.2 * max(growth, 1e-12):
            full = mags[:-1]
    tail = full[-1]
    if len(full) == 1:
        return err + tail
    blocks = np.array(full)
    ratios = np.divide(blocks[1:], blocks[:-1], where=blocks[:-1] > 0,
                       out=np.full(blocks[1:].shape, math.inf))
    floor = np.maximum(cfg.abs_tol, cfg.rel_tol * sum(full))
    if len(full) > 4 and ((tail > floor) & (ratios[-4:] > 1.0 / 1.05).all(axis=0)).any():
        return None
    r_last = np.minimum(ratios[-1], 0.9)
    return err + tail * r_last / (1.0 - r_last)


@pytest.mark.parametrize("lo,hi,cutoff", [
    (-math.inf, math.inf, None), (0.0, math.inf, None), (-3.0, 0.5, None),
    (-math.inf, math.inf, 12.0), (0.0, 30.0, 12.0), (0.2, 1.5, None),
])
def test_tail_charge_matches_a_piece_at_a_time(lo, hi, cutoff):
    # every dyadic piece's charge from one array pass over all of them, bit
    # for bit the charges added a piece at a time, on shrinking block
    # magnitudes of two components
    lay = quad._layout(lo, hi, cutoff)
    n_blocks = lay.maps.shape[1]
    rng = np.random.default_rng(n_blocks)
    sums = np.exp(-rng.uniform(0.5, 3.0, (2, n_blocks)).cumsum(axis=1))
    total = quad.IntegralResult(np.zeros(2), np.full(2, 1e-9))
    quad._charge_tails(total, sums, lay, CFG)
    ref = np.full(2, 1e-9)
    first = 0
    for p in lay.pieces:
        n = len(p.edges) - 1
        if p.dyadic:
            ref = _charge_tail_reference(ref, p.edges, list(sums.T[first:first + n]), CFG)
        first += n
    assert np.array_equal(total.err_estimate, ref)


@pytest.mark.parametrize("lo, hi", [(0.0, 1e-310), (-1e-310, 1e-310), (-1e-315, 0.0)])
def test_interval_to_a_subnormal_end_is_one_plain_block(lo, hi):
    # the log span from the end to the smallest normal double is not
    # positive, so the piece had no block and a reshape raised ValueError;
    # the estimate covers the subnormal rounding of the block's sums
    r = integrate(np.ones_like, lo, hi, CFG)
    assert abs(r.value - (hi - lo)) <= r.err_estimate
    assert r.err_estimate <= 1e-320


@pytest.mark.parametrize("b", [3e-308, 1e-307, 1e-300])
@pytest.mark.parametrize("f, exact", [
    (np.ones_like, lambda b: b),
    (lambda x: x ** -0.5, lambda b: 2.0 * math.sqrt(b)),
], ids=["one", "inverse_root"])
def test_interval_from_zero_just_above_the_smallest_normal_is_one_plain_block(b, f, exact):
    # a log-coordinate piece stops at the smallest normal double, 2.2e-308,
    # and its one or few dyadic blocks missed the rest: 1 over (0, 3e-308)
    # read 7.7e-309 with an estimate of 7.7e-309
    r = integrate(f, 0.0, b, CFG)
    assert abs(r.value - exact(b)) <= r.err_estimate


@pytest.mark.parametrize("lo, hi", [(1.0, 3.0), (0.0, 2.0)])
@pytest.mark.parametrize("delta", [1e-4, 1e-6])
def test_a_panel_within_the_noise_of_its_nodes_is_not_split(lo, hi, delta):
    # cos x plus a deterministic ripple of amplitude delta, reported as each
    # node's inner error: no split can read below it, so the run stops in its
    # first round, far inside the budget, with an estimate that covers the
    # ripple; told nothing of it, the same integrand takes 7 to 9 rounds and
    # 175 to 379 panels to reach the stall exit
    calls = []

    def f(x):
        calls.append(x.size)
        return np.cos(x) + delta * np.sin(1e7 * x * x), np.full(x.shape, delta)

    r = integrate(f, lo, hi, CFG)
    assert len(calls) == 1 and r.subdivisions_used <= 10
    assert abs(r.value - (math.sin(hi) - math.sin(lo))) <= r.err_estimate


@pytest.mark.parametrize("inner", [False, True])
def test_an_integrand_without_inner_errors_keeps_its_bits_and_rounds(inner):
    # pinned before a panel within its nodes' noise stayed whole: zero inner
    # errors, returned as zeros or not at all, leave every split as it was
    calls = []

    def f(x):
        calls.append(x.size)
        y = np.sqrt(np.abs(x - 0.3)) * np.exp(x)
        return (y, np.zeros(x.shape)) if inner else y

    r = integrate(f, 0.0, 2.0, CFG)
    assert float(r.value).hex() == "0x1.8c624c17b3261p+2"
    assert float(r.err_estimate).hex() == "0x1.52c028b2e9a31p-26"
    assert (r.subdivisions_used, len(calls)) == (24, 12)


@pytest.mark.parametrize("delta", [1e-4, 1e-6])
def test_a_noisy_component_adds_no_splits_to_a_clean_one(delta):
    # the ripple of the first test as component 0, with its inner error,
    # beside the kinked integrand of the second as component 1, without: a
    # panel splits only for a component above its own noise, so the pair
    # takes the clean one's 24 splits and bits; split wherever either read
    # above the other's noise, it took 613 to 742
    calls = []

    def f(x):
        calls.append(x.size)
        noisy = np.cos(x) + delta * np.sin(1e7 * x * x)
        kinked = np.sqrt(np.abs(x - 0.3)) * np.exp(x)
        return (np.stack([noisy, kinked]),
                np.stack([np.full(x.shape, delta), np.zeros(x.shape)]))

    r = integrate(f, 0.0, 2.0, CFG)
    assert (r.subdivisions_used, len(calls)) == (24, 12)
    assert float(r.value[1]).hex() == "0x1.8c624c17b3261p+2"
    assert abs(r.value[0] - math.sin(2.0)) <= r.err_estimate[0]


def _edge_points(lay):
    """The x of the layout's interior first-round panel edges whose s, read
    back from x as a breakpoint is, lands on the edge itself."""
    kept = []
    for (lo, _, block) in lay.panels.T[1:]:
        k, scale, sign = lay.maps[:, int(block)]
        x = sign * (lo if k == 0 else scale * math.exp(k * lo))
        if np.array_equal(quad._initial_panels(lay.pieces, [x]), lay.panels):
            kept.append(x)
    return kept


@pytest.mark.parametrize("lo,hi,cutoff", [
    (0.0, 1.0, None),         # a 0 end
    (0.5, math.inf, None),    # an infinite end
    (0.0, 30.0, 12.0),        # a cut end
])
def test_first_round_from_the_layout_matches_recomputed_abscissae(lo, hi, cutoff):
    # breakpoints that are already edges of the layout's first-round panels
    # leave those panels as they are, but take the path that recomputes the
    # abscissae and Jacobian from them: bit for bit the plain call, which
    # reads them from the layout, in value, estimate and subdivisions, on a
    # run that converges in its first round and on one that is refined
    lay = quad._layout(lo, hi, cutoff)
    points = _edge_points(lay)
    assert len(points) >= 2
    for g in (lambda x: np.exp(-x), lambda x: np.cos(5.0 * x) * np.exp(-0.2 * x)):
        seen = []

        def f(x):
            seen.append(x)
            return g(x)

        plain = integrate(f, lo, hi, CFG, cutoff=cutoff)
        assert seen[0] is lay.nodes
        n = len(seen)
        cut = integrate(f, lo, hi, CFG, cutoff=cutoff, points=points)
        assert seen[n] is not lay.nodes and np.array_equal(seen[n], lay.nodes)
        assert len(seen) == 2 * n
        assert float(cut.value).hex() == float(plain.value).hex()
        assert float(cut.err_estimate).hex() == float(plain.err_estimate).hex()
        assert cut.subdivisions_used == plain.subdivisions_used


def test_first_round_and_refined_results_keep_their_bits():
    # pinned when the first round was recomputed from the panels on every
    # call: two integrals that converge in their first round, and one that
    # is refined
    one = integrate(lambda x: np.ones_like(x), 0.0, 1.0, CFG)
    assert (float(one.value).hex(), float(one.err_estimate).hex(), one.subdivisions_used) == \
        ("0x1.0000000000001p+0", "0x1.31fcdb758a4fcp-34", 10)
    p = JacobiParams(1.0, 0.5)
    norm = lp_norm(extremal_function("delta", p, p=2.0, delta=0.2), 2.0, p, (0.0, math.inf), CFG)
    assert (float(norm.value).hex(), float(norm.err_estimate).hex()) == \
        ("0x1.94c583ada5b53p+0", "0x1.2ce6961a14e30p-35")
    calls = []

    def decay(x):
        calls.append(x.size)
        return np.exp(-x)

    r = integrate(decay, 0.0, math.inf, CFG)
    assert len(calls) == 2
    assert (float(r.value).hex(), float(r.err_estimate).hex(), r.subdivisions_used) == \
        ("0x1.0000000000001p+0", "0x1.a5a2dabc8c6dcp-34", 22)
