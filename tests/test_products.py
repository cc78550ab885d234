import os
import signal
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blab import (
    BlaschkeProduct,
    BoundarySet,
    DomainError,
    InvalidZeroError,
    ModelFunction,
    ZeroSequence,
    blaschke_factor,
    blaschke_sum,
    envelope_fit,
    envelope_grid,
    factor_derivative,
    lemma_lhs,
    truncation_tail,
)
from blab.bounds import _LazyDerivative, schwarz_pick_bound
from blab.critical import _cauchy_sum, _group_exact, _pole_sums
from blab.means import _PoissonMap
from blab import products
from blab.products import _block_width, _split_blocks


def interior_zero(rng, lo=0.05, hi=0.95):
    return rng.uniform(lo, hi) * np.exp(2j * np.pi * rng.uniform())


zeros_strategy = st.builds(
    lambda r, th: r * np.exp(1j * th),
    st.floats(min_value=0.01, max_value=0.99),
    st.floats(min_value=0.0, max_value=2.0 * np.pi),
)


class TestFactor:
    def test_value_at_origin_is_modulus(self):
        assert blaschke_factor(0.0, 0.5) == pytest.approx(0.5)
        a = 0.3 + 0.4j
        assert blaschke_factor(0.0, a) == pytest.approx(abs(a))

    def test_vanishes_at_its_zero(self):
        assert blaschke_factor(0.5, 0.5) == 0.0
        assert blaschke_factor(0.3 + 0.4j, 0.3 + 0.4j) == 0.0

    def test_unimodular_on_circle_hand_case(self):
        v = blaschke_factor(np.exp(1j), 0.3 + 0.4j)
        assert abs(abs(v) - 1.0) < 1e-12

    @given(zeros_strategy, st.floats(min_value=0.0, max_value=2.0 * np.pi))
    @settings(max_examples=200, deadline=None)
    def test_unimodular_on_circle(self, a, theta):
        v = blaschke_factor(np.exp(1j * theta), a)
        assert abs(abs(v) - 1.0) < 1e-12

    @given(
        zeros_strategy,
        st.floats(min_value=0.0, max_value=0.999),
        st.floats(min_value=0.0, max_value=2.0 * np.pi),
    )
    @settings(max_examples=200, deadline=None)
    def test_contraction_inside(self, a, r, theta):
        v = blaschke_factor(r * np.exp(1j * theta), a)
        assert abs(v) <= 1.0 + 1e-12

    def test_rejects_bad_zeros(self):
        for bad in (0.0, 1.0, 1.5):
            with pytest.raises(InvalidZeroError):
                blaschke_factor(0.1, bad)
            with pytest.raises(InvalidZeroError):
                factor_derivative(0.1, bad)

    def test_rejects_points_outside_closed_disk(self):
        with pytest.raises(DomainError):
            blaschke_factor(1.1, 0.5)

    def test_every_entry_point_accepts_the_same_rim_zeros(self):
        # unit-circle floats: numpy's modulus and Python's abs disagree on
        # thousands of them, so one rule must decide at every entry point
        theta = np.random.default_rng(0).uniform(0.0, 2.0 * np.pi, 20_000)
        zeros = [complex(a) for a in np.exp(1j * theta)] + [complex(np.exp(0.3j))]

        def accepts(build, a):
            try:
                build(a)
            except InvalidZeroError:
                return False
            return True

        verdicts = [[accepts(build, a) for a in zeros] for build in (
            ZeroSequence, lambda a: BlaschkeProduct([a]),
            lambda a: blaschke_factor(0.0, a), lambda a: factor_derivative(0.0, a))]
        assert all(v == verdicts[0] for v in verdicts[1:])
        assert 0 < sum(verdicts[0]) < len(zeros)
        assert verdicts[0][-1]  # e^{0.3i}: |a|^2 - 1 is -9.1e-17 exactly, inside

    def test_derivative_closed_form(self):
        # b'(z) = -(1 - a^2)/(1 - a z)^2 for real a
        a = 0.5
        for z in (0.0, 0.2 + 0.1j, -0.7j):
            expect = -(1 - a * a) / (1 - a * z) ** 2
            assert factor_derivative(z, a) == pytest.approx(expect, rel=1e-14)


class TestClosedDisk:
    def test_every_entry_point_keeps_one_tolerance(self):
        product, phi = BlaschkeProduct([0.5, -0.3j]), ModelFunction.linear()
        boundary = BoundarySet.from_points([np.pi])
        ring = envelope_grid(boundary, depth=2, rays=1, ring=8)
        entry_points = (
            product, product.derivative, lambda z: lemma_lhs(z, 1.0, 0.5, phi),
            lambda z: envelope_fit(product, boundary, 1.0, np.append(ring, z)))
        for call in entry_points:
            call(1.0 + 1e-13)  # past the circle by rounding only
            with pytest.raises(DomainError, match="must lie in the closed unit disk"):
                call(1.0 + 1e-11)


class TestZeroSequence:
    def test_alpha_geometric(self):
        zs = ZeroSequence(1.0 - 0.5 ** np.arange(1, 11))
        assert zs.alpha == pytest.approx(1.0 - 2.0**-10, rel=1e-14)
        assert blaschke_sum(zs) == pytest.approx(0.9990234375)

    def test_blaschke_sum_hand_values(self):
        assert blaschke_sum([0.5]) == pytest.approx(0.5)
        assert blaschke_sum([0.5, -0.5]) == pytest.approx(1.0)

    def test_validation_names_offender(self):
        for bad in (1.0 + 0j, complex(np.nan, 0.0)):
            with pytest.raises(InvalidZeroError, match="zero #1"):
                ZeroSequence([0.5, bad, 0.3])

    def test_slicing_and_indexing(self):
        zs = ZeroSequence([0.5, -0.5, 0.5j])
        head, tail = zs[:2], zs[2:]
        assert list(head) == [0.5, -0.5] and list(tail) == [0.5j]
        assert head.alpha == 1.0 and tail.alpha == 0.5
        assert head.alpha + tail.alpha == zs.alpha
        assert len(zs[7:]) == 0 and zs[7:].alpha == 0.0
        assert zs[0] == 0.5 and zs[2] == 0.5j
        assert list(zs) == [0.5, -0.5, 0.5j]

    def test_gaps_are_frozen_and_sum_to_alpha(self):
        zs = ZeroSequence(1.0 - 0.5 ** np.arange(1, 11) + 0.3j * 0.5 ** np.arange(1, 11))
        assert zs.gaps.tobytes() == (1 - zs.moduli).tobytes()
        assert zs.alpha == float(np.sum(zs.gaps))
        with pytest.raises(ValueError):
            zs.gaps[0] = 0.1
        tail = zs[4:]
        assert np.array_equal(tail.gaps, zs.gaps[4:]) and tail.alpha == float(np.sum(tail.gaps))

    def test_backing_array_is_frozen(self):
        zs = ZeroSequence([0.5])
        with pytest.raises(ValueError):
            zs.zeros[0] = 0.1

    def test_repr_names_size_and_alpha(self):
        zs = ZeroSequence([0.5, -0.75])
        assert repr(zs) == "ZeroSequence(n=2, alpha=0.75)"
        assert repr(BlaschkeProduct(zs)) == "BlaschkeProduct(degree=2, alpha=0.75)"

    def test_empty_sequence_allowed_but_not_a_product(self):
        zs = ZeroSequence([])
        assert len(zs) == 0 and zs.alpha == 0.0
        with pytest.raises(InvalidZeroError):
            BlaschkeProduct(zs)


class TestProductEvaluation:
    def test_two_symmetric_zeros_at_origin(self):
        B = BlaschkeProduct([0.5, -0.5])
        assert B(0.0) == pytest.approx(0.25)

    def test_single_zero_at_origin(self):
        assert BlaschkeProduct([0.5])(0.0) == pytest.approx(0.5)

    def test_vanishes_at_stored_zeros(self):
        zs = [0.5, -0.3 + 0.2j, 0.7j]
        B = BlaschkeProduct(zs)
        for a in zs:
            assert B(a) == 0.0

    def test_value_at_origin_is_product_of_moduli(self):
        rng = np.random.default_rng(11)
        zs = [interior_zero(rng) for _ in range(17)]
        B = BlaschkeProduct(zs)
        assert B(0.0) == pytest.approx(np.prod(np.abs(zs)), rel=1e-12)

    def test_symmetric_pair_closed_form(self):
        # B(z) = (a^2 - z^2)/(1 - a^2 z^2) for zeros {a, -a}, real a
        a = 0.6
        B = BlaschkeProduct([a, -a])
        rng = np.random.default_rng(3)
        pts = 0.9 * np.sqrt(rng.uniform(0, 1, 64)) * np.exp(2j * np.pi * rng.uniform(0, 1, 64))
        expect = (a * a - pts**2) / (1 - a * a * pts**2)
        assert np.allclose(B(pts), expect, rtol=1e-13, atol=1e-15)

    def test_bounded_by_one_on_closed_disk(self):
        rng = np.random.default_rng(5)
        B = BlaschkeProduct([interior_zero(rng) for _ in range(40)])
        pts = np.sqrt(rng.uniform(0, 1, 4096)) * np.exp(2j * np.pi * rng.uniform(0, 1, 4096))
        assert np.all(np.abs(B(pts)) <= 1.0 + 1e-12)
        rim = np.exp(2j * np.pi * rng.uniform(0, 1, 512))
        assert np.max(np.abs(np.abs(B(rim)) - 1.0)) < 1e-10

    def test_rejects_evaluation_outside_disk(self):
        with pytest.raises(DomainError):
            BlaschkeProduct([0.5]).evaluate(1.0 + 1e-6)

    def test_scalar_array_shape_parity(self):
        B = BlaschkeProduct([0.5, 0.2j])
        assert isinstance(B(0.1), complex)
        out = B(np.asarray([[0.1, 0.2], [0.3, 0.4]]))
        assert out.shape == (2, 2)
        assert out[0, 0] == B(0.1)


class TestProductDerivative:
    def test_single_zero_hand_value(self):
        assert BlaschkeProduct([0.5]).derivative(0.0) == pytest.approx(-0.75)

    def test_symmetric_pair_vanishes_at_origin(self):
        assert BlaschkeProduct([0.5, -0.5]).derivative(0.0) == pytest.approx(0.0, abs=1e-15)

    def test_symmetric_pair_closed_form(self):
        # B'(z) = -2 z (1 - a^4)/(1 - a^2 z^2)^2
        a = 0.7
        B = BlaschkeProduct([a, -a])
        rng = np.random.default_rng(9)
        pts = 0.95 * np.sqrt(rng.uniform(0, 1, 128)) * np.exp(2j * np.pi * rng.uniform(0, 1, 128))
        expect = -2.0 * pts * (1 - a**4) / (1 - a * a * pts**2) ** 2
        assert np.allclose(B.derivative(pts), expect, rtol=1e-12, atol=1e-15)

    def test_exact_at_repeated_zero(self):
        # the leave-one-out sum keeps B'(a) = 0 exact for a double zero
        B = BlaschkeProduct([0.4 + 0.1j, 0.4 + 0.1j])
        assert B.derivative(0.4 + 0.1j) == 0.0

    def test_matches_finite_difference(self):
        rng = np.random.default_rng(21)
        for deg in (1, 5, 37):
            B = BlaschkeProduct([interior_zero(rng, hi=0.8) for _ in range(deg)])
            pts = 0.6 * np.sqrt(rng.uniform(0, 1, 50)) * np.exp(2j * np.pi * rng.uniform(0, 1, 50))
            an = B.derivative(pts)
            fd = B.derivative_fd(pts, h=1e-5)
            assert np.max(np.abs(an - fd) / np.abs(an)) < 1e-6

    def test_fd_hand_values(self):
        assert BlaschkeProduct([0.5]).derivative_fd(0.0, h=1e-5) == pytest.approx(-0.75, abs=1e-8)
        assert BlaschkeProduct([0.5, -0.5]).derivative_fd(0.0, h=1e-5) == pytest.approx(
            0.0, abs=1e-8
        )

    def test_fd_guards(self):
        B = BlaschkeProduct([0.5])
        with pytest.raises(DomainError):
            B.derivative_fd(0.0, h=0.0)
        with pytest.raises(DomainError):
            B.derivative_fd(0.99999, h=1e-4)

    def test_chunked_path_matches_per_point(self):
        # arrays longer than one internal block must agree with scalar calls;
        # at degree 300 one block holds fewer points than the array
        rng = np.random.default_rng(13)
        for deg in (7, 300):
            B = BlaschkeProduct([interior_zero(rng) for _ in range(deg)])
            pts = 0.8 * np.sqrt(rng.uniform(0, 1, 1500)) * np.exp(
                2j * np.pi * rng.uniform(0, 1, 1500))
            sample = rng.integers(0, pts.size, 25)
            for fn in (B.derivative, B.evaluate):
                whole = fn(pts)
                single = np.asarray([fn(complex(pts[k])) for k in sample])
                assert np.allclose(whole[sample], single, rtol=1e-14)

    def test_exact_zeros_within_an_array(self):
        # simple zero, double zero and ordinary points in one call
        simple, double = 0.3 - 0.5j, 0.4 + 0.1j
        B = BlaschkeProduct([simple, double, double, -0.6 + 0.2j])
        pts = np.asarray([0.1j, simple, 0.5, double, -0.2 - 0.7j])
        whole = B.derivative(pts)
        assert np.allclose(whole, [B.derivative(complex(p)) for p in pts], rtol=1e-14)
        assert whole[3] == 0.0
        # b_k'(a_k) prod_{j!=k} b_j(a_k) at the simple zero
        rest = BlaschkeProduct([double, double, -0.6 + 0.2j])
        assert whole[1] == pytest.approx(factor_derivative(simple, simple) * rest(simple),
                                         rel=1e-14)
        assert np.all(np.isfinite(whole)) and np.all(whole[[0, 2, 4]] != 0.0)

    def test_next_to_a_zero_of_tiny_modulus(self):
        # a - z is subnormal there: B underflows to 0 and H overflows, and the
        # leave-one-out sum gives b_1'(z) b_2(z) b_3(z) = -1 * 0.5 * 0.9 (+ O(1e-300))
        tiny = 1e-300
        B = BlaschkeProduct([tiny, 0.5, 0.9 * np.exp(3j)])
        z = tiny * (1.0 + 2.0 ** -52)
        pts = np.asarray([0.3, z, 0.2j, tiny])
        whole = B.derivative(pts)
        assert whole[1] == pytest.approx(-0.45, rel=1e-14)
        assert whole[1] == B.derivative(z) and whole[3] == B.derivative(tiny)
        assert np.allclose(whole[[0, 2]], [B.derivative(0.3), B.derivative(0.2j)], rtol=1e-14)

    @pytest.mark.parametrize("deg", [40, 300])
    def test_batch_independent_bits(self, deg):
        # a point's B, B', Schwarz-Pick bound and pole sums have the same bits
        # in every call, whatever the other points are: a block never holds a
        # point alone, so numpy reduces each in zero order. The pruned
        # envelope fit and theorem check rest on this
        rng = np.random.default_rng(deg)
        zs = np.asarray([interior_zero(rng, 0.05, 0.999) for _ in range(deg)])
        B = BlaschkeProduct(zs)
        cols = _block_width(deg)
        disk = 0.999 * np.sqrt(rng.uniform(0, 1, 2000)) * np.exp(
            2j * np.pi * rng.uniform(0, 1, 2000))
        rim = np.exp(2j * np.pi * rng.uniform(0, 1, 50))
        pts = np.concatenate([disk, rim, zs[:3]])  # three points on zeros: the fallback path
        rng.shuffle(pts)
        inner = pts[np.abs(pts) < 1.0]  # the Schwarz-Pick bound is for |z| < 1
        unique, mult = _group_exact(zs)
        passes = [(B.derivative, pts), (B.evaluate, pts),
                  (lambda z: schwarz_pick_bound(B, z), inner),
                  (lambda z: _pole_sums(unique, mult)(np.atleast_1d(z)), disk)]
        sizes = [1, 2, 3, cols - 1, cols, cols + 1, 2 * cols + 1]
        for f, z in passes:
            whole = f(z)
            for size in sizes:
                for idx in (rng.choice(z.size, size, replace=False),
                            rng.integers(0, z.size, size),  # repeats allowed
                            np.arange(z.size - size, z.size)):
                    assert np.array_equal(f(z[idx]), whole[..., idx])
            for k in np.concatenate([rng.integers(0, z.size, 20), np.flatnonzero(np.isin(z, zs))]):
                assert np.array_equal(np.ravel(f(complex(z[k]))), np.ravel(whole[..., k]))

    @pytest.mark.parametrize("deg", [40, 300])
    def test_the_other_sums_over_the_zeros_have_batch_independent_bits(self, deg):
        # the Poisson map on one radius and on mixed radii, the factor-sum
        # ceilings after tighten and the repulsion sum run on the factor
        # pass's blocks, so a point's values have the same bits in every call
        rng = np.random.default_rng(deg + 1)
        zs = np.asarray([interior_zero(rng, 0.05, 0.999) for _ in range(deg)])
        B, cols, size = BlaschkeProduct(zs), _block_width(deg), 2000
        theta = rng.uniform(0.0, 2.0 * np.pi, size)
        one, mixed = np.full(size, 0.999), rng.choice([0.5, 0.999, 0.9999], size)
        disk = 0.999 * np.sqrt(rng.uniform(0, 1, size)) * np.exp(
            2j * np.pi * rng.uniform(0, 1, size))
        nodes = np.concatenate([disk[:deg // 2], 1.0 / np.conj(disk[:deg // 2])])
        pmap = _PoissonMap(B)

        def ceiling(idx):
            lazy = _LazyDerivative(B, disk)
            lazy.tighten(idx)
            return lazy.ceiling[idx]

        passes = [lambda idx: np.array(pmap(theta[idx], one[idx], 1.0 - one[idx])),
                  lambda idx: np.array(pmap(theta[idx], mixed[idx], 1.0 - mixed[idx])),
                  ceiling, lambda idx: _cauchy_sum(disk[idx], nodes)]
        assert nodes.size == deg and np.all(pmap(theta, one, 1.0 - one)[1] != 1.0)  # mapped
        for f in passes:
            whole = f(np.arange(size))
            for count in [1, 2, 3, cols - 1, cols, cols + 1, 2 * cols + 1]:
                for idx in (rng.choice(size, count, replace=False),
                            rng.integers(0, size, count),  # repeats allowed
                            np.arange(size - count, size)):
                    assert np.array_equal(f(idx), whole[..., idx])

    def test_rim_poisson_oracle(self):
        # on the circle |B'(e^{i theta})| = sum (1 - |a|^2) / |e^{i theta} - a|^2
        rng = np.random.default_rng(29)
        gaps = np.geomspace(1e-3, 0.5, 200)
        zs = (1.0 - gaps) * np.exp(2j * np.pi * rng.uniform(0, 1, 200))
        rim = np.exp(2j * np.pi * rng.uniform(0, 1, 2000))
        rim = np.concatenate([rim, zs / np.abs(zs)])  # right above each zero
        poisson = np.sum((1.0 - np.abs(zs[:, None]) ** 2) / np.abs(rim - zs[:, None]) ** 2,
                         axis=0)
        got = np.abs(BlaschkeProduct(zs).derivative(rim))
        assert np.allclose(got, poisson, rtol=1e-12, atol=0.0)


class TestTruncationTail:
    def test_empty_tail_is_zero(self):
        assert truncation_tail([], 0.3) == 0.0

    def test_hand_values(self):
        assert truncation_tail([0.5], 0.0) == pytest.approx(1.0)
        assert truncation_tail([0.9, 0.99], 0.5) == pytest.approx(0.44)

    def test_certifies_actual_truncation_error(self):
        rng = np.random.default_rng(31)
        zs = [interior_zero(rng, lo=0.7, hi=0.99) for _ in range(30)]
        full = BlaschkeProduct(zs)
        head = BlaschkeProduct(zs[:12])
        tail = zs[12:]
        pts = 0.7 * np.sqrt(rng.uniform(0, 1, 256)) * np.exp(2j * np.pi * rng.uniform(0, 1, 256))
        err = np.abs(full(pts) - head(pts))
        bound = truncation_tail(tail, pts)  # |head| <= 1 absorbs the prefactor
        assert np.all(err <= bound + 1e-15)

    def test_rejects_circle(self):
        with pytest.raises(DomainError):
            truncation_tail([0.5], 1.0)


class TestSplitPass:
    """`_split_blocks`: the worker runs the second half of a large pass."""

    # against 8192 zeros a block holds two points: eight points are four blocks
    SIZE, COUNT = products._BLOCK // 2, 8

    @pytest.fixture
    def split(self, monkeypatch):
        monkeypatch.setattr(products, "_usable_cpus", lambda: 2)

        def at(entries, run):
            monkeypatch.setattr(products, "_SPLIT_ENTRIES", entries)
            _split_blocks(self.SIZE, self.COUNT, run)
        return at

    @staticmethod
    def _worker_first(run):
        """run, whose call on the main thread starts once the worker's call has returned."""
        done = threading.Event()

        def first(blocks, cols):
            if threading.current_thread() is threading.main_thread():
                assert done.wait(60)
                run(blocks, cols)
                return
            try:
                run(blocks, cols)
            finally:
                done.set()
        return first

    def test_the_worker_keeps_the_callers_error_state(self, split):
        # every block divides by zero; split, the worker takes blocks first
        def trial(entries, state):
            on_main = []

            def run(blocks, cols):
                for _ in blocks:
                    on_main.append(threading.current_thread() is threading.main_thread())
                    np.divide(1.0, np.zeros(cols))

            with np.errstate(divide=state):
                try:
                    split(entries, run if entries else self._worker_first(run))
                except RuntimeWarning as err:
                    return on_main, str(err)
            return on_main, None

        warned = "divide by zero encountered in divide"
        assert trial(float("inf"), "ignore") == ([True] * 4, None)
        assert trial(float("inf"), "warn") == ([True], warned)
        assert trial(0, "ignore") == ([False] * 4, None)
        assert trial(0, "warn") == ([False, True], warned)

    def test_a_late_worker_is_not_waited_for(self, split):
        # with the worker busy, the caller takes every block, withdraws the
        # worker's share and returns without waiting for it
        release = threading.Event()
        busy = products._pool().submit(release.wait, 60)
        calls = []
        try:
            split(0, lambda blocks, cols: calls.append(
                (threading.current_thread() is threading.main_thread(), len(list(blocks)))))
            assert calls == [(True, 4)] and not busy.done()
        finally:
            release.set()
        assert busy.result(timeout=60)

    def test_callers_on_many_threads_share_the_worker(self, monkeypatch, split):
        # four callers split their passes over the one worker at once, with
        # thread switches forced often; each must get every block of its own
        monkeypatch.setattr(products, "_SPLIT_ENTRIES", 0)

        def pass_of(tag):
            out = np.zeros(self.COUNT)

            def run(blocks, cols):
                for blk in blocks:
                    out[blk] += tag + np.arange(self.COUNT)[blk]
            _split_blocks(self.SIZE, self.COUNT, run)
            return out

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as callers:
                done = [callers.submit(lambda t: [pass_of(t) for _ in range(50)], tag)
                        for tag in range(4)]
                got = [f.result(timeout=60) for f in done]
        finally:
            sys.setswitchinterval(interval)
        for tag, outs in enumerate(got):
            assert all(np.array_equal(out, tag + np.arange(self.COUNT)) for out in outs)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_starts_its_own_worker(self, split):
        split(0, lambda blocks, cols: None)  # this process has a worker now; a child has not
        with warnings.catch_warnings():
            # Python 3.12 warns that a process with threads forks
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:  # the child: report by exit code and leave at once
            code = 1
            try:
                signal.alarm(60)  # a child waiting on its parent's worker dies
                threads = set()
                split(0, self._worker_first(lambda blocks, cols: threads.add(threading.get_ident())))
                code = 0 if len(threads) == 2 else 2
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
