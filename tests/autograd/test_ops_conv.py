"""Convolution and pooling: scipy reference forward, gradchecks, errors."""

import numpy as np
import pytest
from scipy.signal import correlate

from repro.autograd import Tensor, avg_pool2d, conv2d, gradcheck, max_pool2d
from repro.errors import ShapeError


def _data(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


def reference_conv2d(x, weight, bias, stride, padding):
    """Direct cross-correlation via scipy, for forward verification."""
    n, c, h, w = x.shape
    out_channels, _, kh, kw = weight.shape
    sh, sw = stride
    ph, pw = padding
    padded = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    out = np.zeros((n, out_channels, oh, ow))
    for i in range(n):
        for o in range(out_channels):
            acc = np.zeros((h + 2 * ph - kh + 1, w + 2 * pw - kw + 1))
            for ch in range(c):
                acc += correlate(padded[i, ch], weight[o, ch], mode="valid")
            out[i, o] = acc[::sh, ::sw]
            if bias is not None:
                out[i, o] += bias[o]
    return out


class TestConvForward:
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    def test_matches_scipy(self, stride, padding):
        x = _data((2, 3, 6, 6))
        weight = _data((4, 3, 3, 3), 1)
        bias = _data((4,), 2)
        out = conv2d(Tensor(x), Tensor(weight), Tensor(bias),
                     stride=stride, padding=padding)
        expected = reference_conv2d(x, weight, bias, (stride, stride),
                                    (padding, padding))
        np.testing.assert_allclose(out.data, expected, rtol=1e-4, atol=1e-6)

    def test_no_bias(self):
        x = _data((1, 2, 4, 4))
        weight = _data((3, 2, 3, 3), 1)
        out = conv2d(Tensor(x), Tensor(weight))
        expected = reference_conv2d(x, weight, None, (1, 1), (0, 0))
        np.testing.assert_allclose(out.data, expected, rtol=1e-4, atol=1e-6)

    def test_rectangular_kernel(self):
        x = _data((1, 1, 5, 6))
        weight = _data((2, 1, 2, 3), 1)
        out = conv2d(Tensor(x), Tensor(weight))
        assert out.shape == (1, 2, 4, 4)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ShapeError, match="channels"):
            conv2d(Tensor(_data((1, 3, 4, 4))), Tensor(_data((2, 2, 3, 3))))

    def test_too_small_input_raises(self):
        with pytest.raises(ShapeError, match="output size"):
            conv2d(Tensor(_data((1, 1, 2, 2))), Tensor(_data((1, 1, 3, 3))))

    def test_non_4d_raises(self):
        with pytest.raises(ShapeError, match="NCHW"):
            conv2d(Tensor(_data((3, 4))), Tensor(_data((1, 1, 2, 2))))


class TestConvGradients:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1), (1, 1)])
    def test_gradcheck(self, stride, padding):
        gradcheck(
            lambda x, w, b: conv2d(x, w, b, stride=stride, padding=padding),
            [_data((2, 2, 5, 5)), _data((3, 2, 3, 3), 1), _data((3,), 2)],
        )

    def test_gradcheck_no_bias(self):
        gradcheck(
            lambda x, w: conv2d(x, w, padding=1),
            [_data((1, 2, 4, 4)), _data((2, 2, 3, 3), 1)],
        )



class TestPatchMatrix:
    """The channels-last col2im sums exactly what the window scatter it
    replaces sums, in the same order, and returns the same layout."""

    CASES = [
        # (x shape, kernel, stride, padding)
        ((2, 3, 7, 6), (3, 3), (1, 1), (1, 1)),
        ((3, 4, 8, 9), (3, 2), (2, 1), (0, 1)),
        ((1, 5, 6, 6), (1, 1), (1, 1), (0, 0)),
        ((2, 2, 11, 10), (5, 5), (2, 2), (2, 2)),
        ((2, 4, 6, 6), (3, 3), (3, 3), (0, 0)),
    ]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape,kernel,stride,padding", CASES)
    def test_col2im_matches_window_scatter(self, shape, kernel, stride, padding, dtype):
        from repro.autograd.ops_conv import _col2im, _out_size, _scatter_windows

        n, c, h, w = shape
        (kh, kw), (sh, sw), (ph, pw) = kernel, stride, padding
        oh, ow = _out_size(h, kh, sh, ph), _out_size(w, kw, sw, pw)
        grad_cols = _data((n * oh * ow, c * kh * kw), 3).astype(dtype)
        windows = grad_cols.reshape(n, oh, ow, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
        expected = _scatter_windows(
            np.ascontiguousarray(windows), shape, kh, kw, sh, sw, ph, pw
        )
        grad_x = _col2im(grad_cols, shape, kh, kw, sh, sw, ph, pw, oh, ow)
        assert grad_x.shape == expected.shape
        assert grad_x.strides == expected.strides
        assert grad_x.tobytes() == expected.tobytes()

class TestPooling:
    def test_max_pool_forward(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = max_pool2d(Tensor(x), 2)
        assert out.data.reshape(-1).tolist() == [5.0, 7.0, 13.0, 15.0]

    def test_max_pool_stride_one_overlap(self):
        x = _data((1, 2, 4, 4))
        out = max_pool2d(Tensor(x), 2, stride=1)
        assert out.shape == (1, 2, 3, 3)

    def test_avg_pool_forward(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = avg_pool2d(Tensor(x), 2)
        assert out.data.reshape(-1).tolist() == [2.5, 4.5, 10.5, 12.5]

    def test_max_pool_gradient_routes_to_max(self):
        x = Tensor(
            np.array([[[[1.0, 2.0], [3.0, 4.0]]]], dtype=np.float32),
            requires_grad=True,
        )
        max_pool2d(x, 2).sum().backward()
        assert x.grad.reshape(-1).tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_max_pool_gradcheck(self):
        values = _data((2, 2, 4, 4))
        # Perturb away from ties so argmax is stable under eps.
        values += np.linspace(0, 0.01, values.size).reshape(values.shape)
        gradcheck(lambda t: max_pool2d(t, 2), [values])

    def test_max_pool_overlapping_gradcheck(self):
        values = _data((1, 1, 4, 4))
        values += np.linspace(0, 0.01, values.size).reshape(values.shape)
        gradcheck(lambda t: max_pool2d(t, 3, stride=1), [values])

    @pytest.mark.parametrize("stride,padding", [(None, 0), (1, 1), (2, 1)])
    def test_avg_pool_gradcheck(self, stride, padding):
        gradcheck(
            lambda t: avg_pool2d(t, 2, stride=stride, padding=padding),
            [_data((1, 2, 4, 4))],
        )

    def test_pool_non_4d_raises(self):
        with pytest.raises(ShapeError):
            max_pool2d(Tensor(_data((4, 4))), 2)
