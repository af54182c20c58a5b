"""Engine tests: every gradient claim is checked against an independent oracle
(triple-loop matmul, central finite differences) rather than the engine's own
output."""

import numpy as np
import pytest

from civsf.errors import NumericError, ShapeError
from civsf.numerics import RngStream, Tensor, nn, optim
from civsf.numerics.gradcheck import grad_check
from civsf.numerics.tensor import (
    collect_grads,
    log_softmax,
    no_grad,
    pad2d,
    put,
    softmax,
)


def central_diff(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Independent numeric gradient of scalar f at x, coordinate by coordinate."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + eps
        hi = f()
        flat[i] = saved - eps
        lo = f()
        flat[i] = saved
        gf[i] = (hi - lo) / (2 * eps)
    return g


# -- forward oracles -------------------------------------------------------------


def test_matmul_matches_triple_loop():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    out = (Tensor(a) @ Tensor(b)).data
    want = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            for k in range(4):
                want[i, j] += a[i, k] * b[k, j]
    assert np.allclose(out, want, atol=1e-6)


def test_batched_matmul_matches_loop():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(2, 3, 4))
    b = rng.normal(size=(2, 4, 5))
    out = (Tensor(a) @ Tensor(b)).data
    for n in range(2):
        want = np.zeros((3, 5))
        for i in range(3):
            for j in range(5):
                for k in range(4):
                    want[i, j] += a[n, i, k] * b[n, k, j]
        assert np.allclose(out[n], want, atol=1e-12)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(scale=5.0, size=(4, 7)))
    s = softmax(x, axis=-1).data
    assert np.allclose(s.sum(axis=-1), 1.0, atol=1e-6)
    assert np.all(s >= 0)


def test_log_softmax_matches_log_of_softmax():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(3, 5)))
    assert np.allclose(log_softmax(x, axis=-1).data,
                       np.log(softmax(x, axis=-1).data), atol=1e-12)


def test_pixel_shuffle_matches_manual_rearrange():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 8, 3, 3))  # r=2, 2 out channels
    out = nn.pixel_shuffle(Tensor(x), 2).data
    assert out.shape == (2, 2, 6, 6)
    # channel layout (r, r, k): subpixel row slowest, class index fastest
    for b in range(2):
        for c in range(2):
            for i in range(6):
                for j in range(6):
                    src_c = (i % 2) * 4 + (j % 2) * 2 + c
                    assert out[b, c, i, j] == x[b, src_c, i // 2, j // 2]


def test_upsample2x_repeats_pixels():
    x = Tensor(np.arange(4, dtype=np.float64).reshape(1, 1, 2, 2))
    out = nn.upsample2x(x).data
    want = np.repeat(np.repeat(x.data, 2, axis=2), 2, axis=3)
    assert np.array_equal(out, want)


def test_conv3x3_matches_direct_convolution():
    rng = np.random.default_rng(5)
    conv = nn.Conv3x3(2, 3, rng, dtype=np.float64)
    x = rng.normal(size=(1, 2, 5, 5))
    out = conv(Tensor(x)).data
    w = conv.w.data  # im2col layout: row index is ci*9 + di*3 + dj
    bias = conv.b.data
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    for co in range(3):
        for i in range(5):
            for j in range(5):
                acc = bias[co]
                for ci in range(2):
                    for di in range(3):
                        for dj in range(3):
                            acc += w[ci * 9 + di * 3 + dj, co] * xp[0, ci, i + di, j + dj]
                assert abs(out[0, co, i, j] - acc) < 1e-10


# -- backward oracles ------------------------------------------------------------


def test_sum_of_squares_gradient():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    (x * x).sum().backward()
    assert np.array_equal(x.grad, np.array([2.0, 4.0]))


def test_disconnected_parameter_grad_is_zero():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    unused = Tensor(np.array([5.0]), requires_grad=True)
    (x * 3.0).sum().backward()
    grads = collect_grads([("x", x), ("unused", unused)])
    assert np.array_equal(grads["unused"], np.zeros(1))


def test_linear_function_gradcheck_exact():
    rng = np.random.default_rng(6)
    w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    x = rng.normal(size=(2, 4))

    def loss():
        return (Tensor(x) @ w).sum()

    assert grad_check(loss, [("w", w)]) <= 1e-10


def test_tanh_chain_gradcheck():
    rng = np.random.default_rng(7)
    params = [(f"w{i}", Tensor(rng.normal(scale=0.5, size=(5, 5)), requires_grad=True))
              for i in range(3)]
    x = rng.normal(size=(2, 5))

    def loss():
        h = Tensor(x)
        for _, w in params:
            h = (h @ w).tanh()
        return (h * h).mean()

    assert grad_check(loss, params) <= 1e-6


def test_two_layer_net_matches_central_differences():
    rng = np.random.default_rng(8)
    w1 = Tensor(rng.normal(scale=0.5, size=(6, 4)), requires_grad=True)
    w2 = Tensor(rng.normal(scale=0.5, size=(4, 1)), requires_grad=True)
    x = rng.normal(size=(3, 6))
    y = rng.normal(size=(3, 1))

    def forward() -> Tensor:
        pred = (Tensor(x) @ w1).tanh() @ w2
        return ((pred - Tensor(y)) ** 2).mean()

    forward().backward()
    for p in (w1, w2):
        num = central_diff(lambda: forward().item(), p.data)
        denom = np.maximum(np.abs(num), 1e-8)
        assert np.max(np.abs(p.grad - num) / denom) <= 1e-4


@pytest.mark.parametrize("op", ["relu", "abs", "softmax", "layernorm", "mean_axis", "getitem",
                                "put", "pad2d", "pow"])
def test_elementwise_and_structural_ops_gradcheck(op):
    rng = np.random.default_rng(hash(op) % 2**32)
    # offsets keep relu/abs inputs away from their kinks
    base = rng.normal(size=(3, 4)) + np.where(rng.normal(size=(3, 4)) > 0, 0.6, -0.6)
    w = Tensor(base, requires_grad=True)

    def loss():
        t = w
        if op == "relu":
            out = t.relu()
        elif op == "abs":
            out = t.abs()
        elif op == "softmax":
            out = softmax(t, axis=-1) * Tensor(np.arange(4.0))
        elif op == "layernorm":
            ln = nn.LayerNorm(4, dtype=np.float64)
            out = ln(t) * Tensor(np.arange(4.0))
        elif op == "mean_axis":
            out = t.mean(axis=0, keepdims=True) * 3.0
        elif op == "getitem":
            out = t[1:, ::2] * 2.0
        elif op == "put":
            out = put(t, (np.arange(3)[:, None], np.array([[0, 2, 1, 3]] * 3)), (3, 5))
        elif op == "pad2d":
            out = pad2d(t.reshape(1, 1, 3, 4), 1) * 1.5
        else:
            out = (t * t + 0.5) ** 1.5
        return (out * out).mean()

    assert grad_check(loss, [("w", w)]) <= 1e-6


def test_broadcast_add_gradient_unbroadcasts():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    ((a + b) * 2.0).sum().backward()
    assert a.grad.shape == (2, 3)
    assert b.grad.shape == (3,)
    assert np.array_equal(b.grad, np.full(3, 4.0))  # summed over the broadcast axis


def test_attention_block_gradcheck():
    rng = np.random.default_rng(11)
    block = nn.TransformerBlock(8, 2, 2, rng, dtype=np.float64)
    x = rng.normal(size=(2, 3, 8))

    def loss():
        return (block(Tensor(x)) ** 2).mean()

    assert grad_check(loss, block.named_parameters()) <= 1e-5


def test_lstm_gradcheck():
    rng = np.random.default_rng(12)
    cell = nn.Lstm(3, 5, rng, dtype=np.float64)
    x = rng.normal(size=(2, 4, 3))

    def loss():
        return (cell(x) ** 2).mean()

    assert grad_check(loss, cell.named_parameters()) <= 1e-5


def test_conv_upsample_shuffle_gradcheck():
    rng = np.random.default_rng(13)
    conv = nn.Conv3x3(2, 4, rng, dtype=np.float64)
    x = rng.normal(size=(1, 2, 3, 3))

    def loss():
        h = conv(nn.upsample2x(Tensor(x)))
        return (nn.pixel_shuffle(h, 2) ** 2).mean()

    assert grad_check(loss, conv.named_parameters()) <= 1e-5


def test_grad_check_rejects_float32():
    w = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
    with pytest.raises(NumericError):
        grad_check(lambda: (w * w).sum(), [("w", w)])


def test_grad_check_rejects_nonfinite_loss():
    w = Tensor(np.array([1.0]), requires_grad=True)
    with pytest.raises(NumericError):
        grad_check(lambda: (w * np.inf).sum(), [("w", w)])


# -- attention causality ----------------------------------------------------------


def test_causal_attention_no_leakage_bitwise():
    rng = np.random.default_rng(14)
    block = nn.TransformerBlock(8, 2, 2, rng)
    x = rng.normal(size=(1, 5, 8)).astype(np.float32)
    keep = nn.causal_keep(5)
    base = block(Tensor(x), keep).data.copy()
    for j in range(1, 5):
        bumped = x.copy()
        bumped[0, j] += 3.0
        out = block(Tensor(bumped), keep).data
        assert np.array_equal(out[0, :j], base[0, :j]), f"leak from position {j}"
        assert not np.array_equal(out[0, j], base[0, j])


def test_full_attention_does_leak():
    # sanity for the test above: without the keep mask, early positions move
    rng = np.random.default_rng(15)
    block = nn.TransformerBlock(8, 2, 2, rng)
    x = rng.normal(size=(1, 5, 8)).astype(np.float32)
    base = block(Tensor(x)).data.copy()
    bumped = x.copy()
    bumped[0, 4] += 3.0
    assert not np.array_equal(block(Tensor(bumped)).data[0, 0], base[0, 0])


def test_lstm_is_unidirectional():
    rng = np.random.default_rng(16)
    cell = nn.Lstm(2, 4, rng)
    x = rng.normal(size=(1, 6, 2)).astype(np.float32)
    base = cell(x).data.copy()
    bumped = x.copy()
    bumped[0, 3] += 5.0
    out = cell(bumped).data
    assert np.array_equal(out[0, :3], base[0, :3])
    assert not np.array_equal(out[0, 3:], base[0, 3:])


def test_lstm_steps_truncates():
    rng = np.random.default_rng(17)
    cell = nn.Lstm(2, 4, rng)
    x = rng.normal(size=(1, 6, 2)).astype(np.float32)
    assert cell(x, steps=4).shape == (1, 4, 4)
    assert np.array_equal(cell(x, steps=4).data, cell(x).data[:, :4])


def test_lstm_forget_bias_is_one():
    rng = np.random.default_rng(18)
    cell = nn.Lstm(3, 5, rng)
    # gate order (input, forget, cell, output): forget block is rows 5..10
    assert np.all(cell.b.data[5:10] == 1.0)
    assert np.all(cell.b.data[:5] == 0.0)


def _sigmoid(a: Tensor) -> Tensor:
    out = np.where(a.data >= 0, 1.0 / (1.0 + np.exp(-np.abs(a.data))),
                   np.exp(-np.abs(a.data)) / (1.0 + np.exp(-np.abs(a.data))))
    out = out.astype(a.data.dtype, copy=False)
    return Tensor._make(out, (a,), lambda g: (g * out * (1.0 - out),))


def _stack_steps(hs: list[Tensor]) -> Tensor:
    return Tensor._make(np.stack([h.data for h in hs], axis=1), tuple(hs),
                        lambda g: tuple(np.moveaxis(g, 1, 0)))


def step_by_step_lstm(cell: nn.Lstm, x: np.ndarray, steps: int | None = None) -> Tensor:
    """Reference: the LSTM recurrence as one graph node per operation and day."""
    n, length, _ = x.shape
    hd = cell.d_hidden
    h = Tensor(np.zeros((n, hd), dtype=cell.dtype))
    c = Tensor(np.zeros((n, hd), dtype=cell.dtype))
    outputs = []
    for t in range(length if steps is None else min(steps, length)):
        xt = Tensor(np.ascontiguousarray(x[:, t], dtype=cell.dtype))
        z = xt @ cell.wx + h @ cell.wh + cell.b
        i = _sigmoid(z[:, 0 * hd:1 * hd])
        f = _sigmoid(z[:, 1 * hd:2 * hd])
        g = z[:, 2 * hd:3 * hd].tanh()
        o = _sigmoid(z[:, 3 * hd:4 * hd])
        c = f * c + i * g
        h = o * c.tanh()
        outputs.append(h)
    return _stack_steps(outputs)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [1, 7, 32])
def test_fused_lstm_matches_step_by_step_graph_bitwise(dtype, n):
    rng = np.random.default_rng(23)
    cell = nn.Lstm(6, 16, rng, dtype=dtype)
    x = rng.normal(size=(n, 365, 6))
    weights = rng.normal(size=(n, 365, 16)).astype(dtype)

    def run(lstm, steps, last_only):
        for _, p in cell.named_parameters():
            p.grad = None
        out = lstm(x, steps)
        w = weights[:, :out.shape[1]]
        if last_only:                   # the soil head reads the last state only
            loss = (out[:, -1] * Tensor(w[:, -1])).sum()
        else:
            loss = (out * Tensor(w)).sum()
        loss.backward()
        return [out.data.tobytes()] + [p.grad.tobytes() for _, p in cell.named_parameters()]

    for steps, last_only in ((None, False), (200, False), (None, True)):
        assert run(cell, steps, last_only) == run(
            lambda xs, k: step_by_step_lstm(cell, xs, k), steps, last_only), (steps, last_only)


# one-row slices at hidden 64 are left out: numpy sends a one-row matmul to
# BLAS gemv, whose sums over 64 terms differ in the last bits from gemm's
@pytest.mark.parametrize("hidden, rows", [(16, ((0, 1), (3, 7), (17, 33))),
                                          (64, ((3, 7), (17, 33)))])
def test_no_grad_lstm_states_are_row_and_prefix_invariant(hidden, rows):
    # fine-tuning runs each location's weather once and gathers the states
    # of its windows, which keeps the bits only while a row's states depend
    # on neither the rows run beside it nor the number of days run
    rng = np.random.default_rng(24)
    cell = nn.Lstm(6, hidden, rng)
    x = rng.normal(size=(40, 365, 6)).astype(np.float32)
    with no_grad():
        full = cell(x).data
        for lo, hi in rows:
            assert cell(x[lo:hi]).data.tobytes() == full[lo:hi].tobytes(), (lo, hi)
        assert cell(x, steps=200).data.tobytes() == full[:, :200].tobytes()


def test_grad_check_equals_graph_mode_loop():
    rng = np.random.default_rng(25)
    cell = nn.Lstm(3, 4, rng, dtype=np.float64)
    head = nn.Linear(4, 2, rng, dtype=np.float64)
    x = rng.normal(size=(2, 6, 3))
    params = cell.named_parameters("lstm") + head.named_parameters("head")

    def loss():
        return (head(cell(x)) ** 2).mean()

    got = grad_check(loss, params, max_coords_per_param=3, rng=np.random.default_rng(26))

    # the same central differences, each evaluation recording its graph
    for _, p in params:
        p.grad = None
    loss().backward()
    analytic = collect_grads(params)
    coords_rng = np.random.default_rng(26)
    eps = 1e-5
    want = 0.0
    for name, p in params:
        flat = p.data.reshape(-1)
        coords = np.arange(flat.size)
        if flat.size > 3:
            coords = coords_rng.choice(flat.size, size=3, replace=False)
        for i in coords:
            saved = flat[i]
            flat[i] = saved + eps
            hi = loss()
            flat[i] = saved - eps
            lo = loss()
            flat[i] = saved
            assert hi.requires_grad and lo.requires_grad
            numeric = (hi.item() - lo.item()) / (2.0 * eps)
            a = float(analytic[name].reshape(-1)[i])
            want = max(want, abs(a - numeric) / max(abs(a), abs(numeric), 1e-8))
    assert got == want


# -- optimizers -------------------------------------------------------------------


def test_none_grad_counts_as_zero():
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    opt = optim.Adam([("p", p)], lr=0.5)
    opt.step()  # grad None counts as zero, so Adam's update is exactly zero
    assert np.array_equal(p.data, np.array([1.0, 2.0]))


def test_adam_first_step_is_signed_lr():
    # bias-corrected first step: m̂=g, v̂=g², update = g/(|g|+eps) ≈ sign(g)
    p = Tensor(np.array([1.0, 1.0, 1.0]), requires_grad=True)
    opt = optim.Adam([("p", p)], lr=0.1)
    p.grad = np.array([0.5, -2.0, 3.0])
    opt.step()
    assert np.allclose(p.data, 1.0 - 0.1 * np.sign([0.5, -2.0, 3.0]), atol=1e-6)


def test_adam_matches_hand_rolled_two_steps():
    rng = np.random.default_rng(19)
    g1, g2 = rng.normal(size=3), rng.normal(size=3)
    p = Tensor(np.zeros(3), requires_grad=True)
    opt = optim.Adam([("p", p)], lr=0.01)
    p.grad = g1.copy()
    opt.step()
    p.grad = g2.copy()
    opt.step()

    # oracle in plain numpy
    b1, b2, eps = 0.9, 0.999, 1e-8
    m = v = np.zeros(3)
    x = np.zeros(3)
    for t, g in ((1, g1), (2, g2)):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        x = x - 0.01 * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
    assert np.allclose(p.data, x, atol=1e-12)


def test_adamw_decouples_weight_decay():
    p = Tensor(np.array([10.0]), requires_grad=True)
    opt = optim.adamw([("p", p)], lr=0.1, weight_decay=0.5)
    p.grad = np.array([0.0])
    opt.step()
    # zero gradient: the only movement is the decoupled decay lr*wd*p
    assert np.allclose(p.data, 10.0 - 0.1 * 0.5 * 10.0)


def test_nan_gradient_aborts_with_parameter_name():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = optim.Adam([("layer.w", p)], lr=0.1)
    p.grad = np.array([np.nan])
    with pytest.raises(NumericError, match="layer.w"):
        opt.step()


def test_optimizer_rejects_duplicate_names():
    p = Tensor(np.array([1.0]), requires_grad=True)
    with pytest.raises(ShapeError):
        optim.Adam([("p", p), ("p", p)], lr=0.1)


def test_adam_state_roundtrip_bitwise():
    rng = np.random.default_rng(20)
    p = Tensor(rng.normal(size=4).astype(np.float32), requires_grad=True)
    opt = optim.Adam([("p", p)], lr=0.01)
    for _ in range(3):
        p.grad = rng.normal(size=4).astype(np.float32)
        opt.step()
    st = {k: v.copy() for k, v in opt.state_arrays().items()}

    q = Tensor(p.data.copy(), requires_grad=True)
    opt2 = optim.Adam([("p", q)], lr=0.01)
    opt2.load_state(st)
    g = rng.normal(size=4).astype(np.float32)
    p.grad = g.copy()
    q.grad = g.copy()
    opt.step()
    opt2.step()
    assert np.array_equal(p.data, q.data)


def test_adam_load_state_rejects_mismatched_names():
    p = Tensor(np.ones(2), requires_grad=True)
    opt = optim.Adam([("p", p)], lr=0.1)
    with pytest.raises(ShapeError):
        opt.load_state({"t": np.array([1.0]), "m/other": np.zeros(2), "v/other": np.zeros(2)})


# -- determinism and plumbing ------------------------------------------------------


def test_training_trajectory_is_bitwise_deterministic():
    def run() -> np.ndarray:
        rng = RngStream(77).generator("init")
        lin = nn.Linear(4, 1, rng)
        opt = optim.Adam(lin.named_parameters(), lr=0.01)
        data_rng = RngStream(77).generator("data")
        x = data_rng.normal(size=(8, 4)).astype(np.float32)
        y = data_rng.normal(size=(8, 1)).astype(np.float32)
        for _ in range(5):
            opt.zero_grad()
            ((lin(Tensor(x)) - Tensor(y)) ** 2).mean().backward()
            opt.step()
        return lin.w.data.copy()

    assert np.array_equal(run(), run())


def test_rng_labels_are_independent_and_stable():
    s = RngStream(5)
    a1 = s.generator("alpha").normal(size=3)
    a2 = RngStream(5).generator("alpha").normal(size=3)
    b = RngStream(5).generator("beta").normal(size=3)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert RngStream(5).child_seed("x") != RngStream(6).child_seed("x")


def test_no_grad_blocks_graph_construction():
    w = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        out = (w * 2.0).sum()
    assert out.item() == 6.0
    with pytest.raises((RuntimeError, AttributeError, ValueError)):
        out.backward()
        if w.grad is None:  # backward may be a silent no-op on a detached graph
            raise ValueError("detached")


def test_linear_regression_converges():
    rng = RngStream(9).generator("init")
    lin = nn.Linear(3, 1, rng)
    true_w = np.array([[1.5], [-2.0], [0.5]], dtype=np.float32)
    data_rng = RngStream(9).generator("data")
    x = data_rng.normal(size=(64, 3)).astype(np.float32)
    y = x @ true_w
    opt = optim.Adam(lin.named_parameters(), lr=0.05)
    first = last = None
    for i in range(300):
        opt.zero_grad()
        loss = ((lin(Tensor(x)) - Tensor(y)) ** 2).mean()
        loss.backward()
        opt.step()
        if first is None:
            first = loss.item()
        last = loss.item()
    assert last < 0.01 * first
    assert np.allclose(lin.w.data, true_w, atol=0.05)


def test_module_state_roundtrip():
    rng = np.random.default_rng(21)
    block = nn.TransformerBlock(8, 2, 2, rng)
    state = {k: v.copy() for k, v in block.state_arrays().items()}
    for _, p in block.named_parameters():
        p.data = p.data + 1.0
    block.load_state(state)
    for name, arr in block.state_arrays().items():
        assert np.array_equal(arr, state[name]), name


def test_module_load_state_rejects_missing_keys():
    rng = np.random.default_rng(22)
    lin = nn.Linear(2, 2, rng)
    with pytest.raises(ShapeError):
        lin.load_state({"w": lin.w.data})  # bias missing
