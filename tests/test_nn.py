import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roer import nn
from roer.nn import AdamState, NetworkSpec, ParameterSet, ScalarAdam, ShapeError


def rel_err(a, b):
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    return np.max(np.abs(a - b) / np.maximum(1e-6, np.abs(a) + np.abs(b)))


def flat_params(params):
    return [arr for _, arr in params.arrays()]


def fd_param_grads(loss_fn, params, h=1e-5):
    """Central finite differences of a scalar loss over every parameter."""
    grads = params.zeros_like()
    for target, store in zip(flat_params(params), flat_params(grads)):
        it = np.nditer(target, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = target[idx]
            target[idx] = orig + h
            up = loss_fn()
            target[idx] = orig - h
            down = loss_fn()
            target[idx] = orig
            store[idx] = (up - down) / (2.0 * h)
    return grads


class TestInit:
    def test_deterministic(self):
        spec = NetworkSpec(3, (4,), 2)
        assert nn.init(spec, 42) == nn.init(spec, 42)

    def test_shapes(self):
        p = nn.init(NetworkSpec(3, (4,), 2), 0)
        assert p.weights[0].shape == (4, 3)
        assert p.weights[1].shape == (2, 4)
        assert p.biases[0].shape == (4,)
        assert p.biases[1].shape == (2,)

    def test_seeds_differ(self):
        spec = NetworkSpec(3, (4,), 2)
        assert not (nn.init(spec, 0) == nn.init(spec, 1))

    def test_bad_spec(self):
        with pytest.raises(ShapeError):
            NetworkSpec(0, (4,), 2)


class TestForward:
    def test_zero_params_zero_output(self):
        p = nn.init(NetworkSpec(3, (4,), 2), 0)
        for w in p.weights:
            w.fill(0.0)
        for b in p.biases:
            b.fill(0.0)
        out, _ = nn.forward_cache(p, np.random.default_rng(0).normal(size=(5, 3)))
        assert np.all(out == 0.0)

    def test_identity_single_layer(self):
        p = ParameterSet([np.eye(3)], [np.zeros(3)])
        x = np.random.default_rng(1).normal(size=(4, 3))
        assert np.allclose(nn.forward_cache(p, x)[0], x)

    def test_batch_equals_stacked_singles(self):
        p = nn.init(NetworkSpec(3, (8, 8), 2), 7)
        x = np.random.default_rng(2).normal(size=(6, 3))
        batched, _ = nn.forward_cache(p, x)
        singles = np.vstack([nn.forward_cache(p, x[i : i + 1])[0] for i in range(6)])
        assert np.allclose(batched, singles, atol=1e-14)

    def test_shape_mismatch(self):
        p = nn.init(NetworkSpec(3, (4,), 1), 0)
        with pytest.raises(ShapeError):
            nn.forward_cache(p, np.zeros((2, 5)))


class TestStackedRows:
    # SacAgent.update runs a network once over two stacked row blocks where
    # it does not move between two uses. That keeps the bytes only if each
    # row of a product rounds the same alone or stacked. With OpenBLAS it
    # does at the profile sizes checked here, but not at every size: batch
    # 16 or 50, three blocks of 256 rows, or an arbitrary subset of rows can
    # differ in the last bit.
    @settings(max_examples=24, deadline=None)
    @given(width=st.sampled_from([64, 256]), batch=st.sampled_from([64, 256]),
           input_dim=st.integers(1, 8), output_dim=st.sampled_from([1, 2]),
           seed=st.integers(0, 2**32 - 1))
    def test_two_stacked_blocks_match_separate_calls_bitwise(
            self, width, batch, input_dim, output_dim, seed):
        params = nn.init(NetworkSpec(input_dim, (width, width), output_dim), seed)
        rng = np.random.default_rng(seed)
        xs = [rng.normal(size=(batch, input_dim)) for _ in range(2)]
        y, (hidden, masks) = nn.forward_cache(params, np.concatenate(xs))
        for i, x in enumerate(xs):
            rows = slice(i * batch, (i + 1) * batch)
            y_i, (hidden_i, masks_i) = nn.forward_cache(params, x)
            assert y[rows].tobytes() == y_i.tobytes()
            assert len(masks) == len(masks_i) == params.n_layers - 1
            for a, b in zip(hidden + masks, hidden_i + masks_i):
                assert a[rows].tobytes() == b.tobytes()


class TestBackward:
    def test_linear_layer_outer_product(self):
        # loss = sum of outputs of a single linear layer: dL/dW = sum_i x_i
        p = ParameterSet([np.zeros((2, 3))], [np.zeros(2)])
        x = np.arange(12, dtype=float).reshape(4, 3)
        grads, gin = nn.backward(p, x, np.ones((4, 2)), nn.forward_cache(p, x)[1])
        assert np.allclose(grads.weights[0], np.tile(x.sum(axis=0), (2, 1)))
        assert np.allclose(grads.biases[0], [4.0, 4.0])
        assert np.allclose(gin, np.zeros((4, 3)))  # zero weights

    @pytest.mark.parametrize("arch", [(3, (), 2), (4, (8,), 1), (2, (8, 6), 3)])
    @pytest.mark.parametrize("seed", range(20))
    def test_param_gradients_match_finite_differences(self, arch, seed):
        spec = NetworkSpec(*arch)
        params = nn.init(spec, seed)
        rng = np.random.default_rng(seed + 100)
        x = rng.normal(size=(5, spec.input_dim))
        gout = rng.normal(size=(5, spec.output_dim))

        def loss():
            return float(np.sum(nn.forward_cache(params, x)[0] * gout))

        analytic, _ = nn.backward(params, x, gout, nn.forward_cache(params, x)[1])
        fd = fd_param_grads(loss, params)
        for a, f in zip(flat_params(analytic), flat_params(fd)):
            assert rel_err(a, f) <= 1e-4

    def test_input_gradients_match_finite_differences(self):
        spec = NetworkSpec(3, (8, 8), 2)
        params = nn.init(spec, 5)
        rng = np.random.default_rng(55)
        x = rng.normal(size=(4, 3))
        gout = rng.normal(size=(4, 2))
        _, gin = nn.backward(params, x, gout, nn.forward_cache(params, x)[1])
        h = 1e-5
        fd = np.zeros_like(x)
        for i in range(x.shape[0]):
            for j in range(x.shape[1]):
                orig = x[i, j]
                x[i, j] = orig + h
                up = float(np.sum(nn.forward_cache(params, x)[0] * gout))
                x[i, j] = orig - h
                down = float(np.sum(nn.forward_cache(params, x)[0] * gout))
                x[i, j] = orig
                fd[i, j] = (up - down) / (2.0 * h)
        assert rel_err(gin, fd) <= 1e-4

    def test_input_gradient_helper_consistent(self):
        spec = NetworkSpec(4, (8,), 1)
        params = nn.init(spec, 3)
        x = np.random.default_rng(6).normal(size=(5, 4))
        _, cache = nn.forward_cache(params, x)
        _, gin = nn.backward(params, x, np.ones((5, 1)), cache)
        assert np.allclose(nn.input_gradient(params, x, cache)[0], gin, atol=1e-15)

    def test_input_gradient_param_backward_matches_fd(self):
        spec = NetworkSpec(3, (6, 5), 1)
        params = nn.init(spec, 11)
        rng = np.random.default_rng(12)
        x = rng.normal(size=(4, 3))
        cot = rng.normal(size=(4, 3))

        def scalar():
            g, _ = nn.input_gradient(params, x, nn.forward_cache(params, x)[1])
            return float(np.sum(g * cot))

        _, cache = nn.forward_cache(params, x)
        _, chain = nn.input_gradient(params, x, cache)
        analytic = nn.input_gradient_param_backward(params, x, cot, cache, chain)
        fd = fd_param_grads(scalar, params)
        for a, f in zip(analytic.weights, fd.weights):
            assert rel_err(a, f) <= 1e-4
        # bias entries move only activations; exact derivative is 0 a.e.
        for f in fd.biases:
            assert np.max(np.abs(f)) <= 1e-6


class TestAdam:
    def test_zero_gradient_no_change(self):
        params = nn.init(NetworkSpec(2, (3,), 1), 0)
        before = params.copy()
        AdamState(params).step(params, params.zeros_like())
        assert params == before

    def test_single_step_closed_form(self):
        # one bias-corrected step with constant gradient g moves each entry
        # by lr * g / (|g| + eps)
        params = ParameterSet([np.zeros((1, 1))], [np.zeros(1)])
        grads = ParameterSet([np.full((1, 1), 2.5)], [np.full(1, -0.3)])
        lr = 1e-3
        state = AdamState(params, learning_rate=lr, eps=1e-8)
        state.step(params, grads)
        assert params.weights[0][0, 0] == pytest.approx(-lr, rel=1e-6)
        assert params.biases[0][0] == pytest.approx(lr, rel=1e-6)

    def test_determinism(self):
        def run():
            params = nn.init(NetworkSpec(3, (4,), 1), 9)
            state = AdamState(params, learning_rate=1e-2)
            rng = np.random.default_rng(10)
            x = rng.normal(size=(8, 3))
            for _ in range(50):
                y, cache = nn.forward_cache(params, x)
                grads, _ = nn.backward(params, x, 2.0 * y / len(y), cache)
                state.step(params, grads)
            return params

        assert run() == run()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_raises_before_any_change(self, bad):
        params = nn.init(NetworkSpec(2, (3,), 1), 0)
        state = AdamState(params)
        grads = params.copy()
        state.step(params, grads)  # nonzero moments
        before = [p.copy() for p in (params, state.m, state.v)]
        grads.weights[0][0, 0] = bad
        with pytest.raises(FloatingPointError):
            state.step(params, grads)
        assert [p.flat.tobytes() for p in (params, state.m, state.v)] == \
            [p.flat.tobytes() for p in before]
        assert state.step_count == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_scalar_nonfinite_raises_before_any_change(self, bad):
        opt = ScalarAdam(learning_rate=1e-2)
        opt.step(0.0, 4.0)
        before = (opt.m, opt.v, opt.step_count)
        with pytest.raises(FloatingPointError):
            opt.step(0.5, bad)
        assert (opt.m, opt.v, opt.step_count) == before

    def test_scalar_adam_matches_direction(self):
        opt = ScalarAdam(learning_rate=1e-2)
        v = opt.step(0.0, 4.0)
        assert v == pytest.approx(-1e-2, rel=1e-6)


class TestPolyak:
    def test_tau_one_copies(self):
        online = nn.init(NetworkSpec(2, (3,), 1), 1)
        target = nn.init(NetworkSpec(2, (3,), 1), 2)
        nn.polyak(target, online, 1.0)
        assert target == online

    def test_halfway(self):
        online = ParameterSet([np.full((1, 1), 2.0)], [np.full(1, 2.0)])
        target = ParameterSet([np.zeros((1, 1))], [np.zeros(1)])
        nn.polyak(target, online, 0.5)
        assert target.weights[0][0, 0] == 1.0

    def test_geometric_convergence(self):
        online = nn.init(NetworkSpec(2, (3,), 1), 1)
        target = nn.init(NetworkSpec(2, (3,), 1), 2)
        for _ in range(2000):
            nn.polyak(target, online, 0.01)
        for t, o in zip(target.weights, online.weights):
            assert np.allclose(t, o, atol=1e-6)

    def test_bad_tau(self):
        p = nn.init(NetworkSpec(2, (3,), 1), 0)
        with pytest.raises(ValueError):
            nn.polyak(p.copy(), p, 0.0)


class TestCheckpoint:
    def test_round_trip(self):
        params = nn.init(NetworkSpec(3, (4,), 2), 0)
        arrays = {f"critic.{k}": v for k, v in params.arrays()}
        arrays["step"] = np.array([123], dtype=np.int64)
        stream = io.BytesIO()
        nn.save_checkpoint(stream, arrays)
        stream.seek(0)
        loaded = nn.load_checkpoint(stream)
        assert set(loaded) == set(arrays)
        for k in arrays:
            assert np.array_equal(loaded[k], arrays[k])


# ----------------------------------------------------------------------
# flat parameter storage and the shared input-gradient chain, against
# per-layer references

@st.composite
def networks(draw, scalar_output=False):
    """(params, x) for a random MLP with 0-2 hidden layers (a 1-layer net
    has none), weights scaled so ReLUs and penalty hinges switch both ways."""
    spec = NetworkSpec(draw(st.integers(1, 5)),
                       tuple(draw(st.lists(st.integers(1, 6), max_size=2))),
                       1 if scalar_output else draw(st.integers(1, 3)))
    seed = draw(st.integers(0, 2**32 - 1))
    params = nn.init(spec, seed)
    params.flat *= draw(st.sampled_from([0.5, 1.0, 4.0]))
    x = np.random.default_rng(seed).normal(size=(draw(st.integers(1, 7)),
                                                 spec.input_dim))
    return params, x


def adam_reference(state, params, grads):
    """Per-layer Adam step: the loop the flat step replaces."""
    state.step_count += 1
    c1 = 1.0 - state.beta1**state.step_count
    c2 = 1.0 - state.beta2**state.step_count
    for p, g, m, v in zip(flat_params(params), flat_params(grads),
                          flat_params(state.m), flat_params(state.v)):
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p -= state.learning_rate * (m / c1) / (np.sqrt(v / c2) + state.eps)


def forward_reference(params, x):
    """The forward pass that keeps each pre-activation h @ W.T + b: returns
    (output, hidden inputs of each layer, pre-activations)."""
    hidden, pre = [x], []
    for l in range(params.n_layers):
        pre.append(hidden[-1] @ params.weights[l].T + params.biases[l])
        hidden.append(np.maximum(pre[-1], 0.0))
    return pre[-1], hidden[:-1], pre


def backward_reference(params, x, gout):
    """backward() as a zeroed accumulator, with g @ W for every layer and
    each ReLU mask recomputed as pre > 0.0."""
    _, hidden, pre = forward_reference(params, x)
    grads = params.zeros_like()
    g = gout
    for l in range(params.n_layers - 1, -1, -1):
        grads.weights[l] += g.T @ hidden[l]
        grads.biases[l] += np.add.reduce(g, axis=0)
        g = g @ params.weights[l]
        if l > 0:
            g = g * (pre[l - 1] > 0.0)
    return grads, g


def chain_reference(params, x):
    """The input-gradient chain from np.ones((n, 1)) @ W and pre > 0.0."""
    _, _, pre = forward_reference(params, x)
    L = params.n_layers
    g = np.ones((x.shape[0], 1))
    chain = [g] * (L + 1)
    for l in range(L - 1, -1, -1):
        g = g @ params.weights[l]
        if l > 0:
            g = g * (pre[l - 1] > 0.0)
        chain[l] = g
    return chain


def param_backward_reference(params, x, cot):
    """Tangent pass, then its own u = (u @ W) * mask chain per layer."""
    _, _, pre = forward_reference(params, x)
    L = params.n_layers
    masks = [p > 0.0 for p in pre[:-1]]
    tangents = [cot]
    for l in range(L - 1):
        tangents.append((tangents[-1] @ params.weights[l].T) * masks[l])
    grads = params.zeros_like()
    u = np.ones((x.shape[0], 1))
    for l in range(L - 1, -1, -1):
        grads.weights[l] += u.T @ tangents[l]
        if l > 0:
            u = (u @ params.weights[l]) * masks[l - 1]
    return grads


def same_bytes(a, b):
    """Equal bytes in the flat vectors and in every per-layer view."""
    return all(x.tobytes() == y.tobytes()
               for x, y in zip([a.flat, *flat_params(a)], [b.flat, *flat_params(b)]))


def shares_flat(params):
    return all(np.shares_memory(a, params.flat) for a in flat_params(params))


class TestFlatParameters:
    @settings(max_examples=60, deadline=None)
    @given(net=networks(), data=st.data())
    def test_adam_equals_per_layer_loop(self, net, data):
        params, _ = net
        ref_params = params.copy()
        state, ref = AdamState(params, 1e-2), AdamState(ref_params, 1e-2)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        for _ in range(data.draw(st.integers(1, 4))):
            grads = params.zeros_like()
            grads.flat[:] = rng.normal(size=grads.flat.size)
            if data.draw(st.booleans()):
                grads.flat[rng.integers(grads.flat.size)] = data.draw(
                    st.sampled_from([np.nan, np.inf, -np.inf]))
            if np.isfinite(grads.flat).all():
                state.step(params, grads)
                adam_reference(ref, ref_params, grads)
            else:  # raises before it changes anything
                with pytest.raises(FloatingPointError):
                    state.step(params, grads)
            assert same_bytes(params, ref_params)
            assert same_bytes(state.m, ref.m) and same_bytes(state.v, ref.v)
            assert state.step_count == ref.step_count

    @settings(max_examples=60, deadline=None)
    @given(net=networks(), tau=st.floats(1e-3, 1.0))
    def test_polyak_equals_per_layer_loop(self, net, tau):
        online, _ = net
        target = online.zeros_like()
        target.flat[:] = np.random.default_rng(1).normal(size=target.flat.size)
        ref = target.copy()
        nn.polyak(target, online, tau)
        for t, o in zip(flat_params(ref), flat_params(online)):
            t *= 1.0 - tau
            t += tau * o
        assert same_bytes(target, ref)

    @settings(max_examples=30, deadline=None)
    @given(net=networks())
    def test_layers_are_views_of_flat(self, net):
        params, _ = net
        for p in (params, params.copy(), params.zeros_like(),
                  ParameterSet(params.weights, params.biases)):
            assert shares_flat(p)
            assert p.flat.dtype == np.float64 and p.flat.flags.c_contiguous
            assert p.flat.size == sum(a.size for a in flat_params(p))
        assert not np.shares_memory(params.copy().flat, params.flat)

    def test_polyak_shape_mismatch(self):
        a = ParameterSet([np.zeros((2, 3))], [np.zeros(2)])
        b = ParameterSet([np.zeros((3, 2))], [np.zeros(3)])
        with pytest.raises(ShapeError):
            nn.polyak(a, b, 0.5)
        assert not a == b


class TestInputGradientChain:
    @settings(max_examples=60, deadline=None)
    @given(net=networks(scalar_output=True), data=st.data())
    def test_passed_chain_equals_reference(self, net, data):
        params, x = net
        _, cache = nn.forward_cache(params, x)
        _, chain = nn.input_gradient(params, x, cache)
        cot = np.random.default_rng(data.draw(st.integers(0, 99))).normal(size=x.shape)
        with_chain = nn.input_gradient_param_backward(params, x, cot, cache, chain)
        assert same_bytes(with_chain, param_backward_reference(params, x, cot))


# ----------------------------------------------------------------------
# the passes as run (masks kept from the forward pass, k = 1 products as
# broadcasts), against references that recompute pre > 0.0 and form every
# product with @. Unlike stacking, these must hold at every shape.

@st.composite
def sized_networks(draw):
    """(params, x) at the widths, batches and output dims the agents run
    and a few odd ones, with 0-2 hidden layers."""
    width = draw(st.sampled_from([1, 7, 64, 256]))
    spec = NetworkSpec(draw(st.integers(1, 8)), (width,) * draw(st.integers(0, 2)),
                       draw(st.sampled_from([1, 2])))
    seed = draw(st.integers(0, 2**32 - 1))
    params = nn.init(spec, seed)
    params.flat *= draw(st.sampled_from([0.5, 1.0, 4.0]))
    x = np.random.default_rng(seed).normal(
        size=(draw(st.sampled_from([1, 16, 50, 64, 256])), spec.input_dim))
    return params, x


def up_to_zero_sign(a):
    """The bytes of 0.0 + a: a with each -0.0 read as +0.0.

    Two forms differ from their references only in the sign of a zero:
    backward() writes each gradient once, where the zeroed accumulator's
    0.0 + -0.0 gave +0.0, and a one-column g times W as a broadcast keeps
    the -0.0 of a zero product, where BLAS adds it to a +0.0. Every other
    bit agrees, and Adam cannot tell the two zeros apart
    (test_adam_is_blind_to_the_sign_of_zero_gradients)."""
    return (0.0 + a).tobytes()


class TestMaskedPasses:
    @settings(max_examples=60, deadline=None)
    @given(net=sized_networks())
    def test_forward_cache_keeps_the_reference_masks(self, net):
        params, x = net
        y, (hidden, masks) = nn.forward_cache(params, x)
        y_ref, hidden_ref, pre = forward_reference(params, x)
        assert y.tobytes() == y_ref.tobytes()
        assert [h.tobytes() for h in hidden] == [h.tobytes() for h in hidden_ref]
        assert len(masks) == params.n_layers - 1
        for m, p in zip(masks, pre):
            assert m.dtype == bool and np.array_equal(m, p > 0.0)

    @settings(max_examples=60, deadline=None)
    @given(net=sized_networks(), data=st.data())
    def test_backward_equals_reference(self, net, data):
        params, x = net
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        gout = rng.normal(size=(x.shape[0], params.weights[-1].shape[0]))
        _, cache = nn.forward_cache(params, x)
        grads, gin = nn.backward(params, x, gout, cache)
        ref, gin_ref = backward_reference(params, x, gout)
        assert up_to_zero_sign(gin) == gin_ref.tobytes()
        assert up_to_zero_sign(grads.flat) == ref.flat.tobytes()
        assert shares_flat(grads)

    @settings(max_examples=60, deadline=None)
    @given(net=sized_networks(), data=st.data())
    def test_input_gradient_passes_equal_reference(self, net, data):
        params, x = net
        if params.weights[-1].shape[0] != 1:
            params = ParameterSet(params.weights[:-1] + [params.weights[-1][:1]],
                                  params.biases[:-1] + [params.biases[-1][:1]])
        _, cache = nn.forward_cache(params, x)
        g, chain = nn.input_gradient(params, x, cache)
        ref = chain_reference(params, x)
        assert [c.tobytes() for c in chain] == [c.tobytes() for c in ref]
        assert g.tobytes() == ref[0].tobytes()
        cot = np.random.default_rng(data.draw(st.integers(0, 99))).normal(size=x.shape)
        assert same_bytes(nn.input_gradient_param_backward(params, x, cot, cache, chain),
                          param_backward_reference(params, x, cot))

    @settings(max_examples=60, deadline=None)
    @given(net=networks(), data=st.data())
    def test_adam_is_blind_to_the_sign_of_zero_gradients(self, net, data):
        params, _ = net
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        twin = params.copy()
        state, twin_state = AdamState(params, 1e-2), AdamState(twin, 1e-2)
        for _ in range(data.draw(st.integers(1, 4))):
            grads = params.zeros_like()
            grads.flat[:] = rng.normal(size=grads.flat.size)
            grads.flat[rng.random(grads.flat.size) < 0.5] = 0.0
            negated = grads.copy()
            negated.flat[negated.flat == 0.0] = -0.0
            state.step(params, grads)
            twin_state.step(twin, negated)
            assert same_bytes(params, twin)
            assert same_bytes(state.m, twin_state.m) and same_bytes(state.v, twin_state.v)
