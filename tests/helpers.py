"""Shared test utilities: independent loss recomputation, finite
differences, a one-run adaptation step and a run's digest."""

import hashlib
from types import SimpleNamespace

import numpy as np

from gala import Batch, LayerSpec, ModelParameters, Network, adapt_step


def single_step(network, params, batch, loss, opt, policy):
    """``adapt_step`` for one model and one policy: the run axis is added
    to ``params`` as views and dropped from every result."""
    stacked = ModelParameters([v[None] for v in params.layers], params.layer_names)
    res = adapt_step(network, stacked, batch, loss, opt, [policy])
    return SimpleNamespace(params=stacked.run(0), decision=res.decisions[0],
                           probs=res.probs[0], loss=res.losses[0])


def counted_kernels(network, count):
    """``network``'s per-layer kernels with each activation derivative
    wrapped to call ``count(i, a)`` whenever a backward pass visits layer i,
    a being the layer's output for the rows it carries d loss through;
    identity layers, which have no derivative to apply, are counted too."""
    kernels = []
    for i, (dense, m, shape, act, dact) in enumerate(network._kernels):
        def counted(dx, a, i=i, dact=dact):
            count(i, a)
            if dact is not None:
                dact(dx, a)
        kernels.append((dense, m, shape, act, counted))
    return kernels


def record_digest(record) -> str:
    """Hash of everything a run observed, to compare runs bit for bit."""
    h = hashlib.sha256()
    for c in record.correct:
        h.update(np.asarray(c).tobytes())
    h.update(np.asarray(record.losses, dtype=np.float64).tobytes())
    for d in record.decisions:
        h.update(np.asarray(d.cosines, dtype=np.float64).tobytes())
        h.update(np.asarray(d.mask).tobytes())
    for v in record.final_params.layers:
        h.update(np.asarray(v).tobytes())
    return h.hexdigest()


def reference_loss(network, params, inputs, variant, labels=None, pl_labels=None, pl_weight=0.3):
    """Recompute a loss value from forward() probabilities only.

    Pseudo-label variants take frozen labels so finite differencing
    perturbs the probability path, matching the stop-gradient semantics
    of hard pseudo-labels.
    """
    p = network.forward(params, Batch(inputs))
    n = p.shape[0]
    idx = np.arange(n)
    if variant == "cross_entropy":
        return -np.mean(np.log(p[idx, labels]))
    if variant == "pseudo_label":
        y = pl_labels if pl_labels is not None else p.argmax(axis=1)
        return -np.mean(np.log(p[idx, y]))
    if variant == "shot_im":
        ent = -(p * np.log(p)).sum(axis=1).mean()
        pbar = p.mean(axis=0)
        div = -(pbar * np.log(pbar)).sum()
        y = pl_labels if pl_labels is not None else p.argmax(axis=1)
        pl = -np.mean(np.log(p[idx, y]))
        return ent - div + pl_weight * pl
    raise ValueError(variant)


def finite_difference_grads(network, params, batch, loss, step=1e-5):
    """Central differences on every parameter, with pseudo-labels frozen
    at the unperturbed point."""
    pl_labels = None
    if loss.variant in ("pseudo_label", "shot_im"):
        pl_labels = network.forward(params, Batch(batch.inputs)).argmax(axis=1)
    grads = []
    for vec in params.layers:
        g = np.zeros_like(vec)
        for k in range(vec.size):
            orig = vec[k]
            vec[k] = orig + step
            lp = reference_loss(
                network, params, batch.inputs, loss.variant,
                labels=batch.labels, pl_labels=pl_labels, pl_weight=loss.shot_pl_weight,
            )
            vec[k] = orig - step
            lm = reference_loss(
                network, params, batch.inputs, loss.variant,
                labels=batch.labels, pl_labels=pl_labels, pl_weight=loss.shot_pl_weight,
            )
            vec[k] = orig
            g[k] = (lp - lm) / (2.0 * step)
        grads.append(g)
    return grads


def gradient_relative_error(analytic, numeric):
    a = np.concatenate([g.ravel() for g in analytic])
    b = np.concatenate([g.ravel() for g in numeric])
    return np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)


def random_small_net(rng, max_params=2000, allow_relu=True):
    """A random net plus a compatible batch, sized for finite differencing.

    Rejects configurations where some relu pre-activation sits within
    1e-3 of its kink, so central differences stay in a smooth region.
    Randomizes frozen normalization statistics to exercise the
    single-sample path.
    """
    for _ in range(50):
        depth = int(rng.integers(2, 5))
        dims = [int(rng.integers(2, 13)) for _ in range(depth + 1)]
        specs = []
        for i in range(depth):
            acts = ["tanh", "identity"] + (["relu"] if allow_relu else [])
            kind = str(rng.choice(["dense", "dense", "normalization"]))
            act = str(rng.choice(acts)) if i < depth - 1 else "identity"
            if kind == "normalization":
                dims[i + 1] = dims[i]
            specs.append(LayerSpec(kind, dims[i], dims[i + 1], act))
        if specs[-1].kind != "dense":
            specs.append(LayerSpec("dense", dims[-1], int(rng.integers(2, 6))))
        net = Network(specs)
        params = net.init_params(int(rng.integers(0, 2**31)))
        if params.total_count > max_params:
            continue
        for i in list(net.norm_stats):
            d = net.specs[i].output_dim
            net.norm_stats[i] = (rng.normal(size=d), rng.uniform(0.5, 2.0, size=d))
        n = int(rng.integers(1, 9))
        batch = Batch(rng.normal(size=(n, net.input_dim)))
        if _min_relu_margin(net, params, batch) > 1e-3:
            return net, params, batch
    raise RuntimeError("could not draw a numerically safe random net")


def _min_relu_margin(net, params, batch):
    """Smallest |pre-activation| over all relu sites (inf if none)."""
    x = batch.inputs
    margin = np.inf
    for i, (spec, vec) in enumerate(zip(net.specs, params.layers)):
        if spec.kind == "dense":
            w = vec[: spec.output_dim * spec.input_dim].reshape(spec.output_dim, spec.input_dim)
            b = vec[spec.output_dim * spec.input_dim :]
            z = x @ w.T + b
        else:
            if x.shape[0] >= 2:
                mu, var = x.mean(axis=0), x.var(axis=0)
            else:
                mu, var = net.norm_stats[i]
            gamma = vec[: spec.output_dim]
            beta = vec[spec.output_dim :]
            z = gamma * (x - mu) / np.sqrt(var + 1e-5) + beta
        if spec.activation == "relu":
            margin = min(margin, np.abs(z).min())
        x = np.maximum(z, 0.0) if spec.activation == "relu" else (
            np.tanh(z) if spec.activation == "tanh" else z
        )
    return margin


def diverging_relu_net():
    """A relu net on which plain SGD with learning rate 1e305 overflows the
    second layer only: the first layer's outputs are scaled up by 1e3, so
    the second layer's weight gradient is large, and its weights scaled
    down by 1e-3, so the gradient reaching the first layer is small."""
    net = Network([LayerSpec("dense", 2, 4, "relu"), LayerSpec("dense", 4, 4, "relu"),
                   LayerSpec("dense", 4, 3)])
    params = net.init_params(3)
    params.layers[0] *= 1e3
    params.layers[1] *= 1e-3
    return net, params
