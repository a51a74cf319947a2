"""Central finite-difference gradient checking shared by the test modules."""

import numpy as np

STEP = 1e-5
TOL = 1e-4


def as_float64(params: dict) -> dict:
    """Float64 copies of an initializer's float32 weights: the trunk, the
    heads and the encoders compute in the dtype of their inputs, so these
    give a float64 run of the same code."""
    return {k: v.astype(np.float64) for k, v in params.items()}


def numeric_grad(f, x, step=STEP):
    """d f() / d x by central differences, mutating x in place entry by entry.

    ``f`` must recompute the scalar loss from the current contents of x.
    """
    g = np.zeros(x.shape, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = f()
        flat[i] = orig - step
        lo = f()
        flat[i] = orig
        gf[i] = (hi - lo) / (2.0 * step)
    return g


def rel_err(analytic, numeric):
    """max_i |a - n| / max(|a|, |n|, 1e-4)."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-4)
    return float(np.max(np.abs(a - n) / denom))


def check_grads(loss_fn, params, tol=TOL, step=STEP):
    """Compare analytic grads against numeric ones for every array in params.

    ``loss_fn()`` -> (scalar loss, {name: analytic grad}) computed from the
    current contents of the arrays in ``params``.
    """
    _, analytic = loss_fn()
    errs = {}
    for name, x in params.items():
        num = numeric_grad(lambda: loss_fn()[0], x, step=step)
        errs[name] = rel_err(analytic[name], num)
    worst = max(errs, key=errs.get)
    assert errs[worst] < tol, f"gradient mismatch for {worst}: rel err {errs[worst]:.3e}"
    return errs
