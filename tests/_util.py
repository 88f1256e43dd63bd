"""Shared random-instance builders for the test suite."""

import numpy as np


def same_bytes(x, y):
    """Equal dtype, shape and bytes: what "byte-identical" means for an array."""
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def rand_complex(rng, rows, cols):
    return (rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))) / np.sqrt(2.0)


def rand_unitary(rng, n):
    q, r = np.linalg.qr(rand_complex(rng, n, n))
    d = np.diag(r)
    return q * (d / np.abs(d))


def rand_psd(rng, n, rank=None):
    rank = n if rank is None else rank
    b = rand_complex(rng, n, rank)
    return b @ b.conj().T


def rand_pd(rng, n, spread=10.0):
    # eigenvalues kept in [1/spread, spread] so inverses stay tame
    q = rand_unitary(rng, n)
    w = rng.uniform(1.0 / spread, spread, size=n)
    return (q * w) @ q.conj().T


def rand_projector(rng, n, k):
    q = rand_unitary(rng, n)
    p = q[:, :k] @ q[:, :k].conj().T
    return (p + p.conj().T) / 2.0


def rand_fullrank(rng, n, smin=0.5, smax=3.0):
    # square matrix with singular values bounded away from zero
    u = rand_unitary(rng, n)
    v = rand_unitary(rng, n)
    s = rng.uniform(smin, smax, size=n)
    return (u * s) @ v.conj().T


def complementable_instance(rng, max_dim=12):
    """Random (T, PM, PN) with both corner systems solvable by construction.

    The lower-right corner is drawn first (possibly rank-deficient); the
    off-diagonal corners are forced into its column/row spaces, which is
    exactly the solvability condition, then everything is rotated into
    general position.
    """
    n = int(rng.integers(2, max_dim + 1))
    k = int(rng.integers(2, max_dim + 1))
    dim_m = int(rng.integers(1, n))
    dim_n = int(rng.integers(1, k))
    q = rand_unitary(rng, n)
    w = rand_unitary(rng, k)
    rows22, cols22 = k - dim_n, n - dim_m
    rank22 = int(rng.integers(1, min(rows22, cols22) + 1))
    t22 = rand_complex(rng, rows22, rank22) @ rand_complex(rng, rank22, cols22)
    t21 = t22 @ rand_complex(rng, cols22, dim_m)
    t12 = (t22.conj().T @ rand_complex(rng, rows22, dim_n)).conj().T
    t11 = rand_complex(rng, dim_n, dim_m)
    inner = np.block([[t11, t12], [t21, t22]])
    t = w @ inner @ q.conj().T
    pm = q[:, :dim_m] @ q[:, :dim_m].conj().T
    pn = w[:, :dim_n] @ w[:, :dim_n].conj().T
    return t, (pm + pm.conj().T) / 2.0, (pn + pn.conj().T) / 2.0


def record_linalg(monkeypatch, name, detail=dict):
    """Record every call of the ``numpy.linalg`` kernel ``name`` (``svd``,
    ``inv``, ``eigvalsh``, ...) as (copy of its input, detail).

    ``detail`` maps the call's arguments by name, defaults filled in, to what
    is kept beside the input; by default all of them.  Both bindings are
    patched: ``np.linalg.<name>`` catches direct calls and
    ``numpy.linalg._linalg.<name>`` numpy's own, such as the singular values
    behind ``np.linalg.norm(x, 2)``, i.e. behind every ``opnorm``.
    """
    import inspect

    import numpy.linalg._linalg as linalg_impl

    calls = []
    real = getattr(linalg_impl, name)
    signature = inspect.signature(real)

    def recording(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        operand = next(iter(bound.arguments.values()))
        calls.append((np.asarray(operand).copy(), detail(bound.arguments)))
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, recording)
    monkeypatch.setattr(linalg_impl, name, recording)
    return calls


def record_svd(monkeypatch):
    """Record every LAPACK SVD call as (input, compute_uv)."""
    return record_linalg(monkeypatch, "svd", lambda arguments: arguments["compute_uv"])
