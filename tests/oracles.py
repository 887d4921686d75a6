"""Independent reference implementations used to check the library.

Everything here is written from the objective definition alone, without
touching the closed-form code paths, so tests compare two genuinely
different routes to the same numbers.
"""

import itertools

import numpy as np

_GRID_CACHE = {}
_ENTROPY_CACHE = {}


def simplex_grid(k: int, resolution: int) -> np.ndarray:
    """All points of the k-simplex with coordinates that are multiples of 1/resolution.

    Enumerated by stars and bars; cached, since the k=5 grid at
    resolution 100 has 4.6M points.
    """
    key = (k, resolution)
    if key not in _GRID_CACHE:
        if k == 1:
            grid = np.full((1, 1), float(resolution))
        else:
            combos = itertools.combinations(range(resolution + k - 1), k - 1)
            flat = np.fromiter(itertools.chain.from_iterable(combos), dtype=np.int64)
            bars = flat.reshape(-1, k - 1)
            full = np.column_stack([
                np.full(bars.shape[0], -1, dtype=np.int64),
                bars,
                np.full(bars.shape[0], resolution + k - 1, dtype=np.int64),
            ])
            grid = (np.diff(full, axis=1) - 1.0)
        _GRID_CACHE[key] = grid / resolution
    return _GRID_CACHE[key]


def _grid_entropy_sums(k: int, resolution: int) -> np.ndarray:
    """sum_j w_j log w_j per grid point, with 0*log(0) = 0; cached."""
    key = (k, resolution)
    if key not in _ENTROPY_CACHE:
        grid = simplex_grid(k, resolution)
        with np.errstate(divide="ignore", invalid="ignore"):
            ent = np.where(grid > 0.0, grid * np.log(grid), 0.0).sum(axis=1)
        _ENTROPY_CACHE[key] = ent
    return _ENTROPY_CACHE[key]


def row_objective(w_row: np.ndarray, f_row: np.ndarray, r: np.ndarray,
                  lam: float, m: float) -> float:
    """Single-row objective with 0*log(0) = 0, straight from the definition."""
    total = 0.0
    for w, f, rj in zip(w_row, f_row, r):
        total += -w * np.log(max(f, 1e-12))
        if w > 0:
            total += w * np.log(w) / lam
        total += (m / lam) * w * np.log(rj)
    return total


def grid_min_objective(f_row: np.ndarray, cand: np.ndarray, r: np.ndarray,
                       lam: float, m: float, resolution: int) -> float:
    """Minimum objective over a dense simplex grid on the candidate coordinates.

    The linear part is one matvec over the grid; the entropy part is a
    cached per-grid-point constant scaled by 1/lam.
    """
    idx = np.flatnonzero(cand)
    grid = simplex_grid(idx.size, resolution)
    coeff = -np.log(np.maximum(f_row[idx], 1e-12)) + (m / lam) * np.log(r[idx])
    lin = grid @ coeff
    ent = _grid_entropy_sums(idx.size, resolution)
    return float((lin + ent / lam).min())


def random_feasible_rows(f_row: np.ndarray, cand: np.ndarray, rng, count: int) -> np.ndarray:
    """Random points of the candidate-restricted simplex."""
    idx = np.flatnonzero(cand)
    raw = rng.uniform(0.0, 1.0, size=(count, idx.size)) ** 2
    raw /= raw.sum(axis=1, keepdims=True)
    out = np.zeros((count, f_row.size))
    out[:, idx] = raw
    return out


def select_reliable_loop(w: np.ndarray, losses: np.ndarray, r: np.ndarray,
                         rho: float) -> np.ndarray:
    """Per-class small-loss selection, one class at a time.

    Each argmax bucket keeps its lowest-loss rows (ties toward the smaller
    index) up to min(bucket size, ceil(rho * r_k * batch)), with the
    ceiling guarded so exact-integer budgets do not round up.
    """
    batch = w.shape[0]
    labels = np.argmax(w, axis=1)
    kept = []
    for k in np.unique(labels):
        bucket = np.flatnonzero(labels == k)
        cap = int(np.ceil(rho * r[k] * batch * (1.0 - 1e-12)))
        quota = min(bucket.size, cap)
        if quota <= 0:
            continue
        order = np.lexsort((bucket, losses[bucket]))
        kept.append(bucket[order[:quota]])
    if not kept:
        return np.empty(0, dtype=np.int64)
    return np.sort(np.concatenate(kept)).astype(np.int64)


def solar_update_loop(f: np.ndarray, bits: np.ndarray, r: np.ndarray, lam: float,
                      max_iters: int, tol: float):
    """Sinkhorn scaling with three full exp passes per iteration.

    Each iteration takes a row logsumexp, materializes the row-scaled kernel
    to measure the column error from its column sums, and then takes a
    column logsumexp for the column scaling; exp runs over the -inf
    entries off the candidate sets. Returns (w, iterations used, relaxed,
    infeasible columns, column-error history).
    """
    def logsumexp(a, axis):
        amax = np.max(a, axis=axis, keepdims=True)
        amax = np.where(np.isfinite(amax), amax, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(np.exp(a - amax).sum(axis=axis)) + np.squeeze(amax, axis=axis)

    n = f.shape[0]
    log_k = np.where(bits > 0.0, lam * np.log(np.maximum(f, 1e-12)), -np.inf)
    col_target = n * r
    feasible_col = bits.sum(axis=0) > 0
    infeasible = tuple(int(j) for j in np.flatnonzero(~feasible_col))

    log_v = np.zeros(f.shape[1])
    history = []
    iterations = 0
    for _ in range(max_iters):
        iterations += 1
        log_u = -logsumexp(log_k + log_v[None, :], axis=1)
        scaled = np.exp(log_u[:, None] + log_k + log_v[None, :])
        col_err = float(np.abs(scaled.sum(axis=0) - col_target).max() / n)
        history.append(col_err)
        if col_err <= tol:
            break
        log_col = logsumexp(log_u[:, None] + log_k, axis=0)
        log_v = np.where(feasible_col, np.log(col_target) - log_col, log_v)

    z = log_k + log_v[None, :]
    z = z - z.max(axis=1, keepdims=True)
    out = np.exp(z)
    out /= out.sum(axis=1, keepdims=True)
    col_err = float(np.abs(out.sum(axis=0) - col_target).max() / max(n, 1))
    relaxed = bool(infeasible) or col_err > tol
    return out, iterations, relaxed, infeasible, np.asarray(history)
