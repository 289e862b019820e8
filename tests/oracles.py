"""Independent routes that the tests check the library against: dense
matrix functions for the sine-mode phi products, single ETD1/ETD2 steps
on fields (the field route of the drivers' mode-space recursion), and
iteration-free and field-marching routes for the Schwarz drivers.  Not a
test module: pytest collects no tests here, the test modules import it."""
import numpy as np
from scipy.linalg import expm

from letd.matfunc import SpectralFactorization, phi_scalar
from letd.schwarz import initial_traces
from letd.steppers import StepWorkspace


def apply_phi(fact: SpectralFactorization, k: int, dt: float, v: np.ndarray) -> np.ndarray:
    """phi_k(dt A) v through the sine-mode factorization; v is a nodal field."""
    if dt < 0.0:
        raise ValueError(f"time increment must be nonnegative, got dt={dt}")
    v = np.asarray(v, dtype=float)
    w = fact.to_modes(v)
    w = w * phi_scalar(k, dt * fact.spectrum)
    return fact.from_modes(w)


def expm_dense(a: np.ndarray) -> np.ndarray:
    """Dense matrix exponential (scaling-and-squaring Pade), oracle route."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return expm(a)


def etd1_step(ws: StepWorkspace, u: np.ndarray, forcing_next: np.ndarray) -> np.ndarray:
    """One first-order step with the forcing frozen at t_{m+1}."""
    fa = ws.fact
    u_hat = fa.to_modes(np.asarray(u, dtype=float))
    f_hat = fa.to_modes(np.asarray(forcing_next, dtype=float))
    return fa.from_modes(ws.exp_kernel * u_hat + ws.phi1_kernel * f_hat)


def etd2_step(
    ws: StepWorkspace,
    u: np.ndarray,
    forcing_now: np.ndarray,
    forcing_next: np.ndarray,
) -> np.ndarray:
    """One second-order step with the forcing linear over the step."""
    fa = ws.fact
    u_hat = fa.to_modes(np.asarray(u, dtype=float))
    f0_hat = fa.to_modes(np.asarray(forcing_now, dtype=float))
    f1_hat = fa.to_modes(np.asarray(forcing_next, dtype=float))
    return fa.from_modes(
        ws.exp_kernel * u_hat
        + ws.phi1_kernel * f0_hat
        + ws.phi2_kernel * (f1_hat - f0_hat)
    )


def field_window_sweep(pieces, u_start, times, scheme, predict=False):
    """The waveform sweep on fields, with the protocol of
    `schwarz._window_sweep`: every sweep assembles each piece's forcing at
    every level against the given traces (at level 0 the pinned ones),
    transforms the stack, runs the diagonal recursion and transforms back;
    the owned traces are read from the physical trajectories.  The default
    initial traces repeat the pinned level 0 or, with `predict`, take
    level 1 from the physical first-order predictor E u + phi1 f(times[0])."""
    steps = len(times) - 1
    n_if = sum(len(p.outflow) for p in pieces)
    pinned = initial_traces(pieces, u_start, n_if)
    start = [np.repeat(p[None], steps + 1, axis=0) for p in pinned]
    if predict:
        predicted = [
            p.ws.fact.from_modes(p.ws.exp_kernel * p.ws.fact.to_modes(np.asarray(u, dtype=float))
                                 + p.ws.phi1_kernel
                                 * p.ws.fact.to_modes(p.forcing(times[0], pinned)))
            for p, u in zip(pieces, u_start)]
        for tr, value in zip(start, initial_traces(pieces, predicted, n_if)):
            tr[1] = value
    trajs = []

    def sweep(traces):
        trajs.clear()
        for piece, u0 in zip(pieces, u_start):
            fa = piece.ws.fact
            u0 = np.asarray(u0, dtype=float)
            f_stack = np.empty((steps + 1,) + u0.shape)
            for m, t in enumerate(times):  # level 0 of the traces is pinned data
                f_stack[m] = piece.forcing(t, [tr[m] for tr in traces] if m else pinned)
            f_hat = fa.to_modes(f_stack)
            out_hat = np.empty_like(f_hat)
            u_hat = fa.to_modes(u0)
            out_hat[0] = u_hat
            E, K1, K2 = piece.ws.exp_kernel, piece.ws.phi1_kernel, piece.ws.phi2_kernel
            for m in range(steps):
                if scheme == "etd1":
                    u_hat = E * u_hat + K1 * f_hat[m + 1]
                else:
                    u_hat = E * u_hat + K1 * f_hat[m] + K2 * (f_hat[m + 1] - f_hat[m])
                out_hat[m + 1] = u_hat
            traj = fa.from_modes(out_hat)
            traj[0] = u0
            trajs.append(traj)
        return initial_traces(pieces, trajs, len(traces))

    def fields(out):
        for o, traj in zip(out, trajs):
            o[1:] = traj[1:]

    return sweep, fields, start


def direct_window_traces(sweep, pinned, steps):
    """The fixed point of one window's sweep, without iterating.

    The sweep is affine in the unknown levels 1..steps of every interface
    trace, x = b + M x; b and the columns of M come from sweeping the
    history that holds the pinned level 0 and zeros, and unit histories.
    (I - M) x = b is solved densely.
    """
    sizes = [len(p) for p in pinned]
    n = steps * sum(sizes)

    def history(x):
        out, at = [], 0
        for p, size in zip(pinned, sizes):
            h = np.empty((steps + 1, size))
            h[0] = p
            h[1:] = x[at: at + steps * size].reshape(steps, size)
            out.append(h)
            at += steps * size
        return out

    def flat(traces):
        return np.concatenate([tr[1:].ravel() for tr in traces])

    b = flat(sweep(history(np.zeros(n))))
    m = np.empty((n, n))
    for k, unit in enumerate(np.eye(n)):
        m[:, k] = flat(sweep(history(unit))) - b
    return history(np.linalg.solve(np.eye(n) - m, b))


def direct_step(pieces, interfaces, states, t_now, dt, scheme):
    """One step of every piece from `states` at t_now, with the interface
    coupling solved exactly, in any dimension and layout: the one-step
    window of `field_window_sweep`, solved by `direct_window_traces`.
    The fully discrete multidomain solution over that step, which the
    per-step iteration converges to; returns the new states."""
    sweep, fields, _ = field_window_sweep(pieces, states, (t_now, t_now + dt), scheme)
    sweep(direct_window_traces(sweep, initial_traces(pieces, states, len(interfaces)), 1))
    out = [np.empty((2,) + np.shape(u)) for u in states]
    fields(out)
    return [o[1] for o in out]
