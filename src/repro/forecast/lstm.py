"""LSTM-based forecaster — the paper's second model (Fig. 4).

Architecture reproduced from Section 5: one LSTM unit over a window of
the K=7 previous metric values, hidden/output dimensionality d=4, then a
d×1 fully-connected layer producing the forecast of M_t. The paper uses
Keras; this container has no deep-learning stack, so the cell, BPTT and
Adam are implemented here in numpy (same equations, same loss — MSE on
the standardized series; only the autodiff engine differs).

Training is full-batch over the (t₀ - K) sliding windows of the training
series; forecasting is iterative (each prediction is appended to the
window for the next step), matching eq. (2)'s usage. Forecast intervals
are a residual-quantile heuristic (Keras gives none either): ±z·σ̂·√h
with σ̂ the training-residual std — only used for interval-width *trend*
comparisons, never for the paper's ARIMA interval numbers.

The kernel is gate-major: the N windows run along the last axis, so each
gate block of a step is one contiguous (H, N) slab. A step is one matmul
W·u_t, W = [Wx | Wh | b], u_t = [x_t; h_{t-1}; 1]; after BPTT one matmul
dZ·Uᵀ gives gWx, gWh and gb. Every parameter is a view of one flat θ, so
Adam takes one vector step.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.forecast.optim import norm_ppf


def _sigmoid_(a: np.ndarray) -> None:
    """In place: a ← 1 / (1 + exp(-clip(a, -30, 30)))."""
    np.negative(a, out=a)
    np.clip(a, -30, 30, out=a)
    np.exp(a, out=a)
    a += 1.0
    np.reciprocal(a, out=a)


@dataclass
class LSTMForecaster:
    """Numpy LSTM(hidden) + Dense(1) forecaster over K-length windows."""

    window: int = 7
    hidden: int = 4
    lr: float = 0.02
    epochs: int = 300
    seed: int = 0

    def __post_init__(self) -> None:
        g = np.random.default_rng(self.seed)
        H = self.hidden
        s = 1.0 / np.sqrt(H + 1)
        # θ = [W | Wd | bd]; W = [Wx | Wh | b] is (4H, H+2), rows [input, forget, output, cell].
        self.theta = np.zeros(4 * H * (H + 2) + H + 1)
        self.W = self.theta[: 4 * H * (H + 2)].reshape(4 * H, H + 2)
        self.Wx, self.Wh, self.b = self.W[:, :1], self.W[:, 1 : H + 1], self.W[:, H + 1]
        self.Wd, self.bd = self.theta[-H - 1 : -1], self.theta[-1:]
        self.Wx[:] = g.normal(0, s, (4 * H, 1))
        self.Wh[:] = g.normal(0, s, (4 * H, H))
        self.b[H : 2 * H] = 1.0  # forget-gate bias init (standard practice)
        self.Wd[:] = g.normal(0, s, H)
        self._mu, self._sd, self._resid_std = 0.0, 1.0, 0.0
        self._train_tail: np.ndarray | None = None

    # ---------------------------------------------------------- forward
    def _work(self, X: np.ndarray) -> tuple[np.ndarray, ...]:
        """Buffers for windows X (N, K), reused every epoch: U (H+2, K+1, N) holds
        u_t in slot t and h_{K-1} in slot K; A (K, 4H, N) the gates; C (K+1, H, N)
        the cells, c_{-1} = 0; TC (K, H, N) tanh(c); dZ (4, H, K, N) each dz_t."""
        N, K = X.shape
        H = self.hidden
        U = np.zeros((H + 2, K + 1, N))
        U[0, :K] = X.T
        U[H + 1] = 1.0
        A, C, TC = np.empty((K, 4 * H, N)), np.zeros((K + 1, H, N)), np.empty((K, H, N))
        return U, A, C, TC, np.empty((4, H, K, N))

    def _forward(self, work: tuple[np.ndarray, ...]) -> np.ndarray:
        """Run the cell over every window of ``work``; returns pred (N,)."""
        U, A, C, TC, _ = work
        H = self.hidden
        for t in range(len(A)):
            a = A[t]
            np.matmul(self.W, U[:, t], out=a)
            _sigmoid_(a[: 3 * H])
            np.tanh(a[3 * H :], out=a[3 * H :])
            i, f, o, g = a.reshape(4, H, -1)
            np.multiply(f, C[t], out=C[t + 1])
            C[t + 1] += i * g
            np.tanh(C[t + 1], out=TC[t])
            np.multiply(o, TC[t], out=U[1 : H + 1, t + 1])
        return self.Wd @ U[1 : H + 1, -1] + self.bd

    def _grads(self, work: tuple[np.ndarray, ...], y: np.ndarray) -> np.ndarray:
        """Gradient over θ of the loss mean((pred - y)²)/2, by BPTT."""
        U, A, C, TC, dZ = work
        H, K = self.hidden, len(A)
        err = (self._forward(work) - y) / len(y)
        i, f, o, g = (A[:, k * H : (k + 1) * H] for k in range(4))
        # Every step's factors at once: dz = [dc·g·i', dc·c_{t-1}·f', dh·tanh(c_t)·o', dc·i·g'].
        Q = A * (1.0 - A)
        np.subtract(1.0, g * g, out=Q[:, 3 * H :])
        Q[:, :H] *= g
        Q[:, H : 2 * H] *= C[:K]
        Q[:, 2 * H : 3 * H] *= TC
        Q[:, 3 * H :] *= i
        P = o * (1.0 - TC * TC)  # dc_t += dh_t · P_t
        dh = np.multiply.outer(self.Wd, err)
        dc = np.zeros_like(dh)
        for t in range(K - 1, -1, -1):
            dc += dh * P[t]
            q, dz = Q[t].reshape(4, H, -1), dZ[:, :, t]
            np.multiply(dc, q[:2], out=dz[:2])
            np.multiply(dh, q[2], out=dz[2])
            np.multiply(dc, q[3], out=dz[3])
            if t:
                np.matmul(self.Wh.T, dz.reshape(4 * H, -1), out=dh)
                dc *= f[t]
        gW = dZ.reshape(4 * H, -1) @ U[:, :K].reshape(H + 2, -1).T
        return np.concatenate([gW.ravel(), U[1 : H + 1, K] @ err, [err.sum()]])

    # --------------------------------------------------------- training
    def fit(self, series: np.ndarray) -> "LSTMForecaster":
        """Train on a series (original units); returns self."""
        y_raw = np.asarray(series, dtype="float64")
        if len(y_raw) <= self.window + 2:
            raise ValueError(f"series of length {len(y_raw)} too short for window {self.window}")
        self._mu, self._sd = float(y_raw.mean()), float(y_raw.std())
        if self._sd <= 0:
            self._sd = 1.0
        z = (y_raw - self._mu) / self._sd
        K = self.window
        work = self._work(np.lib.stride_tricks.sliding_window_view(z, K)[: len(z) - K])
        y = z[K:]

        # Adam over the flat θ.
        m, v = np.zeros_like(self.theta), np.zeros_like(self.theta)
        b1, b2, eps = 0.9, 0.999, 1e-8
        for epoch in range(1, self.epochs + 1):
            grad = self._grads(work, y)
            m *= b1
            m += (1 - b1) * grad
            v *= b2
            v += (1 - b2) * grad**2
            self.theta -= self.lr * (m / (1 - b1**epoch)) / (np.sqrt(v / (1 - b2**epoch)) + eps)

        self._resid_std = float(np.std(self._forward(work) - y))
        self._train_tail = z[-K:].copy()
        return self

    # ------------------------------------------------------- forecasting
    def forecast(self, h: int, *, conf: float = 0.9) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Iterative h-step forecast: (point, lower, upper), original units."""
        if self._train_tail is None:
            raise RuntimeError("fit() must be called before forecast()")
        window = list(self._train_tail)
        out = np.empty(h)
        for step in range(h):
            X = np.asarray(window[-self.window:], dtype="float64")[None, :]
            out[step] = float(self._forward(self._work(X))[0])
            window.append(out[step])
        z = norm_ppf(0.5 + conf / 2)
        se = self._resid_std * np.sqrt(np.arange(1, h + 1))
        point = out * self._sd + self._mu
        return point, point - z * se * self._sd, point + z * se * self._sd
