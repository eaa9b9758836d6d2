"""IIR filtering (§4.2) — an intrinsically robust application.

Filtering an input ``u`` through the rational transfer function
``H(z) = (Σ a_i z^-i) / (Σ b_i z^-i)`` is conventionally implemented with the
feed-forward recursion

    x[t] = (1 / b₀) (Σ_i a_i u[t-i] − Σ_{i≥1} b_i x[t-i]),

which accrues noise in ``x`` as ``t`` grows when run on a stochastic
processor.  The variational form instead observes that the output must
satisfy ``B x = A u`` for the banded Toeplitz matrices built from the filter
coefficients (eqs. 4.1–4.2) and minimizes ``f(x) = ||Bx − Au||²`` by
stochastic gradient descent.  Both the residual and the gradient are
evaluated through banded (convolutional) noisy products, so each iteration's
corruption of the target term ``Au`` is independently resampled and averaged
away by the optimizer.

Following the paper, the noisy feed-forward output can be used as the initial
iterate for the stochastic solver.

Preconditioning (§3.2).  The banded system ``B`` inherits the filter's poles,
so filters with slowly decaying impulse responses give an ill-conditioned
least-squares problem on which plain gradient descent stalls.  As the paper
prescribes for ill-conditioned problems, we precondition: the transformation
step (reliable, offline — it only needs the filter coefficients, not the
data) builds a truncated impulse response ``f`` of ``1/B(z)`` and changes
variables to ``y`` with ``x = F y``; the runtime then minimizes
``||(BF) y − A u||²`` whose matrix ``BF ≈ I`` is almost perfectly
conditioned, with every gradient still evaluated on the noisy FPU.  The final
``x = F y`` read-out is reliable control work, like the QR preconditioner's
``recover`` step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import ProblemSpecificationError
from repro.faults.vectorized import quiet
from repro.metrics.quality import mean_squared_error, relative_error
from repro.optimizers.base import OptimizationResult
from repro.optimizers.problem import UnconstrainedProblem
from repro.optimizers.sgd import (
    SGDOptions,
    stochastic_gradient_descent,
    stochastic_gradient_descent_batch,
)
from repro.processor.batch import ProcessorBatch
from repro.processor.stochastic import StochasticProcessor

__all__ = [
    "IIRFilter",
    "IIRResult",
    "build_banded_matrices",
    "IIRVariationalProblem",
    "exact_iir_filter",
    "inverse_impulse_response",
    "precondition_iir",
    "robust_iir_filter",
    "robust_iir_filter_batch",
    "baseline_iir_filter",
    "baseline_iir_filter_batch",
    "default_iir_step",
]


@dataclass(frozen=True)
class IIRFilter:
    """An infinite impulse response filter ``H(z) = A(z) / B(z)``.

    Attributes
    ----------
    feedforward:
        Numerator coefficients ``a_0 .. a_n``.
    feedback:
        Denominator coefficients ``b_0 .. b_m`` with ``b_0 != 0``.
    """

    feedforward: np.ndarray
    feedback: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "feedforward", np.asarray(self.feedforward, dtype=np.float64).ravel()
        )
        object.__setattr__(
            self, "feedback", np.asarray(self.feedback, dtype=np.float64).ravel()
        )
        if self.feedforward.size == 0 or self.feedback.size == 0:
            raise ProblemSpecificationError("filter coefficient arrays must be non-empty")
        if self.feedback[0] == 0:
            raise ProblemSpecificationError("feedback coefficient b_0 must be non-zero")

    @property
    def order(self) -> int:
        """Filter order (max of numerator and denominator degree)."""
        return max(self.feedforward.size, self.feedback.size) - 1


@dataclass
class IIRResult:
    """Outcome of an IIR filtering run (robust or baseline).

    ``error_to_signal`` is the paper's Figure 6.3 metric:
    ``||y − y_exact|| / ||y_exact||`` against the exact output computed with
    reliable arithmetic; ``mse`` is the mean squared error.
    """

    y: np.ndarray
    error_to_signal: float
    mse: float
    flops: int
    faults_injected: int
    method: str
    optimizer_result: Optional[OptimizationResult] = None


def exact_iir_filter(filt: IIRFilter, u: np.ndarray) -> np.ndarray:
    """Reference output computed with reliable arithmetic (offline)."""
    u_arr = np.asarray(u, dtype=np.float64).ravel()
    a, b = filt.feedforward, filt.feedback
    y = np.zeros_like(u_arr)
    for t in range(u_arr.size):
        acc = 0.0
        for i in range(a.size):
            if t - i >= 0:
                acc += a[i] * u_arr[t - i]
        for i in range(1, b.size):
            if t - i >= 0:
                acc -= b[i] * y[t - i]
        y[t] = acc / b[0]
    return y


def build_banded_matrices(filt: IIRFilter, length: int) -> Tuple[np.ndarray, np.ndarray]:
    """Dense banded Toeplitz matrices ``A`` and ``B`` of eqs. (4.1)–(4.2).

    Row ``t`` of ``A`` holds ``a_i`` at column ``t - i``; likewise for ``B``.
    Intended for small signals (tests, examples); the variational problem
    itself uses convolutional products and never materializes these.
    """
    if length < 1:
        raise ProblemSpecificationError("signal length must be at least 1")
    A = np.zeros((length, length))
    B = np.zeros((length, length))
    for t in range(length):
        for i, coeff in enumerate(filt.feedforward):
            if t - i >= 0:
                A[t, t - i] = coeff
        for i, coeff in enumerate(filt.feedback):
            if t - i >= 0:
                B[t, t - i] = coeff
    return A, B


def _banded_matvec(
    coeffs: np.ndarray, signal: np.ndarray, proc: Optional[StochasticProcessor]
) -> np.ndarray:
    """``y[t] = Σ_i coeffs[i] · signal[t-i]`` via convolution.

    When a processor is supplied each output sample is corrupted with the
    effective probability of its ``2·len(coeffs) − 1`` constituent FLOPs.
    """
    result = np.convolve(signal, coeffs)[: signal.size]
    if proc is None:
        return result
    return proc.corrupt(result, ops_per_element=2 * coeffs.size - 1)


def _banded_rmatvec(
    coeffs: np.ndarray, residual: np.ndarray, proc: Optional[StochasticProcessor]
) -> np.ndarray:
    """Transpose product ``(Bᵀ r)[k] = Σ_j coeffs[j] · r[k+j]`` via correlation."""
    length = residual.size
    result = np.convolve(residual[::-1], coeffs)[:length][::-1]
    if proc is None:
        return result
    return proc.corrupt(result, ops_per_element=2 * coeffs.size - 1)


def _banded_matvec_batch(
    coeffs: np.ndarray, signals: np.ndarray, batch: ProcessorBatch
) -> np.ndarray:
    """Row-wise :func:`_banded_matvec` over a stacked ``(n_trials, n)`` signal.

    Each row's convolution is the exact serial ``np.convolve`` call (so the
    floats match bit for bit); only the corruption pass is fused across the
    stack.
    """
    n = signals.shape[1]
    stacked = np.stack([np.convolve(row, coeffs)[:n] for row in signals])
    return batch.corrupt(stacked, ops_per_element=2 * coeffs.size - 1)


def _banded_rmatvec_batch(
    coeffs: np.ndarray, residuals: np.ndarray, batch: ProcessorBatch
) -> np.ndarray:
    """Row-wise :func:`_banded_rmatvec` over stacked residuals."""
    n = residuals.shape[1]
    stacked = np.stack([np.convolve(row[::-1], coeffs)[:n][::-1] for row in residuals])
    return batch.corrupt(stacked, ops_per_element=2 * coeffs.size - 1)


class IIRVariationalProblem(UnconstrainedProblem):
    """The least-squares form ``min_x ||Bx − Au||²`` of IIR filtering."""

    def __init__(self, filt: IIRFilter, u: np.ndarray) -> None:
        self.filter = filt
        self.u = np.asarray(u, dtype=np.float64).ravel()
        if self.u.size == 0:
            raise ProblemSpecificationError("input signal must be non-empty")
        super().__init__(
            dimension=self.u.size,
            objective=self._value,
            gradient=self._gradient,
            name="iir",
            gradient_batch=self._gradient_batch,
        )

    def _residual(
        self, x: np.ndarray, proc: Optional[StochasticProcessor]
    ) -> np.ndarray:
        Bx = _banded_matvec(self.filter.feedback, x, proc)
        Au = _banded_matvec(self.filter.feedforward, self.u, proc)
        if proc is None:
            return Bx - Au
        return proc.corrupt(Bx - Au, ops_per_element=1)

    @quiet
    def _value(self, x: np.ndarray, proc: Optional[StochasticProcessor]) -> float:
        residual = self._residual(x, proc)
        if proc is None:
            return float(residual @ residual)
        from repro.linalg.ops import noisy_norm2_squared

        return noisy_norm2_squared(proc, residual)

    @quiet
    def _gradient(
        self, x: np.ndarray, proc: Optional[StochasticProcessor]
    ) -> np.ndarray:
        residual = self._residual(x, proc)
        grad = _banded_rmatvec(self.filter.feedback, residual, proc)
        if proc is None:
            return 2.0 * grad
        return proc.corrupt(2.0 * grad, ops_per_element=1)

    @quiet
    def _gradient_batch(self, X: np.ndarray, batch: ProcessorBatch) -> np.ndarray:
        # Same operation sequence as _gradient, fused across trial rows: the
        # target term Au is convolved once (it is exact arithmetic shared by
        # every trial) but corrupted per trial, exactly as the serial
        # _residual recomputes and corrupts it on every call.
        a, b = self.filter.feedforward, self.filter.feedback
        Bx = _banded_matvec_batch(b, X, batch)
        Au_exact = np.convolve(self.u, a)[: self.u.size]
        Au = batch.corrupt(
            np.broadcast_to(Au_exact, X.shape), ops_per_element=2 * a.size - 1
        )
        residuals = batch.corrupt(Bx - Au, ops_per_element=1)
        grads = _banded_rmatvec_batch(b, residuals, batch)
        return batch.corrupt(2.0 * grads, ops_per_element=1)


def inverse_impulse_response(filt: IIRFilter, taps: int = 64) -> np.ndarray:
    """Truncated impulse response ``f`` of ``1 / B(z)``.

    ``f`` satisfies ``b ⊛ f ≈ δ`` (exactly, up to the truncation tail), and is
    the change-of-variables matrix of the IIR preconditioner.  Computed with
    reliable arithmetic at transformation time — it depends only on the
    filter coefficients.
    """
    if taps < 1:
        raise ProblemSpecificationError("taps must be at least 1")
    b = filt.feedback
    f = np.zeros(taps)
    f[0] = 1.0 / b[0]
    for n in range(1, taps):
        acc = 0.0
        for i in range(1, min(b.size, n + 1)):
            acc += b[i] * f[n - i]
        f[n] = -acc / b[0]
    return f


def precondition_iir(
    filt: IIRFilter, taps: int = 64
) -> Tuple[np.ndarray, np.ndarray]:
    """Build the preconditioned coefficient set for the IIR least squares.

    Returns ``(f, e)`` where ``f`` is the truncated inverse impulse response
    (``x = F y``) and ``e = b ⊛ f`` the effective feedback coefficients of the
    preconditioned residual ``(BF) y − A u`` (``e ≈ δ``).
    """
    f = inverse_impulse_response(filt, taps=taps)
    e = np.convolve(filt.feedback, f)
    return f, e


def default_iir_step(filt: IIRFilter) -> float:
    """Stable base step for gradient descent on ``||Bx − Au||²``.

    The spectral norm of the banded Toeplitz matrix ``B`` is bounded by the
    l1 norm of the feedback coefficients; we use half the corresponding
    stability limit.
    """
    bound = float(np.sum(np.abs(filt.feedback)))
    if bound == 0:
        return 1.0
    return 0.5 / (bound**2)


def _sgd_setup(
    filt: IIRFilter,
    u: np.ndarray,
    options: Optional[SGDOptions],
    precondition: bool,
) -> Tuple[IIRVariationalProblem, SGDOptions, Optional[np.ndarray]]:
    """The problem SGD minimizes, its options, and the read-out filter ``f``.

    Preconditioned, the problem is over ``y`` with ``x = F y`` and ``f`` is
    the truncated inverse impulse response; otherwise ``f`` is ``None``.
    Omitted ``options`` mean 1,000 iterations of 1/t stepping at the
    problem's stable base step.
    """
    f: Optional[np.ndarray] = None
    step_filter = filt
    if precondition:
        f, effective = precondition_iir(filt)
        step_filter = IIRFilter(feedforward=filt.feedforward, feedback=effective)
    if options is None:
        options = SGDOptions(
            iterations=1000, schedule="ls", base_step=default_iir_step(step_filter)
        )
    return IIRVariationalProblem(step_filter, u), options, f


@quiet
def _sgd_start(
    filt: IIRFilter,
    u: np.ndarray,
    noisy_output: np.ndarray,
    problem: IIRVariationalProblem,
    f: Optional[np.ndarray],
) -> np.ndarray:
    """One trial's SGD start from its noisy feed-forward output.

    Non-finite samples are zeroed.  Preconditioned, ``y ≈ B x`` maps the
    output into the solve's coordinates (reliable transformation work), and
    a control-phase sanity bound falls back to the problem's zero initial
    point when the noisy recursion has blown up beyond any gain the filter
    could legitimately produce.
    """
    x0 = np.where(np.isfinite(noisy_output), noisy_output, 0.0)
    if f is None:
        return x0
    y0 = np.convolve(x0, filt.feedback)[: u.size]
    gain_bound = float(np.sum(np.abs(filt.feedforward)) * max(np.linalg.norm(u), 1.0))
    if not np.isfinite(np.linalg.norm(y0)) or np.linalg.norm(y0) > 10.0 * gain_bound:
        return problem.initial_point()
    return y0


def _read_out(x: np.ndarray, f: Optional[np.ndarray]) -> np.ndarray:
    """The filter output ``x = F y`` of a preconditioned solve's iterate.

    Reliable control work, like ``QRPreconditioner.recover``; without a
    preconditioner (``f`` is ``None``) the iterate is the output.
    """
    return x if f is None else np.convolve(x, f)[: x.size]


def robust_iir_filter(
    filt: IIRFilter,
    u: np.ndarray,
    proc: StochasticProcessor,
    options: Optional[SGDOptions] = None,
    precondition: bool = True,
) -> IIRResult:
    """Filter ``u`` robustly by solving the variational form on the noisy FPU.

    With the defaults this reproduces the Figure 6.3 configuration: 1,000
    iterations of 1/t stepping on the (preconditioned) least-squares form,
    initialized from the noisy feed-forward output.  The result's FLOPs and
    faults cover that initialization as well as the solve.

    Parameters
    ----------
    precondition:
        Apply the impulse-response preconditioner (§3.2, 64 taps) so that the
        banded system is well conditioned regardless of the filter's pole
        radii.  Disable to study the raw (possibly ill-conditioned)
        formulation.
    """
    from repro.applications.baselines.iir_direct import noisy_direct_form_filter

    u_arr = np.asarray(u, dtype=np.float64).ravel()
    flops_before, faults_before = proc.flops, proc.faults_injected
    noisy_output = noisy_direct_form_filter(filt, u_arr, proc)
    problem, options, f = _sgd_setup(filt, u_arr, options, precondition)
    x0 = _sgd_start(filt, u_arr, noisy_output, problem, f)
    result = stochastic_gradient_descent(problem, proc, options=options, x0=x0)
    return _score(filt, u_arr, _read_out(result.x, f), "sgd", proc.flops - flops_before,
                  proc.faults_injected - faults_before, result)


def robust_iir_filter_batch(
    filt: IIRFilter,
    u: np.ndarray,
    procs: Union[ProcessorBatch, Sequence[StochasticProcessor]],
    options: Optional[SGDOptions] = None,
    precondition: bool = True,
) -> List[IIRResult]:
    """Run one robust IIR filtering trial per processor as a tensorized solve.

    The batch entry point of the tensorized trial backend: the preconditioned
    variational problem is built once, the noisy feed-forward initialization
    runs for every trial at once through
    :func:`~repro.applications.baselines.iir_direct.noisy_direct_form_filter_batch`
    (each trial's draws exactly as on the serial path), and the SGD
    phase advances every trial's iterate together through
    :func:`~repro.optimizers.sgd.stochastic_gradient_descent_batch` with a
    per-trial initial stack.  Trial ``t``'s :class:`IIRResult` is
    bit-identical to ``robust_iir_filter(filt, u, procs[t], ...)`` with the
    same arguments.
    """
    from repro.applications.baselines.iir_direct import noisy_direct_form_filter_batch

    u_arr = np.asarray(u, dtype=np.float64).ravel()
    batch = procs if isinstance(procs, ProcessorBatch) else ProcessorBatch(procs)
    batch.flush()  # counters must be current before the baseline read
    flops_before = [proc.flops for proc in batch.procs]
    faults_before = [proc.faults_injected for proc in batch.procs]
    noisy_outputs = noisy_direct_form_filter_batch(filt, u_arr, batch.procs)
    problem, options, f = _sgd_setup(filt, u_arr, options, precondition)
    X0 = np.stack(
        [_sgd_start(filt, u_arr, output, problem, f) for output in noisy_outputs]
    )
    results = stochastic_gradient_descent_batch(problem, batch, options=options, x0=X0)
    exact = exact_iir_filter(filt, u_arr)
    return [
        _score(
            filt, u_arr, _read_out(result.x, f), "sgd",
            proc.flops - flops_before[trial],
            proc.faults_injected - faults_before[trial],
            result, exact=exact,
        )
        for trial, (proc, result) in enumerate(zip(batch.procs, results))
    ]


def baseline_iir_filter(
    filt: IIRFilter, u: np.ndarray, proc: StochasticProcessor
) -> IIRResult:
    """The conventional direct-form recursion executed on the noisy FPU."""
    from repro.applications.baselines.iir_direct import noisy_direct_form_filter

    flops_before, faults_before = proc.flops, proc.faults_injected
    y = noisy_direct_form_filter(filt, u, proc)
    return _score(
        filt, u, y, "baseline-direct-form",
        proc.flops - flops_before, proc.faults_injected - faults_before,
    )


def baseline_iir_filter_batch(
    filt: IIRFilter,
    u: np.ndarray,
    procs: Union[ProcessorBatch, Sequence[StochasticProcessor]],
) -> List[IIRResult]:
    """Run the direct-form baseline once per processor as a batch.

    The batch entry point of the IIR ``Base`` series: every trial's
    recursion advances together through
    :func:`~repro.applications.baselines.iir_direct.noisy_direct_form_filter_batch`.
    Trial ``t``'s :class:`IIRResult` is bit-identical to
    ``baseline_iir_filter(filt, u, procs[t])``.
    """
    from repro.applications.baselines.iir_direct import noisy_direct_form_filter_batch

    u_arr = np.asarray(u, dtype=np.float64).ravel()
    batch = procs if isinstance(procs, ProcessorBatch) else ProcessorBatch(procs)
    batch.flush()  # counters must be current before the baseline read
    flops_before = [proc.flops for proc in batch.procs]
    faults_before = [proc.faults_injected for proc in batch.procs]
    Y = noisy_direct_form_filter_batch(filt, u_arr, batch.procs)
    exact = exact_iir_filter(filt, u_arr)
    return [
        _score(
            filt, u_arr, Y[trial], "baseline-direct-form",
            proc.flops - flops_before[trial],
            proc.faults_injected - faults_before[trial],
            exact=exact,
        )
        for trial, proc in enumerate(batch.procs)
    ]


@quiet
def _score(
    filt: IIRFilter,
    u: np.ndarray,
    y: np.ndarray,
    method: str,
    flops: int,
    faults: int,
    optimizer_result: Optional[OptimizationResult] = None,
    exact: Optional[np.ndarray] = None,
) -> IIRResult:
    y_arr = np.asarray(y, dtype=np.float64).ravel()
    if exact is None:
        exact = exact_iir_filter(filt, u)
    return IIRResult(
        y=y_arr,
        error_to_signal=relative_error(y_arr, exact),
        mse=mean_squared_error(y_arr, exact),
        flops=flops,
        faults_injected=faults,
        method=method,
        optimizer_result=optimizer_result,
    )
