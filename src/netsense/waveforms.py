"""Pilot and data waveforms plus their delay-Doppler ambiguity surfaces.

Zadoff-Chu sequences model the pilot path, OFDM symbols the data path.
Ambiguity is evaluated on a discrete grid: delay rows are sample shifts
(cyclic or zero-padded linear), Doppler columns are integer cycles per
sequence length in FFT ordering, so the zero-delay/zero-Doppler cell is
grid index (0, 0).

Only the requested Doppler columns are computed. Modulating x by
exp(+j 2 pi nu n / N) circularly shifts its spectrum by nu bins, so each
column is one inverse FFT of a shifted spectrum times the conjugate
spectrum: O(N log N) time and O(N) memory per column, O(N D) in all for D
columns, never the N x N delay-by-time grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidRootError

DB_FLOOR = -300.0


@dataclass
class ComplexSequence:
    """A complex baseband sequence, normalized to unit average power."""

    samples: np.ndarray
    label: str = ""

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=complex)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("samples must be a non-empty 1D sequence")
        power = float(np.mean(np.abs(samples) ** 2))
        if power == 0.0:
            raise ValueError("sequence has zero power")
        self.samples = samples / math.sqrt(power)

    def __len__(self) -> int:
        return len(self.samples)


def zadoff_chu(length: int, root: int) -> ComplexSequence:
    """Zadoff-Chu sequence of the given length and root.

    x[n] = exp(-j pi u n (n+1) / N) for odd N, exp(-j pi u n^2 / N) for even N.
    Constant modulus; ideal (zero) cyclic autocorrelation at nonzero lags.
    """
    if length < 2:
        raise ValueError("length must be at least 2")
    if not 0 < root < length:
        raise InvalidRootError(f"root must satisfy 0 < root < length, got {root}")
    if math.gcd(root, length) != 1:
        raise InvalidRootError(f"root {root} is not coprime with length {length}")
    n = np.arange(length)
    if length % 2:
        phase = -np.pi * root * n * (n + 1) / length
    else:
        phase = -np.pi * root * n * n / length
    return ComplexSequence(np.exp(1j * phase), label=f"zc-N{length}-u{root}")


def ofdm_symbol(num_subcarriers: int, cp_length: int, seed: int) -> ComplexSequence:
    """One CP-OFDM symbol carrying random QPSK data on every subcarrier.

    Draws num_subcarriers independent QPSK symbols from a seeded RNG, applies
    the inverse DFT with unitary power scaling, prepends a cyclic prefix of
    cp_length samples, and normalizes to unit average power. Deterministic
    for a given seed.
    """
    n = num_subcarriers
    if n < 2 or (n & (n - 1)) != 0:
        raise ValueError("num_subcarriers must be a power of two")
    if not 0 <= cp_length < n:
        raise ValueError("cp_length must satisfy 0 <= cp_length < num_subcarriers")

    rng = np.random.default_rng(seed)
    points = rng.integers(0, 4, size=n)
    # QPSK: unit modulus at odd multiples of pi/4.
    symbols = np.exp(1j * (np.pi / 4 + 2.0 * np.pi * points / 4))
    body = np.fft.ifft(symbols) * math.sqrt(n)
    samples = np.concatenate([body[n - cp_length:], body]) if cp_length else body
    return ComplexSequence(samples, label=f"ofdm-N{n}-cp{cp_length}-seed{seed}")


@dataclass
class AmbiguitySurface:
    """Delay-Doppler magnitude grid normalized so the (0, 0) cell is 1."""

    magnitudes: np.ndarray
    delay_bins: int = field(init=False)
    doppler_bins: int = field(init=False)
    doppler_freqs: tuple[int, ...] = ()
    label: str = ""

    def __post_init__(self):
        mags = np.asarray(self.magnitudes, dtype=float)
        if mags.ndim != 2 or mags.size == 0:
            raise ValueError("magnitudes must be a non-empty 2D grid")
        self.magnitudes = mags
        self.delay_bins = mags.shape[0]
        self.doppler_bins = mags.shape[1]
        if not self.doppler_freqs:
            self.doppler_freqs = _fft_freq_ints(self.doppler_bins)


def _fft_freq_ints(doppler_bins: int) -> tuple[int, ...]:
    # FFT bin ordering: [0, 1, ..., ceil(D/2)-1, -floor(D/2), ..., -1].
    return tuple(int(round(f)) for f in np.fft.fftfreq(doppler_bins) * doppler_bins)


def ambiguity(seq: ComplexSequence, doppler_bins: int = 1, mode: str = "cyclic") -> AmbiguitySurface:
    """Delay-Doppler ambiguity surface of a sequence.

    A(tau, nu) = | sum_n x[n] conj(x[(n - tau) mod N]) exp(j 2 pi nu n / N) |
    for cyclic mode; linear mode zero-pads instead of wrapping. Rows are
    delays 0..N-1, columns the FFT-ordered integer Doppler frequencies, and
    the surface is normalized so A(0, 0) = 1.

    With X = FFT_L(x), L = N (cyclic) or 2N (linear, zero-padded so no lag
    wraps), the modulated sequence has spectrum X[(k - nu L/N) mod L], and
    the correlation over delay is the inverse FFT of that times conj(X[k]).
    Work arrays are L x doppler_bins, so memory is O(N * doppler_bins).
    """
    x = seq.samples
    n_len = len(x)
    if not 1 <= doppler_bins <= n_len:
        raise ValueError("doppler_bins must satisfy 1 <= doppler_bins <= len(seq)")
    if mode not in ("cyclic", "linear"):
        raise ValueError(f"mode must be 'cyclic' or 'linear', got {mode!r}")

    fft_len = n_len if mode == "cyclic" else 2 * n_len
    spec = np.fft.fft(x, fft_len)
    freqs = _fft_freq_ints(doppler_bins)
    shift = np.array(freqs) * (fft_len // n_len)
    cross = spec[(np.arange(fft_len)[None, :] - shift[:, None]) % fft_len]  # [nu, k]
    cross *= np.conj(spec)
    corr = np.fft.ifft(cross, axis=1)[:, :n_len]  # [nu, tau]
    mags = np.abs(corr.T)
    mags = mags / mags[0, 0]
    return AmbiguitySurface(magnitudes=mags, doppler_freqs=freqs,
                            label=f"{seq.label}-{mode}")


@dataclass(frozen=True)
class SidelobeMetrics:
    """Peak and integrated side-lobe levels in dB relative to the main peak."""

    psl_db: float
    isl_db: float


def sidelobe_metrics(surface: AmbiguitySurface, mainlobe_exclusion: int = 1) -> SidelobeMetrics:
    """PSL and ISL of a surface outside a main-lobe window around the origin.

    The excluded window spans mainlobe_exclusion bins on each side of the
    origin in both axes, with cyclic wrap on the delay axis and the Doppler
    axis measured in integer frequency units. Levels below numerical zero
    are floored at DB_FLOOR.
    """
    if mainlobe_exclusion < 0:
        raise ValueError("mainlobe_exclusion must be nonnegative")
    mags = surface.magnitudes
    n_delay = surface.delay_bins
    delay = np.arange(n_delay)
    delay_dist = np.minimum(delay, n_delay - delay)
    dopp_dist = np.abs(np.array(surface.doppler_freqs))
    excluded = (delay_dist[:, None] <= mainlobe_exclusion) & (dopp_dist[None, :] <= mainlobe_exclusion)
    outside = mags[~excluded]
    if outside.size == 0:
        raise ValueError("main-lobe exclusion covers the whole grid")

    peak_sq = mags[0, 0] ** 2
    max_out = float(outside.max())
    psl_db = max(20.0 * math.log10(max_out), DB_FLOOR) if max_out > 0 else DB_FLOOR
    energy = float(np.sum(outside ** 2))
    isl_db = max(10.0 * math.log10(energy / peak_sq), DB_FLOOR) if energy > 0 else DB_FLOOR
    return SidelobeMetrics(psl_db=psl_db, isl_db=isl_db)
