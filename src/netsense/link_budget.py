"""Radar range equation for device-free sensing.

Monostatic round-trip SNR:

    snr = Pt * Gt * Gr * Gp * lambda^2 * sigma / ((4*pi)^3 * k * T0 * B * Nf * R^4)

Gains, RCS and noise factor are entered in dB and converted to linear once
at parameter construction; all internal arithmetic is linear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

SPEED_OF_LIGHT_MPS = 2.998e8
BOLTZMANN_JPK = 1.38e-23

# Table-style default RCS values, dB re 1 m^2.
PEDESTRIAN_RCS_DBSM = -10.0
VEHICLE_RCS_DBSM = 15.0

FOUR_PI_CUBED = (4.0 * math.pi) ** 3


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def linear_to_db(x: float) -> float:
    if x <= 0:
        raise ValueError("linear value must be positive for dB conversion")
    return 10.0 * math.log10(x)


@dataclass
class LinkBudgetParams:
    """All inputs of the sensing range equation, defaulted to a 3.5 GHz macro BS.

    Attributes:
        pt_watts: transmit power [W]
        gt_dbi: transmit antenna gain [dBi]
        gr_dbi: receive antenna gain [dBi]
        gp_db: processing gain [dB] (opaque multiplicative gain)
        carrier_hz: carrier frequency [Hz]; wavelength = c / carrier_hz
        rcs_dbsm: target radar cross section [dB re 1 m^2]
        temperature_k: receiver noise temperature [K]
        bandwidth_hz: receiver bandwidth [Hz]
        noise_factor_db: receiver noise factor [dB]

    Boltzmann's constant is fixed at BOLTZMANN_JPK. Finite inputs are the
    caller's concern: an infinite ``pt_watts`` is accepted and gives an
    unbounded coverage radius.
    """

    pt_watts: float = 10.0
    gt_dbi: float = 20.0
    gr_dbi: float = 20.0
    gp_db: float = 10.0
    carrier_hz: float = 3.5e9
    rcs_dbsm: float = PEDESTRIAN_RCS_DBSM
    temperature_k: float = 290.0
    bandwidth_hz: float = 100e6
    noise_factor_db: float = 5.0

    # Linear-domain values derived once after construction.
    wavelength_m: float = field(init=False, repr=False)
    gt_linear: float = field(init=False, repr=False)
    gr_linear: float = field(init=False, repr=False)
    gp_linear: float = field(init=False, repr=False)
    rcs_m2: float = field(init=False, repr=False)
    noise_factor_linear: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for name in ("pt_watts", "carrier_hz", "temperature_k", "bandwidth_hz"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        self.wavelength_m = SPEED_OF_LIGHT_MPS / self.carrier_hz
        self.gt_linear = db_to_linear(self.gt_dbi)
        self.gr_linear = db_to_linear(self.gr_dbi)
        self.gp_linear = db_to_linear(self.gp_db)
        self.rcs_m2 = db_to_linear(self.rcs_dbsm)
        self.noise_factor_linear = db_to_linear(self.noise_factor_db)

    def _numerator(self) -> float:
        return (self.pt_watts * self.gt_linear * self.gr_linear * self.gp_linear
                * self.wavelength_m ** 2 * self.rcs_m2)

    def _denominator_no_range(self) -> float:
        return (FOUR_PI_CUBED * BOLTZMANN_JPK * self.temperature_k
                * self.bandwidth_hz * self.noise_factor_linear)


@dataclass(frozen=True)
class SnrResult:
    """Sensing SNR both as a linear ratio and in dB."""

    linear: float
    db: float


def sensing_snr(params: LinkBudgetParams, range_m: float) -> SnrResult:
    """Round-trip sensing SNR at a given BS-target distance."""
    if range_m <= 0:
        raise ValueError("range_m must be strictly positive")
    linear = params._numerator() / (params._denominator_no_range() * range_m ** 4)
    return SnrResult(linear=linear, db=linear_to_db(linear))


def max_sensing_range(params: LinkBudgetParams, snr_min_db: float = 10.0) -> float:
    """Largest distance at which the sensing SNR still meets the threshold.

    Closed form: fourth root of numerator / (denominator * snr_min).
    """
    if not math.isfinite(snr_min_db):
        raise ValueError("snr_min_db must be finite")
    snr_min = db_to_linear(snr_min_db)
    return (params._numerator() / (params._denominator_no_range() * snr_min)) ** 0.25


def range_resolution(bandwidth_hz: float) -> float:
    """Two-target range separability c / (2 B), meters."""
    if bandwidth_hz <= 0:
        raise ValueError("bandwidth_hz must be strictly positive")
    return SPEED_OF_LIGHT_MPS / (2.0 * bandwidth_hz)


def guard_interval(max_range_m: float) -> float:
    """TDD guard duration: round trip of the farthest echo, 2 R / c, seconds."""
    if max_range_m <= 0:
        raise ValueError("max_range_m must be strictly positive")
    return 2.0 * max_range_m / SPEED_OF_LIGHT_MPS


def covered(params: LinkBudgetParams, snr_min_db: float, distance_m: float) -> bool:
    """Detection gate: True iff the target sits inside the coverage radius.

    The boundary is inclusive: a target exactly at max range counts as covered.
    """
    if distance_m <= 0:
        raise ValueError("distance_m must be strictly positive")
    return distance_m <= max_sensing_range(params, snr_min_db)
