import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from netsense.errors import InvalidRootError
from netsense.waveforms import (
    DB_FLOOR,
    AmbiguitySurface,
    ComplexSequence,
    ambiguity,
    ofdm_symbol,
    sidelobe_metrics,
    zadoff_chu,
)


def cyclic_autocorrelation(x: np.ndarray) -> np.ndarray:
    """Brute-force |sum_n x[n] conj(x[(n - tau) mod N])| for every lag."""
    n = len(x)
    out = np.empty(n)
    for tau in range(n):
        acc = 0j
        for i in range(n):
            acc += x[i] * np.conj(x[(i - tau) % n])
        out[tau] = abs(acc)
    return out


def brute_force_ambiguity(x: np.ndarray, freqs, mode: str) -> np.ndarray:
    """Direct triple-loop evaluation of the delay-Doppler sum."""
    n = len(x)
    grid = np.empty((n, len(freqs)))
    for tau in range(n):
        for j, f in enumerate(freqs):
            acc = 0j
            for i in range(n):
                if mode == "cyclic":
                    other = x[(i - tau) % n]
                elif i - tau >= 0:
                    other = x[i - tau]
                else:
                    continue
                acc += x[i] * np.conj(other) * cmath.exp(2j * math.pi * f * i / n)
            grid[tau, j] = abs(acc)
    return grid / grid[0, 0]


class TestZadoffChu:
    def test_length3_root1_hand_values(self):
        # Odd-N formula at n = 0, 1, 2: phases 0, -2*pi/3, -2*pi.
        seq = zadoff_chu(3, 1)
        expected = np.array([1.0, cmath.exp(-2j * math.pi / 3), 1.0])
        assert np.allclose(seq.samples, expected, atol=1e-15)

    @pytest.mark.parametrize("n,u", [(31, 7), (63, 25), (64, 25), (139, 11)])
    def test_constant_modulus(self, n, u):
        seq = zadoff_chu(n, u)
        assert np.allclose(np.abs(seq.samples), 1.0, atol=1e-12)

    def test_ideal_cyclic_autocorrelation_against_brute_force(self):
        seq = zadoff_chu(63, 25)
        corr = cyclic_autocorrelation(seq.samples)
        assert corr[0] == pytest.approx(63.0, rel=1e-12)
        assert corr[1:].max() < 1e-10

    @pytest.mark.parametrize("n", [31, 63, 139])
    def test_ideal_autocorrelation_across_roots(self, n):
        for u in (1, 2, n - 1):
            if math.gcd(u, n) != 1:
                continue
            row = ambiguity(zadoff_chu(n, u), doppler_bins=1).magnitudes[:, 0]
            assert row[1:].max() < 1e-10

    def test_non_coprime_root_rejected(self):
        with pytest.raises(InvalidRootError):
            zadoff_chu(63, 21)

    def test_out_of_range_root_rejected(self):
        with pytest.raises(InvalidRootError):
            zadoff_chu(63, 0)
        with pytest.raises(InvalidRootError):
            zadoff_chu(63, 63)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            zadoff_chu(1, 1)


class TestOfdmSymbol:
    def test_deterministic_for_seed(self):
        a = ofdm_symbol(64, 16, seed=5)
        b = ofdm_symbol(64, 16, seed=5)
        assert np.array_equal(a.samples, b.samples)

    def test_seed_changes_sequence(self):
        a = ofdm_symbol(64, 16, seed=5)
        b = ofdm_symbol(64, 16, seed=6)
        assert not np.array_equal(a.samples, b.samples)

    def test_cyclic_prefix_structure(self):
        seq = ofdm_symbol(64, 16, seed=1)
        assert len(seq) == 80
        assert np.allclose(seq.samples[:16], seq.samples[64:80], atol=1e-12)

    def test_parseval_unit_power(self):
        # Unit-modulus QPSK through a power-preserving IDFT keeps mean power 1.
        seq = ofdm_symbol(64, 16, seed=2)
        assert np.mean(np.abs(seq.samples) ** 2) == pytest.approx(1.0, abs=1e-12)
        body = ofdm_symbol(64, 0, seed=2)
        assert np.mean(np.abs(body.samples) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_cp_too_long_rejected(self):
        with pytest.raises(ValueError):
            ofdm_symbol(64, 64, seed=0)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            ofdm_symbol(63, 16, seed=0)


class TestAmbiguity:
    def test_origin_is_exactly_one(self):
        for seq in (zadoff_chu(63, 25), ofdm_symbol(64, 16, seed=3)):
            for mode in ("cyclic", "linear"):
                surf = ambiguity(seq, doppler_bins=4, mode=mode)
                assert surf.magnitudes[0, 0] == 1.0
                assert surf.magnitudes.max() <= 1.0 + 1e-12

    def test_matches_brute_force_cyclic(self):
        seq = ofdm_symbol(16, 4, seed=9)
        surf = ambiguity(seq, doppler_bins=5, mode="cyclic")
        expected = brute_force_ambiguity(seq.samples, surf.doppler_freqs, "cyclic")
        assert np.allclose(surf.magnitudes, expected, atol=1e-10)

    def test_matches_brute_force_linear(self):
        seq = ofdm_symbol(16, 4, seed=9)
        surf = ambiguity(seq, doppler_bins=5, mode="linear")
        expected = brute_force_ambiguity(seq.samples, surf.doppler_freqs, "linear")
        assert np.allclose(surf.magnitudes, expected, atol=1e-10)

    def test_zero_doppler_row_is_cyclic_autocorrelation(self):
        seq = zadoff_chu(31, 3)
        surf = ambiguity(seq, doppler_bins=1, mode="cyclic")
        corr = cyclic_autocorrelation(seq.samples)
        assert np.allclose(surf.magnitudes[:, 0], corr / corr[0], atol=1e-12)

    def test_global_phase_invariance(self):
        seq = zadoff_chu(63, 25)
        rotated = ComplexSequence(seq.samples * cmath.exp(0.7j), label="rot")
        a = ambiguity(seq, doppler_bins=8).magnitudes
        b = ambiguity(rotated, doppler_bins=8).magnitudes
        assert np.allclose(a, b, atol=1e-12)

    def test_doppler_frequencies_fft_ordered(self):
        surf = ambiguity(zadoff_chu(63, 25), doppler_bins=16)
        assert surf.doppler_freqs == (0, 1, 2, 3, 4, 5, 6, 7, -8, -7, -6, -5, -4, -3, -2, -1)

    def test_zc_ridge_present_off_zero_doppler(self):
        # ZC's cyclic surface is 1 exactly on nu = u*tau (mod N); this is why
        # side-lobe comparisons run on the zero-Doppler cut.
        surf = ambiguity(zadoff_chu(63, 25), doppler_bins=3)
        assert surf.magnitudes[58, 1] == pytest.approx(1.0, abs=1e-9)

    @given(data=st.data(), mode=st.sampled_from(["cyclic", "linear"]))
    def test_matches_brute_force_property(self, data, mode):
        samples = data.draw(st.lists(
            st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
            min_size=1, max_size=24), label="samples")
        doppler_bins = data.draw(st.integers(1, len(samples)), label="doppler_bins")
        x = np.array(samples)
        assume(np.mean(np.abs(x) ** 2) > 0)  # ComplexSequence refuses zero power
        seq = ComplexSequence(x)
        surf = ambiguity(seq, doppler_bins=doppler_bins, mode=mode)
        expected = brute_force_ambiguity(seq.samples, surf.doppler_freqs, mode)
        assert np.allclose(surf.magnitudes, expected, rtol=0, atol=1e-12)

    def test_zc_benchmark_size_zero_doppler_sidelobes(self):
        # The benchmark's pilot: N=1021, root 25, 16 Doppler bins, cyclic.
        surf = ambiguity(zadoff_chu(1021, 25), doppler_bins=16, mode="cyclic")
        assert surf.magnitudes[0, 0] == 1.0
        assert 20.0 * np.log10(surf.magnitudes[1:, 0].max()) <= -200.0

    def test_parameter_validation(self):
        seq = zadoff_chu(63, 25)
        with pytest.raises(ValueError):
            ambiguity(seq, doppler_bins=0)
        with pytest.raises(ValueError):
            ambiguity(seq, doppler_bins=64)
        with pytest.raises(ValueError):
            ambiguity(seq, doppler_bins=4, mode="donut")

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            ComplexSequence(np.array([]))

    def test_ofdm_determinism_bit_for_bit(self):
        a = ambiguity(ofdm_symbol(64, 16, seed=4), doppler_bins=16)
        b = ambiguity(ofdm_symbol(64, 16, seed=4), doppler_bins=16)
        assert np.array_equal(a.magnitudes, b.magnitudes)


class TestSidelobeMetrics:
    def test_delta_surface_hits_floor(self):
        grid = np.zeros((32, 5))
        grid[0, 0] = 1.0
        metrics = sidelobe_metrics(AmbiguitySurface(magnitudes=grid))
        assert metrics.psl_db == DB_FLOOR
        assert metrics.isl_db == DB_FLOOR

    def test_zc_zero_doppler_psl_is_numerical_zero(self):
        surf = ambiguity(zadoff_chu(63, 25), doppler_bins=1)
        assert sidelobe_metrics(surf).psl_db <= -200.0

    def test_ofdm_has_strong_side_lobes(self):
        surf = ambiguity(ofdm_symbol(64, 16, seed=7), doppler_bins=1)
        assert sidelobe_metrics(surf).psl_db > -20.0

    def test_contrast_between_data_and_pilot(self):
        zc_psl = sidelobe_metrics(ambiguity(zadoff_chu(63, 25), doppler_bins=1)).psl_db
        ofdm_psl = sidelobe_metrics(ambiguity(ofdm_symbol(64, 16, seed=7), doppler_bins=1)).psl_db
        assert ofdm_psl - zc_psl >= 20.0

    def test_psl_never_positive(self):
        for seed in range(5):
            surf = ambiguity(ofdm_symbol(64, 16, seed=seed), doppler_bins=16)
            assert sidelobe_metrics(surf).psl_db <= 0.0

    def test_exclusion_covering_grid_rejected(self):
        surf = ambiguity(zadoff_chu(5, 2), doppler_bins=3)
        with pytest.raises(ValueError):
            sidelobe_metrics(surf, mainlobe_exclusion=10)

    def test_known_two_cell_surface(self):
        grid = np.zeros((16, 1))
        grid[0, 0] = 1.0
        grid[8, 0] = 0.5  # -6.02 dB, two cells outside any small exclusion
        grid[9, 0] = 0.5
        metrics = sidelobe_metrics(AmbiguitySurface(magnitudes=grid), mainlobe_exclusion=1)
        assert metrics.psl_db == pytest.approx(20 * math.log10(0.5), abs=1e-12)
        assert metrics.isl_db == pytest.approx(10 * math.log10(0.5), abs=1e-12)
