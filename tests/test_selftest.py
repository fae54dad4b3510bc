"""The selftest battery, pinned check by check."""

from decolab.selftest import run_selftest

# name, deviation.hex() and tolerance of every check as first released (the
# thirteenth, detailed_balance, was appended later); the battery runs at fixed
# seeds, so a moved bit in any deviation fails here
PINNED = [
    ("quadrature_polynomial", "0x1.0000000000000p-54", 1e-12),
    ("quadrature_gaussian", "0x1.7880000000000p-43", 1e-08),
    ("quadrature_odd", "0x1.9000000000000p-56", 1e-10),
    ("rk4_exponential", "0x1.3800000000000p-48", 1e-10),
    ("rk4_order", "0x0.0p+0", 0.0),
    ("rk4_no_coupling", "0x0.0p+0", 1e-14),
    ("lindblad_fixed_point", "0x0.0p+0", 1e-14),
    ("lindblad_traceless", "0x0.0p+0", 1e-14),
    ("lindblad_vs_bloch", "0x1.80e0000000000p-40", 1e-06),
    ("trace_preservation", "0x1.8000000000000p-50", 1e-10),
    ("attenuation_ratio_identity", "0x1.f11bbff1a0e7ep-51", 1e-10),
    ("cat_normalization", "0x1.57ca000000000p-37", 1e-06),
    ("detailed_balance", "0x0.0p+0", 1e-12),
]


def test_every_check_matches_its_pinned_deviation():
    results = run_selftest()
    assert [(r.name, r.deviation.hex(), r.tolerance) for r in results] == PINNED
    assert all(r.passed for r in results)
