"""End-to-end acceptance checks at their stated tolerances.

Each check prints one verdict line so the suite doubles as a checklist.
The pure-part criterion is split: its reconstruction/identity core, and
its saturation clause. The total pure weight equals the measure exactly
when at most one pure weight is nonzero: spectrum (a, b, ..., b) in any
dimension, and at N=2 every state, whose single weight lambda_1 - lambda_2
is P_2. Saturation by every rank-2 state cannot hold above N=2: the
spectrum (a, b, 0, ..., 0) has two nonzero weights and the gap
(a+b) - sqrt((a+b)^2 - 2N/(N-1) ab), strictly positive whenever ab > 0.
The clause is therefore checked in that form, and its verdict line reports
the measured rank-2 gaps.
"""

import time

import numpy as np

import qcoherence as qc
from qcoherence.cli import main

INV_SQRT3 = 1 / np.sqrt(3)


def _verdict(label: str, ok: bool, detail: str) -> bool:
    print(f"\n[ACCEPTANCE] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_criterion_1_six_interpretation_equality():
    started = time.monotonic()
    worst = 0.0
    kinds = ("ginibre_mixed", "haar_pure", "rank_k")
    for i in range(500):
        dim = 2 + i % 9
        kind = kinds[i % 3]
        rho = qc.random_state(dim, kind, i, rank=2 if kind == "rank_k" else None)
        worst = max(worst, qc.max_route_discrepancy(qc.coherence_report(rho)))
    elapsed = time.monotonic() - started
    ok = worst <= 1e-9 and elapsed < 5.0
    assert _verdict(
        "1 five-route equality, three computations",
        ok,
        f"max spread {worst:.2e} over 500 states, {elapsed:.1f}s",
    )


def test_criterion_2_maximum_mu_theorem():
    started = time.monotonic()
    worst_equalized = 0.0
    for dim in (2, 3, 4, 6):
        for i in range(100):
            rho = qc.random_state(dim, "ginibre_mixed", 1000 * dim + i)
            u = qc.equalizing_basis(rho)
            rotated = qc.validate_density(u.conj().T @ rho.entries @ u)
            worst_equalized = max(worst_equalized, abs(qc.mu_n(rotated) - qc.p_n(rho)))
    worst_gap = 0.0
    ceiling_ok = True
    for dim in (2, 3, 4, 6):
        rho = qc.random_state(dim, "ginibre_mixed", 31 + dim)
        result = qc.maximize_mu(rho, 100_000, 17 + dim)
        reference = qc.p_n(rho)
        ceiling_ok &= result.best_value <= reference + 1e-6
        worst_gap = max(worst_gap, reference - result.best_value)
    elapsed = time.monotonic() - started
    ok = worst_equalized <= 1e-9 and ceiling_ok and worst_gap <= 1e-3 and elapsed < 60.0
    assert _verdict(
        "2 maximum-mu theorem",
        ok,
        f"equalized residual {worst_equalized:.2e}, search gap {worst_gap:.2e}, "
        f"ceiling held {ceiling_ok}, {elapsed:.1f}s",
    )


def test_criterion_3_schur_convexity_and_majorization():
    worst_partial = -np.inf
    for i in range(10_000):
        dim = 2 + i % 7
        rho = qc.random_state(dim, "ginibre_mixed", 40_000 + i)
        u = qc.haar_unitary(dim, 80_000 + i)
        diag = np.sort(np.diag(u.conj().T @ rho.entries @ u).real)[::-1]
        lam = qc.spectral_decompose(rho).eigenvalues
        worst_partial = max(worst_partial, float(np.max(np.cumsum(diag) - np.cumsum(lam))))
    rng = np.random.default_rng(7)
    schur_ok = True
    for _ in range(200):
        n = 2 + int(rng.integers(0, 6))
        y = rng.dirichlet(np.ones(n))
        mix = np.zeros((n, n))
        for _ in range(5):
            mix += np.eye(n)[rng.permutation(n)] / 5.0
        x = mix @ y
        schur_ok &= qc.visibility_f(x) <= qc.visibility_f(y) + 1e-12
    ok = worst_partial <= 1e-10 and schur_ok
    assert _verdict(
        "3 majorization and Schur-convexity",
        ok,
        f"max partial-sum excess {worst_partial:.2e} over 1e4 pairs, "
        f"200 mixing pairs ordered {schur_ok}",
    )


def test_criterion_4a_pure_part_core():
    worst_rebuild = 0.0
    bounds_held = True
    for i in range(200):
        dim = 2 + i % 7
        rho = qc.random_state(dim, "ginibre_mixed", 60_000 + i)
        decomposition = qc.pure_part_decomposition(rho)
        rebuilt = (
            decomposition.pure_states * decomposition.weights
        ) @ decomposition.pure_states.conj().T
        rebuilt += decomposition.mixed_weight * np.eye(dim) / dim
        worst_rebuild = max(worst_rebuild, float(np.max(np.abs(rebuilt - rho.entries))))
        # identity between the measure and the weights is enforced inside
        # (raises beyond 1e-10)
        holds, _ = qc.pure_part_bound_check(decomposition, qc.p_n(rho))
        bounds_held &= holds
    ok = worst_rebuild <= 1e-10 and bounds_held
    assert _verdict(
        "4a pure-part reconstruction and weight identity",
        ok,
        f"max rebuild error {worst_rebuild:.2e} over 200 states, bound held {bounds_held}",
    )


def test_criterion_4b_rank_two_saturation_as_stated():
    def rank_two(dim, i):
        return qc.random_state(dim, "rank_k", 90_000 + 100 * dim + i, rank=2)

    def gap_of(rho):
        _, gap = qc.pure_part_bound_check(qc.pure_part_decomposition(rho), qc.p_n(rho))
        return gap

    # equality side: rank-2 at N=2 (its one weight is P_2) and, at N=3, 4, 6,
    # spectrum (a, b, ..., b) rotated out of the diagonal basis
    worst_saturation = 0.0
    for i in range(25):
        worst_saturation = max(worst_saturation, abs(gap_of(rank_two(2, i))))
    for dim in (3, 4, 6):
        for i in range(25):
            top = 1.0 / dim + (1.0 - 1.0 / dim) * (i + 1) / 25
            lam = np.full(dim, (1.0 - top) / (dim - 1))
            lam[0] = top
            u = qc.haar_unitary(dim, 95_000 + 100 * dim + i)
            rho = qc.validate_density((u * lam) @ u.conj().T)
            worst_saturation = max(worst_saturation, abs(gap_of(rho)))

    # "only if" side: two nonzero weights a, b above N=2 leave the gap
    # (a+b) - sqrt((a+b)^2 - 2N/(N-1) ab) > 0
    worst_closed_form = 0.0
    rank_two_gaps = {}
    for dim in (3, 4, 6):
        gaps = []
        for i in range(25):
            rho = rank_two(dim, i)
            b, a = np.linalg.eigvalsh(rho.entries)[-2:]
            expected = (a + b) - np.sqrt((a + b) ** 2 - 2.0 * dim / (dim - 1.0) * a * b)
            gap = gap_of(rho)
            worst_closed_form = max(worst_closed_form, abs(gap - expected))
            gaps.append(gap)
        rank_two_gaps[dim] = (min(gaps), max(gaps))

    ok = (
        worst_saturation <= 1e-9
        and worst_closed_form <= 1e-9
        and all(low > 0.0 for low, _ in rank_two_gaps.values())
    )
    detail = ", ".join(
        f"N={dim}: rank-2 gap {low:.3f}-{high:.3f}"
        for dim, (low, high) in rank_two_gaps.items()
    )
    assert _verdict(
        "4b saturation exactly at one nonzero pure weight",
        ok,
        f"saturation error {worst_saturation:.1e} (N=2 rank-2, N=3/4/6 one weight), "
        f"closed-form error {worst_closed_form:.1e}, {detail}",
    )


def test_criterion_5_interference_fringe():
    started = time.monotonic()
    theta = np.linspace(0, np.pi, 200, endpoint=False)
    delta = np.linspace(0, 2 * np.pi, 200, endpoint=False)
    tt, dd = np.meshgrid(theta, delta, indexing="ij")
    cos_sq, sin_sq = np.cos(tt) ** 2, np.sin(tt) ** 2
    cross_base = 2 * np.sin(tt) * np.cos(tt)
    worst = 0.0
    for i in range(50):
        kind = ("ginibre_mixed", "haar_pure")[i % 2]
        rho = qc.random_state(2, kind, 3000 + i)
        m = rho.entries
        amp, phase = abs(m[0, 1]), np.angle(m[0, 1])
        i1 = m[0, 0].real * cos_sq + m[1, 1].real * sin_sq
        i1 = i1 + amp * cross_base * np.cos(phase + dd)
        fringe = (i1.max() - i1.min()) / (i1.max() + i1.min())
        worst = max(worst, abs(fringe - qc.p_n(rho)))
    elapsed = time.monotonic() - started
    ok = worst <= 1e-3 and elapsed < 10.0
    assert _verdict(
        "5 grid-maximised fringe visibility",
        ok,
        f"max |fringe - measure| {worst:.2e} over 50 states on 200x200, {elapsed:.1f}s",
    )


def test_criterion_6_infinite_dimensional_oracles():
    started = time.monotonic()
    checks = {}

    value, _ = qc.p_inf_fock(qc.thermal_fock(1.0, 80))
    checks["thermal-fock"] = (abs(value - INV_SQRT3), 1e-6)

    geometric = qc.geometric_oam(0.5, 60)
    oam_value, _ = qc.p_inf_oam(geometric)
    angle_value = qc.p_inf_angle(qc.oam_to_angle(geometric, 512))
    checks["geometric-oam"] = (abs(oam_value - INV_SQRT3), 1e-6)
    checks["oam-angle agreement"] = (abs(oam_value - angle_value), 1e-4)

    grid = qc.build_cv_grid(256, 16.0)
    checks["gaussian-cv"] = (
        abs(qc.p_inf_cv(qc.gaussian_cv(grid, np.sqrt(0.5))) - 1.0),
        1e-3,
    )
    thermal_state = qc.thermal_cv(grid, 1.0)
    checks["thermal-cv"] = (abs(qc.p_inf_cv(thermal_state) - INV_SQRT3), 1e-3)
    checks["cv representation"] = (
        abs(qc.p_inf_cv(qc.convert_representation(thermal_state)) - qc.p_inf_cv(thermal_state)),
        1e-10,
    )

    fine = qc.build_cv_grid(256, 40.0)
    vacuum_w = qc.wigner_from_cv(qc.gaussian_cv(fine, np.sqrt(0.5)), 241, 241,
                                 x_span=10.0, p_span=10.0)
    checks["gaussian-wigner"] = (abs(qc.p_inf_wigner(vacuum_w, fine.hbar) - 1.0), 1e-3)
    thermal_w = qc.wigner_from_cv(qc.thermal_cv(fine, 1.0), 241, 241,
                                  x_span=12.0, p_span=12.0)
    checks["thermal-wigner"] = (abs(qc.p_inf_wigner(thermal_w, fine.hbar) - INV_SQRT3), 1e-3)

    elapsed = time.monotonic() - started
    ok = all(err <= tol for err, tol in checks.values()) and elapsed < 120.0
    detail = ", ".join(f"{name} {err:.1e}" for name, (err, tol) in checks.items())
    assert _verdict("6 infinite-dimensional oracles", ok, f"{detail}, {elapsed:.1f}s")


def test_criterion_7_finite_cv_space_consistency():
    relation_ok = True
    for d, p_max, hbar in ((64, 8.0, 1.0), (128, 11.0, 1.0), (256, 16.0, 0.5), (17, 2.3, 3.7)):
        grid = qc.build_cv_grid(d, p_max, hbar)
        target = 2 * np.pi * hbar
        relation_ok &= abs(grid.dx * grid.dp * grid.size - target) <= 4 * np.spacing(target)

    deviations = []
    for d in (64, 128, 256):
        grid = qc.build_cv_grid(d, np.sqrt(d))
        x = grid.positions()
        psi = np.exp(-(x**2) / (4 * 8.0**2)).astype(complex)
        psi /= np.linalg.norm(psi)
        probe = qc.CvState(grid, "position", np.outer(psi, psi.conj()))
        # commutator_check also asserts the zero trace and zero diagonal
        # internally (raises beyond 1e-10)
        _, deviation = qc.commutator_check(grid, probe)
        deviations.append(deviation / grid.hbar)
    monotone = deviations[0] > deviations[1] > deviations[2]
    ok = relation_ok and monotone and deviations[2] <= 0.01
    assert _verdict(
        "7 finite position-momentum consistency",
        ok,
        f"spacing relation machine-exact {relation_ok}, deviations "
        + " > ".join(f"{d:.2e}" for d in deviations),
    )


def test_criterion_8_seeded_commands_byte_identical(tmp_path):
    outputs = []
    for attempt in ("a", "b"):
        root = tmp_path / attempt
        root.mkdir()
        state = root / "state.json"
        report = root / "report.json"
        search = root / "search.json"
        ladder = root / "ladder.json"
        fock = root / "fock.json"
        assert main(["random", "--dim", "4", "--kind", "ginibre_mixed", "--seed", "9",
                     "--output", str(state)]) == 0
        assert main(["report", "--input", str(state), "--output", str(report)]) == 0
        assert main(["maximize", "--input", str(state), "--target", "visibility",
                     "--budget", "3000", "--seed", "5", "--output", str(search)]) == 0
        assert main(["infdim", "--family", "gaussian-cv", "--grid-d", "128",
                     "--p-max", "11.3", "--output", str(ladder)]) == 0
        assert main(["infdim", "--family", "thermal-fock", "--nbar", "1.0",
                     "--grid-d", "40", "--output", str(fock)]) == 0
        outputs.append([path.read_bytes() for path in (state, report, search, ladder, fock)])
    matches = [a == b for a, b in zip(*outputs)]
    ok = all(matches)
    assert _verdict(
        "8 seeded-command determinism",
        ok,
        f"5 command outputs byte-identical across two runs: {matches}",
    )
