"""Acceptance suite: one test per criterion, one printed line per clause.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the clause lines.
Every tolerance is pinned here, not configured elsewhere.

Most criteria run at the desk scale 64^3 with box side 16.  Two run on
other grids, forced by the box-admissibility rules the package documents
(the periodic box must hold the state, L at least ~8x the effective
radius, and the homogeneous seminorm quadrature needs the spectral peak
resolved):

* criteria 4-6 use a 64^3 box of side 40: the p = 5/2, alpha = beta = 1
  minimizers have effective radius ~4.5, so an L = 16 box cannot hold
  them (the flow then drains into the torus-constant state, which fails
  every certificate);
* criterion 10's table uses a 128^3 box of side 24 so a factor-4 theta
  schedule stays inside the resolvable width window.

Three criteria check the identity or regime that holds for these inputs,
not a stronger continuum claim:

* criterion 4's virial residual 2 alpha D - beta (p - 2) ||v||_p^p equals
  omega rho - 2 E = 2 rho^2 d/drho [I(rho)/rho] at a constrained minimizer
  and vanishes only at stationary masses of the ratio curve (at rho = 0.1
  it is 0.109 of its scale).  The clause compares it with a central
  difference of I/rho from two more solves at rho (1 +- 0.02) on the same
  grid and config, warm-started from the certified field.  The step is
  small enough that the difference error (9.5e-5 of the scale at +-2%,
  5.9e-4 at +-5%) stays below the 1e-3 tolerance, and the neighbours
  converge in ~900 iterations each from the warm start;
* criterion 5 sweeps rho in {0.025, 0.05, 0.075, 0.1}.  The paper proves
  compactness, and with it the strict decrease of I/rho, only for rho
  small enough.  On this box I/rho of the single-bump branch turns upward
  between 0.1 and 0.125 (its virial residual changes sign there), and
  beyond that the sweep certifies states that are not minimizers
  (I/rho = 0.45568 at 0.5 against 0.44936 at 0.1, which subadditivity
  forbids for minimizers).  The clause that every virial residual is
  negative (d/drho [I/rho] < 0) keeps the sweep on the small-mass side;
* criterion 10's flow runs on a torus, where the infimum of the
  homogeneous energy is not 0 as on R^3 but the flat-state value
  alpha 2 pi T^2 rho^2 / L^3 - beta rho^{p/2} L^{3 - 3p/2}, T = L/2, which
  is O(1/L) and negative here.  The flow must approach that floor from
  above.
"""

import dataclasses
import json

import numpy as np
import pytest

import spslab as sl
from spslab.cli import EXIT_CONFIG, EXIT_OK, EXIT_UNBOUNDED, run
from oracles import (
    direct_sum_potential,
    kernel_table_slow,
    smooth_random_field,
)


class Clauses:
    """Collects pass/fail clauses; prints one line each; asserts at the end."""

    def __init__(self, name):
        self.name = name
        self.failures = []

    def check(self, label, ok, detail=""):
        status = "PASS" if ok else "FAIL"
        line = f"[{self.name}] {status}: {label}" + (f" ({detail})" if detail else "")
        print(line)
        if not ok:
            self.failures.append(line)

    def finish(self):
        assert not self.failures, f"{self.name}: " + "; ".join(self.failures)


# ---------------------------------------------------------------------------
# shared expensive runs


CERT_PARAMS = sl.Params(alpha=1.0, beta=1.0, p=2.5, rho=0.1)
CERT_CONFIG = sl.MinimizeConfig(max_iters=8000, grad_tol=5e-7, init_width=2.0)
# relative mass step of criterion 4's central difference of I/rho
CERT_STEP = 0.02


@pytest.fixture(scope="module")
def certificate_run():
    """Criterion 4 minimization: p = 5/2, alpha = beta = 1, rho = 0.1."""
    return sl.minimize(sl.make_grid(64, 40.0), CERT_PARAMS, CERT_CONFIG)


@pytest.fixture(scope="module")
def certificate_neighbours(certificate_run):
    """Criterion 4 solves at rho (1 -+ CERT_STEP), warm-started from the
    certified field, keyed by the sign of the step."""
    return {
        sign: sl.minimize(
            certificate_run.field.grid,
            dataclasses.replace(CERT_PARAMS, rho=CERT_PARAMS.rho * (1 + sign * CERT_STEP)),
            CERT_CONFIG,
            initial=certificate_run.field,
        )
        for sign in (-1, 1)
    }


@pytest.fixture(scope="module")
def mass_sweep():
    """Criteria 5-6 sweep, warm-started upward from the smallest mass."""
    grid = sl.make_grid(64, 40.0)
    config = sl.MinimizeConfig(max_iters=12000, grad_tol=1e-5, init_width=2.0)
    points = {}
    warm = None
    for rho in [0.025, 0.05, 0.075, 0.1]:
        params = sl.Params(alpha=1.0, beta=1.0, p=2.5, rho=rho)
        result = sl.minimize(grid, params, config, initial=warm)
        warm = result.field
        points[rho] = result
    return points


# ---------------------------------------------------------------------------


def test_criterion_01_coulomb_oracle_equivalence():
    c = Clauses("C1")
    grid = sl.make_grid(16, 8.0)
    kern = sl.coulomb_kernel(grid)
    kappa = kernel_table_slow(grid, kern.symbol)
    worst_phi, worst_d = 0.0, 0.0
    for seed in range(5):
        u = smooth_random_field(grid, 300 + seed)
        density = np.abs(u.values) ** 2
        phi_fft = sl.hartree_potential(u).values.real
        phi_direct = direct_sum_potential(grid, density, kappa)
        err_phi = np.max(np.abs(phi_fft - phi_direct)) / np.max(np.abs(phi_direct))
        d_direct = float(np.sum(phi_direct * density) * grid.cell_volume)
        d_fft = sl.hartree_double_integral(u)
        err_d = abs(d_fft - d_direct) / abs(d_direct)
        worst_phi, worst_d = max(worst_phi, err_phi), max(worst_d, err_d)
    c.check("potential matches O(N^2) direct sum < 1e-6", worst_phi < 1e-6,
            f"worst {worst_phi:.2e}")
    c.check("double integral matches direct sum < 1e-6", worst_d < 1e-6,
            f"worst {worst_d:.2e}")
    c.finish()


def test_criterion_02_gaussian_closed_forms():
    c = Clauses("C2")
    grid = sl.make_grid(64, 16.0)
    u = sl.gaussian_field(grid, 2.0**-0.5)  # exp(-|x|^2)
    ns = sl.norms(u, p=8.0 / 3.0)
    l2_expect = (np.pi / 2.0) ** 1.5
    err = abs(ns.l2_sq - l2_expect) / l2_expect
    c.check("||u||_2^2 = (pi/2)^{3/2} within 1e-3", err < 1e-3, f"rel {err:.2e}")
    err = abs(ns.hdot_half_sq - np.pi) / np.pi
    c.check("homogeneous H^{1/2} square = pi within 1e-3", err < 1e-3, f"rel {err:.2e}")
    d_expect = np.pi**2.5 / 4.0
    d_val = sl.hartree_double_integral(u)
    err = abs(d_val - d_expect) / d_expect
    c.check("D(u) = pi^{5/2}/4 within 1e-2", err < 1e-2, f"rel {err:.2e}")
    c.finish()


def test_criterion_03_gradient_finite_differences():
    c = Clauses("C3")
    grid = sl.make_grid(64, 16.0)
    u = sl.gaussian_field(grid, 2.0**-0.5)
    params = sl.Params(alpha=1.0, beta=1.0, p=8.0 / 3.0, rho=1.0)
    g = sl.gradient(u, params)
    eps = 1e-4
    worst = 0.0
    for trial in range(10):
        d = smooth_random_field(grid, 700 + trial)
        plus = sl.energy(sl.Field(grid, u.values + eps * d.values), params).total
        minus = sl.energy(sl.Field(grid, u.values - eps * d.values), params).total
        fd = (plus - minus) / (2 * eps)
        analytic = sl.inner(g, d).real
        worst = max(worst, abs(fd - analytic) / abs(analytic))
    c.check("10 random directions match central differences < 1e-5", worst < 1e-5,
            f"worst {worst:.2e}")
    c.finish()


def test_criterion_04_minimizer_certificate(certificate_run, certificate_neighbours):
    c = Clauses("C4")
    res = certificate_run
    c.check("run converged", res.converged,
            f"iterations {res.iterations}")
    energies = [t.energy for t in res.trace]
    c.check("energy trace monotone non-increasing",
            all(b <= a for a, b in zip(energies, energies[1:])))
    r = res.residuals
    rho = CERT_PARAMS.rho
    ratio = {
        sign: nb.energy.total / (rho * (1 + sign * CERT_STEP))
        for sign, nb in certificate_neighbours.items()
    }
    c.check("neighbour solves at rho (1 -+ 0.02) converged",
            all(nb.converged for nb in certificate_neighbours.values()),
            " ".join(f"iterations {nb.iterations}" for nb in certificate_neighbours.values()))
    slope_term = 2.0 * rho**2 * (ratio[1] - ratio[-1]) / (2 * CERT_STEP * rho)
    gap = abs(r.virial_residual - slope_term) / r.virial_scale
    c.check("virial residual = 2 rho^2 d/drho[I/rho] within 1e-3 of its scale",
            gap <= 1e-3,
            f"residual {r.virial_residual:.6e}, curve slope term {slope_term:.6e}, "
            f"gap {gap:.3e} of scale {r.virial_scale:.3e}")
    c.check("dilation-identity relative residual < 1e-4", r.pohozaev_rel < 1e-4,
            f"measured {r.pohozaev_rel:.3e}")
    c.check("Euler-Lagrange relative residual < 1e-6", r.el_residual_rel < 1e-6,
            f"measured {r.el_residual_rel:.3e}")
    c.finish()


def test_criterion_05_small_mass_laws(mass_sweep):
    c = Clauses("C5")
    rhos = sorted(mass_sweep)
    for rho in rhos:
        c.check(f"rho={rho} converged", mass_sweep[rho].converged,
                f"iterations {mass_sweep[rho].iterations}")
    ratios = {rho: mass_sweep[rho].energy.total / rho for rho in rhos}
    c.check("every ratio I(rho)/rho < 1/2",
            all(v < 0.5 for v in ratios.values()),
            " ".join(f"{rho}:{ratios[rho]:.5f}" for rho in rhos))
    for small, large in zip(rhos, rhos[1:]):
        c.check(
            f"ratio({small}) > ratio({large})",
            ratios[small] > ratios[large],
            f"{ratios[small]:.6f} vs {ratios[large]:.6f}",
        )
    # virial residual = 2 rho^2 d/drho [I/rho] (criterion 4): negative on the
    # small-mass side of the ratio curve's stationary mass
    virials = {rho: mass_sweep[rho].residuals.virial_residual for rho in rhos}
    c.check("every virial residual < 0 (small-mass side of the ratio curve)",
            all(v < 0 for v in virials.values()),
            " ".join(f"{rho}:{virials[rho]:.3e}" for rho in rhos))
    c.finish()


def test_criterion_06_small_mass_norm_bound(mass_sweep):
    c = Clauses("C6")
    values = [
        np.sqrt(res.energy.norms.h_half_sq / rho) for rho, res in mass_sweep.items()
    ]
    spread = max(values) / min(values)
    c.check("||v||_{H^{1/2}} / sqrt(rho) spread max/min < 3", spread < 3.0,
            f"spread {spread:.4f}")
    c.finish()


def test_criterion_07_weinstein_invariances():
    c = Clauses("C7")
    grid = sl.make_grid(64, 16.0)
    u = sl.gaussian_field(grid, 1.0)
    q = sl.weinstein_quotient(u)
    q3 = sl.weinstein_quotient(sl.Field(grid, 3.0 * u.values))
    err = abs(q - q3) / q
    c.check("amplitude invariance to 1e-12", err < 1e-12, f"rel {err:.2e}")

    theta = 1.5
    base_prof = sl.GaussianProfile(width=1.0)
    dil = base_prof.dilated(theta).sample(grid)
    ns_b, ns_d = sl.norms(u, 8 / 3), sl.norms(dil, 8 / 3)
    checks = [
        ("||.||_{8/3} exponent -9/8",
         ns_d.lp_p ** 0.375, theta ** (-9 / 8) * ns_b.lp_p ** 0.375),
        ("seminorm-square exponent -2",
         ns_d.hdot_half_sq, theta**-2 * ns_b.hdot_half_sq),
        ("D exponent -5",
         sl.hartree_double_integral(dil), theta**-5 * sl.hartree_double_integral(u)),
    ]
    for label, got, expect in checks:
        err = abs(got - expect) / abs(expect)
        c.check(f"{label} to 1e-3", err < 1e-3, f"rel {err:.2e}")

    err = abs(q - 0.685) / 0.685
    c.check("Gaussian quotient = 0.685 within 1e-2", err < 1e-2, f"q {q:.5f}")
    est = sl.estimate_best_constant(grid, sl.AscentConfig(steps=1, init_kind="gaussian"))
    c.check("s_lower >= 0.68", est.s_lower >= 0.68, f"s_lower {est.s_lower:.5f}")
    c.finish()


def test_criterion_08_threshold_arithmetic():
    c = Clauses("C8")
    lhs = (27.0 * 1.0 / 3.0**3) ** 0.125
    c.check("(27/27)^{1/8} = 1 exactly", lhs == 1.0, f"lhs {lhs!r}")
    table = [
        (1.0, 3.0, 0.9, "unbounded_certified"),   # lhs 1 < 1.2728
        (1.0, 3.0, 0.69, "indeterminate"),        # lhs 1 > 0.9758
        (1.0e6, 1.0, 0.73, "indeterminate"),      # lhs ~8.5, one-sidedness
        (16.0, 3.0, 1.0, "indeterminate"),        # exact equality case
    ]
    for alpha, beta, s_lower, expected in table:
        v = sl.classify_boundedness(alpha, beta, s_lower)
        c.check(
            f"({alpha}, {beta}, s={s_lower}) -> {expected}",
            v.verdict == expected,
            f"lhs {v.lhs:.6g} rhs_lower {v.rhs_lower:.6g}",
        )
    equality = sl.classify_boundedness(16.0, 3.0, 1.0)
    c.check("equality case compares exactly equal",
            equality.lhs == equality.rhs_lower)
    c.finish()


def test_criterion_09_blowup_regime(tmp_path):
    c = Clauses("C9")
    grid = sl.make_grid(64, 16.0)
    params = sl.Params(alpha=1.0, beta=40.0, p=8.0 / 3.0, rho=40.0)
    mass = sl.GaussianProfile(width=2.0).sample(grid).mass()
    profile = sl.GaussianProfile(width=2.0, amplitude=np.sqrt(params.rho / mass))
    phi = profile.sample(grid)

    e_tilde = sl.energy(phi, dataclasses.replace(params, variant="homogeneous")).total
    c.check("seed has negative homogeneous energy (verified sign)", e_tilde < 0,
            f"E_hom {e_tilde:.4f}")
    res = sl.blowup_experiment(phi, params, [1.0, 2.0, 4.0], profile=profile)
    c.check("experiment proceeded with 3 rows",
            res.proceeded and len(res.rows) == 3)
    energies = [r.energy for r in res.rows]
    c.check("E strictly decreasing at the last two points",
            energies[2] < energies[1] < energies[0],
            " ".join(f"{e:.1f}" for e in energies))
    ratios = [r.energy_tilde / r.theta for r in res.rows]
    spread = (max(ratios) - min(ratios)) / abs(ratios[0])
    c.check("E_hom(phi_theta)/theta constant to 1e-2", spread < 1e-2,
            f"spread {spread:.2e}")

    config = {
        "grid": {"n": 64, "box_length": 16.0},
        "params": params.to_dict(),
        "minimize": {"max_iters": 2000, "init_width": 2.0, "energy_floor": -1000.0},
    }
    cfg_path = tmp_path / "unbounded.json"
    cfg_path.write_text(json.dumps(config))
    code = run(["minimize", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
    c.check("minimize exits with the unbounded-detected status",
            code == EXIT_UNBOUNDED, f"exit {code}")
    c.finish()


def test_criterion_10_nonattainment_mechanism():
    c = Clauses("C10")
    # blow-down table on a grid whose width window holds the factor-4 schedule
    grid = sl.make_grid(128, 24.0)
    params = sl.Params(alpha=1.0, beta=1.0, p=8.0 / 3.0, rho=0.05)
    mass = sl.GaussianProfile(width=0.38).sample(grid).mass()
    profile = sl.GaussianProfile(width=0.38, amplitude=np.sqrt(params.rho / mass))
    phi = profile.sample(grid)
    res = sl.blowdown_experiment(phi, params, [1.0, 0.5, 0.25], profile=profile)
    c.check("all rows have positive homogeneous energy",
            res.proceeded and all(r.energy_tilde > 0 for r in res.rows),
            " ".join(f"{r.energy_tilde:.2e}" for r in res.rows))
    ratios = [r.energy_tilde / r.theta for r in res.rows]
    spread = (max(ratios) - min(ratios)) / ratios[0]
    c.check("E_hom(phi_theta)/theta constant to 1e-2", spread < 1e-2,
            f"spread {spread:.2e}")
    hdots = [r.hdot_half for r in res.rows]
    c.check("seminorm decreasing toward 0",
            hdots[0] > hdots[1] > hdots[2] > 0,
            " ".join(f"{h:.4f}" for h in hdots))
    masses = [r.mass for r in res.rows]
    c.check("mass stays at rho along the schedule",
            all(abs(m - params.rho) / params.rho < 1e-6 for m in masses))

    # homogeneous-variant minimization drives the seminorm down
    flow_grid = sl.make_grid(32, 16.0)
    start = sl.project_mass(sl.gaussian_field(flow_grid, 1.0), params.rho)
    hdot0 = np.sqrt(sl.norms(start, 8.0 / 3.0).hdot_half_sq)
    hom_params = dataclasses.replace(params, variant="homogeneous")
    e_tilde0 = sl.energy(start, hom_params).total
    config = sl.MinimizeConfig(max_iters=1500, grad_tol=1e-12, init_width=1.0)
    flow = sl.minimize(flow_grid, hom_params, config)
    hdot_final = np.sqrt(flow.energy.norms.hdot_half_sq)
    c.check("seminorm driven below 1e-2 of its initial value",
            hdot_final < 1e-2 * hdot0,
            f"ratio {hdot_final / hdot0:.2e}")
    e_final = flow.energy.total
    c.check("homogeneous energy tends to 0 (|E_hom| < 5% of initial)",
            abs(e_final) < 0.05 * e_tilde0,
            f"E_hom {e_final:.3e} from {e_tilde0:.3e}")
    # the torus's infimum is the constant field's energy, with the Coulomb
    # kernel truncated at T = L/2, not R^3's 0
    L, rho, p = flow_grid.box_length, params.rho, params.p
    e_flat = (params.alpha * rho**2 * 2 * np.pi * (L / 2) ** 2 / L**3
              - params.beta * (rho / L**3) ** (p / 2) * L**3)
    lowest = min(t.energy for t in flow.trace)
    c.check("no trace energy below the flat-state floor (approach from above)",
            lowest >= e_flat - 1e-12 * abs(e_flat),
            f"lowest {lowest:.16e}, floor {e_flat:.16e}")
    c.check("final energy at the flat-state floor within 1e-6 of initial",
            abs(e_final - e_flat) <= 1e-6 * e_tilde0,
            f"E_hom final {e_final:.16e}, floor {e_flat:.16e}")
    c.finish()


def test_criterion_11_modulus_inequality():
    c = Clauses("C11")
    grid = sl.make_grid(64, 16.0)
    rng = np.random.default_rng(2024)
    worst = -np.inf
    for _ in range(20):
        w = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        ns_w = sl.norms(sl.Field(grid, w), p=8.0 / 3.0)
        ns_abs = sl.norms(sl.Field(grid, np.abs(w).astype(complex)), p=8.0 / 3.0)
        worst = max(worst, ns_abs.h_half_sq - ns_w.h_half_sq)
    c.check("|| |w| ||^2 <= ||w||^2 + 1e-10 for 20 random complex fields",
            worst <= 1e-10, f"worst excess {worst:.2e}")
    c.finish()


def test_criterion_12_reproducibility_and_exit_codes(tmp_path):
    c = Clauses("C12")
    payload = {
        "grid": {"n": 16, "box_length": 8.0},
        "params": {"alpha": 1.0, "beta": 1.0, "p": 2.5, "rho": 0.1},
        "minimize": {"max_iters": 60, "grad_tol": 1e-7, "init_width": 2.0},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    code1 = run(["minimize", "--config", str(cfg), "--out", str(out1)])
    code2 = run(["minimize", "--config", str(cfg), "--out", str(out2)])
    c.check("both runs succeed", code1 == EXIT_OK and code2 == EXIT_OK)
    r1 = json.loads((out1 / "result.json").read_text())
    r2 = json.loads((out2 / "result.json").read_text())
    c.check("identical configs reproduce the result document", r1 == r2)
    c.check("field snapshots byte-identical",
            (out1 / "field.spsf").read_bytes() == (out2 / "field.spsf").read_bytes())
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    m1.pop("wall_time_s"), m2.pop("wall_time_s")
    c.check("manifests identical up to wall time", m1 == m2)

    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    c.check("malformed config exits 2",
            run(["minimize", "--config", str(bad), "--out", str(tmp_path / "b")])
            == EXIT_CONFIG)

    zero_payload = dict(payload, minimize={"max_iters": 0})
    zcfg = tmp_path / "zero.json"
    zcfg.write_text(json.dumps(zero_payload))
    zout = tmp_path / "z"
    code = run(["minimize", "--config", str(zcfg), "--out", str(zout)])
    zres = json.loads((zout / "result.json").read_text())
    c.check("zero-budget run exits 0 with valid files",
            code == EXIT_OK and zres["iterations"] == 0
            and (zout / "field.spsf").exists())

    unbounded_payload = {
        "grid": {"n": 16, "box_length": 8.0},
        "params": {"alpha": 1.0, "beta": 40.0, "p": 8.0 / 3.0, "rho": 40.0},
        "minimize": {"max_iters": 500, "init_width": 1.0, "energy_floor": -200.0},
    }
    ucfg = tmp_path / "unb.json"
    ucfg.write_text(json.dumps(unbounded_payload))
    c.check("unbounded-regime run exits 4",
            run(["minimize", "--config", str(ucfg), "--out", str(tmp_path / "u")])
            == EXIT_UNBOUNDED)
    c.finish()
