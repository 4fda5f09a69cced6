"""Pinned trajectories and criteria reports of the bundled scenarios.

Final states of ``simulate`` at horizon 1 under each scenario's own seed
and time step, recorded from the hand-written named-model coefficients.  A
change to a named model's arithmetic, draw order or safeguard shows up here
even when reruns of one version stay byte-identical.  The noise panels
``ussir simulate`` writes next to the stochastic path (the deterministic
companion and, where the model has that noise, the diffusion-only and
jumps-only runs of copies rebuilt from a reduced table) are pinned the same way.  The closed-form
reports are pinned the same way: classification and gate verdicts exactly,
numbers to rtol 1e-12.  One custom model whose jumps read the mark pins
the mark values, which the bundled coefficients never read.
"""

import numpy as np
import pytest

from ussir.criteria import report_for_model
from ussir.integrator import SimConfig, _path_key, run_paths, simulate
from ussir.models import OCTANT, build_custom
from ussir.montecarlo import run_ensemble
from ussir.scenario import sim_config

FINAL_STATES = {
    "table1": (0.7997731139899994, 0.08533053616043812, 0.1148963498495607),
    "table2": (0.8350464388000832, 0.10513205524804199, 0.05982150595187609),
    "table3": (1.9534540624585806, 0.5047627634994356, 1.4735619314787276),
    "table4": (1.9406498201018656, 0.6206016586523977, 1.3860106688563785),
    "table5": (1.4826137823459093, 1.2108666764046407, 1.1552541788326716),
    "table6": (3.902513632507393, 1.2991633746985025, 1.0402332529569125),
    "table7": (6.192224966176003, 3.00118583560818, 0.7718500545128878),
}


@pytest.mark.parametrize("name", sorted(FINAL_STATES))
def test_final_state_pinned(scenario, name):
    cfg, model = scenario(name)
    traj = simulate(model, cfg.initial_state, sim_config(cfg, horizon=1.0))
    np.testing.assert_allclose(traj.states[0, -1], FINAL_STATES[name], rtol=1e-12, atol=0.0)


PANELS = {
    "deterministic": {},
    "diffusion_only": {"drift": True, "diffusion": False},
    "jumps_only": {"drift": True, "jumps": False},
}

# (scenario, panel): final state; a panel is absent where the model lacks its noise
PANEL_FINAL_STATES = {
    ("table1", "deterministic"): (0.767694158608839, 0.10585027473154195, 0.12645556665961855),
    ("table1", "diffusion_only"): (0.8453688321165375, 0.14455421278492728, 0.010076955098534329),
    ("table1", "jumps_only"): (0.7481688105724117, 0.24095122918828685, 0.010879960239301807),
    ("table2", "deterministic"): (0.8353108667374838, 0.10473896061093294, 0.05995017265158231),
    ("table2", "diffusion_only"): (0.8497934484551014, 0.1004131030897984, 0.04979344845510081),
    ("table2", "jumps_only"): (0.8489790763785849, 0.10008970750277886, 0.05093121611863642),
    ("table3", "deterministic"): (2.2246366908203643, 0.33107874172935037, 1.393469567908137),
    ("table3", "diffusion_only"): (1.5992668680982678, 1.2007331319017303, 1.0),
    ("table4", "deterministic"): (2.2246366908203643, 0.33107874172935037, 1.393469567908137),
    ("table4", "diffusion_only"): (1.3211889965796804, 1.47881100342032, 1.0),
    ("table5", "deterministic"): (1.4078837460590894, 1.2885372084518776, 1.156242494965921),
    ("table5", "diffusion_only"): (2.0941855024202685, 0.7058144975797349, 1.0),
    ("table6", "deterministic"): (3.982423055889882, 1.2019315804988489, 1.0671401072229407),
    ("table6", "diffusion_only"): (3.688857808533183, 1.2680624419347946, 1.043079749532024),
    ("table6", "jumps_only"): (3.747999999999954, 1.1495999999999533, 1.1024000000000926),
    ("table7", "deterministic"): (7.072967105017476, 1.2967023895943512, 1.594046660040453),
    ("table7", "diffusion_only"): (6.552964239001896, 2.9340715219962226, 0.3929642390018901),
    ("table7", "jumps_only"): (7.280399999999955, 1.4825999999999062, 1.1169999999999178),
}


@pytest.mark.parametrize("name,panel", sorted(PANEL_FINAL_STATES))
def test_panel_final_state_pinned(scenario, reduced, name, panel):
    cfg, model = scenario(name)
    traj = simulate(reduced(model, **PANELS[panel]), cfg.initial_state, sim_config(cfg, horizon=1.0))
    np.testing.assert_allclose(traj.states[0, -1], PANEL_FINAL_STATES[name, panel], rtol=1e-12, atol=0.0)


# name: (y_final, lyapunov) of run_ensemble at horizon 0.5 with 200 paths, each as
# (mean, min, max, mean of (i+1)/paths * value); the weighted mean catches a
# reordering of the paths
ENSEMBLE_SUMMARIES = {
    "table1": (
        (0.1545637440472318, 0.06401173000837442, 0.275748012163336, 0.07793451389465163),
        (-0.47288362521415345, -2.175915448427889, 0.7449267542212903, -0.23364012853678415),
    ),
    "table2": (
        (0.10218312899028671, 0.09965679643202702, 0.10501607824375547, 0.05138717348051644),
        (0.04306784476814245, -0.006875877248261553, 0.09788655715565397, 0.0224252488831938),
    ),
    "table6": (
        (1.1697956242239536, 0.8453409656637507, 1.4326731184191333, 0.5923045330132172),
        (0.024805879060848364, -0.6155543314540171, 0.4395601409682555, 0.020121031515254927),
    ),
    "table7": (
        (1.513922819969079, 0.08977755488483002, 3.516018045938074, 0.737999096944138),
        (-0.544760641402474, -5.631770777253969, 1.703728008441912, -0.32404272546564145),
    ),
}


@pytest.mark.parametrize("name", sorted(ENSEMBLE_SUMMARIES))
def test_ensemble_pinned(scenario, name):
    cfg, model = scenario(name)
    paths = 200
    stats = run_ensemble(model, cfg.initial_state, sim_config(cfg, horizon=0.5), paths)
    weights = np.arange(1, paths + 1) / paths
    got = [(arr.mean(), arr.min(), arr.max(), (weights * arr).mean()) for arr in (stats.y_final, stats.lyapunov)]
    np.testing.assert_allclose(got, ENSEMBLE_SUMMARIES[name], rtol=1e-12, atol=0.0)


# per component x, y, z of the final states of 60 paths of a custom model whose
# jumps read the mark, differently per region (no bundled jump coefficient
# does): (mean, min, max, mean of (i+1)/paths * value).  A change to the mark
# values or to their place in the stream shows up here.
MARKED_FINAL_STATES = (
    (0.901847591590007, 0.536223078337949, 1.5974752893794808, 0.460478005508779),
    (5.032533474493978, 3.778113725179101, 7.54194388696984, 2.575896991998999),
    (4.973715408174468, 0.7642334803791935, 11.816355785610456, 2.606176098872629),
)


def test_marked_jumps_pinned():
    model = build_custom(
        domain=OCTANT, drift=("-0.1*x", "0", "0"), diffusion=(("0.2*x", "0", "0"),),
        small_jump=("0.1*u*x", "u", "0"), large_jump=("0.05*u*x", "0", "u"),
    )
    paths = 60
    cfg = SimConfig(horizon=1.0, dt=0.02, seed=4)
    traj = run_paths(model, (1.0, 5.0, 5.0), cfg, [_path_key(s, 0) for s in range(paths)])
    final = traj.states[:, -1]
    weights = np.arange(1, paths + 1) / paths
    got = [(col.mean(), col.min(), col.max(), (weights * col).mean()) for col in final.T]
    np.testing.assert_allclose(got, MARKED_FINAL_STATES, rtol=1e-12, atol=0.0)
    assert traj.floor_hits.sum() == 1


NUMBERS = ("extinction_rate_lb", "lambda0", "lam", "mean_infected_lb", "r_tilde", "invariant_set_bound")

# name: (classification, numeric fields that are set, (gate, satisfied, lhs, rhs) per side condition)
REPORTS = {
    "table1": (
        "extinct",
        {
            "extinction_rate_lb": 0.15999999999999998,
        },
        (
            ("beta_sup_plus_2g1_lt_gamma_inf", True, 0.6000000000000001, 0.76),
        ),
    ),
    "table2": (
        "persistent",
        {
            "lambda0": 0.55,
            "lam": 0.07763669844543664,
            "mean_infected_lb": 0.14115763353715752,
        },
        (
            ("gamma1_sup_lt_beta_inf", True, 0.13, 0.16),
            ("beta_inf_le_gamma2_inf", True, 0.16, 0.55),
            ("noise_bracket_lt_half_gap", True, 0.1711816507772817, 0.21000000000000002),
        ),
    ),
    "table3": (
        "extinct",
        {
            "extinction_rate_lb": 0.2414920000476942,
            "r_tilde": 0.7646276802654053,
            "invariant_set_bound": 8.484848484848484,
        },
        (
            ("sigma_inf_sq_le_low_noise_cap", True, 0.011205887450304569, 0.0165),
            ("r_tilde_lt_one", True, 0.7646276802654053, 1.0),
            ("sigma_inf_sq_gt_high_noise_floor", False, 0.0165, 0.011205887450304569),
            ("r_tilde_pers_gt_one", False, 1.0, 0.05419403278566359),
        ),
    ),
    "table4": (
        "extinct",
        {
            "extinction_rate_lb": 0.9930976533023447,
            "r_tilde": -9.292072715075097,
            "invariant_set_bound": 8.484848484848484,
        },
        (
            ("sigma_inf_sq_le_low_noise_cap", False, 0.2978510952441688, 0.0165),
            ("r_tilde_lt_one", True, -9.292072715075097, 1.0),
            ("sigma_inf_sq_gt_high_noise_floor", True, 0.0165, 0.2978510952441688),
            ("r_tilde_pers_gt_one", False, 1.0, -8.520605221159002),
        ),
    ),
    "table5": (
        "persistent",
        {
            "lambda0": 4.786486486486486,
            "lam": 0.30133140535188474,
            "mean_infected_lb": 0.06295461320169247,
            "r_tilde": 1.467905908931498,
            "invariant_set_bound": 8.484848484848484,
        },
        (
            ("sigma_inf_sq_le_low_noise_cap", True, 0.05101177490060914, 0.06717857142857143),
            ("r_tilde_lt_one", False, 10.135564564242305, 1.0),
            ("sigma_inf_sq_gt_high_noise_floor", False, 0.5488175675675677, 0.05101177490060914),
            ("r_tilde_pers_gt_one", True, 1.0, 1.467905908931498),
        ),
    ),
    "table6": (
        "persistent",
        {
            "lambda0": 1.16,
            "lam": 0.07509924816827178,
            "mean_infected_lb": 0.06474073117954464,
        },
        (
            ("mu_sup_lt_gamma2_inf", True, 0.0021, 0.09999999999999999),
            ("noise_lt_twice_growth_floor", True, 0.045601503663456416, 0.19579999999999997),
        ),
    ),
    "table7": (
        "extinct",
        {
            "extinction_rate_lb": 0.16499999999999998,
        },
        (
            ("beta_sup_plus_2g1_lt_gamma2_inf_plus_mu_inf", True, 0.14700000000000002, 0.312),
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_pinned(scenario, name):
    classification, numbers, gates = REPORTS[name]
    report = report_for_model(scenario(name)[1])
    assert report.classification == classification
    for field in NUMBERS:
        value = getattr(report, field)
        if field in numbers:
            np.testing.assert_allclose(value, numbers[field], rtol=1e-12, atol=0.0)
        else:
            assert value is None
    assert [(c.name, c.satisfied) for c in report.side_conditions] == [g[:2] for g in gates]
    np.testing.assert_allclose(
        [(c.lhs, c.rhs) for c in report.side_conditions], [g[2:] for g in gates], rtol=1e-12, atol=0.0
    )
