"""One stochastic path next to its noise-decomposed companions.

The same seed drives four panels of the extinction scenario: the full
dynamics, the noise-free drift, and the two drift-free noise panels, each
a row of one run that says which coefficient groups act on it.
Writes CSVs to ./demo_out and prints where each run ends up.  If
matplotlib is importable, also saves a quick picture.
"""

from pathlib import Path

from ussir import SimConfig, simulate
from ussir.scenario import build_model, bundled_scenario_path, load_scenario

OUT = Path("demo_out")


def main():
    cfg = load_scenario(bundled_scenario_path("table1"))
    model = build_model(cfg)
    sim = SimConfig(horizon=30.0, dt=cfg.dt, seed=cfg.seed, record_stride=20)

    # which of (drift, diffusion, jumps) act on each panel; the panels are
    # the rows of one run, each on the stream a one-path run of the seed uses
    panels = {
        "full dynamics": (True, True, True),
        "drift only": (True, False, False),
        "diffusion only": (False, True, False),
        "jumps only": (False, False, True),
    }
    traj = simulate(model, cfg.initial_state, sim, groups=list(panels.values()))

    OUT.mkdir(exist_ok=True)
    for i, label in enumerate(panels):
        stem = label.replace(" ", "_")
        traj[i : i + 1].write_csv(OUT / f"{stem}.csv")
        x, y, z = traj.states[i, -1]
        print(f"{label:16s} final (X, Y, Z) = ({x:.4f}, {y:.3e}, {z:.4f})")

    print(f"\nCSV files in {OUT.resolve()}")

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not installed; skipping the picture")
        return

    fig, axes = plt.subplots(len(panels), 1, figsize=(8, 10), sharex=True)
    for ax, label, states in zip(axes, panels, traj.states):
        for c, name in enumerate(("susceptible", "infected", "recovered")):
            ax.plot(traj.times, states[:, c], label=name)
        ax.set_ylabel(label, fontsize=8)
    axes[0].legend(loc="upper right", fontsize=8)
    axes[-1].set_xlabel("t")
    fig.tight_layout()
    fig.savefig(OUT / "panels.png", dpi=120)
    print(f"picture saved to {OUT / 'panels.png'}")


if __name__ == "__main__":
    main()
