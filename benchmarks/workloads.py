"""Seeded inputs for the two benchmark workloads.

Each workload is a :class:`Plan`: a set of scenario documents written to
files, plus which of them go through each ``selftrig`` command.  Every
workload runs the whole user pipeline (``synth`` -> ``verify`` ->
``simulate`` -> ``sweep``) so that every end-to-end metric exists on every
workload; the workloads differ in which step carries the weight:

* ``channel`` -- online work: four loops on one channel, long horizon.
  The scheduler, the simulator event loop and CSV emission dominate.
* ``sweep``   -- offline work: the shipped integrator sweep (10 alphas x
  20 runs, waits 1..15, one loop), plus a design set of slowly converging
  Riccati fixed points and higher-order random plants that goes through
  ``synth`` and ``verify`` only.  Both event loops, the widest table scan,
  lifting, the Riccati solve, certificates and table I/O dominate.

The seed changes realizations (noise, initial states, random plant
entries), never sizes or plant structure, so the amount of work per run
stays statistically constant across seeds.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_SEED = 1
WORKLOADS = ("channel", "sweep")

# README alphas for the shipped integrator sweep.
README_ALPHAS = (0.0, 0.05, 0.25, 1.3, 5.0, 25.0, 50.0, 500.0, 1e4, 1e6)


@dataclass(frozen=True)
class Plan:
    """Inputs of one workload and the commands that consume them.

    ``synth`` lists scenario stems that are synthesized and then verified;
    ``simulate`` is simulated against its synthesized tables and replayed;
    ``sweep`` is swept over ``alphas`` with ``runs`` runs per alpha.
    """

    name: str
    scenarios: dict
    synth: tuple
    simulate: str
    sweep: str
    alphas: tuple
    runs: int
    sweep_seed: int

    def simulate_loop_steps(self) -> int:
        doc = self.scenarios[self.simulate]
        return doc["horizon"] * len(doc["loops"])

    def sweep_loop_steps(self) -> int:
        """Loop-steps of the adaptive runs plus the matched periodic baseline."""
        doc = self.scenarios[self.sweep]
        per_run = doc["horizon"] * len(doc["loops"])
        return 2 * len(self.alphas) * self.runs * per_run

    def write(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        for stem, doc in self.scenarios.items():
            (directory / f"{stem}.json").write_text(json.dumps(doc, indent=1) + "\n")


def _flat(M) -> list:
    return [float(v) for v in np.asarray(M, dtype=float).ravel()]


def _loop(name, A, B, E, Q, R, alpha, x0_variance, noise_variance) -> dict:
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.asarray(B, dtype=float).reshape(A.shape[0], -1)
    E = np.asarray(E, dtype=float).reshape(A.shape[0], -1)
    return {
        "name": name,
        "n": A.shape[0],
        "m": B.shape[1],
        "w": E.shape[1],
        "A": _flat(A),
        "B": _flat(B),
        "E": _flat(E),
        "Q": _flat(Q),
        "R": _flat(R),
        "alpha": float(alpha),
        "x0_variance": float(x0_variance),
        "noise_variance": float(noise_variance),
    }


def _scenario(name, loops, I0, p, horizon, seed) -> dict:
    return {
        "schema_version": 1,
        "name": name,
        "loops": loops,
        "I0": list(I0),
        "p": int(p),
        "horizon": int(horizon),
        "seed": int(seed),
        "mode": "self_triggered",
    }


def channel(seed: int, smoke: bool = False) -> Plan:
    """Four loops share one channel with p = 5 and I0 = 1..5.

    Small alphas keep every loop asking for short waits, so the channel is
    nearly saturated (4 transmissions per 5 slots) and after k = 0 every
    decision faces 3 opposing reservations.
    """
    horizon, sweep_horizon = (300, 40) if smoke else (5_000, 200)
    loops = [
        _loop(f"scalar_a{a:g}", [[a]], [1.0], [1.0], [[1.0]], [[1.0]], 0.2, 25.0, 0.1)
        for a in (0.8, 1.0, 1.1)
    ]
    loops.append(
        _loop(
            "double_integrator",
            [[1.0, 0.0], [1.0, 1.0]], [1.0, 0.5], [1.0, 1.0],
            np.eye(2), [[0.1]], 1.0, 25.0, 0.1,
        )
    )
    I0 = range(1, 6)
    return Plan(
        name="channel",
        scenarios={
            "channel": _scenario("channel", loops, I0, 5, horizon, seed),
            "channel_sweep": _scenario("channel-sweep", loops, I0, 5, sweep_horizon, seed),
        },
        synth=("channel",),
        simulate="channel",
        sweep="channel_sweep",
        alphas=(0.2, 1.0),
        runs=2,
        sweep_seed=seed,
    )


def _random_plant(rng, n: int, m: int):
    """Random controllable pair with spectral radius drawn in [0.6, 0.95]."""
    A = rng.standard_normal((n, n))
    A *= rng.uniform(0.6, 0.95) / max(abs(np.linalg.eigvals(A)))
    B = rng.standard_normal((n, m))
    return A, B


def design_set(seed: int, smoke: bool = False) -> dict:
    """Scenarios that exercise offline synthesis, by stem.

    * Integrators with light state weight Q in {1e-6, 1e-5} at terminal
      periods p in {1, 2, 3}: the periodic Riccati fixed point converges
      slowly here.  These are fixed (not seeded), so the largest Riccati
      error of the workload does not depend on the seed.
    * Random stable plants, n = 4..6 and m = 1..2, I0 = 1..20, two loops
      per scenario: lifting, certificates and 17-digit table files dominate.
    """
    rng = np.random.default_rng([seed, 0xD5])
    scenarios = {}
    for q in (1e-5,) if smoke else (1e-6, 1e-5):
        for p in (3,) if smoke else (1, 2, 3):
            stem = f"integrator_q{q:g}_p{p}"
            lp = _loop("integrator", [[1.0]], [1.0], [1.0], [[q]], [[1.0]], 0.1, 1.0, 0.0)
            scenarios[stem] = _scenario(stem, [lp], range(1, p + 1), p, 100, seed)
    shapes = (((4, 1), (5, 2)),) if smoke else (((4, 1), (5, 2)), ((6, 1), (4, 2)), ((5, 1), (6, 2)))
    for j, pair in enumerate(shapes):
        loops = []
        for idx, (n, m) in enumerate(pair):
            A, B = _random_plant(rng, n, m)
            loops.append(
                _loop(f"plant{idx}", A, B, np.ones(n), np.eye(n), np.eye(m), 0.005, 1.0, 0.01)
            )
        scenarios[f"random_{j}"] = _scenario(f"random_{j}", loops, range(1, 21), 20, 100, seed)
    return scenarios


def sweep(seed: int, smoke: bool = False) -> Plan:
    """The shipped ``scenarios/integrator_sweep.json`` loop, README alphas, 20 runs,
    with the design set riding along through ``synth`` and ``verify``.

    The sweep horizon is shortened from the shipped 2000 steps so that one
    sweep fits many times into a run; the alpha/run grid, and with it the
    number of table builds and Riccati solves, is unchanged.  The
    simulated copy uses alpha = 0.25 so the replayed decisions spread over
    the waits 1..15.
    """
    horizon, sweep_horizon = (300, 10) if smoke else (6_000, 100)

    def doc(name, alpha, H):
        lp = _loop("integrator", [[1.0]], [1.0], [1.0], [[1.0]], [[0.1]], alpha, 2500.0, 0.1)
        return _scenario(name, [lp], range(1, 16), 15, H, seed)

    designs = design_set(seed, smoke)
    return Plan(
        name="sweep",
        scenarios={
            "integrator": doc("integrator", 0.25, horizon),
            "integrator_sweep": doc("integrator-alpha-sweep", 0.0, sweep_horizon),
            **designs,
        },
        synth=("integrator", *designs),
        simulate="integrator",
        sweep="integrator_sweep",
        alphas=README_ALPHAS,
        runs=20,
        sweep_seed=seed,
    )


def make_plan(name: str, seed: int, smoke: bool = False) -> Plan:
    try:
        build = {"channel": channel, "sweep": sweep}[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}") from None
    return build(seed, smoke)
