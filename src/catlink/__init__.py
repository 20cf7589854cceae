"""Kerr-cat qubit repeater toolkit.

Simulation and analysis for a cat-qubit quantum-repeater architecture:
state preparation and gates under photon loss, GRAPE pulse shaping, device
parameter estimation, microwave-to-spin transduction efficiency, and
entanglement-distribution rates, fidelities, and crossover distances.
"""

__version__ = "0.1.0"

from . import (qcore, dynamics, catqubit, pulseopt, device,  # noqa: F401
               transducer, repeater, scenarios, config)
