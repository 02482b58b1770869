"""Graph message passing with an explicit primal-dual debiasing step."""

from .debias import (
    fairness_grad,
    fairness_objective,
    prox_dual,
)
from .graph import (
    IncidentVector,
    SparseGraph,
    build_graph,
    edge_homophily,
    incident_vector,
    smoothness_energy,
)
from .metrics import MetricsReport, accuracy, demographic_parity, equal_opportunity
from .propagation import ppnp_exact

__all__ = [
    "IncidentVector",
    "MetricsReport",
    "SparseGraph",
    "accuracy",
    "build_graph",
    "demographic_parity",
    "edge_homophily",
    "equal_opportunity",
    "fairness_grad",
    "fairness_objective",
    "incident_vector",
    "ppnp_exact",
    "prox_dual",
    "smoothness_energy",
]

__version__ = "0.1.0"
