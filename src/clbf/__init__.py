"""Robust neural Lyapunov-barrier certificates for reach-while-avoid control.

Train a controller and certificate jointly, verify the robust certificate
conditions with a sound interval branch-and-bound checker, and evaluate
empirical robustness under adversarial and random state perturbations.
"""

from .boxes import Box, subtract_boxes
from .certificate import ClbfParams, FilteredCertificate, filtered_upper_bound
from .envs import EnvSpec, docking_env, make_env, pendulum_env
from .nets import (
    Adam,
    Mlp,
    backward,
    forward_batch,
    forward_tape,
    ibp_bounds,
    init_mlp,
    linf_lipschitz_bound,
    spectral_product_grads,
)
from .adversary import PgdConfig
from .losses import (
    Batch,
    LossWeights,
    TotalLossConfig,
    loss_dec_grads,
    loss_init_grads,
    loss_lip_global_grads,
    total_loss_grads,
)

__version__ = "0.1.0"
