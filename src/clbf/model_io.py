"""Versioned model documents: policy + certificate + parameters in one file.

Plain JSON with repr-round-tripped floats, so a load reproduces the exact
training-time weights bit for bit. The conventional extension is .clbf.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .certificate import ClbfParams, FilteredCertificate
from .envs import make_env
from .nets import Mlp

FORMAT_TAG = "clbf-model/2"


def _net_doc(net: Mlp) -> dict:
    acts = ["relu"] * (len(net.weights) - 1) + ["affine"]
    return {
        "dims": net.dims,
        "activations": acts,
        "weights": [W.reshape(-1).tolist() for W in net.weights],  # row-major
        "biases": [b.tolist() for b in net.biases],
    }


def _net_from_doc(doc: dict) -> Mlp:
    dims = doc["dims"]
    weights, biases = [], []
    for k, (n_in, n_out) in enumerate(zip(dims[:-1], dims[1:])):
        W = np.array(doc["weights"][k], dtype=float).reshape(n_out, n_in)
        weights.append(W)
        biases.append(np.array(doc["biases"][k], dtype=float))
    return Mlp(weights, biases)


def _model_doc(policy: Mlp, cert: FilteredCertificate) -> dict:
    return {
        "format": FORMAT_TAG,
        "env": cert.env.name,
        "env_constants": cert.env.constants,
        "clbf_params": asdict(cert.params),
        "policy": _net_doc(policy),
        "certificate": _net_doc(cert.net),
    }


def save_model(path: str | Path, policy: Mlp, cert: FilteredCertificate) -> Path:
    path = Path(path)
    path.write_text(json.dumps(_model_doc(policy, cert), indent=1))
    return path


def load_model(path: str | Path) -> tuple[Mlp, FilteredCertificate]:
    doc = json.loads(Path(path).read_text())
    if doc.get("format") != FORMAT_TAG:
        raise ValueError(f"unsupported model format: {doc.get('format')!r}")
    missing = [k for k in ("env", "clbf_params", "policy", "certificate") if k not in doc]
    if missing:
        raise ValueError(f"model document lacks sections {missing}")
    env = make_env(doc["env"], doc.get("env_constants"))
    policy = _net_from_doc(doc["policy"])
    cert_net = _net_from_doc(doc["certificate"])
    given, known = set(doc["clbf_params"]), {f.name for f in fields(ClbfParams)}
    if given != known:
        raise ValueError(f"clbf_params: unknown keys {sorted(given - known)}, "
                         f"missing keys {sorted(known - given)}")
    params = ClbfParams(**doc["clbf_params"]).validate()
    if policy.n_in != env.state_dim or policy.n_out != env.control_dim:
        raise ValueError("policy dimensions do not match the environment")
    return policy, FilteredCertificate(cert_net, params, env)


def model_bytes(policy: Mlp, cert: FilteredCertificate) -> bytes:
    """Canonical serialized form, for reproducibility comparisons."""
    return json.dumps(_model_doc(policy, cert), sort_keys=True).encode()
