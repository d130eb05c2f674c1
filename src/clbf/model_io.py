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

FORMAT_TAG = "clbf-model/4"


def _activations(layers: int) -> list[str]:  # the only ones an Mlp evaluates
    return ["relu"] * (layers - 1) + ["affine"]


def _net_doc(net: Mlp) -> dict:
    return {
        "dims": net.dims,
        "activations": _activations(len(net.weights)),
        "weights": [W.reshape(-1).tolist() for W in net.weights],  # row-major
        "biases": [b.tolist() for b in net.biases],
    }


def _require(doc: dict, keys: tuple, what: str):
    if missing := [k for k in keys if k not in doc]:
        raise ValueError(f"{what} lacks sections {missing}")


def _net_from_doc(doc: dict, name: str) -> Mlp:
    _require(doc, ("dims", "activations", "weights", "biases"), f"{name} net")
    dims = doc["dims"]
    if not len(doc["weights"]) == len(doc["biases"]) == len(dims) - 1:
        raise ValueError(f"{name} net: dims {dims} need {len(dims) - 1} "
                         "weight and bias lists each")
    if doc["activations"] != (acts := _activations(len(dims) - 1)):
        raise ValueError(f"{name} net: activations must be {acts}")
    weights = [np.array(W, dtype=float).reshape(n_out, n_in)
               for W, n_in, n_out in zip(doc["weights"], dims[:-1], dims[1:])]
    return Mlp(weights, [np.array(b, dtype=float) for b in doc["biases"]])


def _model_doc(policy: Mlp, cert: FilteredCertificate) -> dict:
    return {
        "format": FORMAT_TAG,
        "env": cert.env.name,
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
    _require(doc, ("env", "clbf_params", "policy", "certificate"), "model document")
    env = make_env(doc["env"])
    policy = _net_from_doc(doc["policy"], "policy")
    cert_net = _net_from_doc(doc["certificate"], "certificate")
    given, known = set(doc["clbf_params"]), {f.name for f in fields(ClbfParams)}
    if given != known:
        raise ValueError(f"clbf_params: unknown keys {sorted(given - known)}, "
                         f"missing keys {sorted(known - given)}")
    params = ClbfParams(**doc["clbf_params"])
    if policy.n_in != env.state_dim or policy.n_out != env.control_dim:
        raise ValueError("policy dimensions do not match the environment")
    return policy, FilteredCertificate(cert_net, params, env)


def model_bytes(policy: Mlp, cert: FilteredCertificate) -> bytes:
    """Canonical serialized form, for reproducibility comparisons."""
    return json.dumps(_model_doc(policy, cert), sort_keys=True).encode()
