import json

import numpy as np
import pytest

from clbf.model_io import _net_doc, load_model, model_bytes, save_model
from clbf.nets import init_mlp

from conftest import small_cert, small_policy


def test_round_trip_is_bit_exact(pendulum, tmp_path):
    cert = small_cert(pendulum)
    policy = small_policy(pendulum)
    for net in (cert.net, policy):  # init leaves biases at zero
        for b in net.biases:
            b[:] = np.random.default_rng(2).normal(size=b.shape) / 3.0
    path = save_model(tmp_path / "m.clbf", policy, cert)
    policy2, cert2 = load_model(path)
    for a, b in ((policy, policy2), (cert.net, cert2.net)):
        assert all(np.array_equal(x, y) for x, y in zip(a.params(), b.params()))
    assert cert2.params == cert.params
    assert cert2.env.name == cert.env.name
    assert model_bytes(policy2, cert2) == model_bytes(policy, cert)


def test_wrong_format_tag_is_rejected(pendulum, tmp_path):
    path = save_model(tmp_path / "m.clbf", small_policy(pendulum), small_cert(pendulum))
    for tag in ("clbf-model/0", "clbf-model/1", "clbf-model/2", "clbf-model/3"):
        doc = json.loads(path.read_text())
        doc["format"] = tag
        bad = tmp_path / "bad.clbf"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="format"):
            load_model(bad)


def test_certificate_dimension_mismatch_is_rejected(pendulum, tmp_path):
    path, doc = _saved_doc(pendulum, tmp_path)
    wide = init_mlp([pendulum.state_dim + 1, 8, 1], np.random.default_rng(0))
    doc["certificate"] = _net_doc(wide)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="certificate dimensions"):
        load_model(path)


def test_unknown_env_name_is_rejected(pendulum, tmp_path):
    path = save_model(tmp_path / "m.clbf", small_policy(pendulum), small_cert(pendulum))
    doc = json.loads(path.read_text())
    doc["env"] = "no-such-env"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="unknown environment"):
        load_model(path)


def test_policy_dimension_mismatch_is_rejected(pendulum, tmp_path):
    policy = init_mlp([pendulum.state_dim, 8, pendulum.control_dim + 1],
                      np.random.default_rng(0))
    path = save_model(tmp_path / "m.clbf", policy, small_cert(pendulum))
    with pytest.raises(ValueError, match="policy dimensions"):
        load_model(path)


def _saved_doc(env, tmp_path):
    path = save_model(tmp_path / "m.clbf", small_policy(env), small_cert(env))
    return path, json.loads(path.read_text())


def test_missing_section_is_rejected(pendulum, tmp_path):
    for section in ("env", "clbf_params", "policy", "certificate"):
        path, doc = _saved_doc(pendulum, tmp_path)
        del doc[section]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=section):
            load_model(path)


def test_unknown_params_key_is_rejected(pendulum, tmp_path):
    path, doc = _saved_doc(pendulum, tmp_path)
    doc["clbf_params"]["unsafe_msk"] = doc["clbf_params"].pop("unsafe_mask")
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"unknown keys \['unsafe_msk'\]"):
        load_model(path)


def test_missing_params_key_is_rejected(pendulum, tmp_path):
    path, doc = _saved_doc(pendulum, tmp_path)
    del doc["clbf_params"]["beta"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"missing keys \['beta'\]"):
        load_model(path)


def test_invalid_params_value_is_rejected(pendulum, tmp_path):
    # below beta = 1.0, NaN or infinite, which json writes and reads back
    for unsafe_mask, error in ((0.5, "need unsafe_mask > beta"),
                               (float("nan"), "need unsafe_mask > beta"),
                               (float("inf"), "must be finite")):
        path, doc = _saved_doc(pendulum, tmp_path)
        doc["clbf_params"]["unsafe_mask"] = unsafe_mask
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=error):
            load_model(path)


@pytest.mark.parametrize("net", ["policy", "certificate"])
@pytest.mark.parametrize("key", ["dims", "activations", "weights", "biases"])
def test_net_section_without_a_key_is_rejected(pendulum, tmp_path, net, key):
    path, doc = _saved_doc(pendulum, tmp_path)
    del doc[net][key]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=rf"{net} net lacks sections \['{key}'\]"):
        load_model(path)


@pytest.mark.parametrize("net", ["policy", "certificate"])
@pytest.mark.parametrize("activations", [["tanh", "sigmoid"], ["relu", "tanh", "affine"],
                                         ["relu", "relu", "relu"]], ids="-".join)
def test_net_section_with_other_activations_is_rejected(pendulum, tmp_path, net,
                                                        activations):
    # an Mlp evaluates ReLU hidden layers and an affine output, and nothing
    # else; the saved nets have two hidden layers
    path, doc = _saved_doc(pendulum, tmp_path)
    assert doc[net]["activations"] == ["relu", "relu", "affine"]
    doc[net]["activations"] = activations
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=rf"{net} net: activations"):
        load_model(path)


@pytest.mark.parametrize("key", ["weights", "biases"])
@pytest.mark.parametrize("change", ["one_short", "one_extra"])
def test_net_section_with_a_wrong_layer_count_is_rejected(pendulum, tmp_path,
                                                          key, change):
    path, doc = _saved_doc(pendulum, tmp_path)
    lists = doc["certificate"][key]
    if change == "one_short":
        lists.pop()
    else:
        lists.append(list(lists[-1]))
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="weight and bias lists"):
        load_model(path)


@pytest.mark.parametrize("net", ["policy", "certificate"])
@pytest.mark.parametrize("key", ["weights", "biases"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_net_with_a_non_finite_parameter_is_rejected(pendulum, tmp_path, net, key, bad):
    # saved as a net holds it: json writes NaN and Infinity and reads them back
    cert, policy = small_cert(pendulum), small_policy(pendulum)
    getattr(policy if net == "policy" else cert.net, key)[1].flat[3] = bad
    path = save_model(tmp_path / "m.clbf", policy, cert)
    with pytest.raises(ValueError, match=rf"{net} net: every weight and bias must be finite"):
        load_model(path)
