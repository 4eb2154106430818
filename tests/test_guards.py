"""Typed guards that no other test reaches raise their own PtShannonError
subclass: one table of calls that break one check each."""

import numpy as np
import pytest

from ptshannon import (
    Channel,
    Distribution,
    JointDistribution,
    JointSequenceType,
    RngStream,
    SequenceType,
    SourceCodingSetup,
    binary_symmetric_channel,
    capacity,
    conditional_mutual_information,
    conditional_simplex_gaussian_integral,
    conditional_type,
    constrained_sum_estimate,
    dirichlet_integral,
    enumerate_types,
    hamming_distortion,
    iid_type_probability,
    joint_type_of,
    make_distribution,
    rate_distortion,
    relative_information,
    saddle_of_weights,
    sherman_morrison,
    type_of,
    uniform_distribution,
)
from ptshannon import cli, info_measures
from ptshannon.errors import (
    ConfigInvalid,
    DimensionMismatch,
    InfeasibleDistortion,
    InvalidDistribution,
    InvalidParameter,
    IoFailure,
    NonConvergence,
    NonPositiveWeight,
    PtShannonError,
    SingularMatrix,
    SymbolOutOfAlphabet,
)

UNIFORM_2 = uniform_distribution(2)
SEQUENCE_TYPE = SequenceType((1, 2), 3)
# a channel-coding sweep config, less any parameter a guard breaks
SWEEP = {"kind": "channel-coding", "output_path": "out.csv",
         "parameters": {"channel": [[0.9, 0.1], [0.1, 0.9]], "decoder": "ml",
                        "n_grid": [8], "rate_grid": [0.3]}}


def _sweep(**parameters) -> dict:
    return {**SWEEP, "parameters": {**SWEEP["parameters"], **parameters}}


def _capped(solve):
    """``solve()`` with the Blahut-Arimoto loops allowed one iteration."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(info_measures, "ITERATION_CAP", 1)
        solve()


def _load(tmp_path, text: str) -> dict:
    path = tmp_path / "config.json"
    path.write_text(text)
    return cli._load_config(str(path), None, None)


# id -> (error, message pattern, call of tmp_path)
GUARDS = {
    # probability objects
    "distribution-2d": (DimensionMismatch, "non-empty 1-D array",
                        lambda _: Distribution(np.full((2, 2), 0.25))),
    "distribution-empty": (DimensionMismatch, "non-empty 1-D array",
                           lambda _: Distribution(np.array([]))),
    "joint-1d": (DimensionMismatch, "2-D matrix",
                 lambda _: JointDistribution(np.array([0.5, 0.5]))),
    "channel-1d": (DimensionMismatch, "rows must form a 2-D matrix",
                   lambda _: Channel(np.array([0.5, 0.5]))),
    "rng-seed": (InvalidParameter, "seed must be a 64-bit", lambda _: RngStream(2**64)),
    "rng-negative-seed": (InvalidParameter, "seed must be a 64-bit", lambda _: RngStream(-1)),
    "rng-stream-index": (InvalidParameter, "stream_index must be non-negative",
                         lambda _: RngStream(1, -1)),
    "rng-substream-index": (InvalidParameter, "substream index must be non-negative",
                            lambda _: RngStream(1).substream(-1)),
    "bsc-crossover": (InvalidDistribution, "crossover must lie in",
                      lambda _: binary_symmetric_channel(1.5)),
    # CLI
    "cli-empty-grid": (ConfigInvalid, "parameters.n_grid: .* not a non-empty array",
                       lambda _: cli._validate_common(_sweep(n_grid=[]), cli.SWEEP_KINDS)),
    "cli-unknown-choice": (ConfigInvalid, "parameters.decoder: .* not one of",
                           lambda _: cli._validate_common(_sweep(decoder="map"),
                                                          cli.SWEEP_KINDS)),
    "cli-unreadable-config": (IoFailure, "cannot read config",
                              lambda tmp: cli._load_config(str(tmp / "missing.json"),
                                                           None, None)),
    "cli-unwritable-output": (IoFailure, "cannot write",
                              lambda tmp: cli._write_csv(
                                  {"output_path": str(tmp / "missing" / "out.csv"),
                                   "_sha256": "0"}, ["n"], [])),
    "cli-non-object-config": (ConfigInvalid, "must be a JSON object",
                              lambda tmp: _load(tmp, "[1, 2]")),
    # coding set-up and information measures
    "source-setup-mode": (InvalidParameter, "unknown mode",
                          lambda _: SourceCodingSetup(UNIFORM_2, 0.5, 10, "lossy")),
    "cmi-axes": (DimensionMismatch, "3-axis joint",
                 lambda _: conditional_mutual_information(np.full((2, 2), 0.25))),
    "relative-information-alphabets": (DimensionMismatch, "common alphabet",
                                       lambda _: relative_information(
                                           UNIFORM_2, uniform_distribution(3))),
    "distortion-diagonal": (InfeasibleDistortion, "vanish on the diagonal",
                            lambda _: rate_distortion(
                                UNIFORM_2, np.array([[0.1, 1.0], [1.0, 0.0]]), 0.5)),
    "capacity-iteration-cap": (NonConvergence, "capacity gap still above",
                               lambda _: _capped(lambda: capacity(
                                   Channel(np.array([[1.0, 0.0], [0.3, 0.7]]))))),
    "rate-distortion-iteration-cap": (NonConvergence, "rate-distortion gap still above",
                                      lambda _: _capped(lambda: rate_distortion(
                                          make_distribution([0.5, 0.3, 0.2]),
                                          hamming_distortion(3), 0.15))),
    # polytope integrals
    "dirichlet-empty": (DimensionMismatch, "non-empty vector", lambda _: dirichlet_integral([])),
    "gaussian-a-shape": (DimensionMismatch, r"A must be \(nx\*ny\)",
                         lambda _: conditional_simplex_gaussian_integral(
                             np.eye(3) * 1e4, 2, 2, np.full((2, 2), 0.5))),
    "gaussian-a-symmetry": (SingularMatrix, "A must be symmetric",
                            lambda _: conditional_simplex_gaussian_integral(
                                np.array([[1e4, 1.0], [0.0, 1e4]]), 1, 2, np.full((1, 2), 0.5))),
    "gaussian-center-rows-shape": (DimensionMismatch, "center_rows must be nx x ny",
                                   lambda _: conditional_simplex_gaussian_integral(
                                       np.eye(4) * 1e4, 2, 2, np.full((1, 4), 0.25))),
    "sherman-morrison-shapes": (DimensionMismatch, "E_inverse must be square",
                                lambda _: sherman_morrison(np.eye(2), 1.0, np.ones(3),
                                                           np.ones(3))),
    # saddle point
    "saddle-n": (InvalidParameter, "n must be >= 1", lambda _: saddle_of_weights([1.0, 2.0], 0)),
    "constrained-sum-source": (NonPositiveWeight, "source must be strictly positive",
                               lambda _: constrained_sum_estimate(
                                   Distribution(np.array([1.0, 0.0])),
                                   (np.array([0.0, 1.0]), 0.5), 10)),
    # method of types
    "sequence-type-negative": (DimensionMismatch, "counts must be non-negative",
                               lambda _: SequenceType((-1, 2), 1)),
    "sequence-type-sum": (DimensionMismatch, "counts sum to 3, expected n=4",
                          lambda _: SequenceType((1, 2), 4)),
    "sequence-type-n": (DimensionMismatch, "n must be positive",
                        lambda _: SequenceType((0, 0), 0)),
    "joint-type-ragged": (DimensionMismatch, "rectangular",
                          lambda _: JointSequenceType(((1, 2), (3,)), 6)),
    "joint-type-negative": (DimensionMismatch, "counts must be non-negative",
                            lambda _: JointSequenceType(((1, -1), (1, 1)), 2)),
    "joint-type-sum": (DimensionMismatch, "joint counts must sum to n",
                       lambda _: JointSequenceType(((1, 1), (1, 1)), 5)),
    "type-of-2d": (DimensionMismatch, "non-empty and 1-D", lambda _: type_of([[0, 1]], 2)),
    "joint-type-of-lengths": (DimensionMismatch, "equal length",
                              lambda _: joint_type_of([0, 1], [0], 2, 2)),
    "joint-type-of-alphabet": (SymbolOutOfAlphabet, "out of declared alphabets",
                               lambda _: joint_type_of([0, 1], [0, 2], 2, 2)),
    "enumerate-types-n": (DimensionMismatch, "must be positive",
                          lambda _: next(enumerate_types(2, 0))),
    "iid-type-alphabets": (DimensionMismatch, "alphabets differ",
                           lambda _: iid_type_probability(SEQUENCE_TYPE,
                                                          uniform_distribution(3))),
    "conditional-type-empty": (DimensionMismatch, "at least one row",
                               lambda _: conditional_type(JointSequenceType(((0, 0), (0, 0)), 0))),
}


@pytest.mark.parametrize("error, match, call", GUARDS.values(), ids=GUARDS.keys())
def test_guard_raises_its_typed_error(error, match, call, tmp_path):
    """Each call fails the one check its message names, with that check's
    subclass of PtShannonError."""
    assert issubclass(error, PtShannonError)
    with pytest.raises(error, match=match):
        call(tmp_path)
