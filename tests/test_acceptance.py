"""Acceptance suite: one test per verification criterion, each printing a
pass/fail line with its measured numbers.

A01-A06 and A08 are computed in one place, ``ptshannon.claims``, whose rows
the CLI ``claims`` subcommand also writes.  Here ``claims.run_all`` runs
once per module; each of those tests asserts that its rows (``CLAIM_ROWS``)
are present and pass, and checks the rows' references against values
computed here or in ``oracles.py`` without the package.  A07 and A09-A11
exercise the simulators, solvers and CLI directly.

Two checks compare against finite-n targets rather than the asymptotic ones:

* A06b: the sequence-level smoothed-delta sum carries the class-size ratio
  sqrt(d_class/d_ref), which adds n*N/4 to the Gaussian curvature
  lam0 = 1/eps^2.  Around a uniform reference the sum is therefore
  (lam0/(lam0 + n*N/4))^((N-1)/2), about 0.894 at (n=200, eps=0.05); it
  tends to 1 only as n*eps^2 -> 0.  The check gates the sum against that
  closed form and the lattice discretization of the continuous form
  against 1.

* A09b: (1/2) erfc(sqrt(n/2b)(R - a)) is the normal approximation of
  P(sum_j ln P(x_j:y_j) > nR), the success probability of the
  information-ratio threshold decoder.  The exact success of that decoder
  on the BSC, a binomial sum, must lie within the Monte Carlo gate of erfc
  (erfc carries an O(1/sqrt(n)) CLT error on top), and the simulated
  success must lie within the same gate of the exact value.
"""

import math

import numpy as np
import pytest
from scipy.special import erfc

import ptshannon as pt
from ptshannon import RngStream, claims

from oracles import bsc_exact_success, smoothed_delta_sequence_sum, source_coding_success

LN2 = math.log(2.0)

# criterion -> the claims rows that decide it
CLAIM_ROWS = {
    "A01": ("type_partition_count", "type_partition_prob"),
    "A02": ("stirling_rel_error", "stirling_monotone_decrease"),
    "A03": ("type_density_ratio",),
    "A04": ("chain_rule_class_count", "chain_rule_sequence_count",
            "conditional_class_count"),
    "A05": ("dirichlet_all_ones", "dirichlet_beta", "simplex_gaussian_vs_quadrature",
            "simplex_gaussian_matrix_diag", "conditional_gaussian_single_block",
            "conditional_gaussian_block_product", "conditional_gaussian_vs_quadrature",
            "sherman_morrison_inverse", "matrix_determinant_lemma",
            "det_first_order_eps_halving"),
    "A06a": ("smoothed_delta_continuous",),
    "A06b": ("smoothed_delta_type_sum", "smoothed_delta_sequence_sum"),
    "A08": ("saddle_composition_identity", "saddle_integral_vs_exact_sum",
            "saddle_error_shrinks_with_n", "saddle_fidelity"),
}


def check(name: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


@pytest.fixture(scope="module")
def battery():
    """check name -> {detail: (value, reference, tolerance, status)}."""
    out = {}
    for name, detail, value, reference, _, tol, status in claims.run_all(RngStream(0)):
        assert detail not in out.setdefault(name, {}), f"duplicate row {name} {detail}"
        out[name][detail] = (value, reference, tol, status)
    return out


def claim_rows(battery, a_id: str) -> dict:
    """The rows of one criterion, asserted present and passing."""
    rows = {name: battery.get(name, {}) for name in CLAIM_ROWS[a_id]}
    missing = [name for name, by_detail in rows.items() if not by_detail]
    failed = [f"{name} {detail}: {row}" for name, by_detail in rows.items()
              for detail, row in by_detail.items() if row[3] != "pass"]
    count = sum(map(len, rows.values()))
    assert check(a_id, not missing and not failed,
                 f"{count} rows; missing {missing}; failed {failed}")
    return rows


def params(detail: str) -> dict:
    return dict(kv.split("=", 1) for kv in detail.split(",") if "=" in kv)


def test_every_claims_row_has_one_criterion(battery):
    names = [name for rows in CLAIM_ROWS.values() for name in rows]
    assert len(names) == len(set(names))
    assert set(battery) == set(names)


# --- A01: type-class partition ---------------------------------------------------

def test_A01_type_partition(battery):
    rows = claim_rows(battery, "A01")
    grid = {(N, n) for N in (2, 3) for n in range(1, 15)}
    for name in CLAIM_ROWS["A01"]:
        assert {(int(params(d)["N"]), int(params(d)["n"])) for d in rows[name]} == grid
    for detail, (value, reference, tol, _) in rows["type_partition_count"].items():
        p = params(detail)
        assert value == reference == int(p["N"]) ** int(p["n"]) and tol == 0.0
    assert all(row[1] == 1.0 and row[2] <= 1e-12
               for row in rows["type_partition_prob"].values())


def test_A01_partition_rows_match_per_type_loop():
    """The rows read from one type array per (N, n) equal, value for value,
    the sums taken one `SequenceType` at a time."""
    want = []
    for q in (pt.Distribution(np.array([0.9, 0.1])), pt.Distribution(np.array([0.5, 0.3, 0.2]))):
        for n in range(1, 15):
            total, prob_sum = 0, 0.0
            for t in pt.enumerate_types(q.alphabet_size, n):
                size = pt.class_size_int(t)
                total += size
                prob_sum += size * math.exp(pt.iid_type_probability(t, q))
            detail = f"N={q.alphabet_size},n={n}"
            want += [("type_partition_count", detail, float(total)),
                     ("type_partition_prob", detail, prob_sum)]
    assert [row[:3] for row in claims.partition_rows(14)] == want


# --- A02: Stirling class-size estimate ---------------------------------------------

def test_A02_stirling_class_size(battery):
    rows = claim_rows(battery, "A02")
    (rel, _, tol, _), = rows["stirling_rel_error"].values()
    assert list(rows["stirling_rel_error"]) == ["n=100"] and rel < 0.01 and tol <= 0.01
    assert list(rows["stirling_monotone_decrease"]) == ["n=20..200 step 20"]


# --- A03: type-count density ---------------------------------------------------------

def test_A03_type_count_density(battery):
    rows = claim_rows(battery, "A03")["type_density_ratio"]
    grid = {(N, n) for N in (2, 3) for n in (50, 80, 100, 200, 400, 1000)}
    assert {(int(params(d)["N"]), int(params(d)["n"])) for d in rows} == grid
    for detail, (ratio, _, _, _) in rows.items():
        N, n = int(params(detail)["N"]), int(params(detail)["n"])
        exact = math.comb(n + N - 1, N - 1) * math.factorial(N - 1) / n ** (N - 1)
        assert ratio == pytest.approx(exact, rel=1e-12)
        assert 1.0 <= ratio <= 1.0 + 3.0 * N / n


# --- A04: conditional-type identities -------------------------------------------------

def test_A04_conditional_type_identities(battery):
    """Joint classes number C(n+3, 3) and hold 4^n sequence pairs; against
    each x-sequence the conditional classes tile {0,1}^n, so summed over the
    n+1 binary x-types they hold (n+1) 2^n y-sequences."""
    rows = claim_rows(battery, "A04")
    expected = {
        "chain_rule_class_count": lambda n: math.comb(n + 3, 3),
        "chain_rule_sequence_count": lambda n: 4**n,
        "conditional_class_count": lambda n: (n + 1) * 2**n,
    }
    for name, count in expected.items():
        assert [int(params(d)["n"]) for d in rows[name]] == list(range(2, 9))
        for detail, (value, reference, tol, _) in rows[name].items():
            assert value == reference == count(int(params(detail)["n"])) and tol == 0.0


# --- A05: appendix integrals -----------------------------------------------------------

def test_A05_polytope_integrals(battery):
    rows = claim_rows(battery, "A05")
    assert [int(params(d)["N"]) for d in rows["dirichlet_all_ones"]] == list(range(2, 7))
    for detail, (value, reference, tol, _) in rows["dirichlet_all_ones"].items():
        assert value == reference == 1.0 / math.factorial(int(params(detail)["N"]) - 1)
    quad = rows["simplex_gaussian_vs_quadrature"]
    assert set(quad) == {"N=2,lam=1000:1500,c=0.45", "N=2,lam=1000:1000,c=0.5", "N=3", "N=4"}
    assert all(row[2] <= (1e-3 if d.startswith("N=2") else 1e-5) for d, row in quad.items())
    (cond_tol,) = [row[2] for row in rows["conditional_gaussian_vs_quadrature"].values()]
    (sm_tol,) = [row[2] for row in rows["sherman_morrison_inverse"].values()]
    (det_tol,) = [row[2] for row in rows["matrix_determinant_lemma"].values()]
    assert cond_tol <= 1e-10 and sm_tol <= 1e-12 and det_tol <= 1e-10


def test_A05_quadrature_catches_the_trace_form(monkeypatch):
    """A closed form with the trace of each block of A^-1 in place of its
    grand sum agrees wherever A is diagonal, so only the off-diagonal
    quadrature row can catch it; it does."""
    def trace_form(A, nx, ny, center_rows):
        M = np.einsum("xyzy->xz", np.linalg.inv(A).reshape(nx, ny, nx, ny))
        return math.sqrt(math.pi ** (nx * ny - nx) / (np.linalg.det(A) * np.linalg.det(M)))

    monkeypatch.setattr(claims, "conditional_simplex_gaussian_integral", trace_form)
    status = {row[0]: row[-1] for row in claims.conditional_gaussian_rows(RngStream(1))}
    assert status["conditional_gaussian_vs_quadrature"] == "fail"


# claims seeds where an absolute 1e-12 gate failed sherman_morrison_inverse
# (an instance with 1 + q^T E^-1 p = 2.9e-4, cond(A) = 4.1e4), a [3.5, 4.5]
# window failed det_first_order_eps_halving (sigma_3 eps not small next to
# sigma_2: ratio 4.88) and a relative 1e-10 gate failed matrix_determinant_lemma
# (an instance with 1 + q^T E^-1 p = -3.2e-6, cond(A) = 7.1e5)
RANK_ONE_SEED = 1199242144615739732
DET_EXPANSION_SEED = 6002615
DET_LEMMA_SEED = 3763


@pytest.mark.parametrize("seed", [1, RANK_ONE_SEED])
def test_A05_rank_one_gate(seed, monkeypatch):
    """The rank-one rows pass, and an update applied with the wrong sign
    still fails the inverse row."""
    assert [row[-1] for row in claims.rank_one_rows(RngStream(seed))] == ["pass", "pass"]

    def flipped(E_inverse, det_E, p, q):
        inverse, det = pt.sherman_morrison(E_inverse, det_E, p, q)
        return 2 * np.asarray(E_inverse) - inverse, det

    monkeypatch.setattr(claims, "sherman_morrison", flipped)
    inv_row, _ = claims.rank_one_rows(RngStream(seed))
    assert inv_row[0] == "sherman_morrison_inverse" and inv_row[-1] == "fail"


@pytest.mark.parametrize("seed", [1, DET_LEMMA_SEED])
def test_A05_determinant_lemma_gate(seed, monkeypatch):
    """The determinant-lemma row passes, and a determinant off by a relative
    1e-9 still fails it."""
    _, row = claims.rank_one_rows(RngStream(seed))
    assert row[0] == "matrix_determinant_lemma" and row[-1] == "pass"

    def off(E_inverse, det_E, p, q):
        inverse, det = pt.sherman_morrison(E_inverse, det_E, p, q)
        return inverse, det * (1 + 1e-9)

    monkeypatch.setattr(claims, "sherman_morrison", off)
    _, row = claims.rank_one_rows(RngStream(seed))
    assert row[-1] == "fail"


@pytest.mark.parametrize("seed", [1, DET_EXPANSION_SEED])
def test_A05_det_expansion_gate(seed, monkeypatch):
    """The eps-halving row passes, and a first-order term off by a factor of
    1.001 still fails it."""
    (row,) = claims.det_expansion_rows(RngStream(seed))
    assert row[-1] == "pass"
    monkeypatch.setattr(claims, "det_first_order",
                        lambda A, eps: 1.0 + 1.001 * eps * float(np.trace(A)))
    (row,) = claims.det_expansion_rows(RngStream(seed))
    assert row[-1] == "fail"


# --- A06: smoothed-delta normalization ---------------------------------------------------

def test_A06a_smoothed_delta_continuous(battery):
    rows = claim_rows(battery, "A06a")
    assert {d: row[1:3] for d, row in rows["smoothed_delta_continuous"].items()} == {
        "n=200,eps=0.05": (1.0, 1e-6)}


def test_A06b_smoothed_delta_discrete(battery):
    rows = claim_rows(battery, "A06b")
    (value, reference, tol, _), = rows["smoothed_delta_sequence_sum"].values()
    closed = smoothed_delta_sequence_sum(200, 0.05, 2)
    assert reference == pytest.approx(closed, rel=1e-12) and tol <= 1e-3 * closed
    (type_sum, _, type_tol, _), = rows["smoothed_delta_type_sum"].values()
    assert type_tol <= 1e-6
    print(f"sum over sequences = {value:.4f}, closed form "
          f"(lam0/(lam0 + nN/4))^((N-1)/2) = {closed:.4f}; lattice discretization "
          f"of the continuous form = {type_sum:.12f}")


# --- A07: lossless source coding ----------------------------------------------------------

def test_A07_source_coding_step():
    src = pt.make_distribution([0.9, 0.1])
    h = pt.entropy(src)
    vals = {}
    ok = True
    for mode in ("source-dependent", "universal"):
        hi = pt.source_coding_exact_psuc(pt.SourceCodingSetup(src, h + 0.05, 800, mode))
        lo = pt.source_coding_exact_psuc(pt.SourceCodingSetup(src, h - 0.05, 800, mode))
        vals[mode] = (hi, lo)
        ok &= abs(hi - 1.0) <= 0.02 and abs(lo - 0.0) <= 0.02
    seq = [pt.source_coding_exact_psuc(
        pt.SourceCodingSetup(src, h + 0.05, n, "universal")) for n in (200, 400, 800)]
    ok &= all(b > a for a, b in zip(seq, seq[1:]))
    sd, un = vals["source-dependent"], vals["universal"]
    assert check("A07 source-coding step", ok,
                 f"n=800, R=H+-0.05: dependent ({sd[0]:.4f}, {sd[1]:.4f}), "
                 f"universal ({un[0]:.4f}, {un[1]:.4f}) within 0.02 of (1, 0); "
                 f"universal monotone {seq}")


# --- A08: saddle fidelity --------------------------------------------------------------------

def test_A08_saddle_fidelity(battery):
    rows = claim_rows(battery, "A08")
    (estimate, reference, tol, _), = rows["saddle_fidelity"].values()
    q = [0.9, 0.1]
    rate = -sum(p * math.log(p) for p in q) - 0.05
    exact, _ = source_coding_success(q, rate, 400, "source-dependent")
    assert reference == pytest.approx(math.log(exact) / 400, rel=1e-9) and tol <= 0.02
    print(f"|estimate - (1/n) ln exact| = {abs(estimate - reference):.4f} nats (tol 0.02)")


# --- A09: channel coding ----------------------------------------------------------------------

BSC = pt.binary_symmetric_channel(0.11)
UNIF2 = pt.uniform_distribution(2)


def test_A09a_bsc_capacity():
    closed = LN2 - pt.binary_entropy(0.11)
    ba = pt.capacity(BSC, 1e-10).capacity_nats
    grid = np.linspace(0.0, 1.0, 10_001)[1:-1]
    y = grid * 0.89 + (1 - grid) * 0.11
    mi = (-(y * np.log(y) + (1 - y) * np.log(1 - y))) - pt.binary_entropy(0.11)
    grid_best = float(mi.max())
    ok = abs(ba - closed) <= 1e-9 and abs(grid_best - closed) <= 1e-9
    assert check("A09a BSC capacity", ok,
                 f"BA {ba:.12f}, closed {closed:.12f}, grid {grid_best:.12f} (tol 1e-9)")


def test_A09b_threshold_decoder_vs_erfc():
    c = LN2 - pt.binary_entropy(0.11)
    rate = c - 0.05
    pred = pt.channel_coding_prediction(BSC, UNIF2, rate, 1)
    ok = True
    lines = []
    for n in (250, 500, 1000):
        ref = 0.5 * erfc(math.sqrt(n / (2 * pred.b)) * (rate - pred.a))
        exact = bsc_exact_success(n, rate, 0.11, "threshold")
        rep = pt.simulate_channel_coding(BSC, UNIF2, rate, n, 2000, "threshold",
                                         RngStream(20_000 + n))
        ml = pt.simulate_channel_coding(BSC, UNIF2, rate, n, 2000, "ml",
                                        RngStream(30_000 + n))
        sigma = math.sqrt(max(ref * (1 - ref), 1e-9) / 2000)
        ok &= abs(exact - ref) <= 3 * sigma
        ok &= abs(rep.p_hat - exact) <= 3 * sigma
        lines.append(f"n={n}: erfc {ref:.4f}, exact {exact:.4f}, "
                     f"threshold {rep.p_hat:.4f}, ml {ml.p_hat:.4f}, 3sig {3*sigma:.4f}")
    assert check("A09b threshold decoder vs erfc", ok, "; ".join(lines))


def test_A09c_converse_regime():
    c = LN2 - pt.binary_entropy(0.11)
    rep = pt.simulate_channel_coding(BSC, UNIF2, c + 0.1, 500, 2000, "threshold",
                                     RngStream(40_000))
    ok = rep.p_hat <= 0.05
    assert check("A09c converse regime", ok,
                 f"p_hat = {rep.p_hat:.4f} at rate C+0.1, n=500 (limit 0.05)")


# --- A10: rate-distortion ----------------------------------------------------------------------

def test_A10_rate_distortion():
    u = pt.uniform_distribution(2)
    d = pt.hamming_distortion(2)
    src = pt.make_distribution([0.9, 0.1])
    at_zero = pt.rate_distortion(src, d, 0.0).rate_nats
    zero_ok = abs(at_zero - pt.entropy(src)) <= 1e-7

    grid = np.arange(0.02, 0.401, 0.02)
    rates = [pt.rate_distortion(u, d, float(D)).rate_nats for D in grid]
    curve_err = max(abs(r - (LN2 - pt.binary_entropy(float(D))))
                    for r, D in zip(rates, grid))
    curve_ok = curve_err <= 1e-6
    mono_ok = all(b <= a + 1e-9 for a, b in zip(rates, rates[1:]))
    convex_ok = True
    for i in range(len(grid) - 2):
        for lam in (0.25, 0.5, 0.75):
            dm = lam * grid[i + 2] + (1 - lam) * grid[i]
            rm = pt.rate_distortion(u, d, float(dm)).rate_nats
            convex_ok &= rm <= lam * rates[i + 2] + (1 - lam) * rates[i] + 1e-7

    point = pt.rate_distortion(u, d, 0.1)
    hi = pt.simulate_rate_distortion(u, point.optimal_test_channel, d, 0.1,
                                     point.rate_nats + 0.1, 500, 2000, RngStream(50_000))
    lo = pt.simulate_rate_distortion(u, point.optimal_test_channel, d, 0.1,
                                     point.rate_nats - 0.1, 500, 2000, RngStream(50_001))
    sim_ok = hi.p_hat >= 0.9 and lo.p_hat <= 0.1

    ok = zero_ok and curve_ok and mono_ok and convex_ok and sim_ok
    assert check("A10 rate-distortion", ok,
                 f"H_x(0) err {abs(at_zero - pt.entropy(src)):.2e} (tol 1e-7); "
                 f"curve err {curve_err:.2e} (tol 1e-6); monotone {mono_ok}; "
                 f"convex {convex_ok}; simulator ({hi.p_hat:.3f} >= 0.9, "
                 f"{lo.p_hat:.3f} <= 0.1)")


# --- A11: CLI determinism -----------------------------------------------------------------------

def test_A11_cli_determinism(tmp_path):
    import json

    from ptshannon.cli import main

    doc = {"kind": "channel-coding",
           "parameters": {"channel": [[0.89, 0.11], [0.11, 0.89]], "decoder": "ml",
                          "n_grid": [24], "rate_grid": [0.2, 0.3], "trials": 300},
           "output_path": str(tmp_path / "a.csv"), "seed": 2024}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "b.csv")]) == 0
    same = (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    doc2 = {"kind": "claims", "parameters": {"partition_max_n": 6, "delta_n": 120},
            "output_path": str(tmp_path / "c1.csv"), "seed": 7}
    cfg2 = tmp_path / "cfg2.json"
    cfg2.write_text(json.dumps(doc2))
    assert main(["claims", "--config", str(cfg2)]) == 0
    assert main(["claims", "--config", str(cfg2), "--out", str(tmp_path / "c2.csv")]) == 0
    same2 = (tmp_path / "c1.csv").read_bytes() == (tmp_path / "c2.csv").read_bytes()

    ok = same and same2
    assert check("A11 CLI determinism", ok,
                 f"sweep byte-identical {same}, claims byte-identical {same2}")
