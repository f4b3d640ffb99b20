"""Independent oracles for the test suite.

Everything here is deliberately built by a different route than the
package: the relay POVM by brute-force Fock-amplitude propagation with
explicit environment modes and an exhaustive dark-count enumeration, the
virtual ensemble from the full 16-dimensional source state, Bloch
coefficients by literal matrix traces, the singlet-error weight by direct
traces against density matrices, the deviation bounds as two branches
evaluated in full, entropies in high precision, and
sweep tables row by row: each row built, range-checked and formatted
field by field on its own. None of them imports the package.
"""

import itertools
import json
import math

import numpy as np

SQRT2 = math.sqrt(2.0)

PAULI = {
    "I": np.eye(2),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]]),
}
AXES = ("I", "X", "Z")

# detector channels 0..3 = D1-early, D1-late, D2-early, D2-late
# environment modes 4,5 = lost Alice photon (early/late), 6,7 = lost Bob photon
_PATTERN = frozenset((0, 3))


def _accept_weight_by_enumeration(occupied, p_d):
    """Acceptance probability summed over all 2^4 dark-fire configurations."""
    total = 0.0
    for dark in itertools.product((False, True), repeat=4):
        weight = 1.0
        for fires in dark:
            weight *= p_d if fires else (1.0 - p_d)
        clicked = set(occupied) | {ch for ch, fires in enumerate(dark) if fires}
        if clicked == set(_PATTERN):
            total += weight
    return total


def _alice_poly(t, survives):
    if survives:
        return {(t,): 1.0 / SQRT2, (2 + t,): 1.0 / SQRT2}
    return {(4 + t,): 1.0}


def _bob_poly(t_in, survives, rot):
    poly = {}
    for t in range(2):
        amp = rot[t][t_in]
        if amp == 0.0:
            continue
        if survives:
            poly[(t,)] = poly.get((t,), 0.0) + amp / SQRT2
            poly[(2 + t,)] = poly.get((2 + t,), 0.0) - amp / SQRT2
        else:
            poly[(6 + t,)] = poly.get((6 + t,), 0.0) + amp
    return poly


def _two_photon(poly_a, poly_b):
    out = {}
    for (m,), va in poly_a.items():
        for (n,), vb in poly_b.items():
            key = (m, n) if m <= n else (n, m)
            amp = va * vb
            if m == n:
                amp *= SQRT2  # bosonic double occupancy
            out[key] = out.get(key, 0.0) + amp
    return out


def fock_povm(eta_d, p_d, e_d, loss_db):
    """4x4 singlet-announcement POVM element by explicit Fock propagation."""
    eta = eta_d * 10.0 ** (-loss_db / 20.0)
    s, c = math.sqrt(e_d), math.sqrt(1.0 - e_d)
    rot = [[c, -s], [s, c]]

    weights = {}
    for size in range(3):
        for occ in itertools.combinations(range(4), size):
            weights[frozenset(occ)] = _accept_weight_by_enumeration(occ, p_d)

    basis = [(0, 0), (0, 1), (1, 0), (1, 1)]
    m = np.zeros((4, 4))
    for sa, sb in itertools.product((True, False), repeat=2):
        case = (eta if sa else 1.0 - eta) * (eta if sb else 1.0 - eta)
        if case == 0.0:
            continue
        vecs = [
            _two_photon(_alice_poly(ta, sa), _bob_poly(tb, sb, rot))
            for ta, tb in basis
        ]
        for i in range(4):
            for j in range(4):
                entry = 0.0
                for key, vj in vecs[j].items():
                    vi = vecs[i].get(key)
                    if vi is None:
                        continue
                    occ = frozenset(ch for ch in key if ch < 4)
                    entry += vi * vj * weights[occ]
                m[i, j] += case * entry
    return m


def virtual_ensemble_16dim(states_a, states_b, x_sign=+1):
    """All four X-outcome virtual states from the 16-dimensional source state.

    states_a, states_b: the two Z-basis reference amplitudes per side as
    arrays. x_sign flips the X-basis phase convention, |jX> =
    (|0> + x_sign (-1)^j |1>)/sqrt(2), to check convention independence.
    Returns {(j, s): (probability, normalized 4x4 density matrix)}.
    """
    psi = np.zeros((2, 2, 2, 2))
    for j in range(2):
        for s in range(2):
            psi[j, s] += 0.5 * np.outer(states_a[j], states_b[s])
    out = {}
    for j in range(2):
        xa = np.array([1.0, x_sign * (-1.0) ** j]) / SQRT2
        for s in range(2):
            xb = np.array([1.0, x_sign * (-1.0) ** s]) / SQRT2
            sub = np.einsum("a,b,abcd->cd", xa, xb, psi)
            theta = np.einsum("cd,ef->cdef", sub, sub).reshape(4, 4)
            p = float(np.trace(theta))
            out[j, s] = (p, theta / p if p > 0 else theta)
    return out


def bloch_by_trace(rho):
    """9 two-qubit Bloch coefficients by literal Tr[rho sigma x sigma]."""
    return np.array(
        [float(np.trace(rho @ np.kron(PAULI[l], PAULI[lp]))) for l in AXES for lp in AXES]
    )


def density_matrix(state):
    """Projector onto a real single-qubit state given by its amplitudes."""
    v = np.array([state.amp0, state.amp1])
    return np.outer(v, v)


def _bloch_to_density(row):
    # inverse of bloch_by_trace: rho = (1/4) sum_{l,l'} s_{l,l'} sigma_l x sigma_l'
    paulis = [np.kron(PAULI[l], PAULI[lp]) for l in AXES for lp in AXES]
    return sum(c * p for c, p in zip(row, paulis)) / 4.0


def omega_ref_direct(ensemble, povm):
    """Singlet-error weight by direct trace against the virtual states.

    Reconstructs each kept virtual state as a density matrix from its
    Bloch row and sums p_vir * Tr[M rho]; the package computes the same
    weight through the tomography identity f_obj . Y instead.
    """
    total = 0.0
    for p, row in zip(ensemble.p_vir, ensemble.s_vir):
        total += p * float(np.trace(povm.m @ _bloch_to_density(row)))
    return total


def deviation_bounds(x, y):
    """(g_lower, g_upper) as two analytic branches, each taken on every entry.

    The formula term for term as the module docstring of mdiqkd.gbound
    states it, with the sign as a factor: the reference for the bits of
    the package's single sign-selected branch.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    root = np.sqrt(np.maximum((1.0 - y * y) * x * (1.0 - x), 0.0))

    def branch(sign):
        return np.clip(x + (1.0 - y * y) * (1.0 - 2.0 * x) + sign * 2.0 * y * root, 0.0, 1.0)

    lower = np.where(x < 1.0 - y * y, 0.0, branch(-1.0))
    upper = np.where(x > y * y, 1.0, branch(+1.0))
    return lower, upper


def entropy_highprec(p):
    """Binary entropy via mpmath, for cross-checking the float version."""
    import mpmath

    if p in (0, 1):
        return 0.0
    p = mpmath.mpf(p)
    h = -p * mpmath.log(p, 2) - (1 - p) * mpmath.log(1 - p, 2)
    return float(h)


def random_bounded_operator(rng, dim):
    """Random Hermitian operator with eigenvalues in [0, 1]."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(a)
    eig = rng.uniform(0.0, 1.0, size=dim)
    return (q * eig) @ q.conj().T


def random_pure_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


# sweep-table columns in table order; key_per_second only in frequency tables
TABLE_COLUMNS = ("coordinate", "eps", "delta", "key_rate", "key_per_second", "e_zz",
                 "e_xx", "omega_ref_upper", "omega_upper", "zeta_obs", "cond_s", "error")


def _csv_field(value):
    if value is None:
        return ""
    if isinstance(value, str):
        if any(ch in value for ch in ',"\n'):
            return '"' + value.replace('"', '""') + '"'
        return value
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    return f"{value:.12g}"


def _json_field(value):
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "null"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return f"{value:.12g}"


def table_text(points, out_format, summary=None):
    """A sweep table as SweepTable.write writes it, formatting field by field.

    points: rows with the TABLE_COLUMNS attributes; the table is a
    frequency table when any row carries key_per_second.
    """
    frequency = any(p.key_per_second is not None for p in points)
    cols = [c for c in TABLE_COLUMNS if frequency or c != "key_per_second"]
    axis = "frequency_ghz" if frequency else "loss_db"
    names = [axis if c == "coordinate" else c for c in cols]
    payloads = [", ".join(f'"{k}": {_json_field(v)}' for k, v in s.items())
                for s in summary or ()]
    if out_format == "csv":
        lines = [",".join(names)]
        lines += [",".join(_csv_field(getattr(p, c)) for c in cols) for p in points]
        lines += ["# summary {" + payload + "}" for payload in payloads]
    else:
        lines = ["{" + ", ".join(f'"{n}": {_json_field(getattr(p, c))}'
                                 for n, c in zip(names, cols)) + "}" for p in points]
        lines += ['{"summary": {' + payload + "}}" for payload in payloads]
    return "\n".join(lines) + "\n"


def table_row(coordinate, eps, delta, cond_s, outcome, per_second):
    """One sweep-table row, field by field, as a tuple in KeyRatePoint order.

    outcome: the row's key_rate, e_zz, e_xx, omega_ref_upper, omega_upper
    and zeta_obs, or the message of its error; an error row carries nan in
    every number the estimate would have given.
    """
    if isinstance(outcome, str):
        nan = math.nan
        return (coordinate, eps, delta, nan, nan, nan, nan, nan, nan, nan,
                nan if per_second else None, outcome)
    return (coordinate, eps, delta, *outcome, cond_s,
            outcome[0] * coordinate * 1e9 if per_second else None, None)


def validate_row(row):
    """SweepTable.check's range checks on one row, in turn; ValueError on a bad good row.

    row: an object with the TABLE_COLUMNS attributes. An error row passes;
    on a good row every check refuses nan.
    """
    if row.error is not None:
        return
    checks = (
        row.coordinate >= 0.0,
        0.0 <= row.eps <= 1.0,
        abs(row.delta) < math.pi / 2,
        row.key_per_second is None or row.key_per_second >= 0.0,
        row.key_rate >= 0.0,
        0.0 <= row.e_zz <= 1.0,
        0.0 <= row.e_xx <= 1.0,
        row.omega_ref_upper >= 0.0,
        0.0 <= row.omega_upper <= 1.0,
        row.zeta_obs > 0.0,
        row.cond_s >= 1.0,
    )
    if not all(checks):
        raise ValueError(f"invalid diagnostics in row at coordinate {row.coordinate!r}")


def curve_summaries_by_row(points):
    """SweepTable.summaries without its warnings, gathering rows curve by curve.

    A curve is the rows of one (eps, delta), or of one delta in a
    frequency table; it is labelled by its first row, curves follow in
    label order, and each curve is sorted by coordinate before its cutoff
    and revival are read off.
    """
    frequency = any(p.key_per_second is not None for p in points)
    names = ("delta",) if frequency else ("eps", "delta")
    curves = {}
    for p in points:
        curves.setdefault(tuple(getattr(p, n) for n in names), []).append(p)
    summaries = []
    for key, rows in sorted(curves.items(), key=lambda item: item[0]):
        rows = sorted(rows, key=lambda p: p.coordinate)
        positive = [i for i, p in enumerate(rows) if p.error is None and p.key_rate > 0.0]
        summary = dict(zip(names, key))
        summary["cutoff"] = rows[positive[-1]].coordinate if positive else None
        summary["revival"] = bool(positive) and positive[-1] - positive[0] >= len(positive)
        summaries.append(summary)
    return summaries
