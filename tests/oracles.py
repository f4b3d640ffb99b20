"""Independent oracles for the test suite.

Everything here is deliberately built by a different route than the
package: the relay POVM by brute-force Fock-amplitude propagation with
explicit environment modes and an exhaustive dark-count enumeration, the
virtual ensemble from the full 16-dimensional source state, Bloch
coefficients by literal matrix traces, the singlet-error weight by direct
traces against density matrices, the deviation bounds as two branches
evaluated in full, entropies in high precision, a table's setup and its
eps-0 chain in 60-digit mpmath (S^-1 by mpmath's inverse, cond(S) from
the singular values of S, not from its two 3x3 factors), and
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
    total = 0
    for dark in itertools.product((False, True), repeat=4):
        weight = 1
        for fires in dark:
            weight *= p_d if fires else (1 - p_d)
        clicked = set(occupied) | {ch for ch, fires in enumerate(dark) if fires}
        if clicked == set(_PATTERN):
            total += weight
    return total


def _alice_poly(t, survives, sqrt2):
    if survives:
        return {(t,): 1 / sqrt2, (2 + t,): 1 / sqrt2}
    return {(4 + t,): 1}


def _bob_poly(t_in, survives, rot, sqrt2):
    poly = {}
    for t in range(2):
        amp = rot[t][t_in]
        if amp == 0:
            continue
        if survives:
            poly[(t,)] = poly.get((t,), 0) + amp / sqrt2
            poly[(2 + t,)] = poly.get((2 + t,), 0) - amp / sqrt2
        else:
            poly[(6 + t,)] = poly.get((6 + t,), 0) + amp
    return poly


def _two_photon(poly_a, poly_b, sqrt2):
    out = {}
    for (m,), va in poly_a.items():
        for (n,), vb in poly_b.items():
            key = (m, n) if m <= n else (n, m)
            amp = va * vb
            if m == n:
                amp *= sqrt2  # bosonic double occupancy
            out[key] = out.get(key, 0) + amp
    return out


def _fock_matrix(eta, p_d, e_d, sqrt):
    """The POVM element as a 4x4 nested list, in the number type of its arguments.

    sqrt: the square root of that type (math.sqrt for floats, mpmath.sqrt
    for mpmath numbers); every other step is +, -, * and /.
    """
    sqrt2 = sqrt(2)
    s, c = sqrt(e_d), sqrt(1 - e_d)
    rot = [[c, -s], [s, c]]

    weights = {}
    for size in range(3):
        for occ in itertools.combinations(range(4), size):
            weights[frozenset(occ)] = _accept_weight_by_enumeration(occ, p_d)

    basis = [(0, 0), (0, 1), (1, 0), (1, 1)]
    m = [[0] * 4 for _ in range(4)]
    for sa, sb in itertools.product((True, False), repeat=2):
        case = (eta if sa else 1 - eta) * (eta if sb else 1 - eta)
        if case == 0:
            continue
        vecs = [
            _two_photon(_alice_poly(ta, sa, sqrt2), _bob_poly(tb, sb, rot, sqrt2), sqrt2)
            for ta, tb in basis
        ]
        for i in range(4):
            for j in range(4):
                entry = 0
                for key, vj in vecs[j].items():
                    vi = vecs[i].get(key)
                    if vi is None:
                        continue
                    occ = frozenset(ch for ch in key if ch < 4)
                    entry += vi * vj * weights[occ]
                m[i][j] += case * entry
    return m


def fock_povm(eta_d, p_d, e_d, loss_db):
    """4x4 singlet-announcement POVM element by explicit Fock propagation."""
    eta = eta_d * 10.0 ** (-loss_db / 20.0)
    return np.array(_fock_matrix(eta, p_d, e_d, math.sqrt), dtype=float)


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
    """Projector onto a real single-qubit state given by its amplitudes (2,)."""
    return np.outer(state, state)


def _bloch_to_density(row):
    # inverse of bloch_by_trace: rho = (1/4) sum_{l,l'} s_{l,l'} sigma_l x sigma_l'
    paulis = [np.kron(PAULI[l], PAULI[lp]) for l in AXES for lp in AXES]
    return sum(c * p for c, p in zip(row, paulis)) / 4.0


def omega_ref_direct(p_vir, s_vir, povm):
    """Singlet-error weight by direct trace against the virtual states.

    Reconstructs each kept virtual state as a density matrix from its
    Bloch row and sums p_vir * Tr[M rho]; the package computes the same
    weight through the tomography identity f_obj . Y instead.
    """
    total = 0.0
    for p, row in zip(p_vir, s_vir):
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


def leaky_source(rng, refs_a, refs_b, leaks_a, leaks_b, leak_dim):
    """Yields, eps and the actual singlet-error weight of a source that leaks into a side mode.

    Each side's states live in qubit (x) a leak mode of dimension
    leak_dim, the qubit index major; its reference states are |ref>|0>,
    refs_a and refs_b the real qubit amplitudes (3, 2) of the three
    settings. Each actual state is sqrt(1 - e)|ref>|0> + sqrt(e)|chi>, e
    its own entry of leaks_a or leaks_b and chi a random complex state
    orthogonal to |ref>|0>. The relay is Q M Q, M a random 0 <= M <= 1 on
    both sides' spaces and Q = Q_A (x) Q_B, Q_A the projector onto what
    is orthogonal to the reference states of Alice's leaking states (e >
    0), Q_B Bob's: the relay sees a leaking state by its leak alone,
    where the deviation bounds have the least slack. Returns the yields Y_ij =
    <a_i b_j|Q M Q|a_i b_j> in setting-pair order, the side-channel
    budgets eps_ij = 1 - (1 - e_a,i)(1 - e_b,j), one minus the fidelity
    of each pair's actual and reference states, and Omega_act = sum_j
    v_j^dag Q M Q v_j of the actual states, v_j = ((a_0 + (-1)^j a_1)/2)
    (x) ((b_0 + (-1)^j b_1)/2).
    """
    dim = 2 * leak_dim

    def side(refs, leaks):
        states, blind = [], np.eye(dim, dtype=complex)
        for ref, e in zip(refs, leaks):
            r = np.zeros(dim, dtype=complex)
            r[::leak_dim] = ref  # |ref>|0>
            chi = random_pure_state(rng, dim)
            chi -= r * np.vdot(r, chi)
            chi /= np.linalg.norm(chi)
            states.append(math.sqrt(1.0 - e) * r + math.sqrt(e) * chi)
            if e > 0.0:
                u = blind @ r  # r less its part in the span already removed
                if np.linalg.norm(u) > 1e-9:
                    u /= np.linalg.norm(u)
                    blind -= np.outer(u, u.conj())
        return states, blind

    (a, blind_a), (b, blind_b) = side(refs_a, leaks_a), side(refs_b, leaks_b)
    q = np.kron(blind_a, blind_b)
    m = q @ random_bounded_operator(rng, dim * dim) @ q

    def weight(v):
        return float(np.vdot(v, m @ v).real)

    # a yield the projector zeroes can round to -1e-18
    y = np.array([min(max(weight(np.kron(ai, bj)), 0.0), 1.0) for ai in a for bj in b])
    eps = np.array([1.0 - (1.0 - ea) * (1.0 - eb) for ea in leaks_a for eb in leaks_b])
    omega = sum(weight(np.kron((a[0] + sign * a[1]) / 2.0, (b[0] + sign * b[1]) / 2.0))
                for sign in (1.0, -1.0))
    return y, eps, omega


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


def _mp_kron(a, b):
    """Kronecker product of two square nested lists."""
    n, m = len(a), len(b)
    return [[a[i // m][j // m] * b[i % m][j % m] for j in range(n * m)] for i in range(n * m)]


def _mp_trace_product(a, b):
    """Tr[a b] of two square nested lists."""
    return sum(a[i][j] * b[j][i] for i in range(len(a)) for j in range(len(a)))


def _mp_entropy(p):
    import mpmath

    if p <= 0 or p >= 1:
        return 0
    return -p * mpmath.log(p, 2) - (1 - p) * mpmath.log(1 - p, 2)


# I, X, Z as integer nested lists, exact in any number type
_MP_PAULIS = [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[1, 0], [0, -1]]]


def _floats(values):
    """mpmath numbers, or nested lists of them, as a float64 array, each correctly rounded."""
    if isinstance(values, (list, tuple)):
        return np.array([_floats(v) for v in values])
    return float(values)


def _tomography_mp(states_a, states_b):
    """The tomography of one reference set per side, at mpmath's working precision.

    states_a, states_b: the amplitudes of the three reference states per
    side, in SETTINGS order. Every S entry is a literal trace, S^-1 is
    mpmath's inverse, cond(S) the ratio of the singular values of S
    itself, and the virtual ensemble comes from the 16-dimensional source
    state. Returns a dict of mpmath values: b_a, b_b (3 x 3 Bloch rows
    (1, <X>, <Z>)), s_matrix, s_inv, cond_s, p_vir, s_vir, f_obj and the
    two-qubit density matrices of the nine setting pairs, as nested lists.
    """
    import mpmath

    products = [_mp_kron(p, q) for p in _MP_PAULIS for q in _MP_PAULIS]
    rhos_a, rhos_b = ([[[a * b for b in state] for a in state] for state in states]
                      for states in (states_a, states_b))
    pairs = [_mp_kron(ra, rb) for ra in rhos_a for rb in rhos_b]
    s = mpmath.matrix([[_mp_trace_product(rho, p) for p in products] for rho in pairs])
    s_inv = mpmath.inverse(s)
    singular = mpmath.svd_r(s, compute_uv=False)

    # the source-equivalent state (1/2) sum_{j,s} |jZ, sZ>|phi_jZ, phi_sZ>,
    # its ancillas projected onto |jX, jX> for the kept outcomes j = 0, 1
    p_vir, s_vir = [], []
    for j in range(2):
        x = [1 / mpmath.sqrt(2), (-1) ** j / mpmath.sqrt(2)]
        vec = [sum(x[ja] * x[jb] * states_a[ja][c] * states_b[jb][e] / 2
                   for ja in range(2) for jb in range(2))
               for c in range(2) for e in range(2)]
        p = sum(v * v for v in vec)
        rho = [[vi * vj / p for vj in vec] for vi in vec]
        p_vir.append(p)
        s_vir.append([_mp_trace_product(rho, prod) for prod in products])
    f_obj = [sum(p_vir[j] * s_vir[j][k] * s_inv[k, i] for j in range(2) for k in range(9))
             for i in range(9)]
    return {
        "b_a": [[_mp_trace_product(rho, p) for p in _MP_PAULIS] for rho in rhos_a],
        "b_b": [[_mp_trace_product(rho, p) for p in _MP_PAULIS] for rho in rhos_b],
        "s_matrix": s.tolist(),
        "s_inv": s_inv.tolist(),
        "cond_s": max(singular) / min(singular),
        "p_vir": p_vir,
        "s_vir": s_vir,
        "f_obj": f_obj,
        "pairs": pairs,
    }


def tomography_mp(amps_a, amps_b, dps=60):
    """_tomography_mp of float amplitudes (3, 2) per side, each taken as exact.

    Returns its values as float64 arrays, each correctly rounded.
    """
    import mpmath

    with mpmath.workdps(dps):
        out = _tomography_mp([[mpmath.mpf(float(v)) for v in state] for state in amps_a],
                             [[mpmath.mpf(float(v)) for v in state] for state in amps_b])
        return {key: _floats(value) for key, value in out.items() if key != "pairs"}


def setup_chain_mp(delta, eta_d, p_d, e_d, loss_db, f_ec=1.16, dps=60):
    """A sweep point's setup and its eps-0 chain in dps-digit mpmath, one delta on both sides.

    The float arguments are taken as exact. The reference states come from
    the formulas of the settings, the tomography from _tomography_mp, the
    relay element from Fock propagation (_fock_matrix), its rates by
    trace, and the yields by Tr[M rho_a x rho_b], without S. At eps 0
    every deviation bound is its yield, so omega_ref_upper = max(f_obj .
    Y, 0) = omega_upper, and the chain runs on to e_zz, e_xx and the key
    rate at f_ec.

    Returns a dict of float64 values, each correctly rounded: amplitudes
    (3, 2), b (3, 3), s_matrix (9, 9), s_inv (9, 9), p_vir (2,), s_vir
    (2, 9), f_obj (9,), cond_s, rates (9,), yields (9,), key_rate, e_zz,
    e_xx and kappa, the sum of |f_obj_i Y_i| over |f_obj . Y|: the factor
    by which the dot product amplifies the relative errors of its terms.
    """
    import mpmath

    with mpmath.workdps(dps):
        d = mpmath.mpf(delta)
        half, quarter = d / 2, mpmath.pi / 4
        states = [(mpmath.cos(half), mpmath.sin(half)), (mpmath.sin(half), mpmath.cos(half)),
                  (mpmath.sin(quarter + half), mpmath.cos(quarter + half))]
        out = _tomography_mp(states, states)
        pairs = out.pop("pairs")
        del out["b_b"]
        out["b"] = out.pop("b_a")
        out["amplitudes"] = states

        eta = mpmath.mpf(eta_d) * mpmath.power(10, -mpmath.mpf(loss_db) / 20)
        m = _fock_matrix(eta, mpmath.mpf(p_d), mpmath.mpf(e_d), mpmath.sqrt)
        out["rates"] = [_mp_trace_product(m, _mp_kron(p, q)) / 4
                        for p in _MP_PAULIS for q in _MP_PAULIS]
        yields = out["yields"] = [_mp_trace_product(m, pair) for pair in pairs]

        zz = [yields[i] for i in (0, 1, 3, 4)]
        zeta_obs = sum(zz) / 4
        out["e_zz"] = e_zz = (zz[0] + zz[3]) / sum(zz)
        terms = [f * y for f, y in zip(out["f_obj"], yields)]
        omega = max(sum(terms), 0)
        out["kappa"] = sum(abs(t) for t in terms) / abs(sum(terms))
        out["e_xx"] = e_xx = min(omega, zeta_obs) / zeta_obs
        cap = mpmath.mpf(0.5)  # an error rate at or beyond 1/2 certifies nothing
        bracket = (1 - _mp_entropy(min(e_xx, cap))
                   - mpmath.mpf(f_ec) * _mp_entropy(min(e_zz, cap)))
        out["key_rate"] = zeta_obs * max(bracket, 0)
        return {key: _floats(value) for key, value in out.items()}
