"""The test suite's one high-precision reference and only mpmath user: importing it sets
mpmath to ``DIGITS`` digits, and it imports nothing from oscswap. It is built on
u = exp(-i h t), h = [[omega1, lambda], [lambda, omega2]], rows ((S, T), (T, S')). The
n-quanta block of a 2x2 unitary is its n-th symmetric power (Campos, Saleh and Teich,
Phys. Rev. A 40, 1371 (1989)), so :func:`block_element` gives the rotation's elements
and <n1, n2|U(t)|m1, m2> alike. The product-state functions take S and T, so a test
can pass the program's own to isolate one stage's rounding."""

import math

import mpmath
import numpy as np

DIGITS = mpmath.mp.dps = 40


def one_quantum(params, t):
    """exp(-i h t) = e^{-i mu t} (cos(d t) - i sin(d t) (h - mu) / d) as rows
    ((S, T), (T, S')), mu the mean frequency, delta half the detuning and
    d = sqrt(lambda^2 + delta^2); sin(d t) / d is t where d = 0."""
    w1, w2, lam, t = (mpmath.mpf(v) for v in (params.omega1, params.omega2, params.lam, t))
    delta = (w1 - w2) / 2
    d = mpmath.sqrt(lam**2 + delta**2)
    sinc = t if d == 0 else mpmath.sin(d * t) / d
    phase, cos = mpmath.expj(-(w1 + w2) * t / 2), mpmath.cos(d * t)
    hop = phase * -1j * lam * sinc
    return (phase * (cos - 1j * delta * sinc), hop), (hop, phase * (cos + 1j * delta * sinc))


def rotation(x):
    """The rotation ((c, s), (-s, c)) at detuning x: c^2, s^2 = (1 +- x / h) / 2, h^2 = 1 + x^2."""
    x = mpmath.mpf(x)
    h = mpmath.sqrt(1 + x * x)
    c, s = mpmath.sqrt((h + x) / (2 * h)), mpmath.sqrt((h - x) / (2 * h))
    return (c, s), (-s, c)


def block_element(u, n1, n2, m1, m2):
    """<n1, n2| of the n-quanta block of the 2x2 matrix ``u`` |m1, m2>: sqrt(n1! n2!
    / (m1! m2!)) sum_k C(m1, n2 - k) C(m2, k) u00^(m1 - n2 + k) u10^(n2 - k) u01^(m2 - k)
    u11^k. The sum cancels to as little as 2^(-n/2) of its terms, so it works
    n / 6 + 5 digits above ``DIGITS``; the rounding of ``u`` is amplified as
    much, which leaves ``DIGITS`` - 0.15 n correct digits, 25 at n = 100."""
    (u00, u01), (u10, u11) = u
    with mpmath.extradps((n1 + n2) // 6 + 5):
        total = mpmath.fsum(math.comb(m1, n2 - k) * math.comb(m2, k) * u00 ** (m1 - n2 + k)
                            * u10 ** (n2 - k) * u01 ** (m2 - k) * u11**k
                            for k in range(max(0, n2 - m1), min(n2, m2) + 1))
        f = mpmath.factorial
        return mpmath.sqrt(f(n1) * f(n2) / (f(m1) * f(m2))) * total


def normalized(amplitudes):
    """Amplitudes given as numbers, divided by their norm."""
    amps = [mpmath.mpc(complex(a)) for a in amplitudes]
    norm = mpmath.sqrt(mpmath.fsum(abs(a) ** 2 for a in amps))
    return [a / norm for a in amps]


def weights(amplitudes):
    """The normalized weights p_n = |phi_n|^2 of amplitudes given as numbers."""
    return [abs(a) ** 2 for a in normalized(amplitudes)]


def poisson_weights(mean, truncation):
    """The coherent input's weights e^{-mean} mean^n / n!, n = 0..truncation, normalized."""
    kept = [mpmath.mpf(mean) ** n / mpmath.factorial(n) for n in range(truncation + 1)]
    total = mpmath.fsum(kept)
    return [w / total for w in kept]


def poisson_tail(mean, truncation):
    """P(N > truncation) for N ~ Poisson(mean): the coherent input's discarded weight."""
    return mpmath.gammainc(truncation + 1, 0, mpmath.mpf(mean), regularized=True)


def fidelity_and_slope(p, hop, d_hop):
    """F = |O|^2, O = sum_n p_n T^n, and dF/dt = 2 Re(conj(O) dO/dt) for dT/dt = ``d_hop``."""
    overlap, d_overlap = mpmath.polyval(p[::-1], mpmath.mpc(hop), derivative=True)
    return abs(overlap) ** 2, 2 * mpmath.re(mpmath.conj(overlap) * d_overlap * d_hop)


def transfer_profile(hop, n_max):
    """|T|^{2n} for n = 1..n_max."""
    single = abs(mpmath.mpc(hop)) ** 2
    return [single**n for n in range(1, n_max + 1)]


def populations(p, stay, hop, levels):
    """(p1, p2) at ``levels``: mode 2's binomial thinning p2(m) = |T|^{2m} sum_n p_n
    C(n, m) |S|^{2(n - m)}, and mode 1's the same with S and T swapped."""
    kept = [abs(mpmath.mpc(z)) ** 2 for z in (stay, hop)]
    result = []
    for own, other in (kept, kept[::-1]):
        powers = [other**j for j in range(len(p))]
        result.append([own**m * mpmath.fsum(p[n] * math.comb(n, m) * powers[n - m]
                                           for n in range(m, len(p)) if p[n]) for m in levels])
    return result


def product_table(phi, stay, hop):
    """C[n1][n2] = phi_n sqrt(C(n, n2)) S^{n1} T^{n2}, n = n1 + n2 < len(phi):
    |phi> (x) |0>, ``phi`` :func:`normalized`, at a time with amplitudes S and T."""
    stays, hops = ([mpmath.mpc(z) ** k for k in range(len(phi))] for z in (stay, hop))
    return [[phi[n1 + n2] * mpmath.sqrt(math.comb(n1 + n2, n2)) * stays[n1] * hops[n2]
             for n2 in range(len(phi) - n1)] for n1 in range(len(phi))]


def reduced_density(table, mode):
    """rho[a][b - a] = sum_j C[a][j] conj(C[b][j]) (mode 1) or sum_j C[j][a] conj(C[j][b])
    (mode 2) of a :func:`product_table`, for b >= a; below the diagonal rho is the conjugate."""
    full = [row + [0] * (len(table) - len(row)) for row in table]
    rows = full if mode == 1 else [list(column) for column in zip(*full)]
    conj = [[mpmath.conj(z) for z in row] for row in rows]
    return [[mpmath.fdot(rows[a], conj[b]) for b in range(a, len(rows))] for a in range(len(rows))]


def exchange_grades(phi, table, hop):
    """(fidelity, statistics_match, phase_defect) of the :func:`product_table`
    of ``phi``: |sum_n conj(phi_n) C[0][n]|^2, the worst ||C[0][n]| - |phi_n||,
    and the worst |arg C[0][n] - arg phi_n - n arg T|, wrapped into [-pi, pi],
    where both moduli are at least 1e-12."""
    pairs = list(zip(phi, table[0]))
    deltas = [mpmath.arg(z) - mpmath.arg(a) - n * mpmath.arg(hop)
              for n, (a, z) in enumerate(pairs) if min(abs(a), abs(z)) >= 1e-12]
    return (abs(mpmath.fsum(mpmath.conj(a) * z for a, z in pairs)) ** 2,
            max(abs(abs(z) - abs(a)) for a, z in pairs),
            max([abs(x - 2 * mpmath.pi * mpmath.nint(x / (2 * mpmath.pi))) for x in deltas] or [0]))


def fidelity_at(params, p, t):
    """:func:`fidelity_and_slope` at time t, from :func:`one_quantum`."""
    (stay, hop), _ = one_quantum(params, t)
    # dT/dt is entry (1, 0) of du/dt = -i h u
    return fidelity_and_slope(p, hop, -1j * (params.lam * stay + params.omega2 * hop))


def _peak(params, p, start, end):
    """F at the root of dF/dt in [start, end]."""
    root = mpmath.findroot(lambda t: fidelity_at(params, p, t)[1], (start, end), solver="anderson")
    assert start <= root <= end
    return fidelity_at(params, p, root)[0]


def window_maximum(params, p, t_end):
    """The maximum of F = |sum_n p_n T^n|^2 over [0, t_end]: the window's edges,
    and each peak within 0.05 of the best of a float grid of 20 points per
    period of F's fastest term, at support (mu + 2 d)."""
    mu = 0.5 * (params.omega1 + params.omega2)
    d = math.hypot(params.lam, 0.5 * (params.omega1 - params.omega2))
    ts = np.linspace(0.0, t_end, int(t_end * (len(p) - 1) * (mu + 2.0 * d) * 20.0 / math.tau) + 2)
    # T = u[0][1] in doubles, from h's eigenvectors, only to locate the peaks
    energies, vectors = np.linalg.eigh([[params.omega1, params.lam], [params.lam, params.omega2]])
    hops = np.exp(-1j * np.outer(ts, energies)) @ (vectors[0] * vectors[1])
    fids = np.abs(np.polynomial.polynomial.polyval(hops, [float(w) for w in p])) ** 2
    return max([fidelity_at(params, p, t)[0] for t in (0.0, t_end)]
               + [_peak(params, p, ts[i - 1], ts[i + 1]) for i in range(1, len(ts) - 1)
                  if fids[i - 1] <= fids[i] >= fids[i + 1] and fids[i] >= np.max(fids) - 0.05])


def bracket_maximum(params, p, start, end, edges):
    """The maximum of F = |sum_n p_n T^n|^2 over [start, end]: the ``edges``
    inside it, and every peak where dF/dt falls through 0 between 64 equal steps."""
    ts = mpmath.linspace(mpmath.mpf(start), mpmath.mpf(end), 65)
    slopes = [fidelity_at(params, p, t)[1] for t in ts]
    return max([fidelity_at(params, p, t)[0] for t in edges if start <= t <= end]
               + [_peak(params, p, ts[i], ts[i + 1]) for i in range(64)
                  if slopes[i] > 0 >= slopes[i + 1]])


def expm(block, t):
    """exp(-i t block) of a numpy matrix, rounded to a complex numpy array."""
    exact = mpmath.expm(mpmath.mpc(0, -t) * mpmath.matrix(np.asarray(block).tolist()))
    return np.array(exact.tolist(), dtype=complex)
