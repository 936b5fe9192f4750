"""Preconditioner bodies, written once for every place that runs them.

Each polynomial recurrence (Algorithm 7 and its Horner and three-term
relatives) and the two-level composite is written here once, over any
vector type with ``+``, ``-``, scalar ``*`` and ``copy()``; the operator,
the coarse solve and the inner preconditioner come in as callables.
:func:`run_program` is the one runner of a solve's preconditioner (its
``repro.parallel.resident.step_program``), and three callers run it:

* the inline solves, on distributed vectors whose operations are the
  rank bodies (``DistVector`` for EDD, ``_RDDVector`` for RDD);
* the pool workers, on their owned ranks' parts;
* the orchestrator's charge replay after a resident dispatch, on
  charge-only ghost vectors.

So worker and inline results agree bit for bit because they are the same
expressions, and the replayed charges are the inline ones because they
come from the same sequence of vector operations.  Outside a solve,
``apply_linear`` runs the same recurrences.

This is a leaf module (it imports nothing), so a spawned worker can load
it without the solver stack.
"""


def neumann(matvec, v, omega, degree):
    """``z = omega * sum_{i=0..degree} (I - omega A)^i v`` via
    ``s <- s - omega A s`` (Algorithm 7): ``degree`` operator applies."""
    s = v.copy()
    z = v.copy()
    for _ in range(degree):
        s = s - omega * matvec(s)
        z = z + s
    return omega * z


def horner(matvec, v, coef):
    """``z = (coef[0] + coef[1] A + ... + coef[m] A^m) v`` by Horner's
    rule: ``len(coef) - 1`` operator applies."""
    z = coef[-1] * v
    for c in coef[-2::-1]:
        z = matvec(z) + c * v
    return z


def three_term(matvec, v, alphas, betas, mus, degree):
    """``z = sum_i mus[i] phi_i(A) v`` for polynomials ``phi_i`` given by
    the Stieltjes recurrence ``betas[i+1] phi_{i+1} = (A - alphas[i])
    phi_i - betas[i] phi_{i-1}`` with ``betas[0] phi_0 = 1``: ``degree``
    operator applies."""
    phi_prev = None
    phi = (1.0 / betas[0]) * v
    z = mus[0] * phi
    for i in range(degree):
        nxt = matvec(phi) - alphas[i] * phi
        if phi_prev is not None:
            nxt = nxt - betas[i] * phi_prev
        nxt = (1.0 / betas[i + 1]) * nxt
        z = z + mus[i + 1] * nxt
        phi_prev, phi = phi, nxt
    return z


#: The polynomial recurrences by the name a ``chain_terms`` descriptor
#: gives them; each takes ``(matvec, v, **params)``.
CHAINS = {"neumann": neumann, "horner": horner, "three_term": three_term}


def two_level(mode, v, inner, coarse, operator):
    """The two-level composite ``z = C_2L v`` around a one-level ``inner``
    and the coarse correction ``coarse`` (``q = W E^-1 W^T v``):
    ``"additive"`` is ``inner(v) + q``; ``"deflate"`` is
    ``inner(v - A q) + q``, one more ``operator`` apply."""
    if mode == "additive":
        z = inner(v)
        return z + coarse(v)
    q = coarse(v)
    r = v - operator(q)
    return inner(r) + q


def run_program(program, v, operator, coarse, ilu0):
    """Run a preconditioner program (the nested tuples
    ``repro.parallel.resident.step_program`` builds) on ``v``:
    ``("copy",)``, ``("chain", kind, params)`` — a :data:`CHAINS`
    recurrence —, ``("ilu0", key)`` and ``("2l", mode, key, n_coarse,
    inner)``.  ``coarse(key, v)`` and ``ilu0(key, v)`` apply the state
    shipped under ``key``."""
    kind = program[0]
    if kind == "copy":
        return v.copy()
    if kind == "chain":
        return CHAINS[program[1]](operator, v, **program[2])
    if kind == "ilu0":
        return ilu0(program[1], v)
    _, mode, key, _n_coarse, inner = program
    return two_level(
        mode, v,
        lambda u: run_program(inner, u, operator, coarse, ilu0),
        lambda u: coarse(key, u),
        operator,
    )
