import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference import StatePoint, fluid_symbol, symbol_block

from vecf.constitutive import SGN, TransportModel, transport
from vecf.equations import (MUTATION_KEYS, DegenerateTimeMatrix, SinusoidalField,
                            assemble_lower_order, cell_factors, divergence_residual,
                            equation_rows, principal_terms, symbol_apply,
                            time_matrix_solve)
from vecf.experiments import ORDER_WINDOW
from vecf.tensor import minkowski

MODEL = TransportModel(a1=4.0, a2=6.0)
GDIAG = np.diag(SGN)


def reference_lower_order(u, du, eps, deps, model, mutation=None):
    """The term-by-term assembly with every (4, 4, N) intermediate formed.

    Slow reference for the contracted `assemble_lower_order`: the same rows
    with pi, the shear rate and the three energy-gradient fluxes built as
    whole tensors and contracted last.
    """
    if np.any(eps <= 0.0):
        raise ValueError("energy density must be positive")
    scale = dict.fromkeys(MUTATION_KEYS, 1.0)
    if mutation is not None:
        key, factor = mutation
        if key not in scale:
            raise KeyError(f"unknown mutation key {key!r}; use one of {MUTATION_KEYS}")
        scale[key] = factor

    eta = model.eta(eps)
    etap = model.eta_prime(eps)
    lam, chi = model.a2 * eta, model.a1 * eta
    deta = etap * deps
    dlam, dchi = model.a2 * deta, model.a1 * deta

    u_dn = SGN[:, None] * u
    du_dn = du * SGN[None, :, None]
    theta = np.einsum('aan->n', du)
    acc = np.einsum('an,abn->bn', u, du)
    acc_dn = SGN[:, None] * acc
    udeps = np.einsum('an,an->n', u, deps)
    pi_up = GDIAG[:, :, None] + u[:, None, :] * u[None, :, :]
    pi_mix = np.eye(4)[:, :, None] + u[:, None, :] * u_dn[None, :, :]
    shear_rate = du_dn + du_dn.transpose(1, 0, 2) - (2.0 / 3.0) * GDIAG[:, :, None] * theta

    # shear term: two gradient-square groups plus the product-rule group,
    # the latter with the minus sign fixed by the divergence oracle;
    # multi-factor contractions are chained pairwise to keep the work
    # linear in the batch size (a plain einsum loops over all free indices)
    dudu = np.einsum('avn,mvn->amn', du_dn, du)
    quad_a = np.einsum('amn,amn->n', pi_up, dudu)
    quad_b = np.einsum('mn,vmn->vn', acc, du_dn)
    pi_s = np.einsum('amn,mvn->avn', pi_up, shear_rate)        # pi^{am} S_{m nu}
    g_iso = (np.einsum('an,avn->vn', deta, pi_s)
             + eta * np.einsum('mn,mvn->vn', theta * u + acc, shear_rate))
    # d_a pi^v_b expands to du[a,v] u_b + u^v du_dn[a,b]; both pieces contract
    # against pi^{am} S_{mv}
    pis_du = np.einsum('avn,avn->n', pi_s, du)
    pis_u = np.einsum('avn,vn->an', pi_s, u)
    grad_group = (np.einsum('vn,vbn->bn', g_iso, pi_mix)
                  + eta * (u_dn * pis_du
                           + np.einsum('an,abn->bn', pis_u, du_dn)))
    b_shear = scale["shear"] * (eta * u_dn * quad_a
                                + eta * np.einsum('vbn,vn->bn', pi_mix, quad_b)
                                - grad_group)

    dlu = np.einsum('an,an->n', dlam, u)
    flux = dlu * u + lam * theta * u + lam * acc
    b_relax = scale["momentum_relax"] * (
        np.einsum('mn,mbn->bn', flux, du_dn)
        + u_dn * np.einsum('an,mn,man->n', dlam, u, du)
        + lam * np.einsum('abn,mn,man->bn', du_dn, u, du)
        + lam * u_dn * np.einsum('amn,man->n', du, du))

    dcu = np.einsum('an,an->n', dchi, u)
    b_exp_iso = scale["expansion_iso"] * (theta / 3.0) * (
        dchi + dcu * u_dn + chi * (theta * u_dn + acc_dn))
    b_exp_uu = scale["expansion_uu"] * theta * (
        dcu * u_dn + chi * theta * u_dn + chi * acc_dn)

    fc = lam / (4.0 * eps)
    dfc = dlam / (4.0 * eps) - lam * deps / (4.0 * eps ** 2)
    dfu = np.einsum('an,an->n', dfc, u)
    dfc_up = SGN[:, None] * dfc
    mixed = (dfu * pi_mix
             + u_dn[None, :, :] * (dfc_up + dfu * u)[:, None, :]
             + fc * (theta * pi_mix
                     + acc[:, None, :] * u_dn[None, :, :]
                     + u[:, None, :] * acc_dn[None, :, :]
                     + np.einsum('abn,amn->mbn', du_dn, pi_up)
                     + u_dn[None, :, :] * (theta * u + acc)[:, None, :]))
    b_en_mixed = scale["energy_gradient_mixed"] * np.einsum('mbn,mn->bn', mixed, deps)

    hc = 3.0 * chi / (4.0 * eps)
    dhc = 3.0 * dchi / (4.0 * eps) - 3.0 * chi * deps / (4.0 * eps ** 2)
    dhu = np.einsum('an,an->n', dhc, u)
    uu_flux = (dhu * (u_dn[None, :, :] * u[:, None, :])
               + hc * (theta * u_dn[None, :, :] * u[:, None, :]
                       + acc_dn[None, :, :] * u[:, None, :]
                       + u_dn[None, :, :] * acc[:, None, :]))
    b_en_uu = scale["energy_gradient_uu"] * np.einsum('mbn,mn->bn', uu_flux, deps)

    kc = chi / (4.0 * eps)
    dkc = dchi / (4.0 * eps) - chi * deps / (4.0 * eps ** 2)
    dku = np.einsum('an,an->n', dkc, u)
    iso_flux = ((dkc + dku * u_dn)[None, :, :] * u[:, None, :]
                + kc * ((theta * u_dn + acc_dn)[None, :, :] * u[:, None, :]
                        + du.transpose(1, 0, 2)
                        + u_dn[None, :, :] * acc[:, None, :]))
    b_en_iso = scale["energy_gradient_iso"] * np.einsum('mbn,mn->bn', iso_flux, deps)

    b_ideal = scale["ideal"] * (
        (4.0 / 3.0) * (theta * u_dn * eps + acc_dn * eps + u_dn * udeps)
        + deps / 3.0)

    b_low = (b_shear + b_relax + b_exp_iso + b_exp_uu
             + b_en_mixed + b_en_uu + b_en_iso + b_ideal)
    constraint = np.einsum('ln,ln->n', acc_dn, acc)
    return np.concatenate([SGN[:, None] * b_low, constraint[None, :]], axis=0)


def random_jet(rng, n):
    """Unnormalized 3+1D jet (u, du, eps, deps): u.u != -1 and every
    derivative nonzero."""
    u = np.concatenate([rng.uniform(0.9, 3.0, (1, n)), rng.uniform(-2, 2, (3, n))])
    return (u, rng.uniform(-1, 1, (4, 4, n)), rng.uniform(0.5, 2.0, n),
            rng.uniform(-1, 1, (4, n)))


@pytest.mark.parametrize("mutation", [None] + [(k, 1.7) for k in MUTATION_KEYS])
def test_lower_order_matches_reference(mutation):
    # the contracted assembly and the whole-tensor reference agree row by
    # row, with every term group (scaled alone by `mutation`) in play
    rng = np.random.default_rng(29)
    for _ in range(6):
        model = TransportModel(a1=rng.uniform(2.0, 6.0), a2=rng.uniform(4.0, 12.0),
                               eta0=rng.uniform(0.5, 2.0))
        jet = random_jet(rng, 64)
        new = assemble_lower_order(*jet, model, transport(jet[2], model), mutation=mutation)
        ref = reference_lower_order(*jet, model, mutation=mutation)
        assert np.all(np.abs(new - ref).max(axis=1) <= 1e-13 * np.abs(ref).max(axis=1))


@pytest.mark.parametrize("mutation", [None] + [(k, 1.7) for k in MUTATION_KEYS])
def test_two_row_jet_matches_padded_jet(mutation):
    # the solver's (t, x) jet carries k = 2 derivative rows; the same jet
    # padded with zero y and z rows, and the whole-tensor reference on it,
    # give the same rows
    rng = np.random.default_rng(31)
    for _ in range(6):
        model = TransportModel(a1=rng.uniform(2.0, 6.0), a2=rng.uniform(4.0, 12.0),
                               eta0=rng.uniform(0.5, 2.0))
        u, du, eps, deps = random_jet(rng, 64)
        du[2:] = 0.0
        deps[2:] = 0.0
        coeffs = transport(eps, model)
        got = assemble_lower_order(u, du[:2].copy(), eps, deps[:2].copy(), model, coeffs,
                                   mutation=mutation)
        ref = reference_lower_order(u, du, eps, deps, model, mutation=mutation)
        padded = assemble_lower_order(u, du, eps, deps, model, coeffs, mutation=mutation)
        row_scale = 1e-13 * np.abs(ref).max(axis=1)
        assert np.all(np.abs(got - padded).max(axis=1) <= row_scale)
        assert np.all(np.abs(got - ref).max(axis=1) <= row_scale)


def test_jet_rows_must_agree():
    # the lower-order terms and the stress tensor read the same jet
    from vecf.constitutive import stress_tensor_fields
    jet = (np.ones((4, 3)), np.zeros((2, 4, 3)), np.ones(3), np.zeros((4, 3)))
    with pytest.raises(ValueError, match="derivative rows"):
        assemble_lower_order(*jet, MODEL, transport(jet[2], MODEL))
    with pytest.raises(ValueError, match="derivative rows"):
        stress_tensor_fields(*jet, MODEL)


admissible_state = st.tuples(
    st.floats(4.0, 12.0),                                    # a2
    st.floats(0.5, 2.0),                                     # eps
    st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),  # boost direction
    st.floats(0.0, 3.0),                                     # |w|
    st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),  # spatial covector
    st.floats(-1e-6, 1e-6),                                  # distance from null
    st.sampled_from([-1.0, 1.0]),
)


def _admissible(a2, eps, wdir, wnorm, xdir, off_null, sign):
    wdir, xdir = np.array(wdir), np.array(xdir)
    assume(np.linalg.norm(wdir) >= 1e-3 and np.linalg.norm(xdir) >= 1e-3)
    w = wnorm * wdir / np.linalg.norm(wdir)
    s = StatePoint(eps=eps, u=np.array([np.sqrt(1.0 + w @ w), *w]), g=minkowski(),
                   transport=TransportModel(a1=4.0, a2=a2))
    xi = np.array([sign * (1.0 + off_null) * np.linalg.norm(xdir), *xdir])
    return s, xi


def pair_coefficients(u, eps, model):
    """(N, 5, 5) coefficient of d_a d_m for the ten unordered pairs a <= m.

    A pair a < m stands for both orders, so its block is 2 B(e_a, e_m).
    """
    args = (u, cell_factors(eps, transport(eps, model)))
    return {(a, m): (1.0 if a == m else 2.0)
            * symbol_block(*args, a, m).transpose(2, 0, 1)
            for a in range(4) for m in range(a, 4)}


def _close(block, reference, scale):
    return np.abs(block - reference).max() <= 1e-14 * scale


@settings(max_examples=80, deadline=None)
@given(admissible_state)
def test_blocks_match_fluid_symbol(case):
    # basis-covector blocks against fluid_symbol and its polarization, and
    # m(xi) rebuilt from the ten pair blocks at a near-null covector
    s, xi = _admissible(*case)
    u, eps = s.u[:, None], np.array([s.eps])
    basis = np.eye(4)
    sym = {(a, c): fluid_symbol(s, basis[a] + basis[c]) if a != c
           else fluid_symbol(s, basis[a]) for a in range(4) for c in range(a, 4)}
    # a polarized block is a difference of three symbols: their largest
    # entry is the scale of its rounding error
    scale = {(a, c): max(np.abs(sym[k]).max() for k in ((a, c), (a, a), (c, c)))
             for (a, c) in sym}
    pairs = pair_coefficients(u, eps, s.transport)
    for (a, c), blk in pairs.items():
        ref = sym[(a, c)] if a == c else sym[(a, c)] - sym[(a, a)] - sym[(c, c)]
        assert _close(blk[0], ref, scale[(a, c)])
    total = sum(blk[0] * xi[a] * xi[c] for (a, c), blk in pairs.items())
    terms = sum(np.abs(blk[0]) * abs(xi[a] * xi[c]) for (a, c), blk in pairs.items())
    assert _close(total, fluid_symbol(s, xi), terms.max())


time_matrix_state = st.tuples(
    st.floats(4.0, 12.0),                                    # a2
    st.floats(0.5, 2.0),                                     # eps
    st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),  # boost direction
    st.floats(0.0, 3.0),                                     # |w|
    st.floats(-1e-3, 1e-3),                                  # u0 off normalization
    st.lists(st.floats(-1.0, 1.0), min_size=5, max_size=5),  # right-hand side
)


def _time_matrix_case(a2, eps, wdir, wnorm, off_norm, rhs):
    # one cell whose u0 is off normalization by up to 1e-3, as within an
    # RK stage; returns the symbol's inputs and a right-hand side
    wdir = np.array(wdir)
    assume(np.linalg.norm(wdir) >= 1e-3)
    w = wnorm * wdir / np.linalg.norm(wdir)
    u = np.array([np.sqrt(1.0 + w @ w) * (1.0 + off_norm), *w])[:, None]
    eps = np.array([eps])
    model = TransportModel(a1=4.0, a2=a2)
    return (u, cell_factors(eps, transport(eps, model))), np.array(rhs)[:, None]


@settings(max_examples=200, deadline=None)
@given(time_matrix_state)
def test_time_matrix_solve_matches_lapack(case):
    args, r = _time_matrix_case(*case)
    assume(np.abs(r).max() >= 1e-3)
    a = symbol_block(*args, 0, 0)[:, :, 0]
    x, det = time_matrix_solve(*args, r, det_floor=0.0)
    ref = np.linalg.solve(a, r[:, 0])
    assert np.abs(x[:, 0] - ref).max() <= 1e-12 * np.abs(ref).max()
    assert abs(det[0] - np.linalg.det(a)) <= 1e-12 * abs(np.linalg.det(a))
    _, det_only = time_matrix_solve(*args)
    assert det_only[0] == det[0]


@settings(max_examples=100, deadline=None)
@given(time_matrix_state)
def test_symbol_apply_matches_block(case):
    # within 1e-14 of the largest term max|B| max|x|: an entry of B can be
    # a near-cancelling sum of terms of that size, so its own size is no scale
    args, x = _time_matrix_case(*case)
    for a in range(4):
        for c in range(4):
            blk = symbol_block(*args, a, c)[:, :, 0]
            got = symbol_apply(*args, [(a, c)], x[None])[0, :, 0]
            scale = np.abs(blk).max() * np.abs(x).max()
            assert np.abs(got - blk @ x[:, 0]).max() <= 1e-14 * scale


def test_time_matrix_solve_rejects_degenerate_cell():
    # u = 0 zeroes the constraint row q, so det a = 0: the floor trips
    # before any pivot is divided by, and without a floor det reads 0
    u = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    eps = np.ones(2)
    args = (u, cell_factors(eps, transport(eps, MODEL)))
    with pytest.raises(ValueError, match="degenerate"):
        time_matrix_solve(*args, np.ones((5, 2)), det_floor=1e-10)
    _, det = time_matrix_solve(*args)
    assert det[1] == 0.0 and abs(det[0]) > 1e-10


def test_time_matrix_solve_flags_an_infinite_det():
    # at eps = 1e300 (a2 = 6) det a overflows to inf; the guard flags that
    # cell only, and says its det is not finite
    u = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    eps = np.array([1.0, 1e300])
    args = (u, cell_factors(eps, transport(eps, MODEL)))
    with np.errstate(over="ignore", invalid="ignore"):
        _, det = time_matrix_solve(*args)
        assert np.isfinite(det[0]) and np.isinf(det[1])
        with pytest.raises(DegenerateTimeMatrix, match="det not finite at 1 cell") as err:
            time_matrix_solve(*args, np.ones((5, 2)), det_floor=1e-10)
    assert err.value.cells.tolist() == [False, True]


def test_constant_state_has_zero_lower_order():
    n = 8
    u, eps = np.tile(np.array([1.0, 0, 0, 0])[:, None], n), np.ones(n)
    for k in (2, 4):
        rows = assemble_lower_order(u, np.zeros((k, 4, n)), eps, np.zeros((k, n)), MODEL,
                                    transport(eps, MODEL))
        assert np.abs(rows).max() == 0.0


def test_ideal_limit_reduces_to_ideal_divergence():
    # eta0 = 0 leaves the ideal-part divergence plus the constraint term
    rng = np.random.default_rng(3)
    n = 16
    u = rng.uniform(-1, 1, (4, n)) + np.array([2.0, 0, 0, 0])[:, None]
    du, deps = rng.uniform(-1, 1, (4, 4, n)), rng.uniform(-1, 1, (4, n))
    eps = rng.uniform(0.5, 2, n)
    ideal_model = TransportModel(eta0=0.0)
    rows = assemble_lower_order(u, du, eps, deps, ideal_model, transport(eps, ideal_model))
    u_dn = SGN[:, None] * u
    theta = np.einsum('aan->n', du)
    acc_dn = SGN[:, None] * np.einsum('an,abn->bn', u, du)
    udeps = np.einsum('an,an->n', u, deps)
    ideal_low = (4.0 / 3.0) * (theta * u_dn * eps + acc_dn * eps
                               + u_dn * udeps) + deps / 3.0
    assert np.allclose(rows[:4], SGN[:, None] * ideal_low, atol=1e-14)


def test_unknown_mutation_key():
    u, eps = np.tile(np.array([1.0, 0, 0, 0])[:, None], 4), np.ones(4)
    with pytest.raises(KeyError):
        assemble_lower_order(u, np.zeros((4, 4, 4)), eps, np.zeros((4, 4)), MODEL,
                             transport(eps, MODEL), mutation=("bogus", 1.01))


def test_principal_blocks_match_pointwise_symbol():
    # the solver's principal part, 2 B(e0, e1) x + B(e1, e1) y applied
    # without blocks, against the symbol at e0, e1 and e0 + e1
    rng = np.random.default_rng(11)
    n = 8
    u = np.concatenate([rng.uniform(0.9, 1.8, (1, n)), rng.uniform(-1, 1, (3, n))])
    eps = rng.uniform(0.5, 2.0, n)
    x, y = rng.uniform(-1, 1, (2, 5, n))
    terms = symbol_apply(u, cell_factors(eps, transport(eps, MODEL)),
                         [(0, 1), (1, 1)], np.stack([2.0 * x, y]))
    got = terms[0] + terms[1]
    g = minkowski()
    e0 = np.array([1.0, 0, 0, 0])
    e1 = np.array([0.0, 1, 0, 0])
    for j in range(n):
        s = StatePoint(eps=float(eps[j]), u=u[:, j], g=g, transport=MODEL)
        m01 = fluid_symbol(s, e0 + e1) - fluid_symbol(s, e0) - fluid_symbol(s, e1)
        ref = m01 @ x[:, j] + fluid_symbol(s, e1) @ y[:, j]
        assert np.allclose(got[:, j], ref, atol=1e-13)


def test_pair_coefficients_reassemble_symbol():
    # sum C[(a,m)] xi_a xi_m over unordered pairs reproduces the symbol
    rng = np.random.default_rng(13)
    n = 4
    u = np.concatenate([rng.uniform(0.9, 1.8, (1, n)), rng.uniform(-1, 1, (3, n))])
    eps = rng.uniform(0.5, 2.0, n)
    coeffs = pair_coefficients(u, eps, MODEL)
    xi = rng.uniform(-2, 2, 4)
    total = np.zeros((n, 5, 5))
    for (a, m), blk in coeffs.items():
        total += blk * xi[a] * xi[m]
    g = minkowski()
    for j in range(n):
        s = StatePoint(eps=float(eps[j]), u=u[:, j], g=g, transport=MODEL)
        assert np.allclose(total[j], fluid_symbol(s, xi), rtol=1e-12, atol=1e-12)


def test_divergence_oracle_converges_fourth_order():
    fields = SinusoidalField(length=2 * np.pi)
    reports = [divergence_residual(fields, n, MODEL) for n in (64, 128, 256)]
    orders = [np.log2(a.max_discrepancy / b.max_discrepancy)
              for a, b in zip(reports, reports[1:])]
    lo, hi = ORDER_WINDOW
    assert all(lo <= o <= hi for o in orders)


def test_divergence_oracle_constraint_row_vanishes():
    # normalized manufactured fields: the constraint row is analytically zero
    fields = SinusoidalField(length=2 * np.pi)
    rep = divergence_residual(fields, 128, MODEL)
    assert rep.constraint_row_max < 1e-13


@pytest.mark.parametrize("key", ["shear", "momentum_relax", "energy_gradient_mixed",
                                 "energy_gradient_iso", "ideal"])
def test_divergence_oracle_mutation_sensitivity(key):
    # the mutated discrepancy plateaus while the clean one refines away,
    # so the separation is clearest at the finer resolution
    fields = SinusoidalField(length=2 * np.pi)
    clean = divergence_residual(fields, 256, MODEL)
    broken = divergence_residual(fields, 256, MODEL, mutation=(key, 1.01))
    assert broken.max_discrepancy > 100.0 * clean.max_discrepancy


def test_divergence_oracle_mutation_breaks_convergence():
    fields = SinusoidalField(length=2 * np.pi)
    r1 = divergence_residual(fields, 128, MODEL, mutation=("expansion_iso", 1.01))
    r2 = divergence_residual(fields, 256, MODEL, mutation=("expansion_iso", 1.01))
    assert r1.max_discrepancy / r2.max_discrepancy < 2.0   # plateau, not 16


def test_all_mutation_keys_are_live():
    # every named term group changes the assembly somewhere
    rng = np.random.default_rng(7)
    n = 16
    w = rng.uniform(-1, 1, (3, n))
    u = np.concatenate([np.sqrt(1.0 + np.einsum('in,in->n', w, w))[None], w])
    jet = (u, rng.uniform(-1, 1, (4, 4, n)), rng.uniform(0.5, 2, n),
           rng.uniform(-1, 1, (4, n)))
    coeffs = transport(jet[2], MODEL)
    base = assemble_lower_order(*jet, MODEL, coeffs)
    for key in MUTATION_KEYS:
        mutated = assemble_lower_order(*jet, MODEL, coeffs, mutation=(key, 2.0))
        assert np.abs(mutated - base).max() > 0.0


def test_manufactured_field_normalization():
    fields = SinusoidalField(length=2.0)
    x = np.linspace(0, 2.0, 64, endpoint=False)
    u, du, _ = fields.u_jet(0.3, x)
    uu = np.einsum('a,a...,a...->...', SGN, u, u)
    assert np.abs(uu + 1.0).max() < 1e-14
    # gradients of u.u vanish analytically
    grad = 2.0 * np.einsum('a,a...,ma...->m...', SGN, u, du)
    assert np.abs(grad).max() < 1e-13


def rows_of(jet2, model, mutation=None):
    """`equation_rows` of a second-order jet (u, du, eps, deps, d2)."""
    u, du, eps, deps, d2 = jet2
    return equation_rows(u, du, eps, deps, *principal_terms(d2), model,
                         cell_factors(eps, transport(eps, model)), mutation=mutation)


def test_equation_rows_shapes():
    fields = SinusoidalField(length=2.0)
    x = np.linspace(0, 2.0, 32, endpoint=False)
    rows = rows_of(fields.jet2(0.1, x), MODEL)
    assert rows.shape == (5, 32)
    assert np.all(np.isfinite(rows))


def full_jet2(fields, t, x):
    """The manufactured fields' second-order jet with all four derivative
    rows: the (t, x) jet padded with zero y and z rows, and all ten pairs."""
    u, du, eps, deps, d2 = fields.jet2(t, x)
    du4, deps4 = np.zeros((4, 4) + x.shape), np.zeros((4,) + x.shape)
    du4[:2], deps4[:2] = du, deps
    d2_4 = {(a, m): d2.get((a, m), np.zeros((5,) + x.shape))
            for a in range(4) for m in range(a, 4)}
    return u, du4, eps, deps4, d2_4


def reference_divergence_residual(fields, n, model, t0=0.37, mutation=None):
    """divergence_residual with the full stress tensor at every level, each
    level its own call on a full second-order jet, and the rows assembled
    from the full jet over all ten derivative pairs."""
    from vecf.constitutive import stress_tensor_fields
    from vecf.equations import DivergenceReport, dx4
    h = fields.length / n
    x = np.arange(n) * h
    levels = []
    for j in range(-2, 3):
        u, du, eps, deps, _ = full_jet2(fields, t0 + j * h, x)
        levels.append(SGN[:, None, None] * stress_tensor_fields(u, du, eps, deps, model))
    dt_t = (levels[0] - 8.0 * levels[1] + 8.0 * levels[3] - levels[4]) / (12.0 * h)
    div = dt_t[0] + dx4(levels[2], h)[1]
    rows = rows_of(full_jet2(fields, t0, x), model, mutation=mutation)
    return DivergenceReport(resolution=n, spacing=h,
                            max_discrepancy=float(np.abs(SGN[:, None] * rows[:4] - div).max()),
                            constraint_row_max=float(np.abs(rows[4]).max()))


@pytest.mark.parametrize("model,t0,resolutions,mutation", [
    pytest.param(MODEL, 0.37, (64, 256), None, id="None"),
    pytest.param(MODEL, 0.37, (64, 256), ("expansion_iso", 1.01), id="mutation1"),
    pytest.param(TransportModel(a1=4.0, a2=4.0), 0.37, (32, 128), None, id="a2=4"),
    pytest.param(TransportModel(a1=4.0, a2=9.0), -1.3, (32, 512, 2048), None,
                 id="a2=9-t0=-1.3"),
    pytest.param(TransportModel(a1=4.0, a2=4.0), 2.9, (128,), ("shear", 1.01),
                 id="a2=4-t0=2.9-shear"),
] + [pytest.param(MODEL, 0.0, (128,), (key, 1.01), id=f"t0=0-{key}")
     for key in MUTATION_KEYS])
def test_divergence_residual_matches_full_tensor_reference(model, t0, resolutions, mutation):
    # one stress row per level, the four row-0 levels in one batch, from
    # first-order jets, gives the bits of the full tensor at every level;
    # the (t, x) jet's three derivative pairs give the bits of all ten
    fields = SinusoidalField(length=2 * np.pi)
    for n in resolutions:
        assert divergence_residual(fields, n, model, t0=t0, mutation=mutation) == \
            reference_divergence_residual(fields, n, model, t0=t0, mutation=mutation)


@pytest.mark.parametrize("n,shapes", [
    (64, [(4, 64), (64,)]),
    (128, [(4, 128), (128,)]),
    (256, [(2, 256), (2, 256), (256,)]),
    (512, [(1, 512)] * 4 + [(512,)]),
])
def test_fd_divergence_batches_the_row_0_levels(monkeypatch, n, shapes):
    # the four row-0 levels are one batch while its (4, 4, points) stress
    # temporaries hold at most BATCH_VALUES values, and T^1 at t0 the last call
    from vecf import equations
    calls = []

    def counting(*args, **kwargs):
        calls.append(np.shape(args[2]))
        return stress_tensor_fields(*args, **kwargs)

    stress_tensor_fields = equations.stress_tensor_fields
    monkeypatch.setattr(equations, "stress_tensor_fields", counting)
    equations._fd_divergence(SinusoidalField(length=2.0), n, MODEL, 0.37)
    assert calls == shapes


def test_oracle_rows_apply_the_symbol_to_three_pairs(monkeypatch):
    # the manufactured field is 1+1D: its jet carries the (t, x) rows, and
    # the principal part applies B(e_a, e_m) to the pairs tt, tx and xx
    from vecf import equations
    pairs = []

    def counting(u, f, batch, x, work=None):
        pairs.extend(batch)
        return symbol_apply(u, f, batch, x, work)

    monkeypatch.setattr(equations, "symbol_apply", counting)
    divergence_residual(SinusoidalField(length=2.0), 64, MODEL)
    assert pairs == [(0, 0), (0, 1), (1, 1)]
    pairs.clear()
    rows_of(full_jet2(SinusoidalField(length=2.0), 0.37, np.linspace(0.0, 2.0, 16)), MODEL)
    assert len(pairs) == 10


def test_jet2_carries_the_t_and_x_rows():
    # the jet's rows are the fields' t and x derivatives: central differences
    # of the jet in t and in x reproduce its first and second derivative rows
    fields = SinusoidalField(length=2.0)
    x = np.linspace(0.0, 2.0, 16, endpoint=False)
    u, du, eps, deps, d2 = fields.jet2(0.3, x)
    assert (du.shape, deps.shape) == ((2, 4, 16), (2, 16))
    assert list(d2) == [(0, 0), (0, 1), (1, 1)]
    assert all(v.shape == (5, 16) for v in d2.values())
    h = 1e-5
    for a, (dt, dx) in enumerate(((h, 0.0), (0.0, h))):
        up, dup, ep, dep, _ = fields.jet2(0.3 + dt, x + dx)
        um, dum, em, dem, _ = fields.jet2(0.3 - dt, x - dx)
        # d_a of the first-order jet, as d_a d_m (u, eps) by m
        dd = np.concatenate([dup - dum, (dep - dem)[:, None]], axis=1) / (2 * h)
        for diff, exact in (((up - um) / (2 * h), du[a]), ((ep - em) / (2 * h), deps[a]),
                            (dd[0], d2[0, a]), (dd[1], d2[min(a, 1), 1])):
            assert np.abs(diff - exact).max() < 1e-8


def test_divergence_oracle_reports_match_separate_residuals():
    # the mutated reports reuse the clean finite-difference divergences;
    # the oracle runs at ORACLE_T0, divergence_residual's default
    from vecf.equations import MUTATION, ORACLE_T0, divergence_oracle
    fields = SinusoidalField(length=2.0)
    report = divergence_oracle(fields, MODEL, (32, 64, 128))
    assert report.to_json()["parameters"]["t0"] == ORACLE_T0
    assert report.clean == tuple(divergence_residual(fields, n, MODEL)
                                 for n in (32, 64, 128))
    assert report.mutated == tuple(divergence_residual(fields, n, MODEL, mutation=MUTATION)
                                   for n in (64, 128))


def test_first_order_jets_are_the_second_order_jets_leading_parts():
    fields = SinusoidalField(length=2.0)
    x = np.linspace(0, 2.0, 33, endpoint=False)
    u, du, _ = fields.u_jet(0.3, x)
    eps, deps, _ = fields.eps_jet(0.3, x)
    for got, ref in zip(fields.u_jet(0.3, x, order=1) + fields.eps_jet(0.3, x, order=1),
                        (u, du, eps, deps)):
        assert np.array_equal(got, ref)
