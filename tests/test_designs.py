import decimal
import hashlib
import math
import random
import sys
from itertools import combinations

import pytest

from downcolor import (
    BibdError,
    DesignParams,
    Hypergraph,
    affine_design,
    build_field,
    cor3_point,
    cor4_point,
    degeneracy,
    ds_bounds,
    format_hypergraph,
    hkm_design,
    is_prime,
    prime_power,
    r_plus,
    validate_bibd,
)
from conftest import affine_design_reference, validate_bibd_reference


# ------------------------------------------------------------ number theory

def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(-3, 50):
        assert is_prime(n) == (n in primes)


def test_prime_power():
    assert prime_power(8) == (2, 3)
    assert prime_power(9) == (3, 2)
    assert prime_power(7) == (7, 1)
    assert prime_power(1) is None
    assert prime_power(12) is None
    assert prime_power(100) is None


# ------------------------------------------------------------ finite fields

def test_field_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_field(4)
    with pytest.raises(ValueError):
        build_field(2, 0)
    with pytest.raises(ValueError):
        build_field(2, 25)


def test_field_order_checked_before_primality():
    # neither trial division up to sqrt(p) nor p ** k would finish on these
    for p, k in [(1000000000000000003, 1), (10 ** 400 + 1, 3), (3, 10 ** 12)]:
        with pytest.raises(ValueError, match="exceeds"):
            build_field(p, k)
    with pytest.raises(ValueError, match="not prime"):
        build_field(1, 10 ** 12)
    # nor would the power of a huge dimension
    with pytest.raises(ValueError, match="exceeds cap"):
        affine_design(build_field(3), 10 ** 8)
    with pytest.raises(ValueError, match="exceeds cap"):
        cor4_point(3, 1, 10 ** 8)


def test_field_moduli():
    # first monic irreducible in the fixed candidate order
    assert build_field(2, 2).modulus == (1, 1, 1)       # x^2 + x + 1
    assert build_field(2, 3).modulus == (1, 1, 0, 1)    # x^3 + x + 1
    assert build_field(3, 2).modulus == (1, 0, 1)       # x^2 + 1


@pytest.mark.parametrize("p,k", [(2, 1), (5, 1), (2, 2), (2, 3), (3, 2)])
def test_field_laws(p, k):
    f = build_field(p, k)
    q = p ** k
    els = list(f.elements())
    assert len(els) == q
    assert len({e.value for e in els}) == q
    one, zero = f.one, f.zero
    for a in els:
        assert a + zero == a and a * one == a
        assert a - a == zero
        assert a ** q == a          # Frobenius fixed point
        if a != zero:
            assert a * a.inverse() == one
    rng = random.Random(q)
    for _ in range(40):
        a, b, c = (rng.choice(els) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert (a + b) ** p == a ** p + b ** p


def test_field_element_construction():
    f = build_field(3, 2)
    assert f.element(5).value == 5
    assert f.element([2, 1]).value == 2 + 1 * 3
    assert f.element(0) == f.zero
    for code in (9, -1):
        with pytest.raises(ValueError, match=f"^element encoding {code} out of range$"):
            f.element(code)
    for coeffs in ([1], [1, 2, 0]):
        with pytest.raises(ValueError, match="^need 2 coefficients$"):
            f.element(coeffs)


def test_field_division():
    f = build_field(2, 3)
    els = [e for e in f.elements() if e != f.zero]
    for a in els:
        for b in els:
            assert (a / b) * b == a
    with pytest.raises(ZeroDivisionError, match="^0 has no multiplicative inverse$"):
        f.zero.inverse()


# ------------------------------------------------------------ block designs

@pytest.mark.parametrize("p,k,m,v,b,r,blk", [
    (2, 1, 2, 4, 6, 3, 2),
    (3, 1, 2, 9, 12, 4, 3),
    (2, 1, 3, 8, 28, 7, 2),
    (2, 2, 2, 16, 20, 5, 4),
])
def test_affine_design_parameters(p, k, m, v, b, r, blk):
    h, params = affine_design(build_field(p, k), m)
    assert (params.v, params.b, params.r, params.block_size) == (v, b, r, blk)
    assert params.lambda_ == 1
    assert h.n == v and h.m == b
    assert validate_bibd(h) == params
    # every pair of points lies on exactly one line
    cover = {}
    for e in h.edges:
        for pair in combinations(sorted(e), 2):
            cover[pair] = cover.get(pair, 0) + 1
    assert set(cover.values()) == {1}
    assert len(cover) == v * (v - 1) // 2


def test_affine_design_point_labels():
    h, _ = affine_design(build_field(2), 2)
    assert sorted(h.labels) == ["0.0", "0.1", "1.0", "1.1"]


def test_affine_design_cap():
    with pytest.raises(ValueError):
        affine_design(build_field(2), 13)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_affine_design_matches_reference(q):
    field = build_field(*prime_power(q))
    m = 1
    while q ** m <= 128:
        h, params = affine_design(field, m)
        ref, ref_params = affine_design_reference(field, m)
        assert h.labels == ref.labels
        assert h.edges == ref.edges  # in order: samplers index lines by position
        assert h.simple and ref.simple
        assert params == ref_params
        assert [a.dtype for a in h._csr] == [a.dtype for a in ref._csr]
        m += 1


@pytest.mark.parametrize("p,k,m,digest", [
    (2, 4, 2, "32643898f3c19199e74d317aa76942aca3fd13e8328d6b85d1233932fe53afef"),
    (5, 1, 3, "436888c2f7e460b7c3c077f8aac5f8420dd60335d1881c4070bdb3c9e4afc9fb"),
    (3, 2, 3, "92a06fcd3f6f11243b56d1a77087e3bacbff968c5b4d1386779c96d19185ecd7"),
    (7, 1, 4, "659062f112786d68bbbea2bbaf3443568fd738d9745e5e265ea90637992e4d96"),
])
def test_affine_design_pinned_digest(p, k, m, digest):
    # designs whose point-by-point reference takes seconds to minutes
    h, _ = affine_design(build_field(p, k), m)
    assert hashlib.sha256(format_hypergraph(h).encode()).hexdigest() == digest


def test_discrepancy_witnesses_match_reference():
    for p, k, m in [(2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 2), (5, 1, 2)]:
        w = cor4_point(p, k, m).witness
        ref, _ = affine_design_reference(build_field(p, k), m)
        assert (w.labels, w.edges) == (ref.labels, ref.edges)
    for sigma in (2, 3, 4, 5, 7, 8, 9):
        w = cor3_point(sigma, sigma + 1).witness
        ref, _ = affine_design_reference(build_field(*prime_power(sigma)), 2)
        assert (w.labels, w.edges) == (ref.labels, ref.edges)


def test_hkm_design_shape():
    h = hkm_design(3, 2)
    assert h.n == 6 and h.m == 3
    assert h.sigma == 4
    assert sorted(h.labels)[:2] == ["a1_1", "a1_2"]
    assert degeneracy(h).value == 2  # ind(H(k,m)) = k - 1
    for kk in range(2, 6):
        assert degeneracy(hkm_design(kk, 1)).value == kk - 1


def test_validate_bibd_rejections():
    with pytest.raises(BibdError) as ei:
        validate_bibd(Hypergraph(list("abcd"), [(0, 1, 2), (0, 1)]))
    assert ei.value.reason == "non-uniform-block-size"
    with pytest.raises(BibdError) as ei:
        validate_bibd(Hypergraph(list("abc"), [(0, 1), (1, 2)]))
    assert ei.value.reason == "non-constant-replication"
    # 4-cycle: r = 2 everywhere but pair coverage 0 or 1
    with pytest.raises(BibdError) as ei:
        validate_bibd(Hypergraph(list("abcd"), [(0, 1), (1, 2), (2, 3), (0, 3)]))
    assert ei.value.reason == "non-constant-pair-coverage"
    with pytest.raises(ValueError):
        validate_bibd(Hypergraph(list("ab"), [(0, 1)]))  # k = v is trivial


def test_validate_bibd_matches_counter_reference():
    # whole designs, doubled or with a line repeated or dropped, the
    # k-subsets of a v-set, and random block systems, mostly uniform
    rng = random.Random(41)
    cases = [affine_design(build_field(p, k), m)[0]
             for p, k, m in [(2, 1, 2), (3, 1, 2), (2, 1, 3), (2, 2, 2)]]
    cases += [hkm_design(k, m) for k in (1, 2, 3) for m in (1, 2)]
    cases += [Hypergraph([f"p{i}" for i in range(v)], combinations(range(v), k))
              for v in range(2, 7) for k in range(2, v)]
    for h in cases[:4]:
        for lines in (h.edges * 2, h.edges + h.edges[:1], h.edges[1:]):
            cases.append(Hypergraph(h.labels, lines, simple=False))
        for _ in range(10):
            lines = rng.sample(h.edges, rng.randint(0, h.m))
            cases.append(Hypergraph(h.labels, lines, simple=False))
    for _ in range(200):
        v, k = rng.randint(1, 7), rng.randint(1, 4)
        size = (lambda: min(k, v)) if rng.random() < 0.7 else (lambda: rng.randint(1, v))
        blocks = [rng.sample(range(v), size()) for _ in range(rng.randint(0, 6))]
        if blocks and rng.random() < 0.3:
            blocks.append(rng.choice(blocks))
        cases.append(Hypergraph([f"p{i}" for i in range(v)], blocks, simple=False))
    for h in cases:
        try:
            want = validate_bibd_reference(h)
        except ValueError as exc:
            with pytest.raises(type(exc)) as ei:
                validate_bibd(h)
            assert str(ei.value) == str(exc)
            assert getattr(ei.value, "reason", None) == getattr(exc, "reason", None)
            continue
        got = validate_bibd(h)
        assert (got.v, got.b, got.r, got.block_size, got.lambda_) == want


def test_validate_bibd_counts_isolated_vertices():
    with pytest.raises(BibdError):
        validate_bibd(Hypergraph(list("abcde"), [(0, 1), (2, 3)]))


# ------------------------------------------------------------ discrepancy

def quad_root(sigma, n):
    s = sigma * (sigma - 1)
    return (-(s - 1) + math.sqrt((s - 1) ** 2 + 4 * s * n)) / 2


def test_r_plus_pinned_values():
    assert r_plus(2, 10) == pytest.approx(4, abs=1e-9)
    assert r_plus(3, 21) == pytest.approx(9, abs=1e-9)
    assert r_plus(3, 4) == pytest.approx(3, abs=1e-9)


def test_r_plus_agrees_with_quadratic_formula():
    for sigma in range(2, 7):
        for n in range(1, 200):
            x = r_plus(sigma, n)
            assert x == pytest.approx(quad_root(sigma, n), rel=1e-9)
            s = sigma * (sigma - 1)
            assert abs(x + x * (x - 1) / s - n) <= 1e-9 * n


def test_r_plus_refuses_n_past_the_float_range():
    # sigma = 2: s = 2, and 4*s*n stays finite up to max / 8
    limit = sys.float_info.max / 8
    for n in (10 ** 400, 1e308, math.inf, math.nan):
        for f in (r_plus, ds_bounds):
            with pytest.raises(ValueError) as ei:
                f(2, n)
            assert str(ei.value) == ("n must be a finite number at most "
                                     "2.24712e+307 for sigma = 2")
    x = r_plus(2, limit)
    assert x == pytest.approx(math.sqrt(2 * limit), rel=1e-9)
    assert math.isfinite(ds_bounds(2, limit).cor2)
    with pytest.raises(ValueError, match="sigma is too large"):
        r_plus(10 ** 100, 5)


def r_plus_decimal(sigma, n):
    """The cancellation-free form of the root in 60-digit decimal."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        s, n = decimal.Decimal(sigma * (sigma - 1)), decimal.Decimal(n)
        return 2 * s * n / ((s - 1) + ((s - 1) ** 2 + 4 * s * n).sqrt())


def test_r_plus_relative_accuracy_over_the_float_range():
    for sigma in (2, 3, 6, 50, 10 ** 6):
        limit = sys.float_info.max / (4 * sigma * (sigma - 1))
        for n in [float(f"1e{e}") for e in range(-320, 301)] + [2.3e-308]:
            if n < sys.float_info.min:  # the root would be subnormal
                with pytest.raises(ValueError) as ei:
                    r_plus(sigma, n)
                assert str(ei.value) == "n must be a normal float, at least 2.22507e-308"
            elif n > limit:
                with pytest.raises(ValueError, match="finite number at most"):
                    r_plus(sigma, n)
            else:
                x = decimal.Decimal(r_plus(sigma, n))
                assert abs(x / r_plus_decimal(sigma, n) - 1) <= 1e-9, (sigma, n)


def test_ds_bounds():
    b = ds_bounds(3, 21)
    assert b.thm4 == pytest.approx(9 / 4, abs=1e-12)
    assert b.cor2 == pytest.approx(math.sqrt(6 * 21) / 4, abs=1e-12)
    # thm4 refines cor2 from below
    for sigma in (2, 3, 4):
        for n in (5, 50, 500):
            bb = ds_bounds(sigma, n)
            assert bb.thm4 <= bb.cor2 + 1e-12


def test_cor4_point_values():
    pt = cor4_point(2, 1, 2)
    assert pt.n == 10 and pt.ratio == pytest.approx(4 / 3, abs=1e-12)
    assert pt.thm4_bound == pytest.approx(pt.ratio, abs=1e-9)
    assert pt.witness is not None and pt.witness.n == 4
    pt = cor4_point(3, 1, 2)
    assert pt.n == 21 and pt.ratio == pytest.approx(9 / 4, abs=1e-12)


def test_cor4_point_cap():
    with pytest.raises(ValueError):
        cor4_point(2, 1, 13)
    with pytest.raises(ValueError, match="^dimension must be >= 1$"):
        cor4_point(2, 1, 0)
    # a raised cap admits the same point, formula-only
    pt = cor4_point(2, 1, 13, cap=1 << 13, attach_witness=False)
    assert pt.n == 2 ** 13 + 2 ** 12 * (2 ** 13 - 1)


def test_cor3_point_congruence_gate():
    assert cor3_point(3, 5) is None       # 5*4 not divisible by 3
    pt = cor3_point(3, 4)
    assert pt is not None
    assert pt.n == 21 and pt.ratio == pytest.approx(9 / 4, abs=1e-12)
    assert pt.witness is not None         # k = sigma + 1, sigma a prime power
    with pytest.raises(ValueError, match="^sigma must be >= 2$"):
        cor3_point(1, 2)
    with pytest.raises(ValueError, match="^k must be >= 1$"):
        cor3_point(3, 0)


def test_design_params_identities():
    assert DesignParams(v=4, b=6, r=3, block_size=2, lambda_=1).b == 6
    with pytest.raises(ValueError, match=r"^design identity b\*k = v\*r violated$"):
        DesignParams(v=4, b=7, r=3, block_size=2, lambda_=1)
    with pytest.raises(ValueError,
                       match=r"^design identity lambda\*\(v-1\) = r\*\(k-1\) violated$"):
        DesignParams(v=4, b=6, r=3, block_size=2, lambda_=2)


def test_cor3_matches_cor4_at_affine_plane():
    for sigma in (2, 3, 4):
        p3 = cor3_point(sigma, sigma + 1)
        p, k = prime_power(sigma)
        p4 = cor4_point(p, k, 2)
        assert p3 is not None
        assert p3.n == p4.n
        assert p3.ratio == pytest.approx(p4.ratio, abs=1e-12)
