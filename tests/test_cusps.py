import math

import numpy as np
import pytest

from bour_edge.cusps import (
    CanonicalParameter,
    PlaneCurveJet,
    canonical_parameter,
    classify_edge,
    classify_edge_via_profile,
    classify_plane_cusp,
    profile_curve_jet,
    reparam_invariance_check,
    reparametrize_curve,
)
from bour_edge.errors import NotDiffeo, UnsupportedK, WrongMultiplicity
from bour_edge.expr import parse_expr
from bour_edge.jets import Jet, jet_eval
from bour_edge.profile import make_edge_data


def standard_cusp(n, r, order=7):
    return PlaneCurveJet.from_functions(parse_expr(f"s^{n}"), parse_expr(f"s^{r}"), 0.0, order)


def test_standard_cusp_32():
    result = classify_plane_cusp(standard_cusp(2, 3))
    assert result.tag == "3/2"
    assert result.witnesses["det_32"] == pytest.approx(12.0)


def test_standard_cusp_52():
    result = classify_plane_cusp(standard_cusp(2, 5))
    assert result.tag == "5/2"
    assert result.witnesses["c1"] == pytest.approx(0.0)
    assert result.witnesses["det_52"] == pytest.approx(720.0)


def test_standard_cusp_72():
    result = classify_plane_cusp(standard_cusp(2, 7))
    assert result.tag == "7/2"
    assert result.witnesses["c1"] == pytest.approx(0.0, abs=1e-12)
    assert result.witnesses["c2"] == pytest.approx(0.0, abs=1e-12)
    assert result.witnesses["det_72"] == pytest.approx(10080.0)


def test_standard_cusp_43():
    result = classify_plane_cusp(standard_cusp(3, 4))
    assert result.tag == "4/3"
    assert result.witnesses["det_43"] == pytest.approx(144.0)


def test_standard_cusp_53():
    result = classify_plane_cusp(standard_cusp(3, 5))
    assert result.tag == "5/3"
    assert result.witnesses["det_53"] == pytest.approx(720.0)


def test_regular_point():
    curve = PlaneCurveJet.from_functions(parse_expr("s"), parse_expr("s^2"))
    assert classify_plane_cusp(curve).tag == "regular"


def test_undetermined_cases():
    # (s^2, s^4) is not among the listed cusp types
    assert classify_plane_cusp(standard_cusp(2, 4)).tag == "undetermined"
    # multiplicity 4
    assert classify_plane_cusp(standard_cusp(4, 5)).tag == "undetermined"


def test_nonzero_c1_path():
    # reparametrizing the standard 5/2 cusp by u + u^2 gives c1 = 6
    base = standard_cusp(2, 5, order=9)
    reparam, _ = reparametrize_curve(base, parse_expr("s + s^2"))
    res = classify_plane_cusp(PlaneCurveJet(reparam.x.truncated(7), reparam.y.truncated(7)))
    assert res.tag == "5/2"
    assert res.witnesses["c1"] == pytest.approx(6.0)


def test_min_order_enforced():
    short = PlaneCurveJet.from_functions(parse_expr("s^2"), parse_expr("s^3"), 0.0, 5)
    with pytest.raises(ValueError):
        classify_plane_cusp(short)


def test_reparam_example_k_tilde():
    # phi(u) = u + u^2: predicted c1 = 0*1 + 3*2/1 = 6
    original, transformed, derived = reparam_invariance_check(standard_cusp(2, 7), parse_expr("s + s^2"))
    assert original.tag == "7/2"
    assert transformed.tag == "7/2"
    assert derived == pytest.approx(6.0)
    assert transformed.witnesses["c1"] == pytest.approx(derived, abs=1e-8)


def test_reparam_identity():
    original, transformed, derived = reparam_invariance_check(standard_cusp(2, 7), parse_expr("s"))
    assert original.tag == transformed.tag == "7/2"
    assert derived == pytest.approx(0.0, abs=1e-12)
    for key, value in original.witnesses.items():
        assert transformed.witnesses[key] == pytest.approx(value, abs=1e-10)


def test_reparam_not_diffeo():
    with pytest.raises(NotDiffeo):
        reparam_invariance_check(standard_cusp(2, 3), parse_expr("s^2"))


def test_target_diffeo_example():
    # Phi(x, y) = (x + y^2, y + x^2) applied to the standard cusp
    base = standard_cusp(2, 3, order=9)
    mapped = PlaneCurveJet((base.x + base.y * base.y).truncated(7),
                           (base.y + base.x * base.x).truncated(7))
    assert classify_plane_cusp(mapped).tag == "3/2"


_STANDARD = [(2, 3, "3/2"), (2, 5, "5/2"), (2, 7, "7/2"), (3, 4, "4/3"), (3, 5, "5/3")]


@pytest.mark.parametrize("n,r,tag", _STANDARD)
def test_reparam_invariance_100_trials(n, r, tag):
    rng = np.random.default_rng(1000 + 10 * n + r)
    base = standard_cusp(n, r, order=9)
    mismatches = 0
    for _ in range(100):
        a = rng.uniform(0.5, 2.0) * rng.choice([1.0])  # phi'(0) in [0.5, 2]
        b, c = rng.uniform(-0.5, 0.5, 2)
        phi = parse_expr(f"{a}*s + {b}*s^2 + {c}*s^3")
        _, transformed, derived = reparam_invariance_check(base, phi)
        if transformed.tag != tag:
            mismatches += 1
        if transformed.witnesses.get("c1") is not None and n == 2:
            assert transformed.witnesses["c1"] == pytest.approx(derived, abs=1e-8)
    assert mismatches == 0


@pytest.mark.parametrize("n,r,tag", _STANDARD)
def test_target_diffeo_invariance_100_trials(n, r, tag):
    rng = np.random.default_rng(2000 + 10 * n + r)
    base = standard_cusp(n, r, order=9)
    mismatches = 0
    for _ in range(100):
        # random affine + quadratic local diffeomorphism with det != 0 at 0
        while True:
            lin = rng.uniform(-1.5, 1.5, (2, 2))
            if abs(np.linalg.det(lin)) > 0.2:
                break
        q = rng.uniform(-0.5, 0.5, (2, 3))
        x, y = base.x, base.y
        xx, xy, yy = (x * x).truncated(9), (x * y).truncated(9), (y * y).truncated(9)
        mapped = PlaneCurveJet(
            (lin[0, 0] * x + lin[0, 1] * y + q[0, 0] * xx + q[0, 1] * xy + q[0, 2] * yy).truncated(7),
            (lin[1, 0] * x + lin[1, 1] * y + q[1, 0] * xx + q[1, 1] * xy + q[1, 2] * yy).truncated(7),
        )
        if classify_plane_cusp(mapped).tag != tag:
            mismatches += 1
    assert mismatches == 0


@pytest.mark.parametrize("n,r,tag", _STANDARD)
@pytest.mark.parametrize("lam", [3.0, -0.25, 1e3])
def test_scale_covariance(n, r, tag, lam):
    base = standard_cusp(n, r)
    scaled = PlaneCurveJet(
        Jet(0.0, tuple(lam * c for c in base.x.coeffs)),
        Jet(0.0, tuple(lam * c for c in base.y.coeffs)),
    )
    assert classify_plane_cusp(scaled).tag == tag


def test_canonical_parameter_closed_form():
    # gamma = (u^2/2, u^2/2): |gamma'| = sqrt(2) |u|, s(u) = 2^(1/4) u
    cp = canonical_parameter([parse_expr("s^2/2"), parse_expr("s^2/2")], 0.0, 1, (-1.0, 1.0))
    for u in np.linspace(-0.9, 0.9, 21):
        assert cp(float(u)) == pytest.approx(2.0**0.25 * u, abs=1e-9)
    assert isinstance(cp, CanonicalParameter)


def test_canonical_parameter_fixed_point():
    # already canonical: |gamma'| = |u|
    cp = canonical_parameter([parse_expr("s^2/2"), parse_expr("0")], 0.0, 1, (-1.0, 1.0))
    for u in np.linspace(-0.9, 0.9, 21):
        assert cp(float(u)) == pytest.approx(float(u), abs=1e-9)


def test_canonical_parameter_arclength_for_regular():
    cp = canonical_parameter([parse_expr("cos(s)"), parse_expr("sin(s)")], 0.0, 0, (-1.0, 1.0))
    for u in np.linspace(-0.9, 0.9, 21):
        assert cp(float(u)) == pytest.approx(float(u), abs=1e-9)


def test_canonical_parameter_defining_identity():
    # |dgamma/ds| = |s|^k at 100 points
    comps = [parse_expr("s^2*(1 + s/4)"), parse_expr("s^3")]

    def speed(u):
        return math.hypot(jet_eval(comps[0], float(u), 1).coeffs[1],
                          jet_eval(comps[1], float(u), 1).coeffs[1])

    # interpolant-derivative route at a dense tabulation
    cp = canonical_parameter(comps, 0.0, 1, (-0.8, 0.8), n_samples=2048)
    ds = cp.s_of_u.derivative()
    checked = 0
    for u in np.linspace(-0.75, 0.75, 100):
        if abs(u) < 1e-3:
            continue
        assert abs(speed(u) / float(ds(u)) - abs(cp(float(u)))) < 1e-6
        checked += 1
    assert checked >= 90
    # the chart's own derivative table satisfies it at the default density
    cp_default = canonical_parameter(comps, 0.0, 1, (-0.8, 0.8))
    for u in np.linspace(-0.75, 0.75, 100):
        if abs(u) < 1e-3:
            continue
        assert abs(speed(u) / float(cp_default.dsdu_of_u(u)) - abs(cp_default(float(u)))) < 1e-6


def test_canonical_parameter_inverse_round_trip():
    cp = canonical_parameter([parse_expr("s^2/2"), parse_expr("s^3/3")], 0.0, 1, (-0.9, 0.9))
    for u in np.linspace(-0.8, 0.8, 17):
        assert cp.inverse(cp(float(u))) == pytest.approx(float(u), abs=1e-8)


def test_canonical_parameter_wrong_multiplicity():
    with pytest.raises(WrongMultiplicity):
        canonical_parameter([parse_expr("s^2"), parse_expr("s^3")], 0.0, 2, (-1.0, 1.0))
    with pytest.raises(WrongMultiplicity):
        canonical_parameter([parse_expr("s^3"), parse_expr("s^4")], 0.0, 1, (-1.0, 1.0))


@pytest.mark.parametrize("k", [6, 7])
def test_canonical_parameter_up_to_the_highest_k_its_jets_carry(k):
    # gamma = (u^(k+1), u^(k+2)) has multiplicity k + 1 at 0; |dgamma/ds| = |s|^k
    cp = canonical_parameter([parse_expr(f"s^{k + 1}"), parse_expr(f"s^{k + 2}")], 0.0, k, (-0.5, 0.5))
    for u in (-0.4, -0.1, 0.2, 0.45):
        speed = math.hypot((k + 1) * u**k, (k + 2) * u ** (k + 1))
        assert speed / float(cp.dsdu_of_u(u)) == pytest.approx(abs(cp(u)) ** k, rel=1e-6)


def test_canonical_parameter_past_its_jets_is_refused():
    with pytest.raises(ValueError, match="canonical parameter at k = 8 needs the curve's series "
                                         "at s = 0 to order 17, but they stop at order 16"):
        canonical_parameter([parse_expr("s^9"), parse_expr("s^10")], 0.0, 8, (-0.5, 0.5))


def test_classify_edge_examples(edge_k1, edge_k2):
    assert classify_edge(edge_k1).tag == "3/2"
    assert classify_edge(edge_k2).tag == "4/3"
    d52 = make_edge_data("1 + s^5/120", h=0.0, m=1.0, eps0=1, eps1=1, eps2=1,
                         k=1, J=(-0.5, 0.5))
    assert classify_edge(d52).tag == "5/2"


def test_classify_edge_deeper_cases():
    d72 = make_edge_data("1 + s^7/5040", h=0.1, m=1.0, eps0=1, eps1=1, eps2=1,
                         k=1, J=(-0.5, 0.5))
    assert classify_edge(d72).tag == "7/2"
    d53 = make_edge_data("1 + s^5/120", h=0.1, m=1.0, eps0=1, eps1=1, eps2=1,
                         k=2, J=(-0.5, 0.5))
    assert classify_edge(d53).tag == "5/3"
    flat = make_edge_data("1 + s^8/40320", h=0.0, m=1.0, eps0=1, eps1=1, eps2=1,
                          k=1, J=(-0.5, 0.5))
    assert classify_edge(flat).tag == "undetermined"


def test_classify_edge_unsupported_k():
    data = make_edge_data("1 + s^6/720", h=0.0, m=1.0, eps0=1, eps1=1, eps2=1,
                          k=3, J=(-0.5, 0.5))
    with pytest.raises(UnsupportedK):
        classify_edge(data)


def test_profile_curve_jet_multiplicity(edge_k1, edge_k2):
    for d in (edge_k1, edge_k2):
        curve = profile_curve_jet(d)
        for i in range(1, d.k + 1):
            assert np.max(np.abs(curve.derivative(i))) < 1e-10
        assert np.max(np.abs(curve.derivative(d.k + 1))) > 0.1


def test_classify_edge_via_profile_examples(edge_k1, edge_k2):
    assert classify_edge_via_profile(edge_k1).tag == "3/2"
    assert classify_edge_via_profile(edge_k2).tag == "4/3"
    d52 = make_edge_data("1 + s^5/120", h=0.3, m=1.0, eps0=1, eps1=1, eps2=1,
                         k=1, J=(-0.5, 0.5))
    assert classify_edge(d52).tag == "5/2"
    assert classify_edge_via_profile(d52).tag == "5/2"


def test_classifiers_agree_on_corpus(corpus, ladder_data):
    for d in list(corpus) + list(ladder_data):
        if d.k not in (1, 2):
            continue
        assert classify_edge(d).tag == classify_edge_via_profile(d).tag


def test_classifiers_agree_under_reparametrization(edge_k1):
    # the profile-curve reduction is reparametrization stable
    curve = profile_curve_jet(edge_k1, order=9)
    reparam, _ = reparametrize_curve(curve, parse_expr("s + 0.3*s^2"))
    assert classify_plane_cusp(PlaneCurveJet(reparam.x.truncated(7), reparam.y.truncated(7))).tag == "3/2"


def _hex_witnesses(result):
    return result.tag, {k: v.hex() if isinstance(v, float) else v for k, v in result.witnesses.items()}


# Classifications at 4850ab0, when the dot products went through numpy (BLAS,
# which fuses multiply-adds here), witnesses by float.hex. The first three curves
# read other c1 or c2 bytes from unfused dot products.
CURVE_WITNESSES = [
    ("0.660008*(1.0*s^2 + -1.678737*s^3 + -0.387151*s^4 + 1.380421*s^5 + -1.921867*s^6 + 0.216421*s^7)",
     "-0.65704*(1.0*s^2 + -1.678737*s^3 + -0.387151*s^4 + 1.380421*s^5 + -1.921867*s^6 + 0.216421*s^7)"
     " + 1.259453*s^5",
     ("5/2", {"det_32": "0x1.0000000000000p-49", "c1": "-0x1.425147f130597p+2",
              "det_52": "0x1.2b3fe9b828f29p+9"})),
    ("1.979784*(1.0*s^2 + -0.121921*s^3 + -1.050708*s^4 + -1.14241*s^5 + -1.805178*s^6 + -0.604908*s^7)",
     "0.364624*(1.0*s^2 + -0.121921*s^3 + -1.050708*s^4 + -1.14241*s^5 + -1.805178*s^6 + -0.604908*s^7)"
     " + -1.02102*s^7",
     ("7/2", {"det_32": "-0x1.0000000000000p-52", "c1": "-0x1.768a936c58eeap-2", "det_52": "0x0.0p+0",
              "c2": "-0x1.4fab03341d571p+6", "det_72": "-0x1.3e5ecf61d0cb5p+14"})),
    ("-0.978417*(1.0*s^2 + 0.362674*s^3 + 0.850225*s^4 + 1.785725*s^5 + -0.449685*s^6 + 0.9183*s^7)",
     "-0.732257*(1.0*s^2 + 0.362674*s^3 + 0.850225*s^4 + 1.785725*s^5 + -0.449685*s^6 + 0.9183*s^7)",
     ("undetermined", {"det_32": "0x1.0000000000000p-51", "c1": "0x1.16889c1b54196p+0",
                       "det_52": "-0x1.0000000000000p-43", "c2": "0x1.189057c42e8ffp+6",
                       "det_72": "-0x1.8000000000000p-39"})),
    ("-0.036776*s^2 + -1.60802*s^3 + 0.5199*s^4 + -0.792623*s^5 + 0.835114*s^6 + 1.260856*s^7",
     "-0.687301*s^2 + -0.952396*s^3 + 0.439649*s^4 + -0.988361*s^5 + 0.986765*s^6 + -0.705404*s^7",
     ("3/2", {"det_32": "-0x1.9af1d6944be38p+3"})),
    ("0.245393*s^3 + 1.418759*s^4 + 1.853109*s^5 + 0.811925*s^6 + -1.403156*s^7",
     "1.790904*s^3 + 0.08597*s^4 + -0.288382*s^5 + -0.788065*s^6 + 1.757804*s^7",
     ("4/3", {"det_43": "-0x1.6ad89b697209ep+8"})),
    ("0.309716*(1.0*s^3 + 0.64806*s^4 + 1.225436*s^5 + 0.371132*s^6 + 1.781815*s^7)",
     "-0.942233*(1.0*s^3 + 0.64806*s^4 + 1.225436*s^5 + 0.371132*s^6 + 1.781815*s^7) + -0.580787*s^5",
     ("5/3", {"det_43": "0x1.0000000000000p-48", "det_53": "-0x1.03069ab51c04ep+7"})),
    ("s + 1.0*s^2 + -0.920196*s^3 + 1.542845*s^4 + 1.744792*s^5 + -0.80169*s^6 + 1.790496*s^7",
     "1.0*s^2 + -0.920196*s^3 + 1.542845*s^4 + 1.744792*s^5 + -0.80169*s^6 + 1.790496*s^7",
     ("regular", {"gamma1_norm": "0x1.0000000000000p+0"})),
]

# (classify_edge, classify_edge_via_profile) of the digest data at 4850ab0.
EDGE_WITNESSES = {
    "readme": (("3/2", {"U3": "0x1.0000000000000p+1"}), ("3/2", {"det_32": "0x1.0aaaaaaaaaaacp+1"})),
    "edge_k2": (("4/3", {"U4": "0x1.8000000000002p+2"}), ("4/3", {"det_43": "0x1.83e0f83e0f840p+3"})),
    "six_powers": (("3/2", {"U3": "-0x1.3333333333334p-2"}),
                   ("3/2", {"det_32": "-0x1.8f6b72f42722ep-2"})),
    "high_k10": (None, ("undetermined", {"note": "multiplicity exceeds 3"})),
}


@pytest.mark.parametrize("x, y, want", CURVE_WITNESSES, ids=[want[0] for _, _, want in CURVE_WITNESSES])
def test_curve_witnesses_keep_their_bytes(x, y, want):
    curve = PlaneCurveJet.from_functions(parse_expr(x), parse_expr(y), 0.0, 7)
    assert _hex_witnesses(classify_plane_cusp(curve)) == want


@pytest.mark.parametrize("name", EDGE_WITNESSES)
def test_edge_witnesses_keep_their_bytes(digest_data, name):
    by_edge, by_profile = EDGE_WITNESSES[name]
    data = digest_data[name]
    if by_edge is None:
        with pytest.raises(UnsupportedK):
            classify_edge(data)
    else:
        assert _hex_witnesses(classify_edge(data)) == by_edge
    assert _hex_witnesses(classify_edge_via_profile(data)) == by_profile


@pytest.mark.parametrize("factor", ["1e-200", "1e200", "-1e-200", "1e-300"])
def test_tiny_and_huge_cusps_are_32(factor):
    # products of the raw derivatives underflow (or overflow) at these scales
    curve = PlaneCurveJet.from_functions(parse_expr(f"{factor}*s^2"), parse_expr(f"{factor}*s^3"))
    result = classify_plane_cusp(curve)
    assert result.tag == "3/2"
    assert not any(math.isnan(v) for v in result.witnesses.values())


@pytest.mark.parametrize("x, y, want", CURVE_WITNESSES, ids=[want[0] for _, _, want in CURVE_WITNESSES])
@pytest.mark.parametrize("power", [-300, 3, 300])
def test_scaling_by_a_power_of_two_scales_the_witnesses_exactly(x, y, want, power):
    curve = PlaneCurveJet.from_functions(parse_expr(x), parse_expr(y), 0.0, 7)
    scaled = PlaneCurveJet(Jet(0.0, tuple(math.ldexp(c, power) for c in curve.x.coeffs)),
                           Jet(0.0, tuple(math.ldexp(c, power) for c in curve.y.coeffs)))
    result = classify_plane_cusp(scaled)
    tag, witnesses = want
    assert result.tag == tag
    for key, value in witnesses.items():
        degree = {"c1": 0, "c2": 0, "gamma1_norm": 1}.get(key, 2)
        assert result.witnesses[key] == math.ldexp(float.fromhex(value), degree * power)


def test_reparam_invariance_check_derives_c1_on_a_tiny_curve():
    # the derived c1 comes from gamma'' and gamma''' when the tag carries no c1
    phi = parse_expr("s + 0.3*s^2")
    unit = PlaneCurveJet.from_functions(parse_expr("s^2"), parse_expr("s^3"))
    tiny = PlaneCurveJet.from_functions(parse_expr("1e-200*s^2"), parse_expr("1e-200*s^3"))
    assert reparam_invariance_check(tiny, phi)[2] == reparam_invariance_check(unit, phi)[2]
